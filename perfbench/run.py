"""compfade benchmark: one command, three workloads, outputs checked against
independent references.

    python3 perfbench/run.py --workload series_curves --seed 1 --seconds 30 --trace 0

Workloads (``workloads.py`` holds their frozen inputs):

* ``series_curves`` -- figure curves on the series route with the figure
  settings, their total-mass certificates, and ``PARAM_BOX`` points on the
  default series settings (as ``compfade pdf`` runs them);
* ``oracle_box`` -- ``PARAM_BOX`` curves on the mixture-quadrature oracle
  (``pdf --oracle``) and plain multipath pdf/cdf curves down to rho = 1e-5;
* ``gof_cdf`` -- ``compfade sample`` runs (the README example verbatim,
  plus one seeded run per composite family) and short ``compfade cdf``
  curves, all through ``compfade.cli.main`` in-process.

Load: a closed loop in one process and one thread; the next op starts
when the previous one returns.  ``--seed`` builds one round of ops before
timing starts.  The run repeats that round, each time with fresh densities,
a fixed number of times: as many as fit in ``--seconds`` on the machine
the benchmark was made on (``workloads.rounds``), at least one.  So every
run of a workload attempts the same number of ops.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` it first runs the round once untraced, then repeats it
(one time fewer than ``--trace 0`` does, at least once) with every layer
entry point wrapped (``tracing.py``), and reports the
per-layer metrics, per round, plus ``trace.overhead``, the first traced
round's wall time over the untraced one, minus one, both at the reference
speed (below).  The speed probes that fall inside a span count in its
time, about 3% of it.  Spans are written to ``.perfbench_out/`` under the
checkout.

End-to-end metrics: ``setup_s`` (median of fresh interpreters that import
compfade and build the compfade objects the round uses: models, series
settings), ``wall_s`` (median round wall time), ``ops_per_s``
(successful ops of a round per ``wall_s``), ``op_ms_p50``/``op_ms_p99``
(latency of the successful ops, each op's median over rounds; failures
are counted in ``failed``), ``task_s_p50`` (median over tasks, the ops of
one curve, certificate or CLI command, of a task's median time) and
``peak_rss_mb`` (at the end of the first round).  All times are
seconds at a fixed reference machine speed: a probe kernel running beside
the ops, and for ``setup_s`` a reference interpreter started beside the
set-ups, measure the machine's speed of the moment; ``speed.py`` says why
and how.  The run's mean scale factor is printed
above the result line, and so are the accuracy figures ``fail_share``,
``max_rel_err``, ``mass_err_max`` and ``ks_ratio_max``; these are not in
``BENCHMARK.json`` because they follow the inputs a seed draws far more
than any timing bound allows.

Every op is checked against ``refs.json`` after timing ends.  An op fails
when it raises a typed compfade error, when a CLI call exits non-zero, or
when its value is off its reference by more than the op kind's tolerance.
``correct`` is false when a value is wrong in any way other than the one
known defect class the benchmark keeps visible: ``akm_cdf``, computed as
``1 - Q``, off by no more than the absolute rounding of that subtraction.
A NaN is always wrong.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import speed as S  # noqa: E402
import workloads as W  # noqa: E402

SETUP_PROBES = 7

# Relative tolerance against the reference, per op kind.  The series and
# oracle routes promise about 1e-9; the plain closed forms about 1e-12.
TOLERANCE = {
    "figure_point": 1e-6,
    "box_series": 1e-6,
    "box_oracle": 1e-6,
    "akm_pdf": 1e-9,
    "akm_cdf": 1e-9,
    "am_cdf": 1e-9,
    "extreme_cdf": 1e-9,
}
CDF_CURVE_TOL = 1e-6  # composite ``compfade cdf`` values
MASS_TOL = 1e-6  # |total mass - 1| of a certificate, as the figure check uses
KS_AGREE = 1e-3  # program KS statistic vs the one against the reference cdf
CANCELLATION_ABS = 1e-14  # rounding of 1 - Q near Q = 1
UNDERFLOW = 1e-290  # references below this only need a result below 1e-280

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "task_s_p50": "s",
    "peak_rss_mb": "MB",
}


def import_compfade():
    """Import compfade from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import compfade
        import compfade.cli  # noqa: F401  (the gof_cdf ops call it)
    except ImportError as exc:
        print(f"perfbench: cannot import compfade from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(compfade.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: compfade resolved outside {src}", file=sys.stderr)
        sys.exit(2)
    return compfade


def load_refs() -> dict:
    path = HERE / "refs.json"
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# Turning ops into calls.  Each call looks its compfade entry point up at
# call time, so the traced run's wrappers see it.
# ----------------------------------------------------------------------

def _density(compfade, densities, key, model, options):
    # One density per curve and round execution, made on first use as the
    # CLI makes one per command, so a repeated round starts with a cold
    # kernel cache.
    density = densities.get(key)
    if density is None:
        density = densities[key] = compfade.composite_density(model, **options)
    return density


def _curve_point(compfade, densities, key, model, options, x):
    return _density(compfade, densities, key, model, options).continuous(x)


def _lone_point(compfade, model, options, x):
    return compfade.composite_density(model, **options).continuous(x)


def _call(compfade, name, *args):
    return getattr(compfade, name)(*args)


def _mass(compfade, densities, key, model, options, scale):
    density = _density(compfade, densities, key, model, options)
    return compfade.density_total_mass(density, scale=scale, **W.MASS_ARGS)


def _cli(compfade, argv, work_root):
    # A fresh directory per call, so every repetition's files stay for the
    # check after timing.
    workdir = tempfile.mkdtemp(dir=work_root)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = compfade.cli.main(argv)
    finally:
        os.chdir(cwd)
    return rc, len(out.getvalue()) + len(err.getvalue()), workdir


class Inputs:
    """compfade objects for the pools in ``refs.json``, built once.

    ``specs`` lists what was built, so that a set-up probe can build the
    same objects without the reference pools (``build_specs``).
    """

    def __init__(self, compfade, refs):
        self.cf = compfade
        self.refs = refs
        self._objects = {}
        self.specs = []

    def _get(self, key, family, mp, shadow=None):
        obj = self._objects.get(key)
        if obj is None:
            obj = self._objects[key] = build_spec(self.cf, family, mp, shadow)
            self.specs.append((family, mp, shadow))
        return obj

    def multipath(self, key, family, mp):
        return self._get(("multipath",) + key, family, mp)

    def composite(self, key, family, mp, shadow):
        return self._get(("composite",) + key, family, mp, shadow)


def build_spec(cf, family, mp, shadow=None):
    """A multipath model, or a composite one when ``shadow`` is given."""
    if family == "akm":
        model = cf.AkmParams(mp["alpha"], mp["kappa"], mp["mu"])
    elif family == "am":
        model = cf.AmParams(mp["alpha"], mp["mu"])
    else:
        model = cf.ExtremeParams(mp["alpha"], mp["m"])
    if shadow is None:
        return model
    return cf.CompositeModel(model, cf.GammaShadowParams(*shadow))


def build_specs(cf, specs):
    """Everything a round's calls are made of, from ``Inputs.specs``."""
    objects = [build_spec(cf, *spec) for spec in specs]
    return objects + [cf.SeriesConfig(**W.FIGURE_SERIES), cf.SeriesConfig(), cf.ScaledEnvelope(1.0)]


def _cli_params(params: dict) -> list:
    argv = []
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    return argv


def materialize(ops, inputs: Inputs, work_root: Path, densities: dict) -> list:
    """Pair each op of the round with a zero-argument call and its expected
    value.

    Curve densities live in ``densities``, which ``run_rounds`` empties at
    the start of every round; CLI calls write under ``work_root``.
    """
    cf = inputs.cf
    refs = inputs.refs
    lo, hi, n = W.FIGURE_GRID
    fig_cfg = {"cfg": cf.SeriesConfig(**W.FIGURE_SERIES)}
    default_cfg = {"cfg": cf.SeriesConfig()}
    envelope = cf.ScaledEnvelope(1.0)
    calls = []
    for op in ops:
        kind, ref = op.kind, op.ref
        if kind in ("figure_point", "certificate"):
            c = ref[1]
            _fig, family, mp, shadow = W.FIGURE_CURVES[c]
            model = inputs.composite(("figure", c), family, mp, shadow)
            curve = (densities, ("figure", c), model, fig_cfg)
            if kind == "figure_point":
                x = lo + ref[2] * (hi - lo) / (n - 1)
                call = functools.partial(_curve_point, cf, *curve, x)
                expected = refs["figure"][c]["pdf"][ref[2]]
            else:
                call = functools.partial(_mass, cf, *curve, shadow[0] * shadow[1])
                expected = 1.0
        elif kind in ("box_series", "box_oracle"):
            _, family, d, i = ref
            entry = refs["box"][family][d]
            model = inputs.composite(ref[:3], family, entry["mp"], entry["shadow"])
            b, omega = entry["shadow"]
            x = W.BOX_UNITS[i] * b * omega
            if kind == "box_series":
                call = functools.partial(_lone_point, cf, model, default_cfg, x)
            else:
                call = functools.partial(
                    _curve_point, cf, densities, op.task, model, {"oracle": True}, x
                )
            expected = entry["pdf"][i]
        elif kind in ("akm_pdf", "akm_cdf", "am_cdf", "extreme_cdf"):
            _, pool, d, field, i = ref
            entry = refs["plain"][pool][d]
            family = "akm" if pool.startswith("akm") else pool
            p = inputs.multipath((pool, d), family, entry["mp"])
            rho = W.PLAIN_RHO[i]
            name = {"akm_pdf": "akm_pdf_normalized"}.get(kind, kind)
            args = (p, envelope, rho) if kind == "am_cdf" else (p, rho)
            call = functools.partial(_call, cf, name, *args)
            expected = entry[field][i]
        elif kind in ("sample", "sample_readme", "cdf_curve"):
            name = ref[1]
            if kind == "sample_readme":
                argv = W.README_SAMPLE + ["--out", "samples.txt", "--report", "gof.json", "--strict"]
            elif kind == "sample":
                argv = (
                    ["sample", "--model", name] + _cli_params(W.GOF_MODELS[name])
                    + ["--count", str(W.GOF_COUNT), "--seed", str(ref[2]),
                       "--series-n", str(W.GOF_SERIES_N), "--out", "samples.txt",
                       "--report", "gof.json", "--strict"]
                )
            else:
                glo, ghi, gn = W.CDF_GRID
                argv = (
                    ["cdf", "--model", name] + _cli_params(W.GOF_MODELS[name])
                    + ["--grid", f"{glo}:{ghi}:{gn}", "--series-n", str(W.GOF_SERIES_N),
                       "--format", "json", "--out", "cdf.json"]
                )
            call = functools.partial(_cli, cf, argv, work_root)
            expected = name
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        calls.append((op, call, expected))
    return calls


# ----------------------------------------------------------------------
# Timed loop
# ----------------------------------------------------------------------

def run_rounds(calls, rounds, cf, densities, tracer=None, speed=None):
    """Run the round ``calls`` ``rounds`` times.  Returns per-op records,
    round wall times and the peak resident memory in MB at the end of the
    first round (later rounds only add the benchmark's own records).

    With a running ``speed`` calibration, op and round times exclude the
    probes and are scaled to the reference speed (``speed.py``)."""
    typed = (cf.NonConvergenceError, cf.EvaluationError, cf.DomainError)
    invoke = (lambda call: call())
    if tracer is not None:
        invoke = tracer.span("op", invoke)
    probed = (lambda: speed.spent) if speed is not None else (lambda: 0.0)
    records, spans = [], []
    walls, round_spans = [], []
    for r in range(rounds):
        densities.clear()
        t_round, p_round = perf_counter(), probed()
        for op, call, expected in calls:
            if tracer is not None:
                tracer.op = len(records)
            p0 = probed()
            t0 = perf_counter()
            try:
                value, error = invoke(call), None
            except typed as exc:
                value, error = None, type(exc).__name__
            t1 = perf_counter()
            records.append((r, op, t1 - t0 - (probed() - p0), value, error, expected))
            spans.append((t0, t1))
        t_end = perf_counter()
        walls.append(t_end - t_round - (probed() - p_round))
        round_spans.append((t_round, t_end))
        if r == 0:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if speed is not None:
        records = [rec[:2] + (rec[2] * speed.scale(*span),) + rec[3:]
                   for rec, span in zip(records, spans)]
        walls = [w * speed.scale(*span) for w, span in zip(walls, round_spans)]
    return records, walls, rss_mb


# ----------------------------------------------------------------------
# Checks, after timing
# ----------------------------------------------------------------------

def _rel(value, ref):
    return abs(value / ref - 1.0) if ref != 0.0 else (0.0 if value == 0.0 else math.inf)


def _ks_against(refs, name, samples_path):
    import numpy as np

    values = np.loadtxt(samples_path)
    nonzero = np.sort(values[values > 0.0])
    table = refs["gof"][name]
    cdf = np.interp(nonzero, table["table_x"], table["table_cont"], left=0.0, right=1.0)
    k = nonzero.size
    hi = np.arange(1, k + 1) / k
    lo = np.arange(0, k) / k
    return float(np.max(np.maximum(hi - cdf, cdf - lo)))


def check(record, refs) -> dict:
    """Classify one op: status 'ok', 'failed' (typed error, non-zero exit,
    or the known ``akm_cdf`` cancellation defect) or 'wrong' (anything
    else off, NaN included)."""
    _r, op, _dt, value, error, expected = record
    res = {"status": "ok", "rel_err": None, "mass_err": None, "ks_ratio": None, "out_bytes": 0}
    if error is not None:
        res["status"] = "failed"
        return res
    kind = op.kind
    if kind == "certificate":
        res["mass_err"] = abs(value - 1.0)
        res["status"] = "ok" if res["mass_err"] <= MASS_TOL else "wrong"
        return res
    if kind in TOLERANCE:
        if abs(expected) < UNDERFLOW:
            res["status"] = "ok" if abs(value) < 1e-280 else "wrong"
            return res
        res["rel_err"] = _rel(value, expected)
        if not res["rel_err"] <= TOLERANCE[kind]:
            cancels = kind == "akm_cdf" and abs(value - expected) <= CANCELLATION_ABS
            res["status"] = "failed" if cancels else "wrong"
        return res
    # CLI ops.
    rc, stream_bytes, workdir = value
    name = expected
    files = [p for p in Path(workdir).iterdir() if p.is_file()]
    res["out_bytes"] = stream_bytes + sum(p.stat().st_size for p in files)
    if rc == 1:
        res["status"] = "failed"
        return res
    if rc != 0:
        res["status"] = "wrong"
        return res
    if kind == "cdf_curve":
        got = json.loads((Path(workdir) / "cdf.json").read_text())["values"]
        want = refs["gof"][name]["cdf"]
        errs = [_rel(g, w) for g, w in zip(got, want)]
        # ``max`` would skip a NaN that is not first; test every gap.
        res["rel_err"] = math.nan if any(map(math.isnan, errs)) else max(errs)
        if len(got) != len(want) or not all(e <= CDF_CURVE_TOL for e in errs):
            res["status"] = "wrong"
        return res
    report = json.loads((Path(workdir) / "gof.json").read_text())
    ks_ref = _ks_against(refs, name, Path(workdir) / "samples.txt")
    critical = report["ks_critical_0_001"]
    res["ks_ratio"] = report["ks_statistic"] / critical
    if not report["passed"]:
        res["status"] = "failed"
    elif ks_ref > critical or abs(ks_ref - report["ks_statistic"]) > KS_AGREE:
        res["status"] = "wrong"
    return res


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _pct(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    idx = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[idx]


def end_to_end(records, checks, walls, setup_s, rss_mb) -> dict:
    """Timings are medians over the run's repetitions of the round: of the
    round wall times, of each successful op's times and of each task's
    times.  Per-op medians keep the op at the p99 the same whether a run
    fits three rounds or four."""
    per_round = len(records) // len(walls)
    op_times, task_s = {}, {}
    for k, (rec, c) in enumerate(zip(records, checks)):
        r, op, dt = rec[:3]
        if c["status"] == "ok":
            op_times.setdefault(k % per_round, []).append(dt)
        task_s[r, op.task] = task_s.get((r, op.task), 0.0) + dt
    tasks = {}
    for (_r, task), dt in task_s.items():
        tasks.setdefault(task, []).append(dt)
    op_ms = sorted(statistics.median(v) * 1e3 for v in op_times.values())
    ok = sum(1 for c in checks if c["status"] == "ok")
    wall = statistics.median(walls)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": ok / len(walls) / wall,
        "op_ms_p50": statistics.median(op_ms) if op_ms else math.nan,
        "op_ms_p99": _pct(op_ms, 0.99),
        "task_s_p50": statistics.median(statistics.median(v) for v in tasks.values()),
        "peak_rss_mb": rss_mb,
    }


def quality(checks) -> dict:
    """Accuracy figures printed beside the timings (not gated: they depend
    on which inputs a seed draws far more than timings do)."""
    n = len(checks)
    failed = sum(1 for c in checks if c["status"] != "ok")

    def worst(field):
        vals = [c[field] for c in checks if c[field] is not None]
        return max(vals) if vals else math.nan

    return {
        "fail_share": failed / n,
        "max_rel_err": worst("rel_err"),
        "mass_err_max": worst("mass_err"),
        "ks_ratio_max": worst("ks_ratio"),
    }


def _launch(argv, stdin=None) -> float:
    t0 = perf_counter()
    # No timeout: with one, the wait polls and rounds up to 50 ms steps.
    subprocess.run(argv, input=stdin, text=True, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def setup_time(specs) -> float:
    """Median time of fresh interpreters that import compfade and build the
    compfade objects in ``specs`` (passed on standard input), at the
    reference start-up speed.

    Each set-up is timed between two starts of the reference interpreter
    (``speed.REF_START``) and divided by their mean, then multiplied by
    ``speed.REF_START_S``.  The speed probe of the timed loop does not fit
    here: start-up slows less than it does in the machine's slow spells."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    payload = json.dumps(specs)
    ref = [_launch(S.REF_START)]
    ratios = []
    for _ in range(SETUP_PROBES):
        setup = _launch(probe, payload)
        ref.append(_launch(S.REF_START))
        ratios.append(setup / (0.5 * (ref[-2] + ref[-1])))
    return S.REF_START_S * statistics.median(ratios)


def build(workload, seed, work_root):
    """Import compfade and turn the seed's round into calls.

    Returns (compfade, refs, inputs, calls, densities)."""
    cf = import_compfade()
    refs = load_refs()
    ops = W.build_round(workload, seed, refs)
    inputs = Inputs(cf, refs)
    densities = {}
    work_root.mkdir(parents=True, exist_ok=True)
    return cf, refs, inputs, materialize(ops, inputs, work_root, densities), densities


def setup_probe() -> int:
    """What a fresh interpreter does for ``setup_time``: import compfade and
    build the objects whose specs arrive on standard input."""
    build_specs(import_compfade(), json.load(sys.stdin))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rounds = W.rounds(args.workload, args.seconds)
    work_root = OUT_DIR / f"work_{os.getpid()}"
    try:
        cf, refs, inputs, calls, densities = build(args.workload, args.seed, work_root)
        # The reference pools and op list are the benchmark's own objects;
        # keep them out of the collector's way so they do not inflate the
        # program's garbage-collection time.
        gc.collect()
        gc.freeze()
        speed = S.Speed()
        if args.trace:
            import tracing as T

            tracer = T.Tracer()
            with speed:
                _, plain_walls, _ = run_rounds(calls, 1, cf, densities, speed=speed)
                with T.patched(tracer):
                    records, walls, _ = run_rounds(calls, max(1, rounds - 1), cf, densities,
                                                   tracer=tracer, speed=speed)
        else:
            setup_s = setup_time(inputs.specs)
            with speed:
                records, walls, rss_mb = run_rounds(calls, rounds, cf, densities, speed=speed)
        checks = [check(rec, refs) for rec in records]
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failed = sum(1 for c in checks if c["status"] != "ok")
    wrong = [(rec[1], c) for rec, c in zip(records, checks) if c["status"] == "wrong"]
    for op, c in wrong[:10]:
        print(f"# wrong: {op.kind} {op.ref} rel_err={c['rel_err']}", file=sys.stderr)

    if args.trace:
        metrics = T.layer_metrics(tracer)
        metrics["cli.out_bytes"] = sum(c["out_bytes"] for c in checks)
        metrics = T.per_round(metrics, len(walls))
        metrics["trace.overhead"] = walls[0] / plain_walls[0] - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        T.write_spans(tracer, OUT_DIR / f"spans_{args.workload}_{args.seed}.tsv")
        units = {k: v[0] for k, v in T.LAYER_METRICS.items()}
    else:
        metrics = end_to_end(records, checks, walls, setup_s, rss_mb)
        units = E2E_METRICS
        for name, value in quality(checks).items():
            print(f"{args.workload} {name} {value!r} ratio")
    print(f"{args.workload} rounds {len(walls)} ops {len(records)} failed {failed} wrong {len(wrong)}"
          f" round_s {[round(w, 3) for w in walls[:20]]}")
    print(f"{args.workload} speed_scale {speed.scale(-math.inf, math.inf):.4f}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(setup_probe() if sys.argv[1:] == ["--setup-probe"] else main())
