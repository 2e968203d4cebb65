"""Tests of the benchmark itself (not of compfade).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as R  # noqa: E402
import speed as S  # noqa: E402
import workloads as W  # noqa: E402

cf = R.import_compfade()
import tracing as T  # noqa: E402  (needs compfade on the path)
REFS = R.load_refs()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _keys(ops):
    return [(op.kind, op.task, op.ref) for op in ops]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_op_list(workload):
    assert _keys(W.build_round(workload, 7, REFS)) == _keys(W.build_round(workload, 7, REFS))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_other_seed_other_op_list(workload):
    assert _keys(W.build_round(workload, 7, REFS)) != _keys(W.build_round(workload, 8, REFS))


def test_seeds_share_one_make_up():
    for workload in W.WORKLOADS:
        shapes = {tuple(sorted(op.kind for op in W.build_round(workload, seed, REFS)))
                  for seed in (1, 2, 3)}
        assert len(shapes) == 1, workload


def test_defect_ops_are_one_draw_for_every_seed():
    # Every run of a workload then attempts and fails the same ops.
    for workload, kinds in (("series_curves", {"box_series"}),
                            ("oracle_box", {"akm_pdf", "akm_cdf", "am_cdf", "extreme_cdf"})):
        draws = {tuple(sorted(op.ref for op in W.build_round(workload, seed, REFS)
                              if op.kind in kinds)) for seed in (1, 2, 3)}
        assert len(draws) == 1, workload


def test_round_count_follows_seconds_only():
    assert [W.rounds(w, 24) for w in W.WORKLOADS] == [3, 8, 1]
    assert all(W.rounds(w, 0.5) == 1 for w in W.WORKLOADS)


def test_rounds_repeat_the_same_calls():
    seen = []
    calls = [(W.Op("akm_pdf", "t", ()), lambda: seen.append(len(seen)) or 1.0, 1.0)]
    records, walls, _ = R.run_rounds(calls, 3, cf, {})
    assert len(walls) == 3 and [rec[0] for rec in records] == [0, 1, 2] and seen == [0, 1, 2]


def test_timings_are_medians_of_rounds():
    a, b = W.Op("akm_pdf", "t1", ()), W.Op("akm_pdf", "t2", ())
    records = [(0, a, 1.0), (0, b, 0.2), (1, a, 0.5), (1, b, 0.4), (2, a, 0.6), (2, b, 0.3)]
    ok = [{"status": "ok"}] * 6
    m = R.end_to_end(records, ok, [1.2, 0.9, 1.0], 0.1, 40.0)
    assert m["wall_s"] == 1.0 and m["ops_per_s"] == pytest.approx(2 / 1.0)
    assert m["op_ms_p50"] == pytest.approx(450.0) and m["op_ms_p99"] == pytest.approx(600.0)
    assert m["task_s_p50"] == pytest.approx(0.45)


def test_speed_scale_follows_the_probes():
    speed = S.Speed()
    speed.starts, speed.durations = [0.0, 1.0, 2.0, 10.0], [1e-3, 1e-3, 2e-3, 5e-3]
    assert speed.scale(0.9, 1.1) == pytest.approx(S.REF_PROBE_S / 1e-3)
    assert speed.scale(1.4, 1.6) == pytest.approx(S.REF_PROBE_S / 1.5e-3)
    with pytest.raises(RuntimeError):
        speed.scale(5.0, 6.0)


def test_probe_time_is_taken_out_of_op_times(monkeypatch):
    monkeypatch.setattr(S.Speed, "scale", lambda self, a, b: 1.0)

    def busy():
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        return 1.0

    calls = [(W.Op("akm_pdf", "t", ()), busy, 1.0)]
    with S.Speed() as speed:
        records, _, _ = R.run_rounds(calls, 1, cf, {}, speed=speed)
    assert len(speed.starts) >= 5
    assert records[0][2] == pytest.approx(0.3 - speed.spent, abs=5e-3)


def _raise_nonconvergence():
    raise cf.NonConvergenceError("budget exhausted")


def test_nonconvergence_counts_as_failed_not_dropped():
    op = W.Op("box_series", "t", ("box", "akm", 0, 0))
    good = W.Op("akm_pdf", "t", ("plain", "akm", 0, "pdf", 0))
    expected = REFS["plain"]["akm"][0]["pdf"][0]
    calls = [(op, _raise_nonconvergence, 1.0), (good, lambda: expected, expected)]
    records, walls, _ = R.run_rounds(calls, 1, cf, {})
    assert len(records) == 2 and len(walls) == 1
    checks = [R.check(rec, REFS) for rec in records]
    assert [c["status"] for c in checks] == ["failed", "ok"]
    assert R.quality(checks)["fail_share"] == 0.5


def _plain_record(kind, pool, field, i, scale, d=0):
    """A real plain-model evaluation, its value multiplied by ``scale``."""
    inputs = R.Inputs(cf, REFS)
    op = W.Op(kind, "t", ("plain", pool, d, field, i))
    [(op, call, expected)] = R.materialize([op], inputs, HERE, {})
    value = call() * scale
    return (0, op, 0.0, value, None, expected)


def test_reference_check_passes_true_value():
    assert R.check(_plain_record("akm_pdf", "akm", "pdf", 8, 1.0), REFS)["status"] == "ok"


@pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6, 2.0, math.nan])
def test_reference_check_catches_perturbed_value(scale):
    assert R.check(_plain_record("akm_pdf", "akm", "pdf", 8, scale), REFS)["status"] == "wrong"


def test_flushed_lower_tail_is_wrong_outside_akm_cdf():
    # A tiny but representable am-gamma lower tail flushed to 0 is a
    # defect, not the known ``akm_cdf`` ``1 - Q`` rounding.  (The extreme
    # family has an atom at 0, so its cdf has no tiny values to flush.)
    pool = REFS["plain"]["am"]
    d, i = next((d, i) for d, e in enumerate(pool)
                for i, v in enumerate(e["cdf"]) if 1e-280 < v < 1e-14)
    rec = _plain_record("am_cdf", "am", "cdf", i, 0.0, d)
    assert R.check(rec, REFS)["status"] == "wrong"


def test_cdf_curve_nan_is_wrong(tmp_path):
    name = "am-gamma"
    values = list(REFS["gof"][name]["cdf"])
    values[1] = math.nan
    (tmp_path / "cdf.json").write_text(json.dumps({"values": values}))
    rec = (0, W.Op("cdf_curve", "t", ("gof", name)), 0.0, (0, 0, str(tmp_path)), None, name)
    assert R.check(rec, REFS)["status"] == "wrong"


def test_cancellation_class_is_failed_but_not_wrong():
    # rho = 1e-5 on the roadmap parameter set: 1 - Q returns rounding noise.
    rec = _plain_record("akm_cdf", "akm_roadmap", "cdf", 0, 1.0)
    assert R.check(rec, REFS)["status"] == "failed"
    off = rec[:3] + (rec[3] + 1e-12,) + rec[4:]
    assert R.check(off, REFS)["status"] == "wrong"


def test_certificate_mass_check():
    op = W.Op("certificate", "t", ("figure", 0))
    assert R.check((0, op, 0.0, 1.0 + 1e-8, None, 1.0), REFS)["status"] == "ok"
    assert R.check((0, op, 0.0, 1.0 + 1e-5, None, 1.0), REFS)["status"] == "wrong"


def test_metric_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    names += list(R.E2E_METRICS) + list(T.LAYER_METRICS)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [m["name"] for m in bench["end_to_end"]] == list(R.E2E_METRICS)
    assert [m["name"] for m in bench["per_layer"]] == list(T.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)


def test_tracer_self_time_and_counts():
    tracer = T.Tracer()
    inner = tracer.span("numerics.quad", lambda: cf.integrate_semi_infinite(lambda u: 2.0 / (1 + u) ** 3), T._quad_count)
    outer = tracer.span("composite.kernel", lambda: inner().value)
    assert outer() == pytest.approx(1.0)
    kernel, quad = tracer.spans
    assert quad[T.PARENT] == 0 and quad[T.COUNT] > 0
    assert kernel[T.CHILD] == pytest.approx(quad[T.END] - quad[T.START])
    metrics = T.layer_metrics(tracer)
    assert metrics["composite.kernel.evals"] == quad[T.COUNT]
    assert metrics["composite.kernel.calls"] == 1


def _traced(ops):
    densities = {}
    calls = R.materialize(ops, R.Inputs(cf, REFS), HERE, densities)
    tracer = T.Tracer()
    with T.patched(tracer):
        R.run_rounds(calls, 1, cf, densities, tracer=tracer)
    return T.layer_metrics(tracer)


def test_series_points_touch_no_specfun_and_never_hit_the_cache():
    m = _traced([W.Op("figure_point", "t", ("figure", 1, i)) for i in (100, 101)])
    assert m["composite.series.points"] == 2 and m["composite.kernel.calls"] > 10
    assert m["composite.series.terms"] == m["composite.kernel.calls"]
    assert m["composite.kernel.hit_ratio"] == 0.0
    assert m["specfun.bessel.calls"] == m["specfun.marcum.calls"] == m["specfun.gamma_inc.calls"] == 0


def test_oracle_points_run_no_kernel():
    m = _traced([W.Op("box_oracle", "t", ("box", "akm", 0, i)) for i in range(3)])
    assert m["composite.oracle.points"] == 3 and m["composite.oracle.evals"] > 0
    assert m["composite.kernel.calls"] == 0 and m["specfun.bessel.calls"] > 0
    assert m["numerics.quad.self_s"] > 0.0
