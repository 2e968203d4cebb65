"""Span recorder and layer wrappers for the traced run.

The wrappers live here, not in compfade: ``patched(tracer)`` replaces each
layer entry point under the name its caller looks it up by (a module
attribute), and puts the originals back on exit.  Two kinds of wrapper:

* a *span* records name, start, end, parent span, op id and a work count
  read from the return value (``QuadratureResult.evaluations``,
  ``SeriesResult.terms_used``, the same fields of a
  ``NonConvergenceError.result``, the draw count of a ``SampleBatch``);
* a *leaf* is for entry points called once per integrand evaluation
  (densities, special functions).  It only adds to a per-name call count
  and time, which keeps memory bounded, but it still charges its duration
  to the enclosing span so self times stay right.

Spans stay in memory and ``write_spans`` writes them out after the run.
Self time is a span's duration minus the time its child spans and leaves
cover.
"""

from __future__ import annotations

import contextlib
import functools
import math
from time import perf_counter

import compfade
from compfade import cli, composite, mc, models, specfun
from compfade.errors import NonConvergenceError
from compfade.numerics import QuadratureResult, SeriesResult

# Span record fields.
NAME, START, END, PARENT, OP, COUNT, CHILD, FAILED, ERR = range(9)


class Tracer:
    """In-memory span store for one traced run (single thread)."""

    def __init__(self):
        self.spans: list = []
        self.ids: list = []  # open span ids, innermost last
        self.child: list = [0.0]  # child-time accumulators, one per open frame
        self.leaves: dict = {}  # name -> [calls, seconds]
        self.op = -1

    def span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self.ids[-1] if self.ids else -1,
                   self.op, 0, 0.0, False, math.nan]
            self.ids.append(len(self.spans))
            self.spans.append(rec)
            self.child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            except NonConvergenceError as exc:
                rec[FAILED] = True
                if count is not None and exc.result is not None:
                    count(rec, exc.result, args)
                raise
            except Exception:
                rec[FAILED] = True
                raise
            else:
                if count is not None:
                    count(rec, result, args)
                return result
            finally:
                rec[END] = perf_counter()
                rec[CHILD] = self.child.pop()
                self.ids.pop()
                self.child[-1] += rec[END] - rec[START]

        return wrapper

    def leaf(self, name: str, fn):
        stats = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A frame of its own, so a leaf nested in a leaf (a Bessel call
            # inside a density) is charged to the enclosing span only once.
            self.child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.child.pop()
                stats[0] += 1
                stats[1] += dt
                self.child[-1] += dt

        return wrapper


# A NonConvergenceError raised inside a nested call passes through the
# outer wrappers too; only a result of the wrapped function's own type
# is counted.

def _quad_count(rec, result, _args):
    if isinstance(result, QuadratureResult):
        rec[COUNT] = result.evaluations
        if result.value != 0.0:
            rec[ERR] = abs(result.error_estimate / result.value)


def _sum_count(rec, result, _args):
    if isinstance(result, SeriesResult):
        rec[COUNT] = result.terms_used


def _draw_count(rec, result, _args):
    if isinstance(result, mc.SampleBatch):
        rec[COUNT] = len(result.values)


def _mass_err(rec, result, _args):
    if isinstance(result, mc.CdfTable):
        rec[ERR] = abs(result.total_mass - 1.0)


def _targets():
    """(module, attribute, layer name, wrapper kind, counter) for every
    entry point, patched where its callers look it up."""
    quad = [(mod, "integrate_semi_infinite", "numerics.quad", "span", _quad_count)
            for mod in (composite, models, mc, cli)]
    pdfs = [(mod, name, "models.pdf", "leaf", None)
            for mod in (composite, compfade)
            for name in ("akm_pdf_normalized", "am_pdf", "extreme_pdf", "gamma_shadow_pdf")]
    cdfs = [(mod, name, "models.cdf", "leaf", None)
            for mod in (models, compfade)
            for name in ("akm_cdf", "am_cdf", "extreme_cdf", "gamma_shadow_cdf")]
    return quad + pdfs + cdfs + [
        (composite, "shadow_kernel_integral_ln", "composite.kernel", "span", None),
        (composite, "akm_gamma_pdf_series", "composite.series", "span", None),
        (composite, "am_gamma_pdf", "composite.series", "span", None),
        (composite, "extreme_gamma_pdf", "composite.series", "span", None),
        (composite, "mixture_pdf", "composite.oracle", "span", None),
        (composite, "sum_adaptive", "numerics.sum", "span", _sum_count),
        (compfade, "density_total_mass", "models.mass", "span", None),
        (models, "density_total_mass", "models.mass", "span", None),
        (specfun, "bessel_i_scaled", "specfun.bessel", "leaf", None),
        (specfun, "marcum_q", "specfun.marcum", "leaf", None),
        (specfun, "reg_lower_gamma", "specfun.gamma_inc", "leaf", None),
        (specfun, "reg_upper_gamma", "specfun.gamma_inc", "leaf", None),
        (mc, "sample_composite", "mc.sample", "span", _draw_count),
        (mc, "build_cdf_table", "mc.table", "span", _mass_err),
        (mc, "gof_compare", "mc.gof", "span", None),
        (cli, "main", "cli.cmd", "span", None),
    ]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every layer entry point through ``tracer`` for the block."""
    saved = []
    try:
        for mod, attr, name, kind, count in _targets():
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            wrapped = tracer.span(name, fn, count) if kind == "span" else tracer.leaf(name, fn)
            setattr(mod, attr, wrapped)
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "composite.kernel.calls": ("count", "lower"),
    "composite.kernel.s": ("s", "lower"),
    "composite.kernel.evals": ("count", "lower"),
    "composite.kernel.evals_per_call": ("count", "lower"),
    "composite.kernel.hit_ratio": ("ratio", "higher"),
    "composite.series.points": ("count", "higher"),
    "composite.series.s": ("s", "lower"),
    "composite.series.terms": ("count", "lower"),
    "composite.series.terms_per_point": ("count", "lower"),
    "composite.series.fail": ("count", "lower"),
    "composite.oracle.points": ("count", "higher"),
    "composite.oracle.s": ("s", "lower"),
    "composite.oracle.evals": ("count", "lower"),
    "composite.oracle.evals_per_point": ("count", "lower"),
    "numerics.quad.calls": ("count", "lower"),
    "numerics.quad.evals": ("count", "lower"),
    "numerics.quad.self_s": ("s", "lower"),
    "numerics.quad.fail": ("count", "lower"),
    "numerics.quad.err_max_rel": ("ratio", "lower"),
    "numerics.sum.calls": ("count", "lower"),
    "numerics.sum.terms": ("count", "lower"),
    "numerics.sum.fail": ("count", "lower"),
    "models.pdf.calls": ("count", "lower"),
    "models.pdf.s": ("s", "lower"),
    "models.cdf.calls": ("count", "lower"),
    "models.cdf.s": ("s", "lower"),
    "models.mass.calls": ("count", "lower"),
    "models.mass.s": ("s", "lower"),
    "specfun.bessel.calls": ("count", "lower"),
    "specfun.bessel.s": ("s", "lower"),
    "specfun.marcum.calls": ("count", "lower"),
    "specfun.marcum.s": ("s", "lower"),
    "specfun.gamma_inc.calls": ("count", "lower"),
    "specfun.gamma_inc.s": ("s", "lower"),
    "mc.sample.draws": ("count", "higher"),
    "mc.sample.s": ("s", "lower"),
    "mc.sample.draws_per_s": ("1/s", "higher"),
    "mc.table.calls": ("count", "lower"),
    "mc.table.s": ("s", "lower"),
    "mc.table.density_calls": ("count", "lower"),
    "mc.table.mass_err_max": ("ratio", "lower"),
    "mc.gof.s": ("s", "lower"),
    "cli.cmd.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics that add up over a run; reported per round, so that runs which
# fit different numbers of rounds (a faster commit fits more) compare.
PER_ROUND_SUFFIXES = (".calls", ".s", ".self_s", ".evals", ".points", ".terms",
                      ".fail", ".draws", ".density_calls", ".out_bytes")


def per_round(metrics: dict, rounds: int) -> dict:
    return {k: (v / rounds if k.endswith(PER_ROUND_SUFFIXES) else v) for k, v in metrics.items()}


def layer_metrics(tracer: Tracer) -> dict:
    """Aggregate the spans and leaves into ``LAYER_METRICS`` values, as
    totals over the run (``per_round`` divides them).

    ``cli.out_bytes`` and ``trace.overhead`` are measured by the runner,
    not by spans, and are filled in there.
    """
    spans = tracer.spans
    by = {}
    for i, s in enumerate(spans):
        by.setdefault(s[NAME], []).append(i)

    def name_of(i):
        return spans[i][NAME] if i >= 0 else None

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name):
        return sum(dur(i) for i in by.get(name, ()))

    def child_counts(parent_name, child_name):
        return sum(spans[i][COUNT] for i in by.get(child_name, ())
                   if name_of(spans[i][PARENT]) == parent_name)

    def under(i, ancestor_name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == ancestor_name:
                return True
            p = spans[p][PARENT]
        return False

    kernels = len(by.get("composite.kernel", ()))
    kernel_evals = child_counts("composite.kernel", "numerics.quad")
    # A series point nested in another (kappa ~ 0 reroutes akm to am) is
    # one point, not two.
    points = [i for i in by.get("composite.series", ())
              if name_of(spans[i][PARENT]) != "composite.series"]
    # The zero-LOS route is one exact kernel with no series: one term.
    sum_parents = {spans[i][PARENT] for i in by.get("numerics.sum", ())}
    terms = child_counts("composite.series", "numerics.sum") + sum(
        1 for i in points if i not in sum_parents
    )
    oracle = by.get("composite.oracle", ())
    oracle_evals = child_counts("composite.oracle", "numerics.quad")
    quads = by.get("numerics.quad", ())
    sums = by.get("numerics.sum", ())
    samples = by.get("mc.sample", ())
    tables = by.get("mc.table", ())
    leaves = tracer.leaves

    def leaf(name):
        return leaves.get(name, [0, 0.0])

    def self_time(name):
        return sum(dur(i) - spans[i][CHILD] for i in by.get(name, ()))

    errs = [spans[i][ERR] for i in quads if not math.isnan(spans[i][ERR])]
    mass_errs = [spans[i][ERR] for i in tables if not math.isnan(spans[i][ERR])]
    sample_s = total("mc.sample")
    draws = sum(spans[i][COUNT] for i in samples)
    return {
        "composite.kernel.calls": kernels,
        "composite.kernel.s": total("composite.kernel"),
        "composite.kernel.evals": kernel_evals,
        "composite.kernel.evals_per_call": _ratio(kernel_evals, kernels),
        "composite.kernel.hit_ratio": 1.0 - _ratio(kernels, terms) if terms else 0.0,
        "composite.series.points": len(points),
        "composite.series.s": sum(dur(i) for i in points),
        "composite.series.terms": terms,
        "composite.series.terms_per_point": _ratio(terms, len(points)),
        "composite.series.fail": sum(1 for i in points if spans[i][FAILED]),
        "composite.oracle.points": len(oracle),
        "composite.oracle.s": total("composite.oracle"),
        "composite.oracle.evals": oracle_evals,
        "composite.oracle.evals_per_point": _ratio(oracle_evals, len(oracle)),
        "numerics.quad.calls": len(quads),
        "numerics.quad.evals": sum(spans[i][COUNT] for i in quads),
        "numerics.quad.self_s": self_time("numerics.quad"),
        "numerics.quad.fail": sum(1 for i in quads if spans[i][FAILED]),
        "numerics.quad.err_max_rel": max(errs, default=0.0),
        "numerics.sum.calls": len(sums),
        "numerics.sum.terms": sum(spans[i][COUNT] for i in sums),
        "numerics.sum.fail": sum(1 for i in sums if spans[i][FAILED]),
        "models.pdf.calls": leaf("models.pdf")[0],
        "models.pdf.s": leaf("models.pdf")[1],
        "models.cdf.calls": leaf("models.cdf")[0],
        "models.cdf.s": leaf("models.cdf")[1],
        "models.mass.calls": len(by.get("models.mass", ())),
        "models.mass.s": total("models.mass"),
        "specfun.bessel.calls": leaf("specfun.bessel")[0],
        "specfun.bessel.s": leaf("specfun.bessel")[1],
        "specfun.marcum.calls": leaf("specfun.marcum")[0],
        "specfun.marcum.s": leaf("specfun.marcum")[1],
        "specfun.gamma_inc.calls": leaf("specfun.gamma_inc")[0],
        "specfun.gamma_inc.s": leaf("specfun.gamma_inc")[1],
        "mc.sample.draws": draws,
        "mc.sample.s": sample_s,
        "mc.sample.draws_per_s": _ratio(draws, sample_s),
        "mc.table.calls": len(tables),
        "mc.table.s": total("mc.table"),
        "mc.table.density_calls": sum(1 for i in points + list(oracle) if under(i, "mc.table")),
        "mc.table.mass_err_max": max(mass_errs, default=0.0),
        "mc.gof.s": self_time("mc.gof"),
        "cli.cmd.self_s": self_time("cli.cmd"),
    }


def write_spans(tracer: Tracer, path) -> None:
    """One tab-separated line per span, in start order."""
    with open(path, "w") as fh:
        fh.write("id\tname\tstart\tend\tparent\top\tcount\tchild_s\tfailed\n")
        for i, s in enumerate(tracer.spans):
            fh.write(
                f"{i}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t{s[OP]}"
                f"\t{s[COUNT]}\t{s[CHILD]:.9f}\t{int(s[FAILED])}\n"
            )
        for name, (calls, seconds) in sorted(tracer.leaves.items()):
            fh.write(f"#leaf\t{name}\tcalls={calls}\tseconds={seconds:.9f}\n")
