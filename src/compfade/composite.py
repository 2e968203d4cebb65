"""Composite multipath/shadowing densities and the family table.

Every family is described once, in ``FAMILIES``: its parameter class, name
and fields, its density and cdf at an rms scale and its sampler.  The rest
of the package reads that table instead of branching on parameter types.
A multipath family's density, cdf, sampler, deep-fade atom, behaviour at
the origin and series terms all follow from its clustering form
``poisson_gamma`` = (lam, shape, rate): P^alpha ~ Gamma(shape + N, rate),
N ~ Poisson(lam).

Two independent evaluation routes are provided for every composite family:

* ``mixture_pdf`` averages the gamma shadow density over the multipath
  density: the ground-truth oracle.  ``mixture_cdf`` averages the
  multipath cdf over the shadow.  ``composite_cdf`` and ``composite_sf``
  average the shadow's cdf over the multipath density, one incomplete
  gamma per node, on ``mixture_pdf``'s integrand.  Every one integrates a
  power law v^p, p < 1, of its integrand at 0 in s = v^((p+1)/2).  The
  multipath density there does not depend on x, so the points of one call
  (or of one ``mixture_density``) share f_mp at shared nodes: every point
  starts on the same nodes in s and refines by the same dyadic panels.
* The series evaluators expand the Bessel factor of the conditional density
  and push the shadow average through term by term, which leaves one
  shadow-kernel integral per term:

      K(p, A) = int_0^inf u^(p-1) exp(-A/u) exp(-u^(1/alpha)/omega) du

  A step-halving trapezoid rule in t = ln(u)/alpha, where the integrand has
  double-exponential tails, computes it to geometric accuracy (Trefethen &
  Weideman, SIAM Review 2014).  The terms of one point share A, alpha and
  omega and differ only in the power p0 - l, so one kernel call takes a
  block of powers (rows) on one grid in t that serves them all; the series
  sum fetches the block of a term when it reaches it.  The points of a
  batch share the Poisson mode, so they share each block's kernel call,
  and each point stops on its own.  In a call of many points the range
  search that bounds each point's grid runs over them all at once, as
  array passes.  Points of like range share one grid, on which every node
  sum of the block is one matrix product (points x nodes) @ (nodes x
  rows).  Term l is the clustering component N = l, or N = l + 1 where
  component 0 is an atom.  The sum runs outward from the
  Poisson mode on both sides.
  Integrating the kernel by parts bounds every later term ratio of a side
  by one number q; with q < 1 a geometric series bounds the terms it has
  left, and the sum stops once both bounds are within rel_tol of it.

With lam = 0 (the zero-LOS composite) one kernel evaluation is exact.  A
zero shape keeps the deep-fade atom exp(-lam) at zero, which the shadow
average cannot touch.  Evaluations are pure given immutable model objects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import DivergentIntegralError, DomainError, NonConvergenceError
from .models import (
    AkmParams,
    AmParams,
    Density,
    ExtremeParams,
    GammaShadowParams,
    ScaledEnvelope,
    _atom_mass,
    _density,
    _far,
    _full_density,
    _ln_multipath_pdf,
    _mixture_cdf,
    _moment,
    _multipath_cdf,
    _origin,
    _pointwise,
    akm_pdf_normalized,
    am_pdf,
    extreme_pdf,
    gamma_shadow_cdf,
    gamma_shadow_pdf,
)
from .numerics import _FIRST_NODE, integrate_semi_infinite
from .specfun import _LN_MAX, _gross_ln_weight, _ln_poisson_terms, _reg_gamma, ln_gamma
from .numerics import sum_adaptive  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "CompositeModel",
    "SeriesConfig",
    "KernelArgs",
    "MultipathParams",
    "Family",
    "FAMILIES",
    "MULTIPATH_FAMILIES",
    "SHADOW",
    "family_of",
    "plain_density",
    "shadow_kernel_integral",
    "shadow_kernel_integral_ln",
    "mixture_pdf",
    "mixture_cdf",
    "mixture_density",
    "composite_cdf",
    "composite_sf",
    "akm_gamma_pdf_series",
    "am_gamma_pdf",
    "extreme_gamma_pdf",
    "extreme_gamma_density",
    "composite_pdf",
    "composite_density",
]

MultipathParams = Union[AkmParams, AmParams, ExtremeParams]


@dataclass(frozen=True)
class CompositeModel:
    """One multipath model whose rms scale is replaced by a gamma shadow."""

    multipath: MultipathParams
    shadow: GammaShadowParams

    def __post_init__(self):
        if _BY_PARAMS.get(type(self.multipath)) not in MULTIPATH_FAMILIES:
            raise DomainError(f"unsupported multipath model: {self.multipath!r}")
        if not isinstance(self.shadow, GammaShadowParams):
            raise DomainError(f"shadow must be GammaShadowParams, got {self.shadow!r}")


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation settings for the Bessel-series composite evaluators.

    With ``use_gross`` false the ascending-series terms are summed, with no
    term cap, until a proven bound on the terms left is within ``rel_tol``
    of the sum (see the module docstring); with it true the degree-n
    (n = ``max_terms``) polynomial surrogate weights are used and all n+1
    terms are summed (the weights depend on n: no incremental stopping).
    """

    max_terms: int = 40
    rel_tol: float = 1e-8
    use_gross: bool = False

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")


@dataclass(frozen=True)
class KernelArgs:
    """Arguments of the shadow-kernel integral.

    ``p`` is the power exponent of u, ``a`` the inner-exponential scale
    (mu*(1+kappa)*x^alpha or 2m*r^alpha in the composite series), and
    (alpha, omega) come from the model.
    """

    p: float
    a: float
    alpha: float
    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.p)):
            raise DomainError(f"p must be finite, got {self.p!r}")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise DomainError(f"a must be finite and >= 0, got {self.a!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha!r}")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise DomainError(f"omega must be finite and > 0, got {self.omega!r}")


_KERNEL_REL_TOL = 1e-10
_KERNEL_BUDGET = 60_000
_KERNEL_BLOCK = 24  # series terms per kernel call; most points need 10 to 20
_KERNEL_CELLS = 1 << 16  # points x nodes of one pass's point matrix, 512 kB
_KERNEL_GROUP = 1.25  # most nodes of a shared grid, per node a point needs alone
_CUT_LANES = 48  # fewest lanes (points x end rows) whose range search runs as arrays


def _kernel_cut(p: float, a: float, alpha: float, omega: float, floor: float):
    """Peak t* of phi(t) = alpha*p*t - a*e^(-alpha*t) - e^t/omega, its width
    sigma = (-phi''(t*))^(-1/2), the offsets (left, right) from t* where
    phi - phi(t*) first falls to ``floor``, and the exponentials a*e^(-alpha*t*)
    and e^(t*)/omega."""
    # phi' = ap + alpha*a*e^(-alpha*t) - e^t/omega falls strictly, from ap at
    # mid on to where one exponential alone cancels ap: the root lies between.
    ap, ln_a, ln_omega = alpha * p, math.log(a), math.log(omega)
    mid = (math.log(alpha) + ln_a + ln_omega) / (alpha + 1.0)
    lo = (ln_a - math.log(math.exp(mid) / (alpha * omega) - min(p, 0.0))) / alpha
    hi = math.log(max(ap, 0.0) * omega + math.exp(mid))
    t_next = hi if p > 0.0 else lo
    for _ in range(200):
        t = t_next
        big_a, big_b = math.exp(ln_a - alpha * t), math.exp(t - ln_omega)
        slope, curvature = ap + alpha * big_a - big_b, alpha * alpha * big_a + big_b
        lo, hi = (t, hi) if slope > 0.0 else (lo, t)
        t_next = t + slope / curvature
        t_next = t_next if lo < t_next < hi else 0.5 * (lo + hi)
        if slope * slope <= 1e-12 * curvature or t_next == t:  # step < 1e-6 sigma
            break
    # Any anchor within a width of the peak gives the same integral; one
    # farther off means the peak is narrower than the spacing of doubles.
    if slope * slope > curvature:
        k = KernelArgs(p, a, alpha, omega)
        raise NonConvergenceError(f"kernel peak cannot be resolved in double precision for {k!r}")
    sigma = 1.0 / math.sqrt(curvature)
    # phi(t + s) - phi(t) and its slope overflow nowhere in [-lo_s, hi_s].
    lo_s = (700.0 - max(ln_a - alpha * t, 0.0)) / alpha
    hi_s = 700.0 - max(t - ln_omega, 0.0)
    ends = []
    for step in (-min(4.0 * sigma, lo_s), min(4.0 * sigma, hi_s)):  # a flat peak: sigma ~ 1e62
        s = 0.0
        for _ in range(200):
            if not -lo_s <= s + step <= hi_s:
                step *= 0.5
                continue
            da, db = big_a * math.expm1(-alpha * (s + step)), big_b * math.expm1(s + step)
            drop, slope = ap * (s + step) - da - db, ap + alpha * (big_a + da) - (big_b + db)
            if drop <= floor:
                ends.append(s + step)
                break
            if slope * step >= 0.0:  # rounding noise: no tangent to follow
                break
            # concavity: phi reaches floor by the tangent's root
            s, step = s + step, (floor - drop) / slope
    if len(ends) < 2:
        k = KernelArgs(p, a, alpha, omega)
        raise NonConvergenceError(f"kernel range search failed for {k!r}")
    return t, sigma, ends[0], ends[1], big_a, big_b


@np.errstate(all="ignore")  # inf and NaN arise silently, as in Python floats, and fail a lane
def _kernel_cuts(p, a, alpha: float, omega: float, floor: float) -> tuple:
    """``_kernel_cut`` at powers ``p`` and scales ``a`` that broadcast together,
    as six arrays of their shape: every lane takes that function's steps and
    stops by its tests, and each pass computes only the lanes still going."""
    shape = np.broadcast_shapes(np.shape(p), np.shape(a))
    p, a = (np.broadcast_to(v, shape).ravel() for v in (p, a))
    ap, ln_a, ln_omega, n = alpha * p, np.log(a), math.log(omega), p.size
    mid = (math.log(alpha) + ln_a + ln_omega) / (alpha + 1.0)
    lo = (ln_a - np.log(np.exp(mid) / (alpha * omega) - np.minimum(p, 0.0))) / alpha
    hi = np.log(np.maximum(ap, 0.0) * omega + np.exp(mid))
    t, lane_a, lane_ap = np.where(p > 0.0, hi, lo), ln_a, ap
    on, peak = np.arange(n), np.empty((5, n))  # t, A, B, slope and curvature where a lane stops
    for i in range(200):
        big_a, big_b = np.exp(lane_a - alpha * t), np.exp(t - ln_omega)
        slope, curvature = lane_ap + alpha * big_a - big_b, alpha * alpha * big_a + big_b
        lo, hi = np.where(slope > 0.0, t, lo), np.where(slope > 0.0, hi, t)
        t_next = t + slope / curvature
        t_next = np.where((lo < t_next) & (t_next < hi), t_next, 0.5 * (lo + hi))
        stop = (slope * slope <= 1e-12 * curvature) | (t_next == t) | (i == 199)
        peak[:, on[stop]] = t[stop], big_a[stop], big_b[stop], slope[stop], curvature[stop]
        go = ~stop
        on, t, lo, hi, lane_a, lane_ap = (v[go] for v in (on, t_next, lo, hi, lane_a, lane_ap))
        if not on.size:
            break
    t, big_a, big_b, slope, curvature = peak
    unresolved, sigma = slope * slope > curvature, 1.0 / np.sqrt(curvature)
    # Both walks at once, lanes 0..n-1 to the left and n..2n-1 to the right,
    # in [lo_s, hi_s], where phi(t + s) - phi(t) and its slope overflow nowhere.
    lo_s = np.tile((np.maximum(ln_a - alpha * t, 0.0) - 700.0) / alpha, 2)
    hi_s = np.tile(700.0 - np.maximum(t - ln_omega, 0.0), 2)
    step = np.concatenate((np.maximum(-4.0 * sigma, lo_s[:n]), np.minimum(4.0 * sigma, hi_s[n:])))
    on, s, ends = np.arange(2 * n), np.zeros(2 * n), np.full(2 * n, math.nan)
    wa, wb, wap = np.tile(big_a, 2), np.tile(big_b, 2), np.tile(ap, 2)
    for _ in range(200):
        x = s + step
        inside = (lo_s <= x) & (x <= hi_s)  # else the step halves
        u = np.where(inside, x, 0.0)
        da, db = wa * np.expm1(-alpha * u), wb * np.expm1(u)
        drop, slope = wap * u - da - db, wap + alpha * (wa + da) - (wb + db)
        done = inside & (drop <= floor)
        ends[on[done]] = x[done]
        go = ~inside | ~(done | (slope * step >= 0.0))  # no tangent to follow: the lane fails
        on, s, x, inside, drop, slope, step, lo_s, hi_s, wa, wb, wap = (
            v[go] for v in (on, s, x, inside, drop, slope, step, lo_s, hi_s, wa, wb, wap))
        if not on.size:
            break
        s = np.where(inside, x, s)
        step = np.where(inside, (floor - drop) / np.where(inside, slope, 1.0), 0.5 * step)
    for bad, message in ((unresolved, "kernel peak cannot be resolved in double precision"),
                         (np.isnan(ends[:n] + ends[n:]), "kernel range search failed")):
        if bad.any():  # the first lane that failed, named as the float search names it
            k = KernelArgs(float(p[np.argmax(bad)]), float(a[np.argmax(bad)]), alpha, omega)
            raise NonConvergenceError(f"{message} for {k!r}")
    return tuple(v.reshape(shape) for v in (t, sigma, ends[:n], ends[n:], big_a, big_b))


def _groups(todo: list) -> list:
    # ``todo`` cut into runs (lo, hi, points) that share a grid over [lo, hi]
    # within _KERNEL_GROUP and _KERNEL_CELLS (rounding adds up to 3 nodes).
    groups = []
    for entry in todo:
        _, _, _, left, right, _, _, intervals = entry
        if groups:
            lo, hi = min(run[0], left), max(run[1], right)
            density, least = max(density, intervals / (right - left)), min(least, intervals)
            nodes = (hi - lo) * density
            if nodes <= _KERNEL_GROUP * least and (len(run[2]) + 1) * (nodes + 3) <= _KERNEL_CELLS:
                run[2].append(entry)
                run = groups[-1] = (lo, hi, run[2])
                continue
        run, density, least = (left, right, [entry]), intervals / (right - left), intervals
        groups.append(run)
    return groups


def shadow_kernel_integral_ln(
    p,
    a,
    alpha: float,
    omega: float,
    rel_tol: float = _KERNEL_REL_TOL,
    budget: int = _KERNEL_BUDGET,
):
    """Natural log of the shadow-kernel integral, for one power or many, at
    one inner scale or many.

    ``p`` is a float or a 1-D array of powers (rows); ``a`` is a float or a
    1-D array of inner scales (points), which share (alpha, omega).  The
    result has the shape of ``a`` followed by that of ``p``: a float, a row
    vector, a point vector or a (points x rows) array.  With u = e^(alpha*t)
    a value is ln(alpha * int exp(phi_p(t)) dt), phi_p(t) = alpha*p*t -
    a*e^(-alpha*t) - e^t/omega: closed form for a = 0 (divergent for p <=
    0).  For a > 0 each phi_p is strictly concave with double-exponential
    tails.  Its peak t*(p) rises with p and its curvature alpha^2*a*e^(-alpha*t)
    + e^t/omega is convex in t, so the smallest- and largest-power rows
    bound every peak and include the narrowest row.  For those two, at each
    point, Newton's method finds the peak and width sigma =
    (-phi''(t*))^(-1/2), and the range walks out (4 sigma, then tangent
    steps) until phi - phi(t*) <= ln(rel_tol) - 5, past which concavity
    leaves under rel_tol * e^-5 of the integral.  From _CUT_LANES lanes
    (points times end rows) on, that search runs over all the points and
    both rows at once as masked array passes, each lane stopping by the
    float search's tests; fewer lanes take it point by point.  One range
    of offsets s from the smallest-power peak t0 holds every row's cut: a
    row's peak lies between the end rows' peaks and phi_p - phi_q =
    alpha*(p-q)*t, so at the left end each row lies at least as far below
    its peak as the smallest-power row does, and at the right end as the
    largest-power row does.  A point alone takes 2 * max(16, 2 * range/sigma) intervals.

    Points, taken by rising scale, share a uniform grid of offsets s over
    their ranges' union at their finest node density, while it needs at
    most _KERNEL_GROUP times the nodes of each alone.  With a point's A =
    a*e^(-alpha*t0) and B = e^t0/omega the exponent is [alpha*p_ref*s -
    A*expm1(-alpha*s) - B*expm1(s)] + alpha*(p - p_ref)*s: a points x nodes
    matrix W, rows shifted by their maxima and raised to e^-400, times a
    shared nodes x rows matrix V within e^(+-150) (rows run in blocks with
    alpha*(p_max - p_min)*range/2 <= 300), so every node sum is a product
    in the normal range and no raised node reaches e^-100 of its row's
    peak.  A point whose sums at steps h and 2h (the even nodes) differ in
    some row by more than ``rel_tol`` doubles its intervals and is grouped
    again; one whose next grid has ``budget`` or more intervals, or whose
    rows' peaks lie too far apart for one grid, runs its rows in two
    halves, each as its own call.  A single row over ``budget``, or whose
    peak is narrower than doubles resolve, raises NonConvergenceError.
    """
    given, scales = np.asarray(p, dtype=float), np.asarray(a, dtype=float)
    rows, points = given.reshape(-1), scales.reshape(-1)
    if given.ndim > 1 or rows.size == 0:
        raise DomainError(f"p must be a float or a nonempty 1-D array, got {p!r}")
    if scales.ndim > 1 or points.size == 0:
        raise DomainError(f"a must be a float or a nonempty 1-D array, got {a!r}")
    # The end rows; min and max are NaN if any row is.
    lo_p, hi_p = ((float(rows[0]),) * 2 if rows.size == 1 else
                  (float(np.minimum.reduce(rows)), float(np.maximum.reduce(rows))))
    finite = math.isfinite(lo_p) and math.isfinite(hi_p)
    if not (finite and 0.0 < alpha < math.inf and 0.0 < omega < math.inf):
        for q in (lo_p, hi_p):
            KernelArgs(q, 0.0, alpha, omega)  # raises DomainError
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    ap, ends, floor = alpha * rows, (alpha * lo_p, alpha * hi_p), math.log(rel_tol) - 5.0
    ln_alpha, ln_omega = math.log(alpha), math.log(omega)
    out = np.empty((points.size, rows.size))
    # Each point to evaluate next: (a, position, t0, left, right, A, B, intervals).
    # Past _CUT_LANES the range searches of the live points run as array passes.
    end_rows = (lo_p,) if hi_p == lo_p else (lo_p, hi_p)
    queue, live, batch = [], [], points.size * len(end_rows) >= _CUT_LANES
    for i, a_i in enumerate(points.tolist()):
        if not 0.0 < a_i < math.inf:
            KernelArgs(lo_p, a_i, alpha, omega)  # raises DomainError unless a_i = 0
            if lo_p <= 0.0:
                raise DivergentIntegralError(f"kernel integral diverges for a = 0 and p = {lo_p!r}")
            out[i] = ln_alpha + ap * ln_omega + np.array([math.lgamma(v) for v in ap])
            continue
        if batch:
            live.append(i)
            continue
        t0, sigma, left, right, big_a, big_b = _kernel_cut(lo_p, a_i, alpha, omega, floor)
        if hi_p > lo_p:
            t1, sigma1, left1, right1, _, _ = _kernel_cut(hi_p, a_i, alpha, omega, floor)
            gap = t1 - t0  # from the smallest-power peak to the largest
            sigma, left, right = min(sigma, sigma1), min(left, gap + left1), max(right, gap + right1)
        # e^(t - t0) overflows at a far peak past 700: such a point splits.
        intervals = budget if right > 700.0 else 2 * max(16, math.ceil(2.0 * (right - left) / sigma))
        queue.append((a_i, i, t0, left, right, big_a, big_b, intervals))
    if live:  # row 0 of the search at the smallest power, row -1 at the largest
        live_a = points[live]
        t0, sigma, left, right, big_a, big_b = _kernel_cuts(
            np.array(end_rows)[:, None], live_a, alpha, omega, floor)
        gap = t0[-1] - t0[0]
        sigma, left = np.minimum.reduce(sigma), np.minimum(left[0], gap + left[-1])
        right = np.maximum(right[0], gap + right[-1])
        intervals = np.minimum(np.ceil(2.0 * (right - left) / sigma), budget).astype(int)
        intervals = np.where(right > 700.0, budget, 2 * np.maximum(16, intervals))
        columns = (v.tolist() for v in (t0[0], left, right, big_a[0], big_b[0], intervals))
        queue = list(zip(live_a.tolist(), live, *columns))
    while queue:
        for entry in queue:
            if entry[7] >= budget:  # a point that cannot share a grid splits
                if rows.size == 1:
                    raise NonConvergenceError(f"kernel budget of {budget} nodes exhausted")
                args = (entry[0], alpha, omega, rel_tol, budget)
                halves = [shadow_kernel_integral_ln(q, *args) for q in np.array_split(rows, 2)]
                out[entry[1]] = np.concatenate(halves)
        # By scale, so that the groups do not depend on the order of the points.
        todo, queue = [entry for entry in sorted(queue) if entry[7] < budget], []
        for lo, hi, group in _groups(todo):
            # The rows of a point that a pass leaves unconverged are written
            # again later.
            ln_k, unfinished = _kernel_pass(ap, ends, lo, hi, group, alpha, ln_alpha, rel_tol)
            if points.size == 1:
                out = ln_k
            else:
                for entry, row in zip(group, ln_k):
                    out[entry[1]] = row
            queue += unfinished
    if given.ndim or scales.ndim:
        return out.reshape(scales.shape + given.shape)
    return float(out[0, 0])


# Nodes per product in a node sum: within the dgemm K block of the
# scipy-openblas in numpy's wheels (384 on its Haswell kernel) every thread
# count sums in one order.  Other BLAS builds may not.
_GEMM_NODES = 256


def _node_sums(w, v):
    total = w[:, :_GEMM_NODES] @ v[:_GEMM_NODES]
    for k in range(_GEMM_NODES, len(v), _GEMM_NODES):
        total += w[:, k:k + _GEMM_NODES] @ v[k:k + _GEMM_NODES]
    return total


@functools.lru_cache(maxsize=256)  # the lone figure and box points need about 180
def _node_numbers(m: int):
    # 0 .. 2m, the even nodes first (read only: the cache shares them).
    k = np.arange(0.0, 4 * m + 1, 2.0)
    k[m + 1:] -= 2 * m + 1
    k.flags.writeable = False
    return k


def _kernel_pass(ap, ends: tuple, lo: float, hi: float, group: list, alpha, ln_alpha, rel_tol):
    # ``group`` on one grid of 2m intervals over [lo, hi]: the (points x rows)
    # logs and each unconverged point's entry at twice its intervals.
    m = (max([math.ceil(e[7] * ((hi - lo) / (e[4] - e[3]))) for e in group]) + 1) // 2
    h, mid, (lo_ap, hi_ap) = (hi - lo) / (2 * m), 0.5 * (lo + hi), ends
    blocks = max(math.ceil((hi_ap - lo_ap) * (hi - mid) / 300.0), 1)
    width = (hi_ap - lo_ap) / blocks
    ref = lo_ap + 0.5 * width
    # basis: expm1(-alpha*s), expm1(s), s; cols: -A, -B, alpha*p_ref (W's
    # exponent is their product), t0 + mid and the shift of the logs.
    basis = np.multiply.outer((-alpha, 1.0, 1.0), lo + h * _node_numbers(m))
    np.expm1(basis[:2], out=basis[:2])
    cols = np.array([(-e[5], -e[6], ref, e[2] + mid,
                      ln_alpha + math.log(h) - e[5] - e[6] - ref * mid) for e in group])
    pick = np.minimum((ap - lo_ap) // width, blocks - 1) if blocks > 1 else None
    ln_k = cols[:, 3:4] * ap + cols[:, 4:]
    for j in range(1) if pick is None else np.unique(pick).tolist():  # each block with rows
        rows = slice(None) if pick is None else pick == j
        if j:
            cols[:, 2] = ref = lo_ap + (j + 0.5) * width
            ln_k[:, rows] -= j * width * mid
        w = cols[:, :3] @ basis
        top = np.maximum.reduce(w, axis=1, keepdims=True)
        w -= top
        np.exp(np.maximum(w, -400.0, out=w), out=w)
        # With S the node sum at step h, the integral is h*S; the sum at
        # step 2h is twice the even-node sum: the two agree when the half
        # sum over S is 1/2.  V is 1 where every row is p_ref.
        if width:
            v = np.exp(np.multiply.outer(ap[rows] - ref, basis[2] - mid)).T
            half = _node_sums(w[:, :m + 1], v[:m + 1])
            total = half + _node_sums(w[:, m + 1:], v[m + 1:])
        else:
            half = np.add.reduce(w[:, :m + 1], axis=1, keepdims=True)
            total = np.add.reduce(w, axis=1, keepdims=True)
        g = np.maximum.reduce(abs(half / total - 0.5), axis=1)
        gap = np.maximum(gap, g) if j else g
        ln_k[:, rows] += np.log(total) + top
    # NaN never converges.
    unfinished = [e[:7] + (2 * e[7],) for e, g in zip(group, gap.tolist()) if not g <= rel_tol / 2]
    return ln_k, unfinished


def shadow_kernel_integral(
    k: KernelArgs,
    rel_tol: float = _KERNEL_REL_TOL,
    budget: int = _KERNEL_BUDGET,
) -> float:
    """Shadow-kernel integral int_0^inf u^(p-1) e^(-a/u) e^(-u^(1/alpha)/omega) du."""
    ln_value = shadow_kernel_integral_ln(
        k.p, k.a, k.alpha, k.omega, rel_tol=rel_tol, budget=budget
    )
    return math.exp(ln_value) if ln_value <= _LN_MAX else math.inf


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------

def _clustering_draws(p: MultipathParams, count: int, rng: np.random.Generator) -> np.ndarray:
    # Exact unit-scale draws: P = (G / rate)^(1/alpha), G ~ Gamma(shape + N, 1)
    # and N ~ Poisson(lam).  numpy draws nothing for lam = 0 and returns 0
    # for a zero shape, the deep-fade atom.
    lam, shape, rate = p.poisson_gamma
    g = rng.standard_gamma(shape + rng.poisson(lam, size=count))
    return (g / rate) ** (1.0 / p.alpha)


@dataclass(frozen=True)
class Family:
    """Everything the package needs to know about one distribution family.

    ``name`` is the CLI ``--model`` name and the ``model_descriptor`` tag;
    ``fields`` are the constructor arguments of ``params`` in order, which
    double as CLI flags, descriptor keys and ``PARAM_BOX`` keys.

    ``pdf(p, x, scale)`` and ``cdf(p, x, scale)`` evaluate the family at x
    and a float rms scale, the CLI's ``--rhat``; ``cdf`` and the unit-scale
    sampler ``sample(p, count, rng)`` default to the clustering form.
    Multipath families also carry ``route(m, x, cfg)``, which calls the
    family's public series evaluator by its module-level name, so a wrapper
    installed on that name sees every call.
    """

    name: str
    params: type
    fields: tuple
    pdf: Callable
    cdf: Callable = lambda p, x, scale: _mixture_cdf(p, x, "x", scale)
    sample: Callable = _clustering_draws
    route: Optional[Callable] = None


# The entries call the model functions by their names here, so a wrapper on one of those names
# sees the call.  Each ``pdf`` and ``cdf`` takes x as a float or a 1-D array, and a float scale.
FAMILIES = {
    f.name: f
    for f in (
        Family(
            "akm", AkmParams, ("alpha", "kappa", "mu"),
            pdf=lambda p, x, s: akm_pdf_normalized(p, x / s) / s,
            route=lambda m, x, cfg: akm_gamma_pdf_series(m, x, cfg),
        ),
        Family(
            "am", AmParams, ("alpha", "mu"),
            pdf=lambda p, x, s: am_pdf(p, ScaledEnvelope(s), x),
            route=lambda m, x, cfg: am_gamma_pdf(m, x),
        ),
        Family(
            "extreme", ExtremeParams, ("alpha", "m"),
            pdf=lambda p, x, s: extreme_pdf(p, x / s) / s,
            route=lambda m, x, cfg: extreme_gamma_pdf(m, x, cfg),
        ),
        Family(
            "gamma-shadow", GammaShadowParams, ("b", "omega"),
            pdf=lambda g, y, s: gamma_shadow_pdf(g, y / s) / s,
            cdf=lambda g, y, s: gamma_shadow_cdf(g, y / s),
            sample=lambda g, count, rng: rng.gamma(shape=g.b, scale=g.omega, size=count),
        ),
    )
}
MULTIPATH_FAMILIES = tuple(f for f in FAMILIES.values() if f.route is not None)
SHADOW = FAMILIES["gamma-shadow"]
_BY_PARAMS = {f.params: f for f in FAMILIES.values()}


def family_of(params) -> Family:
    """The table entry of a parameter object."""
    family = _BY_PARAMS.get(type(params))
    if family is None:
        raise DomainError(f"unsupported model: {params!r}")
    return family


def plain_density(params, scale: float = 1.0) -> Density:
    """Full distribution of an unshadowed model at rms scale ``scale``."""
    family = family_of(params)
    return _full_density(
        params, lambda x: family.pdf(params, x, scale), lambda x: family.cdf(params, x, scale)
    )


def _value_at_origin(m: CompositeModel) -> float:
    # Near x = 0 the composite density behaves like x^min(e, b - 1): the
    # conditional density goes like c * (x/y)^e / y (``models._origin``) and
    # the shadow density like y^(b-1).  A positive power has the limit zero.
    # With e = 0 and b > 1 the limit is c * E[1/Y] = c / (omega * (b - 1)).
    # With e > 0 and b = 1 the shadow density tends to 1/omega and the limit
    # is E[1/P] / omega over the continuous components (``models._moment``).
    (e, ln_c), b = _origin(m.multipath), m.shadow.b
    if min(e, b - 1.0) > 0.0:
        return 0.0
    if e == 0.0 and b > 1.0:
        return math.exp(ln_c) / (m.shadow.omega * (b - 1.0))
    if e > 0.0 and b == 1.0:
        return _moment(m.multipath, -1.0) / m.shadow.omega
    raise DomainError("composite density is singular at x = 0 for these parameters")


# ----------------------------------------------------------------------
# Mixture-quadrature oracle
# ----------------------------------------------------------------------


def _split_quadrature(f: Callable, ln_edge: float, scale, rel_tol, budget, power) -> float:
    # int_0^inf, with no absolute floor, of an integrand ~ v^power at v -> 0
    # that changes over v ~ edge, given as ln edge.  A power below 1 runs in s = v^(1/k), k =
    # 2/(power + 1), where it goes like s: f(s, k) gives it times dv/ds.  For an
    # edge below the first initial node, (0, cut) takes its own quadrature, in ln s, with the
    # edge toward t = 4/9, which no bisection makes a panel boundary: a feature on one escapes.
    k = 2.0 / (power + 1.0) if power < 1.0 else 1.0
    ln_edge, scale = ln_edge / k, scale ** (1.0 / k)

    def quad(g, scale: float) -> float:  # 5e-324: the least positive double
        return integrate_semi_infinite(
            g, rel_tol=rel_tol, abs_tol=5e-324, budget=budget, scale=scale, vectorized=True
        ).value

    cut = _FIRST_NODE * scale
    if ln_edge >= math.log(cut):
        return quad(lambda s: f(s, k), scale)
    def head(w):  # s = cut e^-w, read as tiny below the normal range, times ds/dw = s
        s = cut * np.exp(-w)
        return f(np.maximum(s, np.finfo(float).tiny), k) * s
    return (quad(head, 1.25 * (1.0 + math.log(cut) - ln_edge))
            + quad(lambda s: f(cut + s, k), scale))


def mixture_pdf(m: CompositeModel, x, rel_tol: float = 1e-9, budget: int = 200_000, *, _memo=None):
    """Continuous composite density by direct shadow averaging, a quadrature per point.

    f(x) = int f_mp(rho) f_Y(x / rho) / rho drho (``_multipath_average``): the
    ground-truth oracle for the series evaluators, which share no quadrature with
    it.  The points of a call share f_mp at shared nodes.  The extreme atom
    exp(-2m) is not part of this value; ``mixture_density`` carries it.
    """
    memo = {} if _memo is None else _memo
    return _pointwise("x", x, lambda: _value_at_origin(m),
                      lambda v: _multipath_average(m, v, _PDF, memo, rel_tol, budget))


def mixture_cdf(m: CompositeModel, x, rel_tol: float = 1e-9, budget: int = 200_000):
    """Composite distribution function F(x) = E_Y[F_mp(x / Y)], atoms included.

    The multipath cdf of ``models`` averaged over the shadow density, in s
    = y^(b/2) below b = 2; every F_mp(0) holds the deep-fade atom.  With no
    absolute floor the lower tail keeps ``rel_tol`` relative accuracy.
    """
    mp, b, omega = m.multipath, m.shadow.b, m.shadow.omega
    ln_norm = ln_gamma(b) + b * math.log(omega)
    atom, far = _atom_mass(mp), _far(mp.alpha, mp.poisson_gamma[2], 1.0)
    def value(v: float) -> float:
        ln_v = math.log(v)
        def f(s, k):  # F_mp(v / y) f_Y(y) dy/ds at y = s^k, with rho = v / y from ln v - k ln s
            ln_s = np.log(s)
            ln_rho = ln_v - k * ln_s
            rho = np.exp(np.minimum(ln_rho, _LN_MAX))  # F_mp = 1 past the doubles
            f_mp = np.array([_multipath_cdf(mp, r, ln_r, 1e-15) if r < far else 1.0
                             for r, ln_r in zip(rho.tolist(), ln_rho.tolist())])
            return (f_mp * gamma_shadow_pdf(m.shadow, s) if b > 15.0  # Loader's form; k = 1
                    else f_mp * k * np.exp((k * b - 1.0) * ln_s - s**k / omega - ln_norm))
        return min(_split_quadrature(f, ln_v, b * omega, rel_tol, budget, b - 1.0), 1.0)
    return _pointwise("x", x, lambda: atom, value)


def mixture_density(m: CompositeModel, rel_tol: float = 1e-9, budget: int = 200_000) -> Density:
    """Full composite distribution on the oracle route (atoms included); its
    ``continuous`` calls share f_mp at shared nodes."""
    memo = {}
    return _full_density(m.multipath, lambda x: mixture_pdf(m, x, rel_tol, budget, _memo=memo),
                         lambda x: mixture_cdf(m, x, rel_tol, budget))


# ----------------------------------------------------------------------
# Composite cdf: the shadow cdf averaged over the multipath
# ----------------------------------------------------------------------

_CDF_REL_TOL = 1e-10
_P, _Q, _PDF = 0, 1, 2  # the sides of ``_multipath_average``: G = P, Q or the shadow density
_MEMO_CAP = 8  # node arrays a memo of ``_multipath_average`` holds before it is cleared


def _multipath_average(m, x: float, side: int, memo: dict, rel_tol=_CDF_REL_TOL,
                       budget=200_000) -> float:
    # int_0^inf f(rho) G(w) drho, x > 0, w = x / (omega rho): f is the unit-scale multipath
    # density (continuous part), ~ c rho^e at 0 (``models._origin``), and G, by ``side``, is
    # P(b, w), Q(b, w) or f_Y(x / rho) / rho = b p(b, w) / x, p the Poisson term w^b e^-w /
    # Gamma(b + 1), changing at rho ~ x/omega; X = P Y, Y ~ Gamma(b, omega).  All values are
    # positive and read from logs, so both tails and a subnormal x, w or rho keep their digits.
    # ``memo`` maps a node array's bytes to ln(f(rho) drho/ds) at one model's points (round-0
    # nodes recur at every x); it is read only, and cleared when full, so threads may share it.
    mp, b, e = m.multipath, m.shadow.b, _origin(m.multipath)[0]
    ln_x, ln_omega = math.log(x), math.log(m.shadow.omega)
    ln_z = ln_x - ln_omega
    # Below z = 1 the density goes like z^min(e, b - 1) / omega, and the pdf side's nodes up to
    # z^-(e+1)/2 times it: past e^300 the nodes carry it over 2^n, the normal result times 2^n.
    ln_top = min(e, b - 1.0) * ln_z - ln_omega if side == _PDF and ln_z < 0.0 else 0.0
    n = max(0, math.ceil((ln_top - 300.0) / math.log(2.0)))
    ln_bx = math.log(b) - ln_x - n * math.log(2.0)

    def integrand(s, k):
        ln_s = np.log(s)
        ln_f = memo.get(key := s.tobytes())
        if ln_f is None:  # f drho/ds = k s^(k-1) f, as rho f, ~ rho^(e+1), underflows before f
            inside = s**k < _far(mp.alpha, mp.poisson_gamma[2], 1.0)  # f is 0 from _far on
            ln_f = np.full_like(s, -math.inf)
            ln_f[inside] = (math.log(k) + _ln_multipath_pdf(mp, s[inside]**k, k * ln_s[inside])
                            + (k - 1.0) * ln_s[inside])
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = ln_f
            ln_f.flags.writeable = False
        ln_w = ln_z - k * ln_s
        w = np.exp(np.minimum(ln_w, _LN_MAX))  # G's limit past the doubles
        if side == _PDF:
            return np.exp(ln_f + ln_bx + _ln_poisson_terms(b, ln_w, w))
        g = _reg_gamma(b, w)[side]  # Q = 1 - P keeps its digits
        if side == _P and (low := w < np.finfo(float).tiny).any():  # P = w^b / Gamma(b + 1)
            g[low] = np.exp(b * ln_w[low] - math.lgamma(b + 1.0))
        return np.exp(ln_f) * g

    return _split_quadrature(integrand, ln_z, 1.0, rel_tol, budget, e) * 2.0**n


def composite_cdf(m: CompositeModel, x, *, oracle: bool = False):
    """Composite distribution function F(x), atoms included, at a float or a
    1-D array of points.

    F(x) = atom + int f_mp(rho) P(b, x / (omega rho)) drho: the gamma shadow's
    cdf averaged over the closed multipath density, one incomplete gamma at
    the shadow shape b per node, to relative accuracy 1e-10 in either tail.
    ``oracle=True`` runs ``mixture_cdf`` at each point instead, which
    averages the multipath cdf over the shadow; the two routes share only
    ``_split_quadrature``, the incomplete gamma and the multipath law.
    """
    if oracle:
        return mixture_cdf(m, x)
    atom, memo = _atom_mass(m.multipath), {}
    return _pointwise(
        "x", x, lambda: atom, lambda v: min(atom + _multipath_average(m, v, _P, memo), 1.0)
    )


def composite_sf(m: CompositeModel, x):
    """Composite survival function S(x) = 1 - F(x) = int f_mp(rho) Q(b, x /
    (omega rho)) drho, at a float or a 1-D array of points, summed directly
    so that the upper tail keeps its relative digits; at most 1 - atom."""
    rest, memo = 1.0 - _atom_mass(m.multipath), {}
    return _pointwise("x", x, lambda: rest, lambda v: min(_multipath_average(m, v, _Q, memo), rest))


# ----------------------------------------------------------------------
# Series route
# ----------------------------------------------------------------------

def _series_terms(mp: MultipathParams, sh: GammaShadowParams):
    # (ln_coeff, g, p0, lam, rate, mode): term l of the density at x > 0 is
    # exp(base + slope ln x), with (base, slope) = ln_coeff(l), times the
    # shadow kernel at power p0 - l and inner scale rate x^alpha.  It is the
    # component n = n0 + l (n0 = 1 where component 0 is the atom) of shape k
    # = shape + n: Pois_n(lam) rate^k x^(alpha k - 1) / (Gamma(k) Gamma(b)
    # omega^b).  Consecutive coefficients differ by lam*inner/g(l); term
    # ``mode`` holds the Poisson mode, or is 0 below it.
    lam, shape, rate = mp.poisson_gamma
    alpha, b = mp.alpha, sh.b
    k0, n0 = (shape, 0) if shape else (1.0, 1)
    ln_rate = math.log(rate)
    ln_lam = math.log(lam) if lam else 0.0  # with lam = 0 only n = 0 is read
    ln_const = -lam - math.lgamma(b) - b * math.log(sh.omega)

    def ln_coeff(l: int) -> tuple:
        n, k = n0 + l, k0 + l
        base = n * ln_lam - math.lgamma(n + 1.0) + k * ln_rate - math.lgamma(k) + ln_const
        return base, alpha * k - 1.0

    g = lambda l: (n0 + l + 1.0) * (k0 + l)  # noqa: E731
    return ln_coeff, g, b / alpha - k0, lam, rate, max(math.floor(lam) - n0, 0)


def _series_sum(m: CompositeModel, xs: list, cfg: Optional[SeriesConfig]) -> list:
    # The series at the points xs > 0, a list, or the one exact term of a
    # single component (which reads no series settings).  Every point shares
    # the Poisson mode, so the points that reach a block of terms share one
    # kernel call for it; each point stops on its own.  The ``use_gross``
    # surrogate runs through the same loop, from term 0 and with no stop.
    if not xs:
        return []
    alpha, omega = m.multipath.alpha, m.shadow.omega
    ln_coeff, g, p0, lam, rate, top = _series_terms(m.multipath, m.shadow)
    try:
        ln_xs, inner = list(map(math.log, xs)), [rate * x**alpha for x in xs]
    except OverflowError:  # the kernel's scale A = rate x^alpha
        raise NonConvergenceError(f"x^alpha overflows at x {max(xs)!r}, alpha {alpha!r}") from None
    if lam == 0.0:  # apart: through the loop, a 2-D kernel call and lists cost am points 12-15%
        base, slope = ln_coeff(0)
        ln_k = shadow_kernel_integral_ln(p0, np.array(inner), alpha, omega).tolist()
        return [math.exp(base + slope * ln_x + k) for ln_x, k in zip(ln_xs, ln_k)]
    terms, rel_tol, coeffs = math.inf, cfg.rel_tol, {}  # (base, slope) of each term, all points
    if cfg.use_gross:  # terms 0..n, weights in the coefficients; rel_tol -inf never stops
        n, top, terms, rel_tol = cfg.max_terms, 0, cfg.max_terms + 1, -math.inf
        ln_c = enumerate(map(ln_coeff, range(terms)))
        coeffs = {l: (base + _gross_ln_weight(n, l), slope) for l, (base, slope) in ln_c}

    def ln_kernels(start: int, points=None) -> list:
        # The block of powers that holds term ``start``, one list per point.
        powers = p0 - np.arange(start, min(start + _KERNEL_BLOCK, terms))
        scales = np.array(inner if points is None else [inner[i] for i in points])
        return shadow_kernel_integral_ln(powers, scales, alpha, omega).tolist()

    # By parts, t(l+1)/t(l) = lam (l - p0 + c_l) / g(l) with c_l the mean of
    # u^(1/alpha) / (alpha omega) under kernel row l, which falls as l rises
    # (a monotone likelihood ratio in u).  So the ratio r seen at k bounds
    # every later ratio from above, and every earlier one from below, by R(l)
    # = (b + lam l) / g(l), b = r g(k) - lam k.  R' has the sign of lam g -
    # (b + lam l) g', g' = g(l + 1) - g(l) - 1 the slope of g: a downward
    # parabola with vertex -b/lam, not negative at 0 if b <= 0.  So over l >= 0
    # R rises, then falls, and R = lam / g' at its peak.  Upward from j (k =
    # j - 1) q = max(R(j), R(j + 1), lam / g'(j + 1)) bounds every ratio;
    # downward (k = j) with b > 0, q = 1 / min(R(j - 1), R(0)) bounds every
    # inverse ratio.  A side then has at most t q / (1 - q) left.
    home = top - top % _KERNEL_BLOCK
    first = ln_kernels(home)
    base, slope = coeffs[top] = coeffs.get(top) or ln_coeff(top)
    ln_top = [base + slope * ln_x + row[top - home] for ln_x, row in zip(ln_xs, first)]
    value, rest = [math.exp(v) for v in ln_top], [0.0] * len(xs)
    for step in (1, -1):
        # The points still summing this side, their kernel rows of block
        # ``start`` and their last terms.
        active, rows, ln_last = range(len(xs)), first, list(ln_top)
        l, start = top + step, home
        while active and 0 <= l < terms:
            if not start <= l < start + _KERNEL_BLOCK:
                start += step * _KERNEL_BLOCK
                rows = ln_kernels(start, active)
            end = min(start + _KERNEL_BLOCK, terms) if step > 0 else start - 1
            going = []
            for i, row in zip(active, rows):
                v, r_, ln_prev, ln_x = value[i], rest[i], ln_last[i], ln_xs[i]
                for j in range(l, end, step):
                    c = coeffs.get(j)
                    if c is None:
                        c = coeffs[j] = ln_coeff(j)
                    ln_t = c[0] + c[1] * ln_x + row[j - start]
                    v += (t := math.exp(ln_t))
                    if j and t <= rel_tol * v:  # only then can the bound stop the sum
                        r = math.exp(step * (ln_t - ln_prev))  # t(k+1)/t(k), k = j - 1 or j
                        if step > 0:  # R(l) = (num + lam (l - j)) / g(l)
                            num, peak = r * g(j - 1) + lam, lam / (g(j + 2) - g(j + 1) - 1.0)
                            q = max(num / g(j), (num + lam) / g(j + 1), peak)  # NaN stays first
                        else:
                            b = r * g(j) - lam * j
                            q = max(g(j - 1) / (r * g(j) - lam), g(0) / b) if b > 0.0 else 1.0
                        if q < 1.0 and r_ + t * q / (1.0 - q) <= rel_tol * v:
                            r_ += t * q / (1.0 - q)
                            break
                    ln_prev = ln_t
                else:
                    going.append(i)
                value[i], rest[i], ln_last[i] = v, r_, ln_prev
            active, l = going, end
    return value


def _series_pdf(m: CompositeModel, x, cfg: Optional[SeriesConfig]):
    # The series at x, a float or a 1-D array, and the origin rule at zero.
    def positive(x):
        try:  # a kernel scale rate x^alpha is 0 here only where x^alpha underflows
            if isinstance(x, float):
                return _series_sum(m, [x], cfg)[0]
            return np.array(_series_sum(m, x.tolist(), cfg))
        except DivergentIntegralError:
            raise NonConvergenceError(f"x^alpha underflows at x {float(np.min(x))!r}") from None

    return _density("x", x, lambda: _value_at_origin(m), positive)


def _require(m: CompositeModel, name: str, caller: str) -> CompositeModel:
    params = FAMILIES[name].params
    if not isinstance(m.multipath, params):
        raise DomainError(f"{caller} requires {params.__name__} multipath parameters")
    return m


def akm_gamma_pdf_series(m: CompositeModel, x, cfg: SeriesConfig = SeriesConfig()):
    """Series form of the LOS composite density.

    ``x`` is a float, giving a float, or a 1-D array, giving an array; the
    points of an array share each kernel call.  Term l couples the
    coefficient x^(alpha*(mu+l)-1) mu^(mu+2l) kappa^l (1+kappa)^(mu+l) /
    (l! Gamma(mu+l) Gamma(b) omega^b e^(mu*kappa)) with the shadow kernel at
    p = b/alpha - mu - l, A = mu*(1+kappa)*x^alpha.  With kappa = 0 term 0
    alone is exact, the zero-LOS form.
    """
    return _series_pdf(_require(m, "akm", "akm_gamma_pdf_series"), x, cfg)


def am_gamma_pdf(m: CompositeModel, r):
    """Exact single-kernel form of the zero-LOS composite density.

    No series truncation is involved: the shadow average of the conditional
    density reduces to one kernel evaluation at p = b/alpha - mu,
    A = mu * r^alpha.  ``r`` is a float or a 1-D array, whose points share
    one kernel call.
    """
    return _series_pdf(_require(m, "am", "am_gamma_pdf"), r, None)


def extreme_gamma_pdf(m: CompositeModel, r, cfg: SeriesConfig = SeriesConfig()):
    """Series form of the severe-fading composite density (continuous part).

    ``r`` is a float or a 1-D array, as for ``akm_gamma_pdf_series``.  Term
    l couples (2m)^(2+2l) r^(alpha*(1+l)-1) e^(-2m) / (l! (l+1)!
    Gamma(b) omega^b) with the shadow kernel at p = b/alpha - 1 - l,
    A = 2m * r^alpha.  The deep-fade atom exp(-2m) rides along unchanged;
    ``extreme_gamma_density`` carries it.
    """
    return _series_pdf(_require(m, "extreme", "extreme_gamma_pdf"), r, cfg)


def extreme_gamma_density(m: CompositeModel, cfg: SeriesConfig = SeriesConfig()) -> Density:
    """Full severe-fading composite distribution on the series route."""
    _require(m, "extreme", "extreme_gamma_density")
    return composite_density(m, cfg)


def composite_pdf(
    m: CompositeModel,
    x,
    cfg: SeriesConfig = SeriesConfig(),
    *,
    oracle: bool = False,
):
    """Continuous composite density at a float or a 1-D array of points,
    series/exact route by default.  ``oracle=True`` forces the
    mixture-quadrature route instead, one quadrature per point.
    """
    if oracle:
        return mixture_pdf(m, x)
    return family_of(m.multipath).route(m, x, cfg)


def composite_density(
    m: CompositeModel,
    cfg: SeriesConfig = SeriesConfig(),
    *,
    oracle: bool = False,
) -> Density:
    """Full composite distribution (atoms included), series/exact route by
    default and the mixture oracle with ``oracle=True``."""
    if oracle:
        return mixture_density(m)
    return _full_density(
        m.multipath, lambda x: composite_pdf(m, x, cfg), lambda x: composite_cdf(m, x)
    )
