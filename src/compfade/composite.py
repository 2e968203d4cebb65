"""Composite multipath/shadowing densities and the family table.

Every family is described once, in ``FAMILIES``: its parameter class, name
and fields, its density and cdf at an rms scale and its sampler.  The rest
of the package reads that table instead of branching on parameter types.
A multipath family's density, cdf, sampler, deep-fade atom, behaviour at
the origin and series terms all follow from its clustering form
``poisson_gamma`` = (lam, shape, rate): P^alpha ~ Gamma(shape + N, rate),
N ~ Poisson(lam).

Two independent evaluation routes are provided for every composite family:

* ``mixture_pdf`` integrates the conditional multipath density against the
  gamma shadow density.  It is the ground-truth oracle; ``mixture_cdf``
  does the same with the conditional cdf.  ``composite_cdf`` and
  ``composite_sf`` average the shadow's cdf over the multipath density
  instead, one incomplete gamma per node.
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
  one array pass over points x rows x nodes with each point on its own
  grid, and each point stops on its own.  The points a pass leaves
  unconverged are grouped into passes again at half the step; a point
  whose next grid reaches the node budget splits its rows in two.  Term l is
  the clustering component N = l, or N = l + 1 where component 0 is an
  atom.  The sum runs outward from the Poisson mode on both sides.
  Integrating the kernel by parts bounds every later term ratio of a side
  by one number q; with q < 1 a geometric series bounds the terms it has
  left, and the sum stops once both bounds are within rel_tol of it.

With lam = 0 (the zero-LOS composite) one kernel evaluation is exact.  A
zero shape keeps the deep-fade atom exp(-lam) at zero, which the shadow
average cannot touch.  Evaluations are pure given immutable model objects.
"""

from __future__ import annotations

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
    _density,
    _mixture_cdf,
    _moment,
    _origin,
    _pointwise,
    akm_pdf_normalized,
    am_pdf,
    extreme_pdf,
    gamma_shadow_cdf,
    gamma_shadow_pdf,
)
from .numerics import _FIRST_NODE, integrate_semi_infinite
from .specfun import _LN_MAX, _gross_ln_weight, _reg_gamma
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
_KERNEL_CELLS = 1 << 16  # points x rows x nodes of one array pass, 512 kB
# Node values are taken relative to their row's maximum, so each row's sum is
# at least 1; a value under e^-700 is far below its rounding.  Raising the
# exponents to this floor leaves the sums as they are, and spares exp its
# slow underflowing path.
_EXP_FLOOR = -700.0


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
    for step in (-4.0 * sigma, 4.0 * sigma):
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


def _passes(need: list, rows: int) -> list:
    # The points (indices into ``need``, their node counts) grouped into
    # array passes: taken by rising count, each pass within twice its first
    # count and _KERNEL_CELLS cells unless one point alone is larger.  Each
    # pass lists its points in index order, with its node count.
    if len(need) == 1:
        return [([0], need[0])]
    groups = []
    for i in sorted(range(len(need)), key=need.__getitem__):
        group = groups[-1] if groups else []
        cells = (len(group) + 1) * rows * (need[i] + 1)
        if group and need[i] <= 2 * need[group[0]] and cells <= _KERNEL_CELLS:
            group.append(i)
        else:
            groups.append([i])
    return [(sorted(group), need[group[-1]]) for group in groups]


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
    leaves under rel_tol * e^-5 of the integral.  All rows of a point share
    one uniform grid over both ranges, which holds every row's cut: a row's
    peak lies between the end rows' peaks and phi_p - phi_q = alpha*(p-q)*t,
    so at the left end each row lies at least as far below its peak as the
    smallest-power row does, and at the right end as the largest-power row
    does.  Each row is taken relative to one reference node and shifted by
    its own maximum, so none overflows or cancels.

    Points are evaluated together, in array passes of at most _KERNEL_CELLS
    values unless one point alone is larger: each point keeps its own range
    and step, and a pass's points share its node count, the largest they
    need and at most twice the least (first 2 * max(16, 2 * range/sigma)).
    A pass evaluates each grid once and halves the step of a point whose
    sums at steps h and 2h of some row differ by more than ``rel_tol``; such
    points are grouped into passes again.  A point whose next grid has
    ``budget`` or more intervals, or whose rows' peaks lie too far apart for
    one grid, leaves the passes: its rows run in two halves, each as its
    own call.  A single row over ``budget``, or whose peak is narrower than
    doubles resolve, raises NonConvergenceError.
    """
    given, scales = np.asarray(p, dtype=float), np.asarray(a, dtype=float)
    rows, points = given.reshape(-1), scales.reshape(-1)
    if given.ndim > 1 or rows.size == 0:
        raise DomainError(f"p must be a float or a nonempty 1-D array, got {p!r}")
    if scales.ndim > 1 or points.size == 0:
        raise DomainError(f"a must be a float or a nonempty 1-D array, got {a!r}")
    # The end rows; min and max are NaN if any row is.
    lo_p, hi_p = float(np.minimum.reduce(rows)), float(np.maximum.reduce(rows))
    finite = math.isfinite(lo_p) and math.isfinite(hi_p)
    if not (finite and 0.0 < alpha < math.inf and 0.0 < omega < math.inf):
        for q in (lo_p, hi_p):
            KernelArgs(q, 0.0, alpha, omega)  # raises DomainError
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    ap, floor = alpha * rows, math.log(rel_tol) - 5.0
    ln_alpha, ln_omega = math.log(alpha), math.log(omega)
    out = np.empty((points.size, rows.size))
    # (position, grid, interval count) of each point to evaluate next; a
    # grid is (t0, left, right, big_a, big_b).
    queue = []
    for i, a_i in enumerate(points.tolist()):
        if not 0.0 < a_i < math.inf:
            KernelArgs(lo_p, a_i, alpha, omega)  # raises DomainError unless a_i = 0
            if lo_p <= 0.0:
                raise DivergentIntegralError(f"kernel integral diverges for a = 0 and p = {lo_p!r}")
            out[i] = ln_alpha + ap * ln_omega + np.array([math.lgamma(v) for v in ap])
            continue
        t0, sigma, left, right, big_a, big_b = _kernel_cut(lo_p, a_i, alpha, omega, floor)
        if hi_p > lo_p:
            t1, sigma1, left1, right1, _, _ = _kernel_cut(hi_p, a_i, alpha, omega, floor)
            gap = t1 - t0  # from the smallest-power peak to the largest
            sigma, left, right = min(sigma, sigma1), min(left, gap + left1), max(right, gap + right1)
        # e^(t - t0) overflows at a far peak past 700: such a point splits.
        intervals = budget if right > 700.0 else 2 * max(16, math.ceil(2.0 * (right - left) / sigma))
        queue.append((i, (t0, left, right, big_a, big_b), intervals))
    while queue:
        for i, _, intervals in queue:
            if intervals >= budget:  # a point that cannot share a pass splits
                if rows.size == 1:
                    raise NonConvergenceError(f"kernel budget of {budget} nodes exhausted")
                args = (float(points[i]), alpha, omega, rel_tol, budget)
                halves = np.array_split(rows, 2)
                out[i] = np.concatenate([shadow_kernel_integral_ln(q, *args) for q in halves])
        # By position, so a pass over every point is in order; the rows of a
        # point that a pass leaves unconverged are written again later.
        todo, queue = [t for t in sorted(queue) if t[2] < budget], []
        for group, intervals in _passes([t[2] for t in todo], rows.size):
            entries = [todo[g] for g in group]
            ln_k, unfinished = _kernel_pass(ap, entries, intervals, alpha, ln_alpha, rel_tol)
            if len(group) == points.size:  # every point, in order
                out = ln_k
            else:
                out[[i for i, _, _ in entries]] = ln_k
            queue += unfinished
    if given.ndim or scales.ndim:
        return out.reshape(scales.shape + given.shape)
    return float(out[0, 0])


def _kernel_pass(ap, entries: list, intervals: int, alpha, ln_alpha, rel_tol):
    # One array pass over the points of ``entries``, each on its own grid of
    # ``intervals`` intervals about its t0.  One point's grid values go in as
    # floats, which costs no more array calls than one row set, a group's as
    # (points x 1) columns; arrays run rows x [points x] nodes.  Returns the
    # (points x rows) logs and, for each point not converged, its entry at
    # half the step.
    cols = [
        (t0, left, right, big_a, big_b,
         ln_alpha + math.log((right - left) / intervals) - big_a - big_b)
        for _, (t0, left, right, big_a, big_b), _ in entries
    ]
    cols = cols[0] if len(entries) == 1 else np.array(cols).T[:, :, None]
    t0, left, right, big_a, big_b, shift = cols
    s = left + (right - left) / intervals * np.arange(intervals + 1)
    ex = np.multiply.outer(ap, s)  # phi_p(t0 + s) - phi_p(t0)
    ex -= big_a * np.expm1(-alpha * s) + big_b * np.expm1(s)
    top = np.maximum.reduce(ex, axis=-1, keepdims=True)
    ex -= top
    # With S the node sum at step h, the integral is h*S; the sum at step 2h
    # is twice the even-node sum: the two agree when the half sum over S is
    # 1/2.  NaN never converges.
    np.exp(np.maximum(ex, _EXP_FLOOR, out=ex), out=ex)
    total, half = np.add.reduce(ex, axis=-1), np.add.reduce(ex[..., ::2], axis=-1)
    gaps = np.maximum.reduce(abs(half / total - 0.5), axis=0).reshape(-1).tolist()
    unfinished = [(i, grid, 2 * intervals) for (i, grid, _), gap in zip(entries, gaps)
                  if not gap <= 0.5 * rel_tol]
    return t0 * ap[None, :] + shift + top[..., 0].T + np.log(total).T, unfinished


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

    ``pdf(p, x, scale)`` and ``cdf(p, x, scale)`` evaluate the family at
    rms scale ``scale``: the CLI's plain curves at ``--rhat`` and the
    oracle's conditional density and cdf at shadow scale y.  ``cdf`` and the
    unit-scale sampler ``sample(p, count, rng)`` default to the clustering form.
    Multipath families also carry ``route(m, x, cfg)``, which calls the
    family's public series evaluator by its module-level name, so a wrapper
    installed on that name sees every call.
    """

    name: str
    params: type
    fields: tuple
    pdf: Callable
    cdf: Callable = lambda p, x, scale: _mixture_cdf(p, x / scale)
    sample: Callable = _clustering_draws
    route: Optional[Callable] = None


# The entries call the model functions by their names in this module, so a
# wrapper installed on one of those names sees the call.  Each ``pdf`` and
# ``cdf`` takes a float or a 1-D array for x or for the scale.
_UNIT = ScaledEnvelope(1.0)
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
            pdf=lambda p, x, s: am_pdf(p, _UNIT, x / s) / s,
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


def _atoms(params) -> tuple:
    # Component N = 0 of a zero shape is the deep-fade atom, of mass e^-lam.
    if family_of(params) is SHADOW:
        return ()
    lam, shape, _ = params.poisson_gamma
    return () if shape else ((0.0, math.exp(-lam)),)


def _atom_mass(params) -> float:
    return sum(mass for _, mass in _atoms(params))


def plain_density(params, scale: float = 1.0) -> Density:
    """Full distribution of an unshadowed model at rms scale ``scale``."""
    family = family_of(params)
    return Density(
        continuous=lambda x: family.pdf(params, x, scale), atoms=_atoms(params), vectorized=True,
        continuous_cdf=lambda x: family.cdf(params, x, scale) - _atom_mass(params),
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


def _split_quadrature(f: Callable, edge: float, scale: float, rel_tol, budget) -> float:
    # int_0^inf f with no absolute floor, where f, which takes a 1-D array,
    # changes over u ~ edge; for an edge below the first initial node, (0,
    # cut) takes its own quadrature and budget, with nodes about u ~ edge.
    def quad(g, scale: float) -> float:
        return integrate_semi_infinite(
            g, rel_tol=rel_tol, abs_tol=1e-300, budget=budget, scale=scale, vectorized=True
        ).value

    cut = _FIRST_NODE * scale
    if edge >= cut:
        return quad(f, scale)
    head = quad(lambda w: f(cut * w / (1.0 + w)) * cut / (1.0 + w) ** 2, edge / cut)
    return head + quad(lambda v: f(cut + v), scale)


def _shadow_average(conditional: Callable, m: CompositeModel, x: float, rel_tol, budget):
    # int_0^inf conditional(mp, x, y) f_Y(y) dy, which changes over y ~ x.
    mp, sh = m.multipath, m.shadow
    return _split_quadrature(
        lambda y: conditional(mp, x, y) * gamma_shadow_pdf(sh, y),
        x, max(x, sh.b * sh.omega), rel_tol, budget,
    )


def mixture_pdf(m: CompositeModel, x, rel_tol: float = 1e-9, budget: int = 200_000):
    """Continuous composite density by direct shadow averaging, a quadrature per point.

    This is the ground-truth oracle for the series evaluators.  For extreme
    multipath the mode-independent atom exp(-2m) is not part of this value;
    ``mixture_density`` carries it.
    """
    def value(v: float) -> float:
        return _shadow_average(family_of(m.multipath).pdf, m, v, rel_tol, budget)
    return _pointwise("x", x, lambda: _value_at_origin(m), value)


def mixture_cdf(m: CompositeModel, x, rel_tol: float = 1e-9, budget: int = 200_000):
    """Composite distribution function F(x) = E_Y[F_mp(x / Y)], atoms included.

    The family's closed multipath cdf averaged on ``mixture_pdf``'s
    quadrature; every F_mp(0) holds the deep-fade atom.  With no absolute
    floor the lower tail keeps ``rel_tol`` relative accuracy.
    """
    cdf = family_of(m.multipath).cdf
    return _pointwise(
        "x", x, lambda: cdf(m.multipath, 0.0, 1.0),
        lambda v: min(_shadow_average(cdf, m, v, rel_tol, budget), 1.0),
    )


def mixture_density(m: CompositeModel, rel_tol: float = 1e-9, budget: int = 200_000) -> Density:
    """Full composite distribution on the oracle route (atoms included)."""
    return Density(
        continuous=lambda x: mixture_pdf(m, x, rel_tol=rel_tol, budget=budget),
        atoms=_atoms(m.multipath), vectorized=True,
        continuous_cdf=lambda x: mixture_cdf(m, x, rel_tol, budget) - _atom_mass(m.multipath),
    )


# ----------------------------------------------------------------------
# Composite cdf: the shadow cdf averaged over the multipath
# ----------------------------------------------------------------------

_CDF_REL_TOL = 1e-10


def _multipath_average(m: CompositeModel, x: float, upper: bool) -> float:
    # int_0^inf f(rho) G(b, x / (omega rho)) drho for x > 0, with f the unit-
    # scale multipath density (continuous part) and G = Q if ``upper``, else
    # P: X = P Y with Y ~ Gamma(b, omega) independent of P.  Every value is
    # positive, so both tails keep relative digits.  Where f ~ c rho^e with
    # e < 0 (``models._origin``) it runs in s = rho^((e+1)/2), where the
    # integrand goes like 2c s / (e+1): no singularity, and the next
    # component's fractional power of rho is a power of s above 1.  G
    # changes at rho ~ x/omega.
    mp, b, z = m.multipath, m.shadow.b, x / m.shadow.omega
    pdf, side = family_of(mp).pdf, int(upper)
    e = _origin(mp)[0]
    k = 2.0 / (e + 1.0) if e < 0.0 else 1.0

    def integrand(s):
        rho = s**k
        return pdf(mp, rho, 1.0) * _reg_gamma(b, z / rho)[side] * (k * rho / s)

    return _split_quadrature(integrand, z ** (1.0 / k), 1.0, _CDF_REL_TOL, 200_000)


def composite_cdf(m: CompositeModel, x, *, oracle: bool = False):
    """Composite distribution function F(x), atoms included, at a float or a
    1-D array of points.

    F(x) = atom + int f_mp(rho) P(b, x / (omega rho)) drho: the gamma shadow's
    cdf averaged over the closed multipath density, one incomplete gamma at
    the shadow shape b per node, to relative accuracy 1e-10 in either tail.
    ``oracle=True`` runs ``mixture_cdf`` at each point instead, which
    averages the multipath cdf over the shadow; the two routes share only
    ``integrate_semi_infinite`` and the incomplete gamma.
    """
    if oracle:
        return mixture_cdf(m, x)
    atom = _atom_mass(m.multipath)
    return _pointwise(
        "x", x, lambda: atom, lambda v: min(atom + _multipath_average(m, v, False), 1.0)
    )


def composite_sf(m: CompositeModel, x):
    """Composite survival function S(x) = 1 - F(x) = int f_mp(rho) Q(b, x /
    (omega rho)) drho, at a float or a 1-D array of points, summed directly
    so that the upper tail keeps its relative digits."""
    rest = 1.0 - _atom_mass(m.multipath)
    return _pointwise("x", x, lambda: rest, lambda v: _multipath_average(m, v, True))


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
    # kernel call for it; each point stops on its own.
    if not xs:
        return []
    alpha, omega = m.multipath.alpha, m.shadow.omega
    ln_coeff, g, p0, lam, rate, top = _series_terms(m.multipath, m.shadow)
    ln_xs, inner = list(map(math.log, xs)), [rate * x**alpha for x in xs]
    if lam == 0.0:
        base, slope = ln_coeff(0)
        ln_k = shadow_kernel_integral_ln(p0, np.array(inner), alpha, omega).tolist()
        return [math.exp(base + slope * ln_x + k) for ln_x, k in zip(ln_xs, ln_k)]
    terms = cfg.max_terms + 1 if cfg.use_gross else math.inf

    def ln_kernels(start: int, points=None) -> list:
        # The block of powers that holds term ``start``, one list per point.
        powers = p0 - np.arange(start, min(start + _KERNEL_BLOCK, terms))
        scales = np.array(inner if points is None else [inner[i] for i in points])
        return shadow_kernel_integral_ln(powers, scales, alpha, omega).tolist()

    if cfg.use_gross:
        total = [0.0] * len(xs)
        for start in range(0, terms, _KERNEL_BLOCK):
            block = range(start, min(start + _KERNEL_BLOCK, terms))
            ln_c = [(*ln_coeff(l), _gross_ln_weight(cfg.max_terms, l)) for l in block]
            for i, (ln_x, row) in enumerate(zip(ln_xs, ln_kernels(start))):
                total[i] += sum(math.exp(b + s * ln_x + w + k) for (b, s, w), k in zip(ln_c, row))
        return total
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
    coeffs = {}  # (base, slope) of each term read, computed once for all points
    rel_tol, home = cfg.rel_tol, top - top % _KERNEL_BLOCK
    first = ln_kernels(home)
    base, slope = coeffs[top] = ln_coeff(top)
    ln_top = [base + slope * ln_x + row[top - home] for ln_x, row in zip(ln_xs, first)]
    value, rest = [math.exp(v) for v in ln_top], [0.0] * len(xs)
    for step in (1, -1):
        # The points still summing this side, their kernel rows of block
        # ``start`` and their last terms.
        active, rows, ln_last = range(len(xs)), first, list(ln_top)
        l, start = top + step, home
        while active and l >= 0:
            if not start <= l < start + _KERNEL_BLOCK:
                start += step * _KERNEL_BLOCK
                rows = ln_kernels(start, active)
            end = start + _KERNEL_BLOCK if step > 0 else start - 1
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
        if isinstance(x, float):
            return _series_sum(m, [x], cfg)[0]
        return np.array(_series_sum(m, x.tolist(), cfg))

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
    return Density(
        continuous=lambda x: composite_pdf(m, x, cfg), atoms=_atoms(m.multipath), vectorized=True,
        continuous_cdf=lambda x: _pointwise(
            "x", x, lambda: 0.0, lambda v: _multipath_average(m, v, False)
        ),
    )
