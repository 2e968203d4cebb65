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
  gamma shadow density.  It is the ground-truth oracle; ``mixture_cdf``,
  the composite cdf, does the same with the conditional cdf.
* The series evaluators expand the Bessel factor of the conditional density
  and push the shadow average through term by term, which leaves one
  shadow-kernel integral per term:

      K(p, A) = int_0^inf u^(p-1) exp(-A/u) exp(-u^(1/alpha)/omega) du

  A step-halving trapezoid rule in t = ln(u)/alpha, where the integrand has
  double-exponential tails, computes it to geometric accuracy (Trefethen &
  Weideman, SIAM Review 2014).  The terms of one point share A, alpha and
  omega and differ only in the power p0 - l, so one kernel call takes a
  block of powers (rows) on one grid in t that serves them all; the series
  sum fetches the block of a term when it reaches it.  Term l is the
  clustering component N = l, or N = l + 1 where component 0 is an atom.
  The sum runs outward from the Poisson mode on both sides.  Integrating
  the kernel by parts bounds the terms each side has left by a geometric
  series, and the sum stops once both bounds are within rel_tol of it.

With lam = 0 (the zero-LOS composite) one kernel evaluation is exact.  A
zero shape keeps the deep-fade atom exp(-lam) at zero, which the shadow
average cannot touch.  Evaluations are pure given immutable model objects.
"""

from __future__ import annotations

import math
import sys
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
    _check_nonneg,
    _mixture_cdf,
    _moment,
    _origin,
    akm_pdf_normalized,
    am_pdf,
    extreme_pdf,
    gamma_shadow_cdf,
    gamma_shadow_pdf,
)
from .numerics import integrate_semi_infinite
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
_LN_MAX = math.log(sys.float_info.max)  # exp overflows past it


def _kernel_cut(k: KernelArgs, floor: float):
    """Peak t* of phi(t) = alpha*p*t - a*e^(-alpha*t) - e^t/omega, its width
    sigma = (-phi''(t*))^(-1/2), and the offsets (left, right) from t* where
    phi - phi(t*) first falls to ``floor``."""
    # phi' = ap + alpha*a*e^(-alpha*t) - e^t/omega falls strictly, from ap at
    # mid on to where one exponential alone cancels ap: the root lies between.
    p, alpha, omega = k.p, k.alpha, k.omega
    ap, ln_a, ln_omega = alpha * p, math.log(k.a), math.log(omega)
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
        raise NonConvergenceError(f"kernel peak cannot be resolved in double precision for {k!r}")
    sigma = 1.0 / math.sqrt(curvature)
    ln_big_a, ln_big_b = ln_a - alpha * t, t - ln_omega

    def drop(s):
        # phi(t + s) - phi(t) and its slope; None where an exponential overflows.
        if max(ln_big_a, 0.0) - alpha * s > 700.0 or max(ln_big_b, 0.0) + s > 700.0:
            return None
        da, db = big_a * math.expm1(-alpha * s), big_b * math.expm1(s)
        return ap * s - da - db, ap + alpha * (big_a + da) - (big_b + db)

    ends = []
    for step in (-4.0 * sigma, 4.0 * sigma):
        s = 0.0
        for _ in range(200):
            if (found := drop(s + step)) is None:
                step *= 0.5
            elif found[0] <= floor:
                ends.append(s + step)
                break
            elif found[1] * step >= 0.0:  # rounding noise: no tangent to follow
                break
            else:  # concavity: phi reaches floor by the tangent's root
                s, step = s + step, (floor - found[0]) / found[1]
    if len(ends) < 2:
        raise NonConvergenceError(f"kernel range search failed for {k!r}")
    return t, sigma, ends[0], ends[1]


def shadow_kernel_integral_ln(
    p,
    a: float,
    alpha: float,
    omega: float,
    rel_tol: float = _KERNEL_REL_TOL,
    budget: int = _KERNEL_BUDGET,
):
    """Natural log of the shadow-kernel integral, for one power or many.

    ``p`` is a float, giving a float, or a 1-D array of powers (rows) that
    share (a, alpha, omega), giving an array.  With u = e^(alpha*t) a row is
    ln(alpha * int exp(phi_p(t)) dt), phi_p(t) = alpha*p*t - a*e^(-alpha*t) -
    e^t/omega: closed form for a = 0 (divergent for p <= 0).  For a > 0 each
    phi_p is strictly concave with double-exponential tails.  Its peak t*(p)
    rises with p and its curvature alpha^2*a*e^(-alpha*t) + e^t/omega is
    convex in t, so the smallest- and largest-power rows bound every peak
    and include the narrowest row.  For those two, Newton's method finds the
    peak and width sigma = (-phi''(t*))^(-1/2), and the range walks out (4
    sigma, then tangent steps) until phi - phi(t*) <= ln(rel_tol) - 5, past
    which concavity leaves under rel_tol * e^-5 of the integral.  All rows
    share one uniform grid over both ranges, widened while a row is still
    above that floor at an end; each row is taken relative to one reference
    node and shifted by its own maximum, so none overflows or cancels.  The
    step, first min(sigma/2, range/16), is halved, keeping every node, until
    every row's two sums agree to ``rel_tol``.  A block of rows whose peaks
    lie too far apart for one grid, or that needs more than ``budget`` nodes,
    is split in two halves; a single row past ``budget``, or whose peak is
    narrower than doubles resolve, raises NonConvergenceError.
    """
    given = np.asarray(p, dtype=float)
    rows = given.reshape(-1)
    if given.ndim > 1 or rows.size == 0:
        raise DomainError(f"p must be a float or a nonempty 1-D array, got {p!r}")
    # The end rows; min and max are NaN if any row is.
    lo, hi = (KernelArgs(float(q), a, alpha, omega) for q in (rows.min(), rows.max()))
    if not 0.0 < rel_tol < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
    ap = alpha * rows
    if a == 0.0:
        if lo.p <= 0.0:
            raise DivergentIntegralError(f"kernel integral diverges for a = 0 and p = {lo.p!r}")
        ln_k = math.log(alpha) + ap * math.log(omega) + np.array([math.lgamma(v) for v in ap])
        return ln_k if given.ndim else float(ln_k[0])
    floor = math.log(rel_tol) - 5.0

    def split(message: str):
        if rows.size == 1:
            raise NonConvergenceError(message)
        args, halves = (a, alpha, omega, rel_tol, budget), np.array_split(rows, 2)
        return np.concatenate([shadow_kernel_integral_ln(q, *args) for q in halves])

    def over_budget(h: float):
        # The narrowest row is an end row, the likeliest to fail alone: if
        # one does, it raises now, not after a full-budget pass per halving.
        for q in (lo.p, hi.p) if rows.size > 1 else ():
            shadow_kernel_integral_ln(q, a, alpha, omega, rel_tol, budget)
        return split(f"kernel budget of {budget} nodes exhausted at step {h:.3g}")

    t0, sigma, left, right = _kernel_cut(lo, floor)
    if hi.p > lo.p:
        t1, sigma1, left1, right1 = _kernel_cut(hi, floor)
        gap = t1 - t0  # from the smallest-power peak to the largest
        sigma, left, right = min(sigma, sigma1), min(left, gap + left1), max(right, gap + right1)
        if right > 700.0:  # e^(t - t0) overflows at the far peak
            return split("kernel peaks too far apart")
    big_a, big_b = math.exp(math.log(a) - alpha * t0), math.exp(t0 - math.log(omega))

    def exponent(s):
        # phi_p(t0 + s) - phi_p(t0): one row per power, one column per offset.
        return np.multiply.outer(ap, s) - (big_a * np.expm1(-alpha * s) + big_b * np.expm1(s))

    used = 0
    while True:  # one pass gives the sums at steps 2h and h
        width = right - left
        intervals = 2 * max(16, math.ceil(2.0 * width / sigma))
        h, used = width / intervals, used + intervals + 1
        if used > budget:
            return over_budget(h)
        ex = exponent(left + h * np.arange(intervals + 1))
        top = ex.max(axis=1, keepdims=True)
        ex -= top
        low, high = (end > floor for end in ex[:, ::intervals].max(axis=0).tolist())
        if not (low or high):  # no row is still above floor at an end
            break
        left, right = left - low * 0.5 * width, right + high * 0.5 * width
    # With S the node sum at step h, the integral is h*S; the sum at step 2h
    # is twice the even-node sum, and after halving, twice the last S.
    values = np.exp(ex)
    total, coarse = values.sum(axis=1), 2.0 * values[:, ::2].sum(axis=1)
    while not all(abs(s - c) <= rel_tol * s for s, c in zip(total.tolist(), coarse.tolist())):
        h, intervals = 0.5 * h, 2 * intervals
        used += intervals // 2
        if used > budget:
            return over_budget(h)
        values = np.exp(exponent(left + h * np.arange(1, intervals, 2)) - top)
        total, coarse = total + values.sum(axis=1), 2.0 * total
    ln_k = ap * t0 + (math.log(alpha * h) - big_a - big_b) + top[:, 0] + np.log(total)
    return ln_k if given.ndim else float(ln_k[0])


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
# wrapper installed on one of those names sees the call.  Each ``pdf`` takes
# a float or a 1-D array for x or for the scale, as its model function does.
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


def plain_density(params, scale: float = 1.0) -> Density:
    """Full distribution of an unshadowed model at rms scale ``scale``."""
    family = family_of(params)
    return Density(
        continuous=lambda x: family.pdf(params, x, scale), atoms=_atoms(params)
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

# integrate_semi_infinite's smallest initial node, as a fraction of its scale.
_FIRST_NODE = 5.3e-4


def _shadow_average(conditional: Callable, m: CompositeModel, x: float, rel_tol, budget, vectorized):
    # int_0^inf conditional(mp, x, y) f_Y(y) dy with no absolute floor.  The
    # integrand changes over y ~ x; for x below the first initial node,
    # (0, cut) takes its own quadrature and budget, with nodes about y ~ x.
    mp, sh = m.multipath, m.shadow

    def integrand(y):
        return conditional(mp, x, y) * gamma_shadow_pdf(sh, y)

    def quad(f, scale: float) -> float:
        return integrate_semi_infinite(
            f, rel_tol=rel_tol, abs_tol=1e-300, budget=budget, scale=scale, vectorized=vectorized
        ).value

    scale = max(x, sh.b * sh.omega)
    cut = _FIRST_NODE * scale
    if x >= cut:
        return quad(integrand, scale)
    head = quad(lambda w: integrand(cut * w / (1.0 + w)) * cut / (1.0 + w) ** 2, x / cut)
    return head + quad(lambda v: integrand(cut + v), scale)


def mixture_pdf(m: CompositeModel, x: float, rel_tol: float = 1e-9, budget: int = 200_000) -> float:
    """Continuous composite density at x by direct shadow averaging.

    This is the ground-truth oracle for the series evaluators.  For extreme
    multipath the mode-independent atom exp(-2m) is not part of this value;
    ``mixture_density`` carries it.
    """
    _check_nonneg("x", x)
    if x == 0.0:
        return _value_at_origin(m)
    return _shadow_average(family_of(m.multipath).pdf, m, x, rel_tol, budget, vectorized=True)


def mixture_cdf(m: CompositeModel, x: float, rel_tol: float = 1e-9, budget: int = 200_000) -> float:
    """Composite distribution function F(x) = E_Y[F_mp(x / Y)], atoms included.

    The family's closed multipath cdf averaged on ``mixture_pdf``'s
    quadrature; every F_mp(0) holds the deep-fade atom.  With no absolute
    floor the lower tail keeps ``rel_tol`` relative accuracy.
    """
    _check_nonneg("x", x)
    family = family_of(m.multipath)
    if x == 0.0:
        return family.cdf(m.multipath, 0.0, 1.0)
    return min(_shadow_average(family.cdf, m, x, rel_tol, budget, vectorized=False), 1.0)


def mixture_density(m: CompositeModel, rel_tol: float = 1e-9, budget: int = 200_000) -> Density:
    """Full composite distribution on the oracle route (atoms included)."""
    return Density(
        continuous=lambda x: mixture_pdf(m, x, rel_tol=rel_tol, budget=budget),
        atoms=_atoms(m.multipath),
    )


# ----------------------------------------------------------------------
# Series route
# ----------------------------------------------------------------------

def _gross_ln_weight(n: int, l: int) -> float:
    # Weight of the degree-n polynomial surrogate relative to the
    # ascending-series term; tends to 1 as n grows.
    return math.lgamma(n + l) - math.lgamma(n - l + 1.0) + (1.0 - 2.0 * l) * math.log(n)


def _series_terms(mp: MultipathParams, sh: GammaShadowParams, x: float):
    # (ln_coeff, g, p0, inner, mode): term l of the density at x > 0,
    # exp(ln_coeff(l)) times the shadow kernel at power p0 - l and inner
    # scale ``inner``, is the component n = n0 + l (n0 = 1 where component 0
    # is the atom) of shape k = shape + n: Pois_n(lam) rate^k x^(alpha k - 1)
    # / (Gamma(k) Gamma(b) omega^b).  Consecutive coefficients differ by
    # lam*inner/g(l); term ``mode`` holds the Poisson mode, or is 0 below it.
    lam, shape, rate = mp.poisson_gamma
    alpha, b = mp.alpha, sh.b
    k0, n0 = (shape, 0) if shape else (1.0, 1)
    ln_x, ln_rate = math.log(x), math.log(rate)
    ln_lam = math.log(lam) if lam else 0.0  # with lam = 0 only n = 0 is read
    ln_const = -lam - math.lgamma(b) - b * math.log(sh.omega)

    def ln_coeff(l: int) -> float:
        n, k = n0 + l, k0 + l
        return (
            n * ln_lam
            - math.lgamma(n + 1.0)
            + k * ln_rate
            + (alpha * k - 1.0) * ln_x
            - math.lgamma(k)
            + ln_const
        )

    g = lambda l: (n0 + l + 1.0) * (k0 + l)  # noqa: E731
    return ln_coeff, g, b / alpha - k0, rate * x**alpha, max(math.floor(lam) - n0, 0)


def _series_pdf(m: CompositeModel, x: float, cfg: Optional[SeriesConfig]) -> float:
    # Sum of the series terms, or the one exact term of a single component
    # (which reads no series settings).
    _check_nonneg("x", x)
    if x == 0.0:
        return _value_at_origin(m)
    alpha, omega, lam = m.multipath.alpha, m.shadow.omega, m.multipath.poisson_gamma[0]
    ln_coeff, g, p0, inner, top = _series_terms(m.multipath, m.shadow, x)
    if lam == 0.0:
        return math.exp(ln_coeff(0) + shadow_kernel_integral_ln(p0, inner, alpha, omega))
    terms = cfg.max_terms + 1 if cfg.use_gross else math.inf
    ln_kernels = {}

    def ln_kernel(l: int) -> float:
        if l not in ln_kernels:  # fetch the block of powers that holds term l
            start = l - l % _KERNEL_BLOCK
            stop = min(start + _KERNEL_BLOCK, terms)
            block = shadow_kernel_integral_ln(p0 - np.arange(start, stop), inner, alpha, omega)
            ln_kernels.update(zip(range(start, stop), block.tolist()))
        return ln_kernels[l]

    if cfg.use_gross:
        ln_w = [_gross_ln_weight(cfg.max_terms, l) for l in range(terms)]
        return sum(math.exp(ln_coeff(l) + ln_w[l] + ln_kernel(l)) for l in range(terms))
    # By parts, t(l+1)/t(l) = lam (l - p0 + c_l) / g(l) with c_l the mean of
    # u^(1/alpha) / (alpha omega) under kernel row l, which falls as l rises
    # (a monotone likelihood ratio in u).  So a ratio r seen at l bounds every
    # later ratio from above, and every earlier one from below, by R(j) =
    # (r g(l) + lam (j - l)) / g(j).  While R > 0 the condition that R falls
    # at j is a quadratic rising in j: once R falls it falls on, and R is
    # least at an end of any range.  A side then has at most t q / (1 - q)
    # left, q the bound on its next ratio.
    rel_tol, ln_top = cfg.rel_tol, ln_coeff(top) + ln_kernel(top)
    value, rest = math.exp(ln_top), 0.0
    for step in (1, -1):
        l, ln_last = top + step, ln_top
        while l >= 0:
            ln_t = ln_coeff(l) + ln_kernel(l)
            value += (t := math.exp(ln_t))
            if l and t <= rel_tol * value:  # only then can the bound stop the sum
                r = math.exp(step * (ln_t - ln_last))  # t(j+1)/t(j), j = l - 1 or l
                if step > 0:  # q = R(l), and R falls from l on
                    num, den = r * g(l - 1) + lam, g(l)
                    falls = lam * den <= num * (g(l + 1) - den)
                else:  # q = 1/R(l - 1), the least R below l where R(0) >= R(l - 1)
                    num, den = g(l - 1), r * g(l) - lam
                    falls = (den - lam * (l - 1)) * num >= g(0) * den
                if falls and num < den and rest + t * num / (den - num) <= rel_tol * value:
                    rest += t * num / (den - num)
                    break
            l, ln_last = l + step, ln_t
    return value


def _require(m: CompositeModel, name: str, caller: str) -> CompositeModel:
    params = FAMILIES[name].params
    if not isinstance(m.multipath, params):
        raise DomainError(f"{caller} requires {params.__name__} multipath parameters")
    return m


def akm_gamma_pdf_series(m: CompositeModel, x: float, cfg: SeriesConfig = SeriesConfig()) -> float:
    """Series form of the LOS composite density.

    Term l couples the coefficient x^(alpha*(mu+l)-1) mu^(mu+2l) kappa^l
    (1+kappa)^(mu+l) / (l! Gamma(mu+l) Gamma(b) omega^b e^(mu*kappa)) with
    the shadow kernel at p = b/alpha - mu - l, A = mu*(1+kappa)*x^alpha.
    With kappa = 0 term 0 alone is exact, the zero-LOS form.
    """
    return _series_pdf(_require(m, "akm", "akm_gamma_pdf_series"), x, cfg)


def am_gamma_pdf(m: CompositeModel, r: float) -> float:
    """Exact single-kernel form of the zero-LOS composite density.

    No series truncation is involved: the shadow average of the conditional
    density reduces to one kernel evaluation at p = b/alpha - mu,
    A = mu * r^alpha.
    """
    return _series_pdf(_require(m, "am", "am_gamma_pdf"), r, None)


def extreme_gamma_pdf(m: CompositeModel, r: float, cfg: SeriesConfig = SeriesConfig()) -> float:
    """Series form of the severe-fading composite density (continuous part).

    Term l couples (2m)^(2+2l) r^(alpha*(1+l)-1) e^(-2m) / (l! (l+1)!
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
    x: float,
    cfg: SeriesConfig = SeriesConfig(),
    *,
    oracle: bool = False,
) -> float:
    """Continuous composite density at x, series/exact route by default.

    ``oracle=True`` forces the mixture-quadrature route instead.
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
    return Density(continuous=lambda x: composite_pdf(m, x, cfg), atoms=_atoms(m.multipath))
