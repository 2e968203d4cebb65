"""Multipath and shadow fading distributions as first-class objects.

Three multipath families (the general non-linear LOS model, its zero-LOS
reduction and the severe-fading "extreme" model) plus the gamma shadow
model, with pdf/cdf/moment evaluation and special-case detection.  Each
multipath density, its limit at the origin and its cdf follow from the
family's clustering form ``poisson_gamma``.  Every pdf and cdf takes a
float, giving a float, or a 1-D array of points, giving an array, through
one gate, ``_density``: the densities run one formula on the array, the
cdfs (``_pointwise``) one float at a time; far tails take their limit.
Parameter objects are immutable and evaluations pure, so it is thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import specfun
from .errors import DomainError
from .numerics import integrate_semi_infinite

__all__ = [
    "AkmParams",
    "AmParams",
    "ExtremeParams",
    "GammaShadowParams",
    "ScaledEnvelope",
    "Density",
    "SpecialCase",
    "akm_pdf_normalized",
    "akm_pdf_envelope",
    "akm_cdf",
    "akm_cdf_series",
    "akm_power_pdf",
    "akm_moment",
    "akm_moment_quadrature",
    "nakagami_m_equiv",
    "extreme_pdf",
    "extreme_cdf",
    "extreme_density",
    "am_pdf",
    "am_cdf",
    "gamma_shadow_pdf",
    "gamma_shadow_cdf",
    "specialize",
    "density_total_mass",
]

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _finite_pos(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


@dataclass(frozen=True)
class AkmParams:
    """Shape parameters of the non-linear LOS multipath model.

    alpha > 0 is the envelope non-linearity, kappa >= 0 the ratio of
    dominant to scattered power, mu > 0 the multipath clustering.
    """

    alpha: float
    kappa: float
    mu: float

    def __post_init__(self):
        _require(_finite_pos(self.alpha), f"alpha must be finite and > 0, got {self.alpha!r}")
        _require(
            math.isfinite(self.kappa) and self.kappa >= 0.0,
            f"kappa must be finite and >= 0, got {self.kappa!r}",
        )
        _require(_finite_pos(self.mu), f"mu must be finite and > 0, got {self.mu!r}")

    @property
    def poisson_gamma(self) -> tuple:
        """Clustering form (lam, shape, rate): P^alpha ~ Gamma(shape + N, rate)
        for the unit-rms power, given N ~ Poisson(lam) dominant clusters."""
        return self.mu * self.kappa, self.mu, self.mu * (1.0 + self.kappa)


@dataclass(frozen=True)
class AmParams:
    """Shape parameters of the zero-LOS non-linear multipath model."""

    alpha: float
    mu: float

    def __post_init__(self):
        _require(_finite_pos(self.alpha), f"alpha must be finite and > 0, got {self.alpha!r}")
        _require(_finite_pos(self.mu), f"mu must be finite and > 0, got {self.mu!r}")

    @property
    def poisson_gamma(self) -> tuple:
        """Clustering form (lam, shape, rate), as for ``AkmParams``."""
        return 0.0, self.mu, self.mu


@dataclass(frozen=True)
class ExtremeParams:
    """Severe-fading model: non-linearity alpha and severity m."""

    alpha: float
    m: float

    def __post_init__(self):
        _require(_finite_pos(self.alpha), f"alpha must be finite and > 0, got {self.alpha!r}")
        _require(_finite_pos(self.m), f"m must be finite and > 0, got {self.m!r}")

    @property
    def poisson_gamma(self) -> tuple:
        """Clustering form (lam, shape, rate); N = 0 is the deep-fade atom."""
        return 2.0 * self.m, 0.0, 2.0 * self.m

    @property
    def atom_mass(self) -> float:
        """Probability mass of the deep-fade point mass at zero envelope."""
        return _atom_mass(self)


@dataclass(frozen=True)
class GammaShadowParams:
    """Gamma shadowing: shaping b > 0 and scale omega > 0."""

    b: float
    omega: float

    def __post_init__(self):
        _require(_finite_pos(self.b), f"b must be finite and > 0, got {self.b!r}")
        _require(_finite_pos(self.omega), f"omega must be finite and > 0, got {self.omega!r}")


@dataclass(frozen=True)
class ScaledEnvelope:
    """Root-mean-square envelope scale."""

    rhat: float

    def __post_init__(self):
        _require(_finite_pos(self.rhat), f"rhat must be finite and > 0, got {self.rhat!r}")


@dataclass(frozen=True)
class Density:
    """Evaluation contract for a (possibly mixed) distribution on [0, inf).

    ``continuous`` is the density on (0, inf); ``atoms`` lists discrete
    (location, mass) pairs.  The extreme-fading families carry a point mass
    at zero, so normalization checks must always add the atom masses to the
    integral of the continuous part.  ``continuous`` takes a float and
    returns a float; with ``vectorized`` true it also takes a 1-D array and
    returns an array, which ``values`` and the quadratures use to evaluate
    many points in one call.  ``continuous_cdf``, where given, is the
    continuous part's mass on (0, x], at points as ``continuous`` takes them.
    """

    continuous: Callable[[float], float]
    atoms: tuple = field(default_factory=tuple)
    vectorized: bool = False
    continuous_cdf: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        for loc, mass in self.atoms:
            _require(loc >= 0.0, f"atom location must be >= 0, got {loc!r}")
            _require(0.0 <= mass <= 1.0, f"atom mass must lie in [0, 1], got {mass!r}")

    @property
    def atom_mass(self) -> float:
        return sum((mass for _, mass in self.atoms), 0.0)

    def values(self, xs) -> np.ndarray:
        """The continuous part at each point of ``xs``: one call when
        ``vectorized``, else one call per point."""
        if self.vectorized:
            return np.asarray(self.continuous(np.asarray(xs, dtype=float)), dtype=float)
        return np.array([self.continuous(float(x)) for x in xs], dtype=float)


def _atoms(params) -> tuple:
    # Component N = 0 of a zero shape is the deep-fade atom, of mass e^-lam.
    if isinstance(params, GammaShadowParams):
        return ()
    lam, shape, _ = params.poisson_gamma
    return () if shape else ((0.0, math.exp(-lam)),)


def _atom_mass(params) -> float:
    return sum((mass for _, mass in _atoms(params)), 0.0)


def _full_density(params, pdf: Callable, cdf: Callable) -> Density:
    # Every library Density: density ``pdf``, the atoms of ``params``, cdf ``cdf`` less them.
    return Density(pdf, _atoms(params), vectorized=True,
                   continuous_cdf=lambda x: cdf(x) - _atom_mass(params))


@dataclass(frozen=True)
class SpecialCase:
    """Classical named distribution matched by a parameter set."""

    name: str
    params: dict


def _density(name: str, points, at_origin: Callable, formula: Callable, far=math.inf, at_far=0.0):
    """``formula`` on the points in (0, far), ``at_origin()`` at 0 and ``at_far`` from ``far`` on.

    ``points`` is a float, giving a float, or a 1-D array, giving an array;
    each point must be finite and >= 0.  A float reaches ``formula`` as a
    float, so a Bessel factor takes its float path.
    """
    if type(points) is float or np.ndim(points) == 0:
        x = float(points)
        if not 0.0 <= x < math.inf:  # NaN fails too
            raise DomainError(f"{name} must be finite and >= 0, got {x!r}")
        return at_origin() if x == 0.0 else at_far if x >= far else float(formula(x))
    xs = np.asarray(points, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"{name} must be a float or a 1-D array, got shape {xs.shape}")
    lo, hi = xs.min(initial=math.inf), xs.max(initial=0.0)
    if not (lo >= 0.0 and hi < math.inf):  # NaN fails too
        bad = xs[~(np.isfinite(xs) & (xs >= 0.0))]
        raise DomainError(f"{name} must be finite and >= 0, got {float(bad[0])!r}")
    if lo > 0.0 and hi < far:
        return formula(xs)
    inside = (xs > 0.0) & (xs < far)
    out = np.full_like(xs, at_far)
    if lo == 0.0:
        out[xs == 0.0] = at_origin()
    if inside.any():
        out[inside] = formula(xs[inside])
    return out


def _pointwise(name: str, points, at_origin: Callable, value: Callable[[float], float], *far):
    # ``_density``, ``far`` its (far, at_far), with ``value`` taking one float at a time.
    return _density(
        name, points, at_origin,
        lambda x: value(x) if type(x) is float else np.array([value(v) for v in x.tolist()]), *far
    )


def _exp_or_zero(ln_value):
    # Underflow to an exact zero, as the density's tail does.
    return np.where(ln_value > -745.0, np.exp(ln_value), 0.0)


def _origin(p) -> tuple:
    # (e, ln c): the unit-scale density behaves as c * rho^e at 0.  Its first
    # continuous component (N = 0, or N = 1 where N = 0 is the deep-fade atom)
    # has shape k = shape or 1: e = alpha k - 1, c = alpha rate^k e^-lam
    # lam^[shape = 0] / Gamma(k).
    lam, shape, rate = p.poisson_gamma
    k = shape or 1.0
    ln_c = math.log(p.alpha * (1.0 if shape else lam)) + k * math.log(rate) - lam - math.lgamma(k)
    return p.alpha * k - 1.0, ln_c


def _origin_limit(p, shift: float = 0.0) -> float:
    # The limit at 0 of rho^-shift times the unit-scale density: zero, c or
    # infinite as e lies above, at or below ``shift``.
    e, ln_c = _origin(p)
    if e != shift:
        return 0.0 if e > shift else math.inf
    return math.exp(ln_c)


def _far(alpha: float, rate: float, scale: float) -> float:
    # Where (x/scale)^alpha reaches e^700 / max(rate, 1): from there on the
    # density is 0 and the cdf 1, and below it neither that power nor rate
    # times it overflows.
    t = (700.0 - (math.log(rate) if rate > 1.0 else 0.0)) / alpha
    return scale * math.exp(t if t < specfun._LN_MAX else specfun._LN_MAX)


def _multipath_pdf(p, x, name: str = "rho", scale: float = 1.0):
    """Density at rms scale ``scale`` (the unit-scale density at x / scale,
    divided by scale) of a multipath family with clustering form (lam, s,
    rate).  The Poisson sum of the gamma densities of u = rho^alpha is

        f(rho) = alpha rho^(alpha (1 + s)/2 - 1) rate^((1 + s)/2)
                 lam^((1 - s)/2) e^(-(sqrt(rate u) - sqrt(lam))^2) Ie_{s-1}(z)

    with z = 2 sqrt(lam rate u), Ie the exponentially scaled Bessel function
    and I_-1 = I_1; lam = 0 leaves alpha rate^s rho^(alpha s - 1) e^(-rate
    u) / Gamma(s).  It is assembled in log space: the power prefactor can
    overflow on its own far in the tail, where the density underflows, and
    Ie itself underflows at a large order and a small z, where ln Ie does not.
    """
    lam, s, rate = p.poisson_gamma
    a, ln_a = p.alpha, math.log(p.alpha)

    def unit(rho):
        ln_rho = np.log(rho)
        if not lam:
            ln_f = ln_a + s * math.log(rate) + (a * s - 1.0) * ln_rho - rate * rho**a
            return _exp_or_zero(ln_f - math.lgamma(s))
        half, nu = rho ** (0.5 * a), s - 1.0 if s else 1.0  # sqrt(u), the Bessel order
        z = 2.0 * math.sqrt(lam * rate) * half
        ln_ie = specfun._ln_bessel_i_scaled(nu, z)
        if (z if type(z) is float else z.min(initial=1.0)) < 1e-300:  # z may underflow:
            ln_z2 = 0.5 * (math.log(lam * rate) + a * ln_rho)  # Ie -> (z/2)^nu / Gamma(nu + 1)
            ln_ie = np.where(z < 1e-300, nu * ln_z2 - math.lgamma(nu + 1.0), ln_ie)
        return _exp_or_zero(
            ln_a + 0.5 * (1.0 + s) * math.log(rate) + 0.5 * (1.0 - s) * math.log(lam)
            + (0.5 * a * (1.0 + s) - 1.0) * ln_rho - rate * (half - math.sqrt(lam / rate)) ** 2
            + ln_ie
        )

    positive = unit if scale == 1.0 else lambda x: unit(x / scale) / scale
    return _density(name, x, lambda: _origin_limit(p) / scale, positive, _far(a, rate, scale))


def akm_pdf_normalized(p: AkmParams, rho):
    """Density of the unit-rms envelope of the non-linear LOS model: the
    clustering form's Bessel formula, or its gamma form when kappa = 0."""
    return _multipath_pdf(p, rho)


def akm_pdf_envelope(p: AkmParams, s: ScaledEnvelope, r):
    """Envelope density at rms scale ``s``: the normalized density at
    r/rhat, divided by rhat (same floating-point path)."""
    return _multipath_pdf(p, r, "r", s.rhat)


def akm_cdf(p: AkmParams, rho):
    """Distribution function of the normalized envelope.

    The Poisson-gamma cdf of the clustering form: P summed directly up to
    rho = 1, where rho^alpha reaches its mean, and 1 - Q above it, with the
    Marcum Q function summed directly, so either tail keeps its digits.
    """
    return _mixture_cdf(p, rho)


def akm_cdf_series(p: AkmParams, rho, tail_tol: float = 1e-15):
    """Poisson-weighted incomplete-gamma series for the same cdf.

    sum_i Pois_i(mu*kappa) * P(mu + i, mu*(1+kappa)*rho^alpha), truncated
    where the remaining Poisson weight is below ``tail_tol``, at every rho.
    Every sum is free of cancellation and suits the lower tail.  It shares
    ``specfun._poisson_gamma_side`` with ``akm_cdf``, so the two agree bit
    for bit up to rho = 1; above it ``akm_cdf`` sums Q and returns 1 - Q.
    """
    lam, shape, rate = p.poisson_gamma
    def value(rho: float) -> float:
        if rho and rate * rho**p.alpha < specfun._NORMAL:  # the origin law, as ``akm_cdf``
            return _mixture_cdf(p, rho)
        return specfun._poisson_gamma_side(lam, shape, rate * rho**p.alpha, tail_tol, upper=False)
    return _pointwise("rho", rho, lambda: value(0.0), value, _far(p.alpha, rate, 1.0), 1.0)


def _mixture_cdf(p, x, name: str = "rho", scale: float = 1.0, tail_tol: float = 1e-15):
    # The clustering form's cdf at rms scale ``scale``, as ``_multipath_pdf``.
    lam, shape, rate = p.poisson_gamma
    def value(x: float) -> float:
        u = rate * (x / scale) ** p.alpha
        if u < specfun._NORMAL and x:  # exactly the atom plus c rho^(e + 1) / (e + 1) there
            e, ln_c = _origin(p)
            ln_f = ln_c + (e + 1.0) * (math.log(x) - math.log(scale)) - math.log(e + 1.0)
            return _atom_mass(p) + math.exp(ln_f)
        return specfun.poisson_gamma_cdf(lam, shape, u, tail_tol)
    return _pointwise(name, x, lambda: value(0.0), value, _far(p.alpha, rate, scale), 1.0)


def akm_power_pdf(p: AkmParams, w):
    """Density of the normalized power W = P^2.

    At exactly w = 0 it is the limit of c/2 * w^((e - 1)/2), where the
    envelope density behaves as c * rho^e at the origin: 0 for e > 1 and
    c/2 for e = 1; for e < 1 the density diverges, which is out of domain.
    """
    def at_origin():
        value = 0.5 * _origin_limit(p, shift=1.0)
        if value == math.inf:
            raise DomainError("power density diverges at w = 0 for these parameters")
        return value

    return _density(  # np.sqrt is correctly rounded, as math.sqrt is
        "w", w, at_origin, lambda w: akm_pdf_normalized(p, np.sqrt(w)) / (2.0 * np.sqrt(w))
    )


def _moment(p, r: float) -> float:
    # E[P^r] of the unit-scale envelope over its continuous components, with
    # the deep-fade atom counted at r = 0.  Component n, P^alpha ~ Gamma(k,
    # rate) with k = shape + n, has E[P^r] = rate^(-r/alpha) Gamma(k + r/alpha)
    # / Gamma(k), the ratio of the Poisson terms rate^c e^-rate / Gamma(c + 1)
    # at c = k - 1 and k - 1 + r/alpha, in logs that keep their digits at large
    # k.  The terms grow like k^(r/alpha), so the weights run to underflow.
    lam, shape, rate = p.poisson_gamma
    s, ln_d = r / p.alpha, specfun._ln_poisson_term
    lo, weights = specfun._poisson_weights(lam, 0.0)
    ks = (shape + n for n in range(lo, lo + len(weights)))
    return math.fsum(
        w * (math.exp(ln_d(k - 1.0, rate) - ln_d(k - 1.0 + s, rate)) if k else float(r == 0.0))
        for k, w in zip(ks, weights)
    )


def akm_moment(p: AkmParams, order: float) -> float:
    """Moment E[P^order] of the normalized envelope.

    Closed form Gamma(mu + order/alpha) * 1F1(mu + order/alpha; mu;
    kappa*mu) / (Gamma(mu) * exp(mu*kappa) * (mu*(1+kappa))^(order/alpha)),
    validated against direct quadrature of the density.  Summed as Kummer's
    series with exp(-mu*kappa) folded into each term, the clustering form's
    Poisson mixture, so it holds where exp(mu*kappa) overflows.
    """
    _require(0.0 <= order < math.inf, f"order must be finite and >= 0, got {order!r}")
    return _moment(p, order)


def akm_moment_quadrature(p: AkmParams, order: float) -> float:
    """The same moment by direct quadrature of the density: the independent
    check of ``akm_moment``."""
    res = integrate_semi_infinite(
        lambda rho: rho**order * akm_pdf_normalized(p, rho),
        rel_tol=1e-10,
        abs_tol=1e-14,
        budget=400_000,
        scale=1.5,
        vectorized=True,
    )
    return res.value


def nakagami_m_equiv(kappa: float, mu: float) -> float:
    """Equivalent spread parameter mu*(1+kappa)^2 / (1+2*kappa), the inverse
    variance of the normalized power when alpha = 2."""
    _require(math.isfinite(kappa) and kappa >= 0.0, f"kappa must be >= 0, got {kappa!r}")
    _require(_finite_pos(mu), f"mu must be > 0, got {mu!r}")
    return mu * (1.0 + kappa) ** 2 / (1.0 + 2.0 * kappa)


def extreme_pdf(p: ExtremeParams, rho):
    """Continuous part of the severe-fading envelope density.

    The full distribution also carries the atom (0, exp(-2m)); use
    ``extreme_density`` for the complete object.
    """
    return _multipath_pdf(p, rho)


def extreme_density(p: ExtremeParams) -> Density:
    """Complete severe-fading distribution: continuous part plus the
    deep-fade atom at zero."""
    return _full_density(p, lambda rho: extreme_pdf(p, rho), lambda rho: extreme_cdf(p, rho))


def extreme_cdf(p: ExtremeParams, rho, tail_tol: float = 1e-15):
    """Distribution function including the atom at zero.

    Poisson-mixture form F(rho) = e^(-2m) + sum_{j>=1} Pois_j(2m) P(j, 2m
    rho^alpha), with the weights cut at ``tail_tol``; above rho = 1 it is
    summed as 1 - sum_j Pois_j(2m) Q(j, 2m rho^alpha).
    """
    return _mixture_cdf(p, rho, tail_tol=tail_tol)


def am_pdf(p: AmParams, s: ScaledEnvelope, r):
    """Envelope density of the zero-LOS non-linear model at rms scale s."""
    return _multipath_pdf(p, r, "r", s.rhat)


def am_cdf(p: AmParams, s: ScaledEnvelope, r):
    """Distribution function of the zero-LOS model."""
    return _mixture_cdf(p, r, "r", s.rhat)


def gamma_shadow_pdf(g: GammaShadowParams, y):
    """Gamma shadow density y^(b-1) exp(-y/omega) / (Gamma(b) omega^b); past
    b = 15, b P(b, y/omega) / y with Loader's Poisson term P, point by point."""
    b, omega = g.b, g.omega

    def at_origin():
        if b > 1.0:
            return 0.0
        if b == 1.0:
            return 1.0 / omega
        raise DomainError("shadow density diverges at y = 0 for b < 1")

    if b > 15.0:  # the log form cancels near y = b omega
        def loader(y: float) -> float:  # 0 where y / omega under- or overflows
            u = y / omega
            return b * math.exp(specfun._ln_poisson_term(b, u)) / y if 0.0 < u < math.inf else 0.0
        return _pointwise("y", y, at_origin, loader)
    return _density("y", y, at_origin, lambda y: np.exp(
        (b - 1.0) * np.log(y) - y / omega - specfun.ln_gamma(b) - b * math.log(omega)))


def gamma_shadow_cdf(g: GammaShadowParams, y):
    """Distribution function of the gamma shadow model; 1 where y / omega overflows."""
    def value(y: float) -> float:  # where y / omega underflows, (y / omega)^b / Gamma(b + 1)
        if y / g.omega >= np.finfo(float).tiny:
            return specfun.reg_lower_gamma(g.b, y / g.omega)
        return math.exp(g.b * (math.log(y) - math.log(g.omega)) - math.lgamma(g.b + 1.0))
    return _pointwise("y", y, lambda: 0.0, value, g.omega * float(np.finfo(float).max), 1.0)


_SPECIALIZE_TOL = 1e-9


def specialize(p: AkmParams, tol: float = _SPECIALIZE_TOL) -> SpecialCase:
    """Identify the classical distribution matched by an LOS parameter set.

    Matching is within ``tol``; returns the "generic" tag when no named
    special case applies.
    """
    is2 = abs(p.alpha - 2.0) <= tol
    k0 = p.kappa <= tol
    mu1 = abs(p.mu - 1.0) <= tol
    if is2 and k0 and mu1:
        return SpecialCase("rayleigh", {})
    if is2 and k0:
        return SpecialCase("nakagami-m", {"m": p.mu})
    if is2 and mu1:
        return SpecialCase("rice", {"k": p.kappa})
    if is2:
        return SpecialCase("kappa-mu", {"kappa": p.kappa, "mu": p.mu})
    if k0 and mu1:
        return SpecialCase("weibull", {"alpha": p.alpha})
    if k0:
        return SpecialCase("alpha-mu", {"alpha": p.alpha, "mu": p.mu})
    return SpecialCase("generic", {"alpha": p.alpha, "kappa": p.kappa, "mu": p.mu})


def density_total_mass(
    density: Density,
    rel_tol: float = 1e-8,
    budget: int = 200_000,
    scale: float = 1.0,
) -> float:
    """Atom masses plus the quadrature of the continuous part over (0, inf)."""
    result = integrate_semi_infinite(
        density.continuous, rel_tol=rel_tol, abs_tol=1e-14, budget=budget, scale=scale,
        vectorized=density.vectorized,
    )
    return density.atom_mass + result.value


def _certified_mass(density: Density, shadow: GammaShadowParams) -> float:
    # A composite density's total mass to 1e-7: the figure curves' certificate.
    return density_total_mass(density, rel_tol=1e-7, budget=400_000, scale=shadow.b * shadow.omega)
