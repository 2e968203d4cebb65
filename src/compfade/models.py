"""Multipath and shadow fading distributions as first-class objects.

Four multipath families (general non-linear LOS model, its zero-LOS
reduction, and the two severe-fading "extreme" variants) plus the gamma
shadow model, with pdf/cdf/moment evaluation and special-case detection.
The densities ``akm_pdf_normalized``, ``extreme_pdf``, ``am_pdf`` and
``gamma_shadow_pdf`` take a float, giving a float, or a 1-D array of points,
giving an array, through one formula.  Parameter objects are immutable and
every evaluation is pure, so the whole module is thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
    "KAPPA_ZERO_THRESHOLD",
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

# Below this the LOS power ratio is treated as exactly zero: the Bessel
# small-argument behaviour then cancels the kappa^((mu-1)/2) denominator
# only analytically, so the closed limit form must be used.
KAPPA_ZERO_THRESHOLD = 1e-8


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
        return math.exp(-2.0 * self.m)


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
    integral of the continuous part.
    """

    continuous: Callable[[float], float]
    atoms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for loc, mass in self.atoms:
            _require(loc >= 0.0, f"atom location must be >= 0, got {loc!r}")
            _require(0.0 <= mass <= 1.0, f"atom mass must lie in [0, 1], got {mass!r}")

    @property
    def atom_mass(self) -> float:
        return sum(mass for _, mass in self.atoms)


@dataclass(frozen=True)
class SpecialCase:
    """Classical named distribution matched by a parameter set."""

    name: str
    params: dict


def _origin_limit(exponent: float, constant: float) -> float:
    # Leading-power behaviour c * rho^exponent at the origin.
    if exponent > 0.0:
        return 0.0
    if exponent == 0.0:
        return constant
    return math.inf


def _check_nonneg(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


def _density(name: str, points, at_origin: Callable, formula: Callable):
    """``formula`` on the positive points and ``at_origin()`` at the zeros.

    ``points`` is a float, giving a float, or a 1-D array, giving an array;
    each point must be finite and >= 0.  A float reaches ``formula`` as a
    float, so a Bessel factor takes its float path.
    """
    if np.ndim(points) == 0:
        x = float(points)
        _check_nonneg(name, x)
        return at_origin() if x == 0.0 else float(formula(x))
    xs = np.asarray(points, dtype=float)
    if xs.ndim > 1:
        raise DomainError(f"{name} must be a float or a 1-D array, got shape {xs.shape}")
    lo = xs.min(initial=math.inf)
    if not (lo >= 0.0 and xs.max(initial=0.0) < math.inf):  # NaN fails too
        bad = xs[~(np.isfinite(xs) & (xs >= 0.0))]
        raise DomainError(f"{name} must be finite and >= 0, got {float(bad[0])!r}")
    if lo > 0.0:
        return formula(xs)
    zero = xs == 0.0
    out = np.empty_like(xs)
    out[zero] = at_origin()
    if not zero.all():
        out[~zero] = formula(xs[~zero])
    return out


def _exp_or_zero(ln_value):
    # Underflow to an exact zero, as the density's tail does.
    return np.where(ln_value > -745.0, np.exp(ln_value), 0.0)


def akm_pdf_normalized(p: AkmParams, rho):
    """Density of the unit-rms envelope of the non-linear LOS model.

    The exponent is assembled as -mu*(sqrt(1+kappa)*rho^(alpha/2) -
    sqrt(kappa))^2 and paired with the exponentially scaled Bessel function,
    which keeps the evaluation stable far into the tail.
    """
    a, k, mu = p.alpha, p.kappa, p.mu

    def c0():
        return a * mu**mu * (1.0 + k) ** mu * math.exp(-mu * k) / math.gamma(mu)

    def positive(rho):
        if k < KAPPA_ZERO_THRESHOLD:
            return _exp_or_zero(
                math.log(c0()) + (a * mu - 1.0) * np.log(rho) - mu * (1.0 + k) * rho**a
            )
        s = rho ** (0.5 * a)
        z = 2.0 * mu * math.sqrt(k * (1.0 + k)) * s
        scaled_bessel = specfun.bessel_i_scaled(mu - 1.0, z)
        # Assembled in log space: the power prefactor can overflow on its own
        # far in the tail even though the density itself underflows to zero.
        with np.errstate(divide="ignore"):  # a Bessel factor that underflowed
            return _exp_or_zero(
                math.log(a * mu)
                + 0.5 * (1.0 + mu) * math.log1p(k)
                - 0.5 * (mu - 1.0) * math.log(k)
                + (0.5 * a * (1.0 + mu) - 1.0) * np.log(rho)
                - mu * (math.sqrt(1.0 + k) * s - math.sqrt(k)) ** 2
                + np.log(scaled_bessel)
            )

    return _density("rho", rho, lambda: _origin_limit(a * mu - 1.0, c0()), positive)


def akm_pdf_envelope(p: AkmParams, s: ScaledEnvelope, r: float) -> float:
    """Envelope density at rms scale ``s``; equals the normalized density
    evaluated at r/rhat, divided by rhat (same floating-point path)."""
    _check_nonneg("r", r)
    return akm_pdf_normalized(p, r / s.rhat) / s.rhat


def akm_cdf(p: AkmParams, rho: float) -> float:
    """Distribution function of the normalized envelope.

    The Poisson-gamma cdf of the clustering form: P summed directly up to
    rho = 1, where rho^alpha reaches its mean, and 1 - Q above it, with the
    Marcum Q function summed directly, so either tail keeps its digits.
    """
    return _mixture_cdf(p, rho)


def akm_cdf_series(p: AkmParams, rho: float, tail_tol: float = 1e-15) -> float:
    """Poisson-weighted incomplete-gamma series for the same cdf.

    Reference form kept as an independent arrangement of the computation:
    sum_i Pois_i(mu*kappa) * P(mu + i, mu*(1+kappa)*rho^alpha), truncated
    where the remaining Poisson weight is below ``tail_tol``, at every rho.
    Every sum is free of cancellation and suits the lower tail.
    """
    _check_nonneg("rho", rho)
    lam, shape, rate = p.poisson_gamma
    return specfun._poisson_gamma_side(lam, shape, rate * rho**p.alpha, tail_tol, upper=False)


def _mixture_cdf(p, rho: float, tail_tol: float = 1e-15) -> float:
    _check_nonneg("rho", rho)
    lam, shape, rate = p.poisson_gamma
    return specfun.poisson_gamma_cdf(lam, shape, rate * rho**p.alpha, tail_tol)


def akm_power_pdf(p: AkmParams, w: float) -> float:
    """Density of the normalized power W = P^2.

    At exactly w = 0 the prefactor exponent alpha*(1+mu)/4 - 1 decides:
    positive gives 0, negative is out of domain (the density diverges).
    """
    _check_nonneg("w", w)
    if w == 0.0:
        lead = 0.25 * p.alpha * (1.0 + p.mu) - 1.0
        if lead > 0.0:
            return 0.0
        if lead < 0.0:
            raise DomainError("power density diverges at w = 0 for these parameters")
        # Constant prefactor; the Bessel factor still contributes
        # w^(alpha*(mu-1)/4), so the limit depends on mu.
        if p.mu > 1.0:
            return 0.0
        if p.mu < 1.0:
            raise DomainError("power density diverges at w = 0 for these parameters")
        return 0.5 * p.alpha * (1.0 + p.kappa) * math.exp(-p.kappa)
    root = math.sqrt(w)
    return akm_pdf_normalized(p, root) / (2.0 * root)


def akm_moment(p: AkmParams, order: float) -> float:
    """Moment E[P^order] of the normalized envelope.

    Closed form Gamma(mu + order/alpha) * 1F1(mu + order/alpha; mu;
    kappa*mu) / (Gamma(mu) * exp(mu*kappa) * (mu*(1+kappa))^(order/alpha)),
    validated against direct quadrature of the density.
    """
    _check_nonneg("order", order)
    la = order / p.alpha
    ln_pref = (
        specfun.ln_gamma(p.mu + la)
        - specfun.ln_gamma(p.mu)
        - p.mu * p.kappa
        - la * math.log(p.mu * (1.0 + p.kappa))
    )
    return math.exp(ln_pref) * specfun.kummer_1f1(p.mu + la, p.mu, p.kappa * p.mu)


def akm_moment_quadrature(p: AkmParams, order: float) -> float:
    """The same moment by direct quadrature of the density: the independent
    check of ``akm_moment``."""
    res = integrate_semi_infinite(
        lambda rho: rho**order * akm_pdf_normalized(p, rho),
        rel_tol=1e-10,
        abs_tol=1e-14,
        budget=400_000,
        scale=1.5,
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
    a, m = p.alpha, p.m

    def positive(rho):
        s = rho ** (0.5 * a)
        scaled_bessel = specfun.bessel_i_scaled(1.0, 4.0 * m * s)
        with np.errstate(divide="ignore"):  # a Bessel factor that underflowed
            return _exp_or_zero(
                math.log(2.0 * a * m)
                + (0.5 * a - 1.0) * np.log(rho)
                - 2.0 * m * (1.0 - s) ** 2
                + np.log(scaled_bessel)
            )

    return _density(
        "rho", rho, lambda: _origin_limit(a - 1.0, 4.0 * m * m * math.exp(-2.0 * m)), positive
    )


def extreme_density(p: ExtremeParams) -> Density:
    """Complete severe-fading distribution: continuous part plus the
    deep-fade atom at zero."""
    return Density(continuous=lambda rho: extreme_pdf(p, rho), atoms=((0.0, p.atom_mass),))


def extreme_cdf(p: ExtremeParams, rho: float, tail_tol: float = 1e-15) -> float:
    """Distribution function including the atom at zero.

    Poisson-mixture form F(rho) = e^(-2m) + sum_{j>=1} Pois_j(2m) P(j, 2m
    rho^alpha), with the weights cut at ``tail_tol``; above rho = 1 it is
    summed as 1 - sum_j Pois_j(2m) Q(j, 2m rho^alpha).
    """
    return _mixture_cdf(p, rho, tail_tol)


def am_pdf(p: AmParams, s: ScaledEnvelope, r):
    """Envelope density of the zero-LOS non-linear model at rms scale s."""
    a, mu, rhat = p.alpha, p.mu, s.rhat
    return _density(
        "r",
        r,
        lambda: _origin_limit(a * mu - 1.0, a * mu**mu / (rhat * math.gamma(mu))),
        lambda r: _exp_or_zero(
            math.log(a)
            + mu * math.log(mu)
            + (a * mu - 1.0) * np.log(r)
            - mu * (r / rhat) ** a
            - a * mu * math.log(rhat)
            - specfun.ln_gamma(mu)
        ),
    )


def am_cdf(p: AmParams, s: ScaledEnvelope, r: float) -> float:
    """Distribution function of the zero-LOS model."""
    _check_nonneg("r", r)
    return _mixture_cdf(p, r / s.rhat)


def gamma_shadow_pdf(g: GammaShadowParams, y):
    """Gamma shadow density y^(b-1) exp(-y/omega) / (Gamma(b) omega^b)."""
    b, omega = g.b, g.omega

    def at_origin():
        if b > 1.0:
            return 0.0
        if b == 1.0:
            return 1.0 / omega
        raise DomainError("shadow density diverges at y = 0 for b < 1")

    return _density(
        "y",
        y,
        at_origin,
        lambda y: np.exp(
            (b - 1.0) * np.log(y) - y / omega - specfun.ln_gamma(b) - b * math.log(omega)
        ),
    )


def gamma_shadow_cdf(g: GammaShadowParams, y: float) -> float:
    """Distribution function of the gamma shadow model."""
    _check_nonneg("y", y)
    return specfun.reg_lower_gamma(g.b, y / g.omega)


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
        density.continuous, rel_tol=rel_tol, abs_tol=1e-14, budget=budget, scale=scale
    )
    return density.atom_mass + result.value
