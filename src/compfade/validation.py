"""Self-contained cross-validation suite.

Every check returns a dict with ``name``, ``passed``, a ``measured`` summary
value, the ``threshold`` it was held to, and a ``details`` payload.  The
``run_validation`` driver assembles them into a machine-readable report.
``quick`` runs a smoke subset; ``full`` runs every check at acceptance
scale.

Each gap is held to its bound as ``gap <= bound``, and gaps are reduced by
``_worst``, so a NaN from any route fails its check and is reported as
``measured``.

The checks deliberately pit independent computation routes against each
other: closed forms against quadrature, series expansions against direct
mixture integrals, samplers against densities, and the polynomial Bessel
surrogate against the ascending series.
"""

from __future__ import annotations

import math
import time
from functools import partial

import numpy as np

from . import composite, figures, mc, models, numerics, specfun
from .composite import FAMILIES, MULTIPATH_FAMILIES, SHADOW, CompositeModel, SeriesConfig
from .models import AkmParams, ExtremeParams, GammaShadowParams, ScaledEnvelope

__all__ = ["run_validation", "CHECKS", "PARAM_BOX", "MOMENT_REL_TOL"]

# Random-draw box shared by the randomized checks.
PARAM_BOX = {
    "alpha": (1.0, 4.0),
    "kappa": (0.0, 5.0),
    "mu": (0.5, 4.0),
    "m": (0.5, 3.0),
    "b": (0.8, 5.0),
    "omega": (0.3, 3.0),
}

_ACCEPT_CFG = SeriesConfig(rel_tol=1e-9)
_AKM = FAMILIES["akm"]

# Bound on closed-form moments against quadrature, here and in
# ``compfade moments --strict``.
MOMENT_REL_TOL = 1e-6


def _draw(rng, key, box=PARAM_BOX):
    lo, hi = box[key]
    return float(rng.uniform(lo, hi))


def _random(rng, family, box=PARAM_BOX):
    # One draw per field, in the family's field order.
    return family.params(*(_draw(rng, f, box) for f in family.fields))


def _check(name, passed, measured, threshold, details=None):
    return {
        "name": name,
        "passed": bool(passed),
        "measured": float(measured) if measured is not None else None,
        "threshold": threshold,
        "details": details or {},
    }


def _worst(gaps) -> float:
    """The largest gap, or NaN if any gap is NaN (0.0 for no gaps).

    ``max()`` alone keeps a NaN only when it comes first.
    """
    gaps = list(gaps)
    return math.nan if any(math.isnan(g) for g in gaps) else max(gaps, default=0.0)


def _held(name, gaps, bounds, threshold=None):
    # ``gaps`` and ``bounds`` map the same labels; the gaps are the details.
    passed = all(gap <= bounds[label] for label, gap in gaps.items())
    return _check(name, passed, _worst(gaps.values()), threshold, gaps)


def _held_scaled(name, cases):
    # (label, gap, bound) cases, measured as the worst gap / bound; against
    # a zero bound a positive gap is infinitely over.
    return _check(
        name,
        all(gap <= bound for _, gap, bound in cases),
        _worst(gap / bound if bound else math.inf if gap > 0.0 else gap for _, gap, bound in cases),
        1.0,
        {label: gap for label, gap, _ in cases},
    )


def _rel_err(value, reference):
    scale = max(abs(reference), 1e-300)
    return abs(value - reference) / scale


# ----------------------------------------------------------------------
# Special functions
# ----------------------------------------------------------------------

def check_specfun_goldens() -> dict:
    """Scalar goldens with independently known values."""
    cases = []

    def add(label, value, reference, tol):
        cases.append((label, _rel_err(value, reference), tol))

    add("ln_gamma(1)", specfun.ln_gamma(1.0), 0.0, 1e-13)
    add("ln_gamma(5)", specfun.ln_gamma(5.0), math.log(24.0), 1e-13)
    add("ln_gamma(0.5)", specfun.ln_gamma(0.5), 0.5 * math.log(math.pi), 1e-13)
    add("bessel_i(0,0)", specfun.bessel_i(0.0, 0.0), 1.0, 1e-15)
    add("bessel_i(1,0)", specfun.bessel_i(1.0, 0.0) + 1.0, 1.0, 1e-15)
    half_integer = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
    add("bessel_i(0.5,1)", specfun.bessel_i(0.5, 1.0), half_integer, 1e-12)
    add("reg_upper_gamma(3.7,0)", specfun.reg_upper_gamma(3.7, 0.0), 1.0, 1e-15)
    add("reg_upper_gamma(1,2)", specfun.reg_upper_gamma(1.0, 2.0), math.exp(-2.0), 1e-12)
    add("reg_upper_gamma(2,1)", specfun.reg_upper_gamma(2.0, 1.0), 2.0 * math.exp(-1.0), 1e-12)
    add("marcum_q(2.5,1.3,0)", specfun.marcum_q(2.5, 1.3, 0.0), 1.0, 1e-15)
    add("marcum_q(1,0,1)", specfun.marcum_q(1.0, 0.0, 1.0), math.exp(-0.5), 1e-12)
    add("kummer_1f1(2.2,3.1,0)", specfun.kummer_1f1(2.2, 3.1, 0.0), 1.0, 1e-15)
    add("kummer_1f1(1,1,1.5)", specfun.kummer_1f1(1.0, 1.0, 1.5), math.exp(1.5), 1e-10)
    add("kummer_1f1(1,2,1)", specfun.kummer_1f1(1.0, 2.0, 1.0), math.e - 1.0, 1e-10)

    # Marcum Q against pdf quadrature through the cdf identity (alpha = 2).
    p = AkmParams(2.0, 1.0, 1.5)
    marcum = specfun.marcum_q(1.5, math.sqrt(2.0 * 1.5), 2.0 * math.sqrt(2.0 * 1.5 * 2.0))
    add("marcum vs cdf quadrature", marcum, 1.0 - _cdf_by_quadrature(p, 2.0), 2e-8)
    return _held_scaled("specfun_goldens", cases)


def check_specfun_properties(n_draws: int = 60, seed: int = 11) -> dict:
    """Monotonicity, range and recurrence properties on random grids.

    Each property's worst gap is held to its bound; ``measured`` is the
    worst gap over its bound, so a failing property reads above 1 and a NaN
    reads NaN.
    """
    rng = mc._generator(seed)
    gaps = {label: [] for label in _PROPERTY_BOUNDS}

    def rises(values):  # the largest rise between neighbours
        return _worst(b - a for a, b in zip(values, values[1:]))

    for _ in range(n_draws):
        a = float(rng.uniform(0.2, 8.0))
        xs = np.sort(rng.uniform(0.0, 12.0, size=6))
        qs = [specfun.reg_upper_gamma(a, float(x)) for x in xs]
        gaps["reg_upper_gamma monotone"].append(rises(qs))
        gaps["reg_upper_gamma range"].append(_worst(max(-q, q - 1.0) for q in qs))

    for _ in range(n_draws):
        mu = float(rng.uniform(0.3, 4.0))
        a = float(rng.uniform(0.0, 4.0))
        bs = np.sort(rng.uniform(0.0, 6.0, size=5))
        qs = [specfun.marcum_q(mu, a, float(b)) for b in bs]
        gaps["marcum_q monotone in b"].append(rises(qs))
        b = float(rng.uniform(0.0, 6.0))
        av = np.sort(rng.uniform(0.0, 4.0, size=5))
        qs = [specfun.marcum_q(mu, float(a_), b) for a_ in av]
        gaps["marcum_q monotone in a"].append(rises([-q for q in qs]))

    for _ in range(n_draws):
        nu = float(rng.uniform(0.5, 6.0))
        x = float(rng.uniform(0.1, 50.0))
        lhs = specfun.bessel_i(nu - 1.0, x) - specfun.bessel_i(nu + 1.0, x)
        rhs = (2.0 * nu / x) * specfun.bessel_i(nu, x)
        gaps["bessel recurrence"].append(_rel_err(lhs, rhs))

    cases = [(label, _worst(g), _PROPERTY_BOUNDS[label]) for label, g in gaps.items()]
    return _held_scaled("specfun_properties", cases)


# A rise of 1e-12 is rounding; a value outside [0, 1] is not.
_PROPERTY_BOUNDS = {
    "reg_upper_gamma monotone": 1e-12,
    "reg_upper_gamma range": 0.0,
    "marcum_q monotone in b": 1e-12,
    "marcum_q monotone in a": 1e-12,
    "bessel recurrence": 1e-9,
}


def check_gross_convergence() -> dict:
    """Polynomial Bessel surrogate: error non-increasing in the degree."""
    xs = np.linspace(0.05, 10.0, 60)
    details = {}
    ok = True
    for nu in (0.0, 1.0, 2.0):
        errors = [
            _worst(
                _rel_err(specfun.bessel_i_gross(nu, float(x), n), specfun.bessel_i(nu, float(x)))
                for x in xs
            )
            for n in (5, 10, 20, 40)
        ]
        details[f"nu={nu:g}"] = errors
        ok = ok and all(e2 <= e1 * (1.0 + 1e-12) for e1, e2 in zip(errors, errors[1:]))
    measured = _worst(v[-1] for v in details.values())
    return _check("gross_error_monotone", ok, measured, None, details)


# ----------------------------------------------------------------------
# Numerics
# ----------------------------------------------------------------------

def check_quadrature_suite() -> dict:
    """Closed-form integral suite with error-estimate coverage."""
    suite = []

    def gamma_integral(p, scale):
        return math.exp(specfun.ln_gamma(p)) * scale**p

    suite.append(("exp", lambda u: math.exp(-u), 1.0))
    suite.append(("gauss", lambda u: math.exp(-u * u), 0.5 * math.sqrt(math.pi)))
    suite.append(
        ("gamma_2.3_0.7", lambda u: u**2.3 * math.exp(-u / 0.7), gamma_integral(3.3, 0.7))
    )
    suite.append(
        ("gamma_0.4_1.3", lambda u: u ** (-0.6) * math.exp(-u / 1.3), gamma_integral(0.4, 1.3))
    )
    suite.append(("x_exp", lambda u: u * math.exp(-u), 1.0))
    suite.append(("stretched", lambda u: math.exp(-math.sqrt(u)), 2.0))
    suite.append(("lorentz", lambda u: 1.0 / (1.0 + u * u), 0.5 * math.pi))
    suite.append(("exp_cos_decay", lambda u: math.exp(-2.0 * u) * math.cos(u), 2.0 / 5.0))
    # Bessel-K representation, reference from the cosh-integral form.
    a_, om_ = 1.7, 0.9
    kref = 2.0 * (a_ * om_) ** 0.55 * _bessel_k(1.1, 2.0 * math.sqrt(a_ / om_))
    suite.append(
        ("bessel_k_rep", lambda u: u**0.1 * math.exp(-a_ / u - u / om_), kref)
    )
    suite.append(
        (
            "shifted_gauss",
            lambda u: math.exp(-((u - 3.0) ** 2)),
            0.5 * math.sqrt(math.pi) * (1.0 + math.erf(3.0)),
        )
    )

    details = {}
    covered = 0
    ok = True
    for name, f, ref in suite:
        res = numerics.integrate_semi_infinite(
            f, rel_tol=1e-10, abs_tol=1e-13, budget=200_000, scale=1.0
        )
        actual = abs(res.value - ref)
        tol = max(1e-10 * abs(ref), 1e-13)
        details[name] = {"actual_error": actual, "estimate": res.error_estimate}
        ok = ok and actual <= 10.0 * tol
        covered += res.error_estimate >= actual
    coverage = covered / len(suite)
    ok = ok and coverage >= 0.95

    # Domain-splitting consistency at an interior point.
    split_ok = True
    for c in (0.7, 2.5):
        f = lambda u: u**1.3 * math.exp(-u)
        whole = numerics.integrate_semi_infinite(f, 1e-10, 1e-13, 200_000)
        left = numerics.integrate_semi_infinite(
            lambda w: f(c * w / (1.0 + w)) * c / (1.0 + w) ** 2, 1e-10, 1e-13, 200_000
        )
        right = numerics.integrate_semi_infinite(lambda u: f(u + c), 1e-10, 1e-13, 200_000)
        gap = abs(whole.value - left.value - right.value)
        allowed = 2.0 * (whole.error_estimate + left.error_estimate + right.error_estimate)
        split_ok = split_ok and gap <= max(allowed, 1e-13)
    ok = ok and split_ok

    return _check(
        "quadrature_suite",
        ok,
        coverage,
        0.95,
        {"coverage": coverage, "split_ok": split_ok, "integrals": details},
    )


def _bessel_k(order: float, z: float) -> float:
    # Independent modified Bessel K via its cosh-integral representation.
    def integrand(t):
        if t > 690.0 or z * math.cosh(min(t, 690.0)) > 700.0:
            return 0.0  # integrand dead beyond double range
        return math.exp(-z * math.cosh(t)) * math.cosh(order * t)

    res = numerics.integrate_semi_infinite(
        integrand, rel_tol=1e-11, abs_tol=1e-15, budget=200_000, scale=1.0
    )
    return res.value


def check_series_summation() -> dict:
    """Adaptive summation goldens."""
    cases = []
    res = numerics.sum_adaptive(lambda i: 0.5**i, rel_tol=1e-12)
    cases.append(("geometric", _rel_err(res.value, 2.0), 1e-11))
    res = numerics.sum_adaptive(lambda i: 1.0 / math.factorial(i), rel_tol=1e-13)
    cases.append(("exponential", _rel_err(res.value, math.e), 1e-12))
    lam = 2.1 * 1.5
    direct = sum(
        math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1.0)) for i in range(200)
    )
    res = numerics.sum_adaptive(
        lambda i: math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1.0)), rel_tol=1e-13
    )
    cases.append(("poisson_mass", _rel_err(res.value, direct), 1e-12))
    res = numerics.sum_adaptive(lambda i: (-1.0) ** i / (i + 1.0) ** 2, rel_tol=1e-6, max_terms=10_000)
    direct = sum((-1.0) ** i / (i + 1.0) ** 2 for i in range(10_000))
    cases.append(("alternating", abs(res.value - direct) / abs(direct), 2e-6))
    return _held_scaled("series_summation", cases)


# ----------------------------------------------------------------------
# Plain model checks
# ----------------------------------------------------------------------

def check_normalization(draws: int = 20, seed: int = 23) -> dict:
    """Total probability mass (continuous + atoms) of each density family."""
    rng = mc._generator(seed)

    def mass_gap(fn, scale=1.0, target=1.0):
        res = numerics.integrate_semi_infinite(
            fn, rel_tol=3e-8, abs_tol=1e-12, budget=200_000, scale=scale, vectorized=True
        )
        return abs(res.value - target)

    # Each draw takes its parameters from rng and returns their mass gaps.
    def plain(family, pdf):
        return [mass_gap(partial(pdf, _random(rng, family)))]

    def enveloped(family, pdf):
        p = _random(rng, family)
        s = ScaledEnvelope(float(rng.uniform(0.4, 2.5)))
        return [mass_gap(partial(pdf, p, s), scale=s.rhat)]

    def extreme():
        pair = (_random(rng, FAMILIES["extreme"]), ExtremeParams(2.0, _draw(rng, "m")))
        return [mass_gap(partial(models.extreme_pdf, p), target=1.0 - p.atom_mass) for p in pair]

    def shadow():
        g = _random(rng, SHADOW)
        return [mass_gap(partial(models.gamma_shadow_pdf, g), scale=g.b * g.omega)]

    def composite_of(family):
        g = _random(rng, SHADOW)
        density = composite.composite_density(CompositeModel(_random(rng, family), g), _ACCEPT_CFG)
        return [abs(models._certified_mass(density, g) - 1.0)]

    draw_gaps = {
        "akm_normalized": lambda: plain(_AKM, models.akm_pdf_normalized),
        "akm_envelope": lambda: enveloped(_AKM, models.akm_pdf_envelope),
        "akm_power": lambda: plain(_AKM, models.akm_power_pdf),
        "am": lambda: enveloped(FAMILIES["am"], models.am_pdf),
        "extreme": extreme,
        "gamma_shadow": shadow,
        **{f"{f.name}_gamma": partial(composite_of, f) for f in MULTIPATH_FAMILIES},
    }
    worst = {
        label: _worst(gap for _ in range(draws) for gap in draw())
        for label, draw in draw_gaps.items()
    }
    measured = _worst(worst.values())
    return _check("normalization", measured <= 1e-6, measured, 1e-6, worst)


def _cdf_by_quadrature(p: AkmParams, rho: float) -> float:
    # Gauss-Kronrod quadrature of the density over (0, rho) in x = rho w / (1 + w),
    # as ``mc.build_cdf_table`` integrates a head cell with no ``continuous_cdf``.
    return numerics.integrate_semi_infinite(
        lambda w: models.akm_pdf_normalized(p, rho * w / (1.0 + w)) * rho / (1.0 + w) ** 2,
        rel_tol=1e-12,
        abs_tol=1e-14,
        budget=200_000,
        vectorized=True,
    ).value


def check_cdf_dual_form(points: int = 100, seed: int = 31) -> dict:
    """Incomplete-gamma series cdf vs quadrature of the density on random
    points.

    The Poisson-weighted incomplete-gamma sum against Gauss-Kronrod
    quadrature of the Bessel-form density over (0, rho): the two share no
    evaluation code.  Agreement is absolute (both are
    probabilities); where the cdf is not minuscule the relative gap is held
    to the same level.
    """
    rng = mc._generator(seed)
    gaps = []
    for _ in range(points):
        p = _random(rng, _AKM)
        rho = float(rng.uniform(0.05, 3.0))
        f1 = _cdf_by_quadrature(p, rho)
        f2 = models.akm_cdf_series(p, rho)
        gap, top = abs(f1 - f2), max(f1, f2)
        gaps.append(_worst((gap, gap / top)) if top >= 1e-3 else gap)
    worst = _worst(gaps)
    return _check("cdf_dual_form", worst <= 1e-9, worst, 1e-9)


def _moment_alt_form(p: AkmParams, order: float) -> float:
    # Alternate printed normalization of the moment formula (gamma factor
    # multiplying and first Kummer argument order/alpha); recorded for
    # reference, expected to disagree with quadrature.
    la = order / p.alpha
    return (
        math.exp(specfun.ln_gamma(la + p.mu) - p.mu * p.kappa)
        * specfun.kummer_1f1(la, p.mu, p.kappa * p.mu)
        / ((1.0 + p.kappa) ** la * p.mu**la)
        * math.gamma(p.mu)
    )


def _moment_rows(p: AkmParams, orders) -> list:
    # (order, closed form, quadrature, relative difference) per order.
    pairs = [(o, models.akm_moment(p, o), models.akm_moment_quadrature(p, o)) for o in orders]
    return [(o, c, q, _rel_err(c, q)) for o, c, q in pairs]


def check_moments(param_sets=None, seed: int = 37) -> dict:
    """Closed-form moments vs quadrature, plus the alternate-form record."""
    rng = mc._generator(seed)
    if param_sets is None:
        param_sets = [AkmParams(2.0, 1.5, 2.1), AkmParams(3.1, 0.7, 1.3)] + [
            _random(rng, _AKM) for _ in range(3)
        ]
    rows = [(p, row) for p in param_sets for row in _moment_rows(p, (0.0, 1.0, 2.0, 3.0, 4.0))]
    worst = _worst(r for _, (*_, r) in rows)
    zeroth_err = _worst(abs(c - 1.0) for _, (o, c, *_) in rows if o == 0.0)
    alt_worst = _worst(_rel_err(_moment_alt_form(p, o), q) for p, (o, _, q, _) in rows)
    return _check(
        "moments",
        worst <= MOMENT_REL_TOL and zeroth_err <= 1e-12,
        worst,
        MOMENT_REL_TOL,
        {
            "zeroth_moment_error": zeroth_err,
            "alt_form_max_rel_diff": alt_worst,
            "alt_form_matches_quadrature": alt_worst <= MOMENT_REL_TOL,
        },
    )


def check_power_variance_identity(draws: int = 20, seed: int = 41) -> dict:
    """Inverse variance of the normalized power vs the closed map at alpha=2.

    The general-alpha behaviour is measured and reported, not asserted.
    """
    rng = mc._generator(seed)
    gaps = []
    for _ in range(draws):
        kappa = _draw(rng, "kappa")
        mu = _draw(rng, "mu")
        p = AkmParams(2.0, kappa, mu)
        var = models.akm_moment(p, 4.0) - models.akm_moment(p, 2.0) ** 2
        gaps.append(_rel_err(1.0 / var, models.nakagami_m_equiv(kappa, mu)))
    worst = _worst(gaps)
    general = {}
    for alpha in (1.5, 3.0):
        p = AkmParams(alpha, 1.2, 1.8)
        var = models.akm_moment(p, 4.0) - models.akm_moment(p, 2.0) ** 2
        general[f"alpha={alpha:g}"] = {
            "inverse_variance": 1.0 / var,
            "closed_map": models.nakagami_m_equiv(1.2, 1.8),
        }
    return _check(
        "power_variance_identity", worst <= 1e-6, worst, 1e-6, {"general_alpha": general}
    )


# ----------------------------------------------------------------------
# Composite checks
# ----------------------------------------------------------------------

def check_kernel_closed_forms() -> dict:
    """Shadow-kernel integral against closed forms and budget stability."""
    cases = {}

    value = composite.shadow_kernel_integral(composite.KernelArgs(1.3, 0.0, 1.5, 0.8))
    ref = 1.5 * math.exp(specfun.ln_gamma(1.95)) * 0.8**1.95
    cases["a0_gamma_form"] = _rel_err(value, ref)

    p_, a_, om_ = -0.7, 2.0, 1.5
    value = composite.shadow_kernel_integral(composite.KernelArgs(p_, a_, 1.0, om_))
    ref = 2.0 * (a_ * om_) ** (0.5 * p_) * _bessel_k(p_, 2.0 * math.sqrt(a_ / om_))
    cases["alpha1_bessel_k"] = _rel_err(value, ref)

    v1 = composite.shadow_kernel_integral(
        composite.KernelArgs(-2.1, 1.7, 2.0, 0.9), rel_tol=1e-9, budget=40_000
    )
    v2 = composite.shadow_kernel_integral(
        composite.KernelArgs(-2.1, 1.7, 2.0, 0.9), rel_tol=1e-11, budget=80_000
    )
    cases["budget_doubling"] = _rel_err(v1, v2)
    bounds = {"a0_gamma_form": 1e-9, "alpha1_bessel_k": 1e-8, "budget_doubling": 1e-9}
    return _held("kernel_closed_forms", cases, bounds)


def _series_grid(shadow: GammaShadowParams, points: int) -> np.ndarray:
    scale = shadow.b * shadow.omega
    return np.linspace(0.05, 5.0, points) * scale


def _against_oracle(route, oracle, draws: int, points: int, seed: int) -> dict:
    # Per composite family, the worst relative gap of route to oracle over random box draws.
    rng = mc._generator(seed)
    worst = {}
    for family in MULTIPATH_FAMILIES:
        gaps = []
        for _ in range(draws):
            shadow = _random(rng, SHADOW)
            model = CompositeModel(_random(rng, family), shadow)
            xs = _series_grid(shadow, points)
            for value, reference in zip(route(model, xs), oracle(model, xs)):
                if reference < 1e-290:
                    continue  # both routes underflow in the far tail
                gaps.append(_rel_err(value, reference))
        worst[f"{family.name}_gamma"] = _worst(gaps)
    return worst


def check_series_vs_oracle(draws: int = 20, points: int = 25, seed: int = 47) -> dict:
    """Series/exact composite routes against the mixture-quadrature oracle."""
    worst = _against_oracle(
        lambda model, xs: composite.composite_pdf(model, xs, _ACCEPT_CFG),
        composite.mixture_pdf, draws, points, seed,
    )
    bounds = {"akm_gamma": 1e-4, "extreme_gamma": 1e-4, "am_gamma": 1e-6}
    return _held("series_vs_oracle", worst, bounds, 1e-4)


def check_cdf_routes(draws: int = 10, points: int = 10, seed: int = 61) -> dict:
    """Composite cdf routes: the shadow cdf averaged over the multipath
    (``composite_cdf``) against the multipath cdf averaged over the shadow
    (``mixture_cdf``).  They share only the quadrature and the incomplete
    gamma; each gap is held to about twice the sum of their tolerances,
    1e-10 and 1e-9."""
    worst = _against_oracle(composite.composite_cdf, composite.mixture_cdf, draws, points, seed)
    return _held("cdf_routes", worst, dict.fromkeys(worst, 2e-9), 2e-9)


def check_reduction_web(seed: int = 53) -> dict:
    """Special-case collapses across the model web."""
    rng = mc._generator(seed)
    details = {}

    # alpha = 2 LOS model against a directly coded linear-LOS density.
    gaps = []
    for _ in range(8):
        kappa = float(rng.uniform(0.05, 5.0))
        mu = _draw(rng, "mu")
        p = AkmParams(2.0, kappa, mu)
        for rho in (0.3, 0.8, 1.4, 2.2):
            direct = (
                2.0
                * mu
                * (1.0 + kappa) ** (0.5 * (mu + 1.0))
                * kappa ** (-0.5 * (mu - 1.0))
                * rho**mu
                * math.exp(-mu * kappa - mu * (1.0 + kappa) * rho**2)
                * specfun.bessel_i(mu - 1.0, 2.0 * mu * math.sqrt(kappa * (1.0 + kappa)) * rho)
            )
            gaps.append(_rel_err(models.akm_pdf_normalized(p, rho), direct))
    details["alpha2_linear_los"] = _worst(gaps)

    # Severe-fading model at alpha = 2 against the directly coded form.
    gaps = []
    for _ in range(8):
        m = _draw(rng, "m")
        p = ExtremeParams(2.0, m)
        for rho in (0.2, 0.7, 1.3, 2.0):
            direct = (
                4.0
                * m
                * math.exp(-2.0 * m * (1.0 + rho**2))
                * specfun.bessel_i(1.0, 4.0 * m * rho)
            )
            gaps.append(_rel_err(models.extreme_pdf(p, rho), direct))
    details["extreme_alpha2"] = _worst(gaps)

    # kappa -> 0 limit equals the directly coded alpha-mu density: kappa = 0
    # runs the gamma form, kappa = 1e-12 the Bessel form.
    gaps = []
    for _ in range(8):
        alpha = _draw(rng, "alpha")
        mu = _draw(rng, "mu")
        for kappa in (0.0, 1e-12):
            for rho in (0.3, 0.9, 1.6):
                direct = (alpha * mu**mu * rho ** (alpha * mu - 1.0)
                          * math.exp(-mu * rho**alpha) / math.gamma(mu))
                akm = models.akm_pdf_normalized(AkmParams(alpha, kappa, mu), rho)
                gaps.append(_rel_err(akm, direct))
    details["kappa0_zero_los"] = _worst(gaps)

    # Rayleigh/gamma composite against a nested-quadrature oracle coded
    # straight from the Rayleigh and gamma densities.
    gaps = []
    shadow = GammaShadowParams(1.6, 0.8)
    model = CompositeModel(AkmParams(2.0, 0.0, 1.0), shadow)

    def rayleigh_gamma(x):
        def integrand(y):
            return (
                2.0
                * x
                / (y * y)
                * math.exp(-((x / y) ** 2))
                * models.gamma_shadow_pdf(shadow, y)
            )

        return numerics.integrate_semi_infinite(
            integrand, rel_tol=1e-10, abs_tol=1e-300, budget=300_000, scale=max(x, 1.0)
        ).value

    for x in (0.2, 0.6, 1.1, 1.9, 3.0):
        oracle = rayleigh_gamma(x)
        gaps.append(_rel_err(composite.composite_pdf(model, x, _ACCEPT_CFG), oracle))
        gaps.append(_rel_err(composite.mixture_pdf(model, x), oracle))
    details["k_distribution"] = _worst(gaps)

    # Severe-fading composite at alpha = 2 equals its own mixture route.
    model = CompositeModel(ExtremeParams(2.0, 1.1), GammaShadowParams(1.2, 0.8))
    details["extreme_gamma_alpha2"] = _worst(
        _rel_err(
            composite.extreme_gamma_pdf(model, x, _ACCEPT_CFG), composite.mixture_pdf(model, x)
        )
        for x in (0.3, 0.9, 1.7)
    )

    bounds = {
        "alpha2_linear_los": 1e-10,
        "extreme_alpha2": 1e-10,
        "kappa0_zero_los": 1e-10,
        "k_distribution": 1e-6,
        "extreme_gamma_alpha2": 1e-4,
    }
    return _held("reduction_web", details, bounds)


def check_degenerate_shadow() -> dict:
    """Vanishing shadow variance recovers the plain multipath density.

    Points sit in the body of the density: the smooth-mixture correction is
    O(1/b) with a constant that diverges in the far tails, so tail points
    would measure the constant rather than the limit.
    """
    c = 1.3
    p = AkmParams(2.4, 1.1, 1.7)
    xs = (0.8, 1.0, 1.3, 1.8)
    errors = {}
    for b in (100.0, 1000.0):
        model = CompositeModel(p, GammaShadowParams(b, c / b))
        errors[f"b={b:g}"] = _worst(
            _rel_err(composite.mixture_pdf(model, x), models.akm_pdf_normalized(p, x / c) / c)
            for x in xs
        )
    passed = errors["b=1000"] <= 1e-2 and errors["b=1000"] < errors["b=100"]
    return _check("degenerate_shadow", passed, errors["b=1000"], 1e-2, errors)


def check_gross_series_consistency() -> dict:
    """Polynomial-surrogate composite weights approach the series weights."""
    model = CompositeModel(AkmParams(1.8, 1.4, 1.6), GammaShadowParams(1.5, 0.9))
    xs = (0.4, 0.9, 1.6, 2.6)
    reference = [composite.akm_gamma_pdf_series(model, x, _ACCEPT_CFG) for x in xs]
    deviations = []
    for n in (10, 20, 40):
        cfg = SeriesConfig(max_terms=n, use_gross=True)
        deviations.append(_worst(
            _rel_err(composite.akm_gamma_pdf_series(model, x, cfg), ref)
            for x, ref in zip(xs, reference)
        ))
    ok = all(d2 <= d1 * (1.0 + 1e-9) for d1, d2 in zip(deviations, deviations[1:]))
    return _check(
        "gross_series_consistency",
        ok,
        deviations[-1],
        None,
        {"deviations_by_n": deviations},
    )


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def check_monte_carlo(
    count: int = 100_000,
    draws: int = 3,
    seeds=(101, 202, 303),
    seed: int = 59,
    grid_points: int = 1200,
) -> dict:
    """Sampler-vs-density KS tests plus the deep-fade atom frequency."""
    rng = mc._generator(seed)
    critical = mc.ks_critical_value(0.001, count)
    details = {}
    failures = []
    box = dict(PARAM_BOX, alpha=(1.2, 4.0), mu=(0.9, 4.0), b=(1.1, 5.0))

    def run_family(label, make, family):
        stats = []
        for d in range(draws):
            model, density, sampler = make(family)
            batches = [sampler(int(s) + d) for s in seeds]
            x_max = max(float(np.max(b.values)) for b in batches) * 1.05
            table = mc.build_cdf_table(density, x_max, grid_points)
            for batch in batches:
                ks = mc.gof_compare(batch, density, table=table).ks_statistic
                stats.append(ks)
                if not ks <= critical:
                    failures.append(f"{label} draw={d} seed={batch.seed}")
        details[label] = _worst(stats)

    def make_plain(family):
        p = _random(rng, family, box)
        return p, composite.plain_density(p), lambda s: mc.sample_plain(p, count, s)

    def make_composite(family):
        shadow = _random(rng, SHADOW, box)
        model = CompositeModel(_random(rng, family, box), shadow)
        density = composite.composite_density(model, _ACCEPT_CFG)
        return model, density, lambda s: mc.sample_composite(model, count, s)

    for family in (_AKM, FAMILIES["extreme"]):
        run_family(family.name, make_plain, family)
    for family in MULTIPATH_FAMILIES:
        run_family(f"{family.name}_gamma", make_composite, family)
    worst_ks = _worst(details.values())

    # Deep-fade atom frequency within five standard errors.
    pulls = []
    for m_ in (0.7, 1.1, 2.0):
        p = ExtremeParams(1.8, m_)
        batch = mc.sample_extreme(p, count, 977)
        observed = float(np.mean(batch.values == 0.0))
        expected = p.atom_mass
        se = math.sqrt(expected * (1.0 - expected) / count)
        pulls.append(abs(observed - expected) / se)
    details["atom_pull_in_se"] = _worst(pulls)

    return _check(
        "monte_carlo",
        not failures and details["atom_pull_in_se"] <= 5.0,
        worst_ks,
        critical,
        {"critical": critical, "failures": failures, **details},
    )


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------

def unimodal_on_grid(values, rel_slack: float = 1e-9) -> bool:
    """True when the values rise to a single maximum and then fall."""
    v = np.asarray(values, dtype=float)
    peak = int(np.argmax(v))
    slack = rel_slack * float(np.max(v))
    return bool(
        np.all(np.diff(v[: peak + 1]) >= -slack) and np.all(np.diff(v[peak:]) <= slack)
    )


def check_figures() -> dict:
    """Mass, non-negativity, and unimodality of the figure curve families."""
    details = {}
    ok = True
    xs = figures.default_grid(120)
    for fid in figures.FIGURE_IDS:
        for curve in figures.figure_curves(fid):
            density = composite.composite_density(curve["model"], _ACCEPT_CFG)
            values = density.values(xs)
            mass = models._certified_mass(density, curve["model"].shadow)
            label = f"fig{fid}:{curve['label']}"
            entry = {
                "mass_error": abs(mass - 1.0),
                "min_value": float(np.min(values)),
                "unimodal": unimodal_on_grid(values),
            }
            details[label] = entry
            ok = ok and entry["mass_error"] <= 1e-6 and entry["min_value"] >= 0.0
            ok = ok and entry["unimodal"]
    measured = _worst(d["mass_error"] for d in details.values())
    return _check("figures", ok, measured, 1e-6, details)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

CHECKS = {
    "specfun_goldens": check_specfun_goldens,
    "specfun_properties": check_specfun_properties,
    "gross_error_monotone": check_gross_convergence,
    "quadrature_suite": check_quadrature_suite,
    "series_summation": check_series_summation,
    "normalization": check_normalization,
    "cdf_dual_form": check_cdf_dual_form,
    "moments": check_moments,
    "power_variance_identity": check_power_variance_identity,
    "kernel_closed_forms": check_kernel_closed_forms,
    "series_vs_oracle": check_series_vs_oracle,
    "cdf_routes": check_cdf_routes,
    "reduction_web": check_reduction_web,
    "degenerate_shadow": check_degenerate_shadow,
    "gross_series_consistency": check_gross_series_consistency,
    "monte_carlo": check_monte_carlo,
    "figures": check_figures,
}

# The quick level: a check mapped to None is skipped, one mapped to a function runs that.
_QUICK = {
    "normalization": lambda: check_normalization(draws=3),
    "cdf_dual_form": lambda: check_cdf_dual_form(points=25),
    "series_vs_oracle": lambda: check_series_vs_oracle(draws=2, points=6),
    "cdf_routes": lambda: check_cdf_routes(draws=2, points=6),
    "monte_carlo": lambda: check_monte_carlo(count=20_000, draws=1, seeds=(101,), grid_points=500),
    "figures": None,
    "gross_error_monotone": None,
    "gross_series_consistency": None,
    "degenerate_shadow": None,
}


def run_validation(level: str = "quick") -> dict:
    """Run the validation suite and return a machine-readable report."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    report = {"level": level, "checks": [], "passed": True}
    for name, fn in CHECKS.items():
        if level == "quick":
            fn = _QUICK.get(name, fn)
            if fn is None:
                continue
        start = time.perf_counter()
        result = fn()
        result["seconds"] = round(time.perf_counter() - start, 3)
        report["checks"].append(result)
        report["passed"] = report["passed"] and result["passed"]
    return report
