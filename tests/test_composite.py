"""Composite densities: kernel integral, mixture oracle, series routes."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as sp

from compfade import (
    AkmParams,
    AmParams,
    CompositeModel,
    DivergentIntegralError,
    DomainError,
    ExtremeParams,
    GammaShadowParams,
    KernelArgs,
    SeriesConfig,
    akm_gamma_pdf_series,
    am_gamma_pdf,
    density_total_mass,
    extreme_gamma_density,
    extreme_gamma_pdf,
    gamma_shadow_pdf,
    ln_gamma,
    mixture_cdf,
    mixture_density,
    mixture_pdf,
    shadow_kernel_integral,
    shadow_kernel_integral_ln,
)
from compfade import composite, models
from compfade.composite import composite_density, composite_pdf
from compfade.models import akm_pdf_normalized
from compfade.numerics import integrate_semi_infinite

CFG = SeriesConfig(rel_tol=1e-9)


class TestShadowKernelIntegral:
    def test_gamma_closed_form_at_zero_inner_scale(self):
        value = shadow_kernel_integral(KernelArgs(1.3, 0.0, 1.5, 0.8))
        ref = 1.5 * math.exp(ln_gamma(1.95)) * 0.8**1.95
        assert value == pytest.approx(ref, rel=1e-9)
        # Also in the origin-singular branch alpha*p <= 1.
        value = shadow_kernel_integral(KernelArgs(0.5, 0.0, 1.4, 1.2))
        ref = 1.4 * math.exp(ln_gamma(0.7)) * 1.2**0.7
        assert value == pytest.approx(ref, rel=1e-9)

    def test_finite_up_to_the_largest_double(self):
        # ln K = lgamma(171.55) = 709.4, between 709 and ln(max double).
        assert shadow_kernel_integral(KernelArgs(171.55, 0.0, 1.0, 1.0)) == pytest.approx(
            math.gamma(171.55), rel=1e-12
        )
        assert shadow_kernel_integral(KernelArgs(171.7, 0.0, 1.0, 1.0)) == math.inf

    def test_alpha_one_bessel_k_closed_form(self):
        p, a, omega = -0.7, 2.0, 1.5
        value = shadow_kernel_integral(KernelArgs(p, a, 1.0, omega))
        ref = 2.0 * (a * omega) ** (p / 2.0) * float(sp.kv(p, 2.0 * math.sqrt(a / omega)))
        assert value == pytest.approx(ref, rel=1e-8)

    def test_budget_doubling_stability(self):
        args = KernelArgs(-2.1, 1.7, 2.0, 0.9)
        v1 = shadow_kernel_integral(args, rel_tol=1e-9, budget=40_000)
        v2 = shadow_kernel_integral(args, rel_tol=1e-11, budget=80_000)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_random_against_scipy_quad(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            p = float(rng.uniform(-35.0, 2.0))
            a = float(rng.uniform(0.01, 40.0))
            alpha = float(rng.uniform(1.0, 4.0))
            omega = float(rng.uniform(0.3, 3.0))
            ln_val = shadow_kernel_integral_ln(p, a, alpha, omega)
            f = lambda u: math.exp((p - 1.0) * math.log(u) - a / u - u ** (1.0 / alpha) / omega - ln_val)
            ref, _ = si.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=500)
            assert ref == pytest.approx(1.0, rel=1e-8)

    def test_divergence_signal(self):
        with pytest.raises(DivergentIntegralError):
            shadow_kernel_integral(KernelArgs(-0.5, 0.0, 2.0, 1.0))
        with pytest.raises(DivergentIntegralError):
            shadow_kernel_integral(KernelArgs(0.0, 0.0, 2.0, 1.0))
        with pytest.raises(DivergentIntegralError):
            shadow_kernel_integral_ln(np.array([1.5, 0.5, -0.5]), 0.0, 2.0, 1.0)

    def test_float_gives_float_and_array_gives_array(self):
        single = shadow_kernel_integral_ln(-2.1, 1.7, 2.0, 0.9)
        rows = shadow_kernel_integral_ln(np.array([-2.1]), 1.7, 2.0, 0.9)
        assert type(single) is float
        assert isinstance(rows, np.ndarray) and rows.shape == (1,) and rows[0] == single
        closed = shadow_kernel_integral_ln(np.array([1.3, 0.5]), 0.0, 1.5, 0.8)
        assert closed[0] == shadow_kernel_integral_ln(1.3, 0.0, 1.5, 0.8)

    @pytest.mark.parametrize(
        "p", [np.zeros(0), np.ones((2, 2)), np.array([-1.0, np.nan]), np.array([np.inf, 1.0])],
        ids=["empty", "2-d", "nan", "inf"],
    )
    def test_malformed_rows_are_domain_errors(self, p):
        with pytest.raises(DomainError):
            shadow_kernel_integral_ln(p, 1.7, 2.0, 0.9)


def nested_oracle(model: CompositeModel, x: float) -> float:
    # Mixture integral coded directly on scipy, independent of the
    # package's quadrature machinery.
    mp, sh = model.multipath, model.shadow

    if isinstance(mp, AkmParams):
        cond = lambda x_, y: akm_pdf_normalized(mp, x_ / y) / y
    elif isinstance(mp, AmParams):
        def cond(x_, y):
            return (
                mp.alpha
                * mp.mu**mp.mu
                * x_ ** (mp.alpha * mp.mu - 1.0)
                * math.exp(-mp.mu * (x_ / y) ** mp.alpha)
                / (y ** (mp.alpha * mp.mu) * math.gamma(mp.mu))
            )
    else:
        def cond(x_, y):
            rho = x_ / y
            s = rho ** (mp.alpha / 2.0)
            exponent = -2.0 * mp.m * (1.0 - s) ** 2
            if exponent < -700.0:
                return 0.0
            return (
                2.0
                * mp.alpha
                * mp.m
                * rho ** (mp.alpha / 2.0 - 1.0)
                * math.exp(exponent)
                * float(sp.ive(1, 4.0 * mp.m * s))
                / y
            )

    value, _ = si.quad(
        lambda y: cond(x, y) * gamma_shadow_pdf(sh, y),
        0.0,
        np.inf,
        epsabs=1e-14,
        epsrel=1e-11,
        limit=500,
    )
    return value


class TestMixtureOracle:
    def test_against_scipy_nested_quadrature(self):
        cases = [
            CompositeModel(AkmParams(2.2, 1.3, 1.7), GammaShadowParams(1.6, 0.8)),
            CompositeModel(AmParams(3.1, 1.6), GammaShadowParams(1.1, 0.9)),
            CompositeModel(ExtremeParams(1.7, 1.1), GammaShadowParams(1.2, 0.8)),
        ]
        for model in cases:
            for x in (0.3, 0.9, 1.8):
                assert mixture_pdf(model, x) == pytest.approx(
                    nested_oracle(model, x), rel=1e-8
                )

    def test_rayleigh_gamma_construction(self):
        # alpha=2, kappa=0, mu=1 over a gamma shadow: coded straight from
        # the Rayleigh density as a second independent route.
        shadow = GammaShadowParams(1.6, 0.8)
        model = CompositeModel(AkmParams(2.0, 0.0, 1.0), shadow)

        def k_oracle(x):
            value, _ = si.quad(
                lambda y: 2.0 * x / (y * y) * math.exp(-((x / y) ** 2)) * gamma_shadow_pdf(shadow, y),
                0.0,
                np.inf,
                epsabs=1e-14,
                epsrel=1e-11,
                limit=500,
            )
            return value

        for x in (0.2, 0.6, 1.1, 1.9, 3.0):
            ref = k_oracle(x)
            assert mixture_pdf(model, x) == pytest.approx(ref, rel=1e-6)
            assert composite_pdf(model, x, CFG) == pytest.approx(ref, rel=1e-6)

    def test_zero_argument(self):
        model = CompositeModel(AkmParams(2.0, 1.0, 1.5), GammaShadowParams(1.5, 1.0))
        assert mixture_pdf(model, 0.0) == 0.0
        with pytest.raises(DomainError):
            mixture_pdf(CompositeModel(AkmParams(1.0, 1.0, 0.6), GammaShadowParams(1.5, 1.0)), 0.0)

    @pytest.mark.parametrize(
        "mp", [AmParams(2.4, 1.3), AkmParams(1.5, 1.0, 2.1), ExtremeParams(2.0, 1.1)],
        ids=["am", "akm", "extreme"],
    )
    def test_cdf_far_above_the_shadow_mean_is_one(self, mp):
        # The cdf integrand's mass sits at y ~ b omega whatever x is, and
        # there F_mp(x / y) is 1; nodes spread about y ~ x miss it.
        m = CompositeModel(mp, GammaShadowParams(3.0, 0.5))
        assert mixture_cdf(m, np.array([1e3, 1e6, 1e20])).tolist() == [1.0, 1.0, 1.0]
        continuous = mixture_density(m).continuous_cdf(1e20)
        assert continuous == pytest.approx(1.0 - models._atom_mass(mp), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("b", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize(
        "mp", [AkmParams(1.5, 1.0, 2.1), ExtremeParams(1.7, 1.1), AmParams(2.4, 1.3)],
        ids=["akm", "extreme", "am"],
    )
    def test_cdf_routes_agree_at_a_small_shadow_shape(self, mp, b):
        # The shadow density's y^(b-1) at the origin runs in s = y^(b/2), so
        # the oracle cdf keeps its rel_tol where that power is steepest.
        m = CompositeModel(mp, GammaShadowParams(b, 0.9))
        xs = np.array([1e-3, 0.05, 0.5, 1.0, 2.5])
        assert mixture_cdf(m, xs) == pytest.approx(composite.composite_cdf(m, xs), rel=1e-9)

    @pytest.mark.parametrize(
        "mp", [AkmParams(1.5, 1.0, 2.1), ExtremeParams(1.7, 1.1)], ids=["akm", "extreme"]
    )
    def test_sf_never_reads_above_one_less_the_atom(self, mp):
        # Far below the shadow mean S is 1 - atom to the last bit, where the
        # quadrature of Q alone rounds above it.
        m = CompositeModel(mp, GammaShadowParams(3.0, 0.9))
        rest = 1.0 - models._atom_mass(mp)
        assert composite.composite_sf(m, 1e-12) == rest
        assert max(composite.composite_sf(m, np.array([1e-12, 1e-8])).tolist()) <= rest
        assert composite.composite_sf(m, 1e-8) <= rest

    @pytest.mark.parametrize("x", [1e-20, 1e-30])
    def test_cdf_routes_agree_deep_in_the_lower_tail(self, x):
        m = CompositeModel(AkmParams(1.5, 1.0, 2.1), GammaShadowParams(1.1, 0.9))
        want = mixture_cdf(m, x)  # 1.4475e-22 at 1e-20, 1.4475e-33 at 1e-30
        assert composite.composite_cdf(m, x) == pytest.approx(want, rel=1e-8)
        assert composite.composite_sf(m, x) == 1.0

    def test_cdf_routes_at_the_least_positive_double(self):
        # cut / x overflows at x = 5e-324, so the head's scale 1 + ln(cut / x)
        # is taken as a difference of logs; F ~ x^1.1 rounds to 0 there.
        m = CompositeModel(AkmParams(1.5, 1.0, 2.1), GammaShadowParams(1.1, 0.9))
        assert composite.composite_cdf(m, 5e-324) == mixture_cdf(m, 5e-324) == 0.0
        assert composite.composite_sf(m, 5e-324) == 1.0

    @pytest.mark.parametrize("b", [1e3, 1e4, 1e5, 1e6])
    def test_cdf_at_a_large_shadow_shape_matches_the_bessel_law(self, b):
        # am alpha 1, mu 1 is P ~ Exp(1), so F = 1 - 2 z^(b/2) K_b(2 sqrt z) /
        # Gamma(b), z = x / omega (mpmath, 40 digits).  Past b = 15 the nodes
        # weigh in Loader's form: the shadow density's log form cancels there.
        law = {1e3: (0.39369679699479139, 0.864664626900312),
               1e4: (0.39349208526589375, 0.86466471586151292),
               1e5: (0.39347161477813004, 0.86466471675436529),
               1e6: (0.39346956773637188, 0.8646647167632971)}
        m = CompositeModel(AmParams(1.0, 1.0), GammaShadowParams(b, 1.0 / b))
        for x, want in zip((0.5, 2.0), law[b]):
            assert mixture_cdf(m, x, rel_tol=1e-12) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_extreme_atom_survives_averaging(self):
        model = CompositeModel(ExtremeParams(1.6, 1.1), GammaShadowParams(2.0, 0.5))
        density = mixture_density(model)
        assert density.atoms == ((0.0, math.exp(-2.2)),)
        assert density_total_mass(density, rel_tol=1e-7) == pytest.approx(1.0, abs=1e-6)


# e = alpha mu - 1 = -0.7: F(x) ~ x^0.3, and deep in the lower tail part of
# the multipath nodes rho = s^k of ``composite_cdf`` fall below the normal
# range or to 0.
E_NEGATIVE = AkmParams(1.0, 0.5, 0.3)


@pytest.mark.parametrize("b", [1.1, 3.0])
def test_cdf_keeps_its_origin_power_where_multipath_nodes_underflow(b):
    # F(x) -> c x^(e+1) E[Y^-(e+1)] / (e + 1) with c = alpha rate^mu e^-(mu
    # kappa) / Gamma(mu), rate = mu (1 + kappa), and E[Y^-a] = Gamma(b - a) /
    # (Gamma(b) omega^a); the next order is x^alpha smaller.
    (alpha, kappa, mu), omega, a = (1.0, 0.5, 0.3), 0.9, 0.3
    c = alpha * (mu * (1.0 + kappa)) ** mu * math.exp(-mu * kappa) / math.gamma(mu)
    m = CompositeModel(E_NEGATIVE, GammaShadowParams(b, omega))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deep, far = composite.composite_cdf(m, 1e-300), composite.composite_cdf(m, 1e-100)
        assert deep == pytest.approx(far * 1e-60, rel=1e-12)
        for x, got in ((1e-300, deep), (1e-100, far)):
            law = c * x**a * math.gamma(b - a) / (math.gamma(b) * omega**a) / a
            assert got == pytest.approx(law, rel=1e-12)
        assert 0.0 <= composite.composite_sf(m, 1e-300) <= 1.0


_TAIL_MODELS = {
    "akm": AkmParams(1.5, 1.0, 2.1), "extreme": ExtremeParams(1.7, 1.1), "e<0": E_NEGATIVE,
}


@pytest.mark.parametrize(
    "name, b, x",
    [pytest.param(n, b, x, id=f"{n}-b{b}-{x:g}")
     for n in _TAIL_MODELS for b in (1.1, 3.0) for x in (1e-300, 1e-100, 1e-30)],
)
def test_deep_lower_tail_table(name, b, x):
    # Each route returns a value in [atom, 1], with no error and no warning,
    # and the two agree within 2e-9.
    mp = _TAIL_MODELS[name]
    m, atom = CompositeModel(mp, GammaShadowParams(b, 0.9)), models._atom_mass(mp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [route(m, x) for route in (composite.composite_cdf, mixture_cdf)]
    assert all(atom <= v <= 1.0 for v in got)
    assert got[0] == pytest.approx(got[1], rel=2e-9, abs=0.0)


def test_head_integral_keeps_the_edge_off_panel_boundaries():
    # A bump one unit wide in ln v at v ~ edge, with the double-exponential
    # left side of f_mp(x/y) / y in y: u^2.05 e^(-4.2 u^1.5) / v, u = edge/v,
    # plus v e^-v above.  Deep edges map to a narrow spot in the head's
    # variable; one on a panel boundary of round 0, or of its first
    # bisection, escapes both rules with a small error estimate.
    p, a, r = 2.05, 1.5, 4.2
    exact = math.gamma(p / a) / (a * r ** (p / a)) + 1.0
    misses = []
    for k in range(50, 301, 10):
        edge = 10.0**-k

        def f(v, _k):
            u = edge / v
            with np.errstate(over="ignore"):
                bump = np.exp(p * np.log(u) - r * u**a)
            return bump / v + v * np.exp(-v)

        got = composite._split_quadrature(f, math.log(edge), 1.0, 1e-10, 200_000, 1.0)
        if got != pytest.approx(exact, rel=1e-10, abs=0.0):
            misses.append(f"edge 1e-{k}: {got / exact - 1.0:.1e}")
    assert not misses


class TestSeriesRoutes:
    def test_akm_gamma_series_vs_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            model = CompositeModel(
                AkmParams(
                    float(rng.uniform(1.0, 4.0)),
                    float(rng.uniform(0.1, 5.0)),
                    float(rng.uniform(0.5, 4.0)),
                ),
                GammaShadowParams(float(rng.uniform(0.8, 5.0)), float(rng.uniform(0.3, 3.0))),
            )
            scale = model.shadow.b * model.shadow.omega
            for frac in (0.1, 0.6, 1.5, 3.5):
                x = frac * scale
                series = akm_gamma_pdf_series(model, x, CFG)
                assert series == pytest.approx(mixture_pdf(model, x), rel=1e-4)

    def test_am_gamma_exact_vs_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            model = CompositeModel(
                AmParams(float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.5, 4.0))),
                GammaShadowParams(float(rng.uniform(0.8, 5.0)), float(rng.uniform(0.3, 3.0))),
            )
            scale = model.shadow.b * model.shadow.omega
            for frac in (0.1, 0.6, 1.5, 3.5):
                x = frac * scale
                assert am_gamma_pdf(model, x) == pytest.approx(mixture_pdf(model, x), rel=1e-6)

    def test_extreme_gamma_series_vs_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            model = CompositeModel(
                ExtremeParams(float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.5, 3.0))),
                GammaShadowParams(float(rng.uniform(0.8, 5.0)), float(rng.uniform(0.3, 3.0))),
            )
            scale = model.shadow.b * model.shadow.omega
            for frac in (0.1, 0.6, 1.5, 3.5):
                x = frac * scale
                series = extreme_gamma_pdf(model, x, CFG)
                assert series == pytest.approx(mixture_pdf(model, x), rel=1e-4)

    def test_kappa_zero_routes_to_exact_form(self):
        shadow = GammaShadowParams(1.4, 0.8)
        los = CompositeModel(AkmParams(2.2, 0.0, 1.7), shadow)
        reduced = CompositeModel(AmParams(2.2, 1.7), shadow)
        for x in (0.4, 0.9, 1.8):
            assert akm_gamma_pdf_series(los, x, CFG) == am_gamma_pdf(reduced, x)

    def test_extreme_gamma_alpha_two_path(self):
        model = CompositeModel(ExtremeParams(2.0, 1.1), GammaShadowParams(1.2, 0.8))
        for x in (0.3, 0.9, 1.7):
            assert extreme_gamma_pdf(model, x, CFG) == pytest.approx(
                mixture_pdf(model, x), rel=1e-6
            )

    def test_atom_and_mass_on_series_route(self):
        model = CompositeModel(ExtremeParams(1.5, 1.1), GammaShadowParams(1.2, 0.8))
        density = extreme_gamma_density(model, CFG)
        assert density.atoms == ((0.0, math.exp(-2.2)),)
        mass = density_total_mass(density, rel_tol=1e-7, scale=0.96)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_large_severity_mass_concentrates(self):
        model = CompositeModel(ExtremeParams(2.0, 8.0), GammaShadowParams(2.0, 0.7))
        density = extreme_gamma_density(model, CFG)
        assert density.atom_mass == pytest.approx(math.exp(-16.0), rel=1e-12)
        assert density_total_mass(density, rel_tol=1e-7, scale=1.4) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_series_rel_tol_must_lie_below_one(self):
        # A tolerance of 1 or more would stop the series after three terms.
        with pytest.raises(DomainError):
            SeriesConfig(rel_tol=1.0)

    def test_series_zero_argument_rules(self):
        model = CompositeModel(AkmParams(2.0, 1.0, 1.5), GammaShadowParams(1.5, 1.0))
        assert akm_gamma_pdf_series(model, 0.0, CFG) == 0.0
        singular = CompositeModel(AkmParams(1.0, 1.0, 0.6), GammaShadowParams(1.5, 1.0))
        with pytest.raises(DomainError):
            akm_gamma_pdf_series(singular, 0.0, CFG)

    def test_large_los_point_needs_no_cap(self):
        # About 280 terms; 160 of them were not enough while a cap applied.
        model = CompositeModel(AkmParams(2.0, 20.0, 10.0), GammaShadowParams(2.0, 0.5))
        assert akm_gamma_pdf_series(model, 1.0) == pytest.approx(mixture_pdf(model, 1.0), rel=1e-6)

    # Slowly decaying terms: a stop after three terms below rel_tol left
    # 3.4e-8 at the first point.  The series holds its default rel_tol.
    @pytest.mark.parametrize("kappa, mu, x", [(50.0, 20.0, 1.0), (25.0, 30.0, 2.0)])
    def test_head_underflow_matches_oracle(self, kappa, mu, x):
        model = CompositeModel(AkmParams(2.0, kappa, mu), GammaShadowParams(2.0, 0.5))
        oracle = mixture_pdf(model, x, rel_tol=1e-12)
        assert akm_gamma_pdf_series(model, x) == pytest.approx(oracle, rel=SeriesConfig().rel_tol)

    # The Poisson weight of term 0, e^-(mu*kappa) or e^-2m, underflows: a
    # sum started at term 0 would return 0.0 at both points.
    @pytest.mark.parametrize(
        "multipath, x, approx_value",
        [(AkmParams(2.0, 50.0, 20.0), 1.0, 0.5411), (ExtremeParams(2.0, 400.0), 0.5, 0.7362)],
        ids=["akm", "extreme"],
    )
    def test_head_underflow_to_ten_digits(self, multipath, x, approx_value):
        model = CompositeModel(multipath, GammaShadowParams(2.0, 0.5))
        series = composite_pdf(model, x, SeriesConfig(rel_tol=1e-13))
        assert series == pytest.approx(mixture_pdf(model, x, rel_tol=1e-12), rel=1e-10)
        assert series == pytest.approx(approx_value, abs=1e-4)


def _per_term_reference(model, x, cfg, used):
    # The terms ``used`` summed with one scalar kernel call per term.
    ln_coeff, _, p0, _, rate, _ = composite._series_terms(model.multipath, model.shadow)
    alpha, omega = model.multipath.alpha, model.shadow.omega
    inner = rate * x**alpha

    def term(l):
        base, slope = ln_coeff(l)
        ln_c = base + slope * math.log(x)
        if cfg.use_gross:
            ln_c += composite._gross_ln_weight(cfg.max_terms, l)
        return math.exp(ln_c + shadow_kernel_integral_ln(p0 - l, inner, alpha, omega))

    return math.fsum(term(l) for l in used)


@pytest.fixture
def series_terms(monkeypatch):
    """The index of each term the series route sums, in the order summed."""
    used = []
    terms = composite._series_terms

    def recording(*args):
        ln_coeff, *rest = terms(*args)

        def counted(l):
            used.append(l)
            return ln_coeff(l)

        return (counted, *rest)

    monkeypatch.setattr(composite, "_series_terms", recording)
    return used


@pytest.fixture
def kernel_blocks(monkeypatch):
    """The number of powers in each kernel call the series route makes."""
    blocks = []
    kernel = composite.shadow_kernel_integral_ln

    def recording(p, *args, **kwargs):
        blocks.append(np.size(p))
        return kernel(p, *args, **kwargs)

    monkeypatch.setattr(composite, "shadow_kernel_integral_ln", recording)
    return blocks


def _figure2(mu):
    return CompositeModel(AkmParams(2.0, 4.0, mu), GammaShadowParams(1.8, 0.7))


class TestSeriesBlocks:
    # Terms are fetched in blocks of composite._KERNEL_BLOCK (24) powers, and
    # summed outward from the Poisson mode (term 0 below lam = 1).
    @pytest.mark.parametrize(
        "model, x, cfg, span",
        [
            (_figure2(1.0), 1.05, CFG, (0, 22)),
            (_figure2(1.0), 1.85, SeriesConfig(rel_tol=1e-10), (0, 23)),
            (_figure2(1.0), 1.05, SeriesConfig(rel_tol=1e-11), (0, 24)),
            (_figure2(4.0), 0.85, SeriesConfig(rel_tol=1e-10), (0, 48)),
            (CompositeModel(ExtremeParams(2.0, 3.0), GammaShadowParams(1.2, 0.8)), 2.0,
             SeriesConfig(rel_tol=1e-10), (0, 28)),
            (CompositeModel(AkmParams(2.0, 10.0, 10.0), GammaShadowParams(2.0, 0.5)), 1.0, CFG,
             (46, 167)),
            (_figure2(1.0), 1.05, SeriesConfig(max_terms=20, use_gross=True), (0, 20)),
            (_figure2(1.0), 1.05, SeriesConfig(max_terms=160, use_gross=True), (0, 160)),
        ],
        ids=["before-boundary", "at-boundary", "after-boundary", "49-terms", "extreme-29-terms",
             "from-the-mode", "gross-20", "gross-160"],
    )
    def test_blocks_match_per_term_reference(self, model, x, cfg, span, kernel_blocks, series_terms):
        kernel_blocks.clear()
        got = composite_pdf(model, x, cfg)
        used = list(series_terms)
        # Each term of the span once, the first at the Poisson mode floor(lam),
        # which is term floor(lam) - 1 where component 0 is the atom.
        first, last = span
        assert sorted(used) == list(range(first, last + 1))
        lam, shape, _ = model.multipath.poisson_gamma
        assert used[0] == (0 if cfg.use_gross else math.floor(lam) - (0 if shape else 1))
        assert got == pytest.approx(_per_term_reference(model, x, cfg, used), rel=1e-11)
        # One call per started block; only the polynomial weights bound a block.
        cap = cfg.max_terms + 1 if cfg.use_gross else math.inf
        starts = range(first - first % composite._KERNEL_BLOCK, last + 1, composite._KERNEL_BLOCK)
        assert kernel_blocks == [min(composite._KERNEL_BLOCK, cap - l) for l in starts]

    # A PARAM_BOX point that needs more than 40 terms.
    BOX_MODEL = CompositeModel(
        AkmParams(1.0258553347995218, 4.234135282786168, 3.9700298686324484),
        GammaShadowParams(2.265301394330524, 1.9953489611718256),
    )
    BOX_X = 1.1582671133791156

    def test_default_config_converges_on_a_box_point(self, kernel_blocks):
        got = composite_pdf(self.BOX_MODEL, self.BOX_X)
        assert kernel_blocks == [24, 24]
        assert got == pytest.approx(mixture_pdf(self.BOX_MODEL, self.BOX_X), rel=1e-6)

    def test_max_terms_is_not_read_by_the_ascending_route(self):
        low = composite_pdf(self.BOX_MODEL, self.BOX_X, SeriesConfig(max_terms=5))
        assert low == composite_pdf(self.BOX_MODEL, self.BOX_X)

    def test_upward_side_stops_where_its_ratio_bound_still_rises(self, series_terms):
        # lam = 1.3e-3.  From term 3, the first below the tolerance, up to
        # about term 40, the bound R on the later upward ratios rises before
        # it falls, though it stays below 1e-3.  Four terms meet the
        # tolerance; waiting for R to fall from the current term took 43.
        model = CompositeModel(AkmParams(0.3438, 8.63e-4, 1.540), GammaShadowParams(7.599, 0.2829))
        x = 0.01413
        got = composite_pdf(model, x)
        assert len(series_terms) <= 7
        assert got == pytest.approx(mixture_pdf(model, x, rel_tol=1e-12), rel=1e-12)


class TestDomainErrors:
    SHADOW = GammaShadowParams(1.5, 0.9)
    MODELS = {
        "akm": CompositeModel(AkmParams(2.0, 1.0, 1.5), SHADOW),
        "am": CompositeModel(AmParams(2.0, 1.5), SHADOW),
        "extreme": CompositeModel(ExtremeParams(2.0, 1.0), SHADOW),
    }

    def test_composite_model_checks_its_parts(self):
        with pytest.raises(DomainError):
            CompositeModel(self.SHADOW, self.SHADOW)
        with pytest.raises(DomainError):
            CompositeModel(AkmParams(2.0, 1.0, 1.5), AmParams(2.0, 1.5))

    @pytest.mark.parametrize(
        "alpha, omega", [(0.0, 0.9), (math.inf, 0.9), (2.0, -0.9), (2.0, math.nan)]
    )
    def test_kernel_args_check_alpha_and_omega(self, alpha, omega):
        with pytest.raises(DomainError):
            KernelArgs(1.0, 1.7, alpha, omega)

    @pytest.mark.parametrize("rel_tol", [0.0, 1.0, -1e-9, math.nan])
    def test_kernel_rel_tol_lies_in_the_unit_interval(self, rel_tol):
        with pytest.raises(DomainError):
            shadow_kernel_integral_ln(1.0, 1.7, 2.0, 0.9, rel_tol=rel_tol)

    def test_family_of_an_unknown_object(self):
        with pytest.raises(DomainError):
            composite.family_of(object())

    @pytest.mark.parametrize(
        "evaluator, family",
        [
            (lambda m: akm_gamma_pdf_series(m, 1.0), "am"),
            (lambda m: am_gamma_pdf(m, 1.0), "extreme"),
            (lambda m: extreme_gamma_pdf(m, 1.0), "akm"),
            (extreme_gamma_density, "am"),
        ],
        ids=["akm-series", "am-exact", "extreme-series", "extreme-density"],
    )
    def test_series_evaluators_take_their_own_family(self, evaluator, family):
        with pytest.raises(DomainError):
            evaluator(self.MODELS[family])


MULTIPATH = {
    "akm": AkmParams(2.0, 1.0, 1.0),
    "am": AmParams(2.0, 1.0),
    "extreme": ExtremeParams(2.0, 1.1),
}


class TestOriginRule:
    # The composite density behaves like x^min(e, b - 1) at the origin, with
    # e the multipath leading exponent (1 for all three cases below).
    @pytest.mark.parametrize("family", sorted(MULTIPATH))
    @pytest.mark.parametrize("route", ["series", "oracle"])
    def test_shadow_below_one_is_singular(self, family, route):
        model = CompositeModel(MULTIPATH[family], GammaShadowParams(0.8, 1.0))
        oracle = route == "oracle"
        # The density grows without bound towards zero ...
        assert composite_pdf(model, 1e-4, CFG, oracle=oracle) > composite_pdf(
            model, 1e-2, CFG, oracle=oracle
        )
        # ... so there is no value to return at zero.
        with pytest.raises(DomainError):
            composite_pdf(model, 0.0, CFG, oracle=oracle)

    @pytest.mark.parametrize("family", sorted(MULTIPATH))
    @pytest.mark.parametrize("route", ["series", "oracle"])
    def test_both_exponents_positive_give_zero(self, family, route):
        model = CompositeModel(MULTIPATH[family], GammaShadowParams(1.5, 1.0))
        assert composite_pdf(model, 0.0, CFG, oracle=route == "oracle") == 0.0


class TestGrossVariant:
    def test_gross_approaches_series_weights(self):
        model = CompositeModel(AkmParams(1.8, 1.4, 1.6), GammaShadowParams(1.5, 0.9))
        xs = (0.4, 0.9, 1.6, 2.6)
        reference = [akm_gamma_pdf_series(model, x, CFG) for x in xs]
        deviations = []
        for n in (10, 20, 40):
            cfg = SeriesConfig(max_terms=n, use_gross=True)
            gaps = [
                abs(akm_gamma_pdf_series(model, x, cfg) - ref) / ref
                for x, ref in zip(xs, reference)
            ]
            assert all(map(math.isfinite, gaps)), gaps
            deviations.append(max(gaps))
        assert deviations[0] >= deviations[1] >= deviations[2]


class TestDegenerateShadow:
    def test_pointwise_limit_to_plain_multipath(self):
        c = 1.3
        p = AkmParams(2.4, 1.1, 1.7)
        errors = {}
        for b in (100.0, 1000.0):
            model = CompositeModel(p, GammaShadowParams(b, c / b))
            gaps = []
            for x in (0.8, 1.0, 1.3, 1.8):
                plain = akm_pdf_normalized(p, x / c) / c
                gaps.append(abs(mixture_pdf(model, x) - plain) / plain)
            assert all(map(math.isfinite, gaps)), gaps
            errors[b] = max(gaps)
        assert errors[1000.0] <= 1e-2
        assert errors[1000.0] < errors[100.0]


class TestCompositeDensityDispatch:
    def test_routes_match_families(self):
        shadow = GammaShadowParams(1.5, 0.9)
        akm = CompositeModel(AkmParams(2.0, 1.0, 1.5), shadow)
        am = CompositeModel(AmParams(2.0, 1.5), shadow)
        ext = CompositeModel(ExtremeParams(2.0, 1.0), shadow)
        assert composite_pdf(akm, 1.0, CFG) == akm_gamma_pdf_series(akm, 1.0, CFG)
        assert composite_pdf(am, 1.0) == am_gamma_pdf(am, 1.0)
        assert composite_pdf(ext, 1.0, CFG) == extreme_gamma_pdf(ext, 1.0, CFG)
        assert composite_density(ext, CFG).atoms == ((0.0, math.exp(-2.0)),)
        oracle_val = composite_pdf(akm, 1.0, CFG, oracle=True)
        assert oracle_val == pytest.approx(mixture_pdf(akm, 1.0), rel=1e-12)


class TestOracleArrayIntegrand:
    # mixture_pdf evaluates each refinement round's nodes in one array call.
    MODELS = {
        "akm": CompositeModel(AkmParams(1.5, 1.0, 2.1), GammaShadowParams(1.1, 0.9)),
        "akm-kappa4": CompositeModel(AkmParams(2.0, 4.0, 4.0), GammaShadowParams(1.5, 0.8)),
        "am": CompositeModel(AmParams(2.4, 1.3), GammaShadowParams(1.5, 0.8)),
        "extreme": CompositeModel(ExtremeParams(1.7, 1.1), GammaShadowParams(1.2, 0.8)),
    }

    @staticmethod
    def one_node_at_a_time(m, x):
        # The same integral in rho, f_mp(rho) f_Y(x / rho) / rho, on the same
        # nodes, with the densities called on one float per node.
        mp, sh = m.multipath, m.shadow
        pdf, (e, _) = composite.family_of(mp).pdf, models._origin(mp)

        def f(s, k):  # times drho/ds = k rho / s at rho = s^k
            return np.array([pdf(mp, v**k, 1.0) * gamma_shadow_pdf(sh, x / v**k) * (k / v)
                             for v in s.tolist()])

        ln_edge = math.log(x) - math.log(sh.omega)
        return composite._split_quadrature(f, ln_edge, 1.0, 1e-9, 200_000, e)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_scalar_integrand(self, name):
        m = self.MODELS[name]
        for x in (1e-4, 0.05, 0.4, 1.0, 2.2, 6.0):
            assert mixture_pdf(m, x) == pytest.approx(self.one_node_at_a_time(m, x), rel=1e-14)

    # The points of one call, or of one mixture_density, share f_mp at shared
    # nodes (a memo keyed by the node array).  From 1e-4 down (1e-30 for the
    # extreme model) the edge x / omega lies below the first node (the head/tail
    # split); at 1e-310 x / omega is subnormal; from 1e-30 down the extreme
    # model's nodes reach a subnormal rho.
    SHARED_XS = np.array([1e-310, 1e-300, 1e-30, 1e-4, 0.05, 0.4, 1.0, 2.2, 6.0])

    @pytest.mark.parametrize("route", [mixture_pdf, composite.composite_cdf, composite.composite_sf])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_curve_matches_lone_points(self, name, route):
        m = self.MODELS[name]
        assert route(m, self.SHARED_XS).tolist() == [route(m, float(x)) for x in self.SHARED_XS]

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_density_points_in_any_order_match_lone_points(self, name):
        m, xs = self.MODELS[name], self.SHARED_XS.tolist()
        density = mixture_density(m)
        order = np.random.default_rng(35).permutation(len(xs)).tolist()
        got = {i: density.continuous(xs[i]) for i in order + order[::-1]}
        assert [got[i] for i in range(len(xs))] == [mixture_pdf(m, x) for x in xs]

    def test_readme_curve_evaluates_few_node_arrays(self, monkeypatch):
        # One quadrature per point would evaluate f_mp on 216 node arrays.
        arrays, ln_pdf = [], models._ln_multipath_pdf

        def counting(p, rho, *args):
            arrays.append(np.size(rho))
            return ln_pdf(p, rho, *args)

        monkeypatch.setattr(composite, "_ln_multipath_pdf", counting)
        mixture_pdf(self.MODELS["akm"], np.linspace(0.01, 4.0, 200))
        assert 0 < len(arrays) <= 5

    def test_memo_holds_no_more_than_its_cap(self, monkeypatch):
        memos = set()
        average = composite._multipath_average

        def recording(m, x, side, memo, *args):
            memos.add(id(memo))
            recording.memo = memo
            return average(m, x, side, memo, *args)

        monkeypatch.setattr(composite, "_multipath_average", recording)
        density = mixture_density(self.MODELS["am"])
        for x in np.geomspace(1e-3, 20.0, 2000).tolist():
            density.continuous(x)
        assert len(memos) == 1
        assert 0 < len(recording.memo) <= composite._MEMO_CAP

    def test_threads_sharing_a_density_get_the_serial_bits(self):
        m = self.MODELS["akm"]
        xs = np.geomspace(1e-3, 8.0, 120).tolist()
        serial = [mixture_pdf(m, x) for x in xs]
        density = mixture_density(m)

        def run(seed):
            order = np.random.default_rng(seed).permutation(len(xs)).tolist()
            got = {i: density.continuous(xs[i]) for i in order}
            return [got[i] for i in range(len(xs))]

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(4)))
        assert all(r == serial for r in results)


class TestOracleLogDensity:
    # The oracle reads ln f_mp from models._ln_multipath_pdf, never through
    # the public pdf: on node arrays whose rho = s^k runs from the least
    # subnormal to past _far, the two must agree.
    MULTIPATH = {
        "akm-kappa0": AkmParams(2.0, 0.0, 1.3),
        "akm": AkmParams(1.5, 2.0, 1.7),
        "am": AmParams(2.0, 0.4),
        "extreme": ExtremeParams(1.7, 1.1),
    }

    @staticmethod
    def memo_of(mp, s, k):
        # The memo entry that the pdf side of _multipath_average writes for the
        # node array s in rho = s^k.
        memo, m = {}, CompositeModel(mp, GammaShadowParams(1.5, 0.8))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(composite, "_split_quadrature", lambda f, *_: f(s, k))
            composite._multipath_average(m, 1.0, composite._PDF, memo)
        return memo[s.tobytes()]

    @pytest.mark.parametrize("name", sorted(MULTIPATH))
    def test_memo_is_the_public_pdf_in_logs(self, name):
        mp = self.MULTIPATH[name]
        pdf, (e, ln_c) = composite.family_of(mp).pdf, models._origin(mp)
        far, tiny = models._far(mp.alpha, mp.poisson_gamma[2], 1.0), np.finfo(float).tiny
        k = 2.0 / (e + 1.0) if e < 1.0 else 1.0
        # Nodes spaced in s, so that a subnormal rho = s^k has lost digits.
        edges = np.array([5e-324, tiny / 2, tiny, math.nextafter(far, 0.0), far, 2.0 * far])
        s = np.concatenate([np.geomspace(5e-324 ** (1.0 / k), (1e3 * far) ** (1.0 / k), 400),
                            edges ** (1.0 / k)])
        ln_f, rho = self.memo_of(mp, s, k), s**k
        inside = (rho > 0.0) & (rho < far)
        # the public pdf is the exponential of the log-density, bit for bit
        ln_pdf = models._ln_multipath_pdf(mp, rho[inside], np.log(rho[inside]))
        assert models._exp_or_zero(ln_pdf).tobytes() == pdf(mp, rho[inside], 1.0).tobytes()
        # ln(k rho f / s) = ln(k s^(k-1) f) wherever the pdf is normal
        checked = 0
        for si, ri, got in zip(s.tolist(), rho.tolist(), ln_f.tolist()):
            if ri >= far:
                assert got == -math.inf, ri
            elif ri < tiny:  # the origin law f ~ c rho^e
                want = math.log(k) + ln_c + (k * (e + 1.0) - 1.0) * math.log(si)
                assert abs(got - want) <= 4 * 2.0**-52 * max(1.0, abs(want)), ri
            elif (f := pdf(mp, ri, 1.0)) >= tiny:
                want = math.log(k) + (k - 1.0) * math.log(si) + math.log(f)
                assert abs(got - want) <= 4 * 2.0**-52 * max(1.0, abs(want)), ri
                checked += 1
        assert checked > 50


class TestOriginLimit:
    # With multipath leading exponent e = 0 and b > 1 the composite density
    # tends to c * E[1/Y] = c / (omega * (b - 1)), c the conditional
    # density's value at the origin at unit scale.
    MULTIPATH = {
        "akm": AkmParams(2.0, 1.0, 0.5),
        "am": AmParams(2.0, 0.5),
        "extreme": ExtremeParams(1.0, 1.1),
    }
    SHADOW = GammaShadowParams(2.0, 0.8)

    @pytest.mark.parametrize("family", sorted(MULTIPATH))
    def test_both_routes_return_the_limit(self, family):
        mp = self.MULTIPATH[family]
        assert mp.alpha * (mp.poisson_gamma[1] or 1.0) - 1.0 == 0.0  # the leading exponent
        m = CompositeModel(mp, self.SHADOW)
        limit = composite.family_of(mp).pdf(mp, 0.0, 1.0) / (0.8 * (2.0 - 1.0))
        assert composite_pdf(m, 0.0, CFG) == limit
        assert composite_pdf(m, 0.0, CFG, oracle=True) == limit
        # The density approaches it: within O(x) for akm and am, O(x^(1/2)) for extreme.
        assert composite_pdf(m, 1e-9, CFG) == pytest.approx(limit, rel=1e-7)

    @pytest.mark.parametrize("family", ["akm", "am"])
    def test_oracle_resolves_the_change_near_the_origin(self, family):
        # The density moves by O(x) over y ~ x, below the oracle's first
        # initial node; the routes agree there to their tolerance.
        m = CompositeModel(self.MULTIPATH[family], self.SHADOW)
        for x in (1e-7, 1e-5):
            series = composite_pdf(m, x, SeriesConfig(rel_tol=1e-12))
            assert mixture_pdf(m, x, rel_tol=1e-12) == pytest.approx(series, rel=1e-11)
            assert mixture_pdf(m, x) == pytest.approx(series, rel=1e-9)

    def test_split_point_is_the_first_initial_node(self):
        nodes = []

        def f(u):
            nodes.append(u.min())
            return np.exp(-u)

        integrate_semi_infinite(f, vectorized=True)
        assert composite._FIRST_NODE == nodes[0] == min(nodes)

    def test_closed_value(self):
        m = CompositeModel(self.MULTIPATH["akm"], self.SHADOW)
        assert composite_pdf(m, 0.0) == pytest.approx(0.855495700780, rel=1e-11)

    @pytest.mark.parametrize(
        "mp, limit",
        [(AkmParams(2.0, 1.0, 2.0), 1.4925612830), (ExtremeParams(2.0, 1.1), 1.6573225115)],
        ids=["akm", "extreme"],
    )
    @pytest.mark.parametrize("route", ["series", "oracle"])
    def test_unit_shadow_shape_gives_the_inverse_mean(self, mp, limit, route):
        # With b = 1 and a positive leading exponent the shadow density tends
        # to 1/omega at 0, and the limit is E[1/P] / omega.
        assert mp.alpha * (mp.poisson_gamma[1] or 1.0) - 1.0 > 0.0  # the leading exponent
        m, oracle = CompositeModel(mp, GammaShadowParams(1.0, 0.8)), route == "oracle"
        at_zero = composite_pdf(m, 0.0, CFG, oracle=oracle)
        inverse_mean, _ = si.quad(lambda r: composite.family_of(mp).pdf(mp, r, 1.0) / r, 0.0, np.inf)
        assert at_zero == pytest.approx(inverse_mean / 0.8, rel=1e-9)
        assert at_zero == pytest.approx(limit, rel=1e-10)
        assert composite_pdf(m, 1e-8, CFG, oracle=oracle) == pytest.approx(at_zero, rel=1e-6)

    @pytest.mark.parametrize("b", [0.8, 1.0])
    def test_shadow_at_or_below_one_stays_singular(self, b):
        m = CompositeModel(self.MULTIPATH["am"], GammaShadowParams(b, 0.8))
        for oracle in (False, True):
            with pytest.raises(DomainError):
                composite_pdf(m, 0.0, CFG, oracle=oracle)


class TestDensityContract:
    # ``Density.vectorized`` marks a continuous part that takes a 1-D array
    # too; ``values`` and the mass quadrature then make one call per batch.
    MODEL = CompositeModel(AkmParams(1.5, 1.0, 2.1), GammaShadowParams(1.1, 0.9))
    XS = np.array([1.7, 0.0, 0.3, 1.7, 4.0])

    @pytest.mark.parametrize(
        "make",
        [
            lambda m: composite.plain_density(m.multipath, 1.3),
            lambda m: composite.plain_density(m.shadow),
            lambda m: composite_density(m),
            lambda m: composite_density(CompositeModel(ExtremeParams(2.0, 1.1), m.shadow)),
            lambda m: models.extreme_density(ExtremeParams(2.0, 1.1)),
        ],
        ids=["plain", "shadow", "series", "extreme-series", "extreme-plain"],
    )
    def test_vectorized_values_match_float_calls(self, make):
        density = make(self.MODEL)
        assert density.vectorized
        got = density.values(self.XS)
        want = [density.continuous(float(x)) for x in self.XS]
        assert got.tolist() == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_oracle_is_vectorized_and_user_densities_stay_scalar(self):
        oracle = composite_density(self.MODEL, oracle=True)
        assert oracle.vectorized
        assert oracle.values(self.XS[2:4]).tolist() == [
            composite.mixture_pdf(self.MODEL, float(x)) for x in self.XS[2:4]
        ]
        user = models.Density(continuous=lambda r: 2.0 * r * math.exp(-r * r))
        assert not user.vectorized
        assert user.values([0.5, 1.0]).tolist() == [math.exp(-0.25), 2.0 * math.exp(-1.0)]
        assert models.density_total_mass(user) == pytest.approx(1.0, abs=1e-10)
