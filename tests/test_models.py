"""Plain (unshadowed) fading model densities, cdfs, moments, reductions."""

import math

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as sp

from compfade import (
    AkmParams,
    AmParams,
    DomainError,
    ExtremeParams,
    GammaShadowParams,
    ScaledEnvelope,
    akm_cdf,
    akm_cdf_series,
    akm_moment,
    akm_pdf_envelope,
    akm_pdf_normalized,
    akm_power_pdf,
    am_cdf,
    am_pdf,
    density_total_mass,
    extreme_cdf,
    extreme_density,
    extreme_pdf,
    gamma_shadow_cdf,
    gamma_shadow_pdf,
    marcum_q,
    nakagami_m_equiv,
    specialize,
)
from compfade import specfun

UNIT = ScaledEnvelope(1.0)


def quad_mass(f, upper=np.inf):
    value, _ = si.quad(f, 0.0, upper, epsabs=1e-12, epsrel=1e-11, limit=400)
    return value


class TestAkmPdf:
    def test_rayleigh_point(self):
        # kappa -> 0, mu = 1, alpha = 2 is the unit-rms Rayleigh density.
        p = AkmParams(2.0, 1e-12, 1.0)
        assert akm_pdf_normalized(p, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-10)

    def test_zero_at_origin_when_exponent_positive(self):
        assert akm_pdf_normalized(AkmParams(2.0, 1.0, 1.5), 0.0) == 0.0

    def test_reference_value_and_normalization(self):
        p = AkmParams(3.5, 2.0, 2.1)
        # Frozen from the scipy-based direct evaluation of the density.
        assert akm_pdf_normalized(p, 0.8) == pytest.approx(1.2738058206303695, rel=1e-12)
        assert quad_mass(lambda r: akm_pdf_normalized(p, r)) == pytest.approx(1.0, abs=1e-8)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            alpha = float(rng.uniform(1.0, 4.0))
            kappa = float(rng.uniform(0.01, 5.0))
            mu = float(rng.uniform(0.5, 4.0))
            rho = float(rng.uniform(0.05, 3.0))
            z = 2.0 * mu * math.sqrt(kappa * (1.0 + kappa)) * rho ** (alpha / 2.0)
            direct = (
                alpha
                * mu
                * (1.0 + kappa) ** ((1.0 + mu) / 2.0)
                * rho ** (alpha * (1.0 + mu) / 2.0 - 1.0)
                * float(sp.iv(mu - 1.0, z))
                / (
                    kappa ** ((mu - 1.0) / 2.0)
                    * math.exp(mu * (kappa + rho**alpha + kappa * rho**alpha))
                )
            )
            mine = akm_pdf_normalized(AkmParams(alpha, kappa, mu), rho)
            assert mine == pytest.approx(direct, rel=1e-12)

    def test_small_kappa_limit_branch_continuity(self):
        # Values either side of kappa = 1e-8 agree closely: one formula
        # holds every kappa.
        mu, alpha = 1.7, 2.6
        rho = 0.9
        above = akm_pdf_normalized(AkmParams(alpha, 1.1e-8, mu), rho)
        below = akm_pdf_normalized(AkmParams(alpha, 0.9e-8, mu), rho)
        assert above == pytest.approx(below, rel=1e-7)

    def test_envelope_scaling_identity(self):
        p = AkmParams(1.5, 3.0, 1.2)
        s = ScaledEnvelope(0.9)
        for r in (0.2, 0.8, 1.7):
            assert akm_pdf_envelope(p, s, r) == akm_pdf_normalized(p, r / s.rhat) / s.rhat
        assert quad_mass(lambda r: akm_pdf_envelope(p, s, r)) == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            akm_pdf_normalized(AkmParams(2.0, 1.0, 1.0), -0.1)
        with pytest.raises(DomainError):
            AkmParams(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            AkmParams(2.0, -0.5, 1.0)


class TestAkmCdf:
    def test_zero_and_rayleigh(self):
        p = AkmParams(2.0, 1.3, 2.2)
        assert akm_cdf(p, 0.0) == 0.0
        rayleigh = AkmParams(2.0, 0.0, 1.0)
        assert akm_cdf(rayleigh, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-10)

    def test_against_pdf_quadrature(self):
        p = AkmParams(2.5, 1.7, 1.8)
        ref = quad_mass(lambda r: akm_pdf_normalized(p, r), upper=1.1)
        assert akm_cdf(p, 1.1) == pytest.approx(ref, abs=1e-7)

    def test_limits_and_monotonicity(self):
        p = AkmParams(3.0, 2.0, 1.4)
        rhos = np.linspace(0.0, 3.0, 40)
        values = [akm_cdf(p, float(r)) for r in rhos]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
        assert akm_cdf(p, 20.0) >= 1.0 - 1e-8

    def test_pdf_is_cdf_derivative(self):
        p = AkmParams(2.2, 0.8, 1.6)
        h = 1e-5
        for rho in (0.5, 1.0, 1.8):
            deriv = (akm_cdf(p, rho + h) - akm_cdf(p, rho - h)) / (2.0 * h)
            assert deriv == pytest.approx(akm_pdf_normalized(p, rho), rel=1e-5)

    def test_one_side_summed_per_call(self, monkeypatch):
        # P at or below the mean power (rho = 1), Q above it; never marcum_q.
        sides, side = [], specfun._poisson_gamma_side

        def counted(*args, upper):
            sides.append(upper)
            return side(*args, upper=upper)

        monkeypatch.setattr(specfun, "_poisson_gamma_side", counted)
        monkeypatch.delattr(specfun, "marcum_q")
        p = AkmParams(1.5, 2.0, 1.3)
        for rho in (1e-3, 0.99, 1.01, 3.0):
            akm_cdf(p, rho)
        assert sides == [False, False, True, True]

    def test_dual_form_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = AkmParams(
                float(rng.uniform(1.0, 4.0)),
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.5, 4.0)),
            )
            rho = float(rng.uniform(0.05, 3.0))
            b = rho ** (0.5 * p.alpha) * math.sqrt(2.0 * p.mu * (1.0 + p.kappa))
            f1 = 1.0 - marcum_q(p.mu, math.sqrt(2.0 * p.mu * p.kappa), b)
            f2 = akm_cdf_series(p, rho)
            assert abs(f1 - f2) <= 1e-9
            if max(f1, f2) >= 1e-3:
                assert abs(f1 - f2) / max(f1, f2) <= 1e-9


class TestAkmPowerPdf:
    def test_rayleigh_power_is_exponential(self):
        p = AkmParams(2.0, 0.0, 1.0)
        assert akm_power_pdf(p, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_change_of_variables_identity(self):
        p = AkmParams(2.7, 1.9, 1.3)
        assert akm_power_pdf(p, 4.0) == akm_pdf_normalized(p, 2.0) / 4.0

    def test_normalization(self):
        p = AkmParams(2.0, 2.0, 2.0)
        assert quad_mass(lambda w: akm_power_pdf(p, w)) == pytest.approx(1.0, abs=1e-8)

    def test_origin_rules(self):
        assert akm_power_pdf(AkmParams(2.0, 1.0, 2.0), 0.0) == 0.0
        with pytest.raises(DomainError):
            akm_power_pdf(AkmParams(1.0, 1.0, 0.6), 0.0)

    def test_origin_limit_of_the_clustering_form(self):
        # The envelope density goes as c * rho^e with e = alpha*mu - 1, so the
        # power density goes as c/2 * w^((e - 1)/2): finite at e = 1, where
        # c = alpha (mu (1 + kappa))^mu e^(-mu kappa) / Gamma(mu) = 16 e^-2.
        p = AkmParams(1.0, 1.0, 2.0)
        assert akm_power_pdf(p, 0.0) == pytest.approx(8.0 * math.exp(-2.0), rel=1e-14)
        assert akm_power_pdf(p, 1e-12) == pytest.approx(8.0 * math.exp(-2.0), rel=1e-5)
        assert akm_power_pdf(AkmParams(1.0, 1.0, 2.5), 0.0) == 0.0
        # e = 0.8: the density grows like w^-0.1, out of domain at w = 0.
        with pytest.raises(DomainError):
            akm_power_pdf(AkmParams(3.0, 1.0, 0.6), 0.0)


class TestPdfAgainstScipy:
    # 2 rate P^alpha is noncentral chi-square with 2 shape degrees of freedom
    # and noncentrality 2 lam, (lam, shape, rate) the clustering form; with
    # lam = 0, P^alpha is Gamma(shape, rate).  scipy loses its digits where
    # the density falls below about 1e-60, so the far tails are left to the
    # mpmath goldens.
    GRID = [
        (alpha, mu, rho)
        for alpha in (0.5, 1.3, 2.0, 4.0)
        for mu in (0.6, 2.5, 20.0)
        for rho in (0.05, 0.4, 1.0, 1.5, 3.0)
    ]

    @pytest.mark.parametrize("kappa", [1e-12, 9e-9, 1e-4, 0.5, 3.0, 50.0])
    def test_akm_matches_noncentral_chi_square(self, kappa):
        stats = pytest.importorskip("scipy.stats")
        compared = 0
        for alpha, mu, rho in self.GRID:
            p = AkmParams(alpha, kappa, mu)
            lam, shape, rate = p.poisson_gamma
            w = 2.0 * rate * rho**alpha
            ref = float(stats.ncx2.pdf(w, 2.0 * shape, 2.0 * lam)) * w * alpha / rho
            if ref >= 1e-30:
                assert akm_pdf_normalized(p, rho) == pytest.approx(ref, rel=1e-12, abs=0.0)
                compared += 1
        assert compared >= 30

    def test_am_matches_gamma(self):
        stats = pytest.importorskip("scipy.stats")
        s = ScaledEnvelope(0.8)
        for alpha, mu, rho in self.GRID:
            u = rho**alpha
            ref = float(stats.gamma.pdf(u, mu, scale=1.0 / mu)) * alpha * u / rho
            got = am_pdf(AmParams(alpha, mu), s, rho * s.rhat) * s.rhat
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestAkmMoments:
    def test_zeroth_moment_is_one(self):
        for params in [(2.0, 1.5, 2.1), (3.1, 0.7, 1.3), (1.2, 4.0, 0.6)]:
            assert akm_moment(AkmParams(*params), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_power_at_alpha_two(self):
        # The rms normalization makes E[P^2] exactly one when alpha = 2.
        p = AkmParams(2.0, 0.0, 2.5)
        assert akm_moment(p, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_th_moment_is_one(self):
        # The scale definition forces E[P^alpha] = 1 for every alpha.
        for params in [(2.0, 1.5, 2.1), (3.1, 0.7, 1.3), (1.4, 2.5, 2.0)]:
            p = AkmParams(*params)
            assert akm_moment(p, p.alpha) == pytest.approx(1.0, abs=1e-12)

    def test_two_alpha_moment_is_exact(self):
        # E[P^(2 alpha)] is the second moment of Gamma(mu + N, rate), N ~
        # Poisson(lam): ((mu + lam)(mu + lam + 1) + lam) / rate^2 at every lam.
        for params in [(2.0, 1.5, 2.1), (1.2, 0.0, 0.6), (0.7, 50.0, 20.0), (3.3, 2000.0, 1.0)]:
            p = AkmParams(*params)
            lam, mu, rate = p.poisson_gamma
            exact = ((mu + lam) * (mu + lam + 1.0) + lam) / rate**2
            assert akm_moment(p, 2.0 * p.alpha) == pytest.approx(exact, rel=1e-13)

    def test_against_quadrature(self):
        rng = np.random.default_rng(14)
        for _ in range(6):
            p = AkmParams(
                float(rng.uniform(1.0, 4.0)),
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.5, 4.0)),
            )
            for order in (1.0, 2.0, 3.0, 4.0):
                ref, _ = si.quad(
                    lambda r: r**order * akm_pdf_normalized(p, r),
                    0.0,
                    np.inf,
                    epsabs=1e-13,
                    epsrel=1e-12,
                    limit=400,
                )
                assert akm_moment(p, order) == pytest.approx(ref, rel=1e-6)

    def test_variance_map_at_alpha_two(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            kappa = float(rng.uniform(0.0, 5.0))
            mu = float(rng.uniform(0.5, 4.0))
            p = AkmParams(2.0, kappa, mu)
            var = akm_moment(p, 4.0) - akm_moment(p, 2.0) ** 2
            assert 1.0 / var == pytest.approx(nakagami_m_equiv(kappa, mu), rel=1e-6)

    def test_nakagami_map_goldens(self):
        assert nakagami_m_equiv(0.0, 2.3) == pytest.approx(2.3, rel=1e-14)
        assert nakagami_m_equiv(1.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


class TestExtreme:
    def test_alpha_two_matches_direct_form(self):
        p = ExtremeParams(2.0, 1.1)
        for rho in (0.1, 0.5, 1.0, 1.9):
            direct = 4.0 * 1.1 * math.exp(-2.2 * (1.0 + rho * rho)) * float(sp.iv(1, 4.4 * rho))
            assert extreme_pdf(p, rho) == pytest.approx(direct, rel=1e-10)

    def test_atom_mass(self):
        p = ExtremeParams(1.7, 0.9)
        density = extreme_density(p)
        assert density.atoms == ((0.0, math.exp(-1.8)),)

    def test_continuous_mass_complements_atom(self):
        p = ExtremeParams(1.7, 0.9)
        mass = quad_mass(lambda r: extreme_pdf(p, r))
        assert mass == pytest.approx(1.0 - math.exp(-1.8), abs=1e-7)
        assert density_total_mass(extreme_density(p)) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_series(self):
        p = ExtremeParams(1.5, 0.7)
        assert extreme_cdf(p, 0.0) == pytest.approx(p.atom_mass, rel=1e-12)
        ref = p.atom_mass + quad_mass(lambda r: extreme_pdf(p, r), upper=1.3)
        assert extreme_cdf(p, 1.3) == pytest.approx(ref, abs=1e-8)
        assert extreme_cdf(p, 25.0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "rho, ref",
        [(0.9, 3.3481205668838065e-05), (1.0, 0.5049871682341438), (1.1, 0.9999698858954844)],
    )
    def test_cdf_large_severity(self, rho, ref):
        # 2m = 800: e^-800 underflows, so a sum started at n = 0 gives 0.
        # The references sum the mixture with mpmath at 40 digits.
        assert extreme_cdf(ExtremeParams(2.0, 400.0), rho) == pytest.approx(ref, rel=1e-10)


class TestAmAndShadow:
    def test_am_goldens(self):
        assert am_pdf(AmParams(2.0, 1.0), UNIT, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-12
        )
        # mu = 1 gives the stretched-exponential (Weibull) density.
        for r in (0.3, 0.9, 1.4):
            assert am_pdf(AmParams(3.0, 1.0), UNIT, r) == pytest.approx(
                3.0 * r * r * math.exp(-(r**3.0)), rel=1e-12
            )

    def test_am_normalization_and_cdf(self):
        p = AmParams(2.4, 1.7)
        s = ScaledEnvelope(1.1)
        assert quad_mass(lambda r: am_pdf(p, s, r)) == pytest.approx(1.0, abs=1e-8)
        ref = quad_mass(lambda r: am_pdf(p, s, r), upper=1.2)
        assert am_cdf(p, s, 1.2) == pytest.approx(ref, abs=1e-8)

    def test_shadow_goldens(self):
        assert gamma_shadow_pdf(GammaShadowParams(1.0, 2.0), 0.0) == 0.5
        assert gamma_shadow_pdf(GammaShadowParams(2.0, 1.0), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )
        with pytest.raises(DomainError):
            gamma_shadow_pdf(GammaShadowParams(0.8, 1.0), 0.0)

    @pytest.mark.parametrize("b", [16.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7])
    def test_shadow_density_past_b_15_against_mpmath(self, b):
        # Near y = b omega the log form cancels; Loader's form errs only by
        # what rounding y / omega costs: 4e-16 (16 + b |y / (b omega) - 1|)
        # over y / (b omega) in [0.9, 1.1].
        mpmath = pytest.importorskip("mpmath")
        for omega in (0.05, 0.9, 7.0):
            g = GammaShadowParams(b, omega)
            ys = np.linspace(0.9, 1.1, 41) * b * omega
            for y, got in zip(ys.tolist(), gamma_shadow_pdf(g, ys).tolist()):
                with mpmath.workdps(40):
                    B, Y, W = mpmath.mpf(b), mpmath.mpf(y), mpmath.mpf(omega)
                    ln_ref = (B - 1) * mpmath.log(Y) - Y / W - mpmath.loggamma(B) - B * mpmath.log(W)
                    ref = mpmath.exp(ln_ref)
                if ref < 1e-300:
                    continue
                assert gamma_shadow_pdf(g, y) == got
                bound = 4e-16 * (16.0 + b * abs(y / (b * omega) - 1.0))
                assert abs(got - ref) <= bound * ref, (b, omega, y)

    def test_shadow_normalization_and_cdf(self):
        g = GammaShadowParams(1.8, 0.7)
        assert quad_mass(lambda y: gamma_shadow_pdf(g, y)) == pytest.approx(1.0, abs=1e-9)
        ref = quad_mass(lambda y: gamma_shadow_pdf(g, y), upper=1.5)
        assert gamma_shadow_cdf(g, 1.5) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize(
        "b, omega, y",
        [(0.5, 0.5, 1.7e308), (20.0, 0.5, 1.7e308), (0.5, 7.0, 5e-324), (0.5, 7.0, 3e-320)],
    )
    def test_shadow_cdf_where_y_over_omega_leaves_the_doubles(self, b, omega, y):
        # y / omega overflows at 1.7e308 / 0.5, rounds to 0 at 5e-324 / 7 and
        # keeps a few digits at 3e-320 / 7: P(b, y / omega) is 1, or (y /
        # omega)^b / Gamma(b + 1) in logs.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = float(mpmath.gammainc(b, 0, mpmath.mpf(y) / omega, regularized=True))
        g = GammaShadowParams(b, omega)
        for got in (gamma_shadow_cdf(g, y), gamma_shadow_cdf(g, np.array([1.0, y])).tolist()[1]):
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


class TestReductions:
    def test_alpha_two_collapses_to_linear_los_model(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            kappa = float(rng.uniform(0.05, 5.0))
            mu = float(rng.uniform(0.5, 4.0))
            rho = float(rng.uniform(0.1, 2.5))
            direct = (
                2.0
                * mu
                * (1.0 + kappa) ** ((mu + 1.0) / 2.0)
                * kappa ** (-(mu - 1.0) / 2.0)
                * rho**mu
                * math.exp(-mu * kappa - mu * (1.0 + kappa) * rho**2)
                * float(sp.iv(mu - 1.0, 2.0 * mu * math.sqrt(kappa * (1.0 + kappa)) * rho))
            )
            assert akm_pdf_normalized(AkmParams(2.0, kappa, mu), rho) == pytest.approx(
                direct, rel=1e-10
            )

    def test_kappa_zero_matches_zero_los_model(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            alpha = float(rng.uniform(1.0, 4.0))
            mu = float(rng.uniform(0.5, 4.0))
            rho = float(rng.uniform(0.05, 2.5))
            assert akm_pdf_normalized(AkmParams(alpha, 0.0, mu), rho) == pytest.approx(
                am_pdf(AmParams(alpha, mu), UNIT, rho), rel=1e-13
            )

    def test_extreme_alpha_two_reduction(self):
        m = 0.8
        general = ExtremeParams(2.0, m)
        for rho in (0.2, 0.7, 1.5):
            direct = 4.0 * m * math.exp(-2.0 * m * (1.0 + rho**2)) * float(sp.iv(1, 4.0 * m * rho))
            assert extreme_pdf(general, rho) == pytest.approx(direct, rel=1e-10)

    def test_normalization_random_draws(self):
        rng = np.random.default_rng(18)
        for _ in range(12):
            p = AkmParams(
                float(rng.uniform(1.0, 4.0)),
                float(rng.uniform(0.0, 5.0)),
                float(rng.uniform(0.5, 4.0)),
            )
            assert quad_mass(lambda r: akm_pdf_normalized(p, r)) == pytest.approx(1.0, abs=1e-6)


class TestSpecialize:
    def test_named_cases(self):
        assert specialize(AkmParams(2.0, 0.0, 1.0)).name == "rayleigh"
        case = specialize(AkmParams(2.0, 0.0, 3.0))
        assert case.name == "nakagami-m" and case.params["m"] == 3.0
        case = specialize(AkmParams(2.0, 2.5, 1.0))
        assert case.name == "rice" and case.params["k"] == 2.5
        assert specialize(AkmParams(2.0, 1.2, 2.0)).name == "kappa-mu"
        assert specialize(AkmParams(3.0, 0.0, 1.0)).name == "weibull"
        assert specialize(AkmParams(3.0, 0.0, 2.0)).name == "alpha-mu"
        assert specialize(AkmParams(3.0, 1.0, 2.0)).name == "generic"

    def test_tolerance(self):
        assert specialize(AkmParams(2.0 + 1e-10, 1e-10, 1.0)).name == "rayleigh"
        assert specialize(AkmParams(2.0 + 1e-6, 0.0, 1.0)).name != "rayleigh"


class TestArrayDensities:
    # Each density takes a 1-D array through the formula its float call uses.
    POINTS = np.array([0.0, 1e-5, 0.3, 0.0, 1.0, 2.7, 40.0])

    CASES = {
        "akm": lambda x: akm_pdf_normalized(AkmParams(1.5, 1.0, 2.1), x),
        "akm-kappa-zero": lambda x: akm_pdf_normalized(AkmParams(2.4, 0.0, 1.3), x),
        "akm-divergent-origin": lambda x: akm_pdf_normalized(AkmParams(1.0, 1.0, 0.6), x),
        "extreme": lambda x: extreme_pdf(ExtremeParams(1.7, 1.1), x),
        "am": lambda x: am_pdf(AmParams(2.4, 1.3), ScaledEnvelope(1.3), x),
        "gamma-shadow": lambda x: gamma_shadow_pdf(GammaShadowParams(1.0, 0.8), x),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_array_matches_float_calls(self, name):
        pdf = self.CASES[name]
        values = pdf(self.POINTS)
        assert isinstance(values, np.ndarray) and values.shape == self.POINTS.shape
        for x, value in zip(self.POINTS.tolist(), values.tolist()):
            single = pdf(x)
            assert type(single) is float
            # A float takes the float path of the Bessel factor.
            assert value == pytest.approx(single, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf])
    def test_any_bad_element_is_a_domain_error(self, name, bad):
        with pytest.raises(DomainError):
            self.CASES[name](np.array([0.5, bad, 1.0]))

    def test_two_dimensional_input_is_a_domain_error(self):
        with pytest.raises(DomainError):
            extreme_pdf(ExtremeParams(1.7, 1.1), np.ones((2, 2)))

    def test_empty_array(self):
        assert akm_pdf_normalized(AkmParams(1.5, 1.0, 2.1), np.array([])).shape == (0,)

    def test_shadow_origin_rule_applies_to_arrays(self):
        with pytest.raises(DomainError):
            gamma_shadow_pdf(GammaShadowParams(0.8, 1.0), np.array([1.0, 0.0]))


class TestAkmCdfLowerTail:
    # P(rho) = F_ncx2(2 mu (1 + kappa) rho^alpha; 2 mu, 2 mu kappa).
    @pytest.mark.parametrize(
        "alpha, kappa, mu", [(2.0, 1.0, 2.0), (1.5, 0.5, 1.2), (3.0, 4.0, 3.5)]
    )
    def test_matches_noncentral_chi_square(self, alpha, kappa, mu):
        stats = pytest.importorskip("scipy.stats")
        p = AkmParams(alpha, kappa, mu)
        for rho in (1e-5, 1e-4, 1e-2, 0.3, 0.8, 1.0, 1.5):
            w = 2.0 * mu * (1.0 + kappa) * rho**alpha
            ref = float(stats.ncx2.cdf(w, 2.0 * mu, 2.0 * mu * kappa))
            assert akm_cdf(p, rho) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("rho", [0.8, 1.0, 1.2])
    def test_large_noncentrality(self, rho):
        # mu*kappa = 1000: e^-1000 underflows, so sums started at n = 0 give
        # 0 / 1 / 1 from akm_cdf.  P(0.8) is 5.8e-20.
        stats = pytest.importorskip("scipy.stats")
        p = AkmParams(2.0, 50.0, 20.0)
        ref = float(stats.ncx2.cdf(2.0 * 20.0 * 51.0 * rho**2, 40.0, 2000.0))
        assert akm_cdf(p, rho) == pytest.approx(ref, rel=1e-10)
        assert akm_cdf_series(p, rho) == pytest.approx(ref, rel=1e-10)

    def test_deep_tail_values(self):
        p = AkmParams(2.0, 1.0, 2.0)
        # Was 6.7e-16 and 4.4e-16 as 1 - Q.
        assert akm_cdf(p, 1e-4) == pytest.approx(1.0827e-16, rel=1e-4)
        assert akm_cdf(p, 1e-5) == pytest.approx(1.0827e-20, rel=1e-4)
