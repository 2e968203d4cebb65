"""Special-function goldens, properties, and scipy cross-checks."""

import math

import numpy as np
import pytest
from scipy import integrate as si
from scipy import special as sp

from compfade import (
    AkmParams,
    DomainError,
    akm_pdf_normalized,
    bessel_i,
    bessel_i_gross,
    bessel_i_scaled,
    kummer_1f1,
    ln_gamma,
    marcum_q,
    reg_lower_gamma,
    reg_upper_gamma,
)
from compfade.specfun import (
    _bessel_asym_scaled,
    _bessel_series_unscaled,
    _ln_bessel_i_scaled,
    _reg_gamma,
    poisson_gamma_cdf,
)


class TestLnGamma:
    def test_goldens(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ln_gamma(bad)


class TestBesselI:
    def test_origin(self):
        assert bessel_i(0.0, 0.0) == 1.0
        assert bessel_i(1.0, 0.0) == 0.0
        assert bessel_i(3.7, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert bessel_i(0.5, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            nu = float(rng.uniform(-0.9, 8.0))
            x = float(rng.uniform(0.0, 700.0))
            ref = float(sp.iv(nu, x))
            if ref > 0.0 and math.isfinite(ref):
                assert bessel_i(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_scaled_large_arguments(self):
        for nu in (0.0, 0.7, 2.3):
            for x in (50.0, 5e3, 1e6):
                assert bessel_i_scaled(nu, x) == pytest.approx(
                    float(sp.ive(nu, x)), rel=1e-12
                )

    def test_branch_seam_agreement(self):
        # Series and asymptotic branches agree at the switchover point.
        for nu in (0.0, 0.5, 1.7, 3.0, 6.0):
            x = nu + 20.0
            series = _bessel_series_unscaled(nu, x) * math.exp(-x)
            asym, converged = _bessel_asym_scaled(nu, x)
            assert converged
            assert asym == pytest.approx(series, rel=1e-11)

    def test_recurrence(self):
        rng = np.random.default_rng(4)
        for _ in range(120):
            nu = float(rng.uniform(0.5, 6.0))
            x = float(rng.uniform(0.1, 50.0))
            lhs = bessel_i(nu - 1.0, x) - bessel_i(nu + 1.0, x)
            rhs = 2.0 * nu / x * bessel_i(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_overflow_signal(self):
        with pytest.raises(OverflowError):
            bessel_i(0.0, 800.0)

    def test_log_below_the_normal_range(self):
        # A large order at a small argument underflows exp(-x) I_nu(x); its
        # logarithm still holds every digit, on the float and the array path.
        mpmath = pytest.importorskip("mpmath")
        xs = [1e-250, 2e-4, 0.6, 3.0, 40.0]
        for nu in (299.0, 60.5):
            with mpmath.workdps(30):
                refs = [float(mpmath.log(mpmath.besseli(nu, x)) - x) for x in xs]
            array = _ln_bessel_i_scaled(nu, np.array(xs))
            for x, ref, value in zip(xs, refs, array.tolist()):
                assert _ln_bessel_i_scaled(nu, x) == pytest.approx(ref, rel=1e-14)
                assert value == pytest.approx(ref, rel=1e-14)
        assert _ln_bessel_i_scaled(1.0, 0.0) == -math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_i(0.0, -1.0)
        with pytest.raises(DomainError):
            bessel_i(-1.5, 1.0)

    @pytest.mark.parametrize(
        "nu,x",
        [
            (-1.5, np.array([1.0, 2.0])),
            (0.5, np.array([1.0, math.nan])),
            (0.5, np.array([1.0, -2.0])),
            (0.5, np.array([1.0, math.inf])),
            (0.5, np.ones((2, 2))),
        ],
        ids=["order", "nan", "negative", "inf", "2-d"],
    )
    def test_array_domain(self, nu, x):
        with pytest.raises(DomainError):
            bessel_i_scaled(nu, x)

    @pytest.mark.parametrize(
        "fn,nu,x,ref",
        [
            (bessel_i, 0.0, 705.0, 2.2620505526554727e304),
            (bessel_i, 1.5, 708.0, 4.526606894713687e305),
            (bessel_i, 0.0, 709.5, 2.029763060075537e306),
            (bessel_i_scaled, 680.0, 700.0, 4.508736795313006e-137),
            (bessel_i_scaled, 700.0, 710.0, 7.232312591724778e-143),
            (bessel_i_scaled, 1000.0, 750.0, 1.1979491458983203e-262),
        ],
    )
    def test_above_700(self, fn, nu, x, ref):
        # bessel_i past x = 700 with a finite value, and the scaled float
        # path's peak series for 700 <= x <= nu + 20; 40-digit mpmath values.
        assert fn(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_overflow_below_the_normal_range(self):
        # At the least subnormal x, I_-0.99 is about 2.4e318 (mpmath), past
        # the largest float: the series' first term overflows to inf.
        assert bessel_i_scaled(-0.99, 5e-324) == math.inf
        got = bessel_i_scaled(-0.99, np.array([5e-324, 1.0]))
        assert got[0] == math.inf and got[1] == bessel_i_scaled(-0.99, 1.0)

    def test_long_array_is_evaluated_in_parts(self):
        # More than specfun._ROWS (4,096) arguments, across both branches.
        x = np.linspace(0.0, 60.0, 5_000)
        got = bessel_i_scaled(1.3, x)
        ref = np.array([bessel_i_scaled(1.3, float(v)) for v in x])
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


class TestBesselGross:
    def test_origin(self):
        assert bessel_i_gross(1.0, 0.0, 7) == 0.0
        assert bessel_i_gross(0.0, 0.0, 7) == 1.0

    def test_low_degree_small_argument(self):
        # Measured deviation 1.29e-5 at n=5, frozen as a regression bound;
        # comfortably inside the 1e-3 contract.
        ref = bessel_i(1.0, 0.5)
        assert ref == pytest.approx(0.2578943, abs=5e-8)
        dev = abs(bessel_i_gross(1.0, 0.5, 5) - ref) / ref
        assert dev < 1e-3
        assert dev == pytest.approx(1.294e-5, rel=0.05)

    def test_degree_30_measured_deviation(self):
        # Convergence in the degree is O(1/n^2): at n=30 the measured
        # deviation is 2.02e-4 (frozen); the 1e-8 level is reached near
        # n = 4500 and asserted there.
        ref = bessel_i(0.0, 2.0)
        dev30 = abs(bessel_i_gross(0.0, 2.0, 30) - ref) / ref
        assert dev30 == pytest.approx(2.0235e-4, rel=0.02)
        dev_big = abs(bessel_i_gross(0.0, 2.0, 4500) - ref) / ref
        assert dev_big <= 1e-8

    def test_error_non_increasing_in_degree(self):
        xs = np.linspace(0.05, 10.0, 40)
        for nu in (0.0, 1.0, 2.0):
            worst = []
            for n in (5, 10, 20, 40):
                gaps = [
                    abs(bessel_i_gross(nu, float(x), n) - bessel_i(nu, float(x)))
                    / bessel_i(nu, float(x))
                    for x in xs
                ]
                assert all(map(math.isfinite, gaps)), gaps
                worst.append(max(gaps))
            assert all(b <= a for a, b in zip(worst, worst[1:]))

    def test_bad_degree(self):
        with pytest.raises(DomainError):
            bessel_i_gross(0.0, 1.0, 0)

    def test_least_subnormal_argument(self):
        # Half of 5e-324 rounds to 0; the log of the half-argument must not.
        assert bessel_i_gross(0.0, 5e-324, 3) == pytest.approx(1.0, rel=1e-15)


def _mp_lower_series(mpmath, a, x):
    # P(a, x) = x^a e^-x / Gamma(a + 1) * sum_k x^k / ((a + 1) ... (a + k)),
    # every term positive, at mpmath's working precision.
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    term = total = mpmath.mpf(1)
    k = 0
    while term > total * mpmath.mpf(10) ** -(mpmath.mp.dps + 5):
        k += 1
        term *= x / (a + k)
        total += term
    return total * mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))


class TestRegGamma:
    def test_goldens(self):
        assert reg_upper_gamma(3.7, 0.0) == 1.0
        assert reg_upper_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
        # Q(2, x) = (1 + x) exp(-x)
        assert reg_upper_gamma(2.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = float(rng.uniform(0.05, 60.0))
            x = float(rng.uniform(0.0, 120.0))
            ref = float(sp.gammaincc(a, x))
            assert reg_upper_gamma(a, x) == pytest.approx(ref, rel=1e-12, abs=1e-280)
            assert reg_lower_gamma(a, x) == pytest.approx(
                float(sp.gammainc(a, x)), rel=1e-12, abs=1e-280
            )

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            a = float(rng.uniform(0.2, 10.0))
            xs = np.sort(rng.uniform(0.0, 20.0, size=8))
            qs = [reg_upper_gamma(a, float(x)) for x in xs]
            assert all(0.0 <= q <= 1.0 for q in qs)
            assert all(q2 <= q1 + 1e-13 for q1, q2 in zip(qs, qs[1:]))

    def test_stated_accuracy_at_large_shape(self):
        mpmath = pytest.importorskip("mpmath")
        a = 1e5
        with mpmath.workdps(40):
            for x in np.linspace(0.97, 1.03, 13) * a:
                q = mpmath.gammainc(a, float(x), mpmath.inf, regularized=True)
                assert reg_upper_gamma(a, float(x)) == pytest.approx(float(q), rel=1e-12)
                assert reg_lower_gamma(a, float(x)) == pytest.approx(float(1 - q), rel=1e-12)

    @pytest.mark.parametrize("a, rel", [(1e3, 1e-12), (5e3, 1e-12), (2e4, 1e-12), (1e5, 2e-12)])
    def test_both_sides_near_a_large_shape(self, a, rel):
        # The small side is computed directly, never as 1 minus the other:
        # P by its series at x <= a, Q by mpmath's upper integral above a.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in (np.linspace(0.9, 1.1, 13) * a).tolist():
                if x <= a:
                    p = _mp_lower_series(mpmath, a, x)
                    q = 1 - p
                else:
                    q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
                    p = 1 - q
                lower, upper = _reg_gamma(a, x)
                assert lower == pytest.approx(float(p), rel=rel)
                assert upper == pytest.approx(float(q), rel=rel)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_upper_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_upper_gamma(1.0, -0.5)

    @pytest.mark.parametrize("a", [0.05, 0.6, 1.1, 2.0, 7.5, 60.0, 900.0])
    def test_array_matches_the_float_path(self, a):
        # Both sides of a + 1, z = 0, and elements whose prefactor underflows
        # (z = 5e-324 and z = 1e5).
        rng = np.random.default_rng(8)
        z = np.concatenate([
            [0.0, 5e-324, 1e-300, np.nextafter(a + 1.0, 0.0), a + 1.0, 1e5],
            rng.uniform(0.0, a + 1.0, 30), rng.uniform(a + 1.0, 3.0 * a + 40.0, 30),
        ])
        lower, upper = _reg_gamma(a, z)
        assert list(zip(lower.tolist(), upper.tolist())) == [_reg_gamma(a, zi) for zi in z.tolist()]
        assert (lower[0], upper[0]) == (0.0, 1.0)
        assert (lower[5], upper[5]) == (1.0, 0.0)

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_array_domain(self, bad):
        with pytest.raises(DomainError):
            _reg_gamma(1.5, np.array([0.5, bad]))


class TestMarcumQ:
    def test_goldens(self):
        assert marcum_q(2.5, 1.3, 0.0) == 1.0
        assert marcum_q(1.0, 0.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_against_noncentral_chi2(self):
        # Q_mu(a, b) is the survival function of a noncentral chi-square.
        from scipy import stats

        rng = np.random.default_rng(7)
        for _ in range(200):
            mu = float(rng.uniform(0.3, 6.0))
            a = float(rng.uniform(0.01, 6.0))
            b = float(rng.uniform(0.0, 8.0))
            ref = float(stats.ncx2.sf(b * b, 2.0 * mu, a * a))
            assert marcum_q(mu, a, b) == pytest.approx(ref, abs=2e-13)

    def test_matches_los_cdf_quadrature(self):
        # 1 - integral of the alpha=2 LOS envelope pdf equals the Marcum
        # complement; the quadrature side is scipy, fully independent.
        p = AkmParams(2.0, 1.0, 1.5)
        mass, _ = si.quad(
            lambda r: akm_pdf_normalized(p, r), 0.0, 2.0, epsabs=1e-13, epsrel=1e-12
        )
        marcum = marcum_q(1.5, math.sqrt(2.0 * 1.5), 2.0 * math.sqrt(2.0 * 1.5 * 2.0))
        assert marcum == pytest.approx(1.0 - mass, abs=1e-8)

    def test_poisson_mixture_identity(self):
        # The complement of the Poisson-weighted lower-gamma mixture equals
        # the Marcum form through an independent arrangement.
        rng = np.random.default_rng(8)
        for _ in range(60):
            mu = float(rng.uniform(0.5, 4.0))
            kappa = float(rng.uniform(0.01, 5.0))
            alpha = float(rng.uniform(1.0, 4.0))
            rho = float(rng.uniform(0.1, 2.5))
            lam = mu * kappa
            x = mu * (1.0 + kappa) * rho**alpha
            total = 0.0
            weight = math.exp(-lam)
            for i in range(400):
                total += weight * (1.0 - reg_upper_gamma(mu + i, x))
                weight *= lam / (i + 1.0)
                if weight < 1e-18:
                    break
            direct = marcum_q(
                mu, math.sqrt(2.0 * lam), rho ** (alpha / 2.0) * math.sqrt(2.0 * mu * (1.0 + kappa))
            )
            assert 1.0 - total == pytest.approx(direct, abs=1e-9)

    def test_monotonicity(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            mu = float(rng.uniform(0.3, 4.0))
            a = float(rng.uniform(0.0, 4.0))
            bs = np.sort(rng.uniform(0.0, 6.0, size=6))
            qs = [marcum_q(mu, a, float(b)) for b in bs]
            assert all(q2 <= q1 + 1e-12 for q1, q2 in zip(qs, qs[1:]))
            b = float(rng.uniform(0.0, 6.0))
            avals = np.sort(rng.uniform(0.0, 4.0, size=6))
            qs = [marcum_q(mu, float(a_), b) for a_ in avals]
            assert all(q2 >= q1 - 1e-12 for q1, q2 in zip(qs, qs[1:]))

    def test_large_noncentrality(self):
        # a^2/2 = 800: e^-800 underflows, so a sum started at i = 0 gives 0.
        # Reference: the mixture summed with mpmath at 40 digits.
        assert marcum_q(1.0, 40.0, 40.0) == pytest.approx(0.5049871682341438, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            marcum_q(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            marcum_q(1.0, -0.1, 1.0)
        for b in (-1.0, math.nan):
            with pytest.raises(DomainError):
                marcum_q(1.0, 1.0, b)

    @pytest.mark.parametrize(
        "lam,shape,x", [(-1.0, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.nan)]
    )
    def test_poisson_gamma_cdf_domain(self, lam, shape, x):
        with pytest.raises(DomainError):
            poisson_gamma_cdf(lam, shape, x, 1e-15)


class TestKummer1F1:
    def test_goldens(self):
        assert kummer_1f1(2.2, 3.1, 0.0) == 1.0
        assert kummer_1f1(1.0, 1.0, 1.5) == pytest.approx(math.exp(1.5), rel=1e-10)
        # 1F1(1; 2; x) = (e^x - 1)/x
        assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(0.1, 10.0))
            x = float(rng.uniform(0.0, 40.0))
            assert kummer_1f1(a, b, x) == pytest.approx(float(sp.hyp1f1(a, b, x)), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            kummer_1f1(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            kummer_1f1(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            kummer_1f1(1.0, 1.0, -1.0)
