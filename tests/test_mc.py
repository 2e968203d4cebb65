"""Samplers, reproducibility, and goodness-of-fit machinery."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from compfade import (
    AkmParams,
    AmParams,
    CompositeModel,
    DomainError,
    ExtremeParams,
    GammaShadowParams,
    SeriesConfig,
    akm_cdf,
    akm_moment,
    gof_compare,
    ks_critical_value,
    sample_akm,
    sample_am,
    sample_composite,
    sample_extreme,
)
from compfade.composite import composite_density, mixture_density, plain_density
from compfade.mc import (
    SampleBatch, build_cdf_table, model_descriptor, sample_plain, subsequence_seeds,
)
from compfade.models import Density, akm_pdf_normalized, extreme_density

COUNT = 100_000


def ks_against_cdf(values, cdf):
    xs = np.sort(values)
    F = np.array([cdf(float(x)) for x in xs])
    n = xs.size
    return max(
        float(np.max(np.arange(1, n + 1) / n - F)),
        float(np.max(F - np.arange(0, n) / n)),
    )


class TestReproducibility:
    def test_bit_identical_batches(self):
        p = AkmParams(2.5, 1.5, 2.1)
        b1 = sample_akm(p, 5000, 42)
        b2 = sample_akm(p, 5000, 42)
        assert np.array_equal(b1.values, b2.values)
        b3 = sample_akm(p, 5000, 43)
        assert not np.array_equal(b1.values, b3.values)

    def test_descriptor_is_stable_json(self):
        p = ExtremeParams(1.5, 0.7)
        assert model_descriptor(p) == model_descriptor(ExtremeParams(1.5, 0.7))

    def test_subsequence_seeds_are_distinct(self):
        seeds = subsequence_seeds(7, 4)
        assert len(seeds) == 4
        assert len({s.entropy for s in seeds}) == 1  # children of one root

    def test_count_validation(self):
        with pytest.raises(DomainError):
            sample_akm(AkmParams(2.0, 1.0, 1.0), 0, 1)

    @pytest.mark.parametrize("count, seed", [(10, -1), (10, 1.5), (10, True), (True, 1)])
    @pytest.mark.parametrize("composite", [False, True])
    def test_bad_count_or_seed_is_a_domain_error(self, count, seed, composite):
        p = AmParams(2.0, 1.3)
        model = CompositeModel(p, GammaShadowParams(1.6, 0.8)) if composite else p
        with pytest.raises(DomainError):
            (sample_composite if composite else sample_plain)(model, count, seed)


class TestAkmSampler:
    def test_rayleigh_mean(self):
        p = AkmParams(2.0, 0.0, 1.0)
        batch = sample_akm(p, COUNT, 5)
        mean = float(np.mean(batch.values))
        se = float(np.std(batch.values)) / math.sqrt(COUNT)
        assert abs(mean - math.sqrt(math.pi) / 2.0) <= 5.0 * se

    def test_ks_against_closed_cdf(self):
        p = AkmParams(2.5, 1.5, 2.1)
        batch = sample_akm(p, COUNT, 7)
        d = ks_against_cdf(batch.values, lambda x: akm_cdf(p, x))
        assert d <= ks_critical_value(0.001, COUNT)

    def test_sample_moments_match_closed_form(self):
        p = AkmParams(1.8, 2.2, 1.4)
        batch = sample_akm(p, COUNT, 11)
        for order in (1.0, 2.0):
            sample_moment = float(np.mean(batch.values**order))
            se = float(np.std(batch.values**order)) / math.sqrt(COUNT)
            assert abs(sample_moment - akm_moment(p, order)) <= 5.0 * se


class TestExtremeSampler:
    def test_zero_fraction_matches_atom(self):
        for m in (0.7, 1.1, 2.0):
            p = ExtremeParams(1.5, m)
            batch = sample_extreme(p, COUNT, 13)
            observed = float(np.mean(batch.values == 0.0))
            expected = p.atom_mass
            se = math.sqrt(expected * (1.0 - expected) / COUNT)
            assert abs(observed - expected) <= 5.0 * se

    def test_gof_gates_the_sampler(self):
        # The mixture reading of the severe-fading sampler must pass gof
        # before anything else leans on it.
        p = ExtremeParams(1.8, 1.1)
        batch = sample_extreme(p, COUNT, 17)
        report = gof_compare(batch, extreme_density(p))
        assert report.ks_statistic <= ks_critical_value(0.001, COUNT)
        assert report.atom_mass_expected == pytest.approx(math.exp(-2.2), rel=1e-12)

    def test_nonzero_histogram_chi_square(self):
        # Binned nonzero draws against the continuous part at alpha = 2.
        p = ExtremeParams(2.0, 1.1)
        batch = sample_extreme(p, COUNT, 19)
        nonzero = batch.values[batch.values > 0.0]
        edges = np.quantile(nonzero, np.linspace(0.0, 1.0, 31))
        edges[0], edges[-1] = 0.0, float(edges[-1]) * 1.2
        observed, _ = np.histogram(nonzero, bins=edges)
        from scipy import integrate as si

        probs = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            mass, _ = si.quad(
                lambda r: 4.0 * 1.1 * math.exp(-2.2 * (1.0 + r * r)) * float(sp.iv(1, 4.4 * r)),
                lo,
                hi,
                epsabs=1e-12,
                epsrel=1e-10,
            )
            probs.append(mass / (1.0 - math.exp(-2.2)))
        expected = np.array(probs) * nonzero.size
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 <= float(stats.chi2.isf(0.01, len(probs) - 1))

    def test_threshold_mass_matches_quadrature(self):
        from scipy import integrate as si

        p = ExtremeParams(1.5, 0.7)
        batch = sample_extreme(p, COUNT, 23)
        t = 0.8

        def continuous(r):
            s = r**0.75
            return (
                2.0 * 1.5 * 0.7 * r ** (0.75 - 1.0)
                * math.exp(-1.4 * (1.0 - s) ** 2)
                * float(sp.ive(1, 2.8 * s))
            )

        observed = float(np.mean(batch.values > t))
        expected, _ = si.quad(continuous, t, np.inf, epsabs=1e-12, epsrel=1e-10, limit=300)
        se = math.sqrt(expected * (1.0 - expected) / COUNT)
        assert abs(observed - expected) <= 5.0 * se


class TestCompositeSampler:
    def test_extreme_composite_zero_fraction_is_shadow_free(self):
        model = CompositeModel(ExtremeParams(1.6, 1.1), GammaShadowParams(3.0, 0.4))
        batch = sample_composite(model, COUNT, 29)
        observed = float(np.mean(batch.values == 0.0))
        expected = math.exp(-2.2)
        se = math.sqrt(expected * (1.0 - expected) / COUNT)
        assert abs(observed - expected) <= 5.0 * se

    def test_am_gamma_ks(self):
        model = CompositeModel(AmParams(2.0, 1.0), GammaShadowParams(2.5, 0.6))
        batch = sample_composite(model, COUNT, 31)
        density = composite_density(model, SeriesConfig(rel_tol=1e-9))
        report = gof_compare(batch, density, grid_points=1500)
        assert report.ks_statistic <= ks_critical_value(0.001, COUNT)

    def test_degenerate_shadow_approaches_plain_multipath(self):
        c = 1.2
        p = AkmParams(2.0, 1.5, 2.0)
        model = CompositeModel(p, GammaShadowParams(1000.0, c / 1000.0))
        batch = sample_composite(model, COUNT, 37)
        d = ks_against_cdf(batch.values, lambda x: akm_cdf(p, x / c))
        # Not exact (finite shadow width); close at the 1e-2 level.
        assert d <= 1e-2


class TestGofCompare:
    def test_self_consistency_across_seeds(self):
        p = AkmParams(2.2, 1.0, 1.5)
        density = Density(continuous=lambda r: akm_pdf_normalized(p, r))
        crit = ks_critical_value(0.001, 20_000)
        rejections = 0
        for seed in range(8):
            batch = sample_akm(p, 20_000, 1000 + seed)
            report = gof_compare(batch, density)
            if report.ks_statistic > crit:
                rejections += 1
        assert rejections == 0

    def test_detects_wrong_model(self):
        p = AkmParams(2.5, 1.5, 2.1)
        wrong = AkmParams(2.5, 1.5, 4.2)
        batch = sample_akm(p, COUNT, 41)
        report = gof_compare(batch, Density(continuous=lambda r: akm_pdf_normalized(wrong, r)))
        assert report.ks_statistic > 10.0 * ks_critical_value(0.001, COUNT)

    def test_all_atom_batch_reports_nan_ks(self):
        p = ExtremeParams(2.0, 0.002)  # atom mass ~ 0.996
        batch = SampleBatch(np.zeros(50), 0, model_descriptor(p))
        report = gof_compare(batch, extreme_density(p))
        assert math.isnan(report.ks_statistic)
        assert report.atom_frequency_observed == 1.0
        assert report.atom_mass_expected == pytest.approx(math.exp(-0.004), rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_batch_rejects_values_not_finite_and_non_negative(self, bad):
        values = np.append(np.random.default_rng(2).exponential(size=20), bad)
        with pytest.raises(DomainError, match="sample values must be non-negative"):
            SampleBatch(values, 2, "exp")

    def test_unnormalized_density_rejected(self):
        bad = Density(continuous=lambda r: 2.0 * math.exp(-r))
        batch = SampleBatch(np.random.default_rng(1).exponential(size=500), 1, "bad")
        with pytest.raises(DomainError):
            gof_compare(batch, bad)

    def test_shared_table_matches_fresh_build(self):
        p = AkmParams(2.0, 0.5, 1.2)
        density = Density(continuous=lambda r: akm_pdf_normalized(p, r))
        b1 = sample_akm(p, 20_000, 51)
        b2 = sample_akm(p, 20_000, 52)
        x_max = max(float(np.max(b1.values)), float(np.max(b2.values))) * 1.05
        table = build_cdf_table(density, x_max)
        fresh = gof_compare(b1, density)
        shared = gof_compare(b1, density, table=table)
        assert shared.ks_statistic == pytest.approx(fresh.ks_statistic, abs=2e-4)
        assert gof_compare(b2, density, table=table).ks_statistic <= ks_critical_value(
            0.001, 20_000
        )


    @pytest.mark.parametrize(
        "density",
        [
            composite_density(CompositeModel(ExtremeParams(1.7, 1.1), GammaShadowParams(1.2, 0.8))),
            mixture_density(CompositeModel(AkmParams(2.2, 1.3, 1.7), GammaShadowParams(1.6, 0.8))),
            plain_density(AkmParams(1.5, 1.0, 2.1)),
            extreme_density(ExtremeParams(2.0, 1.1)),
        ],
        ids=["composite", "mixture", "plain", "extreme"],
    )
    def test_table_head_is_the_continuous_cdf(self, density):
        # Every density the library builds gives the table its first cell;
        # without one the table integrates the density there, to the same mass.
        table = build_cdf_table(density, 5.0, 600)
        assert table.cum[0] == density.continuous_cdf(5e-4)
        by_quadrature = build_cdf_table(dataclasses.replace(density, continuous_cdf=None), 5.0, 600)
        assert table.cum[0] == pytest.approx(by_quadrature.cum[0], rel=1e-7)
        assert table.total_mass == pytest.approx(1.0, abs=1e-7)


class TestKsCriticalValue:
    def test_matches_scipy_inverse(self):
        for level in (0.05, 0.01, 0.001):
            mine = ks_critical_value(level, 1)
            assert mine == pytest.approx(float(sp.kolmogi(level)), rel=1e-6)

    def test_scaling(self):
        assert ks_critical_value(0.001, 100_000) == pytest.approx(
            ks_critical_value(0.001, 1) / math.sqrt(100_000.0), rel=1e-12
        )
        # The conventional 1.95/sqrt(n) rule of thumb sits at this level.
        assert ks_critical_value(0.001, 1) == pytest.approx(1.95, abs=5e-3)

    @pytest.mark.parametrize("significance,n", [(1.5, 10), (math.nan, 10), (0.001, 0)])
    def test_domain(self, significance, n):
        with pytest.raises(DomainError):
            ks_critical_value(significance, n)


class TestAmSampler:
    def test_ks_against_closed_cdf(self):
        from compfade import am_cdf
        from compfade.models import ScaledEnvelope

        p = AmParams(2.7, 1.8)
        batch = sample_am(p, COUNT, 61)
        unit = ScaledEnvelope(1.0)
        d = ks_against_cdf(batch.values, lambda x: am_cdf(p, unit, x))
        assert d <= ks_critical_value(0.001, COUNT)
