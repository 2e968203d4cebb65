"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The same checks back the ``compfade validate --level full`` command.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as si

from compfade import figures, validation
from compfade.cli import main
from compfade.models import AkmParams, GammaShadowParams, gamma_shadow_pdf
from compfade.composite import CompositeModel, SeriesConfig, composite_pdf, mixture_pdf


def report(number: int, name: str, result: dict) -> None:
    status = "PASS" if result["passed"] else "FAIL"
    measured = result.get("measured")
    shown = f"{measured:.3e}" if isinstance(measured, float) else measured
    print(f"ACCEPTANCE {number:2d} {name}: {status} (measured {shown})")
    assert result["passed"], f"criterion {number} failed: {json.dumps(result['details'])[:800]}"


def test_criterion_01_normalization_suite():
    # Total mass (continuous + atoms) = 1 +- 1e-6 across >= 20 random
    # parameter draws for every density family, plain and composite.
    result = validation.check_normalization(draws=20)
    report(1, "normalization", result)


def test_criterion_02_series_vs_oracle():
    # Series routes within 1e-4 (LOS/extreme) and the exact single-kernel
    # route within 1e-6 of the mixture oracle, 25 points x 20 draws.
    result = validation.check_series_vs_oracle(draws=20, points=25)
    report(2, "series_vs_oracle", result)
    assert result["details"]["am_gamma"] <= 1e-6


def test_criterion_02_cdf_routes():
    # The composite cdf averaged over the multipath within 2e-9 of the
    # mixture oracle, 10 points x 10 draws per composite family.
    result = validation.check_cdf_routes()
    report(2, "cdf_routes", result)


def test_criterion_03_reduction_web():
    # alpha=2 collapses, kappa->0 limit, and the Rayleigh/gamma composite
    # against an independently coded nested-quadrature oracle.
    result = validation.check_reduction_web()
    report(3, "reduction_web", result)

    # Extra, fully independent route: scipy nested quadrature.
    shadow = GammaShadowParams(1.6, 0.8)
    model = CompositeModel(AkmParams(2.0, 0.0, 1.0), shadow)
    cfg = SeriesConfig(rel_tol=1e-9)
    for x in (0.4, 1.0, 2.1):
        ref, _ = si.quad(
            lambda y: 2.0 * x / (y * y) * math.exp(-((x / y) ** 2)) * gamma_shadow_pdf(shadow, y),
            0.0,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-11,
            limit=500,
        )
        assert composite_pdf(model, x, cfg) == pytest.approx(ref, rel=1e-6)
        assert mixture_pdf(model, x) == pytest.approx(ref, rel=1e-6)


def test_criterion_04_cdf_dual_form_identity():
    # Incomplete-gamma series cdf vs quadrature of the density on 100 random points.
    result = validation.check_cdf_dual_form(points=100)
    report(4, "cdf_dual_form", result)


def test_criterion_05_moments():
    # Closed-form moments vs quadrature for l in {0..4}; the zeroth moment
    # to 1e-12; the alternate printed normalization executed and recorded.
    result = validation.check_moments()
    report(5, "moments", result)
    assert result["details"]["zeroth_moment_error"] <= 1e-12
    assert "alt_form_matches_quadrature" in result["details"]


def test_moments_check_fails_on_a_nan_closed_form(monkeypatch):
    monkeypatch.setattr(validation.models, "akm_moment", lambda p, order: math.nan)
    result = validation.check_moments()
    assert not result["passed"]
    assert math.isnan(result["measured"])


def _nan(*args, **kwargs):
    return math.nan


def _nan_like(model, x, *args, **kwargs):
    return np.asarray(x, dtype=float) * math.nan


def _nan_ks(*args, _gof=validation.mc.gof_compare, **kwargs):
    return dataclasses.replace(_gof(*args, **kwargs), ks_statistic=math.nan)


@pytest.mark.parametrize(
    "check,module,name,nan_fn",
    [
        pytest.param(lambda: validation.check_series_vs_oracle(draws=1, points=3),
                     validation.composite, "composite_pdf", _nan_like, id="series_vs_oracle"),
        pytest.param(validation.check_reduction_web,
                     validation.composite, "composite_pdf", _nan_like, id="reduction_web"),
        pytest.param(lambda: validation.check_normalization(draws=1),
                     validation.models, "density_total_mass", _nan, id="normalization"),
        pytest.param(lambda: validation.check_cdf_dual_form(points=5),
                     validation.models, "akm_cdf_series", _nan, id="cdf_dual_form"),
        pytest.param(lambda: validation.check_power_variance_identity(draws=3),
                     validation.models, "akm_moment", _nan, id="power_variance_identity"),
        pytest.param(lambda: validation.check_specfun_properties(n_draws=5),
                     validation.specfun, "bessel_i", _nan, id="specfun_properties-bessel_i"),
        pytest.param(lambda: validation.check_specfun_properties(n_draws=5),
                     validation.specfun, "marcum_q", _nan, id="specfun_properties-marcum_q"),
        pytest.param(lambda: validation.check_cdf_routes(draws=1, points=3),
                     validation.composite, "composite_cdf", _nan_like, id="cdf_routes"),
        pytest.param(validation.check_degenerate_shadow,
                     validation.composite, "mixture_pdf", _nan, id="degenerate_shadow"),
        pytest.param(
            lambda: validation.check_monte_carlo(count=2000, draws=1, seeds=(101,), grid_points=300),
            validation.mc, "gof_compare", _nan_ks, id="monte_carlo",
        ),
    ],
)
def test_check_fails_on_a_nan_route(check, module, name, nan_fn, monkeypatch):
    # A NaN from the route under test fails the check and is its measured
    # worst gap.
    monkeypatch.setattr(module, name, nan_fn)
    result = check()
    assert not result["passed"]
    assert math.isnan(result["measured"])


@pytest.mark.parametrize("name", ["degenerate_shadow", "gross_series_consistency", "figures"])
def test_full_level_check_passes(name):
    # The checks that ``compfade validate --level quick`` skips.
    result = validation.CHECKS[name]()
    assert result["passed"], json.dumps(result["details"])[:800]


@pytest.mark.parametrize(
    "fn,arg", [(validation.run_validation, "bogus"), (figures.figure_curves, 5)],
    ids=["level", "figure"],
)
def test_unknown_level_or_figure_is_rejected(fn, arg):
    with pytest.raises(ValueError):
        fn(arg)


def test_criterion_06_power_variance_identity():
    # 1/Var(P^2) equals mu(1+kappa)^2/(1+2kappa) at alpha=2 on 20 draws.
    result = validation.check_power_variance_identity(draws=20)
    report(6, "power_variance_identity", result)


def test_criterion_07_kernel_cross_checks():
    # Zero-inner-scale gamma form to 1e-9, alpha=1 Bessel-K form to 1e-8,
    # budget-doubling stability to 1e-9.
    result = validation.check_kernel_closed_forms()
    report(7, "kernel_closed_forms", result)
    details = result["details"]
    assert details["a0_gamma_form"] <= 1e-9
    assert details["alpha1_bessel_k"] <= 1e-8
    assert details["budget_doubling"] <= 1e-9


def test_criterion_08_monte_carlo():
    # Sampler-vs-density KS below the 0.1% critical value at n = 1e5 for
    # each family (3 seeds x 3 draws); extreme zero fraction within 5 SE.
    result = validation.check_monte_carlo()
    report(8, "monte_carlo", result)
    assert result["details"]["atom_pull_in_se"] <= 5.0


FIGURE_DIGESTS = Path(__file__).resolve().parent / "data" / "cli_goldens" / "figure_sha256.json"


def test_criterion_09_figure_reproduction(tmp_path):
    # All four figure families emitted through the CLI; every curve passes
    # mass, non-negativity, and (frozen) unimodality checks, and every file
    # is byte-identical to its golden (tests/data/make_cli_goldens.py).
    digests = json.loads(FIGURE_DIGESTS.read_text())
    seen = set()
    worst_mass = 0.0
    for figure_id in (1, 2, 3, 4):
        out_dir = tmp_path / f"fig{figure_id}"
        code = main(["figure", str(figure_id), "--out-dir", str(out_dir),
                     "--grid", "0.01:4:120"])
        assert code == 0
        files = sorted(out_dir.glob(f"figure{figure_id}_*.json"))
        expected = 4 if figure_id == 2 else 5
        assert len(files) == expected
        for path in files:
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[path.name], path.name
            seen.add(path.name)
            payload = json.loads(path.read_text())
            values = payload["values"]
            xs = payload["abscissae"]
            assert all(v >= 0.0 for v in values)
            assert all(b > a for a, b in zip(xs, xs[1:]))
            mass_err = abs(payload["metadata"]["total_mass"] - 1.0)
            worst_mass = max(worst_mass, mass_err)
            assert mass_err <= 1e-6
            assert validation.unimodal_on_grid(values), path.name
    assert seen == set(digests)
    print(f"ACCEPTANCE  9 figures: PASS (measured {worst_mass:.3e})")


def test_criterion_10_special_function_goldens():
    # All scalar goldens at stated tolerances plus the polynomial Bessel
    # surrogate's monotone convergence over n in {5, 10, 20, 40}.
    result = validation.check_specfun_goldens()
    report(10, "specfun_goldens", result)
    gross = validation.check_gross_convergence()
    status = "PASS" if gross["passed"] else "FAIL"
    print(f"ACCEPTANCE 10 gross_error_monotone: {status}")
    assert gross["passed"]


@pytest.mark.parametrize(
    "name,wrong",
    [("reg_upper_gamma", lambda a, x: 1.5), ("marcum_q", lambda mu, a, b: b)],
    ids=["out_of_range", "rising"],
)
def test_specfun_properties_measures_the_failing_property(name, wrong, monkeypatch):
    # A property that fails reads above 1, whichever property it is.
    monkeypatch.setattr(validation.specfun, name, wrong)
    result = validation.check_specfun_properties(n_draws=5)
    assert not result["passed"]
    assert result["measured"] > result["threshold"]
