"""Property tests: the series route at its default settings against the
mixture oracle over the whole validation box and past it, the plain cdfs
past it, and the composite cdf against the series density and its own
oracle past it."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
integrate = pytest.importorskip("scipy.integrate")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from compfade import CompositeModel, GammaShadowParams, SeriesConfig  # noqa: E402
from compfade.composite import (  # noqa: E402
    _CDF_REL_TOL,
    FAMILIES,
    composite_cdf,
    composite_density,
    composite_pdf,
    composite_sf,
    family_of,
    mixture_cdf,
    mixture_pdf,
)
from compfade.models import AkmParams, akm_cdf_series  # noqa: E402
from compfade.specfun import marcum_q  # noqa: E402
from compfade.validation import PARAM_BOX  # noqa: E402


def _box(name):
    lo, hi = PARAM_BOX[name]
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def box_points(draw):
    family = FAMILIES[draw(st.sampled_from(["akm", "am", "extreme"]))]
    multipath = family.params(*(draw(_box(name)) for name in family.fields))
    shadow = GammaShadowParams(draw(_box("b")), draw(_box("omega")))
    # x in units of the mean shadow scale b*omega, as the benchmark's box points.
    x = draw(st.floats(0.05, 5.0)) * shadow.b * shadow.omega
    return CompositeModel(multipath, shadow), x


@settings(max_examples=50, derandomize=True, deadline=None)
@given(box_points())
def test_default_series_matches_oracle_in_the_box(point):
    model, x = point
    assert composite_pdf(model, x, SeriesConfig()) == pytest.approx(mixture_pdf(model, x), rel=1e-6)


# Past the box: a mean number of dominant clusters mu*kappa or 2m up to
# 2,500, where the Poisson weight e^-lam of the first term underflows.
_PAST_BOX = {**PARAM_BOX, "kappa": (0.01, 50.0), "mu": (0.5, 50.0), "m": (0.5, 400.0)}


@st.composite
def past_box_multipath(draw):
    family = FAMILIES[draw(st.sampled_from(["akm", "extreme"]))]
    return family.params(*(draw(st.floats(*_PAST_BOX[name])) for name in family.fields))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(past_box_multipath(), st.floats(0.05, 5.0), _box("b"), _box("omega"))
def test_series_matches_oracle_past_the_box(multipath, frac, b, omega):
    model = CompositeModel(multipath, GammaShadowParams(b, omega))
    x = frac * b * omega
    assert composite_pdf(model, x, SeriesConfig()) == pytest.approx(mixture_pdf(model, x), rel=1e-6)


# Further past the box, at two tolerances: the series holds the rel_tol it
# is given, up to its kernels' error, against the oracle at 1e-12.
_FAR_BOX = {"alpha": (0.5, 5.0), "kappa": (1e-3, 100.0), "mu": (0.3, 30.0), "m": (0.1, 200.0)}


@st.composite
def far_box_points(draw):
    family = FAMILIES[draw(st.sampled_from(["akm", "extreme"]))]
    multipath = family.params(*(draw(st.floats(*_FAR_BOX[name])) for name in family.fields))
    shadow = GammaShadowParams(draw(st.floats(0.6, 8.0)), draw(_box("omega")))
    return CompositeModel(multipath, shadow), draw(st.floats(0.05, 5.0)) * shadow.b * shadow.omega


@settings(max_examples=150, derandomize=True, deadline=None)
@given(far_box_points(), st.sampled_from([1e-8, 1e-9]))
def test_series_holds_its_rel_tol_past_the_box(point, rel_tol):
    model, x = point
    oracle = mixture_pdf(model, x, rel_tol=1e-12)
    series = composite_pdf(model, x, SeriesConfig(rel_tol=rel_tol))
    assert abs(series - oracle) <= (rel_tol + 1e-11) * oracle


@settings(max_examples=150, derandomize=True, deadline=None)
@given(past_box_multipath(), st.lists(st.floats(0.0, 3.0), min_size=2, max_size=8))
def test_cdfs_past_the_box(multipath, rhos):
    rhos = sorted(rhos)
    values = [family_of(multipath).cdf(multipath, rho, 1.0) for rho in rhos]
    assert all(0.0 <= v <= 1.0 for v in values)  # NaN fails too
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    if isinstance(multipath, AkmParams):
        alpha, kappa, mu = multipath.alpha, multipath.kappa, multipath.mu
        for rho in rhos:
            b = rho ** (0.5 * alpha) * math.sqrt(2.0 * mu * (1.0 + kappa))
            q = marcum_q(mu, math.sqrt(2.0 * mu * kappa), b)
            assert akm_cdf_series(multipath, rho) + q == pytest.approx(1.0, abs=1e-12)


@st.composite
def past_box_composites(draw):
    family = FAMILIES[draw(st.sampled_from(["akm", "am", "extreme"]))]
    multipath = family.params(*(draw(st.floats(*_PAST_BOX[name])) for name in family.fields))
    return CompositeModel(multipath, GammaShadowParams(draw(_box("b")), draw(_box("omega"))))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(past_box_composites(), st.lists(st.floats(-8.0, 1.0), min_size=2, max_size=4))
def test_composite_cdf_integrates_the_series_pdf(model, exponents):
    # x from 1e-8 to 10 mean shadow scales b*omega.
    scale = model.shadow.b * model.shadow.omega
    xs = sorted({10.0**e * scale for e in exponents})
    values = composite_cdf(model, np.array(xs)).tolist()
    atom = composite_density(model).atom_mass
    assert composite_cdf(model, 0.0) == pytest.approx(atom, rel=1e-15)
    assert all(atom * (1.0 - 1e-9) <= v <= 1.0 for v in values)  # NaN fails too
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(values, values[1:]))
    cfg = SeriesConfig(rel_tol=1e-10)
    for (x1, f1), (x2, f2) in zip(zip(xs, values), zip(xs[1:], values[1:])):
        # In t = ln x the series density is smooth however wide (x1, x2) is.
        mass, _ = integrate.quad(
            lambda t: composite_pdf(model, math.exp(t), cfg) * math.exp(t),
            math.log(x1), math.log(x2), epsabs=1e-11, epsrel=1e-10, limit=200,
        )
        assert f2 - f1 == pytest.approx(mass, abs=1e-8)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(past_box_composites(), st.floats(-8.0, 1.0))
def test_composite_cdf_holds_its_rel_tol_past_the_box(model, exponent):
    # x from 1e-8 to 10 mean shadow scales; the oracle at rel_tol 1e-12.
    x = 10.0**exponent * model.shadow.b * model.shadow.omega
    oracle = mixture_cdf(model, x, rel_tol=1e-12)
    cdf, sf = composite_cdf(model, x), composite_sf(model, x)
    assert abs(cdf - oracle) <= (_CDF_REL_TOL + 1e-12) * oracle
    assert abs(cdf + sf - 1.0) <= 2.0 * _CDF_REL_TOL
