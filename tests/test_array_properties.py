"""Property tests: the array paths of ``bessel_i_scaled`` and the series
route against their float paths, element by element, and the ``sample``
file writer against ``_fmt``."""

import math
from functools import partial

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from compfade.specfun import bessel_i_scaled  # noqa: E402


@st.composite
def orders_and_arguments(draw):
    nu = draw(st.floats(-1.0, 60.0, exclude_min=True))
    seam = nu + 20.0  # the series serves x <= seam, the expansion beyond
    x = draw(st.lists(st.floats(0.0, 2000.0), max_size=30))
    x += draw(st.lists(st.floats(max(0.0, seam - 2.0), seam + 2.0), max_size=6))
    x += draw(st.lists(st.floats(700.0, 2000.0), max_size=4))
    x += [0.0, seam, math.nextafter(seam, math.inf), 700.0]
    return nu, np.array(draw(st.permutations(x)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(orders_and_arguments())
def test_array_bessel_matches_float_path(case):
    nu, x = case
    got = bessel_i_scaled(nu, x)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    for xi, value in zip(x.tolist(), got.tolist()):
        want = bessel_i_scaled(nu, xi)
        if want == 0.0 or math.isinf(want):
            assert value == want, xi
        else:
            assert abs(value - want) <= 1e-14 * want, xi


@settings(max_examples=300, derandomize=True, deadline=None)
@given(orders_and_arguments())
def test_array_bessel_element_matches_its_lone_call(case):
    # A row never depends on its neighbours: a series row's width follows
    # the call's largest argument, yet each element of a mixed series and
    # expansion call is its one-element call, bit for bit.
    nu, x = case
    lone = np.concatenate([bessel_i_scaled(nu, x[i : i + 1]) for i in range(x.size)])
    assert bessel_i_scaled(nu, x).tobytes() == lone.tobytes()


# The series route on arrays: past PARAM_BOX, on unsorted points with
# duplicates, x = 0 and x from 1e-8 to 50 mean shadow scales b*omega.
from compfade import CompositeModel, GammaShadowParams, SeriesConfig  # noqa: E402
from compfade import cli  # noqa: E402
from compfade.composite import (  # noqa: E402
    FAMILIES,
    akm_gamma_pdf_series,
    am_gamma_pdf,
    composite_density,
    composite_pdf,
    extreme_gamma_pdf,
)
from compfade.errors import DomainError, NonConvergenceError  # noqa: E402

_PAST_BOX = {
    "alpha": (0.7, 5.0), "kappa": (0.0, 10.0), "mu": (0.3, 10.0), "m": (0.2, 40.0),
    "b": (0.6, 6.0), "omega": (0.2, 4.0),
}
_CONFIGS = (SeriesConfig(), SeriesConfig(rel_tol=1e-10), SeriesConfig(max_terms=20, use_gross=True))


@st.composite
def series_batches(draw):
    family = FAMILIES[draw(st.sampled_from(["akm", "am", "extreme"]))]
    multipath = family.params(*(draw(st.floats(*_PAST_BOX[f])) for f in family.fields))
    shadow = GammaShadowParams(draw(st.floats(*_PAST_BOX["b"])), draw(st.floats(*_PAST_BOX["omega"])))
    exponents = draw(st.lists(st.floats(-8.0, math.log10(50.0)), min_size=1, max_size=10))
    x = [10.0**e * shadow.b * shadow.omega for e in exponents] + [0.0]
    x += draw(st.lists(st.sampled_from(x), max_size=4))  # duplicates
    cfg = draw(st.sampled_from(_CONFIGS))
    return CompositeModel(multipath, shadow), np.array(draw(st.permutations(x))), cfg


@settings(max_examples=60, derandomize=True, deadline=None)
@given(series_batches())
def test_series_array_matches_float_path(case):
    model, x, cfg = case
    floats, raised = [], set()
    for xi in x.tolist():
        try:
            floats.append(composite_pdf(model, xi, cfg))
        except (DomainError, NonConvergenceError) as exc:
            raised.add(type(exc))
    if raised:  # the array path raises what some point raises
        with pytest.raises(tuple(raised)):
            composite_pdf(model, x, cfg)
        return
    got = composite_pdf(model, x, cfg)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    for xi, value, want in zip(x.tolist(), got.tolist(), floats):
        assert value == pytest.approx(want, rel=cfg.rel_tol, abs=1e-300), xi


@pytest.mark.parametrize(
    "bad", [np.array([1.0, np.nan]), np.array([0.5, -1.0]), np.array([2.0, np.inf]), np.ones((2, 2))],
    ids=["nan", "negative", "inf", "2-d"],
)
@pytest.mark.parametrize("family", ["akm", "am", "extreme"])
def test_series_array_raises_the_float_domain_error(family, bad):
    multipath = FAMILIES[family].params(*([2.0] * len(FAMILIES[family].fields)))
    model = CompositeModel(multipath, GammaShadowParams(1.5, 0.9))
    with pytest.raises(DomainError):
        composite_pdf(model, bad, SeriesConfig())
    for xi in bad.reshape(-1).tolist():
        if not (0.0 <= xi < math.inf):
            with pytest.raises(DomainError):
                composite_pdf(model, xi, SeriesConfig())


@pytest.mark.parametrize(
    "family, evaluator",
    [("akm", akm_gamma_pdf_series), ("am", am_gamma_pdf), ("extreme", extreme_gamma_pdf)],
    ids=["akm", "am", "extreme"],
)
def test_series_empty_batch_gives_an_empty_array(family, evaluator):
    multipath = FAMILIES[family].params(*([2.0] * len(FAMILIES[family].fields)))
    model = CompositeModel(multipath, GammaShadowParams(1.5, 0.9))
    for got in (evaluator(model, np.array([])), composite_pdf(model, np.array([])),
                composite_density(model).values([])):
        assert isinstance(got, np.ndarray) and got.shape == (0,)


# The gof_cdf models of each family; x^alpha overflows from x = 1e200 at
# alpha 2.  The evaluators raise the typed error, never OverflowError.
_GOF_MODELS = {
    "akm": (FAMILIES["akm"].params(2.2, 1.3, 1.7), GammaShadowParams(1.6, 0.8), akm_gamma_pdf_series),
    "am": (FAMILIES["am"].params(2.0, 2.1), GammaShadowParams(1.1, 0.9), am_gamma_pdf),
    "extreme": (FAMILIES["extreme"].params(2.0, 1.1), GammaShadowParams(1.2, 0.8), extreme_gamma_pdf),
}


@pytest.mark.parametrize("x", [1e200, 1e300, 1.7e308])
@pytest.mark.parametrize("family", list(_GOF_MODELS))
def test_series_far_in_the_tail_raises_non_convergence(family, x):
    multipath, shadow, evaluator = _GOF_MODELS[family]
    model = CompositeModel(multipath, shadow)
    continuous = composite_density(model).continuous
    for f in (partial(evaluator, model), partial(composite_pdf, model), continuous):
        for points in (x, np.array([0.7, x])):
            with pytest.raises(NonConvergenceError):
                f(points)


# Where rate * x^alpha underflows to 0 (am alpha 2 and extreme alpha 1.7 from
# x = 1e-200, the README akm model from 1e-250) the kernel's a is 0: the
# evaluators raise the typed error, not the kernel's DomainError for a = 0.
_DEEP_MODELS = {
    "akm": (FAMILIES["akm"].params(1.5, 1.0, 2.1), 1e-250, akm_gamma_pdf_series),
    "am": (FAMILIES["am"].params(2.0, 1.2), 1e-200, am_gamma_pdf),
    "extreme": (FAMILIES["extreme"].params(1.7, 1.1), 1e-200, extreme_gamma_pdf),
}


@pytest.mark.parametrize("family", list(_DEEP_MODELS))
def test_series_where_x_alpha_underflows_raises_non_convergence(family):
    multipath, x, evaluator = _DEEP_MODELS[family]
    model = CompositeModel(multipath, GammaShadowParams(1.1, 0.9))
    continuous = composite_density(model).continuous
    for f in (partial(evaluator, model), partial(composite_pdf, model), continuous):
        for points in (x, 1e-300, np.array([0.7, x])):
            with pytest.raises(NonConvergenceError, match="x\\^alpha underflows"):
                f(points)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(arrays(np.float64, st.integers(0, 40),
              elements=st.floats(width=64, allow_nan=True, allow_infinity=True)))
def test_sample_writer_matches_fmt(values):
    assert cli._sample_text(values) == "".join(cli._fmt(v) + "\n" for v in values.tolist())


# The kernel's range search over the scales of a call (``_kernel_cuts``)
# against its float path (``_kernel_cut``), lane by lane.
from compfade import composite  # noqa: E402

_FLOOR = math.log(composite._KERNEL_REL_TOL) - 5.0


@st.composite
def kernel_cut_lanes(draw):
    p, alpha = draw(st.floats(-60.0, 30.0)), draw(st.floats(0.1, 16.0))
    omega = 10.0 ** draw(st.floats(-3.0, 3.0))
    exponents = st.lists(st.floats(-100.0, 50.0), min_size=composite._CUT_LANES, max_size=80)
    return p, 10.0 ** np.array(draw(exponents)), alpha, omega


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kernel_cut_lanes())
def test_array_range_search_matches_float_path(case):
    p, a, alpha, omega = case
    try:
        want = np.array([composite._kernel_cut(p, ai, alpha, omega, _FLOOR) for ai in a.tolist()]).T
    except NonConvergenceError:
        with pytest.raises(NonConvergenceError):
            composite._kernel_cuts(p, a, alpha, omega, _FLOOR)
        return
    got = np.array(composite._kernel_cuts(p, a, alpha, omega, _FLOOR))
    assert got.shape == want.shape
    t, _, _, _, big_a, big_b = want
    # The peak t, a log, at least at the scale of 1; its width and the two
    # exponentials there.
    assert np.all(np.abs(got[0] - t) <= 1e-13 * np.maximum(np.abs(t), 1.0))
    for k in (1, 4, 5):
        assert np.all(np.abs(got[k] - want[k]) <= 1e-13 * np.abs(want[k])), k
    for k in (2, 3):
        # An end solves drop(s) = floor, drop = alpha p s - A expm1(-alpha s)
        # - B expm1(s), whose terms cancel at a narrow peak: a rounding of
        # the drop moves the end by its size over the slope there.
        s = want[k]
        da, db = big_a * np.expm1(-alpha * s), big_b * np.expm1(s)
        slope = alpha * p + alpha * (big_a + da) - (big_b + db)
        rounding = np.finfo(float).eps * (np.abs(alpha * p * s) + np.abs(da) + np.abs(db))
        bound = 1e-13 * np.abs(s) + 256.0 * rounding / np.abs(slope)
        assert np.all(np.abs(got[k] - s) <= bound), k
