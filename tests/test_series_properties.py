"""Property test: the series route at its default settings against the
mixture oracle over the whole validation box."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from compfade import CompositeModel, GammaShadowParams, SeriesConfig  # noqa: E402
from compfade.composite import FAMILIES, composite_pdf, mixture_pdf  # noqa: E402
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
