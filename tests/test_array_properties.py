"""Property test: the array path of ``bessel_i_scaled`` against its float
path, element by element."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
