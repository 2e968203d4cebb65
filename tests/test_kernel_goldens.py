"""The shadow-kernel integral against mpmath goldens.

``tests/data/make_kernel_goldens.py`` wrote ``kernel_goldens.json`` with
mpmath at 35 digits; this test needs no mpmath.
"""

import json
import math
from pathlib import Path

import pytest

from compfade import shadow_kernel_integral_ln
from compfade.errors import NonConvergenceError

GOLDENS = json.loads(
    (Path(__file__).resolve().parent / "data" / "kernel_goldens.json").read_text()
)["cases"]
DEFAULT_REL_TOL = 1e-10


def _case_id(case):
    return f"p{case['p']:g}-a{case['a']:g}-alpha{case['alpha']:g}-omega{case['omega']:g}"


@pytest.mark.parametrize("case", GOLDENS, ids=_case_id)
def test_kernel_matches_mpmath_golden(case):
    got = shadow_kernel_integral_ln(case["p"], case["a"], case["alpha"], case["omega"])
    # Relative error of K itself, from the gap between the logs.
    assert abs(math.expm1(got - float(case["ln_value"]))) <= DEFAULT_REL_TOL


def test_tiny_budget_raises_nonconvergence():
    with pytest.raises(NonConvergenceError):
        # A flat-topped kernel that needs about 260 nodes.
        shadow_kernel_integral_ln(0.02, 1e-8, 0.5, 10.0, budget=60)
