"""The shadow-kernel integral against mpmath goldens.

``tests/data/make_kernel_goldens.py`` wrote ``kernel_goldens.json`` with
mpmath at 35 digits; this test needs no mpmath.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from compfade import AmParams, CompositeModel, GammaShadowParams, composite, mc
from compfade import shadow_kernel_integral_ln
from compfade.errors import DomainError, NonConvergenceError

_DATA = json.loads(
    (Path(__file__).resolve().parent / "data" / "kernel_goldens.json").read_text()
)
GOLDENS = _DATA["cases"]
ROWS = _DATA["rows"]
DEFAULT_REL_TOL = 1e-10


def _case_id(case):
    return f"p{case['p']:g}-a{case['a']:g}-alpha{case['alpha']:g}-omega{case['omega']:g}"


@pytest.mark.parametrize("case", GOLDENS, ids=_case_id)
def test_kernel_matches_mpmath_golden(case):
    got = shadow_kernel_integral_ln(case["p"], case["a"], case["alpha"], case["omega"])
    # Relative error of K itself, from the gap between the logs.
    assert abs(math.expm1(got - float(case["ln_value"]))) <= DEFAULT_REL_TOL


def _rows_id(entry):
    return f"p0{entry['p0']:g}-a{entry['a']:g}-alpha{entry['alpha']:g}-omega{entry['omega']:g}"


@pytest.mark.parametrize("entry", ROWS, ids=_rows_id)
def test_kernel_matches_mpmath_rows_term_by_term(entry):
    gaps = [
        abs(math.expm1(
            shadow_kernel_integral_ln(entry["p0"] - l, entry["a"], entry["alpha"], entry["omega"])
            - float(golden)
        ))
        for l, golden in enumerate(entry["ln_values"])
    ]
    assert all(gap <= DEFAULT_REL_TOL for gap in gaps), gaps


@pytest.mark.parametrize("entry", ROWS, ids=_rows_id)
def test_one_array_call_matches_every_row(entry):
    powers = entry["p0"] - np.arange(len(entry["ln_values"]))
    got = shadow_kernel_integral_ln(powers, entry["a"], entry["alpha"], entry["omega"])
    golden = np.array([float(v) for v in entry["ln_values"]])
    assert np.max(np.abs(np.expm1(got - golden))) <= DEFAULT_REL_TOL


@pytest.mark.parametrize(
    "p, a, alpha, omega",
    [
        # The trapezoid sum underflowed to 0 (ValueError from its log).
        (-55.83347033582288, 2.4831216657844275e253, 0.0362267498629187, 0.4531338893649425),
        # A tangent stride with zero slope (ZeroDivisionError).
        (-153.65497718010266, 1.071854498114845e84, 1.5145914579892554, 11.04491977662344),
    ],
    ids=["underflowing-sum", "flat-tangent"],
)
def test_unresolvable_peak_raises_nonconvergence(p, a, alpha, omega):
    # Both peaks are narrower than the spacing of doubles near them.
    with pytest.raises(NonConvergenceError):
        shadow_kernel_integral_ln(p, a, alpha, omega)


def test_block_with_far_apart_end_rows_matches_one_row_calls():
    # The end rows' peaks lie about 700 apart in t, too far for one grid
    # about the smallest-power peak: e^(t - t0) would overflow there.
    powers = 15.2 - np.arange(24)
    a, alpha, omega = 6e-82, 0.13, 0.002
    got = shadow_kernel_integral_ln(powers, a, alpha, omega)
    rows = [shadow_kernel_integral_ln(float(q), a, alpha, omega) for q in powers]
    assert np.max(np.abs(np.expm1(got - rows))) <= DEFAULT_REL_TOL


def test_block_out_of_budget_matches_one_row_calls(monkeypatch):
    # The rows share a peak about 1e-9 wide, and the shared grid's next step
    # would reach the node budget; each row alone does not.
    powers = 0.22818897165230112 - np.arange(24)
    a, alpha, omega = 2.8559842093782665e24, 0.5307178576283406, 0.00676141217688066
    calls, kernel = [], composite.shadow_kernel_integral_ln

    def recording(p, *args, **kwargs):
        calls.append(np.size(p))
        return kernel(p, *args, **kwargs)

    monkeypatch.setattr(composite, "shadow_kernel_integral_ln", recording)
    got = recording(powers, a, alpha, omega)
    # The block did split: straight into its two halves.
    assert calls == [24, 12, 12]
    monkeypatch.undo()
    rows = [shadow_kernel_integral_ln(float(q), a, alpha, omega) for q in powers]
    assert got.tolist() == pytest.approx(rows, rel=1e-12, abs=0.0)


def test_tiny_budget_raises_nonconvergence():
    with pytest.raises(NonConvergenceError):
        # A flat-topped kernel that needs about 260 nodes.
        shadow_kernel_integral_ln(0.02, 1e-8, 0.5, 10.0, budget=60)


def test_block_split_down_to_one_row_still_raises():
    # Every row needs more than the budget alone too.
    for powers in (np.array([0.02]), np.array([0.02, 0.01, 0.0])):
        with pytest.raises(NonConvergenceError):
            shadow_kernel_integral_ln(powers, 1e-8, 0.5, 10.0, budget=60)


def _stacked(p, scales, alpha, omega):
    return np.array([shadow_kernel_integral_ln(p, float(a), alpha, omega) for a in scales])


@pytest.mark.parametrize("case", GOLDENS, ids=_case_id)
def test_scale_array_matches_stacked_calls_and_golden(case):
    # Unsorted, with a duplicate: the golden scale and others about it.
    p, a, alpha, omega = case["p"], case["a"], case["alpha"], case["omega"]
    scales = np.array([3.0 * a, a, 1e-3 * a, a, 0.5 * a]) if a else np.array([0.0, 1.0, 0.0])
    got = shadow_kernel_integral_ln(p, scales, alpha, omega)
    assert got.shape == scales.shape
    assert np.max(np.abs(np.expm1(got - _stacked(p, scales, alpha, omega)))) <= DEFAULT_REL_TOL
    for value in got[scales == a]:
        assert abs(math.expm1(value - float(case["ln_value"]))) <= DEFAULT_REL_TOL


@pytest.mark.parametrize("entry", ROWS, ids=_rows_id)
def test_scale_array_of_row_blocks_matches_stacked_calls(entry):
    powers = entry["p0"] - np.arange(len(entry["ln_values"]))
    a, alpha, omega = entry["a"], entry["alpha"], entry["omega"]
    scales = np.array([a, 40.0 * a, 1e-6 * a, a, 0.2 * a])
    got = shadow_kernel_integral_ln(powers, scales, alpha, omega)
    assert got.shape == (scales.size, powers.size)
    assert np.max(np.abs(np.expm1(got - _stacked(powers, scales, alpha, omega)))) <= DEFAULT_REL_TOL
    golden = np.array([float(v) for v in entry["ln_values"]])
    assert np.max(np.abs(np.expm1(got[[0, 3]] - golden))) <= DEFAULT_REL_TOL


@pytest.mark.parametrize(
    "powers, a, alpha, omega",
    [
        # Peaks too far apart for one grid: this point's rows split.
        (15.2 - np.arange(24), 6e-82, 0.13, 0.002),
        # Over budget on a shared grid: this point splits its rows.
        (0.22818897165230112 - np.arange(24), 2.8559842093782665e24, 0.5307178576283406,
         0.00676141217688066),
    ],
    ids=["split", "over-budget"],
)
def test_scale_array_with_a_point_of_its_own_matches_stacked_calls(powers, a, alpha, omega):
    scales = np.array([2.0 * a, a, 0.5 * a])
    got = shadow_kernel_integral_ln(powers, scales, alpha, omega)
    want = _stacked(powers, scales, alpha, omega)
    assert got.ravel().tolist() == pytest.approx(want.ravel().tolist(), rel=1e-12, abs=0.0)


def test_over_budget_point_of_a_batch_splits_without_a_restart(monkeypatch):
    # The point that reaches the budget on the shared grid goes straight to
    # its halves; its batch's refinements are not run again.
    powers = 0.22818897165230112 - np.arange(24)
    a, alpha, omega = 2.8559842093782665e24, 0.5307178576283406, 0.00676141217688066
    scales = np.array([2.0 * a, a, 0.5 * a])
    calls, kernel = [], composite.shadow_kernel_integral_ln

    def recording(p, a, *args, **kwargs):
        calls.append((np.size(a), np.size(p)))
        return kernel(p, a, *args, **kwargs)

    monkeypatch.setattr(composite, "shadow_kernel_integral_ln", recording)
    got = recording(powers, scales, alpha, omega)
    assert calls == [(3, 24), (1, 12), (1, 12)]
    monkeypatch.undo()
    want = _stacked(powers, scales, alpha, omega)
    assert got.ravel().tolist() == pytest.approx(want.ravel().tolist(), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "a", [np.zeros(0), np.ones((2, 2)), np.array([1.0, np.nan]), np.array([1.0, -1.0]), np.array([np.inf])],
    ids=["empty", "2-d", "nan", "negative", "inf"],
)
def test_malformed_scales_are_domain_errors(a):
    with pytest.raises(DomainError):
        shadow_kernel_integral_ln(np.array([-1.0, -2.0]), a, 2.0, 0.9)


def test_scale_array_halves_only_the_unconverged_points():
    # At a = 0.05 this row needs a halved step; at the other scales it does
    # not, so the pass goes on with a subset of its points.
    scales = np.array([1e-3, 0.05, 0.5, 0.05, 10.0])
    got = shadow_kernel_integral_ln(-1.55, scales, 2.0, 0.9)
    want = _stacked(-1.55, scales, 2.0, 0.9)
    assert np.max(np.abs(np.expm1(got - want))) <= 1e-12


def test_passes_keep_the_cell_cap_and_drop_converged_points(monkeypatch):
    # Every pass over more than one point holds at most _KERNEL_CELLS values,
    # refinement passes included, and a point that converged is never
    # evaluated again.
    passes, kernel_pass = [], composite._kernel_pass

    def recording(ap, entries, intervals, *args):
        ln_k, unfinished = kernel_pass(ap, entries, intervals, *args)
        left = [e[0] for e in unfinished]
        if len(entries) > 1:  # a point leaves a group pass as it would leave one of its own
            alone = [e[0] for e in entries if kernel_pass(ap, [e], intervals, *args)[1]]
            assert left == alone
        passes.append((ap, [e[0] for e in entries], intervals, left))
        return ln_k, unfinished

    monkeypatch.setattr(composite, "_kernel_pass", recording)
    shadow_kernel_integral_ln(-1.55, np.array([1e-3, 0.05, 0.5, 0.05, 10.0]), 2.0, 0.9)
    powers = 0.22818897165230112 - np.arange(24)
    a, alpha, omega = 2.8559842093782665e24, 0.5307178576283406, 0.00676141217688066
    shadow_kernel_integral_ln(powers, np.array([2.0 * a, a, 0.5 * a]), alpha, omega)
    model = CompositeModel(AmParams(2.0, 2.1), GammaShadowParams(1.1, 0.9))  # gof_cdf's am-gamma
    mc.build_cdf_table(composite.composite_density(model), 4.0, 1200)
    converged, leaving = set(), 0
    for ap, points, intervals, unfinished in passes:
        if len(points) > 1:
            assert ap.size * len(points) * (intervals + 1) <= composite._KERNEL_CELLS
            leaving += bool(unfinished)
        # A point is its position in one kernel call, whose powers are ap.
        keys = {(id(ap), i) for i in points}
        assert converged.isdisjoint(keys)
        converged |= keys - {(id(ap), i) for i in unfinished}
    assert leaving >= 2  # passes over several points that some points leave
