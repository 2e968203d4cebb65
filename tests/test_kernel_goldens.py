"""The shadow-kernel integral against mpmath goldens.

``tests/data/make_kernel_goldens.py`` wrote ``kernel_goldens.json`` with
mpmath at 35 digits; this test needs no mpmath.  The last tests check how
one call's points share grids: against each point's own call, under a
permutation of the points, and under one BLAS thread.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from compfade import AkmParams, AmParams, CompositeModel, GammaShadowParams, composite, mc
from compfade import shadow_kernel_integral_ln
from compfade.errors import DomainError, NonConvergenceError

_DATA = json.loads(
    (Path(__file__).resolve().parent / "data" / "kernel_goldens.json").read_text()
)
GOLDENS = _DATA["cases"]
ROWS = _DATA["rows"]
BATCH = _DATA["batch"]
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


@pytest.mark.parametrize("entry", BATCH, ids=lambda e: f"p0{e['p0']:g}-alpha{e['alpha']:g}")
def test_one_batch_call_matches_every_point_and_row(entry):
    # Scales from 1e-9 to 1e4 in one call: the points share grids over wide
    # windows of offsets, where the powers run in blocks.
    powers = entry["p0"] - np.arange(len(entry["ln_values"][0]))
    got = shadow_kernel_integral_ln(powers, np.array(entry["scales"]), entry["alpha"], entry["omega"])
    golden = np.array([[float(v) for v in row] for row in entry["ln_values"]])
    assert got.shape == golden.shape
    assert np.max(np.abs(np.expm1(got - golden))) <= DEFAULT_REL_TOL


UNRESOLVABLE = [
    # The trapezoid sum underflowed to 0 (ValueError from its log).
    (-55.83347033582288, 2.4831216657844275e253, 0.0362267498629187, 0.4531338893649425),
    # A tangent stride with zero slope (ZeroDivisionError).
    (-153.65497718010266, 1.071854498114845e84, 1.5145914579892554, 11.04491977662344),
]


@pytest.mark.parametrize("p, a, alpha, omega", UNRESOLVABLE, ids=["underflowing-sum", "flat-tangent"])
def test_unresolvable_peak_raises_nonconvergence(p, a, alpha, omega):
    # Both peaks are narrower than the spacing of doubles near them.
    with pytest.raises(NonConvergenceError):
        shadow_kernel_integral_ln(p, a, alpha, omega)


@pytest.mark.parametrize("entry", BATCH, ids=lambda e: f"p0{e['p0']:g}-alpha{e['alpha']:g}")
def test_batch_golden_block_holds_among_other_scales(entry):
    # Its scales and 56 more over their range in one call: past
    # _CUT_LANES, so the range search runs as array passes.
    own = np.array(entry["scales"])
    scales = np.concatenate([own, np.geomspace(own.min(), own.max(), 64 - own.size)])
    powers = entry["p0"] - np.arange(len(entry["ln_values"][0]))
    got = shadow_kernel_integral_ln(powers, scales, entry["alpha"], entry["omega"])
    golden = np.array([[float(v) for v in row] for row in entry["ln_values"]])
    assert np.max(np.abs(np.expm1(got[:own.size] - golden))) <= DEFAULT_REL_TOL


@pytest.mark.parametrize("p, a, alpha, omega", UNRESOLVABLE, ids=["underflowing-sum", "flat-tangent"])
def test_unresolvable_peak_in_a_batch_raises_the_lone_error(p, a, alpha, omega):
    with pytest.raises(NonConvergenceError) as lone:
        shadow_kernel_integral_ln(p, a, alpha, omega)
    scales = np.append(np.geomspace(1e-3, 1e3, 63), a)  # 63 scales that resolve
    with pytest.raises(NonConvergenceError) as batch:
        shadow_kernel_integral_ln(p, scales, alpha, omega)
    assert str(batch.value) == str(lone.value)


@pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "negative"])
def test_malformed_scale_in_a_batch_raises_before_any_search(monkeypatch, bad):
    searches = []
    for name in ("_kernel_cut", "_kernel_cuts"):
        monkeypatch.setattr(composite, name, lambda *args: searches.append(args))
    with pytest.raises(DomainError):
        shadow_kernel_integral_ln(np.array([-1.0, -2.0]), np.append(np.geomspace(1e-3, 1e3, 63), bad),
                                  2.0, 0.9)
    assert searches == []


def test_block_with_far_apart_end_rows_matches_one_row_calls():
    # The end rows' peaks lie about 700 apart in t, too far for one grid
    # about the smallest-power peak: e^(t - t0) would overflow there.
    powers = 15.2 - np.arange(24)
    a, alpha, omega = 6e-82, 0.13, 0.002
    got = shadow_kernel_integral_ln(powers, a, alpha, omega)
    rows = [shadow_kernel_integral_ln(float(q), a, alpha, omega) for q in powers]
    assert np.max(np.abs(np.expm1(got - rows))) <= DEFAULT_REL_TOL


# A figure-4 block (alpha 4): its 24 rows need 288 intervals on one grid,
# its halves 202 and 110, each row alone fewer.
FIG4_POWERS = 1.2 / 4.0 - 1.0 - np.arange(24)
FIG4_A, FIG4_ALPHA, FIG4_OMEGA = 2.0 * 1.1 * 3.8**4, 4.0, 0.8


def test_block_out_of_budget_matches_one_row_calls(monkeypatch):
    # At a budget of 280 nodes the block's grid reaches it; each half's does not.
    args = (FIG4_A, FIG4_ALPHA, FIG4_OMEGA)
    calls, kernel = [], composite.shadow_kernel_integral_ln

    def recording(p, *args, **kwargs):
        calls.append(np.size(p))
        return kernel(p, *args, **kwargs)

    monkeypatch.setattr(composite, "shadow_kernel_integral_ln", recording)
    got = recording(FIG4_POWERS, *args, budget=280)
    # The block did split: straight into its two halves.
    assert calls == [24, 12, 12]
    monkeypatch.undo()
    rows = [shadow_kernel_integral_ln(float(q), *args) for q in FIG4_POWERS]
    assert got.tolist() == pytest.approx(rows, rel=1e-12, abs=0.0)


# Rows that share a peak about 1e-9 wide near t = 33, where ln K is about
# -1e17: its ulp is 16, so the logs are compared, not K.
NARROW_POWERS = 0.22818897165230112 - np.arange(24)
NARROW_A, NARROW_ALPHA, NARROW_OMEGA = 2.8559842093782665e24, 0.5307178576283406, 0.00676141217688066


def test_narrow_peak_block_matches_one_row_calls():
    args = (NARROW_A, NARROW_ALPHA, NARROW_OMEGA)
    got = shadow_kernel_integral_ln(NARROW_POWERS, *args)
    rows = [shadow_kernel_integral_ln(float(q), *args) for q in NARROW_POWERS]
    assert got.tolist() == pytest.approx(rows, rel=1e-12, abs=0.0)


def test_equal_powers_give_equal_rows():
    got = shadow_kernel_integral_ln(np.array([1.0, 1.0]), np.array([0.5, 2.0]), 2.0, 0.9)
    assert got.shape == (2, 2) and np.array_equal(got[:, 0], got[:, 1])
    lone = [shadow_kernel_integral_ln(1.0, a, 2.0, 0.9) for a in (0.5, 2.0)]
    assert got[:, 0].tolist() == pytest.approx(lone, rel=1e-12, abs=0.0)


def test_rows_far_apart_leave_empty_power_blocks():
    # Four blocks of powers on this grid, of which only the first and last
    # hold rows.
    powers = np.array([0.6, -0.4, -40.0])
    got = shadow_kernel_integral_ln(powers, 3e-16, 2.0, 0.8)
    rows = [shadow_kernel_integral_ln(float(q), 3e-16, 2.0, 0.8) for q in powers]
    assert np.max(np.abs(np.expm1(got - rows))) <= 1e-12


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
    "powers, a, alpha, omega, budget",
    [
        # Peaks too far apart for one grid: this point's rows split.
        (15.2 - np.arange(24), 6e-82, 0.13, 0.002, 60_000),
        # Over budget on its own grid: the point at a splits its rows.
        (FIG4_POWERS, FIG4_A, FIG4_ALPHA, FIG4_OMEGA, 280),
        (NARROW_POWERS, NARROW_A, NARROW_ALPHA, NARROW_OMEGA, 60_000),
    ],
    ids=["split", "over-budget", "narrow-peak"],
)
def test_scale_array_with_a_point_of_its_own_matches_stacked_calls(powers, a, alpha, omega, budget):
    scales = np.array([2.0 * a, a, 0.5 * a])
    got = shadow_kernel_integral_ln(powers, scales, alpha, omega, budget=budget)
    want = _stacked(powers, scales, alpha, omega)
    assert got.ravel().tolist() == pytest.approx(want.ravel().tolist(), rel=1e-12, abs=0.0)


def test_over_budget_point_of_a_batch_splits_without_a_restart(monkeypatch):
    # The point that reaches the budget goes straight to its halves; the
    # other points' pass is not run again.
    scales = np.array([2.0 * FIG4_A, FIG4_A, 4.0 * FIG4_A])  # 270, 288, 254 intervals
    calls, kernel = [], composite.shadow_kernel_integral_ln

    def recording(p, a, *args, **kwargs):
        calls.append((np.size(a), np.size(p)))
        return kernel(p, a, *args, **kwargs)

    monkeypatch.setattr(composite, "shadow_kernel_integral_ln", recording)
    got = recording(FIG4_POWERS, scales, FIG4_ALPHA, FIG4_OMEGA, budget=280)
    assert calls == [(3, 24), (1, 12), (1, 12)]
    monkeypatch.undo()
    want = _stacked(FIG4_POWERS, scales, FIG4_ALPHA, FIG4_OMEGA)
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


def test_groups_keep_their_caps_and_drop_converged_points(monkeypatch):
    # A group's shared grid needs at most _KERNEL_GROUP times the nodes of
    # each of its points alone and, over more than one point, holds at most
    # _KERNEL_CELLS values; a point that converged is never evaluated again.
    passes, kernel_pass, groups = [], composite._kernel_pass, composite._groups

    def grouping(todo):
        out = groups(todo)
        assert [e for _, _, group in out for e in group] == todo  # runs, in order
        for lo, hi, group in out:
            nodes = (hi - lo) * max(e[7] / (e[4] - e[3]) for e in group)
            if len(group) > 1:
                assert nodes <= composite._KERNEL_GROUP * min(e[7] for e in group)
                assert len(group) * (nodes + 3) <= composite._KERNEL_CELLS
        return out

    def recording(ap, ends, lo, hi, group, *args):
        ln_k, unfinished = kernel_pass(ap, ends, lo, hi, group, *args)
        passes.append((ap, [e[1] for e in group], [e[1] for e in unfinished]))
        return ln_k, unfinished

    monkeypatch.setattr(composite, "_groups", grouping)
    monkeypatch.setattr(composite, "_kernel_pass", recording)
    shadow_kernel_integral_ln(-1.55, np.array([1e-3, 0.05, 0.5, 0.05, 10.0]), 2.0, 0.9)
    model = CompositeModel(AmParams(2.0, 2.1), GammaShadowParams(1.1, 0.9))  # gof_cdf's am-gamma
    mc.build_cdf_table(composite.composite_density(model), 4.0, 1200, x_min=4e-4)
    converged, leaving = set(), 0
    for ap, points, unfinished in passes:
        leaving += len(points) > 1 and bool(unfinished)
        # A point is its position in one kernel call, whose powers are ap.
        keys = {(id(ap), i) for i in points}
        assert converged.isdisjoint(keys)
        converged |= keys - {(id(ap), i) for i in unfinished}
    assert leaving >= 2  # passes over several points that some points leave


@pytest.fixture(scope="module")
def readme_table_call():
    # The largest kernel call of the README ``sample`` run's cdf table:
    # about 1,200 points, 24 rows.
    model = CompositeModel(AkmParams(2.2, 1.3, 1.7), GammaShadowParams(1.6, 0.8))
    calls, kernel = [], composite.shadow_kernel_integral_ln

    def recording(p, a, *args, **kwargs):
        calls.append((np.array(p), np.array(a), args))
        return kernel(p, a, *args, **kwargs)

    composite.shadow_kernel_integral_ln = recording
    try:
        mc.gof_compare(mc.sample_composite(model, 100_000, 13), composite.composite_density(model),
                       grid_points=1200)
    finally:
        composite.shadow_kernel_integral_ln = kernel
    return max(calls, key=lambda call: call[1].size)


def test_readme_table_call_matches_its_lone_calls(readme_table_call):
    # Sharing a grid with its neighbours moves no point by more than 1e-12.
    powers, scales, args = readme_table_call
    assert scales.size > 1000 and powers.size == 24
    got = shadow_kernel_integral_ln(powers, scales, *args)
    lone = np.array([shadow_kernel_integral_ln(powers, float(a), *args) for a in scales])
    assert np.max(np.abs(np.expm1(got - lone))) <= 1e-12


def test_array_search_serves_the_table_call_and_never_a_lone_point(monkeypatch, readme_table_call):
    counts = {"_kernel_cut": 0, "_kernel_cuts": 0}
    for name in counts:
        def counting(*args, name=name, search=getattr(composite, name)):
            counts[name] += 1
            return search(*args)
        monkeypatch.setattr(composite, name, counting)
    powers, scales, args = readme_table_call
    shadow_kernel_integral_ln(powers, scales, *args)
    assert counts == {"_kernel_cut": 0, "_kernel_cuts": 1}  # both end rows in one search
    shadow_kernel_integral_ln(powers, float(scales[0]), *args)
    assert counts == {"_kernel_cut": 2, "_kernel_cuts": 1}


def test_permuted_points_permute_the_result_bit_for_bit(readme_table_call):
    # Groups follow the points' scales, not their order in the call.
    powers, scales, args = readme_table_call
    order = np.random.default_rng(29).permutation(scales.size)
    got = shadow_kernel_integral_ln(powers, scales, *args)
    assert shadow_kernel_integral_ln(powers, scales[order], *args).tobytes() == got[order].tobytes()


def _digest_of_a_table_sized_call():
    import hashlib

    powers = 1.6 / 2.2 - 1.7 - np.arange(24)
    scales = 1.3 * np.geomspace(1e-3, 4.0, 1200) ** 2.2
    return hashlib.sha256(shadow_kernel_integral_ln(powers, scales, 2.2, 0.8).tobytes()).hexdigest()


def test_one_blas_thread_gives_the_same_bits():
    # The node sums are matrix products; BLAS threading must not move them.
    import os
    import subprocess
    import sys

    paths = [str(Path(composite.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    code = "import test_kernel_goldens as t; print(t._digest_of_a_table_sized_call())"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           timeout=120, check=True)
    assert child.stdout.strip() == _digest_of_a_table_sized_call()
