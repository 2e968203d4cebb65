"""Quadrature and series-summation machinery."""

import heapq
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import integrate as si

from compfade import (
    EvaluationError,
    NonConvergenceError,
    integrate_semi_infinite,
    ln_gamma,
    sum_adaptive,
)
from compfade.numerics import _INITIAL_PANELS, _NODES, _WEIGHTS_G, _WEIGHTS_K


def gamma_integral(p, scale):
    # Reference for int_0^inf u^(p-1) exp(-u/scale) du, via ln_gamma.
    return math.exp(ln_gamma(p)) * scale**p


CLOSED_FORM_SUITE = [
    ("exp", lambda u: math.exp(-u), 1.0),
    ("gauss", lambda u: math.exp(-u * u), 0.5 * math.sqrt(math.pi)),
    ("gamma_3.3_0.7", lambda u: u**2.3 * math.exp(-u / 0.7), gamma_integral(3.3, 0.7)),
    ("gamma_0.4_1.3", lambda u: u**-0.6 * math.exp(-u / 1.3), gamma_integral(0.4, 1.3)),
    ("x_exp", lambda u: u * math.exp(-u), 1.0),
    ("stretched_exp", lambda u: math.exp(-math.sqrt(u)), 2.0),
    ("lorentz", lambda u: 1.0 / (1.0 + u * u), 0.5 * math.pi),
    ("damped_cos", lambda u: math.exp(-2.0 * u) * math.cos(u), 2.0 / 5.0),
    (
        "shifted_gauss",
        lambda u: math.exp(-((u - 3.0) ** 2)),
        0.5 * math.sqrt(math.pi) * (1.0 + math.erf(3.0)),
    ),
    (
        "bessel_k_rep",
        lambda u: u**0.1 * math.exp(-1.7 / u - u / 0.9),
        None,  # scipy reference computed in the test
    ),
]


class TestIntegrateSemiInfinite:
    def test_closed_form_suite(self):
        from scipy import special as sp

        coverage = 0
        for name, f, ref in CLOSED_FORM_SUITE:
            if ref is None:
                ref = 2.0 * (1.7 * 0.9) ** 0.55 * float(sp.kv(1.1, 2.0 * math.sqrt(1.7 / 0.9)))
            res = integrate_semi_infinite(f, rel_tol=1e-10, abs_tol=1e-13)
            actual = abs(res.value - ref)
            assert actual <= max(1e-9 * abs(ref), 1e-12), name
            if res.error_estimate >= actual:
                coverage += 1
        # Conservative error estimates on at least 95% of the suite.
        assert coverage >= math.ceil(0.95 * len(CLOSED_FORM_SUITE))

    def test_agrees_with_scipy_quad(self):
        f = lambda u: u**1.7 * math.exp(-0.8 * u - 0.3 / u)
        ref, _ = si.quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
        res = integrate_semi_infinite(f, rel_tol=1e-11, abs_tol=1e-14)
        assert res.value == pytest.approx(ref, rel=1e-10)

    def test_split_domain_consistency(self):
        f = lambda u: u**1.3 * math.exp(-u)
        whole = integrate_semi_infinite(f, 1e-10, 1e-13)
        for c in (0.4, 1.0, 3.7):
            left = integrate_semi_infinite(
                lambda w: f(c * w / (1.0 + w)) * c / (1.0 + w) ** 2, 1e-10, 1e-13
            )
            right = integrate_semi_infinite(lambda u: f(u + c), 1e-10, 1e-13)
            gap = abs(whole.value - left.value - right.value)
            allowed = 2.0 * (whole.error_estimate + left.error_estimate + right.error_estimate)
            assert gap <= max(allowed, 1e-13)

    def test_scale_invariance(self):
        f = lambda u: math.exp(-((u - 5.0) ** 2))
        r1 = integrate_semi_infinite(f, 1e-10, 1e-13, scale=1.0)
        r2 = integrate_semi_infinite(f, 1e-10, 1e-13, scale=5.0)
        assert r1.value == pytest.approx(r2.value, rel=1e-9)

    def test_budget_exhaustion_signal(self):
        # An oscillatory integrand needs more refinement than this budget
        # allows; the partial result rides on the exception.
        f = lambda u: math.cos(40.0 * u) * math.exp(-u)
        with pytest.raises(NonConvergenceError) as exc_info:
            integrate_semi_infinite(f, rel_tol=1e-13, abs_tol=1e-16, budget=400)
        partial = exc_info.value.result
        assert partial is not None
        assert partial.evaluations <= 400

    def test_evaluation_budget_respected(self):
        res = integrate_semi_infinite(lambda u: math.exp(-u), budget=10_000)
        assert res.evaluations <= 10_000

    def test_nan_propagates_as_error(self):
        def f(u):
            return math.nan if 0.9 < u < 1.1 else math.exp(-u)

        with pytest.raises(EvaluationError):
            integrate_semi_infinite(f, 1e-9, 1e-12)

    def test_refinement_to_infinity_is_never_nan(self):
        # A peak-shifted shadow-kernel integrand (p 0.02, a 1e-8, alpha 0.5,
        # omega 10) scaled at its peak near 2.55e-17: its slow v^-0.99 tail
        # drives refinement to nodes that round to u = inf, where the
        # Jacobian is infinite too.
        p, a, alpha, omega = 0.02, 1e-8, 0.5, 10.0
        q = alpha * p - 1.0
        peak = (alpha * a / -q) ** (1.0 / alpha)  # the v/omega term is negligible
        phi = lambda v: q * math.log(v) - a * v**-alpha - v / omega
        seen = []

        def f(v):
            seen.append(v)
            return math.exp(phi(v) - phi(peak))

        try:
            res = integrate_semi_infinite(f, abs_tol=1e-280, scale=peak)
        except NonConvergenceError as exc:
            res = exc.result
        assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
        # The round that would reach u = inf is never evaluated.
        assert seen and all(math.isfinite(v) for v in seen)
        assert res.evaluations == len(seen)

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("scale", [1e292, 1e300, 1e308])
    def test_huge_scale_raises_without_a_warning(self, scale, vectorized):
        # Nodes past the largest double round to u = inf: the typed error,
        # and no numpy overflow warning before it.
        f = (lambda u: np.ones_like(u)) if vectorized else (lambda u: 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergenceError):
                integrate_semi_infinite(f, scale=scale, vectorized=vectorized)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda u: u, rel_tol=-1.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda u: u, scale=0.0)
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda u: u, budget=10)


class TestSumAdaptive:
    def test_geometric(self):
        res = sum_adaptive(lambda i: 0.5**i, rel_tol=1e-12)
        assert res.value == pytest.approx(2.0, rel=1e-11)
        assert res.terms_used <= 60

    def test_exponential(self):
        res = sum_adaptive(lambda i: 1.0 / math.factorial(i), rel_tol=1e-13)
        assert res.value == pytest.approx(math.e, rel=1e-12)

    def test_poisson_normalization(self):
        lam = 2.1 * 1.5
        direct = sum(
            math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1.0)) for i in range(200)
        )
        res = sum_adaptive(
            lambda i: math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1.0)),
            rel_tol=1e-13,
        )
        assert res.value == pytest.approx(direct, rel=1e-12)
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_alternating_vs_direct(self):
        res = sum_adaptive(lambda i: (-1.0) ** i / (i + 1.0) ** 2, rel_tol=1e-6)
        direct = sum((-1.0) ** i / (i + 1.0) ** 2 for i in range(10_000))
        assert res.value == pytest.approx(direct, rel=2e-6)

    def test_stride_two_zero_pattern(self):
        # Zeros at odd indices must not trigger a premature stop.
        def term(i):
            return 0.0 if i % 2 else 0.25 ** (i // 2)

        res = sum_adaptive(term, rel_tol=1e-12)
        assert res.value == pytest.approx(4.0 / 3.0, rel=1e-11)

    def test_non_convergence_signal(self):
        with pytest.raises(NonConvergenceError) as exc_info:
            sum_adaptive(lambda i: 1.0 / (i + 1.0), rel_tol=1e-12, max_terms=100)
        assert exc_info.value.result.terms_used == 100

    def test_non_finite_term_rejected(self):
        with pytest.raises(EvaluationError):
            sum_adaptive(lambda i: math.inf if i == 3 else 0.5**i)

    @pytest.mark.parametrize("settings", [{"rel_tol": 0.0}, {"max_terms": 0}])
    def test_bad_settings_rejected(self, settings):
        with pytest.raises(ValueError):
            sum_adaptive(lambda i: 0.5**i, **settings)


class TestVectorizedIntegrand:
    @staticmethod
    def rational(u):
        # Only +, * and /: a float and an array round alike.
        return 1.0 / ((1.0 + u * u) * (1.0 + u * u))

    def test_same_result_as_one_call_per_node(self):
        for scale in (0.3, 1.0, 7.0):
            scalar = integrate_semi_infinite(self.rational, 1e-11, 1e-14, scale=scale)
            array = integrate_semi_infinite(
                self.rational, 1e-11, 1e-14, scale=scale, vectorized=True
            )
            assert array == scalar
            assert scalar.value == pytest.approx(math.pi / 4.0, rel=1e-11)

    def test_one_call_per_refinement_round(self):
        sizes = []

        def f(u):
            sizes.append(u.size)
            return 1.0 / (1e-4 + (u - 1.0) * (u - 1.0))  # a narrow peak at u = 1

        res = integrate_semi_infinite(f, 1e-11, 1e-14, vectorized=True)
        # The initial panels, then two children of each panel a round
        # bisects and four of the panel at the origin.
        pair = 2 * _NODES.size
        assert sizes[0] == _NODES.size * _INITIAL_PANELS and len(sizes) > 1
        assert all(n >= pair and n % pair == 0 for n in sizes[1:])
        assert res.evaluations == sum(sizes)

    def test_non_finite_element_names_its_node(self):
        def f(u):
            return np.where((u > 0.9) & (u < 1.1), np.nan, np.exp(-u))

        with pytest.raises(EvaluationError, match=r"at u=(0\.9|1\.0)\d*$"):
            integrate_semi_infinite(f, 1e-9, 1e-12, vectorized=True)


def peaks(lorentz=(), gauss=()):
    # Lorentzian peaks c * w / ((u - m)^2 + w^2) over (c, m, w) plus Gaussian
    # peaks c * exp(-((u - m)/s)^2) over (c, m, s), and their integral on (0, inf).
    def f(u):
        return (sum(c * w / ((u - m) * (u - m) + w * w) for c, m, w in lorentz)
                + sum(c * np.exp(-((u - m) / s) ** 2) for c, m, s in gauss))

    exact = (sum(c * (0.5 * math.pi + math.atan(m / w)) for c, m, w in lorentz)
             + sum(c * s * 0.5 * math.sqrt(math.pi) * (1.0 + math.erf(m / s)) for c, m, s in gauss))
    return f, exact


MULTI_PEAK_SUITE = {
    "two-lorentz": peaks(lorentz=[(1.0, 0.7, 1e-3), (2.0, 6.0, 3e-3)]),
    "three-lorentz": peaks(lorentz=[(1.0, 0.05, 1e-4), (1.0, 1.3, 1e-2), (0.5, 40.0, 0.1)]),
    "five-lorentz": peaks(lorentz=[(1.0, m, 10.0**-k) for m, k in
                                   [(0.2, 3), (0.9, 2), (2.5, 4), (7.0, 2), (30.0, 3)]]),
    "two-gauss": peaks(gauss=[(1.0, 0.5, 0.01), (1.0, 3.0, 0.02)]),
    "gauss-and-lorentz": peaks(lorentz=[(1.0, 4.0, 1e-3)], gauss=[(1.0, 0.3, 0.005)]),
}


def reference_quadrature(f, rel_tol, abs_tol, *, one_at_a_time, graded):
    # Reference: the same Gauss-Kronrod panels on u = t/(1 - t), refined
    # either one largest-error panel per integrand call or in rounds, and
    # at the origin either graded as the integrator does or only bisected.
    # Returns (value, integrand calls, nodes).
    calls = nodes = 0

    def panels(bounds):
        nonlocal calls, nodes
        ab = np.array(bounds)
        c, h = 0.5 * (ab[:, :1] + ab[:, 1:]), 0.5 * (ab[:, 1:] - ab[:, :1])
        t = c + h * _NODES[None, :]
        g = f(t / (1.0 - t)) / ((1.0 - t) * (1.0 - t))
        calls, nodes = calls + 1, nodes + t.size
        kron, gauss = h[:, 0] * (g @ _WEIGHTS_K), h[:, 0] * (g @ _WEIGHTS_G)
        return kron, np.abs(kron - gauss)

    def split(a, b):
        cuts = [0.0, b / 8, b / 4, b / 2, b] if graded and a == 0.0 else [a, 0.5 * (a + b), b]
        return list(zip(cuts[:-1], cuts[1:]))

    edges = np.linspace(0.0, 1.0, _INITIAL_PANELS + 1)
    vals, errs = panels(list(zip(edges[:-1], edges[1:])))
    heap = [(-e, i, a, b, v) for i, (a, b, v, e) in enumerate(zip(edges[:-1], edges[1:], vals, errs))]
    heapq.heapify(heap)
    serial = itertools.count(len(heap))
    total, total_err = float(np.sum(vals)), float(np.sum(errs))
    while total_err > (tol := max(rel_tol * abs(total), abs_tol)):
        popped, left = [], total_err
        while left > tol and heap[0][0] < 0.0 and not (one_at_a_time and popped):
            popped.append(heapq.heappop(heap))
            left += popped[-1][0]
        children = [child for _, _, a, b, _ in popped for child in split(a, b)]
        vals, errs = panels(children)
        for neg_err, _, _, _, val in popped:
            total, total_err = total - val, total_err + neg_err
        for (lo, hi), v, e in zip(children, vals, errs):
            total, total_err = total + float(v), total_err + float(e)
            heapq.heappush(heap, (-float(e), next(serial), lo, hi, float(v)))
    return total, calls, nodes


def assert_refines_as_the_reference(f):
    # The integrator pops the panels the heap-based reference pops, round
    # by round: the same calls and nodes.  The values differ in rounding
    # only, since the reference divides by (1 - t)^2 where the integrator
    # multiplies by scale / (1 - t)^2.
    calls = []

    def counted(u):
        calls.append(u.size)
        return f(u)

    res = integrate_semi_infinite(counted, 1e-10, 1e-14, vectorized=True)
    ref_value, ref_calls, ref_nodes = reference_quadrature(
        f, 1e-10, 1e-14, one_at_a_time=False, graded=True
    )
    assert (len(calls), res.evaluations) == (ref_calls, ref_nodes)
    assert res.value == pytest.approx(ref_value, rel=1e-14, abs=0.0)


class TestRefinementRounds:
    @pytest.mark.parametrize("name", MULTI_PEAK_SUITE)
    def test_same_rounds_as_the_heap_reference(self, name):
        assert_refines_as_the_reference(MULTI_PEAK_SUITE[name][0])

    @pytest.mark.parametrize("name", MULTI_PEAK_SUITE)
    def test_separated_peaks_take_fewer_calls_and_no_more_nodes(self, name):
        f, exact = MULTI_PEAK_SUITE[name]
        calls = []

        def counted(u):
            calls.append(u.size)
            return f(u)

        res = integrate_semi_infinite(counted, 1e-10, 1e-14, vectorized=True)
        ref_value, ref_calls, ref_nodes = reference_quadrature(
            f, 1e-10, 1e-14, one_at_a_time=True, graded=True
        )
        assert abs(res.value - exact) <= 1e-10 * exact
        assert abs(ref_value - exact) <= 1e-10 * exact
        assert len(calls) < ref_calls and res.evaluations <= ref_nodes

    @pytest.mark.parametrize("name", MULTI_PEAK_SUITE)
    def test_budget_of_a_converged_call(self, name):
        f, _ = MULTI_PEAK_SUITE[name]
        res = integrate_semi_infinite(f, 1e-10, 1e-14, vectorized=True)
        assert integrate_semi_infinite(f, 1e-10, 1e-14, res.evaluations, vectorized=True) == res
        # One bisection's nodes short: the last round bisects one panel
        # fewer, and then no panel fits.
        short = 2 * _NODES.size
        with pytest.raises(NonConvergenceError) as exc_info:
            integrate_semi_infinite(f, 1e-10, 1e-14, res.evaluations - short, vectorized=True)
        partial = exc_info.value.result
        assert partial.evaluations == res.evaluations - short
        assert partial.error_estimate > max(1e-10 * abs(partial.value), 1e-14)


class TestPanelRule:
    def test_exact_degrees_sums_and_symmetry(self):
        # Kronrod(21) is exact to degree 31 and Gauss(10) to degree 19; odd
        # powers vanish by the symmetry of the nodes.
        assert np.array_equal(_NODES, -_NODES[::-1])
        assert np.array_equal(_WEIGHTS_K, _WEIGHTS_K[::-1])
        assert np.array_equal(_WEIGHTS_G, _WEIGHTS_G[::-1])
        for weights, top in ((_WEIGHTS_K, 30), (_WEIGHTS_G, 18)):
            assert math.fsum(weights) == pytest.approx(2.0, rel=1e-15)
            for d in range(0, top + 1, 2):
                assert weights @ _NODES**d == pytest.approx(2.0 / (d + 1), rel=1e-15), d


class TestPowerLawAtTheOrigin:
    @staticmethod
    def integrand(beta):
        return lambda u: u**beta * np.exp(-u)

    @pytest.mark.parametrize("beta", [-0.5, 0.1, 0.5, 1.5])
    def test_graded_origin_panel_takes_fewer_calls(self, beta):
        # u^beta e^-u over (0, inf) is Gamma(beta + 1).  Grading the panel at
        # t = 0 gains three levels toward the power law per round where
        # bisection gains one.
        f, exact = self.integrand(beta), math.gamma(beta + 1.0)
        calls = []

        def counted(u):
            calls.append(u.size)
            return f(u)

        res = integrate_semi_infinite(counted, 1e-10, 1e-14, vectorized=True)
        _, ref_calls, _ = reference_quadrature(f, 1e-10, 1e-14, one_at_a_time=False, graded=False)
        assert abs(res.value - exact) <= 1e-10 * exact
        # At beta 1.5 the power law is mild and both finish in a few rounds.
        assert 2 * len(calls) <= ref_calls if beta < 1.0 else len(calls) < ref_calls

    @pytest.mark.parametrize("beta", [-0.9, -0.5, 0.1, 0.5, 1.5])
    def test_same_rounds_as_the_heap_reference(self, beta):
        assert_refines_as_the_reference(self.integrand(beta))

    @pytest.mark.xfail(strict=True, reason="u^-0.9 at the origin: the error estimate "
                       "(9.9e-11 relative) understates the error (2.5e-10)")
    def test_steep_power_law_within_tolerance(self):
        exact = math.gamma(0.1)
        res = integrate_semi_infinite(self.integrand(-0.9), 1e-10, 1e-14, vectorized=True)
        assert abs(res.value - exact) <= 1e-10 * exact
