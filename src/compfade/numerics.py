"""Adaptive quadrature on (0, inf) and adaptive series summation.

The semi-infinite integrator maps the half line onto (0, 1) through
u = scale * t / (1 - t) and subdivides adaptively with an embedded
Gauss(7)/Kronrod(15) pair, so both local estimates come from one 15-point
evaluation per panel.  Each refinement round bisects, in one evaluation, the
largest-error panels until the error the others hold is within tolerance.
Integrands in scope (products of powers and stretched exponentials) are
smooth after the transform; the rational map also copes with essential
decay like exp(-A/u^alpha) near the origin.

Both entry points are pure given the caller-supplied callback and are
thread-safe whenever the callback is.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, NonConvergenceError

__all__ = [
    "QuadratureResult",
    "SeriesResult",
    "integrate_semi_infinite",
    "sum_adaptive",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_NODES = np.concatenate([-_XGK[:7], _XGK[7:8], _XGK[6::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:7], _WGK[7:8], _WGK[6::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate([_WG[:3], _WG[3:4], _WG[2::-1]])
_INITIAL_PANELS = 8


@dataclass(frozen=True)
class QuadratureResult:
    """Value, conservative error estimate, and integrand evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of an adaptive series with stopping diagnostics."""

    value: float
    terms_used: int
    last_term_magnitude: float


def integrate_semi_infinite(
    f: Callable,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
    budget: int = 200_000,
    *,
    scale: float = 1.0,
    vectorized: bool = False,
) -> QuadratureResult:
    """Integrate ``f`` over (0, inf) to max(rel_tol*|I|, abs_tol).

    Parameters
    ----------
    f : callable
        Integrand.  Must accept a positive float and return a finite value;
        with ``vectorized`` true it takes a 1-D array of positive nodes
        instead and returns an array of the same length.
    scale : float
        Characteristic scale of the integrand; the interior point u = scale
        maps to the middle of the transformed interval.  Choosing it near
        the bulk of the integrand's mass speeds up convergence but any
        positive value is correct.
    vectorized : bool
        Evaluate the nodes of each refinement round in one call ``f(u)``
        rather than one call per node.  Nodes, panels and refinement order
        are the same either way, so an integrand that does the same
        floating-point operations gives the same result.
    budget : int
        Maximum number of integrand evaluations.  A round bisects no more
        panels than fit in it; a round that fits none, or refining up to
        u = inf, raises ``NonConvergenceError`` with the partial result.
    """
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if budget < 15 * _INITIAL_PANELS:
        raise ValueError("budget too small for the initial subdivision")

    count = 0
    total, total_err = 0.0, math.inf  # no estimate before the first panels

    def panels(bounds) -> tuple[np.ndarray, np.ndarray]:
        # Kronrod and Gauss estimates of each panel in ``bounds``.
        nonlocal count
        ab = np.asarray(bounds, dtype=float)
        c = 0.5 * (ab[:, 0] + ab[:, 1])[:, None]
        h = 0.5 * (ab[:, 1] - ab[:, 0])[:, None]
        t = c + h * _NODES[None, :]
        om = 1.0 - t
        u = scale * t / om
        jac = scale / (om * om)
        if vectorized:
            vals = np.asarray(f(u.ravel()), dtype=float).reshape(t.shape)
        else:
            vals = np.array([f(float(v)) for v in u.ravel()], dtype=float).reshape(t.shape)
        count += u.size
        if not np.all(np.isfinite(vals)):
            bad = float(u[~np.isfinite(vals)][0])
            raise EvaluationError(f"integrand returned a non-finite value at u={bad!r}")
        g = vals * jac
        if not np.all(np.isfinite(g)):  # nodes rounded to u = inf, where the Jacobian is
            partial = QuadratureResult(total, total_err, count)
            raise NonConvergenceError("quadrature refinement reached u = inf", result=partial)
        kron = h[:, 0] * (g @ _WEIGHTS_K)
        gauss = h[:, 0] * (g @ _WEIGHTS_G)
        return kron, np.abs(kron - gauss)

    edges = np.linspace(0.0, 1.0, _INITIAL_PANELS + 1)
    bounds = list(zip(edges[:-1], edges[1:]))
    vals, errs = panels(bounds)
    heap = []
    total = float(np.sum(vals))
    total_err = float(np.sum(errs))
    serial = 0
    for (a, b), val, err in zip(bounds, vals, errs):
        heapq.heappush(heap, (-float(err), serial, a, b, float(val)))
        serial += 1

    while total_err > (tol := max(rel_tol * abs(total), abs_tol)):
        # Each round pops the largest-error panels until the error left is
        # within tol, as many as the budget has room for, and bisects them.
        popped, left = [], total_err
        while left > tol and heap and heap[0][0] < 0.0 and len(popped) < (budget - count) // 30:
            popped.append(heapq.heappop(heap))
            left += popped[-1][0]
        if not popped:
            if heap[0][0] == 0.0:
                break  # nothing left to refine; the estimate cannot improve
            partial = QuadratureResult(total, total_err, count)
            raise NonConvergenceError(
                f"quadrature budget of {budget} evaluations exhausted "
                f"(error estimate {total_err:.3e})",
                result=partial,
            )
        children = []
        for _, _, a, b, _ in popped:
            mid = 0.5 * (a + b)
            children += [(a, mid), (mid, b)]
        vals2, errs2 = panels(children)
        for neg_err, _, _, _, val in popped:
            total -= val
            total_err += neg_err  # removes the popped panel's error
        for (lo, hi), val2, err2 in zip(children, vals2, errs2):
            total += float(val2)
            total_err += float(err2)
            serial += 1
            heapq.heappush(heap, (-float(err2), serial, lo, hi, float(val2)))

    return QuadratureResult(float(total), float(total_err), count)


def sum_adaptive(
    term: Callable[[int], float],
    rel_tol: float = 1e-12,
    max_terms: int = 10_000,
) -> SeriesResult:
    """Sum ``term(0) + term(1) + ...`` until the terms become negligible.

    Stops once three consecutive terms satisfy |term| <= rel_tol * |partial
    sum|; the triple guard protects against stride-2 zero patterns (Bessel
    series).  Raises ``NonConvergenceError`` at ``max_terms`` with the
    partial sum attached.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    total = 0.0
    consecutive = 0
    last = 0.0
    for i in range(max_terms):
        t = float(term(i))
        if not math.isfinite(t):
            raise EvaluationError(f"series term {i} is non-finite: {t!r}")
        total += t
        last = abs(t)
        if last <= rel_tol * abs(total):
            consecutive += 1
            if consecutive >= 3:
                return SeriesResult(total, i + 1, last)
        else:
            consecutive = 0
    raise NonConvergenceError(
        f"series did not converge within {max_terms} terms",
        result=SeriesResult(total, max_terms, last),
    )
