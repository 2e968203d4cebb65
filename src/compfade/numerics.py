"""Adaptive quadrature on (0, inf) and adaptive series summation.

The semi-infinite integrator maps the half line onto (0, 1) through
u = scale * t / (1 - t) and subdivides adaptively with QUADPACK's embedded
Gauss(10)/Kronrod(21) pair, so both local estimates come from one 21-point
evaluation per panel.  Each refinement round refines, in one evaluation, the
largest-error panels until the error the others hold is within tolerance:
it bisects each, except the panel at t = 0, which it splits at 1/8, 1/4 and
1/2 of its width toward a power law at u -> 0.
Integrands in scope (products of powers and stretched exponentials) are
smooth after the transform; the rational map also copes with essential
decay like exp(-A/u^alpha) near the origin.

Both entry points are pure given the caller-supplied callback and are
thread-safe whenever the callback is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, NonConvergenceError

__all__ = [
    "QuadratureResult",
    "SeriesResult",
    "integrate_semi_infinite",
    "sum_adaptive",
]

# QUADPACK's qk21 pair on [-1, 1]: the 21-point Kronrod extension of the
# 10-point Gauss rule, whose nodes are the odd-indexed _XGK.
_XGK = np.array(
    [
        0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821,
    ]
)
_WG = np.array(
    [
        0.066671344308688137593568809893332,
        0.149451349150580593145776339657697,
        0.219086362515982043995534934228163,
        0.269266719309996355091226921569469,
        0.295524224714752870173892994651338,
    ]
)

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WEIGHTS_G = np.zeros(_NODES.size)
_WEIGHTS_G[1::2] = np.concatenate([_WG, _WG[::-1]])
_INITIAL_PANELS = 6


def _panel_nodes(panels: Sequence) -> tuple:
    # Half-widths h, nodes t (one row per panel [a, b] of t) and om = 1 - t.
    ab = np.asarray(panels, dtype=float)
    h = 0.5 * (ab[:, 1] - ab[:, 0])
    t = 0.5 * (ab[:, 0] + ab[:, 1])[:, None] + h[:, None] * _NODES[None, :]
    return h, t, 1.0 - t


_EDGES = np.linspace(0.0, 1.0, _INITIAL_PANELS + 1).tolist()
_ROUND_0 = tuple(zip(_EDGES[:-1], _EDGES[1:]))  # the initial panels
_ROUND_0_NODES = _panel_nodes(_ROUND_0)  # the same at every call
# u / scale at the smallest node of round 0, where the oracle's near-origin split cuts.
_FIRST_NODE = float(_ROUND_0_NODES[1][0, 0] / _ROUND_0_NODES[2][0, 0])


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


def _split(a: float, b: float) -> list:
    # Children of panel [a, b] of t.  The panel at t = 0 is graded toward it,
    # three levels in one round, since there u -> 0 and the integrand may
    # follow a power law; any other panel is bisected.
    if a == 0.0:
        return [(0.0, b / 8), (b / 8, b / 4), (b / 4, b / 2), (b / 2, b)]
    mid = 0.5 * (a + b)
    return [(a, mid), (mid, b)]


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
        Maximum number of integrand evaluations.  A round refines no more
        panels than their children fit in it; a round that fits none raises
        ``NonConvergenceError`` with the partial result.  So does a round
        whose largest Jacobian overflows (at or near u = inf), before ``f`` sees
        it, or in which a value times its Jacobian overflows; before the
        initial panels finish, the partial's error estimate is inf.
    """
    if not (rel_tol > 0.0 and abs_tol > 0.0):
        raise ValueError("tolerances must be positive")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    if budget < _NODES.size * _INITIAL_PANELS:
        raise ValueError("budget too small for the initial subdivision")

    count, total, total_err = 0, 0.0, 0.0
    live, popped, children = [], [], _ROUND_0
    while children:
        # Round 0 evaluates the initial panels; every later round the
        # children of the panels it pops.  Each gets its Kronrod value and
        # its Kronrod-Gauss difference as the error.
        h, t, om = _ROUND_0_NODES if children is _ROUND_0 else _panel_nodes(children)
        om_min = float(om.min())  # at the largest u and Jacobian of the round
        jac_max = scale / (om_min * om_min) if om_min > 0.0 else math.inf
        if not jac_max < math.inf:  # a node at or near u = inf
            partial = QuadratureResult(total, total_err if live else math.inf, count)
            raise NonConvergenceError("quadrature refinement reached u = inf", result=partial)
        u, jacobian = scale * t / om, scale / (om * om)
        vals = f(u.ravel()) if vectorized else [f(v) for v in u.ravel().tolist()]
        vals = np.asarray(vals, dtype=float).reshape(t.shape)
        count += u.size
        top = float(np.abs(vals).max())
        if not top < math.inf:  # inf or NaN
            bad = float(u[~np.isfinite(vals)][0])
            raise EvaluationError(f"integrand returned a non-finite value at u={bad!r}")
        if top * jac_max < math.inf:  # no product can overflow
            g = vals * jacobian
        else:
            with np.errstate(over="ignore"):
                g = vals * jacobian
            if not np.isfinite(g).all():
                partial = QuadratureResult(total, total_err if live else math.inf, count)
                raise NonConvergenceError("quadrature refinement reached u = inf", result=partial)
        kron = h * (g @ _WEIGHTS_K)
        errs = np.abs(kron - h * (g @ _WEIGHTS_G)).tolist()
        for err, _, _, val in popped:
            total, total_err = total - val, total_err - err
        for (a, b), val, err in zip(children, kron.tolist(), errs):
            total, total_err = total + val, total_err + err
            live.append((err, a, b, val))

        # The next round pops the largest-error panels, the oldest first
        # among equal errors, until the error left is within tol, as many as
        # the budget has room for their children.  Popping none ends the
        # loop: converged, or no panel has an error left to refine.
        tol = max(rel_tol * abs(total), abs_tol)
        live.sort(key=itemgetter(0), reverse=True)  # stable, so ties keep their age
        popped, children, left = [], [], total_err
        for panel in live:
            if not (left > tol and panel[0] > 0.0):
                break
            split = _split(panel[1], panel[2])
            if count + _NODES.size * (len(children) + len(split)) > budget:
                if popped:
                    break
                raise NonConvergenceError(
                    f"quadrature budget of {budget} evaluations exhausted "
                    f"(error estimate {total_err:.3e})",
                    result=QuadratureResult(total, total_err, count),
                )
            popped.append(panel)
            children += split
            left -= panel[0]
        del live[: len(popped)]

    return QuadratureResult(total, total_err, count)


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
