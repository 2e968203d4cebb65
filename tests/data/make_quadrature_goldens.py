"""Freeze bit-exact results of ``integrate_semi_infinite`` as goldens.

    PYTHONPATH=src python3 tests/data/make_quadrature_goldens.py

writes ``tests/data/quadrature_goldens.json``: ``COUNT`` seeded integrals of
the integrand families in ``FAMILIES``, with rel_tol from 1e-13 to 1e-6,
budgets from the smallest allowed (126) to 200,000, scales from 1e-3 to 1e3,
and both values of ``vectorized``.  Each entry records the call and what it
gave: the value, error estimate and evaluation count as ``float.hex``, or the
exception's type, message and partial result.  Small budgets and slow tails
make a share of the calls raise, so exhausted and interrupted partials are
frozen too.  ``tests/test_quadrature_goldens.py`` reruns every call and
requires the same bits, so a change to the integrator that must not move a
number can prove it did not.

Regenerate only when a result is meant to change, and say why in the commit
that does it.  Before regenerating, measure the change:

    PYTHONPATH=src python3 tests/data/make_quadrature_goldens.py --compare

reruns every call and prints the number of integrals whose result moved and
the largest relative gap among their values and error estimates; it exits 1
if any result moved.

The goldens are exact for the platform that wrote them (Python 3.11,
numpy 2.4 on x86-64): numpy's vectorized exp and power may round
differently on another CPU or numpy build.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUT = HERE / "quadrature_goldens.json"
SEED = 2015
COUNT = 300


# Each integrand takes a positive float or a 1-D array of them, so one
# definition serves both values of ``vectorized``.
def gamma(beta, s):
    # u^beta e^(-u/s): a power law at the origin, Gamma(beta + 1) s^(beta + 1).
    return lambda u: u**beta * np.exp(-u / s)


def lorentz(c, m, w):
    return lambda u: c * w / ((u - m) * (u - m) + w * w)


def two_lorentz(c1, m1, w1, c2, m2, w2):
    one, two = lorentz(c1, m1, w1), lorentz(c2, m2, w2)
    return lambda u: one(u) + two(u)


def step(m, s):
    # e^(-u/s) cut off at u = m: a jump no panel boundary meets.
    return lambda u: (u < m) * np.exp(-u / s)


def stretched(s, k):
    return lambda u: np.exp(-((u / s) ** k))


def slow_tail(p):
    # (1 + u)^-p with p just above 1: refinement heads for u = inf.
    return lambda u: (1.0 + u) ** -p


def hole(m, w):
    # NaN on (m, m + w): the integrand's own failure.
    return lambda u: np.where((u > m) & (u < m + w), np.nan, np.exp(-u))


FAMILIES = {
    "gamma": gamma,
    "lorentz": lorentz,
    "two_lorentz": two_lorentz,
    "step": step,
    "stretched": stretched,
    "slow_tail": slow_tail,
    "hole": hole,
}
# Draw weights: the five integrand families of the refinement tests, then
# the two that exercise the error paths.
WEIGHTS = {"gamma": 5, "lorentz": 4, "two_lorentz": 4, "step": 3, "stretched": 3,
           "slow_tail": 2, "hole": 1}


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _params(rng, family: str) -> list:
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    lu = lambda lo, hi: _log_uniform(rng, lo, hi)
    if family == "gamma":
        return [u(-0.9, 3.0), lu(1e-3, 1e3)]
    if family == "lorentz":
        return [u(0.5, 2.0), lu(1e-3, 1e2), lu(1e-5, 1.0)]
    if family == "two_lorentz":
        return [u(0.5, 2.0), lu(1e-3, 1e2), lu(1e-5, 1.0),
                u(0.5, 2.0), lu(1e-3, 1e2), lu(1e-5, 1.0)]
    if family == "step":
        return [lu(1e-2, 1e2), lu(1e-2, 1e2)]
    if family == "stretched":
        return [lu(1e-3, 1e3), u(0.2, 3.0)]
    if family == "slow_tail":
        return [1.0 + lu(1e-3, 1e-1)]
    return [lu(1e-2, 10.0), lu(1e-3, 1.0)]


def make_cases() -> list:
    """The seeded calls: family, parameters and integrator settings."""
    rng = np.random.default_rng(SEED)
    names = list(WEIGHTS)
    p = np.array([WEIGHTS[n] for n in names], dtype=float)
    cases = []
    for i in range(COUNT):
        family = names[int(rng.choice(len(names), p=p / p.sum()))]
        params = _params(rng, family)
        # A third of the calls at the default budget, the rest log-uniform
        # down to the smallest allowed; the vectorized path gets the larger
        # budgets' share of the wall time.
        budget = 200_000 if i % 3 == 0 else int(_log_uniform(rng, 126, 200_000))
        cases.append({
            "family": family,
            "params": params,
            "rel_tol": _log_uniform(rng, 1e-13, 1e-6),
            "abs_tol": [1e-300, 1e-14, 1e-12][int(rng.integers(3))],
            "budget": budget,
            "scale": _log_uniform(rng, 1e-3, 1e3),
            "vectorized": bool(i % 2),
        })
    return cases


def _result(res) -> dict:
    return {"value": float(res.value).hex(), "error_estimate": float(res.error_estimate).hex(),
            "evaluations": res.evaluations}


def run(case: dict) -> dict:
    """What the integrator gives for one case: its result, or the exception's
    type, message and partial result."""
    from compfade.errors import EvaluationError, NonConvergenceError
    from compfade.numerics import integrate_semi_infinite

    f = FAMILIES[case["family"]](*case["params"])
    try:
        res = integrate_semi_infinite(
            f, case["rel_tol"], case["abs_tol"], case["budget"],
            scale=case["scale"], vectorized=case["vectorized"],
        )
    except (EvaluationError, NonConvergenceError) as exc:
        partial = getattr(exc, "result", None)
        return {"raises": {"type": type(exc).__name__, "message": str(exc),
                           "partial": None if partial is None else _result(partial)}}
    return {"result": _result(res)}


def _gap(new: dict, old: dict) -> float:
    # Largest relative gap between the value and error estimate of two
    # results or partials; inf when one raised and the other did not, or
    # the type, message or evaluation count differs.
    a = new.get("result") or (new["raises"]["partial"] if "raises" in new else None)
    b = old.get("result") or (old["raises"]["partial"] if "raises" in old else None)
    same_kind = ("raises" in new) == ("raises" in old) and (
        "raises" not in new or {k: new["raises"][k] for k in ("type", "message")}
        == {k: old["raises"][k] for k in ("type", "message")}
    )
    if not same_kind or (a is None) != (b is None):
        return math.inf
    if a is None:
        return 0.0
    if a["evaluations"] != b["evaluations"]:
        return math.inf
    gap = 0.0
    for key in ("value", "error_estimate"):
        x, y = float.fromhex(a[key]), float.fromhex(b[key])
        if x != y:
            gap = max(gap, abs(x - y) / max(abs(x), abs(y)))
    return gap


def compare() -> int:
    goldens = json.loads(OUT.read_text())["cases"]
    moved, worst = 0, 0.0
    for golden in goldens:
        case = {k: v for k, v in golden.items() if k not in ("result", "raises")}
        new = run(case)
        old = {k: golden[k] for k in ("result", "raises") if k in golden}
        if new != old:
            moved += 1
            worst = max(worst, _gap(new, old))
    print(f"{moved} of {len(goldens)} integrals moved; worst relative gap {worst:.3g}")
    return 1 if moved else 0


def write_goldens() -> None:
    cases = [dict(case, **run(case)) for case in make_cases()]
    raised = sum("raises" in case for case in cases)
    OUT.write_text(json.dumps({"seed": SEED, "cases": cases}, indent=1) + "\n")
    print(f"{len(cases)} integrals, {raised} raised", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or compare the quadrature goldens.")
    parser.add_argument("--compare", action="store_true",
                        help="rerun every golden call and report what moved; write nothing")
    args = parser.parse_args(argv)
    if args.compare:
        return compare()
    write_goldens()
    return 0


if __name__ == "__main__":
    sys.exit(main())
