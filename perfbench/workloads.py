"""Frozen workload definitions and seeded op-list generation.

Everything a workload evaluates is fixed here or in ``refs.json``, never
read from ``compfade.figures`` or ``compfade.validation``, so an edit to
the library's own sweeps cannot change a workload.  This module imports
nothing from compfade: an op is plain data (``Op``) that ``run.py`` turns
into a call.

The seed builds one round of ops; a run repeats that round a fixed number
of times (``rounds``), so every run of a seed times the same work, however
fast the program or the machine is.  The ops that carry the program's known
defects (``PARAM_BOX`` points on the default series cap, plain curves with
the ``akm_cdf`` lower tail) are one fixed draw, the same for every seed, so
every run of a workload attempts and fails the same number of ops; the seed
draws the rest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Copy of ``compfade.validation.PARAM_BOX`` at the time the benchmark was
# defined; ``gen_refs.py`` draws the input pools from it.
PARAM_BOX = {
    "alpha": (1.0, 4.0),
    "kappa": (0.0, 5.0),
    "mu": (0.5, 4.0),
    "m": (0.5, 3.0),
    "b": (0.8, 5.0),
    "omega": (0.3, 3.0),
}

# Copy of the four figure sweeps of ``compfade.figures``: (figure, family,
# multipath parameters, (b, omega)).
ALPHA_SWEEP = (1.0, 1.5, 2.0, 3.0, 4.0)
MU_SWEEP = (0.5, 1.0, 2.0, 4.0)
FIGURE_CURVES = tuple(
    [(1, "akm", {"alpha": a, "kappa": 1.0, "mu": 2.1}, (1.1, 0.9)) for a in ALPHA_SWEEP]
    + [(2, "akm", {"alpha": 2.0, "kappa": 4.0, "mu": mu}, (1.8, 0.7)) for mu in MU_SWEEP]
    + [(3, "am", {"alpha": a, "mu": 2.1}, (1.1, 0.9)) for a in ALPHA_SWEEP]
    + [(4, "extreme", {"alpha": a, "m": 1.1}, (1.2, 0.8)) for a in ALPHA_SWEEP]
)
FIGURE_GRID = (0.01, 4.0, 200)  # linspace, as ``figures.default_grid``
FIGURE_SERIES = {"max_terms": 160, "rel_tol": 1e-9}  # as ``cmd_figure``
MASS_ARGS = {"rel_tol": 1e-7, "budget": 400_000}  # as ``cmd_figure``

# Box points: x = u * b * omega on this 25-point grid of u, as the
# series-vs-oracle check lays them out.
BOX_UNITS = tuple(0.05 + i * (5.0 - 0.05) / 24 for i in range(25))
FAMILIES = ("akm", "am", "extreme")

# Plain multipath curves: a log grid reaching rho = 1e-5.
PLAIN_RHO = tuple(10.0 ** (k / 2.0) for k in range(-10, 2))
# The parameter set at which the ``1 - Q`` lower-tail defect was measured.
ROADMAP_AKM = {"alpha": 2.0, "kappa": 1.0, "mu": 2.0}

# gof_cdf models.  akm-gamma is the README ``sample`` example.
README_SAMPLE = (
    "sample --model akm-gamma --alpha 2.2 --kappa 1.3 --mu 1.7 "
    "--b 1.6 --omega 0.8 --count 100000 --seed 13"
).split()
GOF_MODELS = {
    "akm-gamma": {"alpha": 2.2, "kappa": 1.3, "mu": 1.7, "b": 1.6, "omega": 0.8},
    "am-gamma": {"alpha": 2.0, "mu": 2.1, "b": 1.1, "omega": 0.9},
    "extreme-gamma": {"alpha": 2.0, "m": 1.1, "b": 1.2, "omega": 0.8},
}
GOF_COUNT = 100_000
GOF_SERIES_N = 160
CDF_GRID = (0.3, 2.4, 3)  # short ``compfade cdf`` curve: min, max, points

# Make-up of the one round a seed builds.
SERIES_POINTS_PER_CURVE = 25  # one grid point from each block of 8
SERIES_BOX_PER_FAMILY = 50
# Mass certificates: the first curve of each figure's sweep, on every seed.
# All 19 would take about 42 s of one round, more than a run's time.
CERTIFICATE_CURVES = tuple(
    next(c for c, curve in enumerate(FIGURE_CURVES) if curve[0] == fig) for fig in (1, 2, 3, 4)
)
ORACLE_POINTS_PER_CURVE = 2  # on every box curve of every family
PLAIN_CURVES_PER_FAMILY = 10

WORKLOADS = ("series_curves", "oracle_box", "gof_cdf")

# Raw seconds of one round on the machine the benchmark was made on (an
# Intel Xeon 2.1 GHz VM, 2 cores, Python 3.11), which varies between about
# 0.6x and 1.3x of these in its fast and slow spells.  A run of ``seconds``
# repeats the round ``seconds // ROUND_S`` times, at least once, so that it
# takes about ``seconds`` there; the count depends on nothing measured.
ROUND_S = {"series_curves": 8.0, "oracle_box": 3.0, "gof_cdf": 45.0}


def rounds(workload: str, seconds: float) -> int:
    """How many times a run of ``seconds`` repeats the round."""
    return max(1, int(seconds // ROUND_S[workload]))


@dataclass(frozen=True)
class Op:
    """One operation: what to evaluate and where its reference lives.

    ``kind`` names the call, ``task`` groups the ops a user would issue as
    one command (a curve, a certificate, a ``sample`` run), and ``ref`` is
    a path into ``refs.json``.
    """

    kind: str
    task: str
    ref: tuple


def _series_ops(refs: dict, rng: random.Random) -> list:
    fixed = random.Random("series_curves:box")
    ops = []
    points = FIGURE_GRID[2]
    block = points // SERIES_POINTS_PER_CURVE
    for c, (fig, _family, _mp, _sh) in enumerate(FIGURE_CURVES):
        task = f"figure{fig}:c{c}"
        for k in range(SERIES_POINTS_PER_CURVE):
            i = k * block + rng.randrange(block)
            ops.append(Op("figure_point", task, ("figure", c, i)))
    for c in CERTIFICATE_CURVES:
        ops.append(Op("certificate", f"cert:c{c}", ("figure", c)))
    for family in FAMILIES:
        pool = refs["box"][family]
        task = f"box:{family}"
        for _ in range(SERIES_BOX_PER_FAMILY):
            d = fixed.randrange(len(pool))
            i = fixed.randrange(len(BOX_UNITS))
            ops.append(Op("box_series", task, ("box", family, d, i)))
    return ops


def _oracle_ops(refs: dict, rng: random.Random) -> list:
    ops = []
    for family in FAMILIES:
        for d in range(len(refs["box"][family])):
            task = f"oracle:{family}:{d}"
            for i in sorted(rng.sample(range(len(BOX_UNITS)), ORACLE_POINTS_PER_CURVE)):
                ops.append(Op("box_oracle", task, ("box", family, d, i)))
    fixed = random.Random("oracle_box:plain")
    plain = [("akm_cdf", ("plain", "akm_roadmap", 0, "cdf"))]
    for family in FAMILIES:
        for d in fixed.sample(range(len(refs["plain"][family])), PLAIN_CURVES_PER_FAMILY):
            if family == "akm":
                plain.append(("akm_pdf", ("plain", "akm", d, "pdf")))
            plain.append((f"{family}_cdf", ("plain", family, d, "cdf")))
    for kind, ref in plain:
        task = f"{kind}:{ref[1]}:{ref[2]}"
        for i in range(len(PLAIN_RHO)):
            ops.append(Op(kind, task, ref + (i,)))
    return ops


def _gof_ops(rng: random.Random) -> list:
    ops = [Op("sample_readme", "sample:readme", ("gof", "akm-gamma", 13))]
    for family in GOF_MODELS:
        sample_seed = rng.randrange(1, 2**31)
        ops.append(Op("sample", f"sample:{family}", ("gof", family, sample_seed)))
    for family in GOF_MODELS:
        ops.append(Op("cdf_curve", f"cdf:{family}", ("gof", family)))
    return ops


def build_round(workload: str, seed: int, refs: dict) -> list:
    """The op list of ``workload`` for ``seed``: one round, which a run
    repeats ``rounds`` times.

    The round is shuffled, so that a slow spell of a shared machine lands
    on a mix of op kinds instead of on one curve.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series_curves":
        ops = _series_ops(refs, rng)
    elif workload == "oracle_box":
        ops = _oracle_ops(refs, rng)
    elif workload == "gof_cdf":
        ops = _gof_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(ops)
    return ops
