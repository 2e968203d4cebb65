"""Exact samplers and goodness-of-fit machinery.

Each family's exact unit-scale sampler lives in the family table
(``composite.FAMILIES``); for the multipath models it exploits their
Poisson-gamma mixture structure.  Composite draws first pick the shadow
scale Y ~ Gamma(b, omega) and then the multipath variate at rms scale Y.

Randomness comes from numpy's counter-based Philox bit generator seeded
through ``SeedSequence``, so batches are bit-reproducible per (seed, model,
count) on a platform.  Parallel callers should partition work with
``subsequence_seeds``; concatenating the partitions in order is then a
deterministic function of (seed, count, partition count).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .composite import SHADOW, CompositeModel, family_of
from .errors import DomainError
from .models import Density
from .numerics import integrate_semi_infinite

__all__ = [
    "SampleBatch",
    "GofReport",
    "CdfTable",
    "sample_plain",
    "sample_akm",
    "sample_am",
    "sample_extreme",
    "sample_gamma_shadow",
    "sample_composite",
    "build_cdf_table",
    "gof_compare",
    "ks_critical_value",
    "subsequence_seeds",
    "model_descriptor",
]

@dataclass(frozen=True)
class SampleBatch:
    """Reproducible draw: values plus the (seed, model) provenance."""

    values: np.ndarray
    seed: int
    model_descriptor: str

    def __post_init__(self):
        if not np.all((self.values >= 0.0) & (self.values < np.inf)):  # NaN fails both
            raise DomainError("sample values must be non-negative")


@dataclass(frozen=True)
class GofReport:
    """Kolmogorov-Smirnov statistic plus the atom frequency comparison.

    ``ks_statistic`` is NaN when the batch has no nonzero values to test
    against the continuous part.
    """

    ks_statistic: float
    sample_size: int
    atom_frequency_observed: float
    atom_mass_expected: float


def model_descriptor(model) -> str:
    """Stable JSON tag identifying a model and its parameters."""

    def describe(params):
        family = family_of(params)
        return {"family": family.name, **{f: getattr(params, f) for f in family.fields}}

    if isinstance(model, CompositeModel):
        tag = {
            "family": "composite",
            "multipath": describe(model.multipath),
            "shadow": describe(model.shadow),
        }
    else:
        tag = describe(model)
    return json.dumps(tag, sort_keys=True)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def subsequence_seeds(seed: int, parts: int) -> list:
    """Child seed sequences for partitioned parallel sampling."""
    return np.random.SeedSequence(seed).spawn(parts)


def _sampler_generator(count: int, seed: int) -> np.random.Generator:
    # The samplers' rules, then their generator; a bool is not an integer here.
    for name, value, least in (("count", count, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return _generator(seed)


def sample_plain(p, count: int, seed: int) -> SampleBatch:
    """Exact draws of a plain (unshadowed) model at unit rms scale, deep-fade
    zeros included; the gamma shadow draws its own variable."""
    rng = _sampler_generator(count, seed)
    return SampleBatch(family_of(p).sample(p, count, rng), seed, model_descriptor(p))


# The per-family names of the one plain sampler.
sample_akm = sample_am = sample_extreme = sample_gamma_shadow = sample_plain


def sample_composite(m: CompositeModel, count: int, seed: int) -> SampleBatch:
    """Exact composite draws: shadow scale first, then the multipath variate."""
    rng = _sampler_generator(count, seed)
    y = SHADOW.sample(m.shadow, count, rng)
    values = y * family_of(m.multipath).sample(m.multipath, count, rng)
    return SampleBatch(values, seed, model_descriptor(m))


def ks_critical_value(significance: float, n: int) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value K/sqrt(n).

    K solves 2 * sum_k (-1)^(k-1) exp(-2 k^2 K^2) = significance.
    """
    if not (0.0 < significance < 1.0):
        raise DomainError("significance must be in (0, 1)")
    if n < 1:
        raise DomainError("n must be positive")

    def survival(x: float) -> float:
        total = 0.0
        for k in range(1, 101):
            term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
            total += term
            if abs(term) < 1e-16:
                break
        return total

    lo, hi = 0.2, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if survival(mid) > significance:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / math.sqrt(n)


@dataclass(frozen=True)
class CdfTable:
    """Cumulative quadrature of a density's continuous part on a grid.

    Building the table dominates the cost of a goodness-of-fit run for the
    composite models, so callers that test several batches against one
    density should build it once with ``build_cdf_table`` and pass it to
    ``gof_compare``.
    """

    xs: np.ndarray
    cum: np.ndarray
    tail_mass: float
    atom_mass: float

    @property
    def x_max(self) -> float:
        return float(self.xs[-1])

    @property
    def total_mass(self) -> float:
        return self.atom_mass + float(self.cum[-1]) + self.tail_mass


def build_cdf_table(density: Density, x_max: float, grid_points: int = 2000) -> CdfTable:
    """Trapezoid cumulative of the continuous part on an origin-dense grid.

    The first cell (0, x0) is the density's ``continuous_cdf`` at x0, or an
    adaptive quadrature where it has none.  The tail beyond ``x_max`` is
    integrated adaptively, so the table also certifies the density's total
    mass.
    """
    x0 = x_max * 1e-4
    xs = np.unique(
        np.concatenate(
            [
                np.geomspace(x0, x_max, grid_points // 3),
                np.linspace(x0, x_max, grid_points - grid_points // 3),
            ]
        )
    )
    f = density.values(xs)
    if density.continuous_cdf is not None:
        head = density.continuous_cdf(x0)
    else:
        head = integrate_semi_infinite(
            lambda w: density.continuous(x0 * w / (1.0 + w)) * x0 / (1.0 + w) ** 2,
            rel_tol=1e-8,
            abs_tol=1e-13,
            budget=100_000,
            scale=1.0,
            vectorized=density.vectorized,
        ).value
    # Derivative-corrected trapezoid: O(h^4) per cell at no extra density
    # evaluations, which keeps the total-mass certificate sharp even on
    # moderate grids.
    dx = np.diff(xs)
    fp = np.gradient(f, xs)
    cells = 0.5 * (f[1:] + f[:-1]) * dx - (dx * dx / 12.0) * (fp[1:] - fp[:-1])
    cum = head + np.concatenate([[0.0], np.cumsum(cells)])
    tail = integrate_semi_infinite(
        lambda u: density.continuous(u + x_max),
        rel_tol=1e-7,
        abs_tol=1e-12,
        budget=100_000,
        scale=max(x_max, 1.0),
        vectorized=density.vectorized,
    ).value
    return CdfTable(xs=xs, cum=cum, tail_mass=tail, atom_mass=density.atom_mass)


def gof_compare(
    batch: SampleBatch,
    density: Density,
    grid_points: int = 2000,
    normalization_tol: float = 5e-6,
    table: CdfTable | None = None,
) -> GofReport:
    """Compare a sample batch against an analytic density.

    The continuous-part cdf is built by cumulative quadrature on a dense
    grid (or taken from ``table``), renormalized by one minus the atom
    mass, and the KS statistic of the nonzero samples is taken against it.
    The density's normalization is verified first (total mass within
    ``normalization_tol`` of one) and a violation raises ``DomainError``.
    """
    values = np.asarray(batch.values, dtype=float)
    n_total = values.size
    zeros = values == 0.0
    atom_freq = float(np.mean(zeros))
    atom_mass = density.atom_mass

    nonzero = np.sort(values[~zeros])
    if nonzero.size == 0:
        return GofReport(math.nan, n_total, atom_freq, atom_mass)

    if table is None or table.x_max < float(nonzero[-1]):
        table = build_cdf_table(density, float(nonzero[-1]) * 1.05, grid_points)
    if abs(table.total_mass - 1.0) > normalization_tol:
        raise DomainError(
            f"density is not normalized: total mass {table.total_mass!r} "
            f"(tolerance {normalization_tol})"
        )

    cont_mass = 1.0 - atom_mass
    cdf_at = np.interp(nonzero, table.xs, table.cum) / cont_mass
    k = nonzero.size
    ecdf_hi = np.arange(1, k + 1) / k
    ecdf_lo = np.arange(0, k) / k
    ks = float(np.max(np.maximum(ecdf_hi - cdf_at, cdf_at - ecdf_lo)))
    return GofReport(ks, n_total, atom_freq, atom_mass)
