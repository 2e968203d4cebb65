"""The Poisson-gamma mixture cdfs against mpmath goldens.

``tests/data/make_mixture_goldens.py`` wrote ``mixture_goldens.json`` with
mpmath at 30 digits for a mean number of dominant clusters from 1 to 2,500,
both tails included; only ``test_goldens_regenerate`` needs mpmath.  A
value matches to 1e-10 relative, or to 1e-12 absolute below 1e-3; a
Marcum Q value, the cdfs' upper tail, to 1e-10 relative only.  The
composite cdf (an mpmath quadrature over the shadow, at 20 digits) matches
to 1e-9 relative from x = 1e-8 to its upper tail on both routes, at shadow
shapes b = 0.1, 0.6 and 2,
``composite_cdf`` and ``mixture_cdf``; the composite survival function (the
same quadrature of the upper side) matches ``composite_sf`` to 1e-9
relative from 0.8 down to 1e-22; and the composite
density (the same quadrature of the plain density) matches on both
routes, the series at rel_tol 1e-10 and the oracle, to 1e-10 relative over
the same points.  Far above its mean,
where 1 - F falls from 1e-3 to 1e-9 and m reaches 500, ``extreme_cdf``
matches to 2e-15 absolute.  The plain densities match to 1e-12 relative
from rho = 1e-6 into the far tail, with kappa from 1e-12 to 50 and m up to
500.  The akm moments (mpmath's 1F1 form at 40 digits) match to 1e-12
relative for orders 0 to 4 and a mean number of dominant clusters up to
2,000, where e^(mu*kappa) overflows a double.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from compfade import (
    AkmParams,
    CompositeModel,
    ExtremeParams,
    GammaShadowParams,
    ScaledEnvelope,
    SeriesConfig,
    akm_cdf,
    akm_cdf_series,
    akm_moment,
    akm_pdf_normalized,
    am_pdf,
    composite_cdf,
    composite_pdf,
    composite_sf,
    extreme_cdf,
    extreme_pdf,
    marcum_q,
    mixture_cdf,
    mixture_pdf,
)
from compfade.composite import FAMILIES

_DATA_DIR = Path(__file__).resolve().parent / "data"
_DATA = json.loads((_DATA_DIR / "mixture_goldens.json").read_text())


def _close(got, golden):
    ref = float(golden)
    return math.isfinite(got) and abs(got - ref) <= max(1e-10 * ref, 1e-12 if ref < 1e-3 else 0.0)


def _rel_close(got, golden):
    # Relative only: Q keeps its digits down to its smallest values.
    ref = float(golden)
    return math.isfinite(got) and abs(got - ref) <= 1e-10 * ref


@pytest.mark.parametrize("case", _DATA["marcum_q"], ids=lambda c: f"a{c['a']:.4g}-b{c['b']:g}")
def test_marcum_q(case):
    assert _rel_close(marcum_q(case["mu"], case["a"], case["b"]), case["value"])


@pytest.mark.parametrize(
    "mu, a, b, value",
    # 40-digit mpmath, far out in the upper tail.
    [(3.0, 2.0, 12.0, 6.336657219332626e-22), (2.0, 1.0, 9.0, 1.6407133460427084e-14)],
)
def test_marcum_q_small_values_keep_relative_digits(mu, a, b, value):
    assert marcum_q(mu, a, b) == pytest.approx(value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "case", _DATA["akm_cdf"], ids=lambda c: f"kappa{c['kappa']:g}-mu{c['mu']:g}-rho{c['rho']:g}"
)
def test_akm_cdf_both_tails(case):
    p = AkmParams(case["alpha"], case["kappa"], case["mu"])
    assert _close(akm_cdf(p, case["rho"]), case["cdf"])
    assert _close(akm_cdf_series(p, case["rho"]), case["cdf"])
    # The upper tail, directly.
    a = math.sqrt(2.0 * p.mu * p.kappa)
    b = case["rho"] ** (0.5 * p.alpha) * math.sqrt(2.0 * p.mu * (1.0 + p.kappa))
    assert _rel_close(marcum_q(p.mu, a, b), case["sf"])


@pytest.mark.parametrize("case", _DATA["extreme_cdf"], ids=lambda c: f"m{c['m']:g}-rho{c['rho']:g}")
def test_extreme_cdf(case):
    assert _close(extreme_cdf(ExtremeParams(case["alpha"], case["m"]), case["rho"]), case["cdf"])


@pytest.mark.parametrize(
    "case", _DATA["extreme_cdf_upper"], ids=lambda c: f"m{c['m']:g}-rho{c['rho']:g}"
)
def test_extreme_cdf_upper_side(case):
    got = extreme_cdf(ExtremeParams(case["alpha"], case["m"]), case["rho"])
    assert abs(got - float(case["cdf"])) <= 2e-15


def _composite_id(c):
    pairs = (*c["multipath"].items(), *c["shadow"].items())
    return "-".join(f"{k}{v:g}" for k, v in pairs) + f"-x{c['x']:g}"


def _composite(case):
    family = FAMILIES[case["family"]]
    return CompositeModel(family.params(**case["multipath"]), GammaShadowParams(**case["shadow"]))


@pytest.mark.parametrize("case", _DATA["composite_cdf"], ids=_composite_id)
def test_mixture_cdf(case):
    assert mixture_cdf(_composite(case), case["x"]) == pytest.approx(float(case["cdf"]), rel=1e-9)


@pytest.mark.parametrize("case", _DATA["composite_cdf"], ids=_composite_id)
def test_composite_cdf(case):
    assert composite_cdf(_composite(case), case["x"]) == pytest.approx(float(case["cdf"]), rel=1e-9)


@pytest.mark.parametrize("case", _DATA["composite_sf"], ids=_composite_id)
def test_composite_sf(case):
    assert composite_sf(_composite(case), case["x"]) == pytest.approx(float(case["sf"]), rel=1e-9)


@pytest.mark.parametrize("case", _DATA["composite_pdf"], ids=_composite_id)
def test_composite_pdf(case):
    model, x, golden = _composite(case), case["x"], float(case["pdf"])
    assert composite_pdf(model, x, SeriesConfig(rel_tol=1e-10)) == pytest.approx(golden, rel=1e-10)
    assert mixture_pdf(model, x) == pytest.approx(golden, rel=1e-10)


_PDFS = {
    "akm": akm_pdf_normalized,
    "am": lambda p, rho: am_pdf(p, ScaledEnvelope(1.0), rho),
    "extreme": extreme_pdf,
}


@pytest.mark.parametrize(
    "case",
    _DATA["pdf"],
    ids=lambda c: c["family"] + "-" + "-".join(f"{k}{v:g}" for k, v in c["params"].items())
    + f"-rho{c['rho']:g}",
)
def test_plain_pdf(case):
    p = FAMILIES[case["family"]].params(**case["params"])
    got = _PDFS[case["family"]](p, case["rho"])
    assert got == pytest.approx(float(case["pdf"]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "case",
    _DATA["moment"],
    ids=lambda c: "-".join(f"{k}{v:g}" for k, v in c["params"].items()) + f"-order{c['order']:g}",
)
def test_akm_moment(case):
    got = akm_moment(AkmParams(**case["params"]), case["order"])
    assert got == pytest.approx(float(case["moment"]), rel=1e-12, abs=0.0)


def test_goldens_regenerate():
    # One golden of each section, recomputed by the generator.
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("gen", _DATA_DIR / "make_mixture_goldens.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    cases = (gen.marcum_cases, gen.akm_cases, gen.extreme_cases, gen.extreme_upper_cases,
             gen.composite_cdf_cases, gen.composite_sf_cases, gen.composite_pdf_cases,
             gen.pdf_cases, gen.moment_cases)
    sections = ("marcum_q", "akm_cdf", "extreme_cdf", "extreme_cdf_upper", "composite_cdf",
                "composite_sf", "composite_pdf", "pdf", "moment")
    assert [next(c()) for c in cases] == [_DATA[name][0] for name in sections]
