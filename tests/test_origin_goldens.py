"""The composite lower tail against a closed law, from x = 1e-300 to 1.

``tests/data/make_origin_goldens.py`` wrote ``origin_goldens.json`` with
mpmath: F, S and f of X = P Y, with P ~ Exp(1) (alpha-mu at alpha 1, mu 1)
and Y ~ Gamma(b, 0.9), in Bessel K form, at b = 0.6, 1, 1.5, 2 and 3.  The
goldens depend on no compfade route, so they tell which route is right
where routes share ``_split_quadrature``'s head integral.  Each evaluator
holds its tolerance at every point; only ``test_goldens_regenerate`` needs
mpmath.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from compfade import (
    AkmParams,
    AmParams,
    CompositeModel,
    GammaShadowParams,
    composite_cdf,
    composite_pdf,
    composite_sf,
    mixture_cdf,
    mixture_pdf,
)

_DATA_DIR = Path(__file__).resolve().parent / "data"
_DATA = json.loads((_DATA_DIR / "origin_goldens.json").read_text())

# evaluator -> (golden key, evaluator, relative tolerance): the cdf's 1e-10
# and the series' default rel_tol 1e-8; the oracle's default rel_tol 1e-9.
EVALUATORS = {
    "composite_cdf": ("F", composite_cdf, 1e-10),
    "mixture_cdf": ("F", mixture_cdf, 1e-9),
    "composite_sf": ("S", composite_sf, 1e-10),
    "composite_pdf": ("f", composite_pdf, 1e-8),
    "mixture_pdf": ("f", mixture_pdf, 1e-9),
}

_OMEGA = _DATA["omega"]


def _model(b):
    return CompositeModel(AmParams(1.0, 1.0), GammaShadowParams(b, _OMEGA))


@pytest.mark.parametrize("name", EVALUATORS)
def test_holds_its_tolerance(name):
    key, evaluator, rel = EVALUATORS[name]
    misses = []
    for row in _DATA["rows"]:
        b, x, want = row["b"], row["x"], float(row[key])
        got = evaluator(_model(b), x)
        if got != pytest.approx(want, rel=rel, abs=0.0):
            misses.append(f"b {b:g}, x {x:g}: {got!r} against {want!r}")
    assert not misses


@pytest.mark.parametrize("route, rel", [(composite_cdf, 1e-10), (mixture_cdf, 1e-9)])
def test_readme_model_at_1e_12(route, rel):
    # The README's akm model over b 3: the Mellin residue sum of F at 40
    # digits, which a direct 40-digit quadrature confirms to about 1e-13.
    m = CompositeModel(AkmParams(1.5, 1.0, 2.1), GammaShadowParams(3.0, 0.9))
    assert route(m, 1e-12) == pytest.approx(5.0991727702125e-36, rel=rel, abs=0.0)


def test_goldens_regenerate():
    # A few rows again from the generator, a double pole and 1e-300 among them.
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location(
        "make_origin_goldens", _DATA_DIR / "make_origin_goldens.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    rows = {(row["b"], row["x"]): row for row in _DATA["rows"]}
    for b, x in ((1.5, 1e-300), (2.0, 1e-20), (1.0, 1e-8), (0.6, 1.0)):
        assert generator.golden(b, x) == rows[b, x]
