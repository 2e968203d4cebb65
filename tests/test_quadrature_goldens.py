"""``integrate_semi_infinite`` against bit-exact goldens.

``tests/data/make_quadrature_goldens.py`` wrote ``quadrature_goldens.json``:
300 seeded integrals, each with its value, error estimate and evaluation
count as ``float.hex``, or the exception it raised with its partial result.
Every call must give the same bits again.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_DATA_DIR = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_quadrature_goldens", _DATA_DIR / "make_quadrature_goldens.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

GOLDENS = json.loads((_DATA_DIR / "quadrature_goldens.json").read_text())["cases"]
OUTCOMES = ("result", "raises")


def _case_id(golden):
    settings = f"rel{golden['rel_tol']:.0e}-budget{golden['budget']}-scale{golden['scale']:.1e}"
    return f"{golden['family']}-{settings}-{'vec' if golden['vectorized'] else 'scalar'}"


def test_goldens_are_the_seeded_cases():
    # The file holds exactly the calls the script draws, so rerunning the
    # script at another commit reproduces the same integrals.
    calls = [{k: v for k, v in golden.items() if k not in OUTCOMES} for golden in GOLDENS]
    assert calls == gen.make_cases()


@pytest.mark.parametrize("golden", GOLDENS, ids=_case_id)
def test_same_bits_as_the_golden(golden):
    call = {k: v for k, v in golden.items() if k not in OUTCOMES}
    assert gen.run(call) == {k: golden[k] for k in OUTCOMES if k in golden}
