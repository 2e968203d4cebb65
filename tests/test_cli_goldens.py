"""Byte-exact CLI outputs against the goldens in ``tests/data/cli_goldens``.

``tests/data/make_cli_goldens.py`` defines the cases and wrote the goldens;
the figure digests are checked by acceptance criterion 09, which already
writes those files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_cli_goldens", DATA / "make_cli_goldens.py")
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)

INDEX = json.loads((goldens.GOLDEN_DIR / "index.json").read_text())


def test_index_covers_every_case():
    assert sorted(INDEX) == sorted(goldens.CASES)
    assert all(INDEX[name]["argv"] == argv for name, (argv, _) in goldens.CASES.items())


@pytest.mark.parametrize("name", sorted(goldens.CASES))
def test_cli_output_matches_golden(name):
    result = goldens.run_case(name)
    assert result["exit"] == INDEX[name]["exit"]
    assert sorted(result["outputs"]) == INDEX[name]["files"]
    for fname, data in result["outputs"].items():
        assert data == (goldens.GOLDEN_DIR / fname).read_bytes(), fname


def test_compare_masks_numbers_and_measures_their_gap():
    same, gap = goldens.number_gap(b"x,1.0\n#atom,0,2e-3\n", b"x,1.0000000001\n#atom,0,2e-3\n")
    assert same and gap == pytest.approx(1e-10, rel=1e-3)
    same, _ = goldens.number_gap(b'{"route": "series", "v": 1}', b'{"route": "oracle", "v": 1}')
    assert not same


def test_compare_counts_a_respelled_number_as_changed(capsys):
    # Equal numbers spelled apart are not a zero gap: the file has changed.
    assert goldens._report("r.json", b'{"a": 0}', b'{"a": 0.0}')
    assert capsys.readouterr().out == 'r.json: NUMBER RESPELLED\n  new: {"a": 0}\n  old: {"a": 0.0}\n'
    assert not goldens._report("r.json", b'{"a": 1.5}', b'{"a": 1.5000001}')
    assert "max rel gap" in capsys.readouterr().out
