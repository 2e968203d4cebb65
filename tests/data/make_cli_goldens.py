"""Freeze byte-exact CLI outputs as goldens.

    PYTHONPATH=src python3 tests/data/make_cli_goldens.py

writes ``tests/data/cli_goldens/``: one file per output stream or output
file of every case in ``CASES`` (``<case>.<stream>``), ``index.json`` with
each case's argv, exit status and file list, and ``figure_sha256.json``
with the SHA-256 digest of every figure file that acceptance criterion 09
writes (``figure <id> --grid 0.01:4:120``).  ``tests/test_cli_goldens.py``
and criterion 09 compare the program's current output against them, so a
refactor that must not change numbers can prove it did not.

Regenerate only when an output is meant to change, and say why in the
commit that does it.  Before regenerating, measure the change:

    PYTHONPATH=src python3 tests/data/make_cli_goldens.py --compare [--figures DIR]

reruns every case and compares each output with its golden: the text with
every number masked must be identical, and it prints each file's largest
relative gap between corresponding numbers, or else the first line whose
text differs, from each side.  A file whose numbers are all equal but not
all spelled the same (``0`` against ``0.0``) is a spelling change, shown by
its first differing line.  A case with no golden yet is reported as
NEW.  With ``--figures DIR`` it also writes the figure files and compares
them, number by number, with the files of the same names in DIR (written
by another commit with ``compfade figure <id> --out-dir DIR --grid
0.01:4:120``).  It exits 1 if any text or spelling, exit status or file
list differs, or a case is NEW.

The goldens are exact for the platform that wrote them (Python 3.11,
numpy 2.4 on x86-64): numpy's vectorized exp and log may round differently
on another CPU or numpy build.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "cli_goldens"
FIGURE_GRID = "0.01:4:120"  # as acceptance criterion 09
GRID = "0.05:3:7"

# Parameter flags of each --model choice.
MODEL_PARAMS = {
    "akm": {"alpha": 1.5, "kappa": 1.0, "mu": 2.1},
    "am": {"alpha": 2.4, "mu": 1.3},
    "extreme": {"alpha": 2.0, "m": 1.1},
    "akm-gamma": {"alpha": 1.5, "kappa": 1.0, "mu": 2.1, "b": 1.1, "omega": 0.9},
    "am-gamma": {"alpha": 2.4, "mu": 1.3, "b": 1.5, "omega": 0.8},
    "extreme-gamma": {"alpha": 1.7, "m": 1.1, "b": 1.2, "omega": 0.8},
    "gamma-shadow": {"b": 1.6, "omega": 0.8},
    "kmu-gamma": {"kappa": 4.0, "mu": 1.0, "b": 1.8, "omega": 0.7},
    "kmu-extreme-gamma": {"m": 1.1, "b": 1.2, "omega": 0.8},
}
COMPOSITES = ("akm-gamma", "am-gamma", "extreme-gamma")
PLAIN = ("akm", "am", "extreme", "gamma-shadow")


def _model_args(model: str) -> list:
    argv = ["--model", model]
    for key, value in MODEL_PARAMS[model].items():
        argv += [f"--{key}", repr(value)]
    return argv


def _cases() -> dict:
    """Case name -> (argv, output files the case writes in its directory)."""
    cases = {}
    for model in MODEL_PARAMS:
        for fmt in ("csv", "json"):
            cases[f"pdf-{model}-{fmt}"] = (
                ["pdf"] + _model_args(model) + ["--grid", GRID, "--format", fmt], ()
            )
    for model in COMPOSITES:
        base = ["pdf"] + _model_args(model) + ["--grid", GRID, "--format", "json"]
        cases[f"pdf-{model}-oracle"] = (base + ["--oracle"], ())
        cases[f"pdf-{model}-series160"] = (
            base + ["--series-n", "160", "--series-rel-tol", "1e-9"], ()
        )
        if model != "am-gamma":
            cases[f"pdf-{model}-gross20"] = (base + ["--use-gross", "--series-n", "20"], ())
    for model in ("akm", "am"):
        cases[f"pdf-{model}-rhat"] = (
            ["pdf"] + _model_args(model) + ["--grid", GRID, "--rhat", "1.7"], ()
        )
    for model in PLAIN + COMPOSITES:
        cases[f"cdf-{model}"] = (["cdf"] + _model_args(model) + ["--grid", GRID], ())
    cases["cdf-am-gamma-oracle"] = (cases["cdf-am-gamma"][0] + ["--oracle"], ())
    for model in ("extreme", "am-gamma"):
        cases[f"sample-{model}"] = (
            ["sample"] + _model_args(model)
            + ["--count", "500", "--seed", "7", "--out", "samples.txt", "--report", "report.json"],
            ("samples.txt", "report.json"),
        )
    cases["moments-akm-json"] = (["moments"] + _model_args("akm") + ["--format", "json"], ())
    # The deep lower tail, where both cdf routes and the oracle pdf run the
    # head integral below the first quadrature node: F ~ x / (omega (b - 1)).
    deep = "--model am-gamma --alpha 1 --mu 1 --b 1.5 --omega 0.9 --grid 1e-300:1e-30:3".split()
    cases["cdf-am-gamma-deep"] = (["cdf"] + deep, ())
    cases["cdf-am-gamma-deep-oracle"] = (["cdf"] + deep + ["--oracle"], ())
    cases["pdf-am-gamma-deep-oracle"] = (["pdf"] + deep + ["--oracle"], ())
    return cases


CASES = _cases()


def run_case(name: str) -> dict:
    """Run one case in a fresh directory; returns its exit status and
    output streams and files, as bytes keyed by ``<case>.<stream>``."""
    from compfade.cli import main

    argv, files = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            outputs = {f"{name}.stdout": out.getvalue().encode(),
                       f"{name}.stderr": err.getvalue().encode()}
            for fname in files:
                outputs[f"{name}.{fname}"] = Path(fname).read_bytes()
        finally:
            os.chdir(cwd)
    return {"exit": code, "outputs": outputs}


def write_figures(out_root: Path) -> list:
    """Write the figure files of the four figures; returns their paths."""
    from compfade.cli import main

    paths = []
    for figure_id in (1, 2, 3, 4):
        out_dir = out_root / f"fig{figure_id}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["figure", str(figure_id), "--out-dir", str(out_dir),
                         "--grid", FIGURE_GRID])
        if code != 0:
            raise SystemExit(f"figure {figure_id} exited {code}")
        paths += sorted(out_dir.glob(f"figure{figure_id}_*.json"))
    return paths


def figure_digests(out_root: Path) -> dict:
    """File name -> SHA-256 of every figure file of the four figures."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in write_figures(out_root)}


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_gap(new: bytes, old: bytes):
    """(text equal once numbers are masked, largest relative gap between
    corresponding numbers)."""
    if NUMBER.sub(b"#", new) != NUMBER.sub(b"#", old):
        return False, math.inf
    gap = 0.0
    for a, b in zip(NUMBER.findall(new), NUMBER.findall(old)):
        x, y = float(a), float(b)
        if x != y:
            gap = max(gap, abs(x - y) / max(abs(x), abs(y)))
    return True, gap


def first_differing_lines(new: bytes, old: bytes, masked: bool = True):
    """The first line, numbers masked unless not ``masked``, at which ``new``
    and ``old`` differ, unmasked from each side (b"" past the end of one)."""
    key = (lambda line: NUMBER.sub(b"#", line)) if masked else bytes
    new_lines, old_lines = new.splitlines(), old.splitlines()
    for i in range(max(len(new_lines), len(old_lines))):
        a = new_lines[i] if i < len(new_lines) else b""
        b = old_lines[i] if i < len(old_lines) else b""
        if key(a) != key(b):
            return a, b
    return b"", b""


def _report(fname: str, new: bytes, old: bytes) -> bool:
    """Print one file's comparison; true when its text or spelling differs."""
    if new == old:
        print(f"{fname}: identical")
        return False
    same, gap = number_gap(new, old)
    if same and gap:
        print(f"{fname}: max rel gap {gap:.3g}")
        return False
    new_line, old_line = first_differing_lines(new, old, masked=not same)
    kind = "NUMBER RESPELLED" if same else "TEXT DIFFERS"
    print(f"{fname}: {kind}\n  new: {new_line.decode()}\n  old: {old_line.decode()}")
    return True


def compare(figure_dir) -> int:
    index = json.loads((GOLDEN_DIR / "index.json").read_text())
    differs = False
    for name in CASES:
        if name not in index:
            print(f"{name}: NEW")
            differs = True
            continue
        result = run_case(name)
        if result["exit"] != index[name]["exit"] or sorted(result["outputs"]) != index[name]["files"]:
            print(f"{name}: EXIT STATUS OR FILE LIST DIFFERS")
            differs = True
            continue
        for fname, data in sorted(result["outputs"].items()):
            differs |= _report(fname, data, (GOLDEN_DIR / fname).read_bytes())
    if figure_dir is not None:
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_figures(Path(tmp))
            old = {path.name: path for path in Path(figure_dir).rglob("figure*_*.json")}
            if sorted(old) != sorted(path.name for path in paths):
                print("figures: FILE LIST DIFFERS")
                differs = True
            for path in paths:
                if path.name in old:
                    differs |= _report(path.name, path.read_bytes(), old[path.name].read_bytes())
    return 1 if differs else 0


def write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    index = {}
    for name, (argv, _files) in CASES.items():
        result = run_case(name)
        for fname, data in result["outputs"].items():
            (GOLDEN_DIR / fname).write_bytes(data)
        index[name] = {"argv": argv, "exit": result["exit"],
                       "files": sorted(result["outputs"])}
        print(f"{name}: exit {result['exit']}", file=sys.stderr)
    (GOLDEN_DIR / "index.json").write_text(json.dumps(index, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        digests = figure_digests(Path(tmp))
    (GOLDEN_DIR / "figure_sha256.json").write_text(json.dumps(digests, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or compare the CLI goldens.")
    parser.add_argument("--compare", action="store_true",
                        help="compare current outputs with the goldens; write nothing")
    parser.add_argument("--figures", metavar="DIR",
                        help="with --compare: also compare the figure files with those in DIR")
    args = parser.parse_args(argv)
    if args.figures is not None and not args.compare:
        parser.error("--figures needs --compare")
    if args.compare:
        return compare(args.figures)
    write_goldens()
    return 0


if __name__ == "__main__":
    sys.exit(main())
