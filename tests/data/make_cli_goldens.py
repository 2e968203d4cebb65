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
commit that does it.  The goldens are exact for the platform that wrote
them (Python 3.11, numpy 2.4 on x86-64): numpy's vectorized exp and log may
round differently on another CPU or numpy build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
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
    for model in PLAIN + ("am-gamma",):
        cases[f"cdf-{model}"] = (["cdf"] + _model_args(model) + ["--grid", GRID], ())
    for model in ("extreme", "am-gamma"):
        cases[f"sample-{model}"] = (
            ["sample"] + _model_args(model)
            + ["--count", "500", "--seed", "7", "--out", "samples.txt", "--report", "report.json"],
            ("samples.txt", "report.json"),
        )
    cases["moments-akm-json"] = (["moments"] + _model_args("akm") + ["--format", "json"], ())
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


def figure_digests(out_root: Path) -> dict:
    """File name -> SHA-256 of every figure file of the four figures."""
    from compfade.cli import main

    digests = {}
    for figure_id in (1, 2, 3, 4):
        out_dir = out_root / f"fig{figure_id}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["figure", str(figure_id), "--out-dir", str(out_dir),
                         "--grid", FIGURE_GRID])
        if code != 0:
            raise SystemExit(f"figure {figure_id} exited {code}")
        for path in sorted(out_dir.glob(f"figure{figure_id}_*.json")):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main() -> None:
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


if __name__ == "__main__":
    main()
