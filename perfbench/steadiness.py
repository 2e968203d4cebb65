"""Run every workload of ``BENCHMARK.json`` on seeds 1 to 10 and record
each end-to-end metric's median, quartiles and spread, plus the machine it
ran on.

    python3 perfbench/steadiness.py --out perfbench/STEADINESS.json

The spread is (Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``; each run is one
``perfbench/run.py --trace 0`` process with ``run_seconds`` from
``BENCHMARK.json``.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(1, 11))


def _environment() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    blas = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"
    )}
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_thread_env": blas,
        "machine": platform.machine(),
    }


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="JSON file to write (default: print only)")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"environment": _environment(), "run_seconds": bench["run_seconds"],
              "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result = run_once(workload, seed, bench["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
            for m in bench["end_to_end"]
        }
        record["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
