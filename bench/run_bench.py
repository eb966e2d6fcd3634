"""mechlab benchmark: one workload, one run.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from `src/`; there
is nothing to build.  With --trace 0 the run reports the end-to-end
metrics: `wall_s` (median wall time of one pass over the workload's
operations), `setup_s` (median, over SETUP_SAMPLES fresh processes, of
importing mechlab and building the workload's inputs) and `peak_rss_mb`
(peak resident memory of the measuring process).  With --trace 1 it
reports the per-layer metrics of tracer.py instead.  Each workload runs
in its own single-threaded process.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

An operation fails when it raises, when `run_config` returns not-ok, when
a revenue is more than 1e-7 from references.json, or when its mechanism
fails the IC/IR audit.  `correct` is false when any operation fails other
than the known failures listed in workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workloads.py"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and return its JSON report."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one mechlab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="shrunken inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mechlab" / "__init__.py").is_file():
        print(f"no mechlab sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    try:
        setup = []
        if not args.trace:
            setup = [_worker(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        rep = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(sorted(rep["layers"].items()))
        print(f"{args.workload}: {rep['passes'] - rep['traced_passes']} untraced and "
              f"{rep['traced_passes']} traced passes")
    else:
        walls = rep["pass_wall_s"]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"{args.workload}: {len(walls)} passes, pass wall min {min(walls):.4f} s "
              f"max {max(walls):.4f} s; set-up samples {len(setup)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  failed_ratio {rep['failed']}/{rep['attempted']} = {rep['failed'] / rep['attempted']:.4g}")
    for problem in rep["problems"]:
        print(f"  failure: {problem}")
    print(json.dumps({
        "correct": rep["incorrect"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
