"""Write BENCH_<tag>.json: one traced and one untraced run of every
workload, plus the ROADMAP Baseline ladder measured again.

    python3 bench/collect.py --tag seed --seed 1

The ladder rows are solved once each in this process, single-threaded,
with the tracer installed so that total simplex iterations (over every
lazy round) sit beside `OptimalResult.solution.iterations`, which holds
the last round only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from workloads import BENCH, ROOT, WORKLOADS, build_instance

# ROADMAP "Baseline" table: instance, mode -> rounds, final rows, iters, wall seconds
ROADMAP_BASELINE = [
    ("id2p8", "full", 1, 1260, 336, 1.84),
    ("id2p8", "lazy", 1, 204, 181, 0.09),
    ("id2p12", "lazy", 2, 501, 460, 1.43),
    ("id2p16", "lazy", 3, 1249, 914, 14.3),
    ("het3p4", "lazy", 4, 504, 395, 1.95),
]
WALL_TOLERANCE = 0.25


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return res


def ladder() -> list[dict]:
    from mechlab import optlp
    from tracer import Tracer

    rows = []
    for name, mode, rounds, final_rows, iters, wall in ROADMAP_BASELINE:
        domain, types, dist = build_instance(name)
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            res = optlp.optimal_mechanism(types, dist, domain, mode=mode)
            dt = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        got = {
            "rounds": res.rounds,
            "final_rows": res.n_ic_rows,
            "iterations_last_round": res.solution.iterations,
            "iterations_total": tracer.stats.simplex_iterations,
            "wall_s": dt,
        }
        want = {"rounds": rounds, "final_rows": final_rows, "iterations_last_round": iters, "wall_s": wall}
        mismatched = [k for k in ("rounds", "final_rows", "iterations_last_round") if got[k] != want[k]]
        if abs(dt - wall) > WALL_TOLERANCE * wall:
            mismatched.append("wall_s")
        rows.append({"instance": name, "types": len(types), "mode": mode, "measured": got,
                     "roadmap": want, "does_not_reproduce": mismatched})
    return rows


def note(rows: list[dict]) -> str:
    parts = []
    for r in rows:
        if r["does_not_reproduce"]:
            diffs = ", ".join(
                f"{k} {r['measured'][k]:.3g} vs {r['roadmap'][k]:.3g}" for k in r["does_not_reproduce"]
            )
            parts.append(f"{r['instance']} {r['mode']}: {diffs}")
    head = "Rows that do not reproduce the ROADMAP Baseline table: " + ("; ".join(parts) or "none") + "."
    return head + (
        f" Wall times count as reproduced within {WALL_TOLERANCE:.0%}. The table's iters column is "
        "OptimalResult.solution.iterations, which holds the last lazy round only; "
        "iterations_total sums every round."
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {
        w: {"untraced": bench_run(w, args.seed, seconds, 0), "traced": bench_run(w, args.seed, seconds, 1)}
        for w in WORKLOADS
    }
    rows = ladder()
    out = {
        "tag": args.tag,
        "seed": args.seed,
        "run_seconds": seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__},
        "workloads": runs,
        "baseline_ladder": rows,
        "note": note(rows),
    }
    path = BENCH / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(out["note"])
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
