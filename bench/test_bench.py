"""The benchmark's own checks, on shrunken smoke inputs.

    python3 -m pytest -q bench/test_bench.py

The repository's test suite does not collect this file.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import EXACT

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int) -> dict:
    """One smoke run; `repeat` only tells cached runs apart."""
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        got = {k: v["unit"] for k, v in run(workload, trace, 0)["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[key]}


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counts_repeat_between_runs(workload):
    a, b = (run(workload, 1, r)["metrics"] for r in (0, 1))
    for name in EXACT:
        assert a[name]["value"] == b[name]["value"], name
    rss = [run(workload, 0, r)["metrics"]["peak_rss_mb"]["value"] for r in (0, 1)]
    assert abs(rss[0] - rss[1]) < 4.0


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_runs_are_correct(workload):
    for trace in (0, 1):
        res = run(workload, trace, 0)
        assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0


def test_corrupted_reference_turns_into_a_failed_operation(tmp_path):
    refs = workloads.load_references()
    good = workloads.InstanceOp("lazy", "id2p5", refs["lazy:id2p5"])
    assert workloads.run_op(good, 0)["problems"] == []
    bad_ref = {"revenue": refs["lazy:id2p5"]["revenue"] + 2e-7}
    bad = workloads.run_op(workloads.InstanceOp("lazy", "id2p5", bad_ref), 0)
    assert bad["problems"] and not bad["known"]

    path = "configs/solve_identical_n2.json"
    bad_ref = {"revenue": refs[path]["revenue"] - 2e-7}
    bad = workloads.run_op(workloads.ConfigOp(path, bad_ref, tmp_path), 0)
    assert bad["problems"] and not bad["known"]


def test_known_failure_counts_as_failed_but_not_incorrect(tmp_path):
    path = "bench/configs/deterministic_p8.json"
    res = workloads.run_op(workloads.ConfigOp(path, workloads.load_references()[path], tmp_path), 0)
    assert res["problems"] == ["run_config returned not-ok"] and res["known"]
