"""Workloads of the mechlab benchmark and the worker process that runs one.

`run_bench.py` starts this file in a fresh single-threaded process:

    python3 bench/workloads.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/workloads.py --workload W --seed N --setup-only

Every workload is a fixed list of operations on generated inputs.  A pass
runs each operation once, always in the same order: the order changes
peak memory by 10% on full_lp.  The seed sets the random-mechanism seeds
of the fuzz experiments, a new one per pass; the instances of the other
workloads are fixed grids and do not depend on it.  Only the library
call of an operation is timed.  Its output is then checked against
`references.json`, outside the timed region.

mechlab is imported inside functions, so that the measured set-up time
includes the import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import EXACT, UNITS, Stats, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REV_TOL = 1e-7
AUDIT_TOL = 1e-8

# name -> (domain, n, grid points); the grid is uniform on [0, 1]
INSTANCES = {
    "id2p8": ("identical", 2, 8),
    "id2p12": ("identical", 2, 12),
    "id2p24": ("identical", 2, 24),
    "id3p6": ("identical", 3, 6),
    "het3p4": ("heterogeneous", 3, 4),
    "id2p16": ("identical", 2, 16),  # ROADMAP Baseline ladder only (collect.py)
    # smoke sizes, used by the benchmark's own test
    "id2p4": ("identical", 2, 4),
    "id2p5": ("identical", 2, 5),
    "id2p6": ("identical", 2, 6),
    "het2p3": ("heterogeneous", 2, 3),
}

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    "lazy_ladder": [("lazy", "id2p12"), ("lazy", "het3p4"), ("lazy", "id3p6")],
    "full_lp": [("full", "id2p8"), ("export", "id2p24")],
    "experiments": None,  # every config file, see config_paths
}
SMOKE = {
    "lazy_ladder": [("lazy", "id2p5"), ("lazy", "het2p3")],
    "full_lp": [("full", "id2p4"), ("export", "id2p6")],
    "experiments": None,
}

# instance names that get per-instance metrics, whatever the workload
INSTANCE_NAMES = ("id2p12", "het3p4", "id3p6", "id2p8", "id2p24")

FUZZ_KINDS = ("certify_theorem1", "repair")

# Operations that fail at the seed because of a defect in the program.
# They still count as failed; they do not make the run incorrect.
KNOWN_FAILURES = {
    "bench/configs/deterministic_p8.json": (
        "cli._run_deterministic audits the menu mechanism with check_ic(tol=0.0), "
        "ignoring the kind's 1e-9 tolerance, so 1e-16 rounding slack reports "
        "asserted_ok false"
    ),
}


def load_references() -> dict:
    return json.loads((BENCH / "references.json").read_text())


def config_paths(smoke: bool) -> list[str]:
    paths = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "configs").glob("*.json"))
    if not smoke:
        paths += sorted(
            p.relative_to(ROOT).as_posix() for p in (BENCH / "configs").glob("*.json")
        )
    return paths


def build_instance(name: str):
    from mechlab.dist import uniform_distribution
    from mechlab.typespace import IDENTICAL, Grid, enumerate_hetero, enumerate_identical

    domain, n, points = INSTANCES[name]
    grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
    types = enumerate_identical(grid) if domain == IDENTICAL else enumerate_hetero(grid)
    return domain, types, uniform_distribution(types, domain)


def _revenue_problems(got: dict, ref: dict) -> list[str]:
    return [
        f"{field} {got[field]!r} is {abs(got[field] - want):.3g} from reference {want!r}"
        for field, want in ref.items()
        if abs(got[field] - want) > REV_TOL
    ]


def _audit_problems(mech, domain: str) -> list[str]:
    from mechlab.mech import check_feasible_identical, check_ic, check_ir

    checks = [check_ic, check_ir]
    if domain == "identical":
        checks.append(check_feasible_identical)
    return [
        f"{rep.check} audit fails by {rep.max_slack:.3g}"
        for rep in (check(mech, tol=AUDIT_TOL) for check in checks)
        if not rep.passed
    ]


class InstanceOp:
    """One library call on a named instance: `lazy` and `full` solve the
    revenue LP, `export` builds the full LP and renders it as LP text."""

    def __init__(self, kind: str, instance: str, ref: dict):
        self.kind = kind
        self.instance = instance
        self.key = f"{kind}:{instance}"
        self.ref = ref
        self.build()

    def build(self):
        self.domain, self.types, self.dist = build_instance(self.instance)

    def run(self, pass_seed: int):
        from mechlab import optlp

        if self.kind in ("lazy", "full"):
            return optlp.optimal_mechanism(self.types, self.dist, self.domain, mode=self.kind)
        lp = optlp.build_revenue_lp(self.types, self.dist, self.domain)
        return optlp.export_lp_text(lp, comment=f"revenue model, {len(self.types)} types")

    def check(self, result) -> list[str]:
        if self.kind == "export":
            digest = hashlib.sha256(result.encode()).hexdigest()
            if digest != self.ref["export_sha256"]:
                return [f"LP text sha256 {digest} differs from reference"]
            return []
        problems = _revenue_problems({"revenue": result.revenue}, self.ref)
        if result.mode != self.kind:
            problems.append(f"solved in mode {result.mode}")
        return problems + _audit_problems(result.mechanism, self.domain)


class ConfigOp:
    """One `cli.run_config` call on a config file, writing into a scratch
    directory inside the checkout.  Fuzz kinds get the pass seed."""

    def __init__(self, path: str, ref: dict, workdir: Path):
        self.key = path
        self.ref = ref
        self.out = workdir / path.replace("/", "_").removesuffix(".json")
        self.build()

    def build(self):
        from mechlab import cli

        self.cfg = cli.load_config(str(ROOT / self.key))

    def run(self, pass_seed: int):
        from mechlab import cli

        seed = pass_seed if self.cfg["kind"] in FUZZ_KINDS else None
        return cli.run_config(self.cfg, self.out, seed_override=seed)

    def check(self, ok) -> list[str]:
        from mechlab.mech import read_mechanism_csv

        try:
            problems = [] if ok else ["run_config returned not-ok"]
            summary = json.loads((self.out / "summary.json").read_text())
            problems += _revenue_problems(summary, self.ref)
            csv_path = self.out / "mechanism.csv"
            if csv_path.exists():
                kind = self.cfg["kind"]
                domain = "heterogeneous" if kind == "certify_theorem1" else self.cfg.get("domain", "identical")
                problems += _audit_problems(read_mechanism_csv(csv_path, domain), domain)
            return problems
        finally:
            shutil.rmtree(self.out, ignore_errors=True)


class Workload:
    def __init__(self, name: str, smoke: bool, refs: dict, workdir: Path):
        spec = (SMOKE if smoke else WORKLOADS)[name]
        if spec is None:
            self.ops = [ConfigOp(p, refs[p], workdir) for p in config_paths(smoke)]
        else:
            self.ops = [InstanceOp(kind, inst, refs[f"{kind}:{inst}"]) for kind, inst in spec]

    def rebuild(self):
        for op in self.ops:
            op.build()


def setup(name: str, smoke: bool, refs: dict, workdir: Path):
    """Import the library and build the workload's inputs; returns the
    workload and the seconds that took."""
    t0 = time.perf_counter()
    import mechlab

    if Path(mechlab.__file__).resolve().parent != (SRC / "mechlab").resolve():
        raise SystemExit(f"mechlab imported from {mechlab.__file__}, not from {SRC}")
    wl = Workload(name, smoke, refs, workdir)
    return wl, time.perf_counter() - t0


def run_op(op, pass_seed: int, tracer=None) -> dict:
    # an operation that raises, or whose output cannot be checked, failed
    t0 = time.perf_counter()
    try:
        result = op.run(pass_seed)
    except Exception as exc:
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        problems = [f"raised {exc!r}"]
    else:
        dt = time.perf_counter() - t0
        # the benchmark's own audits are not part of any layer's work
        if tracer is not None:
            counting, tracer.stats = tracer.stats, Stats()
        try:
            problems = op.check(result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {exc!r}"]
        finally:
            if tracer is not None:
                tracer.stats = counting
    known = op.key in KNOWN_FAILURES and problems == ["run_config returned not-ok"]
    return {"op": op.key, "seconds": dt, "problems": problems, "known": known}


def run_passes(wl: Workload, seed: int, seconds: float, tracer=None) -> list[dict]:
    """Run passes while the next one is expected to end within `seconds`
    (at least one).  Pass p has the same inputs in every run with this
    seed, traced or not."""
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        pass_seed = random.Random(f"{seed}:{len(passes)}").randrange(2**31)
        if tracer is not None:
            tracer.stats = Stats()
            wl.rebuild()
        results = [run_op(op, pass_seed, tracer) for op in wl.ops]
        passes.append(
            {
                "wall_s": sum(r["seconds"] for r in results),
                "ops": results,
                "stats": tracer.stats if tracer is not None else None,
            }
        )
        last = time.perf_counter() - t0
    return passes


def highs_problem(lp):
    """A revenue LP (maximize, every row `<=`) as scipy arrays: the cost
    to minimize, a sparse row matrix and the right-hand sides."""
    import numpy as np
    from scipy.sparse import coo_matrix

    rows, cols, vals = [], [], []
    for r, (coeffs, sense, _, _) in enumerate(lp.rows):
        if sense != "<=":
            raise ValueError(f"row {r} has sense {sense!r}")
        for j, c in coeffs.items():
            rows.append(r)
            cols.append(j)
            vals.append(c)
    A = coo_matrix((vals, (rows, cols)), shape=(len(lp.rows), lp.n_vars)).tocsr()
    return -np.asarray(lp.objective), A, np.asarray([rhs for _, _, rhs, _ in lp.rows])


def highs_seconds(wl: Workload) -> dict:
    """Time scipy's HiGHS on the full revenue LP of each LP instance: a
    reference column, outside every timed pass."""
    from scipy.optimize import linprog

    from mechlab.optlp import build_revenue_lp

    out = {}
    for op in wl.ops:
        if not isinstance(op, InstanceOp):
            continue
        lp = build_revenue_lp(op.types, op.dist, op.domain)
        c, A, b = highs_problem(lp)
        t0 = time.perf_counter()
        res = linprog(c, A_ub=A, b_ub=b, bounds=list(zip(lp.lower, lp.upper)), method="highs")
        out[op.instance] = time.perf_counter() - t0
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed on {op.instance}: {res.message}")
    return out


def layer_summary(untraced: list[dict], traced: list[dict], highs: dict) -> dict:
    """Per-layer metrics: exact counts from traced pass 0, whose inputs
    depend only on the seed; times as medians over traced passes."""
    per_pass = []
    for p in traced:
        m = layer_metrics(p["stats"], p["wall_s"])
        secs = {r["op"].split(":")[-1]: r["seconds"] for r in p["ops"]}
        for inst in INSTANCE_NAMES:
            m[f"optlp.solve_s.{inst}"] = secs.get(inst, 0.0)
        per_pass.append(m)
    values = {
        k: per_pass[0][k] if k in EXACT else statistics.median(m[k] for m in per_pass)
        for k in per_pass[0]
    }
    values["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(p["wall_s"] for p in untraced)
    for inst in INSTANCE_NAMES:
        values[f"ref.highs_s.{inst}"] = highs.get(inst, 0.0)
    units = {**UNITS, "trace.overhead_ratio": "ratio"}  # the rest are per-instance seconds
    return {k: {"value": v, "unit": units.get(k, "s")} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    refs = load_references()
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH))
    try:
        wl, setup_s = setup(args.workload, args.smoke, refs, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            untraced = run_passes(wl, args.seed, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(wl, args.seed, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics = layer_summary(untraced, traced, highs_seconds(wl))
        else:
            passes = run_passes(wl, args.seed, args.seconds)
            metrics = {}
        ops = [r for p in passes for r in p["ops"]]
        report = {
            "passes": len(passes),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "traced_passes": len(traced) if args.trace else 0,
            "attempted": len(ops),
            "failed": sum(1 for r in ops if r["problems"]),
            "incorrect": sum(1 for r in ops if r["problems"] and not r["known"]),
            "problems": sorted(
                {
                    f"{r['op']}: {pr}" + (f" (known: {KNOWN_FAILURES[r['op']]})" if r["known"] else "")
                    for r in ops
                    for pr in r["problems"]
                }
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "layers": metrics,
        }
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
