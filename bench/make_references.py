"""Compute the reference outputs in references.json.

    python3 bench/make_references.py

Revenues come from scipy's HiGHS, an independent solver: the LP optimum
on the full revenue LP (every truthfulness row), and the deterministic
optimum as the same model with 0/1 allocations (a MILP).  The LP export
reference is the sha256 of the text the library writes today, so any
change to `model.lp` bytes shows.  Each value is compared with mechlab's
own answer before it is written, and the script refuses to write a file
whose values disagree with mechlab by more than 1e-9.  It is never run
inside a timed benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from workloads import (
    BENCH,
    ROOT,
    SMOKE,
    WORKLOADS,
    InstanceOp,
    build_instance,
    config_paths,
    highs_problem,
)

from mechlab import cli, optlp
from mechlab.dist import density_grid, identical_distribution_from_density, to_identical_density
from mechlab.typespace import HETEROGENEOUS, IDENTICAL, Grid, enumerate_hetero, enumerate_identical

AGREE_TOL = 1e-9


def _highs(lp: optlp.LinearProgram, integer_q: int = 0) -> float:
    """Maximize a revenue LP with HiGHS; the first `integer_q` variables
    are restricted to 0/1."""
    c, A, b = highs_problem(lp)
    if integer_q:
        integrality = np.zeros(lp.n_vars)
        integrality[:integer_q] = 1
        res = milp(
            c,
            constraints=LinearConstraint(A, -np.inf, b),
            integrality=integrality,
            bounds=Bounds(lp.lower, lp.upper),
        )
    else:
        res = linprog(c, A_ub=A, b_ub=b, bounds=list(zip(lp.lower, lp.upper)), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(-res.fun)


def lp_revenue(types, dist, domain) -> float:
    return _highs(optlp.build_revenue_lp(types, dist, domain))


def deterministic_revenue(types, dist, domain) -> float:
    return _highs(optlp.build_revenue_lp(types, dist, domain), integer_q=len(types) * len(types[0]))


def worst_case(types, t, g_avg, sense) -> float:
    """Expected payment t over distributions on `types` with average marginal g_avg."""
    n = len(types[0])
    pmf = dict(zip(g_avg.levels, g_avg.pmf()))
    levels = sorted({x for v in types for x in v} | set(g_avg.levels))
    A_eq = [np.ones(len(types))]
    b_eq = [1.0]
    for lv in levels:
        A_eq.append([sum(1 for x in v if x == lv) / n for v in types])
        b_eq.append(float(pmf.get(lv, 0.0)))
    c = np.asarray(t) if sense == "min" else -np.asarray(t)
    res = linprog(c, A_eq=np.asarray(A_eq), b_eq=b_eq, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(res.fun if sense == "min" else -res.fun)


def instance_reference(kind: str, name: str) -> dict:
    domain, types, dist = build_instance(name)
    if kind in ("lazy", "full"):
        return {"revenue": lp_revenue(types, dist, domain)}
    lp = optlp.build_revenue_lp(types, dist, domain)
    text = optlp.export_lp_text(lp, comment=f"revenue model, {len(types)} types")
    return {"export_sha256": hashlib.sha256(text.encode()).hexdigest()}


def _types_dist(cfg):
    grid = cli.build_grid(cfg)
    domain = cli._domain(cfg)
    strict_only = cfg.get("strict_only", False)
    types = (enumerate_identical if domain == IDENTICAL else enumerate_hetero)(grid, strict_only=strict_only)
    return domain, types, cli.build_distribution(cfg, grid, domain, strict_only, types)


def config_reference(cfg: dict) -> dict:
    kind = cfg["kind"]
    if kind == "solve":
        domain, types, dist = _types_dist(cfg)
        return {"revenue": lp_revenue(types, dist, domain)}
    if kind == "deterministic":
        domain, types, dist = _types_dist(cfg)
        return {
            "revenue": deterministic_revenue(types, dist, domain),
            "lp_revenue": lp_revenue(types, dist, domain),
        }
    if kind == "certify_equivalence":
        grid = cli.build_grid(cfg)
        types_h = enumerate_hetero(grid, strict_only=True)
        dist_h = cli.build_distribution(cfg, grid, HETEROGENEOUS, True, types_h)
        dist_i = to_identical_density(dist_h)
        rev = lp_revenue(enumerate_identical(grid, strict_only=True), dist_i, IDENTICAL)
        return {"revenue_identical": rev, "revenue_symmetric": rev}
    if kind == "monotonicity":
        grid = cli.build_grid(cfg)
        density = density_grid(grid, cfg["density"]["expr"], cfg["density"].get("params", {}))
        dist = identical_distribution_from_density(grid, density)
        rev = lp_revenue(list(dist.types), dist, IDENTICAL)
        return {"revenue": rev, "revenue_before": rev}
    if kind == "robust":
        g = cli._g_avg(cfg)
        n = cfg["n"]
        price, formula = max(
            ((p, n * p * g.mass_at_or_above(p)) for p in g.levels), key=lambda pr: pr[1]
        )
        grid = Grid(n=n, levels=g.levels, v_low=min(0.0, g.levels[0]), v_high=g.levels[-1])
        types = enumerate_identical(grid)
        t = [price * sum(x >= price for x in v) for v in types]
        return {
            "formula_revenue": formula,
            "worst_case_min": worst_case(types, t, g, "min"),
            "worst_case_max": worst_case(types, t, g, "max"),
        }
    return {}


def mechlab_value(key: str, field: str, tmp: Path):
    """mechlab's own answer for one reference field."""
    if key in INSTANCE_KEYS:
        kind, name = key.split(":")
        return InstanceOp(kind, name, {}).run(0).revenue
    cfg = cli.load_config(str(ROOT / key))
    out = tmp / key.replace("/", "_")
    cli.run_config(cfg, out)
    return json.loads((out / "summary.json").read_text())[field]


INSTANCE_KEYS = sorted(
    f"{kind}:{name}"
    for spec in (WORKLOADS, SMOKE)
    for ops in spec.values()
    if ops is not None
    for kind, name in ops
)


def main() -> int:
    refs = {key: instance_reference(*key.split(":")) for key in INSTANCE_KEYS}
    for path in config_paths(smoke=False):
        refs[path] = config_reference(cli.load_config(str(ROOT / path)))
    worst = 0.0
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for key, fields in refs.items():
            for field, want in fields.items():
                if field == "export_sha256":
                    continue
                got = mechlab_value(key, field, Path(tmp))
                diff = abs(got - want)
                worst = max(worst, diff)
                print(f"{key:45s} {field:16s} highs {want!r:22} mechlab {got!r:22} diff {diff:.2g}")
    if worst > AGREE_TOL:
        print(f"mechlab and HiGHS disagree by {worst:.3g} > {AGREE_TOL}; not writing", file=sys.stderr)
        return 1
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BENCH / 'references.json'} ({len(refs)} entries, worst difference {worst:.2g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
