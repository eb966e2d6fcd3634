"""Command line front end.

Two subcommands::

    mechlab run CONFIG [--out DIR] [--tol X] [--seed N]
    mechlab export-lp CONFIG [--out DIR]

`run` executes the experiment described by a JSON config and writes
summary.json (canonical form: sorted keys, floats rendered with %.12g,
no timestamps, so reruns are byte-identical), audits.json, and, when the
run produces one, mechanism.csv and distribution.csv.

Every config value is read through one checked reader: numbers must be
finite, `tol` and `seed` nonnegative, and `--tol`/`--seed` are checked
like the fields they replace.

Exit codes: 0 all asserted checks passed, 1 an asserted check failed,
2 the config is invalid (the message names the offending field),
3 the solver failed (the offending model is dumped as model.lp when
available).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gen
from .dist import (
    Distribution,
    MarginalCdf,
    check_mcafee_mcmillan,
    density_grid,
    distribution_from_density,
    identical_distribution_from_density,
    iid_distribution,
    one_step_map,
    restrict_to_strict,
    table_distribution,
    to_identical_density,
    uniform_distribution,
)
from .mech import (
    AuditReport,
    _report,
    check_feasible_identical,
    check_ic,
    check_ir,
    write_mechanism_csv,
)
from .monotone import (
    is_almost_deterministic,
    lmax_repair,
    run_revenue_monotonicity_experiment,
)
from .optlp import (
    AUDIT_TOL,
    LpError,
    build_revenue_lp,
    certify_equivalence,
    lifted_bound,
    lp_text_chunks,
    optimal_deterministic,
    optimal_mechanism,
    optimal_symmetric_mechanism,
    optimal_uniform_price,
    uniform_price_mechanism,
    worst_case_revenue,
)
from .symmetry import certify_theorem1, symmetrize
from .typespace import (
    Grid,
    HETEROGENEOUS,
    IDENTICAL,
    enumerate_hetero,
    enumerate_identical,
    is_strict,
)

class ConfigError(ValueError):
    """Invalid config; the message names the field."""


# ---------------------------------------------------------------------------
# canonical JSON

def _render(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f) or math.isinf(f):
            raise ValueError("non-finite number in a report")
        return format(f, ".12g")
    if isinstance(obj, dict):
        items = sorted(((str(k), v) for k, v in obj.items()), key=lambda kv: kv[0])
        if len({k for k, _ in items}) != len(items):
            raise ValueError("keys collide after string conversion")
        parts = [f"{json.dumps(k, ensure_ascii=True)}:{_render(v)}" for k, v in items]
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(x) for x in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    raise TypeError(f"cannot render {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    return _render(obj) + "\n"


# ---------------------------------------------------------------------------
# config parsing

# field type -> (accepted JSON types, name in the error message); a bool
# is an int to Python but never an integer or a number to a config
_FIELD_TYPES = {
    bool: ((bool,), "a boolean"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    list: ((list,), "a list"),
    dict: ((dict,), "an object"),
}


def _take(cfg: dict, field: str, kinds, where: str = "", required: bool = True, default=None,
          minimum=None, choices=None):
    """Field `field` of `cfg` (labelled `where.field`) of type `kinds`, finite if a number,
    at least `minimum` and in `choices` if given; `default` if absent and not required."""
    label = f"{where}.{field}" if where else field
    if field not in cfg:
        if required:
            raise ConfigError(f"missing field '{label}'")
        return default
    val = cfg[field]
    accepted, name = _FIELD_TYPES[kinds]
    if not isinstance(val, accepted) or (isinstance(val, bool) and kinds is not bool):
        raise ConfigError(f"field '{label}' must be {name}")
    if kinds is float:
        val = float(val)
        if not math.isfinite(val):
            raise ConfigError(f"field '{label}' must be finite, got {val}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"field '{label}' must be at least {minimum}, got {val}")
    if choices is not None and val not in choices:
        raise ConfigError(f"field '{label}' must be one of {', '.join(choices)}; got {val!r}")
    return val


def _entries(cfg: dict, field: str, where: str) -> dict:
    """The entries of list field `field`, keyed by their labels."""
    return {f"{field}[{i}]": x for i, x in enumerate(_take(cfg, field, list, where))}


def _float_list(cfg: dict, field: str, where: str) -> list:
    entries = _entries(cfg, field, where)
    return [_take(entries, key, float, where) for key in entries]


@contextlib.contextmanager
def _field(name: str):
    """Report a ValueError raised while building from config field `name`
    as a config error naming the field; a ConfigError passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"field '{name}': {exc}") from exc


def _density(sub: dict, grid: Grid, where: str) -> np.ndarray:
    """The density named by config object `sub` (field `where`) on the grid."""
    expr = _take(sub, "expr", str, where)
    params = _take(sub, "params", dict, where, required=False, default={})
    params = {key: _take(params, key, float, f"{where}.params") for key in params}
    with _field(where):
        return density_grid(grid, expr, params)


def build_grid(cfg: dict) -> Grid:
    sub = _take(cfg, "grid", dict)
    n = _take(sub, "n", int, "grid")
    v_low = _take(sub, "v_low", float, "grid", required=False, default=0.0)
    v_high = _take(sub, "v_high", float, "grid", required=False, default=1.0)
    with _field("grid"):
        if "levels" in sub:
            levels = _float_list(sub, "levels", "grid")
            return Grid(n=n, levels=tuple(levels), v_low=v_low, v_high=v_high)
        points = _take(sub, "points", int, "grid")
        return Grid.uniform(n=n, v_low=v_low, v_high=v_high, points=points)


def _domain(cfg: dict) -> str:
    return _take(cfg, "domain", str, required=False, default=IDENTICAL,
                 choices=(IDENTICAL, HETEROGENEOUS))


def build_distribution(cfg: dict, grid: Grid, domain: str, strict_only: bool, types) -> Distribution:
    sub = _take(cfg, "distribution", dict)
    kind = _take(sub, "kind", str, "distribution", choices=("uniform", "iid", "table", "density"))
    with _field("distribution"):
        if kind == "uniform":
            return uniform_distribution(types, domain)
        if kind == "table":
            rows = _entries(sub, "types", "distribution")
            weights = _float_list(sub, "weights", "distribution")
            known = set(types)
            parsed = []
            for key in rows:
                point = tuple(_float_list(rows, key, "distribution"))
                if point not in known:
                    why = ("is tied, and strict_only leaves tied profiles out"
                           if strict_only and not is_strict(point) else "is not on the grid")
                    raise ConfigError(f"field 'distribution.{key}': {point} {why}")
                parsed.append(point)
            return table_distribution(parsed, weights, domain)
        if kind == "iid":
            pmf = _float_list(sub, "pmf", "distribution") if "pmf" in sub else [1 / grid.m] * grid.m
            if len(pmf) != grid.m:
                raise ConfigError(
                    f"field 'distribution.pmf' must have {grid.m} entries, got {len(pmf)}"
                )
            marg = MarginalCdf.from_pmf(grid.levels, pmf)
            if domain == HETEROGENEOUS:
                dist = iid_distribution(marg, grid.n)
            else:
                density = functools.reduce(np.multiply.outer, [np.asarray(pmf)] * grid.n)
                dist = identical_distribution_from_density(grid, density)
        else:
            density = _density(sub, grid, "distribution")
            if domain == HETEROGENEOUS:
                return distribution_from_density(grid, density, strict_only=strict_only)
            dist = identical_distribution_from_density(grid, density)
        return restrict_to_strict(dist) if strict_only else dist


def _g_avg(cfg: dict) -> MarginalCdf:
    sub = _take(cfg, "g_avg", dict)
    levels = _float_list(sub, "levels", "g_avg")
    pmf = _float_list(sub, "pmf", "g_avg")
    with _field("g_avg"):
        return MarginalCdf.from_pmf(levels, pmf)


def _enumerate(grid: Grid, domain: str, strict_only: bool) -> list:
    """The grid's types on the domain, which a strict-only run on fewer
    levels than objects leaves empty: a config error."""
    enumerate_types = enumerate_identical if domain == IDENTICAL else enumerate_hetero
    types = enumerate_types(grid, strict_only=strict_only)
    if not types:
        raise ConfigError(f"field 'grid': {grid.m} levels, no strict profile of {grid.n} objects")
    return types


def _model(cfg: dict, domain: str, strict_only: bool, prior: bool = True):
    """Grid, enumerated types and, with `prior`, the prior of a config on `domain`."""
    grid = build_grid(cfg)
    types = _enumerate(grid, domain, strict_only)
    dist = build_distribution(cfg, grid, domain, strict_only, types) if prior else None
    return grid, types, dist


def _solve_model(cfg: dict):
    """Domain, enumerated types and prior of a solve-shaped config."""
    domain = _domain(cfg)
    strict_only = _take(cfg, "strict_only", bool, required=False, default=False)
    _, types, dist = _model(cfg, domain, strict_only)
    return domain, types, dist


# ---------------------------------------------------------------------------
# artifacts

def write_distribution_csv(dist: Distribution, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"v{i+1}" for i in range(dist.n)] + ["weight"])
        for v, w in zip(dist.types, dist.weights):
            writer.writerow([format(x, ".17g") for x in v] + [format(float(w), ".17g")])


def _make_dir(out_dir: Path) -> None:
    """Create the output directory; a path that cannot be one (an
    existing file, no permission) is a config error naming --out."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {str(out_dir)!r} is not a usable directory: {exc}") from exc


def _write_model(out_dir: Path, types, dist: Distribution, domain: str, comment: str) -> Path:
    """Write the full revenue LP of a solve config as out_dir/model.lp."""
    lp = build_revenue_lp(types, dist, domain)
    _make_dir(out_dir)
    path = out_dir / "model.lp"
    with open(path, "w") as fh:
        fh.writelines(lp_text_chunks(lp, comment))
    return path


class RunOutput:
    """Accumulates the summary, audit reports, and file artifacts."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        _make_dir(out_dir)
        self.summary: dict = {}
        self.audits: list = []
        self.asserted: list = []

    def audit(self, report: AuditReport, asserted: bool = True) -> AuditReport:
        self.audits.append(report)
        if asserted:
            self.asserted.append(report)
        return report

    def write(self, mech=None, dist=None) -> None:
        """Write mechanism.csv and distribution.csv, each when given."""
        if mech is not None:
            write_mechanism_csv(mech, (self.out_dir / "mechanism.csv").as_posix())
        if dist is not None:
            write_distribution_csv(dist, self.out_dir / "distribution.csv")

    def finish(self) -> bool:
        ok = all(r.passed for r in self.asserted)
        # reports can share a name; the name passes only if all of them did
        checks = self.summary["checks"] = {}
        for r in self.audits:
            checks[r.check] = checks.get(r.check, True) and r.passed
        self.summary["asserted_ok"] = ok
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / "summary.json").write_text(canonical_json(self.summary))
        (self.out_dir / "audits.json").write_text(
            canonical_json([r.to_jsonable() for r in self.audits])
        )
        return ok


# ---------------------------------------------------------------------------
# run kinds

def _run_solve(cfg: dict, out: RunOutput, tol: float, seed: int) -> None:
    mode = _take(cfg, "mode", str, required=False, default="auto", choices=("auto", "full", "lazy"))
    domain, types, dist = _solve_model(cfg)
    try:
        res = optimal_mechanism(types, dist, domain, mode=mode)
    except LpError:
        _write_model(out.out_dir, types, dist, domain, "failed solve")
        raise
    mech = res.mechanism
    out.audit(check_ic(mech, tol=tol))
    out.audit(check_ir(mech, tol=tol))
    if domain == IDENTICAL:
        out.audit(check_feasible_identical(mech, tol=tol))
    out.summary.update(
        {
            "domain": domain,
            "n_types": len(types),
            "revenue": res.revenue,
            "lp": {
                "mode": res.mode,
                "rounds": res.rounds,
                "n_ic_rows": res.n_ic_rows,
                "iterations": sum(
                    r.trace.dual.iterations + r.trace.phase2.iterations for r in res.round_log
                ),
                "duality_gap": res.solution.duality_gap,
            },
        }
    )
    out.write(mech, dist)


def _run_equivalence(cfg: dict, out: RunOutput, tol: float, seed: int) -> None:
    grid, types_h, dist_h = _model(cfg, HETEROGENEOUS, True)
    with _field("distribution"):
        dist_i = to_identical_density(dist_h)
    types_i = _enumerate(grid, IDENTICAL, True)
    rep = certify_equivalence((types_i, dist_i), (types_h, dist_h), tol=tol)
    out.audit(rep)
    out.summary.update(
        {
            "n_types_identical": len(types_i),
            "n_types_heterogeneous": len(types_h),
            "revenue_identical": rep.info["revenue_identical"],
            "revenue_symmetric": rep.info["revenue_symmetric"],
            "revenue_bound": rep.info["revenue_bound"],
            "revenue_gap": abs(rep.info["revenue_identical"] - rep.info["revenue_symmetric"]),
        }
    )
    out.write(dist=dist_h)


def _run_theorem1(cfg: dict, out: RunOutput, tol: float, seed: int) -> None:
    sub = _take(cfg, "mechanism", dict)
    source = _take(sub, "kind", str, "mechanism", choices=("lp", "random"))
    grid, types_h, dist_h = _model(cfg, HETEROGENEOUS, True, prior=source == "lp")
    if source == "lp":
        res = optimal_symmetric_mechanism(types_h, dist_h)
        # reported, not asserted: a table prior need not be exchangeable
        out.summary.update({"revenue": res.revenue, "revenue_bound": lifted_bound(res, dist_h)[0]})
        mechs = [("lp_optimum", res.mechanism)]
    else:
        count = _take(sub, "count", int, "mechanism", required=False, default=20, minimum=1)
        rng = gen.rng_from_seed(seed)
        mechs = []
        for i in range(count):
            raw = gen.random_ic_heterogeneous(rng, grid, max_items=4, strict_only=True)
            mechs.append((f"random_{i}", symmetrize(raw)))
    rows = []
    for name, mech in mechs:
        rep = certify_theorem1(mech, tol=tol)
        out.audit(rep)
        rows.append(
            {
                "name": name,
                "equivalence_holds": rep.passed,
                "ic": rep.info["ic_global"].passed,
                "rank_preserving": rep.info["rank_preserving"].passed,
                "ic_on_cells": rep.info["ic_on_cells"].passed,
            }
        )
    out.summary.update(
        {
            "n_mechanisms": len(rows),
            "mechanisms": rows,
            "seed": seed,
        }
    )
    out.write(mechs[-1][1])


def _run_robust(cfg: dict, out: RunOutput, tol: float, seed: int) -> None:
    n = _take(cfg, "n", int, minimum=1)
    g = _g_avg(cfg)
    price = _take(cfg, "price", float, required=False)
    if price is None:
        price, revenue = optimal_uniform_price(g, n)
    else:
        revenue = n * price * g.mass_at_or_above(price)
    with _field("g_avg"):
        grid = Grid(n=n, levels=g.levels, v_low=0.0, v_high=g.levels[-1])
    types = enumerate_identical(grid)
    mech = uniform_price_mechanism(types, price, IDENTICAL)
    wc_min, dist_min, _ = worst_case_revenue(mech, g, sense="min")
    wc_max, _, _ = worst_case_revenue(mech, g, sense="max")
    violations = []
    if abs(wc_min - revenue) > tol:
        violations.append((("worst_case_vs_formula", wc_min, revenue), abs(wc_min - revenue)))
    if abs(wc_max - wc_min) > tol:
        violations.append((("revenue_not_flat", wc_min, wc_max), abs(wc_max - wc_min)))
    rep = _report(
        "robust_uniform_price", violations, info={"price": price, "formula_revenue": revenue}
    )
    out.audit(rep)
    # payments are fl(k * price), so audits can see one rounding of noise
    out.audit(check_ic(mech, tol=1e-12))
    out.audit(check_ir(mech, tol=1e-12))
    out.summary.update(
        {
            "n": n,
            "price": price,
            "formula_revenue": revenue,
            "worst_case_min": wc_min,
            "worst_case_max": wc_max,
        }
    )
    out.write(mech, dist_min)


def _run_monotonicity(cfg: dict, out: RunOutput, tol: float, seed: int) -> None:
    grid = build_grid(cfg)
    sub = _take(cfg, "density", dict)
    density = _density(sub, grid, "density")
    with _field("density"):
        mm = check_mcafee_mcmillan(density, grid)
        dist = identical_distribution_from_density(grid, density)
    out.audit(mm, asserted=False)
    res = optimal_mechanism(list(dist.types), dist, IDENTICAL)
    ad = is_almost_deterministic(res.mechanism)
    out.audit(ad, asserted=False)
    shift = one_step_map(grid.levels)
    exp = run_revenue_monotonicity_experiment(res.mechanism, dist, shift)
    out.audit(exp)
    out.summary.update(
        {
            "density_condition_holds": mm.passed,
            "density_min_value": mm.info["min_value"],
            "revenue": res.revenue,
            "almost_deterministic": ad.passed,
            "revenue_before": exp.info["revenue_before"],
            "revenue_after": exp.info["revenue_after"],
            "revenue_delta": exp.info["delta"],
            "increase_asserted": exp.info["asserted"],
            "assertion_reason": exp.info["reason"],
        }
    )
    out.write(res.mechanism, dist)


def _run_repair(cfg: dict, out: RunOutput, tol: float, seed: int) -> None:
    grid = build_grid(cfg)
    count = _take(cfg, "count", int, required=False, default=20, minimum=0)
    ad_count = _take(cfg, "almost_det_count", int, required=False, default=0, minimum=0)
    rng = gen.rng_from_seed(seed)
    drift = 0.0
    failures = []
    last = None
    for i in range(count + ad_count):
        almost = i >= count
        mech = gen.random_ic_identical(
            rng, grid, max_items=3, almost_deterministic=almost
        )
        fixed = lmax_repair(mech, almost_deterministic=almost)
        last = fixed
        label = f"{'ad' if almost else 'flat'}_{i}"
        for rep in (
            check_ic(fixed, tol=tol),
            check_ir(fixed, tol=tol),
            check_feasible_identical(fixed, tol=tol),
        ):
            if not rep.passed:
                failures.append(((label, rep.check), rep.max_slack))
        du = float(np.max(np.abs(fixed.utilities() - mech.utilities())))
        drift = max(drift, du)
        if du > 1e-10:
            failures.append(((label, "utility_drift"), du))
    rep = _report(
        "repair_fuzz",
        failures,
        info={"count": count, "almost_det_count": ad_count, "max_utility_drift": drift},
    )
    out.audit(rep)
    out.summary.update(
        {
            "count": count,
            "almost_det_count": ad_count,
            "max_utility_drift": drift,
            "seed": seed,
        }
    )
    if last is not None:
        out.write(last)


def _run_deterministic(cfg: dict, out: RunOutput, tol: float, seed: int) -> None:
    domain, types, dist = _solve_model(cfg)
    det = optimal_deterministic(types, dist, domain)
    lp = optimal_mechanism(types, dist, domain)
    gap = lp.revenue - det.revenue
    violations = []
    if gap < -1e-7:
        violations.append((("deterministic_above_lp", det.revenue, lp.revenue), -gap))
    rep = _report(
        "deterministic_vs_lp",
        violations,
        info={"revenue_deterministic": det.revenue, "revenue_lp": lp.revenue},
    )
    out.audit(rep)
    out.audit(check_ic(det.mechanism, tol=0.0))
    out.audit(check_ir(det.mechanism, tol=0.0))
    out.summary.update(
        {
            "domain": domain,
            "revenue": det.revenue,
            "lp_revenue": lp.revenue,
            "lp_gap": gap,
            "n_menus_searched": det.n_menus_searched,
            "n_optimal_menus": len(det.optimal_menus),
        }
    )
    out.write(det.mechanism, dist)


# kind -> (runner, default audit tolerance); the order is the one the
# unknown-kind message lists
RUNS = {
    "solve": (_run_solve, AUDIT_TOL),
    "certify_equivalence": (_run_equivalence, 1e-7),
    "certify_theorem1": (_run_theorem1, 1e-9),
    "robust": (_run_robust, 1e-8),
    "monotonicity": (_run_monotonicity, 1e-9),
    "repair": (_run_repair, 1e-9),
    "deterministic": (_run_deterministic, 1e-9),
}


# ---------------------------------------------------------------------------
# drivers

def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def run_config(cfg: dict, out_dir: Path, tol_override=None, seed_override=None) -> bool:
    kind = _take(cfg, "kind", str, choices=RUNS)
    runner, default_tol = RUNS[kind]
    # an override is checked as the field it replaces
    tol = _take(cfg if tol_override is None else {"tol": tol_override}, "tol", float,
                required=False, default=default_tol, minimum=0.0)
    seed = _take(cfg if seed_override is None else {"seed": seed_override}, "seed", int,
                 required=False, default=0, minimum=0)
    out = RunOutput(out_dir)
    out.summary["kind"] = kind
    runner(cfg, out, tol, seed)
    return out.finish()


def export_config(cfg: dict, out_dir: Path) -> Path:
    kind = _take(cfg, "kind", str)
    if kind != "solve":
        raise ConfigError(f"field 'kind': export-lp supports only 'solve', got {kind!r}")
    domain, types, dist = _solve_model(cfg)
    return _write_model(out_dir, types, dist, domain, f"revenue model, {len(types)} types")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechlab",
        description="Solve, certify, and stress-test multi-object selling mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a JSON experiment config")
    run.add_argument("config", help="path to the JSON config")
    run.add_argument("--out", default=None, help="output directory (default: <config stem>_out)")
    run.add_argument("--tol", type=float, default=None, help="override the config tolerance")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    exp = sub.add_parser("export-lp", help="write the revenue model in LP text form")
    exp.add_argument("config", help="path to the JSON config (kind 'solve')")
    exp.add_argument("--out", default=None, help="output directory (default: <config stem>_out)")
    return parser


def _default_out(config_path: str) -> Path:
    p = Path(config_path)
    return p.parent / (p.stem + "_out")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else _default_out(args.config)
        if args.command == "export-lp":
            path = export_config(cfg, out_dir)
            print(f"wrote {path}")
            return 0
        ok = run_config(
            cfg, out_dir, tol_override=args.tol, seed_override=args.seed
        )
        status = "ok" if ok else "FAILED"
        print(f"{cfg['kind']}: {status} (outputs in {out_dir})")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LpError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
