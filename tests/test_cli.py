"""Driver behavior: exit codes, artifacts, canonical output, rerun identity."""

import dataclasses
import functools
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mechlab import cli, optlp, simplex
from mechlab.mech import AuditReport
from mechlab.optlp import LpError

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


SOLVE_SINGLE = {
    "kind": "solve",
    "domain": "identical",
    "grid": {"n": 1, "points": 3, "v_low": 0.0, "v_high": 1.0},
    "distribution": {"kind": "uniform"},
    "mode": "full",
}


# ---------------------------------------------------------------------------
# canonical JSON

def test_canonical_json_sorts_keys_and_formats_floats():
    text = cli.canonical_json({"b": 1 / 3, "a": [True, None, 2], "c": "x"})
    assert text == '{"a":[true,null,2],"b":0.333333333333,"c":"x"}\n'


def test_canonical_json_handles_numpy_scalars():
    text = cli.canonical_json({"v": np.float64(0.25), "k": np.int64(3)})
    assert text == '{"k":3,"v":0.25}\n'


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        cli.canonical_json({"x": math.inf})


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        cli.canonical_json({"x": object()})


# ---------------------------------------------------------------------------
# run: happy paths

def test_solve_single_unit(tmp_path):
    cfg = write_config(tmp_path, SOLVE_SINGLE)
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["revenue"] - 1.0 / 3.0) < 1e-9
    assert summary["asserted_ok"] is True
    assert summary["checks"]["ic"] is True
    for name in ("summary.json", "audits.json", "mechanism.csv", "distribution.csv"):
        assert (out / name).is_file()


def test_solve_reports_the_pivots_of_every_lazy_round(tmp_path, monkeypatch):
    solves = []
    solve = simplex.solve_simplex

    def recording(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(simplex, "solve_simplex", recording)
    grid = {"n": 2, "points": 12, "v_low": 0.0, "v_high": 1.0}
    payload = dict(SOLVE_SINGLE, grid=grid, mode="lazy")
    out = tmp_path / "out"
    assert cli.main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
    lp = json.loads((out / "summary.json").read_text())["lp"]
    assert lp["rounds"] == len(solves) > 1
    assert lp["iterations"] == sum(sol.iterations for sol in solves) > solves[-1].iterations


def test_every_lp_enters_the_solver_through_solve_lp(tmp_path, monkeypatch):
    # one boundary: each simplex call is one `optlp.solve_lp` call, for the
    # repair's subgradient LPs as for the revenue, worst-case and orbit LPs
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(simplex, "solve_simplex")
    count(optlp, "solve_lp")
    grid = {"n": 2, "points": 3}
    payloads = [
        {"kind": "repair", "grid": {"n": 3, "points": 3}, "count": 2},
        dict(SOLVE_SINGLE, domain="heterogeneous", grid=grid, mode="lazy"),
        {"kind": "robust", "n": 2, "g_avg": {"levels": [0.2, 0.8], "pmf": [0.5, 0.5]}},
        {"kind": "certify_equivalence", "grid": grid, "distribution": {"kind": "uniform"}},
    ]
    for i, payload in enumerate(payloads):
        before = calls["solve_lp"]
        cfg = write_config(tmp_path, payload, f"{i}.json")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / str(i))]) == 0
        assert calls["solve_simplex"] == calls["solve_lp"] > before, payload["kind"]


def test_repair_solve_counts(tmp_path, monkeypatch):
    # an n = 2 repair selects in closed form and builds no LP; an n = 3
    # one solves one block LP (coordinate 0) per mechanism, whose 10
    # polytopes of 11 rows fit one block, and the almost-deterministic
    # ones none
    real_solve = simplex.solve_simplex
    calls = []
    monkeypatch.setattr(
        simplex, "solve_simplex", lambda *a, **k: calls.append(1) or real_solve(*a, **k)
    )
    assert cli.run_config(json.loads((REPO_ROOT / "configs" / "repair_fuzz.json").read_text()),
                          tmp_path / "n2")
    assert len(calls) == 0
    cfg = {"kind": "repair", "grid": {"n": 3, "points": 3}, "count": 30, "almost_det_count": 10}
    assert cli.run_config(cfg, tmp_path / "n3")
    assert len(calls) == cfg["count"]


# sha256 of the repair artifacts at seed 0: an n = 2 run (closed form
# only) and an n = 3 one (block LPs too); the selection rules are
# deterministic, so a rewrite of the repair must keep every byte
REPAIR_CONFIGS = {
    "repair_fuzz.json": json.loads((REPO_ROOT / "configs" / "repair_fuzz.json").read_text()),
    "repair_n3": {
        "kind": "repair", "grid": {"n": 3, "points": 3}, "count": 30, "almost_det_count": 10,
    },
}
REPAIR_SHA256 = {
    "repair_fuzz.json": {
        "summary.json": "c815d30b71b7b4800f1c8bdf850ae049f78775bbda8d421bb312e6ed766b4dfa",
        "mechanism.csv": "62bdd864fb5eab971062550de8ef38db407addc65720ef73ae6f9826d1e7c674",
    },
    "repair_n3": {
        "summary.json": "50c0b5be5e61d93ddd5a19be66c142344cd2c282438677950bc26d0226b9f8a4",
        "mechanism.csv": "accd60c44f76eb9c76b679be5f5038ca127531e7d725c78aa7df3a33e5aaad50",
    },
}


@pytest.mark.parametrize("name", sorted(REPAIR_SHA256))
def test_repair_artifacts_are_pinned(tmp_path, name):
    cfg = write_config(tmp_path, REPAIR_CONFIGS[name])
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out), "--seed", "0"]) == 0
    for artifact, digest in REPAIR_SHA256[name].items():
        assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest, artifact


def test_solve_writes_parseable_audits(tmp_path):
    cfg = write_config(tmp_path, SOLVE_SINGLE)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    audits = json.loads((out / "audits.json").read_text())
    assert {a["check"] for a in audits} == {"ic", "ir", "feasible_identical"}
    assert all(a["passed"] for a in audits)


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO_ROOT / "configs").glob("*.json")))
def test_rerun_is_byte_identical(tmp_path, name):
    # every file of both output trees, for every shipped config
    cfg = REPO_ROOT / "configs" / name
    trees = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        trees.append({str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()})
    assert trees[0] and trees[0] == trees[1]


def test_monotonicity_at_24_points(tmp_path):
    # bench/configs/monotonicity_p8.json at 24 points: solved from the
    # no-sale vertex, its revenue LP stopped on a singular basis (exit 3).
    # HiGHS on the full LP gives 0.43228433032149133.
    payload = {
        "kind": "monotonicity",
        "grid": {"n": 2, "points": 24},
        "density": {"expr": "exp_rate", "params": {"a": 1.0}},
    }
    out = tmp_path / "out"
    assert cli.main(["run", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["revenue"] == pytest.approx(0.43228433032149133, abs=1e-9)


def test_robust_two_level(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "kind": "robust",
            "n": 2,
            "g_avg": {"levels": [0.2, 0.8], "pmf": [0.5, 0.5]},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["price"] == 0.8
    assert abs(summary["worst_case_min"] - 0.8) < 1e-8
    assert abs(summary["worst_case_max"] - 0.8) < 1e-8


def test_theorem1_random_fuzz(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "kind": "certify_theorem1",
            "grid": {"n": 2, "levels": [0.2, 0.6, 0.9], "v_low": 0.0, "v_high": 1.0},
            "mechanism": {"kind": "random", "count": 5},
            "seed": 3,
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_mechanisms"] == 5
    assert all(row["equivalence_holds"] for row in summary["mechanisms"])


def test_theorem1_lp_reports_the_lifted_bound(tmp_path):
    # the symmetric optimum under an exchangeable prior: its revenue and
    # the lifted bound on the unrestricted LP close on each other
    cfg = {
        "kind": "certify_theorem1",
        "grid": {"n": 2, "points": 5},
        "distribution": {"kind": "iid"},
        "mechanism": {"kind": "lp"},
    }
    out = tmp_path / "out"
    assert cli.run_config(cfg, out)
    summary = json.loads((out / "summary.json").read_text())
    assert [row["equivalence_holds"] for row in summary["mechanisms"]] == [True]
    assert -1e-9 <= summary["revenue_bound"] - summary["revenue"] <= 1e-7


def test_seed_override_changes_fuzz_stream(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "kind": "repair",
            "grid": {"n": 2, "points": 3, "v_low": 0.0, "v_high": 1.0},
            "count": 2,
            "seed": 1,
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["run", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["seed"] == 1 and s2["seed"] == 2


def test_deterministic_kind(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "kind": "deterministic",
            "grid": {"n": 2, "points": 3, "v_low": 0.0, "v_high": 1.0},
            "distribution": {"kind": "iid"},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["revenue"] <= summary["lp_revenue"] + 1e-7
    assert summary["n_menus_searched"] >= 1


def test_default_out_dir_next_to_config(tmp_path):
    cfg = write_config(tmp_path, SOLVE_SINGLE, name="exp.json")
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "exp_out" / "summary.json").is_file()


# ---------------------------------------------------------------------------
# run: exit codes and diagnostics

def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.json")])
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_invalid_json_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(json.dumps(SOLVE_SINGLE).encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config is not UTF-8 text: ")


@pytest.mark.parametrize("command", ["run", "export-lp"])
def test_out_on_a_file_is_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, SOLVE_SINGLE)
    out = tmp_path / "taken"
    out.write_text("a file")
    assert cli.main([command, str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out {str(out)!r} is not a usable directory: "), err
    assert out.read_text() == "a file"


def test_missing_kind_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"grid": {"n": 1, "points": 3}})
    assert cli.main(["run", str(cfg)]) == 2
    assert "'kind'" in capsys.readouterr().err


def test_unknown_kind_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "frobnicate"})
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: field 'kind' must be one of solve, certify_equivalence, "
        "certify_theorem1, robust, monotonicity, repair, deterministic; got 'frobnicate'\n"
    )


def test_missing_grid_n_names_the_field(tmp_path, capsys):
    bad = dict(SOLVE_SINGLE, grid={"points": 3})
    cfg = write_config(tmp_path, bad)
    assert cli.main(["run", str(cfg)]) == 2
    assert "'grid.n'" in capsys.readouterr().err


def test_wrong_pmf_length_names_the_field(tmp_path, capsys):
    bad = dict(SOLVE_SINGLE, distribution={"kind": "iid", "pmf": [0.5, 0.5]})
    cfg = write_config(tmp_path, bad)
    assert cli.main(["run", str(cfg)]) == 2
    assert "'distribution.pmf'" in capsys.readouterr().err


def test_off_grid_table_type_names_the_entry(tmp_path, capsys):
    bad = dict(
        SOLVE_SINGLE,
        distribution={"kind": "table", "types": [[0.3]], "weights": [1.0]},
    )
    cfg = write_config(tmp_path, bad)
    assert cli.main(["run", str(cfg)]) == 2
    assert "'distribution.types[0]'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "point, why",
    [
        ([1.0, 1.0], "(1.0, 1.0) is tied, and strict_only leaves tied profiles out"),
        ([0.3, 1.0], "(0.3, 1.0) is not on the grid"),
    ],
    ids=["tied", "off_grid"],
)
def test_strict_only_table_type_names_the_reason(tmp_path, capsys, point, why):
    # (1.0, 1.0) is a grid point, but not one of the strict-only types
    payload = dict(
        SOLVE_SINGLE, domain="heterogeneous", strict_only=True, grid={"n": 2, "points": 3},
        distribution={"kind": "table", "types": [point, [0.0, 1.0]], "weights": [0.5, 0.5]},
    )
    assert cli.main(["run", str(write_config(tmp_path, payload))]) == 2
    assert capsys.readouterr().err == f"config error: field 'distribution.types[0]': {why}\n"


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"grid": {"n": "2", "points": 3}}, "field 'grid.n' must be an integer"),
        ({"grid": {"n": True, "points": 3}}, "field 'grid.n' must be an integer"),
        ({"grid": {"n": 1, "points": 3, "v_low": True}}, "field 'grid.v_low' must be a number"),
        ({"strict_only": 1}, "field 'strict_only' must be a boolean"),
        ({"domain": 3}, "field 'domain' must be a string"),
        ({"grid": {"n": 1, "levels": 3}}, "field 'grid.levels' must be a list"),
        ({"distribution": []}, "field 'distribution' must be an object"),
    ],
    ids=["int_as_str", "int_as_bool", "number_as_bool", "bool", "str", "list", "object"],
)
def test_wrong_field_type_names_the_field(tmp_path, capsys, patch, message):
    cfg = write_config(tmp_path, dict(SOLVE_SINGLE, **patch))
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_bad_mode_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SOLVE_SINGLE, mode="warp"))
    assert cli.main(["run", str(cfg)]) == 2
    assert "'mode'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [
        dict(SOLVE_SINGLE, domain="heterogeneous", strict_only=True),
        dict(SOLVE_SINGLE, kind="deterministic", strict_only=True),
        {"kind": "certify_equivalence", "distribution": {"kind": "uniform"}},
        {"kind": "certify_theorem1", "mechanism": {"kind": "random", "count": 2}},
    ],
    ids=["solve", "deterministic", "certify_equivalence", "certify_theorem1"],
)
def test_grid_without_strict_profiles_names_the_grid(tmp_path, capsys, payload):
    # fewer levels than objects: a strict-only run has no types to work on
    cfg = write_config(tmp_path, dict(payload, grid={"n": 3, "points": 2}))
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: field 'grid': 2 levels, no strict profile of 3 objects\n"
    )


@pytest.mark.parametrize(
    "levels, pmf, message",
    [
        ([-0.5, 0.5], [0.5, 0.5], "levels outside [v_low, v_high]"),
        ([0.7], [1.0], "grid needs at least 2 levels"),
    ],
    ids=["negative", "single"],
)
def test_robust_levels_off_the_grid_name_g_avg(tmp_path, capsys, levels, pmf, message):
    payload = {"kind": "robust", "n": 2, "g_avg": {"levels": levels, "pmf": pmf}}
    assert cli.main(["run", str(write_config(tmp_path, payload))]) == 2
    assert capsys.readouterr().err == f"config error: field 'g_avg': {message}\n"


ROBUST = {"kind": "robust", "n": 2, "g_avg": {"levels": [0.2, 0.8], "pmf": [0.5, 0.5]}}
MONOTONICITY = {
    "kind": "monotonicity",
    "grid": {"n": 2, "points": 4},
    "density": {"expr": "exp_rate", "params": {"a": 1.0}},
}


@pytest.mark.parametrize(
    "payload, message",
    [
        (dict(SOLVE_SINGLE, tol=math.nan), "field 'tol' must be finite, got nan"),
        (dict(SOLVE_SINGLE, tol=math.inf), "field 'tol' must be finite, got inf"),
        (dict(SOLVE_SINGLE, tol=-1e-9), "field 'tol' must be at least 0.0, got -1e-09"),
        ({"kind": "repair", "grid": {"n": 2, "points": 3}, "seed": -1}, "field 'seed' must be at least 0, got -1"),
        (
            dict(SOLVE_SINGLE, grid={"n": 1, "levels": [0.0, math.nan, 1.0]}),
            "field 'grid.levels[1]' must be finite, got nan",
        ),
        (
            dict(SOLVE_SINGLE, distribution={"kind": "iid", "pmf": [0.5, math.nan, 0.5]}),
            "field 'distribution.pmf[1]' must be finite, got nan",
        ),
        (
            dict(SOLVE_SINGLE, distribution={"kind": "table", "types": [[0.5], [1.0]], "weights": [math.nan, 1.0]}),
            "field 'distribution.weights[0]' must be finite, got nan",
        ),
        (
            dict(SOLVE_SINGLE, distribution={"kind": "table", "types": [[0.5, "x"]], "weights": [1.0]}),
            "field 'distribution.types[0][1]' must be a number",
        ),
        (
            dict(ROBUST, g_avg={"levels": [0.2, 0.8], "pmf": [math.nan, 1.0]}),
            "field 'g_avg.pmf[0]' must be finite, got nan",
        ),
        (
            dict(ROBUST, g_avg={"levels": [0.2, math.inf], "pmf": [0.5, 0.5]}),
            "field 'g_avg.levels[1]' must be finite, got inf",
        ),
        (dict(ROBUST, price=math.nan), "field 'price' must be finite, got nan"),
        (dict(ROBUST, n=0), "field 'n' must be at least 1, got 0"),
        (
            dict(MONOTONICITY, density={"expr": "exp_rate", "params": {"a": "x"}}),
            "field 'density.params.a' must be a number",
        ),
        (
            dict(MONOTONICITY, density={"expr": "exp_rate", "params": {"a": math.nan}}),
            "field 'density.params.a' must be finite, got nan",
        ),
        pytest.param(
            # exp(1000 (v1 + v2)) overflows, so the normalized weights are NaN
            dict(MONOTONICITY, density={"expr": "exp_rate", "params": {"a": -1000.0}}),
            "field 'density': types and weights must be finite",
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
        (
            dict(SOLVE_SINGLE, distribution={"kind": "density", "expr": "beta", "params": {"a": math.nan}}),
            "field 'distribution.params.a' must be finite, got nan",
        ),
        (
            dict(SOLVE_SINGLE, distribution={"kind": "density", "expr": "beta", "params": {"b": []}}),
            "field 'distribution.params.b' must be a number",
        ),
        (dict(SOLVE_SINGLE, mode="warp"), "field 'mode' must be one of auto, full, lazy; got 'warp'"),
        (
            {"kind": "certify_theorem1", "grid": {"n": 2, "points": 3}, "mechanism": {"kind": "random", "count": 0}},
            "field 'mechanism.count' must be at least 1, got 0",
        ),
    ],
    ids=[
        "tol_nan", "tol_inf", "tol_negative", "seed_negative", "levels_nan", "pmf_nan", "weights_nan",
        "table_type_str", "g_avg_pmf_nan", "g_avg_level_inf", "price_nan", "n_zero", "density_param_str",
        "density_param_nan", "density_overflow", "distribution_param_nan", "distribution_param_list",
        "mode", "mechanism_count",
    ],
)
def test_invalid_value_names_the_field(tmp_path, capsys, payload, message):
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "field 'tol' must be finite, got nan"),
        ("--tol", "-1", "field 'tol' must be at least 0.0, got -1.0"),
        ("--seed", "-1", "field 'seed' must be at least 0, got -1"),
    ],
)
def test_override_is_checked_like_its_field(tmp_path, capsys, flag, value, message):
    config = REPO_ROOT / "configs" / "solve_identical_n2.json"
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out"), flag, value]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _leaves(node, path=()):
    """The path of every leaf of a JSON tree: scalars and empty containers."""
    if isinstance(node, dict):
        children = list(node.items())
    else:
        children = list(enumerate(node)) if isinstance(node, list) else []
    if not children:
        yield path
    for key, child in children:
        yield from _leaves(child, path + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO_ROOT / "configs").glob("*.json")))
def test_every_invalid_leaf_is_a_config_error_or_a_result(tmp_path, capsys, name):
    # each leaf of a shipped config, set in turn to a value of the wrong kind
    # or range, gives a result (0 or 1) or a config error naming a field (2),
    # never a solver error or a crash
    cfg = json.loads((REPO_ROOT / "configs" / name).read_text())
    for path in _leaves(cfg):
        for value in (math.nan, math.inf, -1, "x", []):
            config = write_config(tmp_path, _replaced(cfg, path, value))
            code = cli.main(["run", str(config), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (path, value, err)
            assert code != 2 or err.startswith("config error: field '"), (path, value, err)


def test_solver_failure_exits_3_and_dumps_model(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise LpError("synthetic failure")

    monkeypatch.setattr(cli, "optimal_mechanism", boom)
    cfg = write_config(tmp_path, SOLVE_SINGLE)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 3
    assert "solver error" in capsys.readouterr().err
    assert (out / "model.lp").is_file()


def test_simplex_breakdown_exits_3_and_dumps_model(tmp_path, capsys, monkeypatch):
    # an iteration limit inside the simplex is a solver failure, not a crash
    monkeypatch.setattr(
        simplex, "solve_simplex", functools.partial(simplex.solve_simplex, max_iters=5)
    )
    out = tmp_path / "out"
    config = REPO_ROOT / "configs" / "solve_identical_n2.json"
    assert cli.main(["run", str(config), "--out", str(out)]) == 3
    assert "solver error" in capsys.readouterr().err
    assert (out / "model.lp").is_file()


def test_singular_basis_exits_3_and_dumps_model(tmp_path, capsys, monkeypatch):
    # every solve that pivots refactors at least once, so a singular basis matrix
    # surfaces inside the simplex and must still be a solver error
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(simplex.np.linalg, "solve", singular)
    out = tmp_path / "out"
    config = REPO_ROOT / "configs" / "solve_identical_n2.json"
    assert cli.main(["run", str(config), "--out", str(out)]) == 3
    assert "singular basis" in capsys.readouterr().err
    assert (out / "model.lp").is_file()


def test_repair_breakdown_exits_3(tmp_path, capsys, monkeypatch):
    # the repair's subgradient LPs go through the same solver boundary
    monkeypatch.setattr(
        simplex, "solve_simplex", functools.partial(simplex.solve_simplex, max_iters=0)
    )
    out = tmp_path / "out"
    config = write_config(tmp_path, {"kind": "repair", "grid": {"n": 3, "points": 3}, "count": 2})
    assert cli.main(["run", str(config), "--out", str(out)]) == 3
    assert "solver error" in capsys.readouterr().err


def test_untruthful_equivalence_spread_exits_3(tmp_path, capsys, undercut_spread):
    # a spread that fails its audit is a failed certified solve, as any
    # other one is, not a failed equivalence
    out = tmp_path / "out"
    config = REPO_ROOT / "configs" / "equivalence_n2.json"
    assert cli.main(["run", str(config), "--out", str(out)]) == 3
    assert "failed truthfulness audit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("max_infeasibility", 1e-6), ("duality_gap", 1e-3), ("duality_gap", math.nan)],
)
def test_uncertified_optimum_exits_3_and_dumps_model(
    tmp_path, capsys, monkeypatch, corrupted, field, value
):
    # an "optimal" status whose point breaks a row or a bound, or whose
    # duals leave a weak-duality gap, is a solver failure, not a result
    real_solve = simplex.solve_simplex

    def uncertified(*args, **kwargs):
        return corrupted(real_solve(*args, **kwargs), field, value)

    monkeypatch.setattr(simplex, "solve_simplex", uncertified)
    out = tmp_path / "out"
    config = REPO_ROOT / "configs" / "solve_identical_n2.json"
    assert cli.main(["run", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver error" in err
    assert ("solution residual" if field == "max_infeasibility" else "duality gap") in err
    assert (out / "model.lp").is_file()


def test_tight_tolerance_fails_asserted_audit(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "kind": "solve",
            "domain": "identical",
            "grid": {"n": 2, "points": 4, "v_low": 0.0, "v_high": 1.0},
            "distribution": {"kind": "iid", "pmf": [0.1, 0.2, 0.3, 0.4]},
        },
    )
    out = tmp_path / "out"
    code = cli.main(["run", str(cfg), "--out", str(out), "--tol", "1e-18"])
    summary = json.loads((out / "summary.json").read_text())
    assert code == (0 if summary["asserted_ok"] else 1)
    assert code in (0, 1)


@pytest.mark.parametrize("passes", [(False, True), (True, False), (True, True)])
def test_summary_check_holds_only_if_every_report_of_its_name_passed(tmp_path, passes):
    # certify_theorem1 runs write one report per mechanism under one name
    out = cli.RunOutput(tmp_path / "out")
    for passed in passes:
        out.audit(AuditReport("theorem1_equivalence", passed, () if passed else (("m", 1.0),)))
    out.audit(AuditReport("other", True))
    assert out.finish() == all(passes)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["checks"] == {"theorem1_equivalence": all(passes), "other": True}
    assert summary["asserted_ok"] == all(passes)


# ---------------------------------------------------------------------------
# export-lp

def test_export_lp_writes_model(tmp_path):
    cfg = write_config(tmp_path, SOLVE_SINGLE)
    out = tmp_path / "out"
    assert cli.main(["export-lp", str(cfg), "--out", str(out)]) == 0
    text = (out / "model.lp").read_text()
    assert "Maximize" in text and "Subject To" in text and "Bounds" in text


# sha256 of `mechlab export-lp` output for the shipped solve configs; the
# LP text is a stable interface, so any builder rewrite must keep it
EXPORT_SHA256 = {
    "acceptance.json": "36f730f00b30acd09241f878cb324bf3918ec243f921dfc10d565f1483d22459",
    "solve_identical_n2.json": "c1f181b569e196223759118b217c3c8eaee3e428ac6ddfd4967d444206565ab1",
    "solve_single_unit.json": "e216066c435090b9069dd794f90679dd1a1aaec4670c5fece6ce0355feb028fe",
}


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_export_lp_text_is_pinned(tmp_path, name):
    out = tmp_path / "out"
    assert cli.main(["export-lp", str(REPO_ROOT / "configs" / name), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "model.lp").read_bytes()).hexdigest() == EXPORT_SHA256[name]


def test_export_lp_rejects_other_kinds(tmp_path, capsys):
    cfg = write_config(tmp_path, {"kind": "robust", "n": 2, "g_avg": {"levels": [0.5], "pmf": [1.0]}})
    assert cli.main(["export-lp", str(cfg)]) == 2
    assert "'kind'" in capsys.readouterr().err
