"""The library names that the benchmark under bench/ reaches into.

bench/tracer.py wraps mechlab functions by module and name, and
bench/workloads.py and bench/make_references.py call them.  Their own
test, bench/test_bench.py, is not part of this suite, so a renamed or
deleted function would otherwise go unnoticed until the benchmark runs.
These checks read bench/ and change nothing there.
"""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from mechlab import cli, optlp
from mechlab.dist import uniform_distribution
from mechlab.optlp import build_revenue_lp
from mechlab.typespace import HETEROGENEOUS, IDENTICAL, Grid, enumerate_hetero, enumerate_identical

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/tracer.py and bench/workloads.py, imported as the benchmark
    imports them (workloads does `from tracer import ...`)."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_tracer_installs_every_span_and_uninstall_restores_it(bench):
    tracer, _ = bench
    mods = [importlib.import_module("mechlab")] + [
        importlib.import_module(f"mechlab.{m}") for m in tracer.MODULES
    ]
    before = [(mod, dict(vars(mod))) for mod in mods]
    t = tracer.Tracer()
    t.install()  # a SPANS target missing from the library raises here
    try:
        patched = list(t._restore)
        wrapped = {(owner, name) for owner, name, _ in patched}
        for span, targets in tracer.SPANS.items():
            for modname, path in targets:
                owner = importlib.import_module(f"mechlab.{modname}")
                *cls, attr = path.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                assert (owner, attr) in wrapped, (span, modname, path)
        for owner, name, fn in patched:
            assert vars(owner)[name] is not fn, name
    finally:
        t.uninstall()
    for owner, name, fn in patched:
        assert vars(owner)[name] is fn, name
    for mod, attrs in before:
        assert all(vars(mod)[name] is value for name, value in attrs.items()), mod.__name__


def test_highs_problem_reads_the_revenue_lp(bench):
    # highs_problem reads `LinearProgram.rows`, a view kept for it; the
    # heterogeneous LP's participation rows carry -0.0 entries
    _, workloads = bench
    grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    for domain, enumerate_types in ((IDENTICAL, enumerate_identical), (HETEROGENEOUS, enumerate_hetero)):
        types = enumerate_types(grid)
        lp = build_revenue_lp(types, uniform_distribution(types, domain), domain)
        c, A, b = workloads.highs_problem(lp)
        A_dense, b_dense, _ = lp.dense()
        assert np.array_equal(c, -np.asarray(lp.objective))
        assert np.array_equal(A.toarray(), A_dense)
        assert np.array_equal(b, b_dense)
        assert A.nnz == sum(len(coeffs) for coeffs, *_ in lp.rows)
    assert (np.signbit(A_dense) & (A_dense == 0.0)).any()


def test_id2p24_export_matches_its_reference(bench):
    # the LP text that the full_lp workload checks against
    # references.json, so a byte drift fails here and not only there
    _, workloads = bench
    op = workloads.InstanceOp("export", "id2p24", workloads.load_references()["export:id2p24"])
    assert op.check(op.run(0)) == []


def test_traced_solves_report_the_constraint_matrix_shape(bench, monkeypatch):
    # Stats.observe reads `A.shape` off every solve_simplex call for
    # simplex.rows_max and simplex.cols_max; id2p12 lazy adds rows in its
    # second round and prunes none, so its last LP is its largest
    tracer, _ = bench
    shapes = []
    solve = optlp.solve_lp

    def recording(lp, *args):
        shapes.append((lp.n_rows, lp.n_vars))
        return solve(lp, *args)

    monkeypatch.setattr(optlp, "solve_lp", recording)
    types = enumerate_identical(Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=12))
    t = tracer.Tracer()
    t.install()
    try:
        optlp.optimal_mechanism(types, uniform_distribution(types, IDENTICAL), IDENTICAL, mode="lazy")
    finally:
        t.uninstall()
    assert len(shapes) == 2 and shapes[-1] == max(shapes)
    assert (t.stats.simplex_rows_max, t.stats.simplex_cols_max) == shapes[-1]


def test_cli_helpers_called_by_the_benchmark_exist():
    names = set()
    for script in ("make_references.py", "workloads.py"):
        names |= set(re.findall(r"\bcli\.(\w+)", (BENCH / script).read_text()))
    assert {"build_grid", "_domain", "build_distribution", "_g_avg", "load_config"} <= names
    assert [name for name in sorted(names) if not callable(getattr(cli, name, None))] == []
    params = inspect.signature(cli.run_config).parameters
    assert list(params) == ["cfg", "out_dir", "tol_override", "seed_override"]
