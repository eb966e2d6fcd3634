"""Revenue LPs, adversarial LPs, pricing search, equivalence certificate."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mechlab.optlp as optlp
from mechlab import monotone, simplex
from mechlab.dist import (
    MarginalCdf,
    comonotone_fmin,
    iid_distribution,
    restrict_to_strict,
    table_distribution,
    to_identical_density,
    uniform_distribution,
)
from mechlab.mech import (
    check_feasible_identical,
    check_ic,
    check_ir,
    expected_revenue,
)
from mechlab.optlp import (
    InfeasibleError,
    LinearProgram,
    LpError,
    build_revenue_lp,
    certify_equivalence,
    export_lp_text,
    extend_by_menu,
    optimal_deterministic,
    optimal_mechanism,
    optimal_symmetric_mechanism,
    optimal_uniform_price,
    solve_lp,
    uniform_price_mechanism,
    worst_case_revenue,
)
from mechlab.symmetry import is_symmetric
from mechlab.typespace import (
    HETEROGENEOUS,
    IDENTICAL,
    Grid,
    enumerate_hetero,
    enumerate_identical,
    sort_descending,
)

scipy_opt = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")


def scipy_lp_value(lp: LinearProgram) -> float:
    """Independent solve of the same instance, for value cross-checks."""
    A, b, senses = lp.dense()
    c = -np.asarray(lp.objective)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rhs, s in zip(A, b, senses):
        if s == "<=":
            A_ub.append(row)
            b_ub.append(rhs)
        elif s == ">=":
            A_ub.append(-row)
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    res = scipy_opt.linprog(
        c,
        A_ub=np.asarray(A_ub) if A_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(A_eq) if A_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=list(zip(lp.lower, lp.upper)),
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def single_unit_types():
    return [(1.0,), (2.0,), (3.0,)]


class TestRevenueLp:
    def test_single_unit_uniform_optimum_is_middle_price(self):
        types = single_unit_types()
        dist = uniform_distribution(types, IDENTICAL)
        res = optimal_mechanism(types, dist, IDENTICAL)
        assert res.revenue == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert res.mode == "full"

    def test_two_point_grid_value_matches_external_solver(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        types = enumerate_identical(grid)
        rng = np.random.default_rng(7)
        for _ in range(5):
            w = rng.dirichlet(np.ones(len(types)))
            dist = table_distribution(types, w, IDENTICAL)
            lp = build_revenue_lp(types, dist, IDENTICAL)
            ours = solve_lp(lp)
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(
                scipy_lp_value(lp), abs=1e-7
            )

    def test_heterogeneous_grid_value_matches_external_solver(self):
        grid = Grid.uniform(n=2, v_low=0.2, v_high=1.0, points=2)
        types = enumerate_hetero(grid)
        rng = np.random.default_rng(11)
        w = rng.dirichlet(np.ones(len(types)))
        dist = table_distribution(types, w, HETEROGENEOUS)
        lp = build_revenue_lp(types, dist, HETEROGENEOUS)
        ours = solve_lp(lp)
        assert ours.objective == pytest.approx(scipy_lp_value(lp), abs=1e-7)

    def test_full_and_lazy_agree(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        types = enumerate_identical(grid)
        dist = uniform_distribution(types, IDENTICAL)
        full = optimal_mechanism(types, dist, IDENTICAL, mode="full")
        lazy = optimal_mechanism(types, dist, IDENTICAL, mode="lazy")
        assert lazy.revenue == pytest.approx(full.revenue, abs=1e-8)
        assert lazy.mode == "lazy" and lazy.rounds >= 1
        # full mode is the lazy loop on a complete working set: one solve
        T = len(types)
        assert full.rounds == 1
        assert full.n_ic_rows == T * (T - 1)

    @pytest.mark.parametrize(
        "domain_tag, n, points, pinned, ic_rows_per_round",
        [
            (HETEROGENEOUS, 2, 6, (3, 203, 8), [188, 212, 203]),
            (IDENTICAL, 4, 4, (3, 225, 2), [218, 288, 225]),
        ],
        ids=["het2p6", "id4p4"],
    )
    def test_lazy_working_set_is_pinned(
        self, monkeypatch, domain_tag, n, points, pinned, ic_rows_per_round
    ):
        # Both runs add rows in round 2 and prune rows later, so the pins
        # cover the whole working-set policy: which pairs are added and
        # pruned, and the row order and warm start (through the pivot
        # count of the last round).
        sizes = []
        build = optlp._revenue_lp

        def counting(types, weights, tag, pairs):
            lp = build(types, weights, tag, pairs)
            sizes.append([label for *_, label in lp.rows if label.startswith("ic_")])
            return lp

        monkeypatch.setattr(optlp, "_revenue_lp", counting)
        grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
        dist = uniform_distribution(types, domain_tag)
        res = optimal_mechanism(types, dist, domain_tag, mode="lazy")
        assert (res.rounds, res.n_ic_rows, res.solution.iterations) == pinned
        assert [len(rows) for rows in sizes] == ic_rows_per_round
        rounds = [set(rows) for rows in sizes]
        assert rounds[1] - rounds[0], "round 2 adds no row"
        assert any(a - b for a, b in zip(rounds[1:], rounds[2:])), "no round prunes a row"
        full = optimal_mechanism(types, dist, domain_tag, mode="full")
        assert res.revenue == pytest.approx(full.revenue, abs=1e-9)

    def test_singular_refactor_rolls_back_once(self, monkeypatch):
        # one refactor in the middle of a run raises: the tableau returns
        # to the basis of its last good refactor and solves on
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=6)
        types = enumerate_hetero(grid)
        dist = uniform_distribution(types, HETEROGENEOUS)
        monkeypatch.setattr(simplex, "REFACTOR_EVERY", 8)
        clean = optimal_mechanism(types, dist, HETEROGENEOUS, mode="lazy")

        tabs = []

        class Recording(simplex._Tableau):
            def __init__(self, *args):
                super().__init__(*args)
                tabs.append(self)

        calls = []
        real_solve = np.linalg.solve

        def fails_once(*args, **kwargs):
            calls.append(tabs[-1].iterations)
            if len(calls) == 4:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(simplex, "_Tableau", Recording)
        monkeypatch.setattr(simplex.np.linalg, "solve", fails_once)
        res = optimal_mechanism(types, dist, HETEROGENEOUS, mode="lazy")
        # round 1 factors its no-sale start; the fourth solve is a
        # scheduled refactor 24 pivots into round 1
        assert calls[:4] == [0, 8, 16, 24]
        assert tabs[0].rolled_back and tabs[0].refactor_every == 128
        assert tabs[0].trace.rollbacks == 1 and res.solution.trace.rollbacks == 0
        assert [r.trace.rollbacks for r in res.round_log] == [1] + [0] * (res.rounds - 1)
        assert len(tabs) == res.rounds > 1
        assert not any(tab.rolled_back for tab in tabs[1:])
        assert res.revenue == pytest.approx(clean.revenue, abs=1e-9)
        simplex.certify(res.solution)

    def test_round_log_adds_up(self, monkeypatch):
        # on a lazy solve and on a lazy orbit solve: each record's counts
        # against the working sets of its round and the one before, and
        # its trace against that round's solve; a truthfulness row is
        # named by its blocks and its deviation, as orbit rows share labels
        labels, solves = [], []
        build, solve = optlp._revenue_lp, optlp.solve_lp

        def building(types, weights, tag, pairs):
            k, l, dev = (np.asarray(x).tolist() for x in pairs)
            labels.append(set(zip(k, l, map(tuple, dev))))
            return build(types, weights, tag, pairs)

        def solving(*args):
            solves.append(solve(*args))
            return solves[-1]

        monkeypatch.setattr(optlp, "_revenue_lp", building)
        monkeypatch.setattr(optlp, "solve_lp", solving)
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=12)
        types = enumerate_identical(grid)
        het = enumerate_hetero(grid, strict_only=True)
        dist = uniform_distribution(types, IDENTICAL)
        dist_h = uniform_distribution(het, HETEROGENEOUS)
        for run in (
            lambda: optimal_mechanism(types, dist, IDENTICAL, "lazy"),
            lambda: optimal_symmetric_mechanism(het, dist_h),
        ):
            labels.clear()
            solves.clear()
            res = run()
            log = res.round_log
            assert res.mode == "lazy"
            assert len(log) == len(labels) == res.rounds > 1
            before = [set()] + labels[:-1]
            assert [(r.added, r.pruned) for r in log] == [
                (len(now - old), len(old - now)) for now, old in zip(labels, before)
            ]
            assert sum(r.added - r.pruned for r in log) == res.n_ic_rows
            assert [r.trace for r in log] == [sol.trace for sol in solves]
            assert log[-1].trace is res.solution.trace
            assert all(r.max_gain > optlp.GEN_TOL for r in log[:-1])
            assert log[-1].max_gain <= optlp.GEN_TOL
            assert log[-1].max_gain == float(np.max(optlp.ic_gains(res.mechanism)))

    @pytest.mark.parametrize(
        "domain_tag, n, points, mode",
        [(IDENTICAL, 2, 8, "lazy"), (HETEROGENEOUS, 3, 4, "lazy"), (HETEROGENEOUS, 2, 4, "orbit")],
        ids=["id2p8-lazy", "het3p4-lazy", "het2p4-orbit"],
    )
    def test_first_solve_starts_at_the_no_sale_vertex(
        self, monkeypatch, domain_tag, n, points, mode
    ):
        # the first LP starts phase 2 at q = 0, t = 0: no dual simplex,
        # fewer pivots and the same revenue as its solve from the slack
        # basis
        firsts, warm = [], []
        solve, warm_start = optlp.solve_lp, simplex._Tableau.warm_start

        def solving(lp, what="LP", start=None):
            res = solve(lp, what, start)
            if not firsts:
                firsts.append((lp, res))
            return res

        def recording(self, *args):
            warm.append(warm_start(self, *args))
            return warm[-1]

        monkeypatch.setattr(optlp, "solve_lp", solving)
        monkeypatch.setattr(simplex._Tableau, "warm_start", recording)
        grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        if mode == "orbit":
            het = enumerate_hetero(grid, strict_only=True)
            optimal_symmetric_mechanism(het, uniform_distribution(het, HETEROGENEOUS))
        else:
            types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
            optimal_mechanism(types, uniform_distribution(types, domain_tag), domain_tag, mode)
        lp, first = firsts[0]
        assert warm[0] is True
        assert first.trace.dual.iterations == 0
        cold = solve(lp)
        assert first.iterations < cold.iterations
        assert first.objective == pytest.approx(cold.objective, abs=1e-12)

    def test_full_id2p12_matches_stored_highs_value(self):
        # 6,006 truthfulness rows, solved from the no-sale start and from
        # the slack basis.  HiGHS value computed once and stored.
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=12)
        types = enumerate_identical(grid)
        dist = uniform_distribution(types, IDENTICAL)
        res = optimal_mechanism(types, dist, IDENTICAL, "full")
        assert res.rounds == 1 and res.n_ic_rows == 78 * 77
        assert res.revenue == pytest.approx(0.5769230769230768, abs=1e-9)
        simplex.certify(res.solution)
        slack = solve_lp(build_revenue_lp(types, dist, IDENTICAL), start=None)
        assert slack.trace.dual.iterations > 0
        assert slack.objective == pytest.approx(0.5769230769230768, abs=1e-9)

    def test_returned_mechanism_is_audited(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        types = enumerate_identical(grid)
        dist = uniform_distribution(types, IDENTICAL)
        res = optimal_mechanism(types, dist, IDENTICAL)
        assert check_ic(res.mechanism, tol=1e-8).passed
        assert check_ir(res.mechanism, tol=1e-8).passed
        assert check_feasible_identical(res.mechanism, tol=1e-8).passed
        assert res.revenue == pytest.approx(
            expected_revenue(res.mechanism, dist), abs=1e-9
        )

    def test_deterministic_rerun_bitwise_identical(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        types = enumerate_identical(grid)
        dist = uniform_distribution(types, IDENTICAL)
        a = optimal_mechanism(types, dist, IDENTICAL)
        b = optimal_mechanism(types, dist, IDENTICAL)
        assert np.array_equal(a.mechanism.q, b.mechanism.q)
        assert np.array_equal(a.mechanism.t, b.mechanism.t)

    def test_support_restriction_and_menu_completion_agree(self):
        # value on the support equals value on the enclosing grid: the
        # completion glues menu choices onto unsupported types without
        # breaking truthfulness or revenue
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        full = enumerate_identical(grid)
        support = [(1.0 / 3.0, 1.0 / 3.0), (2.0 / 3.0, 2.0 / 3.0), (1.0, 1.0)]
        w = [0.25, 0.5, 0.25]
        dist_s = table_distribution(support, w, IDENTICAL)
        on_support = optimal_mechanism(support, dist_s, IDENTICAL)
        on_full = optimal_mechanism(full, dist_s, IDENTICAL)
        assert on_full.revenue <= on_support.revenue + 1e-8
        glued = extend_by_menu(on_support.mechanism, full)
        assert check_ic(glued, tol=1e-8).passed
        assert check_ir(glued, tol=1e-8).passed
        assert expected_revenue(glued, dist_s) == pytest.approx(
            on_support.revenue, abs=1e-9
        )
        assert on_full.revenue == pytest.approx(on_support.revenue, abs=2e-8)

    @pytest.mark.parametrize(
        "domain_tag, n, points, prior, modes",
        [
            (IDENTICAL, 2, 8, "uniform", ("full", "lazy")),
            (HETEROGENEOUS, 2, 3, "uniform", ("full", "lazy")),
            (IDENTICAL, 2, 12, "uniform", ("lazy",)),
            (IDENTICAL, 2, 8, "random", ("full", "lazy")),
            (HETEROGENEOUS, 2, 3, "random", ("full", "lazy")),
            (IDENTICAL, 3, 4, "point_mass", ("full", "lazy")),
        ],
        ids=[
            "id2p8-uniform",
            "het2p3-uniform",
            "id2p12-uniform",
            "id2p8-random",
            "het2p3-random",
            "id3p4-point_mass",
        ],
    )
    def test_value_matches_external_solver_at_size(self, domain_tag, n, points, prior, modes):
        # grids where the tableau is wide and sparse, against HiGHS on
        # the full LP with every truthfulness row
        grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
        T = len(types)
        if prior == "uniform":
            w = np.full(T, 1.0 / T)
        else:
            w = np.random.default_rng(10 * points + n).dirichlet(np.ones(T))
            if prior == "point_mass":
                w = 0.1 * w
                w[T // 2] += 0.9
        dist = table_distribution(types, w, domain_tag)
        ref = scipy_lp_value(build_revenue_lp(types, dist, domain_tag))
        for mode in modes:
            res = optimal_mechanism(types, dist, domain_tag, mode=mode)
            assert res.revenue == pytest.approx(ref, abs=1e-7), mode


@st.composite
def tie_heavy_grids(draw, n, max_levels):
    """Grids on a few integer multiples of a step, so that many profiles
    share a level sum, with a seed for the prior."""
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    count = draw(st.integers(n + 1, max_levels))
    ks = draw(st.sets(st.integers(0, 2 * max_levels), min_size=count, max_size=count))
    levels = tuple(step * k for k in sorted(ks))
    return Grid.explicit(n, levels), draw(st.sampled_from(["dirichlet", "point_mass", "flat"]))


def tie_heavy_prior(count, kind, seed):
    """Dirichlet weights with a small concentration (a few types carry
    most mass), nine tenths of the mass on one type, or all weights
    equal."""
    rng = np.random.default_rng(seed)
    if kind == "flat":
        return np.full(count, 1.0 / count)
    w = rng.dirichlet(np.full(count, 0.3))
    if kind == "point_mass":
        w = 0.1 * w
        w[int(rng.integers(count))] += 0.9
    return w


class TestAgainstHighs:
    """Lazy (warm-started), full and orbit revenues against HiGHS on the
    full LP, on random non-uniform grids full of ties."""

    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([(IDENTICAL, 2, 13), (IDENTICAL, 3, 7), (HETEROGENEOUS, 2, 9)]).flatmap(
            lambda case: st.tuples(st.just(case[0]), tie_heavy_grids(case[1], case[2]))
        ),
        st.integers(0, 2**16),
    )
    def test_lazy_and_full_revenue(self, case, seed):
        domain_tag, (grid, kind) = case
        types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
        dist = table_distribution(types, tie_heavy_prior(len(types), kind, seed), domain_tag)
        ref = scipy_lp_value(build_revenue_lp(types, dist, domain_tag))
        modes = ("lazy", "full") if len(types) <= 30 else ("lazy",)
        for mode in modes:
            res = optimal_mechanism(types, dist, domain_tag, mode=mode)
            assert res.revenue == pytest.approx(ref, abs=1e-9), mode

    def test_id2p16_lazy_at_scale(self, monkeypatch):
        # 136 types: HiGHS solves the full LP (18,360 truthfulness rows)
        # from its nonzeros; no round of the lazy solve rolls back
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=16)
        types = enumerate_identical(grid)
        dist = uniform_distribution(types, IDENTICAL)
        lp = build_revenue_lp(types, dist, IDENTICAL)
        sign = np.where(np.asarray(lp.senses) == ">=", -1.0, 1.0)
        ub = np.asarray(lp.senses) != "="
        shape = (lp.n_rows, lp.n_vars)
        A = sparse.csr_matrix((lp.val * sign[lp.row], (lp.row, lp.col)), shape=shape)
        ref = scipy_opt.linprog(
            -np.asarray(lp.objective),
            A_ub=A[ub],
            b_ub=(lp.rhs * sign)[ub],
            A_eq=A[~ub],
            b_eq=lp.rhs[~ub],
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
        )
        assert ref.status == 0
        solves = []
        real = simplex.solve_simplex

        def recording(*args, **kwargs):
            solves.append(real(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(simplex, "solve_simplex", recording)
        res = optimal_mechanism(types, dist, IDENTICAL, mode="lazy")
        assert res.revenue == pytest.approx(-ref.fun, abs=1e-9)
        simplex.certify(res.solution)
        assert len(solves) == res.rounds
        assert all(sol.trace.rollbacks == 0 for sol in solves)

    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from([(2, 9), (3, 6)]).flatmap(lambda case: tie_heavy_grids(*case)),
        st.integers(0, 2**16),
    )
    def test_orbit_revenue(self, grid_kind, seed):
        # an exchangeable prior on the strict profiles: each sorted profile
        # spreads its weight evenly over its relabelings
        grid, kind = grid_kind
        sorted_types = enumerate_identical(grid, strict_only=True)
        w_sorted = tie_heavy_prior(len(sorted_types), kind, seed)
        het = enumerate_hetero(grid, strict_only=True)
        share = dict(zip(sorted_types, w_sorted / math.factorial(grid.n)))
        dist_h = table_distribution(het, [share[sort_descending(v)] for v in het], HETEROGENEOUS)
        dist_i = table_distribution(sorted_types, w_sorted, IDENTICAL)
        ref = scipy_lp_value(build_revenue_lp(sorted_types, dist_i, IDENTICAL))
        orbit = optimal_symmetric_mechanism(het, dist_h)
        assert orbit.revenue == pytest.approx(ref, abs=1e-9)


class TestSymmetricLp:
    def test_matches_sorted_domain_optimum(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        het = enumerate_hetero(grid, strict_only=True)
        marg = MarginalCdf.from_pmf(grid.levels, [0.2, 0.5, 0.3])
        dist_h = restrict_to_strict(iid_distribution(marg, 2))
        res_h = optimal_symmetric_mechanism(het, dist_h)
        assert is_symmetric(res_h.mechanism, tol=0.0).passed

        dist_i = to_identical_density(dist_h)
        res_i = optimal_mechanism(list(dist_i.types), dist_i, IDENTICAL)
        assert res_h.revenue == pytest.approx(res_i.revenue, abs=1e-7)

    def test_symmetry_restriction_costs_revenue_when_weights_are_skewed(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        het = enumerate_hetero(grid, strict_only=True)
        w = np.zeros(len(het))
        w[het.index((1.0, 0.0))] = 0.9
        w[het.index((0.0, 1.0))] = 0.1
        dist = table_distribution(het, w, HETEROGENEOUS)
        free = optimal_mechanism(het, dist, HETEROGENEOUS)
        # folding an asymmetric density is refused upstream of the certificate
        from mechlab.dist import DistributionError

        with pytest.raises(DistributionError):
            to_identical_density(dist)
        sym = optimal_symmetric_mechanism(het, dist)
        assert sym.revenue <= free.revenue + 1e-8

    def test_rejects_tied_profiles(self):
        with pytest.raises(LpError):
            optimal_symmetric_mechanism(
                [(0.5, 0.5), (1.0, 0.5)],
                uniform_distribution([(0.5, 0.5), (1.0, 0.5)], HETEROGENEOUS),
            )

    def test_rejects_type_list_missing_a_relabeling_before_solving(self, monkeypatch):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        types = [v for v in enumerate_hetero(grid, strict_only=True) if v != (0.0, 1.0)]
        calls = []
        solve = simplex.solve_simplex

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(simplex, "solve_simplex", counting)
        with pytest.raises(LpError, match="relabeling"):
            optimal_symmetric_mechanism(types, uniform_distribution(types, HETEROGENEOUS))
        assert calls == []

    def test_large_orbit_lp_goes_lazy(self):
        # 132 strict profiles, 66 representatives: 8,646 folded rows in
        # full, which the lazy loop never builds; the value is that of
        # the full orbit LP, computed once and stored
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=12)
        het = enumerate_hetero(grid, strict_only=True)
        res = optimal_symmetric_mechanism(het, uniform_distribution(het, HETEROGENEOUS))
        assert res.mode == "lazy" and res.rounds > 1 and res.n_ic_rows < 66 * 131
        assert res.revenue == pytest.approx(0.5867768595041323, abs=1e-9)
        assert is_symmetric(res.mechanism, tol=0.0).passed
        simplex.certify(res.solution)

    def test_orbit_lp_is_bound_by_the_working_set_cap(self, monkeypatch):
        # the orbit LP's working set is capped as the ordinary LP's is:
        # a cap at its largest later round still solves, one row under
        # it is refused
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=12)
        het = enumerate_hetero(grid, strict_only=True)
        dist = uniform_distribution(het, HETEROGENEOUS)
        sizes = []
        build = optlp._revenue_lp

        def recording(types, weights, tag, pairs):
            sizes.append(len(pairs[0]))
            return build(types, weights, tag, pairs)

        monkeypatch.setattr(optlp, "_revenue_lp", recording)
        res = optimal_symmetric_mechanism(het, dist)
        assert len(sizes) == res.rounds > 1
        cap = max(sizes[1:])
        monkeypatch.setattr(optlp, "MAX_WORKING_ROWS", cap)
        assert optimal_symmetric_mechanism(het, dist).revenue == res.revenue
        monkeypatch.setattr(optlp, "MAX_WORKING_ROWS", cap - 1)
        with pytest.raises(LpError, match="working set exceeded"):
            optimal_symmetric_mechanism(het, dist)


class TestEquivalenceCertificate:
    def test_uniform_iid_instance_passes(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        het = enumerate_hetero(grid, strict_only=True)
        marg = MarginalCdf.from_pmf(grid.levels, [1 / 3, 1 / 3, 1 / 3])
        dist_h = restrict_to_strict(iid_distribution(marg, 2))
        dist_i = to_identical_density(dist_h)
        rep = certify_equivalence(
            (list(dist_i.types), dist_i), (het, dist_h), tol=1e-7
        )
        assert rep.passed
        assert rep.info["revenue_identical"] == pytest.approx(
            rep.info["revenue_symmetric"], abs=1e-7
        )

    def test_het2p16_orbit_lp_certifies(self):
        # 240 strict profiles: the orbit LP's 28,680 folded rows in full
        # were refused before it ran through the lazy loop
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=16)
        het = enumerate_hetero(grid, strict_only=True)
        marg = MarginalCdf.from_pmf(grid.levels, [1 / 16] * 16)
        dist_h = restrict_to_strict(iid_distribution(marg, 2))
        dist_i = to_identical_density(dist_h)
        rep = certify_equivalence((list(dist_i.types), dist_i), (het, dist_h), tol=1e-7)
        assert rep.passed
        assert rep.info["symmetric_mode"] == "lazy" and rep.info["symmetric_rounds"] > 1
        revenue = rep.info["revenue_identical"]
        assert rep.info["revenue_symmetric"] == pytest.approx(revenue, abs=1e-9)

    def test_mismatched_densities_refused(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        het = enumerate_hetero(grid, strict_only=True)
        marg = MarginalCdf.from_pmf(grid.levels, [1 / 3, 1 / 3, 1 / 3])
        dist_h = restrict_to_strict(iid_distribution(marg, 2))
        ident_types = sorted({tuple(sorted(v, reverse=True)) for v in het})
        wrong = uniform_distribution(ident_types[:2], IDENTICAL)
        with pytest.raises(LpError):
            certify_equivalence((ident_types[:2], wrong), (het, dist_h))


class TestUniformPricing:
    def test_two_level_example(self):
        g = MarginalCdf.from_pmf((0.2, 0.8), (0.5, 0.5))
        assert optimal_uniform_price(g, 1) == (0.8, 0.4)
        assert optimal_uniform_price(g, 3) == (0.8, pytest.approx(1.2))

    def test_tie_resolves_to_lower_price(self):
        g = MarginalCdf.from_pmf((0.5, 1.0), (0.5, 0.5))
        price, rev = optimal_uniform_price(g, 1)
        assert price == 0.5 and rev == pytest.approx(0.5)

    def test_mechanism_buys_all_units_at_or_above_price(self):
        grid = Grid.explicit(n=2, levels=(0.2, 0.5, 0.8), v_low=0.0, v_high=1.0)
        types = enumerate_identical(grid)
        mech = uniform_price_mechanism(types, 0.5)
        assert tuple(mech.q_at((0.8, 0.5))) == (1.0, 1.0)
        assert mech.t_at((0.8, 0.5)) == 1.0
        assert tuple(mech.q_at((0.5, 0.2))) == (1.0, 0.0)
        assert tuple(mech.q_at((0.2, 0.2))) == (0.0, 0.0)
        assert check_ic(mech, tol=0.0).passed
        assert check_ir(mech, tol=0.0).passed


class TestWorstCase:
    def test_uniform_price_guarantee_is_flat_across_the_polytope(self):
        g = MarginalCdf.from_pmf((0.2, 0.8), (0.5, 0.5))
        grid = Grid.explicit(n=2, levels=(0.2, 0.8), v_low=0.0, v_high=1.0)
        types = enumerate_identical(grid)
        mech = uniform_price_mechanism(types, 0.8)
        lo, dist_lo, _ = worst_case_revenue(mech, g, sense="min")
        hi, dist_hi, _ = worst_case_revenue(mech, g, sense="max")
        formula = 2 * 0.8 * g.mass_at_or_above(0.8)
        assert lo == pytest.approx(formula, abs=1e-8)
        assert hi == pytest.approx(formula, abs=1e-8)
        assert dist_lo.domain_tag == IDENTICAL

    def test_non_flat_mechanism_has_a_gap(self):
        g = MarginalCdf.from_pmf((0.2, 0.8), (0.5, 0.5))
        grid = Grid.explicit(n=2, levels=(0.2, 0.8), v_low=0.0, v_high=1.0)
        types = enumerate_identical(grid)
        # sell-everything-at-1.0 bundle: revenue depends on correlation
        from mechlab.mech import make_menu, menu_to_mechanism

        mech = menu_to_mechanism(
            make_menu([((1.0, 1.0), 1.0)]), types, IDENTICAL
        )
        lo, _, _ = worst_case_revenue(mech, g, sense="min")
        hi, _, _ = worst_case_revenue(mech, g, sense="max")
        assert hi - lo > 0.1

    def test_worst_case_matches_external_solver(self):
        g = MarginalCdf.from_pmf((0.2, 0.5, 0.8), (0.3, 0.4, 0.3))
        grid = Grid.explicit(n=2, levels=(0.2, 0.5, 0.8), v_low=0.0, v_high=1.0)
        types = enumerate_identical(grid)
        mech = uniform_price_mechanism(types, 0.5)
        value, dist, sol = worst_case_revenue(mech, g, sense="min")
        # rebuild the LP exactly as worst_case_revenue does and hand it
        # to the external solver
        lp = LinearProgram()
        for k in range(len(types)):
            lp.add_var(f"w_{k}", 0.0, 1.0, obj=-float(mech.t[k]))
        lp.add_rows([list(range(len(types)))], 1.0, "=", 1.0)
        levels = (0.2, 0.5, 0.8)
        pmf = dict(zip(levels, g.pmf()))
        for lv in levels:
            coeffs = {}
            for k, v in enumerate(types):
                cnt = sum(1 for x in v if x == lv)
                if cnt:
                    coeffs[k] = cnt / 2
            lp.add_rows([list(coeffs)], [list(coeffs.values())], "=", pmf[lv])
        assert -scipy_lp_value(lp) == pytest.approx(value, abs=1e-8)

    def test_unreachable_marginal_is_infeasible(self):
        g = MarginalCdf.from_pmf((0.9,), (1.0,))
        grid = Grid.explicit(n=2, levels=(0.2, 0.8), v_low=0.0, v_high=1.0)
        types = enumerate_identical(grid)
        mech = uniform_price_mechanism(types, 0.8)
        with pytest.raises(InfeasibleError):
            worst_case_revenue(mech, g)


class TestDeterministicSearch:
    def test_single_unit_grid_posted_price(self):
        types = single_unit_types()
        dist = uniform_distribution(types, IDENTICAL)
        res = optimal_deterministic(types, dist, IDENTICAL)
        assert res.revenue == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert res.mechanism.t_at((2.0,)) == pytest.approx(2.0)
        assert res.mechanism.t_at((1.0,)) == 0.0

    def test_never_beats_the_lp(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        types = enumerate_identical(grid)
        dist = uniform_distribution(types, IDENTICAL)
        det = optimal_deterministic(types, dist, IDENTICAL)
        lp = optimal_mechanism(types, dist, IDENTICAL)
        assert det.revenue <= lp.revenue + 1e-9
        assert check_ic(det.mechanism, tol=0.0).passed

    def test_collect_all_returns_every_optimum(self):
        types = [(1.0,), (2.0,)]
        dist = uniform_distribution(types, IDENTICAL)
        res = optimal_deterministic(types, dist, IDENTICAL)
        # price 1 and price 2 both earn 1.0; the no-sale menu before them
        # led until price 1 overtook it
        assert res.revenue == pytest.approx(1.0)
        assert [menu.items[0][1] for menu in res.optimal_menus] == [1.0, 2.0]

    def test_optimal_menus_track_a_rising_best(self):
        # Prices 1, p2, p3 earn 1, 1 + 0.8e-12 and 1 + 1.5e-12 in that
        # order: p2 stays within 1e-12 of the final best, price 1 falls
        # behind it, exactly as a second pass against the final best finds.
        p2, p3 = 2.0 * (1.0 + 0.8e-12), 4.0 * (1.0 + 1.5e-12)
        types = [(1.0,), (p2,), (p3,)]
        dist = table_distribution(types, [0.5, 0.25, 0.25], IDENTICAL)
        res = optimal_deterministic(types, dist, IDENTICAL)
        assert res.revenue == p3 * 0.25
        assert [menu.items[0][1] for menu in res.optimal_menus] == [p2, p3]

    def test_size_guard(self):
        grid = Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=5)
        types = enumerate_hetero(grid)
        dist = uniform_distribution(types, HETEROGENEOUS)
        with pytest.raises(LpError):
            optimal_deterministic(types, dist, HETEROGENEOUS)


class TestLpPlumbing:
    def test_export_text_shape_and_determinism(self):
        types = single_unit_types()
        dist = uniform_distribution(types, IDENTICAL)
        lp = build_revenue_lp(types, dist, IDENTICAL)
        text = export_lp_text(lp, comment="single unit, three levels")
        assert text.startswith("\\ single unit")
        assert "Maximize" in text and "Subject To" in text
        assert "Bounds" in text and text.rstrip().endswith("End")
        assert "ic_0_1:" in text and "ir_2:" in text
        assert text == export_lp_text(lp, comment="single unit, three levels")

    def test_unbounded_status(self):
        # the solver takes boxed variables only, so an LP cannot be unbounded
        lp = LinearProgram()
        lp.add_var("x", 0.0, float("inf"), obj=1.0)
        with pytest.raises(ValueError, match="variable 0 needs two finite bounds"):
            solve_lp(lp)

    def test_infeasible_status(self):
        lp = LinearProgram()
        lp.add_var("x", 0.0, 1.0, obj=1.0)
        lp.add_rows([[0]], 1.0, ">=", 2.0)
        with pytest.raises(InfeasibleError, match="LP infeasible"):
            solve_lp(lp)

    def test_no_solve_scatters_a_dense_matrix(self, monkeypatch):
        # every LP reaches the solver as its triplets; `dense` is a view
        # for the tests and bench/ only
        def refuse(lp):
            raise AssertionError("a solve called LinearProgram.dense")

        monkeypatch.setattr(LinearProgram, "dense", refuse)
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=5)
        types = enumerate_identical(grid)
        dist = uniform_distribution(types, IDENTICAL)
        for mode in ("lazy", "full"):
            assert optimal_mechanism(types, dist, IDENTICAL, mode=mode).rounds >= 1
        het = enumerate_hetero(Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4), strict_only=True)
        optimal_symmetric_mechanism(het, uniform_distribution(het, HETEROGENEOUS))
        levels = Grid.explicit(n=2, levels=(0.2, 0.5, 0.8), v_low=0.0, v_high=1.0)
        g = MarginalCdf.from_pmf((0.2, 0.5, 0.8), (0.3, 0.4, 0.3))
        worst_case_revenue(uniform_price_mechanism(enumerate_identical(levels), 0.5), g)
        mech = uniform_price_mechanism(types, 1.0 / 3.0)
        assert check_ic(monotone.lmax_repair(mech), tol=1e-8).passed
        monotone.subgradient_polytope(mech, mech.types[3]).maximize(np.ones(2))

    def test_solver_ignores_explicit_zero_entries(self, monkeypatch):
        # the heterogeneous LP on a grid with a 0.0 level keeps -0.0
        # entries in its participation rows; solving it is solving the
        # same triplets with those entries removed beforehand
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        types = enumerate_hetero(grid)
        lp = build_revenue_lp(types, uniform_distribution(types, HETEROGENEOUS), HETEROGENEOUS)
        nz = lp.val != 0.0
        assert (np.signbit(lp.val) & ~nz).any()
        tabs = []

        class Recording(simplex._Tableau):
            def __init__(self, *args):
                super().__init__(*args)
                tabs.append(self)

        monkeypatch.setattr(simplex, "_Tableau", Recording)
        got = solve_lp(lp)
        want = simplex.solve_simplex(
            np.asarray(lp.objective),
            simplex.Coo(lp.row[nz], lp.col[nz], lp.val[nz], (lp.n_rows, lp.n_vars)),
            lp.rhs,
            lp.senses,
            np.asarray(lp.lower),
            np.asarray(lp.upper),
        )
        for name in ("x", "y", "basis"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.trace == want.trace
        assert [tab.aval.size for tab in tabs] == [np.count_nonzero(nz)] * 2

    # sha256 of the LP text for grids the shipped solve configs do not
    # cover: a heterogeneous LP and an identical n=3 LP with two
    # allocation-order rows per type, both under a non-uniform prior and
    # with a 0.0 level, whose -0.0 participation entries the text skips
    @pytest.mark.parametrize(
        "domain_tag, n, points, seed, sha256",
        [
            (HETEROGENEOUS, 2, 4, 3, "1e5d9dd16bae667a7f386aabae570daa8be8335879607e3c1b1ce7439e84fade"),
            (IDENTICAL, 3, 4, 5, "4ba330df198858fe9ce1f61d5090b57b8ede3ae74f8dd2037e67440cd8da4ad9"),
        ],
        ids=["het2p4", "id3p4"],
    )
    def test_export_text_is_pinned(self, domain_tag, n, points, seed, sha256):
        grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
        w = np.random.default_rng(seed).dirichlet(np.ones(len(types)))
        lp = build_revenue_lp(types, table_distribution(types, w, domain_tag), domain_tag)
        text = export_lp_text(lp, comment=f"{domain_tag} n={n}")
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    def test_export_text_edge_cases(self):
        lp = LinearProgram()
        lp.add_var("x", float("-inf"), float("inf"))
        lp.add_var("y", 0.0, 1.0)
        lp.add_rows([[0, 1]], [[0.0, -0.0]], "<=", 1.0, "zero")
        lp.add_rows([[0, 1]], [[-0.0, 2.5]], ">=", -1.0)
        lp.add_rows([[0, 1]], [[-1.0, 0.5]], "=", 0.0, "mixed")
        assert export_lp_text(lp, comment="edges\nsecond line") == (
            "\\ edges\n"
            "\\ second line\n"
            "Maximize\n"
            " obj: 0 x\n"
            "Subject To\n"
            " zero: 0 x <= 1.0\n"
            " r1: 2.5 y >= -1.0\n"
            " mixed: - 1.0 x + 0.5 y = 0.0\n"
            "Bounds\n"
            " -inf <= x <= +inf\n"
            " 0.0 <= y <= 1.0\n"
            "End\n"
        )


def reference_lp(types, weights, domain_tag, pairs):
    """The dict-row builder that the triplet builder replaced, kept as its
    reference: the variables as (names, lower, upper, objective), and one
    ({column: value}, sense, rhs, label) per row."""
    T = len(types)
    n = len(types[0])
    lp = LinearProgram()
    for k in range(T):
        for i in range(n):
            lp.add_var(f"q_{k}_{i}", 0.0, 1.0)
    S = max(sum(v) for v in types)
    for k in range(T):
        lp.add_var(f"t_{k}", -S - 1.0, S + 1.0, obj=float(weights[k]))
    tvar = lambda k: T * n + k
    qvar = lambda k, i: k * n + i
    rows = []
    for k, v in enumerate(types):
        coeffs = {qvar(k, i): -float(v[i]) for i in range(n)}
        coeffs[tvar(k)] = 1.0
        rows.append((coeffs, "<=", 0.0, f"ir_{k}"))
    if domain_tag == IDENTICAL:
        for k in range(T):
            for i in range(n - 1):
                rows.append(({qvar(k, i + 1): 1.0, qvar(k, i): -1.0}, "<=", 0.0, f"ord_{k}_{i}"))
    for k, l, dev in pairs:
        own = types[k]
        coeffs = {}
        for i in range(n):
            coeffs[qvar(l, i)] = float(dev[i])
            coeffs[qvar(k, i)] = coeffs.get(qvar(k, i), 0.0) - float(own[i])
        coeffs[tvar(l)] = -1.0
        coeffs[tvar(k)] = 1.0 if k != l else 0.0
        rows.append((coeffs, "<=", 0.0, f"ic_{k}_{l}"))
    return (lp.names, lp.lower, lp.upper, lp.objective), rows


def reference_dense(rows, n_vars):
    A = np.zeros((len(rows), n_vars))
    for r, (coeffs, _, _, _) in enumerate(rows):
        for j, c in coeffs.items():
            A[r, j] = c
    return A


def without_zeros(rows):
    return [
        ({j: c for j, c in coeffs.items() if c != 0.0}, sense, rhs, label)
        for coeffs, sense, rhs, label in rows
    ]


class TestTripletRows:
    """The triplet builder against the dict-row reference, bit for bit."""

    GRIDS = [(IDENTICAL, 2, 4), (IDENTICAL, 3, 3), (HETEROGENEOUS, 2, 3)]
    GRID_IDS = ["id2p4", "id3p3", "het2p3"]

    @staticmethod
    def instance(domain_tag, n, points):
        grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
        weights = np.random.default_rng(points).dirichlet(np.ones(len(types)))
        return types, weights

    @staticmethod
    def assert_matches_reference(lp, types, weights, domain_tag, pairs):
        k, l, dev = pairs
        dev = np.asarray(dev, dtype=float).reshape(len(k), len(types[0]))
        variables, rows = reference_lp(
            types, weights, domain_tag, zip(np.asarray(k).tolist(), np.asarray(l).tolist(), dev.tolist())
        )
        assert (lp.names, lp.lower, lp.upper, lp.objective) == variables
        A, b, senses = lp.dense()
        A_ref = reference_dense(rows, len(variables[0]))
        assert np.array_equal(A, A_ref)
        assert np.array_equal(np.signbit(A), np.signbit(A_ref))
        # the grids hold a 0.0 level, so participation rows carry -0.0
        assert (np.signbit(A_ref) & (A_ref == 0.0)).any()
        assert b.tolist() == [rhs for _, _, rhs, _ in rows]
        assert senses == [sense for _, sense, _, _ in rows]
        assert without_zeros(lp.rows) == without_zeros(rows)

    @pytest.mark.parametrize("domain_tag, n, points", GRIDS, ids=GRID_IDS)
    def test_full_lp(self, domain_tag, n, points):
        types, weights = self.instance(domain_tag, n, points)
        k, l = np.nonzero(~np.eye(len(types), dtype=bool))
        pairs = (k, l, np.asarray(types)[k])
        lp = optlp._revenue_lp(types, weights, domain_tag, pairs)
        self.assert_matches_reference(lp, types, weights, domain_tag, pairs)
        # build_revenue_lp is the same LP
        dist = table_distribution(types, weights, domain_tag)
        assert export_lp_text(build_revenue_lp(types, dist, domain_tag)) == export_lp_text(lp)

    @pytest.mark.parametrize("domain_tag, n, points", GRIDS, ids=GRID_IDS)
    def test_lazy_pair_mask(self, domain_tag, n, points):
        types, weights = self.instance(domain_tag, n, points)
        k, l = np.nonzero(optlp._neighbor_pairs(types, per_type=2))
        pairs = (k, l, np.asarray(types)[k])
        lp = optlp._revenue_lp(types, weights, domain_tag, pairs)
        self.assert_matches_reference(lp, types, weights, domain_tag, pairs)

    @pytest.mark.parametrize("n, points", [(2, 4), (3, 3)], ids=["p4n2", "p3n3"])
    def test_orbit_lp(self, monkeypatch, n, points):
        grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        het = enumerate_hetero(grid, strict_only=True)
        w = np.random.default_rng(points).dirichlet(np.ones(len(het)))
        built = []
        build = optlp._revenue_lp

        def recording(types, weights, tag, pairs):
            lp = build(types, weights, tag, pairs)
            built.append((lp, types, weights, tag, pairs))
            return lp

        monkeypatch.setattr(optlp, "_revenue_lp", recording)
        optimal_symmetric_mechanism(het, table_distribution(het, w, HETEROGENEOUS))
        ((lp, types, weights, tag, pairs),) = built
        k, l, _ = pairs
        assert any(a == b for a, b in zip(k, l)), "no row of a block against itself"
        self.assert_matches_reference(lp, types, weights, tag, pairs)

    def test_worst_case_rows_count_each_level(self, monkeypatch):
        # the per-level loop that the array comparison replaced
        grid = Grid.explicit(n=3, levels=(0.1, 0.4, 0.7), v_low=0.0, v_high=1.0)
        types = enumerate_identical(grid)
        # level 0.25 is no type's value: its row is empty, with rhs 0
        g = MarginalCdf.from_pmf((0.1, 0.25, 0.4, 0.7), (0.2, 0.0, 0.5, 0.3))
        mech = uniform_price_mechanism(types, 0.4)
        solved = []
        solve = optlp.solve_lp

        def recording(lp, what="LP", start=None):
            solved.append(lp)
            return solve(lp, what, start)

        monkeypatch.setattr(optlp, "solve_lp", recording)
        worst_case_revenue(mech, g)
        (lp,) = solved
        levels = sorted({x for v in types for x in v} | set(g.levels))
        rows = [({k: 1.0 for k in range(len(types))}, "=", 1.0, "total")]
        for i, lv in enumerate(levels):
            coeffs = {}
            for k, v in enumerate(types):
                cnt = sum(1 for x in v if x == lv)
                if cnt:
                    coeffs[k] = cnt / 3
            rows.append((coeffs, "=", float(dict(zip(g.levels, g.pmf())).get(lv, 0.0)), f"avg_{i}"))
        assert lp.rows == rows
        A, _, _ = lp.dense()
        assert np.array_equal(A, reference_dense(rows, len(types)))


def _reference_lp_text(lp: LinearProgram, comment: str = "") -> str:
    """The renderer that the per-chunk export replaced, kept as its
    reference: one head and one tail f-string per row, and the pieces of
    the whole LP joined at once."""
    obj = np.asarray(lp.objective, dtype=float)
    cols = np.arange(obj.size)
    text = [f"\\ {ln}\n" for ln in comment.splitlines()] + ["Maximize\n"]
    text += [_reference_rows_text(lp.names, np.zeros_like(cols), cols, obj, [" obj: "], ["\n"])]
    heads = [f" {label or f'r{r}'}: " for r, label in enumerate(lp.labels)]
    tails = [f" {sense} {rhs!r}\n" for sense, rhs in zip(lp.senses, lp.rhs.tolist())]
    text += ["Subject To\n", _reference_rows_text(lp.names, lp.row, lp.col, lp.val, heads, tails)]
    text += ["Bounds\n"] + [
        f" {repr(float(lo)) if math.isfinite(lo) else '-inf'} <= {name}"
        f" <= {repr(float(up)) if math.isfinite(up) else '+inf'}\n"
        for name, lo, up in zip(lp.names, lp.lower, lp.upper)
    ]
    return "".join(text + ["End\n"])


def _reference_rows_text(names, row, col, val, heads, tails) -> str:
    keep = val != 0.0
    row, col, val = row[keep], col[keep], val[keep]
    mags, which = np.unique(np.abs(val), return_inverse=True)
    signs = ("", "- ", " + ", " - ")
    signed = np.array([f"{s}{m!r}" for m in mags.tolist() for s in signs], dtype=object)
    key = 4 * which + 2 * np.r_[False, row[1:] == row[:-1]] + (val < 0)
    spaced = np.array([f" {name}" for name in names], dtype=object)
    starts = np.searchsorted(row, np.arange(len(heads) + 1))
    tails = np.array(tails, dtype=object)
    empty = starts[:-1] == starts[1:]
    tails[empty] = "0 " + (names[0] if names else "x0") + tails[empty]
    first = 2 * (starts + np.arange(len(heads) + 1))
    at = 2 * (np.arange(row.size) + row) + 1
    pieces = np.empty(first[-1], dtype=object)
    pieces[first[:-1]] = heads
    pieces[at] = signed[key]
    pieces[at + 1] = spaced[col]
    pieces[first[1:] - 1] = tails
    return "".join(pieces.tolist())


def _random_rows(lp, rng, rows, *args, empty=(), negative_zero=()):
    """Add `rows` random rows over every variable of `lp` with name and
    ids `args`: zero, -0.0 and signed entries, some masked out, rhs with
    -0.0 among them.  Rows `empty` keep no entry, and rows
    `negative_zero` keep every entry, all -0.0."""
    width = lp.n_vars
    val = rng.choice([0.0, -0.0, 1.5, -2.25, 0.1, -0.1, 3.0, 1.0, -1.0], size=(rows, width))
    keep = rng.random((rows, width)) < 0.7
    keep[list(empty)] = False
    keep[list(negative_zero)] = True
    val[list(negative_zero)] = -0.0
    rhs = rng.choice([0.0, -0.0, 1.0, 0.25, -3.5], size=rows)
    lp.add_rows(np.arange(width), val, "<=", rhs, *args, keep=keep)


class TestLpText:
    """The per-chunk export against the reference renderer, and the memory
    that building and exporting take."""

    @staticmethod
    def variables(count):
        lp = LinearProgram()
        for j in range(count):
            lp.add_var(f"x{j}", -1.0, float(j))
        return lp

    def test_full_id2p12(self):
        types = enumerate_identical(Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=12))
        lp = build_revenue_lp(types, uniform_distribution(types, IDENTICAL), IDENTICAL)
        ic = lp.blocks[-1]
        assert (ic.name, ic.rhs.size // optlp.EXPORT_CHUNK) == ("ic", 1)
        assert export_lp_text(lp, comment="id2p12") == _reference_lp_text(lp, comment="id2p12")

    def test_chunk_boundaries_on_empty_and_negative_zero_rows(self):
        C = optlp.EXPORT_CHUNK
        lp = self.variables(4)
        rows = np.arange(2 * C + 3)
        _random_rows(
            lp, np.random.default_rng(5), rows.size, "c", rows, rows % 7,
            empty=(C - 1, C), negative_zero=(2 * C - 1, 2 * C),
        )
        text = export_lp_text(lp)
        assert text == _reference_lp_text(lp)
        assert f"\n c_{C}_{C % 7}: 0 x0 <= " in text
        assert f"\n c_{2 * C}_{2 * C % 7}: 0 x0 <= " in text

    def test_unnamed_rows(self):
        C = optlp.EXPORT_CHUNK
        lp = self.variables(3)
        rng = np.random.default_rng(6)
        _random_rows(lp, rng, 3, "a", np.arange(3))
        _random_rows(lp, rng, C + 2, empty=(0, C))
        assert lp.labels[2:4] == ["a_2", ""]
        text = export_lp_text(lp)
        assert text == _reference_lp_text(lp)
        assert f"\n r{C + 4}: " in text

    def test_worst_case_lp(self, monkeypatch):
        solved = []
        solve = optlp.solve_lp
        monkeypatch.setattr(optlp, "solve_lp", lambda lp, *args: solved.append(lp) or solve(lp, *args))
        types = enumerate_identical(Grid.explicit(n=3, levels=(0.1, 0.4, 0.7), v_low=0.0, v_high=1.0))
        g = MarginalCdf.from_pmf((0.1, 0.25, 0.4, 0.7), (0.2, 0.0, 0.5, 0.3))
        worst_case_revenue(uniform_price_mechanism(types, 0.4), g)
        (lp,) = solved
        assert lp.labels == ["total", "avg_0", "avg_1", "avg_2", "avg_3"]
        assert export_lp_text(lp) == _reference_lp_text(lp)

    def test_repair_block_lp(self, monkeypatch):
        solved = []
        solve = optlp.solve_lp
        monkeypatch.setattr(optlp, "solve_lp", lambda lp, *args: solved.append(lp) or solve(lp, *args))
        types = enumerate_identical(Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=5))
        monotone.lmax_repair(uniform_price_mechanism(types, 1.0 / 3.0))
        assert solved and all(lp.n_rows > 100 for lp in solved)
        for lp in solved:
            assert export_lp_text(lp) == _reference_lp_text(lp)

    def test_add_rows_needs_increasing_columns(self):
        lp = self.variables(3)
        lp.add_rows([[0, 1]], 1.0, "<=", 1.0, "a")
        with pytest.raises(ValueError, match=r"^row 2: column 0 is out of order$"):
            lp.add_rows([[0, 2], [2, 0]], 1.0, "<=", 1.0, "b")
        with pytest.raises(ValueError, match=r"^row 1: column 1 repeats$"):
            lp.add_rows([[1, 1]], 1.0, "<=", 1.0)
        assert lp.n_rows == 1
        # only kept entries count, and each row starts afresh
        lp.add_rows([[2, 0, 1], [0, 1, 2]], 1.0, "<=", 1.0, keep=[[False, True, True], [True] * 3])
        assert lp.col.tolist() == [0, 1, 0, 1, 0, 1, 2]

    def test_build_and_export_memory_is_bounded(self):
        # The id2p16 full LP: 18,496 rows, 2.7 MB of triplets, 2.4 MB of
        # text.  Building it peaks at about 1.5 times the triplet bytes,
        # since the truthfulness block's column and value arrays become
        # the LP's without a copy, and exporting it at about twice the
        # text, the chunks and their join.  Per-row labels and whole-LP
        # export temporaries took 3.2 times and 4.7 times.
        types = enumerate_identical(Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=16))
        dist = uniform_distribution(types, IDENTICAL)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lp = build_revenue_lp(types, dist, IDENTICAL)
            build_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            text = export_lp_text(lp)
            export_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        triplets = sum(a.nbytes for a in (lp.row, lp.col, lp.val))
        assert build_peak <= 2 * triplets
        assert export_peak <= 2 * len(text) + 2_000_000
