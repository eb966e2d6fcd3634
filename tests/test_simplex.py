"""Solver unit tests: known optima, statuses, certificates, determinism,
and randomized cross-checks against an independent LP solver."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import linprog

from mechlab import optlp, simplex
from mechlab.dist import embed, uniform_distribution
from mechlab.optlp import build_revenue_lp, optimal_mechanism
from mechlab.simplex import (
    INFEASIBLE,
    OPTIMAL,
    SimplexResult,
    solve_simplex,
)
from mechlab.typespace import (
    HETEROGENEOUS,
    IDENTICAL,
    Grid,
    enumerate_hetero,
    enumerate_identical,
)

GAP_TOL = 1e-7
FEAS_TOL = 1e-9


def _coo(A):
    """A hand-written dense matrix as the `simplex.Coo` of its nonzero
    entries; a `Coo` passes as it is."""
    if isinstance(A, simplex.Coo):
        return A
    A = np.asarray(A, dtype=float)
    row, col = np.nonzero(A)
    return simplex.Coo(row, col, A[row, col], A.shape)


def solve_dense(c, A, b, senses, lower, upper, **kwargs):
    """`solve_simplex` on a dense A, handed over as its triplets, with the
    certificate of an optimum filled in as `optlp.solve_lp` fills it."""
    c, b, lower, upper = (np.asarray(v, dtype=float) for v in (c, b, lower, upper))
    lp = (c, _coo(A), b, senses, lower, upper)
    res = simplex.solve_simplex(*lp, **kwargs)
    if res.status == OPTIMAL:
        _, res.duality_gap, res.max_infeasibility = optlp.certificate(lp, res.x, res.y)
    return res


def test_textbook_max():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 10
    res = solve_dense(
        c=[3.0, 2.0],
        A=[[1.0, 1.0], [1.0, 3.0]],
        b=[4.0, 6.0],
        senses=["<=", "<="],
        lower=[0.0, 0.0],
        upper=[10.0, 10.0],
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(12.0, abs=1e-9)
    assert np.allclose(res.x, [4.0, 0.0], atol=1e-9)
    assert res.duality_gap <= GAP_TOL
    assert res.max_infeasibility <= FEAS_TOL


def test_equality_row_and_duals():
    # min x + 2y, as max -x - 2y, s.t. x + y = 1, x - y <= 0.2, x,y in [0,1]
    res = solve_dense(
        c=[-1.0, -2.0],
        A=[[1.0, 1.0], [1.0, -1.0]],
        b=[1.0, 0.2],
        senses=["=", "<="],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(-1.4, abs=1e-9)
    assert np.allclose(res.x, [0.6, 0.4], atol=1e-9)
    assert res.duality_gap <= GAP_TOL


def test_upper_bounds_active():
    # max x + y with x + y <= 3, x <= 1 (bound), y <= 1 (bound): hits the box
    res = solve_dense(
        c=[1.0, 1.0],
        A=[[1.0, 1.0]],
        b=[3.0],
        senses=["<="],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )
    assert res.objective == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(res.x, [1.0, 1.0])


def test_infeasible():
    res = solve_dense(
        c=[1.0],
        A=[[1.0], [1.0]],
        b=[2.0, -1.0],
        senses=[">=", "<="],
        lower=[0.0],
        upper=[5.0],
    )
    assert res.status == INFEASIBLE
    assert res.x is None


def test_unbounded():
    # only boxed variables are accepted, so no LP is unbounded
    with pytest.raises(ValueError, match="variable 0 needs two finite bounds"):
        solve_dense(
            c=[1.0],
            A=[[-1.0]],
            b=[0.0],
            senses=["<="],
            lower=[0.0],
            upper=[np.inf],
        )


def test_no_rows_boxed():
    res = solve_dense(
        c=[1.0, -2.0, 0.0],
        A=np.zeros((0, 3)),
        b=[],
        senses=[],
        lower=[0.0, -1.0, 0.5],
        upper=[2.0, 3.0, 0.5],
    )
    assert res.status == OPTIMAL
    assert np.allclose(res.x, [2.0, -1.0, 0.5])
    assert res.objective == pytest.approx(4.0)


def test_redundant_equality_rows():
    # second equality row is a copy; its marker stays basic at 0
    res = solve_dense(
        c=[1.0, 1.0],
        A=[[1.0, 1.0], [1.0, 1.0]],
        b=[1.0, 1.0],
        senses=["=", "="],
        lower=[0.0, 0.0],
        upper=[1.0, 1.0],
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0, abs=1e-9)


def test_degenerate_cycling_guard():
    # Classic cycling-prone instance (Beale).  Bland's rule must terminate.
    c = [0.75, -150.0, 0.02, -6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    res = solve_dense(
        c=c,
        A=A,
        b=b,
        senses=["<=", "<=", "<="],
        lower=[0.0] * 4,
        upper=[1.0] * 4,
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.05, abs=1e-9)


def test_deterministic_repeat():
    rng = np.random.default_rng(7)
    c = rng.normal(size=8)
    A = rng.normal(size=(5, 8))
    b = rng.normal(size=5) + 2.0
    senses = ["<="] * 4 + ["="]
    args = dict(c=c, A=A, b=b, senses=senses, lower=np.zeros(8), upper=np.ones(8))
    r1 = solve_dense(**args)
    r2 = solve_dense(**args)
    assert r1.status == r2.status == OPTIMAL
    assert r1.objective == r2.objective  # bitwise
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def _scipy_solve(c, A, b, senses, lower, upper):
    """HiGHS on max c.x, as min -c.x."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, s in enumerate(senses):
        if s == "<=":
            A_ub.append(A[i])
            b_ub.append(b[i])
        elif s == ">=":
            A_ub.append(-A[i])
            b_ub.append(-b[i])
        else:
            A_eq.append(A[i])
            b_eq.append(b[i])
    bounds = list(zip(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)))
    bounds = [(lo if np.isfinite(lo) else None, up if np.isfinite(up) else None) for lo, up in bounds]
    res = linprog(
        c=-np.asarray(c, dtype=float),
        A_ub=np.asarray(A_ub) if A_ub else None,
        b_ub=np.asarray(b_ub) if b_ub else None,
        A_eq=np.asarray(A_eq) if A_eq else None,
        b_eq=np.asarray(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    return res


def _random_lp(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    senses = [rng.choice(["<=", ">=", "="]) if i % 3 == 0 else "<=" for i in range(m)]
    lower = np.zeros(n)
    upper = rng.uniform(0.5, 3.0, size=n)
    # the even seeds minimize c.x, as max -c.x
    return (c if seed % 2 else -c), A, b, senses, lower, upper


# The slack basis, x0 and x1 at their upper bounds, violates the equality
# row and the last '<=' row and satisfies the '>=' row and the other '<='
# row: the dual simplex repairs it.
MIXED_START_LP = (
    [1.0, 2.0, 0.0],
    [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [1.0, 1.0, 1.0]],
    [1.0, 1.5, -0.5, 3.0],
    [">=", "=", "<=", "<="],
    [0.0, 0.0, 0.0],
    [2.0, 2.0, 2.0],
)

# No rows at all: each variable goes to the bound its cost favors.
ROW_FREE_LP = (
    [1.0, -2.0, 0.5],
    np.zeros((0, 3)),
    [],
    [],
    [0.0, -1.0, -2.0],
    [3.0, 4.0, 5.0],
)


@pytest.mark.parametrize(
    "lp",
    [pytest.param(_random_lp(seed), id=str(seed)) for seed in range(30)]
    + [pytest.param(MIXED_START_LP, id="mixed_start"), pytest.param(ROW_FREE_LP, id="row_free")],
)
def test_random_cross_check(lp):
    """Boxed LPs: objective must agree with an independent solver."""
    mine = solve_dense(*lp)
    ref = _scipy_solve(*lp)
    if mine.status == OPTIMAL:
        assert ref.status == 0
        assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)
        assert mine.duality_gap <= GAP_TOL
        assert mine.max_infeasibility <= FEAS_TOL
    else:
        assert mine.status == INFEASIBLE and ref.status == 2


def test_start_basis_layout_and_unknown_sense():
    c, A, b, senses, lower, upper = MIXED_START_LP
    tab = simplex._Tableau(-np.asarray(c), _coo(A), b, senses, lower, upper)
    tab.slack_start()
    # structural | the logical column of each row, basic in its own row;
    # the marker of the equality row 1 is fixed to [0, 0], and the
    # columns that the (minimized) cost prefers high start at their upper
    # bound.  The kernel is empty, so nothing is factored.
    assert tab.n_total == 3 + 4
    assert tab.basis.tolist() == [3, 4, 5, 6]
    assert tab.status.tolist() == [_UP, _UP, _LO, _B, _B, _B, _B]
    assert tab.upper[3:].tolist() == [np.inf, 0.0, np.inf, np.inf]
    assert tab.k == 0 and tab.trace.refactors == 0
    with pytest.raises(ValueError, match="unknown sense '<'"):
        solve_dense([1.0], [[1.0]], [1.0], ["<"], [0.0], [1.0])


@pytest.mark.parametrize("m", [0, 1], ids=["row_free", "one_row"])
def test_crossed_bounds_rejected(m):
    with pytest.raises(ValueError, match="crossed variable bounds"):
        solve_dense([1.0], np.ones((m, 1)), [1.0] * m, ["<="] * m, [2.0], [1.0])


def test_constraint_matrix_shape_must_match():
    with pytest.raises(ValueError, match=r"constraint matrix shape \(2, 1\) != \(1, 1\)"):
        solve_dense([1.0], [[1.0], [1.0]], [1.0], ["<="], [0.0], [1.0])


@pytest.mark.parametrize(
    "row, col, what",
    [
        ([0, 0, 1], [1, 1, 0], "entry 1 at (0, 1) repeats"),
        ([0, 1, 0], [0, 0, 1], "entry 2 at (0, 1) is out of order"),
    ],
    ids=["repeated", "out_of_order"],
)
def test_bad_triplets_rejected(row, col, what):
    # checked before zero entries are dropped, so a repeated zero counts
    A = simplex.Coo(np.asarray(row), np.asarray(col), np.array([1.0, 0.0, 1.0]), (2, 2))
    with pytest.raises(ValueError, match=re.escape(what)):
        solve_simplex([1.0, 1.0], A, [1.0, 1.0], ["<=", "<="], [0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("seed", range(10))
def test_random_equality_heavy(seed):
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(3, 8))
    m = int(rng.integers(1, n))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.2, 0.8, size=n)  # plant a feasible interior point
    b = A @ x0
    senses = ["="] * m
    mine = solve_dense(c, A, b, senses, np.zeros(n), np.ones(n))
    ref = _scipy_solve(c, A, b, senses, np.zeros(n), np.ones(n))
    assert mine.status == OPTIMAL
    assert ref.status == 0
    assert mine.objective == pytest.approx(-ref.fun, abs=1e-7)
    assert mine.duality_gap <= GAP_TOL


# ---------------------------------------------------------------------------
# the basis kernel against a dense reference built here: at every pivot the
# FTRAN column and the BTRAN row match a dense LU of the basis matrix and
# K^-1 inverts the kernel, and the carried weights match norms recomputed
# by np.linalg.solve; the ratio-test tie-breaks against the loops they
# replaced


def _signed(tab):
    """A as the solver holds it (rows signed), dense, from its nonzeros."""
    A = np.zeros((tab.m, tab.n))
    A[tab.arow, tab.acol] = tab.aval
    return A


def _extended(tab):
    """[A | I] as the solver holds it (rows signed), dense, from the
    solver's nonzeros: the logical column of row i is n + i."""
    return np.hstack([_signed(tab), np.eye(tab.m)])


def _close(got, want):
    return np.max(np.abs(got - want), initial=0.0) <= 1e-9 * max(1.0, np.linalg.norm(want))


def _rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, want), initial=0.0))


def _check_kernel(monkeypatch, weigh_every):
    """Wrap `pivot` so that every pivot checks the entering column and the
    pivot row that it receives against the column and row of B^-1 [A | I]
    (one dense LU of the basis matrix B) and, after it, K^-1 against the
    kernel, and every `weigh_every`-th pivot also the weights against the
    norms of np.linalg.solve(B, [A | I]): gamma in phase 2, beta in the
    dual simplex, which holds no gamma; returns the counts of both."""
    real_pivot = simplex._Tableau.pivot
    done = {"pivots": 0, "weighed": 0}

    def pivot(self, r, j, w, alpha, row, enter_val):
        Aext = _extended(self)
        lu = lu_factor(Aext[:, self.basis])
        assert _close(w, lu_solve(lu, Aext[:, j]))
        y = lu_solve(lu, np.eye(self.m)[r], trans=1)  # row r of B^-1
        assert _close(row, y) and _close(alpha, y @ Aext)
        in_dual = self.phase is self.trace.dual
        assert in_dual == (self.gamma is None)
        real_pivot(self, r, j, w, alpha, row, enter_val)
        K = Aext[np.ix_(self.kr, self.kc)]
        assert np.max(np.abs(self.Kinv @ K - np.eye(self.k)), initial=0.0) <= 1e-9
        done["pivots"] += 1
        if done["pivots"] % weigh_every == 0:
            ref = np.linalg.solve(Aext[:, self.basis], np.hstack([Aext, np.eye(self.m)]))
            if in_dual:
                assert _rel_err(self.beta, (ref[:, self.n_total :] ** 2).sum(axis=1)) <= 1e-9
            else:
                assert _rel_err(self.gamma, (ref[:, : self.n_total] ** 2).sum(axis=0)) <= 1e-5
            done["weighed"] += 1

    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    return done


def _revenue_lp_args(domain_tag, n, points):
    grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
    types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
    lp = build_revenue_lp(types, uniform_distribution(types, domain_tag), domain_tag)
    return dict(zip(("c", "A", "b", "senses", "lower", "upper"), lp.arrays()))


def _no_sale_start(T, n, m):
    """The statuses of the no-sale vertex q = 0, t = 0 of a revenue LP
    over T types of n values and m rows: every q column nonbasic at 0,
    every payment basic on its participation row, whose logical column is
    nonbasic at 0, and every other logical column basic.  The vertex is
    primal feasible, so a solve from it starts phase 2 there."""
    statuses = [simplex._LO, simplex._BASIC, simplex._LO, simplex._BASIC]
    return np.repeat(statuses, [T * n, T, T, m - T]).astype(np.int8)


def _first_round_at_no_sale(monkeypatch):
    """Start the first round of every revenue LP at the no-sale vertex in
    place of the first-best basis, so that it runs phase 2."""
    monkeypatch.setattr(
        optlp, "_first_best_start",
        lambda weights, values, n_rows: _no_sale_start(*np.shape(values), n_rows),
    )


def _solve_mechanism(domain_tag, n, points, mode):
    grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
    types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
    return optimal_mechanism(types, uniform_distribution(types, domain_tag), domain_tag, mode=mode)


@pytest.mark.parametrize(
    "domain_tag, n, points, mode, weigh_every, no_sale",
    [
        # dual pivots only, from the first-best start
        (IDENTICAL, 2, 6, "full", 16, False),
        # 10 phase-2 pivots from the no-sale vertex: weigh at every one
        (HETEROGENEOUS, 2, 3, "full", 1, True),
        (IDENTICAL, 3, 4, "full", 16, True),
        (HETEROGENEOUS, 3, 4, "lazy", 16, False),
    ],
    ids=["id2p6-full", "het2p3-full", "id3p4-full", "het3p4-lazy"],
)
def test_kernel_matches_dense_reference(
    monkeypatch, certified, domain_tag, n, points, mode, weigh_every, no_sale
):
    done = _check_kernel(monkeypatch, weigh_every=weigh_every)
    if no_sale:
        _first_round_at_no_sale(monkeypatch)
    res = _solve_mechanism(domain_tag, n, points, mode)
    certified(res.solution)
    assert done["pivots"] > 0 and done["weighed"] > 0


def test_kernel_matches_dense_reference_under_bland(monkeypatch):
    # Beale's cycling instance plus two opposite copies of x2 - x4 = 0,
    # whose markers stay fixed at zero; BLAND_AFTER = 0 runs every pivot
    # under Bland's rule: the dual simplex's from the slack basis, and
    # phase 2's from the primal-feasible start x = 0
    monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
    done = _check_kernel(monkeypatch, weigh_every=1)
    at_zero = np.asarray([_LO] * 4 + [_B] * 5, dtype=np.int8)
    for start, phase in ((None, "dual"), (at_zero, "phase2")):
        before = done["pivots"]
        res = solve_dense(*_beale_with_copies(), start=start)
        assert res.status == OPTIMAL and res.trace.bland_switches == 1
        assert res.iterations == getattr(res.trace, phase).iterations > 0
        assert done["weighed"] == done["pivots"] > before
        assert res.objective == pytest.approx(0.05, abs=1e-9)


def _loop_blocking_row(dist, coef, basis, j, own, bland):
    """(row, step) of the primal ratio test as per-row loops: a row with
    |coef| > PIVOT_TOL is limited at max(dist / |coef|, 0), and -1 is a
    bound flip of the entering column j.  Under Bland's rule j's own far
    bound `own` counts as a blocker indexed j and the smallest index at
    the exact step wins; otherwise j flips when its bound blocks, and of
    the rows within RATIO_SLACK of the step the largest |coef| wins, then
    the smallest basis index."""
    tol = simplex.PIVOT_TOL
    lim = [max(d / abs(c), 0.0) if abs(c) > tol else np.inf for d, c in zip(dist, coef)]
    step = min(min(lim, default=np.inf), own)
    if bland:
        best_var = j if own <= step else None
        best_row = -1
        for i in np.nonzero(np.asarray(lim) <= step)[0]:
            bi = int(basis[i])
            if best_var is None or bi < best_var:
                best_var, best_row = bi, int(i)
        return best_row, step
    if own <= step:
        return -1, step
    best_row, best_key = -1, None
    for i in np.nonzero(np.asarray(lim) <= step + simplex.RATIO_SLACK)[0]:
        key = (-abs(float(coef[i])), int(basis[i]))
        if best_key is None or key < best_key:
            best_key, best_row = key, int(i)
    return best_row, step


def _primal_choice(dist, coef, basis, j, own, bland):
    """`run`'s use of `_ratio_test`: the blocking row, or -1 for the
    entering column's own-bound flip, and the step."""
    r, row_step = simplex._ratio_test(dist, coef, basis, bland)
    flip = own < row_step or (own == row_step and not (bland and basis[r] < j))
    return (-1 if flip else r), min(row_step, own)


def _loop_entering_column(d, alpha, status, movable, below, bland):
    """(column, step) of the dual ratio test as `dual_run`'s inline
    filter, ratio and tie-break chose it before `_ratio_test`, column by
    column: a movable column whose push (alpha, negated when the leaving
    variable is above its upper bound) is below -PIVOT_TOL at its lower
    bound or above PIVOT_TOL at its upper one; its ratio max(d or -d, 0)
    / |alpha|; among ratios within RATIO_SLACK of the smallest the
    largest |alpha|, then the first column; under Bland's rule the first
    column at the exact smallest ratio.  (-1, inf) without a candidate."""
    cand, tol = [], simplex.PIVOT_TOL
    for q in range(len(d)):
        push = alpha[q] if below else -alpha[q]
        at_lo, at_up = status[q] == simplex._LO, status[q] == simplex._UP
        if movable[q] and ((at_lo and push < -tol) or (at_up and push > tol)):
            cand.append((max(d[q] if at_lo else -d[q], 0.0) / abs(alpha[q]), q))
    if not cand:
        return -1, np.inf
    step = min(ratio for ratio, _ in cand)
    if bland:
        return next(q for ratio, q in cand if ratio == step), step
    near = [q for ratio, q in cand if ratio <= step + simplex.RATIO_SLACK]
    best = max(abs(alpha[q]) for q in near)
    return next(q for q in near if abs(alpha[q]) == best), step


def _dual_choice(d, alpha, status, movable, below, bland):
    """`dual_run`'s use of `_ratio_test`: the entering column and the
    step."""
    push = alpha if below else -alpha
    at_lo, at_up = status == simplex._LO, status == simplex._UP
    cols = np.flatnonzero(movable & ((at_lo & (push < 0.0)) | (at_up & (push > 0.0))))
    dc = d[cols]
    i, step = simplex._ratio_test(np.where(at_lo[cols], dc, -dc), alpha[cols], cols, bland)
    return (int(cols[i]) if i >= 0 else -1), step


def test_ratio_test_matches_the_loops():
    # both directions' uses of the one ratio test against the loops of the
    # rules it replaced, over the same tie-heavy draws: few distinct
    # ratios (some within RATIO_SLACK of each other), few distinct pivot
    # sizes, and pivots at and around PIVOT_TOL
    rng = np.random.default_rng(11)
    slack, tol = simplex.RATIO_SLACK, simplex.PIVOT_TOL
    ratios = [-1.0, 0.0, 0.5 * slack, 1.0, 1.0 + 0.5 * slack, 1.0 + 2 * slack, 2.0, np.inf]
    pivots = [-2.0, -1.0, -tol, 0.0, 0.5 * tol, 2 * tol, 1.0, 2.0, 3.0]
    checked = {"primal": 0, "dual": 0}
    for _ in range(3000):
        m = int(rng.integers(1, 40))
        piv = rng.choice(pivots, m)
        dist = rng.choice(ratios, m) * np.maximum(np.abs(piv), 1.0)
        # primal: rows keyed by their basic variable, and the entering
        # column's own bound
        basis = rng.permutation(m + 30)[:m]
        j = int(rng.choice(np.setdiff1d(np.arange(m + 30), basis)))
        own = float(rng.choice([0.0, 1.0, 1.0 + 0.5 * slack, 3.0, np.inf]))
        # dual: columns at either bound or basic, some fixed, with reduced
        # costs of the dual-feasible sign or, where dist < 0, the other
        status = rng.choice([simplex._LO, simplex._UP, simplex._BASIC], m).astype(np.int8)
        movable = rng.random(m) < 0.9
        d = np.where(status == simplex._UP, -dist, dist)
        below = bool(rng.integers(2))
        for bland in (False, True):
            want = _loop_blocking_row(dist, piv, basis, j, own, bland)
            if np.isfinite(want[1]):
                assert _primal_choice(dist, piv, basis, j, own, bland) == want
                checked["primal"] += 1
            want = _loop_entering_column(d, piv, status, movable, below, bland)
            assert _dual_choice(d, piv, status, movable, below, bland) == want
            checked["dual"] += want[0] >= 0
    assert checked["primal"] > 4000 and checked["dual"] > 4000


@pytest.mark.parametrize(
    "domain_tag, n, points, mode, pivots",
    [
        (IDENTICAL, 2, 8, "full", [137]),
        (IDENTICAL, 2, 12, "full", [452]),
        (IDENTICAL, 2, 12, "lazy", [177, 5]),
        (HETEROGENEOUS, 3, 4, "lazy", [69, 54, 31, 3, 5]),
        (IDENTICAL, 3, 6, "lazy", [98, 33, 30, 20, 7]),
    ],
    ids=["id2p8-full", "id2p12-full", "id2p12-lazy", "het3p4-lazy", "id3p6-lazy"],
)
def test_pivot_paths_are_pinned(domain_tag, n, points, mode, pivots):
    """Pivots per round (dual simplex and phase 2 together) of the ladder
    instances, each from its first-best start, with BLAS on one thread as
    conftest.py sets it.  These are the pivot paths of today's rules, not
    targets: a change that moves a pivot path (its ratio test, pricing,
    tolerances or start) re-derives these values and records the old and
    the new ones in CHANGES.md."""
    res = _solve_mechanism(domain_tag, n, points, mode)
    assert [r.trace.dual.iterations + r.trace.phase2.iterations for r in res.round_log] == pivots


@pytest.mark.parametrize(
    "name, T, n, ic_rows",
    [("seeded_orbit_n3p12", 220, 3, 16857), ("seeded_orbit_n4p10", 210, 4, 15741)],
    ids=["n3p12", "n4p10"],
)
def test_stored_pivot_defect_reproducers(name, T, n, ic_rows):
    """The first-round LPs and no-sale starts of two seeded symmetric LPs
    (one q block per sorted profile, each truthfulness row folded onto
    them) on which `solve_simplex` stops with a singular basis (ROADMAP
    item 1).  Only their layout is checked here: solving them takes 10 to
    20 seconds."""
    z = np.load(Path(__file__).parent / "data" / f"{name}.npz")
    m, cols = (int(x) for x in z["shape"])
    assert (m, cols) == (T + ic_rows, T * (n + 1))
    A = simplex.Coo(z["row"], z["col"], z["val"], (m, cols))
    senses = z["senses"].tolist()
    assert set(senses) == {"<="} and not z["b"].any()
    # validates the bounds, the senses and the sorted triplets
    simplex._Tableau(-z["c"], A, z["b"], senses, z["lower"], z["upper"])
    assert np.array_equal(z["start"], _no_sale_start(T, n, m))


# ---------------------------------------------------------------------------
# steepest-edge weights: each direction holds only its own, updated inside
# every pivot, they track the norms that they stand for, and pricing reads
# them over every eligible column


@pytest.mark.parametrize(
    "domain_tag, n, points, mode",
    [(HETEROGENEOUS, 3, 4, "lazy"), (IDENTICAL, 3, 6, "lazy"), (IDENTICAL, 2, 8, "full")],
    ids=["het3p4-lazy", "id3p6-lazy", "id2p8-full"],
)
def test_updated_weights_match_recomputed_norms(monkeypatch, domain_tag, n, points, mode):
    # the first round from the no-sale vertex, so that phase 2 steps; the
    # norms recomputed densely here after every eighth pivot: with R
    # the rows no basic unit column covers and C the positions of the
    # basic structural columns, B^-1 [A | I] is A[R, C]^-1 [A | I][R] on C
    # by np.linalg.solve, and on the other positions the covered rows
    # minus their part in C, over the sign of their unit column
    worst = {"gamma": 0.0, "beta": 0.0}
    pivots, dual_pivots = [], []
    real_pivot = simplex._Tableau.pivot

    def norms(tab):
        A = _extended(tab)
        B = A[:, tab.basis]
        unit = tab.basis >= tab.n
        rows = tab.basis[unit] - tab.n
        R = np.setdiff1d(np.arange(tab.m), rows)
        C = np.flatnonzero(~unit)
        top = np.linalg.solve(B[np.ix_(R, C)], A[R])
        rest = A[rows] - B[np.ix_(rows, C)] @ top
        # columns of B^-1 A, then of B^-1, which are the logical columns'
        gamma = (top**2).sum(axis=0) + (rest**2).sum(axis=0)
        beta = np.empty(tab.m)
        beta[C] = (top[:, tab.n :] ** 2).sum(axis=1)
        beta[unit] = (rest[:, tab.n :] ** 2).sum(axis=1)
        return gamma, beta

    def checked_pivot(self, r, *args):
        real_pivot(self, r, *args)
        pivots.append(r)
        in_dual = self.phase is self.trace.dual
        assert in_dual == (self.gamma is None)
        if len(pivots) % 8:
            return
        gamma, beta = norms(self)
        if in_dual:
            worst["beta"] = max(worst["beta"], _rel_err(self.beta, beta))
            dual_pivots.append(r)
        else:
            worst["gamma"] = max(worst["gamma"], _rel_err(self.gamma, gamma))

    monkeypatch.setattr(simplex._Tableau, "pivot", checked_pivot)
    _first_round_at_no_sale(monkeypatch)
    _solve_mechanism(domain_tag, n, points, mode)
    assert worst["gamma"] <= 1e-5
    assert worst["beta"] <= 1e-9
    # warm lazy rounds run the dual simplex; a full solve from the no-sale
    # vertex never does
    assert bool(dual_pivots) == (mode == "lazy")


def test_pricing_reads_the_weights_of_every_column(monkeypatch):
    # the state that each choice is made from: the one left by the last
    # refresh, column or row weighing or upkeep before the pivot
    T = simplex._Tableau
    state, inside, checked = {}, [], {"run": 0, "dual_run": 0}

    def snapshot_after(name):
        real = getattr(T, name)

        def wrapped(self, *args):
            out = real(self, *args)
            state.update(
                d=self.d.copy(),
                gamma=None if self.gamma is None else self.gamma.copy(),
                status=self.status.copy(),
                xB=self.xB.copy(),
                beta=None if self.beta is None else self.beta.copy(),
            )
            return out

        monkeypatch.setattr(T, name, wrapped)

    def track(name):
        real = getattr(T, name)

        def wrapped(self, *args):
            inside.append(name)
            try:
                return real(self, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(T, name, wrapped)

    def first_best(cand, score):
        return int(cand[np.flatnonzero(score == score.max())[0]])

    real_pivot = T.pivot

    def pivot(self, r, j, *args):
        where = inside[-1] if inside else None
        if where == "run":
            d, st = state["d"], state["status"]
            tol = simplex.PIVOT_TOL
            cand = np.flatnonzero(
                (self.upper - self.lower > 0.0)
                & (((st == _LO) & (d < -tol)) | ((st == _UP) & (d > tol)))
            )
            assert j == first_best(cand, d[cand] ** 2 / (1.0 + state["gamma"][cand]))
        elif where == "dual_run":
            assert state["gamma"] is None
            lo_B, up_B, xB = self.lower[self.basis], self.upper[self.basis], state["xB"]
            viol = np.maximum(lo_B - xB, xB - up_B)
            cand = np.flatnonzero(viol > simplex.RATIO_SLACK)
            assert r == first_best(cand, viol[cand] ** 2 / state["beta"][cand])
        if where in checked:
            checked[where] += 1
        real_pivot(self, r, j, *args)

    for name in ("refresh", "weigh_columns", "weigh_rows", "upkeep"):
        snapshot_after(name)
    for name in ("run", "dual_run"):
        track(name)
    monkeypatch.setattr(T, "pivot", pivot)
    # 405 primal and 76 dual pivots with the first round from the no-sale
    # vertex
    _first_round_at_no_sale(monkeypatch)
    _solve_mechanism(IDENTICAL, 2, 14, "lazy")
    assert checked["run"] > 300 and checked["dual_run"] > 10, checked


@pytest.mark.parametrize(
    "domain_tag, n, points",
    [(HETEROGENEOUS, 3, 4), (IDENTICAL, 2, 12)],
    ids=["het3p4-lazy", "id2p12-lazy"],
)
def test_columns_are_weighed_only_where_phase_2_steps(monkeypatch, domain_tag, n, points):
    # per solve, its trace and its weigh_columns calls; and the BTRANs that
    # update_weights makes, by phase
    T = simplex._Tableau
    solves, weighed, inside, btrans = [], [], [], {"dual": 0, "phase2": 0}
    real_solve, real_weigh, real_update, real_btran = (
        simplex.solve_simplex, T.weigh_columns, T.update_weights, T.btran
    )

    def solve(*args, **kwargs):
        weighed.clear()
        res = real_solve(*args, **kwargs)
        solves.append((len(weighed), res.trace))
        return res

    def weigh_columns(self):
        weighed.append(self)
        real_weigh(self)

    def update_weights(self, *args):
        inside.append(self)
        try:
            real_update(self, *args)
        finally:
            inside.pop()

    def btran(self, g):
        if inside:
            btrans["dual" if self.phase is self.trace.dual else "phase2"] += 1
        return real_btran(self, g)

    monkeypatch.setattr(simplex, "solve_simplex", solve)
    for fn in (weigh_columns, update_weights, btran):
        monkeypatch.setattr(T, fn.__name__, fn)
    # the first round from the no-sale vertex, so that phase 2 steps there
    _first_round_at_no_sale(monkeypatch)
    _solve_mechanism(domain_tag, n, points, "lazy")
    assert [w for w, _ in solves] == [int(t.phase2.iterations > 0) for _, t in solves]
    # warm rounds whose phase 2 makes no step, after dual pivots, exist
    assert any(t.dual.iterations and not t.phase2.iterations for _, t in solves[1:])
    assert btrans["dual"] == 0 < btrans["phase2"]


def test_phase_2_after_the_dual_simplex_weighs_columns_afresh(monkeypatch):
    # a cut that the optimum of a random LP violates makes its optimal
    # basis, with the cut's slack basic, dual feasible and primal
    # infeasible; a cost that makes column 0 eligible then sends phase 2
    # off from the basis that the dual simplex left
    rng = np.random.default_rng(1)
    m, n = 6, 5
    A, c, b = rng.uniform(0.1, 1.0, (m, n)), rng.uniform(0.5, 1.0, n), rng.uniform(1.0, 2.0, m)
    lower, upper = np.zeros(n), np.ones(n)
    res = solve_dense(c, A, b, ["<="] * m, lower, upper)
    cut = (np.vstack([A, np.ones(n)]), np.append(b, 0.5 * res.x.sum()), ["<="] * (m + 1))
    tab = simplex._Tableau(-c, _coo(cut[0]), *cut[1:], lower, upper)
    assert tab.warm_start(np.append(res.basis, _B))
    assert tab.settle(1000) == 0.0 and tab.trace.dual.iterations > 0
    assert tab.gamma is None and tab.status[0] == _LO
    tab.cost[0] -= 1.0
    T = simplex._Tableau
    weighed, first = [], []
    real_weigh, real_pivot = T.weigh_columns, T.pivot

    def weigh_columns(self):
        weighed.append(self)
        real_weigh(self)

    def pivot(self, *args):
        if not first:
            Aext = _extended(self)
            ref = np.linalg.solve(Aext[:, self.basis], Aext)
            first.append(_rel_err(self.gamma, (ref**2).sum(axis=0)))
        real_pivot(self, *args)

    monkeypatch.setattr(T, "weigh_columns", weigh_columns)
    monkeypatch.setattr(T, "pivot", pivot)
    tab.run(1000)
    assert len(weighed) == 1
    assert first and first[0] <= 1e-12


@pytest.mark.parametrize(
    "domain_tag, n, points",
    [(IDENTICAL, 2, 12), (HETEROGENEOUS, 3, 4), (IDENTICAL, 3, 6), (IDENTICAL, 2, 16)],
    ids=["id2p12", "het3p4", "id3p6", "id2p16"],
)
def test_lazy_rounds_with_dual_pivots_make_no_phase_2_step(domain_tag, n, points):
    """No lazy round of these instances steps in phase 2 after its dual
    simplex, so dropping gamma there moves no pivot.  A change that breaks
    this lets phase 2 price those rounds by fresh weights instead of
    carried ones, and their pivot paths can move."""
    traces = [r.trace for r in _solve_mechanism(domain_tag, n, points, "lazy").round_log]
    dual = [t for t in traces if t.dual.iterations]
    assert dual and all(t.phase2.iterations == 0 for t in dual)


# ---------------------------------------------------------------------------
# the vectorized solution and certificate against per-row loops: same
# arithmetic in the same order, so bitwise-equal x, y, gap and residual


def _loop_solution(tab):
    """x and y read off the final state of a solve one position and one
    row at a time."""
    n = tab.c_min.size
    x_all = tab._nonbasic_values()
    for i in range(tab.m):
        x_all[int(tab.basis[i])] = tab.xB[i]
    # y for the maximization, the solver having minimized -c.x
    return x_all[:n], np.array([tab.d[n + i] for i in range(tab.m)])


def _loop_certificate(lp, x, y):
    """`optlp.certificate` recomputed row by row and column by column from
    the LP's arrays, every row's logical column included.  The products
    with A sum its nonzero entries one at a time in row order, each row's
    in column order."""
    c, A, b, senses, lower, upper = lp
    m, n = len(b), len(c)
    sign = np.array([-1.0 if s == ">=" else 1.0 for s in senses])
    is_eq = [s == "=" for s in senses]
    # the internal minimization of -c.x over the '<=' form of each row
    y_cert = -np.asarray(y)
    for i in range(m):
        if not is_eq[i] and y_cert[i] > 0.0:
            y_cert[i] = 0.0
    yA, Ax = np.zeros(n), np.zeros(m)
    for i, j, a in zip(A.row.tolist(), A.col.tolist(), A.val.tolist()):
        if a != 0.0:
            a *= float(sign[i])
            yA[j] += a * y_cert[i]
            Ax[i] += a * x[j]
    c_min = -np.asarray(c, dtype=float)
    # the logical column of row i has reduced cost 0 - y_i and lives in
    # [0, inf), or [0, 0] on an equality row
    d_cert = np.concatenate([c_min - yA, 0.0 - y_cert])
    lo = np.concatenate([lower, np.zeros(m)])
    up = np.concatenate([upper, [0.0 if eq else np.inf for eq in is_eq]])
    b_int = np.asarray(b, dtype=float) * sign
    zd = float(y_cert @ b_int)
    for j in range(n + m):
        dj = float(d_cert[j])
        if dj > optlp.DUAL_ZERO_TOL:
            zd += dj * lo[j] if np.isfinite(lo[j]) else -np.inf
        elif dj < -optlp.DUAL_ZERO_TOL:
            zd += dj * up[j] if np.isfinite(up[j]) else -np.inf
    gap = abs(float(c_min @ x) - zd) if np.isfinite(zd) else float("inf")
    res = Ax - b_int
    max_infeas = 0.0
    for i in range(m):
        max_infeas = max(max_infeas, abs(float(res[i])) if is_eq[i] else float(res[i]))
    for j in range(n):
        max_infeas = max(max_infeas, float(lower[j] - x[j]), float(x[j] - upper[j]))
    return -zd, float(gap), max_infeas


def _beale_with_copies():
    # Beale's instance, in the unit box, plus two opposite copies of an
    # equality row, one of them redundant
    return (
        [0.75, -150.0, 0.02, -6.0],
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [0.0, -1.0, 0.0, 1.0],
        ],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        ["<=", "<=", "<=", "=", "="],
        [0.0] * 4,
        [1.0] * 4,
    )


def _planted_lp(seed):
    """Boxed LP with '<=', '>=' and '=' rows around a planted interior
    point, so it always has an optimum."""
    rng = np.random.default_rng(3000 + seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    A = rng.normal(size=(m, n))
    senses = [("<=", ">=", "=")[i % 3] for i in range(m)]
    room = np.array([{"<=": 0.1, ">=": -0.1, "=": 0.0}[s] for s in senses])
    b = A @ rng.uniform(0.2, 0.8, size=n) + room
    c = rng.normal(size=n)
    # the even seeds minimize c.x, as max -c.x
    return (c if seed % 2 else -c), A, b, senses, np.zeros(n), np.ones(n)


def _revenue_lp(domain_tag, n, points):
    args = _revenue_lp_args(domain_tag, n, points)
    return tuple(args[k] for k in ("c", "A", "b", "senses", "lower", "upper"))


def _first_lazy_round(domain_tag, n, points):
    """The LP of a lazy solve's first round: each type's truthfulness rows
    against its nearest reports only."""
    grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
    types = (enumerate_identical if domain_tag == IDENTICAL else enumerate_hetero)(grid)
    k, l = np.nonzero(optlp._neighbor_pairs(types))
    weights = embed(uniform_distribution(types, domain_tag), types)
    return optlp._revenue_lp(types, weights, domain_tag, (k, l)).arrays()


@pytest.mark.parametrize(
    "lp",
    [
        pytest.param(MIXED_START_LP, id="mixed_start"),
        pytest.param(_beale_with_copies(), id="beale_redundant_eq"),
        pytest.param(_revenue_lp(IDENTICAL, 2, 6), id="id2p6"),
        pytest.param(_revenue_lp(HETEROGENEOUS, 2, 3), id="het2p3"),
        # on these two, adding U(y)'s terms in another order than left to
        # right changes the last bits of the gap
        pytest.param(_first_lazy_round(IDENTICAL, 2, 8), id="id2p8_round1"),
        pytest.param(_first_lazy_round(HETEROGENEOUS, 3, 4), id="het3p4_round1"),
    ]
    + [pytest.param(_planted_lp(seed), id=f"planted{seed}") for seed in range(20)],
)
def test_certificate_matches_row_loops(monkeypatch, lp):
    tabs = []

    class Recording(simplex._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            tabs.append(self)

    monkeypatch.setattr(simplex, "_Tableau", Recording)
    c, A, b, senses, lower, upper = lp
    c, b, lower, upper = (np.asarray(v, dtype=float) for v in (c, b, lower, upper))
    lp = (c, _coo(A), b, senses, lower, upper)
    res = solve_simplex(*lp)
    assert res.status == OPTIMAL
    assert (res.duality_gap, res.max_infeasibility) == (None, None)
    x, y = _loop_solution(tabs[0])
    assert res.x.tobytes() == x.tobytes()
    assert res.y.tobytes() == y.tobytes()
    cert, want = optlp.certificate(lp, res.x, res.y), _loop_certificate(lp, x, y)
    assert cert == want
    assert np.array(cert[1:]).tobytes() == np.array(want[1:]).tobytes()


def test_certificate_of_a_non_optimal_dual_has_a_gap():
    # zeroing the largest dual keeps y dual feasible, so U(y) still bounds
    # the optimum from above, but no longer at the optimum
    types = enumerate_identical(Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4))
    lp = build_revenue_lp(types, uniform_distribution(types, IDENTICAL), IDENTICAL)
    res = optlp.solve_lp(lp)
    assert res.duality_gap <= GAP_TOL
    y = res.y.copy()
    y[np.argmax(y)] = 0.0
    bound, gap, residual = optlp.certificate(lp.arrays(), res.x, y)
    assert residual == res.max_infeasibility <= FEAS_TOL
    assert bound - res.objective == pytest.approx(gap, abs=1e-15)
    assert gap > GAP_TOL
    # every row is '<=', so a negative dual counts as 0
    y[np.argmax(res.y)] = -1.0
    assert optlp.certificate(lp.arrays(), res.x, y) == (bound, gap, residual)


def _highs_certificate(lp):
    """The certificate of the independent solver's x and row duals, the
    duals mapped to `SimplexResult.y`: one per row, for its '<=' form of
    the maximization.  HiGHS minimizes -c.x and reports d(objective) /
    d(rhs), whose sign is the opposite."""
    c, A, b, senses, lower, upper = lp
    senses = np.asarray(senses)
    sign = np.where(senses == ">=", -1.0, 1.0)
    M = sparse.csr_matrix((A.val * sign[A.row], (A.row, A.col)), shape=A.shape)
    ub = senses != "="
    ref = linprog(
        -c, A_ub=M[ub], b_ub=(b * sign)[ub], A_eq=M[~ub], b_eq=b[~ub],
        bounds=list(zip(lower, upper)), method="highs",
    )
    assert ref.status == 0
    y = np.zeros(len(b))
    y[ub], y[~ub] = -ref.ineqlin.marginals, -ref.eqlin.marginals
    return -ref.fun, y, optlp.certificate(lp, ref.x, y)


@pytest.mark.parametrize("seed", [0, 11, 16, 19])
def test_certificate_accepts_an_independent_optimum_of_planted_lp(seed):
    c, A, b, senses, lower, upper = _planted_lp(seed)
    value, y, (_, gap, residual) = _highs_certificate((c, _coo(A), b, senses, lower, upper))
    # each sense has a binding row, so each sign convention is exercised
    for sense in ("<=", ">=", "="):
        assert np.any(y[np.asarray(senses) == sense] != 0.0), sense
    assert gap <= GAP_TOL * max(1.0, abs(value))
    assert residual <= FEAS_TOL


def test_certificate_accepts_an_independent_optimum_of_revenue_lp():
    # the full id2p8 LP: 36 types, every one of the 1,260 truthfulness rows
    types = enumerate_identical(Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=8))
    lp = build_revenue_lp(types, uniform_distribution(types, IDENTICAL), IDENTICAL)
    value, _, (_, gap, residual) = _highs_certificate(lp.arrays())
    assert value == pytest.approx(optlp.solve_lp(lp).objective, abs=1e-9)
    assert gap <= GAP_TOL * max(1.0, abs(value))
    assert residual <= FEAS_TOL


# ---------------------------------------------------------------------------
# warm start from an earlier basis: the lazy-round pattern of appending
# violated rows and pruning slack ones, and every start that falls back


def _count_tableaus(monkeypatch):
    built = []

    class Counting(simplex._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(simplex, "_Tableau", Counting)
    return built


def _next_round(seed):
    """A planted LP, its optimum, and the next round's LP: some rows
    whose slack is basic pruned, and rows the optimum violates (but the
    planted point satisfies) appended with their slack basic."""
    rng = np.random.default_rng(4000 + seed)
    n = int(rng.integers(3, 8))
    m = int(rng.integers(3, 9))
    x0 = rng.uniform(0.2, 0.8, size=n)
    A = rng.normal(size=(m, n))
    senses = [("<=", ">=", "=")[i % 3] if seed % 2 else "<=" for i in range(m)]
    room = np.array([{"<=": 0.2, ">=": -0.2, "=": 0.0}[s] for s in senses])
    b = A @ x0 + room
    c = rng.normal(size=n)
    lower, upper = np.zeros(n), np.ones(n)
    first = solve_dense(c, A, b, senses, lower, upper)
    assert first.status == OPTIMAL
    slack_basic = np.flatnonzero(first.basis[n:] == simplex._BASIC)
    keep = np.ones(m, dtype=bool)
    keep[slack_basic[: (slack_basic.size + 1) // 2]] = False
    new_A, new_b, new_senses = [], [], []
    while len(new_A) < 3:
        a = rng.normal(size=n)
        lo, hi = sorted((float(a @ x0), float(a @ first.x)))
        if hi - lo < 1e-3:
            continue
        # cut off the optimum halfway to the planted point
        if a @ first.x > a @ x0:
            new_A.append(a), new_b.append(0.5 * (lo + hi)), new_senses.append("<=")
        else:
            new_A.append(a), new_b.append(0.5 * (lo + hi)), new_senses.append(">=")
    A2 = np.vstack([A[keep], new_A])
    b2 = np.concatenate([b[keep], new_b])
    senses2 = [s for s, k in zip(senses, keep) if k] + new_senses
    start = np.concatenate(
        [first.basis[:n], first.basis[n:][keep], np.full(len(new_A), simplex._BASIC, np.int8)]
    )
    return (c, A2, b2, senses2, lower, upper), start


@pytest.mark.parametrize("seed", range(12))
def test_warm_start_after_adding_and_pruning_rows(monkeypatch, certified, seed):
    (c, A, b, senses, lower, upper), start = _next_round(seed)
    cold = solve_dense(c, A, b, senses, lower, upper)
    built = _count_tableaus(monkeypatch)
    warm = solve_dense(c, A, b, senses, lower, upper, start=start)
    assert len(built) == 1, "the start fell back to a cold solve"
    ref = _scipy_solve(c, A, b, senses, lower, upper)
    assert warm.status == cold.status == OPTIMAL and ref.status == 0
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    assert warm.objective == pytest.approx(-ref.fun, abs=1e-9)
    certified(warm)
    assert (warm.basis == simplex._BASIC).sum() == len(b)


# max x0 + x1 + 0.5 x2 with columns 0 and 1 equal, so a basis holding both
# is singular
FALLBACK_LP = (
    [1.0, 1.0, 0.5],
    [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]],
    [2.0, 1.0],
    ["<=", "<="],
    [0.0, 0.0, -1.0],
    [1.0, 1.0, 1.0],
)
# max -x with x >= 2 on [0, 1]: infeasible, so the dual ratio test runs
# out of entering columns
INFEASIBLE_LP = ([-1.0], [[1.0]], [2.0], [">="], [0.0], [1.0])

_LO, _UP, _B = simplex._LO, simplex._UP, simplex._BASIC


@pytest.mark.parametrize(
    "lp, start",
    [
        (FALLBACK_LP, [_LO, _LO, _UP, _B]),
        (FALLBACK_LP, [_B, _LO, _UP, _B, _B]),
        (FALLBACK_LP, [_B, _B, _UP, _LO, _LO]),
        (FALLBACK_LP, [_UP, _UP, _B, _B, _LO]),
        (FALLBACK_LP, [_B, _UP, _LO, _B, _UP]),
        (FALLBACK_LP, [_LO, _LO, _UP, _B, 7]),
        (INFEASIBLE_LP, [_LO, _B]),
    ],
    ids=[
        "wrong_length",
        "too_many_basic",
        "singular",
        "neither_primal_nor_dual_feasible",
        "infinite_bound",
        "unknown_status",
        "no_entering_column",
    ],
)
def test_unusable_start_gives_the_cold_result(monkeypatch, lp, start):
    cold = solve_dense(*lp)
    built = _count_tableaus(monkeypatch)
    warm = solve_dense(*lp, start=np.asarray(start, dtype=np.int8))
    assert len(built) == 2
    assert (warm.status, warm.objective, warm.iterations) == (
        cold.status,
        cold.objective,
        cold.iterations,
    )
    for name in ("x", "y", "basis"):
        a, b = getattr(warm, name), getattr(cold, name)
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


def test_primal_feasible_start_goes_straight_to_phase_2(monkeypatch, certified):
    # max x0 + 2 x1 with 1 <= x0 + x1 <= 1.5: the start with x0 basic on
    # the first row is primal feasible but not dual feasible (x1 at its
    # lower bound prices out), so it goes straight to phase 2.
    lp = ([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.5], [">=", "<="], [0.0, 0.0], [1.0, 1.0])
    cold = solve_dense(*lp)
    built = _count_tableaus(monkeypatch)
    warm = certified(solve_dense(*lp, start=np.asarray([_B, _LO, _LO, _B], dtype=np.int8)))
    assert len(built) == 1
    assert warm.trace.dual.iterations == 0 < warm.trace.phase2.iterations
    assert warm.status == cold.status == OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)


def _count_factors(monkeypatch):
    """Record every `_Tableau.factor` call."""
    calls = []
    real = simplex._Tableau.factor

    def factor(self):
        real(self)
        calls.append(self)

    monkeypatch.setattr(simplex._Tableau, "factor", factor)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_zero_pivot_warm_start_heals_once(monkeypatch, certified, seed):
    # started at its own optimum, a solve factors the start, refactors once
    # to heal, makes no pivot from there, and certifies the cold optimum
    (c, A, b, senses, lower, upper), _ = _next_round(seed)
    cold = solve_dense(c, A, b, senses, lower, upper)
    calls = _count_factors(monkeypatch)
    warm = certified(solve_dense(c, A, b, senses, lower, upper, start=cold.basis))
    assert len(calls) == warm.trace.refactors == 2
    assert warm.iterations == 0 and warm.trace.heal_rounds == 1
    assert warm.basis.tobytes() == cold.basis.tobytes()
    # the same basis, its kernel columns in another order, so equal up to
    # the rounding of the factorization
    assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
    assert np.allclose(warm.x, cold.x, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the solve trace: deterministic counts that add up, and no dense tableau


def _traced_solves(monkeypatch):
    results = []
    real = simplex.solve_simplex

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(simplex, "solve_simplex", recording)
    return results


@pytest.mark.parametrize("case", ["mixed_start", "warm_start", "het3p4-lazy"])
def test_trace_repeats_and_adds_up(monkeypatch, case):
    def solve():
        if case == "mixed_start":
            return [solve_dense(*MIXED_START_LP)]
        if case == "warm_start":
            (c, A, b, senses, lower, upper), start = _next_round(3)
            return [solve_dense(c, A, b, senses, lower, upper, start=start)]
        with monkeypatch.context() as mp:
            results = _traced_solves(mp)
            _solve_mechanism(HETEROGENEOUS, 3, 4, "lazy")
        return results

    first, again = solve(), solve()
    assert [res.trace for res in first] == [res.trace for res in again]
    for res in first:
        tr = res.trace
        assert tr.dual.iterations + tr.phase2.iterations == res.iterations
        assert tr.rollbacks == 0 and tr.refactors >= tr.heal_rounds >= 1
        assert 0.0 < tr.min_pivot_ratio <= 1.0
        for phase in (tr.dual, tr.phase2):
            assert 0 <= phase.degenerate <= phase.iterations
    # the slack basis of MIXED_START_LP and the next round's start both
    # violate rows; every lazy round after the first adds violated rows
    duals = [res.trace.dual.iterations > 0 for res in first]
    if case == "het3p4-lazy":
        assert len(duals) > 1 and all(duals[1:])
    else:
        assert duals == [True]


@pytest.mark.parametrize(
    "case, max_iters, where",
    [
        ("mixed_start", 2, "phase 2, iteration 2, refactors 1"),
        ("warm_start", 1, "dual simplex, iteration 1, refactors 1"),
        ("id2p3", 5, "phase 2, iteration 5, refactors 3"),
    ],
)
def test_simplex_error_names_phase_iteration_and_refactors(monkeypatch, case, max_iters, where):
    # a refactor every 2 iterations, so the count moves within a few; the
    # smallest pivot ratio |w_r| / max|w| is recomputed at every pivot
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 2)
    if case == "mixed_start":
        solve = lambda: solve_dense(*MIXED_START_LP, max_iters=max_iters)
    elif case == "warm_start":
        lp, start = _next_round(3)
        solve = lambda: solve_dense(*lp, start=start, max_iters=max_iters)
    else:
        # from the no-sale vertex, which is primal feasible
        args = _revenue_lp_args(IDENTICAL, 2, 3)
        start = _no_sale_start(6, 2, len(args["b"]))  # 6 types of 2 values
        solve = lambda: solve_simplex(**args, start=start, max_iters=max_iters)
    ratios = []
    real_pivot = simplex._Tableau.pivot

    def pivot(self, r, j, w, *args):
        ratios.append(abs(w[r]) / np.max(np.abs(w)))
        real_pivot(self, r, j, w, *args)

    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    with pytest.raises(simplex.SimplexError) as exc:
        solve()
    assert str(exc.value) == (
        f"iteration limit {max_iters} reached ({where}, smallest pivot ratio {min(ratios):.3g})"
    )


def test_no_dense_tableau_under_tracemalloc(monkeypatch):
    # the traced peak of a whole lazy solve stays below one m x (n + m)
    # float array at its last round, the size of the dense tableau
    shapes = []
    real = simplex.solve_simplex

    def recording(c, A, *args, **kwargs):
        shapes.append(A.shape)
        return real(c, A, *args, **kwargs)

    monkeypatch.setattr(simplex, "solve_simplex", recording)
    grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=12)
    types = enumerate_identical(grid)
    dist = uniform_distribution(types, IDENTICAL)
    tracemalloc.start()
    try:
        optimal_mechanism(types, dist, IDENTICAL, mode="lazy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m, n = shapes[-1]
    assert (m, n + m) == (657, 891)
    assert peak < m * (n + m) * 8
