"""Revised bounded dual and primal simplex for boxed LPs.

Solves   max  c.x   s.t.  A x {<=,>=,=} b,   lower <= x <= upper,

with both bounds of every variable finite; a variable without two
finite bounds raises ValueError.  Every LP in the package is boxed:
allocations live in the unit box and payments within the total surplus
plus one.

A comes as a `Coo`: its entries as triplets sorted by row, then column,
at most one per position; a repeated or out-of-order entry raises
ValueError.  The solver reads the nonzero entries once and never builds
the dense m x n matrix; zero entries, -0.0 included, are dropped as
they are read.

Design constraints, in order:

1. Determinism.  Same inputs give bitwise-identical output on a machine:
   both directions choose every pivot by one pricing rule (`_price`) and
   one ratio test (`_ratio_test`), each breaking ties by index; a streak
   of BLAND_AFTER degenerate pivots switches both to Bland's
   smallest-index rule (which cannot cycle) until progress resumes; all
   floating-point reductions run in fixed order, and refactorizations
   happen on a fixed iteration schedule.
2. Honest certificates.  Every optimal solve reports its point and row
   duals and nothing more; `optlp.solve_lp` checks them by weak duality
   on the caller's LP, never on the solver's copies.
3. Termination over speed.  Finitely many bases, strictly fewer after
   every nondegenerate step, and Bland inside degenerate streaks give a
   finite bound.  The basis is held as the dense inverse of its kernel
   (below), whose side is at most min(rows, columns); problem sizes are
   expected to stay in the low thousands of rows.

Row i owns the logical column n + i, the unit vector of its row: a
slack in [0, inf) for an inequality, a marker fixed to [0, 0] for an
equality.  Only the basis kernel carries information: with R the rows
whose logical column is nonbasic and C the basic structural columns,
|R| = |C| = k and the basis matrix is nonsingular exactly when
K = A[R, C] is.  The solver keeps K^-1 explicitly.  B^-1 v (FTRAN) is
K^-1 v_R on the kernel positions and, on each covered row, v_i minus
A[i, C] K^-1 v_R; B^-T g (BTRAN) is the transpose.  Each pivot updates
K^-1 by one product-form step: a rank-one step when a column or a row of
K is swapped, a bordered step when K gains or loses a row and a column.
K^-1 is refactored by np.linalg.solve every REFACTOR_EVERY pivots and at
least once before the result is read off.  The structural nonzeros are read
once per solve; FTRAN and BTRAN each cost a k x k product plus one pass
over them, the pivot row a k x n product with the dense kernel rows, so
a pivot costs O(k^2 + nnz) and no array with a column per row is ever
built.  Each iteration hands its entering column and pivot row to
`_Tableau.pivot`; the tableau keeps neither.

Pricing, of phase 2's entering column and of the dual simplex's leaving
row, reads steepest-edge weights (Forrest & Goldfarb 1992): gamma_j =
|B^-1 a_j|^2 for every column from phase 2's first eligible column on,
and beta_i = |e_i^T B^-1|^2 while the dual simplex runs, which drops
gamma.  Each is computed from scratch where it starts and after a
rollback, and every pivot carries it across (`_Tableau.update_weights`)
by one BTRAN (of the entering column, for gamma) or FTRAN (of the pivot
row of B^-1, for beta) beyond the pivot's own.  tests/test_simplex.py
checks FTRAN, BTRAN and K^-1 against a dense reference at every pivot,
and both weights against recomputed norms.

A solve starts from one of two bases, and the same code takes over from
either (`_Tableau.settle`).  Without a usable `start`, it is the slack
basis: every logical column basic, every structural column at its upper
bound where its cost prefers it and at its lower one elsewhere.  Its
kernel is empty, so it needs no factorization, and with both bounds
finite it is dual feasible, so no phase 1 is needed (Koberstein 2005,
"The dual simplex method, techniques for a fast and stable
implementation").  `start` takes instead the `basis` of an earlier
result, one status per structural column and then per row's logical
column, and the solver factors it.  Either basis goes to phase 2 if it
is primal feasible; if it is dual feasible instead, a bounded dual
simplex (`_Tableau.dual_run`) restores primal feasibility first.  A
start that `warm_start` or `settle` refuses falls back to the slack
basis, whose result it then returns.  A violated row that the dual
ratio test cannot repair from the slack basis proves the LP infeasible.
The revenue LPs pass the no-sale vertex to their first solve, and lazy
row generation each round's optimal basis to the next round; the
lexicographic repair passes each coordinate's optimal basis, with that
coordinate's values fixed through their bounds, to the next
coordinate's solve.  Reruns are bitwise identical for a fixed BLAS
thread count: the rounding of the dense products, and through it a tie
between pivots, can depend on the number of threads.

Row duals come off the reduced cost of each row's logical column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
REFACTOR_EVERY = 512
BLAND_AFTER = 512
RATIO_SLACK = 1e-11
HEAL_ROUNDS = 8
BETA_FLOOR = 1e-12
WEIGH_BLOCK = 64

_LO, _UP, _BASIC = 0, 1, 2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class Coo(NamedTuple):
    """A constraint matrix of `shape` (rows, columns) as triplets: entry e
    puts val[e] on column col[e] of row row[e].  Sorted by row, then
    column, with at most one entry per position."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]


class SimplexError(RuntimeError):
    """Numerical failure or iteration-limit breach inside the solver.  The
    message names the phase, the iteration and the refactor count where
    the solve stood, and the smallest pivot ratio seen."""


@dataclass
class PhaseCounts:
    iterations: int = 0
    degenerate: int = 0


@dataclass
class SolveTrace:
    """Deterministic counts of one solve: the dual simplex's iterations,
    then phase 2's, heal runs included.  Every factorization (a start
    basis's, a scheduled one, a heal's, a rollback's) counts in
    `refactors`; the slack basis needs none.  An optimal result has at
    least one heal round, and its last one's run made no pivot.
    `min_pivot_ratio` is the smallest |w_r| / max|w| over the pivots, w
    the entering column and r the pivot row, and 1 before the first
    pivot."""

    dual: PhaseCounts = field(default_factory=PhaseCounts)
    phase2: PhaseCounts = field(default_factory=PhaseCounts)
    bland_switches: int = 0
    refactors: int = 0
    heal_rounds: int = 0
    rollbacks: int = 0
    min_pivot_ratio: float = 1.0


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    y: np.ndarray | None
    duality_gap: float | None
    max_infeasibility: float | None
    iterations: int
    # int8 status (lower, upper, basic) of each structural column, then of
    # each row's logical column, in row order; a valid `start` for a
    # later solve.  None unless optimal.
    basis: np.ndarray | None = None
    trace: SolveTrace | None = None


def _price(ok, score, key, bland):
    """Of the entries where `ok` holds, the one with the largest `score`,
    first index on ties, or under Bland's rule the smallest `key` (the
    index itself where `key` is None); -1 if none holds."""
    if bland:
        at = ok.nonzero()[0]
        return -1 if not at.size else int(at[0] if key is None else at[np.argmin(key[at])])
    i = int(np.argmax(np.where(ok, score, -1.0)))
    return i if ok[i] else -1


def _ratio_test(dist, piv, key, bland):
    """(winner, step) of the ratio test over candidates with distance
    `dist` to the bound each would hit, pivot element `piv` and variable
    index `key`; (-1, inf) if none has |piv| > PIVOT_TOL.  Each blocks at
    max(dist, 0) / |piv|.  Of those within RATIO_SLACK of the smallest
    step the largest |piv| wins, then the smallest key; under Bland's
    rule the smallest key among the exact minima."""
    size = np.abs(piv)
    at = (size > PIVOT_TOL).nonzero()[0]
    if not at.size:
        return -1, np.inf
    size = size[at]
    ratio = np.maximum(dist[at], 0.0) / size
    step = float(ratio.min())
    near = (ratio == step if bland else ratio <= step + RATIO_SLACK).nonzero()[0]
    if near.size > 1:
        keys = key[at[near]]
        near = near[np.lexsort((keys,) if bland else (keys, -size[near]))]
    return int(at[near[0]]), step


def _rank_one(M, a, b):
    """M -= outer(a, b), on the rows where a is nonzero."""
    nz = a.nonzero()[0]
    M[nz] -= a[nz, None] * b


class _Tableau:
    """Mutable solver state; one instance per solve call.

    Internally always minimizes; '>=' rows are negated into '<=' rows.
    Column layout: the n structural columns, then the logical column
    n + i of each row i, the unit vector e_i.

    `basis[p]` is the variable basic at position p, `xB[p]` its value,
    `loB[p]`, `upB[p]` its bounds.
    The kernel: rows `kr`, structural columns `kc` at positions `kp`, and
    `Kinv` = A[kr, kc]^-1, indexed (kernel column, kernel row), plus the
    dense kernel rows AR = A[kr, :].  `map_units` says where the basic
    logical columns sit.
    """

    def __init__(self, c_min, A, b, senses, lower, upper):
        c_min = np.asarray(c_min, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n = c_min.shape[0]
        m = len(b)
        if np.any(lower > upper):
            raise ValueError("crossed variable bounds")
        unboxed = np.flatnonzero(~(np.isfinite(lower) & np.isfinite(upper)))
        if unboxed.size:
            raise ValueError(f"variable {unboxed[0]} needs two finite bounds")
        unknown = set(senses) - {"<=", ">=", "="}
        if unknown:
            raise ValueError(f"unknown sense {unknown.pop()!r}")
        senses = np.asarray(senses)
        self.row_sign = np.where(senses == ">=", -1.0, 1.0)
        if tuple(A.shape) != (m, n):
            raise ValueError(f"constraint matrix shape {tuple(A.shape)} != {(m, n)}")
        arow = np.asarray(A.row, dtype=np.intp)
        acol = np.asarray(A.col, dtype=np.intp)
        # one comparison of neighbours: each (row, column) after the last
        key = arow * n + acol
        bad = np.flatnonzero(key[1:] <= key[:-1]) + 1
        if bad.size:
            e = int(bad[0])
            what = "repeats" if key[e] == key[e - 1] else "is out of order"
            raise ValueError(f"constraint entry {e} at ({arow[e]}, {acol[e]}) {what}")
        # the nonzeros, row-signed, in row order
        val = np.asarray(A.val, dtype=float)
        nz = val != 0.0
        self.arow = arow[nz]
        self.acol = acol[nz]
        self.aval = val[nz] * self.row_sign[self.arow]
        self.rptr = np.concatenate([[0], np.cumsum(np.bincount(self.arow, minlength=m))])
        self.b = np.asarray(b, dtype=float) * self.row_sign
        self.is_eq = senses == "="

        self.c_min = c_min
        self.cost = np.concatenate([c_min, np.zeros(m)])
        self.n = n
        self.m = m
        self.n_total = n + m
        self.lower = np.concatenate([lower, np.zeros(m)])
        self.upper = np.concatenate([upper, np.where(self.is_eq, 0.0, np.inf)])
        self.movable = (self.upper - self.lower) > 0.0
        self.iterations = 0
        self.refactor_every = REFACTOR_EVERY
        self.rolled_back = False
        self.gamma = self.beta = None
        self.trace = SolveTrace()
        self.phase = self.trace.phase2

    def error(self, what):
        """A SimplexError for `what`, naming the phase, the iteration, the
        refactor count and the smallest pivot ratio where the solve
        stands."""
        t = self.trace
        phase = "dual simplex" if self.phase is t.dual else "phase 2"
        return SimplexError(
            f"{what} ({phase}, iteration {self.iterations}, refactors {t.refactors}, "
            f"smallest pivot ratio {t.min_pivot_ratio:.3g})"
        )

    def nb_value(self, j):
        return self.lower[j] if self.status[j] == _LO else self.upper[j]

    def _nonbasic_values(self):
        vals = np.where(self.status == _UP, self.upper, self.lower)
        vals[self.status == _BASIC] = 0.0
        return vals

    def slack_start(self):
        """Load the slack basis: every logical column basic, and each
        structural column at its upper bound where c_min < 0, at its lower
        one elsewhere.  The reduced cost of a structural column is then
        its cost, so the basis is dual feasible.  The kernel is empty, so
        nothing is factored."""
        self.status = np.full(self.n_total, _BASIC, dtype=np.int8)
        self.status[: self.n] = np.where(self.c_min < 0.0, _UP, _LO)
        self.basis = np.arange(self.n, self.n_total)
        self.map_units()
        self.set_kernel(np.zeros(0, dtype=int), np.zeros(0, dtype=int))

    def warm_start(self, start):
        """Load and factor the basis `start` (a SimplexResult.basis).
        Returns False if it cannot be used: wrong length, an unknown
        status, not exactly one basic column per row, a slack nonbasic at
        its infinite upper bound, or a singular basis matrix."""
        start = np.asarray(start)
        if start.shape != (self.n_total,) or not np.isin(start, (_LO, _UP, _BASIC)).all():
            return False
        status = start.astype(np.int8)
        if np.count_nonzero(status == _BASIC) != self.m:
            return False
        if np.any((status == _UP) & ~np.isfinite(self.upper)):
            return False
        self.status = status
        # a basic logical column stays in its own row; the basic
        # structural columns fill the other rows in column order
        self.basis = np.arange(self.n, self.n_total)
        self.basis[status[self.n :] != _BASIC] = np.flatnonzero(status[: self.n] == _BASIC)
        try:
            self.factor()
        except np.linalg.LinAlgError:
            return False
        return True

    def settle(self, max_iters):
        """Make the loaded start basis ready for phase 2.  Prices; a basis
        whose basic values all lie within RATIO_SLACK of their bounds is
        ready as it is, whatever its reduced costs: a previous optimum with
        some columns fixed through their bounds is one.  Any other basis
        must be dual feasible within PIVOT_TOL, and `dual_run` then makes
        it primal feasible.  Returns 0.0 once ready, inf for a basis that
        is neither primal nor dual feasible, and otherwise the violation of
        the row that the dual ratio test cannot repair; the solver state is
        then spoiled."""
        self.refresh()
        if not (self.violation() > RATIO_SLACK).any():
            return 0.0
        if self.eligible().any():
            return np.inf
        return self.dual_run(max_iters)

    def _times(self, x):
        """A x over the rows, x over the structural columns."""
        return np.bincount(self.arow, weights=self.aval * x[self.acol], minlength=self.m)

    def _rtimes(self, y):
        """A^T y over the structural columns, y over the rows."""
        return np.bincount(self.acol, weights=self.aval * y[self.arow], minlength=self.n)

    def _block(self, rows, cols):
        """A[rows][:, cols] as a dense block."""
        at_r = np.full(self.m, -1)
        at_r[rows] = np.arange(rows.size)
        at_c = np.full(self.n, -1)
        at_c[cols] = np.arange(cols.size)
        i, k = at_r[self.arow], at_c[self.acol]
        sel = (i >= 0) & (k >= 0)
        D = np.zeros((rows.size, cols.size))
        D[i[sel], k[sel]] = self.aval[sel]
        return D

    def _row_of(self, i):
        """A[i, :] as a dense vector."""
        a = np.zeros(self.n)
        lo, hi = self.rptr[i], self.rptr[i + 1]
        a[self.acol[lo:hi]] = self.aval[lo:hi]
        return a

    def map_units(self):
        """Where the basic logical columns sit: position p holds the one of
        row prow[p], and row i is covered by position rpos[i].  prow is
        stale on the kernel positions and rpos on the kernel rows, which
        FTRAN and BTRAN overwrite.  Sets loB, upB; returns the covered
        rows."""
        self.loB, self.upB = self.lower[self.basis], self.upper[self.basis]
        unit = self.basis >= self.n
        rows = self.basis[unit] - self.n
        self.prow = np.zeros(self.m, dtype=int)
        self.prow[unit] = rows
        self.rpos = np.zeros(self.m, dtype=int)
        self.rpos[rows] = np.flatnonzero(unit)
        return rows

    def set_kernel(self, rows, positions):
        """Lay out the kernel on `rows` and the structural columns at
        `positions` in buffers of side min(m, n), so that it grows and
        shrinks in place; rk and pk map a row and a position to its kernel
        index (-1 outside)."""
        k, cap = rows.size, min(self.m, self.n)
        self.KB = np.zeros((cap, cap))
        self.ARB = np.zeros((cap, self.n))
        self.ARB[:k] = self._block(rows, np.arange(self.n))
        self.krb, self.kcb, self.kpb = (np.zeros(cap, dtype=int) for _ in range(3))
        self.krb[:k], self.kpb[:k], self.kcb[:k] = rows, positions, self.basis[positions]
        self.rk = np.full(self.m, -1)
        self.rk[rows] = np.arange(k)
        self.pk = np.full(self.m, -1)
        self.pk[positions] = np.arange(k)
        self.resize(k)

    def resize(self, k):
        self.k = k
        self.Kinv, self.AR = self.KB[:k, :k], self.ARB[:k]
        self.kr, self.kc, self.kp = self.krb[:k], self.kcb[:k], self.kpb[:k]

    def ftran(self, v):
        """B^-1 v by positions, v over the rows."""
        xs = self.Kinv @ v[self.kr]
        if xs.size:
            x = np.zeros(self.n)
            x[self.kc] = xs
            v = v - self._times(x)
        w = v[self.prow]
        w[self.kp] = xs
        return w

    def btran(self, g):
        """u^T a_j for every column j, u over the rows with B^T u = g, g by
        positions: A^T u on the structural columns, then u itself."""
        u = g[self.rpos]
        u[self.kr] = 0.0
        atu = self._rtimes(u)
        if self.k:
            ur = (g[self.kp] - atu[self.kc]) @ self.Kinv
            u[self.kr] = ur
            atu += ur @ self.AR
        return np.concatenate([atu, u])

    def column(self, j):
        """B^-1 a_j by positions.  For a structural j the kernel part is
        K^-1 A[kr, j], and the covered rows are read off A x with x = that
        part on kc and -1 on j."""
        if j >= self.n:
            v = np.zeros(self.m)
            v[j - self.n] = 1.0
            return self.ftran(v)
        xs = self.Kinv @ self.AR[:, j]
        x = np.zeros(self.n)
        x[self.kc] = xs
        x[j] = -1.0
        w = -self._times(x)[self.prow]
        w[self.kp] = xs
        return w

    def pivot_row(self, r):
        """(alpha, y): y = row r of B^-1 over the rows, alpha_j = y^T a_j
        for every column, exactly 0 on the basic columns but basis[r],
        where it is 1.  y lives on the kernel rows and, when basis[r] is
        the logical column of row p, on p, where B^T y = e_r gives y_p = 1
        and y_kr = -A[p, kc] K^-1."""
        leave = self.basis[r]
        y = np.zeros(self.m)
        if leave < self.n:
            yr = self.Kinv[self.pk[r]]
            aty = yr @ self.AR
        else:
            p = leave - self.n
            ap = self._row_of(p)
            yr = -(ap[self.kc] @ self.Kinv)
            y[p] = 1.0
            aty = ap + yr @ self.AR
        y[self.kr] = yr
        alpha = np.concatenate([aty, y])
        alpha[self.basis] = 0.0
        alpha[leave] = 1.0
        return alpha, y

    def refresh(self):
        """Recompute the basic values and the reduced costs from scratch.
        A nonbasic logical column sits at 0."""
        vals = self._nonbasic_values()
        self.xB = self.ftran(self.b - self._times(vals[: self.n]))
        self.d = self.cost - self.btran(self.cost[self.basis])
        self.d[self.basis] = 0.0

    def eligible(self):
        """The columns that lower the cost as they leave their bound: d_j <
        -PIVOT_TOL at the lower one, > PIVOT_TOL at the upper one.  d is
        exactly 0 on the basic columns; with none eligible the basis is
        dual feasible."""
        return self.movable & (np.where(self.status == _UP, -self.d, self.d) < -PIVOT_TOL)

    def weigh_columns(self):
        """gamma_j = |B^-1 a_j|^2 for every column, from scratch.  The
        kernel rows of B^-1 A are X = K^-1 A[kr, :]; the covered rows, in
        blocks of WEIGH_BLOCK, add |A[rows, :] - A[rows, kc] X|^2.  The
        logical column of a covered row is a unit vector of B^-1 A; the
        one of kernel row i has the part K^-1 e_i and then
        -A[rows, kc] K^-1 e_i."""
        Kinv, every = self.Kinv, np.arange(self.n)
        X = Kinv @ self.AR
        g = np.einsum("ij,ij->j", X, X)
        gk = np.einsum("ij,ij->j", Kinv, Kinv)
        covered = np.flatnonzero(self.rk < 0)
        for lo in range(0, covered.size, WEIGH_BLOCK):
            D = self._block(covered[lo : lo + WEIGH_BLOCK], every)
            Dk = D[:, self.kc]
            P = D - Dk @ X
            Q = Dk @ Kinv
            g += np.einsum("ij,ij->j", P, P)
            gk += np.einsum("ij,ij->j", Q, Q)
        gu = np.ones(self.m)
        at = self.rk
        gu[at >= 0] = gk[at[at >= 0]]
        self.gamma = np.concatenate([g, gu])

    def weigh_rows(self):
        """beta_p = |row p of B^-1|^2 for every position, from scratch: on
        a kernel position the row of K^-1, on the position of the logical
        column of row i that row times -A[i, kc] K^-1 plus 1."""
        covered = np.flatnonzero(self.rk < 0)
        Q = self._block(covered, self.kc) @ self.Kinv
        beta = np.empty(self.m)
        beta[self.rpos[covered]] = 1.0 + np.einsum("ij,ij->i", Q, Q)
        beta[self.kp] = np.einsum("ij,ij->i", self.Kinv, self.Kinv)
        self.beta = beta

    def violation(self):
        """How far each basic value lies outside its bounds (<= 0 inside)."""
        return np.maximum(self.loB - self.xB, self.xB - self.upB)

    def keep_basis(self):
        """Remember the basis and bound statuses that a failed refactor
        rolls back to."""
        self.kept = (self.basis.copy(), self.status.copy())

    def factor(self):
        """K^-1 at the current basis, by np.linalg.solve; raises
        LinAlgError on a singular basis matrix.  The kernel positions are
        those of the basic structural columns in position order, its rows
        the uncovered rows in row order."""
        uncovered = np.ones(self.m, dtype=bool)
        uncovered[self.map_units()] = False
        self.set_kernel(np.flatnonzero(uncovered), np.flatnonzero(self.basis < self.n))
        self.trace.refactors += 1
        self.Kinv[...] = np.linalg.solve(self.AR[:, self.kc], np.eye(self.k))

    def refactor(self):
        """Refactor exactly at the current basis.

        Product-form updates drift; solving against the kernel resets K^-1
        to working precision.  Drift can also let a pivot land on an entry
        that is really zero and leave a singular basis.  Then the solver
        rolls back to the basis kept at the last refactor that succeeded or
        at the start of the current phase, whichever is later, factors
        there, weighs anew what it holds, and from then on refactors every
        128 pivots.  A second failure raises SimplexError."""
        try:
            self.factor()
        except np.linalg.LinAlgError as exc:
            if self.rolled_back:
                raise self.error("singular basis during refactorization") from exc
            self.rolled_back = True
            self.trace.rollbacks += 1
            self.refactor_every = 128
            self.basis, self.status = (a.copy() for a in self.kept)
            try:
                self.factor()
            except np.linalg.LinAlgError as again:
                raise self.error("singular basis during refactorization") from again
            if self.gamma is not None:
                self.weigh_columns()
            if self.beta is not None:
                self.weigh_rows()
        self.keep_basis()

    def pivot(self, r, j, w, alpha, y, enter_val):
        """Make column j basic in position r at value enter_val, w its
        `column` and (alpha, y) the `pivot_row` of r; the caller has
        already set the leaving variable's status.  The reduced costs move
        by d_j times the normalized pivot row, the weights by
        `update_weights`, and K^-1 by `update_kernel`."""
        piv = w[r]
        if abs(piv) <= PIVOT_TOL:
            raise self.error("near-zero pivot")
        t = self.trace
        t.min_pivot_ratio = min(t.min_pivot_ratio, float(abs(piv) / np.abs(w).max()))
        alpha[j] = piv
        rho = alpha / piv
        self.update_weights(r, j, w, rho, y)
        self.d -= self.d[j] * rho
        self.update_kernel(r, j, w, y)
        if j >= self.n:
            p = j - self.n
            self.prow[r], self.rpos[p] = p, r
        self.basis[r] = j
        self.loB[r], self.upB[r] = self.lower[j], self.upper[j]
        self.status[j] = _BASIC
        self.xB[r] = enter_val

    def update_weights(self, r, j, w, rho, y):
        """Carry gamma and beta, if held, across the pivot on (r, j), w the
        entering column, rho the normalized pivot row and y row r of B^-1.
        Column k becomes rho_k on position r and B^-1 a_k - w rho_k
        elsewhere, so gamma_k gains rho_k^2 (|w|^2 + 1) - 2 rho_k u.a_k with
        u = B^-T w (the one extra BTRAN); row i of B^-1 loses (w_i / piv) y,
        so beta_i gains (w_i / piv)^2 |y|^2 - 2 (w_i / piv) (B^-1 y)_i.  The
        entering and leaving columns and row r enter by their exact norms."""
        piv = w[r]
        g = self.gamma
        if g is not None:
            ww = w @ w
            g += rho * (rho * (ww + 1.0) - 2.0 * self.btran(w))
            np.maximum(g, 0.0, out=g)
            g[self.basis[r]] = (ww - piv * piv + 1.0) / (piv * piv)
            g[j] = 1.0
        if self.beta is not None:
            f = w / piv
            yy = y @ y
            beta = self.beta
            beta += f * (f * yy - 2.0 * self.ftran(y))
            np.maximum(beta, BETA_FLOOR, out=beta)
            beta[r] = yy / (piv * piv)

    def update_kernel(self, r, j, w, y):
        """Carry K^-1 and AR = A[kr, :] across the pivot on (r, j) by one
        product-form step.  xs = w on the kernel positions is K^-1 times
        the kernel rows of the entering column, and for a leaving logical
        column of row q, A[q, kc] K^-1 is -y on the kernel rows.  A row or
        column that leaves the kernel takes the last one's place."""
        n, Kinv, k = self.n, self.Kinv, self.k
        leave = self.basis[r]
        xs = w[self.kp]
        if j < n and leave < n:
            # structural for structural: column t of K is swapped
            t = self.pk[r]
            row = Kinv[t] / xs[t]
            _rank_one(Kinv, xs, row)
            Kinv[t] = row
            self.kc[t] = j
        elif j < n:
            # K gains the leaving logical column's row p and column j
            p = leave - n
            z = -y[self.kr]  # A[p, kc] K^-1
            delta = w[r]  # A[p, j] - A[p, kc] xs
            _rank_one(Kinv, xs, -z / delta)
            self.KB[:k, k] = -xs / delta
            self.KB[k, :k] = -z / delta
            self.KB[k, k] = 1.0 / delta
            self.ARB[k] = self._row_of(p)
            self.krb[k], self.kcb[k], self.kpb[k] = p, j, r
            self.rk[p], self.pk[r] = k, k
            self.resize(k + 1)
        elif leave < n:
            # K loses the entering logical column's row ip and column t
            p, last = j - n, k - 1
            ip, t = self.rk[p], self.pk[r]
            _rank_one(Kinv, Kinv[:, ip], Kinv[t] / Kinv[t, ip])
            Kinv[t] = Kinv[last]
            Kinv[:, ip] = Kinv[:, last]
            self.AR[ip] = self.AR[last]
            self.kr[ip], self.kc[t], self.kp[t] = self.kr[last], self.kc[last], self.kp[last]
            self.rk[self.kr[ip]], self.pk[self.kp[t]] = ip, t
            self.rk[p], self.pk[r] = -1, -1
            self.resize(last)
        else:
            # logical for logical of another row q: row ip of K is swapped
            p, q = j - n, leave - n
            ip = self.rk[p]
            z = -y[self.kr]  # A[q, kc] K^-1
            col = Kinv[:, ip] / z[ip]
            _rank_one(Kinv, col, z)
            Kinv[:, ip] = col
            self.AR[ip] = self._row_of(q)
            self.kr[ip] = q
            self.rk[q], self.rk[p] = ip, -1

    def begin(self, phase):
        """Start `phase`, trace.dual or trace.phase2: keep the basis for a
        rollback, restart the refactor schedule, and end any degenerate
        streak and with it Bland's rule."""
        self.phase = phase
        self.keep_basis()
        self.since_refactor = 0
        self.streak = 0
        self.was_bland = False

    def upkeep(self, step, bland):
        """Count one iteration of the current phase, of step `step`, chosen
        by Bland's rule if `bland`.  A step within PIVOT_TOL of zero is
        degenerate; BLAND_AFTER degenerate steps in a row switch to Bland's
        rule, and any other step switches back.  Then refactor on the
        schedule that `begin` restarts."""
        self.trace.bland_switches += bland and not self.was_bland
        self.was_bland = bland
        degenerate = bool(step <= PIVOT_TOL)
        self.streak = self.streak + 1 if degenerate else 0
        self.phase.degenerate += degenerate
        self.phase.iterations += 1
        self.iterations += 1
        self.since_refactor += 1
        if self.since_refactor >= self.refactor_every:
            self.refactor()
            self.refresh()
            self.since_refactor = 0

    def run(self, max_iters):
        """Phase 2: minimize the cost from a primal-feasible basis.

        `_price` scores every `eligible` column by d_j^2 / (1 + gamma_j),
        or under Bland's rule (`upkeep`) takes the smallest index; absent
        gamma is weighed once a column is eligible.
        `_ratio_test` picks the leaving row, keyed by basis index; the
        entering column flips to its far bound instead when that is no
        farther, under Bland's rule on a tie only if j is the smaller
        index.  Every structural column has a finite box, so only a
        numerical fault gives an infinite step."""
        self.begin(self.trace.phase2)
        self.refresh()
        while True:
            if self.iterations >= max_iters:
                raise self.error(f"iteration limit {max_iters} reached")
            bland = self.streak >= BLAND_AFTER
            ok = self.eligible()
            if self.gamma is None:
                if not ok.any():
                    return
                self.weigh_columns()
            j = _price(ok, self.d * self.d / (1.0 + self.gamma), None, bland)
            if j < 0:
                return
            delta = 1.0 if self.status[j] == _LO else -1.0
            w = self.column(j)
            coef = delta * w
            # each basic value stops the step at the bound it moves toward
            xB, basis = self.xB, self.basis
            dist = np.where(coef > 0.0, xB - self.loB, self.upB - xB)
            r, row_step = _ratio_test(dist, coef, basis, bland)
            own = self.upper[j] - self.lower[j]
            step = min(row_step, own)
            if not np.isfinite(step):
                raise self.error("infinite primal step")
            self.xB -= delta * step * w
            if own < row_step or (own == row_step and not (bland and basis[r] < j)):
                self.status[j] = _UP if self.status[j] == _LO else _LO
            else:
                enter_val = self.nb_value(j) + delta * step
                self.status[basis[r]] = _LO if coef[r] > 0 else _UP
                self.pivot(r, j, w, *self.pivot_row(r), enter_val)
            self.upkeep(step, bland)

    def dual_run(self, max_iters):
        """Make a dual-feasible basis primal feasible by the bounded dual
        simplex.  Returns 0.0 once every basic variable is within
        RATIO_SLACK of its bounds, and the violation of the leaving row if
        that row admits no entering column.

        `_price` scores every violated row by viol_i^2 / beta_i, beta_i
        = |row i of B^-1|^2 (`weigh_rows`), or under Bland's rule
        (`upkeep`) takes the smallest basic index.  `_ratio_test` picks
        the entering column, keyed by column index, among those whose move
        pushes the leaving variable toward its violated bound; each blocks
        where its reduced cost reaches zero.  Every pivot goes through
        `pivot`, so d and beta stay current; it drops gamma."""
        self.begin(self.trace.dual)
        self.gamma = None
        self.weigh_rows()
        while True:
            viol = self.violation()
            bad = viol > RATIO_SLACK
            if not bad.any():
                self.beta = None
                return 0.0
            if self.iterations >= max_iters:
                raise self.error(f"iteration limit {max_iters} reached")
            bland = self.streak >= BLAND_AFTER
            r = _price(bad, viol * viol / self.beta, self.basis, bland)
            below = bool(self.xB[r] < self.loB[r])
            alpha, y = self.pivot_row(r)
            push = alpha if below else -alpha
            at_lo = self.status == _LO
            cols = (
                self.movable & ((at_lo & (push < 0.0)) | ((self.status == _UP) & (push > 0.0)))
            ).nonzero()[0]
            # dual feasibility makes d_j >= 0 at a lower bound, <= 0 at an
            # upper one; round-off on the wrong side counts as zero
            d = self.d[cols]
            i, step = _ratio_test(np.where(at_lo[cols], d, -d), alpha[cols], cols, bland)
            if i < 0:
                return float(viol[r])
            q = int(cols[i])
            # move x_q until the leaving variable sits on its violated bound
            move = (self.xB[r] - (self.loB if below else self.upB)[r]) / alpha[q]
            enter_val = self.nb_value(q) + move
            w = self.column(q)
            self.xB -= move * w
            self.status[self.basis[r]] = _LO if below else _UP
            self.pivot(r, q, w, alpha, y, enter_val)
            self.upkeep(step, bland)


def solve_simplex(c, A, b, senses, lower, upper, max_iters=None, start=None) -> SimplexResult:
    """Maximize c.x over the boxed LP; see module docstring for
    conventions.  `A` is a `Coo` of shape (len(b), len(c)).

    Returns duals `y`, one per input row for its '<=' form (a '>=' row
    negated), for the maximization; `duality_gap` and `max_infeasibility`
    stay None, for `optlp.solve_lp` to fill from `optlp.certificate` on
    the caller's LP.  `start`, the `basis` of an earlier optimal result
    on an LP with the same columns, starts from that basis when it is
    primal or dual feasible there; a start that cannot be used gives the
    result of the slack basis.  The LP is INFEASIBLE when the dual
    simplex, from the slack basis, meets a row violated by more than
    FEAS_TOL * max(1, max|b|) that no column can repair;
    `max_infeasibility` then holds that violation.  `trace` holds the
    solve's deterministic counts.
    """
    c = np.asarray(c, dtype=float)
    m = len(b)
    n = c.shape[0]
    if max_iters is None:
        max_iters = 200 * (m + n) + 20000

    def tableau():
        return _Tableau(-c, A, b, senses, lower, upper)

    tab = tableau()
    if start is not None and not (tab.warm_start(start) and tab.settle(max_iters) == 0.0):
        start, tab = None, tableau()
    if start is None:
        tab.slack_start()
        stuck = tab.settle(max_iters)
        if stuck > FEAS_TOL * max(1.0, float(np.max(np.abs(tab.b), initial=0.0))):
            return SimplexResult(
                INFEASIBLE, None, None, None, None, stuck, tab.iterations, trace=tab.trace
            )

    tab.run(max_iters)
    # Heal: a refactored basis can expose drift as new eligible pivots;
    # iterate until a run from a fresh refactor makes no pivot.
    while tab.trace.heal_rounds < HEAL_ROUNDS:
        tab.trace.heal_rounds += 1
        tab.refactor()
        before = tab.iterations
        tab.run(max_iters)
        if tab.iterations == before:
            break
    else:
        raise tab.error("basis failed to stabilize under refactorization")

    # the last run started from a refactor and made no pivot, so its
    # opening refresh is current
    x_all = tab._nonbasic_values()
    x_all[tab.basis] = tab.xB
    x = x_all[:n]
    # row duals off the reduced cost of each row's logical column, back
    # from the internal minimization of -c
    return SimplexResult(
        OPTIMAL, x, -float(tab.c_min @ x), tab.d[n:].copy(), None, None, tab.iterations,
        tab.status.copy(), tab.trace,
    )

