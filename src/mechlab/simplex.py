"""Two-phase revised bounded simplex with anti-cycling fallback.

Solves   max/min  c.x   s.t.  A x {<=,>=,=} b,   lower <= x <= upper.

A comes as a `Coo`: its entries as triplets sorted by row, then column,
at most one per position.  The solver reads the nonzero entries once and
never builds the dense m x n matrix; zero entries, -0.0 included, are
dropped as they are read.

Design constraints, in order:

1. Determinism.  Same inputs give bitwise-identical output on a machine:
   pricing is steepest-edge over every eligible column with first-index
   tie-breaking; a streak of BLAND_AFTER degenerate pivots switches to
   Bland's smallest-index rule (which cannot cycle) until progress
   resumes; all floating-point reductions run in fixed order, and
   refactorizations happen on a fixed iteration schedule.
2. Honest certificates.  Every optimal solve reports row duals, reduced
   costs, a weak-duality gap, and the worst primal residual, so callers
   can assert optimality instead of trusting a status flag.
3. Termination over speed.  Finitely many bases, strictly fewer after
   every nondegenerate step, and Bland inside degenerate streaks give a
   finite bound.  The basis is held as the dense inverse of its kernel
   (below), whose side is at most min(rows, columns); problem sizes are
   expected to stay in the low thousands of rows.

Only the basis kernel carries information.  Every non-structural column
is a signed unit vector on its row, so with R the rows that no basic
unit column covers and C the basic structural columns, |R| = |C| = k and
the basis matrix is nonsingular exactly when K = A[R, C] is.  The solver
keeps K^-1 explicitly.  B^-1 v (FTRAN) is K^-1 v_R on the kernel
positions and, on each covered row, v_i minus A[i, C] K^-1 v_R over the
sign of its unit column; B^-T g (BTRAN) is the transpose.  Each pivot
updates K^-1 by one product-form step: a rank-one step when a column or
a row of K is swapped, a bordered step when K gains or loses a row and a
column.  K^-1 is refactored by np.linalg.solve every REFACTOR_EVERY
pivots and, unless the basis is still exact, before the certificate.
The structural nonzeros are read once per solve; FTRAN and BTRAN each
cost a k x k product plus one pass over them, the pivot row a k x n
product with the dense kernel rows, so a pivot costs O(k^2 + nnz) and no
array with a column per row is ever built.

Pricing reads steepest-edge weights (Forrest & Goldfarb 1992): gamma_j
= |B^-1 a_j|^2 for every column and, while the dual simplex runs, beta_i
= |e_i^T B^-1|^2.  They are computed from scratch where a solve starts
and after a rollback, and every pivot carries them across by the
Forrest-Goldfarb update, which needs one BTRAN (of the entering column,
for gamma) or FTRAN (of the pivot row of B^-1, for beta) beyond the
pivot's own; the pivot column and row enter by their exact norms.
tests/test_simplex.py checks FTRAN, BTRAN and K^-1 against a dense
reference at every pivot, and both weights against recomputed norms.

A solve may start from a basis instead of from the slack basis: `start`
takes the `basis` of an earlier result, one status per structural column
and then per row's logical column.  The solver factors that basis.
If it is primal feasible, phase 2 starts there; if it is dual feasible
instead, a bounded dual simplex (`_Tableau.dual_run`) restores primal
feasibility before phase 2.  A start it cannot use (wrong length, wrong
count of basic columns, singular, neither primal nor dual feasible, or a
row the dual ratio test cannot repair) falls back to the cold two-phase
solve, whose result it then returns.  The revenue LPs pass the no-sale
vertex to their first solve, and lazy row generation each round's
optimal basis to the next round.  The repair's subgradient LPs start
at the slack basis with every column at the bound of the unit box its
objective prefers, which is dual feasible, so no solve of theirs runs
phase 1 unless the polytope is empty; the lexicographic repair then
passes each coordinate's optimal basis, with that coordinate's values
fixed through their bounds, to the next coordinate's solve.  Reruns
are bitwise identical for a fixed BLAS thread count: the rounding of
the dense products, and through it a tie between pivots, can depend on
the number of threads.

Every row owns exactly one logical column: a slack for an inequality,
a marker for an equality (its phase-1 artificial, frozen at 0
afterwards).  Phase 1, the row duals, the dual clamp and the primal
residual all read that one per-row column, and row duals come off the
reduced costs for every row, not just slack rows.  `certify` is the one
check that makes a result trustworthy; every LP in the package goes
through it.

Variables must have at least one finite bound.  Free variables do not
occur in the intended formulations: payments are a priori bounded by
total surplus and everything else lives in a box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PIVOT_TOL = 1e-9
DUAL_ZERO_TOL = 1e-11
FEAS_TOL = 1e-9
GAP_TOL = 1e-7
REFACTOR_EVERY = 512
BLAND_AFTER = 512
RATIO_SLACK = 1e-11
HEAL_ROUNDS = 8
BETA_FLOOR = 1e-12
WEIGH_BLOCK = 64

_LO, _UP, _BASIC = 0, 1, 2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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
    the solve stood."""


@dataclass
class PhaseCounts:
    iterations: int = 0
    degenerate: int = 0


@dataclass
class SolveTrace:
    """Deterministic counts of one solve.  Heal runs count in phase 2;
    every factorization (a warm start's, a scheduled one, a heal's, a
    rollback's) counts in `refactors`."""

    phase1: PhaseCounts = field(default_factory=PhaseCounts)
    dual: PhaseCounts = field(default_factory=PhaseCounts)
    phase2: PhaseCounts = field(default_factory=PhaseCounts)
    bland_switches: int = 0
    refactors: int = 0
    heal_rounds: int = 0
    rollbacks: int = 0


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float | None
    y: np.ndarray | None
    reduced_costs: np.ndarray | None
    duality_gap: float | None
    max_infeasibility: float
    iterations: int
    # int8 status (lower, upper, basic) of each structural column, then of
    # each row's logical column, in row order; a valid `start` for a
    # later solve.  None unless optimal.
    basis: np.ndarray | None = None
    trace: SolveTrace | None = None


def _blocking_row(lim, step, own, coef, basis, j, bland):
    """Row whose basic variable leaves in the primal ratio test, or -1 for
    a bound flip of the entering column j.

    Under Bland's rule the blocker with the smallest variable index wins;
    j's own far bound (`own`) counts as a blocker indexed j.  Otherwise
    j flips if its own bound blocks, and among the rows whose limit is
    within RATIO_SLACK of the step the largest |coef| wins, then the
    smallest basis index."""
    if bland:
        blk = np.flatnonzero(lim <= step)
        i = int(blk[np.argmin(basis[blk])]) if blk.size else -1
        return -1 if own <= step and (i < 0 or j < basis[i]) else i
    if own <= step:
        return -1
    near = np.flatnonzero(lim <= step + RATIO_SLACK)
    if near.size == 1:
        return int(near[0])
    return int(near[np.lexsort((basis[near], -np.abs(coef[near])))[0]])


def _rank_one(M, a, b):
    """M -= outer(a, b), on the rows where a is nonzero."""
    nz = np.flatnonzero(a)
    M[nz] -= np.outer(a[nz], b)


class _Tableau:
    """Mutable solver state; one instance per solve call.

    Internally always minimizes; '>=' rows are negated into '<=' rows.
    Row i owns the logical column `logical[i]`: a slack for a '<=' row, a
    marker for an '=' row.  Column layout: structural | slacks | markers |
    (cold start only) one extra artificial per '<=' row the start point
    violates, each block in row order.  The first `n_real` columns
    (structural and slacks) are the real ones; markers and extra
    artificials are the phase-1 artificials, `is_art`.  Column c >= n is
    `unit_sign[c]` times the unit vector of row `unit_row[c]`.

    `basis[p]` is the variable basic at position p, `xB[p]` its value.
    The kernel: rows `kr`, structural columns `kc` at positions `kp`, and
    `Kinv` = A[kr, kc]^-1, indexed (kernel column, kernel row), plus the
    dense kernel rows AR = A[kr, :].  `map_units` says where the basic
    unit columns sit.
    """

    def __init__(self, c_min, A, b, senses, lower, upper):
        c_min = np.asarray(c_min, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n = c_min.shape[0]
        m = len(b)
        if np.any(lower > upper):
            raise ValueError("crossed variable bounds")
        self.lower_inf = ~np.isfinite(lower)
        if np.any(self.lower_inf & ~np.isfinite(upper)):
            raise ValueError("every variable needs at least one finite bound")
        unknown = set(senses) - {"<=", ">=", "="}
        if unknown:
            raise ValueError(f"unknown sense {unknown.pop()!r}")
        senses = np.asarray(senses)
        self.row_sign = np.where(senses == ">=", -1.0, 1.0)
        if tuple(A.shape) != (m, n):
            raise ValueError(f"constraint matrix shape {tuple(A.shape)} != {(m, n)}")
        # the nonzeros, row-signed, in row order
        val = np.asarray(A.val, dtype=float)
        nz = val != 0.0
        self.arow = np.asarray(A.row, dtype=np.intp)[nz]
        self.acol = np.asarray(A.col, dtype=np.intp)[nz]
        self.aval = val[nz] * self.row_sign[self.arow]
        self.rptr = np.concatenate([[0], np.cumsum(np.bincount(self.arow, minlength=m))])
        self.b = np.asarray(b, dtype=float) * self.row_sign
        is_eq = senses == "="
        n_real = n + int(np.count_nonzero(~is_eq))
        logical = np.empty(m, dtype=int)
        logical[~is_eq] = np.arange(n, n_real)
        logical[is_eq] = np.arange(n_real, n + m)

        self.c_min = c_min
        self.n = n
        self.m = m
        self.is_eq = is_eq
        self.logical = logical
        self.n_real = n_real
        self.n_total = n + m
        self.lower = np.concatenate([lower, np.zeros(m)])
        self.upper = np.concatenate([upper, np.full(m, np.inf)])
        self.unit_row = np.full(n + m, -1)
        self.unit_row[logical] = np.arange(m)
        self.unit_sign = np.concatenate([np.zeros(n), np.ones(m)])
        self.is_art = np.arange(n + m) >= n_real
        self.row_alive = np.ones(m, dtype=bool)
        self.iterations = 0
        self.refactor_every = REFACTOR_EVERY
        self.rolled_back = False
        self.exact = False
        self.beta = None
        self._col = self._row = None
        self.trace = SolveTrace()
        self.phase = self.trace.phase2

    # -- state helpers ----------------------------------------------------

    def error(self, what):
        """A SimplexError for `what`, naming the phase, the iteration and
        the refactor count where the solve stands."""
        t, i = self.trace, self.iterations
        phase = {id(t.phase1): "phase 1", id(t.dual): "dual simplex"}.get(id(self.phase), "phase 2")
        return SimplexError(f"{what} ({phase}, iteration {i}, refactors {t.refactors})")

    def nb_value(self, j):
        return self.lower[j] if self.status[j] == _LO else self.upper[j]

    def _nonbasic_values(self):
        vals = np.where(self.status == _UP, self.upper, self.lower)
        vals[self.status == _BASIC] = 0.0
        return vals

    def phase2_cost(self):
        return np.concatenate([self.c_min, np.zeros(self.n_total - self.n)])

    def slack_start(self):
        """The cold start basis.  Nonbasic structurals start at their lower
        bound, or at the upper one when the lower is infinite; each row's
        slack is basic where that point satisfies the row, and a signed
        artificial elsewhere: the row's marker for an equality, an extra
        artificial column for a violated '<=' row.  The kernel is empty,
        which is what `factor` would give, so the start is exact."""
        n, m = self.n, self.m
        start = np.where(self.lower_inf, self.upper[:n], self.lower[:n])
        satisfied = self.b - self._times(start) >= 0.0
        extra = np.flatnonzero(~(self.is_eq | satisfied))
        self.n_total = n + m + extra.size
        self.basis = self.logical.copy()
        self.basis[extra] = np.arange(n + m, self.n_total)
        eq = self.logical[self.is_eq]
        self.unit_sign[eq] = np.where(satisfied[self.is_eq], 1.0, -1.0)
        self.unit_row = np.concatenate([self.unit_row, extra])
        self.unit_sign = np.concatenate([self.unit_sign, -np.ones(extra.size)])
        self.lower = np.concatenate([self.lower, np.zeros(extra.size)])
        self.upper = np.concatenate([self.upper, np.full(extra.size, np.inf)])
        self.is_art = np.arange(self.n_total) >= self.n_real
        self.status = np.full(self.n_total, _LO, dtype=np.int8)
        self.status[:n][self.lower_inf] = _UP
        self.status[self.basis] = _BASIC
        self.map_units()
        self.set_kernel(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        self.weigh_columns()
        self.keep_basis()
        self.exact = True

    # -- linear algebra on the basis ----------------------------------------

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
        """Where the basic unit columns sit: position p holds the unit
        column of row prow[p] with sign psign[p] (0 on kernel positions),
        and row i is covered by position rpos[i] with sign rsign[i] (0 on
        kernel rows).  Raises LinAlgError if two cover one row."""
        unit = self.basis >= self.n
        rows = self.unit_row[self.basis[unit]]
        self.prow = np.zeros(self.m, dtype=int)
        self.psign = np.zeros(self.m)
        self.prow[unit] = rows
        self.psign[unit] = self.unit_sign[self.basis[unit]]
        self.rpos = np.zeros(self.m, dtype=int)
        self.rsign = np.zeros(self.m)
        self.rpos[rows] = np.flatnonzero(unit)
        self.rsign[rows] = self.psign[unit]
        if np.count_nonzero(self.rsign) != rows.size:
            raise np.linalg.LinAlgError("Singular matrix")

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
        w = v[self.prow] * self.psign
        w[self.kp] = xs
        return w

    def btran(self, g):
        """(y, A^T y): y over the rows with B^T y = g, g by positions."""
        y = g[self.rpos] * self.rsign
        aty = self._rtimes(y)
        if self.k:
            yr = (g[self.kp] - aty[self.kc]) @ self.Kinv
            y[self.kr] = yr
            aty += yr @ self.AR
        return y, aty

    def _row_times(self, y, aty):
        """y^T a_j for every column j, from y and A^T y."""
        return np.concatenate([aty, self.unit_sign[self.n :] * y[self.unit_row[self.n :]]])

    def column(self, j):
        """B^-1 a_j by positions; kept until the basis changes.  For a
        structural j the kernel part is K^-1 A[kr, j], and the covered rows
        are read off A x with x = that part on kc and -1 on j."""
        if self._col is None or self._col[0] != j:
            if j < self.n:
                xs = self.Kinv @ self.AR[:, j]
                x = np.zeros(self.n)
                x[self.kc] = xs
                x[j] = -1.0
                w = self._times(x)[self.prow] * -self.psign
                w[self.kp] = xs
            else:
                v = np.zeros(self.m)
                v[self.unit_row[j]] = self.unit_sign[j]
                w = self.ftran(v)
            self._col = (j, w)
        return self._col[1]

    def pivot_row(self, r):
        """(alpha, y): y = row r of B^-1 over the rows, alpha_j = y^T a_j
        for every column, exactly 0 on the basic columns but basis[r],
        where it is 1.  y lives on the kernel rows and, when basis[r] is
        a unit column, on its row p, where B^T y = e_r gives y_p = s and
        y_kr = -s A[p, kc] K^-1.  Kept until the basis changes."""
        if self._row is None or self._row[0] != r:
            leave = self.basis[r]
            y = np.zeros(self.m)
            if leave < self.n:
                yr = self.Kinv[self.pk[r]]
                aty = yr @ self.AR
            else:
                p, s = self.unit_row[leave], self.unit_sign[leave]
                ap = self._row_of(p)
                yr = -s * (ap[self.kc] @ self.Kinv)
                y[p] = s
                aty = s * ap + yr @ self.AR
            y[self.kr] = yr
            alpha = self._row_times(y, aty)
            alpha[self.basis] = 0.0
            alpha[leave] = 1.0
            self._row = (r, alpha, y)
        return self._row[1:]

    def refresh(self, cost):
        """Recompute the basic values and the reduced costs from scratch.
        A nonbasic logical or artificial column sits at 0."""
        vals = self._nonbasic_values()
        self.xB = self.ftran(self.b - self._times(vals[: self.n]))
        self.d = cost - self._row_times(*self.btran(cost[self.basis]))
        self.d[self.basis] = 0.0

    def weigh_columns(self):
        """gamma_j = |B^-1 a_j|^2 for every column, from scratch.  The
        kernel rows of B^-1 A are X = K^-1 A[kr, :]; the covered rows, in
        blocks of WEIGH_BLOCK, add |A[rows, :] - A[rows, kc] X|^2.  A unit
        column on a covered row is +-1 on one position; one on kernel row
        i has the part K^-1 e_i and then -A[rows, kc] K^-1 e_i."""
        n, Kinv, every = self.n, self.Kinv, np.arange(self.n)
        X = Kinv @ self.AR
        g = np.einsum("ij,ij->j", X, X)
        gk = np.einsum("ij,ij->j", Kinv, Kinv)
        covered = np.flatnonzero(self.rsign)
        for lo in range(0, covered.size, WEIGH_BLOCK):
            D = self._block(covered[lo : lo + WEIGH_BLOCK], every)
            Dk = D[:, self.kc]
            P = D - Dk @ X
            Q = Dk @ Kinv
            g += np.einsum("ij,ij->j", P, P)
            gk += np.einsum("ij,ij->j", Q, Q)
        at = self.rk[self.unit_row[n:]]
        gu = np.ones(at.size)
        gu[at >= 0] = gk[at[at >= 0]]
        self.gamma = np.concatenate([g, gu])

    def weigh_rows(self):
        """beta_p = |row p of B^-1|^2 for every position, from scratch: on
        a kernel position the row of K^-1, on the position of a unit column
        on row i that row times -A[i, kc] K^-1 plus 1."""
        covered = np.flatnonzero(self.rsign)
        Q = self._block(covered, self.kc) @ self.Kinv
        beta = np.empty(self.m)
        beta[self.rpos[covered]] = 1.0 + np.einsum("ij,ij->i", Q, Q)
        beta[self.kp] = np.einsum("ij,ij->i", self.Kinv, self.Kinv)
        self.beta = beta

    def violation(self):
        """How far each basic value lies outside its bounds (<= 0 inside)."""
        return np.maximum(self.lower[self.basis] - self.xB, self.xB - self.upper[self.basis])

    def keep_basis(self):
        """Remember the basis and bound statuses that a failed refactor
        rolls back to."""
        self.kept = (self.basis.copy(), self.status.copy())

    def factor(self):
        """K^-1 at the current basis, by np.linalg.solve; raises
        LinAlgError on a singular basis matrix.  The kernel positions are
        those of the basic structural columns in position order, its rows
        the uncovered rows in row order.  The solve is deterministic for
        fixed inputs, so `exact` marks the state as what a refactor would
        give again until the next iteration or pivot clears it."""
        self._col = self._row = None
        self.map_units()
        self.set_kernel(np.flatnonzero(self.rsign == 0.0), np.flatnonzero(self.basis < self.n))
        self.trace.refactors += 1
        self.Kinv[...] = np.linalg.solve(self.AR[:, self.kc], np.eye(self.k))
        self.exact = True

    def refactor(self):
        """Refactor exactly at the current basis.

        Product-form updates drift; solving against the kernel resets K^-1
        to working precision.  Drift can also let a pivot land on an entry
        that is really zero and leave a singular basis.  Then the solver
        rolls back to the basis kept at the last refactor that succeeded or
        at the start of the current phase, whichever is later, factors
        there, weighs the columns (and rows, in the dual simplex) again,
        and from then on refactors every 128 pivots.  A second failure
        raises SimplexError."""
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
            self.weigh_columns()
            if self.beta is not None:
                self.weigh_rows()
        self.keep_basis()

    # -- core iteration ----------------------------------------------------

    def pivot(self, r, j, enter_val):
        """Make column j basic in position r at value enter_val; the caller
        has already set the leaving variable's status.  The reduced costs
        move by d_j times the normalized pivot row, the weights by
        `update_weights`, and K^-1 by `update_kernel`."""
        w = self.column(j)
        piv = w[r]
        if abs(piv) <= PIVOT_TOL:
            raise self.error("near-zero pivot")
        alpha, y = self.pivot_row(r)
        leave = self.basis[r]
        self.exact = False
        alpha[j] = piv
        rho = alpha / piv
        self.update_weights(r, j, w, rho, y)
        self.d -= self.d[j] * rho
        self.update_kernel(r, j, w, y)
        if leave >= self.n:
            self.rsign[self.unit_row[leave]] = 0.0
        self.psign[r] = 0.0
        if j >= self.n:
            p, self.psign[r] = self.unit_row[j], self.unit_sign[j]
            self.prow[r], self.rpos[p], self.rsign[p] = p, r, self.psign[r]
        self.basis[r] = j
        self.status[j] = _BASIC
        self.xB[r] = enter_val
        self._col = self._row = None

    def update_weights(self, r, j, w, rho, y):
        """Carry gamma and beta across the pivot on (r, j), w the entering
        column, rho the normalized pivot row and y row r of B^-1.  Column
        k becomes rho_k on position r and B^-1 a_k - w rho_k elsewhere, so
        gamma_k gains rho_k^2 (|w|^2 + 1) - 2 rho_k u.a_k with u = B^-T w
        (the one extra BTRAN); row i of B^-1 loses (w_i / piv) y, so beta_i
        gains (w_i / piv)^2 |y|^2 - 2 (w_i / piv) (B^-1 y)_i.  The entering
        and leaving columns and row r enter by their exact norms."""
        piv = w[r]
        ww = w @ w
        ua = self._row_times(*self.btran(w))
        g = self.gamma
        g += rho * (rho * (ww + 1.0) - 2.0 * ua)
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
        the kernel rows of the entering column, and for a leaving unit
        column on row q, A[q, kc] K^-1 is -s_q y on the kernel rows.  A
        row or column that leaves the kernel takes the last one's place."""
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
            # K gains the leaving unit column's row p and column j
            p, s = self.unit_row[leave], self.unit_sign[leave]
            z = -s * y[self.kr]  # A[p, kc] K^-1
            delta = s * w[r]  # A[p, j] - A[p, kc] xs
            _rank_one(Kinv, xs, -z / delta)
            self.KB[:k, k] = -xs / delta
            self.KB[k, :k] = -z / delta
            self.KB[k, k] = 1.0 / delta
            self.ARB[k] = self._row_of(p)
            self.krb[k], self.kcb[k], self.kpb[k] = p, j, r
            self.rk[p], self.pk[r] = k, k
            self.resize(k + 1)
        elif leave < n:
            # K loses the entering unit column's row ip and column t
            p, last = self.unit_row[j], k - 1
            ip, t = self.rk[p], self.pk[r]
            _rank_one(Kinv, Kinv[:, ip], Kinv[t] / Kinv[t, ip])
            Kinv[t] = Kinv[last]
            Kinv[:, ip] = Kinv[:, last]
            self.AR[ip] = self.AR[last]
            self.kr[ip], self.kc[t], self.kp[t] = self.kr[last], self.kc[last], self.kp[last]
            self.rk[self.kr[ip]], self.pk[self.kp[t]] = ip, t
            self.rk[p], self.pk[r] = -1, -1
            self.resize(last)
        elif self.unit_row[j] != self.unit_row[leave]:
            # unit for unit on another row q: row ip of K is swapped
            p, q = self.unit_row[j], self.unit_row[leave]
            ip = self.rk[p]
            z = -self.unit_sign[leave] * y[self.kr]  # A[q, kc] K^-1
            col = Kinv[:, ip] / z[ip]
            _rank_one(Kinv, col, z)
            Kinv[:, ip] = col
            self.AR[ip] = self._row_of(q)
            self.kr[ip] = q
            self.rk[q], self.rk[p] = ip, -1

    def run(self, cost, enterable, max_iters, phase):
        """Minimize cost over the current basis, counting into `phase`.

        Pricing scores every eligible column by its steepest-edge ratio
        d_j^2 / (1 + gamma_j), first index on ties, while steps make
        progress; a streak of BLAND_AFTER degenerate pivots switches to
        Bland's smallest-index rule, which cannot cycle, until a positive
        step resets the streak.  Both rules are deterministic, so reruns
        stay bitwise identical."""
        self.phase = phase
        self.refresh(cost)
        self.keep_basis()
        self.since_refactor = 0
        degen_streak = 0
        was_bland = False
        movable = enterable & ((self.upper - self.lower) > 0.0)
        while True:
            if self.iterations >= max_iters:
                raise self.error(f"iteration limit {max_iters} reached")
            # d is exactly 0 on the basic columns, so they are never eligible
            elig = movable & (np.where(self.status == _UP, -self.d, self.d) < -PIVOT_TOL)
            bland = degen_streak >= BLAND_AFTER
            if bland:
                j = int(np.argmax(elig))  # smallest eligible index
            else:
                j = int(np.argmax(np.where(elig, self.d * self.d / (1.0 + self.gamma), -1.0)))
            if not elig[j]:
                return OPTIMAL
            self.trace.bland_switches += bland and not was_bland
            was_bland = bland
            delta = 1.0 if self.status[j] == _LO else -1.0
            w = self.column(j)
            coef = delta * w
            # rows whose basic value falls (rises) with the step stop it at
            # their lower (upper) bound; an infinite bound never stops it
            lim = np.full(self.m, np.inf)
            np.divide(self.xB - self.lower[self.basis], coef, out=lim, where=coef > PIVOT_TOL)
            np.divide(self.xB - self.upper[self.basis], coef, out=lim, where=coef < -PIVOT_TOL)
            lim[~self.row_alive] = np.inf
            np.maximum(lim, 0.0, out=lim)
            row_min = float(lim.min()) if self.m else np.inf
            own = self.upper[j] - self.lower[j]
            step = min(row_min, own)
            if not np.isfinite(step):
                return UNBOUNDED
            degen_streak = 0 if step > PIVOT_TOL else degen_streak + 1
            phase.degenerate += bool(step <= PIVOT_TOL)
            r = _blocking_row(lim, step, own, coef, self.basis, j, bland)
            self.xB -= delta * step * w
            if r == -1:
                self.status[j] = _UP if self.status[j] == _LO else _LO
            else:
                enter_val = self.nb_value(j) + delta * step
                leave = int(self.basis[r])
                self.status[leave] = _LO if coef[r] > 0 else _UP
                if self.status[leave] == _LO and not np.isfinite(self.lower[leave]):
                    self.status[leave] = _UP
                self.pivot(r, j, enter_val)
            self.upkeep(cost)

    def upkeep(self, cost):
        """Count one iteration, then refactor on the schedule that `run`
        and `dual_run` restart.  A bound flip leaves K^-1 exact but moves
        xB by an update, so every iteration clears `exact`."""
        self.exact = False
        self.iterations += 1
        self.phase.iterations += 1
        self.since_refactor += 1
        if self.since_refactor >= self.refactor_every:
            self.refactor()
            self.refresh(cost)
            self.since_refactor = 0

    def dual_run(self, cost, max_iters):
        """Make a dual-feasible basis primal feasible by the bounded dual
        simplex.  Returns True once every basic variable is within
        RATIO_SLACK of its bounds, False if a violated row admits no
        entering column.

        The leaving row has the largest dual steepest-edge ratio
        viol_i^2 / beta_i, beta_i the squared norm of row i of B^-1
        (`weigh_rows`), lowest index on ties.  The entering column has
        the smallest dual ratio |d_j / alpha_j| among the columns whose
        move pushes the leaving variable toward its violated bound;
        ratios within RATIO_SLACK of the smallest count as tied, and a
        tie goes to the largest |alpha_j|, then the smallest index.  A
        streak of BLAND_AFTER zero dual steps switches to Bland's rule
        (the violated row with the smallest basic index leaves, the
        smallest index among the exact smallest ratios enters) until a
        positive step resets it.  Every pivot goes through `pivot`, so
        the dual values d and the weights stay current."""
        self.phase = self.trace.dual
        self.keep_basis()
        self.weigh_rows()
        self.since_refactor = 0
        zero_streak = 0
        was_bland = False
        movable = ~self.is_art & ((self.upper - self.lower) > 0.0)
        while True:
            lo_B = self.lower[self.basis]
            up_B = self.upper[self.basis]
            viol = self.violation()
            bad = viol > RATIO_SLACK
            if not bad.any():
                self.beta = None
                return True
            if self.iterations >= max_iters:
                raise self.error(f"iteration limit {max_iters} reached")
            bland = zero_streak >= BLAND_AFTER
            self.trace.bland_switches += bland and not was_bland
            was_bland = bland
            if bland:
                r = int(np.argmin(np.where(bad, self.basis, self.n_total)))
            else:
                r = int(np.argmax(np.where(bad, viol * viol / self.beta, -1.0)))
            below = bool(self.xB[r] < lo_B[r])
            alpha, _ = self.pivot_row(r)
            push = alpha if below else -alpha
            at_lo = self.status == _LO
            cand = np.flatnonzero(
                movable
                & ((at_lo & (push < -PIVOT_TOL)) | ((self.status == _UP) & (push > PIVOT_TOL)))
            )
            if cand.size == 0:
                return False
            # dual feasibility makes d_j >= 0 at a lower bound, <= 0 at an
            # upper one; round-off on the wrong side counts as zero
            ratio = np.maximum(np.where(at_lo[cand], self.d[cand], -self.d[cand]), 0.0)
            ratio /= np.abs(alpha[cand])
            step = float(ratio.min())
            if bland:
                q = int(cand[np.argmax(ratio == step)])
            else:
                near = cand[ratio <= step + RATIO_SLACK]
                q = int(near[np.argmax(np.abs(alpha[near]))])
            zero_streak = 0 if step > PIVOT_TOL else zero_streak + 1
            self.phase.degenerate += step <= PIVOT_TOL
            # move x_q until the leaving variable sits on its violated bound
            move = (self.xB[r] - (lo_B[r] if below else up_B[r])) / alpha[q]
            enter_val = self.nb_value(q) + move
            self.xB -= move * self.column(q)
            self.status[self.basis[r]] = _LO if below else _UP
            self.pivot(r, q, enter_val)
            self.upkeep(cost)

    def warm_start(self, start, max_iters):
        """Start phase 2 from the basis `start` (a SimplexResult.basis).

        A start whose basic values all lie within RATIO_SLACK of their
        bounds goes to phase 2 as it is, whatever its reduced costs: a
        previous optimum with some columns fixed through their bounds is
        one.  Any other start must be dual feasible within PIVOT_TOL, and
        `dual_run` then makes it primal feasible.  Returns False if the
        start cannot be used: wrong length, not exactly one basic column
        per row, a nonbasic column at an infinite bound, a singular basis
        matrix, neither primal nor dual feasible, or a violated row
        without an entering column.  The solver state is then spoiled;
        the caller solves from a fresh one.  No extra artificial column
        is built on this path."""
        n = self.n
        start = np.asarray(start)
        if start.shape != (n + self.m,) or not np.isin(start, (_LO, _UP, _BASIC)).all():
            return False
        status = np.full(self.n_total, _LO, dtype=np.int8)
        status[:n] = start[:n]
        status[self.logical] = start[n:]
        if np.count_nonzero(status == _BASIC) != self.m:
            return False
        self.status = status
        self.fix_artificials()
        if np.any(
            ((status == _LO) & ~np.isfinite(self.lower))
            | ((status == _UP) & ~np.isfinite(self.upper))
        ):
            return False
        # a basic logical column stays in its own row; the basic
        # structural columns fill the other rows in column order
        own = status[self.logical] == _BASIC
        self.basis = self.logical.copy()
        self.basis[~own] = np.flatnonzero(status[:n] == _BASIC)
        try:
            self.factor()
        except np.linalg.LinAlgError:
            return False
        self.weigh_columns()
        cost = self.phase2_cost()
        self.refresh(cost)
        if not (self.violation() > RATIO_SLACK).any():
            return True
        movable = ~self.is_art & ((self.upper - self.lower) > 0.0) & (status != _BASIC)
        wrong = ((status == _LO) & (self.d < -PIVOT_TOL)) | ((status == _UP) & (self.d > PIVOT_TOL))
        if np.any(movable & wrong):
            return False
        return self.dual_run(cost, max_iters)

    def fix_artificials(self):
        """Fix every artificial column at 0 for phase 2."""
        self.lower[self.is_art] = 0.0
        self.upper[self.is_art] = 0.0
        self.status[self.is_art & (self.status == _UP)] = _LO

    def drive_out_artificials(self):
        """Pivot leftover basic artificials onto real columns; rows that
        admit no pivot are redundant and get retired."""
        enterable = ~self.is_art
        for i in np.flatnonzero(self.row_alive & self.is_art[self.basis]):
            i = int(i)
            alpha, _ = self.pivot_row(i)
            cand = np.nonzero(enterable & (np.abs(alpha) > PIVOT_TOL) & (self.status != _BASIC))[0]
            if cand.size == 0:
                self.row_alive[i] = False
                continue
            j = int(cand[0])
            self.status[self.basis[i]] = _LO
            self.pivot(i, j, self.nb_value(j))


def solve_simplex(
    c, A, b, senses, lower, upper, maximize=True, max_iters=None, start=None
) -> SimplexResult:
    """Solve the bounded LP; see module docstring for conventions.  `A`
    is a `Coo` of shape (len(b), len(c)).

    Returns duals `y` (one per input row, zero for retired redundant
    rows) and structural reduced costs, both in the caller's
    optimization sense.  duality_gap is |primal - weak-dual bound|
    recomputed from the returned certificate and the caller's A, b and
    bounds, not an internal solver quantity, so a small gap genuinely
    certifies optimality; `certify` checks it.  `start`, the `basis` of
    an earlier optimal result on an LP with the same columns, warm-starts
    phase 2 from that basis when it is primal or dual feasible there; a
    start that cannot be used gives the cold solve's result.  `trace`
    holds the solve's deterministic counts.
    """
    c = np.asarray(c, dtype=float)
    m = len(b)
    n = c.shape[0]
    if max_iters is None:
        max_iters = 200 * (m + n) + 20000

    def tableau():
        return _Tableau(-c if maximize else c, A, b, senses, lower, upper)

    tab = tableau()
    if start is not None and not tab.warm_start(start, max_iters):
        start = None
        tab = tableau()

    def without_optimum(status, infeasibility=0.0):
        return SimplexResult(
            status, None, None, None, None, None, infeasibility, tab.iterations, trace=tab.trace
        )

    if start is None:
        tab.slack_start()
    if start is None and tab.is_art.any():
        everything = np.ones(tab.n_total, dtype=bool)
        if tab.run(tab.is_art.astype(float), everything, max_iters, tab.trace.phase1) != OPTIMAL:
            raise tab.error("phase 1 cannot be unbounded")
        # summed left to right over the rows
        art_val = float(sum(tab.xB[tab.is_art[tab.basis]]))
        if art_val > FEAS_TOL * max(1.0, float(np.max(np.abs(tab.b)))):
            return without_optimum(INFEASIBLE, art_val)
        tab.drive_out_artificials()
        tab.fix_artificials()

    cost2 = tab.phase2_cost()
    enter_real = ~tab.is_art
    if tab.run(cost2, enter_real, max_iters, tab.trace.phase2) == UNBOUNDED:
        return without_optimum(UNBOUNDED)

    # Certify-or-heal: a refactored basis can expose drift as new eligible
    # pivots; iterate until a freshly refactored basis is already optimal.
    # A basis still exact (the slack start or a factor, no iteration
    # since) is what a refactor would rebuild, so it is not refactored.
    while not tab.exact:
        if tab.trace.heal_rounds == HEAL_ROUNDS:
            raise tab.error("basis failed to stabilize under refactorization")
        tab.trace.heal_rounds += 1
        tab.refactor()
        if tab.run(cost2, enter_real, max_iters, tab.trace.phase2) == UNBOUNDED:
            return without_optimum(UNBOUNDED)

    # the basis is exact and the last run made no pivot, so its opening
    # refresh is current
    x_all = tab._nonbasic_values()
    x_all[tab.basis] = tab.xB
    x = x_all[:n]

    # row duals off the reduced cost of each row's logical column
    y_int = np.where(tab.row_alive, -tab.d[tab.logical] * tab.unit_sign[tab.logical], 0.0)

    # weak-duality bound, internal minimize convention, from the nonzeros
    # of the caller's A (rows signed as the solver holds them):
    #   z_d = y.b + sum_j min over [lo_j, up_j] of d_j x_j
    # valid whenever y <= 0 on '<=' rows; clamp to enforce validity.
    y_cert = np.where(~tab.is_eq & (y_int > 0.0), 0.0, y_int)
    n_real = tab.n_real
    d_cert = np.concatenate([tab.c_min - tab._rtimes(y_cert), 0.0 - y_cert[~tab.is_eq]])
    pos = d_cert > DUAL_ZERO_TOL
    used = pos | (d_cert < -DUAL_ZERO_TOL)
    # the minimizing bound; an infinite one makes its term -inf
    bound = np.where(pos, tab.lower[:n_real], tab.upper[:n_real])
    zd = float(y_cert @ tab.b)
    for term in d_cert[used] * bound[used]:  # left to right, in column order
        zd += term
    z_int = float(tab.c_min @ x)
    gap = abs(z_int - zd) if np.isfinite(zd) else float("inf")

    # primal residual over live original rows plus box breaches
    res = tab._times(x) - tab.b
    res = np.where(tab.is_eq, np.abs(res), res)[tab.row_alive]
    lo_in = np.asarray(lower, dtype=float)
    up_in = np.asarray(upper, dtype=float)
    lo_breach = np.where(np.isfinite(lo_in), lo_in - x, -np.inf)
    up_breach = np.where(np.isfinite(up_in), x - up_in, -np.inf)
    max_infeas = max(
        0.0,
        float(np.max(res, initial=0.0)),
        float(np.max(lo_breach, initial=0.0)),
        float(np.max(up_breach, initial=0.0)),
    )

    sense_mult = -1.0 if maximize else 1.0
    obj_ext = sense_mult * z_int
    y_ext = sense_mult * y_int
    d_ext = sense_mult * (tab.c_min - tab._rtimes(y_int))
    basis = np.concatenate([tab.status[:n], tab.status[tab.logical]])
    return SimplexResult(
        OPTIMAL, x, obj_ext, y_ext, d_ext, float(gap), float(max_infeas), tab.iterations, basis,
        tab.trace,
    )


def certify(res: SimplexResult) -> SimplexResult:
    """Return `res` if it can be trusted, else raise SimplexError.

    An OPTIMAL result must carry a primal residual <= FEAS_TOL and a
    weak-duality gap <= GAP_TOL * max(1, |objective|); a NaN in either
    fails.  INFEASIBLE and UNBOUNDED results carry no certificate and
    pass as they are, for the caller to map to its own error."""
    if res.status == OPTIMAL:
        where = f"(certificate, iteration {res.iterations}, refactors {res.trace.refactors})"
        if not res.max_infeasibility <= FEAS_TOL:
            raise SimplexError(
                f"solution residual {res.max_infeasibility} exceeds {FEAS_TOL} {where}"
            )
        if not res.duality_gap <= GAP_TOL * max(1.0, abs(res.objective)):
            raise SimplexError(f"duality gap {res.duality_gap} exceeds {GAP_TOL} {where}")
    return res
