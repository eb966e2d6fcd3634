"""Two-phase tableau simplex with variable bounds and anti-cycling fallback.

Solves   max/min  c.x   s.t.  A x {<=,>=,=} b,   lower <= x <= upper.

Design constraints, in order:

1. Determinism.  Same inputs give bitwise-identical output on a machine:
   pricing is steepest-edge over every eligible column with first-index
   tie-breaking; a streak of BLAND_AFTER degenerate pivots switches to
   Bland's smallest-index rule (which cannot cycle) until progress
   resumes; all floating-point reductions run in fixed order, and
   periodic refreshes happen on a fixed iteration schedule.
2. Honest certificates.  Every optimal solve reports row duals, reduced
   costs, a weak-duality gap, and the worst primal residual, so callers
   can assert optimality instead of trusting a status flag.
3. Termination over speed.  Finitely many bases, strictly fewer after
   every nondegenerate step, and Bland inside degenerate streaks give a
   finite bound.  The tableau is stored dense; problem sizes are
   expected to stay in the low thousands of rows.

The work per pivot follows the sparsity of the revenue LPs, not the
size of the tableau.  The rank-one update touches only the nonzero rows
of the entering column times the nonzero columns of the pivot row, and
every entry it writes (and every entry of the normalized pivot row and
of a refactored tableau) below DROP_TOL in magnitude is set to zero.
Those entries are round-off dust: on the identical n=2, 12-point
revenue LP, 66,670 of the 79,224 nonzeros of the tableau before its
first refactor were below 1e-13 and none lay between 1e-11 and
PIVOT_TOL, so dropping them keeps the update sparse without touching a
true entry.  Pricing reads steepest-edge weights (Forrest & Goldfarb
1992) that each pivot updates from the block it already gathers: the
squared norm of every tableau column and, while the dual simplex runs,
of every row of B^-1; each refresh recomputes them.  tests/test_simplex.py
checks the kernel against the dense update (same pivots, bitwise-equal
results) and the weights against recomputed norms.

A solve may start from a basis instead of from the slack basis: `start`
takes the `basis` of an earlier result, one status per structural column
and then per row's logical column.  The tableau refactors at that basis.
If it is primal feasible, phase 2 starts there; if it is dual feasible
instead, a bounded dual simplex (`_Tableau.dual_run`) restores primal
feasibility before phase 2.  A start it cannot use (wrong length, wrong
count of basic columns, singular, neither primal nor dual feasible, or a
row the dual ratio test cannot repair) falls back to the cold two-phase
solve, whose result it then returns.  Lazy row generation passes each
round's optimal basis to the next round; the lexicographic repair passes
each coordinate's optimal basis, with that coordinate's values fixed
through their bounds, to the next coordinate's solve.  Reruns
are bitwise identical for a fixed BLAS thread count: the rounding of
the dense solves, and through it a tie between pivots, can depend on
the number of threads.

Every row owns exactly one logical column: a slack for an inequality,
a marker for an equality (its phase-1 artificial, frozen at 0
afterwards).  Phase 1, the row duals, the dual clamp and the primal
residual all read that one per-row column, and row duals come off the
objective row for every row, not just slack rows.  `certify` is the one
check that makes a result trustworthy; every LP in the package goes
through it.

Variables must have at least one finite bound.  Free variables do not
occur in the intended formulations: payments are a priori bounded by
total surplus and everything else lives in a box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-9
DUAL_ZERO_TOL = 1e-11
FEAS_TOL = 1e-9
GAP_TOL = 1e-7
REFRESH_EVERY = 64
REFACTOR_EVERY = 512
BLAND_AFTER = 512
RATIO_SLACK = 1e-11
HEAL_ROUNDS = 8
DROP_TOL = 1e-12

_LO, _UP, _BASIC = 0, 1, 2

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class SimplexError(RuntimeError):
    """Numerical failure or iteration-limit breach inside the solver."""


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
    return int(near[np.lexsort((basis[near], -np.abs(coef[near])))[0]])


class _Tableau:
    """Mutable solver state; one instance per solve call.

    Internally always minimizes; '>=' rows are negated into '<=' rows.
    Row i owns the logical column `logical[i]`: a slack for a '<=' row, a
    marker for an '=' row.  Column layout: structural | slacks | markers |
    one extra artificial per '<=' row the start point violates, each block
    in row order.  The first `n_real` columns (structural and slacks) are
    the real ones; markers and extra artificials are the phase-1
    artificials, `is_art`.  The start basis puts each row's slack where
    the start point satisfies the row and a signed artificial elsewhere.
    """

    def __init__(self, c_min, A, b, senses, lower, upper):
        c_min = np.asarray(c_min, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        n = c_min.shape[0]
        m = len(b)
        if np.any(lower > upper):
            raise ValueError("crossed variable bounds")
        lower_inf = ~np.isfinite(lower)
        if np.any(lower_inf & ~np.isfinite(upper)):
            raise ValueError("every variable needs at least one finite bound")
        unknown = set(senses) - {"<=", ">=", "="}
        if unknown:
            raise ValueError(f"unknown sense {unknown.pop()!r}")
        senses = np.asarray(senses)
        row_sign = np.where(senses == ">=", -1.0, 1.0)
        A = np.asarray(A, dtype=float).reshape(m, n) * row_sign[:, None]
        b = np.asarray(b, dtype=float) * row_sign
        is_eq = senses == "="
        n_real = n + int(np.count_nonzero(~is_eq))
        logical = np.empty(m, dtype=int)
        logical[~is_eq] = np.arange(n, n_real)
        logical[is_eq] = np.arange(n_real, n + m)

        # Nonbasic structurals start at their lower bound, or at the upper
        # one when the lower is infinite; logical columns start at 0.
        start = np.where(lower_inf, upper, lower)
        nz = np.nonzero(start)[0]
        r = b - (A[:, nz] @ start[nz] if nz.size else np.zeros(m))
        satisfied = r >= 0.0
        sign = np.where(satisfied, 1.0, -1.0)
        extra = np.flatnonzero(~(is_eq | satisfied))
        n_total = n + m + extra.size
        basis = logical.copy()
        basis[extra] = np.arange(n + m, n_total)

        self.Aext = np.zeros((m, n_total))
        self.Aext[:, :n] = A
        self.Aext[np.arange(m), logical] = np.where(is_eq, sign, 1.0)
        self.Aext[extra, basis[extra]] = -1.0
        self.lower = np.concatenate([lower, np.zeros(n_total - n)])
        self.upper = np.concatenate([upper, np.full(n_total - n, np.inf)])
        self.status = np.full(n_total, _LO, dtype=np.int8)
        self.status[:n][lower_inf] = _UP
        self.status[basis] = _BASIC
        self.sign = sign

        self.c_min = c_min
        self.n = n
        self.m = m
        self.b = b
        self.is_eq = is_eq
        self.logical = logical
        self.basis = basis
        self.n_real = n_real
        self.n_total = n_total
        self.is_art = np.arange(n_total) >= n_real
        # every non-structural column is a signed unit vector: its row
        self.unit_row = np.full(n_total, -1)
        self.unit_row[logical] = np.arange(m)
        self.unit_row[n + m :] = extra
        self.row_alive = np.ones(m, dtype=bool)
        self.iterations = 0
        self.refactor_every = REFACTOR_EVERY
        self.rolled_back = False
        self.exact = False
        self.beta = None
        self.keep_basis()

    # -- state helpers ----------------------------------------------------

    def nb_value(self, j):
        return self.lower[j] if self.status[j] == _LO else self.upper[j]

    def _nonbasic_values(self):
        vals = np.where(self.status == _UP, self.upper, self.lower)
        vals[self.status == _BASIC] = 0.0
        return vals

    def slack_start(self):
        """Tableau and right-hand side at the start basis.  B0 is diagonal
        +-1, so T is a row rescale of Aext; a warm start never builds it.
        It equals what `factor` gives at this basis, up to the sign of
        zeros in the basic columns, unless A has an entry below DROP_TOL,
        which `factor` would drop."""
        self.T = self.Aext * self.sign[:, None]
        self.rb = self.b * self.sign
        a = self.Aext[:, : self.n]
        self.exact = not np.any(np.abs(a[a != 0.0]) < DROP_TOL)

    def refresh(self, cost):
        """Recompute the objective row, basic values and steepest-edge
        weights from scratch; every rebuild of T is followed by one."""
        self.d = cost - cost[self.basis] @ self.T
        vals = self._nonbasic_values()
        nz = np.nonzero(vals)[0]
        self.xB = self.rb - (self.T[:, nz] @ vals[nz] if nz.size else 0.0)
        self.gamma = np.einsum("ij,ij->j", self.T, self.T)
        if self.beta is not None:
            self.weigh_rows()

    def weigh_rows(self):
        """beta_i = |T[i, n:n+m]|^2, the squared norm of row i of B^-1 (the
        logical columns of Aext are a signed identity), off a view of T."""
        lg = self.T[:, self.n : self.n + self.m]
        self.beta = np.einsum("ij,ij->i", lg, lg)

    def violation(self):
        """How far each basic value lies outside its bounds (<= 0 inside)."""
        return np.maximum(self.lower[self.basis] - self.xB, self.xB - self.upper[self.basis])

    def keep_basis(self):
        """Remember the basis and bound statuses that a failed refactor
        rolls back to."""
        self.kept = (self.basis.copy(), self.status.copy())

    def factor(self):
        """T = B^-1 Aext and rb = B^-1 b at the current basis; raises
        LinAlgError on a singular basis matrix.

        Only what is unknown is solved for.  The basic columns of T are
        unit vectors, written exactly, so only the nonbasic columns and b
        are right-hand sides.  A basic logical or artificial column is a
        signed unit vector on its row, so that row drops out of the
        solve: the basic structural columns are solved on the other rows
        alone, and each unit row is then read off by one substitution.
        The old T is released before the solve, and entries below
        DROP_TOL are dropped.  The dense solve is deterministic for fixed
        inputs, so `exact` marks T as what a refactor would give again
        until the next iteration or pivot clears it."""
        self.T = None
        nb = np.flatnonzero(self.status != _BASIC)
        rhs = np.column_stack([self.Aext[:, nb], self.b])
        hit = self.unit_row[self.basis]
        unit = hit >= 0
        rows_u = hit[unit]
        rest = np.ones(self.m, dtype=bool)
        rest[rows_u] = False
        A_s = self.Aext[:, self.basis[~unit]]
        if A_s.shape[1] != np.count_nonzero(rest):
            # two basic unit columns on one row
            raise np.linalg.LinAlgError("Singular matrix")
        z = np.linalg.solve(A_s[rest], rhs[rest])
        sol = np.empty_like(rhs)
        sol[~unit] = z
        scale = self.Aext[rows_u, self.basis[unit]]
        sol[unit] = (rhs[rows_u] - A_s[rows_u] @ z) / scale[:, None]
        block = sol[:, :-1]
        block[np.abs(block) < DROP_TOL] = 0.0
        T = np.zeros((self.m, self.n_total))
        T[:, nb] = block
        T[np.arange(self.m), self.basis] = 1.0
        self.T = T
        self.rb = sol[:, -1].copy()
        self.exact = True

    def refactor(self):
        """Rebuild the tableau exactly from the current basis.

        Rank-one pivot updates drift; solving against the basis matrix
        resets T and rb to working precision.  Drift can also let a pivot
        land on an entry that is really zero and leave a singular basis.
        Then the tableau rolls back to the basis kept at the last refactor
        that succeeded or at the start of the current phase, whichever is
        later, refactors there, and from then on refactors every 128
        pivots.  A second failure raises SimplexError."""
        try:
            self.factor()
        except np.linalg.LinAlgError as exc:
            if self.rolled_back:
                raise SimplexError("singular basis during refactorization") from exc
            self.rolled_back = True
            self.refactor_every = 128
            self.basis, self.status = (a.copy() for a in self.kept)
            try:
                self.factor()
            except np.linalg.LinAlgError as again:
                raise SimplexError("singular basis during refactorization") from again
        self.keep_basis()

    # -- core iteration ----------------------------------------------------

    def pivot(self, r, j, enter_val):
        """Make column j basic in row r at value enter_val; the caller has
        already set the leaving variable's status.

        The rank-one update T -= outer(colj, T[r]) runs only over the
        nonzero rows of colj and the nonzero columns of the normalized
        row r.  Every entry it skips would get x - (+-0.0) == x, so the
        result matches the dense update up to the sign of zero entries.
        Entries of the normalized row and of the updated block below
        DROP_TOL are set to zero; `update_weights` reads the same block."""
        piv = self.T[r, j]
        if abs(piv) <= PIVOT_TOL:
            raise SimplexError("near-zero pivot")
        self.exact = False
        row = self.T[r]
        row /= piv
        row[np.abs(row) < DROP_TOL] = 0.0
        self.rb[r] /= piv
        colj = self.T[:, j].copy()
        colj[r] = 0.0
        rows = np.flatnonzero(colj)
        cols = np.flatnonzero(row)
        block = np.ix_(rows, cols)
        upd = self.T[block]  # a copy, read by update_weights before the update
        self.update_weights(r, j, piv, rows, cols, colj[rows], upd)
        upd -= np.outer(colj[rows], row[cols])
        upd[np.abs(upd) < DROP_TOL] = 0.0
        self.T[block] = upd
        self.rb -= colj * self.rb[r]
        self.d = self.d - self.d[j] * self.T[r, :]
        self.basis[r] = j
        self.status[j] = _BASIC
        self.xB[r] = enter_val

    def update_weights(self, r, j, piv, rows, cols, a, before):
        """Carry gamma and beta across the pivot on (r, j).  `a` is the
        entering column on `rows` (its nonzero rows but r), rho the
        normalized row r on its nonzero columns `cols`, and `before` =
        T[rows, cols] ahead of the update.  Column k becomes rho_k on row
        r and T[i, k] - a_i rho_k elsewhere; row i of B^-1 loses a_i rho
        on the logical columns L.  So gamma_k gains rho_k^2 (|a|^2 + 1 -
        piv^2) - 2 rho_k a.T[rows, k], beta_i gains a_i^2 |rho_L|^2 -
        2 a_i T[i, L].rho_L, and beta_r is |rho_L|^2.  The pivot column
        and row enter by their exact norms, so no weight's drift spreads."""
        rho = self.T[r, cols]
        g = self.gamma
        g[cols] = np.maximum(0.0, g[cols] - 2 * rho * (a @ before) + rho**2 * (a @ a + 1 - piv**2))
        if self.beta is not None:
            lg = (cols >= self.n) & (cols < self.n + self.m)
            rho_l, tau = rho[lg], before[:, lg] @ rho[lg]
            beta = self.beta
            beta[rows] = np.maximum(DROP_TOL, beta[rows] - 2.0 * a * tau + a * a * (rho_l @ rho_l))
            beta[r] = rho_l @ rho_l

    def run(self, cost, enterable, max_iters):
        """Minimize cost over the current basis.

        Pricing scores every eligible column by its steepest-edge ratio
        d_j^2 / (1 + gamma_j), gamma_j the squared norm of tableau column
        j, first index on ties, while steps make progress; a streak of
        BLAND_AFTER degenerate pivots switches to Bland's smallest-index
        rule, which cannot cycle, until a positive step resets the
        streak.  Both rules are deterministic, so reruns stay bitwise
        identical."""
        self.refresh(cost)
        self.keep_basis()
        self.since_refresh = self.since_refactor = 0
        degen_streak = 0
        movable = enterable & ((self.upper - self.lower) > 0.0)
        while True:
            if self.iterations >= max_iters:
                raise SimplexError(f"iteration limit {max_iters} reached")
            elig = (
                movable
                & (self.status != _BASIC)
                & (
                    ((self.status == _LO) & (self.d < -PIVOT_TOL))
                    | ((self.status == _UP) & (self.d > PIVOT_TOL))
                )
            )
            if not elig.any():
                return OPTIMAL
            bland = degen_streak >= BLAND_AFTER
            if bland:
                j = int(np.argmax(elig))  # smallest eligible index
            else:
                j = int(np.argmax(np.where(elig, self.d * self.d / (1.0 + self.gamma), -1.0)))
            delta = 1.0 if self.status[j] == _LO else -1.0
            w = self.T[:, j]
            coef = delta * w
            lim = np.full(self.m, np.inf)
            dec = coef > PIVOT_TOL
            inc = coef < -PIVOT_TOL
            lo_B = self.lower[self.basis]
            up_B = self.upper[self.basis]
            lim[dec] = (self.xB[dec] - lo_B[dec]) / coef[dec]
            with np.errstate(invalid="ignore"):
                up_gap = np.where(np.isfinite(up_B), up_B - self.xB, np.inf)
            lim[inc] = up_gap[inc] / (-coef[inc])
            lim[~self.row_alive] = np.inf
            np.maximum(lim, 0.0, out=lim)
            row_min = float(lim.min()) if self.m else np.inf
            own = self.upper[j] - self.lower[j]
            step = min(row_min, own)
            if not np.isfinite(step):
                return UNBOUNDED
            degen_streak = 0 if step > PIVOT_TOL else degen_streak + 1
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
        """Count one iteration, then refactor or refresh on the schedule
        that `run` and `dual_run` restart.  A bound flip leaves T exact
        but moves xB by an update, so every iteration clears `exact`."""
        self.exact = False
        self.iterations += 1
        self.since_refresh += 1
        self.since_refactor += 1
        if self.since_refactor >= self.refactor_every:
            self.refactor()
            self.refresh(cost)
            self.since_refresh = self.since_refactor = 0
        elif self.since_refresh >= REFRESH_EVERY:
            self.refresh(cost)
            self.since_refresh = 0

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
        self.keep_basis()
        self.weigh_rows()
        self.since_refresh = self.since_refactor = 0
        zero_streak = 0
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
                raise SimplexError(f"iteration limit {max_iters} reached")
            bland = zero_streak >= BLAND_AFTER
            if bland:
                r = int(np.argmin(np.where(bad, self.basis, self.n_total)))
            else:
                r = int(np.argmax(np.where(bad, viol * viol / self.beta, -1.0)))
            below = bool(self.xB[r] < lo_B[r])
            alpha = self.T[r]
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
            # move x_q until the leaving variable sits on its violated bound
            move = (self.xB[r] - (lo_B[r] if below else up_B[r])) / alpha[q]
            enter_val = self.nb_value(q) + move
            self.xB -= move * self.T[:, q]
            self.status[self.basis[r]] = _LO if below else _UP
            self.pivot(r, q, enter_val)
            self.upkeep(cost)

    def warm_start(self, start, cost, max_iters):
        """Start phase 2 from the basis `start` (a SimplexResult.basis).

        A start whose basic values all lie within RATIO_SLACK of their
        bounds goes to phase 2 as it is, whatever its reduced costs: a
        previous optimum with some columns fixed through their bounds is
        one.  Any other start must be dual feasible within PIVOT_TOL, and
        `dual_run` then makes it primal feasible.  Returns False if the
        start cannot be used: wrong length, not exactly one basic column
        per row, a nonbasic column at an infinite bound, a singular basis
        matrix, neither primal nor dual feasible, or a violated row
        without an entering column.  The tableau is then spoiled; the
        caller solves from a fresh one."""
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
            cand = np.nonzero(
                enterable & (np.abs(self.T[i, :]) > PIVOT_TOL) & (self.status != _BASIC)
            )[0]
            if cand.size == 0:
                self.row_alive[i] = False
                continue
            j = int(cand[0])
            self.status[self.basis[i]] = _LO
            self.pivot(i, j, self.nb_value(j))


def solve_simplex(
    c, A, b, senses, lower, upper, maximize=True, max_iters=None, start=None
) -> SimplexResult:
    """Solve the bounded LP; see module docstring for conventions.

    Returns duals `y` (one per input row, zero for retired redundant
    rows) and structural reduced costs, both in the caller's
    optimization sense.  duality_gap is |primal - weak-dual bound|
    recomputed from the returned certificate, not an internal solver
    quantity, so a small gap genuinely certifies optimality; `certify`
    checks it.  `start`, the `basis` of an earlier optimal result on an
    LP with the same columns, warm-starts phase 2 from that basis when
    it is primal or dual feasible there; a start that cannot be used
    gives the cold solve's result.
    """
    c = np.asarray(c, dtype=float)
    m = len(b)
    n = c.shape[0]
    if max_iters is None:
        max_iters = 200 * (m + n) + 20000

    def tableau():
        return _Tableau(-c if maximize else c, A, b, senses, lower, upper)

    tab = tableau()
    enter_real = ~tab.is_art
    cost2 = np.zeros(tab.n_total)
    cost2[:n] = tab.c_min

    if start is not None and not tab.warm_start(start, cost2, max_iters):
        start = None
        tab = tableau()
    if start is None:
        tab.slack_start()
    if start is None and tab.is_art.any():
        status = tab.run(tab.is_art.astype(float), np.ones(tab.n_total, dtype=bool), max_iters)
        if status != OPTIMAL:
            raise SimplexError("phase 1 cannot be unbounded")
        # summed left to right over the rows
        art_val = float(sum(tab.xB[tab.is_art[tab.basis]]))
        if art_val > FEAS_TOL * max(1.0, float(np.max(np.abs(tab.b)))):
            return SimplexResult(
                INFEASIBLE, None, None, None, None, None, art_val, tab.iterations
            )
        tab.drive_out_artificials()
        tab.fix_artificials()

    status = tab.run(cost2, enter_real, max_iters)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, None, None, None, 0.0, tab.iterations)

    # Certify-or-heal: a rebuilt tableau can expose drift as new eligible
    # pivots; iterate until a freshly refactored basis is already optimal.
    # A tableau still exact (built by slack_start or factor, no iteration
    # since) is what a refactor would rebuild, so it is not refactored.
    heal = 0
    while not tab.exact:
        if heal == HEAL_ROUNDS:
            raise SimplexError("tableau failed to stabilize under refactorization")
        heal += 1
        tab.refactor()
        status = tab.run(cost2, enter_real, max_iters)
        if status == UNBOUNDED:
            return SimplexResult(
                UNBOUNDED, None, None, None, None, None, 0.0, tab.iterations
            )

    # T is exact and the last run made no pivot, so its opening refresh
    # is current
    x_all = tab._nonbasic_values()
    x_all[tab.basis] = tab.xB
    x = x_all[:n]

    # row duals off the objective row at each row's logical column
    y_int = np.where(
        tab.row_alive, -tab.d[tab.logical] * tab.Aext[np.arange(m), tab.logical], 0.0
    )

    # weak-duality bound, internal minimize convention:
    #   z_d = y.b + sum_j min over [lo_j, up_j] of d_j x_j
    # valid whenever y <= 0 on '<=' rows; clamp to enforce validity.
    y_cert = np.where(~tab.is_eq & (y_int > 0.0), 0.0, y_int)
    n_real = tab.n_real
    d_cert = cost2[:n_real] - y_cert @ tab.Aext[:, :n_real]
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
    res = tab.Aext[:, :n] @ x - tab.b
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
    d_full = cost2[: tab.n_total] - y_int @ tab.Aext
    d_ext = sense_mult * d_full[:n]
    basis = np.concatenate([tab.status[:n], tab.status[tab.logical]])
    return SimplexResult(
        OPTIMAL, x, obj_ext, y_ext, d_ext, float(gap), float(max_infeas), tab.iterations, basis
    )


def certify(res: SimplexResult) -> SimplexResult:
    """Return `res` if it can be trusted, else raise SimplexError.

    An OPTIMAL result must carry a primal residual <= FEAS_TOL and a
    weak-duality gap <= GAP_TOL * max(1, |objective|); a NaN in either
    fails.  INFEASIBLE and UNBOUNDED results carry no certificate and
    pass as they are, for the caller to map to its own error."""
    if res.status == OPTIMAL:
        if not res.max_infeasibility <= FEAS_TOL:
            raise SimplexError(f"solution residual {res.max_infeasibility} exceeds {FEAS_TOL}")
        if not res.duality_gap <= GAP_TOL * max(1.0, abs(res.objective)):
            raise SimplexError(f"duality gap {res.duality_gap} exceeds {GAP_TOL}")
    return res
