"""Revenue optimization as linear programming over mechanism tables.

Variables are the allocation entries q_i(v) in [0,1] and the payments
t(v); the objective is expected revenue; constraints are truthfulness for
every ordered type pair, participation for every type, and the sorted
allocation order on the identical domain.  Payments carry the a priori
box |t| <= max total surplus + 1, which cuts no optimal solution (any
optimum can be shifted so its lowest utility is zero, after which
payments lie in [0, max surplus]).

Row counts grow quadratically in the type count, so a `LinearProgram`
holds its rows in blocks of arrays, one per `add_rows` call with no
Python object per row, and renders their labels and LP text a chunk of
rows at a time; and `optimal_mechanism` switches to lazy constraint
generation past a size threshold: solve with a working set of
truthfulness rows, add the worst violated pairs, prune rows that stay
slack, repeat until no violation remains.  Every returned solution is
re-audited against the *full* pairwise constraint set; the working set
is an implementation detail, never a weaker guarantee.  `OptimalResult`
keeps one record per round: rows added and pruned, the worst
truthfulness gain, and the solve's trace of counts.

Every revenue LP has the no-sale mechanism (q = 0, t = 0, every
participation row binding) as a vertex, so its first solve starts
phase 2 there instead of at the slack basis; each later round
warm-starts from the previous round's optimal basis.

The module also covers: relabeling-invariant optimization via one
variable block per sorted representative, adversarial (worst-case over
correlations) revenue LPs, posted per-unit pricing, exhaustive
deterministic-menu search, and a cross-domain equivalence certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import simplex
from .dist import Distribution, MarginalCdf, embed, table_distribution, to_identical_density
from .mech import (
    AuditReport,
    Mechanism,
    Menu,
    _report,
    check_feasible_identical,
    check_ic,
    check_ir,
    expected_revenue,
    ic_gains,
    menu_choice_indices,
    menu_to_mechanism,
    pairwise_value,
    seller_ordered_menu,
)
from .symmetry import is_symmetric, restrict_to_cell, symmetric_extension
from .typespace import (
    HETEROGENEOUS,
    IDENTICAL,
    cell_of,
    identity_permutation,
    is_strict,
    sort_descending,
)

AUDIT_TOL = 1e-8
GEN_TOL = 1e-10
PRUNE_SLACK = 1e-7
FULL_ROW_CAP = 1200
MAX_WORKING_ROWS = 20000
MAX_ROUNDS = 60
MAX_MENUS = 500_000
EXPORT_CHUNK = 4096


class LpError(RuntimeError):
    """LP construction or certification failure."""


class InfeasibleError(LpError):
    """The constraint system admits no solution."""


class RowBlock(NamedTuple):
    """The rows start .. start + len(rhs) - 1 of a `LinearProgram`, all
    of one sense.  Row start + r has right-hand side rhs[r] and the
    entries ptr[r] .. ptr[r + 1] - 1 of `col` and `val`, in increasing
    column order.  Its label is `name` joined by "_" with ids[j][r] for
    each id array, or none if `name` is empty."""

    start: int
    sense: str
    name: str
    ids: tuple
    rhs: np.ndarray
    ptr: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @property
    def stop(self) -> int:
        return self.start + self.rhs.size

    def labels(self) -> list[str]:
        if not (self.name and self.ids):
            return [self.name] * self.rhs.size
        return ["_".join(map(str, (self.name, *ids))) for ids in zip(*(x.tolist() for x in self.ids))]


@dataclass
class LinearProgram:
    """Named-variable LP, maximize objective . x.

    Rows come in `blocks`, one per `add_rows` call, and no Python object
    is held per row: a block keeps its entries as column and value arrays
    with a row pointer, its right-hand sides as one array and its labels
    as a name and integer id arrays.  Zero entries are kept, -0.0 with
    its sign, so `dense` returns every bit a builder wrote; the solver
    drops them.  `row`, `col`, `val`, `rhs` and `senses` are the whole
    LP's, joined from the blocks on each read: COO triplets sorted by
    row, then column, at most one per (row, column), as `solve_lp` hands
    them to the solver.  `dense`, `labels` and `rows` are views for the
    tests and bench/; no solve calls them."""

    names: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    blocks: list[RowBlock] = field(default_factory=list)

    def add_var(self, name: str, lo: float, up: float, obj: float = 0.0) -> int:
        self.names.append(name)
        self.lower.append(float(lo))
        self.upper.append(float(up))
        self.objective.append(float(obj))
        return len(self.names) - 1

    def add_rows(self, col, val, sense: str, rhs, name: str = "", *ids, keep=True) -> None:
        """Append a block of rows of one sense.  `col`, `val` and `keep`
        broadcast to (rows, width), `rhs` and each id array to (rows,):
        entry (r, w) where `keep` holds puts val[r, w] on column col[r, w]
        of the r-th new row, whose label is `name` and its ids joined by
        "_" (ir_3, ic_3_5), or r<row index> in the LP text if `name` is
        empty.  The kept columns of each row must increase; a repeated or
        out-of-order one raises ValueError.  The block keeps `col` and
        `val` without a copy where it can, so they must not change
        afterwards."""
        if sense not in ("<=", ">=", "="):
            raise LpError(f"bad sense {sense!r}")
        col, val = np.asarray(col, dtype=np.intp), np.asarray(val, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        ids = tuple(np.asarray(x, dtype=np.intp) for x in ids)
        shape = np.broadcast_shapes(
            col.shape, val.shape, np.shape(keep), rhs.shape + (1,), *(x.shape + (1,) for x in ids)
        )
        keep = np.broadcast_to(keep, shape)
        col, val = (np.broadcast_to(x, shape) for x in (col, val))
        if keep.all():
            # a view of a contiguous input: the truthfulness block's
            # arrays become the LP's without a copy
            col, val = col.reshape(-1), val.reshape(-1)
        else:
            col, val = col[keep], val[keep]
        ptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
        # each kept column above its left neighbour in the row
        row = np.repeat(np.arange(shape[0]), np.diff(ptr))
        bad = np.flatnonzero((col[1:] <= col[:-1]) & (row[1:] == row[:-1])) + 1
        if bad.size:
            e = bad[0]
            what = "repeats" if col[e] == col[e - 1] else "is out of order"
            raise ValueError(f"row {self.n_rows + row[e]}: column {col[e]} {what}")
        self.blocks.append(RowBlock(
            self.n_rows, sense, name, tuple(np.broadcast_to(x, shape[:1]) for x in ids),
            np.broadcast_to(rhs, shape[:1]).copy(), ptr, col, val,
        ))

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return self.blocks[-1].stop if self.blocks else 0

    @property
    def row(self) -> np.ndarray:
        rows = [np.repeat(np.arange(b.start, b.stop), np.diff(b.ptr)) for b in self.blocks]
        return np.concatenate([np.zeros(0, np.intp)] + rows)

    @property
    def col(self) -> np.ndarray:
        return np.concatenate([np.zeros(0, np.intp)] + [b.col for b in self.blocks])

    @property
    def val(self) -> np.ndarray:
        return np.concatenate([np.zeros(0)] + [b.val for b in self.blocks])

    @property
    def rhs(self) -> np.ndarray:
        return np.concatenate([np.zeros(0)] + [b.rhs for b in self.blocks])

    @property
    def senses(self) -> list[str]:
        return [b.sense for b in self.blocks for _ in range(b.rhs.size)]

    @property
    def labels(self) -> list[str]:
        return [label for b in self.blocks for label in b.labels()]

    @property
    def rows(self) -> list[tuple[dict, str, float, str]]:
        """A fresh list of (coeffs, sense, rhs, label), coeffs a {column:
        value} dict in column order."""
        coeffs = [{} for _ in range(self.n_rows)]
        for r, j, c in zip(self.row.tolist(), self.col.tolist(), self.val.tolist()):
            coeffs[r][j] = c
        return list(zip(coeffs, self.senses, self.rhs.tolist(), self.labels))

    def dense(self):
        A = np.zeros((self.n_rows, self.n_vars))
        A[self.row, self.col] = self.val
        return A, self.rhs, self.senses


def solve_lp(lp: LinearProgram, what: str = "LP", start=None) -> simplex.SimplexResult:
    """Solve and certify.  Returns the OPTIMAL result that passed
    `simplex.certify`; an infeasible LP raises InfeasibleError naming
    `what`, and a solver breakdown or a failed certificate raises
    LpError, so no caller ever holds an untrusted optimum.  Every
    variable needs two finite bounds, or the solver raises ValueError.
    `start` is passed to the solver as the basis to start from; None
    starts from the slack basis."""
    try:
        res = simplex.certify(
            simplex.solve_simplex(
                c=np.asarray(lp.objective),
                A=simplex.Coo(lp.row, lp.col, lp.val, (lp.n_rows, lp.n_vars)),
                b=lp.rhs,
                senses=lp.senses,
                lower=np.asarray(lp.lower),
                upper=np.asarray(lp.upper),
                start=start,
            )
        )
    except simplex.SimplexError as exc:
        raise LpError(f"{what} failed: {exc}") from exc
    if res.status == simplex.INFEASIBLE:
        raise InfeasibleError(f"{what} infeasible")
    return res


def export_lp_text(lp: LinearProgram, comment: str = "") -> str:
    """Serialize in the standard LP text format (CPLEX dialect)."""
    return "".join(lp_text_chunks(lp, comment))


def lp_text_chunks(lp: LinearProgram, comment: str = ""):
    """The text of `export_lp_text` in pieces of EXPORT_CHUNK rows at
    most, so a writer can write each piece as it comes."""
    spaced = np.array([f" {name}" for name in lp.names], dtype=object)
    obj = np.asarray(lp.objective, dtype=float)
    yield from (f"\\ {ln}\n" for ln in comment.splitlines())
    yield "Maximize\n"
    yield _rows_text(spaced, [0, obj.size], np.arange(obj.size), obj, [" obj: "], "\n")
    yield "Subject To\n"
    for b in lp.blocks:
        for a in range(0, b.rhs.size, EXPORT_CHUNK):
            z = min(a + EXPORT_CHUNK, b.rhs.size)
            ptr = b.ptr[a : z + 1]
            terms = slice(ptr[0], ptr[-1])
            yield _rows_text(
                spaced, ptr - ptr[0], b.col[terms], b.val[terms],
                _heads(b, a, z), _tails(b.sense, b.rhs[a:z]),
            )
    yield "Bounds\n"
    for name, lo, up in zip(lp.names, lp.lower, lp.upper):
        yield (f" {repr(float(lo)) if math.isfinite(lo) else '-inf'} <= {name}"
               f" <= {repr(float(up)) if math.isfinite(up) else '+inf'}\n")
    yield "End\n"


def _heads(b: RowBlock, a: int, z: int) -> list:
    """The head of rows a .. z - 1 of block b as columns of pieces, each
    one string for every row or an array of one string per row:
    " name", then "_id" for each id, with ": " after the last.  Each
    distinct piece is formatted once."""
    if not b.name:
        return [np.array([f" r{r}: " for r in range(b.start + a, b.start + z)], dtype=object)]
    if not b.ids:
        return [f" {b.name}: "]
    heads = [f" {b.name}"]
    for j, ids in enumerate(b.ids, start=1):
        end = ": " if j == len(b.ids) else ""
        distinct, which = np.unique(ids[a:z], return_inverse=True)
        heads.append(np.array([f"_{x}{end}" for x in distinct.tolist()], dtype=object)[which])
    return heads


def _tails(sense: str, rhs: np.ndarray) -> np.ndarray:
    """The tail " <sense> <rhs>" and a newline of each row, formatted
    once per distinct rhs bit pattern, so -0.0 keeps its sign."""
    distinct, which = np.unique(rhs.view(np.int64), return_inverse=True)
    return np.array([f" {sense} {x!r}\n" for x in distinct.view(float).tolist()], dtype=object)[which]


def _rows_text(spaced, ptr, col, val, heads, tail) -> str:
    """The text of the rows whose entries ptr[r] .. ptr[r + 1] - 1 of
    `col` and `val` are in column order: the head pieces (`_heads`), the
    linear expression, then the tail.  The expression is the nonzero
    terms, no sign before a positive first term, or "0 <first
    variable>".  It is joined from shared pieces: repr runs once per
    distinct magnitude, `spaced` holds " <name>" per variable, and no
    string per term is made."""
    rows, h = len(ptr) - 1, len(heads)
    row = np.repeat(np.arange(rows), np.diff(ptr))
    keep = val != 0.0
    row, col, val = row[keep], col[keep], val[keep]
    mags, which = np.unique(np.abs(val), return_inverse=True)
    # each magnitude as a row's first term, +/-, then after another term
    signs = ("", "- ", " + ", " - ")
    signed = np.array([f"{s}{m!r}" for m in mags.tolist() for s in signs], dtype=object)
    later = np.r_[False, row[1:] == row[:-1]]
    count = np.bincount(row, minlength=rows)
    # row r is h head pieces, a (signed magnitude, name) pair per term
    # or one "0 <first variable>" piece, then its tail; its terms are
    # entries term0[r] .. of the nonzeros
    width = h + np.maximum(2 * count, 1) + 1
    end = np.cumsum(width)
    first = end - width
    term0 = np.cumsum(count) - count
    pieces = np.empty(end[-1], dtype=object)
    for j, piece in enumerate(heads):
        pieces[first + j] = piece
    at = first[row] + h + 2 * (np.arange(row.size) - term0[row])
    pieces[at] = signed[4 * which + 2 * later + (val < 0)]
    pieces[at + 1] = spaced[col]
    pieces[first[count == 0] + h] = "0" + (spaced[0] if spaced.size else " x0")
    pieces[end - 1] = tail
    return "".join(pieces.tolist())


# ---------------------------------------------------------------------------
# revenue LP over mechanism tables

@dataclass
class LazyRound:
    """One solve of the constraint-generation loop: how many truthfulness
    rows its LP added to and pruned from the previous round's (the first
    round adds its whole working set), the largest truthfulness gain of
    its mechanism over every ordered type pair, and the solve's counts."""

    added: int
    pruned: int
    max_gain: float
    trace: simplex.SolveTrace


@dataclass
class OptimalResult:
    """`solution` is the last solve; `round_log` holds one record per
    solve, in order."""

    mechanism: Mechanism
    revenue: float
    solution: simplex.SimplexResult
    n_ic_rows: int
    rounds: int
    mode: str
    round_log: list[LazyRound]


def _revenue_lp(types, weights, domain_tag, pairs) -> LinearProgram:
    """The revenue LP: participation rows ir_k, allocation order ord_k_i
    on the identical domain, then truthfulness rows ic_k_l for `pairs`.
    Column k * n + i is q_i of type k, column T * n + k its payment t(k).

    `pairs` is (k, l, dev), one entry per row: type k values block l's
    allocation at dev (types[k] itself, except in the orbit LP), so the
    row reads dev.q(l) - t(l) - own.q(k) + t(k) <= 0, own = types[k].
    k == l only in the orbit LP: the payments cancel, and q(k) gets
    dev - own."""
    T = len(types)
    n = len(types[0])
    S = max(sum(v) for v in types)
    lp = LinearProgram(
        names=[f"q_{k}_{i}" for k in range(T) for i in range(n)] + [f"t_{k}" for k in range(T)],
        lower=[0.0] * (T * n) + [float(-S - 1.0)] * T,
        upper=[1.0] * (T * n) + [float(S + 1.0)] * T,
        objective=[0.0] * (T * n) + [float(w) for w in weights],
    )
    values = np.asarray(types, dtype=float)
    q = np.arange(T * n).reshape(T, n)
    lp.add_rows(
        np.column_stack([q, T * n + np.arange(T)]), np.column_stack([-values, np.ones(T)]),
        "<=", 0.0, "ir", np.arange(T),
    )
    if domain_tag == IDENTICAL:
        lp.add_rows(
            np.stack([q[:, :-1], q[:, 1:]], axis=2).reshape(-1, 2), [[-1.0, 1.0]],
            "<=", 0.0, "ord", np.repeat(np.arange(T), n - 1), np.tile(np.arange(n - 1), T),
        )
    k, l = (np.asarray(x, dtype=np.intp) for x in pairs[:2])
    col, val, keep = _truthfulness_rows(T, values, k, l, pairs[2])
    lp.add_rows(col, val, "<=", 0.0, "ic", k, l, keep=keep)
    return lp


def _truthfulness_rows(T, values, k, l, dev):
    """`col`, `val` and `keep` of the truthfulness rows of `_revenue_lp`,
    each row's columns in increasing order: the q block of min(k, l),
    that of max(k, l), then their payments.  A row with k == l keeps its
    q(k) entries only.  A function of its own, so that its temporaries
    are freed before `add_rows` runs."""
    n = values.shape[1]
    dev = np.asarray(dev, dtype=float).reshape(k.size, n)
    same = (k == l)[:, None]
    # 0.0 - own, not -own: the q(k) entry is +0.0 where own is 0
    own = np.where(same, dev, 0.0) - values[k]
    own_first = (k <= l)[:, None]
    lo, hi = np.minimum(k, l)[:, None], np.maximum(k, l)[:, None]
    col = np.hstack([lo * n + np.arange(n), hi * n + np.arange(n), T * n + lo, T * n + hi])
    val = np.hstack([
        np.where(own_first, own, dev), np.where(own_first, dev, own),
        np.where(own_first, [1.0, -1.0], [-1.0, 1.0]),
    ])
    keep = np.hstack([np.ones_like(own, dtype=bool), np.repeat(~same, n + 2, axis=1)])
    return col, val, keep


def _no_sale_start(lp: LinearProgram, T: int) -> np.ndarray:
    """The `start` basis of the no-sale vertex q = 0, t = 0 of a
    `_revenue_lp` over T types: every q column nonbasic at 0, every
    payment basic on its participation row ir_k, whose logical column is
    nonbasic at 0, and every other logical column basic.  Each row then
    reads 0 <= 0 and the kernel A[ir rows, payment columns] is I, so the
    solve starts phase 2 there."""
    statuses = np.array([simplex._LO, simplex._BASIC, simplex._LO, simplex._BASIC], dtype=np.int8)
    return np.repeat(statuses, [lp.n_vars - T, T, T, lp.n_rows - T])


def _extract_mechanism(types, n, values, domain_tag) -> Mechanism:
    T = len(types)
    # solver round-off can leave allocations a few ulp outside the box
    q = np.clip(values[: T * n].reshape(T, n), 0.0, 1.0)
    t = values[T * n : T * n + T]
    return Mechanism(types=tuple(types), q=q, t=t.copy(), domain_tag=domain_tag)


def build_revenue_lp(types, dist: Distribution, domain_tag: str) -> LinearProgram:
    """Full formulation with every ordered truthfulness pair, for text
    export."""
    types = [tuple(v) for v in types]
    k, l = np.nonzero(~np.eye(len(types), dtype=bool))
    return _revenue_lp(types, embed(dist, types), domain_tag, (k, l, np.asarray(types)[k]))


def optimal_mechanism(
    types,
    dist: Distribution,
    domain_tag: str,
    mode: str = "auto",
) -> OptimalResult:
    """Revenue-maximal truthful mechanism on the given type list.

    Both modes run the same constraint-generation loop, `_solve_lazy`,
    with every type as a row of its pair mask.  The returned mechanism
    always passes the full truthfulness and participation audits at 1e-8
    regardless of mode; failure to certify raises.
    """
    types = [tuple(float(x) for x in v) for v in types]
    n = len(types[0])
    weights = embed(dist, types)
    values = np.asarray(types)

    def build(k, l):
        return _revenue_lp(types, weights, domain_tag, (k, l, values[k]))

    def outcome(x):
        mech = _extract_mechanism(types, n, x, domain_tag)
        return mech, ic_gains(mech)

    return _solve_lazy(types, np.arange(len(types)), mode, build, outcome)


def _certify_mechanism(mech: Mechanism) -> None:
    rep_ic = check_ic(mech, tol=AUDIT_TOL)
    if not rep_ic.passed:
        raise LpError(f"optimal mechanism failed truthfulness audit: {rep_ic.max_slack}")
    rep_ir = check_ir(mech, tol=AUDIT_TOL)
    if not rep_ir.passed:
        raise LpError(f"optimal mechanism failed participation audit: {rep_ir.max_slack}")
    if mech.domain_tag == IDENTICAL:
        rep_f = check_feasible_identical(mech, tol=AUDIT_TOL)
        if not rep_f.passed:
            raise LpError(f"optimal mechanism failed allocation order: {rep_f.max_slack}")


def _neighbor_pairs(types, per_type: int = 4) -> np.ndarray:
    """Type-by-type mask of the deviation pairs between each type and its
    nearest reports (max-norm), in both directions."""
    arr = np.asarray(types, dtype=float)
    count = arr.shape[0]
    k = min(per_type, count - 1)
    gaps = np.max(np.abs(arr[:, None, :] - arr[None, :, :]), axis=2)
    np.fill_diagonal(gaps, np.inf)
    nearest = np.argsort(gaps, axis=1, kind="stable")[:, :k]
    mask = np.zeros((count, count), dtype=bool)
    mask[np.repeat(np.arange(count), k), nearest.ravel()] = True
    return mask | mask.T


def _solve_lazy(types, rows, mode, build, outcome) -> OptimalResult:
    """Constraint generation on truthfulness rows over a pair mask with
    one row per entry of `rows` (indices into `types`) and one column per
    type: entry (a, b) set means the row of type types[rows[a]] against
    reporting type b is in the working set.  `build(a, b)` returns the
    revenue LP, over one block per entry of `rows`, with the rows of the
    pairs (a[e], b[e]); `outcome(x)` returns the mechanism of its solution
    x and that mechanism's gain matrix over the mask.

    The modes differ only in the starting working set: "full" starts from
    every pair, a complete set that is solved once, "lazy" from each
    type's nearest-neighbor pairs (`_neighbor_pairs`); "auto" picks by
    instance size.  Working-set policy: add the most violated pairs each
    round (up to 2 per mask row), drop rows that have been slack for two
    consecutive solves (a row added in the previous round has been
    through one solve only, so it stays).  Rows are built in row-major
    order of the mask.  Terminates when the gain matrix shows no
    violation beyond GEN_TOL, or at once when the working set is
    complete: then the solve is the full LP and there is nothing left to
    add.  The final mechanism is audited over every ordered type pair.

    The first round starts phase 2 at the no-sale vertex
    (`_no_sale_start`).  Every later round warm-starts from the previous
    round's optimal basis (`_next_start`): the dual values stay feasible,
    so the bounded dual simplex only has to repair the new, violated rows.
    """
    R = len(rows)
    n = len(types[0])
    allowed = np.arange(len(types)) != rows[:, None]
    complete = np.count_nonzero(allowed)
    if mode == "auto":
        mode = "full" if complete + R * n <= FULL_ROW_CAP else "lazy"
    if mode == "full":
        working = allowed
    elif mode == "lazy":
        # Binding truthfulness rows overwhelmingly involve nearby reports,
        # so seed the working set with each type's nearest neighbors
        # instead of discovering that chain one round at a time.
        working = _neighbor_pairs(types)[rows]
    else:
        raise LpError(f"unknown mode {mode!r}")
    add_per_round = max(64, 2 * R)
    slack_solves = np.zeros(working.shape, dtype=int)
    previous = np.zeros_like(working)
    log = []
    for rounds in range(1, MAX_ROUNDS + 1):
        k, l = np.nonzero(working)
        lp = build(k, l)
        if rounds == 1:
            start = _no_sale_start(lp, R)
        sol = solve_lp(lp, "revenue LP", start)
        mech, gain = outcome(sol.x)
        log.append(LazyRound(
            added=int(np.count_nonzero(working & ~previous)),
            pruned=int(np.count_nonzero(previous & ~working)),
            max_gain=float(gain.max()),
            trace=sol.trace,
        ))
        viol_mask = gain > GEN_TOL
        if k.size == complete or not viol_mask.any():
            _certify_mechanism(mech)
            return OptimalResult(mech, float(sol.objective), sol, k.size, rounds, mode, log)
        slack_solves = np.where(working & (gain < -PRUNE_SLACK), slack_solves + 1, 0)
        # the most violated pairs first, ties in row-major order
        violated = np.argwhere(viol_mask)
        order = np.argsort(-gain[viol_mask], kind="stable")
        top = violated[order[: add_per_round * 4]]
        new = top[~working[top[:, 0], top[:, 1]]][:add_per_round]
        if not new.size:
            # all violated pairs already in the working set: numerical
            # stall; tighten by failing loudly rather than looping
            raise LpError("constraint generation stalled with persistent violations")
        next_working = working & (slack_solves < 2)
        next_working[new[:, 0], new[:, 1]] = True
        start = _next_start(sol.basis, working, next_working)
        previous, working = working, next_working
        if np.count_nonzero(working) > MAX_WORKING_ROWS:
            raise LpError(f"working set exceeded {MAX_WORKING_ROWS} rows")
    raise LpError(f"constraint generation exceeded {MAX_ROUNDS} rounds")


def _next_start(basis, working, next_working):
    """The next round's start basis from this round's optimal `basis`.

    Structural columns and the always-on rows keep their statuses; they
    lead the basis, and the truthfulness rows follow in row-major order
    of `working`.  A pair in both masks keeps its row's status, a pair
    new in `next_working` starts with its slack basic, and a pruned
    pair's row leaves together with its slack, which is basic because
    the row was strictly slack."""
    row = np.full(working.shape, -1)
    row[working] = np.arange(np.count_nonzero(working))
    head = basis.size - np.count_nonzero(working)
    old = row[next_working]
    tail = np.where(old >= 0, basis[head + old], simplex._BASIC)
    return np.concatenate([basis[:head], tail.astype(np.int8)])


# ---------------------------------------------------------------------------
# relabeling-invariant optimum via one block per sorted representative

def optimal_symmetric_mechanism(types, dist: Distribution) -> OptimalResult:
    """Best truthful mechanism that treats objects interchangeably.

    Variables live on sorted representatives only; every strict profile
    reads its outcome through the relabeling that sorts it, so the search
    space is exactly the symmetric mechanisms and the output (spread by
    `symmetric_extension`) is symmetric under exact float equality.  The
    types must be strict and hold every relabeling of each profile, so
    that the spread covers exactly them; any other list raises LpError
    before the solve.

    The pair mask of `_solve_lazy` has the representatives as rows and
    every profile as a column.  Truthfulness of v against reporting v'
    folds onto the blocks of their representatives: v values sorted slot
    i of the reported outcome at v[cell(v')[i]].  Relabeling both
    profiles leaves that row as it is, so the rows of each representative
    cover every ordered pair, each distinct row once.
    """
    # sorted, as `symmetric_extension` orders the spread: mask column b
    # is then column b of the spread's gain matrix
    types = sorted({tuple(float(x) for x in v) for v in types})
    type_set = set(types)
    for v in types:
        if not is_strict(v):
            raise LpError("symmetric optimization needs strict profiles")
        if not type_set.issuperset(itertools.permutations(v)):
            raise LpError(f"symmetric optimization needs every relabeling of {v}")
    n = len(types[0])
    rows = np.array([b for b, v in enumerate(types) if v == sort_descending(v)])
    reps = [types[b] for b in rows]
    R = len(reps)
    rep_index = {w: a for a, w in enumerate(reps)}
    block = np.array([rep_index[sort_descending(v)] for v in types])
    orbit_weights = np.bincount(block, embed(dist, types), minlength=R)
    cells = np.array([cell_of(v) for v in types])
    rep_values = np.asarray(reps)

    def build(a, b):
        dev = np.take_along_axis(rep_values[a], cells[b], axis=1)
        return _revenue_lp(reps, orbit_weights, HETEROGENEOUS, (a, block[b], dev))

    def outcome(x):
        q, t = x[: R * n].reshape(R, n), x[R * n : R * n + R]
        on_sorted = Mechanism(types=tuple(reps), q=q.copy(), t=t.copy(), domain_tag=IDENTICAL)
        mech = symmetric_extension(on_sorted)
        return mech, ic_gains(mech, rows)

    res = _solve_lazy(types, rows, "auto", build, outcome)
    if not is_symmetric(res.mechanism).passed:
        raise LpError("symmetric optimum failed exact symmetry audit")
    return res


# ---------------------------------------------------------------------------
# taxation-principle completion

def taxation_menu(mech: Mechanism) -> Menu:
    """The mechanism's own outcomes as a menu in `seller_ordered_menu`
    order: a type indifferent between buying and opting out buys, so
    index tie-breaking favors revenue."""
    # mechanism construction tolerates allocations a hair outside the
    # box; menus do not, so clamp here
    items = [
        (tuple(min(max(float(x), 0.0), 1.0) for x in q), float(t)) for q, t in zip(mech.q, mech.t)
    ]
    return seller_ordered_menu(items, mech.n)


def extend_by_menu(mech: Mechanism, target_types) -> Mechanism:
    """Complete a truthful mechanism to a larger type list: original rows
    are kept verbatim; new types pick their favorite item from the
    mechanism's taxation menu.  Gluing preserves truthfulness because
    every assignment is a menu item and every kept type already weakly
    prefers its own item to all others."""
    target_types = [tuple(float(x) for x in v) for v in target_types]
    have = set(mech.types)
    target_set = set(target_types)
    for v in mech.types:
        if v not in target_set:
            raise LpError("target type list must contain the original domain")
    menu = taxation_menu(mech)
    induced = menu_to_mechanism(menu, target_types, mech.domain_tag)
    q = induced.q.copy()
    t = induced.t.copy()
    for k, v in enumerate(target_types):
        if v in have:
            kk = mech.index_of(v)
            q[k] = mech.q[kk]
            t[k] = mech.t[kk]
    return Mechanism(types=tuple(target_types), q=q, t=t, domain_tag=mech.domain_tag)


# ---------------------------------------------------------------------------
# posted per-unit pricing and adversarial correlation

def optimal_uniform_price(g_avg: MarginalCdf, n: int):
    """Best posted per-unit price against the average marginal.

    Revenue of price p is n * p * (mass at or above p); the argmax runs
    over the marginal's levels, ties broken toward the lower price.
    """
    best_p, best_rev = None, -1.0
    for p in g_avg.levels:
        rev = n * p * g_avg.mass_at_or_above(p)
        if rev > best_rev + 1e-15:
            best_p, best_rev = p, rev
    return float(best_p), float(best_rev)


def uniform_price_mechanism(types, price: float, domain_tag: str = IDENTICAL) -> Mechanism:
    """Sell every unit at one price: the buyer takes all units valued at
    or above it (indifference at the margin resolves toward buying) and
    pays the price times the unit count.

    Built directly from that definition rather than as a bundle menu: a
    per-unit price cannot be encoded exactly in per-bundle float prices
    (fl(k * p) drifts from k * p), which would let rounding starve the
    marginal units.  Unit-by-unit this is a posted price, so truthful and
    participating up to one float rounding of each payment."""
    types = [tuple(float(x) for x in v) for v in types]
    price = float(price)
    n = len(types[0])
    q = np.zeros((len(types), n))
    t = np.zeros(len(types))
    for k, v in enumerate(types):
        take = [x >= price for x in v]
        q[k] = np.asarray(take, dtype=float)
        t[k] = price * sum(take)
    return Mechanism(types=tuple(types), q=q, t=t, domain_tag=domain_tag)


def worst_case_revenue(mech: Mechanism, g_avg: MarginalCdf, sense: str = "min"):
    """Optimize expected payment over all distributions on the
    mechanism's types whose average marginal matches g_avg.

    Returns (value, argmin distribution, certified SimplexResult).
    sense="max" gives the other end of the range; a payment functional
    that is constant across the polytope has both ends equal.
    """
    if sense not in ("min", "max"):
        raise LpError(f"bad sense {sense!r}")
    types = mech.types
    T = len(types)
    n = mech.n
    levels = sorted({x for v in types for x in v} | set(g_avg.levels))
    pmf = dict(zip(g_avg.levels, g_avg.pmf().tolist()))
    lp = LinearProgram()
    for k, t in enumerate(mech.t.tolist()):
        lp.add_var(f"w_{k}", 0.0, 1.0, obj=-t if sense == "min" else t)
    # the weights sum to 1, and avg_i gives each type the share of its n
    # values that equal level i
    counts = (np.asarray(levels)[:, None, None] == np.asarray(types, dtype=float)).sum(axis=2)
    lp.add_rows([np.arange(T)], 1.0, "=", 1.0, "total")
    rhs = [pmf.get(lv, 0.0) for lv in levels]
    lp.add_rows([np.arange(T)], counts / n, "=", rhs, "avg", np.arange(len(levels)), keep=counts > 0)
    sol = solve_lp(lp, "adversarial LP")
    value = -sol.objective if sense == "min" else sol.objective
    w = np.maximum(sol.x, 0.0)
    w = w / w.sum()
    dist = table_distribution(types, w, mech.domain_tag)
    return float(value), dist, sol


# ---------------------------------------------------------------------------
# exhaustive deterministic search

@dataclass
class DeterministicResult:
    mechanism: Mechanism
    revenue: float
    menu: Menu
    n_menus_searched: int
    optimal_menus: list


def _deterministic_allocations(n: int, domain_tag: str):
    if domain_tag == IDENTICAL:
        return [
            tuple(1.0 if i < k else 0.0 for i in range(n)) for k in range(1, n + 1)
        ]
    out = []
    for bits in itertools.product((0.0, 1.0), repeat=n):
        if any(bits):
            out.append(bits)
    return out


def optimal_deterministic(types, dist: Distribution, domain_tag: str) -> DeterministicResult:
    """Exhaustive search over deterministic menus.

    Allocations are 0/1 bundles (sorted prefixes on the identical
    domain); candidate prices are the finitely many type-bundle values
    {v.a}.  Menus assign each bundle a candidate price or omit it; item
    lists are ordered by descending price so the induced lowest-index
    tie-breaking resolves buyer indifference toward the seller, which is
    itself truthful and loses no revenue.

    One pass over the menus finds the best and collects `optimal_menus`,
    every menu within 1e-12 of the best revenue, in enumeration order.
    """
    types = [tuple(float(x) for x in v) for v in types]
    weights = embed(dist, types)
    n = len(types[0])
    allocs = _deterministic_allocations(n, domain_tag)
    V = np.asarray(types)
    A = np.asarray(allocs)
    vals = pairwise_value(V, A)
    prices = sorted({float(x) for x in vals.ravel() if x > 0.0})
    K = len(allocs)
    n_menus = (len(prices) + 1) ** K
    if n_menus > MAX_MENUS:
        raise LpError(
            f"instance too large for exhaustive search: {n_menus} menus > {MAX_MENUS}"
        )

    choices = [None] + prices
    wvec = np.asarray(weights)

    def assign_to_menu(assign):
        items = [(allocs[a], choices[c]) for a, c in enumerate(assign) if c != 0]
        return seller_ordered_menu(items, n)

    def menu_revenue(assign) -> float:
        menu = assign_to_menu(assign)
        prices_arr = np.asarray([p for _, p in menu.items])
        choice = menu_choice_indices(
            V, np.asarray([a for a, _ in menu.items]), prices_arr
        )
        t = prices_arr[choice]
        return float(wvec @ t)

    best_rev = -np.inf
    best_assign = None
    # (assign, revenue) of every menu so far within 1e-12 of the running
    # best, in enumeration order; the best only rises, so a menu that
    # falls behind it stays behind, and at the end this is every optimum
    near = []
    for assign in itertools.product(range(len(choices)), repeat=K):
        rev = menu_revenue(assign)
        if rev > best_rev + 1e-12:
            best_rev = rev
            best_assign = assign
            near = [(a, r) for a, r in near if r >= best_rev - 1e-12]
        if rev >= best_rev - 1e-12:
            near.append((assign, rev))

    menu = assign_to_menu(best_assign)
    return DeterministicResult(
        mechanism=menu_to_mechanism(menu, types, domain_tag),
        revenue=best_rev,
        menu=menu,
        n_menus_searched=n_menus,
        optimal_menus=[assign_to_menu(a) for a, _ in near],
    )


# ---------------------------------------------------------------------------
# cross-domain equivalence certificate

def certify_equivalence(
    identical_model, heterogeneous_model, tol: float = 1e-7
) -> AuditReport:
    """End-to-end check that optimizing on sorted profiles with the folded
    density and optimizing symmetrically on all strict profiles agree.

    Each model is (types, dist).  Asserted facts: folded density matches
    the identical model; optimal values agree within tol; the spread of
    the identical optimum is truthful on the bigger domain and earns the
    same; the identity-cell restriction of the symmetric optimum is
    feasible, truthful, and earns the same.
    """
    types_i, dist_i = identical_model
    types_h, dist_h = heterogeneous_model
    types_i = [tuple(float(x) for x in v) for v in types_i]
    types_h = [tuple(float(x) for x in v) for v in types_h]

    folded = to_identical_density(dist_h)
    for v in set(types_i) | set(folded.types):
        if abs(folded.weight_of(v) - dist_i.weight_of(v)) > 1e-9:
            raise LpError(
                f"identical model density does not match folded heterogeneous density at {v}"
            )

    violations = []
    res_i = optimal_mechanism(types_i, dist_i, IDENTICAL)
    res_h = optimal_symmetric_mechanism(types_h, dist_h)
    gap = abs(res_i.revenue - res_h.revenue)
    if gap > tol:
        violations.append((("optimal_values", res_i.revenue, res_h.revenue), gap))

    ext = symmetric_extension(res_i.mechanism)
    ext_ic = check_ic(ext, tol=AUDIT_TOL)
    ext_ir = check_ir(ext, tol=AUDIT_TOL)
    if not ext_ic.passed:
        violations.append((("extension_ic",), ext_ic.max_slack))
    if not ext_ir.passed:
        violations.append((("extension_ir",), ext_ir.max_slack))
    rev_ext = expected_revenue(ext, dist_h)
    if abs(rev_ext - res_i.revenue) > tol:
        violations.append((("extension_revenue", rev_ext), abs(rev_ext - res_i.revenue)))

    restr = restrict_to_cell(res_h.mechanism, identity_permutation(res_h.mechanism.n))
    r_feas = check_feasible_identical(restr, tol=AUDIT_TOL)
    r_ic = check_ic(restr, tol=AUDIT_TOL)
    r_ir = check_ir(restr, tol=AUDIT_TOL)
    for name, rep in (("restriction_order", r_feas), ("restriction_ic", r_ic), ("restriction_ir", r_ir)):
        if not rep.passed:
            violations.append(((name,), rep.max_slack))
    rev_restr = expected_revenue(restr, dist_i)
    if abs(rev_restr - res_h.revenue) > tol:
        violations.append((("restriction_revenue", rev_restr), abs(rev_restr - res_h.revenue)))

    info = {
        "revenue_identical": res_i.revenue,
        "revenue_symmetric": res_h.revenue,
        "revenue_extension": rev_ext,
        "revenue_restriction": rev_restr,
        "identical_rounds": res_i.rounds,
        "identical_mode": res_i.mode,
        "symmetric_rounds": res_h.rounds,
        "symmetric_mode": res_h.mode,
    }
    return _report("equivalence", violations, info=info)
