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

`solve_lp` alone decides whether an optimum is trusted: it checks each
one by `certificate`, weak duality on the LP's own arrays, against
RESIDUAL_TOL and GAP_TOL; the solver computes no certificate.

The module also covers: relabeling-invariant optimization
(`optimal_symmetric_mechanism`, the identical LP under the folded
prior, spread over every relabeling) and `lifted_bound`, which bounds
the full heterogeneous LP by that LP's duals, the two together making
the cross-domain equivalence certificate; adversarial (worst-case over
correlations) revenue LPs, posted per-unit pricing, and exhaustive
deterministic-menu search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
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
from .symmetry import _relabel_table, is_symmetric, symmetric_extension
from .typespace import HETEROGENEOUS, IDENTICAL, is_strict, sort_descending

AUDIT_TOL = 1e-8
RESIDUAL_TOL = 1e-9
GAP_TOL = 1e-7
DUAL_ZERO_TOL = 1e-11
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
    and the certificate drop them.  `arrays` joins the blocks into the
    one form of the whole LP that the solver and the certificate see.
    `dense`, `labels` and `rows` are views for the tests and bench/; no
    solve calls them."""

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
    def labels(self) -> list[str]:
        return [label for b in self.blocks for label in b.labels()]

    @property
    def rows(self) -> list[tuple[dict, str, float, str]]:
        """A fresh list of (coeffs, sense, rhs, label), coeffs a {column:
        value} dict in column order."""
        _, A, b, senses, _, _ = self.arrays()
        coeffs = [{} for _ in range(self.n_rows)]
        for r, j, c in zip(A.row.tolist(), A.col.tolist(), A.val.tolist()):
            coeffs[r][j] = c
        return list(zip(coeffs, senses, b.tolist(), self.labels))

    def dense(self):
        _, A, b, senses, _, _ = self.arrays()
        D = np.zeros(A.shape)
        D[A.row, A.col] = A.val
        return D, b, senses

    def arrays(self) -> tuple:
        """(c, A, b, senses, lower, upper): the LP as the arguments of
        `simplex.solve_simplex`, joined from the blocks on each call.  A is
        the `Coo` of every entry, sorted by row, then column, with at most
        one per (row, column), and senses a list of one sense per row."""
        bs = self.blocks
        rows = [np.repeat(np.arange(b.start, b.stop), np.diff(b.ptr)) for b in bs]
        row = np.concatenate([np.zeros(0, np.intp)] + rows)
        col = np.concatenate([np.zeros(0, np.intp)] + [b.col for b in bs])
        val = np.concatenate([np.zeros(0)] + [b.val for b in bs])
        rhs = np.concatenate([np.zeros(0)] + [b.rhs for b in bs])
        senses = [b.sense for b in bs for _ in range(b.rhs.size)]
        A = simplex.Coo(row, col, val, (self.n_rows, self.n_vars))
        return (np.asarray(self.objective), A, rhs, senses,
                np.asarray(self.lower), np.asarray(self.upper))


def certificate(lp: tuple, x, y) -> tuple[float, float, float]:
    """Weak duality for a point x and row duals y, both arrays, on an LP
    given as its `LinearProgram.arrays` and read from those alone, never
    from a solver's state: (U(y), |c.x - U(y)|, the largest violation of
    a row or a bound by x).  y has one dual per row, for the row's '<=' form (a
    '>=' row negated), as `SimplexResult.y` has; a negative dual of an
    inequality row counts as 0, so U(y) bounds the optimum for any y:

        U(y) = b.y + sum_j max over [lower_j, upper_j] of d_j x_j,  d = c - A^T y.

    A row's own slack adds nothing: its cost -y_i is at most 0 on its
    range [0, inf), or 0 on an equality row.  The arithmetic is the
    solver's, on its internal form (minimize -c.x, '>=' rows negated):
    zero entries dropped, each product with A summed in the order of the
    triplets, |d_j| <= DUAL_ZERO_TOL taken as 0, and the terms of U(y)
    added to b.y one at a time in column order."""
    c, A, b, senses, lower, upper = lp
    senses = np.asarray(senses)
    sign, is_eq = np.where(senses == ">=", -1.0, 1.0), senses == "="
    nz = A.val != 0.0
    row, col = A.row[nz], A.col[nz]
    a, b, c_min = A.val[nz] * sign[row], b * sign, -c
    y_min = np.where(~is_eq & (y < 0.0), 0.0, -y)
    d = c_min - np.bincount(col, weights=a * y_min[row], minlength=c_min.size)
    used = np.abs(d) > DUAL_ZERO_TOL
    terms = d[used] * np.where(d[used] > 0.0, lower[used], upper[used])
    zd = np.add.accumulate(np.concatenate([[y_min @ b], terms]))[-1]
    gap = abs(float(c_min @ x) - zd) if np.isfinite(zd) else np.inf
    res = np.bincount(row, weights=a * x[col], minlength=b.size) - b
    res = np.where(is_eq, np.abs(res), res)
    residual = max(0.0, *(float(np.max(r, initial=0.0)) for r in (res, lower - x, x - upper)))
    return -float(zd), float(gap), residual


def solve_lp(lp: LinearProgram, what: str = "LP", start=None) -> simplex.SimplexResult:
    """Solve and certify: the one place that decides whether an LP optimum
    is trusted.  Returns the OPTIMAL result with `duality_gap` and
    `max_infeasibility` filled from `certificate` on `lp.arrays()`, a
    residual of at most RESIDUAL_TOL and a gap of at most GAP_TOL *
    max(1, |objective|); a NaN in either fails.  An infeasible LP raises
    InfeasibleError naming `what`, and a solver breakdown or a failed
    certificate raises LpError, so no caller ever holds an untrusted
    optimum.  Every variable needs two finite bounds, or the solver
    raises ValueError.  `start` is passed to the solver as the basis to
    start from; None starts from the slack basis."""
    arrays = lp.arrays()
    try:
        res = simplex.solve_simplex(*arrays, start=start)
    except simplex.SimplexError as exc:
        raise LpError(f"{what} failed: {exc}") from exc
    if res.status == simplex.INFEASIBLE:
        raise InfeasibleError(f"{what} infeasible")
    _, res.duality_gap, res.max_infeasibility = certificate(arrays, res.x, res.y)
    if not res.max_infeasibility <= RESIDUAL_TOL:
        fault = f"solution residual {res.max_infeasibility} exceeds {RESIDUAL_TOL}"
    elif not res.duality_gap <= GAP_TOL * max(1.0, abs(res.objective)):
        fault = f"duality gap {res.duality_gap} exceeds {GAP_TOL}"
    else:
        return res
    t = res.trace
    raise LpError(
        f"{what} failed: {fault} (certificate, iteration {res.iterations}, "
        f"refactors {t.refactors}, smallest pivot ratio {t.min_pivot_ratio:.3g})"
    )


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
    """`solution` is the last solve and `pairs` the (k, l) arrays of its
    truthfulness rows ic_k_l, in row order; `round_log` holds one record
    per solve, in order."""

    mechanism: Mechanism
    revenue: float
    solution: simplex.SimplexResult
    pairs: tuple[np.ndarray, np.ndarray]
    rounds: int
    mode: str
    round_log: list[LazyRound]

    @property
    def n_ic_rows(self) -> int:
        return int(self.pairs[0].size)


def _revenue_lp(types, weights, domain_tag, pairs) -> LinearProgram:
    """The revenue LP: participation rows ir_k, allocation order ord_k_i
    on the identical domain, then truthfulness rows ic_k_l for the pairs
    (k, l) of `pairs`, k != l, each reading
    v_k.q(l) - t(l) - v_k.q(k) + t(k) <= 0 with v_k = types[k].
    Column k * n + i is q_i of type k, column T * n + k its payment t(k)."""
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
    k, l = (np.asarray(x, dtype=np.intp) for x in pairs)
    col, val = _truthfulness_rows(T, values, k, l)
    lp.add_rows(col, val, "<=", 0.0, "ic", k, l)
    return lp


def _truthfulness_rows(T, values, k, l):
    """`col` and `val` of the truthfulness rows of `_revenue_lp`, each
    row's columns in increasing order: the q block of min(k, l), that of
    max(k, l), then their payments.  A function of its own, so that its
    temporaries are freed before `add_rows` runs."""
    n = values.shape[1]
    v = values[k]
    # 0.0 - v, not -v: the q(k) entry is +0.0 where v_k is 0
    own = 0.0 - v
    own_first = (k < l)[:, None]
    lo, hi = np.minimum(k, l)[:, None], np.maximum(k, l)[:, None]
    col = np.hstack([lo * n + np.arange(n), hi * n + np.arange(n), T * n + lo, T * n + hi])
    val = np.hstack([
        np.where(own_first, own, v), np.where(own_first, v, own),
        np.where(own_first, [1.0, -1.0], [-1.0, 1.0]),
    ])
    return col, val


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
    return Mechanism(types=tuple(types), q=q, t=t, domain_tag=domain_tag)


def build_revenue_lp(types, dist: Distribution, domain_tag: str) -> LinearProgram:
    """Full formulation with every ordered truthfulness pair, for text
    export."""
    types = [tuple(v) for v in types]
    pairs = np.nonzero(~np.eye(len(types), dtype=bool))
    return _revenue_lp(types, embed(dist, types), domain_tag, pairs)


def optimal_mechanism(
    types,
    dist: Distribution,
    domain_tag: str,
    mode: str = "auto",
) -> OptimalResult:
    """Revenue-maximal truthful mechanism on the given type list, by
    constraint generation on truthfulness rows over a type-by-type pair
    mask: entry (k, l) set means the row of type k against reporting
    type l is in the working set.

    The modes differ only in the starting working set: "full" starts from
    every pair, a complete set that is solved once, "lazy" from each
    type's nearest-neighbor pairs (`_neighbor_pairs`); "auto" picks by
    instance size.  Working-set policy: add the most violated pairs each
    round (up to 2 per type), drop rows that have been slack for two
    consecutive solves (a row added in the previous round has been
    through one solve only, so it stays).  Rows are built in row-major
    order of the mask.  Terminates when the gain matrix shows no
    violation beyond GEN_TOL, or at once when the working set is
    complete: then the solve is the full LP and there is nothing left to
    add.  The returned mechanism always passes the full truthfulness and
    participation audits at 1e-8 regardless of mode; failure to certify
    raises.

    The first round starts phase 2 at the no-sale vertex
    (`_no_sale_start`).  Every later round warm-starts from the previous
    round's optimal basis (`_next_start`): the dual values stay feasible,
    so the bounded dual simplex only has to repair the new, violated rows.
    """
    types = [tuple(float(x) for x in v) for v in types]
    T, n = len(types), len(types[0])
    weights = embed(dist, types)
    complete = T * (T - 1)
    if mode == "auto":
        mode = "full" if complete + T * n <= FULL_ROW_CAP else "lazy"
    if mode == "full":
        working = ~np.eye(T, dtype=bool)
    elif mode == "lazy":
        # Binding truthfulness rows overwhelmingly involve nearby reports,
        # so seed the working set with each type's nearest neighbors
        # instead of discovering that chain one round at a time.
        working = _neighbor_pairs(types)
    else:
        raise LpError(f"unknown mode {mode!r}")
    add_per_round = max(64, 2 * T)
    slack_solves = np.zeros(working.shape, dtype=int)
    previous = np.zeros_like(working)
    log = []
    for rounds in range(1, MAX_ROUNDS + 1):
        k, l = np.nonzero(working)
        lp = _revenue_lp(types, weights, domain_tag, (k, l))
        if rounds == 1:
            start = _no_sale_start(lp, T)
        sol = solve_lp(lp, "revenue LP", start)
        mech = _extract_mechanism(types, n, sol.x, domain_tag)
        gain = ic_gains(mech)
        log.append(LazyRound(
            added=int(np.count_nonzero(working & ~previous)),
            pruned=int(np.count_nonzero(previous & ~working)),
            max_gain=float(gain.max()),
            trace=sol.trace,
        ))
        viol_mask = gain > GEN_TOL
        if k.size == complete or not viol_mask.any():
            _certify_mechanism(mech)
            return OptimalResult(mech, float(sol.objective), sol, (k, l), rounds, mode, log)
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
# relabeling-invariant optimum: the identical LP under the folded prior

def optimal_symmetric_mechanism(types, dist: Distribution) -> OptimalResult:
    """Best truthful mechanism that treats objects interchangeably.

    A symmetric mechanism is its table on the sorted representatives,
    spread over every relabeling, and earns each representative's orbit
    mass.  It is truthful exactly when that table is truthful among the
    representatives and ranks allocations as values are ranked (the
    paper's Theorem 1), which are the rows of the identical LP.  So the
    optimum is that of `optimal_mechanism` on the representatives under
    the folded prior, spread by `symmetric_extension`: exactly symmetric,
    and audited over every ordered pair of profiles.  The types must be
    strict and hold every relabeling of each profile, so that the spread
    covers exactly them; any other list raises LpError before the solve.
    Returns the identical LP's result with the spread as its mechanism.
    """
    types = sorted({tuple(float(x) for x in v) for v in types})
    type_set = set(types)
    for v in types:
        if not is_strict(v):
            raise LpError("symmetric optimization needs strict profiles")
        if not type_set.issuperset(itertools.permutations(v)):
            raise LpError(f"symmetric optimization needs all relabelings of {v}")
    reps = [v for v in types if v == sort_descending(v)]
    rep_index = {w: a for a, w in enumerate(reps)}
    block = [rep_index[sort_descending(v)] for v in types]
    folded = np.bincount(block, embed(dist, types), minlength=len(reps))
    res = optimal_mechanism(reps, table_distribution(reps, folded, IDENTICAL), IDENTICAL)
    spread = symmetric_extension(res.mechanism)
    _certify_mechanism(spread)
    if not is_symmetric(spread).passed:
        raise LpError("symmetric optimum failed exact symmetry audit")
    return replace(res, mechanism=spread)


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
    if not have <= set(target_types):
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
        return [tuple(1.0 if i < k else 0.0 for i in range(n)) for k in range(1, n + 1)]
    return [bits for bits in itertools.product((0.0, 1.0), repeat=n) if any(bits)]


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
    """End-to-end check of the paper's equivalence: the optimal revenue V
    of the identical model is the optimal revenue of the heterogeneous
    model over every truthful mechanism, symmetric or not.

    Each model is (types, dist).  After the folded density is checked to
    match the identical model, one LP is solved, the identical one, by
    `optimal_symmetric_mechanism` on the heterogeneous model, whose
    spread is truthful on every ordered pair of profiles or raises
    LpError.  Asserted facts: the spread earns V under the heterogeneous
    prior, a lower bound; and `lifted_bound` bounds the full
    heterogeneous LP by U within tol of V.  The identical types must be
    exactly the spread's sorted profiles, or LpError is raised.
    """
    types_i, dist_i = identical_model
    types_h, dist_h = heterogeneous_model
    types_i = {tuple(float(x) for x in v) for v in types_i}

    folded = to_identical_density(dist_h)
    for v in types_i | set(folded.types):
        if abs(folded.weight_of(v) - dist_i.weight_of(v)) > 1e-9:
            raise LpError(
                f"identical model density does not match folded heterogeneous density at {v}"
            )

    res = optimal_symmetric_mechanism(types_h, dist_h)
    if types_i != {sort_descending(v) for v in res.mechanism.types}:
        raise LpError("identical types are not the sorted heterogeneous types")
    violations = []
    rev_ext = expected_revenue(res.mechanism, dist_h)
    if abs(rev_ext - res.revenue) > tol:
        violations.append((("extension_revenue", rev_ext), abs(rev_ext - res.revenue)))
    bound, lifted = lifted_bound(res, dist_h)
    if bound - res.revenue > tol:
        violations.append((("lifted_bound", bound), bound - res.revenue))

    info = {
        "revenue_identical": res.revenue,
        "revenue_symmetric": rev_ext,
        "revenue_bound": bound,
        "lifted_rows": lifted,
        "identical_rounds": res.rounds,
        "identical_mode": res.mode,
    }
    return _report("equivalence", violations, info=info)


def lifted_bound(res: OptimalResult, dist: Distribution) -> tuple[float, int]:
    """U(y) of `certificate` on the full heterogeneous revenue LP over the
    profiles of the spread `res.mechanism` of an
    `optimal_symmetric_mechanism` result `res`, and the number of its
    truthfulness rows built.  The spread's strictly decreasing profiles,
    in order, are the identical LP's types w_k; any other mechanism
    raises LpError.

    y lifts the row duals of res's last solve to every relabeling sigma,
    each with weight 1/n!: ir_k to the ir row of sigma.w_k, ic_k_l to the
    ic row of (sigma.w_k, sigma.w_l), and ord_k_i to the ic row of
    (sigma.w_k, sigma.s_i.w_k), s_i swapping values i and i + 1, scaled
    by 1 / (w_k,i - w_k,i+1): at a symmetric point that row is ord_k_i
    times that gap.  Only the ic rows of positive duals are built, which
    only relaxes the LP.  U(y) bounds its optimum for any y >= 0, so the
    bound does not trust the solver that found y."""
    spread = res.mechanism
    types, V = spread.types, spread.V
    reps = V[np.all(V[:, :-1] > V[:, 1:], axis=1)]
    R, n = reps.shape
    table = _relabel_table(reps, spread._index)
    if spread.domain_tag != HETEROGENEOUS or (table < 0).any() or table.size != len(types):
        raise LpError("lifted bound needs the spread of an identical optimum over every relabeling")
    y = res.solution.y
    y_ir, y_ord, y_ic = y[:R], y[R : R * n].reshape(R, n - 1), y[R * n :]
    on = y_ic > 0.0
    k, i = np.nonzero(y_ord > 0.0)
    r = np.arange(k.size)
    swapped = reps[k]
    swapped[r, i], swapped[r, i + 1] = reps[k, i + 1], reps[k, i]
    a = np.concatenate([table[res.pairs[0][on]], table[k]]).ravel()
    b = np.concatenate([table[res.pairs[1][on]], _relabel_table(swapped, spread._index)]).ravel()
    duals = np.concatenate([y_ic[on], y_ord[k, i] / (reps[k, i] - reps[k, i + 1])])
    block = np.empty(len(types), dtype=np.intp)
    block[table] = np.arange(R)[:, None]
    y_lift = np.concatenate([y_ir[block], np.repeat(duals, table.shape[1])]) / table.shape[1]
    lp = _revenue_lp(types, embed(dist, types), HETEROGENEOUS, (a, b))
    x = np.concatenate([spread.q.ravel(), spread.t])
    return certificate(lp.arrays(), x, y_lift)[0], a.size
