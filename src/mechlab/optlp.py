"""Revenue optimization as linear programming over mechanism tables.

Variables are the allocation entries q_i(v) in [0,1] and the payments
t(v); the objective is expected revenue; constraints are truthfulness for
every ordered type pair, participation for every type, and the sorted
allocation order on the identical domain.  Payments carry the a priori
box |t| <= max total surplus + 1, which cuts no optimal solution (any
optimum can be shifted so its lowest utility is zero, after which
payments lie in [0, max surplus]).

Row counts grow quadratically in the type count, so `optimal_mechanism`
switches to lazy constraint generation past a size threshold: solve with
a working set of truthfulness rows, add the worst violated pairs, prune
rows that stay slack, repeat until no violation remains.  Every returned
solution is re-audited against the *full* pairwise constraint set; the
working set is an implementation detail, never a weaker guarantee.

The module also covers: relabeling-invariant optimization via one
variable block per sorted representative, adversarial (worst-case over
correlations) revenue LPs, posted per-unit pricing, exhaustive
deterministic-menu search, and a cross-domain equivalence certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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


class LpError(RuntimeError):
    """LP construction or certification failure."""


class InfeasibleError(LpError):
    """The constraint system admits no solution."""


class UnboundedError(LpError):
    """The objective is unbounded over the feasible set."""


@dataclass
class LinearProgram:
    """Named-variable LP, maximize objective . x."""

    names: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    rows: list[tuple[dict, str, float, str]] = field(default_factory=list)

    def add_var(self, name: str, lo: float, up: float, obj: float = 0.0) -> int:
        self.names.append(name)
        self.lower.append(float(lo))
        self.upper.append(float(up))
        self.objective.append(float(obj))
        return len(self.names) - 1

    def add_row(self, coeffs: dict, sense: str, rhs: float, label: str = "") -> None:
        if sense not in ("<=", ">=", "="):
            raise LpError(f"bad sense {sense!r}")
        self.rows.append((dict(coeffs), sense, float(rhs), label))

    @property
    def n_vars(self) -> int:
        return len(self.names)

    def dense(self):
        A = np.zeros((len(self.rows), self.n_vars))
        b = np.zeros(len(self.rows))
        senses = []
        for r, (coeffs, sense, rhs, _) in enumerate(self.rows):
            for j, c in coeffs.items():
                A[r, j] = c
            b[r] = rhs
            senses.append(sense)
        return A, b, senses


def solve_lp(lp: LinearProgram, what: str = "LP", start=None) -> simplex.SimplexResult:
    """Solve and certify.  Returns the OPTIMAL result that passed
    `simplex.certify`; an infeasible or unbounded LP raises
    InfeasibleError or UnboundedError naming `what`, and a solver
    breakdown or a failed certificate raises LpError, so no caller ever
    holds an untrusted optimum.  `start` is passed to the solver as the
    basis to warm-start from."""
    A, b, senses = lp.dense()
    try:
        res = simplex.certify(
            simplex.solve_simplex(
                c=np.asarray(lp.objective),
                A=A,
                b=b,
                senses=senses,
                lower=np.asarray(lp.lower),
                upper=np.asarray(lp.upper),
                maximize=True,
                start=start,
            )
        )
    except simplex.SimplexError as exc:
        raise LpError(f"simplex failed: {exc}") from exc
    if res.status == simplex.INFEASIBLE:
        raise InfeasibleError(f"{what} infeasible")
    if res.status == simplex.UNBOUNDED:
        raise UnboundedError(f"{what} unbounded")
    return res


def export_lp_text(lp: LinearProgram, comment: str = "") -> str:
    """Serialize in the standard LP text format (CPLEX dialect)."""

    def fmt(x: float) -> str:
        return repr(float(x))

    def linear(coeffs: dict) -> str:
        parts = []
        for j in sorted(coeffs):
            c = coeffs[j]
            if c == 0.0:
                continue
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {fmt(abs(c))} {lp.names[j]}")
        if not parts:
            return "0 " + (lp.names[0] if lp.names else "x0")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text

    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"\\ {ln}")
    lines.append("Maximize")
    obj = {j: c for j, c in enumerate(lp.objective) if c != 0.0}
    lines.append(" obj: " + linear(obj))
    lines.append("Subject To")
    for r, (coeffs, sense, rhs, label) in enumerate(lp.rows):
        name = label or f"r{r}"
        op = {"<=": "<=", ">=": ">=", "=": "="}[sense]
        lines.append(f" {name}: {linear(coeffs)} {op} {fmt(rhs)}")
    lines.append("Bounds")
    for j, name in enumerate(lp.names):
        lo, up = lp.lower[j], lp.upper[j]
        lo_s = "-inf" if not math.isfinite(lo) else fmt(lo)
        up_s = "+inf" if not math.isfinite(up) else fmt(up)
        lines.append(f" {lo_s} <= {name} <= {up_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# revenue LP over mechanism tables

@dataclass
class OptimalResult:
    mechanism: Mechanism
    revenue: float
    solution: simplex.SimplexResult
    n_ic_rows: int
    rounds: int
    mode: str


def _base_lp(types, weights, domain_tag):
    """Variables and always-on rows (participation, allocation order)."""
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
    for k, v in enumerate(types):
        coeffs = {qvar(k, i): -float(v[i]) for i in range(n)}
        coeffs[tvar(k)] = 1.0
        lp.add_row(coeffs, "<=", 0.0, f"ir_{k}")
    if domain_tag == IDENTICAL:
        for k in range(T):
            for i in range(n - 1):
                lp.add_row(
                    {qvar(k, i + 1): 1.0, qvar(k, i): -1.0}, "<=", 0.0, f"ord_{k}_{i}"
                )
    return lp, qvar, tvar


def _ic_row(qvar, tvar, k, l, own, dev):
    """Truthfulness of block k against taking block l's outcome:
    dev.q(l) - t(l) - own.q(k) + t(k) <= 0.

    own values block k's allocation; dev values block l's allocation as
    the deviator sees it (own itself, except in the orbit LP).  k == l
    only happens in the orbit LP, where the payments cancel."""
    coeffs = {}
    for i in range(len(own)):
        coeffs[qvar(l, i)] = float(dev[i])
        coeffs[qvar(k, i)] = coeffs.get(qvar(k, i), 0.0) - float(own[i])
    coeffs[tvar(l)] = -1.0
    coeffs[tvar(k)] = 1.0 if k != l else 0.0
    return coeffs


def _revenue_lp(types, weights, domain_tag, pairs) -> LinearProgram:
    """`_base_lp` plus one truthfulness row per (k, l, dev) in `pairs`,
    in order.  `pairs` may be a generator, so the full formulation never
    holds its pair list in memory."""
    lp, qvar, tvar = _base_lp(types, weights, domain_tag)
    for k, l, dev in pairs:
        lp.add_row(_ic_row(qvar, tvar, k, l, types[k], dev), "<=", 0.0, f"ic_{k}_{l}")
    return lp


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
    pairs = ((k, l, types[k]) for k, l in itertools.permutations(range(len(types)), 2))
    return _revenue_lp(types, embed(dist, types), domain_tag, pairs)


def optimal_mechanism(
    types,
    dist: Distribution,
    domain_tag: str,
    mode: str = "auto",
) -> OptimalResult:
    """Revenue-maximal truthful mechanism on the given type list.

    Both modes run the same constraint-generation loop and differ only in
    its starting working set: "full" starts from every ordered
    truthfulness pair, a complete set that is solved once, "lazy" from
    nearest-neighbor pairs; "auto" picks by instance size.  The returned
    mechanism always passes the full truthfulness and participation
    audits at 1e-8 regardless of mode; failure to certify raises.
    """
    types = [tuple(float(x) for x in v) for v in types]
    T = len(types)
    n = len(types[0])
    weights = embed(dist, types)
    if mode == "auto":
        mode = "full" if T * (T - 1) + T * n <= FULL_ROW_CAP else "lazy"
    if mode == "full":
        seed = ~np.eye(T, dtype=bool)
    elif mode == "lazy":
        # Binding truthfulness rows overwhelmingly involve nearby reports,
        # so seed the working set with each type's nearest neighbors
        # instead of discovering that chain one round at a time.
        seed = _neighbor_pairs(types)
    else:
        raise LpError(f"unknown mode {mode!r}")
    mech, sol, n_ic, rounds = _solve_lazy(types, weights, domain_tag, seed)
    _certify_mechanism(mech, domain_tag)
    return OptimalResult(
        mechanism=mech,
        revenue=float(sol.objective),
        solution=sol,
        n_ic_rows=n_ic,
        rounds=rounds,
        mode=mode,
    )


def _certify_mechanism(mech: Mechanism, domain_tag: str) -> None:
    rep_ic = check_ic(mech, tol=AUDIT_TOL)
    if not rep_ic.passed:
        raise LpError(f"optimal mechanism failed truthfulness audit: {rep_ic.max_slack}")
    rep_ir = check_ir(mech, tol=AUDIT_TOL)
    if not rep_ir.passed:
        raise LpError(f"optimal mechanism failed participation audit: {rep_ir.max_slack}")
    if domain_tag == IDENTICAL:
        rep_f = check_feasible_identical(mech, tol=AUDIT_TOL)
        if not rep_f.passed:
            raise LpError(f"optimal mechanism failed allocation order: {rep_f.max_slack}")


def _neighbor_pairs(types, per_type: int = 4) -> np.ndarray:
    """T x T mask of the deviation pairs between each type and its
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


def _solve_lazy(types, weights, domain_tag, seed):
    """Constraint generation on truthfulness rows, starting from the
    T x T pair mask `seed`: entry (k, l) set means the row of type k
    against reporting type l is in the working set.

    Working-set policy: add the most violated pairs each round (up to
    2T), drop rows that have been slack for two consecutive solves (a row
    added in the previous round has been through one solve only, so it
    stays).  Rows are built in row-major order of the mask.  Terminates
    when the full gain matrix shows no violation beyond GEN_TOL, or at
    once when the working set is complete (all T(T-1) pairs): then the
    solve is the full LP and there is nothing left to add.

    The first round solves cold.  Every later round warm-starts from the
    previous round's optimal basis (`_next_start`): the dual values stay
    feasible, so the bounded dual simplex only has to repair the new,
    violated rows.
    """
    T = len(types)
    n = len(types[0])
    add_per_round = max(64, 2 * T)
    working = seed
    start = None
    slack_solves = np.zeros((T, T), dtype=int)
    for rounds in range(1, MAX_ROUNDS + 1):
        # Python ints, not numpy scalars, keep the row builder fast
        pairs = np.argwhere(working).tolist()
        lp = _revenue_lp(types, weights, domain_tag, ((k, l, types[k]) for k, l in pairs))
        sol = solve_lp(lp, "revenue LP", start)
        mech = _extract_mechanism(types, n, sol.x, domain_tag)
        if len(pairs) == T * (T - 1):
            return mech, sol, len(pairs), rounds
        gain = ic_gains(mech)
        viol_mask = gain > GEN_TOL
        if not viol_mask.any():
            return mech, sol, len(pairs), rounds
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
        working = next_working
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
    """
    types = [tuple(float(x) for x in v) for v in types]
    type_set = set(types)
    for v in types:
        if not is_strict(v):
            raise LpError("symmetric optimization needs strict profiles")
        if not type_set.issuperset(itertools.permutations(v)):
            raise LpError(f"symmetric optimization needs every relabeling of {v}")
    n = len(types[0])
    reps = sorted({sort_descending(v) for v in types})
    rep_index = {w: k for k, w in enumerate(reps)}
    R = len(reps)
    block = [rep_index[sort_descending(v)] for v in types]
    orbit_weights = [0.0] * R
    for k, w in zip(block, embed(dist, types)):
        orbit_weights[k] += float(w)

    # Truthfulness of v against reporting v' folds onto the blocks of
    # their representatives: v values sorted slot i of the reported
    # outcome at v[cell(v')[i]].  Rows are deduplicated on exact
    # coefficients (a dict keeps first-seen order); their labels repeat
    # across relabelings, which is harmless as this LP is never exported.
    cells = [cell_of(v) for v in types]
    rows = {}
    for a, v in enumerate(types):
        for b, vp in enumerate(types):
            if vp != v:
                rows.setdefault((block[a], block[b], tuple(v[s] for s in cells[b])), None)
    lp = _revenue_lp(reps, orbit_weights, HETEROGENEOUS, rows)
    if len(lp.rows) > MAX_WORKING_ROWS:
        raise LpError("symmetric LP too large")
    sol = solve_lp(lp, "symmetric revenue LP")
    q = sol.x[: R * n].reshape(R, n)
    t = sol.x[R * n : R * n + R]
    on_sorted = Mechanism(types=tuple(reps), q=q.copy(), t=t.copy(), domain_tag=IDENTICAL)
    mech = symmetric_extension(on_sorted)
    _certify_mechanism(mech, HETEROGENEOUS)
    sym = is_symmetric(mech)
    if not sym.passed:
        raise LpError("symmetric optimum failed exact symmetry audit")
    return OptimalResult(
        mechanism=mech,
        revenue=float(sol.objective),
        solution=sol,
        n_ic_rows=len(rows),
        rounds=1,
        mode="orbit",
    )


# ---------------------------------------------------------------------------
# taxation-principle completion

def taxation_menu(mech: Mechanism) -> Menu:
    """The mechanism's own outcomes as a menu, deduplicated and sorted by
    descending price.  The null item lands after all positively priced
    items, so a type indifferent between buying and opting out buys;
    index tie-breaking therefore favors revenue."""
    items = {}
    for k in range(len(mech.types)):
        # mechanism construction tolerates allocations a hair outside the
        # box; menus do not, so clamp here
        key = (
            tuple(min(max(float(x), 0.0), 1.0) for x in mech.q[k]),
            float(mech.t[k]),
        )
        items[key] = True
    null = (tuple(0.0 for _ in range(mech.n)), 0.0)
    items.setdefault(null, True)
    ordered = sorted(items, key=lambda ap: (-ap[1], tuple(-x for x in ap[0])))
    return Menu(items=tuple(ordered))


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
    pmf = {lv: 0.0 for lv in levels}
    for lv, p in zip(g_avg.levels, g_avg.pmf()):
        pmf[lv] = float(p)
    lp = LinearProgram()
    for k in range(T):
        lp.add_var(
            f"w_{k}",
            0.0,
            1.0,
            obj=(-float(mech.t[k]) if sense == "min" else float(mech.t[k])),
        )
    lp.add_row({k: 1.0 for k in range(T)}, "=", 1.0, "total")
    for lv_i, lv in enumerate(levels):
        coeffs = {}
        for k, v in enumerate(types):
            cnt = sum(1 for x in v if x == lv)
            if cnt:
                coeffs[k] = cnt / n
        lp.add_row(coeffs, "=", pmf[lv], f"avg_{lv_i}")
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
    null = (tuple(0.0 for _ in range(n)), 0.0)

    def assign_to_menu(assign):
        items = [(allocs[a], choices[c]) for a, c in enumerate(assign) if c != 0]
        items.append(null)
        items.sort(key=lambda ap: (-ap[1], tuple(-x for x in ap[0])))
        return Menu(items=tuple(items))

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
    }
    return _report("equivalence", violations, info=info)
