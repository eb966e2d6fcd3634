"""Allocation order structure: weak majorization of allocation vectors,
payment dominance, one-coordinate monotonicity, near-deterministic
allocations, non-bossiness, and the lexicographic subgradient repair.

The repair treats the buyer's truthful utility u as the primitive: at
each grid type the set of allocation vectors consistent with u (the
subgradient polytope, intersected with the unit box) is searched for its
lexicographically maximal point.  The polytopes of all types are built
once, as one stacked array, and both selection rules run on it, batched
over every type.  While three or more coordinates are free, groups of
consecutive types become block-diagonal LPs, one solve per coordinate
0 .. n - 3; the last two coordinates of each polytope span a polygon,
whose lexicographic maximum Fourier-Motzkin elimination gives in closed
form.  The almost-deterministic rule tries the patterns
(1,..,1,alpha,0,..,0) from the most ones down, each one interval in
alpha over every type not yet assigned.  Payments are rebuilt from u,
so the buyer is indifferent between the input and the output, while the
selection rule makes the output non-bossy.  Every LP goes through
`optlp.solve_lp`: ValueError means bad input, LpError a solver failure
or a closed-form point that breaks a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import optlp, simplex
from .dist import Distribution, fosd_shift
from .mech import (
    AuditReport,
    Mechanism,
    _report,
    check_ic,
    check_ir,
    expected_revenue,
)
from .symmetry import is_symmetric
from .typespace import HETEROGENEOUS, IDENTICAL, TypePoint

PAYMENT_TOL = 1e-9
ALMOST_DET_TOL = 1e-6
SINGLETON_TOL = 1e-10
HYPOTHESIS_TOL = 1e-12
# rows of one block LP, or of one batch of the closed-form step, in the
# lexicographic selection; a single larger polytope gets a block of its own
BLOCK_ROWS = 512


def _prefix_sums_desc(vec) -> list:
    vals = sorted((Fraction(float(x)) for x in vec), reverse=True)
    out = []
    acc = Fraction(0)
    for x in vals:
        acc += x
        out.append(acc)
    return out


def weakly_majorizes(a, b) -> bool:
    """True iff every prefix sum of a's descending rearrangement weakly
    dominates b's.  Exact: floats are compared as rationals."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for pa, pb in zip(_prefix_sums_desc(a), _prefix_sums_desc(b)):
        if pa < pb:
            return False
    return True


def _majorization_deficit(a, b) -> float:
    """How far a falls short of weakly majorizing b (0.0 when it does)."""
    worst = Fraction(0)
    for pa, pb in zip(_prefix_sums_desc(a), _prefix_sums_desc(b)):
        if pb - pa > worst:
            worst = pb - pa
    return float(worst)


def check_prop_schur(mech: Mechanism, tol: float = PAYMENT_TOL) -> AuditReport:
    """Payment dominance: whenever one type's allocation weakly majorizes
    another's, its payment must be at least as large.

    Hypothesis guard: the mechanism must be truthful, and on the
    heterogeneous domain it must also be symmetric; otherwise the claim
    has no backing and the call errors out.
    """
    ic = check_ic(mech, tol=tol)
    if not ic.passed:
        raise ValueError(f"payment dominance needs a truthful input; worst gain {ic.max_slack}")
    if mech.domain_tag == HETEROGENEOUS:
        sym = is_symmetric(mech, tol=tol)
        if not sym.passed:
            raise ValueError("payment dominance on the heterogeneous domain needs symmetry")
    T = len(mech.types)
    violations = []
    n_hyp = 0
    for i in range(T):
        for j in range(T):
            if i == j:
                continue
            if weakly_majorizes(mech.q[i], mech.q[j]):
                n_hyp += 1
                gap = float(mech.t[j] - mech.t[i])
                if gap > tol:
                    violations.append(((mech.types[i], mech.types[j]), gap))
    return _report(
        "payment_dominance",
        violations,
        info={"n_ordered_pairs": T * (T - 1), "n_hypothesis_pairs": n_hyp},
    )


def _one_coordinate_pairs(mech: Mechanism):
    """Ordered index pairs of types differing in exactly one coordinate,
    tagged with that coordinate."""
    T = len(mech.types)
    for i in range(mech.n):
        buckets: dict[tuple, list[int]] = {}
        for k, v in enumerate(mech.types):
            rest = v[:i] + v[i + 1 :]
            buckets.setdefault(rest, []).append(k)
        for ks in buckets.values():
            for a in ks:
                for b in ks:
                    if a != b:
                        yield a, b, i


def check_majorization_monotonicity(mech: Mechanism, tol: float = PAYMENT_TOL) -> AuditReport:
    """If raising one coordinate's report raises that coordinate's
    allocation, the whole allocation vector must weakly majorize the old
    one.  Checked over every pair of types sharing all other coordinates.
    """
    if mech.domain_tag != IDENTICAL:
        raise ValueError("one-coordinate monotonicity is defined on the sorted domain")
    violations = []
    n_hyp = 0
    for hi, lo, i in _one_coordinate_pairs(mech):
        if mech.q[hi, i] <= mech.q[lo, i] + HYPOTHESIS_TOL:
            continue
        n_hyp += 1
        if not weakly_majorizes(mech.q[hi], mech.q[lo]):
            deficit = _majorization_deficit(mech.q[hi], mech.q[lo])
            if deficit > tol:
                violations.append(((mech.types[hi], mech.types[lo], i), deficit))
    return _report(
        "majorization_monotonicity", violations, info={"n_hypothesis_pairs": n_hyp}
    )


def is_almost_deterministic(mech: Mechanism, tol: float = ALMOST_DET_TOL) -> AuditReport:
    """At most one allocation coordinate per type may sit strictly between
    0 and 1 (beyond tol)."""
    violations = []
    worst = 0
    for k, v in enumerate(mech.types):
        frac = sum(1 for x in mech.q[k] if min(x, 1.0 - x) > tol)
        worst = max(worst, frac)
        if frac > 1:
            violations.append(((v, tuple(float(x) for x in mech.q[k])), float(frac)))
    return _report(
        "almost_deterministic", violations, info={"max_fractional_coords": worst}
    )


def check_object_nonbossy(mech: Mechanism, tol: float = PAYMENT_TOL) -> AuditReport:
    """Changing one coordinate's report without changing that coordinate's
    allocation must leave the entire allocation vector unchanged."""
    if mech.domain_tag != IDENTICAL:
        raise ValueError("non-bossiness is defined on the sorted domain")
    violations = []
    seen = set()
    for a, b, i in _one_coordinate_pairs(mech):
        if (b, a, i) in seen:
            continue
        seen.add((a, b, i))
        if abs(float(mech.q[a, i] - mech.q[b, i])) > tol:
            continue
        spread = float(np.max(np.abs(mech.q[a] - mech.q[b])))
        if spread > tol:
            violations.append(((mech.types[a], mech.types[b], i), spread))
    return _report("object_nonbossy", violations)


# ---------------------------------------------------------------------------
# subgradient polytopes

@dataclass(frozen=True, eq=False)
class SubgradientPolytope:
    """Allocation vectors consistent with the utility profile at `anchor`:
    {x in [0,1]^n : x . (v' - anchor) <= u(v') - u(anchor) for all v'}.
    """

    anchor: TypePoint
    directions: np.ndarray  # rows v' - anchor
    slacks: np.ndarray  # u(v') - u(anchor)

    @property
    def n(self) -> int:
        return len(self.anchor)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if np.any(x < -tol) or np.any(x > 1.0 + tol):
            return False
        return bool(np.all(self.directions @ x <= self.slacks + tol))

    def maximize(self, direction) -> tuple[float, np.ndarray]:
        lp = _subgradient_lp(self.directions[None], self.slacks[None])
        lp.objective = [float(c) for c in direction]
        try:
            res = optlp.solve_lp(lp, f"subgradient LP at {self.anchor}")
        except optlp.InfeasibleError:
            raise _inconsistent(self.anchor) from None
        return float(res.objective), res.x.copy()

    def coordinate_interval(self, i: int) -> tuple[float, float]:
        e = np.zeros(self.n)
        e[i] = -1.0
        lo = -self.maximize(e)[0]
        e[i] = 1.0
        hi = self.maximize(e)[0]
        return lo, hi

    def is_singleton(self, tol: float = SINGLETON_TOL) -> bool:
        return all(hi - lo <= tol for lo, hi in map(self.coordinate_interval, range(self.n)))

    def lexicographic_max(self) -> np.ndarray:
        """Maximize coordinate 1, freeze it, maximize coordinate 2, and so
        on: one LP for each coordinate but the last two, which are
        selected in closed form (see `_lexicographic_max`)."""
        return _lexicographic_max(self.directions[None], self.slacks[None], [self.anchor])[0]

    def lexicographic_max_almost_deterministic(self, tol: float = 1e-9) -> np.ndarray:
        """Lexicographic maximum over sorted vectors with at most one
        fractional coordinate (see `_lexmax_almost_deterministic`)."""
        return _lexmax_almost_deterministic(
            self.directions[None], self.slacks[None], [self.anchor], tol
        )[0]


def _subgradient_rows(V: np.ndarray, u: np.ndarray, anchors) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the subgradient polytopes at the rows `anchors` of the
    type matrix V, given the utility u of every type: for each anchor k,
    the directions V[l] - V[k], shape (K, T - 1, n), and the slacks u[l]
    - u[k], shape (K, T - 1), over l != k in increasing order."""
    anchors = np.asarray(anchors, dtype=np.intp)
    (T, n), K = V.shape, anchors.size
    others = np.arange(T) != anchors[:, None]
    D = (V[None] - V[anchors, None])[others].reshape(K, T - 1, n)
    s = (u[None] - u[anchors, None])[others].reshape(K, T - 1)
    return D, s


def subgradient_polytope(mech: Mechanism, v) -> SubgradientPolytope:
    k = mech.index_of(tuple(float(x) for x in v))
    D, s = _subgradient_rows(mech.V, mech.utilities(), [k])
    return SubgradientPolytope(anchor=tuple(float(x) for x in mech.V[k]), directions=D[0], slacks=s[0])


def _inconsistent(where) -> ValueError:
    return ValueError(
        f"subgradient polytope at {where} is infeasible; "
        "the utility profile is not consistent with truthfulness"
    )


def _subgradient_lp(D: np.ndarray, s: np.ndarray) -> optlp.LinearProgram:
    """The block-diagonal LP of the K polytopes {x : D[k] x <= s[k]} over
    the unit box, block k on columns k*n .. k*n + n - 1, with a zero
    objective; every entry of a direction row is kept."""
    K, m, n = D.shape
    lp = optlp.LinearProgram(
        names=[f"x_{k}_{i}" for k in range(K) for i in range(n)],
        lower=[0.0] * (K * n), upper=[1.0] * (K * n), objective=[0.0] * (K * n),
    )
    block = np.repeat(np.arange(K), m)
    lp.add_rows(block[:, None] * n + np.arange(n), D.reshape(K * m, n), "<=", s.ravel())
    return lp


def _lexicographic_max(D: np.ndarray, s: np.ndarray, anchors) -> np.ndarray:
    """The lexicographic maximum of each polytope {x in [0,1]^n : D[k] x
    <= s[k]} of the stack, one row per polytope, all of m rows.

    For n >= 3 each group of max(1, BLOCK_ROWS // m) consecutive
    polytopes (all of them when m = 0) becomes one block-diagonal LP,
    built once.  For each coordinate i <= n - 3 it maximizes the sum over
    the group of x_{k,i}, then fixes every x_{k,i} at its optimum through
    its bounds and passes the optimal basis to the next coordinate's
    solve, which starts there primal feasible.  The solve for coordinate
    0 starts at the slack basis, every x_{k,0} at 1 and every other
    column at 0, which is dual feasible: the dual simplex repairs the
    violated rows.  The blocks are separable, so the sum is optimal
    exactly when every block is, and the selection is the one a solve
    per polytope would make.  Besides the certificate of `solve_lp`, each
    block LP's weak-duality gap must be at most `optlp.GAP_TOL` in
    absolute terms: every block's gap is at most the group's, so each
    polytope keeps the bound that a solve of its own would have to meet.
    The last min(n, 2) coordinates of a group's polytopes are then
    selected together and exactly by `_lexmax_tail`, with no LP.  Errors
    name the anchor of the polytope at fault."""
    K, m = s.shape
    size = max(1, BLOCK_ROWS // m) if m else K
    return np.vstack([_block_lexmax(D[a : a + size], s[a : a + size], anchors[a : a + size])
                      for a in range(0, K, size)])


def _block_lexmax(D: np.ndarray, s: np.ndarray, anchors) -> np.ndarray:
    K, _, n = D.shape
    if n <= 2:
        return _lexmax_tail(D, s, anchors, np.zeros((K, 0)))
    lp = _subgradient_lp(D, s)
    where = str(anchors[0]) if K == 1 else f"{anchors[0]}..{anchors[-1]}"
    what = f"subgradient LP at {where}"
    res = None
    for i in range(n - 2):
        lp.objective = np.tile(np.eye(n)[i], K).tolist()
        try:
            res = optlp.solve_lp(lp, what, None if res is None else res.basis)
        except optlp.InfeasibleError:
            if K > 1:  # a group is infeasible only where a block is: name it
                for j in range(K):
                    _block_lexmax(D[j : j + 1], s[j : j + 1], anchors[j : j + 1])
            raise _inconsistent(where) from None
        if not res.duality_gap <= optlp.GAP_TOL:
            raise optlp.LpError(
                f"{what} failed: duality gap {res.duality_gap} exceeds {optlp.GAP_TOL}"
            )
        lp.lower[i::n] = lp.upper[i::n] = res.x[i::n].tolist()
    return _lexmax_tail(D, s, anchors, np.clip(res.x, 0.0, 1.0).reshape(K, n)[:, : n - 2])


def _lexmax_tail(D: np.ndarray, s: np.ndarray, anchors, head: np.ndarray) -> np.ndarray:
    """The lexicographic maximum of each polytope with its first
    coordinates fixed at its row of `head` and the last one or two, a and
    b, free: the polygon Q = {(a, b) in [0, 1]^2 : alpha a + beta b <= r},
    box rows included.  The polytopes are selected together.

    Fourier-Motzkin elimination of b gives every bound on a: each row
    with beta = 0, and each pair of a row u with beta_u > 0 and a row d
    with beta_d < 0, combined with the multipliers (-beta_d, beta_u) >= 0
    into (beta_u alpha_d - beta_d alpha_u) a <= beta_u r_d - beta_d r_u.
    Those two multipliers are the bound's weak-duality certificate.  A
    combined coefficient within `simplex.PIVOT_TOL` of the size of its
    two products counts as zero: two rows that pin b cancel in it only
    up to rounding.  a is the smallest upper bound, b the smallest upper
    bound at that a.  Q is empty, and the utility profile inconsistent,
    when a lower bound on a or a zero-coefficient right side misses by
    more than `simplex.FEAS_TOL`; a selected point whose residual over
    the polytope's rows exceeds `optlp.RESIDUAL_TOL` is an LpError.  The
    first polytope at fault is named."""
    K, k = head.shape
    free = D.shape[2] - k
    box = np.zeros((2 * free, D.shape[2]))
    box[:, k:] = np.vstack([np.eye(free), -np.eye(free)])
    D = np.concatenate([D, np.broadcast_to(box, (K,) + box.shape)], axis=1)
    s = np.concatenate([s, np.broadcast_to(np.repeat([1.0, 0.0], free), (K, 2 * free))], axis=1)
    r = s - (D[:, :, :k] @ head[:, :, None])[:, :, 0]
    alpha, beta = D[:, :, k], D[:, :, -1]
    coef, rhs = alpha, r
    if free == 2:
        up, flat = beta > 0.0, beta == 0.0
        # rows by falling beta: the u rows lead, the d rows trail
        order = np.argsort(-beta, axis=1, kind="stable")
        al, be, rr = (np.take_along_axis(v, order, axis=1) for v in (alpha, beta, r))
        nu, nd = up.sum(axis=1).max(), (beta < 0.0).sum(axis=1).max()
        au, bu, ru = al[:, :nu, None], be[:, :nu, None], rr[:, :nu, None]
        ad, bd, rd = al[:, None, -nd:], be[:, None, -nd:], rr[:, None, -nd:]
        pair = bu * ad - bd * au
        pair[np.abs(pair) <= simplex.PIVOT_TOL * (np.abs(bu * ad) + np.abs(bd * au))] = 0.0
        use = (bu > 0.0) & (bd < 0.0)
        coef = np.hstack([np.where(flat, alpha, 0.0), np.where(use, pair, 0.0).reshape(K, -1)])
        rhs = np.hstack([np.where(flat, r, np.inf),
                         np.where(use, bu * rd - bd * ru, np.inf).reshape(K, -1)])
    lo, a, worst = _interval(coef, rhs)
    empty = (lo > a + simplex.FEAS_TOL) | (worst < -simplex.FEAS_TOL)
    x = np.column_stack([head, np.clip(a, 0.0, 1.0)])
    if free == 2:
        room = r - alpha * x[:, -1:]
        b = np.min(np.divide(room, beta, out=np.full_like(room, np.inf), where=up), axis=1)
        x = np.column_stack([x, np.clip(b, 0.0, 1.0)])
    residual = np.max((D @ x[:, :, None])[:, :, 0] - s, axis=1)
    for j in np.flatnonzero(empty | ~(residual <= optlp.RESIDUAL_TOL))[:1]:
        if empty[j]:
            raise _inconsistent(anchors[j])
        raise optlp.LpError(
            f"lexicographic maximum at {anchors[j]} failed: "
            f"solution residual {residual[j]} exceeds {optlp.RESIDUAL_TOL}"
        )
    return x


def _interval(coef, rhs):
    """The rows coef * a <= rhs of one variable a in [0, 1], along the
    last axis: the largest lower bound on a and the smallest upper bound,
    with 0 and 1 among them, and the smallest right side of the rows
    whose coefficient is zero (inf if none)."""
    ratio = np.divide(rhs, coef, out=np.zeros_like(rhs), where=coef != 0.0)
    hi = np.minimum(1.0, np.min(ratio, axis=-1, initial=np.inf, where=coef > 0.0))
    lo = np.maximum(0.0, np.max(ratio, axis=-1, initial=-np.inf, where=coef < 0.0))
    return lo, hi, np.min(rhs, axis=-1, initial=np.inf, where=coef == 0.0)


def _lexmax_almost_deterministic(D: np.ndarray, s: np.ndarray, anchors, tol: float = 1e-9):
    """The lexicographic maximum of each polytope {x in [0,1]^n : D[k] x
    <= s[k]} of the stack over sorted vectors with at most one fractional
    coordinate: the patterns (1,..,1,alpha,0,..,0), tried from the most
    ones down.  The all-ones vector is tested first; each later pattern
    cuts the polytopes not yet assigned down to an interval in alpha, the
    one-dimensional step of `_lexmax_tail` (`_interval`), so no LP is
    needed.  The first polytope that no pattern fits is named."""
    K, _, n = D.shape
    x = np.zeros((K, n))
    todo = ~np.all(D @ np.ones(n) <= s + tol, axis=1)
    x[~todo] = 1.0
    for ones in range(n - 1, -1, -1):
        k = np.flatnonzero(todo)
        lo, hi, worst = _interval(D[k, :, ones], s[k] - D[k, :, :ones].sum(axis=2))
        fits = (worst >= -tol) & (lo <= hi + tol)
        x[k[fits], :ones] = 1.0
        x[k[fits], ones] = np.minimum(np.maximum(hi[fits], 0.0), 1.0)
        todo[k[fits]] = False
    for k in np.flatnonzero(todo)[:1]:
        raise ValueError(
            f"no sorted almost-deterministic vector at {anchors[k]}; "
            "the utility profile is not consistent with such a mechanism"
        )
    return x


def lmax_repair(mech: Mechanism, almost_deterministic: bool = False) -> Mechanism:
    """Rebuild the mechanism from its utility profile, selecting at every
    type the lexicographically maximal consistent allocation and the
    payment that keeps the buyer's utility unchanged.

    On the sorted domain the selection is additionally restricted to
    weakly decreasing vectors, so the output stays feasible there; the
    input's own allocation already satisfies that restriction, so the
    search region is never empty.

    With almost_deterministic=True the selection runs over sorted
    near-deterministic vectors only (valid when the input is of that
    shape), preserving that structure in the output.

    The output is truthful and keeps participation and utilities exactly;
    its allocation at any type whose polytope is a single point equals the
    input's.  The selection depends only on the utility profile, never on
    the input allocation, which is what makes the output non-bossy.

    The polytopes form one stack: directions V[l] - V[k] over l != k,
    shape (T, T - 1, n), and slacks u[l] - u[k], with the sorted-cone rows
    x_{i+1} - x_i <= 0 appended on the sorted domain.  ValueError means
    bad input: a mechanism that is not truthful or participating, or an
    empty polytope, named by its type.  LpError means the selection
    failed: a solver breakdown, an uncertified optimum, a duality gap over
    `optlp.GAP_TOL`, or a closed-form point with a residual over
    `optlp.RESIDUAL_TOL`.
    """
    ic = check_ic(mech, tol=PAYMENT_TOL)
    if not ic.passed:
        raise ValueError(f"repair needs a truthful input; worst gain {ic.max_slack}")
    ir = check_ir(mech, tol=PAYMENT_TOL)
    if not ir.passed:
        raise ValueError(f"repair needs a participating input; worst deficit {ir.max_slack}")
    u = mech.utilities()
    V = mech.V
    T, n = V.shape
    D, s = _subgradient_rows(V, u, np.arange(T))
    if almost_deterministic:
        q = _lexmax_almost_deterministic(D, s, mech.types)
    else:
        if mech.domain_tag == IDENTICAL:
            cone = np.eye(n - 1, n, 1) - np.eye(n - 1, n)
            D = np.concatenate([D, np.broadcast_to(cone, (T, n - 1, n))], axis=1)
            s = np.concatenate([s, np.zeros((T, n - 1))], axis=1)
        q = _lexicographic_max(D, s, mech.types)
    t = [float(np.dot(v, x) - u[k]) for k, (v, x) in enumerate(zip(mech.types, q))]
    return Mechanism(types=mech.types, q=q, t=t, domain_tag=mech.domain_tag)


def run_revenue_monotonicity_experiment(
    mech: Mechanism, dist: Distribution, shift_map, tol: float = PAYMENT_TOL
) -> AuditReport:
    """Compare expected revenue before and after a first-order upward
    shift of the distribution.

    The increase is asserted (a decrease becomes a violation) only when
    the theory actually guarantees it: a truthful sorted-domain mechanism
    passing one-coordinate majorization monotonicity, or a truthful
    symmetric near-deterministic heterogeneous mechanism.  Otherwise the
    report carries the observed comparison without judging it.
    """
    shifted = fosd_shift(dist, shift_map)
    rev_before = expected_revenue(mech, dist)
    rev_after = expected_revenue(mech, shifted)

    reason = ""
    asserted = False
    if check_ic(mech, tol=1e-8).passed:
        if mech.domain_tag == IDENTICAL:
            if check_majorization_monotonicity(mech).passed:
                asserted = True
                reason = "truthful and majorization monotone"
            else:
                reason = "not majorization monotone"
        else:
            try:
                sym_ok = is_symmetric(mech, tol=tol).passed
            except ValueError:
                sym_ok = False
            if sym_ok and is_almost_deterministic(mech).passed:
                asserted = True
                reason = "truthful, symmetric, almost deterministic"
            else:
                reason = "not symmetric almost-deterministic"
    else:
        reason = "not truthful"

    violations = []
    if asserted and rev_after < rev_before - tol:
        violations.append((("revenue_drop",), float(rev_before - rev_after)))
    return _report(
        "revenue_monotonicity",
        violations,
        info={
            "revenue_before": float(rev_before),
            "revenue_after": float(rev_after),
            "delta": float(rev_after - rev_before),
            "asserted": asserted,
            "reason": reason,
        },
    )
