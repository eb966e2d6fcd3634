"""Allocation order structure: weak majorization of allocation vectors,
payment dominance, one-coordinate monotonicity, near-deterministic
allocations, non-bossiness, and the lexicographic subgradient repair.

The repair treats the buyer's truthful utility u as the primitive: at
each grid type the set of allocation vectors consistent with u (the
subgradient polytope, intersected with the unit box) is searched for its
lexicographically maximal point.  The polytopes of all types are
selected together: consecutive ones are stacked, up to BLOCK_ROWS rows,
into one block-diagonal LP, solved once per coordinate.  The first solve
starts at the solver's slack basis, which is dual feasible, each later
one from the last one's optimal basis.  Payments are rebuilt from u, so
the buyer is indifferent between the input and the output, while the
selection rule makes the output non-bossy.  Every LP goes through `optlp.solve_lp`: ValueError
means bad input, LpError a solver failure.
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
# rows of one block LP in the lexicographic selection; a single larger
# polytope gets a block of its own
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
        lp = _subgradient_lp([self])
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
        on: one LP per coordinate (see `_lexicographic_max`)."""
        return _lexicographic_max([self])[0]

    def lexicographic_max_almost_deterministic(self, tol: float = 1e-9) -> np.ndarray:
        """Lexicographic maximum over sorted vectors with at most one
        fractional coordinate: patterns (1,..,1,alpha,0,..,0).  Each
        pattern cuts the polytope down to an interval in alpha, so the
        search is exact interval arithmetic, no LP needed."""
        for ones in range(self.n, -1, -1):
            if ones == self.n:
                x = np.ones(self.n)
                if self.contains(x, tol=tol):
                    return x
                continue
            lo, hi = 0.0, 1.0
            feasible = True
            for row, rhs in zip(self.directions, self.slacks):
                const = float(row[:ones].sum())
                coef = float(row[ones])
                room = rhs - const
                if coef > 0:
                    hi = min(hi, room / coef)
                elif coef < 0:
                    lo = max(lo, room / coef)
                elif room < -tol:
                    feasible = False
                    break
            if feasible and lo <= hi + tol:
                alpha = min(max(hi, 0.0), 1.0)
                x = np.zeros(self.n)
                x[:ones] = 1.0
                x[ones] = alpha
                return x
        raise ValueError(
            f"no sorted almost-deterministic vector at {self.anchor}; "
            "the utility profile is not consistent with such a mechanism"
        )


def _polytope(V: np.ndarray, u: np.ndarray, k: int) -> SubgradientPolytope:
    """The subgradient polytope at row k of the type matrix V, given the
    utility u of every type."""
    others = np.arange(len(u)) != k
    return SubgradientPolytope(
        anchor=tuple(float(x) for x in V[k]), directions=V[others] - V[k], slacks=u[others] - u[k]
    )


def subgradient_polytope(mech: Mechanism, v) -> SubgradientPolytope:
    k = mech.index_of(tuple(float(x) for x in v))
    return _polytope(mech.V, mech.utilities(), k)


def _inconsistent(where) -> ValueError:
    return ValueError(
        f"subgradient polytope at {where} is infeasible; "
        "the utility profile is not consistent with truthfulness"
    )


def _subgradient_lp(polys) -> optlp.LinearProgram:
    """The block-diagonal LP of polytopes of one dimension n over the
    unit box, block k on columns k*n .. k*n + n - 1, with a zero
    objective; every entry of a direction row is kept."""
    n, K = polys[0].n, len(polys)
    block = np.repeat(np.arange(K), [len(p.slacks) for p in polys])
    lp = optlp.LinearProgram(
        names=[f"x_{k}_{i}" for k in range(K) for i in range(n)],
        lower=[0.0] * (K * n), upper=[1.0] * (K * n), objective=[0.0] * (K * n),
    )
    lp.add_rows(
        block[:, None] * n + np.arange(n), np.concatenate([p.directions for p in polys]),
        "<=", np.concatenate([p.slacks for p in polys]),
    )
    return lp


def _groups(polys):
    """Consecutive runs of polytopes with at most BLOCK_ROWS rows in all;
    a polytope with more rows than that is a run of its own."""
    group, rows = [], 0
    for p in polys:
        m = len(p.slacks)
        if group and rows + m > BLOCK_ROWS:
            yield group
            group, rows = [], 0
        group.append(p)
        rows += m
    if group:
        yield group


def _lexicographic_max(polys) -> list[np.ndarray]:
    """The lexicographic maximum of each polytope (all of one dimension
    n), in order.

    Each group of `_groups` becomes one block-diagonal LP, built once.
    For each coordinate i it maximizes the sum over the group of x_{k,i},
    then fixes every x_{k,i} at its optimum through its bounds and passes
    the optimal basis to the next coordinate's solve, which starts there
    primal feasible.  The solve for coordinate 0 starts at the slack
    basis, every x_{k,0} at 1 and every other column at 0, which is dual
    feasible: the dual simplex repairs the violated rows.  The blocks are
    separable, so the sum is optimal exactly when every block is, and
    the selection is the one n solves per polytope would make.  Besides
    the certificate of `solve_lp`, each block LP's weak-duality gap must
    be at most GAP_TOL in absolute terms: every block's gap is at most
    the group's, so each polytope keeps the bound that a solve of its
    own would have to meet."""
    return [x for group in _groups(polys) for x in _block_lexmax(group)]


def _block_lexmax(polys) -> list[np.ndarray]:
    n, K = polys[0].n, len(polys)
    lp = _subgradient_lp(polys)
    where = str(polys[0].anchor) if K == 1 else f"{polys[0].anchor}..{polys[-1].anchor}"
    what = f"subgradient LP at {where}"
    res = None
    for i in range(n):
        lp.objective = np.tile(np.eye(n)[i], K).tolist()
        try:
            res = optlp.solve_lp(lp, what, None if res is None else res.basis)
        except optlp.InfeasibleError:
            if K > 1:  # a group is infeasible only where a block is: name it
                for p in polys:
                    _block_lexmax([p])
            raise _inconsistent(where) from None
        if not res.duality_gap <= simplex.GAP_TOL:
            raise optlp.LpError(
                f"{what} failed: duality gap {res.duality_gap} exceeds {simplex.GAP_TOL}"
            )
        lp.lower[i::n] = lp.upper[i::n] = res.x[i::n].tolist()
    return list(np.clip(res.x, 0.0, 1.0).reshape(K, n))


def _with_sorted_cone(poly: SubgradientPolytope) -> SubgradientPolytope:
    """Intersect with {x_1 >= x_2 >= ... >= x_n} via the extra direction
    rows x_{i+1} - x_i <= 0."""
    n = poly.n
    directions = np.vstack([poly.directions, np.eye(n - 1, n, 1) - np.eye(n - 1, n)])
    slacks = np.concatenate([poly.slacks, np.zeros(n - 1)])
    return SubgradientPolytope(anchor=poly.anchor, directions=directions, slacks=slacks)


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

    The selection solves one block LP per coordinate and group of types
    (`_lexicographic_max`), not n LPs per type, each through
    `optlp.solve_lp` and an absolute duality-gap bound.  ValueError
    means bad input: a mechanism that is not truthful or participating,
    or an empty polytope.  LpError means the solver failed: a breakdown,
    an uncertified optimum or a gap over the bound.
    """
    ic = check_ic(mech, tol=PAYMENT_TOL)
    if not ic.passed:
        raise ValueError(f"repair needs a truthful input; worst gain {ic.max_slack}")
    ir = check_ir(mech, tol=PAYMENT_TOL)
    if not ir.passed:
        raise ValueError(f"repair needs a participating input; worst deficit {ir.max_slack}")
    u = mech.utilities()
    V = mech.V
    polys = [_polytope(V, u, k) for k in range(len(u))]
    if almost_deterministic:
        q = [p.lexicographic_max_almost_deterministic() for p in polys]
    else:
        if mech.domain_tag == IDENTICAL:
            polys = [_with_sorted_cone(p) for p in polys]
        q = _lexicographic_max(polys)
    t = [float(np.dot(v, x) - u[k]) for k, (v, x) in enumerate(zip(mech.types, q))]
    return Mechanism(types=mech.types, q=np.array(q), t=np.array(t), domain_tag=mech.domain_tag)


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
