"""Direct mechanisms on finite type grids: audits, menus, revenue, serialization.

A mechanism assigns every type profile an allocation-probability vector
``q(v)`` in [0,1]^n and a payment ``t(v)``.  Buyer utility is
``u(v) = v . q(v) - t(v)``.  The audits in this module check truthful
reporting (no profitable misreport), participation (nonnegative utility),
and the identical-domain feasibility order on allocations.

All pairwise utility comparisons are computed with one shared
broadcast-and-sum kernel so that equal mathematical quantities compare
bit-for-bit equal.  Menu choice additionally re-resolves near-ties in
exact rational arithmetic: float rounding can misorder two items whose
exact utilities are equal, and item order encodes seller preference, so
the tie has to be detected exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .typespace import HETEROGENEOUS, IDENTICAL, TypePoint

# Default slack below which an audit inequality is not considered violated.
DEFAULT_TOL = 1e-9

# Construction-time box slack for allocation coordinates (solver output noise).
_BOX_TOL = 1e-9


class MechanismError(ValueError):
    """Malformed mechanism data (shape, box, or domain-tag problems)."""


def pairwise_value(V: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Matrix of dot products M[i, k] = V[i] . Q[k].

    Computed by broadcast multiply and a fixed-axis sum rather than BLAS
    matmul: each entry is then a reproducible function of its own operand
    pair, independent of the surrounding matrix shape.
    """
    return (V[:, None, :] * Q[None, :, :]).sum(axis=-1)


@dataclass(frozen=True)
class Mechanism:
    """Allocation rule and payment rule tabulated over a finite type list.

    Attributes
    ----------
    types : tuple of type profiles
        Domain enumeration; order fixes the row order of `q` and `t`.
    q : ndarray, shape (T, n)
        Allocation probabilities per type, entries in [0, 1]; a read-only
        copy of the array passed in, as is `t`.
    t : ndarray, shape (T,)
        Payments per type.
    domain_tag : str
        "identical" or "heterogeneous".  The identical-domain allocation
        order q_1 >= ... >= q_n is *not* enforced here; it is an audit
        (`check_feasible_identical`) because several constructions need to
        tabulate infeasible candidates in order to flag them.
    """

    types: tuple[TypePoint, ...]
    q: np.ndarray
    t: np.ndarray
    domain_tag: str

    def __post_init__(self) -> None:
        try:
            V = np.array(self.types, dtype=float)
        except ValueError:
            if len({len(v) for v in self.types}) > 1:
                raise MechanismError("ragged type profiles") from None
            raise
        T = len(V)
        if T == 0:
            raise MechanismError("empty type list")
        if V.ndim != 2:
            raise MechanismError(f"type profiles must be flat sequences, got shape {V.shape}")
        types = tuple(map(tuple, V.tolist()))
        object.__setattr__(self, "types", types)
        q = np.array(self.q, dtype=float)  # copies: the caller's stay writable
        t = np.array(self.t, dtype=float)
        n = V.shape[1]
        if q.shape != (T, n):
            raise MechanismError(f"q shape {q.shape} != {(T, n)}")
        if t.shape != (T,):
            raise MechanismError(f"t shape {t.shape} != {(T,)}")
        for name, x in (("types", V), ("q", q), ("t", t)):
            if not np.isfinite(x).all():
                raise MechanismError(f"{name} must be finite")
        if np.any(q < -_BOX_TOL) or np.any(q > 1.0 + _BOX_TOL):
            bad = np.argwhere((q < -_BOX_TOL) | (q > 1.0 + _BOX_TOL))[0]
            raise MechanismError(f"allocation outside [0,1] at type index {bad[0]}")
        if self.domain_tag not in (IDENTICAL, HETEROGENEOUS):
            raise MechanismError(f"unknown domain_tag {self.domain_tag!r}")
        if self.domain_tag == IDENTICAL:
            unsorted = np.flatnonzero((V[:, :-1] < V[:, 1:]).any(axis=1))
            if unsorted.size:
                raise MechanismError(
                    f"identical domain requires sorted profiles, got {types[unsorted[0]]}"
                )
        index = {v: k for k, v in enumerate(types)}
        if len(index) != T:
            raise MechanismError("duplicate type profiles")
        for x in (V, q, t):
            x.setflags(write=False)
        object.__setattr__(self, "_V", V)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.types[0])

    @property
    def V(self) -> np.ndarray:
        """The type profiles as a read-only (T, n) float array."""
        return self._V

    def index_of(self, v: TypePoint) -> int:
        try:
            return self._index[tuple(v)]
        except KeyError:
            raise KeyError(f"type {v} not in mechanism domain") from None

    def q_at(self, v: TypePoint) -> np.ndarray:
        return self.q[self.index_of(v)]

    def t_at(self, v: TypePoint) -> float:
        return float(self.t[self.index_of(v)])

    def utilities(self) -> np.ndarray:
        """u(v) = v . q(v) - t(v), one entry per type row."""
        return (self.V * self.q).sum(axis=1) - self.t


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one mechanical check.

    `passed` holds iff `violations` is empty.  Each violation is a
    (witness, slack) pair: the witness identifies where the inequality
    failed (types, indices, or a message) and slack is the magnitude of
    the failure.  `info` carries check-specific extras such as revenues
    or sub-reports.
    """

    check: str
    passed: bool
    violations: tuple = ()
    max_slack: float = 0.0
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.passed != (len(self.violations) == 0):
            raise ValueError("passed flag inconsistent with violation list")

    def to_jsonable(self) -> dict:
        """The fields and the violation count, as `cli` renders them."""
        return {
            "check": self.check,
            "passed": self.passed,
            "n_violations": len(self.violations),
            "max_slack": self.max_slack,
            "violations": self.violations,
            "info": self.info,
        }


def _report(check: str, violations: list, info: dict | None = None) -> AuditReport:
    max_slack = max((float(s) for _, s in violations), default=0.0)
    return AuditReport(
        check=check,
        passed=not violations,
        violations=tuple(violations),
        max_slack=max_slack,
        info=info or {},
    )


def ic_gains(mech: Mechanism, rows=None) -> np.ndarray:
    """gain[k, l] = v_k.q(v_l) - t(v_l) - u(v_k): what type k gains by
    reporting l.  The diagonal is -inf, so it never reads as a gain.
    With `rows`, an index array, only those rows are computed: bitwise
    `ic_gains(mech)[rows]`, -inf where a row meets its own type."""
    rows = np.arange(len(mech.types)) if rows is None else np.asarray(rows)
    dev = pairwise_value(mech.V[rows], mech.q) - mech.t[None, :]
    gain = dev - mech.utilities()[rows, None]
    gain[np.arange(rows.size), rows] = -np.inf
    return gain


def check_ic(mech: Mechanism, tol: float = DEFAULT_TOL) -> AuditReport:
    """Truthful-reporting audit over every ordered pair of types.

    A violation at (v, v') means reporting v' while valuing v beats
    truth-telling by more than `tol`:
    v.q(v') - t(v') > u(v) + tol.
    """
    gain = ic_gains(mech)
    bad = np.argwhere(gain > tol)
    violations = [
        ((mech.types[i], mech.types[j]), float(gain[i, j])) for i, j in bad
    ]
    return _report("ic", violations)


def check_ir(mech: Mechanism, tol: float = DEFAULT_TOL) -> AuditReport:
    """Participation audit: u(v) >= -tol for every type."""
    u = mech.utilities()
    bad = np.argwhere(u < -tol).ravel()
    violations = [((mech.types[i],), float(-u[i])) for i in bad]
    return _report("ir", violations)


def check_feasible_identical(mech: Mechanism, tol: float = DEFAULT_TOL) -> AuditReport:
    """Identical-domain allocation order: q_i(v) >= q_{i+1}(v) - tol."""
    if mech.domain_tag != IDENTICAL:
        raise MechanismError("feasibility order applies to identical-domain mechanisms")
    diffs = mech.q[:, 1:] - mech.q[:, :-1]
    bad = np.argwhere(diffs > tol)
    violations = [
        ((mech.types[i], int(j), int(j + 1)), float(diffs[i, j])) for i, j in bad
    ]
    return _report("feasible_identical", violations)


@dataclass(frozen=True)
class Menu:
    """Price list: (allocation, price) items; a buyer picks a best item.

    The null item (zero allocation, zero price) must be present so that
    opting out is always available, which makes every induced mechanism
    individually rational by construction.
    """

    items: tuple[tuple[TypePoint, float], ...]

    def __post_init__(self) -> None:
        items = tuple((tuple(float(x) for x in a), float(p)) for a, p in self.items)
        object.__setattr__(self, "items", items)
        if not items:
            raise ValueError("empty menu")
        n = len(items[0][0])
        if any(len(a) != n for a, _ in items):
            raise ValueError("ragged menu allocations")
        if not any(all(x == 0.0 for x in a) and p == 0.0 for a, p in items):
            raise ValueError("menu must contain the null item (zero allocation, zero price)")
        for a, _ in items:
            if any(x < 0.0 or x > 1.0 for x in a):
                raise ValueError(f"menu allocation outside [0,1]: {a}")

    @property
    def n(self) -> int:
        return len(self.items[0][0])


def make_menu(items: Sequence[tuple[Sequence[float], float]], n: int | None = None) -> Menu:
    """Menu from raw items, prepending the null item when missing."""
    items = [(tuple(float(x) for x in a), float(p)) for a, p in items]
    if n is None:
        if not items:
            raise ValueError("cannot infer n from an empty item list")
        n = len(items[0][0])
    null = (tuple(0.0 for _ in range(n)), 0.0)
    if not any(all(x == 0.0 for x in a) and p == 0.0 for a, p in items):
        items = [null] + items
    return Menu(items=tuple(items))


def seller_ordered_menu(items, n: int) -> Menu:
    """The (allocation, price) items and the null item, each once, by
    descending price, then descending allocation: lowest-index
    tie-breaking then favors the seller, and opting out comes last."""
    items = dict.fromkeys([*items, ((0.0,) * n, 0.0)])
    return Menu(items=tuple(sorted(items, key=lambda ap: (-ap[1], tuple(-x for x in ap[0])))))


def _exact_utility(v, a, price) -> tuple[int, int]:
    """v . a - price exactly, as (numerator, denominator).  A float is an
    integer over a power of two, so the denominator is the largest of
    the terms' denominators, which every other one divides."""
    terms = [(-float(price)).as_integer_ratio()]
    for x, y in zip(v, a):
        (p, q), (r, s) = float(x).as_integer_ratio(), float(y).as_integer_ratio()
        terms.append((p * r, q * s))
    den = max(d for _, d in terms)
    return sum(num * (den // d) for num, d in terms), den


# Float score gap below which menu ties are re-resolved exactly.  Dot
# products of bounded inputs carry error well under this, so every exact
# tie lands inside the guard and nothing outside it can be a tie.
_TIE_GUARD = 1e-9


def menu_choice_indices(V: np.ndarray, A: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Best-item index per type row, ties toward the lowest index.

    Scores are computed in floats; rows whose top two scores are within
    the tie guard are re-ranked with exact rational arithmetic.  Without
    this, a sum like 0.9 + 0.5 rounding below 0.4 + 0.5 + 0.5 silently
    flips an exact tie against the item order.
    """
    scores = pairwise_value(V, A) - prices[None, :]
    choice = np.argmax(scores, axis=1)
    top = scores[np.arange(len(choice)), choice]
    near = scores >= top[:, None] - _TIE_GUARD
    for k in np.nonzero(near.sum(axis=1) > 1)[0]:
        cand = np.nonzero(near[k])[0]
        exact = [_exact_utility(V[k], A[j], prices[j]) for j in cand]
        # every denominator is a power of two: scale all to the largest
        den = max(d for _, d in exact)
        scaled = [num * (den // d) for num, d in exact]
        choice[k] = int(cand[scaled.index(max(scaled))])
    return choice


def menu_to_mechanism(menu: Menu, types: Sequence[TypePoint], domain_tag: str) -> Mechanism:
    """Mechanism induced by letting each type pick its best menu item.

    Utility ties break toward the lowest item index, so item order in the
    menu helps determine the induced mechanism.  Choice
    follows exact rational utilities (see `menu_choice_indices`); induced
    mechanisms are truthful and individually rational exactly in rational
    arithmetic, and float audits see at worst a few ulp of rounding noise.
    """
    types = [tuple(float(x) for x in v) for v in types]
    V = np.asarray(types, dtype=float)
    A = np.asarray([a for a, _ in menu.items], dtype=float)
    p = np.asarray([pr for _, pr in menu.items], dtype=float)
    if V.shape[1] != menu.n:
        raise ValueError("type length does not match menu allocation length")
    choice = menu_choice_indices(V, A, p)
    q = A[choice]
    t = p[choice]
    return Mechanism(types=tuple(types), q=q, t=t, domain_tag=domain_tag)


def expected_revenue(mech: Mechanism, dist) -> float:
    """Sum of weight(v) * t(v) over the distribution's support.

    The distribution's types must all appear in the mechanism's domain;
    the mechanism may be defined on a larger type list.
    """
    total = 0.0
    for v, w in zip(dist.types, dist.weights):
        if w == 0.0:
            continue
        total += float(w) * mech.t_at(v)
    return total


def revenue_by_cell(mech: Mechanism, dist) -> dict:
    """Revenue contribution per ordering cell, strict types only.

    Returns {sigma: sum of weight(v) t(v) over strict v in the cell of
    sigma}.  Tied profiles contribute to no cell, so the values sum to
    the strict-support revenue.
    """
    from .typespace import all_permutations, cell_of, is_strict

    out = {sigma: 0.0 for sigma in all_permutations(mech.n)}
    for v, w in zip(dist.types, dist.weights):
        if not is_strict(v):
            continue
        out[cell_of(v)] += float(w) * mech.t_at(v)
    return out


# ---------------------------------------------------------------------------
# serialization

def write_mechanism_csv(mech: Mechanism, path) -> None:
    """Tabular dump: v_1..v_n, q_1..q_n, t.  Full float repr round-trips."""
    n = mech.n
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"v_{i+1}" for i in range(n)] + [f"q_{i+1}" for i in range(n)] + ["t"])
        for k, v in enumerate(mech.types):
            w.writerow([repr(x) for x in v] + [repr(float(x)) for x in mech.q[k]] + [repr(float(mech.t[k]))])


def read_mechanism_csv(path, domain_tag: str) -> Mechanism:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    n = sum(1 for h in header if h.startswith("v_"))
    types, qs, ts = [], [], []
    for row in rows[1:]:
        vals = [float(x) for x in row]
        types.append(tuple(vals[:n]))
        qs.append(vals[n:2 * n])
        ts.append(vals[2 * n])
    return Mechanism(types=tuple(types), q=qs, t=ts, domain_tag=domain_tag)
