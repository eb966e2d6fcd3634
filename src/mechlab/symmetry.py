"""Relabeling symmetry of mechanisms on strict type profiles.

A mechanism is symmetric when relabeling the objects relabels the
allocation and leaves the payment alone: q_i(relabeled v) equals
q_{sigma(i)}(v) and t is relabeling-invariant.  For symmetric mechanisms,
global truthfulness decomposes into an order condition (higher-valued
objects get weakly more) plus truthfulness within each ordering cell;
`certify_theorem1` checks both directions of that equivalence on a
concrete mechanism.

Three constructions move mechanisms between domains:

* `symmetric_extension` spreads a sorted-domain mechanism over all strict
  profiles by relabeling.
* `restrict_to_cell` pulls a heterogeneous mechanism back to the sorted
  domain along one cell.
* `symmetrize` averages a mechanism over all relabelings.  The average is
  computed once per sorted representative and then spread by exact value
  copies, so the output is symmetric under exact float equality, not just
  within tolerance.

Relabelings are read off one table per mechanism (`_relabel_table`):
for every profile and permutation, the index of the relabeled profile.
`is_symmetric`, `symmetric_extension`, `restrict_to_cell` and
`symmetrize` compare and copy whole rows through it.
"""

from __future__ import annotations

import numpy as np

from .mech import (
    AuditReport,
    DEFAULT_TOL,
    Mechanism,
    _report,
    check_ic,
    ic_gains,
)
from .typespace import (
    HETEROGENEOUS,
    IDENTICAL,
    all_permutations,
    inverse_permutation,
    is_strict,
    sort_descending,
)


def _require_strict(mech: Mechanism, op: str) -> None:
    for v in mech.types:
        if not is_strict(v):
            raise ValueError(f"{op} needs strict profiles; {v} has ties")


def _relabel_table(V: np.ndarray, index: dict) -> np.ndarray:
    """table[k, p]: the value of `index` at row k of the profile matrix V
    relabeled by all_permutations(n)[p] (the identity is p = 0), -1
    where the relabeled profile is absent."""
    T, n = V.shape
    perms = all_permutations(n)
    relabeled = V[:, perms].reshape(-1, n)
    found = [index.get(v, -1) for v in map(tuple, relabeled.tolist())]
    return np.array(found, dtype=int).reshape(T, len(perms))


def _require_orbit_closed(mech: Mechanism, op: str) -> np.ndarray:
    """The `_relabel_table` of the mechanism's own profiles; ValueError
    at the first profile with a relabeling outside the domain."""
    table = _relabel_table(mech.V, mech._index)
    missing = (table < 0).any(axis=1)
    if missing.any():
        v = mech.types[int(np.argmax(missing))]
        raise ValueError(f"{op} needs an orbit-closed domain; missing relabeling of {v}")
    return table


def is_symmetric(mech: Mechanism, tol: float = 0.0) -> AuditReport:
    """Audit q_i(v relabeled by sigma) == q_{sigma(i)}(v) and payment
    invariance, over every strict profile and permutation.

    Default tolerance is exact equality: the constructions in this module
    produce symmetry by value copying, so demanding bitwise agreement is
    both meaningful and achievable.  Violations come profile by profile,
    then permutation by permutation, the payment before the allocation
    coordinates.
    """
    _require_strict(mech, "is_symmetric")
    at = _require_orbit_closed(mech, "is_symmetric")[:, 1:]
    sigmas = all_permutations(mech.n)[1:]
    perms = np.asarray(sigmas, dtype=int).reshape(-1, mech.n)
    dt = np.abs(mech.t[at] - mech.t[:, None])
    dq = np.abs(mech.q[at] - mech.q[:, perms])
    dev = np.concatenate([dt[:, :, None], dq], axis=2)
    violations = []
    for k, p, i in zip(*np.nonzero(dev > tol)):
        v, sigma = mech.types[k], sigmas[p]
        key = (v, sigma, "t") if i == 0 else (v, sigma, "q", int(i) - 1)
        violations.append((key, float(dev[k, p, i])))
    return _report("symmetric", violations)


def is_rank_preserving(mech: Mechanism, tol: float = DEFAULT_TOL) -> AuditReport:
    """Audit v_i > v_j implies q_i(v) >= q_j(v) - tol on every profile.
    Violations come profile by profile, then by i, then by j."""
    V, q = mech.V, mech.q
    # gap[k, i, j] = q_j(v) - q_i(v) at profile k
    gap = q[:, None, :] - q[:, :, None]
    k, i, j = np.nonzero((V[:, :, None] > V[:, None, :]) & (gap > tol))
    hits = zip(k.tolist(), i.tolist(), j.tolist(), gap[k, i, j].tolist())
    violations = [((mech.types[a], b, c), s) for a, b, c, s in hits]
    return _report("rank_preserving", violations)


def check_ic_on_cells(mech: Mechanism, tol: float = DEFAULT_TOL) -> AuditReport:
    """Truthfulness restricted to misreports within the same ordering cell.

    On an identical (sorted) domain every profile shares one cell, so this
    coincides with the full audit there.  Violations come in row-major
    order of (report, misreport); `n_pairs` counts the ordered pairs of
    distinct profiles in one cell.
    """
    _require_strict(mech, "check_ic_on_cells")
    # a strict profile's cell is the order of its coordinates, here as
    # the index of that order among the distinct orders
    order = np.argsort(-mech.V, axis=1)
    cell = np.unique(order, axis=0, return_inverse=True)[1].ravel()
    same = cell[:, None] == cell[None, :]
    np.fill_diagonal(same, False)
    gain = ic_gains(mech)
    i, j = np.nonzero(same & (gain > tol))
    hits = zip(i.tolist(), j.tolist(), gain[i, j].tolist())
    violations = [((mech.types[a], mech.types[b]), s) for a, b, s in hits]
    return _report("ic_on_cells", violations, info={"n_pairs": int(np.count_nonzero(same))})


def symmetric_extension(mech: Mechanism) -> Mechanism:
    """Spread a sorted strict-domain mechanism over all relabelings.

    At a strict profile v with sorting permutation sigma and sorted image
    w, object sigma(i) inherits allocation coordinate i of w, and the
    payment is copied:  q_ext[sigma[i]](v) = q[i](w),  t_ext(v) = t(w).
    Values are copied bit-for-bit, so the output is exactly symmetric.
    """
    if mech.domain_tag != IDENTICAL:
        raise ValueError("symmetric_extension expects an identical-domain mechanism")
    _require_strict(mech, "symmetric_extension")
    # w is strictly decreasing, so w relabeled by p sorts by inverse(p)
    # and its allocation is q(w) relabeled by p
    perms = all_permutations(mech.n)
    V = mech.V
    types = sorted(set(map(tuple, V[:, perms].reshape(-1, mech.n).tolist())))
    at = _relabel_table(V, {v: k for k, v in enumerate(types)})
    q = np.zeros((len(types), mech.n))
    t = np.zeros(len(types))
    q[at] = mech.q[:, perms]
    t[at] = mech.t[:, None]
    return Mechanism(types=tuple(types), q=q, t=t, domain_tag=HETEROGENEOUS)


def restrict_to_cell(mech: Mechanism, sigma) -> Mechanism:
    """Pull a heterogeneous mechanism back to the sorted domain along one
    ordering cell: read the mechanism at v = (w relabeled into the cell)
    and store object sigma(i)'s allocation as sorted coordinate i.

    The result tabulates whatever the cell contained; it may well violate
    the identical-domain allocation order, which the feasibility audit
    then flags.
    """
    if mech.domain_tag != HETEROGENEOUS:
        raise ValueError("restrict_to_cell expects a heterogeneous-domain mechanism")
    _require_strict(mech, "restrict_to_cell")
    table = _require_orbit_closed(mech, "restrict_to_cell")
    sigma = tuple(sigma)
    inv = inverse_permutation(sigma)
    perms = all_permutations(mech.n)
    if inv not in perms:
        raise ValueError(f"not a permutation of length {mech.n}: {inv}")
    reps = sorted({sort_descending(v) for v in mech.types})
    # v = w relabeled by inv, through the table
    at = table[[mech.index_of(w) for w in reps], perms.index(inv)]
    q = mech.q[at][:, list(sigma)]
    return Mechanism(types=tuple(reps), q=q, t=mech.t[at], domain_tag=IDENTICAL)


def symmetrize(mech: Mechanism) -> Mechanism:
    """Average the mechanism over all object relabelings.

    The average of the relabeled copies is symmetric and, for truthful
    input, truthful (the truthful set is convex).  Under any exchangeable
    distribution it earns the same revenue as the input.  To make the
    output exactly symmetric in floats, the average is evaluated only at
    sorted representatives (permutations enumerated in a fixed order) and
    spread to the rest of each orbit by `symmetric_extension`.
    """
    if mech.domain_tag != HETEROGENEOUS:
        raise ValueError("symmetrize expects a heterogeneous-domain mechanism")
    _require_strict(mech, "symmetrize")
    table = _require_orbit_closed(mech, "symmetrize")
    perms = all_permutations(mech.n)
    reps = sorted({sort_descending(v) for v in mech.types})
    at = table[[mech.index_of(w) for w in reps]]
    # summed permutation by permutation, in the order of `perms`
    acc_q = np.zeros((len(reps), mech.n))
    acc_t = np.zeros(len(reps))
    for p, sigma in enumerate(perms):
        acc_q += mech.q[at[:, p]][:, inverse_permutation(sigma)]
        acc_t += mech.t[at[:, p]]
    scale = 1.0 / len(perms)
    q = acc_q * scale
    t = acc_t * scale
    on_sorted = Mechanism(types=tuple(reps), q=q, t=t, domain_tag=IDENTICAL)
    return symmetric_extension(on_sorted)


def certify_theorem1(mech: Mechanism, tol: float = DEFAULT_TOL) -> AuditReport:
    """For a symmetric mechanism, check both directions of the equivalence

        globally truthful  <=>  rank preserving  and  truthful per cell.

    Returns a passing report when the two sides agree (both hold or both
    fail); a violation means the equivalence itself broke, with the
    sub-reports as evidence.  Non-symmetric input is a usage error
    because the equivalence is only asserted for symmetric mechanisms.
    """
    sym = is_symmetric(mech)
    if not sym.passed:
        raise ValueError("certify_theorem1 needs a symmetric mechanism")
    ic_global = check_ic(mech, tol=tol)
    rp = is_rank_preserving(mech, tol=tol)
    ic_cells = check_ic_on_cells(mech, tol=tol)
    lhs = ic_global.passed
    rhs = rp.passed and ic_cells.passed
    info = {
        "ic_global": ic_global,
        "rank_preserving": rp,
        "ic_on_cells": ic_cells,
        "equivalence_holds": lhs == rhs,
    }
    violations = []
    if lhs != rhs:
        side = "ic-holds-but-decomposition-fails" if lhs else "decomposition-holds-but-ic-fails"
        violations.append(((side,), 1.0))
    return _report("theorem1_equivalence", violations, info=info)

