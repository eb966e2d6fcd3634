"""Valuation grids, permutations, and ordering cells of strict type profiles.

A type profile is a tuple of per-object values.  Two domains appear
throughout: the "heterogeneous" domain (every grid point) and the
"identical" domain (weakly decreasing profiles only).  Profiles with
pairwise-distinct coordinates are called strict; the strict profiles are
partitioned into cells, one per permutation, according to which coordinate
order sorts them in strictly decreasing order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

TypePoint = tuple[float, ...]
Permutation = tuple[int, ...]

IDENTICAL = "identical"
HETEROGENEOUS = "heterogeneous"


@dataclass(frozen=True)
class Grid:
    """Finite value grid: ``n`` objects, shared coordinate levels.

    Attributes
    ----------
    n : int
        Number of objects (profile length).
    levels : tuple of float
        Strictly increasing coordinate levels.  Every profile coordinate
        is drawn from this tuple, so float equality on coordinates is
        exact by construction.
    v_low, v_high : float
        Domain bounds; levels must lie inside ``[v_low, v_high]``.
    """

    n: int
    levels: tuple[float, ...]
    v_low: float
    v_high: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not all(map(math.isfinite, (*self.levels, self.v_low, self.v_high))):
            raise ValueError("levels, v_low and v_high must be finite")
        if len(self.levels) < 2:
            raise ValueError("grid needs at least 2 levels")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")
        if not (0.0 <= self.v_low < self.v_high):
            raise ValueError(f"need 0 <= v_low < v_high, got [{self.v_low}, {self.v_high}]")
        if self.levels[0] < self.v_low or self.levels[-1] > self.v_high:
            raise ValueError("levels outside [v_low, v_high]")

    @classmethod
    def uniform(cls, n: int, v_low: float, v_high: float, points: int) -> "Grid":
        """Evenly spaced grid with `points` levels spanning [v_low, v_high]."""
        if points < 2:
            raise ValueError("need at least 2 points")
        step = (v_high - v_low) / (points - 1)
        levels = tuple(v_low + i * step for i in range(points - 1)) + (v_high,)
        return cls(n=n, levels=levels, v_low=v_low, v_high=v_high)

    @classmethod
    def explicit(cls, n: int, levels, v_low: float | None = None, v_high: float | None = None) -> "Grid":
        lv = tuple(float(x) for x in levels)
        lo = lv[0] if v_low is None else float(v_low)
        hi = lv[-1] if v_high is None else float(v_high)
        return cls(n=n, levels=lv, v_low=lo, v_high=hi)

    @property
    def m(self) -> int:
        return len(self.levels)


def is_strict(v: TypePoint) -> bool:
    """True when all coordinates of `v` are pairwise distinct."""
    return len(set(v)) == len(v)


def is_weakly_decreasing(v: TypePoint) -> bool:
    return all(a >= b for a, b in zip(v, v[1:]))


def is_strictly_decreasing(v: TypePoint) -> bool:
    return all(a > b for a, b in zip(v, v[1:]))


def enumerate_hetero(grid: Grid, strict_only: bool = False):
    """All grid profiles in lexicographic order; optionally strict ones only."""
    out = [p for p in itertools.product(grid.levels, repeat=grid.n)]
    if strict_only:
        out = [p for p in out if is_strict(p)]
    return out


def enumerate_identical(grid: Grid, strict_only: bool = False):
    """Weakly decreasing grid profiles in lexicographic order.

    With ``strict_only`` the result is the strictly decreasing profiles,
    i.e. one representative per ordering cell orbit.
    """
    if strict_only:
        combos = itertools.combinations(grid.levels, grid.n)
    else:
        combos = itertools.combinations_with_replacement(grid.levels, grid.n)
    out = [tuple(reversed(c)) for c in combos]
    out.sort()
    return out


def identity_permutation(n: int) -> Permutation:
    return tuple(range(n))


def all_permutations(n: int):
    """All permutations of range(n), lexicographic.  n! grows fast; n <= 6 expected."""
    return [tuple(p) for p in itertools.permutations(range(n))]


def apply_permutation(v: TypePoint, sigma: Permutation) -> TypePoint:
    """Relabeled profile w with w[j] = v[sigma[j]]."""
    if len(sigma) != len(v) or sorted(sigma) != list(range(len(v))):
        raise ValueError(f"not a permutation of length {len(v)}: {sigma}")
    return tuple(v[j] for j in sigma)


def inverse_permutation(sigma: Permutation) -> Permutation:
    inv = [0] * len(sigma)
    for j, s in enumerate(sigma):
        inv[s] = j
    return tuple(inv)


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """Composition c with apply(v, c) == apply(apply(v, sigma), tau)."""
    if len(sigma) != len(tau):
        raise ValueError("length mismatch")
    return tuple(sigma[t] for t in tau)


def cell_of(v: TypePoint) -> Permutation:
    """The permutation sigma whose cell contains strict profile `v`.

    Characterized by: apply(v, sigma) is strictly decreasing.  Raises
    ValueError on tied coordinates (ties belong to no cell).
    """
    if not is_strict(v):
        raise ValueError(f"tied coordinates, profile belongs to no cell: {v}")
    return tuple(sorted(range(len(v)), key=lambda i: -v[i]))


def sort_descending(v: TypePoint) -> TypePoint:
    """Coordinates of `v` in weakly decreasing order."""
    return tuple(sorted(v, reverse=True))
