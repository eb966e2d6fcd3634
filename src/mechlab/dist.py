"""Probability mass on type grids: marginals, shifts, and density checks.

Distributions are finite tables (type, weight).  The module covers the
constructions the experiments need: i.i.d. products, restriction to
strict profiles, exchangeability certification, the bridge from
exchangeable heterogeneous mass to identical-domain mass, per-coordinate
marginals and their average, the most-correlated (diagonal) distribution
with a given average marginal, first-order stochastic shifts, and a
pointwise density condition ((n+1) f + v.grad f >= 0) that marks densities
whose revenue-optimal mechanisms behave monotonically under such shifts.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mech import AuditReport, _report
from .typespace import (
    HETEROGENEOUS,
    IDENTICAL,
    Grid,
    TypePoint,
    all_permutations,
    apply_permutation,
    enumerate_hetero,
    enumerate_identical,
    is_strict,
    sort_descending,
)

WEIGHT_SUM_TOL = 1e-12
EXCHANGEABLE_TOL = 1e-9
TIE_MASS_TOL = 1e-12
MCAFEE_TOL = 1e-9


class DistributionError(ValueError):
    """Malformed distribution data."""


@dataclass(frozen=True)
class Distribution:
    """Weights over an explicit type list.

    Invariants: weights nonnegative (within 1e-12 noise) and summing to
    one within 1e-12; no duplicate types; identical-domain types sorted.
    """

    types: tuple[TypePoint, ...]
    weights: np.ndarray
    domain_tag: str

    def __post_init__(self) -> None:
        types = tuple(tuple(float(x) for x in v) for v in self.types)
        object.__setattr__(self, "types", types)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(types),):
            raise DistributionError(f"weights shape {w.shape} != ({len(types)},)")
        if len(types) == 0:
            raise DistributionError("empty support")
        if not (np.isfinite(w).all() and all(map(math.isfinite, itertools.chain(*types)))):
            raise DistributionError("types and weights must be finite")
        if len(set(types)) != len(types):
            raise DistributionError("duplicate types")
        if np.any(w < -WEIGHT_SUM_TOL):
            raise DistributionError(f"negative weight {w.min()}")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise DistributionError(f"weights sum to {w.sum()!r}, not 1")
        if self.domain_tag not in (IDENTICAL, HETEROGENEOUS):
            raise DistributionError(f"unknown domain_tag {self.domain_tag!r}")
        if self.domain_tag == IDENTICAL:
            for v in types:
                if any(a < b for a, b in zip(v, v[1:])):
                    raise DistributionError(f"identical domain requires sorted profiles: {v}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_index", {v: k for k, v in enumerate(types)})

    @property
    def n(self) -> int:
        return len(self.types[0])

    def weight_of(self, v: TypePoint) -> float:
        k = self._index.get(tuple(v))
        return 0.0 if k is None else float(self.weights[k])


@dataclass(frozen=True)
class MarginalCdf:
    """One-dimensional cdf tabulated at grid levels."""

    levels: tuple[float, ...]
    cdf: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(x) for x in self.levels)
        cdf = tuple(float(x) for x in self.cdf)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "cdf", cdf)
        if len(levels) != len(cdf) or not levels:
            raise DistributionError("levels/cdf length mismatch")
        if not all(map(math.isfinite, levels + cdf)):
            raise DistributionError("levels and cdf must be finite")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DistributionError("levels must be strictly increasing")
        if any(b < a - WEIGHT_SUM_TOL for a, b in zip(cdf, cdf[1:])):
            raise DistributionError("cdf must be nondecreasing")
        if abs(cdf[-1] - 1.0) > WEIGHT_SUM_TOL:
            raise DistributionError(f"cdf must end at 1, got {cdf[-1]!r}")

    @classmethod
    def from_pmf(cls, levels: Sequence[float], pmf: Sequence[float]) -> "MarginalCdf":
        cdf = np.cumsum(np.asarray(pmf, dtype=float))
        return cls(levels=tuple(levels), cdf=tuple(cdf.tolist()))

    def pmf(self) -> np.ndarray:
        return np.diff(np.asarray(self.cdf), prepend=0.0)

    def mass_at_or_above(self, x: float) -> float:
        """1 - cdf(x-), the buying probability at a posted price x."""
        below = [c for lv, c in zip(self.levels, self.cdf) if lv < x]
        return 1.0 - (below[-1] if below else 0.0)


def table_distribution(types, weights, domain_tag) -> Distribution:
    return Distribution(
        types=tuple(tuple(v) for v in types),
        weights=np.asarray(weights, dtype=float),
        domain_tag=domain_tag,
    )


def uniform_distribution(types, domain_tag) -> Distribution:
    T = len(types)
    if T == 0:
        raise DistributionError("empty support")
    return table_distribution(types, np.full(T, 1.0 / T), domain_tag)


def iid_distribution(marginal: MarginalCdf, n: int) -> Distribution:
    """Product of `n` independent copies of the marginal, all grid points.

    Exchangeable by construction: the weight of a profile is a product of
    per-level factors, invariant under coordinate relabeling (float
    multiplication is commutative, so invariance is exact)."""
    pmf = marginal.pmf()
    types = []
    weights = []
    for combo in itertools.product(range(len(marginal.levels)), repeat=n):
        types.append(tuple(marginal.levels[i] for i in combo))
        w = 1.0
        for i in sorted(combo):  # fixed factor order: exact exchangeability
            w *= float(pmf[i])
        weights.append(w)
    return table_distribution(types, weights, HETEROGENEOUS)


def restrict_to_strict(dist: Distribution) -> Distribution:
    """Condition on pairwise-distinct coordinates, renormalizing.

    Conditioning on a relabeling-invariant event preserves
    exchangeability."""
    keep = [(v, w) for v, w in zip(dist.types, dist.weights) if is_strict(v)]
    if not keep:
        raise DistributionError("no strict types in support")
    total = math.fsum(w for _, w in keep)
    if total <= 0.0:
        raise DistributionError("strict types carry zero mass")
    types = [v for v, _ in keep]
    weights = [w / total for _, w in keep]
    return table_distribution(types, weights, dist.domain_tag)


def mixture(dists: Sequence[Distribution], coeffs: Sequence[float]) -> Distribution:
    """Convex combination; support is the union of component supports."""
    if len(dists) != len(coeffs) or not dists:
        raise DistributionError("need matching nonempty dists/coeffs")
    if any(c < 0 for c in coeffs) or abs(math.fsum(coeffs) - 1.0) > WEIGHT_SUM_TOL:
        raise DistributionError("mixture coefficients must be a probability vector")
    tag = dists[0].domain_tag
    if any(d.domain_tag != tag for d in dists):
        raise DistributionError("mixture components on different domains")
    support = sorted({v for d in dists for v in d.types})
    weights = [
        math.fsum(c * d.weight_of(v) for c, d in zip(coeffs, dists)) for v in support
    ]
    return table_distribution(support, weights, tag)


def is_exchangeable(dist: Distribution, tol: float = EXCHANGEABLE_TOL) -> AuditReport:
    """Relabeling invariance: weight(v relabeled) == weight(v), all perms.

    Profiles missing from the type list count as weight zero."""
    violations = []
    perms = all_permutations(dist.n)
    for v, w in zip(dist.types, dist.weights):
        for sigma in perms[1:]:
            vs = apply_permutation(v, sigma)
            gap = abs(float(w) - dist.weight_of(vs))
            if gap > tol:
                violations.append(((v, sigma), gap))
    return _report("exchangeable", violations)


def to_identical_density(dist: Distribution, tol: float = EXCHANGEABLE_TOL) -> Distribution:
    """Fold exchangeable strict-support heterogeneous mass onto sorted
    representatives: the sorted point's new weight is n! times its old
    weight (equivalently, its orbit's total mass).

    Errors when the input is not exchangeable within `tol` or puts more
    than negligible mass on tied profiles."""
    if dist.domain_tag != HETEROGENEOUS:
        raise DistributionError("expected a heterogeneous-domain distribution")
    ex = is_exchangeable(dist, tol=tol)
    if not ex.passed:
        raise DistributionError(
            f"not exchangeable within {tol}: worst gap {ex.max_slack}"
        )
    tied = math.fsum(
        w for v, w in zip(dist.types, dist.weights) if not is_strict(v)
    )
    if tied > TIE_MASS_TOL:
        raise DistributionError(f"tied profiles carry mass {tied}")
    fact = math.factorial(dist.n)
    reps = sorted({sort_descending(v) for v in dist.types if is_strict(v)})
    weights = [fact * dist.weight_of(r) for r in reps]
    return table_distribution(reps, weights, IDENTICAL)


def marginals(dist: Distribution) -> list[MarginalCdf]:
    """Per-coordinate cdfs over the union of observed levels."""
    levels = sorted({x for v in dist.types for x in v})
    out = []
    for i in range(dist.n):
        pmf = [
            math.fsum(w for v, w in zip(dist.types, dist.weights) if v[i] == lv)
            for lv in levels
        ]
        out.append(MarginalCdf.from_pmf(levels, pmf))
    return out


def average_marginal(dist: Distribution) -> MarginalCdf:
    """Coordinate-averaged marginal cdf (equal weight per coordinate)."""
    ms = marginals(dist)
    n = dist.n
    cdf = [math.fsum(m.cdf[k] for m in ms) / n for k in range(len(ms[0].levels))]
    return MarginalCdf(levels=ms[0].levels, cdf=tuple(cdf))


def comonotone_fmin(g_avg: MarginalCdf, n: int) -> Distribution:
    """Perfectly correlated distribution with average marginal `g_avg`:
    all mass on the diagonal, weight g_avg-increment at (x, ..., x).

    Among distributions with that average marginal this one is the
    pointwise-lowest joint cdf, i.e. the most pessimistic correlation."""
    types = [tuple([lv] * n) for lv in g_avg.levels]
    return table_distribution(types, g_avg.pmf(), IDENTICAL)


def one_step_map(levels: Sequence[float]) -> dict:
    """Shift each level to the next one up; the top level stays put."""
    levels = list(levels)
    return {
        lv: (levels[i + 1] if i + 1 < len(levels) else lv)
        for i, lv in enumerate(levels)
    }


def fosd_shift(dist: Distribution, shift_map) -> Distribution:
    """Pushforward along a weakly-increasing level map (one map for all
    coordinates, or a sequence of per-coordinate maps).

    A shared map preserves exchangeability; per-coordinate maps generally
    do not.  Every image profile must already be in the type list, so the
    result stays on the same support enumeration."""
    n = dist.n
    if isinstance(shift_map, dict):
        maps = [shift_map] * n
    else:
        maps = list(shift_map)
        if len(maps) != n:
            raise DistributionError(f"need {n} per-coordinate maps, got {len(maps)}")
    for mp in maps:
        for src, dst in mp.items():
            if dst < src:
                raise DistributionError(f"shift map decreases {src} -> {dst}")
    acc = {v: 0.0 for v in dist.types}
    for v, w in zip(dist.types, dist.weights):
        img = tuple(maps[i].get(v[i], v[i]) for i in range(n))
        if img not in acc:
            raise DistributionError(f"shift image {img} not in the type list")
        acc[img] += float(w)
    weights = [acc[v] for v in dist.types]
    return table_distribution(dist.types, weights, dist.domain_tag)


def embed(dist: Distribution, types: Sequence[TypePoint]) -> np.ndarray:
    """Weight vector aligned to `types`; support must be contained in it."""
    index = {tuple(v): k for k, v in enumerate(types)}
    out = np.zeros(len(types))
    for v, w in zip(dist.types, dist.weights):
        if w == 0.0:
            continue
        k = index.get(v)
        if k is None:
            raise DistributionError(f"support point {v} missing from target types")
        out[k] = float(w)
    return out


# ---------------------------------------------------------------------------
# densities on grids

def density_grid(grid: Grid, expr: str, params: dict | None = None) -> np.ndarray:
    """Named density evaluated on the full grid, shape (m,) * n, axis i
    indexing coordinate i over ascending levels.  Unnormalized."""
    params = params or {}
    axes = np.meshgrid(*([np.asarray(grid.levels)] * grid.n), indexing="ij")
    if expr == "uniform":
        return np.ones_like(axes[0])
    if expr == "exp_rate":
        a = float(params.get("a", 1.0))
        return np.exp(-a * sum(axes))
    if expr == "beta":
        a = float(params.get("a", 2.0))
        b = float(params.get("b", 2.0))
        if a < 1.0 or b < 1.0:
            raise DistributionError("beta density on a closed grid needs a, b >= 1")
        out = np.ones_like(axes[0])
        for ax in axes:
            out = out * np.power(ax, a - 1.0) * np.power(1.0 - ax, b - 1.0)
        return out
    raise DistributionError(f"unknown density expr {expr!r}")


def distribution_from_density(
    grid: Grid, density: np.ndarray, strict_only: bool = False
) -> Distribution:
    """Normalize grid density values into a heterogeneous distribution."""
    density = np.asarray(density, dtype=float)
    expected = (grid.m,) * grid.n
    if density.shape != expected:
        raise DistributionError(f"density shape {density.shape} != {expected}")
    if np.any(density < 0):
        raise DistributionError("negative density")
    types = enumerate_hetero(grid)
    level_index = {lv: i for i, lv in enumerate(grid.levels)}
    vals = []
    kept = []
    for v in types:
        if strict_only and not is_strict(v):
            continue
        kept.append(v)
        vals.append(float(density[tuple(level_index[x] for x in v)]))
    total = math.fsum(vals)
    if total <= 0:
        raise DistributionError("density sums to zero on the requested support")
    return table_distribution(kept, [x / total for x in vals], HETEROGENEOUS)


def identical_distribution_from_density(grid: Grid, density: np.ndarray) -> Distribution:
    """Fold an exchangeable grid density onto sorted profiles, ties kept.

    A sorted profile's weight is its density value times the number of
    distinct rearrangements of its coordinates, then normalized.
    """
    density = np.asarray(density, dtype=float)
    expected = (grid.m,) * grid.n
    if density.shape != expected:
        raise DistributionError(f"density shape {density.shape} != {expected}")
    if np.any(density < 0):
        raise DistributionError("negative density")
    level_index = {lv: i for i, lv in enumerate(grid.levels)}
    types = enumerate_identical(grid)
    vals = []
    for w in types:
        mult = math.factorial(grid.n)
        for cnt in Counter(w).values():
            mult //= math.factorial(cnt)
        vals.append(mult * float(density[tuple(level_index[x] for x in w)]))
    total = math.fsum(vals)
    if total <= 0:
        raise DistributionError("density sums to zero on the grid")
    return table_distribution(types, [x / total for x in vals], IDENTICAL)


def check_mcafee_mcmillan(
    density: np.ndarray, grid: Grid, tol: float = MCAFEE_TOL
) -> AuditReport:
    """Grid check of the pointwise condition (n+1) f(v) + v . grad f(v) >= 0.

    Gradients use central differences in the interior and one-sided
    differences at the boundary (numpy.gradient with explicit level
    coordinates).  Needs at least 3 levels per axis.  Violations list the
    grid point and how negative the expression is."""
    density = np.asarray(density, dtype=float)
    if grid.m < 3:
        raise DistributionError("need at least 3 levels per axis for differences")
    expected = (grid.m,) * grid.n
    if density.shape != expected:
        raise DistributionError(f"density shape {density.shape} != {expected}")
    levels = np.asarray(grid.levels)
    total = (grid.n + 1.0) * density
    for axis in range(grid.n):
        grad = np.gradient(density, levels, axis=axis)
        shape = [1] * grid.n
        shape[axis] = grid.m
        total = total + levels.reshape(shape) * grad
    violations = []
    for idx in np.argwhere(total < -tol):
        v = tuple(float(levels[i]) for i in idx)
        violations.append(((v,), float(-total[tuple(idx)])))
    return _report("mcafee_mcmillan", violations, info={"min_value": float(total.min())})
