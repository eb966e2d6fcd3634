"""Seeded random instances for fuzz suites.

Every generator is driven by numpy's default_rng (PCG64), so an integer
seed pins the full instance stream: same seed, same mechanisms, same
distributions, bit for bit.  Menus are the generation primitive because
menu-induced mechanisms are truthful and individually rational at
tolerance zero by construction.
"""

from __future__ import annotations

import numpy as np

from .dist import Distribution, MarginalCdf, iid_distribution, restrict_to_strict
from .mech import Mechanism, Menu, menu_to_mechanism, seller_ordered_menu
from .typespace import (
    Grid,
    HETEROGENEOUS,
    IDENTICAL,
    enumerate_hetero,
    enumerate_identical,
)


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def _menu(rng: np.random.Generator, n: int, max_items: int, draw) -> Menu:
    """Up to max_items items: their count first, then for each item its
    allocation `draw(rng)` and its price."""
    k = int(rng.integers(1, max_items + 1))
    items = [(draw(rng), float(rng.uniform(0.0, 0.9 * n))) for _ in range(k)]
    return seller_ordered_menu(items, n)


def random_menu(rng: np.random.Generator, n: int, max_items: int = 4) -> Menu:
    """Arbitrary allocations in [0,1]^n at prices wide enough that some
    types opt out (flat utility regions are the interesting case)."""
    return _menu(rng, n, max_items, lambda r: tuple(float(x) for x in r.uniform(0.0, 1.0, size=n)))


def random_sorted_menu(rng: np.random.Generator, n: int, max_items: int = 4) -> Menu:
    """Menu whose allocations are weakly decreasing, so the induced
    sorted-domain mechanism satisfies the allocation order."""
    return _menu(rng, n, max_items, lambda r: tuple(
        sorted((float(x) for x in r.uniform(0.0, 1.0, size=n)), reverse=True)))


def random_almost_deterministic_menu(
    rng: np.random.Generator, n: int, max_items: int = 4
) -> Menu:
    """Sorted allocations with at most one fractional coordinate
    (1, .., 1, alpha, 0, .., 0)."""

    def draw(r):
        ones, alpha = int(r.integers(0, n)), float(r.uniform(0.0, 1.0))
        return (1.0,) * ones + (alpha,) + (0.0,) * (n - 1 - ones)

    return _menu(rng, n, max_items, draw)


def random_ic_identical(
    rng: np.random.Generator,
    grid: Grid,
    max_items: int = 4,
    strict_only: bool = False,
    almost_deterministic: bool = False,
) -> Mechanism:
    types = enumerate_identical(grid, strict_only=strict_only)
    if almost_deterministic:
        menu = random_almost_deterministic_menu(rng, grid.n, max_items)
    else:
        menu = random_sorted_menu(rng, grid.n, max_items)
    return menu_to_mechanism(menu, types, IDENTICAL)


def random_ic_heterogeneous(
    rng: np.random.Generator,
    grid: Grid,
    max_items: int = 4,
    strict_only: bool = True,
) -> Mechanism:
    types = enumerate_hetero(grid, strict_only=strict_only)
    menu = random_menu(rng, grid.n, max_items)
    return menu_to_mechanism(menu, types, HETEROGENEOUS)


def random_marginal(rng: np.random.Generator, levels) -> MarginalCdf:
    pmf = rng.dirichlet(np.ones(len(levels)))
    return MarginalCdf.from_pmf(tuple(levels), tuple(float(p) for p in pmf))


def random_exchangeable_strict(rng: np.random.Generator, grid: Grid) -> Distribution:
    """Exchangeable distribution on strict profiles: a random marginal,
    raised to an i.i.d. product, conditioned on no ties."""
    marg = random_marginal(rng, grid.levels)
    return restrict_to_strict(iid_distribution(marg, grid.n))
