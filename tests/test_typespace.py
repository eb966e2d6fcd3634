"""Grid, permutation, and cell tests, including the partition property."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlab.typespace import (
    Grid,
    all_permutations,
    apply_permutation,
    cell_of,
    compose,
    enumerate_hetero,
    enumerate_identical,
    identity_permutation,
    inverse_permutation,
    is_strict,
    is_strictly_decreasing,
    is_weakly_decreasing,
    sort_descending,
)


def test_uniform_grid_levels():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    assert g.levels == (0.0, 0.5, 1.0)
    assert g.m == 3


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid.uniform(n=0, v_low=0.0, v_high=1.0, points=3)
    with pytest.raises(ValueError):
        Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=1)
    with pytest.raises(ValueError):
        Grid.explicit(n=2, levels=[0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        Grid.explicit(n=2, levels=[0.0, 1.0], v_low=0.2)
    with pytest.raises(ValueError):
        Grid(n=2, levels=(0.0, 1.0), v_low=-0.5, v_high=1.0)
    with pytest.raises(ValueError, match="must be finite"):
        Grid(n=2, levels=(0.0, math.nan, 1.0), v_low=0.0, v_high=math.inf)


def test_enumerate_hetero_counts():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    allt = enumerate_hetero(g)
    assert len(allt) == 9
    assert allt == sorted(allt)  # lexicographic
    strict = enumerate_hetero(g, strict_only=True)
    assert len(strict) == 6
    assert all(is_strict(v) for v in strict)


def test_enumerate_identical_counts():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    weak = enumerate_identical(g)
    assert len(weak) == 6  # multisets of size 2 from 3 levels
    assert all(is_weakly_decreasing(v) for v in weak)
    assert weak == sorted(weak)
    strict = enumerate_identical(g, strict_only=True)
    assert strict == [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5)]


def test_apply_permutation_example():
    # relabeling (0.2, 0.9, 0.5) by the map j -> v[sigma[j]] with
    # sigma = (2, 0, 1) gives (0.5, 0.2, 0.9)
    assert apply_permutation((0.2, 0.9, 0.5), (2, 0, 1)) == (0.5, 0.2, 0.9)
    with pytest.raises(ValueError):
        apply_permutation((1.0, 2.0), (0, 0))


def test_cell_of_sorts_descending():
    v = (0.2, 0.9, 0.5)
    sigma = cell_of(v)
    assert sigma == (1, 2, 0)
    assert apply_permutation(v, sigma) == (0.9, 0.5, 0.2)
    with pytest.raises(ValueError):
        cell_of((0.5, 0.5, 0.1))


def test_cells_partition_strict_types():
    # every strict profile lies in exactly one cell, verified by the
    # sorting characterization over a full small grid
    g = Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=4)
    strict = enumerate_hetero(g, strict_only=True)
    perms = all_permutations(3)
    for v in strict:
        homes = [s for s in perms if is_strictly_decreasing(apply_permutation(v, s))]
        assert homes == [cell_of(v)]
    # counting: cells are equal-sized orbit slices
    from collections import Counter

    counts = Counter(cell_of(v) for v in strict)
    assert set(counts) == set(perms)
    assert len(set(counts.values())) == 1


def test_identity_and_inverse():
    assert identity_permutation(3) == (0, 1, 2)
    sigma = (2, 0, 1)
    inv = inverse_permutation(sigma)
    v = (1.0, 2.0, 3.0)
    assert apply_permutation(apply_permutation(v, sigma), inv) == v
    assert compose(sigma, inv) == identity_permutation(3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(0, 10, allow_nan=False), min_size=n, max_size=n, unique=True
            ),
            st.permutations(list(range(n))),
            st.permutations(list(range(n))),
        )
    )
)
def test_permutation_roundtrip_and_compose(data):
    vals, sigma, tau = data
    v = tuple(vals)
    sigma, tau = tuple(sigma), tuple(tau)
    assert apply_permutation(apply_permutation(v, sigma), inverse_permutation(sigma)) == v
    lhs = apply_permutation(v, compose(sigma, tau))
    rhs = apply_permutation(apply_permutation(v, sigma), tau)
    assert lhs == rhs


def test_sort_descending():
    assert sort_descending((0.2, 0.9, 0.5)) == (0.9, 0.5, 0.2)
    assert sort_descending((1.0, 1.0)) == (1.0, 1.0)


def test_all_permutations_deterministic_order():
    perms = all_permutations(3)
    assert perms == sorted(perms)
    assert len(perms) == 6
    assert perms == [tuple(p) for p in itertools.permutations(range(3))]
