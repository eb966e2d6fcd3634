"""Distribution constructions, marginals, shifts, and density diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlab.dist import (
    Distribution,
    DistributionError,
    MarginalCdf,
    average_marginal,
    check_mcafee_mcmillan,
    comonotone_fmin,
    density_grid,
    distribution_from_density,
    embed,
    fosd_shift,
    iid_distribution,
    is_exchangeable,
    marginals,
    mixture,
    one_step_map,
    restrict_to_strict,
    table_distribution,
    to_identical_density,
    uniform_distribution,
)
from mechlab.typespace import Grid, enumerate_hetero, enumerate_identical


def test_distribution_validation():
    with pytest.raises(DistributionError):
        table_distribution([(1.0, 0.0)], [0.5], "identical")  # sums to 0.5
    with pytest.raises(DistributionError):
        table_distribution([(1.0, 0.0), (1.0, 0.0)], [0.5, 0.5], "identical")
    with pytest.raises(DistributionError):
        table_distribution([(0.0, 1.0)], [1.0], "identical")  # unsorted
    with pytest.raises(DistributionError):
        table_distribution([(1.0, 0.0)], [-0.1], "identical")
    with pytest.raises(DistributionError, match="empty support"):
        uniform_distribution([], "heterogeneous")
    with pytest.raises(DistributionError, match="must be finite"):
        table_distribution([(1.0, 0.0), (0.5, 0.5)], [math.nan, 1.0], "identical")
    d = table_distribution([(0.0, 1.0), (1.0, 0.0)], [0.25, 0.75], "heterogeneous")
    assert d.weight_of((1.0, 0.0)) == 0.75
    assert d.weight_of((0.5, 0.5)) == 0.0


def test_distribution_leaves_the_callers_weights_writable():
    w = np.array([0.25, 0.75])
    d = Distribution(types=((0.3,), (0.7,)), weights=w, domain_tag="identical")
    assert w.flags.writeable
    w[0] = 0.5
    assert d.weights[0] == 0.25 and not d.weights.flags.writeable


def test_marginal_cdf_validation_and_pmf():
    m = MarginalCdf.from_pmf([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
    assert m.cdf == (0.2, 0.5, 1.0)
    assert np.allclose(m.pmf(), [0.2, 0.3, 0.5])
    with pytest.raises(DistributionError):
        MarginalCdf(levels=(0.0, 1.0), cdf=(0.5, 0.9))
    with pytest.raises(DistributionError):
        MarginalCdf(levels=(0.0, 0.0), cdf=(0.5, 1.0))
    with pytest.raises(DistributionError, match="must be finite"):
        MarginalCdf.from_pmf([0.0, math.nan], [0.5, 0.5])
    # left-limit convention: buying probability at price x counts mass >= x
    assert m.mass_at_or_above(0.5) == pytest.approx(0.8)
    assert m.mass_at_or_above(0.0) == pytest.approx(1.0)
    assert m.mass_at_or_above(1.0) == pytest.approx(0.5)


def test_iid_product_weights():
    m = MarginalCdf.from_pmf([0.0, 1.0], [0.3, 0.7])
    d = iid_distribution(m, 2)
    assert d.weight_of((0.0, 0.0)) == pytest.approx(0.09)
    assert d.weight_of((0.0, 1.0)) == pytest.approx(0.21)
    assert d.weight_of((1.0, 0.0)) == pytest.approx(0.21)
    assert d.weight_of((1.0, 1.0)) == pytest.approx(0.49)
    assert is_exchangeable(d).passed
    # exact exchangeability, not just within tolerance
    assert d.weight_of((0.0, 1.0)) == d.weight_of((1.0, 0.0))


def test_restrict_to_strict_two_point():
    m = MarginalCdf.from_pmf([0.3, 0.8], [0.4, 0.6])
    d = restrict_to_strict(iid_distribution(m, 2))
    assert set(d.types) == {(0.3, 0.8), (0.8, 0.3)}
    assert d.weight_of((0.3, 0.8)) == pytest.approx(0.5)
    assert is_exchangeable(d).passed


def test_mixture_of_exchangeables_is_exchangeable():
    m1 = MarginalCdf.from_pmf([0.0, 0.5, 1.0], [1 / 3, 1 / 3, 1 / 3])
    m2 = MarginalCdf.from_pmf([0.0, 0.5, 1.0], [0.6, 0.0, 0.4])
    mix = mixture([iid_distribution(m1, 2), iid_distribution(m2, 2)], [0.5, 0.5])
    assert is_exchangeable(mix).passed
    assert mix.weight_of((0.0, 0.5)) == pytest.approx(0.5 * (1 / 9) + 0.0)


def test_is_exchangeable_flags_asymmetry():
    d = table_distribution([(0.0, 1.0), (1.0, 0.0)], [0.3, 0.7], "heterogeneous")
    rep = is_exchangeable(d)
    assert not rep.passed
    assert rep.max_slack == pytest.approx(0.4)


def test_to_identical_density_folds_orbits():
    # uniform over the 6 strict profiles of a 3-level grid: each sorted
    # representative picks up 2! * (1/6) = 1/3
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    strict = enumerate_hetero(g, strict_only=True)
    d = uniform_distribution(strict, "heterogeneous")
    ident = to_identical_density(d)
    assert ident.domain_tag == "identical"
    assert set(ident.types) == {(0.5, 0.0), (1.0, 0.0), (1.0, 0.5)}
    for v in ident.types:
        assert ident.weight_of(v) == pytest.approx(1 / 3)


def test_to_identical_density_rejects_ties_and_asymmetry():
    d_tied = table_distribution([(0.5, 0.5)], [1.0], "heterogeneous")
    with pytest.raises(DistributionError):
        to_identical_density(d_tied)
    d_asym = table_distribution([(0.0, 1.0), (1.0, 0.0)], [0.3, 0.7], "heterogeneous")
    with pytest.raises(DistributionError):
        to_identical_density(d_asym)


def test_marginals_and_average():
    d = table_distribution(
        [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)], [0.2, 0.3, 0.5], "heterogeneous"
    )
    g1, g2 = marginals(d)
    assert g1.levels == (0.0, 1.0)
    assert g1.cdf == pytest.approx((0.2, 1.0))
    assert g2.cdf == pytest.approx((0.3, 1.0))
    avg = average_marginal(d)
    assert avg.cdf == pytest.approx((0.25, 1.0))


def test_identical_marginals_are_fosd_ordered():
    """On sorted profiles, coordinate i dominates coordinate i+1."""
    rng = np.random.default_rng(5)
    g = Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=4)
    types = enumerate_identical(g)
    for _ in range(20):
        w = rng.dirichlet(np.ones(len(types)))
        d = table_distribution(types, w, "identical")
        ms = marginals(d)
        for i in range(len(ms) - 1):
            hi = np.asarray(ms[i].cdf)
            lo = np.asarray(ms[i + 1].cdf)
            assert np.all(hi <= lo + 1e-12)


def test_comonotone_fmin_matches_average_marginal():
    g_avg = MarginalCdf.from_pmf([0.2, 0.7], [0.45, 0.55])
    d = comonotone_fmin(g_avg, 3)
    assert d.domain_tag == "identical"
    assert d.types == ((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))
    back = average_marginal(d)
    assert back.cdf == pytest.approx(g_avg.cdf)
    # each single-coordinate marginal equals the average by construction
    for m in marginals(d):
        assert m.cdf == pytest.approx(g_avg.cdf)


def test_fosd_shift_one_step():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    types = enumerate_hetero(g)
    d = uniform_distribution(types, "heterogeneous")
    shifted = fosd_shift(d, one_step_map(g.levels))
    # mass moves up one level per coordinate, capping at the top
    assert shifted.weight_of((0.0, 0.0)) == 0.0
    assert shifted.weight_of((0.5, 0.5)) == pytest.approx(1 / 9)
    assert shifted.weight_of((1.0, 1.0)) == pytest.approx(4 / 9)
    # shifted marginals dominate the originals
    for before, after in zip(marginals(d), marginals(shifted)):
        assert np.all(np.asarray(after.cdf) <= np.asarray(before.cdf) + 1e-12)


def test_fosd_shift_rejects_decreasing_map():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    d = uniform_distribution(enumerate_hetero(g), "heterogeneous")
    with pytest.raises(DistributionError):
        fosd_shift(d, {0.5: 0.0})


def test_fosd_shift_per_coordinate_breaks_exchangeability():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    d = uniform_distribution(enumerate_hetero(g), "heterogeneous")
    maps = [one_step_map(g.levels), {}]
    shifted = fosd_shift(d, maps)
    assert not is_exchangeable(shifted).passed
    same = fosd_shift(d, one_step_map(g.levels))
    assert is_exchangeable(same).passed


def test_embed_alignment():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    types = enumerate_identical(g)
    d = table_distribution([(1.0, 0.0)], [1.0], "identical")
    w = embed(d, types)
    assert w.sum() == 1.0
    assert w[types.index((1.0, 0.0))] == 1.0
    with pytest.raises(DistributionError):
        embed(table_distribution([(0.9, 0.1)], [1.0], "identical"), types)


def test_density_grid_uniform_passes_condition():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=5)
    f = density_grid(g, "uniform")
    rep = check_mcafee_mcmillan(f, g)
    assert rep.passed
    assert rep.info["min_value"] == pytest.approx(3.0)


def test_density_exp_rate_one_passes():
    # 3 f + v.grad f = f (3 - (v1+v2)) >= f > 0 on [0,1]^2
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=9)
    f = density_grid(g, "exp_rate", {"a": 1.0})
    rep = check_mcafee_mcmillan(f, g)
    assert rep.passed


def test_density_exp_rate_ten_fails_interior():
    # 3 f + v.grad f = f (3 - 10 (v1+v2)) < 0 once v1+v2 > 0.3
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=9)
    f = density_grid(g, "exp_rate", {"a": 10.0})
    rep = check_mcafee_mcmillan(f, g)
    assert not rep.passed
    witnesses = {w[0] for w, _ in rep.violations}
    assert (1.0, 1.0) in witnesses
    assert (0.0, 0.0) not in witnesses


def test_density_beta_passes():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=9)
    f = density_grid(g, "beta", {"a": 2.0, "b": 1.0})
    rep = check_mcafee_mcmillan(f, g)
    assert rep.passed
    with pytest.raises(DistributionError):
        density_grid(g, "beta", {"a": 0.5, "b": 1.0})


def test_check_mcafee_needs_three_levels():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=2)
    with pytest.raises(DistributionError):
        check_mcafee_mcmillan(np.ones((2, 2)), g)


def test_distribution_from_density():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    d = distribution_from_density(g, density_grid(g, "uniform"))
    assert len(d.types) == 9
    assert d.weights == pytest.approx(np.full(9, 1 / 9))
    ds = distribution_from_density(g, density_grid(g, "uniform"), strict_only=True)
    assert len(ds.types) == 6
    assert is_exchangeable(ds).passed


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_property_iid_restricted_feeds_identical_bridge(seed):
    """Random marginal -> iid -> strict restriction -> identical bridge:
    the folded weights are a probability vector matching orbit masses."""
    rng = np.random.default_rng(seed)
    pmf = rng.dirichlet(np.ones(3))
    m = MarginalCdf.from_pmf([0.1, 0.4, 0.9], pmf)
    d = iid_distribution(m, 2)
    try:
        strict = restrict_to_strict(d)
    except DistributionError:
        return  # degenerate marginal put everything on ties
    ident = to_identical_density(strict)
    assert math.fsum(ident.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
    for v in ident.types:
        orbit = strict.weight_of(v) + strict.weight_of((v[1], v[0]))
        assert ident.weight_of(v) == pytest.approx(orbit, abs=1e-12)
