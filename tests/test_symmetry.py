"""Relabeling invariance, rank order, and the two-way audit bridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlab.dist import iid_distribution, restrict_to_strict, table_distribution
from mechlab.mech import (
    Mechanism,
    check_feasible_identical,
    check_ic,
    check_ir,
    expected_revenue,
    make_menu,
    menu_to_mechanism,
)
from mechlab.symmetry import (
    certify_theorem1,
    check_ic_on_cells,
    extend_to_ties,
    is_rank_preserving,
    is_symmetric,
    restrict_to_cell,
    symmetric_extension,
    symmetrize,
)
from mechlab.dist import MarginalCdf
from mechlab.typespace import (
    HETEROGENEOUS,
    IDENTICAL,
    Grid,
    all_permutations,
    enumerate_hetero,
    enumerate_identical,
    identity_permutation,
)


def swap_mech() -> Mechanism:
    """Gives the less-valued object away for free: symmetric, truthful
    nowhere, rank order violated at every strict type."""
    types = ((0.3, 0.7), (0.7, 0.3))
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = np.zeros(2)
    return Mechanism(types=types, q=q, t=t, domain_tag=HETEROGENEOUS)


def sorted_strict_mech() -> Mechanism:
    """Hand-built identical-domain mechanism on the strict sorted types of
    the 3-level unit grid."""
    types = ((0.5, 0.0), (1.0, 0.0), (1.0, 0.5))
    q = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 0.5]])
    t = np.array([0.25, 0.5, 0.75])
    return Mechanism(types=types, q=q, t=t, domain_tag=IDENTICAL)


def asymmetric_menu_mech(n: int = 3):
    grid = Grid.uniform(n=n, v_low=0.0, v_high=0.9, points=3)
    types = enumerate_hetero(grid, strict_only=True)
    menu = make_menu(
        [
            ((1.0, 0.0, 0.0)[:n], 0.4),
            ((1.0, 1.0, 0.3)[:n], 0.9),
            ((0.2, 1.0, 0.0)[:n], 0.35),
        ]
    )
    return menu_to_mechanism(menu, types, HETEROGENEOUS), grid, types


class TestSymmetricExtension:
    def test_single_type_example(self):
        base = Mechanism(
            types=((0.7, 0.3),),
            q=np.array([[1.0, 0.0]]),
            t=np.array([0.5]),
            domain_tag=IDENTICAL,
        )
        ext = symmetric_extension(base)
        assert ext.domain_tag == HETEROGENEOUS
        assert ext.types == ((0.3, 0.7), (0.7, 0.3))
        assert tuple(ext.q_at((0.3, 0.7))) == (0.0, 1.0)
        assert tuple(ext.q_at((0.7, 0.3))) == (1.0, 0.0)
        assert ext.t_at((0.3, 0.7)) == 0.5
        assert ext.t_at((0.7, 0.3)) == 0.5

    def test_extension_exactly_symmetric(self):
        ext = symmetric_extension(sorted_strict_mech())
        rep = is_symmetric(ext, tol=0.0)
        assert rep.passed

    def test_round_trip_through_every_cell(self):
        base = sorted_strict_mech()
        ext = symmetric_extension(base)
        for sigma in all_permutations(2):
            back = restrict_to_cell(ext, sigma)
            assert back.types == base.types
            assert np.array_equal(back.q, base.q)
            assert np.array_equal(back.t, base.t)

    def test_extension_requires_strict_types(self):
        tied = Mechanism(
            types=((0.5, 0.5),),
            q=np.array([[0.5, 0.5]]),
            t=np.array([0.0]),
            domain_tag=IDENTICAL,
        )
        with pytest.raises(ValueError):
            symmetric_extension(tied)


class TestRestriction:
    def test_identity_cell_of_swap_mech_breaks_order(self):
        restr = restrict_to_cell(swap_mech(), identity_permutation(2))
        assert restr.types == ((0.7, 0.3),)
        assert tuple(restr.q[0]) == (0.0, 1.0)
        rep = check_feasible_identical(restr)
        assert not rep.passed

    def test_restriction_needs_orbit_closed_domain(self):
        half = Mechanism(
            types=((0.7, 0.3),),
            q=np.array([[1.0, 0.0]]),
            t=np.array([0.0]),
            domain_tag=HETEROGENEOUS,
        )
        with pytest.raises(ValueError):
            restrict_to_cell(half, identity_permutation(2))


class TestSymmetryAudits:
    def test_swap_mech_is_symmetric_exactly(self):
        assert is_symmetric(swap_mech(), tol=0.0).passed

    def test_swap_mech_not_rank_preserving(self):
        rep = is_rank_preserving(swap_mech())
        assert not rep.passed
        witnesses = {v for ((v, _i, _j), _s) in rep.violations}
        assert (0.7, 0.3) in witnesses and (0.3, 0.7) in witnesses

    def test_perturbed_extension_flagged(self):
        ext = symmetric_extension(sorted_strict_mech())
        q = ext.q.copy()
        k = ext.index_of((0.0, 0.5))
        q[k, 0] += 3e-4
        bad = Mechanism(types=ext.types, q=q, t=ext.t.copy(), domain_tag=HETEROGENEOUS)
        rep = is_symmetric(bad, tol=1e-9)
        assert not rep.passed
        assert rep.max_slack == pytest.approx(3e-4, rel=1e-6)

    def test_cells_with_single_member_pass_trivially(self):
        rep = check_ic_on_cells(swap_mech())
        assert rep.passed and rep.info["n_pairs"] == 0


class TestTheorem1Certificate:
    def test_swap_mech_consistent_with_both_sides_failing(self):
        rep = certify_theorem1(swap_mech())
        assert rep.passed
        assert rep.info["equivalence_holds"]
        assert not rep.info["ic_global"].passed
        assert not rep.info["rank_preserving"].passed
        assert rep.info["ic_on_cells"].passed

    def test_menu_mechanisms_pass_with_both_sides_holding(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        types = enumerate_hetero(grid, strict_only=True)
        menu = make_menu([((1.0, 1.0), 1.1), ((1.0, 0.0), 0.4), ((0.0, 1.0), 0.4)])
        mech = menu_to_mechanism(menu, types, HETEROGENEOUS)
        sym = symmetrize(mech)
        rep = certify_theorem1(sym)
        assert rep.passed
        assert rep.info["ic_global"].passed

    def test_rejects_asymmetric_input(self):
        mech, _, _ = asymmetric_menu_mech()
        with pytest.raises(ValueError):
            certify_theorem1(mech)


class TestSymmetrize:
    def test_output_exactly_symmetric_and_truthful(self):
        mech, grid, types = asymmetric_menu_mech()
        sym = symmetrize(mech)
        assert is_symmetric(sym, tol=0.0).passed
        assert check_ic(sym, tol=1e-9).passed
        assert check_ir(sym, tol=1e-9).passed

    def test_preserves_revenue_under_exchangeable_weights(self):
        mech, grid, types = asymmetric_menu_mech()
        marg = MarginalCdf.from_pmf(grid.levels, [0.5, 0.2, 0.3])
        dist = restrict_to_strict(iid_distribution(marg, grid.n))
        sym = symmetrize(mech)
        assert expected_revenue(sym, dist) == pytest.approx(
            expected_revenue(mech, dist), abs=1e-9
        )

    def test_changes_revenue_under_asymmetric_weights(self):
        mech, grid, types = asymmetric_menu_mech()
        w = np.zeros(len(types))
        w[0] = 1.0
        dist = table_distribution(types, w, HETEROGENEOUS)
        sym = symmetrize(mech)
        assert abs(expected_revenue(sym, dist) - expected_revenue(mech, dist)) > 1e-6

    def test_idempotent_up_to_rounding(self):
        ext = symmetric_extension(sorted_strict_mech())
        again = symmetrize(ext)
        assert again.types == ext.types
        np.testing.assert_allclose(again.q, ext.q, atol=1e-12)
        np.testing.assert_allclose(again.t, ext.t, atol=1e-12)


class TestTieExtension:
    def test_nearest_strict_row_copied(self):
        base = sorted_strict_mech()
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        full = enumerate_identical(grid)
        ext = extend_to_ties(base, full)
        assert ext.types == tuple(full)
        # (0.5, 0.5) sits at max-norm 0.5 from all three strict types;
        # the lexicographically smallest winner is (0.5, 0.0)
        src = base.index_of((0.5, 0.0))
        k = ext.index_of((0.5, 0.5))
        assert np.array_equal(ext.q[k], base.q[src])
        assert ext.t[k] == base.t[src]
        for v in base.types:
            assert np.array_equal(ext.q_at(v), base.q_at(v))
            assert ext.t_at(v) == base.t_at(v)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_extension_round_trip_property(data):
    levels = (0.0, 0.45, 1.0)
    grid = Grid.explicit(n=2, levels=levels, v_low=0.0, v_high=1.0)
    types = enumerate_identical(grid, strict_only=True)
    rows = []
    ts = []
    for _ in types:
        hi = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        lo = data.draw(st.floats(0.0, 1.0, allow_nan=False))
        a, b = max(hi, lo), min(hi, lo)
        rows.append([a, b])
        ts.append(data.draw(st.floats(-1.0, 2.0, allow_nan=False)))
    mech = Mechanism(
        types=tuple(types),
        q=np.array(rows),
        t=np.array(ts),
        domain_tag=IDENTICAL,
    )
    ext = symmetric_extension(mech)
    assert is_symmetric(ext, tol=0.0).passed
    back = restrict_to_cell(ext, identity_permutation(2))
    assert back.types == mech.types
    assert np.array_equal(back.q, mech.q)
    assert np.array_equal(back.t, mech.t)
