"""Majorization order, structural audits, and the subgradient repair."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlab import gen, monotone, optlp, simplex
from mechlab.dist import one_step_map, uniform_distribution
from mechlab.mech import (
    Mechanism,
    check_feasible_identical,
    check_ic,
    check_ir,
    make_menu,
    menu_to_mechanism,
)
from mechlab.monotone import (
    SubgradientPolytope,
    _groups,
    _lexicographic_max,
    _with_sorted_cone,
    check_majorization_monotonicity,
    check_object_nonbossy,
    check_prop_schur,
    is_almost_deterministic,
    lmax_repair,
    run_revenue_monotonicity_experiment,
    subgradient_polytope,
    weakly_majorizes,
)
from mechlab.optlp import LpError, uniform_price_mechanism
from mechlab.typespace import Grid, HETEROGENEOUS, IDENTICAL, enumerate_identical


def single_object_kinked() -> Mechanism:
    """u(v) = max(0, v - 0.5) on levels {0, 0.5, 1}: the polytope at the
    kink is the whole interval [0, 1]."""
    types = ((0.0,), (0.5,), (1.0,))
    q = np.array([[0.0], [0.0], [1.0]])
    t = np.array([0.0, 0.0, 0.5])
    return Mechanism(types=types, q=q, t=t, domain_tag=IDENTICAL)


def right_slope_mech() -> Mechanism:
    """Single object, allocation equal to the upper end of each polytope,
    so the lexicographic repair is a fixed point."""
    types = ((0.0,), (0.5,), (1.0,))
    q = np.array([[0.5], [1.0], [1.0]])
    t = np.array([0.0, 0.25, 0.25])
    return Mechanism(types=types, q=q, t=t, domain_tag=IDENTICAL)


def constant_utility_mech() -> Mechanism:
    grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    types = tuple(enumerate_identical(grid))
    q = np.zeros((len(types), 2))
    t = np.full(len(types), -0.25)  # u = 0.25 everywhere
    return Mechanism(types=types, q=q, t=t, domain_tag=IDENTICAL)


def random_n3_mech() -> Mechanism:
    """A truthful identical n=3 mechanism on 3 points (10 types), whose
    repair solves the coordinate-0 block LP."""
    grid = Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=3)
    return gen.random_ic_identical(np.random.default_rng(5), grid, max_items=3)


def incomparable_menu_mech() -> Mechanism:
    """Truthful (menu-built) but not majorization monotone: raising the
    first coordinate swaps (0.5, 0.5) for (0.9, 0.0)."""
    menu = make_menu([((0.9, 0.0), 0.3), ((0.5, 0.5), 0.1)])
    types = [(0.5, 0.1), (0.9, 0.1), (0.9, 0.5)]
    return menu_to_mechanism(menu, types, IDENTICAL)


class TestWeaklyMajorizes:
    def test_spec_pairs(self):
        assert weakly_majorizes((1.0, 0.5), (0.5, 0.5))
        assert not weakly_majorizes((0.6, 0.6), (1.0, 0.0))

    def test_permutations_majorize_both_ways(self):
        a = (0.2, 0.9, 0.4)
        b = (0.9, 0.4, 0.2)
        assert weakly_majorizes(a, b) and weakly_majorizes(b, a)

    def test_exact_at_float_resolution(self):
        # prefix sums differing by one ulp still order correctly
        a = (0.1 + 0.2, 0.0)
        b = (0.3, 0.0)
        assert weakly_majorizes(a, b)
        assert not weakly_majorizes(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weakly_majorizes((1.0,), (1.0, 0.0))


class TestPaymentDominance:
    def test_uniform_price_mechanism_passes(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        mech = uniform_price_mechanism(enumerate_identical(grid), 1.0 / 3.0)
        rep = check_prop_schur(mech)
        assert rep.passed
        assert rep.info["n_hypothesis_pairs"] > 0

    def test_constant_mechanism_vacuous_pass(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        types = tuple(enumerate_identical(grid))
        mech = Mechanism(
            types=types,
            q=np.tile([0.5, 0.5], (len(types), 1)),
            t=np.zeros(len(types)),
            domain_tag=IDENTICAL,
        )
        rep = check_prop_schur(mech)
        assert rep.passed
        # every ordered pair mutually majorizes
        T = len(types)
        assert rep.info["n_hypothesis_pairs"] == T * (T - 1)

    def test_untruthful_input_rejected(self):
        types = ((0.3, 0.7), (0.7, 0.3))
        mech = Mechanism(
            types=types,
            q=np.array([[1.0, 0.0], [0.0, 1.0]]),
            t=np.zeros(2),
            domain_tag=HETEROGENEOUS,
        )
        with pytest.raises(ValueError):
            check_prop_schur(mech)

    def test_asymmetric_heterogeneous_rejected(self):
        menu = make_menu([((1.0, 0.0), 0.2)])
        types = [(0.3, 0.7), (0.7, 0.3)]
        mech = menu_to_mechanism(menu, types, HETEROGENEOUS)
        with pytest.raises(ValueError):
            check_prop_schur(mech)


class TestMajorizationMonotonicity:
    def test_single_object_trivially_passes(self):
        rep = check_majorization_monotonicity(right_slope_mech())
        assert rep.passed

    def test_hand_built_violation(self):
        types = ((0.5, 0.1), (0.9, 0.1))
        q = np.array([[0.5, 0.5], [0.9, 0.0]])
        t = np.zeros(2)
        mech = Mechanism(types=types, q=q, t=t, domain_tag=IDENTICAL)
        rep = check_majorization_monotonicity(mech)
        assert not rep.passed
        ((vhat, v, coord), deficit) = rep.violations[0]
        assert vhat == (0.9, 0.1) and v == (0.5, 0.1) and coord == 0
        assert deficit == pytest.approx(0.1)

    def test_menu_mechanism_can_fail(self):
        rep = check_majorization_monotonicity(incomparable_menu_mech())
        assert not rep.passed

    def test_uniform_price_passes(self):
        grid = Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=3)
        mech = uniform_price_mechanism(enumerate_identical(grid), 0.5)
        assert check_majorization_monotonicity(mech).passed

    def test_heterogeneous_domain_rejected(self):
        mech = menu_to_mechanism(
            make_menu([((1.0, 0.0), 0.2)]), [(0.3, 0.7), (0.7, 0.3)], HETEROGENEOUS
        )
        with pytest.raises(ValueError):
            check_majorization_monotonicity(mech)


class TestAlmostDeterministic:
    def test_deterministic_passes(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        mech = uniform_price_mechanism(enumerate_identical(grid), 0.5)
        rep = is_almost_deterministic(mech)
        assert rep.passed and rep.info["max_fractional_coords"] == 0

    def test_one_fractional_coordinate_passes(self):
        mech = Mechanism(
            types=((0.9, 0.5, 0.1),),
            q=np.array([[1.0, 0.4, 0.0]]),
            t=np.zeros(1),
            domain_tag=IDENTICAL,
        )
        assert is_almost_deterministic(mech).passed

    def test_two_fractional_coordinates_fail(self):
        mech = Mechanism(
            types=((0.9, 0.5),),
            q=np.array([[0.6, 0.4]]),
            t=np.zeros(1),
            domain_tag=IDENTICAL,
        )
        rep = is_almost_deterministic(mech)
        assert not rep.passed
        assert rep.info["max_fractional_coords"] == 2


class TestObjectNonbossy:
    def test_posted_price_passes(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        mech = uniform_price_mechanism(enumerate_identical(grid), 0.5)
        assert check_object_nonbossy(mech).passed

    def test_spec_fixture_fails(self):
        types = ((0.5, 0.1), (0.9, 0.1))
        q = np.array([[1.0, 0.3], [1.0, 0.0]])
        t = np.zeros(2)
        mech = Mechanism(types=types, q=q, t=t, domain_tag=IDENTICAL)
        rep = check_object_nonbossy(mech)
        assert not rep.passed
        ((va, vb, coord), spread) = rep.violations[0]
        assert coord == 0
        assert spread == pytest.approx(0.3)

    def test_heterogeneous_domain_rejected(self):
        mech = menu_to_mechanism(
            make_menu([((1.0, 0.0), 0.2)]), [(0.3, 0.7), (0.7, 0.3)], HETEROGENEOUS
        )
        with pytest.raises(ValueError):
            check_object_nonbossy(mech)


class TestSubgradientPolytope:
    def test_kink_interval(self):
        mech = single_object_kinked()
        poly = subgradient_polytope(mech, (0.5,))
        lo, hi = poly.coordinate_interval(0)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert not poly.is_singleton()

    def test_endpoints_are_singletons(self):
        mech = single_object_kinked()
        for v, val in (((0.0,), 0.0), ((1.0,), 1.0)):
            poly = subgradient_polytope(mech, v)
            assert poly.is_singleton()
            lo, hi = poly.coordinate_interval(0)
            assert lo == pytest.approx(val, abs=1e-12)

    def test_contains_own_allocation(self):
        mech = incomparable_menu_mech()
        for v in mech.types:
            poly = subgradient_polytope(mech, v)
            assert poly.contains(mech.q_at(v))

    def test_inconsistent_utilities_detected(self):
        # u(0.5) sits far below u(0): no slope in [0,1] can explain it
        types = ((0.0,), (0.5,), (1.0,))
        q = np.array([[1.0], [1.0], [1.0]])
        t = np.array([-1.0, 1.0, -1.0])  # u = (1, -0.5, 2)
        mech = Mechanism(types=types, q=q, t=t, domain_tag=IDENTICAL)
        poly = subgradient_polytope(mech, (0.0,))
        with pytest.raises(ValueError):
            poly.lexicographic_max()

    def test_inconsistent_utilities_detected_by_maximize(self, monkeypatch):
        # the dual simplex finds no entering column from the slack basis
        # on this empty polytope, which proves it empty
        types = ((0.0,), (0.5,), (1.0,))
        mech = Mechanism(types=types, q=np.ones((3, 1)), t=np.array([-1.0, 1.0, -1.0]),
                         domain_tag=IDENTICAL)
        poly = subgradient_polytope(mech, (0.0,))
        real_settle = simplex._Tableau.settle
        stuck = []

        def recorded(tab, max_iters):
            stuck.append(real_settle(tab, max_iters))
            return stuck[-1]

        monkeypatch.setattr(simplex._Tableau, "settle", recorded)
        with pytest.raises(ValueError, match=r"polytope at \(0\.0,\) is infeasible"):
            poly.coordinate_interval(0)
        assert len(stuck) == 1 and 0.0 < stuck[0] < np.inf


class TestLmaxRepair:
    def test_kink_resolves_to_upper_end(self):
        out = lmax_repair(single_object_kinked())
        assert out.q_at((0.5,))[0] == pytest.approx(1.0, abs=1e-9)
        assert out.t_at((0.5,)) == pytest.approx(0.5, abs=1e-9)
        # singleton types keep their rows
        assert out.q_at((0.0,))[0] == pytest.approx(0.0, abs=1e-10)
        assert out.q_at((1.0,))[0] == pytest.approx(1.0, abs=1e-10)

    def test_fixed_point_when_input_sits_at_upper_ends(self):
        mech = right_slope_mech()
        out = lmax_repair(mech)
        np.testing.assert_allclose(out.q, mech.q, atol=1e-9)
        np.testing.assert_allclose(out.t, mech.t, atol=1e-9)

    def test_constant_utility_collapses_except_at_upper_boundary(self):
        # with constant u every interior type's polytope is the origin;
        # types with no strictly higher neighbor in some coordinate keep a
        # free cone there, and the lexicographic rule rides it to 1
        mech = constant_utility_mech()
        out = lmax_repair(mech)
        expected_q = {
            (0.0, 0.0): (0.0, 0.0),
            (0.5, 0.0): (0.0, 0.0),
            (0.5, 0.5): (0.0, 0.0),
            (1.0, 0.0): (1.0, 0.0),
            (1.0, 0.5): (1.0, 0.0),
            (1.0, 1.0): (1.0, 1.0),
        }
        for v, qv in expected_q.items():
            np.testing.assert_allclose(out.q_at(v), qv, atol=1e-9)
        np.testing.assert_allclose(out.utilities(), 0.25, atol=1e-10)
        assert check_ic(out, tol=1e-8).passed
        assert check_ir(out, tol=1e-8).passed

    def test_postconditions_on_menu_input(self):
        mech = incomparable_menu_mech()
        out = lmax_repair(mech)
        assert check_ic(out, tol=1e-8).passed
        assert check_ir(out, tol=1e-8).passed
        assert check_object_nonbossy(out, tol=1e-8).passed
        np.testing.assert_allclose(
            out.utilities(), mech.utilities(), atol=1e-10
        )
        for v in mech.types:
            poly = subgradient_polytope(mech, v)
            assert poly.contains(out.q_at(v), tol=1e-8)

    def test_untruthful_input_rejected(self):
        types = ((0.3, 0.7), (0.7, 0.3))
        mech = Mechanism(
            types=types,
            q=np.array([[1.0, 0.0], [0.0, 1.0]]),
            t=np.zeros(2),
            domain_tag=HETEROGENEOUS,
        )
        with pytest.raises(ValueError):
            lmax_repair(mech)

    @pytest.mark.parametrize(
        "field, value", [("max_infeasibility", 1e-6), ("duality_gap", 1e-3)]
    )
    def test_uncertified_lp_optimum_rejected(self, monkeypatch, corrupted, field, value):
        # an "optimal" subgradient LP whose point breaks a row or a bound,
        # or whose duals leave a weak-duality gap, must stop the repair,
        # not select a point
        real_solve = simplex.solve_simplex

        def uncertified(*args, **kwargs):
            return corrupted(real_solve(*args, **kwargs), field, value)

        monkeypatch.setattr(simplex, "solve_simplex", uncertified)
        what = "solution residual" if field == "max_infeasibility" else "duality gap"
        with pytest.raises(LpError, match=f"{what} .* exceeds"):
            lmax_repair(random_n3_mech())

    def test_block_gap_bound_is_absolute(self, monkeypatch):
        # a gap of GAP_TOL * |objective| passes the certificate of
        # `solve_lp` once the summed objective of a block LP exceeds 1, but
        # one block's gap alone could then exceed GAP_TOL, so the repair
        # must reject it.  Every dual is raised by the largest power of 1/2
        # whose gap `solve_lp` still passes.
        real_solve = simplex.solve_simplex
        gaps = []

        def loose(*args, **kwargs):
            res = real_solve(*args, **kwargs)
            shift, passes = 1.0, optlp.GAP_TOL * abs(res.objective)
            while optlp.certificate(args, res.x, res.y + shift)[1] > passes:
                shift /= 2
            res = dataclasses.replace(res, y=res.y + shift)
            gaps.append(optlp.certificate(args, res.x, res.y)[1])
            return res

        grid = Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=4)
        mech = uniform_price_mechanism(enumerate_identical(grid), 1.0 / 3.0)
        monkeypatch.setattr(simplex, "solve_simplex", loose)
        # the repair's own message, not that of `solve_lp`
        with pytest.raises(LpError, match=r"duality gap \S+ exceeds 1e-07$"):
            lmax_repair(mech)
        assert gaps[-1] > optlp.GAP_TOL

    def test_one_block_solve_per_coordinate(self, monkeypatch):
        mech = random_n3_mech()
        assert len(mech.types) == 10
        real_solve = simplex.solve_simplex
        calls = []
        results = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("start") is not None)
            results.append(real_solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(simplex, "solve_simplex", counted)
        lmax_repair(mech)
        # only coordinates 0 .. n - 3 are block LPs; coordinate 0 starts
        # at the dual-feasible slack basis
        assert calls == [False]
        assert sum(res.iterations for res in results) == 16
        # at n = 4 coordinate 1 starts at coordinate 0's optimum
        calls.clear()
        grid = Grid.uniform(n=4, v_low=0.0, v_high=1.0, points=3)
        lmax_repair(gen.random_ic_identical(np.random.default_rng(5), grid, max_items=3))
        assert calls == [False, True]

    def test_almost_deterministic_variant_keeps_structure(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        mech = uniform_price_mechanism(enumerate_identical(grid), 1.0 / 3.0)
        out = lmax_repair(mech, almost_deterministic=True)
        assert is_almost_deterministic(out).passed
        assert check_feasible_identical(out, tol=1e-9).passed
        assert check_ic(out, tol=1e-8).passed
        np.testing.assert_allclose(out.utilities(), mech.utilities(), atol=1e-10)


def _loop_lexmax(poly: SubgradientPolytope) -> np.ndarray:
    """The reference selection: n cold solves of `optlp.solve_lp` on the
    polytope alone, each fixing the coordinate it maximized through its
    bounds."""
    n, D = poly.n, poly.directions
    lp = optlp.LinearProgram(names=[f"x{i}" for i in range(n)], lower=[0.0] * n, upper=[1.0] * n)
    lp.add_rows(np.arange(n), D, "<=", poly.slacks, keep=D != 0.0)
    for i in range(n):
        lp.objective = np.eye(n)[i].tolist()
        res = optlp.solve_lp(lp)
        lp.lower[i] = lp.upper[i] = res.objective
    return np.clip(res.x, 0.0, 1.0)


def _loop_almost_det(poly: SubgradientPolytope, tol: float = 1e-9) -> np.ndarray:
    """The reference almost-deterministic selection: each pattern's
    interval in alpha, bounded one row at a time."""
    for ones in range(poly.n, -1, -1):
        if ones == poly.n:
            if poly.contains(np.ones(poly.n), tol=tol):
                return np.ones(poly.n)
            continue
        lo, hi = 0.0, 1.0
        feasible = True
        for row, rhs in zip(poly.directions, poly.slacks):
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
            x = np.zeros(poly.n)
            x[:ones] = 1.0
            x[ones] = min(max(hi, 0.0), 1.0)
            return x
    raise ValueError("no sorted almost-deterministic vector")


def _random_polys(kind, points, seed):
    rng = np.random.default_rng(seed)
    if kind == "hetero":
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=points)
        mech = gen.random_ic_heterogeneous(rng, grid, max_items=3)
        return [subgradient_polytope(mech, v) for v in mech.types]
    grid = Grid.uniform(n=int(kind[-1]), v_low=0.0, v_high=1.0, points=points)
    mech = gen.random_ic_identical(rng, grid, max_items=3)
    return [_with_sorted_cone(subgradient_polytope(mech, v)) for v in mech.types]


def _assert_matches_loop(polys):
    got = _lexicographic_max(polys)
    assert len(got) == len(polys)
    for poly, x in zip(polys, got):
        np.testing.assert_allclose(x, _loop_lexmax(poly), rtol=0.0, atol=1e-12)


class TestBlockLexicographicMax:
    @pytest.mark.parametrize(
        "kind, points",
        [("identical2", 3), ("identical2", 4), ("identical2", 5), ("identical3", 3), ("hetero", 4)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_per_polytope_loop(self, kind, points, seed):
        _assert_matches_loop(_random_polys(kind, points, seed))

    def test_polytope_over_the_budget_gets_its_own_block(self, monkeypatch):
        polys = _random_polys("identical3", 3, 7)  # 11 rows each
        monkeypatch.setattr(monotone, "BLOCK_ROWS", 5)
        assert [len(g) for g in _groups(polys)] == [1] * len(polys)
        _assert_matches_loop(polys)

    def test_group_filling_the_budget_exactly(self, monkeypatch):
        polys = _random_polys("identical3", 3, 8)  # 11 rows each
        monkeypatch.setattr(monotone, "BLOCK_ROWS", 22)
        assert [len(g) for g in _groups(polys)] == [2] * 5
        _assert_matches_loop(polys)

    def test_infeasible_group_names_the_polytope_at_fault(self):
        types = ((0.0,), (0.5,), (1.0,))
        mech = Mechanism(
            types=types,
            q=np.ones((3, 1)),
            t=np.array([-1.0, 1.0, -1.0]),  # u = (1, -0.5, 2)
            domain_tag=IDENTICAL,
        )
        # (0.0,) and (1.0,) are both empty: the first is named
        polys = [subgradient_polytope(mech, v) for v in ((0.5,), (0.0,), (1.0,))]
        with pytest.raises(ValueError, match=r"at \(0\.0,\) is infeasible"):
            _lexicographic_max(polys)

    def test_zero_row_polytope(self, monkeypatch):
        single = Mechanism(
            types=((0.5, 0.5),), q=np.array([[0.5, 0.0]]), t=np.zeros(1), domain_tag=HETEROGENEOUS
        )
        empty = subgradient_polytope(single, (0.5, 0.5))
        assert empty.directions.shape == (0, 2)
        np.testing.assert_allclose(empty.lexicographic_max(), [1.0, 1.0], atol=1e-12)
        # inside a group that fills the budget exactly
        polys = _random_polys("identical2", 3, 9)  # 5 + 1 rows each
        monkeypatch.setattr(monotone, "BLOCK_ROWS", 12)
        mixed = [polys[0], empty, polys[1], polys[2]]
        assert [len(g) for g in _groups(mixed)] == [3, 1]
        _assert_matches_loop(mixed)


def _pinned_polytope() -> SubgradientPolytope:
    """The sorted-cone polytope at (2/3, 1/3) of `_random_polys("identical2",
    4, 2)`: its rows -b/3 <= -r and b/3 <= r pin b."""
    return next(p for p in _random_polys("identical2", 4, 2)
                if np.allclose(p.anchor, (2 / 3, 1 / 3)))


class TestClosedFormStep:
    """The last min(n, 2) coordinates of every polytope, selected by
    Fourier-Motzkin elimination instead of block LPs."""

    KINDS = [
        ("identical1", 6), ("identical2", 3), ("identical2", 4), ("identical2", 5),
        ("identical3", 3), ("identical4", 3), ("hetero", 4),
    ]

    def test_matches_the_per_polytope_loop_on_a_thousand_polytopes(self):
        groups = [_random_polys(kind, points, seed)
                  for seed in range(14) for kind, points in self.KINDS]
        assert sum(map(len, groups)) >= 1000
        assert {p.n for polys in groups for p in polys} == {1, 2, 3, 4}
        for polys in groups:
            _assert_matches_loop(polys)

    def test_pair_of_rows_pinning_b(self, monkeypatch):
        # pairs of rows through the two that pin b cancel in a only up
        # to rounding, and such a residue counts as a zero coefficient,
        # not as a bound on a
        poly = _pinned_polytope()
        x = _lexicographic_max([poly])[0]
        np.testing.assert_allclose(x, _loop_lexmax(poly), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(x, [0.81422574, 0.29849114], atol=1e-8)
        monkeypatch.setattr(simplex, "PIVOT_TOL", 0.0)
        with pytest.raises(ValueError, match="is infeasible"):
            _lexicographic_max([poly])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_row_polytope_selects_the_top_corner(self, n):
        poly = SubgradientPolytope(anchor=(0.5,) * n, directions=np.zeros((0, n)),
                                   slacks=np.zeros(0))
        np.testing.assert_allclose(poly.lexicographic_max(), np.ones(n), atol=1e-12)

    @pytest.mark.parametrize("rows", ["bounds on a", "pair with a zero coefficient"])
    @pytest.mark.parametrize("miss, empty", [(2.0, True), (0.5, False)])
    def test_emptiness_tolerance(self, rows, miss, empty):
        # 0.5 <= a <= 0.5 - gap, or a + b <= 1 <= a + b - gap
        gap = miss * simplex.FEAS_TOL
        D = [[1.0, 0.0], [-1.0, 0.0]] if rows == "bounds on a" else [[1.0, 1.0], [-1.0, -1.0]]
        hi = 0.5 if rows == "bounds on a" else 1.0
        poly = SubgradientPolytope(anchor=(0.5, 0.5), directions=np.array(D),
                                   slacks=np.array([hi - gap, -hi]))
        if empty:
            with pytest.raises(ValueError, match=r"polytope at \(0\.5, 0\.5\) is infeasible"):
                poly.lexicographic_max()
        else:
            assert poly.contains(poly.lexicographic_max(), tol=simplex.FEAS_TOL)

    @pytest.mark.parametrize("n, points", [(1, 5), (2, 3), (2, 4), (3, 3), (4, 3)])
    def test_almost_deterministic_step_matches_the_row_loop(self, n, points):
        grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        for seed in range(10):
            mech = gen.random_ic_identical(
                np.random.default_rng(seed), grid, max_items=3, almost_deterministic=True
            )
            for v in mech.types:
                poly = subgradient_polytope(mech, v)
                got = poly.lexicographic_max_almost_deterministic()
                assert got.tobytes() == _loop_almost_det(poly).tobytes(), (seed, v)

    def test_corrupted_step_is_refused(self, monkeypatch):
        poly = _pinned_polytope()
        real_interval = monotone._interval

        def raised(*args):
            lo, hi, worst = real_interval(*args)
            return lo, hi + 1e-6, worst

        monkeypatch.setattr(monotone, "_interval", raised)
        with pytest.raises(LpError, match=r"at \(0\.666.*solution residual \S+ exceeds 1e-09$"):
            poly.lexicographic_max()


class TestExchangeArgument:
    """If x solves the consistency system at v and splicing coordinate i of
    x into some member at the neighboring type stays consistent there,
    then all of x is consistent at the neighbor."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_coordinate_splice(self, seed):
        rng = np.random.default_rng(seed)
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
        types = enumerate_identical(grid)
        items = [
            (tuple(sorted(rng.uniform(0, 1, size=2), reverse=True)), rng.uniform(0, 1))
            for _ in range(3)
        ]
        mech = menu_to_mechanism(make_menu(items), types, IDENTICAL)
        polys = {v: subgradient_polytope(mech, v) for v in mech.types}
        for va in mech.types:
            for vb in mech.types:
                diff = [i for i in range(2) if va[i] != vb[i]]
                if len(diff) != 1:
                    continue
                i = diff[0]
                x = mech.q_at(va)
                y = mech.q_at(vb)
                spliced = y.copy()
                spliced[i] = x[i]
                if polys[vb].contains(spliced, tol=1e-10):
                    assert polys[vb].contains(x, tol=1e-8)


class TestComparabilityOfSortedAlmostDet:
    def test_exhaustive_patterns(self):
        for n in range(1, 5):
            vecs = []
            for ones in range(n + 1):
                for alpha in (0.0, 0.3, 0.7, 1.0):
                    if ones == n and alpha > 0.0:
                        continue
                    v = [1.0] * ones + [alpha] * (1 if ones < n else 0)
                    v += [0.0] * (n - len(v))
                    vecs.append(tuple(v))
            for a in vecs:
                for b in vecs:
                    assert weakly_majorizes(a, b) or weakly_majorizes(b, a)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def test_random_fractional_values(self, n, alpha, beta, ka, kb):
        a = [1.0] * min(ka, n - 1) + [alpha]
        a += [0.0] * (n - len(a))
        b = [1.0] * min(kb, n - 1) + [beta]
        b += [0.0] * (n - len(b))
        assert weakly_majorizes(a, b) or weakly_majorizes(b, a)


class TestRevenueMonotonicity:
    def test_uniform_price_upward_shift_asserted_and_passes(self):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4)
        types = enumerate_identical(grid)
        mech = uniform_price_mechanism(types, 1.0 / 3.0)
        dist = uniform_distribution(types, IDENTICAL)
        rep = run_revenue_monotonicity_experiment(
            mech, dist, one_step_map(grid.levels)
        )
        assert rep.passed and rep.info["asserted"]
        assert rep.info["delta"] >= -1e-9

    def test_non_monotone_mechanism_reported_not_asserted(self):
        menu = make_menu([((0.9, 0.0), 0.3), ((0.5, 0.5), 0.1)])
        types = [(0.5, 0.1), (0.5, 0.5), (0.9, 0.1), (0.9, 0.5), (0.9, 0.9)]
        mech = menu_to_mechanism(menu, types, IDENTICAL)
        assert not check_majorization_monotonicity(mech).passed
        dist = uniform_distribution(types, IDENTICAL)
        rep = run_revenue_monotonicity_experiment(
            mech, dist, {0.1: 0.5, 0.5: 0.5, 0.9: 0.9}
        )
        assert rep.passed  # nothing asserted
        assert not rep.info["asserted"]
        assert rep.info["reason"] == "not majorization monotone"
