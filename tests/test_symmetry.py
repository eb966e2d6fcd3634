"""Relabeling invariance, rank order, and the two-way audit bridge."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlab import cli
from mechlab.dist import iid_distribution, restrict_to_strict, table_distribution
from mechlab.mech import (
    Mechanism,
    check_feasible_identical,
    check_ic,
    check_ir,
    expected_revenue,
    ic_gains,
    make_menu,
    menu_to_mechanism,
)
from mechlab.symmetry import (
    certify_theorem1,
    check_ic_on_cells,
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
    apply_permutation,
    cell_of,
    enumerate_hetero,
    enumerate_identical,
    identity_permutation,
    inverse_permutation,
    sort_descending,
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

    def test_every_cell_of_a_non_symmetric_n3_mechanism(self):
        # for n = 3 a 3-cycle is not its own inverse, so reading the cell
        # of sigma^-1 instead of sigma would show.  The definition: at
        # the profile v with v[sigma(i)] = w[i], sorted coordinate i is
        # object sigma(i)'s allocation
        grid = Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=4)
        types = enumerate_hetero(grid, strict_only=True)
        rng = np.random.default_rng(3)
        mech = Mechanism(
            types=tuple(types), q=rng.uniform(size=(len(types), 3)), t=rng.uniform(size=len(types)),
            domain_tag=HETEROGENEOUS,
        )
        assert not is_symmetric(mech).passed
        reps = sorted({sort_descending(v) for v in types})
        got = {}
        for sigma in all_permutations(3):
            restr = restrict_to_cell(mech, sigma)
            q, t = np.zeros((len(reps), 3)), np.zeros(len(reps))
            for k, w in enumerate(reps):
                v = [0.0] * 3
                for i in range(3):
                    v[sigma[i]] = w[i]
                kv = mech.index_of(tuple(v))
                t[k] = mech.t[kv]
                for i in range(3):
                    q[k, i] = mech.q[kv, sigma[i]]
            assert restr.types == tuple(reps) and restr.domain_tag == IDENTICAL
            assert restr.q.tobytes() == q.tobytes() and restr.t.tobytes() == t.tobytes()
            got[sigma] = restr.q.tobytes()
        assert got[(1, 2, 0)] != got[inverse_permutation((1, 2, 0))]

    def test_restriction_needs_a_permutation(self):
        ext = symmetric_extension(sorted_strict_mech())
        with pytest.raises(ValueError, match=re.escape("not a permutation of length 2: (0, 1, 2)")):
            restrict_to_cell(ext, (0, 1, 2))

    @pytest.mark.parametrize("sigma", [(0, 0), (1, 1), (0, 2)])
    def test_restriction_refuses_a_non_permutation(self, sigma):
        # the right length but not a permutation: refused by
        # inverse_permutation, not read through as a cell
        ext = symmetric_extension(sorted_strict_mech())
        with pytest.raises(ValueError, match=re.escape(f"not a permutation of length 2: {sigma}")):
            restrict_to_cell(ext, sigma)


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


# ---------------------------------------------------------------------------
# the per-profile loops the relabel table replaced, kept as references

def _loop_require_orbit_closed(mech: Mechanism, op: str) -> None:
    have = set(mech.types)
    for v in mech.types:
        for sigma in all_permutations(mech.n)[1:]:
            if apply_permutation(v, sigma) not in have:
                raise ValueError(f"{op} needs an orbit-closed domain; missing relabeling of {v}")


def _loop_symmetric_violations(mech: Mechanism, tol: float) -> list:
    _loop_require_orbit_closed(mech, "is_symmetric")
    violations = []
    for k, v in enumerate(mech.types):
        for sigma in all_permutations(mech.n)[1:]:
            ks = mech.index_of(apply_permutation(v, sigma))
            dt = abs(float(mech.t[ks]) - float(mech.t[k]))
            if dt > tol:
                violations.append(((v, sigma, "t"), dt))
            for i in range(mech.n):
                dq = abs(float(mech.q[ks, i]) - float(mech.q[k, sigma[i]]))
                if dq > tol:
                    violations.append(((v, sigma, "q", i), dq))
    return violations


def _loop_symmetric_extension(mech: Mechanism) -> Mechanism:
    perms = all_permutations(mech.n)
    types = sorted(
        {apply_permutation(w, inverse_permutation(s)) for w in mech.types for s in perms}
    )
    q = np.zeros((len(types), mech.n))
    t = np.zeros(len(types))
    for k, v in enumerate(types):
        sigma = cell_of(v)
        kw = mech.index_of(apply_permutation(v, sigma))
        for i in range(mech.n):
            q[k, sigma[i]] = mech.q[kw, i]
        t[k] = mech.t[kw]
    return Mechanism(types=tuple(types), q=q, t=t, domain_tag=HETEROGENEOUS)


def _loop_symmetrize(mech: Mechanism) -> Mechanism:
    _loop_require_orbit_closed(mech, "symmetrize")
    perms = all_permutations(mech.n)
    reps = sorted({sort_descending(v) for v in mech.types})
    q = np.zeros((len(reps), mech.n))
    t = np.zeros(len(reps))
    scale = 1.0 / len(perms)
    for k, w in enumerate(reps):
        acc_q = np.zeros(mech.n)
        acc_t = 0.0
        for sigma in perms:
            ks = mech.index_of(apply_permutation(w, sigma))
            inv = inverse_permutation(sigma)
            acc_q += mech.q[ks][list(inv)]
            acc_t += float(mech.t[ks])
        q[k] = acc_q * scale
        t[k] = acc_t * scale
    on_sorted = Mechanism(types=tuple(reps), q=q, t=t, domain_tag=IDENTICAL)
    return _loop_symmetric_extension(on_sorted)


def _loop_rank_preserving(mech: Mechanism, tol: float) -> list:
    violations = []
    for k, v in enumerate(mech.types):
        for i in range(mech.n):
            for j in range(mech.n):
                if v[i] > v[j]:
                    gap = float(mech.q[k, j] - mech.q[k, i])
                    if gap > tol:
                        violations.append(((v, i, j), gap))
    return violations


def _loop_ic_on_cells(mech: Mechanism, tol: float) -> tuple[list, int]:
    gain = ic_gains(mech)
    cells = [cell_of(v) for v in mech.types]
    violations = []
    n_pairs = 0
    T = len(mech.types)
    for i in range(T):
        for j in range(T):
            if i == j or cells[i] != cells[j]:
                continue
            n_pairs += 1
            if gain[i, j] > tol:
                violations.append(((mech.types[i], mech.types[j]), float(gain[i, j])))
    return violations, n_pairs


def _assert_audits_match_loops(mech: Mechanism, tol: float):
    rp = is_rank_preserving(mech, tol=tol)
    assert list(rp.violations) == _loop_rank_preserving(mech, tol)
    cells = check_ic_on_cells(mech, tol=tol)
    assert (list(cells.violations), cells.info["n_pairs"]) == _loop_ic_on_cells(mech, tol)
    assert type(cells.info["n_pairs"]) is int


def _random_mech(rng, n, points, domain_tag):
    grid = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
    enum = enumerate_hetero if domain_tag == HETEROGENEOUS else enumerate_identical
    types = enum(grid, strict_only=True)
    q = rng.random((len(types), n))
    # a few exact copies, so some comparisons tie
    q[rng.random(q.shape) < 0.3] = 0.5
    t = rng.choice([0.0, 0.25, 0.7], size=len(types)) + rng.random(len(types)) * (
        rng.random(len(types)) < 0.5
    )
    return Mechanism(types=types, q=q, t=t, domain_tag=domain_tag)


def _assert_same_mechanism(a: Mechanism, b: Mechanism):
    assert a.types == b.types
    assert a.domain_tag == b.domain_tag
    assert a.q.tobytes() == b.q.tobytes()
    assert a.t.tobytes() == b.t.tobytes()


@pytest.mark.parametrize("n, points", [(2, 4), (2, 7), (3, 4), (3, 5)])
class TestRelabelTableMatchesLoops:
    def test_symmetric_extension(self, n, points):
        mech = _random_mech(np.random.default_rng(points), n, points, IDENTICAL)
        _assert_same_mechanism(symmetric_extension(mech), _loop_symmetric_extension(mech))

    def test_symmetrize(self, n, points):
        mech = _random_mech(np.random.default_rng(points), n, points, HETEROGENEOUS)
        _assert_same_mechanism(symmetrize(mech), _loop_symmetrize(mech))

    @pytest.mark.parametrize("tol", [0.0, 0.3])
    def test_is_symmetric_violations_in_order(self, n, points, tol):
        rng = np.random.default_rng(points)
        asym = _random_mech(rng, n, points, HETEROGENEOUS)
        sym = symmetrize(asym)
        # a symmetric mechanism with a few entries knocked off
        q, t = sym.q.copy(), sym.t.copy()
        q[rng.integers(len(q), size=3), rng.integers(n, size=3)] = 0.0
        t[rng.integers(len(t))] += 0.5
        nudged = Mechanism(types=sym.types, q=q, t=t, domain_tag=HETEROGENEOUS)
        for mech in (asym, sym, nudged):
            report = is_symmetric(mech, tol=tol)
            expected = _loop_symmetric_violations(mech, tol)
            assert list(report.violations) == expected
            assert report.passed == (not expected)
        assert is_symmetric(sym).passed

    @pytest.mark.parametrize("tol", [0.0, 0.3])
    def test_rank_and_cell_audits_in_order(self, n, points, tol):
        rng = np.random.default_rng(points)
        asym = _random_mech(rng, n, points, HETEROGENEOUS)
        for mech in (asym, symmetrize(asym)):
            _assert_audits_match_loops(mech, tol)

    def test_missing_relabeling_named_alike(self, n, points):
        mech = _random_mech(np.random.default_rng(points), n, points, HETEROGENEOUS)
        for drop in (0, len(mech.types) // 2, len(mech.types) - 1):
            keep = [k for k in range(len(mech.types)) if k != drop]
            holed = Mechanism(
                types=[mech.types[k] for k in keep], q=mech.q[keep], t=mech.t[keep],
                domain_tag=HETEROGENEOUS,
            )
            with pytest.raises(ValueError) as want:
                _loop_require_orbit_closed(holed, "is_symmetric")
            with pytest.raises(ValueError, match=re.escape(str(want.value))):
                is_symmetric(holed)


REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "config",
    [
        "configs/theorem1_fuzz.json",
        "bench/configs/theorem1_lp_p7.json",
        "bench/configs/theorem1_random_n3.json",
    ],
)
def test_theorem1_config_audits_match_loops(monkeypatch, tmp_path, config):
    # every mechanism a theorem-1 config certifies; at tol -1 every ordered
    # coordinate pair and every pair within a cell is a violation
    mechs = []
    real = cli.certify_theorem1

    def recording(mech, tol):
        mechs.append(mech)
        return real(mech, tol=tol)

    monkeypatch.setattr(cli, "certify_theorem1", recording)
    assert cli.run_config(cli.load_config(str(REPO_ROOT / config)), tmp_path)
    assert mechs
    for mech in mechs:
        for tol in (1e-9, 0.0, -1.0):
            _assert_audits_match_loops(mech, tol)
