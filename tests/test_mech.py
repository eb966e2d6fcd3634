"""Mechanism container, audits, menus, revenue, and serialization tests.

The swap fixture used throughout: on strict two-object profiles, give the
object the buyer values LESS, charge nothing.  It is relabeling-invariant
and truthful within each ordering cell but globally manipulable, which
makes it the canonical witness separating per-cell from global
truthfulness.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mechlab.mech as mech_mod
from mechlab.mech import (
    AuditReport,
    Mechanism,
    MechanismError,
    Menu,
    check_feasible_identical,
    check_ic,
    check_ir,
    expected_revenue,
    make_menu,
    mechanism_from_json,
    mechanism_to_json,
    menu_to_mechanism,
    pairwise_value,
    read_mechanism_csv,
    revenue_by_cell,
    write_mechanism_csv,
)
from mechlab.typespace import Grid, enumerate_hetero, enumerate_identical
from mechlab.dist import table_distribution


def swap_fixture():
    """Give-the-less-valued-object mechanism on {0.3, 0.7}^2 strict types."""
    types = [(0.3, 0.7), (0.7, 0.3)]
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = np.zeros(2)
    return Mechanism(types=tuple(types), q=q, t=t, domain_tag="heterogeneous")


def posted_price_identical(price=0.5):
    """Sell the first object at a fixed price on a sorted 2-object grid."""
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    types = enumerate_identical(g)
    items = [((1.0, 0.0), price)]
    return menu_to_mechanism(make_menu(items), types, "identical")


def test_mechanism_validation():
    with pytest.raises(MechanismError):
        Mechanism(types=(), q=np.zeros((0, 2)), t=np.zeros(0), domain_tag="identical")
    with pytest.raises(MechanismError):
        Mechanism(
            types=((0.0, 1.0),),  # not sorted
            q=np.array([[0.5, 0.5]]),
            t=np.zeros(1),
            domain_tag="identical",
        )
    with pytest.raises(MechanismError):
        Mechanism(
            types=((1.0, 0.0),),
            q=np.array([[1.5, 0.0]]),
            t=np.zeros(1),
            domain_tag="identical",
        )
    with pytest.raises(MechanismError):
        Mechanism(
            types=((1.0, 0.0),),
            q=np.array([[1.0, 0.0]]),
            t=np.zeros(1),
            domain_tag="bogus",
        )


@pytest.mark.parametrize(
    "types, q, t, tag, message",
    [
        ((), np.zeros((0, 2)), np.zeros(0), "identical", "empty type list"),
        (((1.0, 0.5), (1.0,)), np.zeros((2, 2)), np.zeros(2), "identical", "ragged type profiles"),
        ((1.0, 0.5), np.zeros((2, 1)), np.zeros(2), "identical", "type profiles must be flat sequences, got shape (2,)"),
        (((1.0, 0.5),), np.zeros((2, 2)), np.zeros(1), "identical", "q shape (2, 2) != (1, 2)"),
        (((1.0, 0.5),), np.zeros((1, 2)), np.zeros(2), "identical", "t shape (2,) != (1,)"),
        (((1.0, 0.5), (0.5, 0.5)), [[0.0, 0.0], [1.5, 0.0]], np.zeros(2), "identical", "allocation outside [0,1] at type index 1"),
        (((1.0, 0.5),), np.zeros((1, 2)), np.zeros(1), "bogus", "unknown domain_tag 'bogus'"),
        (
            ((1.0, 0.5), (0.2, 0.7), (0.1, 0.9)), np.zeros((3, 2)), np.zeros(3), "identical",
            "identical domain requires sorted profiles, got (0.2, 0.7)",
        ),
        (((0.2, 0.7), (0.2, 0.7)), np.zeros((2, 2)), np.zeros(2), "heterogeneous", "duplicate type profiles"),
        (((1.0, 0.5),), np.full((1, 2), np.nan), np.full(1, np.nan), "identical", "q must be finite"),
    ],
    ids=["empty", "ragged", "flat", "q-shape", "t-shape", "box", "tag", "unsorted", "duplicate", "nan"],
)
def test_mechanism_error_messages(types, q, t, tag, message):
    with pytest.raises(MechanismError) as err:
        Mechanism(types=types, q=q, t=t, domain_tag=tag)
    assert str(err.value) == message


def test_mechanism_converts_profiles_to_float_tuples():
    m = Mechanism(types=[[1, 0], np.array([0.5, 0.5])], q=np.zeros((2, 2)), t=np.zeros(2), domain_tag="identical")
    assert m.types == ((1.0, 0.0), (0.5, 0.5))
    assert all(type(x) is float for v in m.types for x in v)
    assert m.index_of((0.5, 0.5)) == 1


def test_mechanism_immutable_and_lookup():
    m = swap_fixture()
    with pytest.raises(ValueError):
        m.q[0, 0] = 0.5
    # the type array is built once and shared read-only
    assert m.V is m.V and not m.V.flags.writeable
    assert m.index_of((0.7, 0.3)) == 1
    assert m.t_at((0.3, 0.7)) == 0.0
    with pytest.raises(KeyError):
        m.index_of((0.5, 0.5))


def test_pairwise_value_matches_manual_dots():
    rng = np.random.default_rng(3)
    V = rng.uniform(size=(5, 3))
    Q = rng.uniform(size=(4, 3))
    M = pairwise_value(V, Q)
    for i in range(5):
        for k in range(4):
            manual = (V[i] * Q[k]).sum()
            assert M[i, k] == manual  # bitwise: same operands, same order


@pytest.mark.parametrize("seed", range(4))
def test_ic_gains_of_some_rows_are_those_rows_of_every_gain(seed):
    # random, untruthful tables on strict heterogeneous profiles; the rows
    # are the sorted representatives, as the orbit LP reads them, and then
    # a random subset in random order
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    types = enumerate_hetero(Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=4), strict_only=True)
    mech = Mechanism(types, rng.uniform(size=(len(types), n)), rng.uniform(size=len(types)), "heterogeneous")
    reps = np.array([k for k, v in enumerate(types) if list(v) == sorted(v, reverse=True)])
    for rows in (reps, rng.permutation(len(types))[: len(types) // 3]):
        part = mech_mod.ic_gains(mech, rows)
        assert part.shape == (rows.size, len(types))
        assert part.tobytes() == mech_mod.ic_gains(mech)[rows].tobytes()
        assert np.all(part[np.arange(rows.size), rows] == -np.inf)
        assert np.count_nonzero(part == -np.inf) == rows.size


def test_swap_fixture_fails_ic_with_every_pair():
    m = swap_fixture()
    rep = check_ic(m)
    assert not rep.passed
    # both ordered misreports are profitable: each type would rather
    # receive its preferred object by claiming the opposite ranking
    witnesses = {w for w, _ in rep.violations}
    assert witnesses == {((0.3, 0.7), (0.7, 0.3)), ((0.7, 0.3), (0.3, 0.7))}
    slack = dict(rep.violations)
    assert slack[((0.7, 0.3), (0.3, 0.7))] == pytest.approx(0.4, abs=1e-12)
    assert rep.max_slack == pytest.approx(0.4, abs=1e-12)


def test_swap_fixture_passes_ir():
    rep = check_ir(swap_fixture())
    assert rep.passed
    assert rep.violations == ()


def test_ir_detects_negative_utility():
    m = Mechanism(
        types=((1.0, 0.0), (0.5, 0.0)),
        q=np.array([[1.0, 0.0], [0.0, 0.0]]),
        t=np.array([0.2, 0.1]),
        domain_tag="identical",
    )
    rep = check_ir(m)
    assert not rep.passed
    assert rep.violations[0][0] == ((0.5, 0.0),)
    assert rep.violations[0][1] == pytest.approx(0.1)


def test_feasible_identical_flags_increasing_allocation():
    m = Mechanism(
        types=((1.0, 0.5),),
        q=np.array([[0.2, 0.9]]),
        t=np.zeros(1),
        domain_tag="identical",
    )
    rep = check_feasible_identical(m)
    assert not rep.passed
    assert rep.violations[0][1] == pytest.approx(0.7)
    with pytest.raises(MechanismError):
        check_feasible_identical(swap_fixture())


def test_audit_report_consistency_enforced():
    with pytest.raises(ValueError):
        AuditReport(check="x", passed=True, violations=((("w",), 1.0),))


def test_menu_requires_null_item():
    with pytest.raises(ValueError):
        Menu(items=(((1.0, 0.0), 0.5),))
    m = make_menu([((1.0, 0.0), 0.5)])
    assert m.items[0] == ((0.0, 0.0), 0.0)


def test_menu_to_mechanism_posted_price():
    m = posted_price_identical(0.5)
    # buying iff v_1 >= 0.5; ties at v_1 = 0.5 buy (zero utility either
    # way, null has the lower index) -> stay out
    for v in m.types:
        k = m.index_of(v)
        if v[0] > 0.5:
            assert m.q[k].tolist() == [1.0, 0.0]
            assert m.t[k] == 0.5
        elif v[0] < 0.5:
            assert m.q[k].tolist() == [0.0, 0.0]
    # exact tie: null item wins by index
    k = m.index_of((0.5, 0.0))
    assert m.q[k].tolist() == [0.0, 0.0]


def test_menu_mechanisms_ic_ir_at_zero_tolerance():
    """Exhaustive pairwise audit at tol=0 on grids up to 64 types."""
    rng = np.random.default_rng(11)
    for n, points in [(1, 5), (2, 8), (3, 4), (2, 5)]:
        g = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=points)
        types = enumerate_hetero(g)
        assert len(types) <= 64
        for _ in range(5):
            k = int(rng.integers(1, 5))
            allocs = rng.uniform(size=(k, n)).round(2)
            prices = rng.uniform(-0.2, 1.2, size=k).round(2)
            menu = make_menu(list(zip(allocs.tolist(), prices.tolist())))
            m = menu_to_mechanism(menu, types, "heterogeneous")
            assert check_ic(m, tol=0.0).passed
            assert check_ir(m, tol=0.0).passed


def test_expected_revenue_and_by_cell():
    m = swap_fixture()
    d = table_distribution(m.types, [0.25, 0.75], "heterogeneous")
    assert expected_revenue(m, d) == 0.0
    pp = posted_price_identical(0.5)
    dd = table_distribution(pp.types, np.full(6, 1 / 6), "identical")
    # buyers at (1.0, 0.0), (1.0, 0.5), (1.0, 1.0) pay 0.5 wait; see below
    # types with v_1 > 0.5: (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)
    assert expected_revenue(pp, dd) == pytest.approx(3 * (1 / 6) * 0.5)

    d_swap = table_distribution(m.types, [0.25, 0.75], "heterogeneous")
    cells = revenue_by_cell(m, d_swap)
    assert set(cells) == {(0, 1), (1, 0)}
    assert cells[(0, 1)] == 0.0 and cells[(1, 0)] == 0.0


def test_revenue_domain_mismatch():
    m = swap_fixture()
    d = table_distribution([(0.1, 0.9)], [1.0], "heterogeneous")
    with pytest.raises(KeyError):
        expected_revenue(m, d)


def test_revenue_by_cell_sums_to_strict_revenue():
    g = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3)
    types = enumerate_hetero(g)
    menu = make_menu([((1.0, 1.0), 0.8), ((1.0, 0.0), 0.5)])
    m = menu_to_mechanism(menu, types, "heterogeneous")
    w = np.full(len(types), 1 / len(types))
    d = table_distribution(types, w, "heterogeneous")
    cells = revenue_by_cell(m, d)
    strict_rev = sum(
        wk * m.t_at(v) for v, wk in zip(d.types, d.weights) if len(set(v)) == len(v)
    )
    assert sum(cells.values()) == pytest.approx(strict_rev, abs=1e-12)


def test_json_roundtrip():
    m = posted_price_identical(0.5)
    m2 = mechanism_from_json(mechanism_to_json(m))
    assert m2.types == m.types
    assert np.array_equal(m2.q, m.q)
    assert np.array_equal(m2.t, m.t)
    assert m2.domain_tag == m.domain_tag


def test_csv_roundtrip(tmp_path):
    m = posted_price_identical(0.5)
    path = tmp_path / "mech.csv"
    write_mechanism_csv(m, path)
    m2 = read_mechanism_csv(path, "identical")
    assert m2.types == m.types
    assert np.array_equal(m2.q, m.q)
    assert np.array_equal(m2.t, m.t)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 10_000),
)
def test_property_menu_mechanisms_truthful(n, k, seed):
    """Any menu on any small grid induces a truthful, participating mechanism."""
    rng = np.random.default_rng(seed)
    g = Grid.uniform(n=n, v_low=0.0, v_high=1.0, points=3)
    types = enumerate_hetero(g)
    allocs = rng.uniform(size=(k, n))
    prices = rng.uniform(-0.5, 1.5, size=k)
    menu = make_menu(list(zip(allocs.tolist(), prices.tolist())))
    m = menu_to_mechanism(menu, types, "heterogeneous")
    assert check_ic(m, tol=0.0).passed
    assert check_ir(m, tol=0.0).passed


def test_default_tolerance_exported():
    assert mech_mod.DEFAULT_TOL == 1e-9


def fraction_utility(v, a, price) -> Fraction:
    """The Fraction arithmetic that `mech._exact_utility` replaced, kept
    as its reference."""
    total = -Fraction(float(price))
    for x, y in zip(v, a):
        total += Fraction(float(x)) * Fraction(float(y))
    return total


def test_exact_utility_and_menu_choice_match_fraction_reference():
    # Values on tenths, allocations on halves, and each price another
    # grid profile's float value of its item: over 3,000 type rows, many
    # items tie exactly in rationals, and on some rows the float argmax
    # is not the exact one.
    rng = np.random.default_rng(19)
    levels = np.round(np.arange(11) / 10, 1)
    ties = flips = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        V = rng.choice(levels, size=(6, n))
        A = rng.choice([0.0, 0.5, 1.0], size=(5, n))
        P = rng.choice(levels, size=(5, n))
        prices = np.array([sum((p * a).tolist()) for p, a in zip(P, A)])
        choice = mech_mod.menu_choice_indices(V, A, prices)
        scores = pairwise_value(V, A) - prices
        for k, v in enumerate(V):
            exact = [fraction_utility(v, a, p) for a, p in zip(A, prices)]
            got = [mech_mod._exact_utility(v, a, p) for a, p in zip(A, prices)]
            assert [Fraction(num, den) for num, den in got] == exact
            best = exact.index(max(exact))
            assert choice[k] == best
            ties += exact.count(max(exact)) > 1
            flips += int(np.argmax(scores[k])) != best
    assert ties > 300 and flips > 10
