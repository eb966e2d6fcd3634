"""Acceptance suite: ten end-to-end checks, one test per numbered criterion.

Every reference value is computed from first principles inside this file
(grid price enumeration, exact counting) or cross-checked through an
independently tested code path.  Stated runtime budgets are measured with
a wall clock and asserted.  Run with -v to get one pass/fail line per
criterion.
"""

import json
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from mechlab.dist import (
    MarginalCdf,
    check_mcafee_mcmillan,
    comonotone_fmin,
    density_grid,
    identical_distribution_from_density,
    iid_distribution,
    is_exchangeable,
    mixture,
    one_step_map,
    restrict_to_strict,
    to_identical_density,
    uniform_distribution,
)
from mechlab.gen import (
    random_exchangeable_strict,
    random_ic_heterogeneous,
    random_ic_identical,
    rng_from_seed,
)
from mechlab.mech import (
    Mechanism,
    Menu,
    check_feasible_identical,
    check_ic,
    check_ir,
    expected_revenue,
    menu_to_mechanism,
    revenue_by_cell,
)
from mechlab.monotone import (
    check_object_nonbossy,
    check_prop_schur,
    is_almost_deterministic,
    lmax_repair,
    run_revenue_monotonicity_experiment,
    subgradient_polytope,
)
from mechlab.optlp import (
    certify_equivalence,
    extend_by_menu,
    optimal_deterministic,
    optimal_mechanism,
    optimal_symmetric_mechanism,
    optimal_uniform_price,
    taxation_menu,
    uniform_price_mechanism,
    worst_case_revenue,
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
from mechlab.typespace import (
    HETEROGENEOUS,
    IDENTICAL,
    Grid,
    all_permutations,
    enumerate_hetero,
    enumerate_identical,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# shared fixtures: nine exchangeable two-good instances, their optima


@lru_cache(maxsize=None)
def exchangeable_instances():
    """(label, strict hetero types, hetero dist, sorted strict types,
    folded identical dist) for grid sizes 3..5 and three joint shapes."""
    out = []
    for m in (3, 4, 5):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=m)
        types_h = tuple(enumerate_hetero(grid, strict_only=True))
        types_i = tuple(enumerate_identical(grid, strict_only=True))
        tot = m * (m + 1) / 2.0
        uni = MarginalCdf.from_pmf(grid.levels, [1.0 / m] * m)
        two = MarginalCdf.from_pmf(
            (grid.levels[0], grid.levels[-1]), (0.35, 0.65)
        )
        asc = MarginalCdf.from_pmf(grid.levels, [(i + 1) / tot for i in range(m)])
        dsc = MarginalCdf.from_pmf(grid.levels, [(m - i) / tot for i in range(m)])
        shapes = (
            ("iid_uniform", restrict_to_strict(iid_distribution(uni, 2))),
            ("iid_two_point", restrict_to_strict(iid_distribution(two, 2))),
            (
                "correlated_mixture",
                restrict_to_strict(
                    mixture(
                        [iid_distribution(asc, 2), iid_distribution(dsc, 2)],
                        (0.6, 0.4),
                    )
                ),
            ),
        )
        for name, dist_h in shapes:
            dist_i = to_identical_density(dist_h)
            out.append((f"m{m}_{name}", types_h, dist_h, types_i, dist_i))
    return tuple(out)


@lru_cache(maxsize=None)
def identical_optima():
    out = []
    for label, _, _, types_i, dist_i in exchangeable_instances():
        res = optimal_mechanism(list(types_i), dist_i, IDENTICAL)
        out.append((label, res, dist_i))
    return tuple(out)


@lru_cache(maxsize=None)
def heterogeneous_optima():
    out = []
    for label, types_h, dist_h, _, _ in exchangeable_instances():
        res = optimal_mechanism(list(types_h), dist_h, HETEROGENEOUS)
        out.append((label, res, dist_h))
    return tuple(out)


# ---------------------------------------------------------------------------
# 1. single-good grid: LP value equals the best posted price


def test_criterion_01_single_good_matches_posted_price_oracle():
    start = time.monotonic()
    m = 101
    levels = np.linspace(0.0, 1.0, m)
    grid = Grid.explicit(1, levels)
    types = enumerate_identical(grid)
    dist = uniform_distribution(types, IDENTICAL)
    res = optimal_mechanism(types, dist, IDENTICAL)

    # oracle: enumerate every posted price on the grid, uniform weights
    oracle = max(p * sum(1 for x in levels if x >= p) / m for p in levels)

    assert 0.24 <= res.revenue <= 0.26, res.revenue
    assert abs(res.revenue - oracle) <= 1e-8, (res.revenue, oracle)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"budget 10 s, took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. sorted-domain optimum == symmetric optimum on relabelings


def test_criterion_02_sorted_and_symmetric_optima_agree():
    start = time.monotonic()
    for label, types_h, dist_h, types_i, dist_i in exchangeable_instances():
        assert is_exchangeable(dist_h).passed, label
        rep = certify_equivalence(
            (types_i, dist_i), (types_h, dist_h), tol=1e-7
        )
        assert rep.passed, (label, rep.violations[:2])
        gap = abs(rep.info["revenue_identical"] - rep.info["revenue_symmetric"])
        assert gap <= 1e-7, (label, gap)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget 60 s, took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. restricting the LP to symmetric mechanisms costs no revenue


def test_criterion_03_symmetric_restriction_costs_nothing():
    for (label, full, dist_h), (_, sym_res, _) in zip(
        heterogeneous_optima(),
        [
            (label, optimal_symmetric_mechanism(list(types_h), dist_h), dist_h)
            for label, types_h, dist_h, _, _ in exchangeable_instances()
        ],
    ):
        assert abs(full.revenue - sym_res.revenue) <= 1e-7, (
            label,
            full.revenue,
            sym_res.revenue,
        )
        averaged = symmetrize(full.mechanism)
        assert is_symmetric(averaged, tol=0.0).passed, label
        drift = abs(expected_revenue(averaged, dist_h) - full.revenue)
        assert drift <= 1e-9, (label, drift)


# ---------------------------------------------------------------------------
# 4. symmetric truthful <=> rank preserving + truthful within cells


def test_criterion_04_symmetry_rank_truthfulness_equivalence():
    tol = 1e-9
    grids_h = (
        Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3),
        Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4),
        Grid.uniform(n=3, v_low=0.0, v_high=1.0, points=3),
    )
    for i in range(200):
        mech = random_ic_heterogeneous(rng_from_seed(40_000 + i), grids_h[i % 3])
        averaged = symmetrize(mech)
        rp = is_rank_preserving(averaged, tol=tol)
        assert rp.passed, (i, rp.violations[:1])

    grids_i = (
        Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3),
        Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=4),
        Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=5),
    )
    for i in range(200):
        base = random_ic_identical(
            rng_from_seed(41_000 + i), grids_i[i % 3], strict_only=True
        )
        # sorted menus keep allocations weakly decreasing: the base is
        # rank preserving on its cell and truthful there by construction
        assert check_feasible_identical(base, tol=tol).passed, i
        ext = symmetric_extension(base)
        assert check_ic(ext, tol=tol).passed, i
        assert is_rank_preserving(ext, tol=tol).passed, i
        assert check_ic_on_cells(ext, tol=tol).passed, i

    # hand fixture: symmetric, truthful within each cell, yet globally
    # manipulable because it always awards the lower-valued object
    lo, hi = 0.2, 0.8
    fixture = Mechanism(
        types=((lo, hi), (hi, lo)),
        q=np.array([[1.0, 0.0], [0.0, 1.0]]),
        t=np.zeros(2),
        domain_tag=HETEROGENEOUS,
    )
    assert is_symmetric(fixture, tol=0.0).passed
    assert check_ic_on_cells(fixture, tol=tol).passed
    assert not is_rank_preserving(fixture, tol=tol).passed
    ic = check_ic(fixture, tol=tol)
    assert not ic.passed
    (witness, gain) = max(ic.violations, key=lambda wg: wg[1])
    assert set(witness) == {(lo, hi), (hi, lo)}
    assert abs(gain - (hi - lo)) <= 1e-12
    assert certify_theorem1(fixture, tol=tol).passed


# ---------------------------------------------------------------------------
# 5. an allocation that majorizes another never pays less


def test_criterion_05_payment_follows_majorization():
    tol = 1e-9
    total_pairs = 0
    for label, res, _ in identical_optima():
        rep = check_prop_schur(res.mechanism, tol=tol)
        assert rep.passed, (label, rep.violations[:2])
        total_pairs += rep.info["n_ordered_pairs"]
    for label, res, _ in heterogeneous_optima():
        rep = check_prop_schur(symmetrize(res.mechanism), tol=tol)
        assert rep.passed, (label, rep.violations[:2])
        total_pairs += rep.info["n_ordered_pairs"]
    for i in range(45):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=5 + (i % 2))
        mech = random_ic_identical(rng_from_seed(50_000 + i), grid)
        rep = check_prop_schur(mech, tol=tol)
        assert rep.passed, (i, rep.violations[:2])
        total_pairs += rep.info["n_ordered_pairs"]
    assert total_pairs >= 10_000, total_pairs


# ---------------------------------------------------------------------------
# 6. one posted per-unit price is robust to correlation


def test_criterion_06_uniform_price_worst_case_sandwich():
    start = time.monotonic()
    marginals = (
        ("uniform_11", MarginalCdf.from_pmf(np.linspace(0.0, 1.0, 11), [1.0 / 11] * 11)),
        ("two_point", MarginalCdf.from_pmf((0.2, 0.8), (0.5, 0.5))),
    )
    for name, g_avg in marginals:
        for n in (2, 3):
            price, formula = optimal_uniform_price(g_avg, n)
            grid = Grid.explicit(n, g_avg.levels)
            types = enumerate_identical(grid)
            mech = uniform_price_mechanism(types, price, IDENTICAL)
            assert check_ic(mech, tol=1e-12).passed, (name, n)
            assert check_ir(mech, tol=1e-12).passed, (name, n)

            wc_min, _, _ = worst_case_revenue(mech, g_avg, sense="min")
            wc_max, _, _ = worst_case_revenue(mech, g_avg, sense="max")
            assert abs(wc_min - formula) <= 1e-8, (name, n, wc_min, formula)
            assert abs(wc_max - wc_min) <= 1e-8, (name, n, wc_min, wc_max)

            # LP optimum against the fully correlated (diagonal) joint
            # stays within one price step of the posted-price guarantee
            fmin = comonotone_fmin(g_avg, n)
            res = optimal_mechanism(list(fmin.types), fmin, IDENTICAL)
            step = n * max(
                b - a for a, b in zip(g_avg.levels, g_avg.levels[1:])
            )
            assert abs(res.revenue - formula) <= step, (name, n, res.revenue)

            # gluing the diagonal optimum onto the full sorted grid keeps
            # the value and the audits: the support solve loses nothing
            ext = extend_by_menu(res.mechanism, types)
            assert check_ic(ext, tol=1e-8).passed, (name, n)
            assert check_ir(ext, tol=1e-8).passed, (name, n)
            assert abs(expected_revenue(ext, fmin) - res.revenue) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"budget 120 s, took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 7. lexicographic subgradient repair contract


def _flattened_fixture(rng, grid) -> Mechanism:
    """Menu mechanism with its positive prices pushed up, enlarging the
    opt-out pool so many types share constant utility."""
    mech = random_ic_identical(rng, grid, max_items=3)
    bump = 0.05 * float(rng.uniform(0.2, 1.0))
    items = [
        (a, p + bump if any(x > 0.0 for x in a) else 0.0)
        for a, p in taxation_menu(mech).items
    ]
    items.sort(key=lambda ap: (-ap[1], tuple(-x for x in ap[0])))
    return menu_to_mechanism(Menu(items=tuple(items)), mech.types, IDENTICAL)


def test_criterion_07_lexmax_repair_contract():
    tol = 1e-9
    singleton_agreements = 0
    for i in range(50):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3 + (i % 2))
        mech = _flattened_fixture(rng_from_seed(60_000 + i), grid)
        fixed = lmax_repair(mech)
        assert check_ic(fixed, tol=tol).passed, i
        assert check_ir(fixed, tol=tol).passed, i
        assert check_object_nonbossy(fixed, tol=tol).passed, i
        assert check_feasible_identical(fixed, tol=tol).passed, i
        drift = float(np.max(np.abs(fixed.utilities() - mech.utilities())))
        assert drift <= 1e-10, (i, drift)
        for k, v in enumerate(mech.types):
            if subgradient_polytope(mech, v).is_singleton():
                singleton_agreements += 1
                assert np.allclose(fixed.q[k], mech.q[k], atol=1e-8), (i, v)
    assert singleton_agreements > 0

    for i in range(20):
        grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=3 + (i % 2))
        mech = random_ic_identical(
            rng_from_seed(61_000 + i), grid, almost_deterministic=True
        )
        fixed = lmax_repair(mech, almost_deterministic=True)
        assert check_ic(fixed, tol=tol).passed, i
        assert check_ir(fixed, tol=tol).passed, i
        assert check_object_nonbossy(fixed, tol=tol).passed, i
        assert is_almost_deterministic(fixed, tol=1e-6).passed, i
        assert is_rank_preserving(fixed, tol=tol).passed, i
        drift = float(np.max(np.abs(fixed.utilities() - mech.utilities())))
        assert drift <= 1e-10, (i, drift)


# ---------------------------------------------------------------------------
# 8. density slope condition, near-deterministic optima, upward shifts


def test_criterion_08_density_condition_structure_and_shift():
    grid5 = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=5)
    assert check_mcafee_mcmillan(density_grid(grid5, "uniform"), grid5).passed
    assert check_mcafee_mcmillan(
        density_grid(grid5, "exp_rate", {"a": 1.0}), grid5
    ).passed

    steep = check_mcafee_mcmillan(density_grid(grid5, "exp_rate", {"a": 10.0}), grid5)
    assert not steep.passed
    interior = [
        w
        for (w,), _ in steep.violations
        if all(0.0 < x < 1.0 for x in w)
    ]
    assert interior, steep.violations[:3]

    for expr, params in (("uniform", None), ("exp_rate", {"a": 1.0})):
        for m in (5, 8):
            grid = Grid.uniform(n=2, v_low=0.0, v_high=1.0, points=m)
            dist = identical_distribution_from_density(
                grid, density_grid(grid, expr, params)
            )
            types = enumerate_identical(grid)
            res = optimal_mechanism(types, dist, IDENTICAL)
            ad = is_almost_deterministic(res.mechanism, tol=1e-6)
            assert ad.passed, (expr, m, ad.violations[:2])

            rep = run_revenue_monotonicity_experiment(
                res.mechanism, dist, one_step_map(grid.levels), tol=1e-9
            )
            assert rep.passed, (expr, m, rep.violations)
            assert rep.info["asserted"], (expr, m, rep.info["reason"])
            assert rep.info["delta"] >= -1e-9, (expr, m, rep.info["delta"])


# ---------------------------------------------------------------------------
# 9. deterministic search: rank-preserving optimum <=> symmetric optimum


def _criterion_09_instances():
    grid = Grid.uniform(n=2, v_low=0.2, v_high=1.0, points=3)
    types = enumerate_hetero(grid, strict_only=True)
    tot = 6.0
    asc = MarginalCdf.from_pmf(grid.levels, [1 / tot, 2 / tot, 3 / tot])
    dsc = MarginalCdf.from_pmf(grid.levels, [3 / tot, 2 / tot, 1 / tot])
    yield "uniform", types, uniform_distribution(types, HETEROGENEOUS)
    yield "iid_ascending", types, restrict_to_strict(iid_distribution(asc, 2))
    yield "mixture", types, restrict_to_strict(
        mixture([iid_distribution(asc, 2), iid_distribution(dsc, 2)], (0.6, 0.4))
    )
    for seed in (3, 5, 9):
        yield f"seed_{seed}", types, random_exchangeable_strict(
            rng_from_seed(seed), Grid.uniform(n=2, v_low=0.2, v_high=1.0, points=3)
        )


def _is_deterministic(mech: Mechanism) -> bool:
    return float(np.max(np.minimum(mech.q, 1.0 - mech.q))) <= 1e-12


def test_criterion_09_deterministic_search_symmetry_equivalence():
    start = time.monotonic()
    tol = 1e-9
    for label, types, dist in _criterion_09_instances():
        assert is_exchangeable(dist).passed, label
        res = optimal_deterministic(types, dist, HETEROGENEOUS)

        # exhaustiveness certificate, recounted from first principles:
        # 0/1 bundles except the empty one, each priced at a type-bundle
        # value or left off the menu
        bundles = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        prices = {
            float(np.dot(v, a))
            for v in types
            for a in bundles
            if float(np.dot(v, a)) > 0.0
        }
        assert res.n_menus_searched == (len(prices) + 1) ** len(bundles)
        assert res.optimal_menus, label

        mechs = [menu_to_mechanism(menu, types, HETEROGENEOUS) for menu in res.optimal_menus]
        rank_preserving = [
            m_ for m_ in mechs if is_rank_preserving(m_, tol=tol).passed
        ]

        symmetric_found = [
            m_
            for m_ in mechs
            if is_symmetric(m_, tol=tol).passed
            and abs(expected_revenue(m_, dist) - res.revenue) <= tol
        ]
        for mech in mechs:
            for sigma in all_permutations(2):
                try:
                    ext = symmetric_extension(restrict_to_cell(mech, sigma))
                except Exception:
                    continue  # cell content unusable as a sorted mechanism
                if (
                    check_ic(ext, tol=tol).passed
                    and check_ir(ext, tol=tol).passed
                    and abs(expected_revenue(ext, dist) - res.revenue) <= tol
                ):
                    symmetric_found.append(ext)

        assert bool(rank_preserving) == bool(symmetric_found), label

        if rank_preserving:
            # constructive direction: copy the best ordering cell of a
            # rank-preserving optimum everywhere
            best = rank_preserving[0]
            by_cell = revenue_by_cell(best, dist)
            sigma_hat = max(by_cell, key=lambda s: by_cell[s])
            built = symmetric_extension(restrict_to_cell(best, sigma_hat))
            assert is_symmetric(built, tol=0.0).passed, label
            assert _is_deterministic(built), label
            assert check_ic(built, tol=tol).passed, label
            assert check_ir(built, tol=tol).passed, label
            assert abs(expected_revenue(built, dist) - res.revenue) <= tol, label
        for found in symmetric_found:
            # any symmetric equal-revenue optimum must be rank preserving
            assert is_rank_preserving(found, tol=tol).passed, label
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"budget 300 s, took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 10. byte-identical artifacts across repeated runs


def _cli(*args: str) -> subprocess.CompletedProcess:
    code = "import sys; from mechlab.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    config = REPO_ROOT / "configs" / "acceptance.json"
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    for out in (out_a, out_b):
        proc = _cli("run", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr

    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["checks"], "summary must carry the audit outcomes"
    for name in ("summary.json", "audits.json", "mechanism.csv", "distribution.csv"):
        a = (out_a / name).read_bytes()
        b = (out_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
