"""mechlab: finite-grid laboratory for revenue-optimal multi-object selling.

Modules
-------
typespace   grids, permutations, ordering cells
mech        mechanisms, audits, menus, revenue, serialization
symmetry    relabeling invariance, order preservation, extensions
dist        distributions, marginals, shifts, density diagnostics
simplex     bounded-variable revised simplex on the inverse of the basis kernel
            (deterministic, steepest-edge weights, dual-simplex warm start by dual
            steepest edge, per-solve trace of counts)
optlp       revenue LPs, adversarial LPs, certified comparisons
monotone    majorization tools, subgradient repairs, monotonicity runs
gen         seeded random menus and mechanisms for fuzz suites
cli         experiment driver (`mechlab run`, `mechlab export-lp`)
"""

__version__ = "0.1.0"

from .typespace import (  # noqa: F401
    Grid,
    HETEROGENEOUS,
    IDENTICAL,
    all_permutations,
    apply_permutation,
    cell_of,
    compose,
    enumerate_hetero,
    enumerate_identical,
    identity_permutation,
    inverse_permutation,
    is_strict,
    sort_descending,
)
from .mech import (  # noqa: F401
    AuditReport,
    Mechanism,
    MechanismError,
    Menu,
    check_feasible_identical,
    check_ic,
    check_ir,
    expected_revenue,
    make_menu,
    menu_to_mechanism,
    read_mechanism_csv,
    revenue_by_cell,
    write_mechanism_csv,
)
from .dist import (  # noqa: F401
    Distribution,
    DistributionError,
    MarginalCdf,
    average_marginal,
    check_mcafee_mcmillan,
    comonotone_fmin,
    density_grid,
    distribution_from_density,
    fosd_shift,
    identical_distribution_from_density,
    iid_distribution,
    is_exchangeable,
    mixture,
    one_step_map,
    restrict_to_strict,
    table_distribution,
    to_identical_density,
    uniform_distribution,
)
from .symmetry import (  # noqa: F401
    certify_theorem1,
    check_ic_on_cells,
    is_rank_preserving,
    is_symmetric,
    restrict_to_cell,
    symmetric_extension,
    symmetrize,
)
from .optlp import (  # noqa: F401
    InfeasibleError,
    LazyRound,
    LinearProgram,
    LpError,
    OptimalResult,
    build_revenue_lp,
    certify_equivalence,
    export_lp_text,
    extend_by_menu,
    optimal_deterministic,
    optimal_mechanism,
    optimal_symmetric_mechanism,
    optimal_uniform_price,
    solve_lp,
    taxation_menu,
    uniform_price_mechanism,
    worst_case_revenue,
)
from .monotone import (  # noqa: F401
    check_majorization_monotonicity,
    check_object_nonbossy,
    check_prop_schur,
    is_almost_deterministic,
    lmax_repair,
    run_revenue_monotonicity_experiment,
    subgradient_polytope,
    weakly_majorizes,
)
