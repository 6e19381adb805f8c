"""Exact moment-matrix decomposition and PSD certification over the rationals.

The package builds truncated moment matrices indexed by subsets of a
finite ground set, rewrites them congruently as a diagonal plus signed
rank-one terms, and certifies positive semidefiniteness either cheaply
(pivot folding plus Gershgorin disks) or definitively (exact rational
elimination with explicit witnesses). On top of that sit three
integrality-gap instance families whose closed-form solutions the
certifiers verify end to end.
"""

from .adf import (
    AdfError,
    AlmostDiagonalForm,
    RankOneTerm,
    assemble,
    choose,
    decompose,
    from_pseudo,
    g_vector,
    quadratic_form,
)
from .certify import (
    CertifyError,
    GershgorinReport,
    InvalidPivotError,
    PivotState,
    PivotStep,
    PsdCertificate,
    certify_matrix,
    certify_recipe,
    gershgorin,
    is_psd_exact,
    pivot_reduce,
    principal_minors_psd,
    quad_eval,
)
from .gaps import (
    GapError,
    GapReport,
    InfeasibleParametersError,
    KnapsackGapInstance,
    MkpInstance,
    ScheduleInstance,
    TraceBoundReport,
    build_knapsack,
    build_mkp,
    build_schedule,
    find_min_feasible_P,
    instance_from_json,
    instance_solution,
    instance_to_json,
    knapsack_constraint,
    knapsack_integral_optimum,
    knapsack_solution,
    lift_solution,
    mkp_integral_optimum,
    mkp_uniform_solution,
    relaxation_objective,
    schedule_integral_optimum,
    schedule_solution,
    trace_bound_check,
    uniform_low_cardinality,
    verify_knapsack_level,
    verify_mkp,
    verify_schedule,
)
from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    ConstraintPolynomial,
    LatticeError,
    LatticeVector,
    SubsetIndex,
    enumerate_subsets,
    from_pseudo_probabilities,
    max_ground_size,
    pair_value,
    rat,
    rat_str,
    to_pseudo_probabilities,
)
from .moments import (
    MomentMatrix,
    ZetaBlock,
    constraint_diagonal,
    extract_distribution,
    full_diagonalize,
    moment_matrix,
    shift,
)
from .replay import (
    CANONICAL_PIVOTS,
    REDUCTION_STAGES,
    TRANSCRIBED_STAGES,
    ReplayResult,
    canonical_instance,
    canonical_schedule,
    normalized_demand_form,
    replay_demand_reduction,
    stage_matrices,
)

__version__ = "0.1.0"
