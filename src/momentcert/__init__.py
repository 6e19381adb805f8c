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
    decide_form,
    gershgorin,
    is_psd_exact,
    pivot_reduce,
    quad_eval,
)
from .gaps import (
    GapError,
    GapReport,
    InfeasibleParametersError,
    KnapsackGapInstance,
    MkpInstance,
    ScheduleInstance,
    build_knapsack,
    build_mkp,
    build_schedule,
    find_min_feasible_P,
    instance_from_json,
    instance_to_json,
    knapsack_constraint,
    knapsack_solution,
    mkp_uniform_solution,
    relaxation_objective,
    schedule_solution,
    uniform_low_cardinality,
    verify_knapsack_level,
    verify_mkp,
    verify_schedule,
)
from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeError,
    LatticeVector,
    LinearConstraint,
    SubsetIndex,
    enumerate_subsets,
    from_pseudo_probabilities,
    max_ground_size,
    rat,
    rat_str,
    to_pseudo_probabilities,
)
from .moments import constraint_diagonal
from .replay import (
    CANONICAL_PIVOTS,
    REDUCTION_STAGES,
    ReplayResult,
    canonical_instance,
    canonical_schedule,
    normalized_demand_form,
    replay_demand_reduction,
)

__version__ = "0.1.0"
