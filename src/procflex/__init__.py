"""Flexibility-graph analysis and design for parallel server systems.

The combinatorial half of the package works on exact rational data: instance
validation and feasibility, redundant-edge detection, resource-pooling
decomposition, sparsest-graph design, single-edge upgrades and multi-step
upgrade planning, and robustness margins under demand perturbation.  The
simulation half runs a discrete-time MaxWeight queueing system and checks the
heavy-traffic predictions the decomposition makes.
"""

from .errors import (
    AlreadyCrp,
    DuplicateEdge,
    EdgeAlreadyPresent,
    EdgeOutOfRange,
    GapUndefined,
    IndexOutOfRange,
    Infeasible,
    InternalMergeStuck,
    InvalidEpsilon,
    InvalidK,
    InvariantViolation,
    IsolatedServer,
    NegativeRate,
    ProcflexError,
    SizeLimitExceeded,
    TargetAboveDstarStar,
    UnbalancedTotals,
    ZeroVector,
)
from .core import (
    Assignment,
    ProblemInstance,
    find_feasible_point,
    format_rational,
    gcd_combined,
    greedy_extreme_point,
    is_feasible,
    make_instance,
    parse_rational,
    validate_instance,
)
from .decomposition import (
    CrpComponent,
    CrpDag,
    CrpDecomposition,
    SscBasis,
    crp_decomposition,
    ssc_basis,
)
from .design import (
    BalancedCover,
    DesignResult,
    d_star,
    design_flexibility,
    max_balanced_cover,
    min_edges,
)
from .augmentation import EdgeEffect, add_edge_effect, best_single_edge
from .planning import (
    ClosedFormReport,
    GreedyOptimalReport,
    Objective,
    PlanReport,
    Schedule,
    erp_trajectory,
    greedy_vs_optimal_report,
    make_objective,
    plan_schedule,
    structured_schedule,
)
from .robustness import (
    GapReport,
    PerturbationCheck,
    check_perturbation,
    crp_gap,
)
from .queuesim import (
    ArrivalModel,
    HeavyTrafficReport,
    HeavyTrafficRow,
    SimStats,
    heavy_traffic_check,
    make_arrival_model,
    simulate,
)

__version__ = "0.1.0"
