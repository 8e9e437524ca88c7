"""Flexibility-graph analysis and design for parallel server systems.

The combinatorial half of the package works on exact rational data: instance
validation and feasibility, redundant-edge detection, resource-pooling
decomposition, sparsest-graph design, single-edge upgrades and multi-step
upgrade planning, and robustness margins under demand perturbation.  The
simulation half runs a discrete-time MaxWeight queueing system and checks the
heavy-traffic predictions the decomposition makes.
"""

import importlib

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
    crp_decomposition,
    ssc_basis,
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

# design and queuesim load numpy, which most of a CLI start does not need:
# their names are imported on first access (PEP 562) and then kept here.
_LAZY = dict.fromkeys(("BalancedCover", "DesignResult", "d_star", "design_flexibility",
                       "max_balanced_cover", "min_edges"), "design")
_LAZY |= dict.fromkeys(("ArrivalModel", "HeavyTrafficReport", "HeavyTrafficRow", "SimStats",
                        "heavy_traffic_check", "make_arrival_model", "simulate"), "queuesim")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# what `from procflex import *` binds: every public name, the lazy ones too
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, type(importlib))}
                 | _LAZY.keys())

__version__ = "0.1.0"
