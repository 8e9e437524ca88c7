"""Flexibility-graph analysis and design for parallel server systems.

The combinatorial half of the package works on exact rational data: instance
validation and feasibility, redundant-edge detection, resource-pooling
decomposition, sparsest-graph design, single-edge upgrades and multi-step
upgrade planning, and robustness margins under demand perturbation.  The
simulation half runs a discrete-time MaxWeight queueing system and checks the
heavy-traffic predictions the decomposition makes.
"""

import importlib

# Every public name, by the module that defines it.  `import procflex` loads
# none of them: a name's module is imported on first access (PEP 562) and the
# name is then kept here, so a caller loads only the modules it uses.
_EXPORTS = {
    "errors": ("AlreadyCrp", "DuplicateEdge", "EdgeAlreadyPresent", "EdgeOutOfRange",
               "GapUndefined", "IndexOutOfRange", "Infeasible", "InternalMergeStuck",
               "InvalidEpsilon", "InvalidK", "InvariantViolation", "IsolatedServer",
               "NegativeRate", "ProcflexError", "SizeLimitExceeded", "TargetAboveDstarStar",
               "UnbalancedTotals", "ZeroVector"),
    "core": ("Assignment", "ProblemInstance", "find_feasible_point", "format_rational",
             "greedy_extreme_point", "is_feasible", "make_instance", "parse_rational",
             "validate_instance"),
    "decomposition": ("CrpComponent", "CrpDag", "CrpDecomposition", "crp_decomposition",
                      "ssc_basis"),
    "augmentation": ("EdgeEffect", "add_edge_effect", "best_single_edge"),
    "planning": ("ClosedFormReport", "GreedyOptimalReport", "Objective", "PlanReport",
                 "Schedule", "erp_trajectory", "greedy_vs_optimal_report", "make_objective",
                 "plan_schedule", "structured_schedule"),
    "robustness": ("GapReport", "PerturbationCheck", "check_perturbation", "crp_gap"),
    "design": ("BalancedCover", "DesignResult", "d_star", "design_flexibility",
               "max_balanced_cover", "min_edges"),
    "queuesim": ("ArrivalModel", "HeavyTrafficReport", "HeavyTrafficRow", "SimStats",
                 "heavy_traffic_check", "make_arrival_model", "simulate"),
}

# what `from procflex import *` binds: every public name
__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    module = next((module for module, names in _EXPORTS.items() if name in names), None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
