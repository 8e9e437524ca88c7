"""Robustness margins of a flexibility graph under demand perturbation.

The pooling structure survives any demand change that stays within the gap:
shifting less than 2*delta of demand (in l1) around a feasible system can
only merge blocks, never split them.  The gap itself ignores redundant
edges; a variant that counts them is what drops when a useless-looking edge
is added, the Braess effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import ProblemInstance, is_feasible, make_instance, parse_rational
from .decomposition import crp_decomposition
from .errors import GapUndefined, InvariantViolation, SizeLimitExceeded

__all__ = [
    "GapReport",
    "PerturbationCheck",
    "check_perturbation",
    "crp_gap",
]


@dataclass(frozen=True)
class GapReport:
    """Gap values for one instance; None means the condition set was empty."""

    crp_gap: Fraction | None
    argmin_set: frozenset[int] | None
    alt_gap: Fraction | None

    def to_dict(self) -> dict:
        return {
            "crp_gap": "undefined" if self.crp_gap is None else str(self.crp_gap),
            "argmin_set": None if self.argmin_set is None else sorted(self.argmin_set),
            "alt_gap": "undefined" if self.alt_gap is None else str(self.alt_gap),
        }


def _subset_scan(inst: ProblemInstance, limit: int):
    """Min full-edge surplus under both inclusion rules, by 2^m subset scan.

    Returns ((delta, argmin C), (alt, alt argmin)); each half is (None, None)
    when no subset qualifies.  Ties break toward the lexicographically
    smallest demand tuple.
    """
    m, n = inst.m, inst.n
    if m > limit:
        raise SizeLimitExceeded(f"gap scan is exponential in m; {m} > limit {limit}")
    kept = frozenset(inst.edges) - crp_decomposition(inst).redundant_edges
    full_nbr = [0] * (m + 1)
    kept_nbr = [0] * (m + 1)
    for (i, j) in inst.edges:
        full_nbr[i] |= 1 << (j - 1)
        if (i, j) in kept:
            kept_nbr[i] |= 1 << (j - 1)

    supply_sum_cache: dict[int, Fraction] = {0: Fraction(0)}

    def supply_sum(mask: int) -> Fraction:
        if mask not in supply_sum_cache:
            low = mask & -mask
            supply_sum_cache[mask] = (
                supply_sum(mask ^ low) + inst.supply[low.bit_length() - 1]
            )
        return supply_sum_cache[mask]

    best = {"kept": None, "full": None}
    for mask in range(1, 1 << m):
        subset = tuple(i for i in range(1, m + 1) if mask >> (i - 1) & 1)
        demand = sum(inst.demand[i - 1] for i in subset)
        full_mask = kept_mask = 0
        for i in subset:
            full_mask |= full_nbr[i]
            kept_mask |= kept_nbr[i]
        surplus = supply_sum(full_mask) - demand
        kept_surplus = supply_sum(kept_mask) - demand
        for rule, included in (("kept", kept_surplus > 0), ("full", surplus > 0)):
            if included:
                key = (surplus, subset)
                if best[rule] is None or key < best[rule]:
                    best[rule] = key
    out = []
    for rule in ("kept", "full"):
        if best[rule] is None:
            out.append((None, None))
        else:
            out.append((best[rule][0], frozenset(best[rule][1])))
    return tuple(out)


def crp_gap(inst: ProblemInstance, limit: int = 20) -> GapReport:
    """Robustness margin delta plus the redundant-edge-sensitive variant.

    A demand subset qualifies when its neighborhood through non-redundant
    edges has strictly more capacity; the minimized surplus counts every
    edge.  No qualifying subset at all (a fully balanced split) leaves the
    gap undefined.
    """
    (delta, argmin), (alt, _alt_argmin) = _subset_scan(inst, limit)
    return GapReport(crp_gap=delta, argmin_set=argmin, alt_gap=alt)


@dataclass(frozen=True)
class PerturbationCheck:
    omega: tuple[Fraction, ...]
    admissible: bool
    reasons: tuple[str, ...]
    base_erp: int
    perturbed_erp: int | None

    def to_dict(self) -> dict:
        return {
            "omega": [str(w) for w in self.omega],
            "admissible": self.admissible,
            "reasons": list(self.reasons),
            "base_erp": self.base_erp,
            "perturbed_erp": self.perturbed_erp,
        }


def check_perturbation(inst: ProblemInstance, omega, limit: int = 20) -> PerturbationCheck:
    """Is the demand change omega guaranteed not to split any block?

    Admissible means: total demand unchanged, l1 norm strictly below twice
    the gap, and the perturbed system still feasible.  For admissible omega
    the perturbed block count is computed and checked against the bound.
    """
    w = tuple(parse_rational(v) for v in omega)
    if len(w) != inst.m:
        raise ValueError(f"omega needs {inst.m} entries, got {len(w)}")
    report = crp_gap(inst, limit)
    if report.crp_gap is None:
        raise GapUndefined("no demand subset qualifies; the gap is undefined")
    delta = report.crp_gap
    reasons = []
    if sum(w) != 0:
        reasons.append("demand change does not sum to zero")
    norm = sum(abs(v) for v in w)
    if norm >= 2 * delta:
        reasons.append(f"l1 norm {norm} is not below 2*delta = {2 * delta}")
    perturbed = None
    if not reasons:
        shifted = [a + b for a, b in zip(inst.demand, w)]
        if any(v < 0 for v in shifted):
            reasons.append("a perturbed demand rate is negative")
        else:
            cand = make_instance(shifted, inst.supply, inst.sorted_edges)
            if not is_feasible(cand):
                reasons.append("perturbed polytope is empty")
            else:
                perturbed = cand
    base_erp = crp_decomposition(inst).erp_number
    perturbed_erp = None
    if perturbed is not None:
        perturbed_erp = crp_decomposition(perturbed).erp_number
        if perturbed_erp > base_erp:
            raise InvariantViolation(
                f"admissible perturbation raised the block count"
                f" {base_erp} -> {perturbed_erp}"
            )
    return PerturbationCheck(
        omega=w,
        admissible=not reasons,
        reasons=tuple(reasons),
        base_erp=base_erp,
        perturbed_erp=perturbed_erp,
    )
