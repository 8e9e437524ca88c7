"""Robustness margins of a flexibility graph under demand perturbation.

The pooling structure survives any demand change that stays within the gap:
shifting less than 2*delta of demand (in l1) around a feasible system can
only merge blocks, never split them.  The gap itself ignores redundant
edges; a variant that counts them is what drops when a useless-looking edge
is added, the Braess effect.

Both gaps are minima of the surplus f(C) = mu(N(C)) - nu(C) over demand
sets C, and both are found by min cuts in time polynomial in the instance.
A min cut of the transportation network with some demands forced
onto the source side and some onto the sink side minimizes f over the sets
that contain the first and avoid the second (Picard and Queyranne 1980), and
the demands that cannot reach the sink in its residual graph form the
largest minimizer.  A set qualifies for the gap exactly when it splits the
demands of a block, so a block with lowest demand s and other demands
t1 < ... < tk needs two chains of k cuts: step c forces {s, t1..t(c-1)} in
and tc out, or tc in and {s, t1..t(c-1)} out.  Every cut runs on the network
the decomposition solved, from the previous cut's flow.  The minimizers of one
step form a lattice (Fujishige, Submodular Functions and Optimization), which
lets the lexicographically smallest minimizer be read off the largest ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import FREE, IN, OUT, ProblemInstance, _feasible_network, _Transport
from .core import make_instance, parse_rational
from .decomposition import CrpDecomposition, _labelled, crp_decomposition
from .errors import GapUndefined, Infeasible, InvariantViolation, SizeLimitExceeded

__all__ = [
    "GapReport",
    "PerturbationCheck",
    "check_perturbation",
    "crp_gap",
]

# Largest m + n + |E| a gap request may have.  The cost grows with the block
# sizes and the edge count.  At this size pooled graphs took up to 1.6 s with
# m = 500 and 3000 edges, 1.7 s with m = 800 and 2400 edges, and the 1000-chain
# 1.9 s (Python 3.11, one core); without a C compiler, 7.6, 4.6 and 2.1 s.
MAX_GAP_SIZE = 4000


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


def _gap_chains(dec: CrpDecomposition):
    """The steps of each chain; a step lists the (demand, IN/OUT) changes that
    lead to its forced sets from the previous step's."""
    for comp in dec.components:
        if len(comp.demands) < 2:
            continue
        s, *ts = comp.demands
        pairs = list(zip(ts, ts[1:]))
        yield [[(s, IN), (ts[0], OUT)]] + [[(t, IN), (u, OUT)] for t, u in pairs]
        yield [[(ts[0], IN), (s, OUT)]] + [[(t, OUT), (u, IN)] for t, u in pairs]


def _alt_chains(dec: CrpDecomposition):
    """One chain per DAG tail block a over its heads b1 < b2 < ... that hold a
    demand: step c forces a's lowest demand and the demands of b1..b(c-1) in
    and those of bc out.

    Every set a step allows has f > 0.  If it splits a, its kept-edge surplus
    is already positive.  Otherwise it holds all of a, so a redundant edge
    reaches a supply of bc, whose rate is positive because bc holds a demand
    and pools; nothing in bc offsets it, and every other block's share of f
    is at least 0.  Conversely a set with f > 0 that splits no block is a
    union of whole blocks that misses some head b of one of its blocks a;
    the first such head of a gives a step that allows it.
    """
    heads: dict[int, list[int]] = {}
    for a, b in sorted(dec.dag.edges):
        if dec.components[b - 1].demands:
            heads.setdefault(a, []).append(b)
    for a, bs in heads.items():
        demands = [dec.components[b - 1].demands for b in bs]
        steps = [[(dec.components[a - 1].demands[0], IN)] + [(i, OUT) for i in demands[0]]]
        steps += [[(i, IN) for i in d] + [(i, OUT) for i in e]
                  for d, e in zip(demands, demands[1:])]
        yield steps


def _chain_cuts(net: _Transport, chains):
    """Min cuts along every step of every chain, on the solved network net.

    Yields min f over the sets each step allows, in rate units, while net
    holds that step's cut.  Each cut's flow starts from the previous one's,
    the first from net's own: only the demands whose forcing changed are
    drained first.
    """
    for steps in chains:
        for changes in steps:
            for i, mode in changes:
                net.force(i, mode)
            yield net.max_flow() - net.inst.total_units
        for i in dict.fromkeys(i for changes in steps for i, _mode in changes):
            net.force(i, FREE)


def _lex_smallest(inst: ProblemInstance, dec: CrpDecomposition, delta, tops) -> frozenset:
    """The lexicographically smallest qualifying set with f = delta (in rate
    units).

    The minimizers of one step form a lattice whose largest set is its entry
    of `tops`, and the smallest minimizer overall is a prefix of the sorted
    largest set of its step: else that largest set would come first.  So
    extend P by the smallest next element among the steps P is a prefix of,
    until P itself qualifies and attains delta.
    """
    sizes = [len(c.demands) for c in dec.components]
    counts = [0] * len(sizes)
    split = 0
    reached: set[int] = set()
    surplus = 0
    chosen: list[int] = []
    while not (split and surplus == delta):
        k = len(chosen)
        v = min(t[k] for t in tops)
        tops = [t for t in tops if t[k] == v]
        chosen.append(v)
        surplus -= inst.demand_units[v - 1]
        for j in inst.demand_adj[v - 1]:
            if j not in reached:
                reached.add(j)
                surplus += inst.supply_units[j - 1]
        l = dec.demand_labels[v - 1] - 1
        counts[l] += 1
        split += (counts[l] == 1) - (counts[l] == sizes[l])
    return frozenset(chosen)


def _gap(inst: ProblemInstance) -> tuple[GapReport, int]:
    """The gap report and the block count, from one solved network: the
    decomposition reads its residual graph, then both chain families cut it."""
    size = inst.m + inst.n + len(inst.edges)
    if size > MAX_GAP_SIZE:
        raise SizeLimitExceeded(
            f"gap on {size} vertices and edges; the limit is {MAX_GAP_SIZE}"
        )
    net = _feasible_network(inst)
    dec = _labelled(net)
    delta = None
    tops: list[list[int]] = []
    for v in _chain_cuts(net, _gap_chains(dec)):
        if delta is None or v < delta:
            delta, tops = v, []
        if v == delta:
            tops.append(net.cut_demands())
    alt = min(_chain_cuts(net, _alt_chains(dec)), default=None)
    if delta is None:
        report = GapReport(None, None, None if alt is None else Fraction(alt, inst.scale))
        return report, dec.erp_number
    alt = delta if alt is None else min(alt, delta)
    return GapReport(Fraction(delta, inst.scale), _lex_smallest(inst, dec, delta, tops),
                     Fraction(alt, inst.scale)), dec.erp_number


def crp_gap(inst: ProblemInstance) -> GapReport:
    """Robustness margin delta plus the redundant-edge-sensitive variant.

    A demand subset qualifies when its neighborhood through non-redundant
    edges has strictly more capacity; the minimized surplus counts every
    edge.  No qualifying subset at all (a fully balanced split) leaves the
    gap undefined.  The alternative gap minimizes the same surplus over the
    subsets where it is positive.  Ties go to the lexicographically smallest
    demand tuple.  Refuses instances whose m + n + |E| exceeds MAX_GAP_SIZE.
    """
    return _gap(inst)[0]


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


def _omega(inst: ProblemInstance, omega) -> tuple[Fraction, ...]:
    w = tuple(parse_rational(v) for v in omega)
    if len(w) != inst.m:
        raise ValueError(f"omega needs {inst.m} entries, got {len(w)}")
    return w


def _perturbation_check(
    inst: ProblemInstance, w: tuple[Fraction, ...], report: GapReport, base_erp: int
) -> PerturbationCheck:
    if report.crp_gap is None:
        raise GapUndefined("no demand subset qualifies; the gap is undefined")
    delta = report.crp_gap
    reasons = []
    if sum(w) != 0:
        reasons.append("demand change does not sum to zero")
    norm = sum(abs(v) for v in w)
    if norm >= 2 * delta:
        reasons.append(f"l1 norm {norm} is not below 2*delta = {2 * delta}")
    perturbed_erp = None
    if not reasons:
        shifted = [a + b for a, b in zip(inst.demand, w)]
        if any(v < 0 for v in shifted):
            reasons.append("a perturbed demand rate is negative")
        else:
            cand = make_instance(shifted, inst.supply, inst.sorted_edges)
            try:
                perturbed_erp = crp_decomposition(cand).erp_number
            except Infeasible:
                reasons.append("perturbed polytope is empty")
    if perturbed_erp is not None and perturbed_erp > base_erp:
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


def check_perturbation(inst: ProblemInstance, omega) -> PerturbationCheck:
    """Is the demand change omega guaranteed not to split any block?

    Admissible means: total demand unchanged, l1 norm strictly below twice
    the gap, and the perturbed system still feasible.  For admissible omega
    the perturbed block count is computed and checked against the bound.
    """
    w = _omega(inst, omega)
    return _perturbation_check(inst, w, *_gap(inst))


def gap_and_checks(inst: ProblemInstance, omegas) -> tuple[GapReport, list[PerturbationCheck]]:
    """crp_gap(inst) and check_perturbation(inst, omega) for each omega, from
    one decomposition and one gap computation.  Not exported: it serves the
    CLI's `gap --perturb`."""
    report, base_erp = _gap(inst)
    return report, [
        _perturbation_check(inst, _omega(inst, omega), report, base_erp) for omega in omegas
    ]
