"""Sparsest flexibility-graph construction for a target pooling count.

Given rates (demand, supply) and a target number d of pooling blocks, builds
an edge set of provably minimum size whose polytope has exactly d blocks.
The achievable range of d is [1, d_double_star]; below d_star a single extra
edge (one cycle) is needed, hence the 1{d < d_star} term in the edge count.

d_double_star is the largest number of balanced parts (equal demand and
supply sums) in a partition of the vertices.  `max_balanced_cover` finds it
by a subset DP: every demand-subset and supply-subset sum gets an exact id,
and f[S] = [S balanced] + max over v in S of f[S - v], computed in numpy one
popcount layer at a time, is the most disjoint balanced parts inside S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Assignment, ProblemInstance, _check_positive, _units, greedy_extreme_point
from .core import make_instance, parse_rational
from .decomposition import crp_decomposition
from .errors import (
    InternalMergeStuck,
    InvariantViolation,
    SizeLimitExceeded,
    TargetAboveDstarStar,
    UnbalancedTotals,
    ZeroVector,
)

__all__ = [
    "BalancedCover",
    "DesignResult",
    "d_star",
    "max_balanced_cover",
    "min_edges",
    "design_flexibility",
]

# Largest m + n a cover search may have; time and memory grow as 2^(m+n).
# At 22 it took up to 1.0 s and 134 MB peak RSS (Python 3.11, one core);
# at 24 it took up to 4 s and 480 MB.
MAX_COVER_SIZE = 22


def _rates(demand, supply) -> tuple[list[Fraction], list[Fraction], tuple[int, ...]]:
    """The parsed rates and their units (see core._units), demands first."""
    nu = [parse_rational(v) for v in demand]
    mu = [parse_rational(v) for v in supply]
    _scale, units = _units(nu + mu)
    if sum(units[:len(nu)]) != sum(units[len(nu):]):
        raise UnbalancedTotals("demand and supply totals differ")
    return nu, mu, units


def d_star(demand, supply) -> int:
    """Fewest components any extreme-point support can have.

    With rates scaled to integers by their combined GCD, an extreme point is
    an integer matrix whose forest support carries at least 1 per edge, so it
    has at most total-units edges and at least m+n-total components.
    """
    nu, mu, units = _rates(demand, supply)
    _check_positive(nu + mu)
    return max(1, len(units) - sum(units[:len(nu)]) // math.gcd(*units))


@dataclass(frozen=True)
class BalancedCover:
    """Partition of demands and supplies into balanced blocks."""

    parts: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def cardinality(self) -> int:
        return len(self.parts)


def _subset_sums(units: Sequence[int]) -> list[int]:
    """Sum of every subset of `units` in mask order (bit k picks units[k]),
    built by doubling."""
    sums = [0]
    for v in units:
        sums += [s + v for s in sums]
    return sums


def _sum_ids(units: Sequence[int], ids: dict[int, int]) -> np.ndarray:
    """ids.get(sum, -1) for every subset of `units`, in mask order.  Sums
    come from two half-size tables, so only 2 * 2^(k/2) of them are held."""
    half = len(units) // 2
    low, high = _subset_sums(units[:half]), _subset_sums(units[half:])
    get = ids.get
    sums = (get(h + l, -1) for h in high for l in low)
    return np.fromiter(sums, np.int64, len(low) * len(high))


def _lex_masks(count: int) -> np.ndarray:
    """Every nonempty mask over `count` bits, in lexicographic order of the
    sorted index tuples: {k}, then {k} with each later set, then the later sets."""
    order = np.zeros(0, dtype=np.int64)
    for k in reversed(range(count)):
        order = np.concatenate([[1 << k], order | (1 << k), order])
    return order


def _most_parts(balanced: np.ndarray, size: int) -> np.ndarray:
    """f[S] = [S balanced] + max over v in S of f[S - v]: the most disjoint
    balanced parts inside vertex set S.  One numpy pass per popcount layer."""
    # layers[c]: the masks with c bits set, built by doubling like the sums
    layers = [np.zeros(1, dtype=np.int32)]
    for k in range(size):
        above = layers[1:] + [np.zeros(0, dtype=np.int32)]
        layers = layers[:1] + [np.concatenate([a, b | (1 << k)]) for a, b in zip(above, layers)]
    f = np.zeros(1 << size, dtype=np.int8)
    for layer in layers[1:]:
        layer = layer.astype(np.intp)  # stored narrow, indexed wide
        best = np.zeros(len(layer), dtype=np.int8)
        for k in range(size):
            # a mask without bit k reads a superset one layer up, still 0
            np.maximum(best, f[layer ^ (1 << k)], out=best)
        f[layer] = best + balanced[layer]
    return f


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def max_balanced_cover(demand, supply) -> BalancedCover:
    """Balanced cover with the most blocks (their count is d_double_star).

    Subset DP over the m+n vertices (demand k is bit k-1, supply k bit m+k-1):
    a set is balanced iff its demand and supply sum ids agree, and f[S] counts
    the most disjoint balanced parts inside S.  The cover is read back part
    by part: among the blocks holding the lowest remaining demand, demand
    sides in lexicographic order, then balancing supply sides in
    lexicographic order, the first whose remainder scores f - 1 is taken, so
    ties resolve toward lexicographically smallest parts.  Time and memory
    grow as 2^(m+n); refuses instances with m+n above MAX_COVER_SIZE.
    """
    nu, mu, units = _rates(demand, supply)
    m, n = len(nu), len(mu)
    if m + n > MAX_COVER_SIZE:
        raise SizeLimitExceeded(f"m+n={m+n} exceeds cover search limit {MAX_COVER_SIZE}")
    if not all(u > 0 for u in units):
        raise ZeroVector("cover search needs strictly positive rates")

    # exact sums of the rate units.  Ids number the sums of the smaller side;
    # a sum it lacks balances nothing (-1).
    dunits, sunits = units[:m], units[m:]
    small = _subset_sums(min(dunits, sunits, key=len))
    ids = {s: k for k, s in enumerate(dict.fromkeys(small))}
    did, sid = _sum_ids(dunits, ids), _sum_ids(sunits, ids)
    balanced = (sid[:, None] == did[None, :]).ravel()
    balanced[0] = False  # the empty set is no part
    f = _most_parts(balanced, m + n)

    dlex = _lex_masks(m)
    # supply sets grouped by sum id, lexicographic within a group
    slex = _lex_masks(n)
    slex = slex[np.argsort(sid[slex], kind="stable")]
    slex_ids = sid[slex]
    parts = []
    rest = (1 << (m + n)) - 1
    while rest:
        rest_d, rest_s = rest & ((1 << m) - 1), rest >> m
        # demand sides holding the lowest remaining demand, lexicographic
        cands = dlex[(dlex & (rest_d & -rest_d) != 0) & (dlex & ~rest_d == 0)]
        lo = np.searchsorted(slex_ids, did[cands], "left")
        hi = np.searchsorted(slex_ids, did[cands], "right")
        some = hi > lo  # some supply set balances the demand side
        for a, l, h in zip(cands[some].tolist(), lo[some].tolist(), hi[some].tolist()):
            group = slex[l:h]
            b = group[group & ~rest_s == 0]
            hit = np.flatnonzero(f[rest ^ a ^ (b << m)] == f[rest] - 1)
            if hit.size:
                b = int(b[hit[0]])
                break
        else:
            raise InvariantViolation("balanced instance admits no balanced cover")
        parts.append((_indices(a), _indices(b)))
        rest ^= a | b << m
    return BalancedCover(tuple(parts))


def _target(demand, supply, d: int):
    """(nu, mu, cover, d*) for a block-count target d, once d is checked to
    be a positive integer no larger than d** (the cover's cardinality)."""
    nu, mu, _ = _rates(demand, supply)
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"target block count must be a positive integer, got {d!r}")
    cover = max_balanced_cover(nu, mu)
    if d > cover.cardinality:
        raise TargetAboveDstarStar(f"target {d} exceeds achievable maximum {cover.cardinality}")
    return nu, mu, cover, d_star(nu, mu)


def min_edges(demand, supply, d: int) -> int:
    """Fewest edges of any graph whose polytope has exactly d blocks."""
    nu, mu, _, ds = _target(demand, supply, d)
    return len(nu) + len(mu) - d + (1 if d < ds else 0)


@dataclass(frozen=True)
class DesignResult:
    demand: tuple[Fraction, ...]
    supply: tuple[Fraction, ...]
    edges: frozenset[tuple[int, int]]
    assignment: Assignment
    achieved_erp: int
    edge_count: int
    used_cycle: bool

    def instance(self) -> ProblemInstance:
        return make_instance(self.demand, self.supply, sorted(self.edges))


def _merge_components(x_entries: dict, comp_edges: list[list[tuple[int, int]]]):
    """One merge step: move flow so two components join and net one edge
    appears.  Needs two edges with unequal flows in different components;
    scans components in order and their sorted edges lexicographically."""
    for a in range(len(comp_edges)):
        for b in range(a + 1, len(comp_edges)):
            for e1 in comp_edges[a]:
                for e2 in comp_edges[b]:
                    if x_entries[e1] < x_entries[e2]:
                        return a, b, e1, e2
                    if x_entries[e1] > x_entries[e2]:
                        return b, a, e2, e1
    return None


def design_flexibility(demand, supply, d: int) -> DesignResult:
    """Minimum-size edge set with exactly d pooling blocks, plus a witness.

    Phase 0 builds a maximally split extreme point (one greedy extreme point
    per block of a maximum balanced cover).  Phase 1 repeatedly merges two
    components while the count exceeds max(d, d_star); each merge is a flow
    swap that keeps the point extreme and adds net one edge.  Phase 2, only
    needed when d < d_star, links the remaining surplus components in one
    cycle by splitting half the minimum representative flow around it.
    """
    nu, mu, cover, ds = _target(demand, supply, d)
    m, n = len(nu), len(mu)
    dss = cover.cardinality

    # components of the support, each a sorted edge list, ordered by smallest edge
    entries: dict[tuple[int, int], Fraction] = {}
    comps = []
    for dset, sset in cover.parts:
        part = greedy_extreme_point(
            [nu[i - 1] for i in dset], [mu[j - 1] for j in sset]
        )
        for (a, b), v in part.entries.items():
            entries[(dset[a - 1], sset[b - 1])] = v
        comps.append(sorted((dset[a - 1], sset[b - 1]) for a, b in part.entries))
    # a part of a maximum cover splits no further, so its greedy forest is one tree
    found = sum(len(dset) + len(sset) - len(c) for (dset, sset), c in zip(cover.parts, comps))
    if found != dss:
        raise InvariantViolation(
            f"seed extreme point has {found} components, expected {dss}"
        )
    comps.sort()

    target_comps = max(d, ds)
    while len(comps) > target_comps:
        pick = _merge_components(entries, comps)
        if pick is None:
            raise InternalMergeStuck(
                "no component pair with unequal flows; cannot merge further"
            )
        a, b, (i1, j1), (i2, j2) = pick
        theta = entries[(i1, j1)]
        entries[(i2, j2)] -= theta
        del entries[(i1, j1)]
        # (i2, j1) and (i1, j2) join different trees, so neither edge exists yet
        entries[(i2, j1)] = theta
        entries[(i1, j2)] = theta
        joined = [e for e in comps[a] + comps[b] if e != (i1, j1)] + [(i2, j1), (i1, j2)]
        comps = sorted([c for k, c in enumerate(comps) if k not in (a, b)] + [sorted(joined)])

    used_cycle = False
    if d < ds:
        used_cycle = True
        e = ds - d + 1
        reps = [min(comp) for comp in comps[:e]]
        theta = min(entries[r] for r in reps) / 2
        for idx, (i, j) in enumerate(reps):
            # half the minimum keeps every representative edge positive
            entries[(i, j)] -= theta
            nxt = reps[(idx + 1) % e]
            entries[(i, nxt[1])] = entries.get((i, nxt[1]), Fraction(0)) + theta

    x = Assignment(m, n, entries)
    edges = x.support()
    inst = make_instance(nu, mu, sorted(edges))
    achieved = crp_decomposition(inst).erp_number
    if achieved != d:
        raise InvariantViolation(f"designed graph has {achieved} blocks, wanted {d}")
    return DesignResult(
        demand=tuple(nu),
        supply=tuple(mu),
        edges=edges,
        assignment=x,
        achieved_erp=achieved,
        edge_count=len(edges),
        used_cycle=used_cycle,
    )
