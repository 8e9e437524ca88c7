"""Redundant edges, resource-pooling decomposition and the pooling DAG.

An edge is redundant when it carries zero flow in every feasible assignment.
All three structures come from one pass: the strongly connected components
(SCCs) of the residual graph of a single feasible point, which core's solved
integer flow network labels in place (one Tarjan pass over its residual
arcs, `_Transport.scc_labels`) with no copy of the point.  An edge is
redundant exactly when its ends lie in different SCCs; the SCCs are the
pooling blocks, each of which pools completely on its own; and the pooling
DAG is the condensation of the residual graph, the transportation-polytope
analogue of the Dulmage-Mendelsohn fine decomposition (Picard and Queyranne
1980).  The block count is the effective resource pooling (ERP) number, and
the per-block demand indicators span the subspace the queue-length vector
collapses onto in heavy traffic.

A decomposition stores only the instance's edges and one block label per
vertex.  The redundant edges, the blocks and the DAG are read off the labels
when first asked for, so adding an edge (`with_edge`) is a relabel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import ProblemInstance, _Transport, _edge_pair, _feasible_network
from .errors import EdgeAlreadyPresent, IndexOutOfRange

__all__ = [
    "CrpComponent",
    "CrpDecomposition",
    "CrpDag",
    "crp_decomposition",
    "ssc_basis",
]


@dataclass(frozen=True)
class CrpComponent:
    """One pooling block: its demands, supplies and internal edges."""

    demands: tuple[int, ...]
    supplies: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class CrpDecomposition:
    """Pooling blocks: the residual SCCs, with the redundant edges between them.

    Stored as the instance's edges and one block label per vertex:
    demand_labels[i-1] and supply_labels[j-1] are the 1-based labels of the
    blocks holding demand i and supply j, numbered 1..d with no gaps.  The
    redundant edges, the blocks and the DAG are read off them on first use.
    """

    m: int
    n: int
    edges: frozenset[tuple[int, int]]
    demand_labels: tuple[int, ...]
    supply_labels: tuple[int, ...]

    @cached_property
    def erp_number(self) -> int:
        """The block count: the largest label, as labels run 1..d."""
        return max(self.demand_labels + self.supply_labels)

    @cached_property
    def redundant_edges(self) -> frozenset[tuple[int, int]]:
        """The edges whose ends lie in different blocks."""
        dl, sl = self.demand_labels, self.supply_labels
        return frozenset([e for e in self.edges if dl[e[0] - 1] != sl[e[1] - 1]])

    @cached_property
    def components(self) -> tuple[CrpComponent, ...]:
        """The blocks in label order, each with its demands and supplies in
        ascending order and the edges both of whose ends it holds."""
        dl, sl = self.demand_labels, self.supply_labels
        demands: list[list[int]] = [[] for _ in range(self.erp_number)]
        supplies: list[list[int]] = [[] for _ in demands]
        kept: list[list[tuple[int, int]]] = [[] for _ in demands]
        for i, label in enumerate(dl, start=1):
            demands[label - 1].append(i)
        for j, label in enumerate(sl, start=1):
            supplies[label - 1].append(j)
        for e in self.edges:
            label = dl[e[0] - 1]
            if label == sl[e[1] - 1]:
                kept[label - 1].append(e)
        blocks = zip(demands, supplies, kept)
        return tuple(CrpComponent(tuple(d), tuple(s), frozenset(e)) for d, s, e in blocks)

    @cached_property
    def dag(self) -> CrpDag:
        """Condense the residual graph: count redundant edges per block pair."""
        multi = Counter(
            (self.demand_labels[i - 1], self.supply_labels[j - 1])
            for i, j in self.redundant_edges
        )
        return CrpDag(self.erp_number, dict(multi))

    def merged_by(self, edge: tuple[int, int]) -> frozenset[int]:
        """Labels of the blocks that adding the absent edge (i, j) merges.

        The feasible point that seeded the residual graph stays feasible, and
        the new edge adds one residual arc, from i's block l1 to j's block l2.
        That arc closes a cycle through exactly the blocks on a DAG path from
        l2 to l1.  The set is {l1} when l1 == l2 and empty when no such path
        exists; either way no two blocks merge.
        """
        i, j = _edge_pair(edge)
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexOutOfRange(f"edge ({i},{j}) outside [1,{self.m}]x[1,{self.n}]")
        if (i, j) in self.edges:
            raise EdgeAlreadyPresent(f"edge ({i},{j}) already in the graph")
        l1 = self.demand_labels[i - 1]
        l2 = self.supply_labels[j - 1]
        return self.dag.descendants(l2) & self.dag.ancestors(l1)

    def with_edge(self, edge: tuple[int, int]) -> CrpDecomposition:
        """The decomposition of the instance with the absent edge (i, j) added,
        equal to a fresh crp_decomposition of it, without another max flow.

        The blocks of merged_by(edge) become one, which keeps the lowest of
        their labels since that block holds their lowest vertex; the other
        labels close up behind it.  Only the labels and the edge set change.
        """
        i, j = _edge_pair(edge)
        merged = self.merged_by((i, j))
        low = min(merged, default=0)
        kept = [l for l in range(1, self.erp_number + 1) if l == low or l not in merged]
        relabel = {l: k for k, l in enumerate(kept, start=1)}
        relabel.update(dict.fromkeys(merged, relabel.get(low)))
        return CrpDecomposition(
            self.m,
            self.n,
            self.edges | {(i, j)},
            tuple(map(relabel.__getitem__, self.demand_labels)),
            tuple(map(relabel.__getitem__, self.supply_labels)),
        )

    def to_dict(self) -> dict:
        return {
            "erp_number": self.erp_number,
            "redundant_edges": [list(e) for e in sorted(self.redundant_edges)],
            "components": [
                {
                    "demands": list(c.demands),
                    "supplies": list(c.supplies),
                    "edges": [list(e) for e in sorted(c.edges)],
                }
                for c in self.components
            ],
        }


def crp_decomposition(
    inst: ProblemInstance, order_seed: int = 0
) -> CrpDecomposition:
    """Pooling blocks: the SCCs of the residual graph of one feasible point.

    The point is the saturating max flow of the transportation network, read
    in place.  Its residual arcs are an arc i -> j for every instance edge
    (uncapacitated) and an arc j -> i for every edge with x_ij > 0; every
    source and sink arc is saturated, so the source and the sink are dead
    ends and the SCCs of the demand and supply nodes are those of the
    residual graph on them alone.  Flow can move onto edge (i, j) exactly
    when a residual cycle runs through it, so the edge is redundant exactly
    when i and j lie in different SCCs; the result does not depend on which
    feasible point order_seed picks.  A kept edge has both ends in one SCC,
    and every residual arc inside an SCC is a kept instance edge, so the
    SCCs are exactly the connected components left after removing every
    redundant edge.  One Tarjan pass finds them in O(m + n + |E|).

    Blocks are ordered by their lowest vertex, demands and supplies
    interleaved (demand i sits at position 2i-1, supply j at 2j), so the
    numbering is stable and matches the usual drawing order.
    """
    return _labelled(_feasible_network(inst, order_seed=order_seed))


def _labelled(net: _Transport) -> CrpDecomposition:
    """The decomposition read off net's saturating max flow; net is unchanged."""
    m, n = net.inst.m, net.inst.n
    comp = net.scc_labels()
    label_of_scc: dict[int, int] = {}
    labels = [0] * (m + n)
    position = [2 * i - 1 for i in range(1, m + 1)] + [2 * j for j in range(1, n + 1)]
    for v in sorted(range(m + n), key=position.__getitem__):
        labels[v] = label_of_scc.setdefault(comp[v], len(label_of_scc) + 1)
    return CrpDecomposition(m, n, net.inst.edges, tuple(labels[:m]), tuple(labels[m:]))


@dataclass(frozen=True)
class CrpDag:
    """The pooling DAG: the condensation of the residual graph on its SCCs.

    Edge l1 -> l2 with multiplicity k means k redundant edges run from
    demands of block l1 to supplies of block l2.  Every arc between two SCCs
    is such an edge, so this is a condensation and acyclic by construction.
    """

    d: int
    edges: Mapping[tuple[int, int], int]

    @cached_property
    def _adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """Successor and predecessor lists, indexed by label."""
        succ: list[list[int]] = [[] for _ in range(self.d + 1)]
        pred: list[list[int]] = [[] for _ in range(self.d + 1)]
        for a, b in self.edges:
            succ[a].append(b)
            pred[b].append(a)
        return succ, pred

    @staticmethod
    def _reach(start: int, adj: list[list[int]]) -> frozenset[int]:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return frozenset(seen)

    def descendants(self, l: int) -> frozenset[int]:
        """Labels reachable from l, l itself included."""
        return self._reach(l, self._adjacency[0])

    def ancestors(self, l: int) -> frozenset[int]:
        """Labels that reach l, l itself included."""
        return self._reach(l, self._adjacency[1])

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "edges": [[a, b, k] for (a, b), k in sorted(self.edges.items())],
        }


def ssc_basis(decomp: CrpDecomposition) -> tuple[tuple[int, ...], ...]:
    """Indicator vectors of the demand blocks; orthogonal basis of the
    collapse subspace."""
    basis = []
    for comp in decomp.components:
        row = [0] * decomp.m
        for i in comp.demands:
            row[i - 1] = 1
        basis.append(tuple(row))
    return tuple(basis)
