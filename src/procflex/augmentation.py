"""Single-edge upgrades: how much pooling one new edge buys.

Adding edge (i, j) merges exactly the pooling components that lie on a
directed path in the pooling DAG from j's component to i's component; the
block count drops by one less than the number of merged components.  The
best edge therefore runs from a DAG sink to a DAG source chosen to cover the
longest such path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProblemInstance, _edge_pair
from .decomposition import CrpDecomposition, crp_decomposition
from .errors import AlreadyCrp, IndexOutOfRange, InvariantViolation

__all__ = ["EdgeEffect", "add_edge_effect", "best_single_edge"]


@dataclass(frozen=True)
class EdgeEffect:
    """Predicted consequence of adding a single edge."""

    edge: tuple[int, int]
    dag_edge: tuple[int, int]
    cycle_vertices: frozenset[int]
    new_erp: int
    delta: int

    def to_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "dag_edge": list(self.dag_edge),
            "cycle_vertices": sorted(self.cycle_vertices),
            "new_erp": self.new_erp,
            "delta": self.delta,
        }


def _effect(dec: CrpDecomposition, edge: tuple[int, int]) -> EdgeEffect:
    i, j = edge
    cycle = dec.merged_by(edge)
    delta = -max(len(cycle) - 1, 0)
    return EdgeEffect(
        edge=(i, j),
        dag_edge=(dec.demand_labels[i - 1], dec.supply_labels[j - 1]),
        cycle_vertices=cycle,
        new_erp=dec.erp_number + delta,
        delta=delta,
    )


def add_edge_effect(inst: ProblemInstance, edge: tuple[int, int]) -> EdgeEffect:
    """Effect of adding the absent edge (i, j), without touching the instance."""
    i, j = _edge_pair(edge)
    if not (1 <= i <= inst.m and 1 <= j <= inst.n):
        # before the max flow, which an edge out of range need not wait for
        raise IndexOutOfRange(f"edge ({i},{j}) outside [1,{inst.m}]x[1,{inst.n}]")
    return _effect(crp_decomposition(inst), (i, j))


def best_single_edge(
    inst: ProblemInstance,
) -> tuple[tuple[int, int], EdgeEffect]:
    """Absent edge whose addition merges the most components.

    Only (sink component, source component) pairs need be considered: a path
    from a source to a sink extends any path between interior components.
    A block without demands or without supplies is a single zero-rate vertex
    that lies on no DAG path between two other blocks, so the scan skips it.
    The representative for a pair is its lexicographically smallest demand
    and supply; ties between pairs resolve to the smallest representative.
    """
    return _best_edge(crp_decomposition(inst))


def _best_edge(dec: CrpDecomposition) -> tuple[tuple[int, int], EdgeEffect]:
    if dec.erp_number == 1:
        raise AlreadyCrp("graph already pools completely; every edge is neutral")
    # each block's representative: its smallest demand and supply
    first = {
        l: (comp.demands[0], comp.supplies[0])
        for l, comp in enumerate(dec.components, start=1)
        if comp.demands and comp.supplies
    }
    if len(first) < 2:
        raise AlreadyCrp(
            "at most one block has both demands and supplies;"
            " no single edge can merge blocks"
        )
    dag = dec.dag
    has_out = {a for (a, b) in dag.edges if b in first}
    has_in = {b for (a, b) in dag.edges if a in first}
    # the blocks merged_by returns, with one reach set per sink and per source
    up = {l: dag.ancestors(l) for l in first.keys() - has_out}
    down = {l: dag.descendants(l) for l in first.keys() - has_in}
    best: tuple[int, tuple[int, int]] | None = None
    for l_sink in sorted(up):
        for l_src in sorted(down):
            if l_sink == l_src:
                continue
            cand = (-len(up[l_sink] & down[l_src]), (first[l_sink][0], first[l_src][1]))
            if best is None or cand < best:
                best = cand
    if best is None:
        raise InvariantViolation("no sink/source pair in a multi-component DAG")
    # absent: a redundant edge out of a sink would contradict sink-ness
    rep = best[1]
    return rep, _effect(dec, rep)
