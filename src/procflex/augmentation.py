"""Single-edge upgrades: how much pooling one new edge buys.

Adding edge (i, j) merges exactly the pooling components that lie on a
directed path in the pooling DAG from j's component to i's component; the
block count drops by one less than the number of merged components.  The
best edge therefore runs from a DAG sink to a DAG source chosen to cover the
longest such path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProblemInstance
from .decomposition import CrpDag, CrpDecomposition, crp_decomposition, crp_graph
from .errors import AlreadyCrp, EdgeAlreadyPresent, IndexOutOfRange, InvariantViolation

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


def _effect_from_dag(
    dec: CrpDecomposition, dag: CrpDag, edge: tuple[int, int]
) -> EdgeEffect:
    i, j = edge
    l1 = dec.component_of_demand(i)
    l2 = dec.component_of_supply(j)
    cycle = dag.descendants(l2) & dag.ancestors(l1)
    delta = -max(len(cycle) - 1, 0)
    return EdgeEffect(
        edge=(i, j),
        dag_edge=(l1, l2),
        cycle_vertices=frozenset(cycle),
        new_erp=dec.erp_number + delta,
        delta=delta,
    )


def add_edge_effect(
    inst: ProblemInstance,
    edge: tuple[int, int],
    allow_existing: bool = False,
) -> EdgeEffect:
    """Effect of adding (i, j), without touching the instance.

    Edges already present change nothing; by default that case raises, but
    trajectory evaluation passes allow_existing=True to get the zero effect.
    """
    i, j = int(edge[0]), int(edge[1])
    if not (1 <= i <= inst.m and 1 <= j <= inst.n):
        raise IndexOutOfRange(f"edge ({i},{j}) outside [1,{inst.m}]x[1,{inst.n}]")
    dec = crp_decomposition(inst)
    dag = crp_graph(dec, inst)
    if (i, j) in inst.edges:
        if not allow_existing:
            raise EdgeAlreadyPresent(f"edge ({i},{j}) already in the graph")
        l1 = dec.component_of_demand(i)
        l2 = dec.component_of_supply(j)
        return EdgeEffect((i, j), (l1, l2), frozenset(), dec.erp_number, 0)
    return _effect_from_dag(dec, dag, (i, j))


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
    dec = crp_decomposition(inst)
    if dec.erp_number == 1:
        raise AlreadyCrp("graph already pools completely; every edge is neutral")
    full = {
        l for l, comp in enumerate(dec.components, start=1)
        if comp.demands and comp.supplies
    }
    if len(full) < 2:
        raise AlreadyCrp(
            "at most one block has both demands and supplies;"
            " no single edge can merge blocks"
        )
    dag = crp_graph(dec, inst)
    has_out = {a for (a, b) in dag.edges if b in full}
    has_in = {b for (a, b) in dag.edges if a in full}
    sinks = sorted(full - has_out)
    sources = sorted(full - has_in)
    best: tuple[int, tuple[int, int], int, int] | None = None
    for l_sink in sinks:
        for l_src in sources:
            if l_sink == l_src:
                continue
            cycle = dag.descendants(l_src) & dag.ancestors(l_sink)
            rep = (
                min(dec.components[l_sink - 1].demands),
                min(dec.components[l_src - 1].supplies),
            )
            cand = (-len(cycle), rep, l_sink, l_src)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise InvariantViolation("no sink/source pair in a multi-component DAG")
    _neg, rep, l_sink, l_src = best
    if rep in inst.edges:
        # a redundant edge out of a sink would contradict sink-ness
        raise InvariantViolation(f"representative {rep} unexpectedly present")
    effect = _effect_from_dag(dec, dag, rep)
    return rep, effect
