"""Independent brute-force reference implementations used only by tests.

Everything here favors obviousness over speed: vertex enumeration walks all
forest supports, redundancy is read off the vertex list, pooling is checked
against the strict-inequality subset definition, and optimization claims are
checked by exhausting the search space.  Package code must never import this
module.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from fractions import Fraction
from typing import Sequence

from procflex.core import (
    Assignment,
    ProblemInstance,
    find_feasible_point,
    make_instance,
)
from procflex.decomposition import crp_decomposition
from procflex.errors import (
    GapUndefined,
    Infeasible,
    ProcflexError,
    SizeLimitExceeded,
    UnbalancedTotals,
)
from procflex.robustness import crp_gap


class EdgeNotPresent(ProcflexError):
    """Referenced an edge that is not in the graph."""


class NotAPartition(ProcflexError):
    """A supplied cover of the demand set is not a partition."""


class NotFeasiblePoint(ProcflexError):
    """A claimed assignment does not satisfy the polytope constraints."""


def margins(x: Assignment) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The row sums and the column sums of an assignment."""
    rows = [Fraction(0)] * x.m
    cols = [Fraction(0)] * x.n
    for (i, j), v in x.entries.items():
        rows[i - 1] += v
        cols[j - 1] += v
    return tuple(rows), tuple(cols)


def _forest_components(m: int, n: int, edges) -> int | None:
    """Component count if `edges` is acyclic on I ∪ J, else None."""
    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = m + n
    for i, j in edges:
        ra, rb = find(i - 1), find(m + j - 1)
        if ra == rb:
            return None
        parent[rb] = ra
        comps -= 1
    return comps


def _solve_on_forest(inst: ProblemInstance, forest) -> dict | None:
    """Unique x with support inside the forest matching all sums, if any."""
    nu = list(inst.demand)
    mu = list(inst.supply)
    deg: dict = {}
    inc: dict = {}
    for i, j in forest:
        deg[("d", i)] = deg.get(("d", i), 0) + 1
        deg[("s", j)] = deg.get(("s", j), 0) + 1
        inc.setdefault(("d", i), []).append((i, j))
        inc.setdefault(("s", j), []).append((i, j))
    alive = set(forest)
    values: dict = {}
    # peel leaves; each leaf edge is forced to the leaf's remaining rate
    stack = [v for v, d in deg.items() if d == 1]
    while stack:
        v = stack.pop()
        if deg.get(v, 0) != 1:
            continue
        edge = next(e for e in inc[v] if e in alive)
        i, j = edge
        amount = nu[i - 1] if v[0] == "d" else mu[j - 1]
        if amount < 0:
            return None
        values[edge] = amount
        nu[i - 1] -= amount
        mu[j - 1] -= amount
        alive.discard(edge)
        for w in (("d", i), ("s", j)):
            deg[w] -= 1
            if deg[w] == 1:
                stack.append(w)
    if alive:
        return None
    if any(v != 0 for v in nu) or any(v != 0 for v in mu):
        return None
    if any(v < 0 for v in values.values()):
        return None
    return {e: v for e, v in values.items() if v > 0}


def enumerate_vertices(inst: ProblemInstance) -> list[Assignment]:
    """All extreme points of the polytope, via forest-support enumeration."""
    edges = inst.sorted_edges
    seen = set()
    out = []
    for r in range(len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            if _forest_components(inst.m, inst.n, sub) is None:
                continue
            sol = _solve_on_forest(inst, sub)
            if sol is None:
                continue
            key = tuple(sorted(sol.items()))
            if key not in seen:
                seen.add(key)
                out.append(Assignment(inst.m, inst.n, sol))
    return out


def vertex_redundant_edges(inst: ProblemInstance) -> frozenset:
    """Edges zero across all vertices, hence zero over the whole polytope."""
    verts = enumerate_vertices(inst)
    if not verts:
        raise ValueError("infeasible instance has no vertices")
    positive = set()
    for x in verts:
        positive.update(x.support())
    return frozenset(inst.edges - positive)


def hall_violated_subset(inst: ProblemInstance):
    """A demand subset with neighborhood capacity below its demand, if any."""
    for r in range(1, inst.m + 1):
        for sub in itertools.combinations(range(1, inst.m + 1), r):
            nbr = set()
            for i in sub:
                nbr.update(inst.demand_adj[i - 1])
            dsum = sum((inst.demand[i - 1] for i in sub), Fraction(0))
            ssum = sum((inst.supply[j - 1] for j in nbr), Fraction(0))
            if dsum > ssum:
                return sub
    return None


def strict_pooling_condition(inst: ProblemInstance) -> bool:
    """Definition-style pooling check: every proper nonempty demand subset
    must have strictly more neighborhood capacity than demand, and the graph
    must reach every supply."""
    covered = set()
    for i in range(1, inst.m + 1):
        covered.update(inst.demand_adj[i - 1])
    if covered != set(range(1, inst.n + 1)):
        return False
    for r in range(1, inst.m):
        for sub in itertools.combinations(range(1, inst.m + 1), r):
            nbr = set()
            for i in sub:
                nbr.update(inst.demand_adj[i - 1])
            dsum = sum((inst.demand[i - 1] for i in sub), Fraction(0))
            ssum = sum((inst.supply[j - 1] for j in nbr), Fraction(0))
            if not dsum < ssum:
                return False
    return True


def erp_of_edge_set(demand, supply, edges) -> int | None:
    """ERP number of (demand, supply, edges), or None if infeasible.

    Computed from vertex enumeration alone: redundant edges are those zero
    at every vertex; the ERP number is the component count after dropping
    them (isolated vertices count as components).
    """
    inst = make_instance(demand, supply, edges)
    verts = enumerate_vertices(inst)
    if not verts:
        return None
    positive = set()
    for x in verts:
        positive.update(x.support())
    comps = _forest_like_components(inst.m, inst.n, positive)
    return comps


def _forest_like_components(m: int, n: int, edges) -> int:
    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = m + n
    for i, j in edges:
        ra, rb = find(i - 1), find(m + j - 1)
        if ra != rb:
            parent[rb] = ra
            comps -= 1
    return comps


def exhaustive_erp_search(demand, supply, size: int, target: int) -> list | None:
    """An edge set of the given size with ERP == target, if one exists.

    Scans every subset of the complete bipartite edge set; used to certify
    minimum-edge-count claims by failing to find anything one edge smaller
    than the formula value.
    """
    m, n = len(demand), len(supply)
    universe = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    for sub in itertools.combinations(universe, size):
        if erp_of_edge_set(demand, supply, sub) == target:
            return list(sub)
    return None


def exhaustive_tree_crp_exists(demand, supply) -> bool:
    """Does any spanning-tree edge set satisfy full pooling (ERP 1)?"""
    m, n = len(demand), len(supply)
    universe = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    for sub in itertools.combinations(universe, m + n - 1):
        if _forest_components(m, n, sub) != 1:
            continue
        if erp_of_edge_set(demand, supply, sub) == 1:
            return True
    return False


def best_sequences_by_trajectory(inst: ProblemInstance, K: int, objective):
    """Exhaustively optimize Σ objective_k(erp_k) over ALL K-step sequences
    of distinct absent edges.  Returns (best value, one optimal sequence,
    its trajectory).  Trajectories come from scratch recomputation via the
    vertex-enumeration ERP, keeping this independent of the package."""
    universe = [
        (i, j)
        for i in range(1, inst.m + 1)
        for j in range(1, inst.n + 1)
        if (i, j) not in inst.edges
    ]
    best = None
    for seq in itertools.permutations(universe, K):
        edges = set(inst.edges)
        traj = []
        for e in seq:
            edges.add(e)
            traj.append(erp_of_edge_set(inst.demand, inst.supply, sorted(edges)))
        value = sum(objective[k](traj[k]) for k in range(K))
        cand = (value, traj, list(seq))
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        return None
    return best


def dp_plan_reference(eta: int, K: int, obj):
    """Exact optimum over all valid close vectors (including the empty one).

    The planning DP as first written: dict states and inner loops that add
    the table entries one step at a time.  `planning._dp_plan` must return
    the same (value, close vector), value type and str included.

    State (l, s): l closes so far, the last at step s (state (0, 0) before
    any).  The block count in force after state (l, s) is constant until the
    next close, so per-step costs accumulate in closed form.
    """

    def in_force(l: int, s: int) -> int:
        return eta if l == 0 else max(eta - s + l, 1)

    best: dict[tuple[int, int], object] = {(0, 0): 0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    l = 0
    while True:
        level = sorted(s for (ll, s) in best if ll == l)
        if not level:
            break
        for s in level:
            v_now = in_force(l, s)
            run = best[(l, s)]
            # cost of waiting at v_now through step t-1, then closing at t
            for t in range(s + 2, min(eta + l, K) + 1):
                cost = run
                for step in range(s + 1, t):
                    cost = cost + obj.value_at(step, v_now)
                cost = cost + obj.value_at(t, in_force(l + 1, t))
                key = (l + 1, t)
                if key not in best or cost < best[key]:
                    best[key] = cost
                    parent[key] = (l, s)
        l += 1
    # tie-break: fewest closes, then earliest last close
    answer = None
    for (l, s) in sorted(best):
        total = best[(l, s)]
        v_now = in_force(l, s)
        for step in range(s + 1, K + 1):
            total = total + obj.value_at(step, v_now)
        if answer is None or total < answer[0]:
            answer = (total, (l, s))
    value, state = answer
    k_rev = []
    while state != (0, 0):
        k_rev.append(state[1])
        state = parent[state]
    return value, tuple(reversed(k_rev))


def max_balanced_cover_size(demand, supply) -> int:
    """Maximum number of balanced blocks any demand/supply partition allows,
    by plain recursion over index sets (no masks, no memo tricks)."""
    demand = [Fraction(v) for v in demand]
    supply = [Fraction(v) for v in supply]

    def rec(di: tuple, sj: tuple) -> int:
        if not di and not sj:
            return 0
        if not di or not sj:
            return -(10**9)
        first = di[0]
        rest = di[1:]
        best = -(10**9)
        for ra in range(len(rest) + 1):
            for asub in itertools.combinations(rest, ra):
                block_d = (first,) + asub
                target = sum((demand[i - 1] for i in block_d), Fraction(0))
                for rb in range(1, len(sj) + 1):
                    for bsub in itertools.combinations(sj, rb):
                        if sum((supply[j - 1] for j in bsub), Fraction(0)) != target:
                            continue
                        rem_d = tuple(i for i in di if i not in block_d)
                        rem_s = tuple(j for j in sj if j not in bsub)
                        best = max(best, 1 + rec(rem_d, rem_s))
        return best

    m, n = len(demand), len(supply)
    return rec(tuple(range(1, m + 1)), tuple(range(1, n + 1)))


def lex_balanced_cover(demand, supply) -> tuple:
    """Parts of the maximum balanced cover that a lexicographic search finds
    first: the block holding the lowest remaining demand is tried demand side
    first, then supply side, each in lexicographic order of its tuple, and
    only a strictly larger count replaces an earlier candidate.  A memo over
    (remaining demands, remaining supplies) keeps it to m+n around 16."""
    nu = [Fraction(v) for v in demand]
    mu = [Fraction(v) for v in supply]

    def lex_subsets(pool):
        return sorted(
            sub for r in range(1, len(pool) + 1) for sub in itertools.combinations(pool, r)
        )

    memo: dict = {}

    def rec(di: tuple, sj: tuple):
        if not di and not sj:
            return 0, ()
        if not di or not sj:
            return None
        if (di, sj) in memo:
            return memo[(di, sj)]
        best = None
        for asub in lex_subsets(di):
            if asub[0] != di[0]:
                continue
            target = sum((nu[i - 1] for i in asub), Fraction(0))
            for bsub in lex_subsets(sj):
                if sum((mu[j - 1] for j in bsub), Fraction(0)) != target:
                    continue
                rest = rec(
                    tuple(i for i in di if i not in asub),
                    tuple(j for j in sj if j not in bsub),
                )
                if rest is not None and (best is None or 1 + rest[0] > best[0]):
                    best = (1 + rest[0], ((asub, bsub),) + rest[1])
        memo[(di, sj)] = best
        return best

    return rec(tuple(range(1, len(nu) + 1)), tuple(range(1, len(mu) + 1)))[1]


def gap_by_definition(inst: ProblemInstance):
    """(crp gap, alternative gap) straight from the subset definition.

    Redundant edges come from vertex enumeration; both minima scan every
    nonempty demand subset with plain set arithmetic."""
    red = vertex_redundant_edges(inst)
    kept = [e for e in inst.sorted_edges if e not in red]
    best = alt_best = None
    for r in range(1, inst.m + 1):
        for C in itertools.combinations(range(1, inst.m + 1), r):
            cset = set(C)
            full_n = {j for (i, j) in inst.sorted_edges if i in cset}
            kept_n = {j for (i, j) in kept if i in cset}
            demand = sum(inst.demand[i - 1] for i in C)
            surplus = sum(inst.supply[j - 1] for j in full_n) - demand
            kept_surplus = sum(inst.supply[j - 1] for j in kept_n) - demand
            if kept_surplus > 0 and (best is None or surplus < best):
                best = surplus
            if surplus > 0 and (alt_best is None or surplus < alt_best):
                alt_best = surplus
    return best, alt_best


# the subset scan visits 2^m subsets
SCAN_MAX_DEMANDS = 16


def subset_scan(inst: ProblemInstance):
    """Min full-edge surplus under both inclusion rules, by 2^m subset scan.

    Returns ((delta, argmin C), (alt, alt argmin)); each half is (None, None)
    when no subset qualifies.  Ties break toward the lexicographically
    smallest demand tuple.  Redundant edges come from crp_decomposition.
    """
    m = inst.m
    if m > SCAN_MAX_DEMANDS:
        raise SizeLimitExceeded(f"subset scan over {m} demands; the limit is {SCAN_MAX_DEMANDS}")
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


def hall_feasible(inst: ProblemInstance, limit: int = 20) -> bool:
    """Exhaustive capacity-region check; independent oracle for is_feasible.

    Every demand subset must have neighborhood supply at least its demand.
    Exponential in m, so guarded by `limit`.
    """
    if inst.m > limit:
        raise SizeLimitExceeded(f"m={inst.m} exceeds exhaustive limit {limit}")
    if inst.total != sum(inst.supply, Fraction(0)):
        return False
    nbr_mask = []
    for i in range(inst.m):
        mask = 0
        for j in inst.demand_adj[i]:
            mask |= 1 << (j - 1)
        nbr_mask.append(mask)
    for sub in range(1, 1 << inst.m):
        dsum = Fraction(0)
        mask = 0
        s = sub
        while s:
            b = (s & -s).bit_length() - 1
            dsum += inst.demand[b]
            mask |= nbr_mask[b]
            s &= s - 1
        ssum = Fraction(0)
        t = mask
        while t:
            b = (t & -t).bit_length() - 1
            ssum += inst.supply[b]
            t &= t - 1
        if dsum > ssum:
            return False
    return True


class _Residual:
    """Residual network of one feasible point x, in exact Fractions.

    Nodes: 0 = source, 1..m = demands, m+1..m+n = supplies, m+n+1 = sink.
    Built from the assignment alone, so it shares no code with the package's
    integer max flow.
    """

    def __init__(self, inst: ProblemInstance, x: Assignment):
        self.inst = inst
        self.x = x
        m, n = inst.m, inst.n
        sink = m + n + 1
        inf = inst.total + 1
        rows, cols = margins(x)
        self.res: dict[tuple[int, int], Fraction] = {}
        for i in range(1, m + 1):
            self.res[(0, i)] = inst.demand[i - 1] - rows[i - 1]
            self.res[(i, 0)] = rows[i - 1]
        for i, j in inst.sorted_edges:
            self.res[(i, m + j)] = inf - x.entries.get((i, j), 0)
            self.res[(m + j, i)] = x.entries.get((i, j), 0)
        for j in range(1, n + 1):
            self.res[(m + j, sink)] = inst.supply[j - 1] - cols[j - 1]
            self.res[(sink, m + j)] = cols[j - 1]
        self.out: dict[int, list[int]] = {}
        for u, v in self.res:
            self.out.setdefault(u, []).append(v)

    def residual_parents(self, start: int) -> dict[int, int]:
        """BFS over positive residual arcs; maps each reached node to its parent."""
        parent = {start: start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self.out.get(u, ()):
                if v not in parent and self.res[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        return parent

    def force_edge_positive(self, i: int, j: int) -> Assignment | None:
        """Assignment with x_ij > 0 obtained from x by one residual cycle, or None.

        Pushes half the bottleneck of the cycle closed by arc i -> j; using
        half keeps every previously positive entry positive, which the
        full-support construction relies on.
        """
        if self.x.entries.get((i, j), 0) > 0:
            return self.x
        m = self.inst.m
        parent = self.residual_parents(m + j)
        if i not in parent:
            return None
        cycle = [(i, m + j)]
        v = i
        while v != m + j:
            cycle.append((parent[v], v))
            v = parent[v]
        theta = min(self.res[arc] for arc in cycle) / 2
        entries = dict(self.x.entries)
        for u, v in cycle:
            if u <= m:  # demand -> supply: more flow on edge (u, v - m)
                edge = (u, v - m)
                entries[edge] = entries.get(edge, Fraction(0)) + theta
            else:  # supply -> demand: less flow on edge (v, u - m)
                edge = (v, u - m)
                entries[edge] -= theta
        return Assignment(self.inst.m, self.inst.n, entries)


def _residual(inst: ProblemInstance, edge) -> tuple[_Residual, tuple[int, int]]:
    edge = (int(edge[0]), int(edge[1]))
    if edge not in inst.edges:
        raise EdgeNotPresent(f"edge {edge} not in instance")
    return _Residual(inst, find_feasible_point(inst)), edge


def redundancy_oracle(inst: ProblemInstance, edge) -> bool:
    """True iff max{x_e : x feasible} = 0, decided on one feasible point.

    The edge can carry flow iff it already does, or the residual network
    contains a path from its supply back to its demand (an augmenting cycle
    through the edge).  Checks one edge per residual search, independent of
    the package's strongly-connected-component pass.
    """
    net, (i, j) = _residual(inst, edge)
    if net.x.entries.get((i, j), 0) > 0:
        return False
    return i not in net.residual_parents(inst.m + j)


def witness_point(inst: ProblemInstance, edge) -> Assignment | None:
    """A feasible assignment with the given edge strictly positive, if any."""
    net, (i, j) = _residual(inst, edge)
    return net.force_edge_positive(i, j)


def full_support_point(inst: ProblemInstance) -> Assignment:
    """A feasible point whose support is exactly the non-redundant edges.

    Average of one witness per non-redundant edge; convexity keeps the mean
    feasible and every witnessed edge positive in it.
    """
    net = _Residual(inst, find_feasible_point(inst))
    witnesses = []
    for edge in inst.sorted_edges:
        w = net.force_edge_positive(*edge)
        if w is not None:
            witnesses.append(w)
    if not witnesses:
        return Assignment(inst.m, inst.n, {})
    k = len(witnesses)
    acc: dict[tuple[int, int], Fraction] = {}
    for w in witnesses:
        for e, v in w.entries.items():
            acc[e] = acc.get(e, Fraction(0)) + v
    return Assignment(inst.m, inst.n, {e: v / k for e, v in acc.items()})


def union_find_blocks(inst: ProblemInstance, redundant) -> list:
    """Pooling blocks as the connected components of inst.edges - redundant.

    Plain union-find on the kept edges.  Each block is (demands, supplies,
    kept edges), ordered by lowest vertex with demand i at 2i-1 and supply j
    at 2j.
    """
    m, n = inst.m, inst.n
    parent = list(range(m + n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    kept = inst.edges - frozenset(redundant)
    for i, j in kept:
        parent[find(i - 1)] = find(m + j - 1)
    groups: dict = {}
    for v in range(m + n):
        groups.setdefault(find(v), []).append(v)
    blocks = []
    for vs in groups.values():
        demands = tuple(v + 1 for v in vs if v < m)
        supplies = tuple(v - m + 1 for v in vs if v >= m)
        edges = frozenset(e for e in kept if e[0] in demands or e[1] in supplies)
        lowest = min([2 * i - 1 for i in demands] + [2 * j for j in supplies])
        blocks.append((lowest, demands, supplies, edges))
    return [block[1:] for block in sorted(blocks, key=lambda b: b[0])]


def topological_order(d: int, edges) -> list | None:
    """Kahn's algorithm on labels 1..d; None when the edges hold a cycle."""
    indeg = [0] * (d + 1)
    adj: list = [[] for _ in range(d + 1)]
    for a, b in edges:
        adj[a].append(b)
        indeg[b] += 1
    queue = deque(l for l in range(1, d + 1) if indeg[l] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return order if len(order) == d else None


def gap_redundancy_invariance(inst: ProblemInstance) -> bool:
    """Does dropping the redundant edges leave the gap exactly unchanged?"""
    base = crp_gap(inst)
    if base.crp_gap is None:
        raise GapUndefined("no demand subset qualifies; the gap is undefined")
    kept = frozenset(inst.edges) - crp_decomposition(inst).redundant_edges
    stripped = crp_gap(make_instance(inst.demand, inst.supply, kept))
    return base.crp_gap == stripped.crp_gap


def check_assignment(inst: ProblemInstance, x: Assignment) -> None:
    """Raise NotFeasiblePoint unless x lies in the instance's polytope."""
    if x.m != inst.m or x.n != inst.n:
        raise NotFeasiblePoint("assignment shape does not match instance")
    stray = x.support() - inst.edges
    if stray:
        raise NotFeasiblePoint(f"support outside edge set: {sorted(stray)}")
    for v in x.entries.values():
        if v < 0:
            raise NotFeasiblePoint("negative entry")
    rows, cols = margins(x)
    if rows != inst.demand:
        raise NotFeasiblePoint("row sums do not match demand")
    if cols != inst.supply:
        raise NotFeasiblePoint("column sums do not match supply")


def is_extreme_point(inst: ProblemInstance, x: Assignment) -> bool:
    """True iff x is a vertex of the polytope, i.e. its support is a forest."""
    check_assignment(inst, x)
    return _forest_components(x.m, x.n, x.support()) is not None


def sub_instance(
    inst: ProblemInstance, demands: Sequence[int], supplies: Sequence[int]
) -> ProblemInstance:
    di = sorted(demands)
    sj = sorted(supplies)
    dmap = {i: k for k, i in enumerate(di, start=1)}
    smap = {j: k for k, j in enumerate(sj, start=1)}
    edges = [
        (dmap[i], smap[j])
        for (i, j) in inst.sorted_edges
        if i in dmap and j in smap
    ]
    return make_instance(
        [inst.demand[i - 1] for i in di],
        [inst.supply[j - 1] for j in sj],
        edges,
    )


def verify_decomposition(inst: ProblemInstance, cover: Sequence) -> bool:
    """Check a candidate ordered demand cover against the sequential rule.

    Supplies are assigned greedily: each block takes every neighbor of its
    demands not claimed earlier.  The cover is a valid pooling decomposition
    iff every induced block is balanced, feasible, connected, and free of
    redundant edges, and together the blocks use up all supplies.
    """
    parts = [frozenset(int(i) for i in part) for part in cover]
    seen: set[int] = set()
    for part in parts:
        if not part:
            raise NotAPartition("empty demand block")
        for i in part:
            if not 1 <= i <= inst.m:
                raise NotAPartition(f"demand {i} out of range")
            if i in seen:
                raise NotAPartition(f"demand {i} appears in two blocks")
        seen |= part
    if seen != set(range(1, inst.m + 1)):
        missing = sorted(set(range(1, inst.m + 1)) - seen)
        raise NotAPartition(f"cover misses demands {missing}")
    used: set[int] = set()
    for part in parts:
        block_supplies = set()
        for i in part:
            block_supplies.update(inst.demand_adj[i - 1])
        block_supplies -= used
        if not block_supplies:
            return False
        try:
            sub = sub_instance(inst, sorted(part), sorted(block_supplies))
            if crp_decomposition(sub).erp_number != 1:
                return False
        except (UnbalancedTotals, Infeasible):
            return False
        used |= block_supplies
    return used == set(range(1, inst.n + 1))


def envelope_text(doc) -> str:
    """The bytes of a CLI envelope holding doc: CPython's indent=2 encoder."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
