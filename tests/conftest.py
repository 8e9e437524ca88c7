import random
from fractions import Fraction

import pytest

from procflex import make_instance


@pytest.fixture
def three_block_instance():
    """5x5 instance that splits into three pooling blocks.

    Blocks ({1},{2}), ({2,3},{1,3}) and ({4,5},{4,5}) are tied together by
    the redundant edges (1,3), (1,5) and (2,4).
    """
    return make_instance(
        [1, 1, 2, 2, 1],
        [2, 1, 1, 1, 2],
        [(1, 2), (1, 3), (1, 5), (2, 1), (2, 4), (3, 1), (3, 3), (4, 4), (4, 5), (5, 5)],
    )


@pytest.fixture
def four_pair_instance():
    """Four unit demand/supply pairs plus three extra edges, all redundant.

    Decomposes into four singleton blocks whose pooling DAG is
    1->2, 3->4, 1->4.
    """
    return make_instance(
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4), (3, 4), (1, 4)],
    )


@pytest.fixture
def small_tree_instance():
    """Fully pooled 2x2 tree: ERP 1, no redundant edges."""
    return make_instance([2, 1], [2, 1], [(1, 1), (1, 2), (2, 1)])


def braess_instance(xi, with_extra_edge=False):
    """Three-queue system where adding edge (2,1) hurts the alternative gap.

    xi is the rate of the small standalone pair; supplies are imbalanced by
    +/- 1/10 around the two big queues.
    """
    edges = [(1, 1), (2, 2), (3, 3), (3, 2)]
    if with_extra_edge:
        edges.append((2, 1))
    return make_instance(
        [xi, 1, 1],
        [xi, Fraction(11, 10), Fraction(9, 10)],
        edges,
    )


def diagonal_instance(k):
    """k disjoint unit pairs: ERP k, the maximally unpooled baseline."""
    return make_instance([1] * k, [1] * k, [(i, i) for i in range(1, k + 1)])


def random_feasible_instance(
    rng: random.Random, max_m=6, max_n=6, max_rate=4, denominators=None
):
    """Random balanced instance guaranteed feasible.

    Builds a random positive assignment first and reads rates off its
    row/column sums, then sprinkles extra edges; the generating assignment
    witnesses feasibility.  Entries are integers, or k/d with d drawn from
    `denominators` when given, so that the rates have mixed denominators.
    """

    def entry():
        k = rng.randint(1, max_rate)
        return k if denominators is None else Fraction(k, rng.choice(denominators))

    while True:
        m = rng.randint(1, max_m)
        n = rng.randint(1, max_n)
        entries = {}
        for i in range(1, m + 1):
            j = rng.randint(1, n)
            entries[(i, j)] = entries.get((i, j), 0) + entry()
        for j in range(1, n + 1):
            if not any(e[1] == j for e in entries):
                i = rng.randint(1, m)
                entries[(i, j)] = entries.get((i, j), 0) + entry()
        extra = rng.randint(0, m * n // 2)
        edges = set(entries)
        univ = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        edges.update(rng.sample(univ, min(extra, len(univ))))
        nu = [0] * m
        mu = [0] * n
        for (i, j), v in entries.items():
            nu[i - 1] += v
            mu[j - 1] += v
        if all(v > 0 for v in nu) and all(v > 0 for v in mu):
            return make_instance(nu, mu, sorted(edges))


def random_instance_with_zero_rates(rng: random.Random, max_m=5, max_n=5, max_rate=4):
    """Random feasible instance with one to four zero-rate vertices.

    Starts from `random_feasible_instance`, inserts zero-rate demands and
    supplies at random positions and gives each of them zero to two random
    edges, so some are isolated and some carry edges that are redundant.
    """
    base = random_feasible_instance(rng, max_m, max_n, max_rate)

    def insert_zeros(rates, count):
        slots: list = list(range(len(rates)))
        for _ in range(count):
            slots.insert(rng.randint(0, len(slots)), None)
        new_index = {k: pos for pos, k in enumerate(slots, start=1) if k is not None}
        zeros = [pos for pos, k in enumerate(slots, start=1) if k is None]
        return [0 if k is None else rates[k] for k in slots], new_index, zeros

    zero_demands = rng.randint(0, 2)
    demand, dmap, zd = insert_zeros(base.demand, zero_demands)
    supply, smap, zs = insert_zeros(base.supply, rng.randint(0 if zero_demands else 1, 2))
    edges = {(dmap[i - 1], smap[j - 1]) for i, j in base.edges}
    for i in zd:
        edges.update((i, rng.randint(1, len(supply))) for _ in range(rng.randint(0, 2)))
    for j in zs:
        edges.update((rng.randint(1, len(demand)), j) for _ in range(rng.randint(0, 2)))
    return make_instance(demand, supply, sorted(edges))


def planted_block_instance(rng: random.Random, m: int, max_block=10, degree=3.0):
    """m x m instance with known pooling blocks and known redundant edges.

    Vertices are cut into runs of 1..max_block consecutive indices.  Flow runs
    on the diagonal and on the path edges (k, k+1) inside each run, so each
    run pools completely; extra edges stay inside a run or run forward to a
    later run, and a forward edge can never carry flow.  Demands and supplies
    then share one random relabelling.  Returns (instance, blocks, forward
    edges), each block a (demands, supplies) pair of sorted tuples.
    """
    block_of = []
    while len(block_of) < m:
        size = min(rng.randint(1, max_block), m - len(block_of))
        block_of.extend([len(set(block_of))] * size)
    flow = {}
    for k in range(m):
        flow[(k, k)] = rng.randint(1, 5)
        if k + 1 < m and block_of[k + 1] == block_of[k]:
            flow[(k, k + 1)] = rng.randint(1, 5)
    edges = set(flow)
    while len(edges) < degree * m:
        i, j = rng.randrange(m), rng.randrange(m)
        if block_of[i] <= block_of[j]:
            edges.add((i, j))
    relabel = list(range(1, m + 1))
    rng.shuffle(relabel)
    demand = [0] * m
    supply = [0] * m
    for (i, j), v in flow.items():
        demand[relabel[i] - 1] += v
        supply[relabel[j] - 1] += v
    members: dict[int, list[int]] = {}
    for k, b in enumerate(block_of):
        members.setdefault(b, []).append(relabel[k])
    blocks = {(tuple(sorted(v)), tuple(sorted(v))) for v in members.values()}
    forward = frozenset(
        (relabel[i], relabel[j]) for i, j in edges if block_of[i] < block_of[j]
    )
    inst = make_instance(demand, supply, [(relabel[i], relabel[j]) for i, j in edges])
    return inst, blocks, forward
