"""Sparsest-graph design: block-count bounds and the constructive algorithm."""

import random
import time
from fractions import Fraction

import pytest

from procflex import (
    SizeLimitExceeded,
    TargetAboveDstarStar,
    UnbalancedTotals,
    ZeroVector,
    crp_decomposition,
    d_star,
    design_flexibility,
    make_instance,
    max_balanced_cover,
    min_edges,
)

from .oracles import (
    check_assignment,
    erp_of_edge_set,
    exhaustive_erp_search,
    exhaustive_tree_crp_exists,
    is_extreme_point,
    lex_balanced_cover,
    max_balanced_cover_size,
)


def random_rates(rng, max_side=4, max_rate=4):
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    nu = [rng.randint(1, max_rate) for _ in range(m)]
    mu = [rng.randint(1, max_rate) for _ in range(n - 1)]
    gap = sum(nu) - sum(mu)
    if gap < 1:
        nu[0] += 1 - gap
        gap = 1
    mu.append(gap)
    return nu, mu


def test_d_star_values():
    assert d_star([1, 1, 1, 1], [1, 1, 1, 1]) == 4
    assert d_star([2, 1], [2, 1]) == 1
    assert d_star([1, 1], [1, 1]) == 2
    assert d_star([3, 3], [2, 2, 2]) == 1
    assert d_star([4], [1, 1, 1, 1]) == 1
    assert d_star([2, 2], [2, 2]) == 2
    # fractional rates reduce through the combined gcd
    assert d_star(["1/2", "1/2"], ["1/2", "1/2"]) == 2


def test_d_star_scaling_and_errors():
    rng = random.Random(7)
    for _ in range(30):
        nu, mu = random_rates(rng)
        base = d_star(nu, mu)
        for c in (2, 3, Fraction(1, 2)):
            assert d_star([c * v for v in nu], [c * v for v in mu]) == base
    with pytest.raises(UnbalancedTotals):
        d_star([1, 2], [2, 2])
    with pytest.raises(ZeroVector):
        d_star([1, 0], [1, 0])


def test_max_balanced_cover_goldens():
    assert max_balanced_cover([1] * 4, [1] * 4).parts == (
        ((1,), (1,)),
        ((2,), (2,)),
        ((3,), (3,)),
        ((4,), (4,)),
    )
    assert max_balanced_cover([2, 1], [2, 1]).parts == (((1,), (1,)), ((2,), (2,)))
    assert max_balanced_cover([1, 2], [2, 1]).parts == (((1,), (2,)), ((2,), (1,)))
    # nothing splits off: single block
    assert max_balanced_cover([1, 2], [3]).parts == (((1, 2), (1,)),)


def test_max_balanced_cover_matches_oracle():
    rng = random.Random(11)
    for _ in range(40):
        nu, mu = random_rates(rng)
        cover = max_balanced_cover(nu, mu)
        assert cover.cardinality == max_balanced_cover_size(nu, mu)
        # the forest bound never exceeds the best split
        assert cover.cardinality >= d_star(nu, mu)
        # blocks partition both sides and each balances
        ds = [i for p in cover.parts for i in p[0]]
        ss = [j for p in cover.parts for j in p[1]]
        assert sorted(ds) == list(range(1, len(nu) + 1))
        assert sorted(ss) == list(range(1, len(mu) + 1))
        for dset, sset in cover.parts:
            assert sum(Fraction(nu[i - 1]) for i in dset) == sum(
                Fraction(mu[j - 1]) for j in sset
            )


def test_max_balanced_cover_parts_match_lexicographic_search():
    # design output follows the exact parts, not just their count; 350 pairs
    # each of integer, fractional and mostly-unit (tie-heavy) rates
    rng = random.Random(29)
    for k in range(1050):
        if k % 3 == 0:
            nu, mu = random_rates(rng, max_side=5, max_rate=6)
        elif k % 3 == 1:
            q = rng.randint(2, 5)
            nu, mu = random_rates(rng, max_side=5, max_rate=9)
            nu, mu = [Fraction(v, q) for v in nu], [Fraction(v, q) for v in mu]
        else:
            nu = [rng.choice((1, 1, 1, 2)) for _ in range(rng.randint(1, 5))]
            mu = [rng.choice((1, 1, 1, 2)) for _ in range(rng.randint(1, 5))]
            surplus = sum(nu) - sum(mu)
            if surplus:
                (mu if surplus > 0 else nu).append(abs(surplus))
        assert max_balanced_cover(nu, mu).parts == lex_balanced_cover(nu, mu), (nu, mu)


def test_design_at_twenty_vertices_is_fast():
    # the memo search took 106 s on these rates (Python 3.11, one core)
    rng = random.Random(20)
    nu = [rng.randint(1, 9) for _ in range(10)]
    mu = [rng.randint(1, 9) for _ in range(9)]
    mu.append(max(1, sum(nu) - sum(mu)))
    nu[0] += sum(mu) - sum(nu)
    start = time.perf_counter()
    top = max_balanced_cover(nu, mu).cardinality
    for d in (1, top):
        r = design_flexibility(nu, mu, d)
        assert r.achieved_erp == d and r.edge_count == min_edges(nu, mu, d)
    assert time.perf_counter() - start < 20


def test_max_balanced_cover_limits():
    with pytest.raises(SizeLimitExceeded):
        max_balanced_cover([1] * 13, [1] * 13)
    with pytest.raises(ZeroVector):
        max_balanced_cover([0, 2], [1, 1])


def test_min_edges_values():
    nu = mu = [1, 1, 1, 1]
    assert min_edges(nu, mu, 1) == 8
    assert min_edges(nu, mu, 2) == 7
    assert min_edges(nu, mu, 3) == 6
    assert min_edges(nu, mu, 4) == 4
    with pytest.raises(TargetAboveDstarStar):
        min_edges(nu, mu, 5)
    with pytest.raises(ValueError):
        min_edges(nu, mu, 0)
    for bad in (1.5, True):
        with pytest.raises(ValueError):
            min_edges(nu, mu, bad)
    # d == d_double_star never pays the +1 cycle edge
    assert min_edges([2, 1], [2, 1], 1) == 3


def test_design_small_goldens():
    r = design_flexibility([1, 1], [1, 1], 1)
    assert sorted(r.edges) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert r.used_cycle and r.achieved_erp == 1

    r = design_flexibility([1, 1], [1, 1], 2)
    assert sorted(r.edges) == [(1, 1), (2, 2)]
    assert not r.used_cycle and r.achieved_erp == 2

    r = design_flexibility([2, 1], [2, 1], 1)
    assert sorted(r.edges) == [(1, 1), (1, 2), (2, 1)]
    assert not r.used_cycle and r.edge_count == 3 and r.achieved_erp == 1


def test_design_meets_bound_for_every_target():
    rng = random.Random(23)
    cases = 0
    for _ in range(35):
        nu, mu = random_rates(rng)
        top = max_balanced_cover(nu, mu).cardinality
        for d in range(1, top + 1):
            r = design_flexibility(nu, mu, d)
            assert r.edge_count == min_edges(nu, mu, d)
            assert r.achieved_erp == d
            inst = r.instance()
            check_assignment(inst, r.assignment)
            assert is_extreme_point(inst, r.assignment)
            assert crp_decomposition(inst).erp_number == d
            cases += 1
    assert cases >= 35


def test_design_is_deterministic():
    a = design_flexibility([2, 3, 1], [1, 2, 3], 1)
    b = design_flexibility([2, 3, 1], [1, 2, 3], 1)
    assert a.edges == b.edges
    assert a.assignment.entries == b.assignment.entries


def test_design_errors():
    with pytest.raises(TargetAboveDstarStar):
        design_flexibility([2, 1], [2, 1], 3)
    for bad in ("1", True):
        with pytest.raises(ValueError):
            design_flexibility([2, 1], [2, 1], bad)
    with pytest.raises(UnbalancedTotals):
        design_flexibility([1, 1], [3], 1)
    with pytest.raises(ZeroVector):
        design_flexibility([1, -1], [0], 1)


def test_no_smaller_edge_set_reaches_target():
    # certify minimality by brute force on tiny systems
    for nu, mu in ([[1, 1, 1], [1, 1, 1]], [[2, 1], [1, 2]], [[1, 2], [3]]):
        top = max_balanced_cover(nu, mu).cardinality
        for d in range(1, top + 1):
            k = min_edges(nu, mu, d)
            for size in range(1, k):
                assert exhaustive_erp_search(nu, mu, size, d) is None, (nu, mu, d, size)
            built = design_flexibility(nu, mu, d)
            assert erp_of_edge_set(nu, mu, built.edges) == d


def test_tree_suffices_exactly_when_no_proper_split():
    rng = random.Random(5)
    seen_both = set()
    for _ in range(40):
        nu, mu = random_rates(rng, max_side=3, max_rate=3)
        want = d_star(nu, mu) == 1
        assert exhaustive_tree_crp_exists(nu, mu) == want
        seen_both.add(want)
    assert seen_both == {True, False}
