"""Edge-addition effects and the best-single-edge rule."""

import itertools
import random

import pytest

from procflex import (
    AlreadyCrp,
    EdgeAlreadyPresent,
    IndexOutOfRange,
    add_edge_effect,
    best_single_edge,
    crp_decomposition,
    erp_trajectory,
    make_instance,
    ssc_basis,
)

from .conftest import random_feasible_instance, random_instance_with_zero_rates


def all_absent_edges(inst):
    return [
        (i, j)
        for i in range(1, inst.m + 1)
        for j in range(1, inst.n + 1)
        if (i, j) not in inst.edges
    ]


def test_three_block_best_edge_closes_everything(three_block_instance):
    edge, eff = best_single_edge(three_block_instance)
    assert edge == (4, 2)
    assert eff.dag_edge == (3, 1)
    assert eff.cycle_vertices == frozenset({1, 2, 3})
    assert eff.new_erp == 1 and eff.delta == -2


def test_four_pair_greedy_path(four_pair_instance):
    inst = four_pair_instance
    expected = [((2, 1), {1, 2}, 3), ((4, 1), {1, 3}, 2), ((1, 3), {1, 2}, 1)]
    for want_edge, want_cycle, want_erp in expected:
        edge, eff = best_single_edge(inst)
        assert edge == want_edge
        assert eff.cycle_vertices == frozenset(want_cycle)
        assert eff.new_erp == want_erp
        inst = inst.with_edge(edge)
    assert crp_decomposition(inst).erp_number == 1


def test_four_pair_two_step_shortcut(four_pair_instance):
    # a neutral first edge can set up a single closing second edge
    eff1 = add_edge_effect(four_pair_instance, (2, 3))
    assert eff1.delta == 0 and eff1.new_erp == 4
    staged = four_pair_instance.with_edge((2, 3))
    eff2 = add_edge_effect(staged, (4, 1))
    assert eff2.new_erp == 1
    assert eff2.cycle_vertices == frozenset({1, 2, 3, 4})


def test_add_edge_effect_errors(four_pair_instance):
    with pytest.raises(EdgeAlreadyPresent):
        add_edge_effect(four_pair_instance, (1, 1))
    with pytest.raises(IndexOutOfRange):
        add_edge_effect(four_pair_instance, (0, 1))
    with pytest.raises(IndexOutOfRange):
        add_edge_effect(four_pair_instance, (1, 5))


def test_edge_indices_must_be_integers(four_pair_instance):
    # 1.9 must not truncate to 1, nor True read as 1; (2, 1) is absent
    dec = crp_decomposition(four_pair_instance)
    for edge in ((1.9, 2.7), (1.5, 2), (2, 1.0), (True, 1), (2, False)):
        for add in (lambda e: add_edge_effect(four_pair_instance, e), dec.with_edge,
                    dec.merged_by, four_pair_instance.with_edge):
            with pytest.raises(ValueError, match="edge indices must be integers"):
                add(edge)
    assert add_edge_effect(four_pair_instance, (2, 1)).edge == (2, 1)
    assert (2, 1) in four_pair_instance.with_edge((2, 1)).edges


def test_best_single_edge_on_pooled_graph(small_tree_instance):
    with pytest.raises(AlreadyCrp):
        best_single_edge(small_tree_instance)


def test_effect_agrees_with_recomputation():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        inst = random_feasible_instance(rng, 5, 5, 4)
        before = crp_decomposition(inst).erp_number
        for edge in all_absent_edges(inst):
            eff = add_edge_effect(inst, edge)
            after = crp_decomposition(inst.with_edge(edge)).erp_number
            assert eff.new_erp == after, (inst, edge)
            assert eff.delta == after - before
            assert eff.delta <= 0
            assert eff.new_erp >= 1
            checked += 1
    assert checked >= 200
    # whole decompositions along random sequences of absent edges: the merge
    # must renumber blocks and sort every edge exactly as a fresh max flow does
    steps = merges = 0
    for k in range(150):
        if k % 3 == 0:
            inst = random_instance_with_zero_rates(rng, 5, 5, 4)
        elif k % 3 == 1:
            inst = random_feasible_instance(rng, 5, 5, 4, denominators=(2, 3, 5))
        else:
            inst = random_feasible_instance(rng, 5, 5, 4)
        start, dec = inst, crp_decomposition(inst)
        absent = all_absent_edges(inst)
        rng.shuffle(absent)
        seq = absent[: rng.randint(1, 6)]
        counts = []
        for edge in seq:
            blocks = dec.erp_number
            dec = dec.with_edge(edge)
            inst = inst.with_edge(edge)
            fresh = crp_decomposition(inst)
            # equality reads the stored labels and edges; the rest is derived
            assert dec == fresh, (inst, edge)
            assert dec.to_dict() == fresh.to_dict()
            assert dec.dag == fresh.dag
            assert ssc_basis(dec) == ssc_basis(fresh)
            counts.append(dec.erp_number)
            merges += dec.erp_number < blocks
        assert erp_trajectory(start, seq) == counts
        steps += len(seq)
    assert steps >= 300 and merges >= 30


def test_best_edge_attains_the_optimum_merge():
    rng = random.Random(47)
    nontrivial = zero_rate_nontrivial = 0
    for k in range(200):
        if k < 80:
            inst = random_feasible_instance(rng, 5, 5, 4)
        else:
            inst = random_instance_with_zero_rates(rng, 5, 5, 4)
        dec = crp_decomposition(inst)
        absent = all_absent_edges(inst)
        if dec.erp_number == 1 or not absent:
            continue
        best_delta = min(add_edge_effect(inst, e).delta for e in absent)
        try:
            edge, eff = best_single_edge(inst)
        except AlreadyCrp:
            assert best_delta == 0
            continue
        assert eff.delta == best_delta
        assert edge in absent
        if best_delta < 0:
            nontrivial += 1
            zero_rate_nontrivial += k >= 80
    assert nontrivial >= 10
    assert zero_rate_nontrivial >= 10


def test_zero_rate_blocks_are_left_out_of_the_scan():
    # demand 3 and supply 3 have rate 0: each is a block of one vertex
    inst = make_instance([1, 1, 0], [1, 1, 0], [(1, 1), (2, 2), (1, 2), (2, 3)])
    assert [(c.demands, c.supplies) for c in crp_decomposition(inst).components] == [
        ((1,), (1,)), ((2,), (2,)), ((3,), ()), ((), (3,)),
    ]
    edge, eff = best_single_edge(inst)
    assert edge == (2, 1)
    assert eff.cycle_vertices == frozenset({1, 2})
    assert eff.new_erp == 3 and eff.delta == -1
    # one block with both sides plus zero-rate vertices: nothing can merge
    one = make_instance([1, 0], [1, 0], [(1, 1), (2, 1)])
    with pytest.raises(AlreadyCrp, match="no single edge can merge blocks"):
        best_single_edge(one)


def test_tie_break_prefers_smallest_pair():
    # fully separate diagonal pairs: every cross edge merges at most two
    # blocks only after a first neutral edge, so the first pick is neutral
    # and must be the smallest absent pair
    inst = make_instance([1, 1, 1], [1, 1, 1], [(i, i) for i in range(1, 4)])
    edge, eff = best_single_edge(inst)
    assert edge == (1, 2)
    assert eff.delta == 0


def test_sequences_of_two_edges_explore_all(four_pair_instance):
    # exhaustive scan over ordered pairs of distinct absent edges: the best
    # final block count is 1 and (2,3)->(4,1) attains it
    inst = four_pair_instance
    absent = all_absent_edges(inst)
    best = None
    for a, b in itertools.permutations(absent, 2):
        final = crp_decomposition(inst.with_edge(a).with_edge(b)).erp_number
        if best is None or final < best[0]:
            best = (final, a, b)
    assert best[0] == 1
    assert (
        crp_decomposition(inst.with_edge((2, 3)).with_edge((4, 1))).erp_number == 1
    )
