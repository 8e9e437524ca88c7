import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import procflex as pf
from procflex import core, decomposition

from .conftest import (
    planted_block_instance,
    random_feasible_instance,
    random_instance_with_zero_rates,
)
from . import oracles
from .oracles import (
    EdgeNotPresent,
    NotAPartition,
    check_assignment,
    full_support_point,
    redundancy_oracle,
    sub_instance,
    topological_order,
    union_find_blocks,
    verify_decomposition,
    witness_point,
)


def test_redundant_edges_three_block(three_block_instance):
    assert pf.crp_decomposition(three_block_instance).redundant_edges == {(1, 3), (1, 5), (2, 4)}


def test_redundant_edges_four_pair(four_pair_instance):
    assert pf.crp_decomposition(four_pair_instance).redundant_edges == {(1, 2), (3, 4), (1, 4)}


def test_redundant_edges_none_when_pooled(small_tree_instance):
    assert pf.crp_decomposition(small_tree_instance).redundant_edges == frozenset()


def test_edges_into_a_zero_rate_supply_are_redundant():
    # x_12 <= supply_2 = 0 at every feasible point
    inst = pf.make_instance([1], [1, 0], [(1, 1), (1, 2)])
    assert pf.crp_decomposition(inst).redundant_edges == {(1, 2)}
    assert oracles.vertex_redundant_edges(inst) == {(1, 2)}
    assert redundancy_oracle(inst, (1, 2)) is True


def test_redundant_edges_seed_independent(three_block_instance, four_pair_instance):
    for inst in (three_block_instance, four_pair_instance):
        results = {pf.crp_decomposition(inst, order_seed=s).redundant_edges for s in range(4)}
        assert len(results) == 1


def test_redundancy_oracle_spot_checks(three_block_instance):
    assert redundancy_oracle(three_block_instance, (2, 4)) is True
    assert redundancy_oracle(three_block_instance, (4, 5)) is False
    one = pf.make_instance([1], [1], [(1, 1)])
    assert redundancy_oracle(one, (1, 1)) is False
    with pytest.raises(EdgeNotPresent):
        redundancy_oracle(three_block_instance, (5, 1))


def test_oracle_equivalence_bulk():
    rng = random.Random(74)
    for _ in range(210):
        inst = random_feasible_instance(rng, max_m=6, max_n=6)
        algo = pf.crp_decomposition(inst).redundant_edges
        per_edge = {e for e in inst.sorted_edges if redundancy_oracle(inst, e)}
        assert algo == per_edge


def test_algorithm_matches_vertex_enumeration():
    rng = random.Random(75)
    for _ in range(40):
        inst = random_feasible_instance(rng, max_m=3, max_n=3)
        assert pf.crp_decomposition(inst).redundant_edges == oracles.vertex_redundant_edges(inst)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_fractional_rates_match_oracles(seed):
    # coprime denominators: the max flow must scale by their LCM
    inst = random_feasible_instance(
        random.Random(seed), max_m=3, max_n=3, denominators=(2, 3, 5, 7)
    )
    assume(len({v.denominator for v in inst.demand + inst.supply}) > 1)
    expected = oracles.vertex_redundant_edges(inst)
    assert expected == {e for e in inst.sorted_edges if redundancy_oracle(inst, e)}
    for s in range(4):
        check_assignment(inst, pf.find_feasible_point(inst, order_seed=s))
        assert pf.crp_decomposition(inst, order_seed=s).redundant_edges == expected


def test_planted_blocks_recovered_at_m_1000():
    inst, blocks, forward = planted_block_instance(random.Random(1000), 1000)
    dec = pf.crp_decomposition(inst)
    assert {(c.demands, c.supplies) for c in dec.components} == blocks
    assert dec.erp_number == len(blocks)
    assert dec.redundant_edges == forward
    assert sum(dec.dag.edges.values()) == len(forward)


def test_work_bound(three_block_instance, monkeypatch):
    # Tarjan steps past each arc of its network once, so the arcs handed to
    # the one SCC pass count its scan steps
    handed = []
    scc_labels = core._Transport.scc_labels

    def counting(net):
        handed.append(len(net.arcs))
        return scc_labels(net)

    monkeypatch.setattr(core._Transport, "scc_labels", counting)
    cases = [three_block_instance]
    rng = random.Random(99)
    for _ in range(20):
        cases.append(random_feasible_instance(rng, max_m=6, max_n=6))
    for inst in cases:
        handed.clear()
        pf.crp_decomposition(inst)
        bound = 4 * (inst.m + inst.n) * (inst.m + inst.n + len(inst.edges))
        assert len(handed) == 1 and handed[0] <= bound


def test_decomposition_reads_the_solved_network_in_place(three_block_instance, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decomposition copied the feasible point out")

    monkeypatch.setattr(core._Transport, "assignment", refuse)
    monkeypatch.setattr(core, "find_feasible_point", refuse)
    monkeypatch.setattr(decomposition, "find_feasible_point", refuse, raising=False)
    for seed in range(4):
        dec = pf.crp_decomposition(three_block_instance, order_seed=seed)
        assert dec.redundant_edges == {(1, 3), (1, 5), (2, 4)}
    assert pf.crp_decomposition(three_block_instance).redundant_edges == {(1, 3), (1, 5), (2, 4)}
    assert pf.crp_decomposition(three_block_instance).erp_number != 1
    # demand 1 reaches only supply 1, which has half its rate
    stuck = pf.make_instance([2, 0], [1, 1], [(1, 1), (2, 2)])
    with pytest.raises(pf.Infeasible, match="^no feasible assignment: capacity region violated$"):
        pf.crp_decomposition(stuck)


def test_decomposition_three_block(three_block_instance):
    dec = pf.crp_decomposition(three_block_instance)
    assert dec.erp_number == 3
    assert [(c.demands, c.supplies) for c in dec.components] == [
        ((1,), (2,)),
        ((2, 3), (1, 3)),
        ((4, 5), (4, 5)),
    ]
    assert dec.redundant_edges == {(1, 3), (1, 5), (2, 4)}
    covered = set()
    for c in dec.components:
        covered |= c.edges
    assert covered == three_block_instance.edges - dec.redundant_edges


def test_decomposition_four_pair(four_pair_instance):
    dec = pf.crp_decomposition(four_pair_instance)
    assert dec.erp_number == 4
    assert [(c.demands, c.supplies) for c in dec.components] == [
        ((1,), (1,)),
        ((2,), (2,)),
        ((3,), (3,)),
        ((4,), (4,)),
    ]


def test_with_edge_relabels_without_building_blocks(four_pair_instance, monkeypatch):
    fields = [f.name for f in dataclasses.fields(pf.CrpDecomposition)]
    assert fields == ["m", "n", "edges", "demand_labels", "supply_labels"]
    dec = pf.crp_decomposition(four_pair_instance)
    monkeypatch.setattr(decomposition, "CrpComponent", None)  # building one raises
    counts = []
    for edge in [(2, 1), (4, 1), (1, 3)]:
        counts.append(len(dec.merged_by(edge)))
        dec = dec.with_edge(edge)
    assert counts == [2, 2, 2] and dec.erp_number == 1
    assert (dec.demand_labels, dec.supply_labels) == ((1,) * 4, (1,) * 4)


def test_decomposition_component_invariants():
    rng = random.Random(4242)
    for _ in range(60):
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        dec = pf.crp_decomposition(inst)
        seen_d: set = set()
        seen_s: set = set()
        union_edges: set = set()
        for comp in dec.components:
            assert not (set(comp.demands) & seen_d)
            assert not (set(comp.supplies) & seen_s)
            seen_d |= set(comp.demands)
            seen_s |= set(comp.supplies)
            union_edges |= comp.edges
            dsum = sum((inst.demand[i - 1] for i in comp.demands), Fraction(0))
            ssum = sum((inst.supply[j - 1] for j in comp.supplies), Fraction(0))
            assert dsum == ssum
        assert seen_d == set(range(1, inst.m + 1))
        assert seen_s == set(range(1, inst.n + 1))
        assert union_edges == inst.edges - dec.redundant_edges


def test_components_individually_pooled():
    rng = random.Random(515)
    for _ in range(25):
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        dec = pf.crp_decomposition(inst)
        for comp in dec.components:
            sub = sub_instance(inst, comp.demands, comp.supplies)
            assert pf.crp_decomposition(sub).erp_number == 1


def test_crp_condition_examples(small_tree_instance, four_pair_instance):
    assert pf.crp_decomposition(small_tree_instance).erp_number == 1
    assert pf.crp_decomposition(four_pair_instance).erp_number != 1
    disconnected = pf.make_instance([1, 1], [1, 1], [(1, 1), (2, 2)])
    assert pf.crp_decomposition(disconnected).erp_number != 1


def test_crp_condition_matches_strict_subset_scan():
    rng = random.Random(81)
    for _ in range(120):
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        assert (pf.crp_decomposition(inst).erp_number == 1) == oracles.strict_pooling_condition(inst)


def test_crp_graph_four_pair(four_pair_instance):
    dec = pf.crp_decomposition(four_pair_instance)
    dag = dec.dag
    assert dag.d == 4
    assert dict(dag.edges) == {(1, 2): 1, (3, 4): 1, (1, 4): 1}
    assert sum(dag.edges.values()) == len(dec.redundant_edges)


def test_crp_graph_three_block(three_block_instance):
    dec = pf.crp_decomposition(three_block_instance)
    dag = dec.dag
    assert dict(dag.edges) == {(1, 2): 1, (1, 3): 1, (2, 3): 1}


def test_crp_graph_single_component(small_tree_instance):
    dec = pf.crp_decomposition(small_tree_instance)
    dag = dec.dag
    assert dag.d == 1
    assert not dag.edges


def test_crp_graph_acyclic_bulk():
    rng = random.Random(303)
    for k in range(120):
        if k < 80:
            inst = random_feasible_instance(rng, max_m=6, max_n=6)
        else:
            inst = random_instance_with_zero_rates(rng, max_m=6, max_n=6)
        dec = pf.crp_decomposition(inst)
        dag = dec.dag
        order = topological_order(dag.d, dag.edges)
        assert order is not None, (inst, dag)
        assert sorted(order) == list(range(1, dag.d + 1))
        assert sum(dag.edges.values()) == len(dec.redundant_edges)


def test_topological_order_oracle_detects_cycles():
    assert topological_order(3, [(1, 2), (2, 3)]) == [1, 2, 3]
    assert topological_order(3, [(1, 2), (2, 3), (3, 1)]) is None
    assert topological_order(2, [(1, 1)]) is None


def test_blocks_match_union_find_oracle():
    rng = random.Random(2718)
    zero_rate_blocks = 0
    for k in range(160):
        if k % 2:
            inst = random_instance_with_zero_rates(rng, max_m=5, max_n=5)
        else:
            inst = random_feasible_instance(rng, max_m=5, max_n=5)
        redundant = {e for e in inst.sorted_edges if redundancy_oracle(inst, e)}
        blocks = union_find_blocks(inst, redundant)
        label = {}
        for l, (demands, supplies, _edges) in enumerate(blocks, start=1):
            label.update({("d", i): l for i in demands})
            label.update({("s", j): l for j in supplies})
        dag_edges = {}
        for i, j in redundant:
            key = (label[("d", i)], label[("s", j)])
            dag_edges[key] = dag_edges.get(key, 0) + 1
        for seed in range(4):
            dec = pf.crp_decomposition(inst, order_seed=seed)
            assert dec.redundant_edges == redundant
            assert [(c.demands, c.supplies, c.edges) for c in dec.components] == blocks
            assert dec.demand_labels == tuple(label[("d", i)] for i in range(1, inst.m + 1))
            assert dec.supply_labels == tuple(label[("s", j)] for j in range(1, inst.n + 1))
            assert dict(dec.dag.edges) == dag_edges
        assert (pf.crp_decomposition(inst).erp_number == 1) == (len(blocks) == 1 and not redundant)
        zero_rate_blocks += sum(1 for d, s, _e in blocks if not d or not s)
    assert zero_rate_blocks >= 80


def test_ssc_basis(three_block_instance, small_tree_instance, four_pair_instance):
    dec = pf.crp_decomposition(three_block_instance)
    assert pf.ssc_basis(dec) == (
        (1, 0, 0, 0, 0),
        (0, 1, 1, 0, 0),
        (0, 0, 0, 1, 1),
    )
    assert pf.ssc_basis(pf.crp_decomposition(small_tree_instance)) == ((1, 1),)
    four = pf.ssc_basis(pf.crp_decomposition(four_pair_instance))
    assert len(four) == 4
    # orthogonal 0/1 vectors partitioning the demand index set
    counts = [sum(col) for col in zip(*four)]
    assert counts == [1, 1, 1, 1]


def test_witness_and_full_support(three_block_instance):
    er = pf.crp_decomposition(three_block_instance).redundant_edges
    for edge in three_block_instance.sorted_edges:
        w = witness_point(three_block_instance, edge)
        if edge in er:
            assert w is None
        else:
            check_assignment(three_block_instance, w)
            assert w.entries.get(edge, 0) > 0
    xbar = full_support_point(three_block_instance)
    check_assignment(three_block_instance, xbar)
    assert xbar.support() == three_block_instance.edges - er


def test_full_support_bulk():
    rng = random.Random(8080)
    for _ in range(40):
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        er = pf.crp_decomposition(inst).redundant_edges
        xbar = full_support_point(inst)
        check_assignment(inst, xbar)
        assert xbar.support() == inst.edges - er


def test_verify_decomposition_orders(three_block_instance, small_tree_instance):
    assert verify_decomposition(three_block_instance, [{4, 5}, {2, 3}, {1}])
    assert not verify_decomposition(three_block_instance, [{1}, {2, 3}, {4, 5}])
    assert verify_decomposition(small_tree_instance, [{1, 2}])


def test_verify_decomposition_partition_errors(three_block_instance):
    with pytest.raises(NotAPartition):
        verify_decomposition(three_block_instance, [{1, 2}, {2, 3}, {4, 5}])
    with pytest.raises(NotAPartition):
        verify_decomposition(three_block_instance, [{1, 2}, {3}])
    with pytest.raises(NotAPartition):
        verify_decomposition(three_block_instance, [set(), {1, 2, 3, 4, 5}])


def test_verify_accepts_computed_decomposition():
    rng = random.Random(99021)
    for _ in range(30):
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        dec = pf.crp_decomposition(inst)
        # feed the components back in reverse pooling order: sinks first
        dag = dec.dag
        order = sorted(
            range(1, dec.erp_number + 1),
            key=lambda l: len(dag.descendants(l)),
        )
        cover = [set(dec.components[l - 1].demands) for l in order]
        assert verify_decomposition(inst, cover)
