"""Gap values, Braess behavior of the alternative gap, and perturbation safety."""

import random
from fractions import Fraction

import pytest

from procflex import (
    GapUndefined,
    SizeLimitExceeded,
    check_perturbation,
    crp_decomposition,
    crp_gap,
    make_instance,
)
from procflex.core import FREE, _feasible_network, _Transport
from procflex.robustness import MAX_GAP_SIZE, _alt_chains, _chain_cuts, _gap_chains

from .conftest import (
    braess_instance,
    planted_block_instance,
    random_feasible_instance,
    random_instance_with_zero_rates,
)
from .oracles import gap_by_definition, gap_redundancy_invariance, margins, subset_scan

F = Fraction


def test_three_block_gap(three_block_instance):
    report = crp_gap(three_block_instance)
    assert report.crp_gap == 1
    assert report.alt_gap == 1
    # several subsets attain 1; the lexicographic winner is the big one
    assert report.argmin_set == frozenset({1, 2, 3, 4})
    # the singleton {3} also attains it: neighborhood {1,3} carries 3 for 2
    assert sum(three_block_instance.supply[j - 1] for j in (1, 3)) - F(2) == 1
    assert gap_redundancy_invariance(three_block_instance)


def test_braess_goldens():
    for xi in (F(1, 20), F(1, 15), F(1, 12)):
        left = braess_instance(xi)
        right = braess_instance(xi, with_extra_edge=True)
        assert crp_gap(left).crp_gap == F(1, 10)
        assert crp_gap(left).alt_gap == F(1, 10)
        assert crp_gap(right).crp_gap == F(1, 10)
        assert crp_gap(right).alt_gap == xi
        assert crp_gap(right).alt_gap < crp_gap(left).alt_gap
        assert gap_redundancy_invariance(right)


def test_gap_matches_definition_and_never_exceeds_it():
    rng = random.Random(61)
    defined = 0
    for _ in range(120):
        inst = random_feasible_instance(rng, 5, 5, 4)
        report = crp_gap(inst)
        want_delta, want_alt = gap_by_definition(inst)
        assert report.crp_gap == want_delta
        assert report.alt_gap == want_alt
        if report.crp_gap is not None:
            assert report.crp_gap > 0
            assert report.alt_gap is not None
            assert report.alt_gap <= report.crp_gap
            defined += 1
    assert defined >= 60


def test_redundant_edges_never_change_the_gap():
    rng = random.Random(67)
    checked = 0
    while checked < 60:
        inst = random_feasible_instance(rng, 5, 5, 4)
        if crp_gap(inst).crp_gap is None:
            continue
        assert gap_redundancy_invariance(inst)
        checked += 1


def test_argmin_set_attains_the_gap():
    rng = random.Random(71)
    seen = 0
    for _ in range(60):
        inst = random_feasible_instance(rng, 5, 5, 4)
        report = crp_gap(inst)
        if report.crp_gap is None:
            continue
        C = report.argmin_set
        full_n = {j for (i, j) in inst.edges if i in C}
        surplus = sum(inst.supply[j - 1] for j in full_n) - sum(
            inst.demand[i - 1] for i in C
        )
        assert surplus == report.crp_gap
        seen += 1
    assert seen >= 30


def test_perturbation_examples(three_block_instance):
    ok = check_perturbation(three_block_instance, ["1/2", 0, "-1/2", 0, 0])
    assert ok.admissible and ok.reasons == ()
    assert ok.base_erp == 3 and ok.perturbed_erp <= 3

    big = check_perturbation(three_block_instance, [2, 0, -2, 0, 0])
    assert not big.admissible
    assert any("2*delta" in r for r in big.reasons)

    zero = check_perturbation(three_block_instance, [0] * 5)
    assert zero.admissible and zero.perturbed_erp == zero.base_erp == 3

    unbalanced = check_perturbation(three_block_instance, ["1/4", 0, 0, 0, 0])
    assert not unbalanced.admissible
    assert any("sum to zero" in r for r in unbalanced.reasons)

    with pytest.raises(ValueError):
        check_perturbation(three_block_instance, [0, 0])


def test_perturbation_failure_reasons_on_small_rates():
    left = braess_instance(F(1, 20))
    # moving demand onto queue 2 hits a zero-surplus subset: infeasible
    empty = check_perturbation(left, ["-1/20", "1/20", 0])
    assert not empty.admissible
    assert "perturbed polytope is empty" in empty.reasons
    # draining more than queue 1 holds goes negative
    neg = check_perturbation(left, ["-1/15", "1/15", 0])
    assert not neg.admissible
    assert "a perturbed demand rate is negative" in neg.reasons


def test_block_count_never_rises_under_admissible_shifts():
    rng = random.Random(73)
    admissible = 0
    attempts = 0
    while admissible < 50 and attempts < 4000:
        attempts += 1
        inst = random_feasible_instance(rng, 5, 5, 4)
        report = crp_gap(inst)
        if report.crp_gap is None or inst.m < 2:
            continue
        base = crp_decomposition(inst).erp_number
        i, k = rng.sample(range(inst.m), 2)
        t = report.crp_gap * F(rng.randint(1, 19), 20)
        omega = [F(0)] * inst.m
        omega[i], omega[k] = t, -t
        result = check_perturbation(inst, omega)
        if not result.admissible:
            continue
        assert result.perturbed_erp is not None
        assert result.perturbed_erp <= base
        admissible += 1
    assert admissible >= 50


def test_undefined_gap_handling():
    diag = make_instance([1, 1], [1, 1], [(1, 1), (2, 2)])
    report = crp_gap(diag)
    assert report.crp_gap is None and report.alt_gap is None
    assert report.argmin_set is None
    assert report.to_dict()["crp_gap"] == "undefined"
    with pytest.raises(GapUndefined):
        check_perturbation(diag, [0, 0])
    with pytest.raises(GapUndefined):
        gap_redundancy_invariance(diag)


def test_gap_size_limit(three_block_instance):
    # 21 unit pairs: no block has two demands, so no subset qualifies
    diag = make_instance([1] * 21, [1] * 21, [(i, i) for i in range(1, 22)])
    report = crp_gap(diag)
    assert report.crp_gap is None and report.argmin_set is None
    assert report.alt_gap is None
    k = MAX_GAP_SIZE // 3 + 1
    big = make_instance([1] * k, [1] * k, [(i, i) for i in range(1, k + 1)])
    with pytest.raises(SizeLimitExceeded):
        crp_gap(big)
    with pytest.raises(SizeLimitExceeded):
        check_perturbation(big, [0] * k)


def _gap_cases(rng, count):
    """Integer, fractional and zero-rate instances in equal parts."""
    for k in range(count):
        if k % 3 == 0:
            yield random_feasible_instance(rng, 7, 7, 4)
        elif k % 3 == 1:
            yield random_feasible_instance(rng, 7, 7, 4, denominators=(1, 2, 3, 5))
        else:
            yield random_instance_with_zero_rates(rng, 6, 6, 4)


def test_gap_matches_the_subset_scan():
    rng = random.Random(83)
    # four cuts attain the gap 1, with largest minimizers {1, 7}, {1, 2, 5, 7},
    # {2, ..., 7} and {7}: the argmin grows a prefix only inside the cuts it
    # is a prefix of (after 1, 2 the demand 4 of {2, ..., 7} would be wrong)
    tied = make_instance(
        [1, 3, 2, 3, 5, 4, 2],
        [1, 0, 3, 7, 3, 1, 5],
        [(1, 2), (1, 5), (1, 6), (2, 7), (3, 3), (3, 4), (4, 4), (5, 3), (5, 5),
         (5, 7), (6, 1), (6, 4), (6, 6), (7, 5)],
    )
    assert crp_gap(tied).argmin_set == frozenset({1, 2, 5, 7})
    defined = 0
    for inst in _gap_cases(rng, 630):
        (delta, argmin), (alt, _alt_argmin) = subset_scan(inst)
        report = crp_gap(inst)
        assert (report.crp_gap, report.argmin_set, report.alt_gap) == (delta, argmin, alt)
        defined += delta is not None
    assert defined >= 300


def test_gap_requests_build_one_network(monkeypatch, three_block_instance):
    builds = []
    init = _Transport.__init__
    monkeypatch.setattr(_Transport, "__init__",
                        lambda net, *a, **k: builds.append(1) or init(net, *a, **k))
    crp_gap(three_block_instance)
    assert len(builds) == 1
    builds.clear()
    check = check_perturbation(three_block_instance, [2, 0, -2, 0, 0])
    assert not check.admissible and len(builds) == 1


def test_warm_started_cuts_match_fresh_networks():
    rng = random.Random(89)
    steps_checked = 0
    for inst in _gap_cases(rng, 150):
        dec = crp_decomposition(inst)
        chains = list(_gap_chains(dec)) + list(_alt_chains(dec))
        warm = list(_chain_cuts(_feasible_network(inst), chains))
        fresh = []
        for steps in chains:
            modes = {}
            for changes in steps:
                modes.update(changes)
                net = _Transport(inst)
                for i, mode in modes.items():
                    net.force(i, mode)
                fresh.append(net.max_flow() - inst.total_units)
        assert warm == fresh
        steps_checked += len(warm)
    assert steps_checked >= 300


def test_drain_zeroes_one_demand_and_keeps_a_flow():
    rng = random.Random(97)
    for _ in range(40):
        inst = random_feasible_instance(rng, 6, 6, 4)
        net = _Transport(inst)
        net.max_flow()
        i = rng.randint(1, inst.m)
        net.drain(i)
        x = net.assignment()
        assert all(x.entries.get((i, j), 0) == 0 for j in range(1, inst.n + 1))
        rows, cols = margins(x)
        assert net.flow == sum(rows) * inst.scale
        assert all(r <= d for r, d in zip(rows, inst.demand))
        assert all(c <= s for c, s in zip(cols, inst.supply))
        # draining leaves the mode alone; re-solving restores a max flow
        assert net.mode[i] == FREE
        assert net.max_flow() == inst.total_units


def test_pooled_graph_of_200_demands_is_in_reach():
    inst, _blocks, _forward = planted_block_instance(random.Random(7), 200)
    assert inst.m + inst.n + len(inst.edges) <= MAX_GAP_SIZE
    report = crp_gap(inst)
    C = report.argmin_set
    full_n = {j for (i, j) in inst.edges if i in C}
    assert sum(inst.supply[j - 1] for j in full_n) - sum(
        inst.demand[i - 1] for i in C
    ) == report.crp_gap
    labels = crp_decomposition(inst).demand_labels
    assert any(
        0 < sum(labels[i - 1] == l for i in C) < labels.count(l) for l in set(labels)
    )
    assert 0 < report.alt_gap <= report.crp_gap
