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

from .conftest import braess_instance, random_feasible_instance
from .oracles import gap_by_definition, gap_redundancy_invariance

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


def test_scan_size_limit(three_block_instance):
    with pytest.raises(SizeLimitExceeded):
        crp_gap(three_block_instance, limit=4)
    big = make_instance([1] * 21, [1] * 21, [(i, i) for i in range(1, 22)])
    with pytest.raises(SizeLimitExceeded):
        crp_gap(big)
