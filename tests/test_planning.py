"""Structured schedules, the planning DP, and greedy-vs-optimal comparisons."""

import itertools
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from procflex import (
    CrpDecomposition,
    EdgeAlreadyPresent,
    InvalidK,
    InvariantViolation,
    Schedule,
    SizeLimitExceeded,
    add_edge_effect,
    best_single_edge,
    crp_decomposition,
    erp_trajectory,
    greedy_vs_optimal_report,
    make_instance,
    make_objective,
    plan_schedule,
    structured_schedule,
)

from procflex import core, planning
from procflex.planning import Objective, _dp_plan

from bench.workloads import PLAN_SIZES

from .conftest import random_feasible_instance, random_instance_with_zero_rates
from .oracles import best_sequences_by_trajectory, dp_plan_reference


def diagonal(eta):
    return make_instance([1] * eta, [1] * eta, [(i, i) for i in range(1, eta + 1)])


def all_close_vectors(eta, K):
    out = [()]

    def rec(prefix, last):
        i = len(prefix) + 1
        for t in range(last + 2, min(eta + i - 1, K) + 1):
            out.append(prefix + (t,))
            rec(prefix + (t,), t)

    rec((), 0)
    return out


def test_trajectory_of_published_sequences(four_pair_instance):
    assert erp_trajectory(four_pair_instance, [(4, 3), (2, 1)]) == [3, 2]
    assert erp_trajectory(four_pair_instance, [(2, 3), (4, 1)]) == [4, 1]


def test_trajectory_constant_for_internal_edges(three_block_instance):
    # edges inside one block never change the count
    assert erp_trajectory(three_block_instance, [(2, 3), (5, 4)]) == [3, 3]


def test_trajectory_rejects_present_and_repeated_edges(four_pair_instance):
    with pytest.raises(EdgeAlreadyPresent):
        erp_trajectory(four_pair_instance, [(1, 1)])
    with pytest.raises(EdgeAlreadyPresent):
        erp_trajectory(four_pair_instance, [(2, 1), (2, 1)])


def test_structured_schedule_three_close_pattern():
    s = structured_schedule(9, 11, (4, 8, 11))
    assert s.moves == (
        ("chain", 1, 2),
        ("chain", 2, 3),
        ("chain", 3, 4),
        ("close", 4, 1),
        ("chain", 4, 5),
        ("chain", 5, 6),
        ("chain", 6, 7),
        ("close", 7, 4),
        ("chain", 7, 8),
        ("chain", 8, 9),
        ("close", 9, 7),
    )
    assert s.trajectory() == (9, 9, 9, 6, 6, 6, 6, 3, 3, 3, 1)
    assert sum(1 for mv in s.moves if mv[0] == "chain") == 8
    assert sum(1 for mv in s.moves if mv[0] == "close") == 3


def test_structured_schedule_single_close_and_chain():
    s = structured_schedule(5, 7, (5,))
    assert s.moves[4] == ("close", 5, 1)
    assert s.trajectory() == (5, 5, 5, 5, 1, 1, 1)
    assert s.moves[5] == ("filler",) and s.moves[6] == ("filler",)

    chain = structured_schedule(5, 3)
    assert chain.trajectory() == (5, 5, 5)
    assert all(mv[0] == "chain" for mv in chain.moves)


def test_structured_schedule_invalid_close_vectors():
    with pytest.raises(InvalidK):
        structured_schedule(2, 1, (1,))  # no chain edge to cycle through yet
    with pytest.raises(InvalidK):
        structured_schedule(5, 9, (3, 4))  # back-to-back closes reuse an edge
    with pytest.raises(InvalidK):
        structured_schedule(5, 9, (4, 3))
    with pytest.raises(InvalidK):
        structured_schedule(3, 9, (6,))  # beyond eta+i-1
    with pytest.raises(InvalidK):
        structured_schedule(5, 4, (5,))  # beyond horizon


def test_realize_rejects_a_block_without_supply():
    # demand 2 has rate 0 and no edge: a block of its own with no supply
    inst = make_instance([1, 0], [1], [(1, 1)])
    with pytest.raises(ValueError, match="block 2 .*needs a demand and a supply"):
        structured_schedule(2, 1).realize(inst)


def test_structured_trajectories_match_ground_truth():
    for eta, K in ((2, 2), (4, 6), (5, 12), (8, 12)):
        inst = diagonal(eta)
        for k in all_close_vectors(eta, K):
            s = structured_schedule(eta, K, k)
            try:
                edges = s.realize(inst)
            except ValueError:
                # schedules that never pool can exhaust the supply of
                # do-nothing edges; only filler steps may fail that way
                assert ("filler",) in s.moves
                continue
            assert tuple(erp_trajectory(inst, edges)) == s.trajectory(), (eta, K, k)


def test_plan_sum_nine_blocks():
    rep = plan_schedule(9, 11, "sum")
    assert rep.value == 61
    # returned trajectory must obey the induction for its own close vector
    k = rep.schedule.cycle_steps
    assert rep.trajectory == structured_schedule(9, 11, k).trajectory()
    # one known optimal vector
    obj = make_objective("sum", 9, 11)
    known = structured_schedule(9, 11, (4, 8, 11))
    assert obj.total(known.trajectory()) == 61
    cf = rep.closed_form
    assert cf is not None
    assert (cf.p, cf.k) == (3, (4, 7, 9))
    assert cf.value == 62
    assert cf.matches_dp is False


def test_sum_closed_form_pins():
    # floor(i*g) lands on a whole number in these, where an off-by-one floor shows
    for eta, K, p, k, score, value in (
        (4, 3, 1, (2,), 7, 10),
        (4, 9, 2, (3, 5), 13, 17),
        (60, 60, 9, (10, 20, 28, 36, 42, 48, 52, 56, 58), 820, 2161),
    ):
        cf = plan_schedule(eta, K, "sum").closed_form
        assert (cf.p, cf.k, cf.formula_score, cf.value) == (p, k, score, value), (eta, K)


def test_plan_final_nine_blocks():
    rep = plan_schedule(9, 11, "final")
    assert rep.schedule.cycle_steps == (9,)
    assert rep.trajectory == (9,) * 8 + (1, 1, 1)
    assert rep.value == 1
    assert rep.closed_form is None


def test_plan_final_is_one_close_at_min_eta_k():
    # the closed form: one close at min(eta, K) reaches max(eta - K + 1, 1)
    # blocks, and the DP's fewest-closes tie-break returns exactly that vector
    shapes = [(eta, K) for eta in range(1, 21) for K in range(1, 21)]
    for eta, K in shapes + [(200, 200), (200, 7), (7, 200)]:
        rep = plan_schedule(eta, K, "final")
        k1 = min(eta, K)
        assert rep.schedule.cycle_steps == ((k1,) if k1 >= 2 else ()), (eta, K)
        assert rep.value == max(eta - K + 1, 1)


def test_plan_two_blocks_one_step():
    rep = plan_schedule(2, 1, "sum")
    assert rep.schedule.cycle_steps == ()
    assert rep.trajectory == (2,)
    assert rep.value == 2
    assert rep.schedule.moves == (("chain", 1, 2),)


def test_plan_validates_arguments():
    with pytest.raises(ValueError):
        plan_schedule(0, 3, "sum")
    with pytest.raises(ValueError, match="^budget K must be a positive integer, got 0$"):
        plan_schedule(3, 0, "sum")
    with pytest.raises(ValueError, match="^budget K must be a non-negative integer, got -1$"):
        structured_schedule(3, -1)
    with pytest.raises(ValueError, match="^budget K must be a non-negative integer, got -1$"):
        greedy_vs_optimal_report(diagonal(3), -1)
    with pytest.raises(ValueError):
        plan_schedule(3, 2, "nonsense")
    for eta, K in ((10**12, 3), (3, 10**12), (201, 1), (1, 201)):
        with pytest.raises(SizeLimitExceeded):
            plan_schedule(eta, K, "sum")
    assert plan_schedule(200, 2, "sum").trajectory == (200, 199)


def test_counts_reject_bools():
    # bool is an int subclass; True would come back out as eta == True
    for eta, K in ((True, 3), (3, True), (False, 3)):
        with pytest.raises(ValueError):
            plan_schedule(eta, K, "sum")
        with pytest.raises(ValueError):
            structured_schedule(eta, K)
    with pytest.raises(ValueError):
        greedy_vs_optimal_report(diagonal(3), True)
    with pytest.raises(ValueError):
        greedy_vs_optimal_report(diagonal(3), False)


def test_objective_tables():
    obj = make_objective([[0, 1, 2], [0, 0, "5/2"]], 3, 2)
    assert obj.kind == "tables"
    assert obj.total((3, 2)) == 2
    with pytest.raises(ValueError):
        make_objective([[2, 1, 0], [0, 0, 1]], 3, 2)  # decreasing table
    with pytest.raises(ValueError):
        make_objective([[0, 1]], 3, 2)  # wrong shape
    for inexact in ([[0.1, 0.2]], [[True, 2]]):
        with pytest.raises(ValueError):
            make_objective(inexact, 2, 1)
    # a row is a sequence of entries, never a string read as its characters
    for rows in (["012", "013"], [[0, 1, 2], "013"], [[0, 1, 2], 5]):
        with pytest.raises(TypeError):
            make_objective(rows, 3, 2)
    assert make_objective(((0, 1, 2), (0, 1, 3)), 3, 2).tables == ((0, 1, 2), (0, 1, 3))
    final = make_objective("final", 4, 3)
    assert final.total((4, 4, 2)) == 2
    assert final.total((4, 4, 4)) == 4


def test_min_single_close_reaching_full_pooling():
    for eta in range(2, 7):
        reached = [
            k1
            for k1 in range(2, eta + 1)
            if structured_schedule(eta, eta, (k1,)).trajectory()[-1] == 1
        ]
        assert min(reached) == eta


def test_dp_matches_close_vector_enumeration():
    for eta, K in ((3, 5), (4, 7), (6, 9)):
        obj = make_objective("sum", eta, K)
        best = min(
            obj.total(structured_schedule(eta, K, k).trajectory())
            for k in all_close_vectors(eta, K)
        )
        assert plan_schedule(eta, K, "sum").value == best


def test_no_edge_sequence_beats_the_plan():
    # full enumeration over ordered tuples of distinct absent edges
    for eta in (2, 3):
        inst = diagonal(eta)
        absent = [
            (i, j) for i in range(1, eta + 1) for j in range(1, eta + 1) if i != j
        ]
        for K in (1, 2):
            obj = make_objective("sum", eta, K)
            dp = plan_schedule(eta, K, "sum").value
            best = None
            for seq in permutations(absent, K):
                cur = inst
                traj = []
                for e in seq:
                    cur = cur.with_edge(e)
                    traj.append(crp_decomposition(cur).erp_number)
                val = obj.total(traj)
                best = val if best is None else min(best, val)
            assert best == dp, (eta, K)


def test_scaling_of_close_count_and_value():
    rows = []
    for eta in (4, 9, 16, 25):
        K = eta + math.ceil(math.sqrt(eta)) + 1
        rep = plan_schedule(eta, K, "sum")
        obj = make_objective("sum", eta, K)
        single = structured_schedule(eta, K, (eta,))
        rows.append((eta, rep.schedule.p, rep.value, obj.total(single.trajectory())))
    assert [(r[1], r[2]) for r in rows] == [(2, 15), (3, 63), (5, 181), (6, 419)]
    for (e1, p1, v1, c1), (e2, p2, v2, c2) in zip(rows, rows[1:]):
        assert p1 <= p2
        # one close only: quadratic cost pulls away from the optimum
        assert c1 * v2 < c2 * v1
        # optimum grows slower than eta squared
        assert v1 * e2**2 > v2 * e1**2
    for eta, p, _v, _c in rows:
        root = math.sqrt(eta)
        assert root / 2 <= p <= 2 * root


def test_greedy_vs_optimal_four_pair(four_pair_instance):
    rep = greedy_vs_optimal_report(four_pair_instance, 2, "final")
    assert rep.greedy_edges == ((2, 1), (4, 1))
    assert rep.greedy_trajectory == (3, 2)
    assert rep.greedy_value == 2
    assert rep.optimal_mode == "exhaustive"
    assert rep.optimal_edges == ((2, 3), (4, 1))
    assert rep.optimal_trajectory == (4, 1)
    assert rep.optimal_value == 1


def test_greedy_vs_optimal_diagonal_sum():
    rep = greedy_vs_optimal_report(diagonal(3), 3, "sum")
    assert rep.optimal_mode == "structured"
    assert rep.greedy_value == 7
    assert rep.optimal_value == 7
    assert rep.optimal_trajectory == (3, 2, 2)


def test_greedy_vs_optimal_edge_cases(four_pair_instance):
    rep = greedy_vs_optimal_report(four_pair_instance, 0)
    assert rep.greedy_edges == rep.optimal_edges == ()
    assert rep.greedy_value == 0 and rep.optimal_value == 0

    big = make_instance(
        [1] * 6, [1] * 6, [(i, i) for i in range(1, 7)] + [(1, 2)]
    )
    rep = greedy_vs_optimal_report(big, 3, "sum")
    assert rep.optimal_mode == "unavailable"
    assert rep.optimal_edges is None
    assert "brute-force" in rep.note


def test_greedy_vs_optimal_with_a_vertex_outside_every_pairing():
    # no redundant edge, but the zero-rate demand 2 is a block without a
    # supply, so the structured family does not apply
    inst = make_instance([1, 0], [1], [(1, 1)])
    rep = greedy_vs_optimal_report(inst, 1)
    assert rep.optimal_mode == "exhaustive"
    objective = [lambda v: v]
    assert rep.optimal_value == best_sequences_by_trajectory(inst, 1, objective)[0]
    assert rep.greedy_value >= rep.optimal_value

    wide = make_instance([1] * 5 + [0], [1] * 5, [(i, i) for i in range(1, 6)])
    rep = greedy_vs_optimal_report(wide, 4)
    assert rep.optimal_mode == "unavailable"
    assert "without a demand or a supply" in rep.note


def test_neutral_edge_matches_per_edge_probes(four_pair_instance):
    rng = random.Random(1618)
    zero_supply = make_instance([1], [1, 0], [(1, 1), (1, 2)])
    cases = [four_pair_instance, diagonal(1), zero_supply]
    for k in range(60):
        make = random_instance_with_zero_rates if k % 2 else random_feasible_instance
        cases.append(make(rng, 4, 4, 4))
    for inst in cases:
        absent = [
            (i, j)
            for i in range(1, inst.m + 1)
            for j in range(1, inst.n + 1)
            if (i, j) not in inst.edges
        ]
        want = next((e for e in absent if add_edge_effect(inst, e).delta == 0), None)
        if want is None:
            with pytest.raises(ValueError, match="no neutral edge left"):
                Schedule._neutral_edge(crp_decomposition(inst))
        else:
            assert Schedule._neutral_edge(crp_decomposition(inst)) == want


def test_edge_what_ifs_solve_one_max_flow(monkeypatch, four_pair_instance):
    calls = []
    max_flow = core._Transport.max_flow
    monkeypatch.setattr(core._Transport, "max_flow", lambda net: calls.append(1) or max_flow(net))

    def flows(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    fillers = structured_schedule(3, 3)
    assert ("filler",) in fillers.moves
    rep = greedy_vs_optimal_report(four_pair_instance, 2, "sum")
    assert rep.optimal_mode == "exhaustive"
    assert flows(greedy_vs_optimal_report, four_pair_instance, 2, "sum") == 1
    assert flows(greedy_vs_optimal_report, diagonal(10), 3, "sum") == 1
    assert flows(erp_trajectory, four_pair_instance, [(2, 3), (4, 1), (3, 1)]) == 1
    assert flows(fillers.realize, diagonal(3)) == 1
    assert flows(best_single_edge, four_pair_instance) == 1


def test_greedy_vs_optimal_walks_each_chain_once(monkeypatch):
    walked = []
    with_edge = CrpDecomposition.with_edge
    monkeypatch.setattr(CrpDecomposition, "with_edge",
                        lambda dec, edge: walked.append(edge) or with_edge(dec, edge))
    for K in (1, 3, 7):
        walked.clear()
        rep = greedy_vs_optimal_report(diagonal(5), K, "sum")
        assert rep.optimal_mode == "structured"
        assert walked == list(rep.greedy_edges + rep.optimal_edges)
        assert len(walked) == 2 * K


def test_realize_checks_the_counts_it_walks(monkeypatch):
    fillers = structured_schedule(3, 4, (3,))
    assert fillers.realize(diagonal(3)) and ("filler",) in fillers.moves
    monkeypatch.setattr(Schedule, "trajectory", lambda self: (3,) * self.horizon)
    with pytest.raises(InvariantViolation, match=r"differs from plan \(3, 3, 3, 3\)$"):
        fillers.realize(diagonal(3))
    with pytest.raises(InvariantViolation, match=r"\(3, 2\) differs from plan \(3, 3\)$"):
        greedy_vs_optimal_report(diagonal(3), 2, "sum")


def _primes(count):
    out = []
    n = 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


_PRIMES = _primes(25 * 25)


def _random_objective(rng, kind, eta, K):
    """An objective of the given kind; table rows are sorted random entries."""
    if kind in ("sum", "final"):
        return make_objective(kind, eta, K)
    if kind == "coprime":
        # every entry has its own prime denominator: the lcm is their product
        dens = iter(rng.sample(_PRIMES, eta * K))
        rows = [sorted(Fraction(rng.randint(1, 4 * eta * d), d) for d in itertools.islice(dens, eta))
                for _ in range(K)]
        return make_objective(rows, eta, K)
    if kind == "fraction":
        rows = [sorted(Fraction(rng.randint(-2, 4 * eta), rng.randint(1, 6)) for _ in range(eta))
                for _ in range(K)]
        return make_objective(rows, eta, K)
    rows = [sorted(rng.randint(-2, 2 * eta) for _ in range(eta)) for _ in range(K)]
    if kind == "whole_fraction":
        # whole numbers read as Fractions: the optimum is a Fraction printed as an integer
        return make_objective(rows, eta, K)
    if kind == "mixed":
        # the value is an int exactly when the optimal trajectory meets no Fraction
        rows = [[v + Fraction(1, 2) if v % 3 == 0 else v for v in row] for row in rows]
    # int and mixed tables bypass make_objective, which reads every entry as a Fraction
    return Objective("tables", eta, tuple(tuple(row) for row in rows))


def test_dp_matches_reference_dp():
    rng = random.Random(20261019)
    kinds = ("sum", "final", "int", "fraction", "coprime", "whole_fraction", "mixed")
    for case in range(360):
        kind = kinds[case % len(kinds)]
        eta, K = rng.randint(1, 25), rng.randint(1, 25)
        obj = _random_objective(rng, kind, eta, K)
        got, want = _dp_plan(eta, K, obj), dp_plan_reference(eta, K, obj)
        assert got == want, (kind, eta, K)
        assert type(got[0]) is type(want[0]), (kind, eta, K)
        assert str(got[0]) == str(want[0]), (kind, eta, K)
    assert _dp_plan(3, 0, make_objective("sum", 3, 0)) == (0, ())


def test_dp_ties_keep_the_fewest_closes():
    # closing at step 2 ties the empty vector at 3: the empty one wins, and the
    # Fraction optimum still prints as a whole number
    obj = make_objective([["1/2", "3/2"], ["3/2", "3/2"]], 2, 2)
    value, k = _dp_plan(2, 2, obj)
    assert (value, k) == dp_plan_reference(2, 2, obj) == (3, ())
    assert type(value) is Fraction and str(value) == "3"


def test_plan_reports_match_the_reference_dp_on_bench_shapes(monkeypatch):
    rng = random.Random(7)
    cases = []
    for eta, K, kind in PLAN_SIZES:
        spec = kind
        if kind == "tables":
            spec = [[str(v) for v in sorted(Fraction(rng.randint(0, 4 * eta), rng.randint(1, 3))
                                            for _ in range(eta))] for _ in range(K)]
        cases.append((eta, K, spec))
    fast = [plan_schedule(*case).to_dict() for case in cases]
    monkeypatch.setattr(planning, "_dp_plan", dp_plan_reference)
    assert fast == [plan_schedule(*case).to_dict() for case in cases]
