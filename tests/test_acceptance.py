"""End-to-end acceptance gates, one test per gate.

Golden decompositions, oracle cross-checks, exhaustive minimality and
planning searches, robustness monotonicity, heavy-traffic ratio bands,
collapse-ratio trends and CLI determinism.  Gates with a stated runtime
budget assert it on a monotonic clock.  Expensive simulation sweeps are
computed once and shared between gates through a module-level cache.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from procflex import (
    check_perturbation,
    crp_decomposition,
    crp_gap,
    d_star,
    design_flexibility,
    greedy_vs_optimal_report,
    heavy_traffic_check,
    is_feasible,
    make_instance,
    max_balanced_cover,
    min_edges,
    plan_schedule,
    simulate,
)
from procflex.cli import main
from procflex.planning import erp_trajectory

from .conftest import braess_instance, diagonal_instance, random_feasible_instance
from .oracles import check_assignment, gap_by_definition, redundancy_oracle
from .test_design import random_rates

_CACHE: dict[str, object] = {}


def _four_pair_sweep():
    """Shared 1M-step sweep of the four-pair graph at eps 0.1 and 0.05."""
    if "four_pair" not in _CACHE:
        inst = make_instance(
            [1, 1, 1, 1],
            [1, 1, 1, 1],
            [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4), (3, 4), (1, 4)],
        )
        _CACHE["four_pair"] = heavy_traffic_check(
            inst, ["0.1", "0.05"], horizon=1_000_000, seed=29, replications=5
        )
    return _CACHE["four_pair"]


def _designed_sweep():
    """Shared sweep of the 4x4 minimum-edge fully pooled design."""
    if "designed" not in _CACHE:
        crp = design_flexibility([1] * 4, [1] * 4, 1).instance()
        _CACHE["designed"] = heavy_traffic_check(
            crp, ["0.1", "0.05"], horizon=600_000, seed=29, replications=5
        )
    return _CACHE["designed"]


def test_gate_01_three_block_decomposition_golden(three_block_instance):
    start = time.monotonic()
    decomp = crp_decomposition(three_block_instance)
    assert decomp.redundant_edges == frozenset({(1, 3), (1, 5), (2, 4)})
    blocks = [(c.demands, c.supplies) for c in decomp.components]
    assert blocks == [((1,), (2,)), ((2, 3), (1, 3)), ((4, 5), (4, 5))]
    assert decomp.erp_number == 3
    assert time.monotonic() - start < 1.0


def test_gate_02_component_dag_and_two_step_plans_golden(four_pair_instance):
    start = time.monotonic()
    decomp = crp_decomposition(four_pair_instance)
    dag = decomp.dag
    assert set(dag.edges) == {(1, 2), (3, 4), (1, 4)}
    report = greedy_vs_optimal_report(four_pair_instance, 2, "final")
    assert report.greedy_trajectory == (3, 2)
    assert report.optimal_trajectory == (4, 1)
    assert time.monotonic() - start < 1.0


def test_gate_03_redundant_edges_match_flow_oracle():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(200):
        inst = random_feasible_instance(rng, max_m=6, max_n=6)
        fast = crp_decomposition(inst).redundant_edges
        slow = frozenset(e for e in inst.sorted_edges if redundancy_oracle(inst, e))
        assert fast == slow, (inst.demand, inst.supply, inst.sorted_edges)
    assert time.monotonic() - start < 60.0


def _component_count(m: int, n: int, edges) -> int:
    parent = list(range(m + n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    comps = m + n
    for i, j in edges:
        ra, rb = find(i - 1), find(m + j - 1)
        if ra != rb:
            parent[ra] = rb
            comps -= 1
    return comps


def _no_smaller_design(nu, mu, d: int, size: int) -> bool:
    """Exhaustively confirm no size-edge graph pools (nu, mu) into d blocks.

    A graph with e edges has at least m+n-e connected components and the
    block count can only be larger still, so only subsets forming a forest
    with exactly d trees survive the cheap filter; those few get the full
    feasibility and decomposition check.
    """
    m, n = len(nu), len(mu)
    if size < 0:
        return True
    universe = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    for sub in itertools.combinations(universe, size):
        if _component_count(m, n, sub) != d:
            continue
        cand = make_instance(nu, mu, sub)
        if not is_feasible(cand):
            continue
        if crp_decomposition(cand).erp_number == d:
            return False
    return True


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    vals, prev = [], 0
    for c in cuts + [total]:
        vals.append(c - prev)
        prev = c
    return vals


def _small_total_rates(rng: random.Random):
    """Balanced integer rates with a small total after gcd scaling.

    These hit the regime where a forest with integer flows cannot reach the
    target block count, so the designer must spend the extra cycle edge.
    """
    m = rng.randint(2, 4)
    n = rng.randint(2, 4)
    total = max(m, n) + rng.randint(0, 1)
    g = rng.randint(1, 3)
    nu = [g * v for v in _composition(rng, total, m)]
    mu = [g * v for v in _composition(rng, total, n)]
    return nu, mu


def test_gate_04_designs_are_minimum_size():
    start = time.monotonic()
    rng = random.Random(18)
    pairs = cycle_cases = 0
    for idx in range(60):
        nu, mu = _small_total_rates(rng) if idx % 3 == 2 else random_rates(rng, 4, 4)
        lower = d_star(nu, mu)
        for d in range(1, max_balanced_cover(nu, mu).cardinality + 1):
            pairs += 1
            res = design_flexibility(nu, mu, d)
            want = len(nu) + len(mu) - d + (1 if d < lower else 0)
            assert res.edge_count == want == min_edges(nu, mu, d)
            built = res.instance()
            assert crp_decomposition(built).erp_number == d
            check_assignment(built, res.assignment)
            assert _no_smaller_design(nu, mu, d, res.edge_count - 1), (nu, mu, d)
            cycle_cases += d < lower
    # both branches of the edge-count formula must actually occur
    assert pairs >= 60 and cycle_cases >= 10
    assert time.monotonic() - start < 300.0


def test_gate_05_structured_plans_are_optimal():
    start = time.monotonic()
    report = plan_schedule(9, 11, "sum")
    assert report.value == 61
    # replay the closed-recursion trajectory straight from the close steps
    sched = report.schedule
    cur, closes, traj = sched.eta, 0, []
    for step in range(1, sched.horizon + 1):
        if closes < len(sched.cycle_steps) and step == sched.cycle_steps[closes]:
            closes += 1
            cur = max(sched.eta - step + closes, 1)
        traj.append(cur)
    assert tuple(traj) == report.trajectory

    # no ordered sequence of raw edge additions beats the structured DP
    for eta in (2, 3, 4):
        base = diagonal_instance(eta)
        absent = [
            (i, j) for i in range(1, eta + 1) for j in range(1, eta + 1) if i != j
        ]
        for budget in (1, 2, 3):
            if len(absent) < budget:
                continue
            dp = plan_schedule(eta, budget, "sum").value
            best = min(
                sum(erp_trajectory(base, seq))
                for seq in itertools.permutations(absent, budget)
            )
            assert best >= dp, (eta, budget, best, dp)
            assert best == dp  # the structured family also attains it here
    assert time.monotonic() - start < 300.0


def test_gate_06_gap_oracle_and_perturbation_monotonicity():
    start = time.monotonic()
    rng = random.Random(4096)
    for _ in range(200):
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        report = crp_gap(inst)
        assert (report.crp_gap, report.alt_gap) == gap_by_definition(inst)

    # pair shifts below the gap can never split a block
    rng = random.Random(513)
    covered = 0
    while covered < 4:
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        if inst.m < 2:
            continue
        report = crp_gap(inst)
        if report.crp_gap is None:
            continue
        admissible = attempts = 0
        while admissible < 50 and attempts < 400:
            attempts += 1
            a, b = rng.sample(range(inst.m), 2)
            t = report.crp_gap * Fraction(rng.randint(1, 19), 20)
            omega = [Fraction(0)] * inst.m
            omega[a], omega[b] = t, -t
            chk = check_perturbation(inst, omega)
            if chk.admissible:
                admissible += 1
                assert chk.perturbed_erp <= chk.base_erp
        assert admissible >= 50, (inst.demand, inst.supply, admissible)
        covered += 1

    # removing the shortcut edge shrinks the alternative gap to xi
    left = braess_instance(Fraction(1, 20))
    right = braess_instance(Fraction(1, 20), with_extra_edge=True)
    assert crp_gap(left).crp_gap == crp_gap(right).crp_gap == Fraction(1, 10)
    assert crp_gap(left).alt_gap == Fraction(1, 10)
    assert crp_gap(right).alt_gap == Fraction(1, 20)
    assert time.monotonic() - start < 60.0


def test_gate_07_heavy_traffic_ratio_bands():
    start = time.monotonic()
    one = make_instance([1], [1], [(1, 1)])
    single = heavy_traffic_check(
        one,
        ["0.05"],
        horizon=10_000_000,
        seed=29,
        replications=5,
        arrival_levels=[3],
    )
    assert single.rhs == 1
    assert 0.85 <= single.rows[0].ratio <= 1.15

    sweep = _four_pair_sweep()
    fine = sweep.rows[1]
    assert fine.eps == Fraction(1, 20)
    assert 0.8 <= fine.ratio <= 1.2
    assert time.monotonic() - start < 600.0


def test_gate_08a_collapse_ratio_shrinks_on_the_four_pair_graph():
    # The redundant edges (1,2), (3,4) and (1,4) are dropped before the
    # blocks are formed, so every block is a single queue, the block span is
    # all of R^4 and the collapse is exact at every load; the strict decrease
    # is checked where a block is non-trivial (08b and the designed-CRP test).
    sweep = _four_pair_sweep()
    assert sweep.components == ((1,), (2,), (3,), (4,))
    for row in sweep.rows:
        assert row.stats.rep_perp_norm_means == (0.0,) * row.stats.replications
        assert all(norm > 0.0 for norm in row.stats.rep_norm_means)
    # queues grow as the load rises, so the system is in heavy traffic
    assert sweep.rows[1].stats.norm_mean > sweep.rows[0].stats.norm_mean
    coarse, fine = sweep.rows[0].ssc, sweep.rows[1].ssc
    # non-increasing because both loads already sit at the limit
    assert fine == coarse == 0.0


def test_gate_08b_collapse_ratio_shrinks_on_a_designed_pooled_graph():
    sweep = _designed_sweep()
    coarse, fine = sweep.rows[0].ssc, sweep.rows[1].ssc
    assert 0.0 < fine < coarse


def test_gate_08c_total_queue_scales_with_block_count():
    designed = _designed_sweep().rows[1]
    diag = simulate(
        diagonal_instance(4), "0.05", horizon=600_000, seed=29, replications=5
    )
    factor = sum(diag.queue_means) / sum(designed.queue_means)
    # four separate queues against one pooled block: same service capacity,
    # several times the backlog
    assert 2.0 <= factor <= 8.0


def test_gate_09_cli_outputs_are_byte_identical(tmp_path, capsys):
    three_block = {
        "m": 5,
        "n": 5,
        "demand": [1, 1, 2, 2, 1],
        "supply": [2, 1, 1, 1, 2],
        "edges": [
            [1, 2], [1, 3], [1, 5], [2, 1], [2, 4],
            [3, 1], [3, 3], [4, 4], [4, 5], [5, 5],
        ],
    }
    two_pair = {
        "m": 2, "n": 2, "demand": [1, 1], "supply": [1, 1],
        "edges": [[1, 1], [2, 2]],
    }
    blocks = tmp_path / "three_block.json"
    pairs = tmp_path / "two_pair.json"
    blocks.write_text(json.dumps(three_block))
    pairs.write_text(json.dumps(two_pair))

    def run(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    emitted = run("decompose", str(blocks))
    assert emitted[0] == 0
    doc = tmp_path / "decompose.json"
    doc.write_text(emitted[1])

    verb_runs = [
        ("validate", str(blocks)),
        ("decompose", str(blocks)),
        ("design", "--erp", "2", str(pairs)),
        ("gap", str(blocks)),
        ("augment", "--best", str(blocks)),
        ("plan", "--eta", "9", "--budget", "11"),
        ("simulate", str(pairs), "--eps", "0.1,0.05", "--horizon", "4000",
         "--reps", "2", "--seed", "11"),
        ("simulate", str(pairs), "--eps", "0.1", "--horizon", "2000",
         "--seed", "3", "--format", "json"),
        ("verify", str(doc)),
    ]
    for args in verb_runs:
        first = run(*args)
        second = run(*args)
        assert first[0] == 0, (args, first[2])
        assert first == second, args
