"""MaxWeight simulator: scheduling rules, chain dynamics, heavy-traffic
estimates and state-space-collapse diagnostics."""

import ctypes
import json
import math
import random
import shutil
import tempfile
import types
from fractions import Fraction

import numpy as np
import pytest

from procflex import (
    Infeasible,
    InvalidEpsilon,
    InvariantViolation,
    IsolatedServer,
    SizeLimitExceeded,
    design_flexibility,
    heavy_traffic_check,
    make_arrival_model,
    make_instance,
    simulate,
)
from procflex import native, queuesim
from procflex.cli import main
from procflex.decomposition import crp_decomposition
from procflex.core import ProblemInstance
from procflex.queuesim import _stream

from .conftest import diagonal_instance, random_feasible_instance


def four_pair_graph():
    return make_instance(
        [1, 1, 1, 1],
        [1, 1, 1, 1],
        [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4), (3, 4), (1, 4)],
    )


def maxweight_choice(q, mu, supply_adj, draw):
    """One MaxWeight slot: server j gives its whole mu_j to a longest queue
    among supply_adj[j] (1-based demands); a tie takes the uniform draw(j).

    The total weight <q, s> is sum_j mu_j * max of q over server j's
    neighborhood, the optimum of the service polytope's linear objective.
    """
    s = [0] * len(q)
    for j, cand in enumerate(supply_adj):
        if not cand:
            raise IsolatedServer(f"supply vertex {j + 1} has no edges")
        if mu[j] == 0:
            continue
        best = max(q[i - 1] for i in cand)
        tied = [i for i in cand if q[i - 1] == best]
        pick = tied[0] if len(tied) == 1 else tied[int(draw(j) * len(tied))]
        s[pick - 1] += mu[j]
    return tuple(s)


def queue_update(q, a, s):
    """One slot of the chain: q' = max(q + a - s, 0) and the unused service
    u = q' - (q + a - s)."""
    x = [qi + ai - si for qi, ai, si in zip(q, a, s)]
    nxt = tuple(v if v > 0 else 0 for v in x)
    return nxt, tuple(qn - v for qn, v in zip(nxt, x))


def reference_sim(inst, eps, horizon, warmup, seed, rep, levels=None):
    """Step-by-step replay of one replication, consuming the same Philox
    streams as the production runner."""
    model = make_arrival_model(inst, eps, levels)
    m, n = inst.m, inst.n
    probs = [float(p) for p in model.probs]
    a = []
    for i in range(m):
        u = _stream(seed, rep, 1, i).random(horizon)
        a.append((u < probs[i]).astype(np.int64) * model.levels[i])
    arrivals = np.stack(a, axis=1).tolist()
    mu = [int(x) for x in inst.supply]
    ties = {
        j: _stream(seed, rep, 2, j).random(horizon)
        for j in range(n)
        if len(inst.supply_adj[j]) > 1 and mu[j] > 0
    }
    comps = [
        [i - 1 for i in c.demands] for c in crp_decomposition(inst).components if c.demands
    ]
    q = [0] * m
    sums = [0.0] * m
    norm = perp = 0.0
    for t in range(horizon):
        s = maxweight_choice(q, mu, inst.supply_adj, lambda j: ties[j][t])
        q, _ = queue_update(q, arrivals[t], s)
        if t >= warmup:
            for i in range(m):
                sums[i] += q[i]
            norm += math.sqrt(sum(v * v for v in q))
            ssq = 0.0
            for cols in comps:
                mean = sum(q[i] for i in cols) / len(cols)
                ssq += sum((q[i] - mean) ** 2 for i in cols)
            perp += math.sqrt(ssq)
    ns = horizon - warmup
    return [x / ns for x in sums], perp / ns, norm / ns


def test_maxweight_schedule_examples():
    rng = np.random.default_rng(0)
    draw = lambda j: rng.random()
    assert maxweight_choice((3, 1), (2,), ((1, 2),), draw) == (2, 0)
    # server 1 must serve queue 1 even though it is empty
    assert maxweight_choice((0, 5), (2, 1), ((1,), (2,)), draw) == (2, 1)
    with pytest.raises(IsolatedServer):
        maxweight_choice((1, 1), (1, 1), ((1, 2), ()), draw)


def test_maxweight_tie_frequency():
    rng = np.random.default_rng(42)
    hits = 0
    trials = 4000
    for _ in range(trials):
        s = maxweight_choice((1, 1), (2,), ((1, 2),), lambda j: rng.random())
        assert s in {(2, 0), (0, 2)}
        hits += s == (2, 0)
    # binomial(4000, 1/2): 5 sigma is about 0.04
    assert abs(hits / trials - 0.5) < 0.04


def test_step_examples():
    assert queue_update((0, 2), (1, 0), (2, 1)) == ((0, 1), (1, 0))
    assert queue_update((5, 0), (0, 0), (2, 0)) == ((3, 0), (0, 0))
    # empty system: all offered service is unused
    assert queue_update((0, 0), (0, 0), (2, 1)) == ((0, 0), (2, 1))


def test_runtime_invariants_raise_rather_than_assert(monkeypatch):
    # plain checks, not asserts, so python -O keeps them
    original = queuesim._run_replication

    def short_replication(*args):
        accs = original(*args)
        accs[-1].samples -= 1
        return accs

    monkeypatch.setattr(queuesim, "_run_replication", short_replication)
    one = make_instance([1], [1], [(1, 1)])
    with pytest.raises(InvariantViolation):
        simulate(one, "0.1", horizon=100)
    # one accumulator per eps value: a short count at the last one raises too
    with pytest.raises(InvariantViolation):
        heavy_traffic_check(one, ["0.2", "0.1"], horizon=100)


def test_maxweight_beats_random_feasible_splits():
    rng = random.Random(19)
    nprng = np.random.default_rng(19)
    for _ in range(25):
        inst = random_feasible_instance(rng, max_m=5, max_n=5)
        mu = [int(x) if x.denominator == 1 else float(x) for x in inst.supply]
        q = [rng.randint(0, 20) for _ in range(inst.m)]
        s = maxweight_choice(q, mu, inst.supply_adj, lambda j: nprng.random())
        weight = sum(qi * si for qi, si in zip(q, s))
        for _ in range(100):
            alt = [0.0] * inst.m
            for j in range(inst.n):
                nbrs = inst.supply_adj[j]
                cuts = [rng.random() for _ in nbrs]
                total = sum(cuts)
                for i, c in zip(nbrs, cuts):
                    alt[i - 1] += mu[j] * c / total
            # membership in the service polytope: nonneg split of each mu_j
            assert all(x >= 0 for x in alt)
            assert abs(sum(alt) - sum(mu)) < 1e-9
            alt_weight = sum(qi * xi for qi, xi in zip(q, alt))
            assert weight >= alt_weight - 1e-9


def test_arrival_model_defaults_and_guards():
    inst = make_instance([1, 3, 0], [2, 2, 0], [(1, 1), (2, 1), (2, 2), (3, 3)])
    model = make_arrival_model(inst, "0.1", None)
    assert model.levels == (2, 6, 1)
    assert tuple(l * p for l, p in zip(model.levels, model.probs)) == (
        Fraction(9, 10), Fraction(27, 10), Fraction(0))
    assert model.limit_variances == (Fraction(1), Fraction(9), Fraction(0))
    # a level at or below (1-eps)*nu leaves no mass at zero
    with pytest.raises(ValueError):
        make_arrival_model(inst, "0.1", [2, 2, 1])
    with pytest.raises(ValueError):
        make_arrival_model(inst, "0.1", [2, 6])
    with pytest.raises(ValueError):
        make_arrival_model(inst, "0.1", [2, 0, 1])
    with pytest.raises(InvalidEpsilon):
        make_arrival_model(inst, 0, None)


def test_simulate_error_taxonomy():
    one = make_instance([1], [1], [(1, 1)])
    for bad in (0, 1, "-1/10", "5/4"):
        with pytest.raises(InvalidEpsilon):
            simulate(one, bad, horizon=100)
    with pytest.raises(IsolatedServer):
        simulate(make_instance([1], [0, 1], [(1, 2)]), "0.1", horizon=100)
    with pytest.raises(Infeasible):
        simulate(
            make_instance([1, 1], [2, 0], [(1, 1), (2, 2)]), "0.1", horizon=100
        )
    with pytest.raises(ValueError):
        simulate(
            make_instance([Fraction(1, 2)], [Fraction(1, 2)], [(1, 1)]),
            "0.1",
            horizon=100,
        )
    for kwargs in (
        {"horizon": 0},
        {"horizon": 100, "warmup": 100},
        {"horizon": 100, "warmup": -1},
        {"horizon": 100, "replications": 0},
        {"horizon": 100, "seed": -3},
        # bools are not counts, though Python calls them ints
        {"horizon": True},
        {"horizon": 100, "warmup": False},
        {"horizon": 100, "replications": True},
        {"horizon": 100, "seed": False},
    ):
        with pytest.raises(ValueError):
            simulate(one, "0.1", **kwargs)
        with pytest.raises(ValueError):
            heavy_traffic_check(one, ["0.1"], **kwargs)


def test_simulate_refuses_queue_lengths_past_int64():
    one = make_instance([1], [1], [(1, 1)])
    # horizon * sum(levels) + sum(mu) must stay below 2^63
    assert simulate(one, "0.1", horizon=1, arrival_levels=[2**63 - 2]).horizon == 1
    with pytest.raises(SizeLimitExceeded):
        simulate(one, "0.1", horizon=1, arrival_levels=[2**63 - 1])
    with pytest.raises(SizeLimitExceeded):
        heavy_traffic_check(one, ["0.1"], horizon=10, arrival_levels=[10**20])
    huge = make_instance([5 * 10**18], [5 * 10**18], [(1, 1)])
    with pytest.raises(SizeLimitExceeded):
        simulate(huge, "0.1", horizon=1)


def test_dedicated_service_far_above_the_level_keeps_queues_empty():
    # 10^15 service per slot against arrivals of at most 10: q + a - s is far
    # below zero in every slot of the step loop, and every queue stays 0
    rate = 10**15
    inst = make_instance([rate], [rate], [(1, 1)])
    stats = simulate(inst, 1 - Fraction(1, rate), horizon=40_000, seed=1,
                     arrival_levels=[10])
    assert stats.queue_means == (0.0,)


def test_simulate_refuses_indices_past_the_stream_keys():
    # the key (rep << 24) | (kind << 20) | index holds 20 bits of index;
    # the refusal comes before any rate, edge or stream is looked at
    top = 1 << 20
    for m, n in ((top, 1), (1, top)):
        with pytest.raises(SizeLimitExceeded):
            simulate(ProblemInstance(m, n, 1, (), (), frozenset(), ()), "0.1", horizon=10)


def step_loops(monkeypatch):
    """Select the compiled step kernel, then the Python loop that replaces it
    where no C compiler is found; yields each loop's name."""
    for name, kernel in (("compiled", queuesim._kernel()), ("python", None)):
        monkeypatch.setattr(queuesim, "_kernel", lambda: kernel)
        yield name


def long_chain(k):
    return make_instance([1] * k, [1] * k, [(i, i) for i in range(1, k + 1)]
                         + [(i, i % k + 1) for i in range(1, k + 1)])


def assert_matches_reference(stats, inst, horizon, warmup, seed, levels=None):
    for rep in range(stats.replications):
        means, perp, norm = reference_sim(
            inst, stats.eps, horizon, warmup, seed, rep, levels
        )
        # integer queue sums are exact; the norms are summed in another order
        assert stats.rep_queue_means[rep] == tuple(means)
        assert stats.rep_perp_norm_means[rep] == pytest.approx(perp, abs=1e-9)
        assert stats.rep_norm_means[rep] == pytest.approx(norm, abs=1e-9)


def test_simulate_matches_stepwise_reference(monkeypatch):
    cases = [
        (four_pair_graph(), 700, 100, None),
        (diagonal_instance(3), 900, 0, None),
        # mixed dedicated and shared servers, non-unit rates
        (
            make_instance(
                [1, 1, 2, 2, 1],
                [2, 1, 1, 1, 2],
                [
                    (1, 2), (1, 3), (1, 5), (2, 1), (2, 4),
                    (3, 1), (3, 3), (4, 4), (4, 5), (5, 5),
                ],
            ),
            800,
            200,
            None,
        ),
        (make_instance([1], [1], [(1, 1)]), 1000, 100, [3]),
        # unit complete bipartite graph: most slots break a tie
        (make_instance([1] * 3, [1] * 3, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]),
         600, 50, None),
        (long_chain(20), 400, 40, None),
        # server 3 has rate 0 and two queues, so it never serves
        (make_instance([1, 1], [1, 1, 0], [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]),
         700, 70, None),
    ]
    for _loop in step_loops(monkeypatch):
        for inst, horizon, warmup, levels in cases:
            stats = simulate(
                inst, "0.1", horizon=horizon, warmup=warmup, seed=13,
                replications=2, arrival_levels=levels,
            )
            assert_matches_reference(stats, inst, horizon, warmup, 13, levels)


def test_simulate_crosses_chunk_boundaries(monkeypatch):
    # horizons beyond one chunk exercise the carried queue state in both step loops
    assert queuesim._CHUNK < 40_000
    for _loop in step_loops(monkeypatch):
        for inst in (diagonal_instance(2), four_pair_graph()):
            stats = simulate(inst, "0.1", horizon=40_000, warmup=4000, seed=5)
            assert_matches_reference(stats, inst, 40_000, 4000, 5)


def test_step_loops_agree_across_chunks(monkeypatch):
    # a designed pooled graph, and one where no server has two queues
    for inst in (design_flexibility([1] * 4, [1] * 4, 1).instance(), diagonal_instance(4)):
        runs = [simulate(inst, "0.05", horizon=70_000, seed=6, replications=2)
                for _loop in step_loops(monkeypatch)]
        assert runs[0] == runs[1]


def test_python_loop_block_size_does_not_change_results(monkeypatch):
    # blocks of 1, 7 or 20 queue values split a chunk at rows that do not
    # divide it; one block of the whole chunk is the loop without blocks
    inst = long_chain(20)
    expected = simulate(inst, "0.1", horizon=900, warmup=90, seed=17, replications=2)
    monkeypatch.setattr(queuesim, "_kernel", lambda: None)
    for cells in (1, 7, 20, 1 << 30):
        monkeypatch.setattr(queuesim, "_PY_BLOCK_CELLS", cells)
        assert simulate(inst, "0.1", horizon=900, warmup=90, seed=17, replications=2) == expected


def test_sweep_rows_equal_standalone_runs(monkeypatch):
    # a sweep runs its eps values side by side on shared draws; each row must
    # still be exactly the run that simulate makes at that eps alone
    cases = [
        (four_pair_graph(), ["0.1"], 1, 900, None),
        (design_flexibility([1] * 4, [1] * 4, 1).instance(), ["0.2", "0.1", "0.05"], 3,
         700, None),
        (long_chain(5), ["0.3", "0.05"], 2, queuesim._CHUNK + 1500, None),
        (make_instance([1, 1, 2], [2, 2], [(1, 1), (2, 1), (2, 2), (3, 2)]),
         ["1/4", "0.1"], 2, 2000, [3, 5, 7]),
    ]
    for _loop in step_loops(monkeypatch):
        for inst, eps, reps, horizon, levels in cases:
            report = heavy_traffic_check(inst, eps, horizon=horizon, seed=31,
                                         replications=reps, arrival_levels=levels)
            assert len(report.rows) == len(eps)
            for row in report.rows:
                assert row.stats == simulate(inst, row.eps, horizon=horizon, seed=31,
                                             replications=reps, arrival_levels=levels)


def test_a_replication_draws_once_for_every_eps(monkeypatch):
    inst = four_pair_graph()  # 4 queues; servers 2 and 4 each serve two or more
    horizon, reps = queuesim._CHUNK + 100, 2
    lib = queuesim._kernel()
    streams, fills = [], []

    def recording_stream(*key):
        streams.append((key, _stream(*key)))
        return streams[-1][1]

    def recording_rows(rows, k0, key1, first, length, out):
        fills.append((k0, list((ctypes.c_uint64 * rows).from_address(key1)), first, length))
        lib.philox_rows(rows, k0, key1, first, length, out)

    monkeypatch.setattr(queuesim, "_stream", recording_stream)
    for eps in (["0.1"], ["0.2", "0.1"], ["0.3", "0.2", "0.1"]):
        # the Python loop: one generator per stream, drawn horizon times
        monkeypatch.setattr(queuesim, "_kernel", lambda: None)
        streams.clear()
        heavy_traffic_check(inst, eps, horizon=horizon, seed=4, replications=reps)
        keys = [key for key, _ in streams]
        assert len(keys) == len(set(keys)) == reps * (4 + 2)
        # each stream was drawn exactly horizon times, whatever the number of eps
        assert [g.random() for _, g in streams] == [
            _stream(*key).random(horizon + 1)[-1] for key in keys]
        if lib is None:
            continue
        # the compiled path: per chunk one fill of the queues' streams and one
        # of the servers', whatever the number of eps; no generator is built
        monkeypatch.setattr(queuesim, "_kernel", lambda: types.SimpleNamespace(
            maxweight_steps=lib.maxweight_steps, row_sums=lib.row_sums,
            philox_rows=recording_rows))
        streams.clear()
        fills.clear()
        heavy_traffic_check(inst, eps, horizon=horizon, seed=4, replications=reps)
        assert streams == []
        assert fills == [
            (4, [(rep << 24) | (kind << 20) | i for i in index], first, length)
            for rep in range(reps)
            for first, length in ((0, queuesim._CHUNK), (queuesim._CHUNK, 100))
            for kind, index in ((1, range(4)), (2, (1, 3)))]


def philox_fill(lib, k0, key1, first, length):
    """`philox_rows`' draws first .. first + length - 1 of the streams keyed
    [k0, key1[r]], one row per stream."""
    key1 = np.array(key1, dtype=np.uint64)
    out = np.full((len(key1), length), -1.0)
    fill = lib.philox_rows
    fill.argtypes = [ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p,
                     ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    fill(len(key1), k0, key1.ctypes.data, first, length, out.ctypes.data)
    return out


def numpy_philox(k0, key1, first, length):
    """The same draws from numpy's own Philox generator, the oracle."""
    g = np.random.Generator(np.random.Philox(key=np.array([k0, key1], dtype=np.uint64)))
    g.random(first)
    return g.random(length)


def assert_philox_rows_match_numpy(lib):
    rng = random.Random(29)
    chunk = queuesim._CHUNK
    largest = (1 << 20) - 1  # the largest stream index a key holds
    k0s = [0, 5, 1 << 63, (1 << 63) + 7, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(4)]
    key1s = [[], [0], [(1 << 24) | (2 << 20) | largest, (7 << 24) | (1 << 20) | largest],
             [rng.getrandbits(64) for _ in range(3)], [(1 << 64) - 1, 1 << 63]]
    spans = [(first, length) for first in (0, 1, 2, 3, 5, chunk, 2 * chunk)
             for length in range(10)]
    spans += [(0, chunk), (chunk, chunk), (2 * chunk, chunk), (3, chunk + 1)]
    for k0 in k0s:
        for key1 in key1s:
            for first, length in spans:
                out = philox_fill(lib, k0, key1, first, length)
                assert out.shape == (len(key1), length)
                for row, k1 in zip(out, key1):
                    assert row.tolist() == numpy_philox(k0, k1, first, length).tolist()


def test_philox_rows_equal_numpy_philox():
    lib = queuesim._kernel()
    if lib is None:
        pytest.skip("no compiled kernel")
    assert_philox_rows_match_numpy(lib)


def test_philox_rows_without_int128_equal_numpy_philox(monkeypatch, tmp_path):
    # the portable 64 x 64 -> 128-bit multiply, from 32-bit halves, where the
    # compiler has no unsigned __int128
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    source = "#undef __SIZEOF_INT128__\n" + queuesim._KERNEL_SOURCE
    lib = native.load("maxweight-portable", source)
    assert lib is not None
    assert_philox_rows_match_numpy(lib)


def test_bench_sweep_graphs_agree_on_both_step_loops(monkeypatch):
    # the five graphs and horizons of the benchmark's simulator sweeps: the
    # compiled path draws with philox_rows, the Python loop with numpy
    cases = [
        (four_pair_graph(), 8000, None),
        (design_flexibility([1] * 4, [1] * 4, 1).instance(), 8000, None),
        (long_chain(20), 1500, None),
        (diagonal_instance(4), 100_000, None),
        (diagonal_instance(1), 100_000, [3]),
    ]
    for inst, horizon, levels in cases:
        runs = [heavy_traffic_check(inst, ["0.1", "0.05"], horizon=horizon, seed=2**63 + 7,
                                    replications=2, arrival_levels=levels)
                for _loop in step_loops(monkeypatch)]
        assert [r.stats for r in runs[0].rows] == [r.stats for r in runs[1].rows]


def guard_campaign():
    # rates of 3 * 10^6 on a 2 x 2 complete graph: at eps = 0.2 some chunks'
    # largest queue passes the row sums' exactness bound and others do not
    r = 3 * 10**6
    inst = make_instance([r, r], [r, r], [(1, 1), (1, 2), (2, 1), (2, 2)])
    return lambda: simulate(inst, "0.2", horizon=4 * queuesim._CHUNK, warmup=0, seed=3)


def test_row_sums_guard_falls_back_to_the_numpy_sums(monkeypatch):
    lib = queuesim._kernel()
    if lib is None:
        pytest.skip("no compiled kernel")
    run = guard_campaign()
    used = {"add": 0, "add_rows": 0}
    for name in used:
        method = getattr(queuesim._RepAccum, name)

        def counted(self, *args, name=name, method=method):
            used[name] += 1
            return method(self, *args)

        monkeypatch.setattr(queuesim._RepAccum, name, counted)
    mixed = run()
    assert used["add"] > 0 and used["add_rows"] > 0
    # the Python loop, and the kernel with every chunk summed by numpy
    monkeypatch.setattr(queuesim, "_kernel", lambda: None)
    assert run() == mixed
    numpy_sums = types.SimpleNamespace(maxweight_steps=lib.maxweight_steps,
                                       row_sums=lambda *args: 0, philox_rows=lib.philox_rows)
    monkeypatch.setattr(queuesim, "_kernel", lambda: numpy_sums)
    assert run() == mixed


def test_row_sums_equal_the_numpy_sums_up_to_the_guard():
    lib = queuesim._kernel()
    if lib is None:
        pytest.skip("no compiled kernel")
    rng = np.random.default_rng(17)
    m = 6
    pooled = [np.array(c) for c in ([0, 2, 3], [4, 5])]
    block_off = np.cumsum([0] + [len(c) for c in pooled], dtype=np.int64)
    block_cols = np.concatenate(pooled).astype(np.int64)
    top = 94906265 // m  # the largest qmax with (m * qmax)^2 < 2^53
    assert (m * top) ** 2 < 2**53 <= (m * (top + 1)) ** 2
    for qmax in (top, top + 1):
        for rows in (1, 5, 999):
            qarr = rng.integers(0, qmax + 1, size=(rows, m))
            # equal queues in a block cancel to a perp^2 of about 0
            qarr[::3, [4, 5]] = qarr[::3, [4]]
            qarr[rng.integers(rows), rng.integers(m)] = qmax
            colsum = np.empty(m, dtype=np.int64)
            norm, perp = np.empty(rows), np.empty(rows)
            exact = lib.row_sums(rows, m, qarr.ctypes.data, len(pooled),
                                 block_off.ctypes.data, block_cols.ctypes.data,
                                 colsum.ctypes.data, norm.ctypes.data, perp.ctypes.data)
            assert exact == (qmax == top)
            if exact:
                fast, oracle = (queuesim._RepAccum(m, pooled) for _ in range(2))
                fast.add_rows(colsum, norm, perp)
                oracle.add(qarr)
                assert fast.sum_q.tolist() == oracle.sum_q.tolist()
                assert (fast.sum_norm, fast.sum_perp, fast.samples) == (
                    oracle.sum_norm, oracle.sum_perp, oracle.samples)
                w = qarr.astype(np.float64)
                assert norm.tolist() == np.sqrt((w * w).sum(axis=1)).tolist()


def test_kernel_builds_wherever_cc_is_found(monkeypatch, tmp_path):
    # a build that fails silently would leave every run on the Python loop
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    queuesim._kernel.cache_clear()
    try:
        assert queuesim._kernel() is not None
        assert [p.suffix for p in (tmp_path / "procflex").iterdir()] == [".so"]
    finally:
        queuesim._kernel.cache_clear()


@pytest.mark.parametrize("failure", ["no compiler", "cache unwritable", "no writable dir"])
def test_failed_kernel_build_falls_back(failure, monkeypatch, tmp_path):
    inst = four_pair_graph()
    expected = simulate(inst, "0.1", horizon=3000, seed=8, replications=2)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    if failure == "no compiler":
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_CC", ("procflex-missing-cc",))
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    if failure == "no writable dir":
        monkeypatch.setattr(tempfile, "tempdir", str(blocker))
    queuesim._kernel.cache_clear()
    try:
        # only an unwritable cache leaves the temp dir to build in
        built = failure == "cache unwritable" and shutil.which("cc") is not None
        assert (queuesim._kernel() is not None) == built
        assert simulate(inst, "0.1", horizon=3000, seed=8, replications=2) == expected
    finally:
        queuesim._kernel.cache_clear()


def test_simulate_deterministic_and_extendable():
    inst = four_pair_graph()
    a = simulate(inst, "0.1", horizon=5000, seed=21, replications=2)
    b = simulate(inst, "0.1", horizon=5000, seed=21, replications=2)
    assert a == b
    c = simulate(inst, "0.1", horizon=5000, seed=22, replications=2)
    assert a.queue_means != c.queue_means
    # replications own disjoint streams: adding one leaves the first intact
    d = simulate(inst, "0.1", horizon=5000, seed=21, replications=1)
    assert a.rep_queue_means[0] == d.rep_queue_means[0]
    assert a.samples_per_rep == 4500 and a.warmup == 500


def test_seeds_key_their_streams_as_unsigned_64_bit_words():
    inst = four_pair_graph()
    # a list key past 2^63 went through float64, so these two ran one stream
    runs = [simulate(inst, "0.1", horizon=2000, seed=seed) for seed in (2**63, 2**63 + 1)]
    assert runs[0] != runs[1]
    assert simulate(inst, "0.1", horizon=2000, seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError, match=r"below 2\^64"):
        simulate(inst, "0.1", horizon=2000, seed=2**64)
    with pytest.raises(ValueError, match=r"below 2\^64"):
        heavy_traffic_check(inst, ["0.1"], horizon=2000, seed=2**64)


def test_single_queue_heavy_traffic_identity():
    # a in {0,3}: eps * E[q] = 1 - eps exactly, RHS = 1
    one = make_instance([1], [1], [(1, 1)])
    report = heavy_traffic_check(
        one, ["0.2", "0.1", "0.05"], horizon=2_000_000, seed=7,
        replications=3, arrival_levels=[3],
    )
    assert report.rhs == 1
    for row in report.rows:
        assert row.lhs == pytest.approx(1 - float(row.eps), abs=0.05)
    ratios = [row.ratio for row in report.rows]
    assert list(ratios) == sorted(ratios)  # climbing toward 1 as eps falls
    assert ratios[-1] == pytest.approx(0.95, abs=0.05)


def test_four_pair_rhs_and_stability():
    inst = four_pair_graph()
    report = heavy_traffic_check(inst, ["0.1"], horizon=150_000, seed=3, replications=2)
    assert report.rhs == 2
    assert report.components == ((1,), (2,), (3,), (4,))
    row = report.rows[0]
    assert all(0 < qm < 100 for qm in row.queue_means)
    assert 0.5 < row.ratio < 1.5
    with pytest.raises(ValueError):
        heavy_traffic_check(inst, [], horizon=100)


def test_heavy_traffic_rows_sorted_by_decreasing_eps():
    one = make_instance([1], [1], [(1, 1)])
    report = heavy_traffic_check(
        one, ["0.05", "0.2", "1/5"], horizon=20_000, seed=1, arrival_levels=[3]
    )
    assert [r.eps for r in report.rows] == [Fraction(1, 5), Fraction(1, 20)]


def test_ssc_ratio_zero_when_collapse_space_is_everything():
    one = make_instance([1], [1], [(1, 1)])
    assert simulate(one, "0.1", horizon=20_000, seed=2).ssc_ratio == 0.0
    # four singleton blocks span all of R^4
    assert simulate(four_pair_graph(), "0.1", horizon=20_000, seed=2).ssc_ratio == 0.0


def test_ssc_ratio_decreases_for_designed_crp():
    crp = design_flexibility([1] * 4, [1] * 4, 1).instance()
    r_coarse = simulate(crp, "0.1", horizon=300_000, seed=5, replications=3).ssc_ratio
    r_fine = simulate(crp, "0.05", horizon=300_000, seed=5, replications=3).ssc_ratio
    assert 0 < r_fine < r_coarse < 1


def test_complete_bipartite_queues_nearly_equal():
    cb = make_instance([1, 1], [1, 1], [(1, 1), (1, 2), (2, 1), (2, 2)])
    stats = simulate(cb, "0.05", horizon=200_000, seed=2, replications=2)
    assert stats.ssc_ratio < 0.2
    q1, q2 = stats.queue_means
    assert abs(q1 - q2) / max(q1, q2) < 0.05


def test_total_queue_scales_with_erp():
    diag = diagonal_instance(4)
    crp = design_flexibility([1] * 4, [1] * 4, 1).instance()
    sd = simulate(diag, "0.05", horizon=400_000, seed=11, replications=3)
    sc = simulate(crp, "0.05", horizon=400_000, seed=11, replications=3)
    factor = sum(sd.queue_means) / sum(sc.queue_means)
    assert 2 <= factor <= 8


def test_redundant_edges_do_not_shift_the_lhs(three_block_instance):
    # at eps = 0.05 the two graphs still differ by a resolvable finite-eps
    # bias (about 2%), so the common-limit claim is tested deeper in traffic
    inst = three_block_instance
    decomp = crp_decomposition(inst)
    kept = make_instance(
        inst.demand, inst.supply, sorted(inst.edges - decomp.redundant_edges)
    )
    full = heavy_traffic_check(inst, ["0.02"], horizon=700_000, seed=9, replications=3)
    trimmed = heavy_traffic_check(kept, ["0.02"], horizon=700_000, seed=9, replications=3)
    assert trimmed.rhs == full.rhs
    a, b = full.rows[0], trimmed.rows[0]
    spread = math.hypot(a.lhs_se, b.lhs_se)
    assert abs(a.lhs - b.lhs) <= 2 * spread


def test_stats_dict_is_json_friendly():
    import json

    stats = simulate(four_pair_graph(), "0.1", horizon=2000, seed=4, replications=2)
    blob = json.dumps(stats.to_dict(), sort_keys=True)
    assert json.loads(blob)["eps"] == "1/10"
    report = heavy_traffic_check(
        make_instance([1], [1], [(1, 1)]), ["0.1"], horizon=2000, seed=4
    )
    # default level is 2, so the limit variance is 2*1 - 1 = 1 and rhs = 1/2
    assert json.loads(json.dumps(report.to_dict()))["rhs"] == "1/2"


def test_block_without_demand_holds_no_queue(tmp_path, capsys):
    # supply 3 has rate 0 and only a redundant edge: a block with no demand
    inst = make_instance([1, 1], [1, 1, 0], [(1, 1), (2, 2), (1, 2), (2, 3)])
    stats = simulate(inst, "1/10", horizon=3000, seed=5)
    assert stats.components == ((1,), (2,))
    assert math.isfinite(stats.perp_norm_mean) and math.isfinite(stats.ssc_ratio)
    report = heavy_traffic_check(inst, ["1/10"], horizon=3000, seed=5)
    assert report.components == ((1,), (2,)) and report.rhs == 1
    path = tmp_path / "no_demand_block.json"
    path.write_text(json.dumps(inst.to_dict()))
    assert main(["simulate", str(path), "--eps", "0.1", "--horizon", "3000"]) == 0
    assert capsys.readouterr().out.startswith("eps,q_mean_1,q_mean_2,")
