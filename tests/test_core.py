import io
import json
import math
import random
import shutil
import tempfile
import time
import types
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import procflex as pf
from procflex import core, native
from procflex.cli import main
from procflex.core import FREE, IN, OUT, _Transport
from procflex.robustness import _alt_chains, _chain_cuts, _gap_chains

from .conftest import (
    planted_block_instance,
    random_feasible_instance,
    random_instance_with_zero_rates,
)
from . import oracles
from .oracles import (
    NotFeasiblePoint,
    _forest_components,
    check_assignment,
    hall_feasible,
    is_extreme_point,
)


def test_validate_minimal_identity():
    inst = pf.validate_instance(
        {"m": 1, "n": 1, "demand": [1], "supply": [1], "edges": [[1, 1]]}
    )
    assert inst.total == 1
    assert inst.edges == {(1, 1)}


def test_validate_unbalanced_rejected():
    with pytest.raises(pf.UnbalancedTotals):
        pf.validate_instance(
            {"m": 2, "n": 1, "demand": [1, 1], "supply": [1], "edges": []}
        )


def test_validate_negative_rate():
    with pytest.raises(pf.NegativeRate):
        pf.make_instance([-1, 2], [1], [(1, 1)])


def test_validate_edge_out_of_range():
    with pytest.raises(pf.EdgeOutOfRange):
        pf.make_instance([1], [1], [(1, 2)])


def test_validate_duplicate_edge():
    with pytest.raises(pf.DuplicateEdge):
        pf.make_instance([1], [1], [(1, 1), (1, 1)])


def test_validate_rejects_fractional_edge_index():
    with pytest.raises(ValueError):
        pf.make_instance([1, 1], [1, 1], [(1.5, 1), (2, 2)])
    with pytest.raises(ValueError):
        pf.validate_instance(
            {"m": 2, "n": 2, "demand": [1, 1], "supply": [1, 1], "edges": [[1.5, 1], [2, 2]]}
        )


def test_validate_rejects_strings_and_objects_where_lists_belong():
    good = {"m": 2, "n": 2, "demand": [1, 1], "supply": [1, 1], "edges": [[1, 1], [2, 2]]}
    for change in (
        {"demand": "11"},
        {"supply": "11"},
        {"demand": "11", "supply": "11"},
        {"demand": (1, 1)},
        {"edges": "12"},
        {"edges": {"1": 1, "2": 2}},
        {"edges": [[1, 1], "22"]},
        {"edges": [[1, 1], (2, 2)]},
        {"edges": [{"1": 1, "2": 1}, [2, 2]]},
    ):
        with pytest.raises(ValueError, match="list"):
            pf.validate_instance({**good, **change})
    assert pf.validate_instance(good).demand == (1, 1)


def test_validate_rejects_boolean_sizes():
    for key in ("m", "n"):
        doc = {"m": 1, "n": 1, "demand": [1], "supply": [1], "edges": [[1, 1]]}
        doc[key] = True
        with pytest.raises(ValueError):
            pf.validate_instance(doc)


def test_validate_three_block(three_block_instance):
    assert three_block_instance.m == 5
    assert three_block_instance.n == 5
    assert three_block_instance.total == 7


def test_rational_strings_round_trip():
    inst = pf.validate_instance(
        {
            "m": 2,
            "n": 2,
            "demand": ["3/2", "1/2"],
            "supply": [1, "1"],
            "edges": [[1, 1], [2, 2], [1, 2]],
        }
    )
    assert inst.demand == (Fraction(3, 2), Fraction(1, 2))
    again = pf.validate_instance(inst.to_dict())
    assert again == inst


def test_integer_documents_keep_fraction_rates():
    doc = {"m": 2, "n": 1, "demand": [3, 0], "supply": [3], "edges": [[2, 1], [1, 1]]}
    inst = pf.validate_instance(doc)
    assert core._int_instance(doc) == inst == pf.make_instance([3, 0], [3], [(2, 1), (1, 1)])
    assert (inst.scale, inst.demand_units, inst.sorted_edges) == (1, (3, 0), ((1, 1), (2, 1)))
    assert type(inst.demand[0]) is Fraction and type(inst.supply[0]) is Fraction
    assert inst.demand == (3, 0) and inst.supply == (3,)


def mutated_documents(rng, count):
    """All-int documents, most of them broken by one to three random
    mutations of a size, a rate, an edge entry or an edge index."""
    junk = [True, False, 1.0, 1.5, -1, 0, "1", "x", None, [], {}, [1], [1, 1, 1], 10**30]
    for _ in range(count):
        inst = (random_instance_with_zero_rates(rng, 5, 5) if rng.random() < 0.3
                else random_feasible_instance(rng, 5, 5))
        doc = {"m": inst.m, "n": inst.n, "demand": list(inst.demand_units),
               "supply": list(inst.supply_units), "edges": [list(e) for e in inst.sorted_edges]}
        rng.shuffle(doc["edges"])
        for _ in range(rng.randint(0, 3)):
            key = rng.choice(("m", "n") + ("demand", "supply") * 3 + ("edges",) * 6)
            values = doc[key]
            if not isinstance(values, list) or not values or rng.random() < 0.05:
                doc[key] = rng.choice(junk + [inst.m + 1, inst.n - 1])
                continue
            k = rng.randrange(len(values))
            action = rng.randrange(4)
            if action == 0:
                values.append(values[k])
            elif action == 1:
                del values[k]
            elif key != "edges":
                values[k] = rng.choice(junk + [rng.randint(-1, 5)] * 4)
            elif action == 2 or not isinstance(values[k], list) or not values[k]:
                values[k] = rng.choice(junk + [[rng.randint(0, inst.m + 1),
                                                rng.randint(0, inst.n + 1)]] * 4)
            else:
                values[k] = list(values[k])
                values[k][rng.randrange(len(values[k]))] = rng.choice(
                    junk + [0, inst.m + 1, inst.n + 1])
        yield doc


def outcome(doc):
    """The exception validate_instance raises, as the CLI reports it, or the
    instance's stored fields and its document."""
    try:
        inst = pf.validate_instance(doc)
    except (pf.ProcflexError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return (inst.scale, inst.demand_units, inst.supply_units, inst.edges, inst.sorted_edges,
            inst.to_dict())


def test_int_documents_read_the_same_on_the_fast_and_the_checked_path(monkeypatch):
    docs = list(mutated_documents(random.Random(2701), 3000))
    # faults one random mutation does not make: a negative rate in balanced
    # totals, a side with no vertices
    docs += [{"m": 1, "n": 2, "demand": [1], "supply": [2, -1], "edges": [[1, 1]]},
             {"m": 2, "n": 1, "demand": [-1, 2], "supply": [1], "edges": [[2, 1]]},
             {"m": 1, "n": 0, "demand": [0], "supply": [], "edges": []},
             {"m": 0, "n": 1, "demand": [], "supply": [0], "edges": []}]
    fast = [outcome(doc) for doc in docs]
    accepted = sum(core._int_instance(doc) is not None for doc in docs)
    monkeypatch.setattr(core, "_int_instance", lambda raw: None)
    assert [outcome(doc) for doc in docs] == fast
    # both sides of the fast pass are exercised, and the errors are varied
    rejected = {result[0] for result in fast if isinstance(result[0], type)}
    assert accepted >= 500 and len(fast) - accepted >= 1500
    assert {ValueError, pf.NegativeRate, pf.EdgeOutOfRange, pf.DuplicateEdge,
            pf.UnbalancedTotals} <= rejected


def test_rate_strings_read_in_one_pass_only_in_canonical_form(monkeypatch):
    # to_dict writes a scale-1 instance's rates as decimal strings, which the
    # one-pass read takes; every other spelling falls through to the checked
    # path, which reads or refuses it as it did before
    def doc(rate, supply="13"):
        return {"m": 2, "n": 1, "demand": [rate, "10"], "supply": [supply],
                "edges": [[1, 1], [2, 1]]}

    canonical = [doc("3"), doc("0", "10"), doc(str(10**40), str(10**40 + 10))]
    odd = [doc(rate) for rate in ("03", "+3", " 3", "1_0", "\u0663", "-0", "3/1", "1" * 5000)]
    assert all(core._int_instance(d) is not None for d in canonical)
    assert all(core._int_instance(d) is None for d in odd)
    inst = pf.make_instance([3, 10], [13], [(1, 1), (2, 1)])
    assert core._int_instance(inst.to_dict()) == inst
    scaled = pf.make_instance(["3/2", 1], ["5/2"], [(1, 1), (2, 1)])
    assert core._int_instance(scaled.to_dict()) is None
    fast = [outcome(d) for d in canonical + odd]
    monkeypatch.setattr(core, "_int_instance", lambda raw: None)
    assert [outcome(d) for d in canonical + odd] == fast


def test_floats_rejected():
    with pytest.raises(ValueError):
        pf.parse_rational(0.5)


@given(st.fractions() | st.integers())
@example(True)
@example("-6/4")
@example(" 0.25 ")
@settings(max_examples=300, deadline=None)
def test_format_rational_is_the_canonical_fraction_string(value):
    assert pf.format_rational(value) == str(Fraction(value))


def test_huge_decimal_exponents_rejected_before_expansion():
    # Fraction would spell each of these out in full: seconds to minutes
    start = time.perf_counter()
    for text in ("1e10000000", "1e-10000000", "2.5E+1_000_000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent above 1000"):
            pf.parse_rational(text)
    assert time.perf_counter() - start < 0.5
    assert pf.parse_rational("1e1000") == 10**1000
    assert pf.parse_rational(" 5e-0003 ") == Fraction(1, 200)


def test_is_feasible_trivial_cases(three_block_instance):
    assert pf.is_feasible(pf.make_instance([1], [1], [(1, 1)]))
    assert not pf.is_feasible(pf.make_instance([1, 1], [2], [(1, 1)]))
    assert pf.is_feasible(three_block_instance)


def test_find_feasible_point_unique_tree():
    inst = pf.make_instance([2, 1], [2, 1], [(1, 1), (1, 2), (2, 1)])
    x = pf.find_feasible_point(inst)
    check_assignment(inst, x)
    # the tree support forces the unique point
    assert dict(x.entries) == {(1, 1): 1, (1, 2): 1, (2, 1): 1}
    verts = oracles.enumerate_vertices(inst)
    assert len(verts) == 1


def test_find_feasible_point_infeasible():
    with pytest.raises(pf.Infeasible):
        pf.find_feasible_point(pf.make_instance([1, 1], [2], [(1, 1)]))


def test_find_feasible_point_seeds(three_block_instance):
    for seed in range(4):
        x = pf.find_feasible_point(three_block_instance, order_seed=seed)
        check_assignment(three_block_instance, x)


def test_greedy_extreme_point_single_pair():
    x = pf.greedy_extreme_point([1], [1])
    assert dict(x.entries) == {(1, 1): 1}


def test_greedy_extreme_point_tie_splits_components():
    x = pf.greedy_extreme_point([2, 1], [2, 1])
    assert dict(x.entries) == {(1, 1): 2, (2, 2): 1}
    assert _forest_components(2, 2, x.support()) == 2


def test_greedy_extreme_point_unbalanced():
    with pytest.raises(pf.UnbalancedTotals):
        pf.greedy_extreme_point([2], [1])


def test_is_extreme_point_examples():
    inst = pf.make_instance(
        [2, 1], [2, 1], [(1, 1), (1, 2), (2, 1), (2, 2)]
    )
    forest = pf.Assignment(2, 2, {(1, 1): Fraction(2), (2, 2): Fraction(1)})
    assert is_extreme_point(inst, forest)
    cycle = pf.Assignment(
        2,
        2,
        {
            (1, 1): Fraction(3, 2),
            (1, 2): Fraction(1, 2),
            (2, 1): Fraction(1, 2),
            (2, 2): Fraction(1, 2),
        },
    )
    assert not is_extreme_point(inst, cycle)
    one = pf.make_instance([1], [1], [(1, 1)])
    assert is_extreme_point(one, pf.Assignment(1, 1, {(1, 1): Fraction(1)}))


def test_is_extreme_point_rejects_bad_sums():
    inst = pf.make_instance([2, 1], [2, 1], [(1, 1), (2, 2)])
    with pytest.raises(NotFeasiblePoint):
        is_extreme_point(inst, pf.Assignment(2, 2, {(1, 1): Fraction(1)}))


def test_make_instance_refuses_an_empty_side():
    # such an instance would make crp_decomposition, simulate and
    # heavy_traffic_check fail with a bare "max() arg is an empty sequence"
    for demand, supply in (([], []), ([0], []), ([], [0, 0])):
        with pytest.raises(ValueError, match="^an instance needs at least one demand and one"):
            pf.make_instance(demand, supply, [])


def _rational_gcd(values):
    """Euclid's algorithm on the Fractions themselves."""
    g = Fraction(0)
    for v in values:
        while v:
            g, v = v, g % v
    return g


def test_rate_units_are_the_rates_over_one_scale():
    rng = random.Random(1801)
    cases = [pf.make_instance([0, Fraction(1, 2), Fraction(1, 3)], [Fraction(5, 6), 0],
                              [(2, 1), (3, 1)])]
    for _ in range(40):
        cases.append(random_feasible_instance(rng))
        cases.append(random_feasible_instance(rng, denominators=(2, 3, 5, 7)))
        cases.append(random_instance_with_zero_rates(rng))
    mixed = zeros = 0
    for inst in cases:
        rates = inst.demand + inst.supply
        assert inst.scale == math.lcm(*(v.denominator for v in rates))
        units = inst.demand_units + inst.supply_units
        assert all(type(u) is int for u in units)
        assert [Fraction(u, inst.scale) for u in units] == list(rates)
        assert inst.total == sum(inst.demand, Fraction(0)) == sum(inst.supply, Fraction(0))
        assert inst.total_units == sum(inst.demand_units) == sum(inst.supply_units)
        mixed += len({v.denominator for v in rates}) > 2
        if all(v > 0 for v in rates):
            g = _rational_gcd(rates)
            assert pf.d_star(inst.demand, inst.supply) == max(1, len(rates) - inst.total / g)
        else:
            zeros += 1
            first = next(v for v in rates if v <= 0)
            with pytest.raises(pf.ZeroVector, match=f"^rates must be strictly positive, got {first}$"):
                pf.d_star(inst.demand, inst.supply)
    assert mixed >= 10 and zeros >= 30


def test_unbalanced_totals_messages():
    for demand, supply, message in (
        ([2, 1], [2], "total demand 3 != total supply 2"),
        ([Fraction(1, 2), Fraction(1, 3)], ["1/4"], "total demand 5/6 != total supply 1/4"),
        ([], [Fraction(1, 6)], "total demand 0 != total supply 1/6"),
    ):
        with pytest.raises(pf.UnbalancedTotals) as err:
            pf.make_instance(demand, supply, [])
        assert str(err.value) == message
        for fn in (pf.d_star, pf.max_balanced_cover):
            with pytest.raises(pf.UnbalancedTotals, match="^demand and supply totals differ$"):
                fn(demand, supply)
        with pytest.raises(pf.UnbalancedTotals, match="^greedy extreme point needs balanced totals$"):
            pf.greedy_extreme_point(demand, supply)


def test_feasibility_matches_hall_oracle_bulk():
    rng = random.Random(1405)
    checked = 0
    while checked < 220:
        base = random_feasible_instance(rng, max_m=5, max_n=5)
        # random sub-edge-set; may or may not stay feasible
        keep = [e for e in base.sorted_edges if rng.random() < 0.8]
        inst = pf.make_instance(base.demand, base.supply, keep)
        fast = pf.is_feasible(inst)
        assert fast == hall_feasible(inst)
        assert fast == (oracles.hall_violated_subset(inst) is None)
        checked += 1


@given(st.integers(min_value=0, max_value=10**6), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_greedy_extreme_point_forest_and_divisibility(seed, m, n):
    rng = random.Random(seed)
    nu = [rng.randint(1, 6) for _ in range(m)]
    total = sum(nu)
    mu = []
    rest = total
    for j in range(n - 1):
        v = rng.randint(0, rest)
        mu.append(v)
        rest -= v
    mu.append(rest)
    if any(v == 0 for v in mu):
        mu = [v + 1 for v in mu]
        nu[0] += n
    x = pf.greedy_extreme_point(nu, mu)
    assert _forest_components(m, n, x.support()) is not None
    assert len(x.support()) <= m + n - 1
    gcd = _rational_gcd(map(Fraction, nu + mu))
    for v in x.entries.values():
        assert v % gcd == 0
    assert oracles.margins(x) == (tuple(map(Fraction, nu)), tuple(map(Fraction, mu)))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_feasibility_invariant_under_scaling(seed):
    rng = random.Random(seed)
    inst = random_feasible_instance(rng, max_m=4, max_n=4)
    scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    scaled = pf.make_instance(
        [v * scale for v in inst.demand],
        [v * scale for v in inst.supply],
        inst.sorted_edges,
    )
    assert pf.is_feasible(inst) == pf.is_feasible(scaled)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_feasible_point_matches_vertex_hull(seed):
    rng = random.Random(seed)
    inst = random_feasible_instance(rng, max_m=3, max_n=3)
    x = pf.find_feasible_point(inst)
    check_assignment(inst, x)
    verts = oracles.enumerate_vertices(inst)
    assert verts, "feasible instance must have vertices"
    support_union = set()
    for v in verts:
        support_union.update(v.support())
    assert x.support() <= support_union


# ---------------------------------------------------------------------------
# The compiled Dinic loop against the Python loop it replaces


def flow_loops(monkeypatch):
    """Select the compiled flow library (Dinic's loop and Tarjan's pass), then
    the Python loops that replace it where no C compiler is found; yields each
    path's name."""
    if shutil.which("cc") is not None:
        assert core._dinic() is not None
    for name, lib in (("compiled", core._dinic()), ("python", None)):
        monkeypatch.setattr(core, "_dinic", lambda: lib)
        yield name


def solves(inst, order_seed, forcings):
    """Flow value, residuals and residual SCC labels after the first solve and
    after each forcing."""
    net = _Transport(inst, order_seed=order_seed)
    out = [(net.max_flow(), list(net.res), net.scc_labels())]
    for i, mode in forcings:
        net.force(i, mode)
        out.append((net.max_flow(), list(net.res), net.scc_labels()))
    return out


def test_flow_loops_leave_identical_residuals(monkeypatch):
    rng = random.Random(1606)
    insts = [planted_block_instance(rng, m)[0] for m in (6, 20, 45, 120) for _ in range(3)]
    insts += [random_feasible_instance(rng, 7, 7, 4, denominators=(1, 2, 3, 5))
              for _ in range(10)]
    insts += [random_instance_with_zero_rates(rng, 6, 6, 4) for _ in range(10)]
    # graphs that cannot route every demand
    insts += [pf.make_instance(inst.demand, inst.supply,
                               [e for e in inst.sorted_edges if rng.random() < 0.7])
              for inst in insts[-20:]]
    assert not all(pf.is_feasible(inst) for inst in insts)
    cases = [
        (inst, seed, [(rng.randint(1, inst.m), rng.choice((FREE, IN, OUT)))
                      for _ in range(rng.randint(0, 8))])
        for inst in insts for seed in range(4)
    ]
    runs = [[solves(*case) for case in cases] for _loop in flow_loops(monkeypatch)]
    assert runs[0] == runs[1]


def test_flow_loops_lay_out_identical_networks(monkeypatch):
    rng = random.Random(2801)
    insts = [planted_block_instance(rng, m)[0] for m in (6, 20, 45)]
    insts += [random_feasible_instance(rng, 7, 7, 4, denominators=(1, 2, 3, 5))
              for _ in range(4)]
    insts += [random_instance_with_zero_rates(rng, 6, 6, 4) for _ in range(4)]
    insts += [pf.make_instance(inst.demand, inst.supply, list(inst.sorted_edges)[1:])
              for inst in insts[-8:]]
    insts += [pf.make_instance([1, 2], [3], []), pf.make_instance([0], [0, 0, 0], [])]
    insts += [random_feasible_instance(rng, 3, 9) for _ in range(4)]
    assert not all(pf.is_feasible(inst) for inst in insts)
    assert any(inst.m != inst.n for inst in insts)
    runs = []
    for _loop in flow_loops(monkeypatch):
        layouts = []
        for inst in insts:
            for seed in range(4):
                net = _Transport(inst, order_seed=seed)
                layout = [list(net.start), list(net.arcs), list(net.arc_to), list(net.res)]
                units = inst.demand_units + inst.supply_units
                oracle = core._arc_layout(inst.m, inst.n, net.edges, units, net.inf)
                assert layout == list(oracle)
                layouts.append(layout)
        runs.append(layouts)
    assert runs[0] == runs[1]


def test_gap_lays_out_each_network_once(monkeypatch, tmp_path):
    # every sink arc a forcing needs is laid out with the network, so
    # force(i, OUT) only sets capacities
    rng = random.Random(2802)
    path = tmp_path / "pooled.json"
    path.write_text(json.dumps(planted_block_instance(rng, 12, max_block=4)[0].to_dict()))
    layouts, forced_out = [], []
    arc_layout, force = core._arc_layout, _Transport.force
    monkeypatch.setattr(core, "_arc_layout", lambda *a: layouts.append(1) or arc_layout(*a))
    monkeypatch.setattr(_Transport, "force", lambda net, i, mode: forced_out.append(mode == OUT)
                        or force(net, i, mode))
    for _loop in flow_loops(monkeypatch):
        lib = core._dinic()
        if lib is not None:
            counting = types.SimpleNamespace(build=lambda *a: layouts.append(1) or lib.build(*a),
                                             dinic=lib.dinic, tarjan=lib.tarjan)
            monkeypatch.setattr(core, "_dinic", lambda: counting)
        layouts.clear()
        forced_out.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["gap", str(path)]) == 0
        assert layouts == [1] and sum(forced_out) >= 5


def test_warm_resolve_of_a_maximum_flow_pushes_nothing_in_place(monkeypatch):
    rng = random.Random(2803)
    insts = [planted_block_instance(rng, m)[0] for m in (10, 40)]
    for _loop in flow_loops(monkeypatch):
        for inst in insts:
            net = core._feasible_network(inst)
            res, before = net.res, list(net.res)
            assert net.max_flow() == inst.total_units
            assert net.res is res and list(res) == before
            net.force(1, OUT)
            net.max_flow()
            res, before, flow = net.res, list(net.res), net.flow
            assert net.max_flow() == flow
            assert net.res is res and list(res) == before


def test_flow_loops_agree_on_warm_started_constrained_cuts(monkeypatch):
    rng = random.Random(1607)
    insts = [planted_block_instance(rng, m, max_block=4)[0] for m in (8, 12, 30) for _ in range(4)]

    def cuts():
        out = []
        for inst in insts:
            net = core._feasible_network(inst)
            dec = pf.crp_decomposition(inst)
            chains = list(_gap_chains(dec)) + list(_alt_chains(dec))
            out += [(value, net.flow, list(net.res), net.cut_demands())
                    for value in _chain_cuts(net, chains)]
        return out

    runs = [cuts() for _loop in flow_loops(monkeypatch)]
    assert runs[0] == runs[1]
    assert len(runs[0]) >= 100


def constrained_minimizers(inst, modes):
    """Brute force over the demand sets C that hold every IN demand and no OUT
    demand: the minimum of f(C) = mu(N(C)) - nu(C) in rate units, and the
    union of the sets that attain it."""
    best, union = None, set()
    for bits in range(1 << inst.m):
        c = {i for i in range(1, inst.m + 1) if bits >> (i - 1) & 1}
        if any((mode == IN) != (i in c) for i, mode in enumerate(modes, 1) if mode != FREE):
            continue
        reached = {j for i in c for j in inst.demand_adj[i - 1]}
        f = (sum(inst.supply_units[j - 1] for j in reached)
             - sum(inst.demand_units[i - 1] for i in c))
        if best is None or f < best:
            best, union = f, set()
        if f == best:
            union |= c
    return best, sorted(union)


def test_cut_demands_are_the_union_of_the_constrained_minimizers(monkeypatch):
    rng = random.Random(1609)
    insts = [random_feasible_instance(rng, 6, 6) for _ in range(12)]
    insts += [random_feasible_instance(rng, 6, 6, 4, denominators=(1, 2, 3, 5))
              for _ in range(12)]
    insts += [random_instance_with_zero_rates(rng, 4, 4) for _ in range(12)]
    # every step sets every demand's mode on one network; the first forces none
    cases = []
    for inst in insts:
        steps = [[rng.choice((FREE, FREE, IN, OUT)) for _ in range(inst.m)] for _ in range(4)]
        cases.append((inst, [[FREE] * inst.m] + steps))
    assert max(inst.m for inst in insts) <= 6 and max(inst.n for inst in insts) <= 6
    for _loop in flow_loops(monkeypatch):
        proper = 0
        for inst, steps in cases:
            net = _Transport(inst)
            for modes in steps:
                for i, mode in enumerate(modes, 1):
                    net.force(i, mode)
                least, union = constrained_minimizers(inst, modes)
                assert net.max_flow() - inst.total_units == least
                assert net.cut_demands() == union
                proper += 0 < len(union) < inst.m
        assert proper >= 20


def test_flow_past_int64_runs_the_python_loop(monkeypatch):
    # rates 1/p for the primes to 53: scale x total is about 2^65
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    rates = [Fraction(1, p) for p in primes]
    edges = ([(i, i) for i in range(1, 17)] + [(i, i % 6 + 1) for i in range(1, 7)]
             + [(i, i + 1) for i in range(6, 16)])
    inst = pf.make_instance(rates, rates, edges)
    assert _Transport(inst).inf > 2**63 - 1
    monkeypatch.setattr(core, "_dinic", lambda: pytest.fail("the C loop cannot hold inf"))
    dec = pf.crp_decomposition(inst)
    # one block on the 6-cycle, ten singletons along the chain
    assert dec.demand_labels == (1,) * 6 + tuple(range(2, 12))
    assert dec.supply_labels == dec.demand_labels
    assert dec.redundant_edges == {(i, i + 1) for i in range(6, 16)}
    assert sorted(dec.dag.edges) == [(b, b + 1) for b in range(1, 11)]
    assert dict(pf.find_feasible_point(inst).entries) == {(i, i): r for i, r in enumerate(rates, 1)}


def test_flow_loop_choice_at_the_int64_boundary(monkeypatch):
    # inf = 2 x total + 1 is 2^63 - 1 at the first total and 2^63 + 1 at the second
    called = []
    dinic = core._dinic()
    monkeypatch.setattr(core, "_dinic", lambda: called.append(1) or dinic)
    for total, native_loop in ((2**62 - 1, True), (2**62, False)):
        called.clear()
        inst = pf.make_instance([total - 1, 1], [1, total - 1], [(1, 1), (1, 2), (2, 2)])
        net = _Transport(inst)
        assert net.max_flow() == total
        assert net.res[net.edge_arc[(1, 1)] ^ 1] == 1
        assert bool(called) == native_loop


def envelopes(paths):
    """Each verb's envelope on the instance files, then the residual SCC
    labels of each instance's network after its first solve and after
    forcing its first demand out."""
    argvs = [["validate", paths[0]], ["augment", "--best", paths[0]],
             ["augment", "--edge", "1,4", paths[1]], ["gap", paths[1]]]
    argvs += [["decompose", path, "--seed", str(seed)] for path in paths for seed in range(4)]
    out = []
    for argv in argvs:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        out.append((code, buf.getvalue()))
    for path in paths:
        with open(path) as fh:
            net = core._feasible_network(pf.validate_instance(json.load(fh)))
        out.append(net.scc_labels())
        net.force(1, OUT)
        net.max_flow()
        out.append(net.scc_labels())
    return out


@pytest.mark.parametrize("failure", ["no compiler", "cache unwritable", "no writable dir"])
def test_failed_dinic_build_falls_back(failure, monkeypatch, tmp_path):
    rng = random.Random(1608)
    paths = []
    for m in (40, 12):
        path = tmp_path / f"pooled{m}.json"
        path.write_text(json.dumps(planted_block_instance(rng, m)[0].to_dict()))
        paths.append(str(path))
    expected = envelopes(paths)
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    if failure == "no compiler":
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_CC", ("procflex-missing-cc",))
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    if failure == "no writable dir":
        monkeypatch.setattr(tempfile, "tempdir", str(blocker))
    core._dinic.cache_clear()
    try:
        # only an unwritable cache leaves the temp dir to build in
        built = failure == "cache unwritable" and shutil.which("cc") is not None
        assert (core._dinic() is not None) == built
        assert envelopes(paths) == expected
    finally:
        core._dinic.cache_clear()
