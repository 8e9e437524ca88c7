"""Seeded request corpora for the benchmark workloads and the checks that
judge their outputs.

A corpus is one cycle of requests; the timed phase repeats the cycle in a
closed loop.  Every instance reaches the program as a JSON document on disk,
exactly as a CLI user would pass it.  Checks run after the timed phase and
use only public API plus the test references in ``tests/``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from procflex import (
    crp_decomposition,
    design_flexibility,
    make_instance,
    max_balanced_cover,
    min_edges,
    plan_schedule,
    validate_instance,
)
from tests import oracles
from tests.test_queuesim import reference_sim

# simulator sweeps: eps values and replications of every sweep
SIM_EPS = "0.1,0.05"
SIM_REPS = 2
# sweep outputs are compared with reference_sim over this many steps: the
# timed output itself when its horizon is no longer, else a replay of the same
# sweep.  It exceeds queuesim's chunk of 32768 steps, so on the dedicated path
# (horizon 100_000) the queue state carried across a chunk boundary is
# checked.  The general-path sweeps fit in one chunk and are checked whole.
SIM_CHECK_HORIZON = 40_000

# oracle size caps: the references are exhaustive and exponential
# (gap_by_definition enumerates vertices over every edge subset)
GAP_ORACLE_MAX_EDGES = 16
COVER_ORACLE_MAX = 11
PLAN_ORACLE_MAX_ABSENT = 12


@dataclass
class Request:
    """One closed-loop request: CLI argv, or a library call for the one
    report without a verb (``greedy_vs_optimal_report``)."""

    kind: str
    argv: list | None = None
    inst: object = None
    options: dict = field(default_factory=dict)
    # sweeps only: which simulator path the graph takes, and steps simulated
    path: str | None = None
    steps: int = 0


# ---------------------------------------------------------------------------
# instance generators


def pooled_instance(rng: random.Random, m: int, degree: float = 3.0, max_block: int = 10):
    """An m x m instance: a diagonal plus random extra edges, with rates read
    off a random positive integer flow on a subset of the edges.

    Vertices are cut into blocks.  Inside a block the flow runs on the
    diagonal and on the path edges (i, i+1), so the block pools.  Extra edges
    stay inside a block or run forward from an earlier block to a later one.
    A forward edge can never carry flow, so it is redundant and the blocks
    stay apart.  Demands and supplies share one random relabelling, which
    keeps the diagonal.  Returns the instance document.
    """
    block_of = []
    while len(block_of) < m:
        size = min(rng.randint(1, max_block), m - len(block_of))
        label = len(set(block_of))
        block_of.extend([label] * size)
    flow = {}
    for i in range(m):
        flow[(i, i)] = rng.randint(1, 5)
        if i + 1 < m and block_of[i + 1] == block_of[i]:
            flow[(i, i + 1)] = rng.randint(1, 5)
    edges = set(flow)
    target = min(round(degree * m), m * m)
    while len(edges) < target:
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
    return {
        "m": m,
        "n": m,
        "demand": demand,
        "supply": supply,
        "edges": sorted([relabel[i], relabel[j]] for i, j in edges),
    }


def long_chain(k: int) -> dict:
    """Jordan & Graves (1995) long chain: unit rates, edges (i, i), (i, i+1 mod k)."""
    edges = [[i, i] for i in range(1, k + 1)] + [[i, i % k + 1] for i in range(1, k + 1)]
    return {"m": k, "n": k, "demand": [1] * k, "supply": [1] * k, "edges": sorted(edges)}


def diagonal(k: int) -> dict:
    return {"m": k, "n": k, "demand": [1] * k, "supply": [1] * k,
            "edges": [[i, i] for i in range(1, k + 1)]}


def gap_by_scan(inst, redundant) -> tuple:
    """(crp gap, argmin subset, alternative gap) by the subset definition of
    ``tests/oracles.gap_by_definition``: plain set arithmetic over every
    nonempty demand subset.  The redundant edges are passed in, because the
    oracle's vertex enumeration is out of reach beyond 16 edges.  Ties break
    toward the lexicographically smallest subset, as in ``crp_gap``."""
    kept = [e for e in inst.sorted_edges if e not in redundant]
    best = alt_best = None
    for r in range(1, inst.m + 1):
        for C in itertools.combinations(range(1, inst.m + 1), r):
            cset = set(C)
            full_n = {j for (i, j) in inst.sorted_edges if i in cset}
            kept_n = {j for (i, j) in kept if i in cset}
            demand = sum(inst.demand[i - 1] for i in C)
            surplus = sum(inst.supply[j - 1] for j in full_n) - demand
            kept_surplus = sum(inst.supply[j - 1] for j in kept_n) - demand
            if kept_surplus > 0 and (best is None or (surplus, C) < best):
                best = (surplus, C)
            if surplus > 0 and (alt_best is None or surplus < alt_best):
                alt_best = surplus
    if best is None:
        return None, None, alt_best
    return best[0], list(best[1]), alt_best


# ---------------------------------------------------------------------------
# corpora


class Corpus:
    """Writes instance documents under ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, doc) -> str:
        self.count += 1
        path = self.workdir / f"doc{self.count:04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


# m = n from 30 to 110.  A pooled instance's solve time varies by up to 1.8x
# from one random draw to the next at the same m, and the four requests on an
# instance cost about the same.  So each percentile is placed inside a group
# of like instances: the median among eight m = 40 instances and p90 in the
# middle of the four m = 110 instances.  A cycle takes about 3.8 s, so a 30 s
# run repeats each request about eight times.
STRUCTURE_SIZES = (30, 40, 40, 40, 40, 40, 40, 40, 40, 50, 110, 110, 110, 110)


def structure_corpus(rng: random.Random, corpus: Corpus) -> list[Request]:
    """validate, decompose, augment --best and augment --edge on each pooled
    instance, plus the 20-chain (one block, so no --best there)."""
    chain = long_chain(20)
    reqs = []
    for doc in [pooled_instance(rng, m) for m in STRUCTURE_SIZES] + [chain]:
        path = corpus.write(doc)
        inst = validate_instance(doc)
        absent = [(i, j) for i in range(1, inst.m + 1) for j in range(1, inst.n + 1)
                  if (i, j) not in inst.edges]
        edge = rng.choice(absent)
        reqs.append(Request("validate", ["validate", path], inst))
        reqs.append(Request("decompose", ["decompose", path], inst,
                            {"order_seed": rng.randint(1, 1000)}))
        if doc is not chain:
            reqs.append(Request("augment_best", ["augment", path, "--best"], inst))
        reqs.append(Request("augment_edge",
                            ["augment", path, "--edge", f"{edge[0]},{edge[1]}"],
                            inst, {"edge": edge}))
    return reqs


# A cycle of search requests falls into three cost groups, so that each
# percentile lands inside a group whose cost does not depend on the seed:
#   19 cheap requests: five small plans, the m = 7 gap scan, one exhaustive
#      greedy-vs-optimal report on a 3x3 graph and the 12 design requests;
#    5 middle requests of about 1.5x the cheap group's top, all on fixed
#      inputs: greedy-vs-optimal on the 10- and 11-diagonal and three plans
#      with the final objective at K = 45;
#   19 heavy requests: the other greedy-vs-optimal reports, two plans and the
#      gap scans from m = 10 up.
# The median of the 43 requests is then the middle one of the middle group,
# and the 90th percentile falls between the two cheapest of the five m = 12
# gap scans.  The m = 12 and 13 scans keep max flow near 5% of the gap
# requests' time.
GAP_SIZES = (7, 10, 11, 12, 12, 12, 12, 12, 13)
# Design rates: fixed multisets, shuffled by the seed, each with largest
# achievable block count 4.  The cover search's cost depends on the rates;
# rates drawn at random made it vary from 16 to 46 ms at m + n = 11, enough
# to move the median by 0.18 (IQR/median) across seeds on its own.
DESIGN_RATES = (([1, 1, 2, 3, 6], [1, 1, 3, 3, 5]),
                ([1, 2, 2, 5, 6], [2, 2, 3, 3, 6]),
                ([1, 1, 1, 2, 3, 3], [1, 1, 3, 6]))
PLAN_SIZES = ((3, 2, "sum"), (3, 3, "final"), (3, 2, "tables"),
              (12, 10, "sum"), (25, 30, "final"),
              (60, 45, "final"), (58, 45, "final"), (55, 45, "final"),
              (60, 60, "sum"), (30, 40, "tables"))
# diagonals are fixed graphs, so these requests cost the same for every seed
GVO_DIAGONALS = ((10, 3), (11, 3), (12, 3), (14, 3), (15, 4), (16, 4), (18, 4), (20, 4),
                 (25, 4))
GVO_EXHAUSTIVE = ((3, 2), (4, 2), (4, 2))


def _tables(rng: random.Random, eta: int, K: int) -> list[list[str]]:
    """K non-decreasing rows of eta rational costs."""
    rows = []
    for _ in range(K):
        vals = sorted(Fraction(rng.randint(0, 4 * eta), rng.randint(1, 3)) for _ in range(eta))
        rows.append([str(v) for v in vals])
    return rows


def search_corpus(rng: random.Random, corpus: Corpus) -> list[Request]:
    """Small instances for the exponential scans, the planning DP and the
    greedy-versus-optimal report."""
    reqs = []
    for m in GAP_SIZES:
        while True:
            doc = pooled_instance(rng, m, degree=2.0, max_block=5)
            inst = validate_instance(doc)
            order_seed = rng.randint(1, 1000)
            redundant = crp_decomposition(inst, order_seed=order_seed).redundant_edges
            expected = gap_by_scan(inst, redundant)
            # the gap is defined when some demand subset qualifies
            if expected[0] is not None:
                break
        a, b = rng.sample(range(1, m + 1), 2)
        shift = Fraction(1, rng.randint(10, 40))
        omega = ["0"] * m
        omega[a - 1], omega[b - 1] = str(shift), str(-shift)
        perturb = corpus.write({"omega": omega})
        reqs.append(Request("gap", ["gap", corpus.write(doc), "--perturb", perturb], inst,
                            {"order_seed": order_seed, "expected": expected}))
    assert any(len(r.inst.edges) <= GAP_ORACLE_MAX_EDGES for r in reqs), \
        "no gap request is small enough for the vertex-enumeration oracle"
    for demand, supply in DESIGN_RATES:
        demand, supply = rng.sample(demand, len(demand)), rng.sample(supply, len(supply))
        m, n = len(demand), len(supply)
        dss = max_balanced_cover(demand, supply).cardinality
        path = corpus.write({"m": m, "n": n, "demand": demand, "supply": supply, "edges": []})
        for d in range(1, dss + 1):
            reqs.append(Request("design", ["design", path, "--erp", str(d)], None,
                                {"demand": demand, "supply": supply, "d": d, "dss": dss}))
    for eta, K, objective in PLAN_SIZES:
        spec = objective
        if objective == "tables":
            spec = "file:" + corpus.write(_tables(rng, eta, K))
        reqs.append(Request("plan", ["plan", "--eta", str(eta), "--budget", str(K),
                                     "--objective", spec],
                            None, {"eta": eta, "K": K, "objective": objective, "spec": spec}))
    for k, K in GVO_DIAGONALS:
        reqs.append(Request("greedy_vs_optimal", None, validate_instance(diagonal(k)),
                            {"K": K, "objective": "sum"}))
    for m, K in GVO_EXHAUSTIVE:
        while True:
            inst = validate_instance(pooled_instance(rng, m, degree=1.7, max_block=2))
            absent = m * m - len(inst.edges)
            if crp_decomposition(inst).redundant_edges and absent >= K:
                break
        reqs.append(Request("greedy_vs_optimal", None, inst, {"K": K, "objective": "sum"}))
    return reqs


FOUR_PAIR = {"m": 4, "n": 4, "demand": [1] * 4, "supply": [1] * 4,
             "edges": [[1, 1], [1, 2], [1, 4], [2, 2], [3, 3], [3, 4], [4, 4]]}

# (name, document builder, path the simulator takes, horizon, arrival levels)
SIM_GRAPHS = (
    ("four_pair", lambda: FOUR_PAIR, "general", 8000, None),
    ("designed_4x4", lambda: design_flexibility([1] * 4, [1] * 4, 1).instance().to_dict(),
     "general", 8000, None),
    ("chain_20", lambda: long_chain(20), "general", 1500, None),
    ("diagonal_4", lambda: diagonal(4), "dedicated", 100_000, None),
    ("single_queue", lambda: diagonal(1), "dedicated", 100_000, [3]),
)


# Graphs each workload sweeps after every cycle.  search carries the whole
# set, on both sides of the simulator's path choice; structure carries one
# graph per path, so that its run keeps its time for the max-flow requests.
SWEEPS = {
    "structure": ("four_pair", "diagonal_4"),
    "search": tuple(g[0] for g in SIM_GRAPHS),
}


def simulate_requests(rng: random.Random, corpus: Corpus, workload: str) -> list[Request]:
    """Heavy-traffic sweeps at two eps values with two replications."""
    n_eps = len(SIM_EPS.split(","))
    reqs = []
    for name, build, path_kind, horizon, levels in SIM_GRAPHS:
        if name not in SWEEPS[workload]:
            continue
        doc = build()
        seed = rng.randint(0, 2**31 - 1)
        argv = ["simulate", corpus.write(doc), "--eps", SIM_EPS, "--horizon", str(horizon),
                "--reps", str(SIM_REPS), "--seed", str(seed), "--format", "json"]
        if levels:
            argv += ["--levels", ",".join(map(str, levels))]
        reqs.append(Request("simulate", argv, validate_instance(doc),
                            {"graph": name, "seed": seed, "levels": levels},
                            path=path_kind, steps=horizon * SIM_REPS * n_eps))
    return reqs


CORPORA = {
    "structure": structure_corpus,
    "search": search_corpus,
}


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages for one request's output


def _envelope_result(out: str):
    return json.loads(out)["result"]


def _check_structure(req: Request, out: str) -> list[str]:
    inst = req.inst
    res = _envelope_result(out)
    if req.kind == "validate":
        return [] if res["feasible"] is True else ["generated instance reported infeasible"]
    if req.kind == "decompose":
        errs = [f"block {k} unbalanced" for k, c in enumerate(res["components"])
                if Fraction(c["demand_total"]) != Fraction(c["supply_total"])]
        other = crp_decomposition(inst, order_seed=req.options["order_seed"]).to_dict()
        for key in ("erp_number", "redundant_edges", "components"):
            got = res[key]
            if key == "components":
                got = [{k: c[k] for k in ("demands", "supplies", "edges")} for c in got]
            if got != other[key]:
                errs.append(f"{key} differs from the decomposition at order_seed "
                            f"{req.options['order_seed']}")
        return errs
    edge = tuple(res["edge"])
    if edge in inst.edges:
        return [f"augment proposed existing edge {edge}"]
    actual = crp_decomposition(inst.with_edge(edge)).erp_number
    if req.kind == "augment_edge" and edge != tuple(req.options["edge"]):
        return ["augment reported another edge than requested"]
    if res["new_erp"] != actual:
        return [f"augment predicted {res['new_erp']} blocks after {edge}, recomputation {actual}"]
    return []


def _objective_callables(kind: str, K: int, spec: str):
    if kind == "sum":
        return [lambda v: v] * K
    if kind == "final":
        return [lambda v: 0] * (K - 1) + [lambda v: v]
    rows = json.loads(Path(spec[5:]).read_text(encoding="utf-8"))
    return [lambda v, row=row: Fraction(row[v - 1]) for row in rows]


def _shown(value) -> str:
    """A gap as the gap envelope prints it."""
    return "undefined" if value is None else str(value)


def _check_search(req: Request, out: str) -> list[str]:
    if req.kind == "gap":
        res = _envelope_result(out)
        inst = req.inst
        errs = []
        # the subset scan ran when the corpus was built
        gap, argmin, alt = req.options["expected"]
        if (_shown(gap), argmin, _shown(alt)) != (res["crp_gap"], res["argmin_set"],
                                                 res["alt_gap"]):
            errs.append(f"gap {res['crp_gap']} at {res['argmin_set']} / {res['alt_gap']} != "
                        f"subset scan {gap} at {argmin} / {alt} with redundancy "
                        f"from order_seed {req.options['order_seed']}")
        if len(inst.edges) <= GAP_ORACLE_MAX_EDGES:
            gap, alt = oracles.gap_by_definition(inst)
            if (_shown(gap), _shown(alt)) != (res["crp_gap"], res["alt_gap"]):
                errs.append(f"gap {res['crp_gap']}/{res['alt_gap']} != oracle {gap}/{alt}")
        base = crp_decomposition(inst).erp_number
        for check in res["perturbations"]:
            if check["base_erp"] != base:
                errs.append("perturbation base block count disagrees")
            if check["admissible"] and check["perturbed_erp"] > base:
                errs.append("admissible perturbation split a block")
        return errs
    if req.kind == "design":
        res = _envelope_result(out)
        o = req.options
        errs = []
        want = min_edges(o["demand"], o["supply"], o["d"])
        if res["edge_count"] != want or len(res["edges"]) != want:
            errs.append(f"design used {res['edge_count']} edges, min_edges says {want}")
        designed = make_instance(o["demand"], o["supply"], [tuple(e) for e in res["edges"]])
        if res["erp"] != o["d"] or crp_decomposition(designed).erp_number != o["d"]:
            errs.append(f"designed graph does not have {o['d']} blocks")
        if o["d"] == o["dss"] and len(o["demand"]) + len(o["supply"]) <= COVER_ORACLE_MAX:
            if oracles.max_balanced_cover_size(o["demand"], o["supply"]) != o["dss"]:
                errs.append("largest achievable block count disagrees with the cover oracle")
        return errs
    if req.kind == "plan":
        res = _envelope_result(out)
        o = req.options
        spec = o["spec"]
        if spec.startswith("file:"):
            spec = json.loads(Path(spec[5:]).read_text(encoding="utf-8"))
        if res != plan_schedule(o["eta"], o["K"], spec).to_dict():
            return ["plan result does not replay"]
        if o["eta"] * (o["eta"] - 1) <= PLAN_ORACLE_MAX_ABSENT:
            objective = _objective_callables(o["objective"], o["K"], o["spec"])
            best = oracles.best_sequences_by_trajectory(
                validate_instance(diagonal(o["eta"])), o["K"], objective)
            if best[0] != Fraction(res["value"]):
                return [f"plan value {res['value']} != exhaustive optimum {best[0]}"]
        return []
    # greedy_vs_optimal
    res = json.loads(out)
    K = req.options["K"]
    errs = []
    if res["optimal"] is None:
        return ["optimal side unavailable"]
    if Fraction(res["greedy"]["value"]) < Fraction(res["optimal"]["value"]):
        errs.append("greedy beats the claimed optimum")
    if res["optimal_mode"] == "exhaustive":
        objective = [lambda v: v] * K
        best = oracles.best_sequences_by_trajectory(req.inst, K, objective)
        if best[0] != Fraction(res["optimal"]["value"]):
            errs.append(f"exhaustive optimum {res['optimal']['value']} != oracle {best[0]}")
    elif res["optimal_mode"] != "structured":
        errs.append(f"unexpected optimal mode {res['optimal_mode']}")
    return errs


def _check_simulate(req: Request, out: str, run_cli) -> list[str]:
    """Compare the sweep with ``reference_sim`` over SIM_CHECK_HORIZON steps:
    the timed output itself when its horizon is no longer, else a replay of
    the same sweep at that horizon.  Queue means must match bit for bit, the
    collapse ratio to 1e-9 (the reference sums its norms in another order)."""
    errs = []
    argv = list(req.argv)
    horizon = int(argv[argv.index("--horizon") + 1])
    if horizon > SIM_CHECK_HORIZON:
        horizon = SIM_CHECK_HORIZON
        argv[argv.index("--horizon") + 1] = str(horizon)
        code, out = run_cli(argv)
        if code != 0:
            return [f"replay at horizon {horizon} exited {code}"]
    seed = req.options["seed"]
    levels = req.options["levels"]
    for row in _envelope_result(out)["rows"]:
        refs = [reference_sim(req.inst, row["eps"], horizon, horizon // 10,
                              seed, rep, levels) for rep in range(SIM_REPS)]
        pooled = [float(np.mean([r[0][i] for r in refs])) for i in range(req.inst.m)]
        if row["queue_means"] != pooled:
            errs.append(f"eps {row['eps']}, horizon {horizon}: queue means differ "
                        "from reference_sim")
        perp = float(np.mean([r[1] for r in refs]))
        norm = float(np.mean([r[2] for r in refs]))
        ssc = perp / norm if norm > 0 else 0.0
        if not math.isclose(row["ssc_ratio"], ssc, rel_tol=1e-9, abs_tol=1e-12):
            errs.append(f"eps {row['eps']}, horizon {horizon}: collapse ratio differs "
                        "from reference_sim")
    return errs


def check(req: Request, out: str, run_cli) -> list[str]:
    if req.kind == "simulate":
        return _check_simulate(req, out, run_cli)
    if req.kind in ("validate", "decompose", "augment_best", "augment_edge"):
        return _check_structure(req, out)
    return _check_search(req, out)


# ---------------------------------------------------------------------------
# workload shape


def sweep_shape(sweeps: list[Request]) -> dict:
    """The swept graphs and the share of simulated steps on each simulator
    path."""
    steps = {"general": 0, "dedicated": 0}
    for r in sweeps:
        steps[r.path] += r.steps
    total = sum(steps.values())
    return {
        "graphs": [{"graph": r.options["graph"], "m": r.inst.m, "n": r.inst.n,
                    "edges": len(r.inst.edges), "path": r.path, "steps": r.steps}
                   for r in sweeps],
        "step_share_general": steps["general"] / total,
        "step_share_dedicated": steps["dedicated"] / total,
    }


def shape(reqs: list[Request], outputs: list) -> dict:
    """Sizes and structure of the inputs, so a later claim about inputs with
    some property can cite the measured share.  ``outputs`` holds each
    request's (exit code, stdout); a decompose envelope saves recomputing
    the decomposition of a large instance."""
    decomposed = {id(r.inst): _envelope_result(out[1]) for r, out in zip(reqs, outputs)
                  if r.kind == "decompose" and out is not None and out[0] == 0}
    rows = []
    seen = set()
    for r in reqs:
        inst = r.inst
        if inst is None:
            o = r.options
            if r.kind == "design":
                rows.append({"kind": "design", "m": len(o["demand"]), "n": len(o["supply"]),
                             "erp": o["d"]})
            else:
                rows.append({"kind": "plan", "eta": o["eta"], "K": o["K"],
                             "objective": o["objective"]})
            continue
        if id(inst) in seen:
            continue
        seen.add(id(inst))
        dec = decomposed.get(id(inst)) or crp_decomposition(inst).to_dict()
        rows.append({"kind": r.kind, "m": inst.m, "n": inst.n, "edges": len(inst.edges),
                     "blocks": dec["erp_number"],
                     "redundant_share": len(dec["redundant_edges"]) / len(inst.edges)})
    graphs = [row for row in rows if "edges" in row]
    return {
        "instances": rows,
        "mean_blocks": sum(r["blocks"] for r in graphs) / len(graphs),
        "redundant_edge_share": sum(r["redundant_share"] * r["edges"] for r in graphs)
        / sum(r["edges"] for r in graphs),
    }
