"""Spans around calls into procflex's modules, recorded from outside the
package.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper in each procflex namespace that binds it: the defining
module, the package, and every module that imported it by name (for example
both ``procflex.core.is_feasible`` and ``procflex.cli.is_feasible``).
``uninstall`` puts the originals back.  Spans stay in memory as
[name, layer, start, end, parent, request, attrs, error] lists.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from math import perm

from procflex.errors import ProcflexError

LAYERS = ("cli", "core", "decomposition", "augmentation", "planning", "robustness",
          "design", "queuesim")

# helpers called once per rate or edge: a span there would cost more than the
# work it times, so their time stays in the caller's self time
UNTRACED = {"parse_rational", "format_rational", "make_instance"}

# input validation is the CLI's work even though core implements it
LAYER_OF = {"validate_instance": "cli"}

MAX_FLOW = ("find_feasible_point", "is_feasible")

NAME, LAYER, START, END, PARENT, REQUEST, ATTRS, ERROR = range(8)


def simulator_path(inst) -> str:
    """The simulator runs its general MaxWeight loop when some server with
    positive rate can serve more than one queue, else the vectorized
    dedicated recursion."""
    for j in range(inst.n):
        if len(inst.supply_adj[j]) > 1 and inst.supply[j] > 0:
            return "general"
    return "dedicated"


def _flow_attrs(inst, *args, **kwargs):
    return {"arcs": len(inst.edges) + inst.m + inst.n, "m": inst.m}


def _gap_attrs(inst, *args, **kwargs):
    return {"m": inst.m}


def _sim_attrs(inst, eps, **kwargs):
    steps = kwargs["horizon"] * kwargs.get("replications", 1)
    return {"steps": steps, "path": simulator_path(inst)}


SPAN_ATTRS = {
    "find_feasible_point": _flow_attrs,
    "is_feasible": _flow_attrs,
    "crp_gap": _gap_attrs,
    "simulate": _sim_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = SPAN_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._request,
                   attrs_of(*args, **kwargs) if attrs_of else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except ProcflexError as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"procflex.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__ and name not in UNTRACED):
                    wrappers[id(fn)] = self._wrap(LAYER_OF.get(name, layer), name, fn)
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "procflex" or key.startswith("procflex.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    @contextmanager
    def request(self, request_id: int, kind: str):
        """Root span of one benchmark request."""
        self._request = request_id
        rec = ["request", "bench", 0.0, 0.0, -1, request_id, {"kind": kind}, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self._request = -1


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[list], runs: list, traced_s: float, untraced_s: float) -> dict:
    """Per-layer table from one traced pass.

    ``runs`` lists (request, exit code, stdout) for every request of the pass,
    in order, so request ids index it.  ``self`` time is a span's duration
    minus the time its direct children cover.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for k, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[k]
    self_s = [d - c for d, c in zip(dur, child)]

    def has_ancestor(k: int, layer: str) -> bool:
        p = spans[k][PARENT]
        while p >= 0:
            if spans[p][LAYER] == layer:
                return True
            p = spans[p][PARENT]
        return False

    def entries(layer: str) -> list[int]:
        return [k for k, s in enumerate(spans) if s[LAYER] == layer
                and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer)]

    def layer_self(layer: str) -> float:
        return sum((self_s[k] for k, s in enumerate(spans) if s[LAYER] == layer), 0.0)

    def errors(layer: str) -> int:
        return sum(1 for s in spans if s[LAYER] == layer and s[ERROR])

    def named(*names) -> list[int]:
        return [k for k, s in enumerate(spans) if s[NAME] in names]

    requests = [k for k, s in enumerate(spans) if s[LAYER] == "bench"]
    flows = named(*MAX_FLOW)
    decomps = named("crp_decomposition")
    m = {}

    cli_runs = [(req, code, out) for req, code, out in runs if req.argv is not None]
    m["cli.requests"] = len(named("main"))
    m["cli.self_s"] = layer_self("cli")
    m["cli.validate_s"] = sum((dur[k] for k in named("validate_instance")), 0.0)
    m["cli.output_bytes"] = sum(len(out.encode()) for _req, _code, out in cli_runs)
    # main maps every domain error to an exit code instead of raising
    m["cli.errors"] = sum(1 for _req, code, _out in cli_runs if code != 0) + errors("cli")

    def flow_share(roots: set) -> float:
        """Share of the time of the given request spans spent in max flow."""
        inside = 0.0
        for k in flows:
            root = k
            while spans[root][PARENT] >= 0:
                root = spans[root][PARENT]
            if root in roots:
                inside += dur[k]
        return _ratio(inside, sum(dur[k] for k in roots))

    flow_s = sum((dur[k] for k in flows), 0.0)
    m["core.max_flow_calls"] = len(flows)
    m["core.max_flow_s"] = flow_s
    m["core.max_flow_arcs"] = sum(spans[k][ATTRS]["arcs"] for k in flows)
    # over the cycle's requests, whose latencies the end-to-end metrics give;
    # the simulator sweeps have their own metrics
    m["core.max_flow_share"] = flow_share(
        {k for k in requests if spans[k][ATTRS]["kind"] != "simulate"})
    m["core.max_flow_share_gap_design"] = flow_share(
        {k for k in requests if spans[k][ATTRS]["kind"] in ("gap", "design")})
    m["core.errors"] = errors("core")

    m["decomposition.calls"] = len(decomps)
    m["decomposition.self_s"] = layer_self("decomposition")
    m["decomposition.calls_per_request"] = _ratio(len(decomps), len(requests))
    m["decomposition.errors"] = errors("decomposition")

    aug = [k for k, s in enumerate(spans) if s[LAYER] == "augmentation"]
    m["augmentation.calls"] = len(aug)
    m["augmentation.self_s"] = layer_self("augmentation")
    m["augmentation.decompositions_per_call"] = _ratio(
        sum(1 for k in decomps if spans[spans[k][PARENT]][LAYER] == "augmentation"), len(aug))
    m["augmentation.errors"] = errors("augmentation")

    # a greedy-vs-optimal report walks the greedy trajectory, the optimal one,
    # and in exhaustive mode every ordered K-tuple of absent edges
    added = sequences = 0
    for req, code, out in runs:
        if req.kind != "greedy_vs_optimal" or code != 0:
            continue
        res = json.loads(out)
        K = req.options["K"]
        added += len(res["greedy"]["edges"])
        if res["optimal_mode"] == "exhaustive":
            inst = req.inst
            scanned = perm(inst.m * inst.n - len(inst.edges), K)
            sequences += scanned
            added += scanned * K
        elif res["optimal"] is not None:
            added += len(res["optimal"]["edges"])
    m["planning.calls"] = len(entries("planning"))
    m["planning.self_s"] = layer_self("planning")
    m["planning.decompositions_per_added_edge"] = _ratio(
        sum(1 for k in decomps if has_ancestor(k, "planning")), added)
    m["planning.sequences_scanned"] = sequences
    m["planning.errors"] = errors("planning")

    rob = entries("robustness")
    m["robustness.calls"] = len(rob)
    m["robustness.self_s"] = layer_self("robustness")
    m["robustness.subsets_scanned"] = sum(
        2 ** spans[k][ATTRS]["m"] - 1 for k in named("crp_gap"))
    m["robustness.decompositions_per_call"] = _ratio(
        sum(1 for k in decomps if has_ancestor(k, "robustness")), len(rob))
    m["robustness.errors"] = errors("robustness")

    design_requests = sum(1 for k in requests if spans[k][ATTRS]["kind"] == "design")
    m["design.calls"] = len(entries("design"))
    m["design.self_s"] = layer_self("design")
    m["design.cover_searches_per_request"] = _ratio(
        len(named("max_balanced_cover")), design_requests)
    m["design.errors"] = errors("design")

    sims = named("simulate")
    sim_entries = entries("queuesim")
    m["queuesim.calls"] = len(sim_entries)
    for path in ("general", "dedicated"):
        m[f"queuesim.steps_{path}"] = sum(
            spans[k][ATTRS]["steps"] for k in sims if spans[k][ATTRS]["path"] == path)
    for path in ("general", "dedicated"):
        m[f"queuesim.self_s_{path}"] = sum(
            (self_s[k] for k, s in enumerate(spans)
             if s[LAYER] == "queuesim" and runs[s[REQUEST]][0].path == path), 0.0)
    prep = sum(dur[k] for k in named("crp_decomposition", "is_feasible")
               if has_ancestor(k, "queuesim"))
    m["queuesim.prep_share"] = _ratio(prep, sum(dur[k] for k in sim_entries))
    m["queuesim.errors"] = errors("queuesim")

    m["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    return m
