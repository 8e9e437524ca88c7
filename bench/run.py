#!/usr/bin/env python3
"""procflex benchmark.

    python3 bench/run.py --workload {structure,search} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One client, one process, one thread: each
request starts when the previous one has finished (a closed loop), and
numpy's thread pools are pinned to one thread.  Requests go through
``procflex.cli.main(argv)`` in process with stdout captured, except
``greedy_vs_optimal_report``, which has no verb and is called through the
library.  The workload seed builds the inputs; the program sees only the
generated documents.

After every cycle of requests the workload's simulator sweeps run, timed
apart from the requests.  ``--trace 0`` repeats the cycle and its sweeps for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs each
request and sweep once untraced and then traced and prints the per-layer
metrics.  The last stdout line is the result object; the full report (run
metadata, workload shape, per-kind latencies, raw percentiles, failures and,
when traced, every span) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import hashlib
import io
import json
import platform
import random
import resource
import select
import shutil
import statistics
import subprocess
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("structure", "search")

# On a shared host (a 2-vCPU VM, say) CPU speed swings by up to 1.6x, in
# stretches from milliseconds to minutes.  Each timed request therefore
# repeats once per cycle, at least MIN_CYCLES times, and the median of its
# repeats is its latency; bench/README.md says why not the fastest.  Side
# rounds (a cold start for setup_s) and the simulator sweeps run between
# cycles, outside every request's timing.
MIN_CYCLES = 3
SIDE_ROUNDS = 8
COLD_START_TIMEOUT_S = 60

# the 2x2 instance every cold start runs its verb on (it has a defined gap)
TINY = {"m": 2, "n": 2, "demand": [2, 1], "supply": [1, 2], "edges": [[1, 1], [1, 2], [2, 2]]}
FIRST_VERB = {
    "structure": lambda path: ["validate", path],
    "search": lambda path: ["gap", path],
}


def _need_sources() -> None:
    if not (ROOT / "src" / "procflex" / "cli.py").is_file():
        sys.exit(f"procflex sources not found under {ROOT / 'src'}; "
                 "run from a full checkout of the repository")
    if not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"test references not found under {ROOT / 'tests'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def run_metadata(seed: int) -> dict:
    # outside a git checkout the commit is null; the source hash still
    # identifies the code, and git must not find a repository above ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "procflex").glob("*.py")):
        digest.update(path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load_shape": "closed loop, 1 client, 1 process, 1 thread",
    }


def cold_start_s(workload: str, tiny_path: str) -> float:
    """Wall time of a fresh ``python -m procflex.cli`` process running the
    workload's first verb on the 2x2 instance.

    The exit is awaited on a pidfd: ``subprocess.run(timeout=...)`` polls
    with sleeps of up to 50 ms, which would round every time up to the next
    poll."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "procflex.cli", *FIRST_VERB[workload](tiny_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    fd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([fd], [], [], COLD_START_TIMEOUT_S)[0]
    finally:
        os.close(fd)
    elapsed = time.perf_counter() - t0
    if not exited:
        proc.kill()
    code = proc.wait()
    if not exited or code != 0:
        raise RuntimeError(f"cold start {' '.join(argv[1:])} "
                           f"{'timed out' if not exited else f'exited {code}'}")
    return elapsed


class Client:
    """Sends requests to the program in process; returns (exit code, stdout)."""

    def __init__(self):
        import procflex.cli
        import procflex.planning
        from procflex.errors import ProcflexError

        self.cli = procflex.cli
        self.planning = procflex.planning
        self.domain_error = ProcflexError

    def run_cli(self, argv: list) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def run(self, req) -> tuple[int, str]:
        if req.argv is not None:
            return self.run_cli(req.argv)
        try:
            report = self.planning.greedy_vs_optimal_report(
                req.inst, req.options["K"], req.options["objective"])
        except self.domain_error:
            return 1, ""
        return 0, json.dumps(report.to_dict(), sort_keys=True)


class Ledger:
    """Outputs and timed latencies per corpus entry: the first output is kept
    for the checks, later ones only have to match it."""

    def __init__(self, n: int):
        self.first: list = [None] * n
        self.mismatch = [False] * n
        self.sent = [0] * n
        self.latencies: list[list[float]] = [[] for _ in range(n)]

    def typical(self) -> list[float]:
        """Each entry's latency: the median of its timed repeats."""
        return [statistics.median(lats) for lats in self.latencies]

    def record(self, k: int, code: int, out: str, latency: float | None = None) -> None:
        self.sent[k] += 1
        if latency is not None:
            self.latencies[k].append(latency)
        if self.first[k] is None:
            self.first[k] = (code, out)
        elif self.first[k] != (code, out):
            self.mismatch[k] = True


def closed_loop(client, reqs, ledger: Ledger, seconds: float, side) -> None:
    """Send whole cycles back to back until ``seconds`` have passed and
    MIN_CYCLES cycles are done.  After every cycle run the simulator sweeps;
    run a side round whenever its share of the run has elapsed,
    SIDE_ROUNDS times in all."""
    rounds = 0
    start = time.perf_counter()
    cycles = 0
    while True:
        for k, req in enumerate(reqs):
            t0 = time.perf_counter()
            code, out = client.run(req)
            ledger.record(k, code, out, time.perf_counter() - t0)
        cycles += 1
        side.sweep_round()
        elapsed = time.perf_counter() - start
        while rounds < SIDE_ROUNDS and elapsed >= rounds * seconds / SIDE_ROUNDS:
            side.round()
            rounds += 1
        if elapsed >= seconds and cycles >= MIN_CYCLES:
            break
    for _ in range(rounds, SIDE_ROUNDS):
        side.round()


def paired_pass(client, batches, tracer):
    """Each request of every (requests, ledger) batch untraced and then
    traced, back to back, so that drift in machine speed cancels out of the
    overhead ratio.  Returns the traced (request, exit code, stdout) triples,
    whose order the span request ids follow, and both latency lists."""
    runs, untraced, traced = [], [], []
    for reqs, ledger in batches:
        for k, req in enumerate(reqs):
            t0 = time.perf_counter()
            code, out = client.run(req)
            untraced.append(time.perf_counter() - t0)
            ledger.record(k, code, out)
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.request(len(runs), req.kind):
                    code, out = client.run(req)
                traced.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            ledger.record(k, code, out)
            runs.append((req, code, out))
    return runs, untraced, traced


def check_all(client, reqs, ledger: Ledger) -> dict:
    """Failure messages per corpus index; outside every timed region."""
    from workloads import check

    failures = {}
    for k, req in enumerate(reqs):
        if ledger.first[k] is None:
            continue
        code, out = ledger.first[k]
        if code != 0:
            msgs = [f"exit code {code}"]
        else:
            msgs = check(req, out, client.run_cli)
        if ledger.mismatch[k]:
            msgs.append("a repeat produced different output")
        if msgs:
            failures[k] = msgs
    return failures


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def sim_rates(reqs, times: list) -> dict:
    """Simulated steps per second of sweep time, per simulator path."""
    steps = {"general": 0, "dedicated": 0}
    secs = {"general": 0.0, "dedicated": 0.0}
    for req, t in zip(reqs, times):
        steps[req.path] += req.steps
        secs[req.path] += t
    return {path: steps[path] / secs[path] for path in steps}


class SideRounds:
    """Work that runs between timed cycles: cold starts for setup_s, and the
    workload's simulator sweeps (``workloads.SWEEPS``), each once after every
    cycle."""

    def __init__(self, workload: str, client, rng, corpus, tiny_path: str):
        from workloads import simulate_requests

        self.workload, self.client, self.tiny_path = workload, client, tiny_path
        self.cold_starts = []
        self.sweeps = simulate_requests(rng, corpus, workload)
        self.ledger = Ledger(len(self.sweeps))

    def round(self) -> None:
        self.cold_starts.append(cold_start_s(self.workload, self.tiny_path))

    def sweep_round(self) -> None:
        for k, req in enumerate(self.sweeps):
            t0 = time.perf_counter()
            code, out = self.client.run(req)
            self.ledger.record(k, code, out, time.perf_counter() - t0)


def kind_latencies(reqs, ledger: Ledger) -> dict:
    """Per request kind: the repeats timed, and the median over the kind's
    requests of each request's median and fastest repeat."""
    by_kind: dict = {}
    for req, lats in zip(reqs, ledger.latencies):
        by_kind.setdefault(req.kind, []).append(lats)
    return {kind: {"requests": len(v), "samples": sum(map(len, v)),
                   "p50_ms": 1e3 * statistics.median(map(statistics.median, v)),
                   "fastest_p50_ms": 1e3 * statistics.median(map(min, v))}
            for kind, v in sorted(by_kind.items())}


def baseline_check(workload: str, rng, tiny_path: str, sim_rates_by_graph: dict) -> dict:
    """The points of the ROADMAP baseline table this workload can measure."""
    import procflex
    from workloads import pooled_instance

    def timed(fn, *args):
        t0 = time.perf_counter()
        fn(*args)
        return time.perf_counter() - t0

    if workload == "structure":
        inst = procflex.validate_instance(pooled_instance(rng, 200))
        return {"max_flow_m200_s": {"measured": timed(procflex.find_feasible_point, inst),
                                    "roadmap": 0.7},
                "cold_start_s": {"measured": min(cold_start_s(workload, tiny_path)
                                                 for _ in range(3)),
                                 "roadmap": 0.35}}
    inst = procflex.validate_instance(pooled_instance(rng, 16, degree=2.0, max_block=5))
    return {"crp_gap_m16_s": {"measured": timed(procflex.crp_gap, inst), "roadmap": 1.8},
            "unit_7x7_cover_s": {"measured": timed(procflex.max_balanced_cover,
                                                   [1] * 7, [1] * 7), "roadmap": 1.5},
            "chain_20_steps_per_s": {"measured": sim_rates_by_graph["chain_20"],
                                     "roadmap": 50_000},
            "dedicated_steps_per_s": {"measured": sim_rates_by_graph["diagonal_4"],
                                      "roadmap": 6_400_000}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _need_sources()
    sys.path.insert(0, str(BENCH))

    import workloads
    from tracing import Tracer, layer_metrics

    results_dir = BENCH / "results"
    workdir = results_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workloads, Tracer, layer_metrics, results_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, Tracer, layer_metrics, results_dir: Path, workdir: Path) -> int:
    rng = random.Random(args.seed)
    corpus = workloads.Corpus(workdir)
    tiny_path = corpus.write(TINY)
    reqs = workloads.CORPORA[args.workload](rng, corpus)
    client = Client()
    ledger = Ledger(len(reqs))
    report = {"workload": args.workload, "meta": run_metadata(args.seed),
              "trace": args.trace, "requests_per_cycle": len(reqs)}

    # warm-up: the first verb once in process, so lazy set-up is not timed
    client.run_cli(FIRST_VERB[args.workload](tiny_path))

    side = SideRounds(args.workload, client, rng, corpus, tiny_path)
    if args.trace:
        tracer = Tracer()
        runs, untraced, traced = paired_pass(client, [(reqs, ledger),
                                                      (side.sweeps, side.ledger)], tracer)
        metrics = layer_metrics(tracer.spans, runs, sum(traced), sum(untraced))
        attempted = sum(ledger.sent) + sum(side.ledger.sent)
        steps, secs = {}, {}
        for (req, _code, _out), lat in zip(runs, untraced):
            if req.path:
                graph = req.options["graph"]
                steps[graph] = steps.get(graph, 0) + req.steps
                secs[graph] = secs.get(graph, 0.0) + lat
        rates_by_graph = {graph: steps[graph] / secs[graph] for graph in steps}
        report["baseline_check"] = baseline_check(args.workload, rng, tiny_path, rates_by_graph)
        report["spans"] = tracer.spans
        report["untraced_s"], report["traced_s"] = sum(untraced), sum(traced)
    else:
        closed_loop(client, reqs, ledger, args.seconds, side)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        typical = ledger.typical()
        rates = sim_rates(side.sweeps, side.ledger.typical())
        attempted = sum(ledger.sent) + sum(side.ledger.sent)
        metrics = {
            "setup_s": statistics.median(side.cold_starts),
            "requests_per_s": len(reqs) / sum(typical),
            "latency_p50_ms": 1e3 * statistics.median(typical),
            "latency_p90_ms": 1e3 * percentile(typical, 90),
            "sim_general_steps_per_s": rates["general"],
            "sim_dedicated_steps_per_s": rates["dedicated"],
            "peak_rss_mb": peak_rss_mb,
        }
        fastest = [min(lats) for lats in ledger.latencies]
        report["raw"] = {"samples": sum(map(len, ledger.latencies)),
                         "fastest_p50_ms": 1e3 * statistics.median(fastest),
                         "fastest_p90_ms": 1e3 * percentile(fastest, 90),
                         "cold_starts_s": side.cold_starts}
        report["latency_by_kind"] = kind_latencies(reqs, ledger)

    failures = check_all(client, reqs, ledger)
    sweep_failures = check_all(client, side.sweeps, side.ledger)
    failed = sum(n for k, n in enumerate(ledger.sent) if k in failures)
    failed += sum(n for k, n in enumerate(side.ledger.sent) if k in sweep_failures)
    report["failures"] = {str(k): v for k, v in failures.items()}
    report["sweep_failures"] = {str(k): v for k, v in sweep_failures.items()}
    report["failed_ratio"] = failed / attempted
    report["shape"] = workloads.shape(reqs, ledger.first)
    report["sweep_shape"] = workloads.sweep_shape(side.sweeps)

    # BENCHMARK.json names the metrics each mode prints, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    report["metrics"] = metrics
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, default=str), encoding="utf-8")

    summary = {k: v for k, v in report.items() if k not in ("spans", "shape", "sweep_shape")}
    summary["shape"] = {k: v for k, v in report["shape"].items() if k != "instances"}
    summary["sweep_shape"] = {k: v for k, v in report["sweep_shape"].items() if k != "graphs"}
    print(json.dumps({"report": str(out_path.relative_to(ROOT)), **summary}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
