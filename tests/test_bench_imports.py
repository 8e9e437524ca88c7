"""The benchmark harness (bench/) imports procflex names and test helpers by
name.  These tests load its modules the way bench/run.py does, so a change
that removes a name it depends on fails here rather than in a benchmark run.
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

import procflex

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    """bench/workloads.py and bench/tracing.py, imported with run.py's path:
    bench/ first, then src/ and the repository root."""
    for path in (ROOT, ROOT / "src", ROOT / "bench"):
        monkeypatch.syspath_prepend(str(path))
    for name in ("workloads", "tracing"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)


def test_traced_names_exist_in_procflex(bench):
    _workloads, tracing = bench
    names = set(tracing.MAX_FLOW) | set(tracing.SPAN_ATTRS)
    assert names
    for name in sorted(names):
        assert callable(getattr(procflex, name, None)), name
    for layer in tracing.LAYERS:
        importlib.import_module(f"procflex.{layer}")


def test_tracer_wraps_and_restores_the_traced_names(bench):
    _workloads, tracing = bench
    names = sorted(set(tracing.MAX_FLOW) | set(tracing.SPAN_ATTRS))
    originals = {name: getattr(procflex, name) for name in names}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in names:
            assert getattr(procflex, name).__wrapped__ is originals[name], name
    finally:
        tracer.uninstall()
    assert {name: getattr(procflex, name) for name in names} == originals


def test_run_py_imports_and_the_structure_corpus(bench, tmp_path):
    workloads, _tracing = bench
    for name in ("check", "simulate_requests", "pooled_instance", "Corpus", "CORPORA",
                 "shape", "sweep_shape"):
        assert hasattr(workloads, name), name
    corpus = workloads.Corpus(tmp_path)
    reqs = workloads.CORPORA["structure"](random.Random(1), corpus)
    reqs += workloads.simulate_requests(random.Random(1), corpus, "structure")
    assert reqs and corpus.count > 0
