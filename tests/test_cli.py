"""CLI: document round-trips, exit codes, verb outputs, determinism."""

import copy
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procflex import cli, core, native, validate_instance
from procflex.cli import main
from procflex.design import MAX_COVER_SIZE
from procflex.planning import MAX_PLAN_TABLE_BITS
from procflex.queuesim import _CHUNK, MAX_CHUNK_CELLS

from .oracles import envelope_text


THREE_BLOCK = {
    "m": 5,
    "n": 5,
    "demand": [1, 1, 2, 2, 1],
    "supply": [2, 1, 1, 1, 2],
    "edges": [
        [1, 2], [1, 3], [1, 5], [2, 1], [2, 4],
        [3, 1], [3, 3], [4, 4], [4, 5], [5, 5],
    ],
}
TWO = {"m": 2, "n": 2, "demand": [1, 1], "supply": [1, 1], "edges": [[1, 1], [2, 2]]}
# demand 3 and supply 3 have rate 0, so each is a block without the other side
ZERO_RATE = {
    "m": 3,
    "n": 3,
    "demand": [1, 1, 0],
    "supply": [1, 1, 0],
    "edges": [[1, 1], [2, 2], [1, 2], [2, 3]],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in (("blocks", THREE_BLOCK), ("two", TWO), ("zero", ZERO_RATE)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope(out: str) -> dict:
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    return doc


def test_validate_roundtrip(files, capsys):
    code, out, _ = run(capsys, "validate", files["blocks"])
    assert code == 0
    doc = envelope(out)
    assert doc["command"] == "validate" and doc["seed"] == 0
    assert doc["result"]["feasible"] is True
    assert doc["result"]["total"] == "7"
    # emitted instances re-parse to the same value
    original = validate_instance(THREE_BLOCK)
    assert validate_instance(doc["input"]) == original
    assert validate_instance(doc["result"]) == original


def test_validate_writes_the_instance_document_once(files, capsys, monkeypatch):
    calls = []
    to_dict = core.ProblemInstance.to_dict
    monkeypatch.setattr(core.ProblemInstance, "to_dict",
                        lambda inst: calls.append(1) or to_dict(inst))
    code, out, _ = run(capsys, "validate", files["blocks"])
    assert code == 0 and len(calls) == 1
    inst = validate_instance(THREE_BLOCK)
    expected = dict(schema_version=1, command="validate", seed=0, input=to_dict(inst),
                    options={}, result={**to_dict(inst), "total": "7", "feasible": True})
    assert out == envelope_text(expected)


def test_validate_reads_stdin(files, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TWO)))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert envelope(out)["result"]["m"] == 2


def test_decompose_golden(files, capsys):
    code, out, _ = run(capsys, "decompose", files["blocks"])
    assert code == 0
    result = envelope(out)["result"]
    assert result["redundant_edges"] == [[1, 3], [1, 5], [2, 4]]
    assert result["erp_number"] == 3
    assert result["crp_graph"] == {"d": 3, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]}
    comps = result["components"]
    assert [c["demands"] for c in comps] == [[1], [2, 3], [4, 5]]
    assert all(c["demand_total"] == c["supply_total"] for c in comps)
    assert result["ssc_basis"] == [
        [1, 0, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 0, 1, 1],
    ]


def test_exit_codes_for_bad_documents(files, capsys, tmp_path):
    unbal = tmp_path / "unbal.json"
    unbal.write_text('{"m":1,"n":1,"demand":[2],"supply":[1],"edges":[[1,1]]}')
    code, _, err = run(capsys, "decompose", str(unbal))
    assert code == 1 and json.loads(err)["error"] == "UnbalancedTotals"

    missing_field = tmp_path / "short.json"
    missing_field.write_text('{"m": 2}')
    code, _, err = run(capsys, "decompose", str(missing_field))
    assert code == 2 and json.loads(err)["error"] == "DocumentError"

    not_json = tmp_path / "noise.json"
    not_json.write_text("demand: 3")
    assert run(capsys, "decompose", str(not_json))[0] == 2
    assert run(capsys, "decompose", str(tmp_path / "absent.json"))[0] == 2
    assert run(capsys, "frobnicate", files["two"])[0] == 2


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("reader", ["instance", "stdin", "perturb", "tables", "verify"])
def test_deeply_nested_documents_exit_2(reader, files, capsys, monkeypatch, tmp_path):
    # json.load raises RecursionError on them; the CLI reports one JSON line
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP))
    argv = {
        "instance": ["validate", str(deep)],
        "stdin": ["validate", "-"],
        "perturb": ["gap", files["two"], "--perturb", str(deep)],
        "tables": ["plan", "--eta", "2", "--budget", "1", "--objective", f"file:{deep}"],
        "verify": ["verify", str(deep)],
    }[reader]
    code, out, err = run(capsys, *argv)
    where = "-" if reader == "stdin" else str(deep)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "DocumentError", "message": f"{where} is nested too deeply"}


def _doc(demand=(1,), supply=(1,), edges=([1, 1],), **fields):
    return {"m": len(demand), "n": len(supply), "demand": list(demand),
            "supply": list(supply), "edges": list(edges)} | fields


# One document per malformed class, then documents with two faults.  The
# first fault decides, in this order: document shape, rate parse, signs,
# edge shape and integer indices over all edges, range then duplicate per
# edge in order, balance.
MALFORMED = [
    ("missing_field", {"m": 2}, "DocumentError", "instance document missing field: 'n'"),
    ("bool_size", _doc(m=True), "DocumentError", "m and n must be positive integers"),
    ("zero_size", _doc(demand=(), edges=(), m=0), "DocumentError",
     "m and n must be positive integers"),
    # a string has a len() too: none of these may be read character by character
    ("string_rates", _doc() | {"demand": "11", "supply": "11"}, "DocumentError",
     "demand must be a list, not str"),
    ("string_supply", _doc() | {"supply": "11"}, "DocumentError",
     "supply must be a list, not str"),
    ("string_edges", _doc() | {"edges": "12"}, "DocumentError", "edges must be a list, not str"),
    ("string_edge", _doc(edges=["11", [1, 1]]), "DocumentError",
     "edge entries must be lists: '11'"),
    ("object_edge", _doc(edges=[{"1": 1, "2": 1}]), "DocumentError",
     "edge entries must be lists: {'1': 1, '2': 1}"),
    ("short_supply", _doc(n=2), "DocumentError", "supply has 1 entries, expected n=2"),
    ("float_rate", _doc(demand=[1.5]), "DocumentError", "not a rational: 1.5"),
    ("bool_rate", _doc(demand=[True]), "DocumentError", "not a rational: True"),
    ("string_rate", _doc(demand=["1/x"], supply=["1/x"]), "DocumentError",
     "not a rational: '1/x'"),
    ("huge_exponent", _doc(demand=["1e99999999"], supply=["1e99999999"]), "DocumentError",
     "not a rational: '1e99999999' (exponent above 1000)"),
    ("negative_rate", _doc(demand=[2, -1]), "NegativeRate", "demand 2 is negative: -1"),
    ("negative_supply", _doc(supply=[2, "-1/2"]), "NegativeRate", "supply 2 is negative: -1/2"),
    ("triple_edge", _doc(edges=[[1, 1, 1]]), "DocumentError", "bad edge entry: (1, 1, 1)"),
    ("half_index", _doc(edges=[[1.5, 1], [1, 1]]), "DocumentError",
     "edge indices must be integers: (1.5, 1)"),
    ("bool_index", _doc(edges=[[True, 1]]), "DocumentError",
     "edge indices must be integers: (True, 1)"),
    ("out_of_range", _doc(edges=[[2, 1]]), "EdgeOutOfRange", "edge (2, 1) outside [1,1]x[1,1]"),
    ("duplicate", _doc(edges=[[1, 1], [1, 1]]), "DuplicateEdge", "edge (1, 1) listed twice"),
    ("unbalanced", _doc(demand=[2]), "UnbalancedTotals", "total demand 2 != total supply 1"),
    ("shape_before_rate", _doc(demand=["x"], n=2), "DocumentError",
     "supply has 1 entries, expected n=2"),
    ("edge_list_before_rate", _doc(demand=["x"], edges=[3]), "DocumentError",
     "edge entries must be lists: 3"),
    ("rate_before_sign", _doc(demand=[-1], supply=["x"]), "DocumentError",
     "not a rational: 'x'"),
    ("sign_before_edge", _doc(demand=[-1], edges=[[1, 1, 1]]), "NegativeRate",
     "demand 1 is negative: -1"),
    ("edge_shape_before_range", _doc(edges=[[2, 1], [1]]), "DocumentError",
     "bad edge entry: (1,)"),
    ("integers_before_range", _doc(edges=[[2, 1], [1.5, 1]]), "DocumentError",
     "edge indices must be integers: (1.5, 1)"),
    ("duplicate_before_later_range", _doc(edges=[[1, 1], [1, 1], [3, 1]]), "DuplicateEdge",
     "edge (1, 1) listed twice"),
    ("range_before_later_duplicate", _doc(edges=[[3, 1], [1, 1], [1, 1]]), "EdgeOutOfRange",
     "edge (3, 1) outside [1,1]x[1,1]"),
    ("sign_before_balance", _doc(supply=[4, -1], demand=[2]), "NegativeRate",
     "supply 2 is negative: -1"),
    ("duplicate_before_balance", _doc(demand=[2], edges=[[1, 1], [1, 1]]), "DuplicateEdge",
     "edge (1, 1) listed twice"),
]


@pytest.mark.parametrize("doc, error, message",
                         [pytest.param(*case[1:], id=case[0]) for case in MALFORMED])
def test_malformed_documents_name_their_first_fault(doc, error, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    if error == "DocumentError":
        assert code == 2
        message = f"{path}: {message}"
    else:
        assert code == 1
    assert out == "" and json.loads(err) == {"error": error, "message": message}


@pytest.mark.parametrize("doc, error, message",
                         [pytest.param(*case[1:], id=case[0]) for case in MALFORMED])
def test_malformed_envelope_inputs_name_their_first_fault(doc, error, message, tmp_path,
                                                          capsys):
    # verify reads the stored instance before its options and result
    path = tmp_path / "envelope.json"
    path.write_text(json.dumps({"schema_version": 1, "command": "validate", "seed": 0,
                                "options": {}, "input": doc, "result": {}}))
    code, out, err = run(capsys, "verify", str(path))
    if error == "DocumentError":
        assert code == 2
        message = f"envelope input: {message}"
    else:
        assert code == 1
    assert out == "" and json.loads(err) == {"error": error, "message": message}


def test_design_verb(files, capsys):
    code, out, _ = run(capsys, "design", "--erp", "1", files["two"])
    assert code == 0
    result = envelope(out)["result"]
    assert result["edge_count"] == 4 and result["erp"] == 1
    assert result["edges"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert [entry[2] for entry in result["assignment"]] == ["1/2"] * 4

    code, _, err = run(capsys, "design", "--erp", "5", files["two"])
    assert code == 1 and json.loads(err)["error"] == "TargetAboveDstarStar"


def test_design_size_limit(tmp_path, capsys):
    # one more vertex than the cover search takes
    m = MAX_COVER_SIZE // 2 + 1
    n = MAX_COVER_SIZE + 1 - m
    doc = {"m": m, "n": n, "demand": [1] * m, "supply": [1] * (n - 1) + [m - n + 1],
           "edges": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "design", "--erp", "1", str(path))
    assert code == 1 and out == ""
    assert [json.loads(line)["error"] for line in err.splitlines()] == ["SizeLimitExceeded"]


def test_gap_verb_and_perturbations(files, capsys, tmp_path):
    code, out, _ = run(capsys, "gap", files["blocks"])
    assert code == 0
    result = envelope(out)["result"]
    assert result["crp_gap"] == "1" and result["alt_gap"] == "1"
    assert result["argmin_set"] == [1, 2, 3, 4]

    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps({"omegas": [["1/2", 0, "-1/2", 0, 0], [2, 0, -2, 0, 0]]}))
    code, out, _ = run(capsys, "gap", files["blocks"], "--perturb", str(pert))
    assert code == 0
    checks = envelope(out)["result"]["perturbations"]
    assert checks[0]["admissible"] is True and checks[0]["perturbed_erp"] <= 3
    assert checks[1]["admissible"] is False and "2*delta" in checks[1]["reasons"][0]

    # gap undefined: two disjoint unit pairs have no positive-surplus subset
    code, out, _ = run(capsys, "gap", files["two"])
    assert code == 0 and envelope(out)["result"]["crp_gap"] == "undefined"
    pert2 = tmp_path / "pert2.json"
    pert2.write_text(json.dumps({"omega": ["1/4", "-1/4"]}))
    code, _, err = run(capsys, "gap", files["two"], "--perturb", str(pert2))
    assert code == 1 and json.loads(err)["error"] == "GapUndefined"


def test_gap_perturb_entries_are_ints_or_exact_strings(files, capsys, tmp_path):
    pert = tmp_path / "pert.json"
    for omega in ([0.5, -0.5], [[1], 0], [True, 0], ["abc", 0]):
        pert.write_text(json.dumps({"omegas": [omega]}))
        code, out, err = run(capsys, "gap", files["two"], "--perturb", str(pert))
        assert code == 2 and out == "", omega
        assert json.loads(err)["error"] == "DocumentError"
    # accepted entries are recorded as the file spells them
    pert.write_text(json.dumps({"omegas": [["2/4", 0, "-1/2", " 0 ", 0]]}))
    code, out, _ = run(capsys, "gap", files["blocks"], "--perturb", str(pert))
    assert code == 0
    assert envelope(out)["options"]["perturb"] == [["2/4", "0", "-1/2", " 0 ", "0"]]
    replay = tmp_path / "gap.json"
    replay.write_text(out)
    assert run(capsys, "verify", str(replay))[0] == 0


def test_augment_verbs(files, capsys):
    code, out, _ = run(capsys, "augment", "--best", files["blocks"])
    assert code == 0
    result = envelope(out)["result"]
    assert result["edge"] == [4, 2] and result["new_erp"] == 1 and result["delta"] == -2

    code, out, _ = run(capsys, "augment", "--edge", "4,2", files["blocks"])
    assert envelope(out)["result"]["cycle_vertices"] == [1, 2, 3]

    assert run(capsys, "augment", "--edge", "1,2", files["blocks"])[0] == 1
    assert run(capsys, "augment", "--edge", "0,9", files["blocks"])[0] == 1
    assert run(capsys, "augment", "--edge", "one,two", files["blocks"])[0] == 2
    assert run(capsys, "augment", files["blocks"])[0] == 2
    assert run(capsys, "augment", "--best", "--edge", "1,2", files["blocks"])[0] == 2


def test_augment_best_skips_zero_rate_blocks(files, capsys, tmp_path):
    code, out, err = run(capsys, "augment", "--best", files["zero"])
    assert code == 0, err
    result = envelope(out)["result"]
    assert result["edge"] == [2, 1] and result["cycle_vertices"] == [1, 2]
    assert result["new_erp"] == 3 and result["delta"] == -1
    doc = tmp_path / "zero_best.json"
    doc.write_text(out)
    code, out, _ = run(capsys, "verify", str(doc))
    assert code == 0 and envelope(out)["result"]["verified"] is True


def test_plan_verb(files, capsys, tmp_path):
    code, out, _ = run(capsys, "plan", "--eta", "9", "--budget", "11")
    assert code == 0
    doc = envelope(out)
    assert doc["input"] is None
    result = doc["result"]
    assert result["value"] == "61"
    assert result["trajectory"][0] == 9 and result["trajectory"][-1] == 2
    assert result["closed_form"]["matches_dp"] is False

    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([[0, 0], [0, 0], ["1", "2"]]))
    code, out, _ = run(capsys, "plan", "--eta", "2", "--budget", "3",
                       "--objective", f"file:{tables}")
    assert code == 0
    doc = envelope(out)
    assert doc["options"]["objective"] == {"tables": [["0", "0"], ["0", "0"], ["1", "2"]]}
    assert doc["result"]["value"] == "1"
    # the options record each entry in canonical form, however the file spelled it
    tables.write_text(json.dumps([["0", "2/4"], ["0.5", " 3 "], ["1e1", 10]]))
    code, out, _ = run(capsys, "plan", "--eta", "2", "--budget", "3",
                       "--objective", f"file:{tables}")
    assert code == 0
    assert envelope(out)["options"]["objective"] == {
        "tables": [["0", "1/2"], ["1/2", "3"], ["10", "10"]]}

    bad = tmp_path / "bad_tables.json"
    for doc in ({"rows": []}, ["012", "013"], [[0, 1, 2], "013"]):
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "plan", "--eta", "3", "--budget", "2",
                             "--objective", f"file:{bad}")
        assert code == 2 and out == "" and json.loads(err)["error"] == "DocumentError"
    assert run(capsys, "plan", "--eta", "2", "--budget", "3",
               "--objective", "median")[0] == 2
    assert run(capsys, "plan", "--eta", "0", "--budget", "3")[0] == 1
    code, _, err = run(capsys, "plan", "--eta", "1000000000000", "--budget", "3")
    assert code == 1 and json.loads(err)["error"] == "SizeLimitExceeded"


def test_plan_names_the_budget_in_its_refusal(capsys):
    code, out, err = run(capsys, "plan", "--eta", "2", "--budget", "0")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "ValueError",
                               "message": "budget K must be a positive integer, got 0"}


def test_plan_at_the_size_cap(capsys, tmp_path):
    # both optima equal tests/oracles.dp_plan_reference at this size
    for objective, value in (("final", "1"), ("sum", "22389")):
        code, out, _ = run(capsys, "plan", "--eta", "200", "--budget", "200",
                           "--objective", objective)
        assert code == 0, objective
        assert envelope(out)["result"]["value"] == value
    # one 6800-bit denominator scales all 200 x 200 entries past the table limit
    assert 200 * 200 * (3**4300).bit_length() > MAX_PLAN_TABLE_BITS
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([["0"] * 199 + [f"1/{3**4300}"]] * 200))
    code, out, err = run(capsys, "plan", "--eta", "200", "--budget", "200",
                         "--objective", f"file:{tables}")
    assert code == 1 and out == "" and json.loads(err)["error"] == "SizeLimitExceeded"


def test_simulate_csv_and_json(files, capsys):
    code, out, _ = run(capsys, "simulate", files["two"], "--eps", "0.1,0.05",
                       "--horizon", "2e4", "--reps", "2", "--seed", "42")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,q_mean_1,q_mean_2,lhs,rhs,ratio,ssc_ratio,lhs_se,ssc_se"
    assert len(lines) == 3
    assert lines[1].startswith("1/10,") and lines[2].startswith("1/20,")

    code, out, _ = run(capsys, "simulate", files["two"], "--eps", "0.1",
                       "--horizon", "5000", "--format", "json")
    assert code == 0
    result = envelope(out)["result"]
    assert result["rhs"] == "1" and len(result["rows"]) == 1

    assert run(capsys, "simulate", files["two"], "--eps", "0",
               "--horizon", "100")[0] == 1
    assert run(capsys, "simulate", files["two"], "--eps", "0.1",
               "--horizon", "lots")[0] == 2
    assert run(capsys, "simulate", files["two"], "--eps", "0.1",
               "--horizon", "2.5")[0] == 2
    # a queue could pass 2^63 before the run ends: refused before any draw
    code, out, err = run(capsys, "simulate", files["two"], "--eps", "0.1",
                         "--horizon", "1000", "--levels", "100000000000000000000,3")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "SizeLimitExceeded"


def test_simulate_refuses_seeds_past_64_bits(files, capsys, tmp_path):
    args = ("simulate", files["two"], "--eps", "0.1", "--horizon", "1000", "--format", "json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *args, "--seed", str(2**64 - 1))
    assert code == 0 and err == ""
    doc = envelope(out)
    assert doc["seed"] == 2**64 - 1
    code, out, err = run(capsys, *args, "--seed", str(2**64))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ValueError", "message": "seed must be below 2^64"}
    doc["seed"] = 2**64
    path = tmp_path / "past.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and out == "" and json.loads(err)["error"] == "ValueError"


def test_gap_builds_one_network_plus_one_per_admissible_omega(files, capsys, tmp_path,
                                                              monkeypatch):
    builds = []
    init = core._Transport.__init__
    monkeypatch.setattr(core._Transport, "__init__",
                        lambda net, *a, **k: builds.append(1) or init(net, *a, **k))
    assert run(capsys, "gap", files["blocks"])[0] == 0
    assert len(builds) == 1
    pert = tmp_path / "pert.json"
    omegas = [["1/2", 0, "-1/2", 0, 0], [2, 0, -2, 0, 0], [0, "1/4", 0, "-1/4", 0]]
    pert.write_text(json.dumps({"omegas": omegas}))
    builds.clear()
    code, out, _ = run(capsys, "gap", files["blocks"], "--perturb", str(pert))
    assert code == 0
    admissible = [c["admissible"] for c in envelope(out)["result"]["perturbations"]]
    assert admissible == [True, False, True]
    assert len(builds) == 1 + 2


def test_simulate_chunk_cap(capsys, tmp_path):
    # queues x min(horizon, chunk) at the cap runs and replays; one queue more
    # is refused on argv and on a stored envelope alike
    m = MAX_CHUNK_CELLS // _CHUNK
    horizon = _CHUNK + 1000
    stored = {}
    for k in (m, m + 1):
        doc = {"m": k, "n": k, "demand": [1] * k, "supply": [1] * k,
               "edges": [[i, i] for i in range(1, k + 1)]}
        path = tmp_path / f"diagonal_{k}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "simulate", str(path), "--eps", "0.5",
                             "--horizon", str(horizon), "--format", "json")
        stored[k] = (code, out, err, doc)
    code, out, err, _ = stored[m]
    assert code == 0 and err == ""
    accepted = tmp_path / "accepted.json"
    accepted.write_text(out)
    assert run(capsys, "verify", str(accepted))[0] == 0

    code, out, err, doc = stored[m + 1]
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "SizeLimitExceeded"
    envelope_past = json.loads(accepted.read_text())
    envelope_past["input"] = validate_instance(doc).to_dict()
    past = tmp_path / "past.json"
    past.write_text(json.dumps(envelope_past))
    code, out, err = run(capsys, "verify", str(past))
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "SizeLimitExceeded"


def test_verify_accepts_fresh_documents(files, capsys, tmp_path):
    emitted = []
    for args in (
        ("validate", files["blocks"]),
        ("decompose", files["blocks"]),
        ("design", "--erp", "1", files["two"]),
        ("gap", files["blocks"]),
        ("augment", "--best", files["blocks"]),
        ("plan", "--eta", "4", "--budget", "3"),
        ("simulate", files["two"], "--eps", "0.1", "--horizon", "2000",
         "--seed", "3", "--format", "json"),
    ):
        code, out, _ = run(capsys, *args)
        assert code == 0
        path = tmp_path / f"doc{len(emitted)}.json"
        path.write_text(out)
        emitted.append(path)
    for path in emitted:
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0, path.read_text()
        assert envelope(out)["result"]["verified"] is True


def test_verify_rejects_tampering(files, capsys, tmp_path):
    _, out, _ = run(capsys, "decompose", files["blocks"])
    doc = json.loads(out)
    doc["result"]["erp_number"] = 2
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and json.loads(err)["error"] == "VerificationFailed"

    doc["schema_version"] = 99
    bad.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(bad))[0] == 2

    not_envelope = tmp_path / "plain.json"
    not_envelope.write_text(json.dumps(THREE_BLOCK))
    assert run(capsys, "verify", str(not_envelope))[0] == 2


def test_byte_identical_reruns(files, capsys):
    verb_runs = [
        ("validate", files["blocks"]),
        ("decompose", files["blocks"]),
        ("design", "--erp", "2", files["two"]),
        ("gap", files["blocks"]),
        ("augment", "--best", files["blocks"]),
        ("plan", "--eta", "4", "--budget", "3"),
        ("simulate", files["two"], "--eps", "0.1,0.05", "--horizon", "4000",
         "--reps", "2", "--seed", "11"),
    ]
    for args in verb_runs:
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second and first[0] == 0


def test_count_arguments_are_read_exactly_and_capped(files, capsys):
    base = ("simulate", files["two"], "--eps", "0.1", "--horizon")
    for text in ("inf", "nan", "4/2"):
        code, out, err = run(capsys, *base, text)
        assert code == 2 and out == "" and json.loads(err)["error"] == "DocumentError"
    # read exactly, not through a float, and refused above the cap before running
    for text in ("1e400", "100000000000000001", "1e30", str(cli.MAX_SIM_STEPS + 1)):
        code, out, err = run(capsys, *base, text)
        assert code == 1 and out == "" and json.loads(err)["error"] == "SizeLimitExceeded"
    # the cap is on horizon x reps x eps values, not on the horizon alone
    half = str(cli.MAX_SIM_STEPS // 2)
    code, _, err = run(capsys, "simulate", files["two"], "--eps", "0.1,0.05",
                       "--horizon", half, "--reps", "2")
    assert code == 1 and json.loads(err)["error"] == "SizeLimitExceeded"
    code, _, err = run(capsys, *base, "100", "--warmup", "1e999999999")
    assert code == 1 and json.loads(err)["error"] == "SizeLimitExceeded"


def test_verify_rejects_malformed_envelopes(files, capsys, tmp_path):
    _, out, _ = run(capsys, "design", "--erp", "1", files["two"])
    design = json.loads(out)
    _, out, _ = run(capsys, "simulate", files["two"], "--eps", "0.1", "--horizon", "200",
                    "--format", "json")
    simulate = json.loads(out)
    cases = [
        ({**design, "options": {}}, 2),  # no erp
        ({**design, "command": "gap", "options": []}, 2),  # options not an object
        ({**design, "command": "validate", "input": None}, 2),  # no instance
        ({**design, "input": {**TWO, "demand": "11", "supply": "11"}}, 2),
        ({**design, "input": {**TWO, "edges": [[1, 1], "22"]}}, 2),
        ({**design, "seed": "0"}, 2),
        ({**design, "command": "verify"}, 2),
        ({k: v for k, v in design.items() if k != "result"}, 2),
        ({**simulate, "options": {**simulate["options"], "horizon": 10**9}}, 1),  # cap
        ({**simulate, "options": {**simulate["options"], "horizon": 200.0}}, 2),
    ]
    for doc, expected in cases:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert code == expected and out == "", (doc, err)
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)


def verb_examples(paths) -> dict:
    """Argv for every verb in the table; verify's replays the decompose run."""
    return {
        "validate": [["validate", paths["blocks"]]],
        "decompose": [["decompose", paths["blocks"]], ["decompose", paths["zero"]]],
        "design": [["design", "--erp", "1", paths["two"]]],
        "gap": [["gap", paths["blocks"]], ["gap", paths["blocks"], "--perturb", paths["pert"]]],
        "augment": [["augment", "--best", paths["blocks"]],
                    ["augment", "--edge", "4,2", paths["blocks"]]],
        "plan": [["plan", "--eta", "4", "--budget", "3"],
                 ["plan", "--eta", "2", "--budget", "3", "--objective", "final"],
                 ["plan", "--eta", "2", "--budget", "3", "--objective",
                  "file:" + paths["tables"]]],
        "simulate": [["simulate", paths["two"], "--eps", "0.1,0.05", "--horizon", "300",
                      "--reps", "2", "--seed", "3", "--format", "json"],
                     ["simulate", paths["two"], "--eps", "0.1", "--horizon", "300",
                      "--levels", "3,3"]],
        "verify": [["verify", paths["envelope"]]],
    }


def write_inputs(directory) -> dict:
    paths = {}
    docs = {
        "blocks": THREE_BLOCK,
        "two": TWO,
        "zero": ZERO_RATE,
        "pert": {"omegas": [["1/2", 0, "-1/2", 0, 0]]},
        # entries that are not in canonical form: the options record "1/2", "3", "10"
        "tables": [[0, "2/4"], ["0.5", " 3 "], ["1", "1e1"]],
    }
    for name, doc in docs.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    paths["envelope"] = os.path.join(directory, "envelope.json")
    with open(paths["envelope"], "w") as fh:
        fh.write(call(["decompose", paths["blocks"]])[1])
    return paths


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_verb_in_the_table_replays_under_verify(tmp_path):
    paths = write_inputs(str(tmp_path))
    examples = verb_examples(paths)
    assert set(examples) == set(cli._VERBS), "every verb needs an example here"
    replayable = {name for name, verb in cli._VERBS.items() if verb.reads != "document"}
    verified = set()
    for name in cli._VERBS:
        for argv in examples[name]:
            code, out, err = call(argv)
            assert code == 0, (argv, err)
            if out.startswith("{"):
                assert out == envelope_text(json.loads(out)), argv
            if name not in replayable or not out.startswith("{"):
                continue  # verify's own envelope and simulate's CSV replay nothing
            path = tmp_path / f"{name}.json"
            path.write_text(out)
            code, out, err = call(["verify", str(path)])
            assert code == 0, (argv, err)
            assert json.loads(out)["result"] == {"verified": True, "command": name}
            verified.add(name)
    assert verified == replayable == set(cli._VERBS) - {"verify"}


# text that exercises the layout pass: structural bytes and escapes inside
# strings, control characters, non-ASCII and a lone surrogate
TEXT = st.text(st.sampled_from('"\\[]{},: a\n\t\x00\x1f\x7f\xe9\u2028\ud800\U0001f600'),
               max_size=6) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | TEXT
    | st.integers() | st.integers(min_value=2**63 - 2, max_value=2**200),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=12,
)


@given(JSON_VALUES)
@settings(max_examples=2000, deadline=None)
def test_envelope_bytes_equal_the_indent_2_encoder(value):
    # floats() draws NaN and +-Infinity; recursive() draws nested empty
    # containers and top-level scalars
    assert cli._indented(value) == envelope_text(value)


def test_every_verb_writes_the_same_envelope_without_the_c_layout(tmp_path, monkeypatch):
    paths = write_inputs(str(tmp_path))
    argvs = [argv for group in verb_examples(paths).values() for argv in group]
    compiled = [call(argv) for argv in argvs]
    with monkeypatch.context() as patch:
        # as where no C library can be built: json's indent=2 encoder writes
        patch.setattr(native, "load", lambda name, source: None)
        cli._layout.cache_clear()
        try:
            assert cli._layout() is None
            fallback = [call(argv) for argv in argvs]
        finally:
            cli._layout.cache_clear()
    assert fallback == compiled
    for argv, (code, out, _) in zip(argvs, fallback):
        assert code == 0, argv
        if out.startswith("{"):
            assert out == envelope_text(json.loads(out)), argv


def big_envelope() -> dict:
    """An envelope of several MB, shaped like a large decompose result."""
    m = 15_000
    rows = [[i, j, "1/3"] for i in range(1, m + 1) for j in (i, i % m + 1)]
    return {"schema_version": 1, "command": "decompose", "seed": 0, "options": {},
            "input": {"m": m, "n": m, "demand": ["2/3"] * m, "supply": ["2/3"] * m,
                      "edges": [row[:2] for row in rows]},
            "result": {"components": [{"demands": [i], "supplies": [], "edges": []}
                                      for i in range(1, m + 1)], "assignment": rows}}


@pytest.mark.parametrize("value", [
    pytest.param([[], {}, [[]], {"a": {}}, [{}, []], {"": [[], [{}]], "b": [[[]]]}],
                 id="nested_empty_containers"),
    pytest.param(["\\", "\\\"", "a\\\"],{", {"\\": "\"", "x\\": ["\\\\"]}],
                 id="backslash_before_quote"),
    pytest.param({"\u2028": ["\x00", "\ud800", "\u00e9[", "\U0001f600", "\x1f}"]},
                 id="unicode_escapes"),
    *(pytest.param(v, id=f"scalar_{v!r}")
      for v in (None, True, 0, -1.5, "", "[x]", float("nan"), 2**200)),
])
def test_the_c_layout_on_fixed_documents(value):
    if cli._layout() is None:
        pytest.skip("no C layout library on this host")
    assert cli._indented(value) == envelope_text(value)


def test_the_c_layout_on_a_several_mb_envelope():
    if cli._layout() is None:
        pytest.skip("no C layout library on this host")
    doc = big_envelope()
    text = cli._indented(doc)
    assert len(text) > 4_000_000
    assert text == envelope_text(doc)


def test_cli_import_leaves_subprocess_and_hashlib_unloaded():
    # queuesim imports them only to build its kernel; the cold start avoids them
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, procflex.cli; print(sorted({'subprocess', 'hashlib'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def fresh_interpreter(code: str, *args: str) -> str:
    """stderr of a new Python process running code with the package on its path."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stderr


def test_numpy_is_loaded_only_by_design_and_simulate(tmp_path):
    # a bare import and then each verb in a fresh interpreter: the procflex
    # modules it loaded, and whether numpy was among them
    paths = write_inputs(str(tmp_path))
    code = (
        "import json, sys, procflex\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv:\n"
        "    import procflex.cli\n"
        "    assert procflex.cli.main(argv) == 0, argv\n"
        "json.dump([sorted(m for m in sys.modules if m.startswith('procflex.')),\n"
        "           'numpy' in sys.modules], sys.stderr)"
    )
    cli_base = {"cli", "core", "errors", "native"}
    runs = [
        ([], set(), False),
        (["validate", paths["blocks"]], cli_base, False),
        (["decompose", paths["blocks"]], cli_base | {"decomposition"}, False),
        (["augment", "--best", paths["blocks"]],
         cli_base | {"decomposition", "augmentation"}, False),
        (["gap", paths["blocks"], "--perturb", paths["pert"]],
         cli_base | {"decomposition", "robustness"}, False),
        (["plan", "--eta", "4", "--budget", "3"],
         cli_base | {"decomposition", "augmentation", "planning"}, False),
        # the envelope holds a decompose result
        (["verify", paths["envelope"]], cli_base | {"decomposition"}, False),
        (["design", "--erp", "1", paths["two"]], cli_base | {"decomposition", "design"}, True),
        (["simulate", paths["two"], "--eps", "0.1", "--horizon", "300", "--format", "json"],
         cli_base | {"decomposition", "queuesim"}, True),
    ]
    for argv, modules, numpy in runs:
        loaded, has_numpy = json.loads(fresh_interpreter(code, json.dumps(argv)))
        assert (loaded, has_numpy) == (sorted(f"procflex.{m}" for m in modules), numpy), argv


def test_validate_on_a_cached_library_leaves_subprocess_unloaded(tmp_path):
    # the first run builds the Dinic library; a later cold start only loads it
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=str(tmp_path / "cache"))
    doc = tmp_path / "two.json"
    doc.write_text(json.dumps(TWO))
    code = (
        "import sys; from procflex import cli, core; code = cli.main(['validate', sys.argv[1]]);"
        " print(code, core._dinic.cache_info().misses, core._dinic() is not None,"
        " 'subprocess' in sys.modules, file=sys.stderr)"
    )
    lines = []
    for _ in range(2):
        run = subprocess.run([sys.executable, "-c", code, str(doc)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        lines.append(run.stderr)
    # validate loaded the Dinic library; only the cache miss built it
    assert lines == ["0 1 True True\n", "0 1 True False\n"]


@functools.cache
def fuzz_inputs() -> dict:
    """Input files, one fresh envelope per replayable argv and every example
    argv, built once for all fuzz examples."""
    tmp = tempfile.TemporaryDirectory()
    paths = write_inputs(tmp.name)
    argvs = [argv for group in verb_examples(paths).values() for argv in group]
    envelopes = []
    for argv in argvs:
        code, out, _ = call(argv)
        assert code == 0
        if argv[0] != "verify" and out.startswith("{"):
            envelopes.append(json.loads(out))
    return {"tmp": tmp, "envelopes": envelopes, "argvs": argvs}


# values of the wrong JSON type for any option, input or seed
WRONG = [None, "x", 1.5, True, [], {}, [1, "a"], [["1"]], {"tables": 3}]


@st.composite
def mutated_envelopes(draw):
    doc = copy.deepcopy(draw(st.sampled_from(fuzz_inputs()["envelopes"])))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "options", "input", "command",
                                     "seed"]))
        options = doc["options"]
        if kind in ("drop", "retype") and isinstance(options, dict) and options:
            key = draw(st.sampled_from(sorted(options)))
            if kind == "drop":
                del options[key]
            else:
                options[key] = draw(st.sampled_from(WRONG))
        elif kind in ("options", "input"):
            doc[kind] = draw(st.sampled_from([[], None, "x", [1]]))
        elif kind == "command":
            doc["command"] = draw(st.sampled_from(["frobnicate", "verify", None, 3, ["gap"]]))
        elif kind == "seed":
            doc["seed"] = draw(st.sampled_from(["3", 1.5, None, True, [3]]))
    return doc


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    if code:
        assert out == "" and err.endswith("\n") and len(err.splitlines()) == 1, err
        assert set(json.loads(err)) == {"error", "message"}


@given(mutated_envelopes())
@settings(max_examples=200, deadline=None)
def test_fuzz_verify_on_mutated_envelopes(doc):
    path = os.path.join(fuzz_inputs()["tmp"].name, "mutated.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert_clean_exit(*call(["verify", path]))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzz_argv(data):
    argv = list(data.draw(st.sampled_from(fuzz_inputs()["argvs"])))
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["drop", "value", "verb", "flag"]))
        i = data.draw(st.integers(1, len(argv) - 1)) if len(argv) > 1 else 0
        if kind == "drop":
            del argv[i]
        elif kind == "value":
            argv[i] = data.draw(st.sampled_from(
                ["x", "1.5", "-1", "0", "", "inf", "1e400", ",", "1,2,3", "absent.json"]
            ))
        elif kind == "verb":
            argv[0] = data.draw(st.sampled_from(["frobnicate", "", "--seed"]))
        else:
            argv.insert(i, data.draw(st.sampled_from(["--bogus", "--seed", "--best"])))
    assert_clean_exit(*call(argv))
