"""CLI: document round-trips, exit codes, verb outputs, determinism."""

import io
import json

import pytest

from procflex import validate_instance
from procflex.cli import main


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

    for name, text in (
        ("half_index", '{"m":2,"n":2,"demand":[1,1],"supply":[1,1],"edges":[[1.5,1],[2,2]]}'),
        ("bool_size", '{"m":true,"n":1,"demand":[1],"supply":[1],"edges":[[1,1]]}'),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2 and out == "" and json.loads(err)["error"] == "DocumentError"

    not_json = tmp_path / "noise.json"
    not_json.write_text("demand: 3")
    assert run(capsys, "decompose", str(not_json))[0] == 2
    assert run(capsys, "decompose", str(tmp_path / "absent.json"))[0] == 2
    assert run(capsys, "frobnicate", files["two"])[0] == 2


def test_design_verb(files, capsys):
    code, out, _ = run(capsys, "design", "--erp", "1", files["two"])
    assert code == 0
    result = envelope(out)["result"]
    assert result["edge_count"] == 4 and result["erp"] == 1
    assert result["edges"] == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert [entry[2] for entry in result["assignment"]] == ["1/2"] * 4

    code, _, err = run(capsys, "design", "--erp", "5", files["two"])
    assert code == 1 and json.loads(err)["error"] == "TargetAboveDstarStar"


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

    bad = tmp_path / "bad_tables.json"
    bad.write_text(json.dumps({"rows": []}))
    assert run(capsys, "plan", "--eta", "2", "--budget", "3",
               "--objective", f"file:{bad}")[0] == 2
    assert run(capsys, "plan", "--eta", "2", "--budget", "3",
               "--objective", "median")[0] == 2
    assert run(capsys, "plan", "--eta", "0", "--budget", "3")[0] == 1


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
