import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from condlog.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_parse_reports_shape():
    # the defined bottom inside dia carries its own quantifier
    res = run("parse", "--formula", "forall x. dia F(x)")
    assert res.exit_code == 0
    assert "rank 2" in res.output


def test_parse_json_format():
    res = run("parse", "--formula", "F(x) > G(x)", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["ok"] is True
    assert doc["formulas"][0]["size"] == 3


def test_parse_language_violation_exits_2():
    res = run("parse", "--formula", "x = y")
    assert res.exit_code == 2
    assert "L=" in res.output


def test_eval_remark25_box():
    res = run(
        "eval",
        "--model", str(FIXTURES / "remark25.json"),
        "--world", "1",
        "--formula", "box P(x)",
        "--assign", "x=a",
    )
    assert res.exit_code == 0
    assert "True" in res.output


def test_eval_false_exits_1():
    res = run(
        "eval",
        "--model", str(FIXTURES / "remark25.json"),
        "--world", "2",
        "--formula", "P(x)",
        "--assign", "x=a",
    )
    assert res.exit_code == 1


def test_eval_unknown_world_exits_2():
    res = run(
        "eval",
        "--model", str(FIXTURES / "remark25.json"),
        "--world", "9",
        "--formula", "P(x)",
        "--assign", "x=a",
    )
    assert res.exit_code == 2


def test_model_valid_counterexample():
    res = run(
        "model-valid",
        "--model", str(FIXTURES / "remark25.json"),
        "--formula", "P(x)",
        "--format", "json",
    )
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["counterexample"]["world"] == "2"


def test_frame_valid_identity():
    res = run(
        "frame-valid",
        "--model", str(FIXTURES / "remark25.json"),
        "--formula", "F(x) > F(x)",
    )
    assert res.exit_code == 0


def test_frame_valid_dia_fails():
    res = run(
        "frame-valid",
        "--model", str(FIXTURES / "remark25.json"),
        "--formula", "dia F(x)",
    )
    assert res.exit_code == 1


def test_frame_props_json():
    res = run(
        "frame-props", "--model", str(FIXTURES / "remark25.json"), "--format", "json"
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["conditions"]["weaklyStalnakerian"] is True
    assert doc["conditions"]["stalnakerian"] is False


@pytest.mark.parametrize(
    "field, value",
    [("worlds", 1), ("selection", [5]), ("domain", "ab")],
)
def test_frame_props_malformed_model_exits_2(tmp_path, field, value):
    doc = json.loads((FIXTURES / "remark25.json").read_text())
    doc[field] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    res = run("frame-props", "--model", str(path))
    assert res.exit_code == 2, res.output
    assert field in res.output
    assert "Traceback" not in res.output


def test_prove_fixture_and_mutation(tmp_path):
    res = run("prove", "--proof", str(FIXTURES / "mod_qc2.json"))
    assert res.exit_code == 0
    doc = json.loads((FIXTURES / "mod_qc2.json").read_text())
    doc["lines"][4]["formula"] = "~(" + doc["lines"][4]["formula"] + ")"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    res = run("prove", "--proof", str(broken), "--format", "json")
    assert res.exit_code == 1
    assert json.loads(res.output)["line"] == 5


def test_kmodel_eval_ds():
    res = run(
        "kmodel", "eval", "--world=-inf", "--formula", "@" + str(FIXTURES / "ds.cl")
    )
    assert res.exit_code == 0
    assert "True" in res.output


def test_kmodel_eval_rejects_foreign_predicate():
    res = run("kmodel", "eval", "--world", "-1", "--formula", "G(x)", "--assign", "x=-1")
    assert res.exit_code == 2
    res = run(
        "kmodel", "eval", "--world", "-1", "--formula", "G(x)",
        "--assign", "x=-1", "--empty-predicates",
    )
    assert res.exit_code == 1  # empty predicate: false


def test_kmodel_denote_negative_assignment():
    res = run(
        "kmodel", "denote", "--formula", "F(x)", "--assign", "x=-3",
        "--format", "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["results"][0]["denotation"]["intervals"] == [[-3, -1]]


def test_kmodel_truncate_roundtrip(tmp_path):
    out = tmp_path / "k3.json"
    res = run("kmodel", "truncate", "--n", "3", "--out", str(out))
    assert res.exit_code == 0
    res = run(
        "eval",
        "--model", str(out),
        "--world", "-inf",
        "--formula", "dia F(x)",
        "--assign", "x=-2",
    )
    assert res.exit_code == 0


def test_kmodel_cem_sweep_small():
    res = run(
        "kmodel", "cem-sweep", "--max-size", "4", "--max-vars", "2",
        "--samples", "20", "--format", "json",
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["cem"]["ok"] is True


def test_kmodel_probe():
    res = run("kmodel", "probe", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["uniformityViolated"] is True


def test_search_frames_count():
    res = run(
        "search", "frames", "--max-worlds", "1", "--max-domain", "1",
        "--require", "Stalnakerian", "--format", "json",
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["count"] == 2  # with and without the loop


def test_search_ds_no_model():
    res = run(
        "search", "ds", "--max-worlds", "2", "--max-domain", "1",
    )
    assert res.exit_code == 0
    assert "no model found" in res.output


def test_search_ds_control_finds_model():
    res = run(
        "search", "ds", "--max-worlds", "2", "--max-domain", "2",
        "--require", "Success", "--require", "Uniqueness",
    )
    assert res.exit_code == 1
    assert "satisfying point" in res.output


def test_search_compactness():
    res = run("search", "compactness", "--n", "2", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["found"] is True


def test_correspondence_model():
    res = run(
        "correspondence", "--model", str(FIXTURES / "remark25.json"),
        "--format", "json",
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["agree"] is True and doc["instanceValid"] is True


def test_convert_requires_stalnakerian():
    res = run(
        "convert", "--model", str(FIXTURES / "remark25.json"), "--to", "ordering"
    )
    assert res.exit_code == 1
    assert "LA" in res.output


def test_convert_ordering_to_selection(tmp_path):
    k3 = tmp_path / "k3.json"
    run("kmodel", "truncate", "--n", "3", "--out", str(k3))
    out = tmp_path / "sel.json"
    res = run("convert", "--model", str(k3), "--to", "selection", "--out", str(out))
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "selection"
