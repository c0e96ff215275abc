import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from condlog.cli import main
from condlog.fileformats import load_model

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



@pytest.mark.parametrize(
    "text,field",
    [
        ('{"logic": "QC2", "lines": 5}', "lines must be a list"),
        ('{"logic": "QC2", "lines": ["formula"]}', "line 1 must be an object"),
        (
            '{"logic": "QC2", "lines": [{"formula": "A > A", "just": 5}]}',
            "line 1 just must be an object",
        ),
        (
            '{"logic": "QC2", "lines": [{"formula": "A > A", '
            '"just": {"rule": "MP", "premises": 7}}]}',
            "line 1 premises must be a list",
        ),
        ('{"logic": ["QC2"], "lines": []}', "unknown logic"),
        ('"logic"', "proof document must be an object"),
        (
            '{"logic": "QC2", "lines": [{"formula": "A > A", '
            '"just": {"axiom": ["18"]}}]}',
            "line 1 axiom must be a string",
        ),
        (
            '{"logic": "QC2", "lines": [{"formula": "A > A", '
            '"just": {"rule": ["MP"], "premises": []}}]}',
            "line 1 rule must be a string",
        ),
        (
            '{"logic": "QC2", "lines": [{"formula": "A > A", "just": {"axiom": "18"}}, '
            '{"formula": "A > A", "just": {"rule": "MP", "premises": [true]}}]}',
            "premise True does not name an earlier line",
        ),
    ],
    ids=[
        "lines", "line", "just", "premises", "logic", "document",
        "axiom-list", "rule-list", "premise-bool",
    ],
)
def test_prove_malformed_document_exits_2(tmp_path, text, field):
    path = tmp_path / "proof.json"
    path.write_text(text)
    res = run("prove", "--proof", str(path))
    assert res.exit_code == 2, res.output
    assert field in res.output
    assert "Traceback" not in res.output


_MODEL = str(FIXTURES / "remark25.json")


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "--formula", "@{path}"],
        ["eval", "--model", _MODEL, "--world", "1", "--formula", "@{path}"],
        ["model-valid", "--model", _MODEL, "--formula", "@{path}"],
        ["frame-valid", "--model", _MODEL, "--formula", "@{path}"],
        ["kmodel", "eval", "--world", "-1", "--formula", "@{path}"],
        ["kmodel", "denote", "--formula", "@{path}"],
        ["frame-props", "--model", "{path}"],
        ["prove", "--proof", "{path}"],
    ],
    ids=[
        "parse", "eval", "model-valid", "frame-valid", "kmodel-eval",
        "kmodel-denote", "frame-props", "prove",
    ],
)
def test_unreadable_input_file_exits_2(tmp_path, argv, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"F(x) \xff")  # not UTF-8
    res = run(*(arg.format(path=path) for arg in argv))
    assert res.exit_code == 2, res.output
    assert str(path) in res.output
    assert "Traceback" not in res.output


def test_kmodel_eval_ds():
    res = run(
        "kmodel", "eval", "--world=-inf", "--formula", "@" + str(FIXTURES / "ds.cl")
    )
    assert res.exit_code == 0
    assert "True" in res.output


def test_kmodel_eval_above_the_minus_inf_rank_ceiling_exits_2():
    # the conditional's body has quantifier rank 9, so its -inf test set
    # needs rank 11
    body = "forall y. " * 9 + "(F(y) -> F(x))"
    res = run("kmodel", "eval", "--world=-inf", "--formula", f"forall x. ({body}) > F(x)")
    assert res.exit_code == 2, res.output
    assert "needs rank 11, above the ceiling 10" in res.output
    assert "Traceback" not in res.output


def test_kmodel_eval_above_the_normal_form_scope_ceiling_exits_2():
    # the quantifier's scope holds x and x1..x8: 9 variables
    formula = (
        "forall x. (F(x) -> F(x1)) & (F(x2) -> F(x3)) & (F(x4) -> F(x5)) "
        "& (F(x6) -> F(x7)) & F(x8)"
    )
    assign = ",".join(f"x{i}=-{i}" for i in range(1, 9))
    res = run("kmodel", "eval", "--world", "-1", "--formula", formula, "--assign", assign)
    assert res.exit_code == 2, res.output
    assert "over 9 variables, above the ceiling MAX_NF_SCOPE = 8" in res.output
    assert "Traceback" not in res.output


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


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--world", "-1_0", "--formula", "F(x)", "--assign", "x=-1"),
        ("eval", "--world", "-١", "--formula", "F(x)", "--assign", "x=-1"),
        ("eval", "--world", "-1", "--formula", "F(x)", "--assign", "x=-١"),
        ("denote", "--formula", "F(x)", "--assign", "x=-1_000"),
    ],
)
def test_kmodel_world_and_value_need_an_ascii_numeral_exits_2(argv):
    """K worlds and values read an optional '-' and an ASCII numeral, like
    every other number of the language."""
    res = run("kmodel", *argv)
    assert res.exit_code == 2
    assert "world must be" in res.output or "is not an integer" in res.output


@pytest.mark.parametrize(
    "argv",
    [
        ("denote", "--formula", "F(x)"),
        ("eval", "--world", "-1", "--formula", "F(x)"),
    ],
)
def test_kmodel_assignment_far_below_the_ceiling_exits_2(argv):
    """A value far below -1 is refused by name, not an overflow traceback."""
    from condlog.kmodel import MAX_ASSIGNMENT

    res = run("kmodel", *argv, "--assign", "x=-99999999999999999999")
    assert res.exit_code == 2, res.output
    assert "assignment value -99999999999999999999 for x" in res.output
    assert f"below -MAX_ASSIGNMENT = {-MAX_ASSIGNMENT}" in res.output
    assert "Traceback" not in res.output


def test_kmodel_truncate_above_the_ceiling_exits_2(tmp_path):
    from condlog.kmodel import MAX_TRUNCATION

    out = tmp_path / "k.json"
    res = run("kmodel", "truncate", "--n", str(MAX_TRUNCATION + 1), "--out", str(out))
    assert res.exit_code == 2
    assert "truncation ceiling exceeded" in res.output
    assert not out.exists()


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


@pytest.mark.parametrize(
    "argv, option",
    [
        (("search", "frames", "--limit", "-1"), "--limit"),
    ],
    ids=["limit"],
)
def test_numeric_option_below_its_range_exits_2(argv, option):
    """A count option below its range is refused by Click, naming it,
    before the library is reached."""
    res = run(*argv)
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}'" in res.output
    assert "Traceback" not in res.output


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


def test_correspondence_sweep_json_reports_frames_and_groups():
    res = run(
        "correspondence", "--sweep", "--max-worlds", "1", "--max-domain", "2",
        "--format", "json",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc == {
        "ok": True,
        "framesChecked": 25,
        "groupsChecked": 10,
        "agreeEverywhere": True,
        "disagreements": [],
    }
    res = run("correspondence", "--sweep", "--max-worlds", "1", "--max-domain", "2")
    assert "(R, table) groups checked: 10" in res.output


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


@pytest.mark.parametrize("command", ["truncate", "convert"])
def test_out_into_a_missing_directory_exits_2(tmp_path, command):
    k3 = tmp_path / "k3.json"
    assert run("kmodel", "truncate", "--n", "3", "--out", str(k3)).exit_code == 0
    out = tmp_path / "missing" / "x.json"
    if command == "truncate":
        res = run("kmodel", "truncate", "--n", "2", "--out", str(out))
    else:
        res = run("convert", "--model", str(k3), "--to", "selection", "--out", str(out))
    assert res.exit_code == 2, res.output
    assert f"cannot write {out}" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("correspondence", "--sweep", "--max-worlds", "9"),
        ("search", "ds", "--max-worlds", "9"),
        ("search", "frames", "--max-worlds", "7"),
    ],
)
def test_enumeration_ceiling_exits_2(args):
    res = run(*args)
    assert res.exit_code == 2
    assert "enumeration ceiling is |W| <= 4" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("correspondence", "--sweep", "--max-worlds", "1", "--max-domain", "7"),
        ("search", "ds", "--max-worlds", "1", "--max-domain", "7"),
        ("search", "frames", "--max-worlds", "1", "--max-domain", "7", "--limit", "1"),
    ],
)
def test_enumeration_domain_ceiling_exits_2(args, monkeypatch):
    """Above the domain ceiling the command stops before it tabulates any
    permutation, whose number grows as |D|!."""
    from condlog import search

    def tabulated(k):
        raise AssertionError(f"permutations of {k} tabulated above the ceiling")

    monkeypatch.setattr(search, "_perm_tables", tabulated)
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert "enumeration ceiling is |D| <= 6, asked for 7" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "args",
    [
        ("correspondence", "--sweep", "--max-worlds", "3", "--max-domain", "1"),
        ("search", "frames", "--max-worlds", "3", "--max-domain", "1"),
        ("search", "ds", "--max-worlds", "3", "--max-domain", "1",
         "--require", "Uniformity"),
    ],
)
def test_row_ceiling_exits_2(args, monkeypatch):
    """With no condition over single subsets a world of three has up to
    8^8 candidate rows: the command stops before it tabulates any
    permutation and names the count, the world, its R and the ceiling."""
    from condlog import search

    def tabulated(k):
        raise AssertionError(f"permutations of {k} tabulated above the ceiling")

    monkeypatch.setattr(search, "_perm_tables", tabulated)
    res = run(*args)
    assert res.exit_code == 2, res.output
    assert (
        "row ceiling exceeded: at |W| = 3, world 0 with R(0) = {0, 1} has "
        "65,536 candidate rows, above MAX_ROW_CANDIDATES = 4,096" in res.output
    )
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kmodel", "eval", "--world", "-1", "--formula", "F(x)", "--assign", "x²=-1"],
         "bad variable name 'x²'"),
        (["eval", "--model", _MODEL, "--world", "1", "--formula", "F(y)",
          "--assign", "x١=a"], "bad variable name 'x١'"),
        (["prove", "--proof", str(FIXTURES / "tautology_17_atoms.json")],
         "tautology check ceiling: 17 boolean atoms"),
        (["frame-props", "--model", str(FIXTURES / "selection_11_worlds.json")],
         "property check needs |W| <= 10, frame has 11"),
        (["convert", "--to", "ordering", "--model", str(FIXTURES / "quasi_one_world.json")],
         "a quasi-selection model does not convert"),
        (["frame-props", "--model", str(FIXTURES / "long_predicate_name.json")],
         "bad predicate name 'P111"),
        (["parse", "--formula", "F(x" + "1" * 5000 + ")"], "expected a variable"),
    ],
    ids=[
        "k-assign-superscript", "assign-arabic-indic", "tautology-ceiling",
        "property-ceiling", "convert-quasi", "long-predicate", "long-variable",
    ],
)
def test_input_error_names_its_cause(argv, message):
    """A library input error exits 2 with the library's own message."""
    res = run(*argv)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output


_IMP_CHAIN = " -> ".join(["F(x)"] * 3000)


@pytest.mark.parametrize(
    "argv,content,message",
    [
        (["parse", "--formula", "(" * 200 + "F(x)" + ")" * 200], None,
         "nested deeper than"),
        (["parse", "--formula", "~" * 600 + "F(x)"], None, "nested deeper than"),
        (["parse", "--formula", _IMP_CHAIN], None, "nested deeper than"),
        (["kmodel", "eval", "--world", "-1", "--assign", "x=-1", "--formula", _IMP_CHAIN],
         None, "nested deeper than"),
        (["parse", "--formula", "@{path}"], " & ".join(["F(x)"] * 1500) + "\n",
         "nested deeper than"),
        (["prove", "--proof", "{path}"],
         json.dumps({"logic": "QC2", "lines": [
             {"formula": "~" * 3000 + "A", "just": {"axiom": "18"}}]}),
         "line 1: formula nested deeper than"),
        (["prove", "--proof", "{path}"], "[" * 100_000, "cannot load proof"),
    ],
    ids=[
        "parse-parens", "parse-negations", "parse-imp-chain", "kmodel-imp-chain",
        "parse-file-conjuncts", "prove-negations", "prove-json-brackets",
    ],
)
def test_deep_input_exits_2(tmp_path, argv, content, message):
    """Input nested deeper than the parser's limit, or than json.loads can
    read, is an input error and not a RecursionError."""
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    res = run(*(arg.format(path=path) for arg in argv))
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output


def test_correspondence_model_above_validity_ceiling_exits_2(tmp_path):
    ordering = tmp_path / "k6.json"
    selection = tmp_path / "k6-selection.json"
    assert run("kmodel", "truncate", "--n", "6", "--out", str(ordering)).exit_code == 0
    res = run(
        "convert", "--model", str(ordering), "--to", "selection", "--out", str(selection)
    )
    assert res.exit_code == 0
    res = run("correspondence", "--model", str(selection))
    assert res.exit_code == 2
    assert (
        "frame validity ceiling exceeded: 2^42 interpretations x 6^1 assignments "
        "x 7 worlds is above MAX_FRAME_POINTS = 8388608 points"
    ) in res.output


def test_correspondence_model_honours_max_worlds():
    """``--max-worlds`` bounds ``--sweep``'s enumeration only: with
    ``--model`` it exits 2 and says so."""
    res = run(
        "correspondence", "--model", str(FIXTURES / "remark25.json"),
        "--max-worlds", "1",
    )
    assert res.exit_code == 2
    assert "--max-worlds bounds --sweep only" in res.output
    assert "Traceback" not in res.output


def _refuse(*args):
    raise AssertionError("work started above the ceiling")


def test_frame_valid_above_the_point_ceiling_exits_2(monkeypatch, tmp_path):
    """The points are counted before any interpretation is built: one
    binary predicate on 5 worlds and 3 elements gives 2^45
    interpretations."""
    from condlog import semantics

    monkeypatch.setattr(semantics, "_Interpretations", _refuse)
    model = tmp_path / "five.json"
    model.write_text(json.dumps({
        "kind": "selection",
        "worlds": [f"w{i}" for i in range(5)],
        "domain": ["a", "b", "c"],
        "default": "empty",
    }))
    res = run(
        "frame-valid", "--model", str(model),
        "--formula", "forall x. forall y. (P1(x,y) -> P1(x,y))",
    )
    assert res.exit_code == 2, res.output
    assert "2^45 interpretations x 3^0 assignments x 5 worlds" in res.output
    assert f"above MAX_FRAME_POINTS = {semantics.MAX_FRAME_POINTS}" in res.output
    assert "Traceback" not in res.output


def test_frame_valid_counts_points_not_worlds():
    """11 worlds with one proposition are 2^11 x 11 points, well below the
    ceiling."""
    res = run(
        "frame-valid", "--model", str(FIXTURES / "selection_11_worlds.json"),
        "--formula", "A > A",
    )
    assert res.exit_code == 0, res.output
    assert "valid on the frame" in res.output


def test_search_compactness_above_its_ceiling_exits_2(monkeypatch):
    from condlog import search

    monkeypatch.setattr(search, "_compactness_search", _refuse)
    res = run("search", "compactness", "--n", str(search.MAX_COMPACTNESS_N + 1))
    assert res.exit_code == 2, res.output
    assert f"above MAX_COMPACTNESS_N = {search.MAX_COMPACTNESS_N}" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("option", ["--max-size", "--max-vars"])
def test_kmodel_cem_sweep_empty_pool_exits_2(option):
    res = run("kmodel", "cem-sweep", "--max-size", "3", "--max-vars", "1", option, "0")
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output


@pytest.mark.parametrize(
    "argv,count",
    [(("--max-size", "9"), 851_746), (("--max-vars", "50"), 7_535_200)],
)
def test_kmodel_cem_sweep_above_the_pool_ceiling_exits_2(monkeypatch, argv, count):
    """The pool is counted by its size recurrence and refused above
    MAX_POOL before any formula of it is built."""
    from condlog import kmodel

    built = []
    monkeypatch.setattr(kmodel, "Variable", lambda i: built.append(i))
    for extra in ((), ("--axioms",)):
        res = run("kmodel", "cem-sweep", *argv, *extra)
        assert res.exit_code == 2, res.output
        assert f"holds {count} formulas" in res.output
        assert f"above the ceiling MAX_POOL = {kmodel.MAX_POOL}" in res.output
        assert "Traceback" not in res.output
    assert built == []


@pytest.mark.parametrize("model", ["remark25.json", "order_faulty.json"])
def test_frame_props_json_golden(model):
    """The JSON report of a selection model and of an ordering model that
    fails every condition, byte for byte."""
    res = run("frame-props", "--model", str(FIXTURES / model), "--format", "json")
    assert res.exit_code == 0
    golden = FIXTURES / "golden" / f"frame-props-{model}"
    assert res.output == golden.read_text()


# The sweeps at their default sizes: (golden name, argv).
SWEEP_GOLDENS = [
    ("kmodel-cem-sweep-axioms", ("kmodel", "cem-sweep", "--axioms")),
    ("correspondence-sweep", ("correspondence", "--sweep")),
    (
        "correspondence-sweep-bench",
        ("correspondence", "--sweep", "--max-worlds", "2", "--max-domain", "1"),
    ),
    ("search-ds", ("search", "ds")),
    ("search-compactness-5", ("search", "compactness", "--n", "5")),
    ("kmodel-probe", ("kmodel", "probe")),
]


@pytest.mark.parametrize(
    "name, argv", SWEEP_GOLDENS, ids=[case[0] for case in SWEEP_GOLDENS]
)
def test_sweep_json_golden(name, argv):
    """The JSON report of each sweep, byte for byte."""
    res = run(*argv, "--format", "json")
    assert res.exit_code == 0, res.output
    golden = FIXTURES / "golden" / f"{name}.json"
    assert res.output == golden.read_text()


def test_search_ds_control_witness_json_golden():
    """The control run that drops Uniformity finds a witness, so it exits
    1; its JSON report, byte for byte."""
    res = run(
        "search", "ds", "--max-worlds", "2", "--max-domain", "2",
        "--require", "Success", "--require", "Uniqueness", "--format", "json",
    )
    assert res.exit_code == 1, res.output
    golden = FIXTURES / "golden" / "search-ds-control.json"
    assert res.output == golden.read_text()


# Frame enumeration under condition sets: (golden name, options).  LA is a
# condition over one cell that enumeration once decided on whole tables.
FRAMES_GOLDENS = [
    (
        "search-frames-weakly-stalnakerian",
        ("--max-worlds", "2", "--max-domain", "1", "--require", "weaklyStalnakerian"),
    ),
    (
        "search-frames-success-uniqueness",
        (
            "--max-worlds", "2", "--max-domain", "2",
            "--require", "Success", "--require", "Uniqueness",
        ),
    ),
    (
        "search-frames-la-reflexive",
        (
            "--max-worlds", "2", "--max-domain", "1",
            "--require", "LA", "--policy", "reflexive-only",
        ),
    ),
]


@pytest.mark.parametrize(
    "name, options", FRAMES_GOLDENS, ids=[case[0] for case in FRAMES_GOLDENS]
)
def test_search_frames_json_golden(name, options):
    """The count and the first three frames of each enumeration, byte for
    byte."""
    res = run("search", "frames", *options, "--limit", "3", "--format", "json")
    assert res.exit_code == 0, res.output
    golden = FIXTURES / "golden" / f"{name}.json"
    assert res.output == golden.read_text()


def test_search_frames_limit_prints_the_frames_as_documents():
    """In text mode ``--limit`` prints the count line and then each shown
    frame as a model document, the same frames as the JSON report."""
    options = FRAMES_GOLDENS[0][1]
    res = run("search", "frames", *options, "--limit", "3")
    assert res.exit_code == 0, res.output
    first, rest = res.output.split("\n", 1)
    assert first == "23 canonical frames"
    decoder, docs = json.JSONDecoder(), []
    rest = rest.strip()
    while rest:
        doc, end = decoder.raw_decode(rest)
        docs.append(doc)
        rest = rest[end:].strip()
    assert len(docs) == 3
    for doc in docs:
        load_model(doc)
    report = run("search", "frames", *options, "--limit", "3", "--format", "json")
    assert docs == json.loads(report.output)["frames"]
    assert run("search", "frames", *options).output == "23 canonical frames\n"


@pytest.mark.parametrize("jobs", [0, 3])
def test_kmodel_cem_sweep_jobs_out_of_range_exits_2(jobs):
    """The sweeps run in one process, so ``--jobs`` is an unknown option
    whatever its value, and Click rejects it before the command runs."""
    res = run("kmodel", "cem-sweep", "--max-size", "3", "--jobs", str(jobs))
    assert res.exit_code == 2
    assert "No such option" in res.output
    assert "Traceback" not in res.output


# Formulas whose assignment values lie far apart, so that their world sets
# reach far below -1: (name, lang, formula, assignment).
FAR_APART_DENOTATIONS = [
    ("cond-million", "L", "F(x0) > F(x1)", "x0=-1,x1=-1000000"),
    ("forall-cond", "L", "forall x2. (F(x2) -> F(x1)) > F(x0)", "x0=-1,x1=-3000"),
    (
        "ray-and-intervals",
        "L",
        "(F(x0) & ~F(x1)) | (F(x2) & ~F(x3)) | ~F(x4)",
        "x0=-100000,x1=-1000,x2=-10,x3=-2,x4=-500000",
    ),
    ("cond-deep-antecedent", "L", "F(x1) > (F(x0) & ~F(x1))", "x0=-300000,x1=-7"),
    (
        "exists-identity",
        "L=",
        "exists x2. ~(x2 = x1) & ~(x2 = x0) & (F(x2) > F(x0)) & ~F(x1)",
        "x0=-4,x1=-20000",
    ),
    ("forall-material", "L", "forall x2. (F(x2) -> F(x1)) | F(x0)", "x0=-10,x1=-40000"),
]


@pytest.mark.parametrize(
    "name, lang, formula, assign",
    FAR_APART_DENOTATIONS,
    ids=[case[0] for case in FAR_APART_DENOTATIONS],
)
def test_kmodel_denote_far_apart_json_golden(name, lang, formula, assign):
    """The JSON denotation of each formula, byte for byte."""
    res = run(
        "kmodel", "denote", "--lang", lang, "--formula", formula,
        "--assign", assign, "--format", "json",
    )
    assert res.exit_code == 0
    golden = FIXTURES / "golden" / f"kmodel-denote-{name}.json"
    assert res.output == golden.read_text()


@pytest.mark.parametrize("model", ["remark25.json", "order_faulty.json"])
def test_frame_valid_json_golden(model):
    """The JSON report of a failing frame validity check on a selection and
    on an ordering frame, its countermodel dumped, byte for byte."""
    res = run(
        "frame-valid", "--model", str(FIXTURES / model),
        "--formula", "(F(x) > G(x)) -> (G(x) > F(x))", "--format", "json",
    )
    assert res.exit_code == 1
    golden = FIXTURES / "golden" / f"frame-valid-{model}"
    assert res.output == golden.read_text()


@pytest.mark.parametrize(
    "args, option",
    [
        (("correspondence", "--sweep", "--max-domain", "0"), "--max-domain"),
        (("correspondence", "--sweep", "--max-worlds", "-1"), "--max-worlds"),
        (("search", "ds", "--max-worlds", "0"), "--max-worlds"),
        (("search", "ds", "--max-domain", "0"), "--max-domain"),
        (("search", "frames", "--max-worlds", "0"), "--max-worlds"),
        (("search", "frames", "--max-domain", "-2"), "--max-domain"),
        (("kmodel", "cem-sweep", "--max-size", "3", "--samples", "-1"), "--samples"),
    ],
)
def test_empty_size_range_exits_2(args, option):
    """An empty range of sizes is a usage error, not an empty sweep."""
    res = run(*args)
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output


# ---------------------------------------------------------------------------
# Option fuzz: every command with drawn option values, sizes capped so that
# each run takes milliseconds, with zero, negative and non-numeric values.
# Whatever the values, the command exits 0, 1 or 2 and prints no traceback.

# Each pool repeats its valid values so that most runs get past the usage
# check.  An option the command requires, or whose default would make a
# sweep run for seconds, is always given (``_REQUIRED``), so a usage error
# comes from a value or from a stray argument.
_INTS = st.sampled_from(["-2", "-1", "0", "1", "1", "2", "2", "3", "x"])
_WORLDS_CAP = st.sampled_from(["-1", "0", "1", "1", "1", "x"])
_MODEL_PATHS = st.sampled_from(
    [str(FIXTURES / name) for name in ("remark25.json", "order_faulty.json")] * 3
    + [
        str(FIXTURES / name)
        for name in (
            "mod_qc2.json", "missing.json", "selection_11_worlds.json",
            "ordering_17_worlds.json", "quasi_one_world.json",
            "long_predicate_name.json", "tautology_17_atoms.json",
        )
    ]
)
_FORMULAS = st.sampled_from(
    ["F(x) > F(x)", "dia F(x)", "F(x) -> F(y)", "x = y", "E(x) > F(x)", "A & ~A",
     "forall x. F(x) > G(y)", "F(x) > G(x)", "P(x)", "F(x", "",
     "@" + str(FIXTURES / "ds.cl"), "@" + str(FIXTURES / "missing.cl")]
)
_K_WORLDS = st.sampled_from(["-inf", "-1", "-3", "-1", "0", "4", "x", "-1_0", "-١"])
_K_ASSIGN = st.sampled_from(
    ["x=-1", "y=-3,x=-2", "x=-1,y=-1", "x=-2", "x=0", "x=5", "x=a", "x", "q=-1", "",
     "x²=-1", "x=-١", "x=-1_000"]
)
_ASSIGN = st.sampled_from(
    ["x=a", "x=a", "x=a,y=a", "x=b", "y=a", "x", "q=a", "x=a,", "", "x²=a", "x١=a",
     "x" + "1" * 5000 + "=a"]
)
_LANGS = st.sampled_from(["L", "LE", "L=", "L", "Q"])
_FORMATS = st.sampled_from(["text", "json", "text", "json", "xml"])
_FLAG = st.just(None)
_REQUIRED, _OPTIONAL = True, False

# command -> [(option, values, always given)]; a None value is a flag
_COMMANDS = {
    ("parse",): [("--formula", _FORMULAS, _REQUIRED), ("--lang", _LANGS, _OPTIONAL)],
    ("eval",): [
        ("--model", _MODEL_PATHS, _REQUIRED),
        ("--world", st.sampled_from(["1", "2", "0", "9"]), _REQUIRED),
        ("--formula", _FORMULAS, _REQUIRED),
        ("--assign", _ASSIGN, _OPTIONAL),
        ("--lang", _LANGS, _OPTIONAL),
    ],
    ("model-valid",): [
        ("--model", _MODEL_PATHS, _REQUIRED),
        ("--formula", _FORMULAS, _REQUIRED),
        ("--lang", _LANGS, _OPTIONAL),
    ],
    ("frame-valid",): [
        ("--model", _MODEL_PATHS, _REQUIRED),
        ("--formula", _FORMULAS, _REQUIRED),
        ("--lang", _LANGS, _OPTIONAL),
    ],
    ("frame-props",): [("--model", _MODEL_PATHS, _REQUIRED)],
    ("convert",): [
        ("--model", _MODEL_PATHS, _REQUIRED),
        ("--to", st.sampled_from(["selection", "ordering", "graph"]), _REQUIRED),
    ],
    ("prove",): [("--proof", _MODEL_PATHS, _REQUIRED)],
    ("correspondence",): [
        ("--model", _MODEL_PATHS, _OPTIONAL),
        ("--sweep", _FLAG, _OPTIONAL),
        ("--max-worlds", _WORLDS_CAP, _REQUIRED),
        ("--max-domain", _INTS, _OPTIONAL),
    ],
    ("kmodel", "eval"): [
        ("--world", _K_WORLDS, _REQUIRED),
        ("--formula", _FORMULAS, _REQUIRED),
        ("--assign", _K_ASSIGN, _OPTIONAL),
        ("--empty-predicates", _FLAG, _OPTIONAL),
        ("--lang", _LANGS, _OPTIONAL),
    ],
    ("kmodel", "denote"): [
        ("--formula", _FORMULAS, _REQUIRED),
        ("--assign", _K_ASSIGN, _OPTIONAL),
        ("--empty-predicates", _FLAG, _OPTIONAL),
        ("--lang", _LANGS, _OPTIONAL),
    ],
    ("kmodel", "truncate"): [("--n", _INTS, _REQUIRED)],
    ("kmodel", "cem-sweep"): [
        ("--max-size", _INTS, _REQUIRED),
        ("--max-vars", _INTS, _OPTIONAL),
        ("--identity", _FLAG, _OPTIONAL),
        ("--axioms", _FLAG, _OPTIONAL),
        ("--samples", _INTS, _OPTIONAL),
        ("--seed", _INTS, _OPTIONAL),
    ],
    ("kmodel", "probe"): [],
    ("search", "frames"): [
        ("--max-worlds", _WORLDS_CAP, _REQUIRED),
        ("--max-domain", _INTS, _OPTIONAL),
        ("--require", st.sampled_from(["Success", "weaklyStalnakerian", "Bogus"]), _OPTIONAL),
        ("--policy", st.sampled_from(["all", "reflexive-only", "none"]), _OPTIONAL),
        ("--limit", _INTS, _OPTIONAL),
    ],
    ("search", "ds"): [
        ("--max-worlds", _WORLDS_CAP, _REQUIRED),
        ("--max-domain", _INTS, _OPTIONAL),
        ("--require", st.sampled_from(["Success", "Stalnakerian", "Bogus"]), _OPTIONAL),
        ("--policy", st.sampled_from(["all", "reflexive-only", "none"]), _OPTIONAL),
    ],
    ("search", "compactness"): [("--n", _INTS, _REQUIRED)],
}
_NO_FORMAT = {("kmodel", "truncate")}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_option_fuzz(data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    options = list(_COMMANDS[command])
    if command not in _NO_FORMAT:
        options.append(("--format", _FORMATS, _OPTIONAL))
    argv = list(command)
    for option, values, required in options:
        if required or data.draw(st.booleans()):
            value = data.draw(values)
            argv += [option] if value is None else [option, value]
    stray = data.draw(st.sampled_from([None] * 9 + ["--bogus", "stray", "--max-worlds"]))
    if stray is not None:
        argv.append(stray)
    res = run(*argv)
    assert res.exit_code in (0, 1, 2), (argv, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        argv, repr(res.exception),
    )
    assert "Traceback" not in res.output, argv


# ---------------------------------------------------------------------------
# Input branches: each exits 2 naming its cause, or answers.


@pytest.mark.parametrize("command", [["denote"], ["eval", "--world", "-inf"]])
def test_kmodel_foreign_predicate_under_a_quantifier_exits_2(command):
    res = run("kmodel", *command, "--formula", "forall x. G(x)")
    assert res.exit_code == 2, res.output
    assert "predicates [(1, 1)] are empty in K" in res.output
    assert "Traceback" not in res.output


def test_kmodel_foreign_predicate_under_a_quantifier_read_as_empty():
    res = run("kmodel", "denote", "--formula", "forall x. G(x)", "--empty-predicates")
    assert res.exit_code == 0, res.output
    assert res.output == "forall x. G(x)  ->  {}\n"


def test_kmodel_existence_predicate_under_a_quantifier_reads_as_top():
    res = run("kmodel", "denote", "--formula", "forall x. E(x)", "--lang", "LE")
    assert res.exit_code == 0, res.output
    assert res.output == "forall x. E(x)  ->  {-inf (..,-1]}\n"


def _changed_fixture(path, fixture, **changes):
    """``path``, holding the fixture document with some entries changed."""
    doc = json.loads((FIXTURES / fixture).read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["parse", "--formula", "@{comments}"], "no formulas in"),
        (["eval", "--model", _MODEL, "--world", "1", "--formula", "P(x)",
          "--assign", "x"], "assignment 'x' is not name=value"),
        (["eval", "--model", _MODEL, "--world", "1", "--formula", "P(x)",
          "--assign", "x=zz"], "domain element 'zz' not in the model"),
        (["correspondence", "--model", str(FIXTURES / "order_faulty.json")],
         "need a selection model"),
        (["correspondence", "--model", str(FIXTURES / "quasi_one_world.json")],
         "need a selection model"),
        (["frame-props", "--model", "{max_of_order}"], "cannot load model"),
        (["frame-props", "--model", "{bad_arity}"], "cannot load model"),
        (["kmodel", "truncate", "--n", "0"], "truncation needs n >= 1"),
    ],
    ids=[
        "parse-comments-only", "assign-no-value", "assign-unknown-element",
        "correspondence-ordering", "correspondence-quasi", "quasi-strategy",
        "predicate-arity", "truncate-zero",
    ],
)
def test_input_branch_exits_2_naming_its_cause(tmp_path, argv, message):
    comments = tmp_path / "comments.cl"
    comments.write_text("# only comments\n\n   # and blanks\n")
    paths = {
        "comments": comments,
        "max_of_order": _changed_fixture(
            tmp_path / "quasi.json", "quasi_one_world.json",
            quasiStrategy="max-of-order",
        ),
        "bad_arity": _changed_fixture(
            tmp_path / "arity.json", "remark25.json",
            interpretation={"P/x": {"1": [["a"]], "2": []}},
        ),
    }
    res = run(*(arg.format(**paths) for arg in argv))
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert "Traceback" not in res.output


def test_frame_props_of_a_quasi_selection_model_reads_its_order():
    res = run("frame-props", "--model", str(FIXTURES / "quasi_one_world.json"))
    assert res.exit_code == 0, res.output
    assert "Transitivity: True" in res.output


def test_parse_json_of_a_chain_above_the_ast_ceiling_exits_2():
    import time

    from condlog.cli import MAX_AST_NODES

    start = time.perf_counter()
    res = run("parse", "--formula", " <-> ".join(["F(x)"] * 24), "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2, res.output
    assert f"the formula has 67108857 tree nodes, above {MAX_AST_NODES}" in res.output
    # text mode builds no ast
    res = run("parse", "--formula", " <-> ".join(["F(x)"] * 24))
    assert res.exit_code == 0, res.output
    assert "[size 67108857, rank 0]" in res.output


def test_parse_json_of_a_chain_below_the_ast_ceiling_is_unchanged():
    import hashlib

    res = run("parse", "--formula", " <-> ".join(["F(x)"] * 12), "--format", "json")
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "1082f4509319ea5c50a288ef707ac23bca42512672d03e7b53cb7f721d300cd8"
    )
