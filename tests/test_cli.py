import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

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
    assert "frame validity ceiling exceeded: |W|=7" in res.output


def test_correspondence_model_honours_max_worlds():
    """``--max-worlds`` below the model's 2 worlds exits 2, as it does
    for ``frame-valid``."""
    res = run(
        "correspondence", "--model", str(FIXTURES / "remark25.json"),
        "--max-worlds", "1",
    )
    assert res.exit_code == 2
    assert "frame validity ceiling exceeded" in res.output


@pytest.mark.parametrize("option", ["--max-size", "--max-vars"])
def test_kmodel_cem_sweep_empty_pool_exits_2(option):
    res = run("kmodel", "cem-sweep", "--max-size", "3", "--max-vars", "1", option, "0")
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output


@pytest.mark.parametrize("model", ["remark25.json", "order_faulty.json"])
def test_frame_props_json_golden(model):
    """The JSON report of a selection model and of an ordering model that
    fails every condition, byte for byte."""
    res = run("frame-props", "--model", str(FIXTURES / model), "--format", "json")
    assert res.exit_code == 0
    golden = FIXTURES / "golden" / f"frame-props-{model}"
    assert res.output == golden.read_text()


@pytest.mark.parametrize("jobs", [0, (os.cpu_count() or 1) + 1])
def test_kmodel_cem_sweep_jobs_out_of_range_exits_2(jobs):
    """Click rejects the value before the command runs, so no worker starts."""
    res = run("kmodel", "cem-sweep", "--max-size", "3", "--jobs", str(jobs))
    assert res.exit_code == 2
    assert "Invalid value for '--jobs'" in res.output


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
        ("--max-worlds", _INTS, _OPTIONAL),
        ("--max-domain", _INTS, _OPTIONAL),
        ("--max-arity", _INTS, _OPTIONAL),
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
        ("--jobs", st.sampled_from(["-1", "0", "1", "1"]), _OPTIONAL),
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
