import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from condlog.fileformats import (
    DocumentError,
    dump_model,
    dump_proof,
    load_model,
    load_proof,
    loads_model,
)
from condlog.frameprops import check_selection_props
from condlog.hilbert import mod_theorem_proof, verify_proof
from condlog.semantics import (
    Model,
    OrderingFrame,
    QuasiSelectionFrame,
    SelectionFrame,
    evaluate,
    extension,
)
from condlog.syntax import Atom, Box, Cond, F, Predicate, Variable

FIXTURES = Path(__file__).parent / "fixtures"

x = Variable(0)


def read_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def test_load_remark25_document():
    model = load_model(read_fixture("remark25.json"))
    assert isinstance(model.frame, SelectionFrame)
    rep = check_selection_props(model.frame)
    assert rep.weakly_stalnakerian and not rep.stalnakerian
    # the footnote interpretation is part of the fixture
    p = Predicate(0, 1)
    assert evaluate(model, 0, {x: 0}, Box(Atom(p, (x,))))
    assert not evaluate(model, 1, {x: 0}, Atom(p, (x,)))


def test_load_rejects_selection_outside_r():
    doc = {
        "kind": "selection",
        "worlds": ["1", "2"],
        "R": [["1", "1"], ["2", "2"], ["2", "1"]],
        "domain": ["a"],
        "default": "empty",
        "selection": [{"P": ["2"], "w": "1", "out": ["2"]}],
    }
    with pytest.raises(DocumentError) as err:
        load_model(doc)
    assert "R(w)" in str(err.value)


def test_load_defaults_to_constant_domains():
    doc = {
        "kind": "selection",
        "worlds": ["1"],
        "R": [["1", "1"]],
        "domain": ["a", "b"],
        "default": "centering",
    }
    model = load_model(doc)
    assert model.frame.local == (0b11,)


def test_load_ordering_and_quasi():
    base = {
        "worlds": ["u", "v"],
        "R": [["u", "u"], ["u", "v"], ["v", "v"]],
        "domain": ["a"],
        "order": {"u": [["u", "u"], ["u", "v"], ["v", "v"]], "v": [["v", "v"]]},
    }
    ordering = load_model({**base, "kind": "ordering"})
    assert isinstance(ordering.frame, OrderingFrame)
    quasi = load_model(
        {**base, "kind": "quasi-selection", "quasiStrategy": "min-of-order"}
    )
    assert isinstance(quasi.frame, QuasiSelectionFrame)
    fx = Atom(F, (x,))
    gx = Atom(Predicate(1, 1), (x,))
    m = Model(
        quasi.frame,
        {F: {1: frozenset({(0,)})}, Predicate(1, 1): {1: frozenset({(0,)})}},
    )
    assert evaluate(m, 0, {x: 0}, Cond(fx, gx))


def test_load_rejects_order_outside_r():
    doc = {
        "kind": "ordering",
        "worlds": ["u", "v"],
        "R": [["u", "u"], ["v", "v"]],
        "domain": ["a"],
        "order": {"u": [["u", "v"]]},
    }
    with pytest.raises(DocumentError):
        load_model(doc)


def test_load_rejects_unknown_names():
    doc = {
        "kind": "selection",
        "worlds": ["1"],
        "R": [["1", "9"]],
        "domain": ["a"],
        "default": "empty",
    }
    with pytest.raises(DocumentError) as err:
        load_model(doc)
    assert "'9'" in str(err.value)


def test_interpretation_arity_checked():
    doc = {
        "kind": "selection",
        "worlds": ["1"],
        "R": [["1", "1"]],
        "domain": ["a"],
        "default": "empty",
        "interpretation": {"F/1": {"1": [["a", "a"]]}},
    }
    with pytest.raises(DocumentError) as err:
        load_model(doc)
    assert "arity" in str(err.value)


def test_model_roundtrip():
    model = load_model(read_fixture("remark25.json"))
    doc = dump_model(model)
    again = load_model(doc)
    assert again.frame.table == model.frame.table
    assert again.frame.r == model.frame.r
    p = Predicate(0, 1)
    assert extension(again, {x: 0}, Atom(p, (x,))) == extension(
        model, {x: 0}, Atom(p, (x,))
    )


def test_load_proof_fixture():
    script = load_proof(read_fixture("mod_qc2.json"))
    assert len(script.lines) >= 2
    assert verify_proof(script).accepted
    assert script == mod_theorem_proof()


def test_proof_roundtrip():
    script = mod_theorem_proof()
    again = load_proof(json.loads(json.dumps(dump_proof(script))))
    assert again == script


def test_proof_rejects_bad_premise_index():
    doc = {
        "logic": "QC2",
        "lines": [
            {"formula": "F(x) -> F(x)", "just": {"axiom": "18"}},
            {"formula": "F(x)", "just": {"rule": "25", "premises": [1, 5]}},
        ],
    }
    with pytest.raises(DocumentError) as err:
        load_proof(doc)
    assert "earlier line" in str(err.value)


def test_proof_rejects_wrong_language():
    doc = {
        "logic": "QC2",
        "lines": [{"formula": "x = x", "just": {"axiom": "28"}}],
    }
    with pytest.raises(DocumentError):
        load_proof(doc)


def test_empty_proof_is_valid():
    script = load_proof({"logic": "QST", "lines": []})
    assert verify_proof(script).accepted


def test_loads_model_from_text():
    model = loads_model((FIXTURES / "remark25.json").read_text())
    assert model.frame.n_worlds == 2


_NAMES = st.sampled_from(["1", "2", "a", "b", "P/1", "F", "F/x", "empty", "centering"])
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _NAMES
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_NAMES | st.text(max_size=2), children, max_size=3),
    max_leaves=6,
)
_MODEL_FIELDS = (
    "kind", "worlds", "R", "domain", "default", "selection",
    "interpretation", "localDomains", "order", "quasiStrategy",
)


def _paths(value, prefix=()):
    """Every position in a JSON value, as a tuple of keys and indices."""
    yield prefix
    if isinstance(value, dict):
        children = list(value.items())
    elif isinstance(value, list):
        children = list(enumerate(value))
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_documents_load_or_raise_document_error(data):
    doc = read_fixture("remark25.json")
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add field"]))
        if action == "replace":
            parent[path[-1]] = data.draw(_JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        else:
            doc[data.draw(st.sampled_from(_MODEL_FIELDS))] = data.draw(_JSON_VALUES)
    try:
        model = load_model(doc)
    except DocumentError:
        return
    assert isinstance(model, Model)


@pytest.mark.parametrize("doc", [[], 3, "model"])
def test_load_rejects_non_object_document(doc):
    with pytest.raises(DocumentError, match="model document"):
        load_model(doc)
