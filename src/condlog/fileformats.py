"""JSON documents for models and proof scripts.

Model documents carry a ``kind`` ("selection", "ordering", or
"quasi-selection"), the worlds, accessibility pairs, domain, optional local
domains (omitted means globally constant), the kind-specific structure, and
an interpretation mapping predicate names to per-world tuple lists.
Selection tables are sparse; a required ``default`` field ("empty" or
"centering") resolves unlisted entries.  Proof documents name a logic and
hold numbered lines with axiom or rule justifications.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any, Optional, Sequence

from .hilbert import (
    LOGICS,
    AxiomInstance,
    ProofLine,
    ProofScript,
    RuleApplication,
)
from .parser import parse_formula
from .semantics import (
    Model,
    OrderingFrame,
    QuasiSelectionFrame,
    SelectionFrame,
    SemanticsError,
    _bits,
)
from .syntax import Predicate, predicate_name


class DocumentError(Exception):
    """A document failed schema validation; the message names the entry."""


def _require(doc: Mapping, key: str, context: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{context}: missing field {key!r}")
    return doc[key]


_SHAPES = {Mapping: "an object", list: "a list"}


def _shaped(value: Any, shape: type, what: str) -> Any:
    """The value itself, when it is a JSON object or list as required."""
    if not isinstance(value, shape):
        raise DocumentError(
            f"{what} must be {_SHAPES[shape]}, got {type(value).__name__}"
        )
    return value


def _names(value: Any, what: str) -> list[str]:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(name, str) for name in value)
        or len(set(value)) != len(value)
    ):
        raise DocumentError(
            f"{what} must be a nonempty list of distinct names, "
            f"got {type(value).__name__} {value!r:.60}"
        )
    return value


def _world_pair(value: Any, worlds: Sequence[str], what: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(f"{what} {value!r:.60} is not a pair")
    return (
        _index_of(value[0], worlds, "world"),
        _index_of(value[1], worlds, "world"),
    )


def _index_of(name: str, names: Sequence[str], what: str) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise DocumentError(f"unknown {what} {name!r}") from None


def _is_numeral(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _parse_predicate_key(key: str, arity_hint: Optional[int]) -> Predicate:
    name, slash, arity_text = key.partition("/")
    letters = {"F": 0, "G": 1, "H": 2, "A": 0, "B": 1, "C": 2, "P": 0}
    if name.startswith("P") and _is_numeral(name[1:]):
        index = int(name[1:])
    elif name in letters:
        index = letters[name]
    else:
        raise DocumentError(f"bad predicate name {key!r}")
    if slash:
        if not _is_numeral(arity_text):
            raise DocumentError(f"bad arity in predicate name {key!r}")
        return Predicate(index, int(arity_text))
    if arity_hint is None:
        raise DocumentError(
            f"predicate {key!r} has no tuples; state its arity as '{name}/n'"
        )
    return Predicate(index, arity_hint)


def load_model(doc: Mapping) -> Model:
    """Build a model from a parsed JSON document, validating the frame
    invariants; raises DocumentError naming the offending entry, also
    when an entry has the wrong JSON shape."""
    _shaped(doc, Mapping, "model document")
    kind = _require(doc, "kind", "model")
    if kind not in ("selection", "ordering", "quasi-selection"):
        raise DocumentError(f"unknown kind {kind!r}")
    worlds = _names(_require(doc, "worlds", "model"), "worlds")
    domain = _names(_require(doc, "domain", "model"), "domain")
    n, nd = len(worlds), len(domain)

    r = [0] * n
    for pair in _shaped(doc.get("R", []), list, "R"):
        w, v = _world_pair(pair, worlds, "R entry")
        r[w] |= 1 << v

    local: Optional[list[int]] = None
    if "localDomains" in doc:
        local = [0] * n
        local_doc = _shaped(doc["localDomains"], Mapping, "localDomains")
        for wname, elements in local_doc.items():
            w = _index_of(wname, worlds, "world")
            for el in _shaped(elements, list, f"localDomains of {wname}"):
                local[w] |= 1 << _index_of(el, domain, "domain element")

    frame: "SelectionFrame | OrderingFrame | QuasiSelectionFrame"
    try:
        if kind == "selection":
            frame = _selection_frame(doc, worlds, domain, r, local)
        elif kind == "ordering":
            order = _require(doc, "order", "ordering model")
            frame = _ordering_frame(order, worlds, domain, r, local)
        else:
            strategy = _require(doc, "quasiStrategy", "quasi-selection model")
            if strategy != "min-of-order":
                raise DocumentError(f"unknown quasi strategy {strategy!r}")
            order = _require(doc, "order", "quasi-selection model")
            frame = QuasiSelectionFrame(
                _ordering_frame(order, worlds, domain, r, local)
            )
    except SemanticsError as err:
        raise DocumentError(str(err)) from None

    interp: dict[Predicate, dict[int, frozenset]] = {}
    interp_doc = _shaped(doc.get("interpretation", {}), Mapping, "interpretation")
    for key, per_world in interp_doc.items():
        if not isinstance(key, str):
            raise DocumentError(f"bad predicate name {key!r}")
        context = f"interpretation of {key}"
        _shaped(per_world, Mapping, context)
        for wname, tuples in per_world.items():
            for tup in _shaped(tuples, list, f"{context} at {wname}"):
                _shaped(tup, list, f"tuple of {context} at {wname}")
        arity_hint = next(
            (len(tup) for tuples in per_world.values() for tup in tuples), None
        )
        pred = _parse_predicate_key(key, arity_hint)
        slot: dict[int, frozenset] = {}
        for wname, tuples in per_world.items():
            w = _index_of(wname, worlds, "world")
            seen = set()
            for tup in tuples:
                if len(tup) != pred.arity:
                    raise DocumentError(
                        f"interpretation of {key} at {wname}: tuple {tup!r} "
                        f"has arity {len(tup)}, expected {pred.arity}"
                    )
                seen.add(tuple(_index_of(el, domain, "domain element") for el in tup))
            slot[w] = frozenset(seen)
        interp[pred] = slot

    try:
        return Model(frame, interp)
    except SemanticsError as err:
        raise DocumentError(str(err)) from None


def _selection_frame(doc, worlds, domain, r, local) -> SelectionFrame:
    default = _require(doc, "default", "selection model")
    entries: dict[tuple[int, int], int] = {}
    for i, entry in enumerate(_shaped(doc.get("selection", []), list, "selection")):
        context = f"selection entry {i}"
        _shaped(entry, Mapping, context)
        p = 0
        for name in _shaped(_require(entry, "P", context), list, f"{context} P"):
            p |= 1 << _index_of(name, worlds, "world")
        w = _index_of(_require(entry, "w", context), worlds, "world")
        out = 0
        for name in _shaped(_require(entry, "out", context), list, f"{context} out"):
            out |= 1 << _index_of(name, worlds, "world")
        entries[(p, w)] = out
    return SelectionFrame.build(
        len(worlds),
        r,
        entries,
        default,
        len(domain),
        local,
        tuple(worlds),
        tuple(domain),
    )


def _ordering_frame(order_doc, worlds, domain, r, local) -> OrderingFrame:
    pairs: dict[int, list[tuple[int, int]]] = {}
    for wname, entry_pairs in _shaped(order_doc, Mapping, "order").items():
        w = _index_of(wname, worlds, "world")
        context = f"order entry at {wname}"
        pairs[w] = [
            _world_pair(pair, worlds, context)
            for pair in _shaped(entry_pairs, list, f"order at {wname}")
        ]
    return OrderingFrame.build(
        len(worlds), r, pairs, len(domain), local, tuple(worlds), tuple(domain)
    )


def dump_model(model: Model) -> dict:
    """Serialize back to the document schema."""
    frame = model.frame
    worlds = list(frame.world_names)
    domain = list(frame.domain_names)
    n = frame.n_worlds
    doc: dict[str, Any] = {
        "worlds": worlds,
        "domain": domain,
        "R": [
            [worlds[w], worlds[v]]
            for w in range(n)
            for v in _bits(frame.r[w])
        ],
        "localDomains": {
            worlds[w]: [domain[a] for a in _bits(frame.local[w])] for w in range(n)
        },
    }
    if isinstance(frame, SelectionFrame):
        doc["kind"] = "selection"
        doc["default"] = "empty"
        doc["selection"] = [
            {
                "P": [worlds[v] for v in _bits(p)],
                "w": worlds[w],
                "out": [worlds[v] for v in _bits(frame.table[w][p])],
            }
            for w in range(n)
            for p in range(1 << n)
            if frame.table[w][p]
        ]
    else:
        order_frame = frame.order if isinstance(frame, QuasiSelectionFrame) else frame
        doc["order"] = {
            worlds[w]: [
                [worlds[a], worlds[b]]
                for a in range(n)
                for b in _bits(order_frame.bge[w][a])
            ]
            for w in range(n)
        }
        if isinstance(frame, QuasiSelectionFrame):
            doc["kind"] = "quasi-selection"
            doc["quasiStrategy"] = "min-of-order"
        else:
            doc["kind"] = "ordering"
    interp_doc: dict[str, dict[str, list]] = {}
    for pred, per_world in model.interp.items():
        key = f"{predicate_name(pred)}/{pred.arity}"
        interp_doc[key] = {
            worlds[w]: sorted([domain[a] for a in tup] for tup in tuples)
            for w, tuples in per_world.items()
        }
    if interp_doc:
        doc["interpretation"] = interp_doc
    return doc


def load_proof(doc: Mapping) -> ProofScript:
    """Parse a proof document; formulas are read in the script's language."""
    logic_name = _require(doc, "logic", "proof")
    logic = LOGICS.get(logic_name)
    if logic is None:
        raise DocumentError(
            f"unknown logic {logic_name!r}; expected one of {sorted(LOGICS)}"
        )
    lines = []
    for i, entry in enumerate(doc.get("lines", []), start=1):
        context = f"line {i}"
        text = _require(entry, "formula", context)
        try:
            formula = parse_formula(text, logic.lang)
        except Exception as err:
            raise DocumentError(f"{context}: {err}") from None
        just_doc = _require(entry, "just", context)
        if "axiom" in just_doc:
            just: "AxiomInstance | RuleApplication" = AxiomInstance(
                str(just_doc["axiom"])
            )
        elif "rule" in just_doc:
            premises = tuple(just_doc.get("premises", []))
            for p in premises:
                if not isinstance(p, int) or not 1 <= p < i:
                    raise DocumentError(
                        f"{context}: premise {p!r} does not name an earlier line"
                    )
            just = RuleApplication(str(just_doc["rule"]), premises)
        else:
            raise DocumentError(f"{context}: justification needs 'axiom' or 'rule'")
        lines.append(ProofLine(formula, just))
    try:
        return ProofScript(logic_name, tuple(lines))
    except Exception as err:
        raise DocumentError(str(err)) from None


def dump_proof(script: ProofScript) -> dict:
    from .parser import print_formula

    lines = []
    for line in script.lines:
        just: dict[str, Any]
        if isinstance(line.justification, AxiomInstance):
            just = {"axiom": line.justification.schema}
        else:
            just = {
                "rule": line.justification.rule,
                "premises": list(line.justification.premises),
            }
        lines.append({"formula": print_formula(line.formula), "just": just})
    return {"logic": script.logic, "lines": lines}


def loads_model(text: str) -> Model:
    return load_model(json.loads(text))


def loads_proof(text: str) -> ProofScript:
    return load_proof(json.loads(text))
