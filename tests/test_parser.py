import pytest
from hypothesis import given

from condlog.parser import (
    MAX_NESTING,
    ParseError,
    parse_formula,
    parse_formula_file,
    print_formula,
)
from condlog.syntax import (
    And,
    Atom,
    Bot,
    Box,
    Cond,
    Dia,
    EPred,
    Eq,
    Exists,
    F,
    Forall,
    Imp,
    Iff,
    Lang,
    Not,
    Or,
    Predicate,
    Top,
    Variable,
    alpha_equal,
    build_ds,
)

from test_syntax import formulas

x, y, z = Variable(0), Variable(1), Variable(2)
G2 = Predicate(1, 2)


def test_parse_conditional_with_negation():
    got = parse_formula("F(x) > ~G(x,y)", Lang.L)
    assert got == Cond(Atom(F, (x,)), Not(Atom(G2, (x, y))))


def test_parse_dia_abbreviation():
    got = parse_formula("forall x (dia F(x))", Lang.L)
    assert got == Forall(x, Not(Cond(Atom(F, (x,)), Bot())))


def test_parse_rejects_identity_outside_leq():
    with pytest.raises(ParseError):
        parse_formula("x = y", Lang.L)
    assert parse_formula("x = y", Lang.LEQ) == Eq(x, y)


def test_parse_rejects_e_outside_le():
    with pytest.raises(ParseError):
        parse_formula("E(x)", Lang.L)
    assert parse_formula("E(x)", Lang.LE) == EPred(x)
    # under L= the existence predicate abbreviates an identity quantification
    assert parse_formula("E(x)", Lang.LEQ) == Exists(y, Eq(x, y))


def test_parse_derived_connectives():
    assert parse_formula("F(x) & G(y)", Lang.L) == And(
        Atom(F, (x,)), Atom(Predicate(1, 1), (y,))
    )
    assert parse_formula("top", Lang.L) == Top()
    assert parse_formula("bot", Lang.L) == Bot()
    assert parse_formula("box F(x)", Lang.L) == Box(Atom(F, (x,)))
    assert parse_formula("exists y. F(y)", Lang.L) == Exists(y, Atom(F, (y,)))


def test_parse_precedence():
    got = parse_formula("~F(x) & G(y) | H(z) -> F(x)", Lang.L)
    want = Imp(
        Or(And(Not(Atom(F, (x,))), Atom(Predicate(1, 1), (y,))), Atom(Predicate(2, 1), (z,))),
        Atom(F, (x,)),
    )
    assert got == want


def test_parse_imp_right_associative():
    got = parse_formula("A -> B -> C", Lang.L)
    a, b, c = (Atom(Predicate(i, 0)) for i in range(3))
    assert got == Imp(a, Imp(b, c))


def test_conditional_chains_need_parens():
    with pytest.raises(ParseError):
        parse_formula("A > B > C", Lang.L)
    with pytest.raises(ParseError):
        parse_formula("A -> B > C", Lang.L)
    a, b, c = (Atom(Predicate(i, 0)) for i in range(3))
    assert parse_formula("A > (B > C)", Lang.L) == Cond(a, Cond(b, c))


def test_quantifier_extends_right():
    got = parse_formula("forall x. F(x) -> G(x)", Lang.L)
    assert got == Forall(x, Imp(Atom(F, (x,)), Atom(Predicate(1, 1), (x,))))


def test_variable_and_predicate_spelling():
    assert parse_formula("P7(x12)", Lang.L) == Atom(Predicate(7, 1), (Variable(12),))
    assert parse_formula("F(x0)", Lang.L) == Atom(F, (x,))


def test_parse_error_has_span():
    with pytest.raises(ParseError) as err:
        parse_formula("F(x) >", Lang.L)
    assert err.value.span.start >= 5


def test_print_nested_conditional_parenthesized():
    a, b, c = (Atom(Predicate(i, 0)) for i in range(3))
    assert print_formula(Cond(a, Cond(b, c))) == "A > (B > C)"
    assert print_formula(Cond(Cond(a, b), c)) == "(A > B) > C"


def test_print_precedence_minimal_parens():
    a, b, c = (Atom(Predicate(i, 0)) for i in range(3))
    assert print_formula(Imp(And(a, b), c)) == "A & B -> C"
    assert print_formula(And(a, Or(b, c))) == "A & (B | C)"
    assert print_formula(Not(And(a, b))) == "~(A & B)"
    assert print_formula(Iff(a, Imp(b, c))) == "A <-> B -> C"


def test_print_sugar():
    assert print_formula(Top()) == "top"
    assert print_formula(Bot()) == "bot"
    assert print_formula(Box(Atom(F, (x,)))) == "box F(x)"
    assert print_formula(Dia(Atom(F, (x,)))) == "dia F(x)"
    assert print_formula(Exists(x, Atom(F, (x,)))) == "exists x. F(x)"


def test_roundtrip_ds():
    ds = build_ds()
    assert alpha_equal(parse_formula(print_formula(ds), Lang.L), ds)
    for text in (
        "A <-> B -> C",
        "forall x. E(x) <-> F(x)",
        # top and bot are F over x0 only
        "forall y. F(y) -> F(y)",
        "~(F(x) > ~forall y. F(y) -> F(y))",
    ):
        assert print_formula(parse_formula(text, Lang.LE)) == text


def test_roundtrip_quantifier_in_left_position():
    phi = And(Forall(x, Atom(F, (x,))), Atom(Predicate(1, 0)))
    assert alpha_equal(parse_formula(print_formula(phi), Lang.L), phi)


def test_formula_file():
    text = "# corpus\nF(x) > G(x)\n\n~F(y)  # trailing\n"
    got = parse_formula_file(text, Lang.L)
    assert len(got) == 2


@given(formulas())
def test_roundtrip_property(phi):
    assert alpha_equal(parse_formula(print_formula(phi), Lang.L), phi)


@given(formulas(lang=Lang.LEQ))
def test_roundtrip_property_identity(phi):
    assert alpha_equal(parse_formula(print_formula(phi), Lang.LEQ), phi)


_AT_THE_LIMIT = {
    "parentheses": "(" * MAX_NESTING + "F(x)" + ")" * MAX_NESTING,
    "negations": "~" * MAX_NESTING + "F(x)",
    "implications": " -> ".join(["F(x)"] * (MAX_NESTING + 1)),
    "conjunctions": " & ".join(["F(x)"] * (MAX_NESTING + 1)),
    "disjunctions": " | ".join(["F(x)"] * (MAX_NESTING + 1)),
    "conditionals": "F(x) > (" * (MAX_NESTING // 2) + "F(x)" + ")" * (MAX_NESTING // 2),
    "existentials": "exists x. " * MAX_NESTING + "F(x)",
    "diamonds": "dia " * MAX_NESTING + "F(x)",
    "boxes": "box " * MAX_NESTING + "F(x)",
}


@pytest.mark.parametrize("text", _AT_THE_LIMIT.values(), ids=_AT_THE_LIMIT)
def test_a_formula_at_the_nesting_limit_survives_the_recursive_readers(text):
    """Printing, re-parsing, free variables, the finite evaluator and the K
    engine all recurse on the tree; at MAX_NESTING none of them overflows
    the stack, and one level more is refused with the limit named."""
    import json
    from pathlib import Path

    from condlog import kmodel, semantics
    from condlog.fileformats import load_model
    from condlog.syntax import free_variables

    phi = parse_formula(text)
    assert parse_formula(print_formula(phi)) == phi
    g = {v: 0 for v in free_variables(phi)}
    fixture = Path(__file__).parent / "fixtures" / "remark25.json"
    model = load_model(json.loads(fixture.read_text()))
    semantics.extension(model, g, phi)
    for w in (kmodel.MINUS_INF, -1):
        kmodel.eval_k(phi, w, {v: -1 for v in g})
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} levels"):
        parse_formula(f"({text})")


# ---------------------------------------------------------------------------
# Pinned behaviour: sha256 digests of the printed text of a seeded corpus and
# of what the parser makes of those texts, of seeded one-character mutations
# of them, and of every nesting construct at and past MAX_NESTING, in all
# three languages.  A parse result is the tree, written one distinct node a
# line (so a <-> chain at the limit stays small), or the error's message and
# span.

_LANGS = (Lang.L, Lang.LE, Lang.LEQ)
_NEST_VARIABLES = [Variable(i) for i in (0, 1, 2, 5)]
_NEST_PREDICATES = [Predicate(0, 1), Predicate(1, 2), Predicate(3, 0), Predicate(12, 1)]


def _tree(phi):
    from condlog.syntax import Formula

    lines, numbers, seen = [], {}, {}

    def visit(node):
        got = seen.get(id(node))
        if got is not None:
            return got
        parts = [
            str(visit(v)) if isinstance(v, Formula) else repr(v)
            for v in (getattr(node, f) for f in node.__dataclass_fields__)
        ]
        line = f"{type(node).__name__}({', '.join(parts)})"
        num = numbers.setdefault(line, len(lines))
        if num == len(lines):
            lines.append(line)
        seen[id(node)] = num
        return num

    visit(phi)
    return "; ".join(lines)


def _nest(rng, depth, lang):
    """A random formula over every derived constructor."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.randrange(6)
        if kind == 0:
            return Top()
        if kind == 1:
            return Bot()
        if kind == 2 and lang is Lang.LEQ:
            return Eq(rng.choice(_NEST_VARIABLES), rng.choice(_NEST_VARIABLES))
        if kind == 3 and lang is Lang.LE:
            return EPred(rng.choice(_NEST_VARIABLES))
        pred = rng.choice(_NEST_PREDICATES)
        return Atom(pred, tuple(rng.choice(_NEST_VARIABLES) for _ in range(pred.arity)))
    kind = rng.randrange(11)

    def sub():
        return _nest(rng, depth - 1, lang)

    if kind < 5:
        return (And, Or, Iff, Imp, Cond)[kind](sub(), sub())
    if kind < 8:
        return (Box, Dia, Not)[kind - 5](sub())
    return (Exists, Forall, Exists)[kind - 8](rng.choice(_NEST_VARIABLES), sub())


def _pinned_corpus():
    import random

    from condlog.corpus import formula_corpus
    from condlog.hilbert import SCHEMAS, generate_instance

    out = []
    for lang in _LANGS:
        out += formula_corpus(19, 200, 12, lang)
        rng = random.Random(f"nests {lang}")
        out += [_nest(rng, 5, lang) for _ in range(200)]
    rng = random.Random(19)
    pool = formula_corpus(20, 40, 6, Lang.LEQ)
    for schema in SCHEMAS:
        out += [generate_instance(schema, rng, pool) for _ in range(15)]
    return out


def _mutations(texts):
    """Two seeded one-character deletions, insertions or replacements of
    each text."""
    import random

    rng = random.Random(7)
    alphabet = "()~&|<->=.,xyzFGAEP01 \t$#é"
    out = []
    for text in texts:
        for _ in range(2):
            i = rng.randrange(len(text) + 1)
            c = rng.choice(alphabet)
            kind = rng.randrange(3)
            if kind == 0:
                out.append(text[:i] + text[i + 1:])
            else:
                out.append(text[:i] + c + text[i + (kind == 1):])
    return out


def _nesting_texts():
    def at(n):
        yield "(" * n + "F(x)" + ")" * n
        for op in ("~", "box ", "dia ", "exists x. ", "forall y "):
            yield op * n + "F(x)"
        for op in (" -> ", " & ", " | ", " <-> "):
            yield op.join(["F(x)"] * (n + 1))
        yield "F(x) > (" * (n // 2) + "F(x)" + ")" * (n // 2)

    return [*at(MAX_NESTING), *at(MAX_NESTING + 1), *at(MAX_NESTING + 2)]


def _outcome(text, lang):
    try:
        return _tree(parse_formula(text, lang))
    except ParseError as err:
        return f"! {err.message} @{err.span.start}..{err.span.end}"


def _sha256(lines):
    import hashlib

    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned_texts():
    return [print_formula(phi) for phi in _pinned_corpus()]


def test_printed_text_of_the_seeded_corpus_is_pinned(pinned_texts):
    assert len(pinned_texts) == 1575
    assert _sha256(pinned_texts) == (
        "34ef3b39fb4374980a1cad5703c429930dfb5112afe30c00e8044ddac34027c3"
    )


def test_parse_trees_and_errors_of_the_seeded_texts_are_pinned(pinned_texts):
    texts = pinned_texts + _mutations(pinned_texts) + _nesting_texts()
    outcomes = [_outcome(text, lang) for text in texts for lang in _LANGS]
    assert len(outcomes) == 14274
    assert _sha256(outcomes) == (
        "d7802663adf15b7d131ef306ec0e319df9ed471970f537d85b8bdca9b1da9d22"
    )
