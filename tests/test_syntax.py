import pytest
from hypothesis import given, strategies as st

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
    FormulaError,
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
    counting_exists,
    free_variables,
    language,
    material_reduct,
    metrics,
    predicates,
    quantifier_rank,
    size,
    substitute,
)

x, y, z = Variable(0), Variable(1), Variable(2)
G = Predicate(1, 1)
P2 = Predicate(2, 2)


def fx(v=x):
    return Atom(F, (v,))


def test_atom_arity_checked():
    with pytest.raises(FormulaError):
        Atom(F, (x, y))
    with pytest.raises(FormulaError):
        Atom(P2, (x,))


def test_derived_connectives_expand_to_core():
    assert And(fx(), fx(y)) == Not(Imp(fx(), Not(fx(y))))
    assert Or(fx(), fx(y)) == Imp(Not(fx()), fx(y))
    assert Exists(x, fx()) == Not(Forall(x, Not(fx())))
    assert Box(fx()) == Cond(Not(fx()), Bot())
    assert Dia(fx()) == Not(Cond(fx(), Bot()))
    assert Bot() == Not(Top())
    # != inverts ==, across node kinds too, and defers on a non-formula
    assert not And(fx(), fx(y)) != Not(Imp(fx(), Not(fx(y))))
    assert fx() != fx(y)
    assert fx() != Not(fx())
    assert fx() != "F(x)"
    assert fx().__ne__("F(x)") is NotImplemented


def test_language_of_formulas():
    assert language(fx()) is Lang.L
    assert language(Eq(x, y)) is Lang.LEQ
    assert language(EPred(x)) is Lang.LE
    with pytest.raises(FormulaError):
        language(And(Eq(x, y), EPred(x)))


def test_free_variables_quantifier():
    assert free_variables(Forall(x, fx())) == frozenset()
    assert free_variables(Cond(fx(), Not(fx(y)))) == {x, y}


def test_free_variables_ds_third_conjunct_closed():
    third = Forall(x, Exists(y, Cond(Or(fx(), fx(y)), Not(fx()))))
    assert free_variables(third) == frozenset()


def test_substitute_simple():
    # forall x F(x) -> F(x), substituting y for x touches only the free one
    phi = Imp(Forall(x, fx()), fx())
    got = substitute(phi, [(x, y)])
    assert got == Imp(Forall(x, fx()), fx(y))


def test_substitute_capture_avoidance():
    # forall y P(x,y) with x := y forces renaming of the binder
    phi = Forall(y, Atom(P2, (x, y)))
    got = substitute(phi, [(x, y)])
    assert got == Forall(z, Atom(P2, (y, z)))


def test_substitute_empty_is_identity():
    assert substitute(fx(), []) == fx()


def test_substitute_duplicate_target_rejected():
    with pytest.raises(FormulaError):
        substitute(fx(), [(x, y), (x, z)])


def test_substitute_roundtrip_alpha():
    phi = Forall(y, Cond(fx(), Atom(P2, (x, y))))
    once = substitute(phi, [(x, y)])
    back = substitute(once, [(y, x)])
    assert alpha_equal(back, phi)


def test_alpha_equal_basic():
    assert alpha_equal(Forall(x, fx()), Forall(y, fx(y)))
    assert not alpha_equal(Forall(x, fx()), Forall(y, fx(x)))
    assert not alpha_equal(fx(), fx(y))


def test_material_reduct():
    assert material_reduct(Cond(fx(), fx(y))) == Imp(fx(), fx(y))
    assert material_reduct(Dia(fx())) == Not(Imp(fx(), material_reduct(Bot())))
    plain = Imp(fx(), Forall(y, fx(y)))
    assert material_reduct(plain) == plain


def test_material_reduct_idempotent_and_preserves_free_vars():
    phi = Cond(Box(fx()), Exists(y, Cond(fx(y), fx())))
    once = material_reduct(phi)
    assert material_reduct(once) == once
    assert free_variables(once) == free_variables(phi)


def test_metrics():
    assert metrics(fx()) == (1, 0)
    s, r = metrics(Forall(x, Exists(y, fx())))
    assert s >= 3 and r == 2


def test_ds_shape():
    ds = build_ds()
    assert free_variables(ds) == frozenset()
    assert predicates(ds) == {F}
    # quantifier rank counted by hand from the definition: the third
    # conjunct nests exists y under forall x and nothing goes deeper
    assert quantifier_rank(ds) == 2
    reduct = material_reduct(ds)
    assert not any(isinstance(s, Cond) for s in _walk(reduct))


def _walk(phi):
    from condlog.syntax import subformulas

    return subformulas(phi)


def test_counting_exists_shape():
    phi = counting_exists(2, x, lambda v: Not(Atom(F, (v,))))
    assert free_variables(phi) == frozenset()
    assert language(phi) is Lang.LEQ
    assert quantifier_rank(phi) == 3


@st.composite
def formulas(draw, max_depth=4, lang=Lang.L):
    depth = draw(st.integers(0, max_depth))
    return draw(_formula_at(depth, lang))


def _formula_at(depth, lang):
    leaves = [
        st.builds(Atom, st.just(F), st.tuples(st.sampled_from([x, y, z]))),
        st.builds(Atom, st.just(G), st.tuples(st.sampled_from([x, y, z]))),
    ]
    if lang is Lang.LEQ:
        leaves.append(
            st.builds(Eq, st.sampled_from([x, y, z]), st.sampled_from([x, y, z]))
        )
    if depth == 0:
        return st.one_of(leaves)
    sub = _formula_at(depth - 1, lang)
    return st.one_of(
        st.one_of(leaves),
        st.builds(Not, sub),
        st.builds(Imp, sub, sub),
        st.builds(Cond, sub, sub),
        st.builds(Forall, st.sampled_from([x, y, z]), sub),
    )


@given(formulas())
def test_substitution_inverse_property(phi):
    # substituting y for x and back is alpha-invisible when y is not free
    if y in free_variables(phi):
        return
    there = substitute(phi, [(x, y)])
    back = substitute(there, [(y, x)])
    assert alpha_equal(back, phi)


@given(formulas())
def test_reduct_idempotent_property(phi):
    once = material_reduct(phi)
    assert material_reduct(once) == once
    assert free_variables(once) == free_variables(phi)
