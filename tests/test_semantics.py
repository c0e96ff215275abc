import itertools
import json
import random
from pathlib import Path

import pytest

from condlog.fileformats import load_model
from condlog.parser import parse_formula
from condlog.semantics import (
    Counterexample,
    Model,
    NotStalnakerian,
    OrderingFrame,
    QuasiSelectionFrame,
    ResourceGuard,
    SelectionFrame,
    SemanticsError,
    UncoveredVariable,
    convert_model,
    evaluate,
    extension,
    frame_valid,
    model_valid,
    ordering_to_selection,
    selection_to_ordering,
    subset_options,
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
    Lang,
    Not,
    Or,
    Predicate,
    Variable,
    build_ds,
    conj,
    free_variables,
    material_reduct,
    predicates,
)

FIXTURES = Path(__file__).parent / "fixtures"

x, y = Variable(0), Variable(1)
G = Predicate(1, 1)
P = Predicate(0, 1)


def remark25_frame() -> SelectionFrame:
    """Two worlds, universal R, one-element domain, centering-default table."""
    return SelectionFrame.build(
        n_worlds=2,
        r=(0b11, 0b11),
        entries={},
        default="centering",
        n_domain=1,
        world_names=("1", "2"),
        domain_names=("a",),
    )


def footnote_model() -> Model:
    # I(P,1) = {a}, I(P,2) = empty
    return Model(remark25_frame(), {P: {0: frozenset({(0,)}), 1: frozenset()}})


def single_world_frame() -> SelectionFrame:
    return SelectionFrame.build(
        n_worlds=1, r=(0b1,), entries={}, default="centering", n_domain=1
    )


def test_selection_frame_invariant_checked():
    # f({2},1) = {2} with 2 not accessible from 1 is rejected
    with pytest.raises(Exception) as err:
        SelectionFrame.build(
            n_worlds=2,
            r=(0b01, 0b11),
            entries={(0b10, 0): 0b10},
            default="empty",
            n_domain=1,
        )
    assert "R(w)" in str(err.value)


def test_footnote_model_box_failure():
    """Box P(x) holds at world 1 although P fails at accessible world 2."""
    m = footnote_model()
    g = {x: 0}
    assert evaluate(m, 0, g, Box(Atom(P, (x,))))
    assert not evaluate(m, 1, g, Atom(P, (x,)))
    # so the Kripke reading of box fails on this weakly Stalnakerian frame
    res = model_valid(m, [Imp(Box(Atom(P, (x,))), Atom(P, (x,)))])
    assert res.valid  # box P -> P is fine; the failure is R(w) not within [P]
    res2 = model_valid(m, [Imp(Box(Atom(P, (x,))), Forall(y, Atom(P, (y,))))])
    assert res2.valid  # domain has one element and P(a) holds at 1... at world 1
    # the direct counterexample: box P holds at 1 while P fails at 2
    assert evaluate(m, 0, g, Box(Atom(P, (x,)))) and not evaluate(m, 1, g, Atom(P, (x,)))


def test_conditional_identity_true_everywhere():
    m = footnote_model()
    phi = Cond(Atom(P, (x,)), Atom(P, (x,)))
    res = model_valid(m, [phi])
    assert res.valid


def test_empty_gamma_valid():
    assert model_valid(footnote_model(), []).valid


def test_single_world_conditional_equals_material():
    """On a reflexive single world with centering table, > collapses to ->."""
    frame = single_world_frame()
    fx = Atom(F, (x,))
    gx = Atom(G, (x,))
    for f_true, g_true in itertools.product([False, True], repeat=2):
        interp = {
            F: {0: frozenset({(0,)} if f_true else ())},
            G: {0: frozenset({(0,)} if g_true else ())},
        }
        m = Model(frame, interp)
        g = {x: 0}
        assert evaluate(m, 0, g, Cond(fx, gx)) == evaluate(m, 0, g, Imp(fx, gx))


def test_uncovered_variable_raises():
    with pytest.raises(UncoveredVariable):
        evaluate(footnote_model(), 0, {}, Atom(P, (x,)))


def test_empty_local_domain_vacuous_forall():
    frame = SelectionFrame.build(
        n_worlds=1,
        r=(0b1,),
        entries={},
        default="centering",
        n_domain=1,
        local=(0,),
    )
    m = Model(frame, {})
    assert evaluate(m, 0, {}, Forall(x, Atom(F, (x,))))
    assert not evaluate(m, 0, {}, Exists(x, Top_()))


def Top_():
    from condlog.syntax import Top

    return Top()


def test_existence_predicate_uses_local_domain():
    frame = SelectionFrame.build(
        n_worlds=2,
        r=(0b11, 0b11),
        entries={},
        default="centering",
        n_domain=2,
        local=(0b01, 0b11),
    )
    m = Model(frame, {})
    assert not evaluate(m, 0, {x: 1}, EPred(x))
    assert evaluate(m, 1, {x: 1}, EPred(x))
    assert evaluate(m, 0, {x: 1, y: 1}, Eq(x, y))


def test_frame_valid_identity_axiom_on_remark25():
    res = frame_valid(remark25_frame(), Cond(Atom(F, (x,)), Atom(F, (x,))))
    assert res.valid


def test_frame_valid_finds_la_failure():
    """dia F(x) fails at world 1 when F holds only at world 2: f({2},1) is
    empty on the centering-default table."""
    frame = remark25_frame()
    res = frame_valid(frame, Dia(Atom(F, (x,))))
    assert not res.valid
    assert res.countermodel is not None
    # the specific witness interpretation: F true only at world 2
    m = Model(frame, {F: {1: frozenset({(0,)})}})
    assert extension(m, {x: 0}, Atom(F, (x,))) == 0b10
    assert frame.f(0b10, 0) == 0
    assert not evaluate(m, 0, {x: 0}, Dia(Atom(F, (x,))))


def test_frame_valid_identity_fails_without_success():
    frame = SelectionFrame.build(
        n_worlds=1,
        r=(0b1,),
        entries={(0b1, 0): 0b0},
        default="empty",
        n_domain=1,
    )
    # f({w},w) = {} violates nothing here, but a table with f({w},w)={w}
    # under an interpretation making F true everywhere keeps phi > phi true;
    # the failing case needs f to step outside the antecedent:
    bad = SelectionFrame.build(
        n_worlds=2,
        r=(0b11, 0b11),
        entries={(0b01, 0): 0b10},
        default="empty",
        n_domain=1,
    )
    res = frame_valid(bad, Cond(Atom(F, (x,)), Atom(F, (x,))))
    assert not res.valid


def test_frame_valid_mod_instance_single_world():
    mod = Imp(Box(Atom(F, (x,))), Cond(Atom(G, (x,)), Atom(F, (x,))))
    assert frame_valid(single_world_frame(), mod).valid


def test_frame_valid_resource_guard():
    big = SelectionFrame.build(
        n_worlds=6, r=(0b111111,) * 6, entries={}, default="centering", n_domain=1
    )
    with pytest.raises(ResourceGuard):
        frame_valid(big, Atom(F, (x,)))


# ---------------------------------------------------------------------------
# Ordering semantics and conversions.


def chain_order(n_worlds: int, n_domain: int = 1) -> OrderingFrame:
    """Linear order w0 < w1 < ... at w0; other worlds see only themselves."""
    pairs = {
        0: [(i, j) for i in range(n_worlds) for j in range(n_worlds) if i <= j]
    }
    for w in range(1, n_worlds):
        pairs[w] = [(w, w)]
    r = [0b1 << 0] * n_worlds
    r[0] = (1 << n_worlds) - 1
    for w in range(1, n_worlds):
        r[w] = 1 << w
    return OrderingFrame.build(n_worlds, r, pairs, n_domain)


def test_ordering_eval_lewis_clause():
    frame = chain_order(3)
    fx = Atom(F, (x,))
    gx = Atom(G, (x,))
    interp = {
        F: {1: frozenset({(0,)}), 2: frozenset({(0,)})},
        G: {1: frozenset({(0,)})},
    }
    m = Model(frame, interp)
    g = {x: 0}
    # closest F-world to w0 is w1, where G holds
    assert evaluate(m, 0, g, Cond(fx, gx))
    assert not evaluate(m, 0, g, Cond(fx, Not(gx)))


def test_ordering_to_selection_two_worlds():
    frame = chain_order(2)
    sel = ordering_to_selection(frame)
    assert sel.f(0b10, 0) == 0b10
    assert sel.f(0b11, 0) == 0b01


def test_ordering_to_selection_requires_sla():
    # a two-cycle between worlds 1 and 2 breaks SLA
    pairs = {
        0: [(0, 0), (0, 1), (0, 2), (1, 2), (2, 1), (1, 1), (2, 2)],
        1: [(1, 1)],
        2: [(2, 2)],
    }
    frame = OrderingFrame.build(3, (0b111, 0b010, 0b100), pairs, 1)
    with pytest.raises(NotStalnakerian):
        ordering_to_selection(frame)


def test_selection_to_ordering_requires_stalnakerian():
    with pytest.raises(NotStalnakerian) as err:
        selection_to_ordering(remark25_frame())
    assert err.value.condition == "LA"


def test_selection_to_ordering_names_uniformity_before_uniqueness(monkeypatch):
    """A frame failing both Uniformity and Uniqueness (and no earlier
    Stalnakerian condition): the conversion names Uniformity, in a message
    recorded before it stopped deciding all eight conditions, and it asks
    for the five it reads."""
    from condlog import frameprops

    def first(p, w):
        return next((1 << v for v in (w, *range(3)) if p >> v & 1), 0)

    entries = {(p, w): first(p, w) for w in range(3) for p in range(8)}
    entries[(0b111, 0)] = 0b011
    frame = SelectionFrame.build(3, (0b111,) * 3, entries, "empty", 1)
    asked = []
    real = frameprops.check_selection_props

    def spy(frame, conditions=frameprops.SELECTION_CONDITIONS):
        asked.append(tuple(conditions))
        return real(frame, conditions)

    monkeypatch.setattr(frameprops, "check_selection_props", spy)
    with pytest.raises(NotStalnakerian) as err:
        selection_to_ordering(frame)
    assert str(err.value) == "frame violates Uniformity: witness (3, 7, 0)"
    assert (err.value.condition, err.value.witness) == ("Uniformity", (3, 7, 0))
    assert asked == [("Success", "WeakCentering", "LA", "Uniformity", "Uniqueness")]


def test_selection_ordering_roundtrip_three_worlds():
    frame = chain_order(3)
    sel = ordering_to_selection(frame)
    back = selection_to_ordering(sel)
    for w in range(3):
        for a in range(3):
            for b in range(3):
                in_r = bool(frame.r[w] & (1 << a)) and bool(frame.r[w] & (1 << b))
                want = frame.leq(w, a, b) if in_r else False
                assert back.leq(w, a, b) == want


def _formula_corpus():
    fx = Atom(F, (x,))
    fy = Atom(F, (y,))
    gx = Atom(G, (x,))
    return [
        fx,
        Not(fx),
        Imp(fx, gx),
        Cond(fx, gx),
        Cond(Or(fx, fy), Not(fx)),
        Box(fx),
        Dia(fx),
        Forall(x, Imp(fx, gx)),
        Exists(y, Cond(fy, fx)),
        And(Dia(fx), Cond(gx, fx)),
        build_ds(),
    ]


def test_conversion_preserves_truth_on_corpus():
    frame = chain_order(3, n_domain=2)
    interp = {
        F: {0: frozenset({(0,)}), 1: frozenset({(0,), (1,)})},
        G: {1: frozenset({(0,)}), 2: frozenset({(1,)})},
    }
    m = Model(frame, interp)
    m2 = convert_model(m)
    for phi in _formula_corpus():
        fv = sorted(
            {v for v in __import__("condlog.syntax", fromlist=["free_variables"]).free_variables(phi)},
            key=lambda v: v.index,
        )
        for values in itertools.product(range(2), repeat=len(fv)):
            g = dict(zip(fv, values))
            assert extension(m, g, phi) == extension(m2, g, phi), phi


def test_claim43_analogue_reflexive_singleton():
    """At a world with R(w) = {w}, truth agrees with the material reduct."""
    frame = SelectionFrame.build(
        n_worlds=2,
        r=(0b01, 0b11),
        entries={(0b01, 0): 0b01, (0b11, 0): 0b01, (0b10, 0): 0},
        default="empty",
        n_domain=1,
    )
    interp = {F: {0: frozenset({(0,)})}, G: {1: frozenset({(0,)})}}
    m = Model(frame, interp)
    g = {x: 0}
    for phi in _formula_corpus():
        if __import__("condlog.syntax", fromlist=["free_variables"]).free_variables(phi) <= {x}:
            assert evaluate(m, 0, g, phi) == evaluate(m, 0, g, material_reduct(phi))


def test_box_dia_duality():
    m = footnote_model()
    g = {x: 0}
    for w in (0, 1):
        phi = Atom(P, (x,))
        assert evaluate(m, w, g, Dia(phi)) == (not evaluate(m, w, g, Box(Not(phi))))


def test_kripke_clauses_on_stalnakerian_models():
    """On Stalnakerian selection models box and diamond have their Kripke
    readings; the footnote model shows the failure without LA."""
    from condlog.syntax import Box as _Box, Dia as _Dia

    frame = ordering_to_selection(chain_order(3))
    interp = {F: {1: frozenset({(0,)}), 2: frozenset({(0,)})}}
    m = Model(frame, interp)
    g = {x: 0}
    fx = Atom(F, (x,))
    for w in range(3):
        box_truth = evaluate(m, w, g, _Box(fx))
        mask = extension(m, g, fx)
        assert box_truth == (frame.r[w] & ~mask == 0)
        dia_truth = evaluate(m, w, g, _Dia(fx))
        assert dia_truth == bool(frame.r[w] & mask)
    # weakly Stalnakerian only: the box clause may come apart
    foot = footnote_model()
    p = Predicate(0, 1)
    assert evaluate(foot, 0, g, _Box(Atom(p, (x,))))
    assert foot.frame.r[0] & ~extension(foot, g, Atom(p, (x,)))


def test_extension_locality_in_assignment():
    """The extension depends only on values of free variables."""
    phi = Forall(x, Cond(Atom(F, (x,)), Atom(G, (y,))))
    m = Model(
        chain_order(3, n_domain=2),
        {F: {1: frozenset({(0,)})}, G: {2: frozenset({(1,)})}},
    )
    base = extension(m, {y: 1}, phi)
    assert extension(m, {y: 1, x: 0}, phi) == base
    assert extension(m, {y: 1, x: 1, Variable(5): 0}, phi) == base


# ---------------------------------------------------------------------------
# Pinned frame_valid witnesses: the first failing interpretation and
# assignment in enumeration order, recorded on remark25.json and on a frame
# whose answers depend on the order of the interpretations.

_PINNED_WITNESSES = [
    # (formula, language, countermodel interpretation, world, assignment)
    ("dia F(x)", Lang.L, {F: {0: set(), 1: set()}}, 0, {x: 0}),
    ("F(x) > G(x)", Lang.L, {F: {0: set(), 1: {(0,)}}, G: {0: set(), 1: set()}}, 1, {x: 0}),
    (
        "(F(x) > G(x)) -> (G(x) > F(x))",
        Lang.L,
        {F: {0: set(), 1: set()}, G: {0: set(), 1: {(0,)}}},
        1,
        {x: 0},
    ),
    (
        "A -> (B > A & C)",
        Lang.L,
        {
            Predicate(0, 0): {0: set(), 1: {()}},
            Predicate(1, 0): {0: set(), 1: {()}},
            Predicate(2, 0): {0: set(), 1: set()},
        },
        1,
        {},
    ),
    (
        "forall x. (F(x) > G(y)) -> F(y)",
        Lang.L,
        {F: {0: set(), 1: set()}, G: {0: set(), 1: set()}},
        0,
        {y: 0},
    ),
    (
        "P0(x, y) > A",
        Lang.L,
        {Predicate(0, 0): {0: set(), 1: set()}, Predicate(0, 2): {0: set(), 1: {(0, 0)}}},
        1,
        {x: 0, y: 0},
    ),
    ("E(x) > F(x)", Lang.LE, {F: {0: set(), 1: set()}}, 0, {x: 0}),
]


def _skewed_frame(n_domain: int) -> SelectionFrame:
    """Two worlds; f(P, w) selects both worlds for the empty and the full
    proposition.  On remark25.json every formula is decided world by world,
    so its first failing interpretation does not depend on the order of the
    (predicate, world) cells; on this frame it does."""
    return SelectionFrame(
        2, (0b11, 0b11), ((3, 3, 0, 1), (3, 3, 1, 1)), n_domain, ((1 << n_domain) - 1,) * 2
    )


# (formula, language, domain size, interpretation, world, assignment)
_PINNED_SKEWED = [
    (
        "~(F(x) > G(x))",
        Lang.L,
        1,
        {F: {0: set(), 1: set()}, G: {0: {(0,)}, 1: {(0,)}}},
        0,
        {x: 0},
    ),
    ("F(x) -> F(y)", Lang.L, 2, {F: {0: set(), 1: {(0,)}}}, 1, {x: 0, y: 1}),
    ("x = y", Lang.LEQ, 2, {}, 0, {x: 0, y: 1}),
]


def _check_pinned(frame, text, lang, interp, world, g):
    phi = parse_formula(text, lang)
    res = frame_valid(frame, phi)
    assert not res.valid
    want = {p: {w: frozenset(t) for w, t in per.items()} for p, per in interp.items()}
    assert res.countermodel == Model(frame, want)
    assert res.counterexample == Counterexample(world, g, phi)


@pytest.mark.parametrize("text,lang,interp,world,g", _PINNED_WITNESSES)
def test_frame_valid_pinned_witness(text, lang, interp, world, g):
    frame = load_model(json.loads((FIXTURES / "remark25.json").read_text())).frame
    _check_pinned(frame, text, lang, interp, world, g)


@pytest.mark.parametrize("text,lang,n_domain,interp,world,g", _PINNED_SKEWED)
def test_frame_valid_pinned_witness_skewed(text, lang, n_domain, interp, world, g):
    _check_pinned(_skewed_frame(n_domain), text, lang, interp, world, g)


# ---------------------------------------------------------------------------
# Reference evaluator: truth at one world, straight from the truth clauses.
# The compiled evaluator behind ``extension`` must agree with it everywhere.


def reference_truth(model: Model, w: int, g: dict, phi) -> bool:
    frame = model.frame
    if isinstance(phi, Atom):
        tup = tuple(g[v] for v in phi.args)
        return tup in model.interp.get(phi.pred, {}).get(w, frozenset())
    if isinstance(phi, Eq):
        return g[phi.left] == g[phi.right]
    if isinstance(phi, EPred):
        return bool(frame.local[w] & (1 << g[phi.arg]))
    if isinstance(phi, Not):
        return not reference_truth(model, w, g, phi.body)
    if isinstance(phi, Imp):
        return not reference_truth(model, w, g, phi.left) or reference_truth(
            model, w, g, phi.right
        )
    if isinstance(phi, Forall):
        return all(
            reference_truth(model, w, {**g, phi.var: a}, phi.body)
            for a in range(frame.n_domain)
            if frame.local[w] & (1 << a)
        )
    assert isinstance(phi, Cond)
    worlds = range(frame.n_worlds)
    ant = [v for v in worlds if reference_truth(model, v, g, phi.left)]

    def cons(v: int) -> bool:
        return reference_truth(model, v, g, phi.right)

    if isinstance(frame, SelectionFrame):
        # f([phi], w) is within [psi]
        selected = frame.table[w][sum(1 << v for v in ant)]
        return all(cons(v) for v in worlds if selected & (1 << v))
    order = frame.order if isinstance(frame, QuasiSelectionFrame) else frame
    live = [v for v in ant if order.r[w] & (1 << v)]
    if isinstance(frame, OrderingFrame):
        # no accessible [phi]-world, or an accessible [phi]-world x such
        # that every [phi]-world y <=_w x is a [psi]-world
        return not live or any(
            all(cons(y) for y in ant if order.leq(w, y, x)) for x in live
        )
    # quasi-selection: the <=_w-minimal accessible [phi]-worlds are [psi]-worlds
    return all(
        cons(x) for x in live if all(order.leq(w, x, y) for y in live)
    )


_REF_VARIABLES = (Variable(0), Variable(1), Variable(2))
_REF_PREDICATES = (Predicate(0, 0), Predicate(0, 1), Predicate(1, 1), Predicate(0, 2))


def _random_formula(rng, budget: int):
    """Core nodes over nullary, unary and binary atoms, identity and E,
    with quantifiers drawn often so that they nest."""
    if budget <= 1:
        kind = rng.randrange(4)
        if kind == 0:
            return Eq(rng.choice(_REF_VARIABLES), rng.choice(_REF_VARIABLES))
        if kind == 1:
            return EPred(rng.choice(_REF_VARIABLES))
        pred = rng.choice(_REF_PREDICATES)
        return Atom(pred, tuple(rng.choice(_REF_VARIABLES) for _ in range(pred.arity)))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_formula(rng, budget - 1))
    if kind in (1, 2):
        return Forall(rng.choice(_REF_VARIABLES), _random_formula(rng, budget - 1))
    split = rng.randint(1, max(1, budget - 2))
    left = _random_formula(rng, split)
    right = _random_formula(rng, budget - 1 - split)
    return Imp(left, right) if kind == 3 else Cond(left, right)


def _random_interp(rng, n: int, nd: int):
    return {
        pred: {
            w: frozenset(
                t
                for t in itertools.product(range(nd), repeat=pred.arity)
                if rng.random() < 0.5
            )
            for w in range(n)
        }
        for pred in _REF_PREDICATES
    }


def _random_ordering_frame(rng, n: int, nd: int, local) -> OrderingFrame:
    r = [rng.randrange(1 << n) for _ in range(n)]
    pairs = {
        w: [
            (a, b)
            for a in range(n)
            for b in range(n)
            if r[w] & (1 << a) and r[w] & (1 << b) and rng.random() < 0.5
        ]
        for w in range(n)
    }
    return OrderingFrame.build(n, r, pairs, nd, local)


def _random_selection_frame(rng, n: int, nd: int, local) -> SelectionFrame:
    r = [rng.randrange(1 << n) for _ in range(n)]
    table = tuple(
        tuple(
            rng.choice([s for s in range(1 << n) if not s & ~r[w]])
            for _p in range(1 << n)
        )
        for w in range(n)
    )
    return SelectionFrame(n, tuple(r), table, nd, tuple(local))


def _random_model(rng, kind: str) -> Model:
    n, nd = rng.randint(1, 3), rng.randint(1, 3)
    local = [rng.randrange(1 << nd) for _ in range(n)]
    if kind == "selection":
        frame = _random_selection_frame(rng, n, nd, local)
    elif kind == "ordering":
        frame = _random_ordering_frame(rng, n, nd, local)
    else:
        frame = QuasiSelectionFrame(_random_ordering_frame(rng, n, nd, local))
    return Model(frame, _random_interp(rng, n, nd))


@pytest.mark.parametrize("kind", ["selection", "ordering", "quasi"])
@pytest.mark.parametrize("seed", range(4))
def test_extension_matches_reference_evaluator(kind, seed):
    rng = random.Random(f"{kind}-{seed}")
    for _ in range(10):
        model = _random_model(rng, kind)
        n, nd = model.frame.n_worlds, model.frame.n_domain
        for _ in range(15):
            phi = _random_formula(rng, rng.randint(1, 10))
            for values in itertools.product(range(nd), repeat=len(_REF_VARIABLES)):
                g = dict(zip(_REF_VARIABLES, values))
                want = sum(
                    1 << w for w in range(n) if reference_truth(model, w, g, phi)
                )
                assert extension(model, g, phi) == want, (phi, g, model)


def test_extension_rejects_values_outside_the_domain():
    with pytest.raises(SemanticsError):
        extension(footnote_model(), {x: 1}, Atom(P, (x,)))


# ---------------------------------------------------------------------------
# Reference frame validity: every interpretation in ``subset_options``
# product order, then every assignment, then every world, through
# ``reference_truth``.  ``frame_valid`` must find the same first failure.


def reference_frame_valid(frame, phi):
    """(index, countermodel, counterexample) of the first failing point, or
    None when phi is valid on the frame."""
    preds = sorted(predicates(phi), key=lambda p: (p.index, p.arity))
    n, nd = frame.n_worlds, frame.n_domain
    cells = [(p, w) for p in preds for w in range(n)]
    fv = sorted(free_variables(phi), key=lambda v: v.index)
    options = [subset_options(nd, p.arity) for p, _ in cells]
    for index, choice in enumerate(itertools.product(*options)):
        interp = {p: {} for p in preds}
        for (p, w), tuples in zip(cells, choice):
            interp[p][w] = tuples
        model = Model(frame, interp)
        for values in itertools.product(range(nd), repeat=len(fv)):
            g = dict(zip(fv, values))
            for w in range(n):
                if not reference_truth(model, w, g, phi):
                    return index, model, Counterexample(w, g, phi)
    return None


def _interpretation_count(frame, phi) -> int:
    count = 1
    for p in predicates(phi):
        count *= (1 << frame.n_domain**p.arity) ** frame.n_worlds
    return count


def _random_atom(rng):
    pred = rng.choice(_REF_PREDICATES)
    return Atom(pred, tuple(rng.choice(_REF_VARIABLES) for _ in range(pred.arity)))


@pytest.mark.parametrize("kind", ["selection", "ordering", "quasi"])
@pytest.mark.parametrize("seed", range(4))
def test_frame_valid_matches_reference_loop(kind, seed):
    """Random formulas, valid ones (phi -> phi) that walk every block,
    negated conjunctions of atoms that fail late in the order, implications
    between atoms, where a later assignment can fail at an earlier
    interpretation of the same block, and implications between conditionals
    whose antecedents differ across the interpretations of a block."""
    rng = random.Random(f"frame-valid-{kind}-{seed}")
    # blocks of 1, 8 and 64 cover the first 73 interpretations and later ones
    # are decided in blocks of 256, so frames are drawn until a case gets there
    late = 0
    for frames in range(40):
        if frames >= 10 and late:
            break
        frame = _random_model(rng, kind).frame
        for _ in range(10):
            phi = _random_formula(rng, rng.randint(1, 7))
            atoms = [_random_atom(rng) for _ in range(4)]
            shape = rng.randrange(5)
            if shape == 1:
                phi = Imp(phi, phi)
            elif shape == 2:
                phi = Not(conj(atoms[: rng.randint(2, 4)]))
            elif shape == 3:
                phi = Imp(atoms[0], atoms[1])
            elif shape == 4:
                phi = Imp(Cond(atoms[0], atoms[1]), Cond(atoms[2], atoms[3]))
            count = _interpretation_count(frame, phi)
            if count > 1024 or count * frame.n_domain**2 > 4096:
                continue
            want = reference_frame_valid(frame, phi)
            res = frame_valid(frame, phi)
            assert res.valid == (want is None), (phi, frame)
            if want is None:
                late += count > 73
                continue
            index, model, counterexample = want
            late += index >= 73
            assert res.countermodel == model, (phi, frame)
            assert res.counterexample == counterexample, (phi, frame)
    assert late


def _check_against_reference(frame, phi):
    want = reference_frame_valid(frame, phi)
    res = frame_valid(frame, phi)
    assert res.valid == (want is None), (phi, frame)
    if want is not None:
        _index, model, counterexample = want
        assert res.countermodel == model, (phi, frame)
        assert res.counterexample == counterexample, (phi, frame)
    return want


def _min_table_frame(order: OrderingFrame) -> SelectionFrame:
    """The selection frame whose table is min_w of ``order``, built whole."""
    n = order.n_worlds
    table = tuple(tuple(order.min_set(p, w) for p in range(1 << n)) for w in range(n))
    return SelectionFrame(
        n, order.r, table, order.n_domain, order.local, order.world_names, order.domain_names
    )


@pytest.mark.parametrize("seed", range(4))
def test_quasi_frame_is_the_selection_frame_of_its_minima(seed):
    """On random relations, reflexive or not and transitive or not, a quasi
    frame and the selection frame whose table is min_w of the same order
    give the same extensions and the same frame-validity results.  Some of
    the orders have minima other than P & R(w)."""
    rng = random.Random(f"quasi-minima-{seed}")
    seen = {"irreflexive": 0, "intransitive": 0, "not P & R(w)": 0, "failures": 0}
    for _ in range(12):
        n, nd = rng.randint(2, 3), rng.randint(1, 2)
        local = [rng.randrange(1 << nd) for _ in range(n)]
        order = _random_ordering_frame(rng, n, nd, local)
        quasi, table = QuasiSelectionFrame(order), _min_table_frame(order)
        worlds = range(n)
        seen["irreflexive"] += any(
            order.r[w] & (1 << a) and not order.leq(w, a, a) for w in worlds for a in worlds
        )
        seen["intransitive"] += any(
            order.leq(w, a, b) and order.leq(w, b, c) and not order.leq(w, a, c)
            for w in worlds for a in worlds for b in worlds for c in worlds
        )
        seen["not P & R(w)"] += any(
            table.table[w][p] != p & order.r[w] for w in worlds for p in range(1 << n)
        )
        interp = _random_interp(rng, n, nd)
        for _ in range(10):
            phi = _random_formula(rng, rng.randint(2, 7))
            for values in itertools.product(range(nd), repeat=len(_REF_VARIABLES)):
                g = dict(zip(_REF_VARIABLES, values))
                want = extension(Model(table, interp), g, phi)
                assert extension(Model(quasi, interp), g, phi) == want, (phi, g, order)
            if _interpretation_count(order, phi) > 1024:
                continue
            want, got = frame_valid(table, phi), frame_valid(quasi, phi)
            assert got.valid == want.valid, (phi, order)
            if not want.valid:
                seen["failures"] += 1
                assert got.counterexample == want.counterexample, (phi, order)
                assert got.countermodel == Model(quasi, want.countermodel.interp)
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", range(3))
def test_frame_valid_frames_sharing_local_domains_share_no_rows(seed):
    """One compiled formula over an interleaved sequence of frames with the
    same worlds, domain and local domains: selection frames with different
    tables, ordering frames and quasi frames.  They share the block shapes
    of the formula's interpretation space; a selection table, an order row
    or a conditional clause carried over from the frame before would change
    a verdict, a countermodel or a counterexample."""
    rng = random.Random(f"shared-shapes-{seed}")
    n, nd = 2, 2
    local = tuple(rng.randrange(1, 1 << nd) for _ in range(n))
    frames = []
    for _ in range(3):
        frames.append(_random_selection_frame(rng, n, nd, local))
        frames.append(_random_ordering_frame(rng, n, nd, local))
        frames.append(QuasiSelectionFrame(_random_ordering_frame(rng, n, nd, local)))
    rng.shuffle(frames)
    a, b = Atom(P, (x,)), Atom(G, (y,))
    formulas = [
        Imp(Cond(a, b), Cond(b, a)),
        Not(Cond(a, Not(b))),
        Imp(Cond(a, b), Cond(a, b)),  # valid: walks every block
        Forall(x, Cond(Or(a, Not(b)), b)),
    ]
    outcomes = set()
    for phi in formulas:
        for frame in frames + frames[::-1]:
            want = _check_against_reference(frame, phi)
            outcomes.add((type(frame), want is None))
    assert {kind for kind, valid in outcomes if not valid} == {
        SelectionFrame, OrderingFrame, QuasiSelectionFrame
    }


def test_frame_valid_builds_the_countermodel_when_read(monkeypatch):
    """A failing result builds its countermodel on first read, once."""
    import condlog.semantics as semantics

    built = []
    original = semantics._Interpretations.interpretation

    def counting(space, i):
        built.append(i)
        return original(space, i)

    monkeypatch.setattr(semantics._Interpretations, "interpretation", counting)
    frame = load_model(json.loads((FIXTURES / "remark25.json").read_text())).frame
    res = frame_valid(frame, Dia(Atom(F, (x,))))
    assert not res.valid and built == []
    model = res.countermodel
    assert built == [0] and res.countermodel is model
    assert model == Model(frame, {F: {0: frozenset(), 1: frozenset()}})
