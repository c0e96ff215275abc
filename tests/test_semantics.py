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
    first_failure,
    frame_valid,
    frames_valid,
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
    Top,
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
    """The ceiling counts points, not worlds: 6 worlds with one unary
    predicate are 2^6 x 6 points and answer; four unary predicates are
    2^24 x 6 and are refused, and so is a predicate whose 2^(2^40 x 6)
    interpretations could not be counted out as an int."""
    big = SelectionFrame.build(
        n_worlds=6, r=(0b111111,) * 6, entries={}, default="centering", n_domain=1
    )
    assert not frame_valid(big, Atom(F, (x,))).valid
    four = conj([Atom(Predicate(i, 1), (x,)) for i in range(4)])
    with pytest.raises(ResourceGuard, match=r"2\^24 interpretations x 1\^1 assignments"):
        frame_valid(big, four)
    two = SelectionFrame.build(
        n_worlds=6, r=(0b111111,) * 6, entries={}, default="centering", n_domain=2
    )
    with pytest.raises(ResourceGuard, match=rf"2\^{6 << 40} interpretations"):
        frame_valid(two, Atom(Predicate(0, 40), (x,) * 40))


def _with_free(arities: tuple[int, ...], k: int):
    """Atoms of one predicate per arity in ``arities`` over x and y, with
    exactly the first k of x, y free."""
    atoms = [Atom(Predicate(i, a), (x, y)[:a]) for i, a in enumerate(arities)]
    phi = conj([*atoms, EPred(x), EPred(y)])
    for v in (x, y)[k:]:
        phi = Forall(v, phi)
    return phi


@pytest.mark.parametrize("n, nd", itertools.product((1, 2, 3), repeat=2))
def test_frame_valid_refuses_exactly_the_points_it_would_walk(monkeypatch, n, nd):
    """The count frame_valid checks against MAX_FRAME_POINTS is what
    ``_failure`` walks: interpretations x assignments x worlds."""
    from condlog import semantics

    frame = SelectionFrame.build(
        n_worlds=n, r=((1 << n) - 1,) * n, entries={}, default="centering", n_domain=nd
    )
    monkeypatch.setattr(
        semantics, "_failure", lambda frames, *args: [None] * len(frames)
    )
    for arities in ((0,), (1,), (2,), (1, 1), (0, 1, 2)):
        for k in range(3):
            phi = _with_free(arities, k)
            compiled = semantics._compiled(phi)
            assert len(compiled.free) == k
            space = semantics._Interpretations(compiled, n, nd, subset_options)
            points = space.total * len(space.envs) * n
            monkeypatch.setattr(semantics, "MAX_FRAME_POINTS", points)
            assert frame_valid(frame, phi).valid
            monkeypatch.setattr(semantics, "MAX_FRAME_POINTS", points - 1)
            with pytest.raises(ResourceGuard):
                frame_valid(frame, phi)


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


def _oracle_first_failure(frame, phi):
    """The first failing point of ``first_failure``'s order, found by
    evaluating each interpretation alone: the product over the cells
    (p, w), predicates by (index, arity) and the last cell fastest, of
    ``subset_options``; then the assignments in product order; then the
    worlds."""
    preds = sorted(predicates(phi), key=lambda p: (p.index, p.arity))
    cells = [(p, w) for p in preds for w in range(frame.n_worlds)]
    free = sorted(free_variables(phi), key=lambda v: v.index)
    options = [subset_options(frame.n_domain, p.arity) for p, _ in cells]
    for i, values in enumerate(itertools.product(*options)):
        interp = {p: {} for p in preds}
        for (p, w), value in zip(cells, values):
            interp[p][w] = value
        model = Model(frame, interp)
        for env in itertools.product(range(frame.n_domain), repeat=len(free)):
            g = dict(zip(free, env))
            for w in range(frame.n_worlds):
                if not evaluate(model, w, g, phi):
                    return i, interp, g, w
    return None


# First failing interpretations on both sides of the block of one that
# starts every walk, and of the edges of blocks of 8, 64 and 256.
_BLOCK_EDGES = (0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 257)


def _fails_only_at(i: int):
    """T > ~(P0(x) & ... & P8(x)) with Pk negated where bit 8 - k of i is
    clear: on a one-world, one-element frame interpretation i alone makes
    it false, since the last predicate's cell varies fastest."""
    lits = [Atom(Predicate(k, 1), (x,)) for k in range(9)]
    lits = [a if i >> (8 - k) & 1 else Not(a) for k, a in enumerate(lits)]
    return Cond(Top(), Not(conj(lits)))


@pytest.mark.parametrize("index", _BLOCK_EDGES)
def test_first_failure_at_block_edges_matches_the_oracle(index):
    frame, phi = single_world_frame(), _fails_only_at(index)
    want = _oracle_first_failure(frame, phi)
    assert want[0] == index
    assert first_failure(frame, phi) == want


def test_instance_first_failures_match_the_oracle():
    """The first failures of the instance family on enumerated frames with
    two worlds and two elements, where conditionals read other worlds and
    assignments vary, at the block edges they reach first."""
    from condlog.frameprops import correspondence_instances
    from condlog.search import EnumerationParams, enumerate_frames

    instances = list(correspondence_instances())
    seen = {}
    params = EnumerationParams(2, 2, frozenset({"Success"}))
    for frame in enumerate_frames(params):
        for _, phi in instances:
            hit = first_failure(frame, phi)
            if hit is not None and hit[0] in _BLOCK_EDGES and hit[0] not in seen:
                seen[hit[0]] = hit
                assert hit == _oracle_first_failure(frame, phi), (frame, phi)
        if len(seen) == 4:
            break
    assert sorted(seen) == [0, 1, 8, 64]


def test_failing_frame_valid_builds_its_point_when_read():
    frame, phi = _skewed_frame(2), parse_formula("F(x) -> ~(F(y) > G(x))")
    res = frame_valid(frame, phi)
    assert res.valid is False
    assert not res
    assert "counterexample" not in res.__dict__
    assert "countermodel" not in res.__dict__
    _, interp, g, w = _oracle_first_failure(frame, phi)
    assert res.counterexample == Counterexample(w, g, phi)
    assert "countermodel" not in res.__dict__
    assert res.countermodel == Model(frame, interp)
    assert not evaluate(res.countermodel, w, g, phi)
    assert res.counterexample is res.counterexample
    assert res.countermodel is res.countermodel


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


def test_extension_rejects_values_that_are_not_elements():
    with pytest.raises(SemanticsError, match="1.0"):
        extension(footnote_model(), {x: 1.0}, Atom(P, (x,)))


@pytest.mark.parametrize("w", [2, 5, -1])
def test_evaluate_rejects_worlds_outside_the_frame(w):
    with pytest.raises(SemanticsError, match=f"world {w} "):
        evaluate(footnote_model(), w, {x: 0}, Atom(P, (x,)))


@pytest.mark.parametrize("w", [5, -1, "w0"])
def test_model_rejects_interpretation_worlds_outside_the_frame(w):
    """A world key outside 0..n-1 is refused when the model is built, not
    read as a world by ``holds`` and masked out by ``extension``."""
    frame = SelectionFrame.build(
        n_worlds=2, r=(0b11, 0b11), entries={}, default="centering", n_domain=1
    )
    with pytest.raises(SemanticsError, match=f"at world {w!r} outside 0..1"):
        Model(frame, {P: {w: frozenset({(0,)})}})


# ---------------------------------------------------------------------------
# Atom tables kept on a model: built when first read, never shared between
# models, even models on one frame.


def _two_models_on_one_frame():
    """Two worlds and two elements; P(a) holds at world 1 in one model and
    at world 2 in the other, G(b) at both worlds in both."""
    frame = SelectionFrame.build(
        n_worlds=2, r=(0b11, 0b11), entries={}, default="centering", n_domain=2
    )
    g_everywhere = {0: frozenset({(1,)}), 1: frozenset({(1,)})}
    return (
        Model(frame, {P: {0: frozenset({(0,)})}, G: g_everywhere}),
        Model(frame, {P: {1: frozenset({(0,)})}, G: g_everywhere}),
    )


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_models_on_one_frame_keep_their_own_atom_tables(order):
    models = _two_models_on_one_frame()
    phi, g = Atom(P, (x,)), {x: 0}
    want = (0b01, 0b10)
    for _ in range(2):
        for i in order:
            assert extension(models[i], g, phi) == want[i]
            assert evaluate(models[i], i, g, phi)
            assert not evaluate(models[i], 1 - i, g, phi)


@pytest.mark.parametrize("kind", ["selection", "ordering", "quasi"])
def test_repeated_extension_matches_reference_evaluator(kind):
    """Each formula evaluated twice over every assignment, after other
    formulas have built some of the model's tables: every call agrees with
    the reference evaluator."""
    rng = random.Random(f"repeated {kind}")
    for _ in range(8):
        model = _random_model(rng, kind)
        n, nd = model.frame.n_worlds, model.frame.n_domain
        formulas = [_random_formula(rng, rng.randint(1, 8)) for _ in range(6)]
        for phi in formulas + formulas:
            for values in itertools.product(range(nd), repeat=len(_REF_VARIABLES)):
                g = dict(zip(_REF_VARIABLES, values))
                want = sum(
                    1 << w for w in range(n) if reference_truth(model, w, g, phi)
                )
                assert extension(model, g, phi) == want, (phi, g, model)


def test_model_valid_builds_each_atom_table_once(monkeypatch):
    from condlog import semantics

    built = []
    original = semantics._atom_table

    def counting(model, pred):
        built.append((id(model), pred))
        return original(model, pred)

    monkeypatch.setattr(semantics, "_atom_table", counting)
    # valid, so every assignment to x and y is evaluated
    phi = Imp(And(Atom(P, (x,)), Atom(G, (y,))), Cond(Atom(G, (y,)), Atom(P, (x,))))
    assert free_variables(phi) == {x, y}
    models = _two_models_on_one_frame()
    for model in models + models:
        assert model_valid(model, [phi, Imp(Atom(P, (y,)), Atom(P, (y,)))]).valid
    assert sorted(built, key=str) == sorted(
        ((id(m), p) for m in models for p in (P, G)), key=str
    )


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
    # the first interpretation is decided alone and later ones in blocks of
    # many, so frames are drawn until a case gets past the first 73
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


# ---------------------------------------------------------------------------
# The interpretation space of a compiled formula, which the frames of a sweep
# share, against a fresh space per frame.


def _shared_and_fresh(frames, formulas, reference=False):
    """Each formula on each frame in turn through ``first_failure`` and
    ``frame_valid``: once with the space left by the frame before, once with
    a fresh one.  The two must agree on the index, interpretation,
    assignment and world, and on the verdict, counterexample and
    countermodel; with ``reference``, so must ``reference_frame_valid``,
    which shares nothing between blocks either.  A frame is let go before
    the next is asked for, so a later frame's rows may take its address.
    Returns how many failed."""
    import condlog.semantics as semantics

    def run(frame, phi):
        res = frame_valid(frame, phi)
        found = None if res.valid else (res.counterexample, res.countermodel)
        return first_failure(frame, phi), res.valid, found

    failures = 0
    frames = iter(frames)
    while (frame := next(frames, None)) is not None:
        for phi in formulas:
            compiled = semantics._compiled(phi)
            shared = run(frame, phi)
            kept, compiled.space = compiled.space, None
            fresh = run(frame, phi)
            compiled.space = kept
            assert shared == fresh, (phi, frame)
            if reference:
                want = reference_frame_valid(frame, phi)
                found = None if want is None else (want[2], want[1])
                assert shared[1:] == (want is None, found), (phi, frame)
            failures += not shared[1]
            del shared, fresh
        del frame
    return failures


def test_conditional_memo_agrees_on_the_ds_sweep_frames():
    """Every frame of the weakly Stalnakerian (3, 2) sweep, in enumeration
    order, so the frames of each (R, table) follow one another."""
    from condlog.search import EnumerationParams, enumerate_frames

    params = EnumerationParams(3, 2, frozenset({"weaklyStalnakerian"}))
    assert _shared_and_fresh(enumerate_frames(params), [Not(build_ds())]) == 0


def test_conditional_memo_agrees_on_the_correspondence_instances():
    """Every 50th frame of (2, 1): consecutive frames hold other tables, so
    nothing of the frame before may be read."""
    from condlog.frameprops import correspondence_instances
    from condlog.search import EnumerationParams, enumerate_frames

    frames = itertools.islice(enumerate_frames(EnumerationParams(2, 1)), 0, None, 50)
    formulas = [inst for _, inst in correspondence_instances()]
    assert _shared_and_fresh(frames, formulas) > 0


@pytest.mark.parametrize("seed", range(3))
def test_conditional_memo_agrees_on_ordering_and_quasi_frames(seed):
    """Random ordering, quasi and selection frames: each evaluated twice in
    a row, then the first again after the second, and both let go before
    the next pair is built.  One formula's conditional has the same
    antecedent and consequent, both empty, in every block, so a value kept
    for another frame or a block of another size would show."""
    rng = random.Random(f"conditional-memo-{seed}")
    n, nd = rng.randint(2, 3), 1
    local = tuple(rng.randrange(1, 1 << nd) for _ in range(n))
    makers = [
        lambda: _random_ordering_frame(rng, n, nd, local),
        lambda: QuasiSelectionFrame(_random_ordering_frame(rng, n, nd, local)),
        lambda: _random_selection_frame(rng, n, nd, local),
    ]

    def frames():
        for i in range(9):
            first, second = makers[i % 3](), makers[(i + 1) % 3]()
            yield from (first, first, second, second, first)
            del first, second

    a, b, bottom = Atom(P, (x,)), Atom(G, (x,)), Not(Eq(x, x))
    formulas = [
        Imp(Cond(a, b), Cond(b, a)),
        Not(Cond(a, Not(b))),
        Imp(Cond(a, b), Cond(a, b)),  # valid: walks every block
        Forall(x, Cond(Or(a, Not(b)), b)),
        Imp(Imp(a, b), Cond(bottom, bottom)),
    ] + [_random_formula(rng, rng.randint(3, 7)) for _ in range(4)]
    probe = SelectionFrame.build(n, [0] * n, {}, "empty", nd)
    formulas = [phi for phi in formulas if _interpretation_count(probe, phi) <= 4096]
    assert _shared_and_fresh(frames(), formulas, reference=True) > 0


# ---------------------------------------------------------------------------
# Batches: frames that share |W| and |D| decided in one walk, each frame in
# its own segment of every block, against each frame decided alone and
# against ``reference_frame_valid``.


def _check_batch(batch, phi):
    """Each frame's verdict, counterexample and countermodel in the batch
    equal its batch-of-one ``first_failure`` and the reference.  Returns
    the positions of the failing frames."""
    results = frames_valid(batch, phi)
    assert len(results) == len(batch)
    failing = []
    for k, (frame, res) in enumerate(zip(batch, results)):
        alone, want = first_failure(frame, phi), reference_frame_valid(frame, phi)
        assert res.valid == (alone is None) == (want is None), (k, phi, frame)
        if want is not None:
            failing.append(k)
            index, model, counterexample = want
            assert alone == (
                index, model.interp, counterexample.assignment, counterexample.world
            ), (k, phi, frame)
            assert res.countermodel == model, (k, phi, frame)
            assert res.counterexample == counterexample, (k, phi, frame)
    return failing


def _random_batch_frame(rng, n: int, nd: int):
    """A selection or quasi frame with random R, table or order and local
    domains, some of them empty."""
    local = tuple(rng.randrange(1 << nd) for _ in range(n))
    if rng.random() < 0.3:
        return QuasiSelectionFrame(_random_ordering_frame(rng, n, nd, local))
    return _random_selection_frame(rng, n, nd, local)


def _selects_nothing(n: int, nd: int) -> SelectionFrame:
    return SelectionFrame.build(n, [(1 << n) - 1] * n, {}, "empty", nd)


def _centered(n: int, nd: int) -> SelectionFrame:
    return SelectionFrame.build(n, [(1 << n) - 1] * n, {}, "centering", nd)


# T > ~(P0(x) & P1(x) & P2(x)): valid where nothing is selected; on a
# centered frame of two worlds and one element it first fails at
# interpretation 21 (all three true at w1, each predicate's w1 cell the
# later one) of 64.
_LATE = Cond(Top(), Not(conj([Atom(Predicate(k, 1), (x,)) for k in range(3)])))


@pytest.mark.parametrize("slots", [3, 16, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_batched_frames_match_each_frame_alone(monkeypatch, slots, seed):
    """Random batches of selection tables, local domains and quasi frames,
    |W| <= 3 and |D| <= 2, under blocks of at most ``slots`` slots, so that
    a block holds one interpretation per frame, a few, or all of them."""
    from condlog import semantics

    monkeypatch.setattr(semantics, "_MAX_SLOTS", slots)
    rng = random.Random(f"batch-{seed}")
    failing = valid = 0
    for _ in range(6):
        n, nd = rng.randint(1, 3), rng.randint(1, 2)
        batch = [_random_batch_frame(rng, n, nd) for _ in range(rng.randint(2, 9))]
        formulas = [_random_formula(rng, rng.randint(2, 6)) for _ in range(6)]
        formulas += [Imp(formulas[0], formulas[0])]  # valid: walks every block
        for phi in formulas:
            if _interpretation_count(batch[0], phi) > 64:
                continue
            failed = _check_batch(batch, phi)
            failing += len(failed)
            valid += len(batch) - len(failed)
    assert failing and valid


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_batch_with_one_failing_frame(monkeypatch, at):
    """One centered frame among frames that select nothing: the batch finds
    its first failure at interpretation 21, in a late block when a block
    holds few interpretations, and every other frame valid."""
    from condlog import semantics

    for slots in (2, 12, 4096):
        monkeypatch.setattr(semantics, "_MAX_SLOTS", slots)
        batch = [_selects_nothing(2, 1) for _ in range(5)]
        k = {"first": 0, "middle": 2, "last": 4}[at]
        batch[k] = _centered(2, 1)
        assert _check_batch(batch, _LATE) == [k]
        hit = semantics._failure(batch, semantics._compiled(_LATE), subset_options)
        assert [h if h is None else h[1] for h in hit] == [
            21 if i == k else None for i in range(5)
        ]


def test_batch_where_every_frame_is_valid(monkeypatch):
    """A valid formula on every frame walks every block, whatever its size."""
    from condlog import semantics

    rng = random.Random("batch-valid")
    batch = [_random_batch_frame(rng, 2, 2) for _ in range(7)]
    a, b = Atom(P, (x,)), Atom(G, (x,))
    phi = Imp(Cond(a, Forall(y, b)), Cond(a, Forall(y, b)))
    for slots in (1, 5, 4096):
        monkeypatch.setattr(semantics, "_MAX_SLOTS", slots)
        assert _check_batch(batch, phi) == []


def test_batch_of_ordering_or_mixed_sizes_is_refused():
    """A batch shares |W| and |D| and holds no ordering frame; an ordering
    frame is decided alone."""
    rng = random.Random("batch-refused")
    phi = Cond(Atom(P, (x,)), Atom(G, (x,)))
    order = _random_ordering_frame(rng, 2, 1, (1, 1))
    for batch in (
        [order, _centered(2, 1)],
        [_centered(2, 1), _centered(3, 1)],
        [_centered(2, 1), _centered(2, 2)],
    ):
        with pytest.raises(SemanticsError, match="batch"):
            frames_valid(batch, phi)
    assert frames_valid([order], phi)[0].valid == frame_valid(order, phi).valid
