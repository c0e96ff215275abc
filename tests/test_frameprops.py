import pytest

from condlog.frameprops import (
    check_domain_props,
    check_ordering_props,
    check_selection_props,
    correspondence_instances,
    qc2_correspondence_check,
    replay_witness,
)
from condlog.semantics import OrderingFrame, SelectionFrame

from test_semantics import chain_order, remark25_frame, single_world_frame


def test_remark25_weakly_but_not_stalnakerian():
    rep = check_selection_props(remark25_frame())
    assert rep.weakly_stalnakerian
    assert not rep.stalnakerian
    assert not rep.verdicts["LA"]
    # the witness is P = {2}, w = 1
    assert rep.witnesses["LA"] == (0b10, 0)


def test_single_world_centering_table_fully_stalnakerian():
    rep = check_selection_props(single_world_frame())
    for name in ("Success", "WeakCentering", "LA", "Uniformity", "Uniqueness"):
        assert rep.verdicts[name]
    assert rep.stalnakerian


def test_uniformity_and_uniqueness_imply_wla():
    # spot check on a small zoo of frames, including ones failing each side
    frames = [
        remark25_frame(),
        single_world_frame(),
        SelectionFrame.build(2, (0b11, 0b11), {}, "empty", 1),
        SelectionFrame.build(
            2, (0b11, 0b11), {(0b11, 0): 0b11}, "centering", 1
        ),
        SelectionFrame.build(
            2, (0b11, 0b11), {(0b10, 0): 0b10, (0b11, 0): 0b01}, "centering", 1
        ),
    ]
    for frame in frames:
        rep = check_selection_props(frame)
        if rep.verdicts["Uniformity"] and rep.verdicts["Uniqueness"]:
            assert rep.verdicts["WLA"], frame
        if rep.verdicts["LA"]:
            assert rep.verdicts["WLA"], frame


def test_witness_replay():
    frame = remark25_frame()
    rep = check_selection_props(frame)
    for cond, wit in rep.witnesses.items():
        assert replay_witness(frame, cond, wit), cond


def test_ordering_props_k_restriction():
    """The three-world restriction of the infinite model's order is a finite
    linear order, hence Lewisian and Stalnakerian."""
    frame = chain_order(3)
    rep = check_ordering_props(frame)
    assert rep.lewisian
    assert rep.stalnakerian
    assert rep.verdicts["SLA"]


def test_ordering_missing_reflexive_pair():
    pairs = {0: [(0, 1), (1, 1)], 1: [(1, 1)]}
    frame = OrderingFrame.build(2, (0b11, 0b10), pairs, 1)
    rep = check_ordering_props(frame)
    assert not rep.verdicts["StronglyConnected"] or not rep.verdicts["WeakCentering"]
    for cond, wit in rep.witnesses.items():
        assert replay_witness(frame, cond, wit), cond


def test_finite_linear_orders_satisfy_sla_two_cycle_does_not():
    # antisymmetric + transitive + finite forces SLA; a 2-cycle breaks it
    good = chain_order(3)
    assert check_ordering_props(good).verdicts["SLA"]
    pairs = {
        0: [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2), (1, 2), (2, 1)],
        1: [(1, 1)],
        2: [(2, 2)],
    }
    cyc = OrderingFrame.build(3, (0b111, 0b010, 0b100), pairs, 1)
    rep = check_ordering_props(cyc)
    assert not rep.verdicts["SLA"]
    # conditions 1-5 hold here, so SLA is not implied by them alone
    assert rep.lewisian


def test_domain_props():
    rep = check_domain_props(remark25_frame())
    assert rep.verdicts["GloballyConstant"]

    grown = SelectionFrame.build(
        2, (0b01, 0b10), {}, "centering", 2, local=(0b01, 0b11),
    )
    # add accessibility w -> v to see growth
    grown = SelectionFrame.build(
        2, (0b11, 0b10), {}, "centering", 2, local=(0b01, 0b11),
    )
    rep = check_domain_props(grown)
    assert rep.verdicts["LocallyNonDecreasing"]
    assert not rep.verdicts["LocallyNonIncreasing"]
    assert not rep.verdicts["GloballyConstant"]

    impossibilia = SelectionFrame.build(
        2, (0b11, 0b11), {}, "centering", 2, local=(0b01, 0b01),
    )
    rep = check_domain_props(impossibilia)
    assert rep.verdicts["LocallyConstant"]
    assert not rep.verdicts["GloballyConstant"]


def test_correspondence_remark25():
    res = qc2_correspondence_check(remark25_frame())
    assert res.instance_valid
    assert res.properties_hold
    assert res.agree


def test_correspondence_two_element_selection():
    # a table selecting two worlds fails Uniqueness and the excluded-middle
    # instance together
    frame = SelectionFrame.build(
        2, (0b11, 0b11), {(0b11, 0): 0b11}, "centering", 1
    )
    rep = check_selection_props(frame)
    assert not rep.verdicts["Uniqueness"]
    res = qc2_correspondence_check(frame)
    assert not res.instance_valid
    assert not res.properties_hold
    assert res.agree


def test_correspondence_family_instantiates_the_schemas():
    """The finite family is the hand-built one, in its order and with its
    names, and each member is an instance of the schema its name cites."""
    from condlog.hilbert import is_axiom_instance
    from condlog.syntax import (
        And, Atom, Cond, Forall, Imp, Not, Or, Predicate, Variable,
    )

    x, y = Variable(0), Variable(1)
    a = Atom(Predicate(0, 1), (x,))
    b = Atom(Predicate(1, 1), (x,))
    c = Atom(Predicate(2, 1), (x,))
    ay = Atom(Predicate(0, 1), (y,))
    by_hand = [
        ("identity (19)", Cond(a, a)),
        ("weak centering (21)", Imp(Cond(a, b), Imp(a, b))),
        ("excluded middle (22)", Or(Cond(a, b), Cond(a, Not(b)))),
        ("universal instantiation (23)", Imp(Forall(x, a), ay)),
        (
            "quantifier distribution (24)",
            Imp(Forall(x, Cond(ay, b)), Cond(ay, Forall(x, b))),
        ),
        (
            "order transfer (20)",
            Imp(And(Cond(a, b), And(Cond(b, a), Cond(a, c))), Cond(b, c)),
        ),
    ]
    family = correspondence_instances()
    assert family == by_hand
    assert [repr(f) for _, f in family] == [repr(f) for _, f in by_hand]
    for name, inst in family:
        schema = name.rsplit("(", 1)[1].rstrip(")")
        assert is_axiom_instance(schema, inst), name


def test_condition_subsets_match_the_full_report():
    """A report on a subset of the conditions has the verdicts and witnesses
    of the full report restricted to that subset.  Every 3rd frame of the
    (2 worlds, 1 element) enumeration is checked, each against a different
    nonempty subset in turn, so every subset is used."""
    from itertools import combinations, islice

    from condlog.frameprops import SELECTION_CONDITIONS
    from condlog.search import EnumerationParams, enumerate_frames

    subsets = [
        c
        for k in range(1, len(SELECTION_CONDITIONS) + 1)
        for c in combinations(SELECTION_CONDITIONS, k)
    ]
    frames = enumerate_frames(EnumerationParams(max_worlds=2, max_domain=1))
    checked = 0
    for i, frame in enumerate(islice(frames, 0, None, 3)):
        subset = subsets[i % len(subsets)]
        full = check_selection_props(frame)
        part = check_selection_props(frame, subset)
        assert part.verdicts == {c: full.verdicts[c] for c in subset}, frame
        assert part.witnesses == {
            c: w for c, w in full.witnesses.items() if c in subset
        }, frame
        assert list(part.verdicts) == list(subset)
        checked += 1
    assert checked == 55781  # ceil(167,341 / 3)


def test_partial_reports_read_only_the_classes_they_decided():
    """A report records its kind when it is built, so a class is read from
    that kind's conditions; a class whose conditions were not all decided
    raises ValueError naming them, and the JSON leaves it out."""
    from condlog.frameprops import WEAKLY_STALNAKERIAN

    weak = check_selection_props(remark25_frame(), WEAKLY_STALNAKERIAN)
    assert weak.weakly_stalnakerian
    with pytest.raises(ValueError, match="LA"):
        weak.stalnakerian
    with pytest.raises(ValueError, match="lewisian"):
        weak.lewisian
    assert weak.to_json() == {
        "verdicts": dict.fromkeys(
            ("Success", "WeakCentering", "Uniformity", "Uniqueness"), True
        ),
        "weaklyStalnakerian": True,
        "witnesses": {},
    }
    la = check_selection_props(remark25_frame(), ("LA",))
    with pytest.raises(ValueError, match="Success"):
        la.stalnakerian
    assert set(la.to_json()) == {"verdicts", "witnesses"}
    full = check_selection_props(remark25_frame())
    assert full.weakly_stalnakerian and not full.stalnakerian
    assert list(full.to_json()) == [
        "verdicts", "stalnakerian", "weaklyStalnakerian", "witnesses"
    ]
    ordering = check_ordering_props(chain_order(3))
    assert ordering.stalnakerian and ordering.lewisian
    with pytest.raises(ValueError, match="weaklyStalnakerian"):
        ordering.weakly_stalnakerian
    with pytest.raises(ValueError, match="stalnakerian"):
        check_domain_props(remark25_frame()).stalnakerian


def test_unknown_condition_name_rejected():
    with pytest.raises(ValueError, match="Centering"):
        check_selection_props(remark25_frame(), ("Success", "Centering"))


def test_domain_condition_subsets_match_the_full_report():
    """A domain report on a subset of the conditions has the verdicts and
    witnesses of the full report restricted to what it decided: the named
    conditions, both local ones when LocallyConstant is named, and
    LocallyConstant exactly when both local verdicts are present.  Every 3rd
    frame of the (2 worlds, 1 element) enumeration is checked, each against a
    different subset in turn, so every subset is used."""
    from itertools import combinations, islice

    from condlog.frameprops import DOMAIN_CONDITIONS
    from condlog.search import EnumerationParams, enumerate_frames

    local = {"LocallyNonDecreasing", "LocallyNonIncreasing"}
    subsets = [
        c
        for k in range(len(DOMAIN_CONDITIONS) + 1)
        for c in combinations(DOMAIN_CONDITIONS, k)
    ]
    frames = enumerate_frames(EnumerationParams(max_worlds=2, max_domain=1))
    checked = 0
    for i, frame in enumerate(islice(frames, 0, None, 3)):
        subset = subsets[i % len(subsets)]
        decided = set(subset)
        if "LocallyConstant" in decided:
            decided |= local
        if local <= decided:
            decided.add("LocallyConstant")
        full = check_domain_props(frame)
        part = check_domain_props(frame, subset)
        assert part.verdicts == {
            c: v for c, v in full.verdicts.items() if c in decided
        }, frame
        assert part.witnesses == {
            c: w for c, w in full.witnesses.items() if c in decided
        }, frame
        checked += 1
    assert checked == 55781


def test_unknown_domain_condition_name_rejected():
    with pytest.raises(ValueError, match="LocallyEmpty"):
        check_domain_props(remark25_frame(), ("GloballyConstant", "LocallyEmpty"))


def test_correspondence_check_decides_only_global_constancy(monkeypatch):
    from condlog import frameprops

    asked = []
    real = frameprops.check_domain_props

    def spy(frame, conditions=frameprops.DOMAIN_CONDITIONS):
        asked.append(tuple(conditions))
        return real(frame, conditions)

    monkeypatch.setattr(frameprops, "check_domain_props", spy)
    assert qc2_correspondence_check(remark25_frame()).agree
    assert asked == [("GloballyConstant",)]


def test_all_eight_witnesses_pinned():
    """A frame failing every selection condition, with the first violation
    of each in (world, subset) order."""
    frame = SelectionFrame(2, (0, 3), ((0, 0, 0, 0), (0, 0, 1, 3)), 1, (1, 1))
    rep = check_selection_props(frame)
    assert rep.witnesses == {
        "Success": (2, 1),
        "WeakCentering": (1, 0),
        "StrongCentering": (1, 0),
        "LA": (1, 1),
        "WLA": (1, 2, 1),
        "Uniformity": (1, 2, 1),
        "Uniqueness": (3, 1),
        "RationalMonotonicity": (2, 3, 1),
    }
    assert not any(rep.verdicts.values())
    for cond, wit in rep.witnesses.items():
        assert replay_witness(frame, cond, wit), cond


def order_faulty_frame() -> OrderingFrame:
    """An ordering frame failing every ordering and domain condition."""
    import json
    from pathlib import Path

    from condlog.fileformats import load_model

    path = Path(__file__).parent / "fixtures" / "order_faulty.json"
    return load_model(json.loads(path.read_text())).frame


def test_ordering_and_domain_witnesses_pinned():
    """The first violation of each ordering and domain condition, in the
    search order of each (worlds outermost)."""
    frame = order_faulty_frame()
    rep = check_ordering_props(frame)
    assert rep.witnesses == {
        "Reflexivity": (1,),
        "Transitivity": (0, 1, 0, 0),
        "StronglyConnected": (0, 0, 0),
        "WeakCentering": (0, 0),
        "StrongCentering": (1, 0),
        "SLA": (3, 0),
    }
    assert not any(rep.verdicts.values())
    dom = check_domain_props(frame)
    assert dom.witnesses == {
        "GloballyConstant": (0,),
        "LocallyNonDecreasing": (0, 2),
        "LocallyNonIncreasing": (0, 1),
    }
    assert not any(dom.verdicts.values())
    for report in (rep, dom):
        for cond, wit in report.witnesses.items():
            assert replay_witness(frame, cond, wit), cond


def test_replay_rejects_tuples_outside_the_search_space():
    """A tuple that violates the predicate but is not a candidate of the
    condition (here: a world not accessible from the evaluation world) does
    not replay, on the frames where the checks find no violation."""
    selection = SelectionFrame.build(
        2, (0b01, 0b10), {}, "centering", 1, local=(0b1, 0b0)
    )
    assert check_domain_props(selection).verdicts["LocallyNonDecreasing"]
    assert not replay_witness(selection, "LocallyNonDecreasing", (0, 1))
    assert not replay_witness(selection, "LocallyNonIncreasing", (1, 0))
    order = OrderingFrame.build(2, (0b01, 0b10), {0: [(0, 0)], 1: [(1, 1)]}, 1)
    assert check_ordering_props(order).verdicts["StronglyConnected"]
    assert not replay_witness(order, "StronglyConnected", (1, 1, 0))
    assert not replay_witness(order, "WeakCentering", (1, 0))


def small_ordering_frames():
    """Every two-world ordering frame over a one-element domain with each
    local-domain choice, and 500 random three-world ones."""
    import itertools
    import random

    for r in itertools.product(range(4), repeat=2):
        rows = []
        for w in range(2):
            seen = [x for x in range(2) if r[w] >> x & 1]
            ups = [m for m in range(4) if not m & ~r[w]]
            rows.append(
                [
                    tuple(dict(zip(seen, choice)).get(x, 0) for x in range(2))
                    for choice in itertools.product(ups, repeat=len(seen))
                ]
            )
        for bge in itertools.product(*rows):
            for local in itertools.product(range(2), repeat=2):
                yield OrderingFrame(2, r, bge, 1, local)
    rng = random.Random(5)
    for _ in range(500):
        r = tuple(rng.randrange(8) for _ in range(3))
        bge = tuple(
            tuple(rng.randrange(8) & r[w] if r[w] >> x & 1 else 0 for x in range(3))
            for w in range(3)
        )
        yield OrderingFrame(3, r, bge, 2, tuple(rng.randrange(4) for _ in range(3)))


def _candidates(frame, shape):
    """Every candidate of a search shape on the frame, each with the
    arguments its violation predicate receives there."""
    first = shape.search(frame, lambda *args: True)  # gives the candidate length
    if first is None:
        return []
    seen: list = []
    shape.search(frame, lambda *args: seen.append(args))  # never violates
    return [(args[: len(first)], args) for args in seen]


def _assert_replay_matches_search(frame, table, report):
    for name, (shape, violates) in table.items():
        first_replayed = None
        for candidate, args in _candidates(frame, shape):
            replayed = replay_witness(frame, name, candidate)
            assert replayed == bool(violates(*args)), (name, candidate, frame)
            if replayed and first_replayed is None:
                first_replayed = candidate
        assert report.witnesses.get(name) == first_replayed, (name, frame)


@pytest.mark.slow
def test_replay_matches_the_violation_predicate_on_every_candidate():
    """On every frame of the (2 worlds, 1 element) enumeration and on small
    ordering frames, a candidate of a condition's search replays exactly
    when its violation predicate holds there, and the check's witness is
    the first candidate that replays."""
    from condlog.frameprops import _DOMAIN, _ORDERING, _SELECTION
    from condlog.search import EnumerationParams, enumerate_frames

    # the selection conditions read only R and the table, the domain ones
    # only R and the local domains: each distinct input is checked once
    tables, domains = set(), set()
    for frame in enumerate_frames(EnumerationParams(max_worlds=2, max_domain=1)):
        if (frame.r, frame.table) not in tables:
            tables.add((frame.r, frame.table))
            _assert_replay_matches_search(
                frame, _SELECTION, check_selection_props(frame)
            )
        if (frame.r, frame.local) not in domains:
            domains.add((frame.r, frame.local))
            _assert_replay_matches_search(frame, _DOMAIN, check_domain_props(frame))
    assert (len(tables), len(domains)) == (41910, 43)
    for frame in small_ordering_frames():
        _assert_replay_matches_search(frame, _ORDERING, check_ordering_props(frame))
        _assert_replay_matches_search(frame, _DOMAIN, check_domain_props(frame))
