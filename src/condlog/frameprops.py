"""Decision procedures for the named frame conditions, with witnesses.

Every verdict is computed by exhaustive quantification over subsets of W
(bit masks).  Conditions quantifying over pairs of subsets are guarded at a
smaller world ceiling than single-subset ones, since they cost 4^|W|.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, NamedTuple, Optional, Sequence

from .semantics import (
    OrderingFrame,
    ResourceGuard,
    SelectionFrame,
    _bits,
    frame_valid,
    frames_valid,
)
from .hilbert import schema_instance
from .syntax import Atom, EPred, Forall, Formula, Predicate, Variable, subformulas

MAX_WORLDS_SUBSET = 16
MAX_WORLDS_PAIR = 10


@dataclass
class FrameReport:
    """Verdicts and witnesses of one kind of condition (selection, ordering
    or domain), recorded when built.  Reading a frame class of another kind,
    or one whose conditions were not all decided, raises ``ValueError``."""

    kind: str
    verdicts: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, tuple] = field(default_factory=dict)

    def _holds(self, name: str) -> bool:
        conditions = _CLASSES[self.kind].get(name)
        if conditions is None:
            raise ValueError(f"{name} is not a class of {self.kind} frames")
        missing = [c for c in conditions if c not in self.verdicts]
        if missing:
            raise ValueError(f"{name} needs the undecided conditions {missing}")
        return all(self.verdicts[c] for c in conditions)

    @property
    def stalnakerian(self) -> bool:
        return self._holds("stalnakerian")

    @property
    def weakly_stalnakerian(self) -> bool:
        return self._holds("weaklyStalnakerian")

    def first_failure(self, order: Sequence[str]) -> str:
        for c in order:
            if not self.verdicts.get(c, True):
                return c
        return "unknown"

    def to_json(self) -> dict:
        out: dict = {"verdicts": dict(self.verdicts)}
        for name, conditions in _CLASSES[self.kind].items():
            if all(c in self.verdicts for c in conditions):
                out[name] = self._holds(name)
        out["witnesses"] = {k: repr(v) for k, v in self.witnesses.items()}
        return out


def _guard(frame: SelectionFrame | OrderingFrame, pairs: bool) -> None:
    limit = MAX_WORLDS_PAIR if pairs else MAX_WORLDS_SUBSET
    if frame.n_worlds > limit:
        raise ResourceGuard(
            f"property check needs |W| <= {limit}, frame has {frame.n_worlds}"
        )


# Each condition is a search shape plus a violation predicate.  A shape walks
# its candidates in a fixed order and returns the first at which
# ``violates(*candidate, *values)`` holds, None when there is none.  Selection
# and domain shapes pass the values they read, since they run on every
# enumerated frame; the ordering shapes pass the frame.


class _Shape(NamedTuple):
    search: Callable[..., Optional[tuple]]
    pairs: bool = False  # quantifies over pairs of subsets: the pair ceiling


# (p, w): worlds, then subsets p ascending; reads f(p, w) and R(w).
def _search_subsets(frame: SelectionFrame, violates) -> Optional[tuple]:
    for w, row in enumerate(frame.table):
        rw = frame.r[w]
        for p, fp in enumerate(row):
            if violates(p, w, fp, rw):
                return (p, w)
    return None


_SUBSETS = _Shape(_search_subsets)


# (p, q, w): worlds, then p, then q ascending; reads f(p, w) and f(q, w).
def _search_pairs(frame: SelectionFrame, violates) -> Optional[tuple]:
    for w, row in enumerate(frame.table):
        for p, fp in enumerate(row):
            for q, fq in enumerate(row):
                if violates(p, q, w, fp, fq):
                    return (p, q, w)
    return None


_PAIRS = _Shape(_search_pairs, pairs=True)


# (p, q, w) with p within q: worlds, then q ascending, then p descending
# from q to the empty set; reads f(p, w) and f(q, w).
def _search_nested(frame: SelectionFrame, violates) -> Optional[tuple]:
    for w, row in enumerate(frame.table):
        for q, fq in enumerate(row):
            p = q
            while True:
                if violates(p, q, w, row[p], fq):
                    return (p, q, w)
                if p == 0:
                    break
                p = (p - 1) & q
    return None


_NESTED = _Shape(_search_nested, pairs=True)


# (w,): worlds ascending; reads the local domain of w and the whole domain.
def _search_worlds(frame: SelectionFrame | OrderingFrame, violates) -> Optional[tuple]:
    full = (1 << frame.n_domain) - 1
    for w, lw in enumerate(frame.local):
        if violates(w, lw, full):
            return (w,)
    return None


_WORLDS = _Shape(_search_worlds)


# (w, v) with v in R(w): worlds, then v ascending; reads the local domains
# of w and v.
def _search_successors(
    frame: SelectionFrame | OrderingFrame, violates
) -> Optional[tuple]:
    local = frame.local
    for w, rw in enumerate(frame.r):
        lw = local[w]
        for v, lv in enumerate(local):
            if rw >> v & 1 and violates(w, v, lw, lv):
                return (w, v)
    return None


_SUCCESSORS = _Shape(_search_successors)


def _accessible(fr: OrderingFrame, w: int) -> list[int]:
    return list(_bits(fr.r[w]))


def _product(k: int, within: Callable[..., Sequence[int]] = _accessible) -> _Shape:
    """(x1, ..., xk, w) with every xi in within(frame, w): worlds, then the
    xi lexicographically."""

    def search(frame: OrderingFrame, violates) -> Optional[tuple]:
        for w in range(frame.n_worlds):
            for xs in itertools.product(within(frame, w), repeat=k):
                if violates(*xs, w, frame):
                    return (*xs, w)
        return None

    return _Shape(search)


def _no_least_element(s: int, w: int, fr: OrderingFrame) -> bool:
    live = s & fr.r[w]
    return bool(live) and not any(
        fr.ble(w, x) & s & ~(1 << x) == 0 for x in _bits(live)
    )


_SELECTION = {
    "Success": (_SUBSETS, lambda p, w, fp, rw: fp & ~p),
    "WeakCentering": (_SUBSETS, lambda p, w, fp, rw: p >> w & 1 and not fp >> w & 1),
    "StrongCentering": (_SUBSETS, lambda p, w, fp, rw: p >> w & 1 and fp != 1 << w),
    "LA": (_SUBSETS, lambda p, w, fp, rw: not fp and p & rw),
    "WLA": (_PAIRS, lambda p, q, w, fp, fq: not fp and p & fq),
    "Uniformity": (
        _PAIRS,
        lambda p, q, w, fp, fq: not fp & ~q and not fq & ~p and fp != fq,
    ),
    "Uniqueness": (_SUBSETS, lambda p, w, fp, rw: fp & (fp - 1)),
    "RationalMonotonicity": (_NESTED, lambda p, q, w, fp, fq: fq & p and fp != fq & p),
}
_ORDERING = {
    "Reflexivity": (_product(0), lambda w, fr: not fr.r[w] >> w & 1),
    "Transitivity": (
        _product(3),
        lambda x, y, z, w, fr: fr.leq(w, x, y)
        and fr.leq(w, y, z)
        and not fr.leq(w, x, z),
    ),
    "StronglyConnected": (
        _product(2),
        lambda x, y, w, fr: not (fr.leq(w, x, y) or fr.leq(w, y, x)),
    ),
    "WeakCentering": (_product(1), lambda x, w, fr: not fr.leq(w, w, x)),
    "StrongCentering": (_product(1), lambda x, w, fr: x != w and fr.leq(w, x, w)),
    "SLA": (_product(1, lambda fr, w: range(1 << fr.n_worlds)), _no_least_element),
}
# LocallyConstant is the conjunction of the two local conditions.
_DOMAIN = {
    "GloballyConstant": (_WORLDS, lambda w, lw, full: lw != full),
    "LocallyNonDecreasing": (_SUCCESSORS, lambda w, v, lw, lv: lw & ~lv),
    "LocallyNonIncreasing": (_SUCCESSORS, lambda w, v, lw, lv: lv & ~lw),
}

SELECTION_CONDITIONS = tuple(_SELECTION)
_PAIR_CONDITIONS = frozenset(c for c, (shape, _) in _SELECTION.items() if shape.pairs)
ORDERING_CONDITIONS = tuple(_ORDERING)
DOMAIN_CONDITIONS = (*_DOMAIN, "LocallyConstant")
# The two classes of selection frames, each cheapest condition first.
WEAKLY_STALNAKERIAN = ("Success", "WeakCentering", "Uniqueness", "Uniformity")
STALNAKERIAN = ("Success", "WeakCentering", "LA", "Uniqueness", "Uniformity")
_LEWISIAN = tuple(c for c in ORDERING_CONDITIONS if c != "SLA")
# The frame classes of each kind of report, by JSON name.
_CLASSES = {
    "selection": {"stalnakerian": STALNAKERIAN, "weaklyStalnakerian": WEAKLY_STALNAKERIAN},
    "ordering": {"stalnakerian": ORDERING_CONDITIONS, "lewisian": _LEWISIAN},
    "domain": {},
}


def _violation(
    frame: SelectionFrame | OrderingFrame, table: dict, name: str
) -> Optional[tuple]:
    """The first witness against condition ``name`` of ``table``, or None
    when the frame meets it."""
    shape, violates = table[name]
    return shape.search(frame, violates)


def _cheapest_first(conditions: Container[str]) -> tuple[str, ...]:
    """The selection conditions in ``conditions``, in ``_SELECTION`` order
    with those over single subsets before those over pairs."""
    wanted = [c for c in _SELECTION if c in conditions]
    return tuple(sorted(wanted, key=lambda c: c in _PAIR_CONDITIONS))


def _meets(frame: SelectionFrame, conditions: Sequence[str]) -> bool:
    """Whether ``frame`` meets every selection condition of ``conditions``,
    decided in their order up to the first that fails."""
    return all(_violation(frame, _SELECTION, name) is None for name in conditions)


def _report(
    frame: SelectionFrame | OrderingFrame, kind: str, table: dict, wanted: Container[str]
) -> FrameReport:
    rep = FrameReport(kind)
    for name in table:
        if name in wanted:
            witness = _violation(frame, table, name)
            rep.verdicts[name] = witness is None
            if witness is not None:
                rep.witnesses[name] = witness
    return rep


def check_selection_props(
    frame: SelectionFrame, conditions: Iterable[str] = SELECTION_CONDITIONS
) -> FrameReport:
    """Exact verdicts for the selection-frame conditions of the workbench.

    ``conditions`` names the conditions to decide (all eight by default);
    the report holds a verdict for each of them, in the order of
    ``SELECTION_CONDITIONS``, and a witness for each that fails, the same
    as the full report restricted to them.  An unknown name raises
    ``ValueError``.  Each condition reads the rows of ``frame.table``; the
    world ceiling is the pair one when a condition over pairs of subsets is
    asked for."""
    wanted = frozenset(conditions)
    unknown = wanted - _SELECTION.keys()
    if unknown:
        raise ValueError(f"unknown selection conditions {sorted(unknown)}")
    _guard(frame, pairs=bool(wanted & _PAIR_CONDITIONS))
    return _report(frame, "selection", _SELECTION, wanted)


def check_ordering_props(frame: OrderingFrame) -> FrameReport:
    _guard(frame, pairs=False)
    return _report(frame, "ordering", _ORDERING, _ORDERING)


def check_domain_props(
    frame: SelectionFrame | OrderingFrame, conditions: Iterable[str] = DOMAIN_CONDITIONS
) -> FrameReport:
    """Exact verdicts for the domain conditions named in ``conditions`` (all
    four by default), with a witness for each that fails.  LocallyConstant
    is derived when both local verdicts are present, and asking for it
    decides both.  An unknown name raises ``ValueError``."""
    wanted = set(conditions)
    unknown = wanted - set(DOMAIN_CONDITIONS)
    if unknown:
        raise ValueError(f"unknown domain conditions {sorted(unknown)}")
    if "LocallyConstant" in wanted:
        wanted.update(("LocallyNonDecreasing", "LocallyNonIncreasing"))
    rep = _report(frame, "domain", _DOMAIN, wanted)
    verdicts = rep.verdicts
    if "LocallyNonDecreasing" in verdicts and "LocallyNonIncreasing" in verdicts:
        verdicts["LocallyConstant"] = (
            verdicts["LocallyNonDecreasing"] and verdicts["LocallyNonIncreasing"]
        )
    return rep


# ---------------------------------------------------------------------------
# Frame correspondence for the base conditional logic (valid over exactly the
# weakly Stalnakerian globally constant frames).


@dataclass(frozen=True)
class CorrespondenceResult:
    instance_valid: bool
    properties_hold: bool
    failing_instance: Optional[str] = None

    @property
    def agree(self) -> bool:
        return self.instance_valid == self.properties_hold

    def to_json(self) -> dict:
        return {
            "instanceValid": self.instance_valid,
            "propertiesHold": self.properties_hold,
            "agree": self.agree,
            "failingInstance": self.failing_instance,
        }


def _instance_family() -> tuple[tuple[str, Formula], ...]:
    x, y = Variable(0), Variable(1)
    a = Atom(Predicate(0, 1), (x,))
    b = Atom(Predicate(1, 1), (x,))
    c = Atom(Predicate(2, 1), (x,))
    ay = Atom(Predicate(0, 1), (y,))
    return (
        ("identity (19)", schema_instance("19", a=a)),
        ("weak centering (21)", schema_instance("21", a=a, b=b)),
        ("excluded middle (22)", schema_instance("22", a=a, b=b)),
        ("universal instantiation (23)", schema_instance("23", x=x, a=a, c=ay)),
        ("quantifier distribution (24)", schema_instance("24", x=x, a=ay, b=b)),
        ("order transfer (20)", schema_instance("20", a=a, b=b, c=c)),
    )


# Built once: the sweeps check the same six formulas on every frame.
_INSTANCE_FAMILY = _instance_family()
# How many of the family's first members have no quantifier and no E (19, 21
# and 22).  ``frame_valid`` ranges their free variables and interpretations
# over all of D at every world, and only E and the quantifiers read the local
# domains, so their verdicts depend on (W, R, table, |D|) alone.
_LOCAL_FREE = next(
    i
    for i, (_, inst) in enumerate(_INSTANCE_FAMILY)
    if any(isinstance(sub, (Forall, EPred)) for sub in subformulas(inst))
)


def correspondence_instances() -> list[tuple[str, Formula]]:
    """The finite instance family used by the correspondence check."""
    return list(_INSTANCE_FAMILY)


def qc2_correspondence_check(frame: SelectionFrame) -> CorrespondenceResult:
    """Instance-family validity versus (weakly Stalnakerian and globally
    constant), checked independently; the two verdicts should coincide.

    The frame conditions are decided one at a time, cheapest first, and the
    check stops at the first that fails."""
    globally_constant = check_domain_props(frame, ("GloballyConstant",))
    properties_hold = globally_constant.verdicts["GloballyConstant"] and all(
        check_selection_props(frame, (name,)).verdicts[name]
        for name in WEAKLY_STALNAKERIAN
    )

    instance_valid = True
    failing = None
    for name, inst in correspondence_instances():
        res = frame_valid(frame, inst)
        if not res.valid:
            instance_valid = False
            failing = name
            break
    return CorrespondenceResult(instance_valid, properties_hold, failing)


def _shared_failure(
    firsts: Sequence[SelectionFrame],
) -> list[Optional[tuple[str, bool]]]:
    """Per frame of ``firsts``, a batch of frames with one |W| and |D|, the
    verdicts shared by every frame with its W, R, table and |D|: the first
    of the family's leading members that read no local domain (19, 21 and
    22) to fail on it, and whether the table is weakly Stalnakerian,
    decided cheapest first up to the first condition that fails; None when
    all of those members hold.  Each member is decided as one batch on the
    frames where the members before it held."""
    out: list[Optional[tuple[str, bool]]] = [None] * len(firsts)
    todo = list(range(len(firsts)))
    for name, inst in _INSTANCE_FAMILY[:_LOCAL_FREE]:
        if not todo:
            break
        results = frames_valid([firsts[k] for k in todo], inst)
        for k, res in zip(todo, results):
            if not res.valid:
                out[k] = name, _meets(firsts[k], WEAKLY_STALNAKERIAN)
        todo = [k for k in todo if out[k] is None]
    return out


def _group_results(
    frames: Sequence[SelectionFrame],
    shared: Optional[tuple[str, bool]],
) -> list[CorrespondenceResult]:
    """The results of ``frames``, one group whose ``_shared_failure`` is
    ``shared``: each frame checked on its own when it is None, and
    otherwise the shared failing instance with the properties holding where
    the table is weakly Stalnakerian and the frame globally constant."""
    if shared is None:
        return [qc2_correspondence_check(f) for f in frames]
    failing, weakly = shared
    return [
        CorrespondenceResult(
            False,
            weakly and _violation(frame, _DOMAIN, "GloballyConstant") is None,
            failing,
        )
        for frame in frames
    ]
