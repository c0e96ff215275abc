"""Decision procedures for the named frame conditions, with witnesses.

Every verdict is computed by exhaustive quantification over subsets of W
(bit masks).  Conditions quantifying over pairs of subsets are guarded at a
smaller world ceiling than single-subset ones, since they cost 4^|W|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .semantics import (
    OrderingFrame,
    ResourceGuard,
    SelectionFrame,
    _bits,
    frame_valid,
)
from .syntax import (
    And,
    Atom,
    Cond,
    Forall,
    Formula,
    Imp,
    Not,
    Or,
    Predicate,
    Variable,
)

SELECTION_CONDITIONS = (
    "Success",
    "WeakCentering",
    "StrongCentering",
    "LA",
    "WLA",
    "Uniformity",
    "Uniqueness",
    "RationalMonotonicity",
)
ORDERING_CONDITIONS = (
    "Reflexivity",
    "Transitivity",
    "StronglyConnected",
    "WeakCentering",
    "StrongCentering",
    "SLA",
)
DOMAIN_CONDITIONS = (
    "GloballyConstant",
    "LocallyNonDecreasing",
    "LocallyNonIncreasing",
    "LocallyConstant",
)

MAX_WORLDS_SUBSET = 16
MAX_WORLDS_PAIR = 10


@dataclass
class FrameReport:
    verdicts: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, tuple] = field(default_factory=dict)

    @property
    def stalnakerian(self) -> bool:
        if "Success" in self.verdicts:
            return all(
                self.verdicts[c]
                for c in ("Success", "WeakCentering", "LA", "Uniformity", "Uniqueness")
            )
        return all(self.verdicts.get(c, False) for c in ORDERING_CONDITIONS)

    @property
    def weakly_stalnakerian(self) -> bool:
        return all(
            self.verdicts.get(c, False)
            for c in ("Success", "WeakCentering", "Uniformity", "Uniqueness")
        )

    @property
    def lewisian(self) -> bool:
        return all(
            self.verdicts.get(c, False)
            for c in ORDERING_CONDITIONS
            if c != "SLA"
        )

    def first_failure(self, order: Sequence[str]) -> str:
        for c in order:
            if not self.verdicts.get(c, True):
                return c
        return "unknown"

    def to_json(self) -> dict:
        out: dict = {"verdicts": dict(self.verdicts)}
        if "Success" in self.verdicts:
            out["stalnakerian"] = self.stalnakerian
            out["weaklyStalnakerian"] = self.weakly_stalnakerian
        if "SLA" in self.verdicts:
            out["stalnakerian"] = self.stalnakerian
            out["lewisian"] = self.lewisian
        out["witnesses"] = {k: repr(v) for k, v in self.witnesses.items()}
        return out


def _guard(frame: SelectionFrame | OrderingFrame, pairs: bool) -> None:
    limit = MAX_WORLDS_PAIR if pairs else MAX_WORLDS_SUBSET
    if frame.n_worlds > limit:
        raise ResourceGuard(
            f"property check needs |W| <= {limit}, frame has {frame.n_worlds}"
        )


def check_selection_props(frame: SelectionFrame) -> FrameReport:
    """Exact verdicts for the selection-frame conditions of the workbench."""
    _guard(frame, pairs=True)
    n = frame.n_worlds
    subsets = range(1 << n)
    rep = FrameReport()

    def record(name: str, ok: bool, witness: Optional[tuple]) -> None:
        rep.verdicts[name] = ok
        if not ok and witness is not None:
            rep.witnesses[name] = witness

    ok, wit = True, None
    for w in range(n):
        for p in subsets:
            if frame.f(p, w) & ~p:
                ok, wit = False, (p, w)
                break
        if not ok:
            break
    record("Success", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for p in subsets:
            if p & (1 << w) and not frame.f(p, w) & (1 << w):
                ok, wit = False, (p, w)
                break
        if not ok:
            break
    record("WeakCentering", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for p in subsets:
            if p & (1 << w) and frame.f(p, w) != 1 << w:
                ok, wit = False, (p, w)
                break
        if not ok:
            break
    record("StrongCentering", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for p in subsets:
            if frame.f(p, w) == 0 and p & frame.r[w]:
                ok, wit = False, (p, w)
                break
        if not ok:
            break
    record("LA", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for p in subsets:
            if frame.f(p, w) != 0:
                continue
            for q in subsets:
                if p & frame.f(q, w):
                    ok, wit = False, (p, q, w)
                    break
            if not ok:
                break
        if not ok:
            break
    record("WLA", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for p in subsets:
            fp = frame.f(p, w)
            for q in subsets:
                fq = frame.f(q, w)
                if fp & ~q == 0 and fq & ~p == 0 and fp != fq:
                    ok, wit = False, (p, q, w)
                    break
            if not ok:
                break
        if not ok:
            break
    record("Uniformity", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for p in subsets:
            fp = frame.f(p, w)
            if fp & (fp - 1):
                ok, wit = False, (p, w)
                break
        if not ok:
            break
    record("Uniqueness", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for q in subsets:
            fq = frame.f(q, w)
            p = q
            while True:
                # iterate subsets p of q
                if fq & p and frame.f(p, w) != fq & p:
                    ok, wit = False, (p, q, w)
                    break
                if p == 0:
                    break
                p = (p - 1) & q
            if not ok:
                break
        if not ok:
            break
    record("RationalMonotonicity", ok, wit)

    return rep


def check_ordering_props(frame: OrderingFrame) -> FrameReport:
    _guard(frame, pairs=False)
    n = frame.n_worlds
    rep = FrameReport()

    def record(name: str, ok: bool, witness: Optional[tuple]) -> None:
        rep.verdicts[name] = ok
        if not ok and witness is not None:
            rep.witnesses[name] = witness

    ok, wit = True, None
    for w in range(n):
        if not frame.r[w] & (1 << w):
            ok, wit = False, (w,)
            break
    record("Reflexivity", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for x in _bits(frame.r[w]):
            for y in _bits(frame.bge[w][x]):
                if frame.bge[w][y] & ~frame.bge[w][x]:
                    z = next(_bits(frame.bge[w][y] & ~frame.bge[w][x]))
                    ok, wit = False, (x, y, z, w)
                    break
            if not ok:
                break
        if not ok:
            break
    record("Transitivity", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for x in _bits(frame.r[w]):
            for y in _bits(frame.r[w]):
                if not (frame.leq(w, x, y) or frame.leq(w, y, x)):
                    ok, wit = False, (x, y, w)
                    break
            if not ok:
                break
        if not ok:
            break
    record("StronglyConnected", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for x in _bits(frame.r[w]):
            if not frame.leq(w, w, x):
                ok, wit = False, (x, w)
                break
        if not ok:
            break
    record("WeakCentering", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for x in _bits(frame.ble(w, w)):
            if x != w:
                ok, wit = False, (x, w)
                break
        if not ok:
            break
    record("StrongCentering", ok, wit)

    ok, wit = True, None
    for w in range(n):
        for s in range(1 << n):
            live = s & frame.r[w]
            if not live:
                continue
            if not any(frame.ble(w, x) & s & ~(1 << x) == 0 for x in _bits(live)):
                ok, wit = False, (s, w)
                break
        if not ok:
            break
    record("SLA", ok, wit)

    return rep


def check_domain_props(frame: SelectionFrame | OrderingFrame) -> FrameReport:
    n = frame.n_worlds
    full = (1 << frame.n_domain) - 1
    rep = FrameReport()

    rep.verdicts["GloballyConstant"] = all(frame.local[w] == full for w in range(n))
    if not rep.verdicts["GloballyConstant"]:
        w = next(w for w in range(n) if frame.local[w] != full)
        rep.witnesses["GloballyConstant"] = (w,)

    nondec, wit_d = True, None
    noninc, wit_i = True, None
    for w in range(n):
        for v in _bits(frame.r[w]):
            if nondec and frame.local[w] & ~frame.local[v]:
                nondec, wit_d = False, (w, v)
            if noninc and frame.local[v] & ~frame.local[w]:
                noninc, wit_i = False, (w, v)
    rep.verdicts["LocallyNonDecreasing"] = nondec
    if wit_d:
        rep.witnesses["LocallyNonDecreasing"] = wit_d
    rep.verdicts["LocallyNonIncreasing"] = noninc
    if wit_i:
        rep.witnesses["LocallyNonIncreasing"] = wit_i
    rep.verdicts["LocallyConstant"] = nondec and noninc
    return rep


def replay_witness(
    frame: SelectionFrame | OrderingFrame, condition: str, witness: tuple
) -> bool:
    """True when the stored witness still violates its condition."""
    if isinstance(frame, SelectionFrame):
        if condition == "Success":
            p, w = witness
            return bool(frame.f(p, w) & ~p)
        if condition == "WeakCentering":
            p, w = witness
            return bool(p & (1 << w)) and not frame.f(p, w) & (1 << w)
        if condition == "StrongCentering":
            p, w = witness
            return bool(p & (1 << w)) and frame.f(p, w) != 1 << w
        if condition == "LA":
            p, w = witness
            return frame.f(p, w) == 0 and bool(p & frame.r[w])
        if condition == "WLA":
            p, q, w = witness
            return frame.f(p, w) == 0 and bool(p & frame.f(q, w))
        if condition == "Uniformity":
            p, q, w = witness
            fp, fq = frame.f(p, w), frame.f(q, w)
            return fp & ~q == 0 and fq & ~p == 0 and fp != fq
        if condition == "Uniqueness":
            p, w = witness
            fp = frame.f(p, w)
            return bool(fp & (fp - 1))
        if condition == "RationalMonotonicity":
            p, q, w = witness
            return (
                p & ~q == 0
                and bool(frame.f(q, w) & p)
                and frame.f(p, w) != frame.f(q, w) & p
            )
    if isinstance(frame, OrderingFrame):
        if condition == "Reflexivity":
            (w,) = witness
            return not frame.r[w] & (1 << w)
        if condition == "Transitivity":
            x, y, z, w = witness
            return frame.leq(w, x, y) and frame.leq(w, y, z) and not frame.leq(w, x, z)
        if condition == "StronglyConnected":
            x, y, w = witness
            return not (frame.leq(w, x, y) or frame.leq(w, y, x))
        if condition == "WeakCentering":
            x, w = witness
            return bool(frame.r[w] & (1 << x)) and not frame.leq(w, w, x)
        if condition == "StrongCentering":
            x, w = witness
            return frame.leq(w, x, w) and x != w
        if condition == "SLA":
            s, w = witness
            live = s & frame.r[w]
            return bool(live) and not any(
                frame.ble(w, x) & s & ~(1 << x) == 0 for x in _bits(live)
            )
    if condition == "GloballyConstant":
        (w,) = witness
        return frame.local[w] != (1 << frame.n_domain) - 1
    if condition in ("LocallyNonDecreasing", "LocallyNonIncreasing"):
        w, v = witness
        if condition == "LocallyNonDecreasing":
            return bool(frame.local[w] & ~frame.local[v])
        return bool(frame.local[v] & ~frame.local[w])
    raise ValueError(f"no replay for condition {condition!r}")


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
            Imp(
                And(Cond(a, b), And(Cond(b, a), Cond(a, c))),
                Cond(b, c),
            ),
        ),
    )


# Built once: the sweeps check the same six formulas on every frame.
_INSTANCE_FAMILY = _instance_family()


def correspondence_instances() -> list[tuple[str, Formula]]:
    """The finite instance family used by the correspondence check."""
    return list(_INSTANCE_FAMILY)


def qc2_correspondence_check(
    frame: SelectionFrame,
    max_worlds: int = 5,
    max_domain: int = 3,
) -> CorrespondenceResult:
    """Instance-family validity versus (weakly Stalnakerian and globally
    constant), checked independently; the two verdicts should coincide."""
    props = check_selection_props(frame)
    domains = check_domain_props(frame)
    properties_hold = props.weakly_stalnakerian and domains.verdicts["GloballyConstant"]

    instance_valid = True
    failing = None
    for name, inst in correspondence_instances():
        res = frame_valid(frame, inst, max_worlds=max_worlds, max_domain=max_domain)
        if not res.valid:
            instance_valid = False
            failing = name
            break
    return CorrespondenceResult(instance_valid, properties_hold, failing)
