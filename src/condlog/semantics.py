"""Finite-model satisfaction and validity for the three frame kinds.

Worlds and domain elements are kept as indices internally; sets of worlds
are bit masks, which keeps exhaustive sweeps over subsets and
interpretations cheap.  Loaded models carry the original names for
reporting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .syntax import (
    Atom,
    Cond,
    EPred,
    Eq,
    Forall,
    Formula,
    Imp,
    Not,
    Predicate,
    Variable,
    free_variables,
    predicates,
)


class SemanticsError(Exception):
    pass


class UncoveredVariable(SemanticsError):
    pass


class ResourceGuard(SemanticsError):
    """An enumeration would exceed the configured ceiling."""


class NotStalnakerian(SemanticsError):
    """A conversion's precondition failed; carries the violated condition."""

    def __init__(self, condition: str, witness: object):
        super().__init__(f"frame violates {condition}: witness {witness!r}")
        self.condition = condition
        self.witness = witness


def _bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1
    return


def _mask_of(items: Iterable[int]) -> int:
    out = 0
    for i in items:
        out |= 1 << i
    return out


def _default_names(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


@dataclass(frozen=True)
class SelectionFrame:
    """Selection frame with a fully materialized table.

    ``table[w][p]`` is the selected set for proposition mask ``p`` at world
    ``w``; construction fills unlisted entries from the default rule
    ("empty" or "centering") and checks f(P,w) <= R(w) throughout.
    """

    n_worlds: int
    r: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    n_domain: int
    local: tuple[int, ...]
    world_names: tuple[str, ...] = ()
    domain_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n_worlds < 1 or self.n_domain < 1:
            raise SemanticsError("worlds and domain must be nonempty")
        if not self.world_names:
            object.__setattr__(self, "world_names", _default_names("w", self.n_worlds))
        if not self.domain_names:
            object.__setattr__(self, "domain_names", _default_names("a", self.n_domain))
        full = (1 << self.n_worlds) - 1
        for w in range(self.n_worlds):
            if self.r[w] & ~full:
                raise SemanticsError(f"R({self.world_names[w]}) outside W")
            for p, out in enumerate(self.table[w]):
                if out & ~self.r[w]:
                    raise SemanticsError(
                        f"f(P,w) not within R(w): P={self.set_names(p)}, "
                        f"w={self.world_names[w]}, out={self.set_names(out)}"
                    )

    @staticmethod
    def build(
        n_worlds: int,
        r: Sequence[int],
        entries: Mapping[tuple[int, int], int],
        default: str,
        n_domain: int,
        local: Optional[Sequence[int]] = None,
        world_names: Sequence[str] = (),
        domain_names: Sequence[str] = (),
    ) -> "SelectionFrame":
        """Build from sparse entries {(p_mask, w): out_mask} plus a default."""
        if default not in ("empty", "centering"):
            raise SemanticsError(f"unknown default rule {default!r}")
        if default == "centering":
            for w in range(n_worlds):
                if not r[w] & (1 << w):
                    # the default would select w outside R(w)
                    for p in range(1 << n_worlds):
                        if p & (1 << w) and (p, w) not in entries:
                            raise SemanticsError(
                                f"centering default needs reflexivity at world {w}"
                            )
        table = []
        for w in range(n_worlds):
            row = []
            for p in range(1 << n_worlds):
                if (p, w) in entries:
                    row.append(entries[(p, w)])
                elif default == "empty":
                    row.append(0)
                else:
                    row.append((1 << w) if p & (1 << w) else 0)
            table.append(tuple(row))
        if local is None:
            local = [(1 << n_domain) - 1] * n_worlds
        return SelectionFrame(
            n_worlds,
            tuple(r),
            tuple(table),
            n_domain,
            tuple(local),
            tuple(world_names),
            tuple(domain_names),
        )

    def f(self, p_mask: int, w: int) -> int:
        return self.table[w][p_mask]

    def set_names(self, mask: int) -> list[str]:
        return [self.world_names[i] for i in _bits(mask)]


@dataclass(frozen=True)
class OrderingFrame:
    """Per-world preorder; ``bge[w][x]`` masks {y : x <=_w y}."""

    n_worlds: int
    r: tuple[int, ...]
    bge: tuple[tuple[int, ...], ...]
    n_domain: int
    local: tuple[int, ...]
    world_names: tuple[str, ...] = ()
    domain_names: tuple[str, ...] = ()
    ble_table: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.n_worlds < 1 or self.n_domain < 1:
            raise SemanticsError("worlds and domain must be nonempty")
        if not self.world_names:
            object.__setattr__(self, "world_names", _default_names("w", self.n_worlds))
        if not self.domain_names:
            object.__setattr__(self, "domain_names", _default_names("a", self.n_domain))
        for w in range(self.n_worlds):
            for x in range(self.n_worlds):
                above = self.bge[w][x]
                if not above:
                    continue
                if not self.r[w] & (1 << x) or above & ~self.r[w]:
                    raise SemanticsError(
                        f"order at {self.world_names[w]} not within R(w) x R(w)"
                    )
        ble = []
        for w in range(self.n_worlds):
            row = [0] * self.n_worlds
            for y in range(self.n_worlds):
                for x in _bits(self.bge[w][y]):
                    row[x] |= 1 << y
            ble.append(tuple(row))
        object.__setattr__(self, "ble_table", tuple(ble))

    @staticmethod
    def build(
        n_worlds: int,
        r: Sequence[int],
        pairs: Mapping[int, Iterable[tuple[int, int]]],
        n_domain: int,
        local: Optional[Sequence[int]] = None,
        world_names: Sequence[str] = (),
        domain_names: Sequence[str] = (),
    ) -> "OrderingFrame":
        bge = []
        for w in range(n_worlds):
            row = [0] * n_worlds
            for x, y in pairs.get(w, ()):
                row[x] |= 1 << y
            bge.append(tuple(row))
        if local is None:
            local = [(1 << n_domain) - 1] * n_worlds
        return OrderingFrame(
            n_worlds,
            tuple(r),
            tuple(bge),
            n_domain,
            tuple(local),
            tuple(world_names),
            tuple(domain_names),
        )

    def leq(self, w: int, x: int, y: int) -> bool:
        return bool(self.bge[w][x] & (1 << y))

    def ble(self, w: int, x: int) -> int:
        """Mask of {y : y <=_w x}."""
        return self.ble_table[w][x]

    def min_set(self, s_mask: int, w: int) -> int:
        """min_w(S) = {x in S & R(w) : forall y in S & R(w), x <=_w y}."""
        live = s_mask & self.r[w]
        out = 0
        for x in _bits(live):
            if live & ~self.bge[w][x] == 0:
                out |= 1 << x
        return out

    def set_names(self, mask: int) -> list[str]:
        return [self.world_names[i] for i in _bits(mask)]


@dataclass(frozen=True)
class QuasiSelectionFrame:
    """Selection function taking formulas and assignments as arguments.

    The only built strategy is "min-of-order": f(phi, w, g) is the set of
    minimal [phi]^g worlds under an embedded ordering frame.
    """

    order: OrderingFrame
    strategy: str = "min-of-order"

    def __post_init__(self) -> None:
        if self.strategy != "min-of-order":
            raise SemanticsError(f"unknown quasi strategy {self.strategy!r}")

    @property
    def n_worlds(self) -> int:
        return self.order.n_worlds

    @property
    def r(self) -> tuple[int, ...]:
        return self.order.r

    @property
    def n_domain(self) -> int:
        return self.order.n_domain

    @property
    def local(self) -> tuple[int, ...]:
        return self.order.local

    @property
    def world_names(self) -> tuple[str, ...]:
        return self.order.world_names

    @property
    def domain_names(self) -> tuple[str, ...]:
        return self.order.domain_names


Interpretation = Mapping[Predicate, Mapping[int, frozenset[tuple[int, ...]]]]
Assignment = Mapping[Variable, int]


@dataclass(frozen=True)
class Model:
    frame: "SelectionFrame | OrderingFrame | QuasiSelectionFrame"
    interp: Interpretation = field(default_factory=dict)

    def __post_init__(self) -> None:
        nd = self.frame.n_domain
        for pred, per_world in self.interp.items():
            for w, tuples in per_world.items():
                for tup in tuples:
                    if len(tup) != pred.arity or any(not 0 <= a < nd for a in tup):
                        raise SemanticsError(
                            f"interpretation of {pred} at world {w} outside D^n: {tup}"
                        )

    def holds(self, pred: Predicate, w: int, tup: tuple[int, ...]) -> bool:
        per_world = self.interp.get(pred)
        if per_world is None:
            return False
        return tup in per_world.get(w, frozenset())


# ---------------------------------------------------------------------------
# Satisfaction.


def extension(model: Model, g: Assignment, phi: Formula) -> int:
    """World mask of [phi]^g."""
    missing = free_variables(phi) - set(g)
    if missing:
        raise UncoveredVariable(f"assignment misses {sorted(v.index for v in missing)}")
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    return _ext(model, dict(g), phi, memo)


def _node_fv(phi: Formula) -> tuple[Variable, ...]:
    """The node's free variables in index order, cached on the node (the
    order depends only on the formula, not on the model)."""
    try:
        return phi._fv_ordered  # type: ignore[attr-defined]
    except AttributeError:
        pass
    got = tuple(sorted(free_variables(phi), key=lambda v: v.index))
    object.__setattr__(phi, "_fv_ordered", got)
    return got


def _ext(
    model: Model,
    g: dict[Variable, int],
    phi: Formula,
    memo: dict[tuple[int, tuple[int, ...]], int],
) -> int:
    key = (id(phi), tuple(g[v] for v in _node_fv(phi)))
    got = memo.get(key)
    if got is not None:
        return got
    frame = model.frame
    n = frame.n_worlds
    full = (1 << n) - 1
    out: int
    if isinstance(phi, Atom):
        tup = tuple(g[a] for a in phi.args)
        out = _mask_of(w for w in range(n) if model.holds(phi.pred, w, tup))
    elif isinstance(phi, Eq):
        out = full if g[phi.left] == g[phi.right] else 0
    elif isinstance(phi, EPred):
        a = g[phi.arg]
        out = _mask_of(w for w in range(n) if frame.local[w] & (1 << a))
    elif isinstance(phi, Not):
        out = full & ~_ext(model, g, phi.body, memo)
    elif isinstance(phi, Imp):
        out = (full & ~_ext(model, g, phi.left, memo)) | _ext(
            model, g, phi.right, memo
        )
    elif isinstance(phi, Forall):
        needed = 0
        for w in range(n):
            needed |= frame.local[w]
        sub: dict[int, int] = {}
        old = g.get(phi.var)
        for a in _bits(needed):
            g[phi.var] = a
            sub[a] = _ext(model, g, phi.body, memo)
        if old is None:
            g.pop(phi.var, None)
        else:
            g[phi.var] = old
        out = 0
        for w in range(n):
            if all(sub[a] & (1 << w) for a in _bits(frame.local[w])):
                out |= 1 << w
    elif isinstance(phi, Cond):
        ant = _ext(model, g, phi.left, memo)
        cons = _ext(model, g, phi.right, memo)
        if isinstance(frame, SelectionFrame):
            out = _mask_of(w for w in range(n) if frame.f(ant, w) & ~cons == 0)
        elif isinstance(frame, OrderingFrame):
            out = _mask_of(w for w in range(n) if _lewis(frame, ant, cons, w))
        else:
            assert isinstance(frame, QuasiSelectionFrame)
            out = 0
            for w in range(n):
                chosen = frame.order.min_set(ant, w)
                if chosen & ~cons == 0:
                    out |= 1 << w
    else:
        raise SemanticsError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def _lewis(frame: OrderingFrame, ant: int, cons: int, w: int) -> bool:
    """[phi] & R(w) empty, or some x in [phi] & R(w) with every [phi]-world
    at or below x a [psi]-world."""
    live = ant & frame.r[w]
    if not live:
        return True
    bad = ant & ~cons
    for x in _bits(live):
        if frame.ble(w, x) & bad == 0:
            return True
    return False


def evaluate(model: Model, w: int, g: Assignment, phi: Formula) -> bool:
    return bool(extension(model, g, phi) & (1 << w))


@dataclass(frozen=True)
class Counterexample:
    world: int
    assignment: dict[Variable, int]
    formula: Formula


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:
        return self.valid


def _assignments(
    variables: Sequence[Variable], n_domain: int
) -> Iterable[dict[Variable, int]]:
    for values in itertools.product(range(n_domain), repeat=len(variables)):
        yield dict(zip(variables, values))


def model_valid(model: Model, gamma: Iterable[Formula]) -> ValidityResult:
    """Truth at every world under every assignment to the free variables."""
    formulas = list(gamma)
    fv = sorted(
        {v for f in formulas for v in free_variables(f)}, key=lambda v: v.index
    )
    full = (1 << model.frame.n_worlds) - 1
    for g in _assignments(fv, model.frame.n_domain):
        for f in formulas:
            mask = extension(model, g, f)
            if mask != full:
                w = next(_bits(full & ~mask))
                return ValidityResult(False, Counterexample(w, g, f))
    return ValidityResult(True)


@dataclass(frozen=True)
class FrameValidityResult:
    valid: bool
    countermodel: Optional[Model] = None
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:
        return self.valid


def subset_options(n_domain: int, arity: int) -> list[frozenset[tuple[int, ...]]]:
    """All subsets of D^arity, smallest first."""
    universe = list(itertools.product(range(n_domain), repeat=arity))
    return [
        frozenset(s)
        for r in range(len(universe) + 1)
        for s in itertools.combinations(universe, r)
    ]


def interpretations(
    frame: "SelectionFrame | OrderingFrame | QuasiSelectionFrame",
    preds: Sequence[Predicate],
) -> Iterable[Interpretation]:
    """All interpretations of the given predicates over (W, D)."""
    n, nd = frame.n_worlds, frame.n_domain
    cells = [(p, w) for p in preds for w in range(n)]
    options = {a: subset_options(nd, a) for a in {p.arity for p in preds}}
    for choice in itertools.product(*(options[p.arity] for p, _ in cells)):
        interp: dict[Predicate, dict[int, frozenset[tuple[int, ...]]]] = {}
        for (p, w), tuples in zip(cells, choice):
            interp.setdefault(p, {})[w] = tuples
        yield interp


def frame_valid(
    frame: "SelectionFrame | OrderingFrame | QuasiSelectionFrame",
    phi: Formula,
    max_worlds: int = 5,
    max_domain: int = 3,
    max_arity: int = 2,
) -> FrameValidityResult:
    """Enumerate all interpretations of the predicates occurring in phi."""
    preds = sorted(predicates(phi), key=lambda p: (p.index, p.arity))
    n, nd = frame.n_worlds, frame.n_domain
    if n > max_worlds or nd > max_domain:
        raise ResourceGuard(
            f"frame validity ceiling exceeded: |W|={n}, |D|={nd} "
            f"(limits {max_worlds}, {max_domain}; raise them explicitly to override)"
        )
    for p in preds:
        if p.arity > max_arity:
            raise ResourceGuard(f"predicate arity {p.arity} above ceiling {max_arity}")
    fv = _node_fv(phi)
    full = (1 << n) - 1
    assignments = list(_assignments(fv, nd))
    # One model wrapper around a dict mutated per interpretation -- building
    # a fresh validated Model for each of the 2^k interpretations dominates
    # the sweep cost otherwise.
    holder: dict[Predicate, dict[int, frozenset[tuple[int, ...]]]] = {
        p: {} for p in preds
    }
    model = Model(frame, holder)
    cells = [(p, w) for p in preds for w in range(n)]
    options = {a: subset_options(nd, a) for a in {p.arity for p in preds}}
    for choice in itertools.product(*(options[p.arity] for p, _ in cells)):
        for (p, w), tuples in zip(cells, choice):
            holder[p][w] = tuples
        for g in assignments:
            mask = extension(model, g, phi)
            if mask != full:
                w = next(_bits(full & ~mask))
                snapshot = Model(
                    frame, {p: dict(per) for p, per in holder.items()}
                )
                return FrameValidityResult(False, snapshot, Counterexample(w, g, phi))
    return FrameValidityResult(True)


# ---------------------------------------------------------------------------
# Ordering <-> selection conversions.


def ordering_to_selection(frame: OrderingFrame) -> SelectionFrame:
    """f(P,w) := min_w(P); requires a Stalnakerian order (all of Def 2.14)."""
    from .frameprops import check_ordering_props

    report = check_ordering_props(frame)
    if not report.stalnakerian:
        cond = report.first_failure(
            ("Reflexivity", "Transitivity", "StronglyConnected",
             "WeakCentering", "StrongCentering", "SLA")
        )
        raise NotStalnakerian(cond, report.witnesses.get(cond))
    n = frame.n_worlds
    table = tuple(
        tuple(frame.min_set(p, w) for p in range(1 << n)) for w in range(n)
    )
    return SelectionFrame(
        n,
        frame.r,
        table,
        frame.n_domain,
        frame.local,
        frame.world_names,
        frame.domain_names,
    )


def selection_to_ordering(frame: SelectionFrame) -> OrderingFrame:
    """v <=_w u iff v in f({v,u},w); requires a Stalnakerian table."""
    from .frameprops import check_selection_props

    report = check_selection_props(frame)
    if not report.stalnakerian:
        cond = report.first_failure(
            ("Success", "WeakCentering", "LA", "Uniformity", "Uniqueness")
        )
        raise NotStalnakerian(cond, report.witnesses.get(cond))
    n = frame.n_worlds
    bge = []
    for w in range(n):
        row = [0] * n
        for v in range(n):
            for u in range(n):
                if not (frame.r[w] & (1 << v) and frame.r[w] & (1 << u)):
                    continue
                if frame.f((1 << v) | (1 << u), w) & (1 << v):
                    row[v] |= 1 << u
        bge.append(tuple(row))
    return OrderingFrame(
        n,
        frame.r,
        tuple(bge),
        frame.n_domain,
        frame.local,
        frame.world_names,
        frame.domain_names,
    )


def convert_model(model: Model) -> Model:
    """Convert between ordering- and selection-based models."""
    if isinstance(model.frame, OrderingFrame):
        return Model(ordering_to_selection(model.frame), model.interp)
    if isinstance(model.frame, SelectionFrame):
        return Model(selection_to_ordering(model.frame), model.interp)
    raise SemanticsError("only ordering and selection models convert")
