"""Finite-model satisfaction and validity for the three frame kinds.

Worlds and domain elements are kept as indices internally; sets of worlds
are bit masks, which keeps exhaustive sweeps over subsets and
interpretations cheap.  Loaded models carry the original names for
reporting.

There is one evaluator.  ``extension`` (and ``evaluate``, which reads one
bit of it), ``model_valid`` and ``frame_valid`` compile a formula against a
frame into nested closures that return world masks (``_Program``).  Atoms
read a world-mask table per (predicate, argument tuple), filled once per
interpretation; a conditional on a selection frame indexes the rows of the
frame's table.  ``frame_valid`` compiles once per call and refills the atom
tables for each interpretation it enumerates.  A node below a quantifier
whose variable is not free in it is memoised for the current
interpretation, so nested quantifiers do not re-evaluate the parts that do
not depend on them.
"""

from __future__ import annotations

import functools
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
    ordered_free_variables,
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


class _Program:
    """A formula compiled against one frame into nested closures.

    Each closure maps an environment to the world mask of its node.  The
    environment is a list holding the value of every variable of the
    formula, free or bound, in the slot ``slots[v]``; a quantifier writes
    its variable's slot in place and restores it.  Atoms read one world-mask
    table per predicate, keyed by argument tuple, which ``load`` fills from
    an interpretation; a conditional on a selection frame indexes the rows
    of ``frame.table`` directly.

    A node under a quantifier whose variable is not free in it has the same
    value for every value of that variable, so its closure keeps a memo
    keyed by the values of its own free variables.  ``load`` empties the
    memos together with the atom tables: they hold for one interpretation.
    """

    def __init__(
        self, frame: "SelectionFrame | OrderingFrame | QuasiSelectionFrame", phi: Formula
    ):
        self.frame = frame
        self.full = (1 << frame.n_worlds) - 1
        self.slots: dict[Variable, int] = {}
        self.atoms: dict[Predicate, dict[tuple[int, ...], int]] = {}
        self.memos: list[dict] = []
        self._exists: Optional[list[int]] = None
        self.run = self._compile(phi, frozenset())

    def cell(self, pred: Predicate, w: int) -> tuple[Optional[dict], int]:
        """The atom table of ``pred`` (None when the formula lacks it) and
        the bit of world ``w``, for ``load``."""
        return self.atoms.get(pred), (1 << w) & self.full

    def load(
        self, cells: Iterable[tuple[tuple[Optional[dict], int], Iterable[tuple[int, ...]]]]
    ) -> None:
        """Fill the atom tables from ``(cell(pred, w), tuples)`` pairs and
        empty the memos."""
        for table in self.atoms.values():
            table.clear()
        for memo in self.memos:
            memo.clear()
        for (table, bit), tuples in cells:
            if table is not None:
                for tup in tuples:
                    table[tup] = table.get(tup, 0) | bit

    def load_interp(self, interp: Interpretation) -> None:
        self.load(
            (self.cell(p, w), tuples)
            for p, per_world in interp.items()
            for w, tuples in per_world.items()
        )

    def env(self, g: Assignment) -> list[int]:
        out = [0] * len(self.slots)
        nd = self.frame.n_domain
        for v, slot in self.slots.items():
            a = g.get(v)
            if a is None:
                continue
            if not 0 <= a < nd:
                raise SemanticsError(f"value {a} of {v} outside the domain")
            out[slot] = a
        return out

    def _slot(self, v: Variable) -> int:
        return self.slots.setdefault(v, len(self.slots))

    def _exists_masks(self) -> list[int]:
        """Per domain element, the mask of worlds whose local domain has it."""
        if self._exists is None:
            self._exists = [0] * self.frame.n_domain
            for w, local in enumerate(self.frame.local):
                for a in _bits(local):
                    self._exists[a] |= 1 << w
        return self._exists

    def _compile(self, phi: Formula, bound: frozenset[Variable]):
        """``bound`` holds the variables of the quantifiers above ``phi``."""
        full, kind = self.full, type(phi)
        if kind is Atom:
            table = self.atoms.get(phi.pred)
            if table is None:
                table = self.atoms[phi.pred] = {}
            if len(phi.args) == 1:
                s = self._slot(phi.args[0])
                return lambda env: table.get((env[s],), 0)
            args = tuple([self._slot(v) for v in phi.args])
            return lambda env: table.get(tuple([env[s] for s in args]), 0)
        if kind is Cond:
            run = self._conditional(
                self._compile(phi.left, bound), self._compile(phi.right, bound)
            )
        elif kind is Imp:
            ant, cons = self._compile(phi.left, bound), self._compile(phi.right, bound)
            run = lambda env: (full ^ ant(env)) | cons(env)
        elif kind is Not:
            body = self._compile(phi.body, bound)
            run = lambda env: full ^ body(env)
        elif kind is Forall:
            run = self._forall(phi, bound)
        elif kind is Eq:
            left, right = self._slot(phi.left), self._slot(phi.right)
            return lambda env: full if env[left] == env[right] else 0
        elif kind is EPred:
            exists, s = self._exists_masks(), self._slot(phi.arg)
            return lambda env: exists[env[s]]
        else:
            raise SemanticsError(f"not a formula: {phi!r}")
        if not bound:
            return run
        fv = ordered_free_variables(phi)
        if bound.issubset(fv):
            return run
        keys = tuple([self._slot(v) for v in fv])
        memo: dict[tuple[int, ...], int] = {}
        self.memos.append(memo)

        def memoised(env: list[int]) -> int:
            key = tuple([env[s] for s in keys])
            got = memo.get(key)
            if got is None:
                got = memo[key] = run(env)
            return got

        return memoised

    def _forall(self, phi: Forall, bound: frozenset[Variable]):
        full, s = self.full, self._slot(phi.var)
        body = self._compile(phi.body, bound | {phi.var})
        # (element, worlds whose local domain lacks it) for every element of
        # some local domain
        elements = tuple(
            (a, full ^ mask) for a, mask in enumerate(self._exists_masks()) if mask
        )

        def forall(env: list[int]) -> int:
            old = env[s]
            out = full
            for a, absent in elements:
                env[s] = a
                out &= body(env) | absent
                if not out:
                    break
            env[s] = old
            return out

        return forall

    def _conditional(self, ant, cons):
        frame, full = self.frame, self.full
        if isinstance(frame, SelectionFrame):
            rows = frame.table

            def selection(env: list[int]) -> int:
                p = ant(env)
                bad = full ^ cons(env)
                out = 0
                for w, row in enumerate(rows):
                    if not row[p] & bad:
                        out |= 1 << w
                return out

            return selection
        if isinstance(frame, OrderingFrame):
            holds = functools.partial(_lewis, frame)
        else:
            holds = functools.partial(_quasi, frame.order)
        worlds = range(frame.n_worlds)

        def per_world(env: list[int]) -> int:
            p, q = ant(env), cons(env)
            out = 0
            for w in worlds:
                if holds(p, q, w):
                    out |= 1 << w
            return out

        return per_world


def extension(model: Model, g: Assignment, phi: Formula) -> int:
    """World mask of [phi]^g."""
    missing = free_variables(phi) - set(g)
    if missing:
        raise UncoveredVariable(f"assignment misses {sorted(v.index for v in missing)}")
    program = _Program(model.frame, phi)
    program.load_interp(model.interp)
    return program.run(program.env(g))


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


def _quasi(order: OrderingFrame, ant: int, cons: int, w: int) -> bool:
    """The minimal [phi]-worlds under the order at w are all [psi]-worlds."""
    return order.min_set(ant, w) & ~cons == 0


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
    programs = [_Program(model.frame, f) for f in formulas]
    for program in programs:
        program.load_interp(model.interp)
    full = (1 << model.frame.n_worlds) - 1
    for g in _assignments(fv, model.frame.n_domain):
        for f, program in zip(formulas, programs):
            mask = program.run(program.env(g))
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
    program = _Program(frame, phi)
    full = (1 << n) - 1
    assignments = [
        (g, program.env(g)) for g in _assignments(ordered_free_variables(phi), nd)
    ]
    cells = [(p, w) for p in preds for w in range(n)]
    loads = [program.cell(p, w) for p, w in cells]
    options = {a: subset_options(nd, a) for a in {p.arity for p in preds}}
    for choice in itertools.product(*(options[p.arity] for p, _ in cells)):
        program.load(zip(loads, choice))
        for g, env in assignments:
            mask = program.run(env)
            if mask != full:
                w = next(_bits(full & ~mask))
                interp: dict[Predicate, dict[int, frozenset[tuple[int, ...]]]] = {
                    p: {} for p in preds
                }
                for (p, v), tuples in zip(cells, choice):
                    interp[p][v] = tuples
                return FrameValidityResult(
                    False, Model(frame, interp), Counterexample(w, g, phi)
                )
    return FrameValidityResult(True)


# ---------------------------------------------------------------------------
# Ordering <-> selection conversions.


def ordering_to_selection(frame: OrderingFrame) -> SelectionFrame:
    """f(P,w) := min_w(P); requires a Stalnakerian order (all of Def 2.14)."""
    from .frameprops import ORDERING_CONDITIONS, check_ordering_props

    report = check_ordering_props(frame)
    if not report.stalnakerian:
        cond = report.first_failure(ORDERING_CONDITIONS)
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

    # This order, not frameprops.STALNAKERIAN, names the failed condition.
    order = ("Success", "WeakCentering", "LA", "Uniformity", "Uniqueness")
    report = check_selection_props(frame, order)
    if not report.stalnakerian:
        cond = report.first_failure(order)
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
