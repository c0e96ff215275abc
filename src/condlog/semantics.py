"""Finite-model satisfaction and validity for the three frame kinds.

Worlds and domain elements are indices internally; sets of worlds are bit
masks.  Loaded models carry the original names for reporting.

There is one evaluator.  A formula is compiled once, independent of any
frame, into closures whose values pack the world masks of a block of
interpretations into one int (bitslicing, Biham 1997).  ``extension``,
``evaluate`` and ``model_valid`` evaluate a block of one interpretation,
the model's.  ``first_failure`` walks the interpretations of a formula's
predicates in blocks that start at one and grow geometrically; both
``frame_valid`` and the descending-sequence sweep ask it.

A sweep checks one formula on many frames.  The formula's interpretation
space keeps the atom tables of each block and the frame-independent part
of a block's layout per local domains, so the frames of a sweep share
them; a block reads the order rows cached on an ordering frame, or any
other frame's selection table (a quasi frame's is min_w of its order),
from its own frame.  A failing ``frame_valid`` builds its countermodel
only when it is read.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

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
    subformulas,
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
    """The indices of the set bits of a non-negative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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

    @staticmethod
    def _unchecked(*fields) -> "SelectionFrame":
        """A frame from all its field values, in order, that are valid by
        construction (every f(P,w) within R(w), names given), built without
        the construction scan."""
        frame = object.__new__(SelectionFrame)
        frame.__dict__.update(zip(SelectionFrame.__dataclass_fields__, fields))
        return frame

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
    ble_table: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )

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


class _MinRow(dict):
    """World w's row of a quasi frame's table: ``row[p]`` is min_w(p),
    computed when first read.  A full row has 2^|W| entries."""

    __slots__ = ("order", "w")

    def __init__(self, order: OrderingFrame, w: int):
        self.order, self.w = order, w

    def __missing__(self, p: int) -> int:
        out = self[p] = self.order.min_set(p, self.w)
        return out


@dataclass(frozen=True)
class QuasiSelectionFrame:
    """Selection function taking formulas and assignments as arguments.

    Its one strategy, "min-of-order", selects the minimal [phi]^g worlds
    under an embedded ordering frame.  It reads phi only through [phi]^g,
    so the frame is f(P, w) = min_w(P), and its ``table`` is filled as it
    is read.
    """

    order: OrderingFrame

    @functools.cached_property
    def table(self) -> tuple[_MinRow, ...]:
        return tuple(_MinRow(self.order, w) for w in range(self.n_worlds))

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


Frame = Union[SelectionFrame, OrderingFrame, QuasiSelectionFrame]
Interpretation = Mapping[Predicate, Mapping[int, frozenset[tuple[int, ...]]]]
Assignment = Mapping[Variable, int]


@dataclass(frozen=True)
class Model:
    frame: Frame
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
#
# Over n worlds, interpretation j of a block owns bits j*(n+1) .. j*(n+1)+n-1
# of a value, and bit j*(n+1)+n is its guard, clear in every value.  Adding
# ``full`` (all worlds of every interpretation) sets the guard of exactly the
# interpretations whose world set is nonempty, so ``(v + full) & guard``
# tests every interpretation of the block at once.


def _tuple_index(tup: Iterable[int], n_domain: int) -> int:
    """The index of an argument tuple in ``itertools.product`` order."""
    i = 0
    for a in tup:
        i = i * n_domain + a
    return i


def _shape(n: int, nd: int, local: tuple[int, ...], size: int) -> tuple:
    """(ones, full, guard, exists, elements) for blocks of ``size``
    interpretations over n worlds and nd elements with local domains
    ``local``: all a block needs that does not depend on the frame's
    selection function or order.  ``exists`` maps an element to the worlds
    whose local domain holds it; ``elements`` pairs each element of some
    local domain with the worlds that lack it."""
    width = n + 1
    ones = ((1 << (width * size)) - 1) // ((1 << width) - 1)
    full = ones * ((1 << n) - 1)
    exists = [0] * nd
    for w, dom in enumerate(local):
        for a in _bits(dom):
            exists[a] |= ones << w
    elements = [(a, full ^ mask) for a, mask in enumerate(exists) if mask]
    return ones, full, ones << n, exists, elements


def _order_rows(frame: OrderingFrame, ones: int) -> list:
    """The rows of an ordering frame for blocks whose bit 0 of every
    interpretation is set in ``ones``, cached on the frame: per world w the
    shift from a guard to bit w, R(w), and per x in R(w) the shift from bit
    x to a guard with the worlds at or below x."""
    cache = frame.__dict__.setdefault("_rows", {})
    rows = cache.get(ones)
    if rows is None:
        n, ble = frame.n_worlds, frame.ble_table
        rows = cache[ones] = [
            (n - w, r * ones, [(n - x, ble[w][x] * ones) for x in _bits(r)])
            for w, r in enumerate(frame.r)
        ]
    return rows


class _Block:
    """A block of interpretations on a frame: its ``_shape``, an ordering
    frame's order ``rows`` or any other frame's selection table, the
    conditional clause that reads them, and the state compiled closures
    read: the atom ``tables`` of the block, the ``memos`` and the variable
    values ``env``."""

    __slots__ = (
        "n", "nd", "ones", "full", "guard", "exists", "elements", "rows", "cond",
        "tables", "memos", "env",
    )

    def __init__(self, frame: Frame, shape: tuple, tables: list, n_memos: int):
        self.n, self.nd = frame.n_worlds, frame.n_domain
        self.ones, self.full, self.guard, self.exists, self.elements = shape
        if isinstance(frame, OrderingFrame):
            self.rows, self.cond = _order_rows(frame, self.ones), self._lewis
        else:
            self.rows, self.cond = frame.table, self._selection
        self.tables, self.memos = tables, [{} for _ in range(n_memos)]

    def _selection(self, p: int, q: int) -> int:
        """w is in [p > q] iff f(p, w) is within q.  The block is split by
        antecedent world set p, and each group reads f(p, w) once."""
        n, full, guard, ones = self.n, self.full, self.guard, self.ones
        bad, out, todo = full ^ q, 0, guard
        while todo:
            pv = (p >> ((todo & -todo).bit_length() - 1 - n)) & ((1 << n) - 1)
            same = guard & ~((p ^ pv * ones) + full)
            todo ^= same
            shift = n
            for row in self.rows:
                sel = row[pv]
                out |= (same & ~((bad & sel * ones) + full) if sel else same) >> shift
                shift -= 1
        return out

    def _lewis(self, p: int, q: int) -> int:
        """w is in [p > q] iff no p-world is accessible, or some accessible
        p-world x has every p-world at or below x a q-world."""
        full, guard = self.full, self.guard
        bad, out = p & ~q, 0
        for shift, reach, pairs in self.rows:
            ok = guard & ~((p & reach) + full)
            for xshift, below in pairs:
                if ok == guard:
                    break
                ok |= (p << xshift) & guard & ~((bad & below) + full)
            out |= ok >> shift
        return out


class _Compiled:
    """A formula compiled once, independent of any frame, into nested
    closures that map a ``_Block`` to the packed value of their node.

    ``block.env`` has a slot per variable, the free ones first in index
    order; a quantifier writes its variable's slot and restores it.  An atom
    reads ``block.tables[k][t]``: where ``preds[k]`` holds of tuple t.  A
    node with a conditional or a quantifier, under a quantifier whose
    variable is not free in it, keeps a memo keyed by its free variables'
    values, good for one block's atom tables."""

    def __init__(self, phi: Formula):
        self.preds = tuple(sorted(predicates(phi), key=lambda p: (p.index, p.arity)))
        self.free = ordered_free_variables(phi)
        self.slots = {v: i for i, v in enumerate(self.free)}
        self.n_memos = 0
        self.space: Optional[_Interpretations] = None  # first_failure's last
        self.run = self._compile(phi, frozenset())

    def _slot(self, v: Variable) -> int:
        return self.slots.setdefault(v, len(self.slots))

    def _compile(self, phi: Formula, bound: frozenset[Variable]):
        """``bound`` holds the variables of the quantifiers above ``phi``."""
        kind = type(phi)
        if kind is Atom:
            k, args = self.preds.index(phi.pred), [self._slot(v) for v in phi.args]
            if len(args) == 1:
                s = args[0]
                return lambda b: b.tables[k][b.env[s]]
            return lambda b: b.tables[k][_tuple_index([b.env[s] for s in args], b.nd)]
        if kind is Eq:
            left, right = self._slot(phi.left), self._slot(phi.right)
            return lambda b: b.full if b.env[left] == b.env[right] else 0
        if kind is EPred:
            s = self._slot(phi.arg)
            return lambda b: b.exists[b.env[s]]
        if kind is Cond:
            ant, cons = self._compile(phi.left, bound), self._compile(phi.right, bound)
            run = lambda b: b.cond(ant(b), cons(b))
        elif kind is Imp:
            ant, cons = self._compile(phi.left, bound), self._compile(phi.right, bound)
            run = lambda b: (b.full ^ ant(b)) | cons(b)
        elif kind is Not:
            body = self._compile(phi.body, bound)
            run = lambda b: b.full ^ body(b)
        elif kind is Forall:
            run = self._forall(phi, bound)
        else:
            raise SemanticsError(f"not a formula: {phi!r}")
        fv = ordered_free_variables(phi)
        if bound.issubset(fv) or not any(
            type(sub) in (Cond, Forall) for sub in subformulas(phi)
        ):
            return run
        keys, m = tuple([self._slot(v) for v in fv]), self.n_memos
        self.n_memos += 1

        def memoised(b: _Block) -> int:
            memo, env = b.memos[m], b.env
            key = tuple([env[s] for s in keys])
            got = memo.get(key)
            if got is None:
                got = memo[key] = run(b)
            return got

        return memoised

    def _forall(self, phi: Forall, bound: frozenset[Variable]):
        s = self._slot(phi.var)
        body = self._compile(phi.body, bound | {phi.var})

        def forall(b: _Block) -> int:
            env = b.env
            old, out = env[s], b.full
            for a, absent in b.elements:
                env[s] = a
                out &= body(b) | absent
                if not out:
                    break
            env[s] = old
            return out

        return forall


def _compiled(phi: Formula) -> _Compiled:
    """The compiled form of ``phi``, cached on the node."""
    try:
        return phi._compiled_cache  # type: ignore[attr-defined]
    except AttributeError:
        out = _Compiled(phi)
        object.__setattr__(phi, "_compiled_cache", out)
        return out


def extension(model: Model, g: Assignment, phi: Formula) -> int:
    """World mask of [phi]^g: a block of one interpretation, the model's."""
    missing = free_variables(phi) - set(g)
    if missing:
        raise UncoveredVariable(f"assignment misses {sorted(v.index for v in missing)}")
    compiled, frame = _compiled(phi), model.frame
    nd, full = frame.n_domain, (1 << frame.n_worlds) - 1
    tables = [[0] * nd**p.arity for p in compiled.preds]
    for table, p in zip(tables, compiled.preds):
        for w, tuples in model.interp.get(p, {}).items():
            for tup in tuples:
                table[_tuple_index(tup, nd)] |= (1 << w) & full
    # a model is evaluated many times: its one-interpretation shape is
    # cached on the frame
    shape = frame.__dict__.get("_shape")
    if shape is None:
        shape = frame.__dict__["_shape"] = _shape(frame.n_worlds, nd, frame.local, 1)
    block = _Block(frame, shape, tables, compiled.n_memos)
    block.env = [g.get(v, 0) for v in compiled.slots]
    for v, a in zip(compiled.slots, block.env):
        if not 0 <= a < nd:
            raise SemanticsError(f"value {a} of {v} outside the domain")
    return compiled.run(block)


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


def model_valid(model: Model, gamma: Iterable[Formula]) -> ValidityResult:
    """Truth at every world under every assignment to the free variables."""
    formulas = list(gamma)
    fv = sorted({v for f in formulas for v in free_variables(f)}, key=lambda v: v.index)
    nd, full = model.frame.n_domain, (1 << model.frame.n_worlds) - 1
    for values in itertools.product(range(nd), repeat=len(fv)):
        g = dict(zip(fv, values))
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


class _Failure(FrameValidityResult):
    """A failing ``frame_valid`` result that builds its countermodel when it
    is first read: the sweeps read only ``valid``."""

    def __init__(self, counterexample: Counterexample, build: Callable[[], Model]):
        object.__setattr__(self, "valid", False)
        object.__setattr__(self, "counterexample", counterexample)
        object.__setattr__(self, "_build", build)

    @functools.cached_property
    def countermodel(self) -> Model:  # type: ignore[override]
        return self._build()


def subset_options(n_domain: int, arity: int) -> list[frozenset[tuple[int, ...]]]:
    """All subsets of D^arity, smallest first."""
    universe = list(itertools.product(range(n_domain), repeat=arity))
    return [
        frozenset(s)
        for r in range(len(universe) + 1)
        for s in itertools.combinations(universe, r)
    ]


class _Interpretations:
    """The interpretations of a compiled formula's predicates over n worlds
    and nd elements: the product over the cells (p, w), the last cell
    fastest, of the values ``options(nd, p.arity)``.  It keeps every
    assignment's variable values, each block's atom tables and each block
    ``_shape`` per local domains once built, so the frames of a sweep share
    them."""

    def __init__(self, compiled: _Compiled, n: int, nd: int, options):
        self.key, self.preds, self.width = (n, nd, options), compiled.preds, n + 1
        self.n, self.nd = n, nd
        values = {a: options(nd, a) for a in {p.arity for p in self.preds}}
        # (predicate slot, world, the cell's values, their tuple indices)
        self.cells = [
            (k, w, vals, [[_tuple_index(t, nd) for t in v] for v in vals])
            for k, vals in enumerate(values[p.arity] for p in self.preds)
            for w in range(n)
        ]
        self.sizes = [nd**p.arity for p in self.preds]
        self.total = math.prod(len(cell[2]) for cell in self.cells)
        pad = [0] * (len(compiled.slots) - len(compiled.free))
        self.envs = [
            [*values, *pad]
            for values in itertools.product(range(nd), repeat=len(compiled.free))
        ]
        self._blocks: dict[int, list[list[int]]] = {}
        self._shapes: dict[tuple, tuple] = {}

    def _digits(self, i: int) -> list[int]:
        out = []
        for cell in reversed(self.cells):
            i, d = divmod(i, len(cell[2]))
            out.append(d)
        return out[::-1]

    def interpretation(self, i: int) -> Interpretation:
        interp: dict = {p: {} for p in self.preds}
        for (k, w, values, _), d in zip(self.cells, self._digits(i)):
            interp[self.preds[k]][w] = values[d]
        return interp

    def tables(self, start: int, size: int) -> list[list[int]]:
        if start not in self._blocks:
            tables = self._blocks[start] = [[0] * s for s in self.sizes]
            for j in range(size):
                for (k, w, _, members), d in zip(self.cells, self._digits(start + j)):
                    for t in members[d]:
                        tables[k][t] |= 1 << (j * self.width + w)
        return self._blocks[start]

    def shape(self, local: tuple[int, ...], size: int) -> tuple:
        key = (local, size)
        got = self._shapes.get(key)
        if got is None:
            got = self._shapes[key] = _shape(self.n, self.nd, local, size)
        return got


# Interpretations are decided in blocks of 1, 8, 64 and then _MAX_BLOCK, so
# a failure at the first interpretation costs a block of one.
_GROWTH = 8
_MAX_BLOCK = 256


def _failure(
    frame: Frame, compiled: _Compiled, options
) -> Optional[tuple[_Interpretations, int, list[int], int]]:
    """The first point where the compiled formula is false on ``frame``, as
    (space, interpretation index, variable values, world), or None."""
    n, nd = frame.n_worlds, frame.n_domain
    space = compiled.space
    if space is None or space.key != (n, nd, options):
        space = compiled.space = _Interpretations(compiled, n, nd, options)
    start, size = 0, 1
    while start < space.total:
        size = min(size, space.total - start)
        shape = space.shape(frame.local, size)
        block = _Block(frame, shape, space.tables(start, size), compiled.n_memos)
        best = None
        for env in space.envs:
            block.env = env
            value = compiled.run(block)
            failing = ((block.full ^ value) + block.full) & block.guard
            if failing and (best is None or failing & -failing < best[0]):
                best = (failing & -failing, env, value)
                if best[0] == 1 << n:
                    break
        if best is not None:
            low, env, value = best
            j = (low.bit_length() - 1) // space.width
            false = (block.full ^ value) >> (j * space.width)
            return space, start + j, env, (false & -false).bit_length() - 1
        start, size = start + size, min(size * _GROWTH, _MAX_BLOCK)
    return None


def first_failure(
    frame: Frame, phi: Formula, options=subset_options
) -> Optional[tuple[int, Interpretation, dict[Variable, int], int]]:
    """The first point where ``phi`` is false on ``frame``, as (index,
    interpretation, assignment, world), or None when phi is valid there.
    Points are ordered by interpretation (``_Interpretations`` order), then
    by assignment to phi's free variables in product order, then by world."""
    compiled = _compiled(phi)
    hit = _failure(frame, compiled, options)
    if hit is None:
        return None
    space, i, env, w = hit
    return i, space.interpretation(i), dict(zip(compiled.free, env)), w


def frame_valid(
    frame: Frame, phi: Formula, max_worlds: int = 5, max_domain: int = 3, max_arity: int = 2
) -> FrameValidityResult:
    """Enumerate all interpretations of the predicates occurring in phi.
    A failing result builds its countermodel when it is first read."""
    n, nd = frame.n_worlds, frame.n_domain
    if n > max_worlds or nd > max_domain:
        raise ResourceGuard(
            f"frame validity ceiling exceeded: |W|={n}, |D|={nd} "
            f"(limits {max_worlds}, {max_domain}; raise them explicitly to override)"
        )
    compiled = _compiled(phi)
    for p in compiled.preds:
        if p.arity > max_arity:
            raise ResourceGuard(f"predicate arity {p.arity} above ceiling {max_arity}")
    hit = _failure(frame, compiled, subset_options)
    if hit is None:
        return FrameValidityResult(True)
    space, i, env, w = hit
    counterexample = Counterexample(w, dict(zip(compiled.free, env)), phi)
    return _Failure(counterexample, lambda: Model(frame, space.interpretation(i)))


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
    raise SemanticsError("a quasi-selection model does not convert")
