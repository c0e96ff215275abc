"""Finite-model satisfaction and validity for the three frame kinds.

Worlds and domain elements are indices internally; sets of worlds are bit
masks.  Loaded models carry the original names for reporting.

There is one evaluator.  A formula is compiled once, independent of any
frame, into closures whose values pack the world masks of a block into one
int (bitslicing, Biham 1997).  A block is a batch of frames that share |W|,
|D| and the conditional clause, times a run of interpretations: each frame
owns a byte-aligned segment of slots, one per interpretation.
``extension``, ``evaluate`` and ``model_valid`` evaluate a block of one
frame and one interpretation, the model's, whose atom tables are built once
per model and predicate and kept on the model.  ``_failure`` walks the
interpretations of a formula's predicates on a batch of frames: a block of
one interpretation per frame, then blocks of up to ``_MAX_SLOTS`` slots,
each frame dropped once it has failed.  ``frame_valid`` and
``first_failure`` ask it for a batch of one; ``frames_valid`` and the
descending-sequence sweep for a batch of many.

A sweep checks one formula on many frames.  The formula's interpretation
space keeps the atom tables of each run of interpretations, and a block
spreads them over its frames' segments with one multiplication.  The
selection clause reads a packed row per world and antecedent: each frame's
f(P, w) over that frame's slots, built when first read, so it takes at most
2^|W| antecedent groups per call however many frames the block holds; a
block keeps the clause's values by (p, q) for its own life.  An ordering
frame is a batch of one and reads the order rows cached on it.
A failing ``frame_valid`` builds its countermodel only when it is read.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

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
    node_cached,
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
    """A frame with an interpretation: per predicate and world, the tuples
    of domain elements where the predicate holds.  ``interp`` is read once,
    when the evaluator first needs a predicate's table, and the table is
    kept on the model: do not mutate ``interp`` after the model is first
    evaluated."""

    frame: Frame
    interp: Interpretation = field(default_factory=dict)

    def __post_init__(self) -> None:
        n, nd = self.frame.n_worlds, self.frame.n_domain
        for pred, per_world in self.interp.items():
            for w, tuples in per_world.items():
                if not isinstance(w, int) or not 0 <= w < n:
                    raise SemanticsError(
                        f"interpretation of {pred} at world {w!r} outside 0..{n - 1}"
                    )
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
# Over n worlds, a slot of a block owns n + 1 bits of a value: bits j .. j+n-1
# hold its worlds and bit j+n is its guard, clear in every value.  Adding
# ``full`` (all worlds of every slot) sets the guard of exactly the slots
# whose world set is nonempty, so ``(v + full) & guard`` tests every slot of
# the block at once.  In a block of ``size`` interpretations of a batch of
# frames, frame k owns the segment of bytes k*nb .. (k+1)*nb - 1, the fewest
# whole bytes that hold ``size`` slots, and its interpretation j is the slot
# at bit 8*nb*k + j*(n+1); the bits between its last slot and the next
# segment are clear in every value.


def _tuple_index(tup: Iterable[int], n_domain: int) -> int:
    """The index of an argument tuple in ``itertools.product`` order."""
    i = 0
    for a in tup:
        i = i * n_domain + a
    return i


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


class _PackedRow(dict):
    """World w's row of a block of selection frames: ``row[p]`` holds each
    frame's f(p, w) in every slot of that frame's segment of ``nb`` bytes,
    built when first read.  ``ones`` marks the slots of one segment."""

    __slots__ = ("rows", "nb", "ones")

    def __init__(self, rows: list, nb: int, ones: int):
        self.rows, self.nb, self.ones = rows, nb, ones

    def __missing__(self, p: int) -> int:
        if len(self.rows) == 1:
            packed = self.rows[0][p]
        else:
            buf = bytearray(len(self.rows) * self.nb)
            # a batch has |W| <= 8, so each f(p, w) is one byte
            buf[:: self.nb] = bytes(map(operator.itemgetter(p), self.rows))
            packed = int.from_bytes(buf, "little")
        out = self[p] = packed * self.ones
        return out


class _Layout(NamedTuple):
    """All a block of ``size`` interpretations of each frame of a batch
    needs that does not depend on the interpretations.  Frame k owns the
    segment of bytes k*nb .. (k+1)*nb - 1 and ``spread`` has bit 0 of every
    segment.  ``exists`` maps an element to the worlds whose local domain
    holds it; ``elements`` pairs each element of some local domain with the
    worlds that lack it.  ``rows`` is what the conditional clause reads:
    an ordering frame's order rows (``lewis``), or else per world the
    packed rows of the selection tables, which for one frame and one
    interpretation (``ones == 1``) are the frame's own table."""

    n: int
    nd: int
    nb: int
    spread: int
    ones: int
    full: int
    guard: int
    exists: list[int]
    elements: list[tuple[int, int]]
    rows: object
    lewis: bool


def _layout(frames: Sequence[Frame], size: int) -> _Layout:
    """The layout of blocks of ``size`` interpretations of each of
    ``frames``."""
    first = frames[0]
    n, nd = first.n_worlds, first.n_domain
    width = n + 1
    nb = (size * width + 7) // 8
    # bit 0 of the segment of each frame, per local domain
    marks: dict[tuple[int, ...], bytearray] = {}
    for k, frame in enumerate(frames):
        marks.setdefault(frame.local, bytearray(len(frames) * nb))[k * nb] = 1
    slot = ((1 << (width * size)) - 1) // ((1 << width) - 1)
    exists, spread = [0] * nd, 0
    for local, at in marks.items():
        bits = int.from_bytes(at, "little")
        spread |= bits
        for w, dom in enumerate(local):
            for a in _bits(dom):
                exists[a] |= slot * bits << w
    ones = slot * spread
    full = ones * ((1 << n) - 1)
    elements = [(a, full ^ mask) for a, mask in enumerate(exists) if mask]
    lewis = isinstance(first, OrderingFrame)
    if lewis:
        rows: object = _order_rows(first, ones)
    elif ones == 1:
        rows = first.table
    else:
        rows = [_PackedRow([f.table[w] for f in frames], nb, slot) for w in range(n)]
    guard = ones << n
    return _Layout(n, nd, nb, spread, ones, full, guard, exists, elements, rows, lewis)


class _Block:
    """A block of a batch of frames: its ``_Layout``, the conditional
    ``clause`` that reads the layout's rows, and the state compiled closures
    read: the atom ``tables`` of the block, the ``memos``, the variable
    values ``env`` and ``conds``, the clause's values in this block by
    (p, q)."""

    __slots__ = (
        "n", "nd", "ones", "full", "guard", "exists", "elements", "rows", "clause",
        "tables", "memos", "env", "conds",
    )

    def __init__(self, layout: _Layout, tables: list, n_memos: int):
        self.n, self.nd, _, _, self.ones, self.full, self.guard = layout[:7]
        self.exists, self.elements, self.rows, lewis = layout[7:]
        self.clause = self._lewis if lewis else self._selection
        self.tables, self.memos = tables, [{} for _ in range(n_memos)]
        self.conds: dict[tuple[int, int], int] = {}

    def cond(self, p: int, q: int) -> int:
        """The packed value of [p > q]: ``conds`` holds it once computed."""
        key = (p, q)
        got = self.conds.get(key)
        if got is None:
            got = self.conds[key] = self.clause(p, q)
        return got

    def _selection(self, p: int, q: int) -> int:
        """w is in [p > q] iff f(p, w) is within q.  The block is split by
        antecedent world set p, and each group reads its packed rows once."""
        n, full, guard, ones = self.n, self.full, self.guard, self.ones
        bad, out, todo = full ^ q, 0, guard
        while todo:
            pv = (p >> ((todo & -todo).bit_length() - 1 - n)) & ((1 << n) - 1)
            same = guard & ~((p ^ pv * ones) + full)
            todo ^= same
            shift = n
            for row in self.rows:
                sel = row[pv]
                out |= (same & ~((bad & sel) + full) if sel else same) >> shift
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
    values, good for one block's atom tables.  A node shared in the DAG is
    compiled once per set of quantifiers above it, and ``n_nodes`` counts
    the (node, bound variables) pairs compiled; running the closures still
    walks the tree."""

    def __init__(self, phi: Formula):
        self.preds = tuple(sorted(predicates(phi), key=lambda p: (p.index, p.arity)))
        self.free = ordered_free_variables(phi)
        self.slots = {v: i for i, v in enumerate(self.free)}
        self.n_memos = 0
        # the interpretation space of the last batch ``_failure`` walked:
        # the batches of a sweep share one |W| and |D|, so they share it
        self.space: Optional[_Interpretations] = None
        # the closure of each (id(node), bound), kept for this compile only
        self._done: dict[tuple[int, frozenset[Variable]], Callable] = {}
        self.run = self._compile(phi, frozenset())
        self.n_nodes = len(self._done)
        del self._done

    def _slot(self, v: Variable) -> int:
        return self.slots.setdefault(v, len(self.slots))

    def _compile(self, phi: Formula, bound: frozenset[Variable]):
        """``bound`` holds the variables of the quantifiers above ``phi``."""
        key = (id(phi), bound)
        run = self._done.get(key)
        if run is None:
            run = self._done[key] = self._compile_node(phi, bound)
        return run

    def _compile_node(self, phi: Formula, bound: frozenset[Variable]):
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
        if not bound:
            return run
        fv = ordered_free_variables(phi)
        if bound.issubset(fv) or not _conditional_or_quantifier(phi):
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


@node_cached
def _conditional_or_quantifier(phi: Formula) -> bool:
    """Whether ``phi`` is or has below it a conditional or a quantifier."""
    kind = type(phi)
    if kind in (Cond, Forall):
        return True
    if kind is Imp:
        return _conditional_or_quantifier(phi.left) or _conditional_or_quantifier(
            phi.right
        )
    return kind is Not and _conditional_or_quantifier(phi.body)


@node_cached
def _compiled(phi: Formula) -> _Compiled:
    """The compiled form of ``phi``, cached on the node."""
    return _Compiled(phi)


def extension(model: Model, g: Assignment, phi: Formula) -> int:
    """World mask of [phi]^g: a block of one interpretation, the model's."""
    missing = free_variables(phi) - set(g)
    if missing:
        raise UncoveredVariable(f"assignment misses {sorted(v.index for v in missing)}")
    compiled, frame = _compiled(phi), model.frame
    nd = frame.n_domain
    env = [g.get(v, 0) for v in compiled.slots]
    for v, a in zip(compiled.slots, env):
        if not isinstance(a, int) or not 0 <= a < nd:
            raise SemanticsError(f"value {a!r} of {v} outside the domain 0..{nd - 1}")
    # a model is evaluated many times: its atom tables are cached on the
    # model, its one-interpretation layout on the frame, which many models
    # share
    cache = model.__dict__.setdefault("_tables", {})
    tables = []
    for p in compiled.preds:
        table = cache.get(p)
        if table is None:
            table = cache[p] = _atom_table(model, p)
        tables.append(table)
    layout = frame.__dict__.get("_layout")
    if layout is None:
        layout = frame.__dict__["_layout"] = _layout((frame,), 1)
    block = _Block(layout, tables, compiled.n_memos)
    block.env = env
    return compiled.run(block)


def _atom_table(model: Model, pred: Predicate) -> list[int]:
    """Per argument tuple index, the mask of the worlds where ``pred``
    holds of the tuple in ``model``."""
    nd = model.frame.n_domain
    table = [0] * nd**pred.arity
    for w, tuples in model.interp.get(pred, {}).items():
        for tup in tuples:
            table[_tuple_index(tup, nd)] |= 1 << w
    return table


def evaluate(model: Model, w: int, g: Assignment, phi: Formula) -> bool:
    n = model.frame.n_worlds
    if not isinstance(w, int) or not 0 <= w < n:
        raise SemanticsError(f"world {w!r} outside 0..{n - 1}")
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
    """A failing ``frame_valid`` result that builds its counterexample and
    its countermodel each when first read: the sweeps read only ``valid``.
    ``hit`` is the entry of ``frame`` in what ``_failure`` returned for
    ``phi``, compiled."""

    def __init__(self, frame: Frame, phi: Formula, compiled: _Compiled, hit: tuple):
        object.__setattr__(self, "valid", False)
        object.__setattr__(self, "_point", (frame, phi, compiled, hit))

    @functools.cached_property
    def counterexample(self) -> Counterexample:  # type: ignore[override]
        _, phi, compiled, (_, _, env, w) = self._point
        return Counterexample(w, dict(zip(compiled.free, env)), phi)

    @functools.cached_property
    def countermodel(self) -> Model:  # type: ignore[override]
        frame, _, _, (space, i, _, _) = self._point
        return Model(frame, space.interpretation(i))


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
    assignment's variable values and the atom tables of each run of
    interpretations once built, so the batches of a sweep share them."""

    def __init__(self, compiled: _Compiled, n: int, nd: int, options):
        self.key, self.preds, self.width = (n, nd, options), compiled.preds, n + 1
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
        self._tables: dict[tuple[int, int], list[list[int]]] = {}

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
        """The atom tables of interpretations start .. start + size - 1,
        interpretation j in the slot at bit j * (n + 1)."""
        tables = self._tables.get((start, size))
        if tables is None:
            tables = self._tables[start, size] = [[0] * s for s in self.sizes]
            for j in range(size):
                for (k, w, _, members), d in zip(self.cells, self._digits(start + j)):
                    for t in members[d]:
                        tables[k][t] |= 1 << (j * self.width + w)
        return tables


# The most points (interpretation, assignment, world) that frame_valid walks
# on one frame: 2^23 of them take a few seconds.
MAX_FRAME_POINTS = 1 << 23

# Interpretations are decided in a block of one per frame and then in blocks
# of at most _MAX_SLOTS slots (frames x interpretations), or of one
# interpretation per frame when more than _MAX_SLOTS frames are left: a
# failure at the first interpretation costs a block of one, and the closures
# walk the formula once per block, whatever its size.
_MAX_SLOTS = 4096


def _failure(
    frames: Sequence[Frame], compiled: _Compiled, options
) -> list[Optional[tuple[_Interpretations, int, list[int], int]]]:
    """Per frame of a batch, the first point where the compiled formula is
    false on it, as (space, interpretation index, variable values, world),
    or None.  The frames of a batch share |W| and |D|; an ordering frame is
    a batch of one, and a batch of more holds at most 8 worlds."""
    first = frames[0]
    n, nd = first.n_worlds, first.n_domain
    if len(frames) > 1 and (
        n > 8
        or len(set(map(operator.attrgetter("n_worlds", "n_domain"), frames))) > 1
        or OrderingFrame in set(map(type, frames))
    ):
        raise SemanticsError(
            "a batch of frames shares |W| <= 8 and |D| and holds no ordering frame"
        )
    space = compiled.space
    if space is None or space.key != (n, nd, options):
        space = compiled.space = _Interpretations(compiled, n, nd, options)
    width = space.width
    out: list = [None] * len(frames)
    live, start, layouts = list(range(len(frames))), 0, {}
    while live and start < space.total:
        count = len(live)
        size = min(max(_MAX_SLOTS // count, 1) if start else 1, space.total - start)
        layout = layouts.get(size)
        if layout is None:
            layout = layouts[size] = _layout([frames[k] for k in live], size)
        nb, spread, full, guard = layout.nb, layout.spread, layout.full, layout.guard
        tables = [[t * spread for t in table] for table in space.tables(start, size)]
        block = _Block(layout, tables, compiled.n_memos)
        hits, failed, firsts = [], 0, spread << n
        for env in space.envs:
            block.env = env
            value = compiled.run(block)
            failing = ((full ^ value) + full) & guard
            if failing:
                hits.append((failing, env, value))
                failed |= failing
                if failed & firsts == firsts:
                    break  # every frame fails at its first slot
        if failed:
            # per frame, read from its segment's bytes: its lowest failing
            # slot, the first env that fails there and its lowest false world
            length = count * nb
            data = failed.to_bytes(length, "little")
            hits = [
                (f.to_bytes(length, "little"), e, (full ^ v).to_bytes(length, "little"))
                for f, e, v in hits
            ]
            for k in range(count):
                seg = slice(k * nb, (k + 1) * nb)
                bits = int.from_bytes(data[seg], "little")
                if bits:
                    low = bits & -bits
                    for fails, env, false in hits:
                        if int.from_bytes(fails[seg], "little") & low:
                            break
                    j = (low.bit_length() - 1 - n) // width
                    worlds = int.from_bytes(false[seg], "little") >> j * width
                    w = (worlds & -worlds).bit_length() - 1
                    out[live[k]] = space, start + j, env, w
            live, layouts = [k for k in live if out[k] is None], {}
        start += size
    return out


def first_failure(
    frame: Frame, phi: Formula, options=subset_options
) -> Optional[tuple[int, Interpretation, dict[Variable, int], int]]:
    """The first point where ``phi`` is false on ``frame``, as (index,
    interpretation, assignment, world), or None when phi is valid there.
    Points are ordered by interpretation (``_Interpretations`` order), then
    by assignment to phi's free variables in product order, then by world."""
    compiled = _compiled(phi)
    hit = _failure((frame,), compiled, options)[0]
    if hit is None:
        return None
    space, i, env, w = hit
    return i, space.interpretation(i), dict(zip(compiled.free, env)), w


def frames_valid(frames: Sequence[Frame], phi: Formula) -> list[FrameValidityResult]:
    """``frame_valid`` of each of ``frames``, decided as one batch: the
    frames share |W| and |D|, and selection and quasi frames of at most 8
    worlds batch together, while an ordering frame is a batch of one.
    More than ``MAX_FRAME_POINTS`` points per frame are refused first, once
    for the batch."""
    first = frames[0]
    n, nd = first.n_worlds, first.n_domain
    compiled = _compiled(phi)
    bits, k = n * sum([nd**p.arity for p in compiled.preds]), len(compiled.free)
    # nd**k * n >= 1: from the ceiling's bit length on, 2^bits alone is too many
    if bits >= MAX_FRAME_POINTS.bit_length() or (nd**k * n) << bits > MAX_FRAME_POINTS:
        raise ResourceGuard(
            f"frame validity ceiling exceeded: 2^{bits} interpretations x "
            f"{nd}^{k} assignments x {n} worlds is above MAX_FRAME_POINTS = "
            f"{MAX_FRAME_POINTS} points"
        )
    hits = _failure(frames, compiled, subset_options)
    return [
        FrameValidityResult(True)
        if hit is None
        else _Failure(frame, phi, compiled, hit)
        for frame, hit in zip(frames, hits)
    ]


def frame_valid(frame: Frame, phi: Formula) -> FrameValidityResult:
    """Enumerate all interpretations of the predicates occurring in phi.
    A failing result holds the first failing point of ``first_failure``'s
    order and builds its counterexample and countermodel each when first
    read.  More than ``MAX_FRAME_POINTS`` points are refused first."""
    return frames_valid((frame,), phi)[0]


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
