"""Symbolic truth and denotation in the infinite ordering model K.

K has worlds Z^- together with -inf; from -inf every world is accessible
and ordered by <=, while each integer world sees only itself.  The domain
is Z^- at every world and F(n) holds at world k exactly when n <= k; every
other predicate is empty.

Definable world sets are canonical: finitely many intervals, at most one
downward ray, and a -inf bit.  A set is held as one two's-complement int,
bit 0 for -inf and bit n for the world -n, so a ray is the int's infinite
sign extension.  Denotation is computed compositionally: boolean nodes are
``~``, ``|`` and ``&`` on those ints, a conditional's integer part is its
material reading (each integer world only sees itself) with the Lewis
clause at -inf.  A quantifier node reads its integer part, and its -inf bit
when the body is conditional-free, off the counting normal form of its
fragment; otherwise -inf uses a finite test set with a stabilization
assertion.  The integer part takes one test per stretch of worlds on which
the realized type is constant, O(t + distinct) whatever the values.
Denotations are memoised on the formula node, like normal forms and
fragments, and the sweeps share one fragment pool per (size, vars,
identity), so the sweeps over one pool hit each other's memos.

Counting normal forms eliminate quantifiers over one unary predicate with
equality, bottom up.  Each conditional-free node holds the bitmask of the
complete types over its free variables, counts capped at its quantifier
rank, on which it holds.  Not and Imp are bit operations once the children
are lifted to the node's variables and cap; Forall keeps the types whose
one-element extensions all lie in the body's mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Iterable, Mapping, Optional, Sequence

from .hilbert import schema_instance
from .semantics import Model, OrderingFrame, _bits, evaluate
from .syntax import (
    Atom,
    Cond,
    EPred,
    Eq,
    F,
    Forall,
    Formula,
    Imp,
    Not,
    Variable,
    conj,
    free_variables,
    material_reduct,
    ordered_free_variables,
    replace_other_atoms,
    size,
    subformulas,
    substitute,
)

MINUS_INF = float("-inf")
MAX_TRUNCATION = 200  # the order at -inf of truncate(n) has Theta(n^2) pairs


class KModelError(Exception):
    pass


class NonFragment(KModelError):
    """A predicate other than F reached the engine without the escape flag."""


class StabilizationError(KModelError):
    """The deep test-set block failed to stabilize; diagnostic, not a value."""


def _check_world(w) -> None:
    if w == MINUS_INF:
        return
    if isinstance(w, int) and w <= -1:
        return
    raise KModelError(f"not a world of K: {w!r}")


def _check_assignment(g: Mapping[Variable, int]) -> None:
    for v, val in g.items():
        if not isinstance(val, int) or val > -1:
            raise KModelError(f"assignment value {val!r} for {v} outside Z^-")


# ---------------------------------------------------------------------------
# Canonical world sets.


@dataclass(frozen=True, slots=True)
class KSet:
    """A world set of K held as one int: bit 0 is -inf and bit n >= 1 is
    the world -n.

    Python ints extend their sign bit without end, so a negative int is a
    set with a downward ray {k <= ray}, and every int is a distinct
    canonical set: equality and hashing are those of the int.  Complement
    is ``~``, union ``|``, intersection ``&``.  A set costs about |lowest
    endpoint| / 8 bytes.  Read back as endpoints it is {k <= ray} union
    intervals, plus -inf when the bit is set, with the intervals sorted,
    pairwise disjoint, non-adjacent and strictly above ray + 1.
    """

    bits: int

    @staticmethod
    def make(
        minus_inf: bool = False,
        ray: Optional[int] = None,
        intervals: Iterable[tuple[int, int]] = (),
    ) -> "KSet":
        """The set from endpoints; an interval with lo > hi is empty."""
        bits = 1 if minus_inf else 0
        if ray is not None:
            if ray > -1:
                raise KModelError(f"ray endpoint {ray} outside Z^-")
            bits |= -1 << -ray
        for lo, hi in intervals:
            if lo > hi:
                continue
            if hi > -1:
                raise KModelError(f"bad interval [{lo},{hi}]")
            bits |= (1 << 1 - lo) - (1 << -hi)
        return KSet(bits)

    def __reduce__(self):
        return KSet, (self.bits,)

    def __repr__(self) -> str:
        # endpoints, not the int: past about -14,000 the int has more
        # decimal digits than Python converts to str
        return f"KSet.make({self.minus_inf}, {self.ray}, {self.intervals})"

    def contains(self, w) -> bool:
        if w == MINUS_INF:
            return self.minus_inf
        return w <= -1 and bool(self.bits >> -w & 1)

    @property
    def minus_inf(self) -> bool:
        return bool(self.bits & 1)

    @property
    def has_ray(self) -> bool:
        return self.bits < 0

    @property
    def ray(self) -> Optional[int]:
        if self.bits >= 0:
            return None
        return -(~self.bits >> 1).bit_length() - 1

    @property
    def intervals(self) -> tuple[tuple[int, int], ...]:
        """The integer worlds above the ray, as maximal runs, lowest first."""
        ray = self.ray
        rest = self.bits >> 1
        if ray is not None:
            rest &= (1 << -ray - 1) - 1
        out = []
        while rest:
            low = rest & -rest
            run = rest & ~(rest + low)  # the lowest run of set bits
            out.append((-run.bit_length(), -low.bit_length()))
            rest ^= run
        return tuple(reversed(out))

    @property
    def integer_empty(self) -> bool:
        return self.bits >> 1 == 0

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def least_integer(self) -> Optional[int]:
        """Smallest integer member; None when empty or unbounded below."""
        if self.bits < 2:
            return None
        return 1 - self.bits.bit_length()

    def union(self, other: "KSet") -> "KSet":
        return KSet(self.bits | other.bits)

    def intersect(self, other: "KSet") -> "KSet":
        return KSet(self.bits & other.bits)

    def complement(self) -> "KSet":
        return KSet(~self.bits)

    def minus(self, other: "KSet") -> "KSet":
        return KSet(self.bits & ~other.bits)

    def to_json(self) -> dict:
        return {
            "minusInf": self.minus_inf,
            "ray": self.ray,
            "intervals": [list(iv) for iv in self.intervals],
        }

    def __str__(self) -> str:
        parts = []
        if self.minus_inf:
            parts.append("-inf")
        if self.has_ray:
            parts.append(f"(..,{self.ray}]")
        parts.extend(f"[{lo},{hi}]" for lo, hi in self.intervals)
        return "{" + " ".join(parts) + "}" if parts else "{}"


K_FULL = KSet(-1)
K_INTEGERS = KSet(-2)
K_EMPTY = KSet(0)


def cond_at_origin(a: KSet, b: KSet) -> bool:
    """Lewis clause for the conditional at -inf, where the order is <=.

    (i) -inf is the global minimum, so when it satisfies the antecedent the
    conditional is its consequent-membership there; (ii) an empty antecedent
    is vacuous; (iii) a least antecedent world decides alone; (iv) with a
    downward ray, the antecedent worlds must eventually all satisfy the
    consequent going down.
    """
    x, y = a.bits, b.bits
    if x & 1:
        return bool(y & 1)
    if x >= 0:
        # x < 2: no integer world; else the top bit is the least world
        return x < 2 or bool(y >> x.bit_length() - 1 & 1)
    return x & ~y >= 0


# ---------------------------------------------------------------------------
# Counting types and quantifier elimination for the monadic fragment.

CountClass = tuple[str, int]  # ("exact", j) below the threshold, or ("atleast", j)


@dataclass(frozen=True)
class CountingType:
    """One disjunct of a counting normal form, for presentation.

    ``f_range``/``neg_range`` bound the number of F / non-F elements other
    than the named ones; an upper bound of None means unbounded.
    """

    literals: tuple[tuple[Variable, bool], ...]
    eq_blocks: Optional[tuple[int, ...]]
    f_range: tuple[int, Optional[int]]
    neg_range: tuple[int, Optional[int]]

    def describe(self) -> str:
        bits = [f"{'' if pos else '~'}F({v})" for v, pos in self.literals]
        if self.eq_blocks is not None:
            names = [v for v, _ in self.literals]
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    rel = "=" if self.eq_blocks[i] == self.eq_blocks[j] else "!="
                    bits.append(f"{names[i]} {rel} {names[j]}")
        for label, (lo, hi) in (("F", self.f_range), ("~F", self.neg_range)):
            if lo > 0:
                bits.append(f"E>={lo} {label}")
            if hi is not None:
                bits.append(f"~E>={hi + 1} {label}")
        return " & ".join(bits) if bits else "top"


@dataclass(frozen=True)
class CountingNormalForm:
    """The complete counting types over ``named`` on which ``formula``
    holds, as a bitmask over the type index of (len(named), threshold)."""

    formula: Formula
    named: tuple[Variable, ...]
    threshold: int
    mask: int

    def satisfied(self, blocks: tuple, flits: tuple, fc: CountClass, nc: CountClass):
        classes = _count_classes(self.threshold)
        k = _profiles(len(self.named))[1].get((blocks, flits))
        if k is None or fc not in classes or nc not in classes:
            return False
        w = len(classes)
        return bool(self.mask >> (k * w + fc[1]) * w + nc[1] & 1)

    @cached_property
    def types(self) -> frozenset:
        """The types as (blocks, flits, fc, nc) tuples."""
        classes = _count_classes(self.threshold)
        w = len(classes)
        profiles = _profiles(len(self.named))[0]
        return frozenset(
            profiles[i // (w * w)] + (classes[i // w % w], classes[i % w])
            for i in _bits(self.mask)
        )

    @cached_property
    def presented(self) -> tuple[CountingType, ...]:
        """The types merged into ranged presentation types."""
        r = self.threshold
        eq_matters = any(isinstance(s, Eq) for s in subformulas(self.formula))
        grouped: dict = {}
        cells_by_profile: dict = {}
        for blocks, flits, fc, nc in self.types:
            profile = (blocks, flits)
            key = profile if eq_matters else tuple(flits[b] for b in blocks)
            grouped.setdefault(key, profile)
            cells_by_profile.setdefault(key, set()).add((fc[1], nc[1]))
        out = []
        for key in sorted(cells_by_profile, key=repr):
            blocks, flits = grouped[key]
            literals = tuple((v, flits[blocks[i]]) for i, v in enumerate(self.named))
            eq_blocks = blocks if eq_matters else None
            for (f0, f1), (n0, n1) in _rectangles(cells_by_profile[key], r + 1):
                f_range = (f0, None if f1 == r else f1)
                n_range = (n0, None if n1 == r else n1)
                out.append(CountingType(literals, eq_blocks, f_range, n_range))
        return tuple(out)

    def describe(self) -> str:
        if not self.presented:
            return "bot"
        return " | ".join(t.describe() for t in self.presented)


@cache
def _count_classes(threshold: int) -> tuple[CountClass, ...]:
    """Count class c in 0..threshold, whose count is c: exactly c, or at
    least c at the top."""
    return tuple(("exact", c) for c in range(threshold)) + (("atleast", threshold),)


@cache
def _profiles(n: int) -> tuple[tuple, dict]:
    """The profiles over n named positions in index order, and the index of
    each.  A profile is a partition as a block labelling in first-use
    order, with one F-literal per block.  Over (n, cap r), the type of
    profile k with count classes fc and nc is bit (k(r+1) + fc)(r+1) + nc."""
    out = tuple(
        (blocks, flits)
        for blocks in itertools.product(range(n), repeat=n)
        if all(b <= max(blocks[:i], default=-1) + 1 for i, b in enumerate(blocks))
        for flits in itertools.product((False, True), repeat=len(set(blocks)))
    )
    return out, {p: k for k, p in enumerate(out)}


def _full(n: int, r: int) -> int:
    return (1 << len(_profiles(n)[0]) * (r + 1) ** 2) - 1


def _canonical(labels: Iterable, lits) -> tuple:
    """Blocks relabelled in order of first use, with their F-literals;
    ``lits`` maps an old label to its literal."""
    relabel: dict[int, int] = {}
    blocks = tuple(relabel.setdefault(b, len(relabel)) for b in labels)
    return blocks, tuple(lits[b] for b in relabel)


@cache
def _lift_table(pos: tuple[int, ...], n: int, r: int, s: int) -> tuple[int, ...]:
    """For each type over (len(pos) positions, cap s), the mask of the types
    over (n positions, cap r) that restrict to it; source position i is
    target position pos[i].  Blocks that no source position names fold
    back into the counts, which are then capped at s."""
    index = _profiles(len(pos))[1]
    out = [0] * (len(index) * (s + 1) ** 2)
    bit = 0
    for blocks, flits in _profiles(n)[0]:
        k = index[_canonical((blocks[p] for p in pos), flits)]
        kept = {blocks[p] for p in pos}
        add_f = sum(lit for b, lit in enumerate(flits) if b not in kept)
        add_n = len(flits) - len(kept) - add_f
        for fc in range(r + 1):
            for nc in range(r + 1):
                i = (k * (s + 1) + min(fc + add_f, s)) * (s + 1) + min(nc + add_n, s)
                out[i] |= 1 << bit
                bit += 1
    return tuple(out)


def _lift(phi: Formula, dst: tuple, r: int) -> int:
    """The mask of a conditional-free node over the types of (dst variables,
    cap r), for dst covering its free variables and r at least its rank."""
    s, mask = _node_nf(phi)
    src = ordered_free_variables(phi)
    if s == r and src == dst:
        return mask
    where = {v: i for i, v in enumerate(dst)}
    table = _lift_table(tuple(where[v] for v in src), len(dst), r, s)
    out = 0
    for i in _bits(mask):
        out |= table[i]
    return out


@cache
def _forall_table(n: int, p: int, r: int) -> tuple[int, ...]:
    """For each type over (n positions, cap r), the mask of its extensions
    by one element x over (n + 1 positions, cap r - 1), x at position p: x
    joins a block, or x is a fresh F or non-F element while that count is
    at least 1.  The other counts are capped at r - 1."""
    index = _profiles(n + 1)[1]
    out = []
    for blocks, flits in _profiles(n)[0]:
        m = len(flits)
        for fc in range(r + 1):
            for nc in range(r + 1):
                exts = [(b, flits, fc, nc) for b in range(m)]
                if fc:
                    exts.append((m, flits + (True,), fc - 1, nc))
                if nc:
                    exts.append((m, flits + (False,), fc, nc - 1))
                ext = 0
                for b, lits, f_count, n_count in exts:
                    k = index[_canonical(blocks[:p] + (b,) + blocks[p:], lits)]
                    ext |= 1 << (k * r + min(f_count, r - 1)) * r + min(n_count, r - 1)
                out.append(ext)
    return tuple(out)


def _node_nf(phi: Formula) -> tuple[int, int]:
    """(r, mask): the quantifier rank of a conditional-free node and its
    types over (its ordered free variables, cap r), cached on the node."""
    try:
        return phi._nf_cache  # type: ignore[attr-defined]
    except AttributeError:
        pass
    fv = ordered_free_variables(phi)
    if isinstance(phi, Atom):
        if phi.pred != F:
            raise NonFragment(f"predicate {phi.pred} is not in the fragment")
        out = (0, 0b10)  # index order: F false, F true
    elif isinstance(phi, Eq):
        # over two variables the first two types are the one-block ones
        out = (0, 0b11 if len(fv) == 2 else _full(1, 0))
    elif isinstance(phi, EPred):
        raise NonFragment("existence predicate is not in the fragment")
    elif isinstance(phi, Cond):
        raise NonFragment("input must be conditional-free")
    elif isinstance(phi, Not):
        r, body = _node_nf(phi.body)
        out = (r, body ^ _full(len(fv), r))
    elif isinstance(phi, Imp):
        r = max(_node_nf(phi.left)[0], _node_nf(phi.right)[0])
        a, b = _lift(phi.left, fv, r), _lift(phi.right, fv, r)
        out = (r, (a ^ _full(len(fv), r)) | b)
    elif isinstance(phi, Forall):
        s = _node_nf(phi.body)[0]
        scope = tuple(sorted(fv + (phi.var,), key=lambda v: v.index))
        body = _lift(phi.body, scope, s)
        table = _forall_table(len(fv), scope.index(phi.var), s + 1)
        out = (s + 1, sum(1 << t for t, ext in enumerate(table) if body & ext == ext))
    else:
        raise KModelError(f"not a formula: {phi!r}")
    object.__setattr__(phi, "_nf_cache", out)
    return out


def monadic_nf(phi: Formula, named: Sequence[Variable]) -> CountingNormalForm:
    """Counting normal form of a conditional-free monadic formula.

    The complete counting types over the named variables (count thresholds
    at the quantifier rank) on which the formula holds; the result is
    equivalent to the input over every structure interpreting one unary
    predicate, with equality.
    """
    named = tuple(named)
    r = _node_nf(phi)[0]
    missing = free_variables(phi) - set(named)
    if missing:
        raise KModelError(f"named variables must cover free variables: {missing}")
    return CountingNormalForm(phi, named, r, _lift(phi, named, r))


def _rectangles(cells: set, n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Greedy cover of a cell set by axis-aligned rectangles."""
    remaining = set(cells)
    out = []
    while remaining:
        f0, n0 = min(remaining)
        f1 = f0
        while f1 + 1 < n and (f1 + 1, n0) in remaining:
            f1 += 1
        n1 = n0
        while n1 + 1 < n and all(
            (f, n1 + 1) in remaining for f in range(f0, f1 + 1)
        ):
            n1 += 1
        out.append(((f0, f1), (n0, n1)))
        for f in range(f0, f1 + 1):
            for nn in range(n0, n1 + 1):
                remaining.discard((f, nn))
    return out


# ---------------------------------------------------------------------------
# The decision pipeline for K.


# The node attribute that caches the fragment, per empty_predicates flag.
_FRAGMENT_SLOTS = ("_fragment_cache", "_fragment_cache_empty_predicates")


def _quantifier_fragment(phi: Formula, empty_predicates: bool) -> Formula:
    """Material reduct with E replaced by top and, under the flag, other
    predicates replaced by bottom (their interpretation in K is empty).

    The result is cached on the node, one per flag, so the same source
    subtree always gives the same fragment object and the memo tables keyed
    by it hit by identity."""
    slot = _FRAGMENT_SLOTS[empty_predicates]
    try:
        return getattr(phi, slot)
    except AttributeError:
        pass
    reduct = material_reduct(phi)
    others = {
        s.pred for s in subformulas(reduct) if isinstance(s, Atom) and s.pred != F
    }
    has_e = any(isinstance(s, EPred) for s in subformulas(reduct))
    if others and not empty_predicates:
        raise NonFragment(
            f"predicates {sorted((p.index, p.arity) for p in others)} are empty "
            "in K; pass empty_predicates=True to interpret them as such"
        )
    out = replace_other_atoms(reduct, keep=(F,)) if others or has_e else reduct
    object.__setattr__(phi, slot, out)
    return out


def _realized_type(values_list, k, threshold: int):
    """The type of the values at world k: F holds of n <= k, so every
    integer world has infinitely many F elements and -inf has none."""
    blocks, flits = _canonical(values_list, {val: val <= k for val in values_list})
    classes = _count_classes(threshold)
    neg = (-k - 1) - (len(flits) - sum(flits))
    fc = classes[0] if k == MINUS_INF else classes[-1]
    return blocks, flits, fc, classes[min(neg, threshold)]


def denote_k(
    phi: Formula, g: Mapping[Variable, int], empty_predicates: bool = False
) -> KSet:
    """The exact set {w : K,w,g satisfies phi}, in canonical form."""
    return _denote(phi, _checked_assignment(phi, g), empty_predicates)


def _checked_assignment(phi: Formula, g: Mapping[Variable, int]) -> dict:
    """g on the free variables of phi, which it must cover within Z^-."""
    fv = ordered_free_variables(phi)
    try:
        sub = {v: g[v] for v in fv}
    except KeyError:
        missing = [v.index for v in fv if v not in g]
        raise KModelError(f"assignment misses {missing}") from None
    _check_assignment(sub)
    return sub


def _denote(phi: Formula, g: dict, empty_predicates: bool) -> KSet:
    """The denotation under g, which covers the free variables of phi.  It
    is the one source of the -inf bit: eval_k and the quantifier clause at
    -inf both read it.  The memo lives on the node, so it is freed with it;
    its key is the flag, then the value of each free variable in index
    order.  A leaf costs one shift or comparison, so it has no memo."""
    if isinstance(phi, Atom):
        if phi.pred == F:
            return KSet((1 << 1 - g[phi.args[0]]) - 2)
        if empty_predicates:
            return K_EMPTY
        raise NonFragment(
            f"predicate {phi.pred} is empty in K; pass empty_predicates=True"
        )
    if isinstance(phi, Eq):
        return K_FULL if g[phi.left] == g[phi.right] else K_EMPTY
    if isinstance(phi, EPred):
        return K_FULL  # the domain is globally Z^-
    fv = ordered_free_variables(phi)
    try:
        memo = phi._denote_cache  # type: ignore[attr-defined]
    except AttributeError:
        memo = {}
        object.__setattr__(phi, "_denote_cache", memo)
    key = (empty_predicates, *[g[v] for v in fv])
    got = memo.get(key)
    if got is not None:
        return got
    out: KSet
    if isinstance(phi, Not):
        out = KSet(~_denote(phi.body, g, empty_predicates).bits)
    elif isinstance(phi, Imp):
        a = _denote(phi.left, g, empty_predicates)
        b = _denote(phi.right, g, empty_predicates)
        out = KSet(~a.bits | b.bits)
    elif isinstance(phi, Cond):
        a = _denote(phi.left, g, empty_predicates)
        b = _denote(phi.right, g, empty_predicates)
        out = _cond_denotation(a, b)
    elif isinstance(phi, Forall):
        nf = monadic_nf(_quantifier_fragment(phi, empty_predicates), fv)
        t = nf.threshold
        values = [g[v] for v in fv]
        # The type realized at k reads only which values are <= k and the
        # non-F count, capped at or below top.  So each world above top is
        # a stretch, each value at or below top starts one, and the ray
        # below the lowest is the last; each is tested at its top world hi.
        top = -(t + len(set(values)) + 1)
        starts = [*range(-1, top, -1)]
        starts += sorted({v for v in values if v <= top}, reverse=True)
        bits = int(_forall_minus_inf(phi, g, empty_predicates, nf))
        hi = -1
        for lo in starts:
            if nf.satisfied(*_realized_type(values, hi, t)):
                bits |= (1 << 1 - lo) - (1 << -hi)
            hi = lo - 1
        if nf.satisfied(*_realized_type(values, hi, t)):
            bits |= -1 << -hi
        out = KSet(bits)
    else:
        raise KModelError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


def eval_k(
    phi: Formula,
    w,
    g: Mapping[Variable, int],
    empty_predicates: bool = False,
) -> bool:
    """Truth of phi at a world of K under the assignment: membership in its
    denotation, which at -inf is the denotation's -inf bit."""
    _check_world(w)
    return _denote(phi, _checked_assignment(phi, g), empty_predicates).contains(w)


def _forall_minus_inf(
    phi: Forall, g: dict, empty_predicates: bool, nf: CountingNormalForm
) -> bool:
    """Quantifier at -inf over the infinite domain.

    The world -inf is itself a monadic structure (F empty, domain Z^-), so
    a conditional-free body is decided exactly by ``nf``, the counting
    normal form of the node's quantifier fragment over its free variables.
    With conditionals below, witness candidates cluster around the named
    values and around -1 within a distance bounded by the formula size; far
    below everything the truth value must be constant, which the deep block
    asserts.
    """
    # a node is its own material reduct, cached on it, iff it holds no
    # conditional
    if material_reduct(phi) is phi:
        values = [g[v] for v in nf.named]
        return nf.satisfied(*_realized_type(values, MINUS_INF, nf.threshold))

    s = size(phi)
    vals = sorted({g[v] for v in free_variables(phi)})
    anchors = vals + [-1]
    candidates = set(vals)
    for v in anchors:
        for delta in range(-(s + 1), s + 2):
            if v + delta <= -1:
                candidates.add(v + delta)
    deep_top = (min(vals) if vals else -1) - s - 2
    deep = [deep_top - i for i in range(s + 1)]

    def at(a: int) -> bool:
        return _denote(phi.body, {**g, phi.var: a}, empty_predicates).minus_inf

    deep_values = [at(a) for a in deep]
    if len(set(deep_values)) != 1:
        raise StabilizationError(
            f"deep test block not constant below {deep_top} for {phi}"
        )
    if not deep_values[0]:
        return False
    return all(at(a) for a in sorted(candidates, reverse=True))


# ---------------------------------------------------------------------------
# Finite truncations of K: the cross-validation oracle.

@cache
def truncate(n: int) -> Model:
    """The ordering model on worlds {-n..-1, -inf} with domain {-n..-1}.

    World index i is the world -(i+1) for i < n; index n is -inf.  A finite
    restriction like this satisfies the strong limit assumption, which K
    itself does not; agreement on a stabilization window is what makes it
    usable as an oracle rather than a replacement.
    """
    if n < 1:
        raise KModelError("truncation needs n >= 1")
    if n > MAX_TRUNCATION:
        raise KModelError(f"truncation ceiling exceeded: n={n} above {MAX_TRUNCATION}")
    n_worlds = n + 1
    inf = n
    r = [1 << w for w in range(n)] + [(1 << n_worlds) - 1]
    pairs: dict[int, list[tuple[int, int]]] = {w: [(w, w)] for w in range(n)}
    at_inf = [(inf, inf)] + [(inf, i) for i in range(n)]
    at_inf.extend((i, j) for i in range(n) for j in range(n) if i >= j)
    pairs[inf] = at_inf
    world_names = tuple(str(-(i + 1)) for i in range(n)) + ("-inf",)
    domain_names = tuple(str(-(i + 1)) for i in range(n))
    frame = OrderingFrame.build(
        n_worlds,
        r,
        pairs,
        n_domain=n,
        world_names=world_names,
        domain_names=domain_names,
    )
    interp = {F: {w: frozenset((i,) for i in range(w, n)) for w in range(n)}}
    interp[F][inf] = frozenset()
    return Model(frame, interp)


def truncation_world(n: int, w) -> int:
    if w == MINUS_INF:
        return n
    if not isinstance(w, int) or not -n <= w <= -1:
        raise KModelError(f"world {w} outside truncation K_{n}")
    return -w - 1


def truncation_assignment(n: int, g: Mapping[Variable, int]) -> dict[Variable, int]:
    out = {}
    for v, val in g.items():
        if not -n <= val <= -1:
            raise KModelError(f"value {val} outside truncation domain")
        out[v] = -val - 1
    return out


def eval_truncated(n: int, phi: Formula, w, g: Mapping[Variable, int]) -> bool:
    model = truncate(n)
    return evaluate(model, truncation_world(n, w), truncation_assignment(n, g), phi)


# ---------------------------------------------------------------------------
# Probes and sweeps.


@dataclass(frozen=True)
class ProbeReport:
    min_all_integers: KSet
    min_singleton: KSet
    uniformity_violated: bool
    wla_violated: bool

    def to_json(self) -> dict:
        return {
            "f(Z-,-inf)": str(self.min_all_integers),
            "f({-1},-inf)": str(self.min_singleton),
            "uniformityViolated": self.uniformity_violated,
            "wlaViolated": self.wla_violated,
        }


def induced_selection_probe() -> ProbeReport:
    """Minimal sets under the order at -inf for Z^- and for {-1}.

    Z^- has no least element, so its selection is empty although the
    singleton's is not; the pair witnesses a Uniformity failure of the
    induced selection function.  The computation also reports the weak
    limit implication on the same pair.
    """
    all_integers = K_INTEGERS
    singleton = KSet.make(False, None, [(-1, -1)])
    f_all = K_EMPTY  # no minimum going down
    f_single = singleton
    premise = (
        f_all.minus(singleton).is_empty and f_single.minus(all_integers).is_empty
    )
    uniformity_violated = premise and f_all != f_single
    wla_violated = f_all.is_empty and not all_integers.intersect(f_single).is_empty
    return ProbeReport(f_all, f_single, uniformity_violated, wla_violated)


def probe_truncation(n: int) -> bool:
    """True when the truncation shows no such violation (finite minima)."""
    model = truncate(n)
    frame = model.frame
    inf = n
    full_integers = (1 << n) - 1
    f_all = frame.min_set(full_integers, inf)
    f_single = frame.min_set(1 << 0, inf)
    premise = f_all & ~(1 << 0) == 0 and f_single & ~full_integers == 0
    return not (premise and f_all != f_single)


@cache
def fragment_pool(
    max_size: int, max_vars: int, with_identity: bool = False
) -> tuple[Formula, ...]:
    """Every core-node formula over F-atoms (plus ordered identity atoms)
    up to the size bound, over variables x0..x(max_vars-1).

    Cached per call: the sweeps all pass the three arguments by position,
    so they share one pool per (size, vars, identity) and read the
    denotations memoised on its nodes."""
    variables = [Variable(i) for i in range(max_vars)]
    leaves: list[Formula] = [Atom(F, (v,)) for v in variables]
    if with_identity:
        leaves.extend(
            Eq(variables[i], variables[j])
            for i in range(max_vars)
            for j in range(i + 1, max_vars)
        )
    by_size: dict[int, list[Formula]] = {1: list(leaves)}
    for s in range(2, max_size + 1):
        bucket: list[Formula] = []
        for phi in by_size[s - 1]:
            bucket.append(Not(phi))
            bucket.extend(Forall(v, phi) for v in variables)
        for ls in range(1, s - 1):
            for a in by_size[ls]:
                for b in by_size[s - 1 - ls]:
                    bucket.append(Imp(a, b))
                    bucket.append(Cond(a, b))
        by_size[s] = bucket
    return tuple(phi for s in range(1, max_size + 1) for phi in by_size[s])


def _sweep_setup(
    max_size: int, max_vars: int, with_identity: bool, jobs: int
) -> tuple[Sequence[Formula], dict[Variable, int], dict[KSet, Formula], SweepReport]:
    """The fragment pool of a sweep, which must not be empty; the canonical
    assignment; the first pool formula of each distinct denotation; and a
    report holding the pool and denotation counts."""
    if max_size < 1 or max_vars < 1:
        raise KModelError(
            f"empty fragment pool: max_size ({max_size}) and max_vars "
            f"({max_vars}) must both be at least 1"
        )
    pool = fragment_pool(max_size, max_vars, with_identity)
    g = canonical_assignment(max_vars)
    groups: dict[KSet, Formula] = {}
    for phi, den in zip(pool, _pool_denotations(pool, g, jobs)):
        groups.setdefault(den, phi)
    report = SweepReport(pool_size=len(pool), distinct_denotations=len(groups))
    return pool, g, groups, report


def canonical_assignment(max_vars: int) -> dict[Variable, int]:
    """The surjective pattern x_i -> -(i+1)."""
    return {Variable(i): -(i + 1) for i in range(max_vars)}


@dataclass
class SweepReport:
    pool_size: int = 0
    distinct_denotations: int = 0
    pairs_checked: int = 0
    points_checked: int = 0
    direct_samples: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "poolSize": self.pool_size,
            "distinctDenotations": self.distinct_denotations,
            "pairsChecked": self.pairs_checked,
            "pointsChecked": self.points_checked,
            "directSamples": self.direct_samples,
            "ok": self.ok,
            "counterexamples": [repr(c) for c in self.counterexamples],
        }


def cem_sweep(
    max_size: int,
    max_vars: int,
    with_identity: bool = False,
    direct_samples: int = 200,
    seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """Check excluded middle (22), (phi > psi) | (phi > ~psi), at every
    world for every pair from the fragment pool.

    The denotation of a conditional is a function of the two component
    denotations alone, so the pair check runs over distinct denotations; a
    random sample of pairs additionally goes through the unfactored
    evaluator as a guard on the factorization.  A failing pair is reported
    at -inf and at each failing world down to -(max_size+2), or at its
    highest failing world when all of them lie lower.
    """
    import random

    pool, g, groups, report = _sweep_setup(max_size, max_vars, with_identity, jobs)

    worlds = list(range(-(max_size + 2), 0))
    for a_set, a_rep in groups.items():
        for b_set, b_rep in groups.items():
            report.pairs_checked += 1
            report.points_checked += len(worlds)
            den = _cond_denotation(a_set, b_set).union(
                _cond_denotation(a_set, b_set.complement())
            )
            if den != K_FULL:
                missing = [w for w in (MINUS_INF, *worlds) if not den.contains(w)]
                if not missing:  # only worlds below the window
                    gaps = ~den.bits & -2
                    missing = [1 - (gaps & -gaps).bit_length()]
                report.counterexamples.extend((a_rep, b_rep, w) for w in missing)

    rng = random.Random(seed)
    for _ in range(direct_samples):
        phi, psi = rng.choice(pool), rng.choice(pool)
        cem = schema_instance("22", a=phi, b=psi)
        report.direct_samples += 1
        if not eval_k(cem, MINUS_INF, g):
            report.counterexamples.append((phi, psi, MINUS_INF))
        k = rng.choice(worlds)
        if not eval_k(cem, k, g):
            report.counterexamples.append((phi, psi, k))
    return report


def _pool_denotations(pool, g, jobs: int) -> list[KSet]:
    if jobs <= 1:
        return [denote_k(phi, g) for phi in pool]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as executor:
        chunksize = -(-len(pool) // jobs)
        return list(executor.map(partial(denote_k, g=dict(g)), pool, chunksize=chunksize))


def qc2_axiom_sweep(
    max_size: int,
    max_vars: int,
    with_identity: bool = False,
    rule_samples: int = 200,
    seed: int = 0,
    jobs: int = 1,
) -> SweepReport:
    """Check the non-CEM axiom schemas of the base logic over the fragment
    pool, and spot-check the conditional closure rule.

    Everything-in-K validity is one canonical-set comparison per instance.
    For the quantifier-free schemas (identity 19, detachment 21, order
    transfer 20) truth at every world is a function of the component
    denotations alone, so those sweeps run over distinct denotations, with
    random unfactored replays of ``hilbert.SCHEMAS`` instances as a guard.
    The quantified schemas (universal instantiation 23 and quantifier
    distribution 24) are instantiated at every pool formula of the right
    shape.
    """
    import random

    pool, g, groups, report = _sweep_setup(max_size, max_vars, with_identity, jobs)
    variables = [Variable(i) for i in range(max_vars)]

    def check(den: KSet, *counterexample) -> None:
        report.pairs_checked += 1
        report.points_checked += 1
        if den != K_FULL:
            report.counterexamples.append(counterexample)

    # identity of the conditional: phi > phi
    for a_set, a_rep in groups.items():
        check(_cond_denotation(a_set, a_set), "identity", a_rep)

    # detachment: (a > b) -> (a -> b), a function of the two denotations
    for a_set, a_rep in groups.items():
        for b_set, b_rep in groups.items():
            material = a_set.complement().union(b_set)
            cond_den = _cond_denotation(a_set, b_set)
            check(
                cond_den.complement().union(material),
                "conditional detachment", a_rep, b_rep,
            )

    # order transfer over denotation triples
    for a_set, a_rep in groups.items():
        for b_set, b_rep in groups.items():
            ab = _cond_denotation(a_set, b_set)
            ba = _cond_denotation(b_set, a_set)
            both = ab.intersect(ba)
            if both.is_empty:
                continue
            for c_set, c_rep in groups.items():
                lhs = both.intersect(_cond_denotation(a_set, c_set))
                check(
                    lhs.complement().union(_cond_denotation(b_set, c_set)),
                    "order transfer", a_rep, b_rep, c_rep,
                )

    # Universal instantiation (23) and quantifier distribution (24) keep the
    # pool node itself as the antecedent, so its memoised denotation is read.
    for phi in pool:
        if not isinstance(phi, Forall):
            continue
        for y in variables:
            inst = Imp(phi, substitute(phi.body, [(phi.var, y)]))
            check(denote_k(inst, g), "universal instantiation", inst)

    for phi in pool:
        if not (isinstance(phi, Forall) and isinstance(phi.body, Cond)):
            continue
        if phi.var in free_variables(phi.body.left):
            continue
        inst = Imp(phi, Cond(phi.body.left, Forall(phi.var, phi.body.right)))
        check(denote_k(inst, g), "quantifier distribution", inst)

    # unfactored replays of the denotation-level sweeps
    rng = random.Random(seed)
    for _ in range(rule_samples):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        report.direct_samples += 1
        for name, schema in (
            ("identity", "19"),
            ("conditional detachment", "21"),
            ("order transfer", "20"),
        ):
            inst = schema_instance(schema, a=a, b=b, c=c)
            if denote_k(inst, g) != K_FULL:
                report.counterexamples.append((name + " (direct)", inst))

    # conditional closure rule spot checks
    checked = 0
    while checked < rule_samples:
        phi = rng.choice(pool)
        n = rng.randint(1, 3)
        psis = [rng.choice(pool) for _ in range(n)]
        chi = rng.choice(psis) if rng.random() < 0.7 else rng.choice(pool)
        premise = Imp(conj(psis), chi)
        if denote_k(premise, g) != K_FULL:
            continue
        checked += 1
        report.direct_samples += 1
        conclusion = Imp(conj([Cond(phi, p) for p in psis]), Cond(phi, chi))
        report.points_checked += 1
        if denote_k(conclusion, g) != K_FULL:
            report.counterexamples.append(("conditional closure", conclusion))
    return report


def _cond_denotation(a: KSet, b: KSet) -> KSet:
    """Denotation of a conditional from its component denotations: integer
    worlds see only themselves, so > is material there."""
    return KSet((~a.bits | b.bits) & -2 | cond_at_origin(a, b))


def rebuild_formula(nf: CountingNormalForm) -> Formula:
    """A formula (in the identity language) equivalent to the normal form.

    Each presented type becomes literals, the (in)equality pattern, and
    threshold-counting conjuncts over fresh variables excluded from the
    named ones; the disjunction of the types rebuilds the input up to
    equivalence over every one-predicate structure.
    """
    from .syntax import Exists, Top, disj

    used = {v.index for v in nf.named}
    fresh_start = (max(used) + 1) if used else 0

    def count_at_least(j: int, positive: bool) -> Formula:
        if j == 0:
            return Top()
        zs = [Variable(fresh_start + i) for i in range(j)]
        parts: list[Formula] = []
        for z in zs:
            atom: Formula = Atom(F, (z,))
            parts.append(atom if positive else Not(atom))
        parts.extend(
            Not(Eq(zs[i], zs[jj]))
            for i in range(j)
            for jj in range(i + 1, j)
        )
        parts.extend(Not(Eq(z, v)) for z in zs for v in nf.named)
        out = conj(parts)
        for z in reversed(zs):
            out = Exists(z, out)
        return out

    disjuncts: list[Formula] = []
    for t in nf.presented:
        parts = []
        for v, positive in t.literals:
            atom = Atom(F, (v,))
            parts.append(atom if positive else Not(atom))
        if t.eq_blocks is not None:
            names = [v for v, _ in t.literals]
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    pair = Eq(names[i], names[j])
                    parts.append(
                        pair if t.eq_blocks[i] == t.eq_blocks[j] else Not(pair)
                    )
        for positive, (lo, hi) in ((True, t.f_range), (False, t.neg_range)):
            if lo > 0:
                parts.append(count_at_least(lo, positive))
            if hi is not None:
                parts.append(Not(count_at_least(hi + 1, positive)))
        disjuncts.append(conj(parts))
    return disj(disjuncts)
