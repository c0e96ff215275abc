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
fragment; otherwise -inf tests the body at the values within 2^q of an
assigned value or -1, for q its quantifier rank + 2, a set proven exact.
The integer part reads a shared table of the stretches of worlds on which
the realized type is constant, one type bit per stretch, cached per
(values, threshold): O(t + distinct) whatever the values.  Denotations are
memoised on the formula node, like normal forms and fragments.  The sweeps
run in one process and share one fragment pool, canonical assignment and
grouping by denotation per (size, vars, identity).

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
from functools import cache, lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .frameprops import _SELECTION
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
    node_cached,
    ordered_free_variables,
    predicates,
    quantifier_rank,
    replace_other_atoms,
    substitute,
)

MINUS_INF = float("-inf")
MAX_TRUNCATION = 200  # the order at -inf of truncate(n) has Theta(n^2) pairs
MAX_MINUS_INF_RANK = 10  # the -inf test set holds 2^(rank+1) + 1 values per anchor
# The most positions a type table of the normal form may have: 8 have 89,918
# profiles and 9 would have 610,182, each times (rank + 1)^2 count cells.
MAX_NF_SCOPE = 8
# The most formulas a fragment pool may hold: (8, 2) has 144,000 and
# (9, 2) 851,746.
MAX_POOL = 200_000
# The largest |value| an assignment may give: a value -n puts an n-bit int in
# the denotation of an atom at it, 2 MB at the ceiling.
MAX_ASSIGNMENT = 1 << 24


class KModelError(Exception):
    pass


class NonFragment(KModelError):
    """A predicate other than F reached the engine without the escape flag."""


class StabilizationError(KModelError):
    """A -inf test set above MAX_MINUS_INF_RANK: a refusal, not a value."""


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
        if val < -MAX_ASSIGNMENT:
            raise KModelError(
                f"assignment value {val} for {v} is below -MAX_ASSIGNMENT = "
                f"{-MAX_ASSIGNMENT}"
            )


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
    def is_empty(self) -> bool:
        return self.bits == 0

    def union(self, other: "KSet") -> "KSet":
        return KSet(self.bits | other.bits)

    def intersect(self, other: "KSet") -> "KSet":
        return KSet(self.bits & other.bits)

    def complement(self) -> "KSet":
        return KSet(~self.bits)

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
class CountingNormalForm:
    """The complete counting types over ``named`` on which ``formula``
    holds, as a bitmask over the type index of (len(named), threshold)."""

    formula: Formula
    named: tuple[Variable, ...]
    threshold: int
    mask: int

    def satisfied(self, blocks: tuple, flits: tuple, fc: CountClass, nc: CountClass):
        bit = _type_bit(len(self.named), self.threshold, blocks, flits, fc, nc)
        return bit is not None and bool(self.mask >> bit & 1)


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
    labellings = [()]  # restricted growth strings, in lexicographic order
    for _ in range(n):
        labellings = [s + (b,) for s in labellings for b in range(len(set(s)) + 1)]
    out = tuple(
        (blocks, flits)
        for blocks in labellings
        for flits in itertools.product((False, True), repeat=len(set(blocks)))
    )
    return out, {p: k for k, p in enumerate(out)}


def _type_bit(
    n: int, r: int, blocks: tuple, flits: tuple, fc: CountClass, nc: CountClass
) -> Optional[int]:
    """The bit of the type (blocks, flits, fc, nc) over (n positions, cap
    r), or None when it is not such a type."""
    classes = _count_classes(r)
    k = _profiles(n)[1].get((blocks, flits))
    if k is None or fc not in classes or nc not in classes:
        return None
    return (k * (r + 1) + fc[1]) * (r + 1) + nc[1]


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


def _scope_error(phi: Formula, width: int) -> KModelError:
    return KModelError(
        f"the normal form of {phi} needs types over {width} variables, "
        f"above the ceiling MAX_NF_SCOPE = {MAX_NF_SCOPE}"
    )


@node_cached
def _node_nf(phi: Formula) -> tuple[int, int]:
    """(r, mask): the quantifier rank of a conditional-free node and its
    types over (its ordered free variables, cap r).  A node whose tables
    would be wider than ``MAX_NF_SCOPE`` positions is refused first."""
    fv = ordered_free_variables(phi)
    width = len(fv) + isinstance(phi, Forall)
    if width > MAX_NF_SCOPE:
        raise _scope_error(phi, width)
    if isinstance(phi, Atom):
        if phi.pred != F:
            raise NonFragment(f"predicate {phi.pred} is not in the fragment")
        return (0, 0b10)  # index order: F false, F true
    if isinstance(phi, Eq):
        # over two variables the first two types are the one-block ones
        return (0, 0b11 if len(fv) == 2 else _full(1, 0))
    if isinstance(phi, EPred):
        raise NonFragment("existence predicate is not in the fragment")
    if isinstance(phi, Cond):
        raise NonFragment("input must be conditional-free")
    if isinstance(phi, Not):
        r, body = _node_nf(phi.body)
        return (r, body ^ _full(len(fv), r))
    if isinstance(phi, Imp):
        r = max(_node_nf(phi.left)[0], _node_nf(phi.right)[0])
        a, b = _lift(phi.left, fv, r), _lift(phi.right, fv, r)
        return (r, (a ^ _full(len(fv), r)) | b)
    if isinstance(phi, Forall):
        s = _node_nf(phi.body)[0]
        scope = tuple(sorted(fv + (phi.var,), key=lambda v: v.index))
        body = _lift(phi.body, scope, s)
        table = _forall_table(len(fv), scope.index(phi.var), s + 1)
        return (s + 1, sum(1 << t for t, ext in enumerate(table) if body & ext == ext))
    raise KModelError(f"not a formula: {phi!r}")


def monadic_nf(phi: Formula, named: Sequence[Variable]) -> CountingNormalForm:
    """Counting normal form of a conditional-free monadic formula.

    The complete counting types over the named variables (count thresholds
    at the quantifier rank) on which the formula holds; the result is
    equivalent to the input over every structure interpreting one unary
    predicate, with equality.
    """
    named = tuple(named)
    if len(named) > MAX_NF_SCOPE:
        raise _scope_error(phi, len(named))
    r = _node_nf(phi)[0]
    missing = free_variables(phi) - set(named)
    if missing:
        raise KModelError(f"named variables must cover free variables: {missing}")
    return CountingNormalForm(phi, named, r, _lift(phi, named, r))


# ---------------------------------------------------------------------------
# The decision pipeline for K.


def _quantifier_fragment(phi: Formula, empty_predicates: bool) -> Formula:
    """Material reduct with E replaced by top and, under the flag, other
    predicates replaced by bottom (their interpretation in K is empty).
    Without the flag, other predicates are refused."""
    out = _fragment(phi)
    if not empty_predicates and out is not material_reduct(phi):
        others = predicates(phi) - {F}
        if others:
            raise NonFragment(
                f"predicates {sorted((p.index, p.arity) for p in others)} are empty "
                "in K; pass empty_predicates=True to interpret them as such"
            )
    return out


@node_cached
def _fragment(phi: Formula) -> Formula:
    """The fragment of ``phi`` with other predicates read as empty.  It is
    cached on the node, so the same source subtree always gives the same
    fragment object and the memo tables keyed by it hit by identity."""
    reduct = material_reduct(phi)
    return replace_other_atoms(reduct) if _other_atoms(phi) else reduct


@node_cached
def _other_atoms(phi: Formula) -> bool:
    """Whether phi holds E or an atom of a predicate other than F, from the
    children's cached flags."""
    if isinstance(phi, Atom):
        return phi.pred != F
    if isinstance(phi, EPred):
        return True
    if isinstance(phi, Eq):
        return False
    if isinstance(phi, (Not, Forall)):
        return _other_atoms(phi.body)
    return _other_atoms(phi.left) or _other_atoms(phi.right)


def _realized_type(values_list, k, threshold: int):
    """The type of the values at world k: F holds of n <= k, so every
    integer world has infinitely many F elements and -inf has none."""
    blocks, flits = _canonical(values_list, {val: val <= k for val in values_list})
    classes = _count_classes(threshold)
    neg = (-k - 1) - (len(flits) - sum(flits))
    fc = classes[0] if k == MINUS_INF else classes[-1]
    return blocks, flits, fc, classes[min(neg, threshold)]


@lru_cache(maxsize=1 << 12)  # bounded: the values are any ints of Z^-
def _stretch_table(
    values: tuple[int, ...], t: int
) -> tuple[tuple[int, Optional[int], int], ...]:
    """The worlds of K cut into stretches on which the type the values
    realize, over (len(values) positions, cap t), is constant: one (type
    bit, lo, hi) per stretch.  First -inf as world 0, then the integer
    stretches [lo, hi] from -1 down, the last a ray (.., hi] with lo None.
    The type at k reads only which values are <= k and the non-F count,
    capped at or below top.  So each world above top is a stretch, each
    value at or below top starts one, and the ray below the lowest is the
    last; each is read at its top world hi.  The table depends on the values
    and t alone, so every quantifier node with them shares it, and it has
    at most t + 2 distinct + 2 entries however far apart the values are."""
    n = len(values)
    top = -(t + len(set(values)) + 1)
    starts = [*range(-1, top, -1)]
    starts += sorted({v for v in values if v <= top}, reverse=True)
    out = [(_type_bit(n, t, *_realized_type(values, MINUS_INF, t)), 0, 0)]
    hi = -1
    for lo in starts:
        out.append((_type_bit(n, t, *_realized_type(values, hi, t)), lo, hi))
        hi = lo - 1
    out.append((_type_bit(n, t, *_realized_type(values, hi, t)), None, hi))
    return tuple(out)


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
    memo = _denote_cache(phi)
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
        mask = nf.mask
        bits = 0
        for bit, lo, hi in _stretch_table(key[1:], nf.threshold):
            if mask >> bit & 1:
                bits |= -1 << -hi if lo is None else (1 << 1 - lo) - (1 << -hi)
        # a node is its own material reduct, cached on it, iff it holds no
        # conditional; with one, the normal form does not decide -inf
        if material_reduct(phi) is not phi:
            bits = bits & -2 | _forall_minus_inf(phi, g, empty_predicates, nf)
        out = KSet(bits)
    else:
        raise KModelError(f"not a formula: {phi!r}")
    memo[key] = out
    return out


@node_cached
def _denote_cache(phi: Formula) -> dict:
    return {}  # the memo of _denote, keyed as its docstring says


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
    """Quantifier at -inf over the infinite domain, for a body with a
    conditional; ``nf`` is the counting normal form of the node's
    quantifier fragment over its free variables.

    The world -inf is itself a monadic structure (F empty, domain Z^-), so
    a conditional-free body is decided exactly by the normal form, at the
    first entry of ``_stretch_table``.
    With conditionals below, truth at -inf is first order over (Z^-, <=):
    F(n) holds at the world k iff n <= k and never at -inf; an integer
    world sees only itself, so there a conditional is material and truth
    has rank qr; at -inf, the least world, A > B holds iff A and B hold
    there, or A fails there and no integer u has A, or some u has A and
    A -> B at every v <= u.  That adds two quantifiers, so by induction
    the body at x = b is a sentence of rank q = qr(body) + 2 with the
    anchors (the named values and -1) and b as constants.  Tuples of a
    linear order in one order whose gaps are equal or both at least 2^q
    are q-equivalent (Libkin 2004, Thm 3.6): Duplicator copies a move's
    offset from its nearest point if that is below 2^(q-1) or the gaps
    are equal, else plays 2^(q-1) below the upper end of its gap, and the
    new gaps agree up to 2^(q-1).  So a value more than 2^q from both ends
    of its gap stands with lo + 2^q, and one more than 2^q below every
    anchor with lowest - 2^q: the values within 2^q of an anchor decide.
    """
    q = quantifier_rank(phi.body) + 2
    if q > MAX_MINUS_INF_RANK:
        raise StabilizationError(
            f"the -inf test set of {phi} needs rank {q}, above the ceiling "
            f"{MAX_MINUS_INF_RANK}"
        )
    reach = 1 << q
    anchors = {g[v] for v in nf.named} | {-1}
    tests = {a + d for a in anchors for d in range(-reach, reach + 1) if a + d <= -1}
    return all(
        _denote(phi.body, {**g, phi.var: b}, empty_predicates).minus_inf
        for b in sorted(tests, reverse=True)
    )


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
    singleton = KSet.make(False, None, [(-1, -1)])
    f_all = K_EMPTY  # no minimum going down
    f_single = singleton
    # frameprops' violation predicates on the world-set ints; bit 0 is -inf
    pair = (K_INTEGERS.bits, singleton.bits, 0, f_all.bits, f_single.bits)
    return ProbeReport(
        f_all,
        f_single,
        bool(_SELECTION["Uniformity"][1](*pair)),
        bool(_SELECTION["WLA"][1](*pair)),
    )


def _pool_counts(max_size: int, max_vars: int, with_identity: bool) -> Iterator[int]:
    """The number of pool formulas up to each size 1..max_size, by the size
    recurrence of ``fragment_pool``, without building any."""
    by_size = [0, max_vars + (max_vars * (max_vars - 1) // 2 if with_identity else 0)]
    yield by_size[1]
    for s in range(2, max_size + 1):
        by_size.append(by_size[s - 1] * (1 + max_vars) + 2 * sum(
            by_size[ls] * by_size[s - 1 - ls] for ls in range(1, s - 1)
        ))
        yield sum(by_size)


@cache
def fragment_pool(
    max_size: int, max_vars: int, with_identity: bool = False
) -> tuple[Formula, ...]:
    """Every core-node formula over F-atoms (plus ordered identity atoms)
    up to the size bound, over variables x0..x(max_vars-1).  A pool of more
    than ``MAX_POOL`` formulas is refused before any is built.

    Cached per call: the sweeps all pass the three arguments by position,
    so they share one pool per (size, vars, identity) and read the
    denotations memoised on its nodes."""
    for size, count in enumerate(_pool_counts(max_size, max_vars, with_identity), 1):
        if count > MAX_POOL:
            raise KModelError(
                f"the fragment pool at max_vars {max_vars} holds {count} formulas "
                f"up to size {size} of max_size {max_size}, above the ceiling "
                f"MAX_POOL = {MAX_POOL}"
            )
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
    max_size: int, max_vars: int, with_identity: bool
) -> tuple[Sequence[Formula], dict[Variable, int], dict[KSet, Formula], SweepReport]:
    """The fragment pool of a sweep, which must not be empty; the canonical
    assignment, which covers every pool variable and so is checked once;
    the first pool formula of each distinct denotation; and a fresh report
    holding the pool and denotation counts.  All but the report are shared
    by every sweep of the pool and are read, never changed."""
    if max_size < 1 or max_vars < 1:
        raise KModelError(
            f"empty fragment pool: max_size ({max_size}) and max_vars "
            f"({max_vars}) must both be at least 1"
        )
    pool, g, groups = _pool_groups(max_size, max_vars, with_identity)
    report = SweepReport(pool_size=len(pool), distinct_denotations=len(groups))
    return pool, g, groups, report


@cache
def _pool_groups(
    max_size: int, max_vars: int, with_identity: bool
) -> tuple[Sequence[Formula], dict[Variable, int], dict[KSet, Formula]]:
    """The pool, the checked canonical assignment and the pool grouped by
    denotation in pool order, cached beside ``fragment_pool``."""
    pool = fragment_pool(max_size, max_vars, with_identity)
    g = canonical_assignment(max_vars)
    _check_assignment(g)
    groups: dict[KSet, Formula] = {}
    for phi in pool:
        groups.setdefault(_denote(phi, g, False), phi)
    return pool, g, groups


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

    if jobs != 1:  # kept only because bench/workloads.py passes jobs=1
        raise KModelError(f"jobs ({jobs}) must be 1: the sweeps run in one process")
    if direct_samples < 0:
        raise KModelError(f"direct_samples ({direct_samples}) must be at least 0")
    pool, g, groups, report = _sweep_setup(max_size, max_vars, with_identity)

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
    shape.  An instance of 23, forall x a -> a[y/x], is denoted by the
    substitution lemma, [a[y/x]]_g = [a]_{g[x -> g(y)]}, from memos on the
    pool's own nodes; each sampled replay whose first formula is a
    quantifier also replays 23 through ``substitute`` at every variable.
    """
    import random

    if jobs != 1:  # kept only because bench/workloads.py passes jobs=1
        raise KModelError(f"jobs ({jobs}) must be 1: the sweeps run in one process")
    if rule_samples < 0:
        raise KModelError(f"rule_samples ({rule_samples}) must be at least 0")
    pool, g, groups, report = _sweep_setup(max_size, max_vars, with_identity)
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

    # Universal instantiation (23) is denoted by the substitution lemma, from
    # the memos of the pool node and its body, and the instance is built only
    # for a counterexample; the direct replays below denote substituted
    # instances.  Quantifier distribution (24) keeps the pool node itself as
    # the antecedent, so its memoised denotation is read.
    for phi in pool:
        if not isinstance(phi, Forall):
            continue
        for y in variables:
            report.pairs_checked += 1
            report.points_checked += 1
            if _instantiation_denotation(phi, y, g) != K_FULL:
                report.counterexamples.append(
                    ("universal instantiation", _instantiation(phi, y))
                )

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
        if isinstance(a, Forall):
            for y in variables:
                inst = _instantiation(a, y)
                if denote_k(inst, g) != K_FULL:
                    report.counterexamples.append(
                        ("universal instantiation (direct)", inst)
                    )

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


def _instantiation(phi: Forall, y: Variable) -> Formula:
    """The instance phi -> a[y/x] of universal instantiation (23), for phi
    the formula forall x a."""
    return Imp(phi, substitute(phi.body, [(phi.var, y)]))


def _instantiation_denotation(phi: Forall, y: Variable, g: dict) -> KSet:
    """The denotation of ``_instantiation(phi, y)`` under g, which covers y
    and the free variables of phi, without building it: both parts are
    memo reads or fills on phi and its body."""
    body = _substituted_body_denotation(phi, y, g)
    return KSet(~_denote(phi, g, False).bits | body.bits)


def _substituted_body_denotation(phi: Forall, y: Variable, g: dict) -> KSet:
    """[a[y/x]]_g for phi the formula forall x a.  Substitution avoids
    capture, so by the substitution lemma it is [a]_{g[x -> g(y)]}."""
    return _denote(phi.body, {**g, phi.var: g[y]}, False)


def _cond_denotation(a: KSet, b: KSet) -> KSet:
    """Denotation of a conditional from its component denotations: integer
    worlds see only themselves, so > is material there."""
    return KSet((~a.bits | b.bits) & -2 | cond_at_origin(a, b))
