"""Symbolic truth and denotation in the infinite ordering model K.

K has worlds Z^- together with -inf; from -inf every world is accessible
and ordered by <=, while each integer world sees only itself.  The domain
is Z^- at every world and F(n) holds at world k exactly when n <= k; every
other predicate is empty.

Definable world sets are canonical: finitely many intervals, at most one
downward ray, and a -inf bit.  Denotation is computed compositionally:
boolean nodes are set algebra, a conditional's integer part is its material
reading (each integer world only sees itself) with the Lewis clause at
-inf, and quantifier nodes drop into the monadic counting-type engine for
their integer part and a finite test set with a stabilization assertion at
-inf.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .semantics import Model, OrderingFrame, evaluate
from .syntax import (
    And,
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
    quantifier_rank,
    replace_other_atoms,
    size,
    subformulas,
    substitute,
)

MINUS_INF = float("-inf")


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


@dataclass(frozen=True)
class KSet:
    """{k <= ray} union intervals, plus -inf when the bit is set.

    Canonical form: intervals sorted, pairwise disjoint, non-adjacent, and
    strictly above ray + 1, so equality of canonical sets is field equality.
    """

    minus_inf: bool = False
    ray: Optional[int] = None
    intervals: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.ray is not None and self.ray > -1:
            raise KModelError(f"ray endpoint {self.ray} outside Z^-")
        prev_hi: Optional[int] = None
        for lo, hi in self.intervals:
            if lo > hi or hi > -1:
                raise KModelError(f"bad interval [{lo},{hi}]")
            if self.ray is not None and lo <= self.ray + 1:
                raise KModelError("interval not strictly above the ray")
            if prev_hi is not None and lo <= prev_hi + 1:
                raise KModelError("intervals overlap or touch")
            prev_hi = hi

    @staticmethod
    def make(
        minus_inf: bool = False,
        ray: Optional[int] = None,
        intervals: Iterable[tuple[int, int]] = (),
    ) -> "KSet":
        """Normalize arbitrary interval data into canonical form."""
        merged: list[list[int]] = []
        for lo, hi in sorted(intervals):
            if lo > hi:
                continue
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out_ray = ray
        rest: list[tuple[int, int]] = []
        for lo, hi in merged:
            if out_ray is not None and lo <= out_ray + 1:
                out_ray = max(out_ray, hi)
            else:
                rest.append((lo, hi))
        return KSet(minus_inf, out_ray, tuple(rest))

    def contains(self, w) -> bool:
        if w == MINUS_INF:
            return self.minus_inf
        if self.ray is not None and w <= self.ray:
            return True
        return any(lo <= w <= hi for lo, hi in self.intervals)

    @property
    def has_ray(self) -> bool:
        return self.ray is not None

    @property
    def integer_empty(self) -> bool:
        return self.ray is None and not self.intervals

    @property
    def is_empty(self) -> bool:
        return not self.minus_inf and self.integer_empty

    def least_integer(self) -> Optional[int]:
        """Smallest integer member; None when empty or unbounded below."""
        if self.ray is not None or not self.intervals:
            return None
        return self.intervals[0][0]

    def _segments(self) -> list[tuple[Optional[int], int]]:
        segs: list[tuple[Optional[int], int]] = []
        if self.ray is not None:
            segs.append((None, self.ray))
        segs.extend(self.intervals)
        return segs

    @staticmethod
    def _from_segments(
        minus_inf: bool, segs: Iterable[tuple[Optional[int], int]]
    ) -> "KSet":
        ray = None
        intervals = []
        for lo, hi in segs:
            if lo is None:
                ray = hi if ray is None else max(ray, hi)
            else:
                intervals.append((lo, hi))
        return KSet.make(minus_inf, ray, intervals)

    def union(self, other: "KSet") -> "KSet":
        return KSet._from_segments(
            self.minus_inf or other.minus_inf, self._segments() + other._segments()
        )

    def intersect(self, other: "KSet") -> "KSet":
        segs = []
        for alo, ahi in self._segments():
            for blo, bhi in other._segments():
                lo = blo if alo is None else (alo if blo is None else max(alo, blo))
                hi = min(ahi, bhi)
                if lo is None or lo <= hi:
                    segs.append((lo, hi))
        return KSet._from_segments(self.minus_inf and other.minus_inf, segs)

    def complement(self) -> "KSet":
        segs = []
        cursor: Optional[int] = None  # None: unbounded below
        for lo, hi in self._segments():
            if lo is None:
                cursor = hi + 1
                continue
            if cursor is None:
                segs.append((None, lo - 1))
            elif cursor <= lo - 1:
                segs.append((cursor, lo - 1))
            cursor = hi + 1
        if cursor is None:
            segs.append((None, -1))
        elif cursor <= -1:
            segs.append((cursor, -1))
        return KSet._from_segments(not self.minus_inf, segs)

    def minus(self, other: "KSet") -> "KSet":
        return self.intersect(other.complement())

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
        if self.ray is not None:
            parts.append(f"(..,{self.ray}]")
        parts.extend(f"[{lo},{hi}]" for lo, hi in self.intervals)
        return "{" + " ".join(parts) + "}" if parts else "{}"


K_FULL = KSet.make(True, -1, ())
K_INTEGERS = KSet.make(False, -1, ())
K_EMPTY = KSet.make()


def cond_at_origin(a: KSet, b: KSet) -> bool:
    """Lewis clause for the conditional at -inf, where the order is <=.

    (i) -inf is the global minimum, so when it satisfies the antecedent the
    conditional is its consequent-membership there; (ii) an empty antecedent
    is vacuous; (iii) a least antecedent world decides alone; (iv) with a
    downward ray, the antecedent worlds must eventually all satisfy the
    consequent going down.
    """
    if a.minus_inf:
        return b.minus_inf
    if a.integer_empty:
        return True
    least = a.least_integer()
    if least is not None:
        return b.contains(least)
    return not a.minus(b).has_ray


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
    named: tuple[Variable, ...]
    threshold: int
    eq_matters: bool
    types: frozenset
    presented: tuple[CountingType, ...]

    def satisfied(
        self,
        blocks: tuple[int, ...],
        flits: tuple[bool, ...],
        fc: CountClass,
        nc: CountClass,
    ) -> bool:
        return (blocks, flits, fc, nc) in self.types

    def describe(self) -> str:
        if not self.presented:
            return "bot"
        return " | ".join(t.describe() for t in self.presented)


def _partitions(n: int) -> Iterable[tuple[int, ...]]:
    """Canonical partitions of positions 0..n-1 as block labelings."""
    if n == 0:
        yield ()
        return

    def rec(prefix: list[int], next_block: int, i: int):
        if i == n:
            yield tuple(prefix)
            return
        for b in range(next_block + 1):
            prefix.append(b)
            yield from rec(prefix, max(next_block, b + 1), i + 1)
            prefix.pop()

    yield from rec([0], 1, 1)


def _count_classes(threshold: int) -> list[CountClass]:
    if threshold == 0:
        return [("atleast", 0)]
    return [("exact", j) for j in range(threshold)] + [("atleast", threshold)]


class _TypeEvaluator:
    """Truth of a monadic formula relative to a counting type.

    ``env`` maps in-scope variables to block ids; ``flits`` holds one
    F-literal per block; ``fc``/``nc`` bound the F / non-F element counts
    outside all blocks.  Quantifiers branch over each existing block, one
    fresh F element (when the count allows) and one fresh non-F element;
    fresh picks decrement the budget.  Starting the budget at the
    quantifier rank keeps an "atleast" budget ahead of the remaining rank,
    which makes the branching exhaustive.
    """

    def __init__(self) -> None:
        self.memo: dict = {}
        self._fv: dict[Formula, tuple[Variable, ...]] = {}

    def clear(self) -> None:
        self.memo.clear()
        self._fv.clear()

    def _free(self, phi) -> tuple[Variable, ...]:
        got = self._fv.get(phi)
        if got is None:
            got = tuple(sorted(free_variables(phi), key=lambda v: v.index))
            self._fv[phi] = got
        return got

    def run(self, phi, env, flits, fc, nc) -> bool:
        key = self._key(phi, env, flits, fc, nc)
        got = self.memo.get(key)
        if got is None:
            got = self._eval(phi, env, flits, fc, nc)
            if len(self.memo) > 2_000_000:
                self.memo.clear()
            self.memo[key] = got
        return got

    def _key(self, phi, env, flits, fc, nc):
        relabel: dict[int, int] = {}
        canon = []
        for v in self._free(phi):
            b = env[v]
            if b not in relabel:
                relabel[b] = len(relabel)
            canon.append((relabel[b], flits[b]))
        unref_true = 0
        unref_false = 0
        for b, lit in enumerate(flits):
            if b not in relabel:
                if lit:
                    unref_true += 1
                else:
                    unref_false += 1
        return (phi, tuple(canon), unref_true, unref_false, fc, nc)

    def _eval(self, phi, env, flits, fc, nc) -> bool:
        if isinstance(phi, Atom):
            if phi.pred != F:
                raise NonFragment(f"predicate {phi.pred} in the monadic engine")
            return flits[env[phi.args[0]]]
        if isinstance(phi, Eq):
            return env[phi.left] == env[phi.right]
        if isinstance(phi, EPred):
            raise NonFragment("existence predicate must be pre-replaced")
        if isinstance(phi, Not):
            return not self.run(phi.body, env, flits, fc, nc)
        if isinstance(phi, Imp):
            return not self.run(phi.left, env, flits, fc, nc) or self.run(
                phi.right, env, flits, fc, nc
            )
        if isinstance(phi, Cond):
            raise NonFragment("conditional reached the monadic engine")
        if isinstance(phi, Forall):
            x, body = phi.var, phi.body
            old = env.get(x)
            try:
                for b in range(len(flits)):
                    env[x] = b
                    if not self.run(body, env, flits, fc, nc):
                        return False
                for sector, spec, other in ((True, fc, nc), (False, nc, fc)):
                    kind, budget = spec
                    if budget < 1:
                        if kind == "atleast" and budget == 0:
                            # unreachable when the budget starts at the rank
                            raise AssertionError("count budget below rank")
                        continue
                    env[x] = len(flits)
                    new_spec = (kind, budget - 1)
                    new_fc, new_nc = (new_spec, other) if sector else (other, new_spec)
                    if not self.run(body, env, flits + (sector,), new_fc, new_nc):
                        return False
                return True
            finally:
                if old is None:
                    env.pop(x, None)
                else:
                    env[x] = old
        raise KModelError(f"not a formula: {phi!r}")


_NF_CACHE: dict = {}
_TYPE_EVALUATOR = _TypeEvaluator()


def monadic_nf(phi: Formula, named: Sequence[Variable]) -> CountingNormalForm:
    """Counting normal form of a conditional-free monadic formula.

    Enumerates the complete counting types over the named variables (count
    thresholds bounded by the quantifier rank) and keeps those on which the
    formula holds; the result is equivalent to the input over every
    structure interpreting one unary predicate, with equality.
    """
    named = tuple(named)
    key = (phi, named)
    got = _NF_CACHE.get(key)
    if got is not None:
        return got
    for s in subformulas(phi):
        if isinstance(s, Cond):
            raise NonFragment("input must be conditional-free")
        if isinstance(s, Atom) and s.pred != F:
            raise NonFragment(f"predicate {s.pred} is not in the fragment")
        if isinstance(s, EPred):
            raise NonFragment("existence predicate is not in the fragment")
    missing = free_variables(phi) - set(named)
    if missing:
        raise KModelError(f"named variables must cover free variables: {missing}")
    eq_matters = any(isinstance(s, Eq) for s in subformulas(phi))
    threshold = quantifier_rank(phi)
    classes = _count_classes(threshold)
    types = []
    for blocks in _partitions(len(named)):
        n_blocks = max(blocks) + 1 if blocks else 0
        for flit_bits in itertools.product((False, True), repeat=n_blocks):
            for fc in classes:
                for nc in classes:
                    env = {v: blocks[i] for i, v in enumerate(named)}
                    if _TYPE_EVALUATOR.run(phi, env, flit_bits, fc, nc):
                        types.append((blocks, flit_bits, fc, nc))
    nf = CountingNormalForm(
        named,
        threshold,
        eq_matters,
        frozenset(types),
        _present(named, threshold, eq_matters, types),
    )
    if len(_NF_CACHE) > 200_000:
        _NF_CACHE.clear()
    _NF_CACHE[key] = nf
    return nf


def _present(named, threshold, eq_matters, types) -> tuple[CountingType, ...]:
    """Merge complete types into ranged presentation types."""
    classes = _count_classes(threshold)
    index = {c: i for i, c in enumerate(classes)}
    grouped: dict = {}
    cells_by_profile: dict = {}
    for blocks, flits, fc, nc in types:
        profile = (blocks, flits)
        key = profile if eq_matters else tuple(flits[b] for b in blocks)
        grouped.setdefault(key, profile)
        cells_by_profile.setdefault(key, set()).add((index[fc], index[nc]))
    out = []
    for key in sorted(cells_by_profile, key=repr):
        blocks, flits = grouped[key]
        cells = cells_by_profile[key]
        literals = tuple((v, flits[blocks[i]]) for i, v in enumerate(named))
        eq_blocks = blocks if eq_matters else None
        for (f0, f1), (n0, n1) in _rectangles(cells, len(classes)):
            out.append(
                CountingType(
                    literals,
                    eq_blocks,
                    _range_of(f0, f1, classes),
                    _range_of(n0, n1, classes),
                )
            )
    return tuple(out)


def _range_of(lo_idx, hi_idx, classes) -> tuple[int, Optional[int]]:
    lo = classes[lo_idx][1]
    hi_class = classes[hi_idx]
    return (lo, None if hi_class[0] == "atleast" else hi_class[1])


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


def _quantifier_fragment(phi: Formula, empty_predicates: bool) -> Formula:
    """Material reduct with E replaced by top and, under the flag, other
    predicates replaced by bottom (their interpretation in K is empty)."""
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
    if others or has_e:
        return replace_other_atoms(reduct, keep=(F,))
    return reduct


def _realized_type(values_list, k: int, threshold: int):
    labels: dict[int, int] = {}
    blocks = []
    for val in values_list:
        if val not in labels:
            labels[val] = len(labels)
        blocks.append(labels[val])
    flits = tuple(val <= k for val in labels)
    fc: CountClass = ("atleast", threshold)
    distinct_above = sum(1 for val in labels if val > k)
    neg = (-k - 1) - distinct_above
    nc: CountClass = ("exact", neg) if neg < threshold else ("atleast", threshold)
    return tuple(blocks), flits, fc, nc


_DENOTE_CACHE: dict = {}


def denote_k(
    phi: Formula, g: Mapping[Variable, int], empty_predicates: bool = False
) -> KSet:
    """The exact set {w : K,w,g satisfies phi}, in canonical form."""
    fv = sorted(free_variables(phi), key=lambda v: v.index)
    items = tuple((v, g[v]) for v in fv)
    _check_assignment(dict(items))
    return _denote(phi, dict(items), empty_predicates)


def _denote(phi: Formula, g: dict, empty_predicates: bool) -> KSet:
    fv = sorted(free_variables(phi), key=lambda v: v.index)
    key = (phi, tuple((v, g[v]) for v in fv), empty_predicates)
    got = _DENOTE_CACHE.get(key)
    if got is not None:
        return got
    out: KSet
    if isinstance(phi, Atom):
        if phi.pred == F:
            out = KSet.make(False, None, [(g[phi.args[0]], -1)])
        elif empty_predicates:
            out = K_EMPTY
        else:
            raise NonFragment(
                f"predicate {phi.pred} is empty in K; pass empty_predicates=True"
            )
    elif isinstance(phi, Eq):
        out = K_FULL if g[phi.left] == g[phi.right] else K_EMPTY
    elif isinstance(phi, EPred):
        out = K_FULL  # the domain is globally Z^-
    elif isinstance(phi, Not):
        out = _denote(phi.body, g, empty_predicates).complement()
    elif isinstance(phi, Imp):
        a = _denote(phi.left, _restrict(g, phi.left), empty_predicates)
        b = _denote(phi.right, _restrict(g, phi.right), empty_predicates)
        out = a.complement().union(b)
    elif isinstance(phi, Cond):
        a = _denote(phi.left, _restrict(g, phi.left), empty_predicates)
        b = _denote(phi.right, _restrict(g, phi.right), empty_predicates)
        # integer worlds see only themselves, so > is material there
        material = a.complement().union(b)
        out = KSet.make(cond_at_origin(a, b), material.ray, material.intervals)
    elif isinstance(phi, Forall):
        nf = monadic_nf(
            _quantifier_fragment(phi, empty_predicates), tuple(fv)
        )
        t = nf.threshold
        values = [g[v] for v in fv]
        distinct = len(set(values))
        low = min(values) - 1 if values else -1
        scan_from = min(low, -(t + distinct + 1))
        members = [
            k
            for k in range(scan_from, 0)
            if nf.satisfied(*_realized_type(values, k, t))
        ]
        ray = scan_from if scan_from in members else None
        intervals = _group(m for m in members if ray is None or m > ray)
        out = KSet.make(
            _forall_minus_inf(phi, g, empty_predicates), ray, intervals
        )
    else:
        raise KModelError(f"not a formula: {phi!r}")
    if len(_DENOTE_CACHE) > 1_000_000:
        _DENOTE_CACHE.clear()
    _DENOTE_CACHE[key] = out
    return out


def _restrict(g: dict, phi: Formula) -> dict:
    return {v: g[v] for v in free_variables(phi)}


def _group(points: Iterable[int]) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for p in sorted(points):
        if out and p == out[-1][1] + 1:
            out[-1][1] = p
        else:
            out.append([p, p])
    return [tuple(iv) for iv in out]


def eval_k(
    phi: Formula,
    w,
    g: Mapping[Variable, int],
    empty_predicates: bool = False,
) -> bool:
    """Truth of phi at a world of K under the assignment."""
    _check_world(w)
    fv = free_variables(phi)
    missing = fv - set(g)
    if missing:
        raise KModelError(f"assignment misses {sorted(v.index for v in missing)}")
    sub = {v: g[v] for v in fv}
    _check_assignment(sub)
    if w == MINUS_INF:
        return _eval_minus_inf(phi, sub, empty_predicates)
    return _denote(phi, sub, empty_predicates).contains(w)


def _eval_minus_inf(phi: Formula, g: dict, empty_predicates: bool) -> bool:
    if isinstance(phi, Atom):
        if phi.pred != F and not empty_predicates:
            raise NonFragment(
                f"predicate {phi.pred} is empty in K; pass empty_predicates=True"
            )
        return False  # every predicate, F included, is empty at -inf
    if isinstance(phi, Eq):
        return g[phi.left] == g[phi.right]
    if isinstance(phi, EPred):
        return True
    if isinstance(phi, Not):
        return not _eval_minus_inf(phi.body, g, empty_predicates)
    if isinstance(phi, Imp):
        return not _eval_minus_inf(phi.left, g, empty_predicates) or _eval_minus_inf(
            phi.right, g, empty_predicates
        )
    if isinstance(phi, Cond):
        return cond_at_origin(
            _denote(phi.left, _restrict(g, phi.left), empty_predicates),
            _denote(phi.right, _restrict(g, phi.right), empty_predicates),
        )
    if isinstance(phi, Forall):
        return _forall_minus_inf(phi, g, empty_predicates)
    raise KModelError(f"not a formula: {phi!r}")


def _forall_minus_inf(phi: Forall, g: dict, empty_predicates: bool) -> bool:
    """Quantifier at -inf over the infinite domain.

    The world -inf is itself a monadic structure (F empty, domain Z^-), so
    a conditional-free body is decided exactly by the counting-type engine.
    With conditionals below, witness candidates cluster around the named
    values and around -1 within a distance bounded by the formula size; far
    below everything the truth value must be constant, which the deep block
    asserts.
    """
    if not any(isinstance(s, Cond) for s in subformulas(phi)):
        fv = tuple(sorted(free_variables(phi), key=lambda v: v.index))
        nf = monadic_nf(_quantifier_fragment(phi, empty_predicates), fv)
        t = nf.threshold
        values = [g[v] for v in fv]
        labels: dict[int, int] = {}
        blocks = []
        for val in values:
            if val not in labels:
                labels[val] = len(labels)
            blocks.append(labels[val])
        flits = tuple(False for _ in labels)  # F is empty at -inf
        fc: CountClass = ("exact", 0) if t >= 1 else ("atleast", 0)
        nc: CountClass = ("atleast", t)
        return nf.satisfied(tuple(blocks), flits, fc, nc)

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

    x, body = phi.var, phi.body
    body_fv = free_variables(body)

    def at(a: int) -> bool:
        sub = {v: g[v] for v in body_fv if v != x}
        if x in body_fv:
            sub[x] = a
        return _eval_minus_inf(body, sub, empty_predicates)

    deep_values = [at(a) for a in deep]
    if len(set(deep_values)) != 1:
        raise StabilizationError(
            f"deep test block not constant below {deep_top} for {phi}"
        )
    if not deep_values[0]:
        return False
    return all(at(a) for a in sorted(candidates, reverse=True))


def clear_caches() -> None:
    _NF_CACHE.clear()
    _DENOTE_CACHE.clear()
    _TRUNCATION_CACHE.clear()
    _TYPE_EVALUATOR.clear()


# ---------------------------------------------------------------------------
# Finite truncations of K: the cross-validation oracle.

_TRUNCATION_CACHE: dict[int, Model] = {}


def truncate(n: int) -> Model:
    """The ordering model on worlds {-n..-1, -inf} with domain {-n..-1}.

    World index i is the world -(i+1) for i < n; index n is -inf.  A finite
    restriction like this satisfies the strong limit assumption, which K
    itself does not; agreement on a stabilization window is what makes it
    usable as an oracle rather than a replacement.
    """
    if n < 1:
        raise KModelError("truncation needs n >= 1")
    got = _TRUNCATION_CACHE.get(n)
    if got is not None:
        return got
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
    model = Model(frame, interp)
    _TRUNCATION_CACHE[n] = model
    return model


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


def fragment_pool(
    max_size: int, max_vars: int, with_identity: bool = False
) -> list[Formula]:
    """Every core-node formula over F-atoms (plus ordered identity atoms)
    up to the size bound, over variables x0..x(max_vars-1)."""
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
    return [phi for s in range(1, max_size + 1) for phi in by_size[s]]


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
    """Check (phi > psi) | (phi > ~psi) at -inf and at worlds down to
    -(max_size+2) for every pair from the fragment pool.

    Truth of a conditional at -inf is a function of the two denotations
    alone, so the pair check runs over distinct denotations; a random
    sample of pairs additionally goes through the unfactored evaluator as a
    guard on the factorization.
    """
    import random

    pool = fragment_pool(max_size, max_vars, with_identity)
    g = canonical_assignment(max_vars)
    report = SweepReport(pool_size=len(pool))
    denotations = _pool_denotations(pool, g, jobs)

    groups: dict[KSet, Formula] = {}
    for phi, den in zip(pool, denotations):
        groups.setdefault(den, phi)
    report.distinct_denotations = len(groups)

    worlds = list(range(-(max_size + 2), 0))
    for a_set, a_rep in groups.items():
        for b_set, b_rep in groups.items():
            report.pairs_checked += 1
            if not (
                cond_at_origin(a_set, b_set)
                or cond_at_origin(a_set, b_set.complement())
            ):
                report.counterexamples.append((a_rep, b_rep, MINUS_INF))
            for k in worlds:
                report.points_checked += 1
                ak, bk = a_set.contains(k), b_set.contains(k)
                if not ((not ak or bk) or (not ak or not bk)):
                    report.counterexamples.append((a_rep, b_rep, k))

    rng = random.Random(seed)
    for _ in range(direct_samples):
        phi, psi = rng.choice(pool), rng.choice(pool)
        cem = Imp(Not(Cond(phi, psi)), Cond(phi, Not(psi)))
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

    chunks = [(pool[i::jobs], dict(g)) for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        results = list(executor.map(_denote_chunk, chunks))
    out: list[Optional[KSet]] = [None] * len(pool)
    for lane, chunk_result in enumerate(results):
        for j, den in enumerate(chunk_result):
            out[lane + j * jobs] = den
    if any(d is None for d in out):
        raise KModelError("a worker returned fewer denotations than its chunk")
    return out  # type: ignore[return-value]


def _denote_chunk(args) -> list[KSet]:
    chunk, g = args
    return [denote_k(phi, g) for phi in chunk]


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
    For the quantifier-free schemas (identity, detachment, order transfer)
    truth at every world is a function of the component denotations alone,
    so those sweeps run over distinct denotations, with random unfactored
    replays as a guard.  The quantified schemas (universal instantiation
    and quantifier distribution) are instantiated at every pool formula of
    the right shape.
    """
    import random

    pool = fragment_pool(max_size, max_vars, with_identity)
    g = canonical_assignment(max_vars)
    report = SweepReport(pool_size=len(pool))
    variables = [Variable(i) for i in range(max_vars)]
    denotations = _pool_denotations(pool, g, jobs)
    groups: dict[KSet, Formula] = {}
    for phi, den in zip(pool, denotations):
        groups.setdefault(den, phi)
    report.distinct_denotations = len(groups)

    def holds_everywhere(a: KSet, b: KSet) -> bool:
        # a > b throughout K: material on the integers, Lewis at -inf
        material = a.complement().union(b)
        return cond_at_origin(a, b) and material.ray == -1 and not material.intervals

    def imp_everywhere(a: KSet, b: KSet) -> bool:
        return a.complement().union(b) == K_FULL

    # identity of the conditional: phi > phi
    for a_set, a_rep in groups.items():
        report.pairs_checked += 1
        report.points_checked += 1
        if not holds_everywhere(a_set, a_set):
            report.counterexamples.append(("identity", a_rep))

    # detachment: (a > b) -> (a -> b), a function of the two denotations
    for a_set, a_rep in groups.items():
        for b_set, b_rep in groups.items():
            report.pairs_checked += 1
            report.points_checked += 1
            cond_den = _cond_denotation(a_set, b_set)
            if not imp_everywhere(
                cond_den, a_set.complement().union(b_set)
            ):
                report.counterexamples.append(
                    ("conditional detachment", a_rep, b_rep)
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
                report.pairs_checked += 1
                report.points_checked += 1
                lhs = both.intersect(_cond_denotation(a_set, c_set))
                if not imp_everywhere(lhs, _cond_denotation(b_set, c_set)):
                    report.counterexamples.append(
                        ("order transfer", a_rep, b_rep, c_rep)
                    )

    # universal instantiation at every quantified pool formula
    for phi in pool:
        if not isinstance(phi, Forall):
            continue
        for y in variables:
            report.pairs_checked += 1
            report.points_checked += 1
            inst = Imp(phi, substitute(phi.body, [(phi.var, y)]))
            if denote_k(inst, g) != K_FULL:
                report.counterexamples.append(("universal instantiation", inst))

    # quantifier distribution at every pool formula of the right shape
    for phi in pool:
        if not (isinstance(phi, Forall) and isinstance(phi.body, Cond)):
            continue
        if phi.var in free_variables(phi.body.left):
            continue
        report.pairs_checked += 1
        report.points_checked += 1
        inst = Imp(phi, Cond(phi.body.left, Forall(phi.var, phi.body.right)))
        if denote_k(inst, g) != K_FULL:
            report.counterexamples.append(("quantifier distribution", inst))

    # unfactored replays of the denotation-level sweeps
    rng = random.Random(seed)
    for _ in range(rule_samples):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        report.direct_samples += 1
        for name, inst in (
            ("identity", Cond(a, a)),
            ("conditional detachment", Imp(Cond(a, b), Imp(a, b))),
            (
                "order transfer",
                Imp(And(Cond(a, b), And(Cond(b, a), Cond(a, c))), Cond(b, c)),
            ),
        ):
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
    """Denotation of a conditional from its component denotations."""
    material = a.complement().union(b)
    return KSet.make(cond_at_origin(a, b), material.ray, material.intervals)


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
