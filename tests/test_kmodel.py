import itertools
import pickle
import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from condlog.frameprops import _SELECTION, check_ordering_props
from condlog.kmodel import (
    K_FULL,
    K_INTEGERS,
    MINUS_INF,
    KModelError,
    KSet,
    NonFragment,
    _count_classes,
    _profiles,
    canonical_assignment,
    cem_sweep,
    cond_at_origin,
    denote_k,
    eval_k,
    eval_truncated,
    fragment_pool,
    induced_selection_probe,
    monadic_nf,
    qc2_axiom_sweep,
    truncate,
)
from condlog.semantics import Model, SelectionFrame, _bits, evaluate
from condlog.syntax import (
    And,
    Atom,
    Cond,
    Eq,
    Exists,
    F,
    Forall,
    Imp,
    Not,
    Or,
    Predicate,
    Top,
    Variable,
    build_ds,
    conj,
    counting_exists,
    disj,
    free_variables,
    material_reduct,
    subformulas,
)

x, y = Variable(0), Variable(1)
fx, fy = Atom(F, (x,)), Atom(F, (y,))


# ---------------------------------------------------------------------------
# Canonical set algebra.


def test_kset_canonicalization():
    s = KSet.make(False, -5, [(-7, -6), (-3, -3), (-2, -2)])
    # [-7,-6] touches the ray and [-3,-2] merges
    assert s.ray == -5
    assert s.intervals == ((-3, -2),)


def test_kset_make_merges_overlaps():
    s = KSet.make(False, None, [(-4, -2), (-3, -1), (-9, -8)])
    assert s.intervals == ((-9, -8), (-4, -1))


def test_kset_complement_involution():
    s = KSet.make(True, -8, [(-5, -4), (-2, -2)])
    assert s.complement().complement() == s
    u = s.union(s.complement())
    assert u == K_FULL


def test_kset_algebra_examples():
    a = KSet.make(False, -5, [(-2, -2)])
    b = KSet.make(False, -7, ())
    diff = a.intersect(b.complement())
    assert diff == KSet.make(False, None, [(-6, -5), (-2, -2)])
    assert not diff.has_ray


intervals_strategy = st.lists(
    st.tuples(st.integers(-30, -1), st.integers(-30, -1)).map(
        lambda ab: (min(ab), max(ab))
    ),
    max_size=4,
)
ksets = st.builds(
    KSet.make,
    st.booleans(),
    st.one_of(st.none(), st.integers(-30, -1)),
    intervals_strategy,
)


@given(ksets, ksets)
def test_kset_union_intersect_membership(a, b):
    for w in [MINUS_INF] + list(range(-35, 0)):
        assert a.union(b).contains(w) == (a.contains(w) or b.contains(w))
        assert a.intersect(b).contains(w) == (a.contains(w) and b.contains(w))
        assert a.complement().contains(w) == (not a.contains(w))


@given(ksets)
def test_kset_canonical_is_unique(a):
    rebuilt = KSet.make(a.minus_inf, a.ray, a.intervals)
    assert rebuilt == a


def test_kset_make_rejects_endpoints_above_minus_one():
    with pytest.raises(KModelError, match="ray endpoint 0"):
        KSet.make(False, 0)
    for intervals in ([(-3, 0)], [(0, 0)], [(-9, -8), (-2, 0)]):
        with pytest.raises(KModelError, match="bad interval"):
            KSet.make(False, None, intervals)
    # an interval with lo > hi is empty and skipped, whatever its ends
    assert KSet.make(False, None, [(0, -1)]) == KSet.make()


def test_kset_pickle_round_trip():
    import pickle

    for s in (
        K_FULL,
        K_INTEGERS,
        KSet.make(),
        KSet.make(True, -8, [(-5, -4), (-2, -2)]),
        KSet.make(False, None, [(-100_000, -99_000), (-3, -1)]),
    ):
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s)
        assert (back.ray, back.intervals) == (s.ray, s.intervals)


@dataclass(frozen=True)
class _RefSet:
    """The canonical set as segment lists: {k <= ray} union intervals plus
    -inf, every operation re-normalised through ``make``.  Kept as the
    reference for the int encoding of KSet."""

    minus_inf: bool = False
    ray: Optional[int] = None
    intervals: tuple = ()

    @staticmethod
    def make(minus_inf=False, ray=None, intervals=()):
        merged = []
        for lo, hi in sorted(intervals):
            if lo > hi:
                continue
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out_ray = ray
        rest = []
        for lo, hi in merged:
            if out_ray is not None and lo <= out_ray + 1:
                out_ray = max(out_ray, hi)
            else:
                rest.append((lo, hi))
        return _RefSet(minus_inf, out_ray, tuple(rest))

    def contains(self, w):
        if w == MINUS_INF:
            return self.minus_inf
        if self.ray is not None and w <= self.ray:
            return True
        return any(lo <= w <= hi for lo, hi in self.intervals)

    def least_integer(self):
        if self.ray is not None or not self.intervals:
            return None
        return self.intervals[0][0]

    def _segments(self):
        return ([(None, self.ray)] if self.ray is not None else []) + list(
            self.intervals
        )

    @staticmethod
    def _from_segments(minus_inf, segs):
        ray, intervals = None, []
        for lo, hi in segs:
            if lo is None:
                ray = hi if ray is None else max(ray, hi)
            else:
                intervals.append((lo, hi))
        return _RefSet.make(minus_inf, ray, intervals)

    def union(self, other):
        return _RefSet._from_segments(
            self.minus_inf or other.minus_inf, self._segments() + other._segments()
        )

    def intersect(self, other):
        segs = []
        for alo, ahi in self._segments():
            for blo, bhi in other._segments():
                lo = blo if alo is None else (alo if blo is None else max(alo, blo))
                hi = min(ahi, bhi)
                if lo is None or lo <= hi:
                    segs.append((lo, hi))
        return _RefSet._from_segments(self.minus_inf and other.minus_inf, segs)

    def complement(self):
        segs, cursor = [], None
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
        return _RefSet._from_segments(not self.minus_inf, segs)

    def cond_at_origin(self, b):
        if self.minus_inf:
            return b.minus_inf
        if self.ray is None and not self.intervals:
            return True
        least = self.least_integer()
        if least is not None:
            return b.contains(least)
        return self.intersect(b.complement()).ray is None

    def cond_denotation(self, b):
        material = self.complement().union(b)
        return _RefSet.make(self.cond_at_origin(b), material.ray, material.intervals)

    def __str__(self):
        parts = ["-inf"] if self.minus_inf else []
        if self.ray is not None:
            parts.append(f"(..,{self.ray}]")
        parts.extend(f"[{lo},{hi}]" for lo, hi in self.intervals)
        return "{" + " ".join(parts) + "}" if parts else "{}"


# Endpoints down to -200, plus some near -100,000.
_endpoints = st.one_of(st.integers(-200, -1), st.integers(-100_010, -99_990))
_endpoint_data = st.tuples(
    st.booleans(),
    st.one_of(st.none(), _endpoints),
    st.lists(st.tuples(_endpoints, _endpoints), max_size=5),
)


def _agree(k, ref):
    """k and ref are the same set, read through every accessor."""
    assert (k.minus_inf, k.ray, k.intervals) == (ref.minus_inf, ref.ray, ref.intervals)
    assert k.has_ray == (ref.ray is not None)
    integer_empty = k.bits >> 1 == 0
    assert integer_empty == (ref.ray is None and not ref.intervals)
    assert k.is_empty == (integer_empty and not ref.minus_inf)
    # bit -w holds world w, so a nonnegative int's top bit is its least world
    least = 1 - k.bits.bit_length() if k.bits >= 2 else None
    assert least == ref.least_integer()
    assert str(k) == str(ref)
    assert k.to_json() == {
        "minusInf": ref.minus_inf,
        "ray": ref.ray,
        "intervals": [list(iv) for iv in ref.intervals],
    }
    worlds = {MINUS_INF, -1, -2}
    for lo, hi in ref._segments():
        for end in (hi,) if lo is None else (lo, hi):
            worlds.update(w for w in (end - 1, end, end + 1) if w <= -1)
    for w in worlds:
        assert k.contains(w) == ref.contains(w), w


@settings(max_examples=300, deadline=None)
@given(_endpoint_data, _endpoint_data)
def test_kset_agrees_with_the_segment_reference(da, db):
    from condlog.kmodel import _cond_denotation

    a, b = KSet.make(*da), KSet.make(*db)
    ra, rb = _RefSet.make(*da), _RefSet.make(*db)
    _agree(a, ra)
    _agree(b, rb)
    _agree(a.complement(), ra.complement())
    _agree(a.union(b), ra.union(rb))
    _agree(a.intersect(b), ra.intersect(rb))
    _agree(a.intersect(b.complement()), ra.intersect(rb.complement()))
    assert cond_at_origin(a, b) == ra.cond_at_origin(rb)
    _agree(_cond_denotation(a, b), ra.cond_denotation(rb))
    assert (a == b) == (ra == rb)


# ---------------------------------------------------------------------------
# cond_at_origin case analysis.


def test_cond_at_origin_cases():
    ray_all = K_INTEGERS
    empty = KSet.make()
    assert cond_at_origin(ray_all, empty) is False  # so dia exists-F holds
    one = KSet.make(False, None, [(-1, -1)])
    assert cond_at_origin(one, one) is True
    a = KSet.make(False, -5, [(-2, -2)])
    b = KSet.make(False, -7, ())
    # a minus b = [-6,-5] u [-2,-2] has no ray, so deep a-worlds are b-worlds
    assert cond_at_origin(a, b) is True
    assert cond_at_origin(KSet.make(True), KSet.make(False)) is False
    assert cond_at_origin(KSet.make(True), KSet.make(True)) is True
    assert cond_at_origin(empty, empty) is True


def test_cond_at_origin_matches_lewis_clause_on_truncation():
    """Enumerate the Lewis clause over the integer window [-30,-1] plus
    -inf and compare against the case analysis, for set shapes that are
    fully visible within the window."""
    shapes = [
        KSet.make(False, None, [(-3, -1)]),
        KSet.make(False, None, [(-9, -7), (-4, -2)]),
        KSet.make(False, -12, [(-6, -5), (-2, -2)]),
        KSet.make(False, -20, ()),
        KSet.make(True, -15, [(-3, -3)]),
        KSet.make(True, None, ()),
        KSet.make(),
    ]
    window = [MINUS_INF] + list(range(-30, 0))

    def lewis(a, b):
        live = [w for w in window if a.contains(w)]
        if not live:
            return True
        for cand in live:
            if all(b.contains(w) for w in live if w <= cand):
                return True
        return False

    for a in shapes:
        for b in shapes:
            if a.has_ray and a.ray < -25 or b.has_ray and b.ray < -25:
                continue  # truncated window would misread a deep ray
            assert cond_at_origin(a, b) == lewis(a, b), (str(a), str(b))


# ---------------------------------------------------------------------------
# Counting normal forms.
#
# Oracles that read a normal form back: its types decoded from the mask,
# merged into ranged presentation types, and rebuilt into a formula.


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


def nf_types(nf) -> frozenset:
    """The types of a normal form as (blocks, flits, fc, nc) tuples."""
    classes = _count_classes(nf.threshold)
    w = len(classes)
    profiles = _profiles(len(nf.named))[0]
    return frozenset(
        profiles[i // (w * w)] + (classes[i // w % w], classes[i % w])
        for i in _bits(nf.mask)
    )


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


def presented(nf) -> tuple[CountingType, ...]:
    """The types of a normal form merged into ranged presentation types."""
    r = nf.threshold
    eq_matters = any(isinstance(s, Eq) for s in subformulas(nf.formula))
    grouped: dict = {}
    cells_by_profile: dict = {}
    for blocks, flits, fc, nc in nf_types(nf):
        profile = (blocks, flits)
        key = profile if eq_matters else tuple(flits[b] for b in blocks)
        grouped.setdefault(key, profile)
        cells_by_profile.setdefault(key, set()).add((fc[1], nc[1]))
    out = []
    for key in sorted(cells_by_profile, key=repr):
        blocks, flits = grouped[key]
        literals = tuple((v, flits[blocks[i]]) for i, v in enumerate(nf.named))
        eq_blocks = blocks if eq_matters else None
        for (f0, f1), (n0, n1) in _rectangles(cells_by_profile[key], r + 1):
            f_range = (f0, None if f1 == r else f1)
            n_range = (n0, None if n1 == r else n1)
            out.append(CountingType(literals, eq_blocks, f_range, n_range))
    return tuple(out)


def rebuild_formula(nf):
    """A formula (in the identity language) equivalent to the normal form.

    Each presented type becomes literals, the (in)equality pattern, and
    threshold-counting conjuncts over fresh variables excluded from the
    named ones; the disjunction of the types rebuilds the input up to
    equivalence over every one-predicate structure.
    """
    used = {v.index for v in nf.named}
    fresh_start = (max(used) + 1) if used else 0

    def count_at_least(j: int, positive: bool):
        if j == 0:
            return Top()
        zs = [Variable(fresh_start + i) for i in range(j)]
        parts = []
        for z in zs:
            atom = Atom(F, (z,))
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

    disjuncts = []
    for t in presented(nf):
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


def test_monadic_nf_exists():
    nf = monadic_nf(Exists(x, fx), [])
    assert len(presented(nf)) == 1
    t = presented(nf)[0]
    assert t.literals == ()
    assert t.f_range == (1, None)
    assert t.neg_range == (0, None)


def test_monadic_nf_literals():
    x1, x2, y1 = Variable(0), Variable(1), Variable(2)
    phi = And(Atom(F, (x1,)), And(Atom(F, (x2,)), Not(Atom(F, (y1,)))))
    nf = monadic_nf(phi, [x1, x2, y1])
    assert len(presented(nf)) == 1
    t = presented(nf)[0]
    assert dict(t.literals) == {x1: True, x2: True, y1: False}
    assert t.eq_blocks is None  # no identity in the formula


def test_monadic_nf_counting_quantifier():
    phi = counting_exists(2, x, lambda v: Not(Atom(F, (v,))))
    nf = monadic_nf(phi, [])
    assert len(presented(nf)) == 1
    t = presented(nf)[0]
    assert t.neg_range == (2, 2)
    assert t.f_range == (0, None)


def test_monadic_nf_rejects_conditional_and_foreign_predicates():
    with pytest.raises(NonFragment):
        monadic_nf(Cond(fx, fx), [x])
    with pytest.raises(NonFragment):
        monadic_nf(Atom(Predicate(1, 1), (x,)), [x])


def _random_monadic(rng, depth, rank):
    """A conditional-free formula over F and = in x0..x3 of quantifier rank
    at most ``rank``; quantifiers may rebind a variable or bind a variable
    that the body does not use."""
    variables = [Variable(i) for i in range(4)]
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Atom(F, (rng.choice(variables),))
        return Eq(rng.choice(variables), rng.choice(variables))
    kind = rng.choice(("not", "imp", "forall", "forall") if rank else ("not", "imp"))
    if kind == "not":
        return Not(_random_monadic(rng, depth - 1, rank))
    if kind == "imp":
        return Imp(
            _random_monadic(rng, depth - 1, rank), _random_monadic(rng, depth - 1, rank)
        )
    return Forall(rng.choice(variables), _random_monadic(rng, depth - 1, rank - 1))


def _complete_types(n, r):
    """Every (blocks, flits, fc, nc) over n named positions, counts capped
    at r, with the element counts that realise each: "at least r" is
    realised by r and by r + 1 elements."""
    classes = [(("exact", j), (j,)) for j in range(r)] + [(("atleast", r), (r, r + 1))]
    for blocks in itertools.product(range(n), repeat=n):
        if any(blocks[i] > max(blocks[:i], default=-1) + 1 for i in range(n)):
            continue  # not a canonical labelling
        for flits in itertools.product((False, True), repeat=len(set(blocks))):
            for (fc, f_counts), (nc, n_counts) in itertools.product(classes, repeat=2):
                for f_count, n_count in itertools.product(f_counts, n_counts):
                    yield blocks, flits, fc, nc, f_count, n_count


def test_monadic_nf_agrees_with_one_world_models():
    """Each complete type realised as a one-world finite model: the normal
    form holds on the type iff the formula is true there.  The named
    variables are the free ones plus random others, in random order; the
    empty structure is skipped."""
    rng = random.Random(7)
    frames = {}
    points = 0
    for _ in range(60):
        phi = _random_monadic(rng, 5, 3)
        extra = [v for v in map(Variable, range(4)) if v not in free_variables(phi)]
        named = sorted(free_variables(phi), key=lambda v: v.index)
        named += rng.sample(extra, rng.randint(0, len(extra)))
        rng.shuffle(named)
        nf = monadic_nf(phi, named)
        for blocks, flits, fc, nc, f_count, n_count in _complete_types(
            len(named), nf.threshold
        ):
            nb = len(flits)
            n_domain = nb + f_count + n_count
            if n_domain == 0:
                continue
            frame = frames.setdefault(
                n_domain, SelectionFrame.build(1, (1,), {}, "empty", n_domain)
            )
            f_true = [b for b in range(nb) if flits[b]] + list(range(nb, nb + f_count))
            model = Model(frame, {F: {0: frozenset((a,) for a in f_true)}})
            g = {v: blocks[i] for i, v in enumerate(named)}
            want = evaluate(model, 0, g, phi)
            assert nf.satisfied(blocks, flits, fc, nc) == want, (phi, named, blocks)
            points += 1
    assert points == 36_610


@pytest.mark.parametrize("n", range(8))
def test_profiles_are_the_filtered_block_labellings(n):
    """The restricted growth strings, generated directly, in the order of
    filtering every labelling of n positions by n blocks."""
    filtered = tuple(
        (blocks, flits)
        for blocks in itertools.product(range(n), repeat=n)
        if all(b <= max(blocks[:i], default=-1) + 1 for i, b in enumerate(blocks))
        for flits in itertools.product((False, True), repeat=len(set(blocks)))
    )
    profiles, index = _profiles(n)
    assert profiles == filtered
    assert index == {p: k for k, p in enumerate(filtered)}


# ---------------------------------------------------------------------------
# Denotation in K.


def test_denote_exists_f_is_all_integers():
    assert denote_k(Exists(x, fx), {}) == K_INTEGERS


def test_denote_atom():
    assert denote_k(fx, {x: -3}) == KSet.make(False, None, [(-3, -1)])


def test_denote_forall_f_is_singleton():
    # only world -1 has every domain element in F; cross-checked against
    # the truncation oracle below
    got = denote_k(Forall(x, fx), {})
    assert got == KSet.make(False, None, [(-1, -1)])
    for n in (6, 7, 8):
        for w in range(-n, 0):
            assert eval_truncated(n, Forall(x, fx), w, {}) == got.contains(w)


def test_denote_monotone_in_assignment():
    for gx in range(-6, 0):
        for gy in range(-6, 0):
            if gx >= gy:
                a = denote_k(fx, {x: gx})
                b = denote_k(fy, {y: gy})
                assert a.intersect(b.complement()).is_empty


def test_eval_k_atoms():
    assert eval_k(fx, -2, {x: -3})
    assert not eval_k(fx, -3, {x: -2})
    assert not eval_k(fx, MINUS_INF, {x: -1})


def test_eval_k_rejects_bad_input():
    with pytest.raises(KModelError):
        eval_k(fx, 0, {x: -1})
    with pytest.raises(KModelError):
        eval_k(fx, -1, {x: 1})
    with pytest.raises(KModelError):
        eval_k(fx, -1, {})
    with pytest.raises(NonFragment):
        eval_k(Atom(Predicate(1, 1), (x,)), -1, {x: -1})
    # with the flag, foreign predicates read as empty
    assert not eval_k(Atom(Predicate(1, 1), (x,)), -1, {x: -1}, empty_predicates=True)


def test_assignment_values_below_the_ceiling_are_refused():
    """A value -n puts an n-bit int in the denotation of an atom at it, so
    values below -MAX_ASSIGNMENT are refused before any set is built; the
    ceiling itself is accepted."""
    from condlog.kmodel import MAX_ASSIGNMENT

    # its least world is -MAX_ASSIGNMENT: bit MAX_ASSIGNMENT on top
    bits = denote_k(fx, {x: -MAX_ASSIGNMENT}).bits
    assert bits > 0 and bits.bit_length() == MAX_ASSIGNMENT + 1
    for value in (-MAX_ASSIGNMENT - 1, -(10**20)):
        message = f"assignment value {value} for x is below -MAX_ASSIGNMENT"
        with pytest.raises(KModelError, match=message):
            denote_k(fx, {x: value})
        with pytest.raises(KModelError, match=message):
            eval_k(fx, -1, {x: value})


def test_denote_k_rejects_an_uncovered_variable():
    """A missing free variable is a ``KModelError``, as in ``eval_k``."""
    with pytest.raises(KModelError, match=r"assignment misses \[0\]"):
        denote_k(Cond(fx, fx), {})
    with pytest.raises(KModelError, match=r"assignment misses \[1\]"):
        denote_k(Imp(fx, fy), {x: -1})


@pytest.mark.parametrize(
    "wrap, empty", [(lambda a: a, True), (Not, False)], ids=["atom", "negation"]
)
@pytest.mark.parametrize("flag_first", [True, False])
def test_denotation_memo_is_keyed_by_the_flag(flag_first, wrap, empty):
    """One node denoted under both flag values, in either order: a memo
    entry for one flag never answers for the other."""
    phi = wrap(Atom(Predicate(1, 1), (x,)))
    g = {x: -1}
    if flag_first:
        assert denote_k(phi, g, empty_predicates=True).is_empty is empty
    with pytest.raises(NonFragment):
        denote_k(phi, g)
    assert denote_k(phi, g, empty_predicates=True).is_empty is empty


def test_a_node_is_its_own_reduct_iff_it_holds_no_conditional():
    """The quantifier clause at -inf reads whether its node holds a
    conditional off the material reduct cached on the node."""
    from condlog.syntax import subformulas

    for phi in fragment_pool(4, 2, with_identity=True):
        for sub in subformulas(phi):
            has_cond = any(isinstance(s, Cond) for s in subformulas(sub))
            assert (material_reduct(sub) is not sub) is has_cond


def test_ds_holds_at_minus_inf():
    assert eval_k(build_ds(), MINUS_INF, {})


def test_ds_third_conjunct_witness():
    for k in range(-5, 0):
        phi = Cond(Or(fx, fy), Not(fx))
        assert eval_k(phi, MINUS_INF, {x: k, y: k - 1})


def test_dia_f_everywhere():
    from condlog.syntax import Dia

    phi = Forall(x, Dia(fx))
    assert eval_k(phi, MINUS_INF, {})


def test_claim_4_10_monotone_implication():
    for m in range(-6, 0):
        for n in range(-6, 0):
            if m >= n:
                phi = Imp(fx, fy)
                assert denote_k(phi, {x: m, y: n}) == K_FULL


def test_material_reduct_agrees_at_integer_worlds():
    pool = fragment_pool(5, 2)
    g = canonical_assignment(2)
    for phi in pool[::7]:
        red = material_reduct(phi)
        for k in (-1, -3, -6):
            assert eval_k(phi, k, g) == eval_k(red, k, g), phi


def test_cem_dichotomy_rays_cannot_split():
    pool = fragment_pool(5, 2)
    g = canonical_assignment(2)
    for phi in pool[::5]:
        for psi in pool[::11]:
            a = denote_k(phi, g)
            b = denote_k(psi, g)
            outside = a.intersect(b.complement())
            assert not (outside.has_ray and a.intersect(b).has_ray)


def test_boundary_shapes_for_false_at_origin():
    """A conditional-free formula false at -inf denotes a union of boundary
    singletons, the world -1, and at most one downward ray."""
    pool = [phi for phi in fragment_pool(5, 2) if not any(
        isinstance(s, Cond) for s in _subs(phi)
    )]
    g = canonical_assignment(2)
    for phi in pool[::3]:
        den = denote_k(phi, g)
        if den.minus_inf:
            continue
        # the canonical form is exactly such a union; replay it
        rebuilt = KSet.make(False, den.ray, den.intervals)
        assert rebuilt == den


def _subs(phi):
    from condlog.syntax import subformulas

    return subformulas(phi)


# ---------------------------------------------------------------------------
# Truncations.


def test_truncate_is_lewisian_and_stalnakerian():
    model = truncate(2)
    assert model.frame.n_worlds == 3
    rep = check_ordering_props(model.frame)
    assert rep._holds("lewisian")
    assert rep.verdicts["SLA"]


def test_truncation_oracle_ds():
    """The engine and the truncations agree on the descending-sequence
    formula exactly where agreement is mathematically possible.

    A finite truncation is a Stalnakerian ordering model, hence equivalent
    to a weakly Stalnakerian selection model, and no such model satisfies
    the formula anywhere: its third conjunct needs a witness below every
    element and the truncation has a bottom.  So the truncations stably
    report false at -inf while the infinite model satisfies it; at every
    integer world, and on the first two conjuncts at -inf, the two sides
    agree.
    """
    ds = build_ds()
    assert eval_k(ds, MINUS_INF, {})
    c1 = Exists(x, Top())
    c2 = Forall(x, _dia(fx))
    for n in (20, 21, 22):
        assert not eval_truncated(n, ds, MINUS_INF, {})
        assert eval_truncated(n, c1, MINUS_INF, {})
        assert eval_truncated(n, c2, MINUS_INF, {})
        for k in range(-18, 0):
            assert eval_truncated(n, ds, k, {}) == eval_k(ds, k, {})



def _at_least_non_f(m):
    """N_m: at least m distinct elements lie outside F."""
    zs = [Variable(i) for i in range(1, m + 1)]
    parts = [Not(Atom(F, (z,))) for z in zs]
    parts += [Not(Eq(zs[i], zs[j])) for i in range(m) for j in range(i + 1, m)]
    out = conj(parts)
    for z in reversed(zs):
        out = Exists(z, out)
    return out


@pytest.mark.parametrize("lo", [1, 2, 3])
def test_minus_inf_witness_window_reaches_below_the_anchors(lo):
    """From -inf, F(x) > psi reads psi at world x, and N_m holds at world k
    iff k <= -1 - m.  So the only witness for x is -1 - lo, lo steps below
    the anchor -1: a test set cut to the anchors alone answers False."""
    phi = Exists(
        x, And(Cond(fx, _at_least_non_f(lo)), Not(Cond(fx, _at_least_non_f(lo + 1))))
    )
    assert eval_k(phi, MINUS_INF, {})

def _dia(phi):
    from condlog.syntax import Dia

    return Dia(phi)


def test_witness_descent_divergence_is_inherent():
    """The minimal formula whose -inf truth needs unboundedly deep
    witnesses: true in the infinite model, stably false in truncations."""
    phi = Forall(x, Exists(y, Cond(fy, Not(fx))))
    assert eval_k(phi, MINUS_INF, {})
    for n in (10, 17, 30):
        assert not eval_truncated(n, phi, MINUS_INF, {})


def probe_truncation(n: int) -> bool:
    """True when the truncation shows no such violation (finite minima)."""
    model = truncate(n)
    frame = model.frame
    inf = n
    full_integers = (1 << n) - 1
    f_all = frame.min_set(full_integers, inf)
    f_single = frame.min_set(1 << 0, inf)
    return not _SELECTION["Uniformity"][1](full_integers, 1 << 0, inf, f_all, f_single)


def test_truncation_differs_from_k_on_sla():
    # finite truncations satisfy SLA; the probe documents that K does not
    assert probe_truncation(20)
    probe = induced_selection_probe()
    assert probe.uniformity_violated
    assert probe.min_all_integers.is_empty
    assert probe.min_singleton == KSet.make(False, None, [(-1, -1)])
    # on this pair the weak limit implication fails too; the headline
    # condition reported by the paper is Uniformity
    assert probe.wla_violated


def _oracle_corpus():
    pool = fragment_pool(6, 2)
    return pool[::23]


def test_oracle_agreement_sampled():
    g = canonical_assignment(2)
    for phi in _oracle_corpus():
        n = 2 + _size(phi) + 2
        for w in [MINUS_INF, -1, -2]:
            want = eval_k(phi, w, g)
            for extra in (0, 1, 2):
                assert eval_truncated(n + extra, phi, w, g) == want, (phi, w)


def _size(phi):
    from condlog.syntax import size

    return size(phi)


# ---------------------------------------------------------------------------
# Sweeps (small sizes here; acceptance runs the full ones).


def test_cem_sweep_small():
    report = cem_sweep(4, 2, direct_samples=50)
    assert report.ok
    assert report.pool_size > 0
    assert report.distinct_denotations >= 3


def test_cem_sweep_small_identity():
    report = cem_sweep(4, 2, with_identity=True, direct_samples=50)
    assert report.ok


def test_axiom_sweep_small():
    report = qc2_axiom_sweep(4, 2, rule_samples=40)
    assert report.ok


@pytest.mark.parametrize("dropped", [MINUS_INF, -3, -50])
def test_cem_sweep_reports_a_dropped_world_for_every_pair(monkeypatch, dropped):
    """The pair check reads the conditional's denotation at every world: a
    conditional denotation missing one world fails every pair there, also
    below the reported window -6..-1."""
    from condlog import kmodel

    setup = kmodel._sweep_setup(4, 2, False)  # real pool denotations
    reps = list(setup[2].values())
    bit = 1 if dropped == MINUS_INF else 1 << -dropped
    real = kmodel._cond_denotation
    monkeypatch.setattr(kmodel, "_sweep_setup", lambda *args: setup)
    monkeypatch.setattr(
        kmodel, "_cond_denotation", lambda a, b: KSet(real(a, b).bits & ~bit)
    )
    report = cem_sweep(4, 2, direct_samples=0)
    assert report.counterexamples == [(a, b, dropped) for a in reps for b in reps]
    assert report.points_checked == 6 * len(reps) ** 2


def test_k_sweeps_check_instances_of_the_schemas(monkeypatch):
    """What the K sweeps check are instances of the axiom schemas: universal
    instantiation (23) and quantifier distribution (24) at every pool
    formula of their shape, and the direct replays of 22, 19, 21 and 20."""
    from condlog import kmodel
    from condlog.hilbert import is_axiom_instance, schema_instance

    pool, _, _, _ = setup = kmodel._sweep_setup(4, 2, False)
    with monkeypatch.context() as m:
        # every instance the sweep denotes itself becomes a counterexample
        m.setattr(kmodel, "_sweep_setup", lambda *args: setup)
        m.setattr(kmodel, "denote_k", lambda phi, g: kmodel.K_EMPTY)
        m.setattr(kmodel, "_instantiation_denotation", lambda *args: kmodel.K_EMPTY)
        report = qc2_axiom_sweep(4, 2, rule_samples=0)
    by_schema = {"universal instantiation": "23", "quantifier distribution": "24"}
    counts = dict.fromkeys(by_schema, 0)
    for name, inst in report.counterexamples:
        assert is_axiom_instance(by_schema[name], inst), (name, inst)
        counts[name] += 1
    foralls = [phi for phi in pool if isinstance(phi, Forall)]
    distributable = [
        phi for phi in foralls
        if isinstance(phi.body, Cond)
        and phi.var not in free_variables(phi.body.left)
    ]
    assert counts == {
        "universal instantiation": 2 * len(foralls),
        "quantifier distribution": len(distributable),
    }
    assert counts["quantifier distribution"] > 0

    built, sampled, instantiated = [], [], []

    def recording(schema, **env):
        built.append((schema, schema_instance(schema, **env)))
        if schema == "19":
            sampled.append(env["a"])
        return built[-1][1]

    def recording_instantiation(phi, y):
        instantiated.append(((phi, y), instantiation(phi, y)))
        return instantiated[-1][1]

    instantiation = kmodel._instantiation
    monkeypatch.setattr(kmodel, "schema_instance", recording)
    monkeypatch.setattr(kmodel, "_instantiation", recording_instantiation)
    assert cem_sweep(4, 2, direct_samples=10).ok
    assert qc2_axiom_sweep(4, 2, rule_samples=10).ok
    assert [s for s, _ in built] == ["22"] * 10 + ["19", "21", "20"] * 10
    for schema, inst in built:
        assert is_axiom_instance(schema, inst), (schema, inst)
    # the direct replays of 23: every variable at each sampled quantifier
    assert [args for args, _ in instantiated] == [
        (a, v) for a in sampled if isinstance(a, Forall) for v in (x, y)
    ]
    assert instantiated
    for _, inst in instantiated:
        assert is_axiom_instance("23", inst), inst


def test_instantiation_denotation_is_the_substituted_instance():
    """The substitution lemma against the substituted instance of 23 and its
    consequent, at every quantifier and variable of the pools the benchmark
    sweeps, including instances where substitution renames a bound
    variable.  Every instance is valid, so the consequents are what tell a
    wrong assignment apart."""
    from condlog.kmodel import _instantiation_denotation, _substituted_body_denotation
    from condlog.syntax import all_variables, substitute

    renamed = 0
    for max_size, max_vars, ident in ((6, 2, False), (6, 2, True), (5, 3, True)):
        g = canonical_assignment(max_vars)
        variables = [Variable(i) for i in range(max_vars)]
        for phi in fragment_pool(max_size, max_vars, ident):
            if not isinstance(phi, Forall):
                continue
            for v in variables:
                body = substitute(phi.body, [(phi.var, v)])
                assert _substituted_body_denotation(phi, v, g) == denote_k(body, g)
                got = _instantiation_denotation(phi, v, g)
                assert got == denote_k(Imp(phi, body), g), (phi, v)
                renamed += not all_variables(body) <= all_variables(phi) | {v}
    assert renamed > 0


def test_identity_rigidity():
    phi = Imp(Not(Eq(x, y)), _box(Not(Eq(x, y))))
    assert denote_k(phi, {x: -1, y: -2}) == K_FULL
    assert denote_k(phi, {x: -1, y: -1}) == K_FULL


def _box(phi):
    from condlog.syntax import Box

    return Box(phi)


def test_counting_equivalence_in_k():
    """Exactly-n non-F matches the boundary F(-n-1) & ~F(-n)."""
    for n in (1, 2, 3):
        phi = counting_exists(n, x, lambda v: Not(Atom(F, (v,))))
        lhs = denote_k(phi, {})
        rhs = denote_k(
            And(fx, Not(fy)), {x: -n - 1, y: -n}
        )
        assert lhs == rhs, n


def test_normal_form_rebuild_equivalence():
    """Rebuilding a counting normal form into a formula preserves the
    denotation, for conditional-free pool formulas."""
    from condlog.syntax import Cond as CondNode

    pool = [
        p
        for p in fragment_pool(5, 2)
        if not any(isinstance(s, CondNode) for s in subformulas(p))
    ]
    g = canonical_assignment(2)
    for phi in pool[::7]:
        fv = tuple(sorted(free_variables(phi), key=lambda v: v.index))
        nf = monadic_nf(phi, fv)
        rebuilt = rebuild_formula(nf)
        assert denote_k(phi, g) == denote_k(rebuilt, g), phi


def test_sweeps_share_one_pool_whose_memos_do_not_pickle():
    assert cem_sweep(4, 2, direct_samples=0).ok
    # the sweeps share one pool; by now its nodes carry denotation memos
    assert fragment_pool(4, 2) is fragment_pool(4, 2)
    assert qc2_axiom_sweep(4, 2).ok
    # memos stay in the process: a pickled node of the sweeps' pool ships
    # none of them
    node = fragment_pool(4, 2, False)[-1]
    denote_k(node, canonical_assignment(2))
    assert hasattr(node, "_denote_cache")
    assert not [k for k in vars(pickle.loads(pickle.dumps(node))) if k.startswith("_")]


def test_sweeps_run_in_one_process():
    with pytest.raises(KModelError, match=r"jobs \(2\) must be 1"):
        cem_sweep(4, 2, jobs=2)
    with pytest.raises(KModelError, match=r"jobs \(0\) must be 1"):
        qc2_axiom_sweep(4, 2, jobs=0)
    assert cem_sweep(4, 2, jobs=1) == cem_sweep(4, 2)
    assert qc2_axiom_sweep(4, 2, jobs=1) == qc2_axiom_sweep(4, 2)


@pytest.mark.parametrize("max_size,max_vars", [(0, 2), (3, 0)])
def test_sweeps_reject_an_empty_pool(max_size, max_vars):
    for sweep in (cem_sweep, qc2_axiom_sweep):
        with pytest.raises(KModelError, match="empty fragment pool"):
            sweep(max_size, max_vars)


@pytest.mark.parametrize(
    "sweep,samples_arg",
    [(cem_sweep, "direct_samples"), (qc2_axiom_sweep, "rule_samples")],
)
def test_sweeps_reject_a_negative_sample_count(sweep, samples_arg):
    with pytest.raises(KModelError, match=f"{samples_arg} \\(-1\\)"):
        sweep(3, 1, **{samples_arg: -1})


def test_small_sweep_reports_pinned():
    """The full reports of two small sweeps: pool, denotation and point
    counts."""
    assert cem_sweep(4, 2, direct_samples=50).to_json() == {
        "poolSize": 160, "distinctDenotations": 16, "pairsChecked": 256,
        "pointsChecked": 1536, "directSamples": 50, "ok": True,
        "counterexamples": [],
    }
    assert qc2_axiom_sweep(4, 3, with_identity=True, rule_samples=40).to_json() == {
        "poolSize": 1446, "distinctDenotations": 28, "pairsChecked": 23424,
        "pointsChecked": 23464, "directSamples": 80, "ok": True,
        "counterexamples": [],
    }


# ---------------------------------------------------------------------------
# The -inf bit of the denotation against a direct recursion on truth at -inf.


def _reference_minus_inf(phi, g):
    """Truth at -inf by recursion on phi, with its own quantifier clause:
    the conditional-free case through the counting-type engine, otherwise
    the witness window around the assigned values and -1 plus a deep block
    that must be constant.  Kept as a reference for the -inf bit."""
    from condlog.kmodel import _denote, _quantifier_fragment
    from condlog.syntax import EPred, size, subformulas

    if isinstance(phi, Atom):
        return False  # F is empty at -inf
    if isinstance(phi, Eq):
        return g[phi.left] == g[phi.right]
    if isinstance(phi, EPred):
        return True
    if isinstance(phi, Not):
        return not _reference_minus_inf(phi.body, g)
    if isinstance(phi, Imp):
        return not _reference_minus_inf(phi.left, g) or _reference_minus_inf(
            phi.right, g
        )
    if isinstance(phi, Cond):
        return cond_at_origin(
            _denote(phi.left, _restrict(g, phi.left), False),
            _denote(phi.right, _restrict(g, phi.right), False),
        )
    assert isinstance(phi, Forall)
    fv = tuple(sorted(free_variables(phi), key=lambda v: v.index))
    if not any(isinstance(s, Cond) for s in subformulas(phi)):
        nf = monadic_nf(_quantifier_fragment(phi, False), fv)
        labels = {}
        blocks = tuple(labels.setdefault(g[v], len(labels)) for v in fv)
        t = nf.threshold
        fc = ("exact", 0) if t >= 1 else ("atleast", 0)
        return nf.satisfied(blocks, (False,) * len(labels), fc, ("atleast", t))
    s = size(phi)
    vals = sorted({g[v] for v in fv})
    candidates = set(vals)
    for v in vals + [-1]:
        candidates.update(v + d for d in range(-(s + 1), s + 2) if v + d <= -1)
    deep_top = (min(vals) if vals else -1) - s - 2

    def at(a):
        return _reference_minus_inf(phi.body, {**_restrict(g, phi), phi.var: a})

    deep = {at(deep_top - i) for i in range(s + 1)}
    assert len(deep) == 1, phi
    return deep.pop() and all(at(a) for a in sorted(candidates, reverse=True))


def _restrict(g, phi):
    return {v: g[v] for v in free_variables(phi)}


# Assignments whose values lie 40 and more apart, so the witness windows
# around them are disjoint, next to the canonical close ones.
_SPREAD_2 = [
    {x: -1, y: -2},
    {x: -3, y: -3},
    {x: -1, y: -41},
    {x: -41, y: -1},
    {x: -45, y: -90},
    {x: -2, y: -130},
]
_SPREAD_3 = [
    {x: -1, y: -2, Variable(2): -3},
    {x: -1, y: -41, Variable(2): -81},
    {x: -81, y: -1, Variable(2): -41},
    {x: -2, y: -50, Variable(2): -2},
    {x: -40, y: -120, Variable(2): -1},
]


def test_minus_inf_bit_matches_the_reference_recursion():
    checked = 0
    for pool, assignments in (
        (fragment_pool(4, 2, with_identity=True), _SPREAD_2),
        (fragment_pool(5, 3, with_identity=True)[::7], _SPREAD_3),
    ):
        for phi in pool:
            for g in assignments:
                want = _reference_minus_inf(phi, _restrict(g, phi))
                assert eval_k(phi, MINUS_INF, g) == want, (phi, g)
                assert denote_k(phi, g).minus_inf == want, (phi, g)
                checked += 1
    assert checked == 300 * 6 + 1661 * 5


def test_quantifier_distribution_fails_at_minus_inf():
    """Schema 24, forall x (a > b) -> (a > forall x b) with x not free in a,
    fails at -inf in K on one instance, which every truncation validates.

    Take a = exists x F(x) and b = ~F(x).  By the conditional clause at
    -inf (see ``_forall_minus_inf``):
    - a fails at -inf and holds at every integer world k, with x = k;
    - for each n, a > ~F(n) holds at -inf: take u = n - 1, then ~F(n)
      holds at every v <= u, so the antecedent forall x (a > b) holds;
    - forall x ~F(x) fails at every integer world, so no u makes
      a -> forall x ~F(x) hold at every v <= u, and a > forall x ~F(x)
      fails at -inf.
    Each n has its own u and no one u serves every n: K has no least world
    and fails the limit assumption.  A truncation has a bottom world, so it
    meets the limit assumption and makes the instance true there."""
    from condlog.hilbert import is_axiom_instance

    a = Exists(x, fx)
    antecedent = Forall(x, Cond(a, Not(fx)))
    consequent = Cond(a, Forall(x, Not(fx)))
    phi = Imp(antecedent, consequent)
    assert is_axiom_instance("24", phi)
    for part, want in ((phi, False), (antecedent, True), (consequent, False)):
        assert _reference_minus_inf(part, {}) is want, part
        assert eval_k(part, MINUS_INF, {}) is want, part
        assert denote_k(part, {}).minus_inf is want, part
    assert denote_k(phi, {}) == K_INTEGERS
    for n in range(1, 31):
        assert eval_truncated(n, phi, MINUS_INF, {}), n


# ---------------------------------------------------------------------------
# The -inf test set: every value within 2^q of an anchor, q = qr(body) + 2.


def _identity_body(qr):
    """A > A for an A of quantifier rank qr over x and x1: valid in K, so
    the -inf clause asks the body for every value of its test set."""
    x1, z = Variable(1), Variable(2)
    a = Or(fx, Atom(F, (x1,)))
    for _ in range(qr):
        a = Forall(z, Or(a, Atom(F, (z,))))
    return Cond(a, a)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_minus_inf_test_set_pinned(monkeypatch, q):
    """Around the anchors -501 and -1 the body is asked for every value
    within 2^q of either, once each, from -1 down."""
    from condlog import kmodel

    body = _identity_body(q - 2)
    asked = []
    denote = kmodel._denote

    def recorded(psi, g, empty_predicates):
        if psi is body:
            asked.append(g[x])
        return denote(psi, g, empty_predicates)

    monkeypatch.setattr(kmodel, "_denote", recorded)
    assert eval_k(Forall(x, body), MINUS_INF, {Variable(1): -501})
    reach = 2**q
    near = {*range(-1 - reach, 0), *range(-501 - reach, -500 + reach)}
    assert asked == sorted(near, reverse=True)


def test_minus_inf_test_set_is_exact_against_a_scan():
    """Every quantifier node with a conditional of the (4, 2) pool in L=, and
    every 5th of the (5, 3) pool, at the spread assignments: the -inf bit
    is the conjunction of the body over every value from -1 down to 2^(q+1)
    below the lowest anchor, which covers every gap interior."""
    from condlog.kmodel import _denote
    from condlog.syntax import quantifier_rank, subformulas

    checked = 0
    for pool, assignments, step in (
        (fragment_pool(4, 2, with_identity=True), _SPREAD_2, 1),
        (fragment_pool(5, 3, with_identity=True), _SPREAD_3, 5),
    ):
        nodes = {}
        for phi in pool:
            for s in subformulas(phi):
                if isinstance(s, Forall) and material_reduct(s) is not s:
                    nodes.setdefault(s, None)
        for phi in list(nodes)[::step]:
            reach = 2 ** (quantifier_rank(phi.body) + 2)
            for g in assignments:
                g = _restrict(g, phi)
                bottom = min(g.values(), default=-1) - 2 * reach
                want = all(
                    _denote(phi.body, {**g, phi.var: b}, False).minus_inf
                    for b in range(-1, bottom - 1, -1)
                )
                assert denote_k(phi, g).minus_inf == want, (phi, g)
                checked += 1
    assert checked == 1513


def test_minus_inf_rank_ceiling():
    """At q = MAX_MINUS_INF_RANK the clause still tests; one rank more is
    refused with the node and its rank named."""
    from condlog.kmodel import MAX_MINUS_INF_RANK, StabilizationError

    def phi(qr):
        a = Imp(fy, fx)
        for _ in range(qr):
            a = Forall(y, a)
        return Forall(x, Cond(a, fx))

    assert not eval_k(phi(MAX_MINUS_INF_RANK - 2), MINUS_INF, {})
    with pytest.raises(StabilizationError, match=f"rank {MAX_MINUS_INF_RANK + 1}"):
        eval_k(phi(MAX_MINUS_INF_RANK - 1), MINUS_INF, {})


def _wide_scope(width: int):
    """forall x0. (F(x0) -> F(x1)) & (F(x2) -> F(x3)) & ..., a quantifier
    whose scope holds ``width`` variables, the first bound."""
    fs = [Atom(F, (Variable(i),)) for i in range(width)]
    parts = [Imp(fs[i], fs[i + 1]) for i in range(0, width - 1, 2)]
    if width % 2:
        parts.append(fs[-1])
    body = parts[0]
    for part in parts[1:]:
        body = And(body, part)
    return Forall(Variable(0), body)


def test_normal_form_scope_ceiling_is_checked_before_any_table(monkeypatch):
    """A quantifier whose scope holds 9 variables, a formula named over 9
    and a quantifier-free node over 9 are refused, naming the width and the
    ceiling, and ``_profiles`` is never asked for more than 8 positions."""
    import condlog.kmodel as kmodel

    asked = []
    profiles = kmodel._profiles

    def recording(n):
        asked.append(n)
        return profiles(n)

    monkeypatch.setattr(kmodel, "_profiles", recording)
    wide = _wide_scope(kmodel.MAX_NF_SCOPE + 1)
    g = {Variable(i): -i for i in range(1, 9)}
    message = r"over 9 variables, above the ceiling MAX_NF_SCOPE = 8"
    for call in (
        lambda: eval_k(wide, -1, g),
        lambda: eval_k(wide, MINUS_INF, g),
        lambda: denote_k(wide, g),
        lambda: monadic_nf(wide, [Variable(i) for i in range(1, 9)]),
        lambda: monadic_nf(wide.body, [Variable(i) for i in range(9)]),
        lambda: monadic_nf(Atom(F, (x,)), [Variable(i) for i in range(9)]),
    ):
        with pytest.raises(KModelError, match=message):
            call()
    assert max(asked, default=0) <= kmodel.MAX_NF_SCOPE


def test_normal_form_at_the_scope_ceiling_answers():
    """A quantifier whose scope holds 8 variables, the widest accepted:
    the answers recorded before the ceiling was added."""
    phi = _wide_scope(8)
    for values, want in (
        ([-1, -2, -3, -4, -5, -6, -7], [True, False, False, True]),
        ([-3, -1, -1, -2, -9, -9, -2], [True, True, False, True]),
    ):
        g = {Variable(i): v for i, v in zip(range(1, 8), values)}
        assert [eval_k(phi, w, g) for w in (-1, -2, -9, MINUS_INF)] == want


def test_quantifier_fragment_normal_forms_pinned():
    """The counting types of every distinct quantifier fragment of the
    (5, 3) pool in L=, over the quantifier's free variables; digest recorded
    before the type evaluator's memo key was made flat."""
    import hashlib

    from condlog.kmodel import _quantifier_fragment
    from condlog.syntax import subformulas

    seen = {}
    for phi in fragment_pool(5, 3, with_identity=True):
        for s in subformulas(phi):
            if isinstance(s, Forall):
                named = tuple(sorted(free_variables(s), key=lambda v: v.index))
                seen.setdefault((_quantifier_fragment(s, False), named), None)
    lines = sorted(
        f"{frag!r}|{[v.index for v in named]}|"
        f"{sorted(nf_types(monadic_nf(frag, named)))}"
        for frag, named in seen
    )
    assert len(lines) == 2934
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d76042335cfe27bdf6af6bd51470520993eb99fdbf62cf9ac2886caebb1df45c"


# ---------------------------------------------------------------------------
# The quantifier clause: one test per stretch of worlds.


def _world_scan(phi, g):
    """The integer part of a quantifier node's denotation by a scan of every
    world from below the lowest value, and at least t + distinct + 1 down,
    up to -1; the lowest scanned world stands for the ray below it.  Kept
    as the reference for the clause, which tests one world per stretch."""
    from condlog.kmodel import _quantifier_fragment

    fv = tuple(sorted(free_variables(phi), key=lambda v: v.index))
    nf = monadic_nf(_quantifier_fragment(phi, False), fv)
    t = nf.threshold
    values = [g[v] for v in fv]
    labels = {}
    blocks = tuple(labels.setdefault(val, len(labels)) for val in values)
    scan_from = min(min(values, default=0) - 1, -(t + len(labels) + 1))

    def holds(k):
        flits = tuple(val <= k for val in labels)
        neg = -k - 1 - flits.count(False)
        nc = ("exact", neg) if neg < t else ("atleast", t)
        return nf.satisfied(blocks, flits, ("atleast", t), nc)

    bits = -1 << -scan_from if holds(scan_from) else 0
    for k in range(scan_from + 1, 0):
        if holds(k):
            bits |= 1 << -k
    return KSet(bits)


def test_quantifier_clause_matches_the_world_scan():
    """Every quantifier subformula of the (5, 3) pool in L=, at random
    values in -200..-1, a quarter of them drawn from -3..-1 so that values
    coincide and lie among the top worlds."""
    from condlog.syntax import subformulas

    nodes = {}
    for phi in fragment_pool(5, 3, with_identity=True):
        for s in subformulas(phi):
            if isinstance(s, Forall):
                nodes.setdefault(s, None)
    rng = random.Random(12)
    for phi in nodes:
        g = {
            v: rng.randint(-200, -1) if rng.random() < 0.75 else rng.randint(-3, -1)
            for v in sorted(free_variables(phi), key=lambda v: v.index)
        }
        got = denote_k(phi, g)
        assert KSet(got.bits & -2) == _world_scan(phi, g), (phi, g)
    assert len(nodes) == 4338


def test_quantifier_clause_calls_do_not_grow_with_the_values(monkeypatch):
    from condlog.kmodel import CountingNormalForm

    calls = []
    satisfied = CountingNormalForm.satisfied

    def counted(self, *args):
        calls.append(args)
        return satisfied(self, *args)

    monkeypatch.setattr(CountingNormalForm, "satisfied", counted)
    x1, x2 = Variable(1), Variable(2)
    counts = []
    for value in (-10**3, -10**6):
        phi = Forall(x2, Imp(Atom(F, (x2,)), Atom(F, (x1,))))
        calls.clear()
        assert denote_k(phi, {x1: value}) == KSet.make(True, None, [(value, -1)])
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_e_and_foreign_predicates_under_a_quantifier_match_the_truncation():
    """E and a predicate other than F under a quantifier reach the quantifier
    fragment (E as top, the others as bottom) and _denote's E leaf; at
    integer worlds the truncations agree with K."""
    from condlog.syntax import EPred

    ex, gx, gy = EPred(x), Atom(Predicate(1, 1), (x,)), Atom(Predicate(1, 1), (y,))
    corpus = [
        Exists(x, Cond(ex, fx)),
        Forall(x, Cond(gx, fx)),
        Exists(x, Cond(ex, Not(fx))),
        Forall(x, Imp(ex, Or(fx, Not(fy)))),
        Exists(x, And(Cond(fx, gy), Cond(ex, Not(fx)))),
        Forall(x, Or(Cond(gx, fy), Cond(ex, fx))),
    ]
    for phi in corpus:
        n = _size(phi) + 6
        for g in ({y: -1}, {y: -3}):
            for w in range(-4, 0):
                want = eval_k(phi, w, g, empty_predicates=True)
                assert eval_truncated(n, phi, w, g) == want, (phi, g, w)


def test_truncation_ceiling():
    from condlog.kmodel import MAX_TRUNCATION

    with pytest.raises(KModelError, match="ceiling"):
        truncate(MAX_TRUNCATION + 1)
    with pytest.raises(KModelError, match="ceiling"):
        eval_truncated(MAX_TRUNCATION + 1, fx, -1, {x: -1})
    with pytest.raises(KModelError, match="ceiling"):
        probe_truncation(MAX_TRUNCATION + 1)


# ---------------------------------------------------------------------------
# The quantifier clause reads one shared stretch table per (values, threshold).


def _sweep_pool_quantifiers():
    """Every quantifier subformula of the pools the K sweeps run on."""
    from condlog.syntax import subformulas

    nodes = {}
    for config in ((6, 2, False), (6, 2, True), (5, 3, True)):
        for phi in fragment_pool(*config):
            for s in subformulas(phi):
                if isinstance(s, Forall):
                    nodes.setdefault(s, None)
    return list(nodes)


def _assigned(values, phi):
    """x_i -> values[i] on the free variables of phi."""
    return {v: values[v.index] for v in free_variables(phi)}


def test_stretch_clause_matches_the_world_scan_on_the_sweep_pools():
    """Every quantifier of the (6, 2), (6, 2, =) and (5, 3, =) pools, at
    the canonical assignment and at values about 10^3 apart, two of them
    equal: the integer part of the denotation is the world scan's."""
    nodes = _sweep_pool_quantifiers()
    for values in ((-1, -2, -3), (-10**3, -40, -40)):
        for phi in nodes:
            g = _assigned(values, phi)
            assert KSet(denote_k(phi, g).bits & -2) == _world_scan(phi, g), (phi, g)
    assert len(nodes) == 7200


def _type_reading(phi, g):
    """(threshold, holds): whether the node's normal form holds of the type
    its values realize at one integer world, read as ``_world_scan`` reads
    it."""
    from condlog.kmodel import _quantifier_fragment

    fv = tuple(sorted(free_variables(phi), key=lambda v: v.index))
    nf = monadic_nf(_quantifier_fragment(phi, False), fv)
    t = nf.threshold
    labels = {}
    blocks = tuple(labels.setdefault(g[v], len(labels)) for v in fv)

    def holds(k):
        flits = tuple(val <= k for val in labels)
        neg = -k - 1 - flits.count(False)
        nc = ("exact", neg) if neg < t else ("atleast", t)
        return nf.satisfied(blocks, flits, ("atleast", t), nc)

    return t, holds


def test_stretch_clause_at_values_a_million_apart():
    """Every quantifier of the sweep pools at values down to -10^6, each on
    a fresh copy of its tree so that the memos of the far values are freed
    with it: at every world within t + distinct + 2 of a value or of -1, at
    the middle of each gap and far down the ray, membership is the type's
    reading there.  The -inf bit of a conditional-free node is the
    reference recursion's."""
    far = ((-1, -10**6, -10**6 + 2), (-10**6, -10**3, -1), (-10**3, -10**3, -10**6))
    checked = 0
    for phi in _sweep_pool_quantifiers():
        phi = pickle.loads(pickle.dumps(phi))  # a tree without memos
        for values in far:
            g = _assigned(values, phi)
            got = denote_k(phi, g)
            t, holds = _type_reading(phi, g)
            reach = t + len(set(g.values())) + 2
            anchors = sorted({*g.values(), -1})
            worlds = {a + d for a in anchors for d in range(-reach, reach + 1)}
            worlds.update((a + b) // 2 for a, b in zip(anchors, anchors[1:]))
            worlds.update((anchors[0] - 10**3, anchors[0] - 10**6))
            for k in sorted(w for w in worlds if w <= -1):
                assert got.contains(k) == holds(k), (phi, g, k)
                checked += 1
            if material_reduct(phi) is phi:
                assert got.minus_inf == _reference_minus_inf(phi, g), (phi, g)
    assert checked == 343_057


def test_stretch_table_entries_do_not_grow_with_the_values(monkeypatch):
    """One (type bit, lo, hi) per stretch: -inf as world 0 first, then
    adjacent integer stretches from -1 down, the last a ray.  The entry
    count is the same at -10^3 and at -10^6, and the clause reads the
    table without one call of ``satisfied``."""
    from condlog.kmodel import CountingNormalForm, _stretch_table

    for t in range(4):
        for shape in (
            lambda v: (),
            lambda v: (v,),
            lambda v: (v, v),
            lambda v: (-1, v),
            lambda v: (v, v - 7, -2),
        ):
            near, far = _stretch_table(shape(-10**3), t), _stretch_table(shape(-10**6), t)
            assert len(near) == len(far) <= t + 2 * len(set(shape(-10**6))) + 2
            assert [bit for bit, _, _ in near] == [bit for bit, _, _ in far]
            assert far[0][1:] == (0, 0) and far[0][0] is not None
            assert far[1][2] == -1 and far[-1][1] is None
            for (_, lo, _), (_, _, hi) in zip(far[1:], far[2:]):
                assert hi == lo - 1

    calls = []
    monkeypatch.setattr(
        CountingNormalForm, "satisfied", lambda self, *args: calls.append(args)
    )
    x1, x2 = Variable(1), Variable(2)
    for value in (-10**3, -10**6):
        phi = Forall(x2, Imp(Atom(F, (x2,)), Atom(F, (x1,))))
        assert denote_k(phi, {x1: value}) == KSet.make(True, None, [(value, -1)])
    assert calls == []


def test_fragment_flag_gives_the_replaced_reduct():
    """On formulas with E, a foreign predicate, conditionals and shared
    subtrees, every node's fragment equals the reduct with the other atoms
    replaced, and it is the reduct itself exactly when the node holds
    neither.  A foreign predicate under a quantifier is still refused
    without the flag."""
    from condlog.kmodel import _fragment, _quantifier_fragment
    from condlog.syntax import EPred, predicates, replace_other_atoms, subformulas

    gx, gy = Atom(Predicate(1, 1), (x,)), Atom(Predicate(1, 1), (y,))
    ex = EPred(x)
    shared = Cond(fx, Or(gy, fy))
    pure = Cond(fx, Forall(y, Imp(fy, Eq(x, y))))
    corpus = [
        Forall(x, Imp(shared, Forall(y, shared))),
        Forall(x, Cond(ex, fx)),
        Not(Forall(y, And(Cond(fx, fy), Eq(x, y)))),
        Forall(x, Imp(Forall(y, Cond(gx, fy)), Forall(y, pure))),
        Forall(x, Imp(pure, Forall(y, Imp(ex, Cond(pure, fy))))),
        Imp(shared, Forall(x, shared)),
    ]
    foreign = 0
    for phi in corpus:
        for s in subformulas(phi):
            reduct = material_reduct(s)
            got = _fragment(s)
            assert got == replace_other_atoms(reduct), s
            assert got is _fragment(s)
            others = any(
                isinstance(n, EPred) or isinstance(n, Atom) and n.pred != F
                for n in subformulas(s)
            )
            assert (got is reduct) == (not others), s
            if not isinstance(s, Forall):
                continue
            if predicates(s) - {F}:
                foreign += 1
                with pytest.raises(NonFragment, match="empty_predicates=True"):
                    _quantifier_fragment(s, False)
                with pytest.raises(NonFragment):
                    denote_k(s, {x: -1, y: -2})
            else:
                assert _quantifier_fragment(s, False) is got
    assert foreign >= 4
