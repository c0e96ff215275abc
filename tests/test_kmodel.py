import itertools
import pickle
import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from condlog.frameprops import check_ordering_props
from condlog.kmodel import (
    K_FULL,
    K_INTEGERS,
    MINUS_INF,
    KModelError,
    KSet,
    NonFragment,
    canonical_assignment,
    cem_sweep,
    cond_at_origin,
    denote_k,
    eval_k,
    eval_truncated,
    fragment_pool,
    induced_selection_probe,
    monadic_nf,
    probe_truncation,
    qc2_axiom_sweep,
    truncate,
)
from condlog.semantics import Model, SelectionFrame, evaluate
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
    free_variables,
    material_reduct,
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
    diff = a.minus(b)
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
    assert k.integer_empty == (ref.ray is None and not ref.intervals)
    assert k.is_empty == (k.integer_empty and not ref.minus_inf)
    assert k.least_integer() == ref.least_integer()
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
    _agree(a.minus(b), ra.intersect(rb.complement()))
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


def test_monadic_nf_exists():
    nf = monadic_nf(Exists(x, fx), [])
    assert len(nf.presented) == 1
    t = nf.presented[0]
    assert t.literals == ()
    assert t.f_range == (1, None)
    assert t.neg_range == (0, None)


def test_monadic_nf_literals():
    x1, x2, y1 = Variable(0), Variable(1), Variable(2)
    phi = And(Atom(F, (x1,)), And(Atom(F, (x2,)), Not(Atom(F, (y1,)))))
    nf = monadic_nf(phi, [x1, x2, y1])
    assert len(nf.presented) == 1
    t = nf.presented[0]
    assert dict(t.literals) == {x1: True, x2: True, y1: False}
    assert t.eq_blocks is None  # no identity in the formula


def test_monadic_nf_counting_quantifier():
    phi = counting_exists(2, x, lambda v: Not(Atom(F, (v,))))
    nf = monadic_nf(phi, [])
    assert len(nf.presented) == 1
    t = nf.presented[0]
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
                assert a.minus(b).is_empty


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
            assert not (a.minus(b).has_ray and a.intersect(b).has_ray)


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
    assert rep.lewisian
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

    setup = kmodel._sweep_setup(4, 2, False, 1)  # real pool denotations
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

    pool, _, _, _ = setup = kmodel._sweep_setup(4, 2, False, 1)
    with monkeypatch.context() as m:
        # every instance the sweep denotes itself becomes a counterexample
        m.setattr(kmodel, "_sweep_setup", lambda *args: setup)
        m.setattr(kmodel, "denote_k", lambda phi, g: kmodel.K_EMPTY)
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

    built = []

    def recording(schema, **env):
        built.append((schema, schema_instance(schema, **env)))
        return built[-1][1]

    monkeypatch.setattr(kmodel, "schema_instance", recording)
    assert cem_sweep(4, 2, direct_samples=10).ok
    assert qc2_axiom_sweep(4, 2, rule_samples=10).ok
    assert [s for s, _ in built] == ["22"] * 10 + ["19", "21", "20"] * 10
    for schema, inst in built:
        assert is_axiom_instance(schema, inst), (schema, inst)


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
    from condlog.kmodel import rebuild_formula
    from condlog.syntax import Cond as CondNode, subformulas

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


def test_cem_sweep_parallel_matches_serial():
    serial = cem_sweep(4, 2, direct_samples=0)
    parallel = cem_sweep(4, 2, direct_samples=0, jobs=2)
    assert serial.ok and parallel.ok
    assert serial.distinct_denotations == parallel.distinct_denotations
    # the sweeps share one pool; by now its nodes carry denotation memos
    assert fragment_pool(4, 2) is fragment_pool(4, 2)
    serial_qc2 = qc2_axiom_sweep(4, 2)
    assert qc2_axiom_sweep(4, 2, jobs=2) == serial_qc2
    # memos stay in the process: a pickled node of the sweeps' pool ships
    # none of them
    node = fragment_pool(4, 2, False)[-1]
    denote_k(node, canonical_assignment(2))
    assert hasattr(node, "_denote_cache")
    assert not [k for k in vars(pickle.loads(pickle.dumps(node))) if k.startswith("_")]


@pytest.mark.parametrize("max_size,max_vars", [(0, 2), (3, 0)])
def test_sweeps_reject_an_empty_pool(max_size, max_vars):
    for sweep in (cem_sweep, qc2_axiom_sweep):
        with pytest.raises(KModelError, match="empty fragment pool"):
            sweep(max_size, max_vars)


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
        f"{frag!r}|{[v.index for v in named]}|{sorted(monadic_nf(frag, named).types)}"
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
