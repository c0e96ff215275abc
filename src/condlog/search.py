"""Exhaustive small-frame enumeration and targeted searches.

Frames are enumerated up to world/domain relabeling via canonical-form
hashing: a frame is emitted only when its encoding is lexicographically
minimal among all permutation images.  The descending-sequence sweep and
the compactness search both replay any witness through ``evaluate``
before reporting it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .frameprops import (
    SELECTION_CONDITIONS,
    STALNAKERIAN,
    WEAKLY_STALNAKERIAN,
    _group_results,
    _required,
    _shared_failure,
)
from .semantics import (
    Model,
    OrderingFrame,
    ResourceGuard,
    SelectionFrame,
    SemanticsError,
    _bits,
    _compiled,
    _default_names,
    _failure,
    evaluate,
    first_failure,
    ordering_to_selection,
)
from .syntax import (
    Atom,
    Cond,
    Dia,
    F,
    Formula,
    Not,
    Or,
    Predicate,
    build_ds,
)

CLASSIFICATIONS = {
    "weaklyStalnakerian": WEAKLY_STALNAKERIAN,
    "Stalnakerian": STALNAKERIAN,
}

# The largest world count and domain size that frame enumeration accepts.
# Domain relabeling tabulates all |D|! permutations first: about ten
# seconds at 8 elements and more than a minute at 9.
HARD_WORLD_LIMIT = 4
HARD_DOMAIN_LIMIT = 6

# The largest prefix compactness_witness searches: its work grows about 30
# times per step of n, and n = 7 takes a few seconds.
MAX_COMPACTNESS_N = 7

# How many consecutive frames (or (R, table) groups) of one |W| and |D| the
# sweeps decide as one batch of the evaluator; a sweep holds one batch at a
# time, never its whole enumeration.
_BATCH = 512

# What ``EnumerationParams.required_properties`` may name.
PROPERTY_NAMES = (*SELECTION_CONDITIONS, "GloballyConstant", *CLASSIFICATIONS)


class ReplayError(SemanticsError):
    """A witness found by a search failed its replay through the generic
    evaluator: the search and the evaluator disagree."""


@dataclass(frozen=True)
class EnumerationParams:
    max_worlds: int = 3
    max_domain: int = 2
    required_properties: frozenset[str] = frozenset()
    policy: str = "all"  # or "reflexive-only"

    def __post_init__(self) -> None:
        if self.max_worlds < 1 or self.max_domain < 1:
            raise ValueError(
                f"empty size range: max_worlds={self.max_worlds}, "
                f"max_domain={self.max_domain} (both must be at least 1)"
            )
        if self.policy not in ("all", "reflexive-only"):
            raise ValueError(f"unknown accessibility policy {self.policy!r}")
        unknown = set(self.required_properties) - set(PROPERTY_NAMES)
        if unknown:
            raise ValueError(f"unknown properties {sorted(unknown)}")

    def conditions(self) -> frozenset[str]:
        out = set()
        for name in self.required_properties:
            out.update(CLASSIFICATIONS.get(name, (name,)))
        return frozenset(out)


@dataclass
class SearchOutcome:
    found: bool
    witness: Optional[dict] = None
    frames_enumerated: int = 0
    candidates_pruned: int = 0
    points_checked: int = 0

    def to_json(self) -> dict:
        out = {
            "found": self.found,
            "framesEnumerated": self.frames_enumerated,
            "candidatesPruned": self.candidates_pruned,
            "pointsChecked": self.points_checked,
        }
        if self.witness is not None:
            w = dict(self.witness)
            for key in ("frame", "model"):
                w.pop(key, None)
            out["witness"] = w
        return out


# ---------------------------------------------------------------------------
# Enumeration.


def _accessible_sets(n: int, policy: str) -> list[list[int]]:
    """Per world w, the masks that R(w) takes under the policy, ascending."""
    return [
        [mask for mask in range(1 << n) if policy == "all" or mask >> w & 1]
        for w in range(n)
    ]


# A permutation of range(k) as (inverse, image, preimage): inverse[new] is
# the old index, image[mask] and preimage[mask] the mask mapped forward and
# back.
_PermTable = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _perm_tables(k: int) -> list[_PermTable]:
    """The table of every permutation of range(k), in
    itertools.permutations order."""
    out = []
    for perm in itertools.permutations(range(k)):
        inv = [0] * k
        for old, new in enumerate(perm):
            inv[new] = old
        image = [0] * (1 << k)
        preimage = [0] * (1 << k)
        for mask in range(1 << k):
            for b in _bits(mask):
                image[mask] |= 1 << perm[b]
                preimage[mask] |= 1 << inv[b]
        out.append((tuple(inv), tuple(image), tuple(preimage)))
    return out


# A world permutation that maps R to itself: its position in the world
# permutations, its table and the images of the rows met so far.
_Stabiliser = tuple[int, _PermTable, dict]


def _relation_stabiliser(
    r: tuple[int, ...], wperms: Sequence[_PermTable]
) -> Optional[list[_Stabiliser]]:
    """The world permutations that map R to itself, the identity first;
    None when one maps R to a smaller tuple, so that no table over R is
    canonical.  The image of R under a permutation has R'(v) =
    pi(R(pi^-1 v)), and the image of (R, table) is compared with R first."""
    out = []
    for k, wperm in enumerate(wperms):
        inv, image, _preimage = wperm
        new_r = tuple(image[r[old]] for old in inv)
        if new_r < r:
            return None
        if new_r == r:
            out.append((k, wperm, {}))
    return out


def _table_automorphisms(
    table: tuple[tuple[int, ...], ...], stabiliser: Sequence[_Stabiliser]
) -> Optional[tuple[int, ...]]:
    """The positions of the permutations of ``stabiliser`` (over the
    table's R) that map the table to itself; None when one maps it to a
    smaller table (it is not canonical).

    The image has f'(P, v) = pi(f(pi^-1 P, pi^-1 v)): its row v is the
    image of row pi^-1 v, kept per permutation, and the rows are compared
    in order up to the first that differs."""
    auts = [0]  # the identity, first in itertools.permutations order
    for k, (inv, image, preimage), images in stabiliser[1:]:
        for v, old in enumerate(inv):
            row = table[old]
            new = images.get(row)
            if new is None:
                new = images[row] = tuple([image[row[p]] for p in preimage])
            if new != table[v]:
                if new < table[v]:
                    return None
                break
        else:
            auts.append(k)
    return tuple(auts)


def _local_canonical(
    local: tuple[int, ...],
    auts: Sequence[_PermTable],
    dperms: Sequence[_PermTable],
) -> bool:
    # auts[0] and dperms[0] are identities, which map local to itself
    for k, (inv, _image, _preimage) in enumerate(auts):
        permuted = [local[old] for old in inv]
        for _dinv, dimage, _dpreimage in dperms[0 if k else 1 :]:
            if tuple(dimage[mask] for mask in permuted) < local:
                return False
    return True


def enumerate_frames(params: EnumerationParams) -> Iterator[SelectionFrame]:
    """Yield every selection frame up to relabeling that satisfies the
    required properties, for all world/domain counts within the bounds.

    The conditions are read from the tables of ``frameprops``, and each is
    decided in one place: a world w with R(w) draws its row f(., w) from
    the row list of (|W|, w, R(w)), built once, which holds in
    lexicographic order the rows whose cells break no required condition
    over single subsets and which break none over pairs of subsets; a
    world draws its local domain from those that break none over single
    worlds.  An R with a world that has no row is skipped.  Frames are
    deduplicated canonically: tables must be lexicographically minimal
    under world permutation, local domains minimal under the table's
    automorphisms and domain permutation.

    The permutation tables (inverse and mask images of every world
    permutation) and the default world names are built once per world
    count, and the domain permutation tables and names once per domain
    size; the canonicity checks index the tables.  Whether a permutation
    maps R to itself, lower or higher is decided once per R, and a table
    is compared only under the permutations that fix R.  The canonical
    local domains are found once per automorphism group.  Every row draws
    f(P,w) within R(w), so the frames skip the construction scan of
    ``SelectionFrame``.
    """
    for group in _table_groups(params):
        yield from group.frames()


class _TableGroup(NamedTuple):
    """One canonical (|W|, R, table, |D|) with its canonical local domains,
    in enumeration order, and the default names: frames that differ only in
    ``local``, which are built only when asked for."""

    n_worlds: int
    r: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    n_domain: int
    local_domains: list[tuple[int, ...]]
    world_names: tuple[str, ...]
    domain_names: tuple[str, ...]

    def frame(self, local: tuple[int, ...]) -> SelectionFrame:
        return SelectionFrame._unchecked(
            self.n_worlds,
            self.r,
            self.table,
            self.n_domain,
            local,
            self.world_names,
            self.domain_names,
        )

    def frames(self) -> list[SelectionFrame]:
        return [self.frame(local) for local in self.local_domains]


def _table_groups(params: EnumerationParams) -> Iterator[_TableGroup]:
    """Each canonical (|W|, R, table, |D|) that meets the required
    properties, in the order of ``enumerate_frames``, with its canonical
    local domains.  The tables over R are the product of its worlds' row
    lists.  The ceilings, the row ceiling of every (|W|, w, R(w)) the
    policy allows included, are checked before any permutation table is
    built."""
    if params.max_worlds > HARD_WORLD_LIMIT:
        raise ResourceGuard(
            f"enumeration ceiling is |W| <= {HARD_WORLD_LIMIT}, "
            f"asked for {params.max_worlds}"
        )
    if params.max_domain > HARD_DOMAIN_LIMIT:
        raise ResourceGuard(
            f"enumeration ceiling is |D| <= {HARD_DOMAIN_LIMIT}, "
            f"asked for {params.max_domain}"
        )
    required = _required(params.conditions())
    sizes = range(1, params.max_worlds + 1)
    accessible = {n: _accessible_sets(n, params.policy) for n in sizes}
    # every row list, each refused above the row ceiling before it is built
    rows_of = {
        (n, w, rw): required.rows(n, w, rw)
        for n in sizes
        for w, options in enumerate(accessible[n])
        for rw in options
    }
    dperms_of = {nd: _perm_tables(nd) for nd in range(1, params.max_domain + 1)}
    for n in sizes:
        wperms = _perm_tables(n)
        world_names = _default_names("w", n)
        for nd in range(1, params.max_domain + 1):
            domain_names = _default_names("a", nd)
            full = (1 << nd) - 1
            locals_of = [
                [lw for lw in range(1 << nd) if not required.local(w, lw, full)]
                for w in range(n)
            ]
            local_list = list(itertools.product(*locals_of))
            dperms = dperms_of[nd]
            # the canonical local domains, per automorphism group of a table
            canonical_of: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for r in itertools.product(*accessible[n]):
                rows = [rows_of[n, w, rw] for w, rw in enumerate(r)]
                if not all(rows):
                    continue  # a world with no row: no table over R
                stabiliser = _relation_stabiliser(r, wperms)
                if stabiliser is None:
                    continue
                for table in itertools.product(*rows):
                    auts = _table_automorphisms(table, stabiliser)
                    if auts is None:
                        continue
                    canonical = canonical_of.get(auts)
                    if canonical is None:
                        perms = [wperms[k] for k in auts]
                        canonical = canonical_of[auts] = [
                            local
                            for local in local_list
                            if _local_canonical(local, perms, dperms)
                        ]
                    yield _TableGroup(
                        n, r, table, nd, canonical, world_names, domain_names
                    )


# ---------------------------------------------------------------------------
# The descending-sequence sweep.


def _f_values(n_domain: int, arity: int) -> list[frozenset[tuple[int, ...]]]:
    """The extensions of F at a world in bitmask order: k holds a iff bit a."""
    return [frozenset((a,) for a in _bits(k)) for k in range(1 << n_domain)]


def _batches(items: Iterable, size: Callable[..., tuple]) -> Iterator[list]:
    """Runs of consecutive ``items`` with one ``size`` (|W|, |D|), at most
    ``_BATCH`` of them each."""
    for _, run in itertools.groupby(items, size):
        while batch := list(itertools.islice(run, _BATCH)):
            yield batch


def ds_sweep(params: EnumerationParams) -> SearchOutcome:
    """Search for a pointed model of the descending-sequence formula over
    the enumerated frames and every interpretation of F.  Over weakly
    Stalnakerian frames no satisfying point should exist; the control runs
    drop conditions to confirm the sweep can find one.

    A satisfying point is a failing point of the negated formula.  The
    frames are decided in batches, with F's extensions in bitmask order at
    each world, and the first frame where the negation fails is asked of
    ``first_failure`` for its first failing point.  ``points_checked``
    counts (interpretation, world) points up to the witness, or all of
    them."""
    outcome = SearchOutcome(found=False)
    ds = build_ds()
    negated = Not(ds)
    compiled = _compiled(negated)
    frames = enumerate_frames(params)
    for batch in _batches(frames, lambda f: (f.n_worlds, f.n_domain)):
        hits = _failure(batch, compiled, _f_values)
        for frame, hit in zip(batch, hits):
            outcome.frames_enumerated += 1
            n = frame.n_worlds
            if hit is None:
                outcome.points_checked += (1 << frame.n_domain) ** n * n
                continue
            index, interp, _g, w = first_failure(frame, negated, _f_values)
            outcome.points_checked += index * n + w + 1
            model = Model(frame, interp)
            if not evaluate(model, w, {}, ds):
                raise ReplayError(
                    f"witness failed replay at world {w} of {frame!r} under {interp!r}"
                )
            outcome.found = True
            outcome.witness = {
                "frame": frame,
                "model": model,
                "world": frame.world_names[w],
                "interpretation": {
                    frame.world_names[v]: sorted(
                        frame.domain_names[a] for (a,) in interp[F][v]
                    )
                    for v in range(n)
                },
            }
            return outcome
    return outcome


def correspondence_sweep(params: EnumerationParams) -> dict:
    """Run the instance-family correspondence check over every enumerated
    frame; the two verdicts should agree on all of them.  ``groupsChecked``
    counts the (R, table) groups of ``_table_groups``.

    Each group is decided on its first frame, the only one built for most
    groups, and the first frames of a batch of groups are decided together
    (``frameprops._shared_failure``).  When a local-free instance fails
    there and the table is not weakly Stalnakerian, every frame of the
    group fails that instance and breaks a condition, so all of them agree
    and only their number is counted.  The frames of the other groups are
    built and checked (``frameprops._group_results``): frame by frame where
    every local-free instance holds, and by GloballyConstant where the
    table is weakly Stalnakerian."""
    checked = groups = 0
    disagreements = []
    for batch in _batches(_table_groups(params), lambda g: (g.n_worlds, g.n_domain)):
        firsts = [group.frame(group.local_domains[0]) for group in batch]
        for group, first, shared in zip(batch, firsts, _shared_failure(firsts)):
            groups += 1
            checked += len(group.local_domains)
            if shared is not None and not shared[1]:
                continue
            frames = [first, *map(group.frame, group.local_domains[1:])]
            results = _group_results(frames, shared)
            for frame, res in zip(frames, results):
                if not res.agree:
                    disagreements.append(
                        {
                            "frame": {
                                "r": list(frame.r),
                                "table": [list(row) for row in frame.table],
                                "local": list(frame.local),
                            },
                            "result": res.to_json(),
                        }
                    )
    return {
        "framesChecked": checked,
        "groupsChecked": groups,
        "agreeEverywhere": not disagreements,
        "disagreements": disagreements[:10],
    }


# ---------------------------------------------------------------------------
# Compactness-failure witnesses.


def compactness_prefix(n: int) -> list[Formula]:
    """{dia A_i : i < n} plus {(A_i | A_i+1) > ~A_i : i < n-1} over
    nullary predicates."""
    atoms = [Atom(Predicate(i, 0)) for i in range(n)]
    family: list[Formula] = [Dia(a) for a in atoms]
    family.extend(
        Cond(Or(atoms[i], atoms[i + 1]), Not(atoms[i])) for i in range(n - 1)
    )
    return family


def compactness_witness(n: int) -> SearchOutcome:
    """Find a Stalnakerian pointed model of the n-prefix of the
    compactness-failure family, searching up to n+1 worlds.

    Any pointed model can be shrunk to one where the evaluation world sees
    every world in a linear order and other worlds see only themselves
    (worlds outside R(w0) are irrelevant to truth at w0, and closing the
    others off keeps the frame Stalnakerian), so the search walks linear
    orders with per-world label sets, pruning a branch as soon as a family
    member's first triggered world settles it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_COMPACTNESS_N:
        raise ResourceGuard(
            f"compactness ceiling exceeded: n={n} above MAX_COMPACTNESS_N = "
            f"{MAX_COMPACTNESS_N}"
        )
    outcome = SearchOutcome(found=False)
    family = compactness_prefix(n)

    for m in range(1, n + 2):
        hit = _compactness_search(n, m, outcome)
        if hit is not None:
            model, w0 = hit
            if not all(evaluate(model, w0, {}, f) for f in family):
                raise ReplayError(
                    f"witness failed replay: the {m}-world model does not "
                    f"satisfy the {n}-prefix at its evaluation world"
                )
            outcome.found = True
            outcome.witness = {
                "model": model,
                "world": model.frame.world_names[w0],
                "labels": _describe_labels(model, n),
            }
            return outcome
    return outcome


def _describe_labels(model: Model, n: int) -> dict[str, list[str]]:
    out = {}
    for w in range(model.frame.n_worlds):
        out[model.frame.world_names[w]] = sorted(
            str(Predicate(i, 0)) for i in range(n) if model.holds(Predicate(i, 0), w, ())
        )
    return out


def _compactness_search(n: int, m: int, outcome: SearchOutcome):
    """Assign label sets to worlds 0..m-1 (world 0 the evaluation point,
    ordered 0 < 1 < ... in the similarity order at 0)."""

    def check_conditionals(labels: list[int]) -> bool:
        # (A_i | A_i+1) > ~A_i: the closest world carrying either label
        # must carry A_i+1 and not A_i
        for i in range(n - 1):
            first = next((lab for lab in labels if lab & (0b11 << i)), None)
            if first is not None and first & (1 << i):
                return False
        return True

    def dfs(labels: list[int]) -> Optional[list[int]]:
        outcome.points_checked += 1
        if not check_conditionals(labels):
            outcome.candidates_pruned += 1
            return None
        if len(labels) == m:
            seen = 0
            for lab in labels:
                seen |= lab
            if seen == (1 << n) - 1:
                return labels
            return None
        for lab in range(1 << n):
            got = dfs(labels + [lab])
            if got is not None:
                return got
        return None

    got = None
    for first in range(1 << n):
        got = dfs([first])
        if got is not None:
            break
    if got is None:
        return None
    labels = got
    frame = _chain_selection_frame(m)
    interp: dict[Predicate, dict[int, frozenset]] = {}
    for i in range(n):
        pred = Predicate(i, 0)
        interp[pred] = {
            w: frozenset([()]) if labels[w] & (1 << i) else frozenset()
            for w in range(m)
        }
    return Model(frame, interp), 0


def _chain_selection_frame(m: int) -> SelectionFrame:
    """World 0 sees everything ordered 0 < 1 < ... < m-1; the others see
    only themselves.  The order is Stalnakerian, so it converts."""
    pairs = {w: [(w, w)] for w in range(1, m)}
    pairs[0] = [(x, y) for x in range(m) for y in range(x, m)]
    r = [(1 << m) - 1] + [1 << w for w in range(1, m)]
    order = OrderingFrame.build(
        m, r, pairs, n_domain=1, world_names=tuple(str(w) for w in range(m))
    )
    return ordering_to_selection(order)
