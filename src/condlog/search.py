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
from typing import Iterator, Optional, Sequence

from .frameprops import (
    SELECTION_CONDITIONS,
    STALNAKERIAN,
    WEAKLY_STALNAKERIAN,
    check_selection_props,
)
from .semantics import (
    Model,
    OrderingFrame,
    ResourceGuard,
    SelectionFrame,
    SemanticsError,
    _bits,
    _default_names,
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

# The largest world count that frame enumeration accepts.
HARD_WORLD_LIMIT = 4

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


def _relations(n: int, policy: str) -> Iterator[tuple[int, ...]]:
    options = []
    for w in range(n):
        masks = []
        for mask in range(1 << n):
            if policy == "reflexive-only" and not mask & (1 << w):
                continue
            masks.append(mask)
        options.append(masks)
    yield from itertools.product(*options)


def _table_rows(
    n: int, w: int, r_mask: int, constrained: bool, success_only: bool
) -> Iterator[tuple[int, ...]]:
    """All selection rows f(., w): a value for every subset mask."""
    per_subset = []
    for p in range(1 << n):
        if constrained:
            if p == 0:
                choices: tuple[int, ...] = (0,)
            elif p & (1 << w):
                choices = ((1 << w),) if r_mask & (1 << w) else ()
            else:
                choices = (0,) + tuple(1 << v for v in _bits(p & r_mask))
            per_subset.append(choices)
        elif success_only:
            per_subset.append(_submasks(p & r_mask))
        else:
            per_subset.append(_submasks(r_mask))
    yield from itertools.product(*per_subset)


def _submasks(mask: int) -> tuple[int, ...]:
    subs = [0]
    for b in _bits(mask):
        subs.extend(s | (1 << b) for s in list(subs))
    return tuple(subs)


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


def _table_automorphisms(
    r: tuple[int, ...],
    table: tuple[tuple[int, ...], ...],
    wperms: Sequence[_PermTable],
) -> Optional[list[_PermTable]]:
    """World permutations fixing (R, table), as entries of ``wperms``; None
    when a smaller image exists (the table is not canonical).

    The image of (R, table) under a permutation has R'(v) = pi(R(pi^-1 v))
    and f'(P, v) = pi(f(pi^-1 P, pi^-1 v)); comparing R' first decides the
    lexicographic order of the pair whenever R' differs from R."""
    auts = []
    for wperm in wperms:
        inv, image, preimage = wperm
        new_r = tuple(image[r[old]] for old in inv)
        if new_r > r:
            continue
        if new_r < r:
            return None
        new_table = tuple(
            tuple(image[row[p]] for p in preimage)
            for row in (table[old] for old in inv)
        )
        if new_table < table:
            return None
        if new_table == table:
            auts.append(wperm)
    return auts


def _local_canonical(
    local: tuple[int, ...],
    auts: Sequence[_PermTable],
    dperms: Sequence[_PermTable],
) -> bool:
    for inv, _image, _preimage in auts:
        permuted = [local[old] for old in inv]
        for _dinv, dimage, _dpreimage in dperms:
            if tuple(dimage[mask] for mask in permuted) < local:
                return False
    return True


def enumerate_frames(params: EnumerationParams) -> Iterator[SelectionFrame]:
    """Yield every selection frame up to relabeling that satisfies the
    required properties, for all world/domain counts within the bounds.

    Under Success, WeakCentering, and Uniqueness the table generation is
    constrained (w in P forces f(P,w) = {w}; otherwise singletons of
    P & R(w) or empty); remaining properties are post-filtered.  Frames are
    deduplicated canonically: tables must be lexicographically minimal
    under world permutation, local domains minimal under the table's
    automorphisms and domain permutation.

    The permutation tables (inverse and mask images of every world
    permutation) and the default world names are built once per world
    count, and the domain permutation tables and names once per domain
    size; the canonicity checks index the tables.  Every row draws f(P,w)
    within R(w), so the frames skip the construction scan of
    ``SelectionFrame``.
    """
    if params.max_worlds > HARD_WORLD_LIMIT:
        raise ResourceGuard(
            f"enumeration ceiling is |W| <= {HARD_WORLD_LIMIT}, "
            f"asked for {params.max_worlds}"
        )
    conditions = params.conditions()
    constrained = {"Success", "WeakCentering", "Uniqueness"} <= conditions
    success_only = not constrained and "Success" in conditions
    post = [c for c in conditions if c != "GloballyConstant"]
    dperms_of = {nd: _perm_tables(nd) for nd in range(1, params.max_domain + 1)}
    probe_names = _default_names("a", 1)
    for n in range(1, params.max_worlds + 1):
        wperms = _perm_tables(n)
        world_names = _default_names("w", n)
        for nd in range(1, params.max_domain + 1):
            domain_names = _default_names("a", nd)
            if "GloballyConstant" in conditions:
                local_list = [((1 << nd) - 1,) * n]
            else:
                local_list = list(itertools.product(range(1 << nd), repeat=n))
            dperms = dperms_of[nd]
            for r in _relations(n, params.policy):
                if constrained and any(not r[w] & (1 << w) for w in range(n)):
                    continue  # weak centering forces reflexivity
                for table in itertools.product(
                    *(
                        _table_rows(n, w, r[w], constrained, success_only)
                        for w in range(n)
                    )
                ):
                    auts = _table_automorphisms(r, table, wperms)
                    if auts is None:
                        continue
                    if post:
                        probe = SelectionFrame._unchecked(
                            n, r, table, 1, (1,) * n, world_names, probe_names
                        )
                        report = check_selection_props(probe, post)
                        if not all(report.verdicts.values()):
                            continue
                    for local in local_list:
                        if _local_canonical(local, auts, dperms):
                            yield SelectionFrame._unchecked(
                                n, r, table, nd, local, world_names, domain_names
                            )


# ---------------------------------------------------------------------------
# The descending-sequence sweep.


def _f_values(n_domain: int, arity: int) -> list[frozenset[tuple[int, ...]]]:
    """The extensions of F at a world in bitmask order: k holds a iff bit a."""
    return [frozenset((a,) for a in _bits(k)) for k in range(1 << n_domain)]


def ds_sweep(params: EnumerationParams) -> SearchOutcome:
    """Search for a pointed model of the descending-sequence formula over
    the enumerated frames and every interpretation of F.  Over weakly
    Stalnakerian frames no satisfying point should exist; the control runs
    drop conditions to confirm the sweep can find one.

    A satisfying point is a failing point of the negated formula, asked of
    ``first_failure`` with F's extensions in bitmask order at each world.
    ``points_checked`` counts (interpretation, world) points up to the
    witness, or all of them."""
    outcome = SearchOutcome(found=False)
    ds = build_ds()
    negated = Not(ds)
    for frame in enumerate_frames(params):
        outcome.frames_enumerated += 1
        n = frame.n_worlds
        hit = first_failure(frame, negated, _f_values)
        if hit is None:
            outcome.points_checked += (1 << frame.n_domain) ** n * n
            continue
        index, interp, _g, w = hit
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
    frame; the two verdicts should agree on all of them."""
    from .frameprops import qc2_correspondence_check

    checked = 0
    disagreements = []
    for frame in enumerate_frames(params):
        checked += 1
        res = qc2_correspondence_check(
            frame, max_worlds=params.max_worlds, max_domain=params.max_domain
        )
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
