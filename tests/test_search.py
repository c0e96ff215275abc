import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from condlog.frameprops import check_selection_props
from condlog.search import (
    EnumerationParams,
    compactness_prefix,
    compactness_witness,
    ds_sweep,
    enumerate_frames,
    _chain_selection_frame,
    _f_values,
    _perm_tables,
    correspondence_sweep,
)
from condlog.semantics import Model, SelectionFrame, evaluate, first_failure
from condlog.syntax import F, Not, build_ds

from test_semantics import remark25_frame


def test_enumerate_includes_remark25_frame():
    params = EnumerationParams(
        max_worlds=2,
        max_domain=1,
        required_properties=frozenset({"weaklyStalnakerian"}),
        policy="reflexive-only",
    )
    target = remark25_frame()
    found = False
    for frame in enumerate_frames(params):
        if frame.n_worlds != 2 or frame.n_domain != 1:
            continue
        if frame.r == (0b11, 0b11) and frame.table == target.table:
            if frame.local == target.local:
                found = True
    assert found


def test_enumerate_single_world_stalnakerian():
    params = EnumerationParams(
        max_worlds=1,
        max_domain=1,
        required_properties=frozenset({"Stalnakerian", "GloballyConstant"}),
    )
    frames = list(enumerate_frames(params))
    assert len(frames) == 1
    frame = frames[0]
    assert frame.table[0] == (0, 1)  # f(empty) empty, f({w}) = {w}


def test_enumerated_frames_satisfy_required_properties():
    params = EnumerationParams(
        max_worlds=2,
        max_domain=2,
        required_properties=frozenset({"weaklyStalnakerian"}),
    )
    count = 0
    for frame in enumerate_frames(params):
        count += 1
        rep = check_selection_props(frame)
        assert rep.weakly_stalnakerian
    assert count > 0


@pytest.mark.parametrize(
    "max_worlds, max_domain, props, count",
    [(3, 2, {"weaklyStalnakerian"}, 7587), (2, 1, set(), 167341)],
)
def test_enumerated_frames_pass_the_checked_constructor(
    max_worlds, max_domain, props, count
):
    """The enumerator builds its frames without the construction scan of
    ``SelectionFrame``; each one passes that scan when rebuilt through the
    public constructor, default names included, and equals the rebuild."""
    seen = 0
    for frame in enumerate_frames(
        EnumerationParams(max_worlds, max_domain, frozenset(props))
    ):
        rebuilt = SelectionFrame(
            frame.n_worlds, frame.r, frame.table, frame.n_domain, frame.local
        )
        assert rebuilt == frame
        seen += 1
    assert seen == count


def test_enumeration_completeness_against_brute_force():
    """At two worlds, one domain element, reflexive R: the canonical count
    must match an unpruned brute-force enumeration deduplicated by
    permutation images."""
    params = EnumerationParams(
        max_worlds=2,
        max_domain=1,
        required_properties=frozenset({"weaklyStalnakerian"}),
        policy="reflexive-only",
    )
    fast = [f for f in enumerate_frames(params) if f.n_worlds == 2]

    seen = set()
    count = 0
    n = 2
    for r in itertools.product([0b01, 0b11], [0b10, 0b11]):
        row_options = []
        for w in range(n):
            opts = []
            for row in itertools.product(*(_submasks_of(r[w]) for _ in range(4))):
                opts.append(row)
            row_options.append(opts)
        for rows in itertools.product(*row_options):
            for local in itertools.product([0, 1], repeat=2):
                try:
                    frame = SelectionFrame(n, r, rows, 1, local)
                except Exception:
                    continue
                rep = check_selection_props(frame)
                if not rep.weakly_stalnakerian:
                    continue
                key = min(_images(n, r, rows, local))
                if key in seen:
                    continue
                seen.add(key)
                count += 1
    assert len(fast) == count


def _submasks_of(mask):
    subs = [0]
    b = 0
    m = mask
    while m:
        if m & 1:
            subs.extend(s | (1 << b) for s in list(subs))
        m >>= 1
        b += 1
    return subs


def _images(n, r, rows, local):
    out = []
    for perm in itertools.permutations(range(n)):
        def pmask(mask):
            x = 0
            for b in range(n):
                if mask & (1 << b):
                    x |= 1 << perm[b]
            return x

        new_r = [0] * n
        new_rows = [[0] * (1 << n) for _ in range(n)]
        new_local = [0] * n
        for w in range(n):
            new_r[perm[w]] = pmask(r[w])
            new_local[perm[w]] = local[w]
            for p in range(1 << n):
                new_rows[perm[w]][pmask(p)] = pmask(rows[w][p])
        out.append(
            (tuple(new_r), tuple(tuple(row) for row in new_rows), tuple(new_local))
        )
    return out


# (max worlds, max domain, required properties, found, frames, points,
# witness) as ds_sweep reported them before it shared the generic evaluator
_DS_PINNED = [
    (2, 2, ("weaklyStalnakerian",), False, 77, 1816, None),
    (2, 3, ("weaklyStalnakerian",), False, 180, 14520, None),
    (
        2,
        2,
        ("Success", "Uniqueness"),
        True,
        1098,
        13014,
        {"world": "w1", "interpretation": {"w0": ["a0"], "w1": ["a1"]}},
    ),
    (
        2,
        3,
        ("Success", "Uniqueness"),
        True,
        1110,
        13110,
        {"world": "w1", "interpretation": {"w0": ["a0"], "w1": ["a1"]}},
    ),
    (
        3,
        3,
        ("Success", "WeakCentering", "Uniqueness"),
        True,
        12996,
        377091,
        {"world": "w2", "interpretation": {"w0": ["a0"], "w1": ["a1"], "w2": []}},
    ),
]


@pytest.mark.parametrize(
    "max_worlds,max_domain,props,found,frames,points,witness", _DS_PINNED
)
def test_ds_sweep_pinned(max_worlds, max_domain, props, found, frames, points, witness):
    outcome = ds_sweep(EnumerationParams(max_worlds, max_domain, frozenset(props)))
    got = outcome.to_json()
    assert (got["found"], got["framesEnumerated"], got["pointsChecked"]) == (
        found,
        frames,
        points,
    )
    assert got.get("witness") == witness


def test_ds_points_follow_bitmask_order_per_world():
    """On three-element domains the bitmask order of F's extensions differs
    from ``subset_options`` order; ``first_failure`` on the negated formula,
    as ``ds_sweep`` asks it, finds the first satisfying point in bitmask
    order, the last world fastest."""
    ds = build_ds()
    frames = [
        frame
        for frame in enumerate_frames(
            EnumerationParams(2, 3, frozenset({"Success", "Uniqueness"}))
        )
        if frame.n_domain == 3
    ][::25]
    assert len(frames) >= 10
    hits = 0
    for frame in frames:
        n, nd = frame.n_worlds, frame.n_domain
        want = None
        for index, bits in enumerate(itertools.product(range(1 << nd), repeat=n)):
            extensions = [frozenset((a,) for a in range(nd) if b >> a & 1) for b in bits]
            interp = {F: dict(enumerate(extensions))}
            model = Model(frame, interp)
            w = next((w for w in range(n) if evaluate(model, w, {}, ds)), None)
            if w is not None:
                want = (index, interp, {}, w)
                break
        assert first_failure(frame, Not(ds), _f_values) == want, frame
        hits += want is not None
    assert hits


def test_ds_sweep_weakly_stalnakerian_two_worlds_finds_nothing():
    params = EnumerationParams(
        max_worlds=2,
        max_domain=2,
        required_properties=frozenset({"weaklyStalnakerian"}),
    )
    outcome = ds_sweep(params)
    assert not outcome.found
    assert outcome.frames_enumerated > 0


def test_ds_sweep_control_finds_witness():
    """Dropping Uniformity (and the centering that forces minima) lets the
    sweep find a pointed model, confirming it is not vacuous."""
    params = EnumerationParams(
        max_worlds=2,
        max_domain=2,
        required_properties=frozenset({"Success", "Uniqueness"}),
    )
    outcome = ds_sweep(params)
    assert outcome.found
    model = outcome.witness["model"]
    w = next(
        i
        for i, name in enumerate(model.frame.world_names)
        if name == outcome.witness["world"]
    )
    assert evaluate(model, w, {}, build_ds())
    rep = check_selection_props(model.frame)
    assert not rep.verdicts["Uniformity"]


def test_compactness_witness_small():
    for n in (1, 2):
        outcome = compactness_witness(n)
        assert outcome.found
        model = outcome.witness["model"]
        assert model.frame.n_worlds <= n + 1
        family = compactness_prefix(n)
        w = 0
        for phi in family:
            assert evaluate(model, w, {}, phi)
        rep = check_selection_props(model.frame)
        assert rep.stalnakerian


def test_compactness_witness_replays_up_to_five():
    for n in range(1, 6):
        outcome = compactness_witness(n)
        assert outcome.found, n
        model = outcome.witness["model"]
        for phi in compactness_prefix(n):
            assert evaluate(model, 0, {}, phi)


def _hand_built_chain_frame(m: int) -> SelectionFrame:
    """The chain table written out: world 0 selects the first world of P,
    and the others see only themselves and are centred."""
    entries = {}
    full = (1 << m) - 1
    r = [1 << w for w in range(m)]
    r[0] = full
    for p in range(1 << m):
        entries[(p, 0)] = p & -p
    return SelectionFrame.build(
        m, r, entries, "centering", n_domain=1, world_names=tuple(str(w) for w in range(m))
    )


@pytest.mark.parametrize("m", range(1, 7))
def test_chain_selection_frame_is_the_first_world_table(m):
    assert _chain_selection_frame(m) == _hand_built_chain_frame(m)


def test_perm_tables_match_bitwise_images():
    for k in range(1, 5):
        tables = _perm_tables(k)
        perms = list(itertools.permutations(range(k)))
        assert len(tables) == len(perms)
        for perm, (inv, image, preimage) in zip(perms, tables):
            assert all(perm[inv[v]] == v for v in range(k))
            for mask in range(1 << k):
                want = 0
                for b in range(k):
                    if mask & (1 << b):
                        want |= 1 << perm[b]
                assert image[mask] == want, (perm, mask)
                assert preimage[want] == mask, (perm, mask)


def test_correspondence_sweep_two_worlds_one_element():
    rep = correspondence_sweep(EnumerationParams(max_worlds=2, max_domain=1))
    assert rep["framesChecked"] == 167341
    assert rep["agreeEverywhere"]
    assert rep["disagreements"] == []


def test_witness_replay_failure_raises_under_optimize():
    """The replay check is a real exception, so ``python -O`` keeps it."""
    script = textwrap.dedent(
        """
        from condlog import search

        # propose the first world under the empty extension of F, which
        # does not satisfy the formula
        search.first_failure = lambda frame, phi, options: (
            0,
            {search.F: {w: frozenset() for w in range(frame.n_worlds)}},
            {},
            0,
        )
        params = search.EnumerationParams(
            max_worlds=2,
            max_domain=2,
            required_properties=frozenset({"Success", "Uniqueness"}),
        )
        try:
            search.ds_sweep(params)
        except search.ReplayError as err:
            print("raised:", err)
        else:
            raise SystemExit("no error: the failed replay went unnoticed")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "witness failed replay" in res.stdout
