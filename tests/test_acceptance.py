"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Criteria and tolerances are exact (boolean) throughout; the
stated time targets are generous on commodity hardware, and the slowest
sweeps here finish well inside them.
"""

import json
import random
import time
from pathlib import Path

import pytest

from condlog.corpus import (
    formula_corpus,
    random_formula,
    random_stalnakerian_ordering_model,
)
from condlog.fileformats import load_model, load_proof
from condlog.frameprops import (
    check_domain_props,
    check_selection_props,
)
from condlog.hilbert import mod_theorem_proof, mutate_script, verify_proof
from condlog.kmodel import (
    MINUS_INF,
    StabilizationError,
    canonical_assignment,
    cem_sweep,
    eval_k,
    eval_truncated,
    fragment_pool,
    qc2_axiom_sweep,
)
from condlog.search import (
    EnumerationParams,
    compactness_prefix,
    compactness_witness,
    correspondence_sweep,
    ds_sweep,
)
from condlog.semantics import (
    evaluate,
    extension,
    ordering_to_selection,
    selection_to_ordering,
)
from condlog.syntax import (
    Atom,
    Box,
    Dia,
    Exists,
    F,
    Forall,
    Lang,
    Predicate,
    Top,
    Variable,
    build_ds,
    free_variables,
    size,
)

FIXTURES = Path(__file__).parent / "fixtures"

x, y = Variable(0), Variable(1)


def _report(number: int, description: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} ({time.time() - started:5.1f}s): {description}")
    assert ok, f"criterion {number}: {description}"


def _remark25_model():
    return load_model(json.loads((FIXTURES / "remark25.json").read_text()))


def test_criterion_01_remark_frame_classification():
    t0 = time.time()
    model = _remark25_model()
    rep = check_selection_props(model.frame)
    ok = (
        rep.weakly_stalnakerian
        and not rep.stalnakerian
        and not rep.verdicts["LA"]
        and rep.witnesses["LA"] == (0b10, 0)  # P = {world "2"}, w = world "1"
        and check_domain_props(model.frame).verdicts["GloballyConstant"]
    )
    _report(1, "two-world frame is weakly Stalnakerian only, with the "
               "limit-assumption witness P={2}, w=1", ok, t0)


def test_criterion_02_footnote_box_failure():
    t0 = time.time()
    model = _remark25_model()
    p = Predicate(0, 1)
    g = {x: 0}
    ok = evaluate(model, 0, g, Box(Atom(p, (x,)))) and not evaluate(
        model, 1, g, Atom(p, (x,))
    )
    _report(2, "box P(x) holds at world 1 although P(x) fails at "
               "accessible world 2", ok, t0)


def test_criterion_03_ds_in_k():
    t0 = time.time()
    ds = build_ds()
    ok = eval_k(ds, MINUS_INF, {})
    # Agreement with the truncation oracles holds exactly where it is
    # mathematically possible: at every shared integer world, and on the
    # first two conjuncts at -inf.  At -inf the truncations stably report
    # false: a finite truncation is a Stalnakerian ordering model, so by
    # the no-descending-sequence result nothing satisfies the formula
    # there; that stable disagreement is itself asserted.
    c1 = Exists(x, Top())
    c2 = Forall(x, Dia(Atom(F, (x,))))
    for n in (20, 21, 22):
        for k in range(-(n - 2), 0):
            ok = ok and eval_truncated(n, ds, k, {}) == eval_k(ds, k, {})
        ok = ok and eval_truncated(n, c1, MINUS_INF, {})
        ok = ok and eval_truncated(n, c2, MINUS_INF, {})
        ok = ok and not eval_truncated(n, ds, MINUS_INF, {})
    _report(3, "descending-sequence formula holds at -inf; truncations "
               "K20-K22 agree at integer worlds and miss it at -inf only "
               "through their bottom elements", ok, t0)


@pytest.mark.slow
def test_criterion_04_cem_sweeps():
    t0 = time.time()
    rep_l = cem_sweep(7, 2, direct_samples=200, seed=0)
    rep_eq = cem_sweep(7, 2, with_identity=True, direct_samples=200, seed=0)
    ok = (
        rep_l.ok
        and rep_eq.ok
        and rep_l.pool_size == len(fragment_pool(7, 2))
        and rep_eq.pool_size == len(fragment_pool(7, 2, with_identity=True))
    )
    _report(4, f"conditional excluded middle holds at -inf and at worlds "
               f"-1..-9 over {rep_l.pool_size} + {rep_eq.pool_size} pool "
               f"formulas (zero counterexamples)", ok, t0)


@pytest.mark.slow
def test_criterion_05_qc2_axioms_in_k():
    t0 = time.time()
    rep_l = qc2_axiom_sweep(7, 2, rule_samples=200, seed=0)
    rep_eq = qc2_axiom_sweep(7, 2, with_identity=True, rule_samples=200, seed=0)
    ok = rep_l.ok and rep_eq.ok and rep_l.points_checked > 10000
    _report(5, f"non-CEM axiom schemas and closure-rule spot checks hold "
               f"everywhere in the infinite model "
               f"({rep_l.points_checked + rep_eq.points_checked} instances)",
            ok, t0)


def test_criterion_06_ds_sweep_and_control():
    t0 = time.time()
    sweep = ds_sweep(
        EnumerationParams(
            max_worlds=3,
            max_domain=2,
            required_properties=frozenset({"weaklyStalnakerian"}),
        )
    )
    control = ds_sweep(
        EnumerationParams(
            max_worlds=2,
            max_domain=2,
            required_properties=frozenset({"Success", "Uniqueness"}),
        )
    )
    control_ok = control.found
    if control_ok:
        model = control.witness["model"]
        w = list(model.frame.world_names).index(control.witness["world"])
        control_ok = evaluate(model, w, {}, build_ds())
        control_ok = control_ok and not check_selection_props(
            model.frame
        ).verdicts["Uniformity"]
    ok = (
        not sweep.found
        and sweep.frames_enumerated == 7587
        and sweep.points_checked == 1211896
        and control_ok
    )
    _report(6, f"no weakly Stalnakerian frame up to 3 worlds satisfies the "
               f"descending-sequence formula ({sweep.frames_enumerated} "
               f"frames, {sweep.points_checked} points); the relaxed "
               f"control run finds a replayed witness", ok, t0)


@pytest.mark.slow
def test_criterion_07_correspondence_sweep():
    t0 = time.time()
    rep = correspondence_sweep(EnumerationParams(max_worlds=2, max_domain=2))
    ok = (
        rep["agreeEverywhere"]
        and rep["framesChecked"] == 585539
        and rep["groupsChecked"] == 83820
    )
    _report(7, f"instance-family validity coincides with (weakly "
               f"Stalnakerian and globally constant) on all "
               f"{rep['framesChecked']} enumerated frames", ok, t0)


def test_criterion_08_conversion_equivalence():
    t0 = time.time()
    rng = random.Random(8)
    corpus = formula_corpus(seed=88, count=50, max_size=8)
    ok = True
    for _ in range(200):
        model = random_stalnakerian_ordering_model(rng, max_worlds=4, max_domain=3)
        converted = ordering_to_selection(model.frame)
        sel_model = type(model)(converted, model.interp)
        nd = model.frame.n_domain
        for phi in corpus:
            fv = sorted(free_variables(phi), key=lambda v: v.index)
            for values in _assignments(fv, nd):
                if extension(model, values, phi) != extension(
                    sel_model, values, phi
                ):
                    ok = False
                    break
        back = selection_to_ordering(converted)
        for w in range(model.frame.n_worlds):
            for a in range(model.frame.n_worlds):
                for b in range(model.frame.n_worlds):
                    in_r = bool(model.frame.r[w] & (1 << a)) and bool(
                        model.frame.r[w] & (1 << b)
                    )
                    want = model.frame.leq(w, a, b) if in_r else False
                    if back.leq(w, a, b) != want:
                        ok = False
        if not ok:
            break
    _report(8, "200 random Stalnakerian ordering models agree with their "
               "selection conversions on a 50-formula corpus, and the "
               "double conversion reproduces the orders", ok, t0)


def _assignments(fv, nd):
    import itertools

    for values in itertools.product(range(nd), repeat=len(fv)):
        yield dict(zip(fv, values))


def test_criterion_09_mod_proof_and_mutations():
    t0 = time.time()
    script = load_proof(json.loads((FIXTURES / "mod_qc2.json").read_text()))
    ok = verify_proof(script).accepted
    for k in range(1, len(script.lines) + 1):
        verdict = verify_proof(mutate_script(script, k))
        ok = ok and not verdict.accepted and verdict.line == k
    _report(9, f"the shipped {len(script.lines)}-line derivation of "
               f"box phi -> (psi > phi) verifies and every single-line "
               f"mutation is rejected at its line", ok, t0)


def test_criterion_10_oracle_agreement():
    t0 = time.time()
    rng = random.Random(10)
    m = 6
    ok = True
    diagnostics = 0
    checked = 0
    for _ in range(500):
        phi = random_formula(
            rng, max_size=9, predicates=(F,), variables=(x, y)
        )
        fv = sorted(free_variables(phi), key=lambda v: v.index)
        g = {v: rng.randint(-m, -1) for v in fv}
        n = m + size(phi) + 2
        for w in [MINUS_INF] + list(range(-m, 0)):
            try:
                want = eval_k(phi, w, g)
            except StabilizationError:
                diagnostics += 1
                ok = False
                continue
            for extra in (0, 1, 2):
                checked += 1
                if eval_truncated(n + extra, phi, w, g) != want:
                    ok = False
    ok = ok and diagnostics == 0
    _report(10, f"symbolic evaluation agrees with the truncation oracles "
                f"on a 500-formula corpus ({checked} comparisons, "
                f"{diagnostics} stabilization diagnostics)", ok, t0)


def test_criterion_11_compactness_family():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        outcome = compactness_witness(n)
        ok = ok and outcome.found
        if outcome.found:
            model = outcome.witness["model"]
            for phi in compactness_prefix(n):
                ok = ok and evaluate(model, 0, {}, phi)
    _report(11, "the compactness-failure prefixes up to n=5 all have "
                "replayed Stalnakerian pointed models", ok, t0)
