import hashlib
import itertools
import random

import pytest

from condlog.hilbert import (
    LOGICS,
    RULES,
    SCHEMAS,
    AxiomInstance,
    ProofError,
    ProofLine,
    ProofScript,
    RuleApplication,
    check_rule,
    generate_instance,
    is_axiom_instance,
    is_tautology_instance,
    mod_theorem_proof,
    mutate_script,
    verify_proof,
    _check_axiom_11,
)
from condlog.syntax import (
    And,
    Atom,
    Bot,
    Box,
    Cond,
    Dia,
    EPred,
    Eq,
    Exists,
    F,
    Forall,
    Imp,
    Iff,
    Not,
    Or,
    Predicate,
    Variable,
    conj,
    substitute,
)

x, y, z = Variable(0), Variable(1), Variable(2)
G = Predicate(1, 1)
fx = Atom(F, (x,))
fy = Atom(F, (y,))
gx = Atom(G, (x,))
gy = Atom(G, (y,))


def test_tautology_instances():
    assert is_tautology_instance(Imp(fx, fx))
    assert is_tautology_instance(Or(Cond(fx, gx), Not(Cond(fx, gx))))
    assert not is_tautology_instance(Or(Cond(fx, gx), Cond(fx, Not(gx))))
    assert not is_tautology_instance(Imp(Box(fx), fx))


def test_cem_instance():
    phi = Or(Cond(fx, gx), Cond(fx, Not(gx)))
    assert is_axiom_instance("22", phi)
    # mismatched consequents are not an instance
    bad = Or(Cond(fx, gx), Cond(fx, Not(fy)))
    assert not is_axiom_instance("22", bad)


def test_universal_instantiation_instance():
    phi = Imp(Forall(x, fx), fy)
    assert is_axiom_instance("23", phi)
    # y = x works too
    assert is_axiom_instance("23", Imp(Forall(x, fx), fx))
    # with x not free in the body, any result formula equal to the body works
    assert is_axiom_instance("23", Imp(Forall(x, fy), fy))
    assert not is_axiom_instance("23", Imp(Forall(x, fx), gx))


def test_universal_instantiation_capture():
    # forall x exists y P(x,y): substituting y must rename the binder
    p2 = Predicate(0, 2)
    body = Exists(y, Atom(p2, (x, y)))
    inst = substitute(body, [(x, y)])
    assert is_axiom_instance("23", Imp(Forall(x, body), inst))


def test_mod_is_not_an_axiom():
    mod = Imp(Box(fx), Cond(gy, fx))
    for schema in sorted(LOGICS["QC2"].axioms):
        assert not is_axiom_instance(schema, mod), schema


def test_cso_instance_shape():
    phi = Imp(And(Cond(fx, gx), And(Cond(gx, fx), Cond(fx, fy))), Cond(gx, fy))
    assert is_axiom_instance("20", phi)


def test_axiom_24_side_condition():
    good = Imp(Forall(x, Cond(fy, gx)), Cond(fy, Forall(x, gx)))
    assert is_axiom_instance("24", good)
    bad = Imp(Forall(x, Cond(fx, gx)), Cond(fx, Forall(x, gx)))
    assert not is_axiom_instance("24", bad)


def test_identity_axioms():
    assert is_axiom_instance("28", Eq(x, x))
    assert not is_axiom_instance("28", Eq(x, y))
    assert is_axiom_instance("30", Imp(Not(Eq(x, y)), Box(Not(Eq(x, y)))))
    phi = Imp(Eq(x, y), Iff(fx, fy))
    assert is_axiom_instance("29", phi)
    assert not is_axiom_instance("29", Imp(Eq(x, y), Iff(fx, gx)))


def test_qst_substitution_axiom_direction():
    # F(s) & (F(s) > F(s)) with the occurrence outside the conditional
    # replaced; occurrences under > must stay put
    fsx = Atom(F, (x,))
    fst = Atom(F, (z,))
    before = And(fsx, Cond(fsx, fsx))
    after = And(fst, Cond(fsx, fsx))
    phi = Imp(Eq(x, z), Imp(before, after))
    assert is_axiom_instance("11", phi)
    # replacing inside the conditional is out
    bad_after = And(fst, Cond(fst, fsx))
    assert not is_axiom_instance("11", Imp(Eq(x, z), Imp(before, bad_after)))
    # zero replacements are allowed
    assert is_axiom_instance("11", Imp(Eq(x, z), Imp(before, before)))
    # the reverse direction, z replaced by x, is out
    assert not _check_axiom_11(Imp(Eq(x, z), Imp(after, before)))


def test_existence_axioms_both_spellings():
    primitive = Imp(And(Forall(x, fx), EPred(y)), fy)
    assert is_axiom_instance("23v", primitive)
    expansion = Imp(And(Forall(x, fx), Exists(z, Eq(y, z))), fy)
    assert is_axiom_instance("23v", expansion)
    assert is_axiom_instance("31c", Imp(EPred(x), Box(EPred(x))))
    assert is_axiom_instance("32c", Imp(Not(EPred(x)), Box(Not(EPred(x)))))


def test_modus_ponens():
    assert check_rule("25", [fx, Imp(fx, gx)], gx)
    assert check_rule("25", [Imp(fx, gx), fx], gx)
    assert not check_rule("25", [fx, Imp(gx, gx)], gx)


def test_rule_14():
    assert check_rule("14", [fx], Cond(gy, fx))
    assert not check_rule("14", [fx], Cond(gy, gy))


def test_rule_15():
    # from psi -> phi infer psi -> forall x phi, unless x is free in psi
    assert check_rule("15", [Imp(gy, fx)], Imp(gy, Forall(x, fx)))
    assert not check_rule("15", [Imp(gx, fx)], Imp(gx, Forall(x, fx)))


def test_rule_26_nary():
    phi = fx
    psis = [gx, gy, fy]
    spine = And(psis[0], And(psis[1], psis[2]))
    premise = Imp(spine, fy)
    conclusion = Imp(
        And(Cond(phi, psis[0]), And(Cond(phi, psis[1]), Cond(phi, psis[2]))),
        Cond(phi, fy),
    )
    assert check_rule("26", [premise], conclusion)
    # wrong common antecedent
    bad = Imp(
        And(Cond(phi, psis[0]), And(Cond(gy, psis[1]), Cond(phi, psis[2]))),
        Cond(phi, fy),
    )
    assert not check_rule("26", [premise], bad)


def test_rule_27_side_condition():
    # from G(y) -> F(y) one may not generalize when y is free in the premise
    # left side; with a fresh witness it goes through
    premise = Imp(gy, fy)
    conclusion = Imp(gy, Forall(x, fx))
    assert not check_rule("27", [premise], conclusion)
    premise2 = Imp(gx, fy)
    conclusion2 = Imp(gx, Forall(y, fy))
    # y free in psi? psi = G(x): no; y not free in forall y F(y): fine
    assert check_rule("27", [premise2], conclusion2)


def test_rule_16_spine_splits():
    # from a > (b > phi) infer a > (b > forall x phi), x fresh
    phi = fy
    premise = Cond(gy, Cond(fy, phi))
    conclusion = Cond(gy, Cond(fy, Forall(x, phi)))
    assert check_rule("16", [premise], conclusion)
    # empty vector: plain universal generalization
    assert check_rule("16", [fy], Forall(x, fy))
    # x free in an antecedent blocks it
    bad_premise = Cond(fx, phi)
    bad_conclusion = Cond(fx, Forall(x, phi))
    assert not check_rule("16", [bad_premise], bad_conclusion)


def test_rule_17():
    # from a > (phi > t != x) infer a > ~phi
    phi = fy
    premise = Cond(gy, Cond(phi, Not(Eq(z, x))))
    conclusion = Cond(gy, Not(phi))
    assert check_rule("17", [premise], conclusion)
    # x free in phi blocks it
    premise2 = Cond(gy, Cond(fx, Not(Eq(z, x))))
    conclusion2 = Cond(gy, Not(fx))
    assert not check_rule("17", [premise2], conclusion2)


def test_rule_27v():
    # psi -> (a > (E(y) -> phi[y/x]))  gives  psi -> (a > forall x phi)
    psi = gx
    alpha = fx
    premise = Imp(psi, Cond(alpha, Imp(EPred(y), fy)))
    conclusion = Imp(psi, Cond(alpha, Forall(z, Atom(F, (z,)))))
    assert check_rule("27v", [premise], conclusion)
    # y free in psi blocks it
    premise2 = Imp(gy, Cond(alpha, Imp(EPred(y), fy)))
    conclusion2 = Imp(gy, Cond(alpha, Forall(z, Atom(F, (z,)))))
    assert not check_rule("27v", [premise2], conclusion2)


def test_mod_proof_verifies():
    script = mod_theorem_proof()
    verdict = verify_proof(script)
    assert verdict.accepted, verdict
    assert len(script.lines) >= 2
    mod = script.lines[-1].formula
    assert mod == Imp(Cond(Not(fx), Bot()), Cond(gy, fx))


def test_mod_proof_mutations_rejected():
    script = mod_theorem_proof()
    for k in range(1, len(script.lines) + 1):
        verdict = verify_proof(mutate_script(script, k))
        assert not verdict.accepted, k
        assert verdict.line == k, (k, verdict)


def test_constant_domain_instantiation_rejected_in_variable_logic():
    phi = Imp(Forall(x, fx), fy)
    script = ProofScript("QC2v=", (ProofLine(phi, AxiomInstance("23")),))
    verdict = verify_proof(script)
    assert not verdict.accepted
    assert "not in QC2v=" in verdict.reason


def test_language_enforcement():
    script = ProofScript("QC2", (ProofLine(Eq(x, x), AxiomInstance("28")),))
    verdict = verify_proof(script)
    assert not verdict.accepted


def test_premise_indices_checked():
    with pytest.raises(Exception):
        ProofScript(
            "QC2",
            (ProofLine(fx, RuleApplication("25", (1, 2))),),
        )


def test_empty_script_accepted():
    assert verify_proof(ProofScript("QC2", ())).accepted


def test_monotone_verification():
    script = mod_theorem_proof()
    extended = ProofScript(
        script.logic,
        script.lines + (ProofLine(Imp(fx, fx), AxiomInstance("18")),),
    )
    assert verify_proof(extended).accepted


def test_generated_instances_accepted():
    rng = random.Random(3)
    pool = [fx, fy, gx, gy, Not(fx), Imp(fx, gy), Cond(fx, gx), Forall(x, fx)]
    for logic in LOGICS.values():
        for schema in sorted(logic.axioms):
            for _ in range(20):
                inst = generate_instance(schema, rng, pool)
                assert is_axiom_instance(schema, inst), (schema, inst)


def test_soundness_spot_check():
    """Formulas with accepted proofs in the base logic hold on enumerated
    weakly Stalnakerian globally constant frames."""
    from condlog.search import EnumerationParams, enumerate_frames
    from condlog.semantics import frame_valid

    mod = mod_theorem_proof().lines[-1].formula
    params = EnumerationParams(
        max_worlds=2,
        max_domain=2,
        required_properties=frozenset({"weaklyStalnakerian", "GloballyConstant"}),
    )
    count = 0
    for frame in enumerate_frames(params):
        assert frame_valid(frame, mod).valid, frame
        count += 1
    assert count > 0


def _pinned_pool():
    z, u = Variable(2), Variable(3)
    r2 = Predicate(2, 2)
    return [
        fx,
        fy,
        Atom(G, (z,)),
        Atom(r2, (x, u)),
        Eq(x, y),
        EPred(z),
        Not(fx),
        Imp(fx, gy),
        Cond(fx, gx),
        Forall(x, fx),
        Forall(y, Cond(fy, Atom(r2, (x, y)))),
        Exists(u, Imp(Eq(u, z), Atom(G, (u,)))),
    ]


def _all_schemas():
    return sorted(set().union(*(logic.axioms for logic in LOGICS.values())))


def _pinned_instances():
    pool = _pinned_pool()
    for schema in _all_schemas():
        for seed in range(10):
            rng = random.Random(seed)
            for _ in range(25):
                yield schema, generate_instance(schema, rng, pool)


def test_generated_instances_pinned():
    """Instances drawn for every schema of every logic, over fixed seeds and
    a fixed pool, are the recorded ones and are accepted."""
    import hashlib

    digest = hashlib.sha256()
    for schema, inst in _pinned_instances():
        digest.update(repr(inst).encode() + b"\n")
        assert is_axiom_instance(schema, inst), (schema, inst)
    assert digest.hexdigest() == (
        "83f7302bc4b411f0a6deb8a8780eac7b944ebfc44510a67c5c526fb169588947"
    )


def test_generated_instance_texts_pinned():
    """2,000 instances drawn from one seeded generator, the schemas taken in
    turn, print to the recorded text: every draw of the generator, the
    variable draws included, consumes the generator as it always has."""
    from condlog.parser import print_formula

    rng = random.Random(23)
    pool = _pinned_pool()
    schemas = sorted(SCHEMAS)
    digest = hashlib.sha256()
    for k in range(2000):
        inst = generate_instance(schemas[k % len(schemas)], rng, pool)
        digest.update(print_formula(inst).encode() + b"\n")
    assert digest.hexdigest() == (
        "d28ca94a109380f9b1609771f157b0f427c12fe9f078e5e8ec57b1d1885d759a"
    )


def test_cross_schema_verdicts_pinned():
    """Every schema's verdict on instances drawn for every schema, and on
    each with y renamed to x, matches the recorded set of acceptances."""
    import hashlib

    schemas = _all_schemas()
    digest = hashlib.sha256()
    accepted = 0
    for k, (drawn_for, inst) in enumerate(_pinned_instances()):
        if k % 5:
            continue
        for target in (inst, substitute(inst, [(y, x)])):
            for schema in schemas:
                if is_axiom_instance(schema, target):
                    accepted += 1
                    digest.update(f"{k} {drawn_for} {schema} {target!r}\n".encode())
    assert (accepted, digest.hexdigest()) == (
        3410,
        "6c2346fbed122e86884378800e650e1d749c2c97d77f4e6c6fd33a7c82aaa6a3",
    )


def test_distinctness_side_conditions():
    """Schemas 8 and 9 need two different variables, and the identity
    spelling of E(v), exists w (v = w), needs w other than v."""
    assert is_axiom_instance("8", Imp(Forall(x, fx), Imp(Exists(x, Box(Eq(x, y))), fy)))
    assert not is_axiom_instance(
        "8", Imp(Forall(x, fx), Imp(Exists(x, Box(Eq(x, x))), fx))
    )
    assert is_axiom_instance(
        "9", Imp(Forall(x, Imp(Exists(y, Box(Eq(y, x))), fx)), Forall(x, fx))
    )
    assert not is_axiom_instance(
        "9", Imp(Forall(x, Imp(Exists(x, Box(Eq(x, x))), fx)), Forall(x, fx))
    )
    e_x, not_e_x = Exists(y, Eq(x, y)), Exists(x, Eq(x, x))
    assert is_axiom_instance("31c", Imp(e_x, Box(e_x)))
    assert not is_axiom_instance("31c", Imp(not_e_x, Box(not_e_x)))
    assert is_axiom_instance("32c", Imp(Not(e_x), Box(Not(e_x))))
    assert not is_axiom_instance("32c", Imp(Not(not_e_x), Box(Not(not_e_x))))
    assert not is_axiom_instance(
        "23v", Imp(And(Forall(x, fx), Exists(y, Eq(y, y))), fy)
    )
    # the same two spellings in the variable-domain generalisation rule
    conclusion = Imp(gx, Cond(fx, Forall(z, Atom(F, (z,)))))
    assert check_rule(
        "27v", [Imp(gx, Cond(fx, Imp(Exists(z, Eq(y, z)), fy)))], conclusion
    )
    assert not check_rule(
        "27v", [Imp(gx, Cond(fx, Imp(Exists(y, Eq(y, y)), fy)))], conclusion
    )


RULE_IDS = ("13", "14", "15", "16", "17", "25", "26", "27", "27v")


def _rule_verdicts(cases):
    """Each rule's accepted count over (premises, conclusion) cases, and the
    sha256 of all verdicts as '0'/'1', rule by rule in RULE_IDS order."""
    digest, accepted = hashlib.sha256(), {}
    for rule in RULE_IDS:
        accepted[rule] = 0
        for premises, conclusion in cases:
            ok = check_rule(rule, premises, conclusion)
            accepted[rule] += ok
            digest.update(b"1" if ok else b"0")
    return accepted, digest.hexdigest()


def test_rule_verdicts_on_the_derivation_corpus_pinned():
    """Every rule on every 0-, 1- and 2-premise citation among the distinct
    formulas of the necessity proof and its mutants."""
    script = mod_theorem_proof()
    scripts = [script] + [mutate_script(script, k) for k in range(1, 18)]
    forms = list(dict.fromkeys(line.formula for s in scripts for line in s.lines))
    assert len(forms) == 34
    cases = [
        (list(premises), conclusion)
        for k in range(3)
        for premises in itertools.product(forms, repeat=k)
        for conclusion in forms
    ]
    assert len(cases) == 40_494
    assert _rule_verdicts(cases) == (
        {"13": 14, "14": 0, "15": 0, "16": 1, "17": 0, "25": 14, "26": 2, "27": 1, "27v": 0},
        "76fd737a7995d1b9df75d4c359bd1abb21a6c7eb6a545e07ef4167dfa714d805",
    )


def nested_cond(antecedents, body):
    """Right-nested conditional a1 > (a2 > (... > body)); empty vector is body."""
    out = body
    for a in reversed(antecedents):
        out = Cond(a, out)
    return out


def _rule_applications():
    """(rule, premises, conclusion) shaped for each rule from a fixed pool
    and seed; a drawn variable can break a freeness condition."""
    rng = random.Random(7)
    pool, names, w = _pinned_pool(), (x, y, z, Variable(3)), Variable(4)
    for _ in range(30):
        p, q, psi, *parts = rng.sample(pool, 3 + rng.randint(1, 3))
        u, v = rng.choice(names), rng.choice(names)
        alphas = rng.sample(pool, rng.randrange(3))
        instance = substitute(p, [(u, v)])
        existence = rng.choice((EPred(v), Exists(w, Eq(v, w))))
        yield "13", [p, Imp(p, q)], q
        yield "25", [Imp(p, q), p], q
        yield "14", [p], Cond(psi, p)
        yield "15", [Imp(psi, p)], Imp(psi, Forall(u, p))
        yield "16", [nested_cond(alphas, p)], nested_cond(alphas, Forall(u, p))
        yield "17", [nested_cond(alphas, Cond(p, Not(Eq(v, u))))], nested_cond(
            alphas, Not(p)
        )
        yield "26", [Imp(conj(parts), q)], Imp(
            conj([Cond(psi, e) for e in parts]), Cond(psi, q)
        )
        yield "27", [Imp(psi, instance)], Imp(psi, Forall(u, p))
        yield "27v", [Imp(psi, nested_cond(alphas, Imp(existence, instance)))], Imp(
            psi, nested_cond(alphas, Forall(u, p))
        )


def test_rule_verdicts_on_generated_applications_pinned():
    """Every rule on applications drawn for every rule, and on each with y
    renamed to x in the conclusion; each rule accepts some and rejects
    some."""
    cases = [
        (premises, target)
        for _, premises, conclusion in _rule_applications()
        for target in (conclusion, substitute(conclusion, [(y, x)]))
    ]
    accepted, digest = _rule_verdicts(cases)
    assert all(0 < n < len(cases) for n in accepted.values())
    assert (accepted, digest) == (
        {"13": 106, "14": 56, "15": 47, "16": 36, "17": 26, "25": 106, "26": 41,
         "27": 53, "27v": 18},
        "1e75f48bb591a92cc2457b144608ac0f8567328d0dedad1deea51db79a024e6f",
    )


def test_rules_cite_exactly_their_premise_count():
    """An accepted application with a premise dropped or repeated is
    rejected, and an unknown rule id raises."""
    checked = set()
    for rule, premises, conclusion in _rule_applications():
        if check_rule(rule, premises, conclusion):
            checked.add(rule)
            assert len(premises) == RULES[rule][0]
            assert not check_rule(rule, premises[:-1], conclusion), rule
            assert not check_rule(rule, premises + premises[:1], conclusion), rule
    assert checked == set(RULES) == set(RULE_IDS)
    for premises in ([], [fx], [fx, fx]):
        with pytest.raises(ProofError, match="unknown rule id"):
            check_rule("18", premises, fx)


def test_logics_name_only_known_schemas_and_rules():
    for logic in LOGICS.values():
        assert logic.axioms <= SCHEMAS.keys(), logic.name
        assert logic.rules <= RULES.keys(), logic.name


@pytest.mark.parametrize(
    "text, instance",
    [
        ("x = y -> ((forall z. F(x)) -> forall z. F(y))", True),
        ("x = y -> (z = x -> z = y)", True),
        # under L= E(z) is exists x (z = x): its binder is not the s of s = t
        ("x = y -> (E(z) & F(x) -> E(z) & F(y))", True),
        # the replaced occurrence is bound
        ("x = y -> ((forall x. F(x)) -> forall x. F(y))", False),
        # the replacement is captured
        ("x = y -> ((forall y. F(x)) -> forall y. F(y))", False),
        # the binders differ
        ("x = y -> ((forall z. F(x)) -> forall x1. F(y))", False),
    ],
)
def test_substitution_axiom_under_binders(text, instance):
    from condlog.parser import parse_formula
    from condlog.syntax import Lang

    assert is_axiom_instance("11", parse_formula(text, Lang.LEQ)) is instance
