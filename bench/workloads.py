"""The three benchmark workloads, their inputs and their recorded answers.

Each workload has a ``setup(seed)`` that builds every input from the seed
(the program under test receives only these inputs) and a ``run(inputs,
tally)`` that is the timed pass.  A pass calls only the public functions of
``condlog``, through module attributes, so that the traced run can rebind
them.  Every operation (one sweep or one check call) goes through the
``Tally``: an exception, a wrong verdict or a work counter that differs
from the recorded value fails the operation.

- ``k_pool`` reuses a few distinct denotations over large formula pools:
  the symbolic engine for K and its caches, never the finite evaluator.
- ``frame_sweep`` reuses six instance formulas over every enumerated frame
  and interpretation: the finite evaluator, frame conditions and frame
  enumeration, never K.
- ``mixed_checks`` builds many distinct small formulas, each used once or a
  few times, so most cache lookups miss: parser, matchers, proof checking,
  file formats, conversions and single K evaluations.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from condlog import (
    corpus,
    fileformats,
    frameprops,
    hilbert,
    kmodel,
    parser,
    search,
    semantics,
    syntax,
)
from condlog.syntax import F, Lang, Predicate, Variable

FIXTURES = Path(__file__).resolve().parent / "fixtures"

X, Y, Z = Variable(0), Variable(1), Variable(2)


class Tally:
    """Operations attempted and failed, work items and exact counters."""

    MAX_REPORTED = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.items = 0
        self.counters: dict[str, float] = {}

    def check(self, name: str, thunk) -> None:
        """Run one operation; it passes when ``thunk()`` returns True."""
        self.attempted += 1
        try:
            ok = thunk() is True
            reason = "wrong verdict"
        except Exception as err:  # an operation that raises is a failed one
            ok = False
            reason = f"raised {err!r}"
        if not ok:
            self._fail(f"{name}: {reason}")

    def expect(self, name: str, got: dict, want: dict) -> None:
        """One operation whose reported counters must equal the recorded ones."""
        self.attempted += 1
        if got != want:
            diff = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
            self._fail(f"{name}: got != recorded {diff}")

    def raised(self, name: str, err: Exception) -> None:
        self.attempted += 1
        self._fail(f"{name}: raised {err!r}")

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.MAX_REPORTED:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# k_pool: cem_sweep then qc2_axiom_sweep on three pool configurations.

K_POOL_CONFIGS = ((6, 2, False), (6, 2, True), (5, 3, True))
K_POOL_SAMPLES = 200

# (max_size, max_vars, with_identity) -> recorded SweepReport counters.  The
# seed only drives the sampled pairs, so none of these depends on it.
K_POOL_RECORDED = {
    (6, 2, False): {
        "cem": (4424, 16, 256, 2048, 200),
        "qc2": (4424, 16, 7452, 7652, 400),
    },
    (6, 2, True): {
        "cem": (10560, 16, 256, 2048, 200),
        "qc2": (10560, 16, 11268, 11468, 400),
    },
    (5, 3, True): {
        "cem": (11622, 30, 900, 6300, 200),
        "qc2": (11622, 30, 40224, 40424, 400),
    },
}
_SWEEP_FIELDS = (
    "pool_size",
    "distinct_denotations",
    "pairs_checked",
    "points_checked",
    "direct_samples",
)


def setup_k_pool(seed: int) -> list:
    rng = random.Random(seed)
    return [(config, rng.randrange(1 << 30)) for config in K_POOL_CONFIGS]


def run_k_pool(inputs: list, tally: Tally) -> None:
    for (max_size, max_vars, ident), sweep_seed in inputs:
        recorded = K_POOL_RECORDED[(max_size, max_vars, ident)]
        for kind, sweep, samples_arg in (
            ("cem", kmodel.cem_sweep, "direct_samples"),
            ("qc2", kmodel.qc2_axiom_sweep, "rule_samples"),
        ):
            name = f"{kind}_sweep({max_size}, {max_vars}, identity={ident})"
            try:
                report = sweep(
                    max_size,
                    max_vars,
                    with_identity=ident,
                    seed=sweep_seed,
                    jobs=1,
                    **{samples_arg: K_POOL_SAMPLES},
                )
            except Exception as err:
                tally.raised(name, err)
                continue
            got = {f: getattr(report, f) for f in _SWEEP_FIELDS}
            got["ok"] = report.ok
            want = dict(zip(_SWEEP_FIELDS, recorded[kind]), ok=True)
            tally.expect(name, got, want)
            tally.items += report.pool_size
            tally.count("kmodel.pool_size", report.pool_size)
            tally.count("kmodel.distinct_denotations", report.distinct_denotations)
            tally.count("kmodel.points_checked", report.points_checked)


# ---------------------------------------------------------------------------
# frame_sweep: the descending-sequence sweep, its control run and the
# correspondence sweep.  Exhaustive, so it takes no seed.

DS_RECORDED = {"found": False, "frames": 7587, "points": 1211896}
CONTROL_RECORDED = {"found": True, "frames": 1098, "points": 13014, "replayed": True}
CORRESPONDENCE_RECORDED = {"frames": 167341, "agreeEverywhere": True}


def setup_frame_sweep(seed: int) -> dict:
    params = search.EnumerationParams
    return {
        "ds": params(
            max_worlds=3,
            max_domain=2,
            required_properties=frozenset({"weaklyStalnakerian"}),
        ),
        "control": params(
            max_worlds=2,
            max_domain=2,
            required_properties=frozenset({"Success", "Uniqueness"}),
        ),
        "correspondence": params(max_worlds=2, max_domain=1),
    }


def _replays(outcome) -> bool:
    """The control witness satisfies the formula and breaks Uniformity."""
    model = outcome.witness["model"]
    w = list(model.frame.world_names).index(outcome.witness["world"])
    holds = semantics.evaluate(model, w, {}, syntax.build_ds())
    uniform = frameprops.check_selection_props(model.frame).verdicts["Uniformity"]
    return holds and not uniform


def run_frame_sweep(inputs: dict, tally: Tally) -> None:
    for step, recorded in (("ds", DS_RECORDED), ("control", CONTROL_RECORDED)):
        name = f"ds_sweep[{step}]"
        try:
            outcome = search.ds_sweep(inputs[step])
            got = {
                "found": outcome.found,
                "frames": outcome.frames_enumerated,
                "points": outcome.points_checked,
            }
            if "replayed" in recorded:
                got["replayed"] = outcome.found and _replays(outcome)
        except Exception as err:
            tally.raised(name, err)
            continue
        tally.expect(name, got, recorded)
        tally.items += outcome.frames_enumerated
        tally.count("search.frames_enumerated", outcome.frames_enumerated)
        tally.count("search.points_checked", outcome.points_checked)

    name = "correspondence_sweep"
    try:
        rep = search.correspondence_sweep(inputs["correspondence"])
    except Exception as err:
        tally.raised(name, err)
        return
    got = {"frames": rep["framesChecked"], "agreeEverywhere": rep["agreeEverywhere"]}
    tally.expect(name, got, CORRESPONDENCE_RECORDED)
    tally.items += rep["framesChecked"]
    tally.count("search.frames_enumerated", rep["framesChecked"])


# ---------------------------------------------------------------------------
# mixed_checks: many distinct small formulas, each checked once or a few
# times.  Every verdict is checked against an oracle rather than a recorded
# value, so any seed works; the number of checks is fixed by the sizes below.

ROUNDTRIP_FORMULAS = 3000
INSTANCE_POOL = 200
INSTANCES_PER_SCHEMA = 370
K_FORMULAS = 400
K_SPREAD = 6
K_COST_CAP = 300
ORDERING_MODELS = 60
# The conversion formulas by number of free variables, in the shares that
# random formulas of size at most 8 have; each one is checked under every
# assignment, so its cost grows threefold with each free variable.
CONVERSION_FORMULAS = {0: 11, 1: 28, 2: 11}
# Operations of one pass before the count check: 3,000 round trips, 67
# schema slots over LOGICS times 370 instances, the derivation and its 17
# mutations, 400 K formulas times 20 checks, 61 criterion-03 checks, 60
# models times 53 checks, and criteria 01, 02 and 11.
MIXED_RECORDED_OPERATIONS = 39056


def setup_mixed_checks(seed: int) -> dict:
    rng = random.Random(seed)
    sub = [rng.randrange(1 << 30) for _ in range(4)]
    k_rng = random.Random(sub[2])
    k_cases = []
    while len(k_cases) < K_FORMULAS:
        phi = corpus.random_formula(k_rng, max_size=9, predicates=(F,), variables=(X, Y))
        n = K_SPREAD + syntax.size(phi) + 2
        if _truncation_cost(phi, n) > K_COST_CAP:
            continue
        fv = sorted(syntax.free_variables(phi), key=lambda v: v.index)
        g = {v: k_rng.randint(-K_SPREAD, -1) for v in fv}
        k_cases.append((phi, g, n))
    model_rng = random.Random(sub[3])
    return {
        "roundtrip": corpus.formula_corpus(
            sub[0], ROUNDTRIP_FORMULAS, 10, Lang.LEQ, variables=(X, Y, Z)
        ),
        "instance_pool": corpus.formula_corpus(sub[1], INSTANCE_POOL, 6, Lang.LEQ),
        "instance_seed": sub[1],
        "k_cases": k_cases,
        "models": [
            corpus.random_stalnakerian_ordering_model(model_rng, 4, 3)
            for _ in range(ORDERING_MODELS)
        ],
        "conversion_corpus": _conversion_corpus(sub[3]),
        "proof_doc": json.loads((FIXTURES / "mod_qc2.json").read_text()),
        "remark25_doc": json.loads((FIXTURES / "remark25.json").read_text()),
    }


def _truncation_cost(phi, n: int) -> int:
    """A static estimate of the work of evaluating ``phi`` in the truncation
    of size ``n``: a quantifier ranges over ``n`` elements and a conditional
    over ``n + 1`` worlds.  Formulas above ``K_COST_CAP`` are drawn again.
    Without the cap one formula of a seed could take half the time of all
    its K checks, so the pass time moved by a quarter from seed to seed;
    with it about one formula in four is drawn again."""
    if isinstance(phi, syntax.Forall):
        return n * _truncation_cost(phi.body, n)
    if isinstance(phi, syntax.Cond):
        return (n + 1) * (_truncation_cost(phi.left, n) + _truncation_cost(phi.right, n))
    if isinstance(phi, syntax.Imp):
        return 1 + _truncation_cost(phi.left, n) + _truncation_cost(phi.right, n)
    if isinstance(phi, syntax.Not):
        return 1 + _truncation_cost(phi.body, n)
    return 1


def _conversion_corpus(seed: int) -> list:
    """Random formulas, drawn until each count of free variables has its
    share in ``CONVERSION_FORMULAS``, so that their cost does not move with
    the seed."""
    rng = random.Random(seed)
    wanted = dict(CONVERSION_FORMULAS)
    formulas = []
    while any(wanted.values()):
        phi = corpus.random_formula(rng, 8)
        free = len(syntax.free_variables(phi))
        if wanted.get(free):
            wanted[free] -= 1
            formulas.append(phi)
    return formulas


def run_mixed_checks(inputs: dict, tally: Tally) -> None:
    _roundtrips(inputs["roundtrip"], tally)
    _axiom_instances(inputs["instance_pool"], inputs["instance_seed"], tally)
    _proof_and_mutations(inputs["proof_doc"], tally)
    _k_against_truncations(inputs["k_cases"], tally)
    _ds_in_k(tally)
    _ordering_models(inputs["models"], inputs["conversion_corpus"], tally)
    _remark25_and_compactness(inputs["remark25_doc"], tally)
    tally.expect(
        "mixed_checks operation count",
        {"operations": tally.attempted},
        {"operations": MIXED_RECORDED_OPERATIONS},
    )
    tally.items = tally.attempted


def _roundtrips(formulas, tally: Tally) -> None:
    for phi in formulas:
        tally.check(
            "print/parse round trip",
            lambda: syntax.alpha_equal(
                phi, parser.parse_formula(parser.print_formula(phi), Lang.LEQ)
            ),
        )
        tally.count("mixed.roundtrip_nodes", syntax.size(phi))


def _axiom_instances(pool, seed: int, tally: Tally) -> None:
    rng = random.Random(seed)
    for logic in hilbert.LOGICS.values():
        for schema in sorted(logic.axioms):
            for _ in range(INSTANCES_PER_SCHEMA):
                inst = hilbert.generate_instance(schema, rng, pool)
                tally.check(
                    f"{logic.name} schema {schema}",
                    lambda: hilbert.is_axiom_instance(schema, inst),
                )
                tally.count("mixed.instance_nodes", syntax.size(inst))


def _proof_and_mutations(doc: dict, tally: Tally) -> None:
    try:
        script = fileformats.load_proof(doc)
    except Exception as err:
        tally.raised("load_proof", err)
        return
    tally.check("shipped derivation", lambda: hilbert.verify_proof(script).accepted)
    for k in range(1, len(script.lines) + 1):

        def rejected_at_k() -> bool:
            verdict = hilbert.verify_proof(hilbert.mutate_script(script, k))
            return not verdict.accepted and verdict.line == k

        tally.check(f"mutation of line {k}", rejected_at_k)


def _k_against_truncations(cases, tally: Tally) -> None:
    """Criterion 10 shape.  At an integer world every truncation must agree
    with K.  At -inf a truncation can stably disagree, because it has a
    bottom element and K has none (criterion 03 shows such a formula), so
    there ``eval_k`` is checked against the -inf bit of ``denote_k``, and
    the truncations' disagreements are counted rather than failed."""

    def count_gaps(phi, g, n, want) -> bool:
        gaps = sum(
            kmodel.eval_truncated(n + extra, phi, kmodel.MINUS_INF, g) != want
            for extra in (0, 1, 2)
        )
        tally.count("mixed.truncation_gaps_at_minus_inf", gaps)
        return True

    for phi, g, n in cases:
        for w in [kmodel.MINUS_INF] + list(range(-K_SPREAD, 0)):
            try:
                want = kmodel.eval_k(phi, w, g)
            except Exception as err:
                tally.raised("eval_k", err)
                continue
            if w == kmodel.MINUS_INF:
                tally.check(
                    "eval_k against denote_k at -inf",
                    lambda: kmodel.denote_k(phi, g).contains(w) == want,
                )
                tally.check(
                    "eval_truncated at -inf", lambda: count_gaps(phi, g, n, want)
                )
                continue
            for extra in (0, 1, 2):
                tally.check(
                    "eval_k against eval_truncated",
                    lambda: kmodel.eval_truncated(n + extra, phi, w, g) == want,
                )


def _ds_in_k(tally: Tally) -> None:
    """Criterion 03: the descending-sequence formula holds at -inf in K;
    truncations agree at integer worlds and miss it only at -inf."""
    ds = syntax.build_ds()
    c1 = syntax.Exists(X, syntax.Top())
    c2 = syntax.Forall(X, syntax.Dia(syntax.Atom(F, (X,))))
    tally.check("ds at -inf", lambda: kmodel.eval_k(ds, kmodel.MINUS_INF, {}))
    for n in (20, 21, 22):
        for k in range(-(n - 2), 0):
            tally.check(
                "ds at integer worlds",
                lambda: kmodel.eval_truncated(n, ds, k, {}) == kmodel.eval_k(ds, k, {}),
            )
        tally.check(
            "truncation conjuncts at -inf",
            lambda: kmodel.eval_truncated(n, c1, kmodel.MINUS_INF, {})
            and kmodel.eval_truncated(n, c2, kmodel.MINUS_INF, {})
            and not kmodel.eval_truncated(n, ds, kmodel.MINUS_INF, {}),
        )


def _ordering_models(models, formulas, tally: Tally) -> None:
    """Criterion 08 shape, after a document round trip of each model."""
    for model in models:
        doc = fileformats.dump_model(model)
        text = json.dumps(doc)
        try:
            loaded = fileformats.load_model(json.loads(text))
        except Exception as err:
            tally.raised("load_model", err)
            continue
        tally.check(
            "model document round trip",
            lambda: fileformats.dump_model(loaded) == doc,
        )
        frame = loaded.frame
        tally.check(
            "random ordering is Stalnakerian",
            lambda: frameprops.check_ordering_props(frame).stalnakerian,
        )
        try:
            converted = semantics.ordering_to_selection(frame)
        except Exception as err:
            tally.raised("ordering_to_selection", err)
            continue
        sel_model = semantics.Model(converted, loaded.interp)
        for phi in formulas:
            tally.check(
                "conversion agreement",
                lambda: _same_extensions(loaded, sel_model, phi),
            )
        tally.check(
            "double conversion",
            lambda: _orders_agree(frame, semantics.selection_to_ordering(converted)),
        )
        tally.count("mixed.model_worlds", frame.n_worlds)


def _same_extensions(model, other, phi) -> bool:
    fv = sorted(syntax.free_variables(phi), key=lambda v: v.index)
    for values in itertools.product(range(model.frame.n_domain), repeat=len(fv)):
        g = dict(zip(fv, values))
        if semantics.extension(model, g, phi) != semantics.extension(other, g, phi):
            return False
    return True


def _orders_agree(frame, back) -> bool:
    n = frame.n_worlds
    for w, a, b in itertools.product(range(n), repeat=3):
        in_r = bool(frame.r[w] & (1 << a)) and bool(frame.r[w] & (1 << b))
        if back.leq(w, a, b) != (frame.leq(w, a, b) if in_r else False):
            return False
    return True


def _remark25_and_compactness(doc: dict, tally: Tally) -> None:
    """Criteria 01, 02 and 11."""
    try:
        model = fileformats.load_model(doc)
    except Exception as err:
        tally.raised("load_model", err)
        return

    def classification() -> bool:
        rep = frameprops.check_selection_props(model.frame)
        return (
            rep.weakly_stalnakerian
            and not rep.stalnakerian
            and not rep.verdicts["LA"]
            and rep.witnesses["LA"] == (0b10, 0)
            and frameprops.check_domain_props(model.frame).verdicts["GloballyConstant"]
        )

    p = syntax.Atom(Predicate(0, 1), (X,))
    tally.check("criterion 01", classification)
    tally.check(
        "criterion 02",
        lambda: semantics.evaluate(model, 0, {X: 0}, syntax.Box(p))
        and not semantics.evaluate(model, 1, {X: 0}, p),
    )
    for n in range(1, 6):

        def replayed() -> bool:
            outcome = search.compactness_witness(n)
            if not outcome.found:
                return False
            witness = outcome.witness["model"]
            return all(
                semantics.evaluate(witness, 0, {}, phi)
                for phi in search.compactness_prefix(n)
            )

        tally.check(f"criterion 11 at n={n}", replayed)


# ---------------------------------------------------------------------------

WORKLOADS = {
    "k_pool": (setup_k_pool, run_k_pool),
    "frame_sweep": (setup_frame_sweep, run_frame_sweep),
    "mixed_checks": (setup_mixed_checks, run_mixed_checks),
}
