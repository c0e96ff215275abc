"""Axiom-schema instance recognition and Hilbert proof verification.

Seven logics share two tables, ``SCHEMAS`` of axiom schemas and ``RULES``
of inference rules:

* the quantified conditional logic of Stalnaker and Thomason (``QST``,
  in the identity language, items 1-17);
* the constant-domain base logic ``QC2`` (items 18-27) and its identity
  extension ``QC2=`` (28-30);
* variable-domain variants ``QC2vE``/``QC2v=`` (23v, 27v in place of 23,
  27) and locally-constant variants ``QC2cE``/``QC2c=`` (adding 31c, 32c).

Schemas are matched structurally: patterns are ordinary formula trees
containing metavariable leaves, built with the same derived-connective
constructors as real formulas, so box/diamond/conjunction patterns expand
exactly as instances do.  Substitution schemas and rules search for a
witnessing substitution and compare up to renaming of bound variables.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .syntax import (
    And,
    Atom,
    Box,
    Cond,
    Dia,
    EPred,
    Eq,
    Exists,
    F,
    Forall,
    Formula,
    FormulaError,
    Iff,
    Imp,
    Lang,
    Not,
    Or,
    Predicate,
    Variable,
    alpha_equal,
    conj,
    free_variables,
    language,
    ordered_free_variables,
    substitute,
)


class ProofError(Exception):
    pass


# ---------------------------------------------------------------------------
# Patterns.


@dataclass(frozen=True, repr=False, eq=False)
class FMeta(Formula):
    """Formula metavariable."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True, repr=False)
class VMeta(Variable):
    """Variable metavariable; matches individual variables only."""

    name: str = ""

    def __post_init__(self) -> None:
        pass  # the placeholder index needs no validation

    def __repr__(self) -> str:
        return f"?{self.name}"


def fmeta(name: str) -> FMeta:
    return FMeta(name)

def vmeta(name: str) -> VMeta:
    return VMeta(-1, name)


@dataclass
class Bindings:
    formulas: dict[str, Formula]
    variables: dict[str, Variable]

    @staticmethod
    def empty() -> "Bindings":
        return Bindings({}, {})


def match(pattern: Formula, target: Formula, b: Optional[Bindings] = None) -> Optional[Bindings]:
    """Structural match binding metavariables; None when there is none."""
    if b is None:
        b = Bindings.empty()
    if _match(pattern, target, b):
        return b
    return None


def _match_var(pattern: Variable, target: Variable, b: Bindings) -> bool:
    if isinstance(pattern, VMeta):
        if isinstance(target, VMeta):
            return False
        bound = b.variables.get(pattern.name)
        if bound is None:
            b.variables[pattern.name] = target
            return True
        return bound == target
    return pattern == target


def _match(pattern: Formula, target: Formula, b: Bindings) -> bool:
    if isinstance(pattern, FMeta):
        bound = b.formulas.get(pattern.name)
        if bound is None:
            b.formulas[pattern.name] = target
            return True
        return bound == target
    if type(pattern) is not type(target):
        return False
    if isinstance(pattern, Atom):
        return pattern.pred == target.pred and all(
            _match_var(p, t, b) for p, t in zip(pattern.args, target.args)
        )
    if isinstance(pattern, Eq):
        return _match_var(pattern.left, target.left, b) and _match_var(
            pattern.right, target.right, b
        )
    if isinstance(pattern, EPred):
        return _match_var(pattern.arg, target.arg, b)
    if isinstance(pattern, Not):
        return _match(pattern.body, target.body, b)
    if isinstance(pattern, (Imp, Cond)):
        return _match(pattern.left, target.left, b) and _match(
            pattern.right, target.right, b
        )
    if isinstance(pattern, Forall):
        return _match_var(pattern.var, target.var, b) and _match(
            pattern.body, target.body, b
        )
    raise ProofError(f"bad pattern node {pattern!r}")


# ---------------------------------------------------------------------------
# Tautology recognition: truth-table over maximal non-truth-functional
# subformulas (negation and material implication are the only core
# truth-functional connectives).

MAX_TAUTOLOGY_ATOMS = 16


def _boolean_skeleton(phi: Formula) -> tuple[dict[Formula, int], list[Formula]]:
    """The boolean atoms of phi, told apart by ``==`` and numbered, and its
    distinct nodes (by identity) down to the atoms, children first."""
    atoms: dict[Formula, int] = {}
    nodes: dict[int, Formula] = {}

    def visit(f: Formula) -> None:
        if id(f) not in nodes:
            if isinstance(f, Not):
                visit(f.body)
            elif isinstance(f, Imp):
                visit(f.left)
                visit(f.right)
            else:
                atoms.setdefault(f, len(atoms))
            nodes[id(f)] = f

    visit(phi)
    return atoms, list(nodes.values())


def is_tautology_instance(phi: Formula) -> bool:
    """A column holds a node's truth value in all 2^k rows of the table as
    the bits of one int (row r reads atom i as bit i of r), so the table
    takes one step per distinct node."""
    atoms, nodes = _boolean_skeleton(phi)
    if len(atoms) > MAX_TAUTOLOGY_ATOMS:
        raise ProofError(f"tautology check ceiling: {len(atoms)} boolean atoms")
    full = (1 << (1 << len(atoms))) - 1
    column: dict[int, int] = {}
    for f in nodes:
        if isinstance(f, Not):
            column[id(f)] = full ^ column[id(f.body)]
        elif isinstance(f, Imp):
            column[id(f)] = (full ^ column[id(f.left)]) | column[id(f.right)]
        else:  # runs of 2^i false rows then 2^i true rows
            run = 1 << atoms[f]
            column[id(f)] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
    return column[id(phi)] == full


# ---------------------------------------------------------------------------
# Axiom schemas and rules.  One schema table drives both the matcher and
# the generator; the rule table gives each rule's premise count and test.

a_, b_, c_ = fmeta("a"), fmeta("b"), fmeta("c")
x_, y_, t_, w_ = vmeta("x"), vmeta("y"), vmeta("t"), vmeta("w")


def _existence(v: VMeta) -> tuple[Formula, Formula]:
    """E(v) as a primitive, or its identity-language expansion
    exists w (v = w), which needs w distinct from v."""
    return EPred(v), Exists(w_, Eq(v, w_))


@dataclass(frozen=True)
class Schema:
    """An axiom schema.

    A formula is an instance when it matches one of ``patterns`` and the
    side conditions hold: the metavariables of each ``distinct`` pair bind
    different variables (one the pattern lacks binds none), in each
    ``not_free`` pair the variable is not free in the formula, each
    ``derived`` (c, a, x, y) has c = a[y/x] up to renaming of bound
    variables (for a y the pattern lacks, some y among x and the free
    variables of c), and ``test`` accepts the formula.  ``generate_instance``
    fills the same metavariables, with ``hook`` redrawing some of them."""

    patterns: tuple[Formula, ...]
    derived: tuple[tuple[str, str, str, str], ...] = ()
    distinct: tuple[tuple[str, str], ...] = ()
    not_free: tuple[tuple[str, str], ...] = ()
    test: Optional[Callable[[Formula], bool]] = None
    hook: Optional[Callable[[random.Random, dict], None]] = None


def _holds(schema: Schema, m: Bindings, phi: Formula) -> bool:
    v, f = m.variables, m.formulas
    if any(v.get(left) == v.get(right) for left, right in schema.distinct):
        return False
    if any(v[x] in free_variables(f[a]) for x, a in schema.not_free):
        return False
    for c, a, x, y in schema.derived:
        ys = [v[y]] if y in v else _ui_candidates(f[c], v[x])
        if not _is_substitution(f[c], f[a], v[x], ys):
            return False
    return schema.test is None or schema.test(phi)


def _schema_match(schema: Schema, phi: Formula) -> Optional[Bindings]:
    """The bindings of the first pattern phi matches with the side
    conditions holding, or None."""
    for pattern in schema.patterns:
        m = match(pattern, phi)
        if m is not None and _holds(schema, m, phi):
            return m
    return None


def _ui_candidates(consequent: Formula, var: Variable) -> list[Variable]:
    return list(dict.fromkeys((var, *ordered_free_variables(consequent))))


def _is_substitution(
    c: Formula, a: Formula, x: Variable, ys: Sequence[Variable]
) -> bool:
    """c = a[y/x] up to renaming of bound variables, for some y in ys."""
    return any(alpha_equal(substitute(a, [(x, y)]), c) for y in ys)


def _free_in_none(v: Variable, *formulas: Formula) -> bool:
    return not any(v in free_variables(f) for f in formulas)


def _check_axiom_11(phi: Formula) -> bool:
    """The substitution axiom s = t -> (a -> b): b results from a by
    replacing free occurrences of s with t, never inside a conditional.
    The published wording is garbled; this reads it as replacing s by t."""
    m = match(SCHEMAS["11"].patterns[0], phi)  # s = t -> (a -> b), s bound to x
    if m is None:
        return False
    return _replaceable_outside_conditionals(
        m.formulas["a"], m.formulas["b"], m.variables["x"], m.variables["t"]
    )


def _replaceable_outside_conditionals(
    before: Formula, after: Formula, old: Variable, new: Variable
) -> bool:
    """after arises from before by swapping old for new at zero or more free
    occurrences, none inside either argument of a conditional, with the
    replacement never captured."""

    def walk(p: Formula, q: Formula, frozen: bool, bound: frozenset[Variable]) -> bool:
        if type(p) is not type(q):
            return False
        if isinstance(p, Atom):
            if p.pred != q.pred:
                return False
            return all(
                _arg_ok(pa, qa, frozen, bound) for pa, qa in zip(p.args, q.args)
            )
        if isinstance(p, Eq):
            return _arg_ok(p.left, q.left, frozen, bound) and _arg_ok(
                p.right, q.right, frozen, bound
            )
        if isinstance(p, EPred):
            return _arg_ok(p.arg, q.arg, frozen, bound)
        if isinstance(p, Not):
            return walk(p.body, q.body, frozen, bound)
        if isinstance(p, Imp):
            return walk(p.left, q.left, frozen, bound) and walk(
                p.right, q.right, frozen, bound
            )
        if isinstance(p, Cond):
            # inside the scope of a modal: no replacements allowed
            return walk(p.left, q.left, True, bound) and walk(
                p.right, q.right, True, bound
            )
        if isinstance(p, Forall):
            if p.var != q.var:
                return False
            return walk(p.body, q.body, frozen, bound | {p.var})
        return False

    def _arg_ok(pa: Variable, qa: Variable, frozen: bool, bound: frozenset) -> bool:
        if pa == qa:
            return True
        return (
            not frozen
            and pa == old
            and qa == new
            and old not in bound  # the occurrence must be free
            and new not in bound  # and the replacement not captured
        )

    return walk(before, after, False, frozenset())


_DRAW_VARIABLES = tuple(Variable(i) for i in range(4))
# the candidates for each excluded variable, in _DRAW_VARIABLES order, so a
# draw consumes the generator as a draw from a filtered list would
_DRAW_WITHOUT = {
    v: tuple(u for u in _DRAW_VARIABLES if u != v) for v in _DRAW_VARIABLES
}


def _draw_var(rng: random.Random, exclude: Optional[Variable] = None) -> Variable:
    return rng.choice(_DRAW_WITHOUT.get(exclude, _DRAW_VARIABLES))


def _tautology_hook(rng: random.Random, env: dict) -> None:
    a, b = env["a"], env["b"]
    env["a"] = rng.choice(
        [Imp(a, Imp(b, a)), Or(a, Not(a)), Imp(Not(Not(a)), a), Imp(a, a)]
    )


def _substitution_hook(rng: random.Random, env: dict) -> None:
    # replace every free occurrence outside conditionals
    safe = Atom(F, (env["x"],))
    env["a"] = And(safe, Cond(safe, safe))
    env["b"] = And(Atom(F, (env["t"],)), Cond(safe, safe))


def _spine_pairs(
    p: Formula, c: Formula
) -> Iterator[tuple[tuple[Formula, ...], Formula, Formula]]:
    """(alphas, p', c') with p = alphas > p' and c = alphas > c', for each
    run of antecedents alphas that the two conditional spines share."""
    alphas: tuple[Formula, ...] = ()
    while True:
        yield alphas, p, c
        if not (isinstance(p, Cond) and isinstance(c, Cond) and p.left == c.left):
            return
        alphas, p, c = (*alphas, c.left), p.right, c.right


def _conjunct_readings(node: Formula) -> Iterator[list[Formula]]:
    """The conjuncts of a right-nested conjunction, read to each depth:
    [node], then [e1, rest], then [e1, e2, rest'] and so on."""
    parts = [node]
    yield parts
    while (m := match(And(a_, b_), node)) is not None:
        node = m.formulas["b"]
        parts = [*parts[:-1], m.formulas["a"], node]
        yield parts


# E(y) -> a, in either spelling of E
_EXISTENCE_IMPLICATION = Schema(
    tuple(Imp(e, a_) for e in _existence(y_)), distinct=(("y", "w"),)
)


def _modus_ponens(p: Formula, q: Formula, c: Formula) -> bool:
    return q == Imp(p, c) or p == Imp(q, c)


def _rule_15(p: Formula, c: Formula) -> bool:
    """From psi -> phi infer psi -> forall x phi, x not free in psi."""
    return (
        isinstance(c, Imp)
        and isinstance(c.right, Forall)
        and _free_in_none(c.right.var, c.left)
        and p == Imp(c.left, c.right.body)
    )


def _rule_16(p: Formula, c: Formula) -> bool:
    """From alphas > phi infer alphas > forall x phi, x free in no alpha."""
    return any(
        isinstance(core, Forall)
        and p_core == core.body
        and _free_in_none(core.var, *alphas)
        for alphas, p_core, core in _spine_pairs(p, c)
    )


def _rule_17(p: Formula, c: Formula) -> bool:
    """From alphas > (phi > t != x) infer alphas > ~phi, x free in neither
    phi nor any alpha."""
    for alphas, p_core, core in _spine_pairs(p, c):
        m = match(Cond(a_, Not(Eq(t_, x_))), p_core)
        if (
            m is not None
            and match(Not(a_), core, m) is not None
            and _free_in_none(m.variables["x"], m.formulas["a"], *alphas)
        ):
            return True
    return False


def _rule_26(p: Formula, c: Formula) -> bool:
    """Conditional closure: from psi1 & ... & psik -> chi infer
    (phi > psi1) & ... & (phi > psik) -> (phi > chi)."""
    if not (isinstance(c, Imp) and isinstance(c.right, Cond)):
        return False
    phi, chi = c.right.left, c.right.right
    return any(
        all(isinstance(d, Cond) and d.left == phi for d in conds)
        and p == Imp(conj([d.right for d in conds]), chi)
        for conds in _conjunct_readings(c.left)
    )


def _rule_27(p: Formula, c: Formula) -> bool:
    """From psi -> phi[y/x] infer psi -> forall x phi, y free in neither
    psi nor forall x phi."""
    m = match(Imp(a_, c_), p)
    if m is None or match(Imp(a_, Forall(x_, b_)), c, m) is None:
        return False
    quant, body = c.right, p.right
    ys = [y for y in _ui_candidates(body, quant.var) if _free_in_none(y, c.left, quant)]
    return _is_substitution(body, quant.body, quant.var, ys)


def _rule_27v(p: Formula, c: Formula) -> bool:
    """From psi -> (alphas > (E(y) -> phi[y/x])) infer
    psi -> (alphas > forall x phi), y free in none of psi, forall x phi and
    the alphas."""
    if not (isinstance(c, Imp) and isinstance(p, Imp) and p.left == c.left):
        return False
    for alphas, p_core, core in _spine_pairs(p.right, c.right):
        m = _schema_match(_EXISTENCE_IMPLICATION, p_core)
        if isinstance(core, Forall) and m is not None:
            y = m.variables["y"]
            if _free_in_none(y, c.left, core, *alphas) and _is_substitution(
                m.formulas["a"], core.body, core.var, [y]
            ):
                return True
    return False


_TAUTOLOGY = Schema((a_,), test=is_tautology_instance, hook=_tautology_hook)
_DETACHMENT = Schema((Imp(Cond(a_, b_), Imp(a_, b_)),))
_SELF_IDENTITY = Schema((Eq(x_, x_),))
_INSTANTIATION = ("c", "a", "x", "y")  # c = a[y/x]

SCHEMAS: dict[str, Schema] = {
    # -- Stalnaker-Thomason logic ------------------------------------
    "1": _TAUTOLOGY,
    "2": Schema((Imp(Box(Imp(a_, b_)), Imp(Box(a_), Box(b_))),)),
    "3": Schema((Imp(Box(Imp(a_, b_)), Cond(a_, b_)),)),
    "4": Schema((Imp(Dia(a_), Imp(Cond(a_, b_), Not(Cond(a_, Not(b_))))),)),
    "5": Schema((Imp(Cond(a_, Or(b_, c_)), Or(Cond(a_, b_), Cond(a_, c_))),)),
    "6": _DETACHMENT,
    "7": Schema(
        (Imp(And(Cond(a_, b_), Cond(b_, a_)), Imp(Cond(a_, c_), Cond(b_, c_))),)
    ),
    # forall x a -> (exists x box x=t -> a[t/x])
    "8": Schema(
        (Imp(Forall(x_, a_), Imp(Exists(x_, Box(Eq(x_, t_))), c_)),),
        derived=(("c", "a", "x", "t"),),
        distinct=(("x", "t"),),
    ),
    # forall x (exists y box y=x -> a) -> forall x a
    "9": Schema(
        (Imp(Forall(x_, Imp(Exists(y_, Box(Eq(y_, x_))), a_)), Forall(x_, a_)),),
        distinct=(("x", "y"),),
        hook=lambda rng, env: env.update(y=_draw_var(rng, exclude=env["x"])),
    ),
    "10": _SELF_IDENTITY,
    "11": Schema(
        (Imp(Eq(x_, t_), Imp(a_, b_)),),
        test=_check_axiom_11,
        hook=_substitution_hook,
    ),
    "12": Schema((Imp(Dia(Eq(x_, y_)), Box(Eq(x_, y_))),)),
    # -- base conditional logic ---------------------------------------
    "18": _TAUTOLOGY,
    "19": Schema((Cond(a_, a_),)),
    "20": Schema(
        (Imp(And(Cond(a_, b_), And(Cond(b_, a_), Cond(a_, c_))), Cond(b_, c_)),)
    ),
    "21": _DETACHMENT,
    "22": Schema((Or(Cond(a_, b_), Cond(a_, Not(b_))),)),
    # forall x a -> a[y/x]
    "23": Schema((Imp(Forall(x_, a_), c_),), derived=(_INSTANTIATION,)),
    # forall x (a > b) -> (a > forall x b), x not free in a
    "24": Schema(
        (Imp(Forall(x_, Cond(a_, b_)), Cond(a_, Forall(x_, b_))),),
        not_free=(("x", "a"),),
    ),
    # -- identity -----------------------------------------------------
    "28": _SELF_IDENTITY,
    # x=y -> (a <-> a[y/x])
    "29": Schema((Imp(Eq(x_, y_), Iff(a_, b_)),), derived=(("b", "a", "x", "y"),)),
    "30": Schema((Imp(Not(Eq(x_, y_)), Box(Not(Eq(x_, y_)))),)),
    # -- variable and locally constant domains ------------------------
    # (forall x a & E(y)) -> a[y/x]
    "23v": Schema(
        tuple(Imp(And(Forall(x_, a_), e), c_) for e in _existence(y_)),
        derived=(_INSTANTIATION,),
        distinct=(("y", "w"),),
    ),
    "31c": Schema(
        tuple(Imp(e, Box(e)) for e in _existence(x_)), distinct=(("x", "w"),)
    ),
    "32c": Schema(
        tuple(Imp(Not(e), Box(Not(e))) for e in _existence(x_)),
        distinct=(("x", "w"),),
    ),
}

# Each rule: the number of premises it cites, and a test called with the
# premises, in citation order, and then the conclusion.
RULES: dict[str, tuple[int, Callable[..., bool]]] = {
    # -- Stalnaker-Thomason logic ------------------------------------
    "13": (2, _modus_ponens),
    "14": (1, lambda p, c: isinstance(c, Cond) and c.right == p),  # p / psi > p
    "15": (1, _rule_15),
    "16": (1, _rule_16),
    "17": (1, _rule_17),
    # -- base conditional logic ---------------------------------------
    "25": (2, _modus_ponens),
    "26": (1, _rule_26),
    "27": (1, _rule_27),
    # -- variable domains ---------------------------------------------
    "27v": (1, _rule_27v),
}


def is_axiom_instance(schema: str, phi: Formula) -> bool:
    """True when phi instantiates the schema (purely structurally)."""
    entry = SCHEMAS.get(schema)
    if entry is None:
        raise ProofError(f"unknown schema id {schema!r}")
    return _schema_match(entry, phi) is not None


def check_rule(rule: str, premises: Sequence[Formula], conclusion: Formula) -> bool:
    """Does the conclusion follow from the premises by the rule, with all
    freeness side conditions?"""
    entry = RULES.get(rule)
    if entry is None:
        raise ProofError(f"unknown rule id {rule!r}")
    count, follows = entry
    return len(premises) == count and follows(*premises, conclusion)


# ---------------------------------------------------------------------------
# Logics and proof scripts.


@dataclass(frozen=True)
class Logic:
    name: str
    lang: Lang
    axioms: frozenset[str]
    rules: frozenset[str]


def _mk_logics() -> dict[str, Logic]:
    qst = Logic(
        "QST",
        Lang.LEQ,
        frozenset(str(i) for i in range(1, 13)),
        frozenset(str(i) for i in range(13, 18)),
    )
    qc2_axioms = frozenset({"18", "19", "20", "21", "22", "23", "24"})
    qc2_rules = frozenset({"25", "26", "27"})
    ident = frozenset({"28", "29", "30"})
    v_axioms = (qc2_axioms - {"23"}) | {"23v"}
    v_rules = (qc2_rules - {"27"}) | {"27v"}
    return {
        "QST": qst,
        "QC2": Logic("QC2", Lang.L, qc2_axioms, qc2_rules),
        "QC2=": Logic("QC2=", Lang.LEQ, qc2_axioms | ident, qc2_rules),
        "QC2vE": Logic("QC2vE", Lang.LE, v_axioms, v_rules),
        "QC2v=": Logic("QC2v=", Lang.LEQ, v_axioms | ident, v_rules),
        "QC2cE": Logic("QC2cE", Lang.LE, v_axioms | {"31c", "32c"}, v_rules),
        "QC2c=": Logic(
            "QC2c=", Lang.LEQ, v_axioms | ident | {"31c", "32c"}, v_rules
        ),
    }


LOGICS = _mk_logics()


@dataclass(frozen=True)
class AxiomInstance:
    schema: str


@dataclass(frozen=True)
class RuleApplication:
    rule: str
    premises: tuple[int, ...]  # 1-based indices of earlier lines


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: "AxiomInstance | RuleApplication"


@dataclass(frozen=True)
class ProofScript:
    logic: str
    lines: tuple[ProofLine, ...]

    def __post_init__(self) -> None:
        if self.logic not in LOGICS:
            raise ProofError(f"unknown logic {self.logic!r}")
        for i, line in enumerate(self.lines, start=1):
            just = line.justification
            if isinstance(just, RuleApplication):
                for p in just.premises:
                    if not 1 <= p < i:
                        raise ProofError(
                            f"line {i} cites line {p}, which is not an earlier line"
                        )


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    line: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted

    def to_json(self) -> dict:
        return {"accepted": self.accepted, "line": self.line, "reason": self.reason}


def verify_proof(script: ProofScript) -> Verdict:
    """Accept when every line is an axiom instance of the declared logic or
    follows from cited earlier lines by one of its rules."""
    logic = LOGICS[script.logic]
    for i, line in enumerate(script.lines, start=1):
        try:
            actual = language(line.formula)
        except FormulaError as err:
            return Verdict(False, i, str(err))
        if not actual <= logic.lang:
            return Verdict(
                False, i, f"formula language {actual} outside {logic.lang}"
            )
        just = line.justification
        if isinstance(just, AxiomInstance):
            if just.schema not in logic.axioms:
                return Verdict(
                    False, i, f"schema {just.schema} is not in {logic.name}"
                )
            if not is_axiom_instance(just.schema, line.formula):
                return Verdict(
                    False, i, f"line is not an instance of schema {just.schema}"
                )
        else:
            if just.rule not in logic.rules:
                return Verdict(False, i, f"rule {just.rule} is not in {logic.name}")
            premises = [script.lines[p - 1].formula for p in just.premises]
            if not check_rule(just.rule, premises, line.formula):
                return Verdict(
                    False, i, f"line does not follow by rule {just.rule}"
                )
    return Verdict(True)


# ---------------------------------------------------------------------------
# The derivation of the necessity-to-conditional theorem in the base logic,
# from order transfer and the excluded middle, machine-checked end to end.


def mod_theorem_proof() -> ProofScript:
    """box phi -> (psi > phi) for phi = F(x), psi = G(y).

    The derivation first proves the top sentence (so bottom-implications
    become available by detachment), then runs excluded middle against the
    order-transfer axiom.
    """
    x, y, y1 = Variable(0), Variable(1), Variable(1)
    fx = Atom(F, (x,))
    gy = Atom(Predicate(1, 1), (y,))
    u = Forall(x, Imp(fx, fx))  # the top sentence
    bot = Not(u)
    fx0 = Imp(fx, fx)
    fx1 = Imp(Atom(F, (y1,)), Atom(F, (y1,)))
    # the formulas the propositional assembly combines
    lift_not_f = Imp(Cond(Not(fx), bot), Cond(Not(fx), gy))
    lift_g = Imp(Cond(gy, bot), Cond(gy, fx))
    transfer = Imp(
        And(Cond(Not(fx), gy), And(Cond(gy, Not(fx)), Cond(Not(fx), bot))),
        Cond(gy, bot),
    )
    cem = Or(Cond(gy, fx), Cond(gy, Not(fx)))
    goal = Imp(Cond(Not(fx), bot), Cond(gy, fx))

    lines = [
        # establish top
        ProofLine(Imp(fx0, fx1), AxiomInstance("18")),
        ProofLine(Imp(fx0, u), RuleApplication("27", (1,))),
        ProofLine(fx0, AxiomInstance("18")),
        ProofLine(u, RuleApplication("25", (3, 2))),
        # bottom implies anything, conditionally lifted
        ProofLine(Imp(u, Imp(bot, gy)), AxiomInstance("18")),
        ProofLine(Imp(bot, gy), RuleApplication("25", (4, 5))),
        ProofLine(lift_not_f, RuleApplication("26", (6,))),
        ProofLine(Imp(u, Imp(bot, fx)), AxiomInstance("18")),
        ProofLine(Imp(bot, fx), RuleApplication("25", (4, 8))),
        ProofLine(lift_g, RuleApplication("26", (9,))),
        # order transfer and excluded middle
        ProofLine(transfer, AxiomInstance("20")),
        ProofLine(cem, AxiomInstance("22")),
        # propositional assembly
        ProofLine(
            Imp(lift_not_f, Imp(lift_g, Imp(transfer, Imp(cem, goal)))),
            AxiomInstance("18"),
        ),
        ProofLine(
            Imp(lift_g, Imp(transfer, Imp(cem, goal))), RuleApplication("25", (7, 13))
        ),
        ProofLine(Imp(transfer, Imp(cem, goal)), RuleApplication("25", (10, 14))),
        ProofLine(Imp(cem, goal), RuleApplication("25", (11, 15))),
        ProofLine(goal, RuleApplication("25", (12, 16))),
    ]
    return ProofScript("QC2", tuple(lines))


def mutate_script(script: ProofScript, line_no: int) -> ProofScript:
    """Negate one line's formula; used to confirm single-line perturbations
    are rejected."""
    lines = list(script.lines)
    old = lines[line_no - 1]
    lines[line_no - 1] = ProofLine(Not(old.formula), old.justification)
    return ProofScript(script.logic, tuple(lines))


# ---------------------------------------------------------------------------
# Random instance generation (self-consistency of the matchers).


def _var(v: Variable, env: dict) -> Variable:
    return env[v.name] if isinstance(v, VMeta) else v


def _instantiate(p: Formula, env: dict) -> Formula:
    """The pattern with each metavariable replaced by its value in env."""
    if isinstance(p, FMeta):
        return env[p.name]
    if isinstance(p, (Imp, Cond)):
        return type(p)(_instantiate(p.left, env), _instantiate(p.right, env))
    if isinstance(p, Not):
        return Not(_instantiate(p.body, env))
    if isinstance(p, Forall):
        return Forall(_var(p.var, env), _instantiate(p.body, env))
    if isinstance(p, Eq):
        return Eq(_var(p.left, env), _var(p.right, env))
    if isinstance(p, EPred):
        return EPred(_var(p.arg, env))
    if isinstance(p, Atom):
        return Atom(p.pred, tuple(_var(arg, env) for arg in p.args))
    raise ProofError(f"bad pattern node {p!r}")


def schema_instance(schema: str, **env) -> Formula:
    """The schema's first pattern with its metavariables filled from env:
    formulas for a, b, c and variables for x, y, t, w.  The caller passes
    values that meet the side conditions."""
    return _instantiate(SCHEMAS[schema].patterns[0], env)


def generate_instance(
    schema: str, rng: random.Random, pool: Sequence[Formula]
) -> Formula:
    """A random instance of the schema drawn from a formula pool."""
    entry = SCHEMAS.get(schema)
    if entry is None:
        raise ProofError(f"no generator for schema {schema!r}")
    env: dict = {"a": rng.choice(pool), "b": rng.choice(pool), "c": rng.choice(pool)}
    env["x"] = _draw_var(rng)
    env["y"] = _draw_var(rng)
    env["t"] = _draw_var(rng, exclude=env["x"])
    if entry.hook is not None:
        entry.hook(rng, env)
    for x, a in entry.not_free:
        if env[x] in free_variables(env[a]):
            env[a] = Forall(env[x], env[a])
    for c, a, x, y in entry.derived:
        env[c] = substitute(env[a], [(env[x], env[y])])
    return schema_instance(schema, **env)
