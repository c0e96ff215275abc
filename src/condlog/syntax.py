"""Formula AST for quantified conditional logic.

Three languages share one set of core node kinds:

* ``L``   -- predicates, negation, material implication, the conditional
  ``>``, and the universal quantifier;
* ``LE``  -- adds a primitive existence predicate ``E``;
* ``LEQ`` -- adds a primitive identity predicate ``=`` (and there ``E(x)``
  is shorthand for ``exists y (x = y)``).

Every derived connective (conjunction, disjunction, biconditional, top,
bottom, the existential quantifier, box and diamond) is a constructor
function that expands to core nodes; there are no extra node kinds.
"""

from __future__ import annotations

import enum
import functools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence


class Lang(enum.Enum):
    L = "L"
    LE = "LE"
    LEQ = "L="

    def __le__(self, other: "Lang") -> bool:
        return self is Lang.L or self is other

    def __str__(self) -> str:
        return self.value


class FormulaError(Exception):
    """Malformed formula construction or use."""


@dataclass(frozen=True)
class Variable:
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise FormulaError(f"variable index must be >= 0, got {self.index}")

    def __repr__(self) -> str:
        return f"Variable({self.index})"

    def __str__(self) -> str:
        return var_name(self)


@dataclass(frozen=True)
class Predicate:
    index: int
    arity: int

    def __post_init__(self) -> None:
        if self.index < 0 or self.arity < 0:
            raise FormulaError(f"bad predicate ({self.index},{self.arity})")

    def __str__(self) -> str:
        return predicate_name(self)


def node_cached(fn: Callable) -> Callable:
    """``fn`` computed once per node and kept in its ``__dict__`` under
    ``_<name of fn>``, which ``Formula.__getstate__`` leaves out of pickles.
    A result that is the node itself is kept as None, so that no node refers
    to itself."""
    slot = "_" + fn.__name__.lstrip("_")

    @functools.wraps(fn)
    def cached(phi: Formula):
        try:
            got = phi.__dict__[slot]
        except KeyError:
            got = fn(phi)
            phi.__dict__[slot] = None if got is phi else got
            return got
        return phi if got is None else got

    return cached


@node_cached
def _structural_hash(phi: Formula) -> int:
    fields = phi.__dataclass_fields__  # type: ignore[attr-defined]
    return hash((phi.__class__.__name__, *[getattr(phi, name) for name in fields]))


class Formula:
    """Base class for core AST nodes.

    Nodes compare structurally, with an identity fast path, and cache their
    hash.  A node equals itself in one step, but two separately built equal
    formulas compare node by node of the tree: for shared subtrees, as in a
    ``<->`` chain, that is exponential in the distinct nodes.
    """

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self.__dataclass_fields__:  # type: ignore[attr-defined]
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    __hash__ = _structural_hash

    def __getstate__(self):
        # node caches stay in the process; hashes bake in its string hashing
        return {
            k: v for k, v in self.__dict__.items() if not k.startswith("_")
        }

    def __setstate__(self, state):
        self.__dict__.update(state)

    def __str__(self) -> str:
        from .parser import print_formula

        return print_formula(self)


@dataclass(frozen=True, repr=False, eq=False)
class Atom(Formula):
    pred: Predicate
    args: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.pred.arity:
            raise FormulaError(
                f"predicate {self.pred} applied to {len(self.args)} arguments"
            )

    def __repr__(self) -> str:
        return f"Atom({self.pred}, {list(self.args)})"


@dataclass(frozen=True, repr=False, eq=False)
class Eq(Formula):
    left: Variable
    right: Variable

    def __repr__(self) -> str:
        return f"Eq({self.left}, {self.right})"


@dataclass(frozen=True, repr=False, eq=False)
class EPred(Formula):
    """Primitive existence predicate of ``LE``."""

    arg: Variable

    def __repr__(self) -> str:
        return f"EPred({self.arg})"


@dataclass(frozen=True, repr=False, eq=False)
class Not(Formula):
    body: Formula

    def __repr__(self) -> str:
        return f"Not({self.body!r})"


@dataclass(frozen=True, repr=False, eq=False)
class Imp(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"Imp({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False, eq=False)
class Cond(Formula):
    """The conditional ``antecedent > consequent``."""

    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"Cond({self.left!r}, {self.right!r})"


@dataclass(frozen=True, repr=False, eq=False)
class Forall(Formula):
    var: Variable
    body: Formula

    def __repr__(self) -> str:
        return f"Forall({self.var}, {self.body!r})"


# The unary predicate F and the variables the printer gives short names.
F = Predicate(0, 1)

_VAR_LETTERS = ("x", "y", "z")
_PRED_LETTERS = {1: ("F", "G", "H"), 0: ("A", "B", "C")}


def var_name(v: Variable) -> str:
    if v.index < len(_VAR_LETTERS):
        return _VAR_LETTERS[v.index]
    return f"x{v.index}"


def predicate_name(p: Predicate) -> str:
    letters = _PRED_LETTERS.get(p.arity, ())
    if p.index < len(letters):
        return letters[p.index]
    return f"P{p.index}"


# The reading side: a letter names its index whatever the arity, so ``A``
# and ``F`` are one predicate, and ``x<k>`` and ``P<k>`` name index k.
_VAR_INDEX = {name: i for i, name in enumerate(_VAR_LETTERS)}
_PRED_INDEX = {
    name: i for letters in _PRED_LETTERS.values() for i, name in enumerate(letters)
} | {"P": 0}
_NUMERAL = re.compile(r"[0-9]+")


def numeral(text: str) -> Optional[int]:
    """The value of an ASCII decimal numeral, or None for any other text,
    also for one longer than ``int`` converts."""
    if _NUMERAL.fullmatch(text) is None:
        return None
    try:
        return int(text)
    except ValueError:
        return None


def variable_named(text: str) -> Optional[Variable]:
    """The variable named ``text`` (``x``, ``y``, ``z`` or ``x<k>``), or None."""
    if text in _VAR_INDEX:
        return Variable(_VAR_INDEX[text])
    index = numeral(text[1:]) if text[:1] == "x" else None
    return None if index is None else Variable(index)


def predicate_named(text: str, arity: int) -> Optional[Predicate]:
    """The predicate of this arity named ``text`` (``F``, ``G``, ``H``,
    ``A``, ``B``, ``C``, ``P`` or ``P<k>``), or None."""
    if text in _PRED_INDEX:
        return Predicate(_PRED_INDEX[text], arity)
    index = numeral(text[1:]) if text[:1] == "P" else None
    return None if index is None else Predicate(index, arity)


# ---------------------------------------------------------------------------
# Derived connectives.  Each produces core nodes only.


def And(a: Formula, b: Formula) -> Formula:
    return Not(Imp(a, Not(b)))


def Or(a: Formula, b: Formula) -> Formula:
    return Imp(Not(a), b)


def Iff(a: Formula, b: Formula) -> Formula:
    return And(Imp(a, b), Imp(b, a))


def Top() -> Formula:
    x = Variable(0)
    return Forall(x, Imp(Atom(F, (x,)), Atom(F, (x,))))


def Bot() -> Formula:
    return Not(Top())


def Exists(x: Variable, body: Formula) -> Formula:
    return Not(Forall(x, Not(body)))


def Box(a: Formula) -> Formula:
    return Cond(Not(a), Bot())


def Dia(a: Formula) -> Formula:
    return Not(Cond(a, Bot()))


def conj(parts: Sequence[Formula]) -> Formula:
    """Right-nested conjunction; empty sequence gives top."""
    if not parts:
        return Top()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return Bot()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def counting_exists(n: int, x: Variable, body_of: Callable[[Variable], Formula]) -> Formula:
    """There are exactly n elements satisfying the body (identity needed).

    ``body_of`` maps a variable to the body instantiated at it, e.g.
    ``lambda v: Not(Atom(F, (v,)))``.
    """
    if n < 1:
        raise FormulaError("counting quantifier needs n >= 1")
    used = {v.index for v in all_variables(body_of(x))}
    used.add(x.index)
    fresh: list[Variable] = []
    idx = 0
    while len(fresh) < n + 1:
        if idx not in used:
            fresh.append(Variable(idx))
        idx += 1
    xs, y = fresh[:n], fresh[n]
    parts: list[Formula] = [body_of(v) for v in xs]
    parts.append(Forall(y, Imp(body_of(y), disj([Eq(y, v) for v in xs]))))
    parts.extend(Not(Eq(xs[i], xs[j])) for i in range(n) for j in range(i + 1, n))
    out = conj(parts)
    for v in reversed(xs):
        out = Exists(v, out)
    return out


# ---------------------------------------------------------------------------
# Structural queries.


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Each distinct node (by identity) once, a node before its children."""
    seen, stack = set(), [phi]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            yield f
            if isinstance(f, (Imp, Cond)):
                stack += f.right, f.left
            elif isinstance(f, (Not, Forall)):
                stack.append(f.body)


@node_cached
def free_variables(phi: Formula) -> frozenset[Variable]:
    if isinstance(phi, Atom):
        return frozenset(phi.args)
    if isinstance(phi, Eq):
        return frozenset((phi.left, phi.right))
    if isinstance(phi, EPred):
        return frozenset((phi.arg,))
    if isinstance(phi, Not):
        return free_variables(phi.body)
    if isinstance(phi, (Imp, Cond)):
        return free_variables(phi.left) | free_variables(phi.right)
    if isinstance(phi, Forall):
        return free_variables(phi.body) - {phi.var}
    raise FormulaError(f"not a formula: {phi!r}")


@node_cached
def ordered_free_variables(phi: Formula) -> tuple[Variable, ...]:
    """The free variables in index order."""
    return tuple(sorted(free_variables(phi), key=lambda v: v.index))


def all_variables(phi: Formula) -> frozenset[Variable]:
    """Free and bound variables together."""
    return free_variables(phi) | {s.var for s in subformulas(phi) if isinstance(s, Forall)}


@node_cached
def predicates(phi: Formula) -> frozenset[Predicate]:
    return frozenset(sub.pred for sub in subformulas(phi) if isinstance(sub, Atom))


def language(phi: Formula) -> Lang:
    """Smallest language containing the formula.

    A formula mixing the primitive ``E`` with ``=`` belongs to no language
    (under ``L=`` the existence predicate is an abbreviation, not a node).
    """
    kinds = {type(s) for s in subformulas(phi)}
    if EPred in kinds and Eq in kinds:
        raise FormulaError("formula mixes primitive E with =")
    if EPred in kinds:
        return Lang.LE
    if Eq in kinds:
        return Lang.LEQ
    return Lang.L


def size(phi: Formula) -> int:
    """Number of core AST nodes, a shared subtree once per occurrence; each
    distinct node is counted once per call."""
    counts: dict[int, int] = {}

    def count(f: Formula) -> int:
        if id(f) not in counts:
            if isinstance(f, (Imp, Cond)):
                counts[id(f)] = 1 + count(f.left) + count(f.right)
            elif isinstance(f, (Not, Forall)):
                counts[id(f)] = 1 + count(f.body)
            else:
                counts[id(f)] = 1
        return counts[id(f)]

    return count(phi)


@node_cached
def quantifier_rank(phi: Formula) -> int:
    if isinstance(phi, (Atom, Eq, EPred)):
        return 0
    if isinstance(phi, Not):
        return quantifier_rank(phi.body)
    if isinstance(phi, (Imp, Cond)):
        return max(quantifier_rank(phi.left), quantifier_rank(phi.right))
    if isinstance(phi, Forall):
        return 1 + quantifier_rank(phi.body)
    raise FormulaError(f"not a formula: {phi!r}")


def metrics(phi: Formula) -> tuple[int, int]:
    """(size, quantifier rank)."""
    return size(phi), quantifier_rank(phi)


# ---------------------------------------------------------------------------
# Substitution and alpha-equivalence.


def substitute(phi: Formula, targets: Sequence[tuple[Variable, Variable]]) -> Formula:
    """Simultaneous substitution of variables for free variables.

    ``targets`` lists (replaced, replacement) pairs with distinct replaced
    variables.  Bound variables that would capture a replacement are renamed
    first; fresh variables take the smallest unused index, so the result is
    deterministic.
    """
    seen = set()
    for old, _new in targets:
        if old in seen:
            raise FormulaError(f"duplicate substitution target {old}")
        seen.add(old)
    sigma = {old: new for old, new in targets if old != new}
    if not sigma:
        return phi
    reserved = {v.index for v in all_variables(phi)}
    reserved.update(v.index for pair in targets for v in pair)
    return _subst(phi, sigma, reserved)


def _fresh(reserved: set[int]) -> Variable:
    idx = 0
    while idx in reserved:
        idx += 1
    reserved.add(idx)
    return Variable(idx)


def _subst(phi: Formula, sigma: Mapping[Variable, Variable], reserved: set[int]) -> Formula:
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(sigma.get(a, a) for a in phi.args))
    if isinstance(phi, Eq):
        return Eq(sigma.get(phi.left, phi.left), sigma.get(phi.right, phi.right))
    if isinstance(phi, EPred):
        return EPred(sigma.get(phi.arg, phi.arg))
    if isinstance(phi, Not):
        return Not(_subst(phi.body, sigma, reserved))
    if isinstance(phi, Imp):
        return Imp(_subst(phi.left, sigma, reserved), _subst(phi.right, sigma, reserved))
    if isinstance(phi, Cond):
        return Cond(_subst(phi.left, sigma, reserved), _subst(phi.right, sigma, reserved))
    if isinstance(phi, Forall):
        free_below = free_variables(phi.body)
        active = {x: y for x, y in sigma.items() if x != phi.var and x in free_below}
        if not active:
            return phi
        if phi.var in active.values():
            z = _fresh(reserved)
            inner = dict(active)
            inner[phi.var] = z
            return Forall(z, _subst(phi.body, inner, reserved))
        return Forall(phi.var, _subst(phi.body, active, reserved))
    raise FormulaError(f"not a formula: {phi!r}")


def alpha_equal(a: Formula, b: Formula) -> bool:
    """Equality up to renaming of bound variables."""
    return _alpha(a, b, {}, {})


def _alpha(a: Formula, b: Formula, la: dict[Variable, int], lb: dict[Variable, int]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Atom):
        return a.pred == b.pred and all(
            _var_match(x, y, la, lb) for x, y in zip(a.args, b.args)
        )
    if isinstance(a, Eq):
        return _var_match(a.left, b.left, la, lb) and _var_match(a.right, b.right, la, lb)
    if isinstance(a, EPred):
        return _var_match(a.arg, b.arg, la, lb)
    if isinstance(a, Not):
        return _alpha(a.body, b.body, la, lb)
    if isinstance(a, (Imp, Cond)):
        return _alpha(a.left, b.left, la, lb) and _alpha(a.right, b.right, la, lb)
    if isinstance(a, Forall):
        depth = len(la)
        la2 = dict(la)
        lb2 = dict(lb)
        la2[a.var] = depth
        lb2[b.var] = depth
        return _alpha(a.body, b.body, la2, lb2)
    raise FormulaError(f"not a formula: {a!r}")


def _var_match(x: Variable, y: Variable, la: dict[Variable, int], lb: dict[Variable, int]) -> bool:
    if x in la or y in lb:
        return la.get(x) == lb.get(y)
    return x == y


# ---------------------------------------------------------------------------
# Named formulas and transforms from the incompleteness construction.


def material_reduct(phi: Formula) -> Formula:
    """Replace every conditional by material implication, recursively.

    The reduct of a compound node is cached on it and built from the
    children's cached reducts, so one source subtree always gives the same
    reduct object; a node without conditionals is its own reduct."""
    if isinstance(phi, (Atom, Eq, EPred)):
        return phi
    return _material_reduct(phi)


@node_cached
def _material_reduct(phi: Formula) -> Formula:
    if isinstance(phi, Not):
        body = material_reduct(phi.body)
        return phi if body is phi.body else Not(body)
    if isinstance(phi, (Imp, Cond)):
        left, right = material_reduct(phi.left), material_reduct(phi.right)
        if isinstance(phi, Imp) and left is phi.left and right is phi.right:
            return phi
        return Imp(left, right)
    if isinstance(phi, Forall):
        body = material_reduct(phi.body)
        return phi if body is phi.body else Forall(phi.var, body)
    raise FormulaError(f"not a formula: {phi!r}")


def build_ds() -> Formula:
    """The descending-sequence formula.

    exists x top  &  forall x dia F(x)  &  forall x exists y ((F(x) | F(y)) > ~F(x)),
    with dia expanded to its primitive form.
    """
    x, y = Variable(0), Variable(1)
    fx = Atom(F, (x,))
    fy = Atom(F, (y,))
    c1 = Exists(x, Top())
    c2 = Forall(x, Dia(fx))
    c3 = Forall(x, Exists(y, Cond(Or(fx, fy), Not(fx))))
    return conj([c1, c2, c3])


def replace_other_atoms(phi: Formula) -> Formula:
    """Replace atoms of predicates other than F with bottom, E with top,
    rebuilding each distinct node (by identity) once."""
    done: dict[int, Formula] = {}

    def walk(f: Formula) -> Formula:
        if id(f) not in done:
            done[id(f)] = rebuild(f)
        return done[id(f)]

    def rebuild(f: Formula) -> Formula:
        if isinstance(f, Atom):
            return f if f.pred == F else Bot()
        if isinstance(f, Eq):
            return f
        if isinstance(f, EPred):
            return Top()
        if isinstance(f, Not):
            return Not(walk(f.body))
        if isinstance(f, (Imp, Cond)):
            return type(f)(walk(f.left), walk(f.right))
        if isinstance(f, Forall):
            return Forall(f.var, walk(f.body))
        raise FormulaError(f"not a formula: {f!r}")

    return walk(phi)
