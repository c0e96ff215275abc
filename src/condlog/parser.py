"""Concrete text syntax for formulas.

Grammar (ASCII)::

    formula  := imp ( '<->' formula )?
    imp      := or ( ('->' imp) | ('>' or) )?      -- see note on mixing
    or       := and ( '|' or )?
    and      := unary ( '&' and )?
    unary    := ('~' | 'box' | 'dia') unary | quant | atom
    quant    := ('forall' | 'exists') VAR '.'? formula
    atom     := '(' formula ')' | 'top' | 'bot'
              | 'E' '(' VAR ')' | VAR '=' VAR
              | PRED ( '(' VAR (',' VAR)* ')' )?

``->`` is right-associative; ``>`` is non-associative and may not be mixed
with ``->`` at the same parenthesis level, so conditional nests always read
unambiguously.  Quantifier bodies extend maximally to the right.  Variables
are ``x``, ``y``, ``z`` or ``x<k>``; predicates are ``F``, ``G``, ``H``
(arity from use), ``A``, ``B``, ``C`` (same indices), or ``P<k>``.  ``E`` is
reserved: primitive under LE, the abbreviation ``exists y (x = y)`` under
``L=``, rejected under L.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    And,
    Atom,
    Bot,
    Box,
    Cond,
    Dia,
    EPred,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Imp,
    Lang,
    Not,
    Or,
    Predicate,
    Top,
    Variable,
    predicate_name,
    predicate_named,
    var_name,
    variable_named,
)

# A formula nests at most MAX_NESTING levels: a parenthesis, prefix operator
# or quantifier body counts one, and so does each right operand of &, |, <->
# and -> (the i-th operand of an -> chain sits i deep).  A derived connective
# puts at most four tree levels under one (<-> is ~((a -> b) -> ~(b -> a))),
# so every reader that recurses on the tree stays within Python's stack.
MAX_NESTING = 64

# The binary connectives, loosest first; '>' shares the level of '->'.  The
# connective at level i reads its left operand at level i + 1 and its right
# operand at level i, so all but '>' (both operands at i + 1) associate to
# the right.  The prefix operators and binders sit at level _UNARY, atoms
# above it.  The parser descends this table and the printer reads it back.
_LEVELS = ("<->", "->", "|", "&")
_UNARY = len(_LEVELS)
_INFIX = {"<->": Iff, "|": Or, "&": And}
_PREFIX = {"~": Not, "box": Box, "dia": Dia}
_BINDERS = {"forall": Forall, "exists": Exists}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.span = span
        self.message = message


# One token a match, after blanks: an operator or a word, or in the
# catch-all group a character that starts neither.
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[~&|>=(),.]|[A-Za-z][A-Za-z0-9]*)|(\S))")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """The (text, start, end) of each token, then the empty token at the
    end of the input."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m[2] is not None:
            raise ParseError(SourceSpan(*m.span(2)), f"unexpected character {m[2]!r}")
        tokens.append((m[1], *m.span(1)))
    tokens.append(("", len(text), len(text)))
    return tokens


def _error(tok: tuple[str, int, int], message: str) -> ParseError:
    return ParseError(SourceSpan(tok[1], tok[2]), message)


def _fail(tok: tuple[str, int, int], expected: str) -> ParseError:
    return _error(tok, f"expected {expected}, found {tok[0] or 'end of input'!r}")


class _Parser:
    def __init__(self, text: str, lang: Lang):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.lang = lang
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self) -> tuple[str, int, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> None:
        tok = self.take()
        if tok[0] != text:
            raise _error(tok, f"expected {text!r}, found {tok[0]!r}")

    def nested(self, levels: int, parse, *args) -> Formula:
        """``parse(*args)`` read ``levels`` deeper than the current nesting."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise _error(
                self.tokens[self.pos], f"formula nested deeper than {MAX_NESTING} levels"
            )
        out = parse(*args)
        self.depth -= levels
        return out

    def level(self, i: int = 0) -> Formula:
        """A formula whose connectives bind no looser than ``_LEVELS[i]``."""
        if i == _UNARY:
            return self.unary()
        op = _LEVELS[i]
        if op == "->":
            return self.implication(i)
        left = self.level(i + 1)
        if self.peek() != op:
            return left
        self.pos += 1
        return _INFIX[op](left, self.nested(1, self.level, i))

    def implication(self, i: int) -> Formula:
        """A right-associative '->' chain, or one '>', which may not mix."""
        operands = [self.level(i + 1)]
        ops = []
        while self.peek() in ("->", ">"):
            ops.append(self.take())
            operands.append(self.nested(len(ops), self.level, i + 1))
        if all(op[0] == "->" for op in ops):
            out = operands[-1]
            for part in reversed(operands[:-1]):
                out = Imp(part, out)
            return out
        if len(ops) == 1:
            return Cond(*operands)
        raise _error(
            ops[-1], "conditional '>' is non-associative; parenthesize nested or mixed uses"
        )

    def unary(self) -> Formula:
        op = self.peek()
        if op in _PREFIX:
            self.pos += 1
            return _PREFIX[op](self.nested(1, self.unary))
        if op in _BINDERS:
            self.pos += 1
            var = self.variable()
            if self.peek() == ".":
                self.pos += 1
            return _BINDERS[op](var, self.nested(1, self.level))
        return self.atom()

    def atom(self) -> Formula:
        tok = self.take()
        text = tok[0]
        if text == "(":
            inner = self.nested(1, self.level)
            self.expect(")")
            return inner
        if text == "top":
            return Top()
        if text == "bot":
            return Bot()
        if text == "E":
            self.expect("(")
            var = self.variable()
            self.expect(")")
            if self.lang is Lang.LE:
                return EPred(var)
            if self.lang is Lang.LEQ:
                fresh = Variable(0 if var.index != 0 else 1)
                return Exists(fresh, Eq(var, fresh))
            raise _error(tok, "existence predicate E requires language LE or L=")
        left = variable_named(text)
        if left is not None:
            eq = self.take()
            if eq[0] != "=":
                raise _fail(eq, "'=' after a variable")
            if self.lang is not Lang.LEQ:
                raise _error(eq, "identity requires language L=")
            return Eq(left, self.variable())
        pred = predicate_named(text, 0)
        if pred is None:
            raise _fail(tok, "an atom, quantifier, or '('")
        if self.peek() != "(":
            return Atom(pred)
        self.pos += 1
        args = [self.variable()]
        while self.peek() == ",":
            self.pos += 1
            args.append(self.variable())
        self.expect(")")
        return Atom(Predicate(pred.index, len(args)), tuple(args))

    def variable(self) -> Variable:
        tok = self.take()
        var = variable_named(tok[0])
        if var is None:
            raise _fail(tok, "a variable")
        return var


def parse_formula(text: str, lang: Lang = Lang.L) -> Formula:
    parser = _Parser(text, lang)
    out = parser.level()
    tail = parser.take()
    if tail[0]:
        raise _fail(tail, "end of input")
    return out


def parse_formula_file(text: str, lang: Lang = Lang.L) -> list[Formula]:
    """One formula per non-blank line; '#' starts a comment."""
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(parse_formula(body, lang))
    return out


# ---------------------------------------------------------------------------
# Printing.  The printer recognizes the derived-connective expansions and
# emits the sugared forms, so parse(print(phi)) reproduces phi exactly.
# Quantifier bodies extend maximally right, so a quantified formula is
# parenthesized unless it sits in tail position of the printed expression.


def print_formula(phi: Formula) -> str:
    return _print(phi, 0, True)


def _print(phi: Formula, level: int, tail: bool) -> str:
    """phi where the context binds at ``level``; ``tail`` when nothing
    follows it up to the end of the enclosing parenthesis."""
    op, parts = _view(phi)
    if not parts:
        return op
    if op in _BINDERS:
        text = f"{op} {var_name(parts[0])}. {_print(parts[1], 0, True)}"
        return text if tail and level <= _UNARY else f"({text})"
    if op in _PREFIX:
        mine = _UNARY
        text = op + ("" if op == "~" else " ") + _print(parts[0], _UNARY, tail)
    else:
        a, b = parts
        mine = _LEVELS.index("->" if op == ">" else op)
        if op == "->" and _view(b)[0] == ">":
            right = _print(b, mine + 1, True)  # '>' may not appear bare under '->'
        else:
            right = _print(b, mine + (op == ">"), tail)
        text = f"{_print(a, mine + 1, False)} {op} {right}"
    return f"({text})" if mine < level else text


_TOP = Top()


def _match_top(phi: Formula) -> bool:
    return phi == _TOP


def _match_bot(phi: Formula) -> bool:
    return isinstance(phi, Not) and _match_top(phi.body)


def _view(phi: Formula) -> tuple[str, tuple]:
    """How phi prints: the connective, prefix operator or binder on top,
    with its operands (a binder's variable first), or an atom's text with
    none.  A derived connective is read off its expansion."""
    if isinstance(phi, Forall):
        return ("top", ()) if _match_top(phi) else ("forall", (phi.var, phi.body))
    if isinstance(phi, Not):
        body = phi.body
        if isinstance(body, Forall):
            if _match_top(body):
                return "bot", ()
            if isinstance(body.body, Not):  # exists x a == ~forall x ~a
                return "exists", (body.var, body.body.body)
        elif isinstance(body, Cond):
            if _match_bot(body.right):  # dia a == ~(a > bot)
                return "dia", (body.left,)
        elif isinstance(body, Imp) and isinstance(body.right, Not):
            a, b = body.left, body.right.body
            # a <-> b == ~((a -> b) -> ~(b -> a))
            if (
                isinstance(a, Imp)
                and isinstance(b, Imp)
                and b.left == a.right
                and b.right == a.left
            ):
                return "<->", (a.left, a.right)
            return "&", (a, b)  # a & b == ~(a -> ~b)
        return "~", (body,)
    if isinstance(phi, Cond):
        if isinstance(phi.left, Not) and _match_bot(phi.right):  # box a == ~a > bot
            return "box", (phi.left.body,)
        return ">", (phi.left, phi.right)
    if isinstance(phi, Imp):
        if _view(phi.left)[0] == "~":  # a | b == ~a -> b
            return "|", (phi.left.body, phi.right)
        return "->", (phi.left, phi.right)
    if isinstance(phi, Atom):
        if phi.pred.arity == 0:
            return predicate_name(phi.pred), ()
        return f"{predicate_name(phi.pred)}({','.join(map(var_name, phi.args))})", ()
    if isinstance(phi, Eq):
        return f"{var_name(phi.left)} = {var_name(phi.right)}", ()
    if isinstance(phi, EPred):
        return f"E({var_name(phi.arg)})", ()
    raise TypeError(f"not a formula: {phi!r}")
