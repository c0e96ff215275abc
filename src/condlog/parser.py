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
_PREFIX = {"~": Not, "box": Box, "dia": Dia}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.span = span
        self.message = message


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow><->|->)|(?P<op>[~&|>=(),.])"
    r"|(?P<word>[A-Za-z][A-Za-z0-9]*))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # arrow | op | word | end
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(SourceSpan(at, at + 1), f"unexpected character {rest[0]!r}")
        pos = m.end()
        span = SourceSpan(m.start() + len(m.group(0)) - len(m.group(0).lstrip()), m.end())
        if m.group("arrow"):
            tokens.append(_Token("arrow", m.group("arrow"), span))
        elif m.group("op"):
            tokens.append(_Token("op", m.group("op"), span))
        else:
            tokens.append(_Token("word", m.group("word"), span))
    tokens.append(_Token("end", "", SourceSpan(len(text), len(text))))
    return tokens


class _Parser:
    def __init__(self, text: str, lang: Lang):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.lang = lang
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(tok.span, f"expected {text!r}, found {tok.text!r}")
        return tok

    def nested(self, parse, levels: int = 1) -> Formula:
        """``parse()`` read ``levels`` deeper than the current nesting."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise ParseError(
                self.peek().span, f"formula nested deeper than {MAX_NESTING} levels"
            )
        out = parse()
        self.depth -= levels
        return out

    def fail(self, tok: _Token, expected: str) -> ParseError:
        found = tok.text if tok.text else "end of input"
        return ParseError(tok.span, f"expected {expected}, found {found!r}")

    # Grammar levels, loosest first.

    def formula(self) -> Formula:
        left = self.imp_level()
        if self.peek().text == "<->":
            self.next()
            return Iff(left, self.nested(self.formula))
        return left

    def imp_level(self) -> Formula:
        operands = [self.or_level()]
        ops: list[_Token] = []
        while self.peek().text in ("->", ">"):
            ops.append(self.next())
            operands.append(self.nested(self.or_level, len(ops)))
        if not ops:
            return operands[0]
        kinds = {t.text for t in ops}
        if kinds == {"->"}:
            out = operands[-1]
            for part in reversed(operands[:-1]):
                out = Imp(part, out)
            return out
        if len(ops) == 1 and ops[0].text == ">":
            return Cond(operands[0], operands[1])
        raise ParseError(
            ops[-1].span,
            "conditional '>' is non-associative; parenthesize nested or mixed uses",
        )

    def or_level(self) -> Formula:
        left = self.and_level()
        if self.peek().text == "|":
            self.next()
            return Or(left, self.nested(self.or_level))
        return left

    def and_level(self) -> Formula:
        left = self.unary()
        if self.peek().text == "&":
            self.next()
            return And(left, self.nested(self.and_level))
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.text in _PREFIX:
            self.next()
            return _PREFIX[tok.text](self.nested(self.unary))
        if tok.text in ("forall", "exists"):
            self.next()
            var = self.variable()
            if self.peek().text == ".":
                self.next()
            body = self.nested(self.formula)
            return (Forall if tok.text == "forall" else Exists)(var, body)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok.text == "(":
            inner = self.nested(self.formula)
            self.expect(")")
            return inner
        if tok.text == "top":
            return Top()
        if tok.text == "bot":
            return Bot()
        if tok.kind != "word":
            raise self.fail(tok, "an atom, quantifier, or '('")
        if tok.text == "E":
            self.expect("(")
            var = self.variable()
            self.expect(")")
            if self.lang is Lang.LE:
                return EPred(var)
            if self.lang is Lang.LEQ:
                fresh = Variable(0 if var.index != 0 else 1)
                return Exists(fresh, Eq(var, fresh))
            raise ParseError(tok.span, "existence predicate E requires language LE or L=")
        left = variable_named(tok.text)
        if left is not None:
            eq = self.next()
            if eq.text != "=":
                raise self.fail(eq, "'=' after a variable")
            if self.lang is not Lang.LEQ:
                raise ParseError(eq.span, "identity requires language L=")
            right = self.variable()
            return Eq(left, right)
        pred = predicate_named(tok.text, 0)
        if pred is None:
            raise self.fail(tok, "an atom, quantifier, or '('")
        if self.peek().text != "(":
            return Atom(pred)
        self.next()
        args = [self.variable()]
        while self.peek().text == ",":
            self.next()
            args.append(self.variable())
        self.expect(")")
        return Atom(Predicate(pred.index, len(args)), tuple(args))

    def variable(self) -> Variable:
        tok = self.next()
        var = variable_named(tok.text) if tok.kind == "word" else None
        if var is None:
            raise self.fail(tok, "a variable")
        return var


def parse_formula(text: str, lang: Lang = Lang.L) -> Formula:
    parser = _Parser(text, lang)
    out = parser.formula()
    tail = parser.peek()
    if tail.kind != "end":
        raise parser.fail(tail, "end of input")
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

_LVL_IFF, _LVL_IMP, _LVL_OR, _LVL_AND, _LVL_UNARY, _LVL_ATOM = range(6)


def print_formula(phi: Formula) -> str:
    return _print(phi, 0, True)


def _print(phi: Formula, level: int, tail: bool) -> str:
    quant = _quantifier_text(phi, tail)
    if quant is not None:
        if tail and level <= _LVL_UNARY:
            return quant
        return f"({_quantifier_text(phi, True)})"
    text, mine = _render(phi, tail)
    if mine < level:
        return f"({text})"
    return text


def _quantifier_text(phi: Formula, tail: bool) -> str | None:
    if _match_top(phi) or _match_bot(phi):
        return None
    if isinstance(phi, Forall):
        return f"forall {var_name(phi.var)}. {_print(phi.body, 0, tail)}"
    if isinstance(phi, Not) and isinstance(phi.body, Forall) and isinstance(phi.body.body, Not):
        inner = phi.body.body.body
        return f"exists {var_name(phi.body.var)}. {_print(inner, 0, tail)}"
    return None


def _match_top(phi: Formula) -> bool:
    return (
        isinstance(phi, Forall)
        and isinstance(phi.body, Imp)
        and phi.body.left == phi.body.right
        and phi.body.left == Atom(Predicate(0, 1), (phi.var,))
    )


def _match_bot(phi: Formula) -> bool:
    return isinstance(phi, Not) and _match_top(phi.body)


def _renders_as_sugar(phi: Not) -> bool:
    """True when a negation node prints as bot/dia/iff/and/exists rather
    than as a bare negation, so an implication from it reads better plain."""
    body = phi.body
    if _match_top(body):
        return True
    if isinstance(body, Cond) and _match_bot(body.right):
        return True
    if isinstance(body, Forall) and isinstance(body.body, Not):
        return True
    if isinstance(body, Imp) and isinstance(body.right, Not):
        return True
    return False


def _render(phi: Formula, tail: bool) -> tuple[str, int]:
    if _match_top(phi):
        return "top", _LVL_ATOM
    if isinstance(phi, Not):
        body = phi.body
        if _match_top(body):
            return "bot", _LVL_ATOM
        # dia a == ~(a > bot)
        if isinstance(body, Cond) and _match_bot(body.right):
            return f"dia {_print(body.left, _LVL_UNARY, tail)}", _LVL_UNARY
        # a <-> b == ~((a -> b) -> ~(b -> a))
        if (
            isinstance(body, Imp)
            and isinstance(body.left, Imp)
            and isinstance(body.right, Not)
            and isinstance(body.right.body, Imp)
            and body.right.body.left == body.left.right
            and body.right.body.right == body.left.left
        ):
            a, b = body.left.left, body.left.right
            return (
                f"{_print(a, _LVL_IMP, False)} <-> {_print(b, _LVL_IFF, tail)}",
                _LVL_IFF,
            )
        # a & b == ~(a -> ~b)
        if isinstance(body, Imp) and isinstance(body.right, Not):
            a, b = body.left, body.right.body
            return (
                f"{_print(a, _LVL_UNARY, False)} & {_print(b, _LVL_AND, tail)}",
                _LVL_AND,
            )
        return f"~{_print(body, _LVL_UNARY, tail)}", _LVL_UNARY
    if isinstance(phi, Cond):
        # box a == ~a > bot
        if isinstance(phi.left, Not) and _match_bot(phi.right):
            return f"box {_print(phi.left.body, _LVL_UNARY, tail)}", _LVL_UNARY
        return (
            f"{_print(phi.left, _LVL_OR, False)} > {_print(phi.right, _LVL_OR, tail)}",
            _LVL_IMP,
        )
    if isinstance(phi, Imp):
        # a | b == ~a -> b
        if isinstance(phi.left, Not) and not _renders_as_sugar(phi.left):
            return (
                f"{_print(phi.left.body, _LVL_AND, False)} | {_print(phi.right, _LVL_OR, tail)}",
                _LVL_OR,
            )
        right = phi.right
        if isinstance(right, Cond) and not (
            isinstance(right.left, Not) and _match_bot(right.right)
        ):
            # '>' may not appear bare under '->'
            right_text = f"({_print(right, 0, True)})"
        else:
            right_text = _print(right, _LVL_IMP, tail)
        return f"{_print(phi.left, _LVL_OR, False)} -> {right_text}", _LVL_IMP
    if isinstance(phi, Atom):
        if phi.pred.arity == 0:
            return predicate_name(phi.pred), _LVL_ATOM
        args = ",".join(var_name(a) for a in phi.args)
        return f"{predicate_name(phi.pred)}({args})", _LVL_ATOM
    if isinstance(phi, Eq):
        return f"{var_name(phi.left)} = {var_name(phi.right)}", _LVL_ATOM
    if isinstance(phi, EPred):
        return f"E({var_name(phi.arg)})", _LVL_ATOM
    raise TypeError(f"not a formula: {phi!r}")
