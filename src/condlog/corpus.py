"""Seeded random generators for test corpora.

Random formulas draw from a small signature (two unary predicates, one
nullary, optionally identity); random Stalnakerian ordering models draw a
reflexive accessibility relation with a linear order per world keeping the
world itself strictly first, which is exactly what the conversion
preconditions require.
"""

from __future__ import annotations

import itertools
import random

from .semantics import Model, OrderingFrame
from .syntax import (
    Atom,
    Cond,
    Eq,
    Forall,
    Formula,
    Imp,
    Lang,
    Not,
    Predicate,
    Variable,
)

DEFAULT_PREDICATES = (Predicate(0, 1), Predicate(1, 1), Predicate(0, 0))
DEFAULT_VARIABLES = (Variable(0), Variable(1))


def random_formula(
    rng: random.Random,
    max_size: int,
    lang: Lang = Lang.L,
    predicates: tuple[Predicate, ...] = DEFAULT_PREDICATES,
    variables: tuple[Variable, ...] = DEFAULT_VARIABLES,
) -> Formula:
    """A random core-node formula with at most max_size nodes."""

    def leaf() -> Formula:
        if lang is Lang.LEQ and rng.random() < 0.2:
            return Eq(rng.choice(variables), rng.choice(variables))
        pred = rng.choice(predicates)
        args = tuple(rng.choice(variables) for _ in range(pred.arity))
        return Atom(pred, args)

    def gen(budget: int) -> Formula:
        if budget <= 1:
            return leaf()
        kind = rng.randrange(5)
        if kind == 0:
            return Not(gen(budget - 1))
        if kind == 1:
            return Forall(rng.choice(variables), gen(budget - 1))
        split = rng.randint(1, budget - 2) if budget > 2 else 1
        left = gen(split)
        right = gen(budget - 1 - split)
        return Imp(left, right) if kind in (2, 3) else Cond(left, right)

    return gen(rng.randint(1, max_size))


def formula_corpus(
    seed: int,
    count: int,
    max_size: int,
    lang: Lang = Lang.L,
    variables: tuple[Variable, ...] = DEFAULT_VARIABLES,
) -> list[Formula]:
    rng = random.Random(seed)
    return [
        random_formula(rng, max_size, lang, variables=variables) for _ in range(count)
    ]


def random_stalnakerian_ordering_model(
    rng: random.Random, max_worlds: int = 4, max_domain: int = 3
) -> Model:
    """A random ordering model satisfying all the Stalnakerian order
    conditions: per world, a linear order on a reflexive R(w) with w
    strictly first (weak and strong centering), which is well-founded
    because it is finite."""
    n = rng.randint(1, max_worlds)
    nd = rng.randint(1, max_domain)
    r = []
    pairs: dict[int, list[tuple[int, int]]] = {}
    for w in range(n):
        others = [v for v in range(n) if v != w and rng.random() < 0.6]
        chain = [w] + rng.sample(others, len(others))
        mask = 0
        for v in chain:
            mask |= 1 << v
        r.append(mask)
        pairs[w] = [
            (chain[i], chain[j]) for i in range(len(chain)) for j in range(i, len(chain))
        ]
    local = [(1 << nd) - 1] * n  # conversions are domain-agnostic; keep global
    frame = OrderingFrame.build(n, r, pairs, nd, local)
    interp: dict[Predicate, dict[int, frozenset]] = {}
    for pred in DEFAULT_PREDICATES:
        per_world = {}
        for w in range(n):
            tuples = set()
            for combo in itertools.product(range(nd), repeat=pred.arity):
                if rng.random() < 0.5:
                    tuples.add(combo)
            per_world[w] = frozenset(tuples)
        interp[pred] = per_world
    return Model(frame, interp)
