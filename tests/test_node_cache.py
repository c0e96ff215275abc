"""Per-node caches and readers that visit each distinct node once.

A chain of n ``<->`` operands holds each operand twice, so its tree has
2^(n+2) - 7 nodes over 6n - 5 distinct ones; the readers here must stay
linear in the distinct nodes.  Work is bounded by counting, not by time.
"""

import functools
import json
import pickle
from collections import Counter

from click.testing import CliRunner

from condlog import hilbert, kmodel, semantics, syntax
from condlog.cli import main
from condlog.parser import parse_formula
from condlog.syntax import (
    F,
    Lang,
    Variable,
    all_variables,
    free_variables,
    language,
    node_cached,
    predicates,
    quantifier_rank,
    size,
    subformulas,
)
from test_semantics import remark25_frame

N = 40
CHAIN = " <-> ".join(f"F(x{i % 3})" for i in range(N))
TREE_NODES = 2 ** (N + 2) - 7
DISTINCT_NODES = 6 * N - 5
QUANTIFIED = f"forall x3. (F(x3) -> ({CHAIN}))"
x0, x1, x2 = Variable(0), Variable(1), Variable(2)
G = {x0: -1, x1: -2, x2: -3}


def test_chain_structural_readers_are_linear():
    chain = parse_formula(CHAIN)
    nodes = list(subformulas(chain))
    assert len(nodes) == len({id(n) for n in nodes}) == DISTINCT_NODES
    assert nodes[0] is chain
    assert size(chain) == TREE_NODES == 4_398_046_511_097
    assert quantifier_rank(chain) == 0
    assert language(chain) is Lang.L
    assert predicates(chain) == {F}
    assert all_variables(chain) == free_variables(chain) == {x0, x1, x2}


def test_subformulas_visits_a_node_before_its_children():
    phi = parse_formula("forall x. (F(x) > G(y)) -> ~F(y)")
    order = {id(n): i for i, n in enumerate(subformulas(phi))}
    for n in subformulas(phi):
        for child in vars(n).values():
            if isinstance(child, syntax.Formula):
                assert order[id(n)] < order[id(child)]


def test_all_variables_counts_binders_without_occurrences():
    phi = parse_formula("forall z. F(x) & forall y. F(y)")
    assert all_variables(phi) == {x0, x1, Variable(2)}


def _parity_denotation():
    """forall x3. (F(x3) -> chain) under G.  A chain of biconditionals
    holds iff an even number of its operands fail.  At the world k the
    operand F(xi) holds iff G[xi] <= k, so at -3 the 14 + 13 operands on
    x0 and x1 fail and the chain fails; F(-3) then refutes the body.  At
    every other world the chain holds, and at -inf F is empty anyway."""
    return kmodel.KSet.make(True, -4, [(-2, -1)])


def test_chain_in_k_at_minus_inf():
    phi = parse_formula(QUANTIFIED)
    assert kmodel.denote_k(phi, G) == _parity_denotation()
    assert kmodel.eval_k(phi, kmodel.MINUS_INF, G)
    assert not kmodel.eval_k(phi, -3, G)


def test_chain_normal_form_runs_once_per_distinct_node(monkeypatch):
    inner = kmodel._node_nf.__wrapped__
    runs = Counter()

    @functools.wraps(inner)
    def counted(phi):
        runs[id(phi)] += 1
        return inner(phi)

    monkeypatch.setattr(kmodel, "_node_nf", node_cached(counted))
    phi = parse_formula(QUANTIFIED)
    assert kmodel.denote_k(phi, G) == _parity_denotation()
    assert kmodel.eval_k(phi, kmodel.MINUS_INF, G)
    assert max(runs.values()) == 1
    assert len(runs) <= sum(1 for _ in subformulas(phi)) == DISTINCT_NODES + 3


def _node_bound_pairs(phi, bound=frozenset(), seen=None):
    """The distinct (node, variables bound above it) pairs of a DAG."""
    seen = set() if seen is None else seen
    if (id(phi), bound) not in seen:
        seen.add((id(phi), bound))
        if isinstance(phi, syntax.Forall):
            _node_bound_pairs(phi.body, bound | {phi.var}, seen)
        else:
            for child in vars(phi).values():
                if isinstance(child, syntax.Formula):
                    _node_bound_pairs(child, bound, seen)
    return seen


def test_chain_compiles_once_per_node_and_bound():
    for text in (CHAIN, QUANTIFIED):
        phi = parse_formula(text)
        compiled = semantics._compiled(phi)
        assert compiled.n_nodes <= len(_node_bound_pairs(phi))
    assert len(_node_bound_pairs(parse_formula(CHAIN))) == DISTINCT_NODES


def test_chain_from_the_command_line():
    res = CliRunner().invoke(main, ["parse", "--formula", CHAIN])
    assert res.exit_code == 0, res.output
    assert f"[size {TREE_NODES}, rank 0]" in res.output
    res = CliRunner().invoke(
        main, ["kmodel", "denote", "--formula", QUANTIFIED, "--assign", "x0=-1,x1=-2,x2=-3"]
    )
    assert res.exit_code == 0, res.output
    assert res.output.rstrip().endswith(f"->  {_parity_denotation()}")


def test_chain_with_a_foreign_predicate_stays_shared():
    """G is empty in K, so the two G operands read as bottom and cancel:
    the denotation is the chain's own.  Replacing them rebuilds each
    distinct node once."""
    text = f"forall x3. (F(x3) -> (G(x3) <-> G(x3) <-> {CHAIN}))"
    phi = parse_formula(text)
    replaced = syntax.replace_other_atoms(phi)
    assert sum(1 for _ in subformulas(replaced)) <= 2 * sum(1 for _ in subformulas(phi))
    res = CliRunner().invoke(
        main,
        ["kmodel", "denote", "--empty-predicates", "--formula", text,
         "--assign", "x0=-1,x1=-2,x2=-3"],
    )
    assert res.exit_code == 0, res.output
    assert res.output.rstrip().endswith(f"->  {_parity_denotation()}")


def test_chain_tautology_proof_takes_one_table_step_per_node(tmp_path, monkeypatch):
    """A one-line QC2 proof, by axiom 18, of a chain of an even number of
    F(x) operands.  The truth table takes one step per node the skeleton
    lists, and it lists each distinct node once."""
    text = " <-> ".join(["F(x)"] * N)
    steps = []
    skeleton = hilbert._boolean_skeleton

    def counted(phi):
        atoms, nodes = skeleton(phi)
        steps.append(len(nodes))
        return atoms, nodes

    monkeypatch.setattr(hilbert, "_boolean_skeleton", counted)
    path = tmp_path / "proof.json"
    path.write_text(
        json.dumps({"logic": "QC2", "lines": [{"formula": text, "just": {"axiom": "18"}}]})
    )
    res = CliRunner().invoke(main, ["prove", "--proof", str(path)])
    assert res.exit_code == 0, res.output
    assert steps == [DISTINCT_NODES]


def test_node_caches_stay_out_of_pickles():
    phi = parse_formula("(forall x. (F(x) > G(y))) -> forall z. F(z)")
    readers = [
        free_variables,
        syntax.ordered_free_variables,
        predicates,
        quantifier_rank,
        syntax.material_reduct,
    ]
    for sub in subformulas(phi):
        for reader in readers:
            reader(sub)
    kmodel.denote_k(phi, {x1: -2}, empty_predicates=True)
    # an interpretation with F empty holds the antecedent and fails the
    # consequent
    assert not semantics.frame_valid(remark25_frame(), phi).valid
    slots = {k for n in subformulas(phi) for k in vars(n) if k.startswith("_")}
    for cached in (
        free_variables,
        syntax.ordered_free_variables,
        predicates,
        quantifier_rank,
        syntax._material_reduct,
        kmodel._node_nf,
        kmodel._fragment,
        kmodel._denote_cache,
        semantics._compiled,
    ):
        assert "_" + cached.__name__.lstrip("_") in slots, cached.__name__
    copy = pickle.loads(pickle.dumps(phi))
    assert copy == phi
    for n in subformulas(copy):
        assert vars(n).keys() == n.__dataclass_fields__.keys()


def test_a_node_that_is_its_own_result_is_kept_as_none():
    phi = parse_formula("F(x) -> forall y. F(y)")
    assert syntax.material_reduct(phi) is phi
    assert vars(phi)["_material_reduct"] is None
