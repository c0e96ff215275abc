"""Command-line entry point.

Exit codes: 0 when the requested check passes (or the command just
reports), 1 when a check fails (with a report), 2 on usage or input
errors.  ``--format json`` emits one JSON document on standard output.
Formula options accept ``@path`` indirection to a formula file (one
formula per line, ``#`` comments).

The exit-2 rule lives in one place, ``_Command.invoke``: a library input
error (a malformed formula, document or proof, a value outside K, or a
resource ceiling) raised by any command becomes a usage error that names
its cause.  Command bodies raise ``click.UsageError`` only for checks of
their own options.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import fileformats, frameprops, hilbert, kmodel, search, semantics
from .parser import ParseError, parse_formula, parse_formula_file, print_formula
from .syntax import Lang, Variable, free_variables, metrics, numeral, variable_named

LANGS = {"L": Lang.L, "LE": Lang.LE, "L=": Lang.LEQ}
# The JSON ``ast`` of ``parse`` is the repr, a tree walk: a chain of n <->
# operands has 2^(n+2) - 7 tree nodes, so the field is refused above this.
MAX_AST_NODES = 1_000_000

# The library's input errors.  ``search.ReplayError`` is a SemanticsError
# but an internal fault, so it propagates.
_INPUT_ERRORS = (
    ParseError,
    fileformats.DocumentError,
    semantics.SemanticsError,
    kmodel.KModelError,
    hilbert.ProofError,
)


class _Command(click.Command):
    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except search.ReplayError:
            raise
        except _INPUT_ERRORS as err:
            raise click.UsageError(str(err), ctx=ctx) from None


class _Group(click.Group):
    command_class = _Command
    group_class = type  # subgroups are _Groups too


def _finish(fmt: str, ok: bool, payload: dict, text_lines: list[str]) -> None:
    if fmt == "json":
        click.echo(json.dumps({"ok": ok, **payload}, indent=2, default=str))
    else:
        for line in text_lines:
            click.echo(line)
    if not ok:
        sys.exit(1)


def _finish_values(fmt: str, world: str, values) -> None:
    """Report (formula, truth value) pairs; the check passes when all hold."""
    results = [{"formula": print_formula(phi), "value": v} for phi, v in values]
    _finish(
        fmt,
        all(r["value"] for r in results),
        {"world": world, "results": results},
        [f"{r['formula']}  ->  {r['value']}" for r in results],
    )


def _read_formulas(value: str, lang: Lang):
    if value.startswith("@"):
        formulas = parse_formula_file(_read_text(value[1:]), lang)
        if not formulas:
            raise click.UsageError(f"no formulas in {value[1:]}")
        return formulas
    return [parse_formula(value, lang)]


def _parse_assignment(entries: tuple[str, ...]) -> dict[str, str]:
    out: dict[str, str] = {}
    for entry in entries:
        for item in entry.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep:
                raise click.UsageError(f"assignment {item!r} is not name=value")
            out[name.strip()] = value.strip()
    return out


def _variable_of(name: str) -> Variable:
    var = variable_named(name)
    if var is None:
        raise click.UsageError(f"bad variable name {name!r}")
    return var


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise click.UsageError(f"cannot read {path}: {err}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as err:
        raise click.UsageError(f"cannot write {path}: {err}") from None


def _load(path: str, what: str, load):
    try:
        return load(json.loads(_read_text(path)))
    except (json.JSONDecodeError, RecursionError, fileformats.DocumentError) as err:
        # json.loads raises RecursionError on arrays or objects nested too deep
        raise click.UsageError(f"cannot load {what} {path}: {err}") from None


def _load_model(path: str) -> semantics.Model:
    return _load(path, "model", fileformats.load_model)


def _domain_assignment(model: semantics.Model, pairs: dict[str, str]):
    g = {}
    for name, value in pairs.items():
        try:
            idx = model.frame.domain_names.index(value)
        except ValueError:
            raise click.UsageError(f"domain element {value!r} not in the model")
        g[_variable_of(name)] = idx
    return g


def _world_index(model: semantics.Model, name: str) -> int:
    try:
        return model.frame.world_names.index(name)
    except ValueError:
        raise click.UsageError(f"world {name!r} not in the model")


lang_option = click.option(
    "--lang",
    type=click.Choice(sorted(LANGS)),
    default="L",
    show_default=True,
    help="Formula language.",
)
format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)


@click.group(cls=_Group)
def main() -> None:
    """Workbench for quantified conditional logic."""


@main.command("parse")
@click.option("--formula", required=True)
@lang_option
@format_option
def cmd_parse(formula: str, lang: str, fmt: str) -> None:
    """Parse formulas and report their shape."""
    payload = []
    lines = []
    for phi in _read_formulas(formula, LANGS[lang]):
        sz, rank = metrics(phi)
        if fmt == "json" and sz > MAX_AST_NODES:
            raise click.UsageError(
                f"ast ceiling exceeded: the formula has {sz} tree nodes, "
                f"above {MAX_AST_NODES}"
            )
        payload.append(
            {
                "formula": print_formula(phi),
                "ast": repr(phi) if fmt == "json" else None,
                "size": sz,
                "quantifierRank": rank,
                "freeVariables": sorted(str(v) for v in free_variables(phi)),
            }
        )
        lines.append(f"{print_formula(phi)}  [size {sz}, rank {rank}]")
    _finish(fmt, True, {"formulas": payload}, lines)


@main.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--world", required=True)
@click.option("--formula", required=True)
@click.option("--assign", multiple=True, help="Comma-separated name=element pairs.")
@lang_option
@format_option
def cmd_eval(model_path, world, formula, assign, lang, fmt) -> None:
    """Evaluate formulas at a world of a finite model."""
    model = _load_model(model_path)
    w = _world_index(model, world)
    g = _domain_assignment(model, _parse_assignment(assign))
    phis = _read_formulas(formula, LANGS[lang])
    _finish_values(fmt, world, [(p, semantics.evaluate(model, w, g, p)) for p in phis])


@main.command("model-valid")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--formula", required=True)
@lang_option
@format_option
def cmd_model_valid(model_path, formula, lang, fmt) -> None:
    """Truth at every world under every assignment."""
    model = _load_model(model_path)
    res = semantics.model_valid(model, _read_formulas(formula, LANGS[lang]))
    if res.valid:
        _finish(fmt, True, {}, ["valid in the model"])
    else:
        cx = res.counterexample
        names = model.frame.world_names
        detail = {
            "world": names[cx.world],
            "assignment": {
                str(v): model.frame.domain_names[a] for v, a in cx.assignment.items()
            },
            "formula": print_formula(cx.formula),
        }
        _finish(
            fmt,
            False,
            {"counterexample": detail},
            [f"fails at world {detail['world']} under {detail['assignment']}"],
        )


@main.command("frame-valid")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--formula", required=True)
@lang_option
@format_option
def cmd_frame_valid(model_path, formula, lang, fmt):
    """Validity over every interpretation on the model's frame."""
    model = _load_model(model_path)
    for phi in _read_formulas(formula, LANGS[lang]):
        res = semantics.frame_valid(model.frame, phi)
        if not res.valid:
            cx = res.counterexample
            names = model.frame.world_names
            _finish(
                fmt,
                False,
                {
                    "formula": print_formula(phi),
                    "world": names[cx.world],
                    "countermodel": fileformats.dump_model(res.countermodel),
                },
                [
                    f"{print_formula(phi)} fails at world {names[cx.world]} "
                    "under some interpretation"
                ],
            )
    _finish(fmt, True, {}, ["valid on the frame"])


@main.command("frame-props")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@format_option
def cmd_frame_props(model_path, fmt) -> None:
    """Frame-condition verdicts with witnesses."""
    model = _load_model(model_path)
    frame = model.frame
    if isinstance(frame, semantics.QuasiSelectionFrame):
        frame = frame.order
    if isinstance(frame, semantics.SelectionFrame):
        rep = frameprops.check_selection_props(frame)
    else:
        rep = frameprops.check_ordering_props(frame)
    dom = frameprops.check_domain_props(frame)
    payload = {"conditions": rep.to_json(), "domains": dom.to_json()}
    lines = [f"{name}: {val}" for name, val in sorted(rep.verdicts.items())]
    lines += [f"{name}: {val}" for name, val in sorted(dom.verdicts.items())]
    for name, wit in sorted({**rep.witnesses, **dom.witnesses}.items()):
        lines.append(f"witness {name}: {wit}")
    _finish(fmt, True, payload, lines)


@main.command("convert")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--to", "target", type=click.Choice(["selection", "ordering"]), required=True)
@click.option("--out", type=click.Path(), default=None)
@format_option
def cmd_convert(model_path, target, out, fmt) -> None:
    """Convert between ordering and selection models (Stalnakerian only)."""
    model = _load_model(model_path)
    kind = semantics.SelectionFrame if target == "selection" else semantics.OrderingFrame
    if isinstance(model.frame, kind):
        raise click.UsageError(f"model is already of kind {target}")
    try:
        converted = semantics.convert_model(model)
    except semantics.NotStalnakerian as err:
        _finish(
            fmt,
            False,
            {"condition": err.condition, "witness": repr(err.witness)},
            [f"conversion refused: {err}"],
        )
        return
    doc = fileformats.dump_model(converted)
    if out:
        _write_text(out, json.dumps(doc, indent=2))
        _finish(fmt, True, {"written": out}, [f"wrote {out}"])
    else:
        click.echo(json.dumps(doc, indent=2))


@main.command("prove")
@click.option("--proof", "proof_path", required=True, type=click.Path(exists=True))
@format_option
def cmd_prove(proof_path, fmt) -> None:
    """Verify a Hilbert proof script."""
    script = _load(proof_path, "proof", fileformats.load_proof)
    verdict = hilbert.verify_proof(script)
    if verdict.accepted:
        _finish(fmt, True, {"lines": len(script.lines)}, ["accepted"])
    else:
        _finish(
            fmt,
            False,
            verdict.to_json(),
            [f"rejected at line {verdict.line}: {verdict.reason}"],
        )


@main.command("correspondence")
@click.option("--model", "model_path", type=click.Path(exists=True), default=None)
@click.option("--sweep", is_flag=True, help="Check all enumerated frames instead.")
@click.option("--max-worlds", type=click.IntRange(min=1), help="--sweep only [default: 2]")
@click.option("--max-domain", type=click.IntRange(min=1), help="--sweep only [default: 2]")
@format_option
def cmd_correspondence(model_path, sweep, max_worlds, max_domain, fmt) -> None:
    """Instance-family validity versus the frame conditions."""
    if sweep:
        report = search.correspondence_sweep(
            search.EnumerationParams(max_worlds or 2, max_domain or 2)
        )
        _finish(
            fmt,
            report["agreeEverywhere"],
            report,
            [
                f"frames checked: {report['framesChecked']}",
                f"(R, table) groups checked: {report['groupsChecked']}",
                f"agree everywhere: {report['agreeEverywhere']}",
            ],
        )
        return
    if model_path is None:
        raise click.UsageError("give --model or --sweep")
    for option, value in (("--max-worlds", max_worlds), ("--max-domain", max_domain)):
        if value is not None:
            raise click.UsageError(f"{option} bounds --sweep only")
    model = _load_model(model_path)
    if not isinstance(model.frame, semantics.SelectionFrame):
        raise click.UsageError("correspondence checks need a selection model")
    res = frameprops.qc2_correspondence_check(model.frame)
    _finish(
        fmt,
        res.agree,
        res.to_json(),
        [
            f"instance family valid: {res.instance_valid}",
            f"properties hold: {res.properties_hold}",
            f"agree: {res.agree}",
        ],
    )


# ---------------------------------------------------------------------------
# kmodel subcommands.


@main.group("kmodel")
def kmodel_group() -> None:
    """The infinite ordering countermodel."""


def _k_integer(text: str, error: str) -> int:
    """The integer that an optional '-' and a numeral spell; else exit 2."""
    value = numeral(text.removeprefix("-"))
    if value is None:
        raise click.UsageError(error)
    return -value if text[:1] == "-" else value


def _k_world(text: str):
    if text in ("-inf", "inf", "-oo"):
        return kmodel.MINUS_INF
    return _k_integer(text, f"world must be -inf or a negative integer, got {text!r}")


def _k_assignment(entries: tuple[str, ...]) -> dict[Variable, int]:
    out = {}
    for name, value in _parse_assignment(entries).items():
        val = _k_integer(value, f"assignment value {value!r} is not an integer")
        out[_variable_of(name)] = val
    return out


@kmodel_group.command("eval")
@click.option("--world", required=True)
@click.option("--formula", required=True)
@click.option("--assign", multiple=True)
@click.option("--empty-predicates", is_flag=True, help="Read foreign predicates as empty.")
@lang_option
@format_option
def cmd_k_eval(world, formula, assign, empty_predicates, lang, fmt) -> None:
    """Evaluate formulas at a world of the infinite model."""
    w = _k_world(world)
    g = _k_assignment(assign)
    phis = _read_formulas(formula, LANGS[lang])
    _finish_values(
        fmt, world, [(phi, kmodel.eval_k(phi, w, g, empty_predicates)) for phi in phis]
    )


@kmodel_group.command("denote")
@click.option("--formula", required=True)
@click.option("--assign", multiple=True)
@click.option("--empty-predicates", is_flag=True)
@lang_option
@format_option
def cmd_k_denote(formula, assign, empty_predicates, lang, fmt) -> None:
    """Canonical world set of each formula."""
    g = _k_assignment(assign)
    results = [
        (phi, kmodel.denote_k(phi, g, empty_predicates=empty_predicates))
        for phi in _read_formulas(formula, LANGS[lang])
    ]
    payload = [
        {"formula": print_formula(phi), "denotation": den.to_json()}
        for phi, den in results
    ]
    _finish(
        fmt,
        True,
        {"results": payload},
        [f"{print_formula(phi)}  ->  {den}" for phi, den in results],
    )


@kmodel_group.command("truncate")
@click.option("--n", required=True, type=int)
@click.option("--out", type=click.Path(), default=None)
def cmd_k_truncate(n, out) -> None:
    """Write the finite truncation as an ordering-model document."""
    doc = fileformats.dump_model(kmodel.truncate(n))
    text = json.dumps(doc, indent=2)
    if out:
        _write_text(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text)


@kmodel_group.command("cem-sweep")
@click.option("--max-size", default=7, show_default=True, type=click.IntRange(min=1))
@click.option("--max-vars", default=2, show_default=True, type=click.IntRange(min=1))
@click.option("--identity", is_flag=True, help="Sweep the identity language.")
@click.option("--axioms", is_flag=True, help="Also sweep the non-CEM axiom schemas.")
@click.option("--samples", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True)
@format_option
def cmd_k_cem(max_size, max_vars, identity, axioms, samples, seed, fmt) -> None:
    """Sweep conditional excluded middle over the fragment pool."""
    report = kmodel.cem_sweep(
        max_size,
        max_vars,
        with_identity=identity,
        direct_samples=samples,
        seed=seed,
    )
    payload = {"cem": report.to_json()}
    ok = report.ok
    if axioms:
        axiom_report = kmodel.qc2_axiom_sweep(
            max_size,
            max_vars,
            with_identity=identity,
            rule_samples=samples,
            seed=seed,
        )
        payload["axioms"] = axiom_report.to_json()
        ok = ok and axiom_report.ok
    lines = [
        f"pool: {report.pool_size} formulas, "
        f"{report.distinct_denotations} distinct denotations",
        f"pairs checked: {report.pairs_checked}, counterexamples: "
        f"{len(report.counterexamples)}",
    ]
    if axioms:
        lines.append(
            f"axiom instances checked: {payload['axioms']['pointsChecked']}, "
            f"counterexamples: {len(payload['axioms']['counterexamples'])}"
        )
    _finish(fmt, ok, payload, lines)


@kmodel_group.command("probe")
@format_option
def cmd_k_probe(fmt) -> None:
    """Report the induced selection function's condition failures."""
    report = kmodel.induced_selection_probe()
    _finish(
        fmt,
        True,
        report.to_json(),
        [
            f"f(Z-, -inf) = {report.min_all_integers}",
            f"f({{-1}}, -inf) = {report.min_singleton}",
            f"uniformity violated: {report.uniformity_violated}",
            f"weak limit implication violated on this pair: {report.wla_violated}",
        ],
    )


# ---------------------------------------------------------------------------
# search subcommands.


@main.group("search")
def search_group() -> None:
    """Frame enumeration and countermodel searches."""


_PROPERTIES = click.Choice(sorted(search.PROPERTY_NAMES))


@search_group.command("frames")
@click.option("--max-worlds", default=2, show_default=True, type=click.IntRange(min=1))
@click.option("--max-domain", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--require", multiple=True, type=_PROPERTIES)
@click.option("--policy", type=click.Choice(["all", "reflexive-only"]), default="all")
@click.option(
    "--limit",
    default=0,
    type=click.IntRange(min=0),
    help="Print up to this many frames as documents.",
)
@format_option
def cmd_search_frames(max_worlds, max_domain, require, policy, limit, fmt) -> None:
    """Enumerate canonical frames with the required properties."""
    params = search.EnumerationParams(max_worlds, max_domain, frozenset(require), policy)
    shown = []
    count = 0
    for frame in search.enumerate_frames(params):
        count += 1
        if len(shown) < limit:
            shown.append(fileformats.dump_model(semantics.Model(frame)))
    payload = {"count": count}
    if shown:
        payload["frames"] = shown
    _finish(fmt, True, payload, [f"{count} canonical frames"])


@search_group.command("ds")
@click.option("--max-worlds", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--max-domain", default=2, show_default=True, type=click.IntRange(min=1))
@click.option(
    "--require",
    multiple=True,
    type=_PROPERTIES,
    default=("weaklyStalnakerian",),
    show_default=True,
)
@click.option("--policy", type=click.Choice(["all", "reflexive-only"]), default="all")
@format_option
def cmd_search_ds(max_worlds, max_domain, require, policy, fmt) -> None:
    """Search for a satisfying point of the descending-sequence formula.

    Finding none over weakly Stalnakerian frames is the expected outcome;
    a witness would falsify the implementation and exits 1."""
    outcome = search.ds_sweep(
        search.EnumerationParams(max_worlds, max_domain, frozenset(require), policy)
    )
    if not outcome.found:
        _finish(
            fmt,
            True,
            outcome.to_json(),
            [
                "no model found",
                f"frames: {outcome.frames_enumerated}, points: {outcome.points_checked}",
            ],
        )
    else:
        _finish(
            fmt,
            False,
            outcome.to_json(),
            [f"satisfying point found at world {outcome.witness['world']}"],
        )


@search_group.command("compactness")
@click.option("--n", required=True, type=click.IntRange(min=1))
@format_option
def cmd_search_compactness(n, fmt) -> None:
    """Find a Stalnakerian model of the n-prefix of the compactness family."""
    outcome = search.compactness_witness(n)
    if outcome.found:
        _finish(
            fmt,
            True,
            outcome.to_json(),
            [
                f"model found with {outcome.witness['model'].frame.n_worlds} worlds",
                f"labels: {outcome.witness['labels']}",
            ],
        )
    else:
        _finish(fmt, False, outcome.to_json(), ["no model found"])


if __name__ == "__main__":
    main()
