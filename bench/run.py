"""The condlog benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --profile
    python3 bench/run.py --workload NAME --selftest

Every pass runs alone in a fresh interpreter (``bench/worker.py``), because
the caches of ``condlog.kmodel`` and the per-node caches of the syntax tree
live for the whole process: a second pass in one process would measure warm
caches that no command-line run sees.

``--trace 0`` sets up several times, then runs timed passes for S seconds
(at least one pass), and prints the end-to-end metrics as medians.  Pass
times are scaled to the host's reference speed, which ``bench/probe.py``
measures while each pass runs, and each set-up is timed against the
reference set-up of ``bench/refsetup.py`` run just before and after it; the
unscaled times are printed but not gated.
``--trace 1`` runs one plain pass and one traced pass, and prints
the per-layer metrics, the exact work counters and the tracing overhead.
Each pass fails any operation whose verdict or work counter differs from the
recorded value; the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
1 when any check failed.  ``--profile`` writes a module-grouped cProfile
summary of one pass; ``--selftest`` checks that the counters do not depend
on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "condlog"
RESULTS = BENCH / "results"
WORKER = BENCH / "worker.py"
REFSETUP = BENCH / "refsetup.py"

WORKLOADS = ("k_pool", "frame_sweep", "mixed_checks")
# Set-ups without a pass, before the first pass and again after the last;
# and between two passes.  The host's speed changes over seconds, so the
# set-up samples are spread over the run rather than taken in one burst.
SETUPS_AT_ENDS = 4
SETUPS_BETWEEN = 2
# The reference set-up's time on the benchmark host in its fast state; it
# only sets the unit of ``setup_s`` (``bench/refsetup.py``).
REFSETUP_S = 0.125
RUN_LIMIT_S = 170  # no pass may run past this many seconds into a run

# The wrapped functions each workload must call; the traced run fails when
# one of them records no call.
MAPPED = {
    "k_pool": (
        "syntax.free_variables",
        "syntax.substitute",
        "kmodel.denote_k",
        "kmodel.eval_k",
        "kmodel.monadic_nf",
        "kmodel.fragment_pool",
        "kmodel.cem_sweep",
        "kmodel.qc2_axiom_sweep",
    ),
    "frame_sweep": (
        "syntax.free_variables",
        "semantics.extension",
        "semantics.frame_valid",
        "frameprops.check_selection_props",
        "frameprops.check_domain_props",
        "frameprops.correspondence_instances",
        "frameprops.qc2_correspondence_check",
        "search.enumerate_frames",
        "search.ds_sweep",
        "search.correspondence_sweep",
    ),
    "mixed_checks": (
        "syntax.free_variables",
        "syntax.substitute",
        "syntax.alpha_equal",
        "parser.parse_formula",
        "parser.print_formula",
        "semantics.extension",
        "semantics.ordering_to_selection",
        "semantics.selection_to_ordering",
        "frameprops.check_selection_props",
        "frameprops.check_ordering_props",
        "frameprops.check_domain_props",
        "search.compactness_witness",
        "kmodel.eval_k",
        "kmodel.eval_truncated",
        "kmodel.truncate",
        "hilbert.is_axiom_instance",
        "hilbert.verify_proof",
        "hilbert.check_rule",
        "fileformats.load_model",
        "fileformats.dump_model",
        "fileformats.load_proof",
    ),
}

# Exact counters reported by the traced run, summed over a pass.
COUNTERS = (
    "kmodel.pool_size",
    "kmodel.distinct_denotations",
    "kmodel.points_checked",
    "search.frames_enumerated",
    "search.points_checked",
)
MODULES = (
    "__init__",
    "cli",
    "corpus",
    "fileformats",
    "frameprops",
    "hilbert",
    "kmodel",
    "parser",
    "search",
    "semantics",
    "syntax",
)


class BenchError(Exception):
    """A pass that could not run or gave no result."""


def launch(
    workload: str,
    seed: int,
    mode: str,
    timeout: float,
    out: str = "",
    hash_seed: int | None = None,
) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result.

    String hashing is seeded from the workload seed unless ``hash_seed`` is
    given, so one seed always means one run of the same inputs."""
    if hash_seed is None:
        hash_seed = seed % 4294967296
    args = [workload, str(seed), mode] + ([out] if out else [])
    return spawn(WORKER, args, hash_seed, timeout, f"{workload} {mode} pass")


def reference_setup() -> float:
    """Seconds of one reference set-up (``bench/refsetup.py``)."""
    return spawn(REFSETUP, [], 0, RUN_LIMIT_S, "reference set-up")["ref_s"]


def spawn(script: Path, args: list[str], hash_seed: int, timeout: float, what: str) -> dict:
    """Start ``script`` in a fresh interpreter, passing the CLOCK_MONOTONIC
    reading taken just before the start, and return its last line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(script), repr(start)] + args,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{what} exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_work(passes: list[dict]) -> bool:
    """Every pass of one seed did the same work and got the same verdicts."""
    first = passes[0]
    keys = ("items", "attempted", "failed", "counters")
    return all(all(p[k] == first[k] for k in keys) for p in passes[1:])


def timed_run(workload: str, seed: int, seconds: int) -> dict:
    """Passes one after another while the next one is expected to end
    within ``seconds`` of the first; always at least one."""
    launch(workload, seed, "setup", RUN_LIMIT_S)  # untimed: writes bytecode caches
    setups: list[tuple[float, float]] = []  # (set-up seconds, reference seconds)

    def set_up(times: int) -> None:
        """Set-ups, each between two reference set-ups."""
        before = reference_setup()
        for _ in range(times):
            setup_s = launch(workload, seed, "setup", RUN_LIMIT_S)["setup_s"]
            after = reference_setup()
            setups.append((setup_s, (before + after) / 2))
            before = after

    set_up(SETUPS_AT_ENDS)
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if passes:
            expected = statistics.median(p["wall_s"] + p["setup_s"] for p in passes)
            if elapsed + expected > seconds:
                break
            set_up(SETUPS_BETWEEN)
        passes.append(launch(workload, seed, "pass", RUN_LIMIT_S - elapsed))
    set_up(SETUPS_AT_ENDS)
    metrics = {
        "scaled_wall_s": (statistics.median(map(scaled_wall, passes)), "s"),
        "scaled_items_per_s": (
            statistics.median(p["items"] / scaled_wall(p) for p in passes),
            "1/s",
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (
            statistics.median(REFSETUP_S * s / ref for s, ref in setups),
            "s",
        ),
    }
    result = summarize(workload, seed, passes, metrics, same_work(passes))
    # As measured, not scaled: printed for reading, not gated.
    result["unscaled"] = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "setup_s": statistics.median(s for s, _ in setups),
        "speed": statistics.median(p["speed"] for p in passes),
        "reference_setup_s": statistics.median(ref for _, ref in setups),
    }
    return result


def scaled_wall(p: dict) -> float:
    """A pass's wall time at the probe's reference speed (``bench/probe.py``)."""
    return p["wall_s"] * p["speed"]


def traced_run(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    launch(workload, seed, "setup", RUN_LIMIT_S)
    plain = launch(workload, seed, "pass", deadline - time.monotonic())
    traced = launch(workload, seed, "trace", deadline - time.monotonic())
    layers = traced["layers"]
    unreached = [f for f in MAPPED[workload] if not layers[f"{f}.calls"]]
    metrics = {
        name: (value, "count" if name.endswith(".calls") else "s")
        for name, value in layers.items()
    }
    counters = traced["counters"]
    for name in COUNTERS:
        metrics[name] = (counters.get(name, 0), "count")
    metrics["kmodel.distinct_per_pool"] = (
        ratio(counters, "kmodel.distinct_denotations", "kmodel.pool_size"),
        "ratio",
    )
    metrics["search.points_per_frame"] = (
        ratio(counters, "search.points_checked", "search.frames_enumerated"),
        "ratio",
    )
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        lines = len(path.read_text().splitlines()) if path.is_file() else 0
        metrics[f"{module.strip('_')}.lines"] = (lines, "lines")
    metrics["src.lines"] = (
        sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py")),
        "lines",
    )
    metrics["trace_overhead"] = (scaled_wall(traced) / scaled_wall(plain), "ratio")
    consistent = same_work([plain, traced]) and not unreached
    result = summarize(workload, seed, [plain, traced], metrics, consistent)
    result["unreached"] = unreached
    result["edges"] = traced["edges"]
    return result


def ratio(counters: dict, num: str, den: str) -> float:
    return counters[num] / counters[den] if counters.get(den) else 0.0


def summarize(workload, seed, passes, metrics, consistent) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": workload,
        "seed": seed,
        "passes": [
            {k: v for k, v in p.items() if k not in ("layers", "edges")} for p in passes
        ],
        "consistent": consistent,
        "correct": consistent and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def selftest(workload: str, seed: int) -> int:
    """Counters and verdicts must not depend on string hashing."""
    runs = [launch(workload, seed, "pass", 600, hash_seed=h) for h in (0, 1)]
    ok = same_work(runs) and all(r["failed"] == 0 for r in runs)
    verdict = "match" if ok else "DIFFER"
    print(f"{workload}: counters under PYTHONHASHSEED 0 and 1 {verdict}: "
          f"{runs[0]['counters']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no condlog package at {PACKAGE}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        if args.selftest:
            return selftest(args.workload, args.seed)
        if args.profile:
            out = RESULTS / f"{args.workload}.profile.txt"
            launch(args.workload, args.seed, "profile", 600, str(out))
            print(out.read_text(), end="")
            return 0
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = timed_run(args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0 if result["correct"] else 1


def report(result: dict) -> None:
    passes = result["passes"]
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    for name in result.get("unreached", ()):
        print(f"FAILED {name} was never called")
    ratio_failed = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(
        f"{result['workload']} seed {result['seed']}: {len(passes)} passes, "
        f"failed_ratio {ratio_failed:g} ({result['failed']}/{result['attempted']}), "
        f"work {'identical' if result['consistent'] else 'DIFFERS'} across passes"
    )
    for name, value in result.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled, not gated)':<46} {value:>14.6g}")
    for name, m in result["metrics"].items():
        if not name.endswith((".calls", ".total_s")) or m["value"]:
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
