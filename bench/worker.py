"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py SPAWN_TIME WORKLOAD SEED MODE [OUT]

MODE is ``setup`` (set up and stop), ``pass`` (one timed pass), ``trace``
(one pass with the layer wrappers installed) or ``profile`` (one pass under
cProfile, with a module-grouped summary written to OUT).  Timed and traced
passes run with the host-speed probe of ``bench/probe.py``: its time is
taken out of ``wall_s``, and its mean relative speed is reported as
``speed``.  SPAWN_TIME is the CLOCK_MONOTONIC reading taken just before the
interpreter was started, so set-up time covers interpreter start, ``import
condlog`` and building the inputs.  The result is one JSON line on standard
output.
"""

import sys
import time


def main(argv: list[str]) -> int:
    spawn_time, workload, seed, mode = float(argv[0]), argv[1], int(argv[2]), argv[3]
    import json
    import resource
    from pathlib import Path

    bench = Path(__file__).resolve().parent
    src = bench.parent / "src"
    sys.path.insert(0, str(src))
    import condlog

    if not Path(condlog.__file__).resolve().is_relative_to(src.resolve()):
        print(f"condlog imported from {condlog.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    inputs = setup(seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_time
    out: dict = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = profiler = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([workloads])
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    tally = workloads.Tally()
    probe = None
    if profiler is not None:
        profiler.enable()
    else:
        from probe import Probe

        probe = Probe()
        probe.start()
    start = time.perf_counter()
    run(inputs, tally)
    wall_s = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    else:
        probe.stop()
        wall_s -= probe.spent_s
        out.update(speed=probe.speed, probe_samples=len(probe.samples))

    out.update(
        wall_s=wall_s,
        items=tally.items,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        counters=tally.counters,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["edges"] = tracer.edge_table()
    if profiler is not None:
        Path(argv[4]).write_text(
            module_profile(profiler, src / "condlog", bench, workload, seed, wall_s)
        )
    print(json.dumps(out))
    return 0


def module_profile(profiler, package, bench, workload, seed, wall_s) -> str:
    """Self time grouped by module, builtins charged to the calling module."""
    import pstats
    from collections import Counter
    from pathlib import Path

    package, bench = str(package), str(bench)

    def module_of(func) -> str | None:
        filename = func[0]
        if filename == "~" or filename.startswith("<"):
            return None  # a builtin, or code generated at run time by dataclasses
        if filename.startswith(package):
            return Path(filename).stem
        if filename.startswith(bench):
            return "bench"
        return "stdlib"

    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    by_module: Counter = Counter()
    by_function: Counter = Counter()

    def charge(func, amount: float, label: str, depth: int = 0) -> None:
        """Charge a builtin or a generated method (a dataclass __eq__ or
        __hash__) to its callers, in proportion to the time it spent for
        each, up through callers that are builtins themselves."""
        module = module_of(func)
        callers = stats[func][4] if func in stats else {}
        if module is not None or not callers or depth > 8:
            module = module or "builtins"
            by_module[module] += amount
            by_function[f"{module}:{label}"] += amount
            return
        spent = sum(c[2] for c in callers.values())
        for caller, caller_stats in callers.items():
            share = caller_stats[2] / spent if spent else 1 / len(callers)
            charge(caller, amount * share, label, depth + 1)

    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if module_of(func) is None:
            label = func[2] if func[0] == "~" else f"{func[2]} {func[0]}"
        else:
            label = f"{func[2]}:{func[1]}"
        charge(func, tt, label)
    total = sum(by_module.values()) or 1.0
    lines = [
        f"# {workload} seed {seed}: one pass under cProfile, {wall_s:.2f} s wall",
        "# self time per module (builtins charged to the calling module)",
        f"{'module':<14}{'self_s':>10}{'share':>9}",
    ]
    for module, t in by_module.most_common():
        if t < 0.0005:
            continue
        lines.append(f"{module:<14}{t:>10.3f}{100 * t / total:>8.1f}%")
    lines += ["", "# top functions by self time", f"{'function':<60}{'self_s':>10}"]
    for name, t in by_function.most_common(30):
        lines.append(f"{name:<60}{t:>10.3f}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
