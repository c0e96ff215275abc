"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each ``condlog`` module (a layer)
and rebinds every module attribute that refers to one of them, so calls
between modules (``search.check_selection_props`` is a separate binding
from ``frameprops.check_selection_props``) and calls inside a module, which
look the name up in the module globals, both go through the wrapper.
Spans are not kept: each call is folded into an aggregate per
(function, calling wrapped function).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = {
    "syntax": ("free_variables", "substitute", "alpha_equal"),
    "parser": ("parse_formula", "print_formula"),
    "semantics": (
        "extension",
        "frame_valid",
        "ordering_to_selection",
        "selection_to_ordering",
    ),
    "frameprops": (
        "check_selection_props",
        "check_ordering_props",
        "check_domain_props",
        "correspondence_instances",
        "qc2_correspondence_check",
    ),
    "search": (
        "enumerate_frames",
        "ds_sweep",
        "correspondence_sweep",
        "compactness_witness",
    ),
    "kmodel": (
        "denote_k",
        "eval_k",
        "monadic_nf",
        "eval_truncated",
        "truncate",
        "fragment_pool",
        "cem_sweep",
        "qc2_axiom_sweep",
    ),
    "hilbert": ("is_axiom_instance", "verify_proof", "check_rule"),
    "fileformats": ("load_model", "dump_model", "load_proof"),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [function, time spent in wrapped children]
        self._depth: Counter = Counter()
        # (function, parent or None) -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str | None], list] = {}

    def install(self, extra_modules=()) -> None:
        """Wrap every listed function and rebind every reference to it in
        the ``condlog`` modules and in ``extra_modules``.  A function the
        package no longer has is skipped and reports no calls."""
        wrappers = {}
        for key in FUNCTIONS:
            layer, name = key.split(".")
            orig = getattr(importlib.import_module(f"condlog.{layer}"), name, None)
            if orig is None:
                continue
            wrap = self._wrap_gen if inspect.isgeneratorfunction(orig) else self._wrap
            wrappers[id(orig)] = (orig, wrap(key, orig))
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "condlog" or name.startswith("condlog.")
        ]
        for module in modules + list(extra_modules):
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _edge(self, key: str, parent: str | None) -> list:
        edge = self.edges.get((key, parent))
        if edge is None:
            edge = self.edges[(key, parent)] = [0, 0.0, 0.0]
        return edge

    def _wrap(self, key: str, fn):
        stack, depth, perf = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            depth[key] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                depth[key] -= 1
                if stack:
                    stack[-1][1] += elapsed
                edge = self._edge(key, parent)
                edge[0] += 1
                if not depth[key]:  # a recursive call is inside the outer one
                    edge[1] += elapsed
                edge[2] += elapsed - frame[1]

        return traced

    def _wrap_gen(self, key: str, fn):
        """A generator's span is the time inside each ``next``."""
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            edge = self._edge(key, stack[-1][0] if stack else None)
            edge[0] += 1
            try:
                while True:
                    frame = [key, 0.0]
                    stack.append(frame)
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf() - start
                        stack.pop()
                        if stack:
                            stack[-1][1] += elapsed
                        edge[1] += elapsed
                        edge[2] += elapsed - frame[1]
                    yield item
            finally:
                it.close()

        return traced

    def metrics(self) -> dict[str, float]:
        """``<layer>.<fn>.calls``, ``<layer>.<fn>.total_s`` and ``<layer>.self_s``."""
        out: dict[str, float] = {}
        for key in FUNCTIONS:
            out[f"{key}.calls"] = 0
            out[f"{key}.total_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for (key, _parent), (calls, total, own) in self.edges.items():
            out[f"{key}.calls"] += calls
            out[f"{key}.total_s"] += total
            out[f"{key.split('.')[0]}.self_s"] += own
        return out

    def edge_table(self) -> list[dict]:
        return [
            {"function": key, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (key, parent), (c, t, s) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][2]
            )
        ]
