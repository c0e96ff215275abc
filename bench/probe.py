"""A host-speed probe that runs alongside a timed pass.

The benchmark host is a shared virtual machine whose CPU speed changes by up
to about 1.5x from one few-second stretch to the next, with CPU time equal
to wall time, so a pass's wall time says as much about the neighbours as
about the program.  The probe measures that speed while the pass runs: a
timer signal interrupts the pass every ``PERIOD_S`` seconds and times one
fixed piece of pure-Python work (``reference``: a recursive walk over a tree
of small objects with dict and frozenset operations, the same kind of work
the library does).  It uses nothing from ``condlog``, so a change to the
program cannot change the probe.

``Probe.speed`` is the mean of ``REFERENCE_S / t`` over the samples, the
host's speed relative to a reference run of ``REFERENCE_S`` seconds.  The
work a pass does is proportional to the integral of the speed over its wall
time, so ``wall_s * speed`` is the pass's wall time at the reference speed.
On the 2-vCPU benchmark host the log of a pass's wall time falls with the
log of the probe's mean inverse sample time with slope -0.98 (correlation
-0.98, 14 passes of one seed), so the scaled time cancels the host's speed.
The probe's own time is measured and taken out of the pass's wall time.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
# The probe's time on the 2-vCPU benchmark host in its fast state; it only
# sets the unit of the scaled times.
REFERENCE_S = 0.00035


class _Node:
    __slots__ = ("op", "kids")

    def __init__(self, op: int, kids: tuple) -> None:
        self.op = op
        self.kids = kids


def _tree(depth: int) -> _Node:
    kids = tuple(_tree(depth - 1) for _ in range(2)) if depth else ()
    return _Node(depth % 3, kids)


_TREE = _tree(8)


def _walk(node: _Node, seen: dict) -> frozenset:
    key = (node.op, len(node.kids))
    seen[key] = seen.get(key, 0) + 1
    acc = frozenset((node.op,))
    for kid in node.kids:
        acc = acc | _walk(kid, seen)
    return acc


def reference() -> None:
    """The fixed work the probe times: 511 nodes, about 0.35 ms."""
    _walk(_TREE, {})


class Probe:
    """Samples the host's speed on SIGALRM while it is started."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        for _ in range(20):  # let the interpreter specialise the probe's code
            reference()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a pass shorter than one period
            start = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - start)

    @property
    def speed(self) -> float:
        return sum(REFERENCE_S / t for t in self.samples) / len(self.samples)

