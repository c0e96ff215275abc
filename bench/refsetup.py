"""A fixed reference set-up, timed against the host like a workload's set-up.

    python3 bench/refsetup.py SPAWN_TIME

It does the same kinds of work as a workload's set-up, but with nothing from
``condlog``: an interpreter start, imports from the standard library, 40
frozen dataclasses made at run time, 15 regular expressions compiled, 300
random trees of dataclass nodes hashed into a dict, and a JSON round trip.
SPAWN_TIME is the CLOCK_MONOTONIC reading taken just before the interpreter
was started.  It prints one JSON line with ``ref_s``, the seconds from then
to the end of the work.

``bench/run.py`` runs it just before and just after each timed set-up and
divides the set-up's time by the mean of the two, because a set-up's time on
the shared benchmark host follows the host's speed: over eight batches of
set-ups taken a few minutes apart, the batch medians of a workload's set-up
time moved by up to 49% while its ratio to this reference moved by at most
14% (correlation of the logs 0.93 to 1.0).  A change to the program cannot
change the reference, so a slower set-up shows as a larger ratio.
"""

import sys
import time


def main(argv: list[str]) -> int:
    spawn_time = float(argv[0])
    import dataclasses
    import json
    import random
    import re

    rng = random.Random(12345)
    classes = [
        dataclasses.make_dataclass(
            f"Node{i}", [("op", int), ("left", object), ("right", object)], frozen=True
        )
        for i in range(40)
    ]
    re.purge()
    patterns = [
        re.compile(rf"\s*(?:forall|exists|~|[A-Z]{i}\w*)\((\w+),\s*(\w+)\)")
        for i in range(15)
    ]

    def tree(depth: int):
        if depth == 0 or rng.random() < 0.2:
            return rng.randrange(8)
        node = classes[rng.randrange(len(classes))]
        return node(depth, tree(depth - 1), tree(depth - 1))

    seen: dict = {}
    for _ in range(300):
        t = tree(7)
        seen[t] = seen.get(t, 0) + 1
    doc = [{"w": i, "r": [[j, (i * j) % 7] for j in range(20)]} for i in range(300)]
    text = " ".join(f"P{i}(x{i}, y{i})" for i in range(200))
    matches = sum(1 for p in patterns for _ in p.finditer(text))
    checks = (len(seen), matches, len(json.loads(json.dumps(doc))))
    ref_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_time
    if checks != (246, 255, 300):
        print(f"reference set-up computed {checks}", file=sys.stderr)
        return 1
    print(json.dumps({"ref_s": ref_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
