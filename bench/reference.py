"""A fixed pure-Python reference kernel that measures the machine's speed.

The benchmark runs on shared hosts whose speed drifts by a third or more
over seconds to minutes. Each iteration therefore times this kernel just
before and just after the workload, and the end-to-end times are scaled by
``NOMINAL_S / measured kernel seconds``: they read as the seconds the work
would take on a machine that runs the kernel in ``NOMINAL_S``. A change to
latticeflow cannot move the kernel, so the scaled times move only with the
program.

The kernel mixes the operations the program's hot paths are made of: a
semi-naive closure over sets of tuples, a tree-walking evaluator that
dispatches on node classes, and a heap-driven event queue over dicts.

Do not change this file: it is the unit every end-to-end time is given in.
"""

from __future__ import annotations

import heapq
import random
import time

# about the kernel's time on the 2-core Xeon VM (Python 3.11) the benchmark
# was tuned on; scaled times equal wall times on a machine that fast
NOMINAL_S = 0.1


class Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class BinOp:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def evaluate(expr, env: dict):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    a, b = evaluate(expr.left, env), evaluate(expr.right, env)
    if expr.op == "+":
        return a + b
    if expr.op == "==":
        return a == b
    return a * b


def closure(edges) -> set:
    links = {}
    for a, b in edges:
        links.setdefault(a, []).append(b)
    total = set(edges)
    delta = frozenset(total)
    while delta:
        new = {(a, c) for a, b in delta for c in links.get(b, ())} - total
        total |= new
        delta = frozenset(new)
    return total


def events(rng: random.Random, n: int):
    heap, seen, out = [], {}, 0
    for i in range(n):
        heapq.heappush(heap, (rng.randrange(50), i, ("m", i % 7)))
    while heap:
        t, i, (kind, k) = heapq.heappop(heap)
        seen[k] = seen.get(k, 0) + 1
        if i % 3 == 0 and t < 40:
            heapq.heappush(heap, (t + 5, i + 1, (kind, (k + 1) % 7)))
        out += t
    return out, sorted(seen.items())


_rng = random.Random("reference")
EDGES = sorted({(_rng.randrange(200), _rng.randrange(200)) for _ in range(330)})
EXPR = BinOp("==", BinOp("+", Var("a"), Lit(1)), BinOp("*", Var("b"), Lit(2)))


def kernel():
    closure(EDGES)
    hits = sum(1 for a in range(160) for b in range(160)
               if evaluate(EXPR, {"a": a, "b": b}))
    events(random.Random(3), 20000)
    return hits


def measure() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(sorted(round(measure(), 4) for _ in range(9)))
