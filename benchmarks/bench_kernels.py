#!/usr/bin/env python3
"""Time the evaluation kernel on five fixed workloads.

Times exhaustive evaluation (all 2**n inputs) of random depth-2 and
general circuits and prints one table row per workload.  Run as
``python benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import random
import time

from wirelab import _kernels
from wirelab.circuit import Depth2Circuit, MiddleGate, OutputGate, TruthTable
from wirelab.generators import random_general


def bounded_depth2(n: int, r: int, fanin: int, seed: int) -> Depth2Circuit:
    """Random depth-2 circuit with every gate fanin fixed to ``fanin``."""
    rng = random.Random(seed)
    mids = tuple(
        MiddleGate(tuple(sorted(rng.sample(range(n), fanin))), TruthTable(fanin, rng.getrandbits(1 << fanin)))
        for _ in range(r)
    )
    outs = tuple(
        OutputGate(
            tuple(sorted(rng.sample(range(r), fanin))),
            (),
            TruthTable(fanin, rng.getrandbits(1 << fanin)),
        )
        for _ in range(n)
    )
    return Depth2Circuit(n, mids, outs)


def time_call(fn, *args, min_time=0.3):
    reps = 0
    t0 = time.perf_counter()
    while True:
        fn(*args)
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            return elapsed / reps


def depth2_args(c):
    return (
        c.n,
        [m.inputs for m in c.middle],
        [m.table.bits for m in c.middle],
        [o.mids for o in c.outputs],
        [o.directs for o in c.outputs],
        [o.table.bits for o in c.outputs],
    )


def general_args(c):
    return c.n, [g.preds for g in c.gates], [g.table.bits for g in c.gates]


def main() -> None:
    workloads = []
    for n, r, fanin in ((8, 12, 5), (12, 24, 6), (16, 32, 8)):
        c = bounded_depth2(n, r, fanin, seed=n)
        workloads.append((f"depth2 n={n} r={r} d={fanin}", depth2_args(c), "output_vectors_depth2"))
    for n, g in ((8, 16), (12, 24)):
        c = random_general(n, g, seed=n)
        workloads.append((f"general n={n} gates={g}", general_args(c), "node_vectors_general"))

    print(f"{'workload':24} {'time':>12}")
    for name, args, fn_name in workloads:
        t = time_call(getattr(_kernels, fn_name), *args)
        print(f"{name:24} {t * 1e3:10.3f}ms")


if __name__ == "__main__":
    main()
