"""Fixed kernel workloads for perfbench.

``perfbench/workloads.py`` loads this file by path: its ``exhaustive``
workload draws depth-2 circuits with ``bounded_depth2``, and
``perfbench/run.py --trace 1`` times the kernel on five fixed circuits,
reported as ``kernels.bk.*``, through ``depth2_args`` and
``general_args``.
"""

from __future__ import annotations

import random

from wirelab.circuit import Depth2Circuit, MiddleGate, OutputGate, TruthTable


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

