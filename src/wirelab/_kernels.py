"""Evaluation kernel: bitsliced sweeps over all 2**n inputs.

Circuits are evaluated on all 2**n inputs at once by manipulating
"value vectors": ints whose bit ``x`` holds a node's output on input
``x`` (input assignments are encoded with coordinate ``i`` taken from
bit ``i`` of ``x``).  Gates combine value vectors with big-int bitwise
ops, so the inner loop runs in C inside the int implementation.
"""

from __future__ import annotations

from itertools import chain

BACKEND = "python"
EXHAUSTIVE_CAP = 20


class ExhaustiveCapError(ValueError):
    """An exhaustive sweep over 2**n inputs with n above ``EXHAUSTIVE_CAP``."""


def check_exhaustive(n: int) -> None:
    """Raise ExhaustiveCapError unless a sweep over 2**n inputs is allowed."""
    if n > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(f"exhaustive evaluation capped at n={EXHAUSTIVE_CAP}, got n={n}")


def variable_mask(i: int, n: int) -> int:
    """Value vector of input coordinate ``i`` over all 2**n assignments."""
    period = 1 << (i + 1)
    total = 1 << n
    m = ((1 << (1 << i)) - 1) << (1 << i)
    while period < total:
        m |= m << period
        period <<= 1
    return m


def input_vectors(n: int) -> list[int]:
    """Value vectors of the n input coordinates; every sweep starts here,
    so the cap is checked before the first 2**n-bit int is built."""
    check_exhaustive(n)
    return [variable_mask(i, n) for i in range(n)]


def parity_candidate(table: int, fanin: int) -> tuple[int, int]:
    """Mask of arguments and negation bit of the parity that agrees with
    ``table`` on the all-zero and all unit assignments."""
    neg = table & 1
    mask = 0
    for k in range(fanin):
        if ((table >> (1 << k)) & 1) ^ neg:
            mask |= 1 << k
    return mask, neg


def parity_table(fanin: int, mask: int, neg: int) -> int:
    """Truth table of XOR over the arguments in ``mask``, complemented if ``neg``."""
    t = neg
    width = 1
    for k in range(fanin):
        half = ~t & ((1 << width) - 1) if (mask >> k) & 1 else t
        t |= half << width
        width <<= 1
    return t


def apply_table(table: int, argvecs: list[int], full: int) -> int:
    """Value vector of a gate given its table and argument value vectors."""
    fanin = len(argvecs)
    mask, neg = parity_candidate(table, fanin)
    if table == parity_table(fanin, mask, neg):
        acc = full if neg else 0
        for k in range(fanin):
            if (mask >> k) & 1:
                acc ^= argvecs[k]
        return acc
    return _mux_tree(table, argvecs, full)


def _mux_tree(table: int, argvecs: list[int], full: int) -> int:
    """Shannon expansion of a table with at least one argument.

    Node ``j`` of level ``k`` is the gate restricted to table bits
    ``[j * 2**k, (j + 1) * 2**k)``.  A level-1 node depends on the first
    argument only, so its two table bits pick 0, ~v0, v0 or full.  Nodes
    ``lo = 2j`` and ``hi = 2j + 1`` of level ``k`` merge on argument ``k``
    into ``lo ^ ((lo ^ hi) & v)``.  Level-1 nodes are made in order and
    merged like a binary counter, so each level holds at most one pending
    vector: memory stays at fanin + 1 vectors, not 2**(fanin - 1).
    """
    fanin = len(argvecs)
    v0 = argvecs[0]
    leaves = (0, full ^ v0, v0, full)
    pairs = table.to_bytes(((1 << fanin) + 7) >> 3, "little")
    pending = [0] * (fanin + 1)
    for j in range(1 << (fanin - 1)):
        acc = leaves[(pairs[j >> 2] >> ((j & 3) << 1)) & 3]
        level = 1
        while j & 1:
            lo = pending[level]
            if lo != acc:
                acc = lo ^ ((lo ^ acc) & argvecs[level])
            j >>= 1
            level += 1
        pending[level] = acc
    return pending[fanin]


def _sweep(n: int, preds, tables) -> list[int]:
    """Value vectors of the n inputs, then of each gate in order; gate
    arguments index the vectors before it.

    Both public entry points call this directly and never each other, so
    a wrapper installed on one of them sees each sweep exactly once.
    """
    vecs = input_vectors(n)
    full = (1 << (1 << n)) - 1
    for ps, t in zip(preds, tables):
        vecs.append(apply_table(t, [vecs[p] for p in ps], full))
    return vecs


def node_vectors_general(n: int, preds: list[tuple[int, ...]], tables: list[int]) -> list[int]:
    """Value vectors for every node (inputs first, then gates in order)."""
    return _sweep(n, preds, tables)


def output_vectors_depth2(
    n: int,
    mid_inputs: list[tuple[int, ...]],
    mid_tables: list[int],
    out_mids: list[tuple[int, ...]],
    out_directs: list[tuple[int, ...]],
    out_tables: list[int],
) -> list[int]:
    """Per-output value vectors of a depth-2 circuit over all 2**n inputs."""
    # middle gate j is node n + j; an output reads its middle gates, then its direct inputs.
    # Lists, not generator expressions: with a generator per output, peak RSS grew
    # with every repeated sweep at n = 18-20 (by about 2 MB over a few thousand).
    out_args = [[n + j for j in ms] + list(ds) for ms, ds in zip(out_mids, out_directs)]
    vecs = _sweep(n, chain(mid_inputs, out_args), chain(mid_tables, out_tables))
    return vecs[n + len(mid_inputs):]
