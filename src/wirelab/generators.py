"""Seeded random instance generators.

All generators draw from ``random.Random(seed)`` (the stdlib Mersenne
Twister), so a fixed seed reproduces the instance bit for bit on any
platform.  The two planted families construct depth-2 circuits that
compute a known matrix-vector product while keeping one layer
non-linear:

* ``linear_output_instance`` - parity output gates, middle layer salted
  with non-linear gates whose contributions cancel mod 2;
* ``linear_middle_instance`` - parity middle gates, output gates defined
  by linear behaviour on the reachable value space and coin flips off it.
"""

from __future__ import annotations

import random

from .gf2 import Gf2Matrix, bit_indices, matmul
from .circuit import (
    Depth2Circuit,
    GeneralCircuit,
    GeneralGate,
    LinearDepth2Circuit,
    MiddleGate,
    OutputGate,
    TruthTable,
    check_fanin,
    is_linear_gate,
)


def random_matrix(rows: int, cols: int, density: float = 0.5, seed: int = 0) -> Gf2Matrix:
    """Matrix whose entries are independently 1 with probability ``density``."""
    _check_density(density)
    return Gf2Matrix(rows, cols, _random_words(random.Random(seed), rows, cols, density))


def random_linear_circuit(n: int, r: int, density: float = 0.5, seed: int = 0) -> LinearDepth2Circuit:
    """All-parity depth-2 circuit with random wiring."""
    _check_density(density)
    rng = random.Random(seed)
    b = _random_words(rng, r, n, density)
    c = _random_words(rng, n, r, density)
    return LinearDepth2Circuit(Gf2Matrix(r, n, b), Gf2Matrix(n, r, c))


def random_depth2(n: int, r: int, density: float = 0.5, seed: int = 0) -> Depth2Circuit:
    """Depth-2 circuit with density-controlled wiring and random tables.

    Gates that end up with no wires are constant 0, so density 0 yields a
    circuit of constants computing the zero operator.
    """
    _check_density(density)
    if r < 0:
        raise ValueError("middle gate count must be non-negative")
    rng = random.Random(seed)
    mids = []
    for _ in range(r):
        ins = tuple(i for i in range(n) if rng.random() < density)
        mids.append(MiddleGate(ins, _random_table(rng, len(ins))))
    outs = []
    for _ in range(n):
        ms = tuple(j for j in range(r) if rng.random() < density)
        ds = tuple(i for i in range(n) if rng.random() < density)
        outs.append(OutputGate(ms, ds, _random_table(rng, len(ms) + len(ds))))
    return Depth2Circuit(n, tuple(mids), tuple(outs))


def random_general(
    n: int, n_gates: int, seed: int = 0, max_fanin: int | None = None, over_fanin_gates: int = 0
) -> GeneralCircuit:
    """Random DAG circuit; ``over_fanin_gates`` of the gates get fanin > n
    (predecessors may repeat, each repeat being its own wire)."""
    if n_gates < 1:
        raise ValueError("need at least one gate")
    if over_fanin_gates > n_gates:
        raise ValueError("more over-fanin gates than gates")
    rng = random.Random(seed)
    cap = max_fanin if max_fanin is not None else n
    over = set(rng.sample(range(n_gates), over_fanin_gates))
    gates = []
    for k in range(n_gates):
        pool = n + k
        if k in over:
            fanin = n + rng.randint(1, 4)
        else:
            fanin = rng.randint(1, min(cap, pool))
        preds = tuple(rng.randrange(pool) for _ in range(fanin))
        gates.append(GeneralGate(preds, _random_table(rng, fanin)))
    outputs = tuple(rng.randrange(n + n_gates) for _ in range(n))
    return GeneralCircuit(n, tuple(gates), outputs)


def linear_output_instance(
    n: int, r: int, density: float = 0.5, seed: int = 0
) -> tuple[Depth2Circuit, Gf2Matrix]:
    """Depth-2 circuit with (possibly negated) parity output gates that
    computes a linear operator despite non-linear middle gates.

    Returns the circuit and the matrix it computes.  Construction keeps
    the semantics of a random all-parity circuit (B, C) and then salts it
    with gadgets that cancel modulo 2: duplicated non-linear middle-gate
    pairs wired to identical outputs, complementary pairs paired with a
    negation of the receiving output gates, dead middle gates, and output
    wires the output gate ignores.  Direct input->output wires joining
    the output parity are added last (adjusting the planted matrix).
    """
    _check_density(density)
    rng = random.Random(seed)
    b = _random_words(rng, r, n, density)
    c = _random_words(rng, n, r, density)
    a_words = list(matmul(Gf2Matrix(n, r, c), Gf2Matrix(r, n, b)).row_words)

    mids: list[MiddleGate] = [
        MiddleGate(bit_indices(b[j]), TruthTable.parity(b[j].bit_count())) for j in range(r)
    ]
    # per output: wired middle gates, positions its parity actually uses, negation
    out_mids: list[list[int]] = [list(bit_indices(c[i])) for i in range(n)]
    out_used: list[list[int]] = [list(range(len(out_mids[i]))) for i in range(n)]
    out_neg = [False] * n

    def add_pair(complementary: bool) -> None:
        table = _random_nonlinear_table(rng, min(3, max(2, n)), n)
        ins = tuple(sorted(rng.sample(range(n), table.fanin)))
        j1 = len(mids)
        mids.append(MiddleGate(ins, table))
        mids.append(MiddleGate(ins, table.complement() if complementary else table))
        targets = [i for i in range(n) if rng.random() < 0.5]
        if complementary and not targets:
            targets = [rng.randrange(n)]
        for i in targets:
            for j in (j1, j1 + 1):
                out_used[i].append(len(out_mids[i]))
                out_mids[i].append(j)
            if complementary:
                out_neg[i] = not out_neg[i]

    for _ in range(rng.randint(1, 2)):
        add_pair(complementary=False)
    if rng.random() < 0.6:
        add_pair(complementary=True)
    for _ in range(rng.randint(0, 2)):  # dead gates: first-level wires, no fanout
        d = rng.randint(0, min(3, n))
        ins = tuple(sorted(rng.sample(range(n), d)))
        mids.append(MiddleGate(ins, _random_table(rng, d)))
    if rng.random() < 0.4:  # a wire the output parity ignores
        i = rng.randrange(n)
        spare = [j for j in range(len(mids)) if j not in out_mids[i]]
        if spare:
            out_mids[i].append(rng.choice(spare))

    # direct wires, appended after all middle arguments
    out_directs: list[tuple[int, ...]] = [()] * n
    if rng.random() < 0.6:
        for i in range(n):
            if rng.random() < 0.5:
                continue
            ds = tuple(sorted(rng.sample(range(n), rng.randint(1, min(2, n)))))
            out_directs[i] = ds
            for k, d in enumerate(ds):
                if rng.random() < 0.15:
                    continue  # a direct wire the parity ignores
                out_used[i].append(len(out_mids[i]) + k)
                a_words[i] ^= 1 << d

    outs = [
        OutputGate(
            tuple(out_mids[i]),
            out_directs[i],
            TruthTable.parity(
                len(out_mids[i]) + len(out_directs[i]), out_used[i], out_neg[i]
            ),
        )
        for i in range(n)
    ]
    a = Gf2Matrix(n, n, tuple(a_words))
    return Depth2Circuit(n, tuple(mids), tuple(outs)), a


def linear_middle_instance(
    n: int, r: int, density: float = 0.5, seed: int = 0
) -> tuple[Depth2Circuit, Gf2Matrix]:
    """Depth-2 circuit with parity middle gates computing a planted matrix.

    Output gate ``i`` sees the middle values y = B_i * x; its row of the
    planted matrix is chosen inside the row space of B_i so that the
    required scalar product factors through y.  The gate's table is the
    corresponding linear form on reachable y values and a coin flip on
    unreachable ones, which typically leaves the gate non-linear.
    """
    _check_density(density)
    if r < 1:
        raise ValueError("need at least one middle gate")
    rng = random.Random(seed)
    b = _random_words(rng, r, n, density)
    c = _random_words(rng, n, r, density)
    mids = [MiddleGate(bit_indices(b[j]), TruthTable.parity(b[j].bit_count())) for j in range(r)]

    a_words = []
    outs = []
    for i in range(n):
        t_i = bit_indices(c[i])
        d_i = len(t_i)
        check_fanin(d_i)  # before the image and the loop over 2**d_i values
        mu = rng.getrandbits(d_i) if d_i else 0
        a_row = 0
        for k in range(d_i):
            if (mu >> k) & 1:
                a_row ^= b[t_i[k]]
        a_words.append(a_row)
        sub = Gf2Matrix(d_i, n, tuple(b[j] for j in t_i))
        image = _column_span_points(sub)
        table_bits = 0
        for y in range(1 << d_i):
            if y in image:
                bit = (mu & y).bit_count() & 1
            else:
                bit = rng.getrandbits(1)
            table_bits |= bit << y
        outs.append(OutputGate(t_i, (), TruthTable(d_i, table_bits)))
    a = Gf2Matrix(n, n, tuple(a_words))
    return Depth2Circuit(n, tuple(mids), tuple(outs)), a


def _column_span_points(m: Gf2Matrix) -> set[int]:
    """All values of m*x as ints (bit k = coordinate k), i.e. the span of
    m's columns; a column outside the points so far doubles them."""
    points = {0}
    for v in m.transpose().row_words:
        if v not in points:
            points |= {p ^ v for p in points}
    return points


def _random_table(rng: random.Random, fanin: int) -> TruthTable:
    check_fanin(fanin)  # before drawing 2**fanin bits
    if fanin == 0:
        return TruthTable.constant(0)
    return TruthTable(fanin, rng.getrandbits(1 << fanin))


def _random_nonlinear_table(rng: random.Random, fanin: int, n: int) -> TruthTable:
    fanin = min(fanin, n)
    if fanin < 2:  # parities are the only 0/1-argument gates
        return TruthTable.parity(fanin)
    while True:
        t = TruthTable(fanin, rng.getrandbits(1 << fanin))
        if is_linear_gate(t) is None:
            return t


def _random_words(rng: random.Random, rows: int, cols: int, density: float) -> tuple[int, ...]:
    words = []
    for _ in range(rows):
        w = 0
        for j in range(cols):
            if rng.random() < density:
                w |= 1 << j
        words.append(w)
    return tuple(words)


def _check_density(density: float) -> None:
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
