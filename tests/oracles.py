"""Naive reference implementations used as oracles by the tests.

Everything here works point by point, on plain Python lists where it
can, independent of the library's batch-evaluation paths.  The
per-point certificate decoder is not independent of the compiled one:
through ``first_basis_columns`` and ``solve_in_span`` it runs the same
``gf2.reduce_columns`` elimination.  The independent checks of that
elimination are the list-based reducers (``suite.naive_rank`` and
``suite.naive_matvec``, kept in the library for the battery) and, for
the codec, that the decoded matrix equals the planted one.
"""

from __future__ import annotations

from wirelab.circuit import TruthTable
from wirelab.compress import CorruptEncodingError
from wirelab.gf2 import Gf2Matrix, Gf2Vector, first_basis_columns, matvec, solve_in_span


def table_lookup(bits: int, args: list[int]) -> int:
    idx = 0
    for k, b in enumerate(args):
        idx += b << k
    return (bits >> idx) & 1


def table_to_hex_per_nibble(t) -> str:
    """Hex text of a truth table, one nibble at a time, table bits 0-3 first."""
    n_nibbles = max(1, ((1 << t.fanin) + 3) // 4)
    return "".join(format((t.bits >> (4 * k)) & 0xF, "x") for k in range(n_nibbles))


def table_from_hex_per_nibble(text: str, fanin: int):
    """Truth table of hex text read one digit at a time, ``int(ch, 16)`` each."""
    bits = 0
    for k, ch in enumerate(text):
        bits |= int(ch, 16) << (4 * k)
    return TruthTable(fanin, bits)


def eval_depth2(c, x: list[int]) -> list[int]:
    """Straightforward two-pass interpreter for a Depth2Circuit."""
    mid = [table_lookup(m.table.bits, [x[i] for i in m.inputs]) for m in c.middle]
    out = []
    for o in c.outputs:
        args = [mid[j] for j in o.mids] + [x[i] for i in o.directs]
        out.append(table_lookup(o.table.bits, args))
    return out


def parity_rows(c) -> list[set[int]]:
    """Per middle gate of a Depth2Circuit, the inputs i with g(e_i) != g(0)."""
    rows = []
    for m in c.middle:
        at_zero = table_lookup(m.table.bits, [0] * len(m.inputs))
        rows.append({
            i for i in range(c.n)
            if table_lookup(m.table.bits, [int(k == i) for k in m.inputs]) != at_zero
        })
    return rows


def depth2_rule(mid_inputs, out_mids, out_directs) -> int:
    """Depth of a depth-2 circuit from its adjacency lists: 2 if some
    output reads a middle gate that has inputs, else 1 if there are
    direct wires, else 0."""
    if any(mid_inputs[j] for mids in out_mids for j in mids):
        return 2
    return 1 if any(out_directs) else 0


def eval_general(c, x: list[int]) -> list[int]:
    """Sequential interpreter for a GeneralCircuit, values kept in a dict."""
    val = {i: x[i] for i in range(c.n)}
    for k, g in enumerate(c.gates):
        val[c.n + k] = table_lookup(g.table.bits, [val[p] for p in g.preds])
    return [val[o] for o in c.outputs]


def matrix_lists(m) -> list[list[int]]:
    return [list(m.row(i).coords()) for i in range(m.rows)]


def decode_per_point(enc, x):
    """The certificate decoder that works one input at a time.

    For each output it rebuilds the sub-matrix of the middle gates it
    reads, re-expresses B_i*x over the sub-matrix's first basis and
    combines the stored basis values; the compiled ``decode_matrix`` must
    agree with it on every input.
    """
    if x.length != enc.n:
        raise ValueError("input length mismatch")
    bits = 0
    for i in range(enc.n):
        rows = [j for j in range(enc.r) if (enc.c_rows[i] >> j) & 1]
        sub = Gf2Matrix(len(rows), enc.n, tuple(enc.b_rows[j] for j in rows))
        basis = [sub.column(j) for j in first_basis_columns(sub)]
        if len(basis) != len(enc.basis_bits[i]):
            raise CorruptEncodingError(
                f"output {i} stores {len(enc.basis_bits[i])} basis values,"
                f" but its wire pattern has rank {len(basis)}"
            )
        lam = solve_in_span(basis, matvec(sub, x))
        z = 0
        for coeff, value in zip(lam, enc.basis_bits[i]):
            z ^= coeff & value
        bits |= z << i
    return Gf2Vector(enc.n, bits)
