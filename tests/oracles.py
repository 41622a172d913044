"""Naive reference implementations used as oracles by the tests.

Everything here works point by point, on plain Python lists where it
can, independent of the library's batch-evaluation paths.  The
per-point certificate decoder runs its own Gauss-Jordan elimination on
lists of 0/1 entries, so it shares no code with ``gf2.echelon``, which
the compiled decoder uses.  ``deserialize_per_field`` and
``row_echelon_gauss_jordan`` are the earlier forms of
``compress.deserialize`` and ``gf2.row_echelon``, kept as the outcomes
the faster forms must reproduce.
"""

from __future__ import annotations

from wirelab.circuit import LinearDepth2Circuit, TruthTable
from wirelab.compress import (
    _FIELD,
    MAGIC,
    CorruptEncodingError,
    EncodingFormatError,
    OperatorEncoding,
    _BitReader,
)
from wirelab.gf2 import Gf2Matrix, Gf2Vector


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


def eval_general(c, x: list[int]) -> list[int]:
    """Sequential interpreter for a GeneralCircuit, values kept in a dict."""
    val = {i: x[i] for i in range(c.n)}
    for k, g in enumerate(c.gates):
        val[c.n + k] = table_lookup(g.table.bits, [val[p] for p in g.preds])
    return [val[o] for o in c.outputs]


def linear_circuit(a) -> LinearDepth2Circuit:
    """The all-parity circuit x -> a*x whose middle gates are a's rows."""
    return LinearDepth2Circuit(a, Gf2Matrix.identity(a.rows))


def matrix_lists(m) -> list[list[int]]:
    return [list(m.row(i).coords()) for i in range(m.rows)]


def basis_and_coefficients(m: list[list[int]], y: list[int]) -> tuple[list[int], list[int]]:
    """The first basis of the columns of ``m`` (each column that is not a
    combination of earlier ones) and the coefficients that express ``y``
    over it.

    Gauss-Jordan elimination of the augmented matrix [m | y]: the pivot
    columns are the first basis, and once they are unit columns the
    pivot rows of the last column hold the coefficients.  ``y`` must lie
    in the span of the columns.
    """
    rows = [row + [b] for row, b in zip(m, y)]
    pivots: list[int] = []
    for j in range(len(rows[0]) - 1 if rows else 0):
        k = len(pivots)
        p = next((t for t in range(k, len(rows)) if rows[t][j]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        for t in range(len(rows)):
            if t != k and rows[t][j]:
                rows[t] = [a ^ b for a, b in zip(rows[t], rows[k])]
        pivots.append(j)
    assert not any(row[-1] for row in rows[len(pivots):]), "y is not in the span"
    return pivots, [row[-1] for row in rows[: len(pivots)]]


def decode_per_point(enc, x):
    """The certificate decoder that works one input at a time.

    For each output it lists the rows of B for the middle gates it reads,
    re-expresses B_i*x over the first basis of their columns and combines
    the stored basis values; the compiled ``decode_matrix`` must agree
    with it on every input.
    """
    if x.length != enc.n:
        raise ValueError("input length mismatch")
    xs = list(x.coords())
    bits = 0
    for i in range(enc.n):
        sub = [[(enc.b_rows[j] >> k) & 1 for k in range(enc.n)]
               for j in range(enc.r) if (enc.c_rows[i] >> j) & 1]
        y = [sum(a * b for a, b in zip(row, xs)) % 2 for row in sub]
        chosen, lam = basis_and_coefficients(sub, y)
        if len(chosen) != len(enc.basis_bits[i]):
            raise CorruptEncodingError(
                f"output {i} stores {len(enc.basis_bits[i])} basis values,"
                f" but its wire pattern has rank {len(chosen)}"
            )
        z = 0
        for coeff, value in zip(lam, enc.basis_bits[i]):
            z ^= coeff & value
        bits |= z << i
    return Gf2Vector(enc.n, bits)


def ope1_stream(n, r, b_pairs, c_pairs, basis):
    """An OPE1 stream written field by field, without ``serialize``."""
    w = max(n, r).bit_length()
    fields = [(byte, 8) for byte in b"OPE1"] + [(n, 16), (r, 16)]
    for pairs in (b_pairs, c_pairs):
        fields.append((len(pairs), 16))
        fields += [(v, w) for pair in pairs for v in pair]
    for bits in basis:
        fields.append((len(bits), 16))
        fields += [(b, 1) for b in bits]
    text = "".join(format(v, f"0{width}b") for v, width in fields)
    text += "0" * (-len(text) % 8)
    return int(text, 2).to_bytes(len(text) // 8, "big")


def deserialize_per_field(data: bytes) -> OperatorEncoding:
    """``compress.deserialize`` reading every stream field on its own:
    each position pair is two w-bit reads, ordered as (row, col) tuples."""
    r = _BitReader(data)
    for k, expected in enumerate(MAGIC):
        if r.read(8, "magic") != expected:
            raise EncodingFormatError("bad magic, expected OPE1", 8 * k)
    n = r.read(_FIELD, "n")
    if n < 1:
        raise EncodingFormatError("n must be at least 1", r.pos - _FIELD)
    rr = r.read(_FIELD, "r")
    w = max(n, rr).bit_length()
    levels = []
    for name, rows, cols in (("B", rr, n), ("C", n, rr)):
        count = r.read(_FIELD, f"|{name}|")
        words = [0] * rows
        prev = None
        for _ in range(count):
            at = r.pos
            pos = (r.read(w, f"{name} row"), r.read(w, f"{name} col"))
            if not (pos[0] < rows and pos[1] < cols):
                raise EncodingFormatError(f"{name} position {pos} out of range", at)
            if prev is not None and pos <= prev:
                raise EncodingFormatError(f"{name} positions out of order", at)
            prev = pos
            words[pos[0]] |= 1 << pos[1]
        levels.append(tuple(words))
    basis_bits = []
    for i, wires in enumerate(levels[1]):
        at = r.pos
        t = r.read(_FIELD, f"t_{i}")
        if t > wires.bit_count():
            raise EncodingFormatError(f"output {i} stores more basis bits than wires", at)
        basis_bits.append(r.read_bits(t, f"basis bit of output {i}"))
    at = r.pos
    if r.total - r.pos >= 8:
        raise EncodingFormatError("trailing data after encoding", at)
    if r.read(r.total - r.pos, "padding"):
        raise EncodingFormatError("nonzero padding bits", at)
    return OperatorEncoding(n, rr, levels[0], levels[1], tuple(basis_bits))


def row_echelon_gauss_jordan(rows) -> tuple[list[int], list[int]]:
    """``gf2.row_echelon`` by Gauss-Jordan: each new row is reduced
    against the rows kept so far and then cleared out of all of them."""
    reduced: list[int] = []
    for v in rows:
        for w in reduced:
            if v & w & -w:
                v ^= w
        if v:
            low = v & -v
            reduced = [w ^ v if w & low else w for w in reduced]
            reduced.append(v)
    reduced.sort(key=lambda w: w & -w)
    return [(w & -w).bit_length() - 1 for w in reduced], reduced
