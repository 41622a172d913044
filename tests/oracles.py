"""Naive reference implementations used as oracles by the tests.

Everything here works point by point, on plain Python lists where it
can, independent of the library's batch-evaluation paths.  The
per-point certificate decoder runs its own Gauss-Jordan elimination on
lists of 0/1 entries, so it shares no code with ``gf2.echelon``, which
the compiled decoder uses.  ``ope1_stream`` writes an ``OPE1`` stream
field by field, without ``compress.serialize``, and
``deserialize_per_field`` reads one with its own reader: one field at a
time, by shift and mask of the whole stream as one int, where
``compress.deserialize`` converts each key run in bounded chunks of its
bit string, shifts each 2w-bit key out of its chunk, and maps each basis
run to bytes in one slice.  ``vector_text_per_coordinate`` and
``vector_from_text_per_coordinate`` write and read the ``--x``/``z=``
text of a vector one coordinate at a time, where ``Gf2Vector.__str__``
and ``cli._parse_x`` convert it in one call.  ``parity_of_by_shifts`` is
the earlier form of ``_kernels.read_parity``, kept as the outcome the
faster form must reproduce.  ``row_echelon_gauss_jordan`` is the
reduced row echelon form, the reference for the rows the decoder's
fix-up over ``gf2.echelon`` selects, and ``naive_rank`` is the rank by
list arithmetic.
"""

from __future__ import annotations

from wirelab.circuit import LinearDepth2Circuit, TruthTable
from wirelab.compress import (
    _FIELD,
    MAGIC,
    CorruptEncodingError,
    EncodingFormatError,
    OperatorEncoding,
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


def parity_candidate_by_shifts(table: int, fanin: int) -> tuple[int, int]:
    """Mask of arguments and negation bit of the parity that agrees with
    ``table`` on the all-zero and all unit assignments: one shift of the
    whole table per argument."""
    neg = table & 1
    mask = 0
    for k in range(fanin):
        if ((table >> (1 << k)) & 1) ^ neg:
            mask |= 1 << k
    return mask, neg


def parity_table_by_doubling(fanin: int, mask: int, neg: int) -> int:
    """Truth table of XOR over the arguments in ``mask``, complemented if
    ``neg``, built as an int in ``fanin`` doubling steps."""
    t = neg
    width = 1
    for k in range(fanin):
        half = ~t & ((1 << width) - 1) if (mask >> k) & 1 else t
        t |= half << width
        width <<= 1
    return t


def parity_of_by_shifts(table: int, fanin: int) -> tuple[int, int] | None:
    """``parity_candidate_by_shifts`` of the table if the table is that
    parity, else None."""
    ones = table.bit_count()
    if ones and ones != 1 << fanin and ones << 1 != 1 << fanin:  # neither constant nor balanced
        return None
    mask, neg = parity_candidate_by_shifts(table, fanin)
    return (mask, neg) if table == parity_table_by_doubling(fanin, mask, neg) else None


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
    """``compress.deserialize`` reading every stream field on its own, by
    shift and mask of the whole stream as one int: each position is a
    row and a col read apart, ordered as (row, col) tuples, and each
    basis value is a one-bit read, so a run cut short fails at the first
    bit past the end."""
    total = 8 * len(data)
    stream = int.from_bytes(data, "big")
    pos = 0

    def read(width, what):
        nonlocal pos
        if pos + width > total:
            raise EncodingFormatError(f"stream truncated while reading {what}", pos)
        pos += width
        return (stream >> (total - pos)) & ((1 << width) - 1)

    for k, expected in enumerate(MAGIC):
        if read(8, "magic") != expected:
            raise EncodingFormatError("bad magic, expected OPE1", 8 * k)
    n = read(_FIELD, "n")
    if n < 1:
        raise EncodingFormatError("n must be at least 1", pos - _FIELD)
    rr = read(_FIELD, "r")
    w = max(n, rr).bit_length()
    levels = []
    for name, rows, cols in (("B", rr, n), ("C", n, rr)):
        count = read(_FIELD, f"|{name}|")
        words = [0] * rows
        prev = None
        for _ in range(count):
            at = pos
            pair = (read(w, f"{name} row"), read(w, f"{name} col"))
            if not (pair[0] < rows and pair[1] < cols):
                raise EncodingFormatError(f"{name} position {pair} out of range", at)
            if prev is not None and pair <= prev:
                raise EncodingFormatError(f"{name} positions out of order", at)
            prev = pair
            words[pair[0]] |= 1 << pair[1]
        levels.append(tuple(words))
    basis_bits = []
    for i, wires in enumerate(levels[1]):
        at = pos
        t = read(_FIELD, f"t_{i}")
        if t > wires.bit_count():
            raise EncodingFormatError(f"output {i} stores more basis bits than wires", at)
        basis_bits.append(tuple(read(1, f"basis bit of output {i}") for _ in range(t)))
    at = pos
    if total - pos >= 8:
        raise EncodingFormatError("trailing data after encoding", at)
    if read(total - pos, "padding"):
        raise EncodingFormatError("nonzero padding bits", at)
    return OperatorEncoding(n, rr, levels[0], levels[1], tuple(basis_bits))


def vector_text_per_coordinate(v: Gf2Vector) -> str:
    """The text of a vector, coordinate 0 first, one character per
    coordinate."""
    return "".join("1" if (v.bits >> i) & 1 else "0" for i in range(v.length))


def vector_from_text_per_coordinate(text: str, n: int) -> Gf2Vector | None:
    """The vector whose coordinate i is character i of ``text``, read one
    character at a time, or None unless ``text`` is n characters of 0/1."""
    if len(text) != n:
        return None
    bits = 0
    for i, ch in enumerate(text):
        if ch not in ("0", "1"):
            return None
        if ch == "1":
            bits |= 1 << i
    return Gf2Vector(n, bits)


def naive_rank(rows: list[list[int]]) -> int:
    """Rank of 0/1 lists by Gauss-Jordan on the lists themselves."""
    work = [row[:] for row in rows]
    cols = len(work[0]) if work else 0
    rk = 0
    for j in range(cols):
        pivot = next((i for i in range(rk, len(work)) if work[i][j]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        for i in range(len(work)):
            if i != rk and work[i][j]:
                work[i] = [(a + b) % 2 for a, b in zip(work[i], work[rk])]
        rk += 1
    return rk


def row_echelon_gauss_jordan(rows) -> tuple[list[int], list[int]]:
    """The reduced row echelon form of row words, each row's pivot its
    lowest set bit: the pivot columns, and the nonzero reduced rows in
    pivot order.  Each new row is reduced against the rows kept so far
    and then cleared out of all of them."""
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
