"""Succinct certificate for depth-2 circuits with parity middle gates
that compute a matrix-vector product.

The certificate stores only the wire adjacencies of the two levels (as
positions of their 1-entries) and, per output gate, the gate's values on
the first basis of the value space it can see.  That is enough to
recover the full operator, and the certificate compiles into its matrix:
output i sees B_i*x, where B_i holds the middle gates it reads; writing
each column of B_i over B_i's first basis gives, by linearity, output
i's response to each unit vector.  ``decode_matrix`` does this once per
certificate; ``decode`` is one matrix-vector product with the result.

Binary format ``OPE1`` (bit-packed, MSB first inside each field)::

    magic "OPE1"                                  32 bits
    n, r                                          16 bits each
    |B|, then |B| (row, col) pairs                16 + |B| * 2w bits
    |C|, then |C| (row, col) pairs                16 + |C| * 2w bits
    per output i = 0..n-1: t_i, then t_i bits     16 + t_i bits
    zero padding to a byte boundary

with w = ceil(log2(max(n, r) + 1)) and position pairs sorted row-major.
``bit_length`` counts the content bits (everything except the padding):
exactly 96 + 16n + 2*w*(|B|+|C|) + sum(t_i).
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Depth2Circuit, is_linear_gate, linear_operator
from .gf2 import Gf2Matrix, Gf2Vector, bit_indices, matvec, reduce_columns

MAGIC = b"OPE1"
_FIELD = 16  # width of the count fields (n, r, |B|, |C|, t_i)


class EncodingFormatError(ValueError):
    """Malformed byte stream; ``bit_offset`` points at the bad field."""

    def __init__(self, message: str, bit_offset: int):
        self.bit_offset = bit_offset
        super().__init__(f"{message} (at bit {bit_offset})")


class CorruptEncodingError(ValueError):
    """An output stores a different number of basis values than the rank
    of its wire pattern."""


@dataclass(frozen=True)
class OperatorEncoding:
    """Certificate: sparse level adjacencies plus per-output basis values.

    ``basis_bits[i][k]`` is output i's value on the unit vector whose
    index is the k-th first-basis column of B_i.
    """

    n: int
    r: int
    b_ones: tuple[tuple[int, int], ...]
    c_ones: tuple[tuple[int, int], ...]
    basis_bits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 0:
            raise ValueError("need n >= 1 and r >= 0")
        _check_positions(self.b_ones, self.r, self.n, "B")
        _check_positions(self.c_ones, self.n, self.r, "C")
        if len(self.basis_bits) != self.n:
            raise ValueError("need one basis-bit string per output")
        degree = [0] * self.n
        for i, _ in self.c_ones:
            degree[i] += 1
        for i, bits in enumerate(self.basis_bits):
            if len(bits) > degree[i]:
                raise ValueError(f"output {i} stores more basis bits than wires")
            if any(b not in (0, 1) for b in bits):
                raise ValueError("basis bits must be 0 or 1")

    def field_width(self) -> int:
        return max(self.n, self.r).bit_length()

    def wire_count(self) -> int:
        return len(self.b_ones) + len(self.c_ones)


def _check_positions(ones, rows: int, cols: int, name: str) -> None:
    prev = None
    for pos in ones:
        i, j = pos
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"{name} position {pos} out of range")
        if prev is not None and pos <= prev:
            raise ValueError(f"{name} positions must be sorted row-major without repeats")
        prev = pos


def encode(c: Depth2Circuit) -> OperatorEncoding:
    """Build the certificate of ``c``.

    The circuit must have no direct wires, every middle gate must XOR
    exactly its wires (no negation, no ignored wire) and the circuit must
    compute a matrix-vector product (``linear_operator`` checks that on all
    2**n inputs, raising NotLinearError, and its matrix gives the basis
    values).  Middle gates feeding no output are omitted from the
    certificate; they cannot influence it.
    """
    for o in c.outputs:
        if o.directs:
            raise ValueError("direct wires must be removed before encoding")
    for j, m in enumerate(c.middle):
        if is_linear_gate(m.table) != (tuple(range(len(m.inputs))), False):
            raise ValueError(f"middle gate {j} is not the pure parity of its wires")
    a, _ = linear_operator(c)

    used = sorted({j for o in c.outputs for j in o.mids})
    remap = {j: k for k, j in enumerate(used)}
    b_rows = [sum(1 << i for i in c.middle[j].inputs) for j in used]

    b_ones = []
    for row, w in enumerate(b_rows):
        for col in bit_indices(w):
            b_ones.append((row, col))
    c_rows = [sorted(remap[j] for j in o.mids) for o in c.outputs]
    c_ones = [(i, j) for i, row in enumerate(c_rows) for j in row]

    # masking rows out of B's columns keeps their dependencies, so each
    # output's first basis comes from the same reduction decode_matrix runs
    b_cols = Gf2Matrix(len(used), c.n, tuple(b_rows)).transpose().row_words
    basis_bits = []
    for i, row in enumerate(c_rows):
        seen = sum(1 << j for j in row)
        chosen, _ = reduce_columns([col & seen for col in b_cols])
        basis_bits.append(tuple(a.entry(i, j) for j in chosen))
    return OperatorEncoding(
        c.n, len(used), tuple(b_ones), tuple(c_ones), tuple(basis_bits)
    )


def decode_matrix(enc: OperatorEncoding) -> Gf2Matrix:
    """The operator's n-by-n matrix, compiled from the certificate alone.

    Output i sees the columns of B restricted to its middle gates (the
    rows C_i selects).  One left-to-right reduction over those n columns
    finds the first basis and writes every other column as a combination
    of it; by linearity, A[i][j] is the parity of column j's coefficients
    against the stored basis values.
    """
    b_words, c_words = _adjacency_words(enc)
    b_cols = Gf2Matrix(enc.r, enc.n, tuple(b_words)).transpose().row_words
    words = []
    for i, seen in enumerate(c_words):
        stored = enc.basis_bits[i]
        chosen, coeffs = reduce_columns(map(seen.__and__, b_cols))
        if len(chosen) != len(stored):
            raise CorruptEncodingError(
                f"output {i} stores {len(stored)} basis values,"
                f" but its wire pattern has rank {len(chosen)}"
            )
        values = row = 0
        for bit in reversed(stored):
            values = values << 1 | bit
        for cj in reversed(coeffs):  # row bit j: parity of coeffs[j] & values
            row = row << 1 | ((cj & values).bit_count() & 1)
        words.append(row)
    return Gf2Matrix(enc.n, enc.n, tuple(words))


def decode(enc: OperatorEncoding, x: Gf2Vector) -> Gf2Vector:
    """Value of the encoded operator on ``x``, computed from the
    certificate alone."""
    if x.length != enc.n:
        raise ValueError("input length mismatch")
    return matvec(decode_matrix(enc), x)


def _adjacency_words(enc: OperatorEncoding) -> tuple[list[int], list[int]]:
    b_words = [0] * enc.r
    for i, j in enc.b_ones:
        b_words[i] |= 1 << j
    c_words = [0] * enc.n
    for i, j in enc.c_ones:
        c_words[i] |= 1 << j
    return b_words, c_words


def bit_length(enc: OperatorEncoding) -> int:
    """Exact number of content bits in the serialized stream (the byte
    stream only adds zero padding to the next byte boundary)."""
    w = enc.field_width()
    return (
        32
        + 4 * _FIELD
        + 2 * w * enc.wire_count()
        + sum(_FIELD + len(bits) for bits in enc.basis_bits)
    )


class _BitWriter:
    """Collects MSB-first fields as '0'/'1' strings and converts them once,
    so writing costs time linear in the stream length."""

    def __init__(self) -> None:
        self.fields: list[str] = []

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >> width:
            raise ValueError("value does not fit the field")
        self.fields.append(format(value, f"0{width}b") if width else "")

    def to_bytes(self) -> bytes:
        bits = "".join(self.fields)
        bits += "0" * (-len(bits) % 8)
        return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


class _BitReader:
    """Reads MSB-first fields from a stream.

    The stream becomes one string of '0'/'1' characters up front, so a
    field costs time in its own width, not in the stream's length (an
    untrusted stream may be long).
    """

    def __init__(self, data: bytes) -> None:
        self.total = 8 * len(data)
        self.bits = format(int.from_bytes(data, "big"), f"0{self.total}b") if data else ""
        self.pos = 0

    def read(self, width: int, what: str) -> int:
        end = self.pos + width
        if end > self.total:
            raise EncodingFormatError(f"stream truncated while reading {what}", self.pos)
        value = int(self.bits[self.pos : end] or "0", 2)
        self.pos = end
        return value

    def read_bits(self, count: int, what: str) -> tuple[int, ...]:
        """``count`` one-bit fields; truncation is reported at the first
        bit past the end of the stream."""
        end = self.pos + count
        if end > self.total:
            raise EncodingFormatError(f"stream truncated while reading {what}", self.total)
        bits = tuple(map(int, self.bits[self.pos : end]))
        self.pos = end
        return bits


def serialize(enc: OperatorEncoding) -> bytes:
    w = enc.field_width()
    for count, what in ((enc.n, "n"), (enc.r, "r"), (len(enc.b_ones), "|B|"), (len(enc.c_ones), "|C|")):
        if count >> _FIELD:
            raise ValueError(f"{what}={count} exceeds the 16-bit field")
    out = _BitWriter()
    for byte in MAGIC:
        out.write(byte, 8)
    out.write(enc.n, _FIELD)
    out.write(enc.r, _FIELD)
    for ones in (enc.b_ones, enc.c_ones):
        out.write(len(ones), _FIELD)
        for i, j in ones:
            out.write(i, w)
            out.write(j, w)
    for bits in enc.basis_bits:
        out.write(len(bits), _FIELD)
        for b in bits:
            out.write(b, 1)
    data = out.to_bytes()
    assert len(data) == (bit_length(enc) + 7) // 8
    return data


def deserialize(data: bytes) -> OperatorEncoding:
    r = _BitReader(data)
    for k, expected in enumerate(MAGIC):
        if r.read(8, "magic") != expected:
            raise EncodingFormatError("bad magic, expected OPE1", 8 * k)
    n = r.read(_FIELD, "n")
    if n < 1:
        raise EncodingFormatError("n must be at least 1", r.pos - _FIELD)
    rr = r.read(_FIELD, "r")
    w = max(n, rr).bit_length()
    ones_lists = []
    for name, rows, cols in (("B", rr, n), ("C", n, rr)):
        count = r.read(_FIELD, f"|{name}|")
        ones = []
        prev = None
        for _ in range(count):
            at = r.pos
            pos = (r.read(w, f"{name} row"), r.read(w, f"{name} col"))
            if not (pos[0] < rows and pos[1] < cols):
                raise EncodingFormatError(f"{name} position {pos} out of range", at)
            if prev is not None and pos <= prev:
                raise EncodingFormatError(f"{name} positions out of order", at)
            prev = pos
            ones.append(pos)
        ones_lists.append(tuple(ones))
    basis_bits = []
    for i in range(n):
        t = r.read(_FIELD, f"t_{i}")
        basis_bits.append(r.read_bits(t, f"basis bit of output {i}"))
    at = r.pos
    if r.total - r.pos >= 8:
        raise EncodingFormatError("trailing data after encoding", at)
    if r.read(r.total - r.pos, "padding"):
        raise EncodingFormatError("nonzero padding bits", at)
    try:
        return OperatorEncoding(n, rr, ones_lists[0], ones_lists[1], tuple(basis_bits))
    except ValueError as e:
        raise EncodingFormatError(str(e), at) from e
