"""Succinct certificate for depth-2 circuits with parity middle gates
that compute a matrix-vector product.

The certificate stores only the wire adjacencies of the two levels (row
words in memory, positions of their 1-entries in the stream) and, per
output gate, the gate's values on the first basis of the value space it
can see.  That is enough to recover the full operator, and the
certificate compiles into its matrix: output i sees B_i*x, where B_i
holds the middle gates it reads; writing each column of B_i over B_i's
first basis gives, by linearity, output i's response to each unit
vector.  ``decode_matrix`` does this once per certificate; ``decode`` is
one matrix-vector product with the result.  ``encode`` reads the basis
values off one sweep of the circuit and proves the certificate through
``decode_matrix``: the matrix it decodes to must agree with the sweep on
all 2**n inputs.

Binary format ``OPE1`` (bit-packed, MSB first inside each field)::

    magic "OPE1"                                  32 bits
    n, r                                          16 bits each
    |B|, then |B| (row, col) pairs                16 + |B| * 2w bits
    |C|, then |C| (row, col) pairs                16 + |C| * 2w bits
    per output i = 0..n-1: t_i, then t_i bits     16 + t_i bits
    zero padding to a byte boundary

with w = ceil(log2(max(n, r) + 1)) and position pairs sorted row-major,
so 96 + 16n + 2*w*(|B|+|C|) + sum(t_i) content bits in all.  ``_layout``
is the one statement of this layout: ``serialize`` writes its fields and
``bit_length`` sums their widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Depth2Circuit, check_operator, collapse, is_linear_gate
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
    """Certificate: the two level adjacencies as row words, plus
    per-output basis values.

    ``b_rows[j]`` packs middle gate j's inputs (r words over n bits) and
    ``c_rows[i]`` packs the middle gates output i reads (n words over r
    bits).  ``basis_bits[i][k]`` is output i's value on the unit vector
    whose index is the k-th first-basis column of B_i.
    """

    n: int
    r: int
    b_rows: tuple[int, ...]
    c_rows: tuple[int, ...]
    basis_bits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.r < 0:
            raise ValueError("need n >= 1 and r >= 0")
        levels = (("B", self.b_rows, self.r, self.n), ("C", self.c_rows, self.n, self.r))
        for name, words, rows, cols in levels:
            if len(words) != rows:
                raise ValueError(f"{name} needs {rows} row words, got {len(words)}")
            if any(w < 0 or w >> cols for w in words):
                raise ValueError(f"{name} has a row word outside [0, 2**{cols})")
        if len(self.basis_bits) != self.n:
            raise ValueError("need one basis-bit string per output")
        for i, bits in enumerate(self.basis_bits):
            if len(bits) > self.c_rows[i].bit_count():
                raise ValueError(f"output {i} stores more basis bits than wires")
            if any(b not in (0, 1) for b in bits):
                raise ValueError("basis bits must be 0 or 1")

    def field_width(self) -> int:
        return max(self.n, self.r).bit_length()

    def wire_count(self) -> int:
        return sum(w.bit_count() for w in self.b_rows + self.c_rows)


def encode(c: Depth2Circuit) -> OperatorEncoding:
    """Build the certificate of ``c`` and prove it.

    The circuit must have no direct wires and every middle gate must XOR
    exactly its wires (no negation, no ignored wire).  Each output's basis
    values are read off one sweep of ``c``; the matrix they decode to must
    then agree with that sweep on all 2**n inputs, or NotLinearError names
    the first input where it does not.  Middle gates feeding no output are
    omitted from the certificate; they cannot influence it.
    """
    for o in c.outputs:
        if o.directs:
            raise ValueError("direct wires must be removed before encoding")
    for j, m in enumerate(c.middle):
        if is_linear_gate(m.table) != (tuple(range(len(m.inputs))), False):
            raise ValueError(f"middle gate {j} is not the pure parity of its wires")
    table = collapse(c)

    used = sorted({j for o in c.outputs for j in o.mids})
    remap = {j: k for k, j in enumerate(used)}
    b_rows = tuple(sum(1 << i for i in c.middle[j].inputs) for j in used)
    c_rows = tuple(sum(1 << remap[j] for j in o.mids) for o in c.outputs)

    # masking rows out of B's columns keeps their dependencies, so each
    # output's first basis comes from the same reduction decode_matrix runs
    b_cols = Gf2Matrix(len(used), c.n, b_rows).transpose().row_words
    basis_bits = []
    for col, seen in zip(table.columns, c_rows):
        chosen, _ = reduce_columns([b & seen for b in b_cols])
        # output value at unit vector j; a mask, not a shift: 2**j bits, not 2**n
        basis_bits.append(tuple(1 if col & (1 << (1 << j)) else 0 for j in chosen))
    enc = OperatorEncoding(c.n, len(used), b_rows, c_rows, tuple(basis_bits))
    check_operator(table, decode_matrix(enc))
    return enc


def decode_matrix(enc: OperatorEncoding) -> Gf2Matrix:
    """The operator's n-by-n matrix, compiled from the certificate alone.

    Output i sees the columns of B restricted to its middle gates (the
    rows C_i selects).  One left-to-right reduction over those n columns
    finds the first basis and writes every other column as a combination
    of it; by linearity, A[i][j] is the parity of column j's coefficients
    against the stored basis values.
    """
    b_cols = Gf2Matrix(enc.r, enc.n, enc.b_rows).transpose().row_words
    words = []
    for i, seen in enumerate(enc.c_rows):
        stored = enc.basis_bits[i]
        chosen, coeffs = reduce_columns(map(seen.__and__, b_cols))
        if len(chosen) != len(stored):
            raise CorruptEncodingError(
                f"output {i} stores {len(stored)} basis values,"
                f" but its wire pattern has rank {len(chosen)}"
            )
        # bit k of values is the k-th stored basis value
        values = row = 0
        for bit in reversed(stored):
            values = values << 1 | bit
        for cj in reversed(coeffs):
            row = row << 1 | ((cj & values).bit_count() & 1)
        words.append(row)
    return Gf2Matrix(enc.n, enc.n, tuple(words))


def decode(enc: OperatorEncoding, x: Gf2Vector) -> Gf2Vector:
    """Value of the encoded operator on ``x``, computed from the
    certificate alone."""
    if x.length != enc.n:
        raise ValueError("input length mismatch")
    return matvec(decode_matrix(enc), x)


def _pairs(words):
    """Row-major (row, col) pairs of the 1-entries, flattened."""
    for i, word in enumerate(words):
        for j in bit_indices(word):
            yield i
            yield j


def _layout(enc: OperatorEncoding) -> list[tuple[str, int, int, object]]:
    """The stream's fields in order, as runs ``(name, width, count, values)``.

    ``serialize`` writes the values; ``bit_length`` reads only widths and
    counts, so it never builds the pairs, which are generated lazily.
    """
    w = enc.field_width()
    runs = [("magic", 8, len(MAGIC), MAGIC), ("n", _FIELD, 1, (enc.n,)), ("r", _FIELD, 1, (enc.r,))]
    for name, words in (("B", enc.b_rows), ("C", enc.c_rows)):
        count = sum(word.bit_count() for word in words)
        runs += [(f"|{name}|", _FIELD, 1, (count,)), (f"{name} pair", w, 2 * count, _pairs(words))]
    for i, bits in enumerate(enc.basis_bits):
        runs += [(f"t_{i}", _FIELD, 1, (len(bits),)), ("basis bit", 1, len(bits), bits)]
    return runs


def bit_length(enc: OperatorEncoding) -> int:
    """Exact number of content bits in the serialized stream (the byte
    stream only adds zero padding to the next byte boundary)."""
    return sum(width * count for _, width, count, _ in _layout(enc))


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
    fields = []
    for what, width, _, values in _layout(enc):
        for value in values:
            if value >> width:
                raise ValueError(f"{what}={value} exceeds the {width}-bit field")
            fields.append(format(value, f"0{width}b"))
    bits = "".join(fields)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


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
            # the only guard against a repeated pair: |= below would absorb it
            if prev is not None and pos <= prev:
                raise EncodingFormatError(f"{name} positions out of order", at)
            prev = pos
            words[pos[0]] |= 1 << pos[1]
        levels.append(tuple(words))
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
        return OperatorEncoding(n, rr, levels[0], levels[1], tuple(basis_bits))
    except ValueError as e:
        raise EncodingFormatError(str(e), at) from e
