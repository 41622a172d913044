"""Succinct certificate for depth-2 circuits with parity middle gates
that compute a matrix-vector product.

The certificate stores only the wire adjacencies of the two levels (row
words in memory, positions of their 1-entries in the stream) and, per
output gate, the gate's values on the first basis of the value space it
can see.  That is enough to recover the full operator, and the
certificate compiles into its matrix: output i sees B_i*x, where B_i
holds the middle gates it reads, so by linearity its row a_i is the one
vector in B_i's row space that takes the stored values at B_i's pivots
(its first basis columns).  ``decode_matrix`` reads each a_i off one
forward elimination of B_i (``gf2.echelon``), once per certificate;
``decode`` is one matrix-vector product with the result.  ``encode``
runs the same elimination, builds each output on the 2**rho_i inputs
supported on B_i's pivots, reads its basis values off that vector and
proves the certificate through ``decode_matrix`` by the subcube lemma
(``circuit.agrees_on_pivots``) with P = B_i, once per output.  Only
when that proof fails does one sweep of the circuit on all 2**n inputs
name the lowest input where the decoded matrix disagrees with it.

Binary format ``OPE1`` (bit-packed, MSB first inside each field)::

    magic "OPE1"                                   32 bits
    n, r                                           16 bits each
    |B|, then |B| 2w-bit keys row*2**w + col,      16 + |B| * 2w bits
        strictly increasing
    |C|, then |C| 2w-bit keys row*2**w + col,      16 + |C| * 2w bits
        strictly increasing
    per output i = 0..n-1: t_i, then t_i bits      16 + t_i bits
    zero padding to a byte boundary

with w = ceil(log2(max(n, r) + 1)).  As col < 2**w, increasing keys are
the positions in row-major order without repeats.  That makes 96 + 16n +
2*w*(|B|+|C|) + sum(t_i) content bits in all.  ``_layout`` is the one
statement of this layout: ``serialize`` writes its fields and
``bit_length`` sums their widths; ``deserialize`` is its one reader.  It
converts each key run in chunks of at most ``_CHUNK`` keys, shifting
each key out of its chunk, and each basis run in one slice, so a field
costs time in its own width, not in the stream's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

from . import _kernels
from ._kernels import check_exhaustive
from .circuit import Depth2Circuit, agrees_on_pivots, check_operator, collapse, is_linear_gate
from .gf2 import Gf2Matrix, Gf2Vector, bit_indices, echelon, matvec

MAGIC = b"OPE1"
_FIELD = 16  # width of the count fields (n, r, |B|, |C|, t_i)
_CHUNK = 64  # keys per int that deserialize shifts them out of
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # '0'/'1' characters to bit values


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
            if words and (min(words) < 0 or max(words) >> cols):
                raise ValueError(f"{name} has a row word outside [0, 2**{cols})")
        if len(self.basis_bits) != self.n:
            raise ValueError("need one basis-bit string per output")
        binary = set().union(*self.basis_bits) <= {0, 1}
        for i, bits in enumerate(self.basis_bits):
            if len(bits) > self.c_rows[i].bit_count():
                raise ValueError(f"output {i} stores more basis bits than wires")
            if not (binary or set(bits) <= {0, 1}):
                raise ValueError("basis bits must be 0 or 1")

    def field_width(self) -> int:
        return max(self.n, self.r).bit_length()

    def wire_count(self) -> int:
        return sum(w.bit_count() for w in self.b_rows + self.c_rows)


def encode(c: Depth2Circuit) -> OperatorEncoding:
    """Build the certificate of ``c`` and prove it.

    The circuit must have no direct wires and every middle gate must XOR
    exactly its wires (no negation, no ignored wire).  Output i's basis
    values are its table at the middle values of its chosen unit vectors.
    The certificate is proven on a subcube: output i computes x -> a_i * x
    by ``agrees_on_pivots`` with P = B_i.  When that proof fails, one
    sweep of ``c`` on all 2**n inputs names the first input where the
    matrix the certificate decodes to disagrees with it (NotLinearError).
    Middle gates feeding no output are omitted from the certificate; they
    cannot influence it.
    """
    check_exhaustive(c.n)  # before any work: a refusal sweeps all 2**n inputs
    for o in c.outputs:
        if o.directs:
            raise ValueError("direct wires must be removed before encoding")
    for j, m in enumerate(c.middle):
        if is_linear_gate(m.table) != (tuple(range(len(m.inputs))), False):
            raise ValueError(f"middle gate {j} is not the pure parity of its wires")

    rows = [sum(1 << i for i in m.inputs) for m in c.middle]
    used = sorted({j for o in c.outputs for j in o.mids})
    remap = {j: k for k, j in enumerate(used)}
    b_rows = tuple(rows[j] for j in used)
    c_rows = tuple(sum(1 << remap[j] for j in o.mids) for o in c.outputs)

    # per output: B_i's rows from decode_matrix's elimination, and the output
    # on the subcube of their pivots, whose bit 2**k is its value at e_{p_k}
    kepts = [echelon(rows[j] for j in o.mids) for o in c.outputs]
    masks, _ = _kernels.input_vectors(max(map(len, kepts), default=0))
    proofs = []
    basis_bits = []
    for o, kept in zip(c.outputs, kepts):
        full = (1 << (1 << len(kept))) - 1
        cut = [(mask & full, low) for mask, low in zip(masks, sorted(kept))]
        args = [reduce(xor, (mask for mask, low in cut if rows[j] & low), 0) for j in o.mids]
        got = _kernels.apply_table(o.table.bits, args, full)
        proofs.append((kept, got))
        basis_bits.append(tuple((got >> (1 << k)) & 1 for k in range(len(kept))))
    enc = OperatorEncoding(c.n, len(used), b_rows, c_rows, tuple(basis_bits))
    a = decode_matrix(enc)
    if not all(agrees_on_pivots(row, kept, got, 0, masks) for (kept, got), row in zip(proofs, a.row_words)):
        check_operator(collapse(c), a)
    return enc


def decode_matrix(enc: OperatorEncoding) -> Gf2Matrix:
    """The operator's n-by-n matrix, compiled from the certificate alone.

    Output i sees y = B_i * x, where B_i holds the rows of the middle
    gates it reads (the rows C_i selects).  One forward elimination of
    those rows (``echelon``) finds the pivots p_k, the first basis of
    B_i's columns.  By linearity, row i is the one vector in B_i's row
    space whose bit p_k is the k-th stored basis value: walking the
    pivots upward, XOR in echelon row k when bit p_k disagrees.
    """
    words = []
    b_rows = enc.b_rows
    for i, seen in enumerate(enc.c_rows):
        stored = enc.basis_bits[i]
        rows = []
        while seen:  # B_i: the rows of the middle gates output i reads
            low = seen & -seen
            rows.append(b_rows[low.bit_length() - 1])
            seen ^= low
        kept = echelon(rows)
        if len(kept) != len(stored):
            raise CorruptEncodingError(
                f"output {i} stores {len(stored)} basis values,"
                f" but its wire pattern has rank {len(kept)}"
            )
        # kept row k has no bit below pivot k, so fixing pivot k leaves
        # the lower pivots as they are
        row = 0
        for low, bit in zip(sorted(kept), stored):
            if bool(row & low) != bit:
                row ^= kept[low]
        words.append(row)
    return Gf2Matrix(enc.n, enc.n, tuple(words))


def decode(enc: OperatorEncoding, x: Gf2Vector) -> Gf2Vector:
    """Value of the encoded operator on ``x``, computed from the
    certificate alone."""
    if x.length != enc.n:
        raise ValueError("input length mismatch")
    return matvec(decode_matrix(enc), x)


def _pairs(words, w):
    """Row-major keys ``i << w | j`` of the 1-entries (i, j); as j < 2**w,
    row-major order is key order."""
    for i, word in enumerate(words):
        for j in bit_indices(word):
            yield i << w | j


def _layout(enc: OperatorEncoding) -> list[tuple[str, int, int, object]]:
    """The stream's fields in order, as runs ``(name, width, count, values)``:
    one 2w-bit key per wire, one bit per basis value.

    ``serialize`` writes the values; ``bit_length`` reads only widths and
    counts, so it never builds the keys, which are generated lazily.
    """
    w = enc.field_width()
    runs = [("magic", 8, len(MAGIC), MAGIC), ("n", _FIELD, 1, (enc.n,)), ("r", _FIELD, 1, (enc.r,))]
    for name, words in (("B", enc.b_rows), ("C", enc.c_rows)):
        count = sum(word.bit_count() for word in words)
        runs += [(f"|{name}|", _FIELD, 1, (count,)), (f"{name} pair", 2 * w, count, _pairs(words, w))]
    for i, bits in enumerate(enc.basis_bits):
        runs += [(f"t_{i}", _FIELD, 1, (len(bits),)), ("basis bit", 1, len(bits), bits)]
    return runs


def bit_length(enc: OperatorEncoding) -> int:
    """Exact number of content bits in the serialized stream (the byte
    stream only adds zero padding to the next byte boundary)."""
    return sum(width * count for _, width, count, _ in _layout(enc))


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
    """The certificate an ``OPE1`` stream names, or ``EncodingFormatError``
    at the bit offset of the first bad field.

    The stream becomes one string of '0'/'1' characters up front.  A key
    run is read in chunks of at most ``_CHUNK`` keys: one ``int`` of the
    chunk's slice, then each key by shift and mask.  A basis run is one
    slice of the string's bytes mapped to 0/1.  A key's shift stays within
    its chunk, so a field costs time in its own width, not in the stream's
    length (an untrusted stream may be long; shifting the whole stream per
    field would be quadratic).
    """
    total = 8 * len(data)
    bits = format(int.from_bytes(data, "big"), f"0{total}b") if data else ""
    pos = 0

    def read(width: int, what: str, *index: int) -> int:
        """A ``width``-bit field; ``what`` names it, formatted with
        ``index`` only when the field is truncated."""
        nonlocal pos
        if pos + width > total:
            raise EncodingFormatError(f"stream truncated while reading {what.format(*index)}", pos)
        pos += width
        return int(bits[pos - width : pos] or "0", 2)

    for k, expected in enumerate(MAGIC):
        if read(8, "magic") != expected:
            raise EncodingFormatError("bad magic, expected OPE1", 8 * k)
    n = read(_FIELD, "n")
    if n < 1:
        raise EncodingFormatError("n must be at least 1", pos - _FIELD)
    rr = read(_FIELD, "r")
    w = max(n, rr).bit_length()
    step = 2 * w
    mask, keymask, span = (1 << w) - 1, (1 << step) - 1, _CHUNK * step
    levels = []
    for name, rows, cols in (("B", rr, n), ("C", n, rr)):
        count = read(_FIELD, f"|{name}|")
        words = [0] * rows
        prev = -1
        whole = min(count, (total - pos) // step)
        end = pos + whole * step
        for a in range(pos, end, span):
            b = min(a + span, end)
            chunk = int(bits[a:b], 2)
            for shift in range(b - a - step, -1, -step):
                key = (chunk >> shift) & keymask
                row, col = key >> w, key & mask
                if row >= rows or col >= cols:
                    raise EncodingFormatError(f"{name} position {(row, col)} out of range", b - step - shift)
                # the only guard against a repeated pair: |= below would absorb it
                if key <= prev:
                    raise EncodingFormatError(f"{name} positions out of order", b - step - shift)
                prev = key
                words[row] |= 1 << col
        pos = end
        if whole < count:  # a pair cut short: one of its halves is truncated
            read(w, f"{name} row")
            read(w, f"{name} col")
        levels.append(tuple(words))
    raw = bits.encode().translate(_DIGITS)
    basis_bits = []
    for i, wires in enumerate(levels[1]):
        t = read(_FIELD, "t_{}", i)
        if t > wires.bit_count():
            raise EncodingFormatError(f"output {i} stores more basis bits than wires", pos - _FIELD)
        if pos + t > total:  # reported at the first bit past the end
            raise EncodingFormatError(f"stream truncated while reading basis bit of output {i}", total)
        basis_bits.append(tuple(raw[pos : pos + t]))
        pos += t
    if total - pos >= 8:
        raise EncodingFormatError("trailing data after encoding", pos)
    if "1" in bits[pos:]:
        raise EncodingFormatError("nonzero padding bits", pos)
    return OperatorEncoding(n, rr, levels[0], levels[1], tuple(basis_bits))
