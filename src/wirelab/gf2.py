"""Dense GF(2) linear algebra on int bitsets.

Vectors and matrices store their 0/1 entries packed into Python ints
(bit ``i`` of ``Gf2Vector.bits`` is coordinate ``i``; bit ``j`` of a
matrix row word is column ``j``).  All values are immutable and all
operations are pure functions.

One elimination, ``echelon``, brings row words to echelon form with
each pivot at its row's lowest set bit; its keys are the first basis of
the columns (whose size is the rank).  Every reader goes through it:
the certificate decoder (``compress.decode_matrix``) reads each
output's row off it, the subcube lemma (``circuit.agrees_on_pivots``)
both paper cases prove with reads its rows as they are, the battery's
gf2-oracles check holds it against list arithmetic, and the first basis
and span solving read its keys and rows.
"""

from __future__ import annotations

from dataclasses import dataclass


class NotInSpanError(ValueError):
    """Raised when a vector has no representation over the given basis."""


def bit_indices(word: int) -> tuple[int, ...]:
    """Positions of the set bits of ``word``, lowest first."""
    out = []
    while word:
        out.append((word & -word).bit_length() - 1)
        word &= word - 1
    return tuple(out)


@dataclass(frozen=True)
class Gf2Vector:
    """Vector over GF(2); coordinate ``i`` is bit ``i`` of ``bits``."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("vector length must be non-negative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside [0, length) are not allowed")

    @staticmethod
    def from_coords(coords) -> "Gf2Vector":
        bits = 0
        coords = list(coords)
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError("coordinates must be 0 or 1")
            bits |= c << i
        return Gf2Vector(len(coords), bits)

    @staticmethod
    def unit(length: int, i: int) -> "Gf2Vector":
        if not 0 <= i < length:
            raise ValueError("unit index out of range")
        return Gf2Vector(length, 1 << i)

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        # coordinate 0 first; format writes "0" for an empty vector
        return format(self.bits, f"0{self.length}b")[::-1] if self.length else ""


@dataclass(frozen=True)
class Gf2Matrix:
    """Row-major bit matrix; ``row_words[i]`` packs row ``i``."""

    rows: int
    cols: int
    row_words: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.row_words) != self.rows:
            raise ValueError("row count disagrees with row_words")
        for w in self.row_words:
            if w < 0 or w >> self.cols:
                raise ValueError("row has entries outside [0, cols)")

    @staticmethod
    def identity(n: int) -> "Gf2Matrix":
        return Gf2Matrix(n, n, tuple(1 << i for i in range(n)))

    def row(self, i: int) -> Gf2Vector:
        return Gf2Vector(self.cols, self.row_words[i])

    def column(self, j: int) -> Gf2Vector:
        """Column ``j`` as a vector.  Only the tests call this, and the
        benchmark's tracer names it; its deletion waits for ROADMAP item 2."""
        if not 0 <= j < self.cols:
            raise ValueError("column index out of range")
        bits = 0
        for i, w in enumerate(self.row_words):
            bits |= ((w >> j) & 1) << i
        return Gf2Vector(self.rows, bits)

    def transpose(self) -> "Gf2Matrix":
        words = [0] * self.cols
        for i, w in enumerate(self.row_words):
            for j in bit_indices(w):
                words[j] |= 1 << i
        return Gf2Matrix(self.cols, self.rows, tuple(words))

    def popcount(self) -> int:
        """Number of 1-entries (the wire count of an adjacency matrix)."""
        return sum(w.bit_count() for w in self.row_words)


def matvec(m: Gf2Matrix, v: Gf2Vector) -> Gf2Vector:
    """Matrix-vector product over GF(2)."""
    if v.length != m.cols:
        raise ValueError(f"dimension mismatch: matrix has {m.cols} cols, vector length {v.length}")
    bits = 0
    for i, w in enumerate(m.row_words):
        bits |= ((w & v.bits).bit_count() & 1) << i
    return Gf2Vector(m.rows, bits)


def matmul(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Matrix product over GF(2)."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    # row i of a*b is the XOR of b's rows selected by row i of a
    words = []
    for w in a.row_words:
        acc = 0
        for k in bit_indices(w):
            acc ^= b.row_words[k]
        words.append(acc)
    return Gf2Matrix(a.rows, b.cols, tuple(words))


def echelon(rows) -> dict[int, int]:
    """One forward elimination of row words.

    Each row is reduced against the rows kept before it, lowest bit
    first, until its lowest set bit is no kept row's; it is then kept
    under that bit (as a one-bit word).  Returns ``{low bit: row}``: a
    kept row has no bit below its key, the keys are the pivots of the
    row space (the greedy first basis of the columns), and the rank is
    the number of rows kept.
    """
    kept: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            w = kept.get(low)
            if w is None:
                kept[low] = v
                break
            v ^= w
    return kept


def first_basis_columns(m: Gf2Matrix) -> list[int]:
    """Indices of the greedily chosen independent columns, scanned left to right.

    Column j is kept iff it is not in the span of the kept columns with
    smaller index, so the result is the lexicographically earliest maximal
    independent column set and its size equals the rank: ``echelon``'s
    keys as column indices.  Only the tests call this, and the benchmark's
    tracer names it; its deletion waits for ROADMAP item 2.
    """
    return sorted(low.bit_length() - 1 for low in echelon(m.row_words))


def solve_in_span(basis: list[Gf2Vector], y: Gf2Vector) -> tuple[int, ...]:
    """Coefficients expressing ``y`` over an independent ``basis``.

    Returns lambda with XOR_k lambda_k * basis[k] = y.  Raises
    NotInSpanError when ``y`` lies outside the span and ValueError when
    the claimed basis is dependent or lengths disagree.  Only the tests
    call this, and the benchmark's tracer names it; its deletion waits
    for ROADMAP item 2.
    """
    t, length = len(basis), y.length
    if any(u.length != length for u in basis):
        raise ValueError("basis/vector length mismatch")
    # basis vector k tagged with bit length + k: a kept row's tags name the
    # basis vectors it is the XOR of, and a row kept under a tag is a
    # dependency among them
    kept = echelon(u.bits | 1 << (length + k) for k, u in enumerate(basis))
    if max(kept, default=0) >> length:
        raise ValueError("basis vectors are not linearly independent")
    v = y.bits
    while v & ((1 << length) - 1):
        w = kept.get(v & -v)
        if w is None:
            raise NotInSpanError("vector is not in the span of the basis")
        v ^= w
    return tuple((v >> (length + k)) & 1 for k in range(t))


def parse_decimal(token: str) -> int:
    """``token`` as a non-negative integer in ASCII digits; ``int`` alone
    would also take other scripts' digits, underscores and signs."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"expected a decimal number, got {token!r}")
    return int(token)


def to_text(m: Gf2Matrix) -> str:
    """Render in the matrix text format: a `<rows> <cols>` header line
    followed by one 0/1 string per row."""
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(str(m.row(i)))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Gf2Matrix:
    """Parse the matrix text format produced by :func:`to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    try:
        if len(head) != 2:
            raise ValueError("expected '<rows> <cols>'")
        rows, cols = map(parse_decimal, head)
    except ValueError as e:
        raise ValueError(f"bad matrix header {lines[0].strip()!r}: {e}") from None
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} row lines, got {len(lines) - 1}")
    words = []
    for ln in lines[1:]:
        ln = ln.strip()
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise ValueError(f"bad matrix row {ln!r}")
        w = 0
        for j, ch in enumerate(ln):
            w |= (ch == "1") << j
        words.append(w)
    return Gf2Matrix(rows, cols, tuple(words))
