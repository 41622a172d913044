"""Circuit models: general DAG circuits and depth-2 circuits with
arbitrary gates, plus evaluation, wire counts, gate parity checks and
text serialization.

Every circuit has one node view, ``_nodes``: the preds and table bits
of each gate, in node order after the n inputs, and the output nodes;
an all-parity circuit's is its depth-2 form's, built once.  The kernel
(``collapse``, ``first_difference``'s miter, ``transforms.cap_fanin``)
sweeps it, and ``_interpret``, the per-point interpreter behind the
general and depth-2 ``eval`` methods, reads it one input at a time with
no kernel code.

Conventions used throughout:

* a truth table over ``d`` arguments stores its value for assignment
  ``b`` at bit index ``b``, where the first-listed argument is the least
  significant bit of ``b``;
* an input vector ``x`` is encoded as an int with coordinate ``i`` at
  bit ``i``, so exhaustive sweeps simply run ``x`` from 0 to 2**n - 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .gf2 import Gf2Matrix, Gf2Vector, bit_indices, echelon, matmul, matvec, parse_decimal

MAX_FANIN = 24


def check_fanin(fanin: int) -> None:
    """Raise ValueError unless a table may have ``fanin`` arguments; code
    that builds a table's 2**fanin bits itself checks before building."""
    if not 0 <= fanin <= MAX_FANIN:
        raise ValueError(f"fanin must be in [0, {MAX_FANIN}]")


@dataclass(frozen=True)
class TruthTable:
    """A gate function on ``fanin`` ordered arguments, packed into ``bits``."""

    fanin: int
    bits: int

    def __post_init__(self) -> None:
        check_fanin(self.fanin)
        if self.bits < 0 or self.bits >> (1 << self.fanin):
            raise ValueError("table has bits beyond 2**fanin entries")

    @staticmethod
    def constant(value: int) -> "TruthTable":
        return TruthTable(0, value & 1)

    @staticmethod
    def parity(fanin: int, positions=None, negated: bool = False) -> "TruthTable":
        """XOR of the arguments at ``positions`` (all of them by default)."""
        check_fanin(fanin)  # before building 2**fanin bits
        mask = (1 << fanin) - 1 if positions is None else sum(1 << p for p in set(positions))
        return TruthTable(fanin, _kernels.parity_table(fanin, mask, int(negated)))

    @staticmethod
    def identity() -> "TruthTable":
        return TruthTable.parity(1)

    def complement(self) -> "TruthTable":
        return TruthTable(self.fanin, self.bits ^ ((1 << (1 << self.fanin)) - 1))


@dataclass(frozen=True)
class GeneralGate:
    preds: tuple[int, ...]
    table: TruthTable

    def __post_init__(self) -> None:
        if len(self.preds) != self.table.fanin:
            raise ValueError("fanin disagrees with predecessor count")


@dataclass(frozen=True)
class GeneralCircuit:
    """DAG circuit: nodes 0..n-1 are inputs, gate ``k`` is node ``n + k``.

    Predecessor lists may repeat a node; every occurrence is a separate
    wire and a separate truth-table argument.
    """

    n: int
    gates: tuple[GeneralGate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one input")
        for k, g in enumerate(self.gates):
            node = self.n + k
            for p in g.preds:
                if not 0 <= p < node:
                    raise ValueError(f"gate {node} has predecessor {p} not before it")
        total = self.n + len(self.gates)
        if len(self.outputs) != self.n:
            raise ValueError("need exactly n output nodes")
        for o in self.outputs:
            if not 0 <= o < total:
                raise ValueError(f"output node {o} does not exist")

    @cached_property
    def _nodes(self) -> tuple[list, list, tuple[int, ...]]:
        return [g.preds for g in self.gates], [g.table.bits for g in self.gates], self.outputs

    def eval(self, x: Gf2Vector) -> Gf2Vector:
        return _interpret(self.n, self._nodes, x)

    def wire_count(self) -> int:
        return sum(len(g.preds) for g in self.gates)


@dataclass(frozen=True)
class MiddleGate:
    inputs: tuple[int, ...]
    table: TruthTable

    def __post_init__(self) -> None:
        if len(self.inputs) != self.table.fanin:
            raise ValueError("fanin disagrees with input count")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("duplicate input wire")


@dataclass(frozen=True)
class OutputGate:
    """Output gate arguments are the listed middle gates followed by the
    listed direct inputs, in that order."""

    mids: tuple[int, ...]
    directs: tuple[int, ...]
    table: TruthTable

    def __post_init__(self) -> None:
        if len(self.mids) + len(self.directs) != self.table.fanin:
            raise ValueError("fanin disagrees with wire count")
        if len(set(self.mids)) != len(self.mids) or len(set(self.directs)) != len(self.directs):
            raise ValueError("duplicate wire")


@dataclass(frozen=True)
class Depth2Circuit:
    n: int
    middle: tuple[MiddleGate, ...]
    outputs: tuple[OutputGate, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one input")
        if len(self.outputs) != self.n:
            raise ValueError("need exactly n output gates")
        r = len(self.middle)
        for j, m in enumerate(self.middle):
            for i in m.inputs:
                if not 0 <= i < self.n:
                    raise ValueError(f"middle gate {j} wired to missing input {i}")
        for k, o in enumerate(self.outputs):
            for j in o.mids:
                if not 0 <= j < r:
                    raise ValueError(f"output {k} wired to missing middle gate {j}")
            for i in o.directs:
                if not 0 <= i < self.n:
                    raise ValueError(f"output {k} wired to missing input {i}")

    @property
    def r(self) -> int:
        return len(self.middle)

    @cached_property
    def _nodes(self) -> tuple[list, list, range]:
        """Middle gate j is node n + j and output i is node n + r + i,
        reading its middle gates, then its direct inputs."""
        n, r = self.n, self.r
        preds = [m.inputs for m in self.middle]
        preds += [[n + j for j in o.mids] + list(o.directs) for o in self.outputs]
        tables = [m.table.bits for m in self.middle] + [o.table.bits for o in self.outputs]
        return preds, tables, range(n + r, n + r + n)

    def eval(self, x: Gf2Vector) -> Gf2Vector:
        return _interpret(self.n, self._nodes, x)

    def first_level_wires(self) -> int:
        return sum(len(m.inputs) for m in self.middle)

    def second_level_wires(self) -> int:
        return sum(len(o.mids) for o in self.outputs)

    def direct_wires(self) -> int:
        return sum(len(o.directs) for o in self.outputs)

    def wire_count(self) -> int:
        return self.first_level_wires() + self.second_level_wires() + self.direct_wires()


def _interpret(n: int, nodes, x: Gf2Vector) -> Gf2Vector:
    """Outputs of a node view on one input, one table bit per gate."""
    if x.length != n:
        raise ValueError("input length mismatch")
    preds, tables, outputs = nodes
    vals = [(x.bits >> i) & 1 for i in range(n)]
    for ps, bits in zip(preds, tables):
        idx = 0
        for k, p in enumerate(ps):
            idx |= vals[p] << k
        vals.append((bits >> idx) & 1)
    return Gf2Vector.from_coords(vals[o] for o in outputs)


@dataclass(frozen=True)
class LinearDepth2Circuit:
    """All-parity depth-2 circuit x -> second_level * (first_level * x).

    ``first_level`` is the r-by-n wire adjacency between inputs and
    middle gates, ``second_level`` the n-by-r adjacency between middle
    and output gates.  Every gate XORs its wires, so the circuit computes
    the linear operator of ``operator_matrix()``.  Wire count is the
    number of 1s in the two matrices.
    """

    first_level: Gf2Matrix
    second_level: Gf2Matrix

    def __post_init__(self) -> None:
        n, r = self.second_level.rows, self.second_level.cols
        if self.first_level.rows != r or self.first_level.cols != n:
            raise ValueError("layer shapes disagree")

    @property
    def n(self) -> int:
        return self.second_level.rows

    def eval(self, x: Gf2Vector) -> Gf2Vector:
        return matvec(self.second_level, matvec(self.first_level, x))

    def operator_matrix(self) -> Gf2Matrix:
        return matmul(self.second_level, self.first_level)

    def wire_count(self) -> int:
        return self.first_level.popcount() + self.second_level.popcount()

    def to_depth2(self) -> Depth2Circuit:
        first, second = self.first_level.row_words, self.second_level.row_words
        mids = tuple(MiddleGate(bit_indices(w), TruthTable.parity(w.bit_count())) for w in first)
        outs = tuple(OutputGate(bit_indices(w), (), TruthTable.parity(w.bit_count())) for w in second)
        return Depth2Circuit(self.n, mids, outs)

    @cached_property
    def _nodes(self) -> tuple[list, list, range]:
        """Its depth-2 form's node view."""
        return self.to_depth2()._nodes


Circuit = GeneralCircuit | Depth2Circuit | LinearDepth2Circuit


@dataclass(frozen=True)
class OperatorTable:
    """Exhaustive behaviour of an n-operator.

    ``columns[i]`` is the value vector of output coordinate ``i``: its
    bit ``x`` is the output on input ``x``.
    """

    n: int
    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != self.n:
            raise ValueError("need one value vector per output")
        total = 1 << self.n
        for c in self.columns:
            if c < 0 or c >> total:
                raise ValueError("value vector has bits beyond 2**n entries")

    def value_at(self, x: int) -> Gf2Vector:
        """The output on input ``x``, read one bit per column: the
        per-point oracle of the tests and of the benchmark's checks (no
        library code calls it)."""
        if not 0 <= x < (1 << self.n):
            raise ValueError("input index out of range")
        bits = 0
        for i, c in enumerate(self.columns):
            bits |= ((c >> x) & 1) << i
        return Gf2Vector(self.n, bits)

    def first_difference(self, other: "OperatorTable") -> int | None:
        """Lowest input on which the two operators differ, or None."""
        if other.n != self.n:
            raise ValueError("operators have different input counts")
        diff = 0
        for a, b in zip(self.columns, other.columns):
            diff |= a ^ b
        return (diff & -diff).bit_length() - 1 if diff else None


def collapse(c: Circuit) -> OperatorTable:
    """Evaluate ``c`` on all 2**n inputs; n above the exhaustive cap raises
    ``ExhaustiveCapError`` before any value vector is built."""
    if isinstance(c, LinearDepth2Circuit):
        return operator_table_of_matrix(c.operator_matrix())
    preds, tables, outputs = c._nodes
    return OperatorTable(c.n, tuple(_kernels.node_vectors_general(c.n, preds, tables, outputs=outputs)))


def operator_table_of_matrix(a: Gf2Matrix) -> OperatorTable:
    """Operator table of x -> a*x, built without a circuit."""
    n = a.rows
    if a.cols != n:
        raise ValueError("operator matrix must be square")
    return OperatorTable(n, tuple(_kernels.row_vector(n, w) for w in a.row_words))


def first_difference(c1: Circuit, c2: Circuit) -> int | None:
    """Lowest input on which two circuits differ, or None; exact over all
    2**n inputs, with n capped like ``collapse``.

    One kernel sweep of a miter: c1's gates, then c2's renumbered, then
    one XOR per output pair.  Each output's XOR is an affine form in the
    sweep, so where the two circuits share their parity structure and
    their repeated non-parity gates, the forms cancel and no value
    vector is built; every other output's XOR is built and swept in full.
    """
    if c1.n != c2.n:
        raise ValueError("circuits have different input counts")
    n = c1.n
    preds1, tables1, outputs1 = c1._nodes
    preds2, tables2, outputs2 = c2._nodes
    shift = len(preds1)  # c2's node n + k becomes n + shift + k

    def moved(p: int) -> int:
        return p + shift if p >= n else p

    preds = list(preds1) + [[moved(p) for p in ps] for ps in preds2]
    preds += [(a, moved(b)) for a, b in zip(outputs1, outputs2)]  # the n output pairs
    top = n + len(preds)
    tables = list(tables1) + list(tables2) + [0b0110] * n  # XOR
    diff = 0
    for v in _kernels.node_vectors_general(n, preds, tables, outputs=range(top - n, top)):
        diff |= v
    return (diff & -diff).bit_length() - 1 if diff else None


def equivalent(c1: Circuit, c2: Circuit) -> bool:
    """Exhaustive equivalence of two circuits on all 2**n inputs: whether
    ``first_difference`` finds none."""
    return first_difference(c1, c2) is None


def is_linear_gate(t: TruthTable) -> tuple[tuple[int, ...], bool] | None:
    """Parity structure of a gate, if it has one.

    Returns ``(positions, negated)`` such that the gate XORs exactly the
    arguments at ``positions`` (complemented when ``negated``), or None
    when the table is not a parity.  Positions missing from the result
    are arguments the gate ignores.
    """
    parity = _kernels.parity_of(t.bits, t.fanin)
    if parity is None:
        return None
    mask, neg = parity
    return bit_indices(mask), bool(neg)


class NotLinearError(ValueError):
    """A circuit that does not compute x -> a*x for the matrix ``a`` its
    pass built.

    Raised only by ``check_operator``.  ``transforms.linearize`` and
    ``compress.encode`` each prove their result on a subcube of the
    inputs, and call ``check_operator`` on one exhaustive sweep of their
    input only when that proof fails, to name the lowest counterexample.
    ``x`` is the lowest input on which the circuit differs from x -> a*x
    (0 when the circuit does not map 0 to 0), and ``n`` the circuit's
    input count.
    """

    def __init__(self, x: int, n: int):
        self.x = x
        self.n = n
        super().__init__("circuit does not compute a linear operator")


def check_operator(table: OperatorTable, a: Gf2Matrix) -> None:
    """Raise NotLinearError at the lowest input on which ``table`` is not
    x -> a*x; both paper cases call it only when their subcube proof
    fails."""
    x = table.first_difference(operator_table_of_matrix(a))
    if x is not None:
        raise NotLinearError(x, table.n)


def agrees_on_pivots(row: int, kept: dict[int, int], got: int, neg: int, masks) -> bool:
    """Whether h, which reads x only through P*x, is x -> row*x ^ neg on
    all 2**n inputs: the subcube lemma both paper cases prove with.

    ``kept`` holds P's rows as ``gf2.echelon`` keeps them, ``{lowest bit:
    row}``, with pivots p_0 < ... < p_{rho-1}; ``got`` is h on the 2**rho
    inputs supported on them (subcube input k is x_{p_k}), and ``masks``
    holds at least rho input value vectors of at least 2**rho bits.  h is
    that map iff (a) ``row`` lies in P's row space and (b) h agrees with
    it on the subcube.  There P is unit upper-triangular, so one-to-one
    onto P's image: each x shares P*x, hence h(x), with some x' of the
    subcube, and (a) gives row*x = row*x'.  Conversely, row*x then reads x
    only through P*x, which is (a).  Reduced rows are not needed.
    """
    if len(echelon([*kept.values(), row])) > len(kept):
        return False
    full = (1 << (1 << len(kept))) - 1
    want = full if neg else 0
    for mask, low in zip(masks, sorted(kept)):
        if row & low:
            want ^= mask & full
    return got == want


def weak_counterexample(c: Circuit, a: Gf2Matrix) -> Gf2Vector | None:
    """The first unit vector on which ``c`` and x -> a*x differ, or None
    when ``c`` weakly computes ``a``; evaluates each unit vector once."""
    n = c.n
    if a.rows != n or a.cols != n:
        raise ValueError("matrix must be n-by-n")
    units = (Gf2Vector.unit(n, j) for j in range(n))
    return next((e for e in units if c.eval(e) != matvec(a, e)), None)


# ---------------------------------------------------------------------------
# text serialization
#
# Truth tables are written as hex with the nibble holding table bits 0-3
# first (bit 0 = least significant bit of the first nibble).

_NOT_HEX = re.compile("[^0-9a-fA-F]")


def _hex_len(fanin: int) -> int:
    return max(1, ((1 << fanin) + 3) // 4)


def table_to_hex(t: TruthTable) -> str:
    return format(t.bits, f"0{_hex_len(t.fanin)}x")[::-1]


def table_from_hex(text: str, fanin: int) -> TruthTable:
    # int() of the whole string would also accept underscores, a 0x
    # prefix, surrounding whitespace and other scripts' digits
    bad = _NOT_HEX.search(text)
    if bad is not None:
        raise ValueError(f"invalid literal for int() with base 16: {bad.group()!r}")
    if len(text) != _hex_len(fanin):  # only the length table_to_hex writes
        raise ValueError(f"tt of fanin {fanin} takes {_hex_len(fanin)} hex digits, got {len(text)}")
    return TruthTable(fanin, int(text[::-1], 16))


def _ints(tokens) -> tuple[int, ...]:
    return tuple(map(parse_decimal, tokens))


def _sizes(line: str, keys: list[str]) -> tuple[int, ...]:
    """The numbers of a size line such as ``n 4 r 6``."""
    words = line.split()
    try:
        if words[::2] != keys or len(words) != 2 * len(keys):
            raise ValueError(f"expected {' '.join(f'{k} <{k}>' for k in keys)!r}")
        return _ints(words[1::2])
    except ValueError as e:
        raise ValueError(f"bad size line {line!r}: {e}") from None


def _field(keyword: str, indices) -> str:
    toks = " ".join(map(str, indices))
    return f"{keyword} {toks}" if toks else keyword


def depth2_to_text(c: Depth2Circuit) -> str:
    lines = ["depth2 v1", f"n {c.n} r {c.r}"]
    for j, m in enumerate(c.middle):
        lines.append(f"mid {j}: {_field('in', m.inputs)} ; tt {table_to_hex(m.table)}")
    for i, o in enumerate(c.outputs):
        lines.append(
            f"out {i}: {_field('mid', o.mids)} ; {_field('direct', o.directs)}"
            f" ; tt {table_to_hex(o.table)}"
        )
    return "\n".join(lines) + "\n"


def _split_fields(body: str, keywords: list[str]) -> list[list[str]]:
    parts = [p.strip() for p in body.split(";")]
    if len(parts) != len(keywords):
        raise ValueError(f"expected fields {keywords}")
    out = []
    for part, kw in zip(parts, keywords):
        if part != kw and not part.startswith(kw + " "):
            raise ValueError(f"expected field {kw!r} in {part!r}")
        out.append(part[len(kw):].split())
    return out


def _one_token(tokens: list[str], what: str) -> str:
    if len(tokens) != 1:
        raise ValueError(f"expected exactly one {what} token")
    return tokens[0]


def depth2_from_text(text: str) -> Depth2Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "depth2 v1":
        raise ValueError("missing 'depth2 v1' header")
    if len(lines) < 2:
        raise ValueError("missing size line")
    n, r = _sizes(lines[1], ["n", "r"])
    mids: list[MiddleGate] = []
    outs: list[OutputGate] = []
    for ln in lines[2:]:
        try:
            tag, _, rest = ln.partition(":")
            kind, idx = tag.split()
            if kind == "mid":
                if parse_decimal(idx) != len(mids):
                    raise ValueError("middle gates out of order")
                (ins, tt) = _split_fields(rest, ["in", "tt"])
                inputs = _ints(ins)
                mids.append(MiddleGate(inputs, table_from_hex(_one_token(tt, "tt"), len(inputs))))
            elif kind == "out":
                if parse_decimal(idx) != len(outs):
                    raise ValueError("output gates out of order")
                (ms, ds, tt) = _split_fields(rest, ["mid", "direct", "tt"])
                m_idx, d_idx = _ints(ms), _ints(ds)
                outs.append(
                    OutputGate(m_idx, d_idx, table_from_hex(_one_token(tt, "tt"), len(m_idx) + len(d_idx)))
                )
            else:
                raise ValueError(f"unknown line kind {kind!r}")
        except ValueError as e:
            raise ValueError(f"bad circuit line {ln!r}: {e}") from None
    if len(mids) != r:
        raise ValueError("middle gate count disagrees with header")
    return Depth2Circuit(n, tuple(mids), tuple(outs))


def general_to_text(c: GeneralCircuit) -> str:
    lines = ["general v1", f"n {c.n}"]
    for k, g in enumerate(c.gates):
        lines.append(f"gate {c.n + k}: {_field('pred', g.preds)} ; tt {table_to_hex(g.table)}")
    lines.append("outputs " + " ".join(map(str, c.outputs)))
    return "\n".join(lines) + "\n"


def general_from_text(text: str) -> GeneralCircuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "general v1":
        raise ValueError("missing 'general v1' header")
    if len(lines) < 2:
        raise ValueError("missing size line")
    (n,) = _sizes(lines[1], ["n"])
    gates: list[GeneralGate] = []
    outputs: tuple[int, ...] | None = None
    for ln in lines[2:]:
        try:
            words = ln.split()
            if words[0] == "outputs":
                if outputs is not None:
                    raise ValueError("second outputs line")
                outputs = _ints(words[1:])
                continue
            if words[0] != "gate":
                raise ValueError(f"unknown line kind {words[0]!r}")
            if outputs is not None:
                raise ValueError("gate line after outputs line")
            tag, _, rest = ln.partition(":")
            _, idx = tag.split()
            if parse_decimal(idx) != n + len(gates):
                raise ValueError("gates must appear in id order")
            (ps, tt) = _split_fields(rest, ["pred", "tt"])
            preds = _ints(ps)
            gates.append(GeneralGate(preds, table_from_hex(_one_token(tt, "tt"), len(preds))))
        except ValueError as e:
            raise ValueError(f"bad circuit line {ln!r}: {e}") from None
    if outputs is None:
        raise ValueError("missing outputs line")
    return GeneralCircuit(n, tuple(gates), outputs)
