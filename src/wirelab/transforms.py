"""Semantics-preserving circuit passes with machine-checkable wire budgets.

The linearization pipeline turns a depth-2 circuit with linear output
gates that computes a matrix-vector product into an all-parity circuit:

1. ``remove_direct_wires``   - reroute input->output wires through fresh
   identity middle gates (adds at most n first-level wires);
2. ``normalize_output_xor``  - make every output a pure XOR of its wires,
   paying for each negated output with a wire to one shared constant-1
   middle gate (adds at most n second-level wires); an output gate that
   is no parity at all, or whose constant wire would pass the fanin cap,
   stops the run here, before any sweep;
3. the read-off: middle gate j becomes the parity of its inputs i with
   g_j(e_i) != g_j(0), which are the arguments in the mask of
   ``_kernels.parity_candidate`` of its table, and the second-level
   wiring is kept as is;
4. the proof, by the subcube lemma (``circuit.agrees_on_pivots``) with
   P = I_U: let U be the union of the inputs of the read non-parity
   middle gates.  One sweep builds those gates on the 2**|U| inputs
   supported on U, and output i of step 2 computes row i of the
   result's matrix iff the row, XORed with the rows of its parity gates,
   has no bit outside U (lies in I_U's row space) and agrees there
   (``_subcube_proof``).
   When it does not, ``check_operator`` compares one sweep of the input
   with x -> a*x on all 2**n inputs and raises NotLinearError at the
   first difference.

The read-off gives output i at e_j the XOR of g(e_j) ^ g(0) over the
gates it reads, which is c(e_j) ^ c(0) because the outputs are pure
parities.  So the result is x -> a*x for the matrix a read off c's unit
vectors whenever c(0) = 0, and it differs from c at x = 0 otherwise:
the first difference is the lowest input on which c is not x -> a*x.
A gate with no wire from input i adds nothing at e_i, so the read-off
first level is never wider than the normalized circuit's.

``linearize`` returns the result with a ``LinearizationReport`` that
holds what the run proved and built: the result's matrix (n row words,
not the 2**n-entry table it was checked on) and the two stage circuits,
the outputs of steps 1 and 2, the second of which the result is read
off.  Callers check the all-parity result against the matrix, and the
stages as they are, without running a pass again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import (
    MAX_FANIN,
    Depth2Circuit,
    GeneralCircuit,
    GeneralGate,
    LinearDepth2Circuit,
    MiddleGate,
    OutputGate,
    TruthTable,
    agrees_on_pivots,
    check_operator,
    collapse,
    is_linear_gate,
)
from .gf2 import Gf2Matrix, bit_indices
from . import _kernels
from ._kernels import check_exhaustive


class NonLinearGateError(ValueError):
    """An output gate that must be a parity is not one."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"output gate {index} is not a (possibly negated) parity")


@dataclass(frozen=True)
class LinearizationReport:
    """Wire accounting of one linearization run, and what it proved and built.

    ``added_first_level`` counts the identity gates created while
    removing direct wires, ``added_second_level`` the wires paid to the
    constant gate for negated outputs.  ``matrix`` is the operator the
    input was proven to compute on all 2**n inputs (the result's own);
    the result must have it as its operator matrix.
    ``stages`` holds the circuits after stage 1 (``remove_direct_wires``)
    and stage 2 (``normalize_output_xor``), the second being the one read
    off.
    """

    wires_before: int
    wires_after: int
    added_first_level: int
    added_second_level: int
    matrix: Gf2Matrix
    stages: tuple[Depth2Circuit, Depth2Circuit] = field(compare=False, repr=False)

    @property
    def added(self) -> int:
        return self.wires_after - self.wires_before

    @property
    def budget(self) -> int:
        return 2 * self.matrix.rows

    @property
    def within_budget(self) -> bool:
        return self.wires_after <= self.wires_before + self.budget


def cap_fanin(c: GeneralCircuit) -> GeneralCircuit:
    """Rewire every gate of fanin > n straight to the n inputs.

    The replacement gate computes the same function of the circuit
    inputs (obtained exhaustively), so the circuit's behaviour is
    unchanged while its wire count can only drop.  Gates of fanin <= n
    are left untouched; a second application is a no-op.  Rewiring
    sweeps all 2**n inputs, so n is capped like ``collapse``.
    """
    n = c.n
    if all(len(g.preds) <= n for g in c.gates):
        return c
    preds, tables, _ = c._nodes
    vecs = _kernels.node_vectors_general(n, preds, tables)
    all_inputs = tuple(range(n))
    gates = []
    for k, g in enumerate(c.gates):
        if len(g.preds) <= n:
            gates.append(g)
        else:
            gates.append(GeneralGate(all_inputs, TruthTable(n, vecs[n + k])))
    return GeneralCircuit(n, tuple(gates), c.outputs)


def remove_direct_wires(c: Depth2Circuit) -> Depth2Circuit:
    """Reroute every direct input->output wire through an identity middle gate.

    One identity gate is added per input that has direct wires (not per
    wire), appended after the existing middle gates in input order; each
    direct wire re-enters at its old argument position, so output tables
    are unchanged.
    """
    direct_inputs = sorted({i for o in c.outputs for i in o.directs})
    if not direct_inputs:
        return c
    base = len(c.middle)
    gate_for = {i: base + k for k, i in enumerate(direct_inputs)}
    middle = list(c.middle) + [MiddleGate((i,), TruthTable.identity()) for i in direct_inputs]
    outputs = [
        OutputGate(o.mids + tuple(gate_for[i] for i in o.directs), (), o.table)
        for o in c.outputs
    ]
    return Depth2Circuit(c.n, tuple(middle), tuple(outputs))


def normalize_output_xor(c: Depth2Circuit) -> Depth2Circuit:
    """Make every output gate a pure XOR of its listed middle gates.

    Wires an output's parity ignores are dropped; a negated parity is
    rewired to one shared constant-1 middle gate (added on demand, fanin
    0) which absorbs the complement.  Raises NonLinearGateError when an
    output gate is not a parity at all, and ValueError when a negated
    parity already reads ``MAX_FANIN`` wires, before any table is built.
    """
    for o in c.outputs:
        if o.directs:
            raise ValueError("direct wires must be removed first")
    parsed = []
    dirty = False
    for i, o in enumerate(c.outputs):
        lin = is_linear_gate(o.table)
        if lin is None:
            raise NonLinearGateError(i)
        positions, negated = lin
        if negated and len(positions) >= MAX_FANIN:
            raise ValueError(
                f"output gate {i} is a negated parity of {len(positions)} wires;"
                f" its wire to the constant gate would pass the fanin cap {MAX_FANIN}"
            )
        parsed.append((positions, negated))
        if negated or len(positions) != len(o.mids):
            dirty = True
    if not dirty:
        return c
    const_index = len(c.middle)
    const_used = False
    outputs = []
    for o, (positions, negated) in zip(c.outputs, parsed):
        mids = tuple(o.mids[p] for p in positions)
        if negated:
            const_used = True
            mids = mids + (const_index,)
        outputs.append(OutputGate(mids, (), TruthTable.parity(len(mids))))
    middle = c.middle + ((MiddleGate((), TruthTable.constant(1)),) if const_used else ())
    return Depth2Circuit(c.n, middle, tuple(outputs))


def linearize(c: Depth2Circuit) -> tuple[LinearDepth2Circuit, LinearizationReport]:
    """Full pipeline: an equivalent all-parity circuit plus its report.

    Requires parity output gates (NonLinearGateError, before any sweep)
    and a circuit computing a matrix-vector product (NotLinearError, with
    the lowest input that shows it, otherwise); the result computes the
    same operator with at most 2n more wires, its first level never wider
    than the normalized circuit's.  The result is proven on a subcube
    (``_subcube_proof``): the non-parity middle gates are swept over the
    inputs they read; only a refusal sweeps ``c`` on all 2**n inputs, to
    name its lowest counterexample.  The report holds the proven matrix
    and both stage circuits.
    """
    check_exhaustive(c.n)  # before any work: a refusal sweeps all 2**n inputs
    s1 = remove_direct_wires(c)
    s2 = normalize_output_xor(s1)

    n, r = c.n, len(s2.middle)
    rows = []
    for g in s2.middle:
        mask, _ = _kernels.parity_candidate(g.table.bits, g.table.fanin)
        rows.append(sum(1 << g.inputs[k] for k in bit_indices(mask)))
    first = Gf2Matrix(r, n, tuple(rows))
    second = Gf2Matrix(
        n, r, tuple(sum(1 << j for j in o.mids) for o in s2.outputs)
    )
    result = LinearDepth2Circuit(first, second)
    matrix = result.operator_matrix()
    if not _subcube_proof(s2, rows, matrix):
        check_operator(collapse(c), matrix)

    added_fl = s1.first_level_wires() - c.first_level_wires()
    const = len(s1.middle)  # the constant gate, where normalize_output_xor added one
    added_sl = sum(const in o.mids for o in s2.outputs)
    report = LinearizationReport(
        wires_before=c.wire_count(),
        wires_after=result.wire_count(),
        added_first_level=added_fl,
        added_second_level=added_sl,
        matrix=matrix,
        stages=(s1, s2),
    )
    return result, report


def _subcube_proof(s2: Depth2Circuit, rows: list[int], matrix: Gf2Matrix) -> bool:
    """Whether every output of ``s2``, a pure XOR of its middle gates,
    provably computes x -> matrix * x.

    ``rows[j]`` is middle gate j's read-off row, its input row when the
    gate is a parity.  Let U be the union of the inputs of the read
    non-parity gates.  Output i XORed with its parity gates (rows and
    negation bits) is the XOR of its non-parity gates, a function of x_U,
    so ``agrees_on_pivots`` with P = I_U decides it.  One sweep builds
    those gates on the 2**|U| inputs supported on U, renumbered 0..|U|-1.
    """
    read = sorted({j for o in s2.outputs for j in o.mids})
    # per read gate: its (mask, negation bit) as a parity, or None
    forms = {j: _kernels.parity_of(s2.middle[j].table.bits, s2.middle[j].table.fanin) for j in read}
    tables = [j for j, form in forms.items() if form is None]
    span = sorted({i for j in tables for i in s2.middle[j].inputs})
    at = {i: k for k, i in enumerate(span)}
    k = len(span)
    kept = {1 << i: 1 << i for i in span}
    vecs, masks = {}, ()
    if tables:  # an all-parity circuit needs no sweep
        preds = [tuple(at[i] for i in s2.middle[j].inputs) for j in tables]
        bits = [s2.middle[j].table.bits for j in tables]
        outputs = range(k, k + len(tables))
        vecs = dict(zip(tables, _kernels.node_vectors_general(k, preds, bits, outputs=outputs)))
        masks, _ = _kernels.input_vectors(k)
    for o, w in zip(s2.outputs, matrix.row_words):
        got = neg = 0
        for j in o.mids:
            if forms[j] is None:
                got ^= vecs[j]
            else:
                w ^= rows[j]
                neg ^= forms[j][1]
        if not agrees_on_pivots(w, kept, got, neg, masks):
            return False
    return True
