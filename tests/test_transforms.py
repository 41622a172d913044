import dataclasses
import random
import tracemalloc

import pytest

from oracles import linear_circuit, parity_rows
from wirelab import _kernels, gf2, transforms
from wirelab._kernels import ExhaustiveCapError
from wirelab.circuit import (
    Depth2Circuit,
    GeneralCircuit,
    GeneralGate,
    LinearDepth2Circuit,
    MiddleGate,
    NotLinearError,
    OutputGate,
    TruthTable,
    collapse,
    equivalent,
    is_linear_gate,
    operator_table_of_matrix,
)
from wirelab.generators import linear_output_instance, random_general, random_matrix
from wirelab.gf2 import Gf2Matrix, Gf2Vector, bit_indices, matmul
from wirelab.transforms import (
    NonLinearGateError,
    cap_fanin,
    linearize,
    normalize_output_xor,
    remove_direct_wires,
)


def parity_out(mids, fanin=None, negated=False):
    mids = tuple(mids)
    return OutputGate(mids, (), TruthTable.parity(len(mids), negated=negated))


# --- cap_fanin ---------------------------------------------------------------

def test_cap_fanin_leaves_small_circuits_alone():
    c = random_general(4, 5, seed=1)
    assert cap_fanin(c) is c


def test_cap_fanin_single_wide_gate():
    # fanin n+3 = 7 over distinct predecessors (4 inputs + 3 gates), n = 4
    n = 4
    g_and = GeneralGate((0, 1), TruthTable(2, 0b1000))
    g_or = GeneralGate((2, 3), TruthTable(2, 0b1110))
    g_x = GeneralGate((0, 3), TruthTable.parity(2))
    wide = GeneralGate((0, 1, 2, 3, 4, 5, 6), TruthTable(7, (1 << 128) // 7))
    c = GeneralCircuit(n, (g_and, g_or, g_x, wide), (7, 7, 7, 7))
    capped = cap_fanin(c)
    assert max(len(g.preds) for g in capped.gates) <= n
    assert capped.gates[3].preds == (0, 1, 2, 3)
    assert collapse(capped) == collapse(c)
    assert capped.wire_count() < c.wire_count()


def test_cap_fanin_chain_of_wide_gates():
    c = random_general(5, 6, seed=14, over_fanin_gates=2)
    capped = cap_fanin(c)
    assert capped.wire_count() < c.wire_count()
    assert collapse(capped) == collapse(c)


def test_cap_fanin_idempotent():
    c = random_general(5, 6, seed=21, over_fanin_gates=3)
    once = cap_fanin(c)
    assert cap_fanin(once) == once


def test_cap_fanin_cap_enforced():
    # at n = 21 only a gate of fanin > n needs the sweep that the cap refuses
    n = 21
    narrow = GeneralCircuit(n, (GeneralGate((0, 1), TruthTable(2, 0b1000)),), tuple(range(n)))
    assert cap_fanin(narrow) is narrow
    wide = GeneralGate(tuple(range(n)) + (0,), TruthTable(n + 1, 0))
    with pytest.raises(ExhaustiveCapError, match="capped at n=20, got n=21"):
        cap_fanin(GeneralCircuit(n, (wide,), tuple(range(n))))


# --- remove_direct_wires -----------------------------------------------------

def test_remove_direct_wires_noop():
    c, _ = linear_output_instance(4, 4, 0.5, seed=30)
    c_no = remove_direct_wires(c)
    if not c.direct_wires():
        assert c_no is c
    assert c_no.direct_wires() == 0


def test_remove_direct_wires_pure_wiring():
    # y_i = x_i via n direct wires only
    n = 4
    c = Depth2Circuit(
        n, (), tuple(OutputGate((), (i,), TruthTable.identity()) for i in range(n))
    )
    fixed = remove_direct_wires(c)
    assert fixed.direct_wires() == 0
    assert len(fixed.middle) == n
    assert all(m.table == TruthTable.identity() for m in fixed.middle)
    assert c.wire_count() == n and fixed.wire_count() == 2 * n
    assert equivalent(c, fixed)


def test_remove_direct_wires_mixed_random():
    found = 0
    for seed in range(15, 40):
        c, _ = linear_output_instance(5, 5, 0.5, seed=seed)
        if not c.direct_wires():
            continue
        found += 1
        fixed = remove_direct_wires(c)
        assert fixed.direct_wires() == 0
        assert fixed.wire_count() - c.wire_count() <= c.n
        assert equivalent(c, fixed)
    assert found >= 3


def test_remove_direct_wires_shares_gate_per_input():
    # both outputs use x0 directly: one identity gate serves both wires
    c = Depth2Circuit(
        2,
        (),
        (
            OutputGate((), (0,), TruthTable.identity()),
            OutputGate((), (0, 1), TruthTable.parity(2)),
        ),
    )
    fixed = remove_direct_wires(c)
    assert len(fixed.middle) == 2
    assert fixed.wire_count() == c.wire_count() + 2
    assert equivalent(c, fixed)


# --- normalize_output_xor ----------------------------------------------------

def test_normalize_noop_on_pure_xor():
    c = linear_circuit(Gf2Matrix.identity(3)).to_depth2()
    assert normalize_output_xor(c) is c


def test_normalize_single_negated_output():
    mids = (MiddleGate((0,), TruthTable.identity()), MiddleGate((1,), TruthTable.identity()))
    outs = (parity_out([0], negated=True), parity_out([1]))
    c = Depth2Circuit(2, mids, outs)
    fixed = normalize_output_xor(c)
    assert len(fixed.middle) == 3  # one constant-1 gate appended
    assert fixed.middle[2].table == TruthTable.constant(1)
    assert fixed.wire_count() == c.wire_count() + 1
    assert equivalent(c, fixed)
    for o in fixed.outputs:
        assert o.table == TruthTable.parity(len(o.mids))


def test_normalize_drops_ignored_wires():
    # output lists two middle gates but only XORs the first
    mids = (MiddleGate((0,), TruthTable.identity()), MiddleGate((1,), TruthTable.identity()))
    t = TruthTable.parity(2, positions=[0])
    c = Depth2Circuit(2, mids, (OutputGate((0, 1), (), t), parity_out([1])))
    fixed = normalize_output_xor(c)
    assert fixed.outputs[0].mids == (0,)
    assert fixed.wire_count() == c.wire_count() - 1
    assert equivalent(c, fixed)


def test_normalize_rejects_nonlinear_output_with_index():
    mids = (MiddleGate((0,), TruthTable.identity()), MiddleGate((1,), TruthTable.identity()))
    and_gate = OutputGate((0, 1), (), TruthTable(2, 0b1000))
    c = Depth2Circuit(2, mids, (parity_out([0]), and_gate))
    with pytest.raises(NonLinearGateError) as err:
        normalize_output_xor(c)
    assert err.value.index == 1


def test_normalize_requires_no_direct_wires():
    c = Depth2Circuit(1, (), (OutputGate((), (0,), TruthTable.identity()),))
    with pytest.raises(ValueError):
        normalize_output_xor(c)


# --- linearize ---------------------------------------------------------------

def test_linearize_clean_identity():
    c = linear_circuit(Gf2Matrix.identity(3)).to_depth2()
    lin, report = linearize(c)
    assert equivalent(c, lin)
    assert report.within_budget and report.added == 0
    assert lin == linear_circuit(Gf2Matrix.identity(3))


def test_linearize_nand_at_zero_pair():
    # two NAND gates, 1 at the all-zero assignment, feed the same output
    # and cancel; neither responds to a unit vector, so both rows are empty
    t = TruthTable(2, 0b0111)
    mids = (MiddleGate((0, 1), t), MiddleGate((0, 1), t), MiddleGate((2,), TruthTable.identity()))
    c = Depth2Circuit(3, mids, (parity_out([0, 1, 2]), parity_out([]), parity_out([])))
    lin, report = linearize(c)
    assert equivalent(c, lin)
    assert report.within_budget
    assert lin.first_level.popcount() <= c.first_level_wires()
    assert lin.first_level == gf2.from_text("3 3\n000\n000\n001\n")
    assert lin.operator_matrix() == gf2.from_text("3 3\n001\n000\n000\n")


def test_linearize_unpaired_not_and_constant():
    # h1 = NOT x0, h2 = const 1, y = h1 XOR h2 = x0: h1 becomes the parity
    # x0 and h2 the empty parity, whose g(0) terms cancelled in y
    mids = (
        MiddleGate((0,), TruthTable(1, 0b01)),  # NOT x0
        MiddleGate((), TruthTable.constant(1)),
    )
    c = Depth2Circuit(1, mids, (parity_out([0, 1]),))
    lin, report = linearize(c)
    assert equivalent(c, lin)
    assert report.within_budget
    assert lin.first_level == gf2.from_text("2 1\n1\n0\n")
    assert lin.operator_matrix() == Gf2Matrix.identity(1)
    assert lin.eval(Gf2Vector(1, 1)) == Gf2Vector(1, 1)


def test_linearize_rejects_nonzero_image_of_zero():
    c = Depth2Circuit(
        1, (MiddleGate((), TruthTable.constant(1)),), (parity_out([0]),)
    )
    with pytest.raises(NotLinearError) as err:
        linearize(c)  # f(0) = 1
    assert err.value.x == 0


def test_linearize_proves_a_composition_is_its_product():
    c = LinearDepth2Circuit(
        random_matrix(4, 4, 0.5, seed=10),
        random_matrix(4, 4, 0.5, seed=11),
    )
    _, report = linearize(c.to_depth2())
    assert report.matrix == matmul(c.second_level, c.first_level)


def test_linearize_rejects_negated_identity():
    c = Depth2Circuit(
        1, (MiddleGate((0,), TruthTable.identity()),), (parity_out([0], negated=True),)
    )
    with pytest.raises(NotLinearError) as err:
        linearize(c)  # y = NOT x0
    assert err.value.x == 0


def test_linearize_first_level_matches_unit_vector_oracle():
    nonzero_at_zero = 0
    for seed in range(200):
        c, _ = linear_output_instance(3 + seed % 6, 1 + seed % 12, 0.5, seed=seed)
        s2 = normalize_output_xor(remove_direct_wires(c))
        lin, _ = linearize(c)
        assert [set(bit_indices(w)) for w in lin.first_level.row_words] == parity_rows(s2)
        nonzero_at_zero += sum(m.table.bits & 1 for m in s2.middle)
    assert nonzero_at_zero > 0


def test_linearize_reports_the_stage_circuits_it_read_off():
    for seed in range(100):
        c, _ = linear_output_instance(3 + seed % 6, 1 + seed % 12, 0.5, seed=seed)
        s1 = remove_direct_wires(c)
        _, report = linearize(c)
        assert report.stages == (s1, normalize_output_xor(s1))


def test_linearize_fixed_point_on_linear_circuit():
    from wirelab.generators import random_linear_circuit

    lin = random_linear_circuit(4, 5, 0.5, seed=18)
    out, report = linearize(lin.to_depth2())
    assert out == lin
    assert report.added == 0
    assert report.added_first_level == 0 and report.added_second_level == 0


def test_linearize_cancellation_pair_instance():
    # two identical AND gates feeding the same output contribute nothing
    and_t = TruthTable(2, 0b1000)
    mids = (
        MiddleGate((0, 1), and_t),
        MiddleGate((0, 1), and_t),
        MiddleGate((2,), TruthTable.identity()),
    )
    outs = (parity_out([0, 1, 2]), parity_out([]), parity_out([]))
    c = Depth2Circuit(3, mids, outs)
    lin, report = linearize(c)
    assert equivalent(c, lin)
    assert report.within_budget
    want = gf2.from_text("3 3\n001\n000\n000\n")
    assert lin.operator_matrix() == want
    # the AND pair is non-zero on no unit vector: its first-level rows are empty
    assert lin.first_level.row_words[0] == 0 and lin.first_level.row_words[1] == 0


def test_linearize_stage2_constant_gate_ends_dead():
    # negated output forces the constant gate; the read-off gives it no
    # first-level wires, and its second-level wire stays behind harmlessly
    mids = (MiddleGate((0,), TruthTable(1, 0b01)),)  # NOT x0
    c = Depth2Circuit(1, mids, (parity_out([0], negated=True),))  # y = x0
    assert collapse(c) == operator_table_of_matrix(Gf2Matrix.identity(1))
    lin, report = linearize(c)
    assert equivalent(c, lin)
    assert report.within_budget


def test_linearize_names_a_negated_output_at_the_fanin_cap(monkeypatch):
    # NOT x0, then 23 identities on x_(j mod 3): the XOR of all 24 is the
    # constant 1, so the negated output 0 is 0 and the circuit is linear,
    # but paying for its negation takes a 25th wire
    mids = (MiddleGate((0,), TruthTable(1, 0b01)),)
    mids += tuple(MiddleGate((j % 3,), TruthTable.identity()) for j in range(1, 24))
    c = Depth2Circuit(3, mids, (parity_out(range(24), negated=True), parity_out([1]), parity_out([2])))
    sweeps = []
    monkeypatch.setattr(_kernels, "node_vectors_general", lambda *args, **kwargs: sweeps.append(args))
    with pytest.raises(ValueError, match="^output gate 0 .* fanin cap 24$"):
        linearize(c)
    assert sweeps == []


def test_linearize_requires_linear_semantics():
    and_only = Depth2Circuit(
        2,
        (MiddleGate((0, 1), TruthTable(2, 0b1000)),),
        (parity_out([0]), parity_out([])),
    )
    with pytest.raises(ValueError):
        linearize(and_only)


def test_linearize_batch_budget_and_equivalence():
    for seed in range(60):
        n = 3 + seed % 6
        c, planted = linear_output_instance(n, 1 + seed % 12, 0.5, seed=seed)
        lin, report = linearize(c)
        assert equivalent(c, lin)
        assert report.wires_after <= report.wires_before + 2 * n
        assert lin.operator_matrix() == planted
        assert lin.first_level.popcount() <= normalize_output_xor(
            remove_direct_wires(c)
        ).first_level_wires()


def test_linearize_second_level_unchanged_by_final_stage():
    for seed in (3, 11, 19):
        c, _ = linear_output_instance(5, 6, 0.5, seed=seed)
        s2 = normalize_output_xor(remove_direct_wires(c))
        lin, _ = linearize(c)
        assert lin.second_level.popcount() == s2.second_level_wires()


# --- the subcube proof -------------------------------------------------------

def test_linearize_proves_n20_without_a_2n_bit_vector():
    c, a = linear_output_instance(20, 10, 0.5, seed=1)
    tracemalloc.start()
    try:
        _, rep = linearize(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20) // 8
    assert rep.matrix == a


def _reads(s2):
    """``_kernels.read_parity`` of each middle gate, as ``linearize`` hands them on."""
    return [_kernels.read_parity(g.table.bits, g.table.fanin) for g in s2.middle]


def test_a_matrix_fault_off_the_swept_inputs_fails_part_b():
    # flip bit j of row i for an input j that no read non-parity gate
    # reads: the sweep over U never sets x_j, so only the row-space test
    # (w_i has no bit outside U) sees the fault
    c, _ = linear_output_instance(6, 8, 0.5, seed=1)
    lin, rep = linearize(c)
    s2, rows = rep.stages[1], lin.first_level.row_words
    read = {j for o in s2.outputs for j in o.mids}
    tables = [s2.middle[j] for j in read if is_linear_gate(s2.middle[j].table) is None]
    span = {i for m in tables for i in m.inputs}
    assert span == {1, 3, 4}
    assert transforms._subcube_proof(s2, rows, _reads(s2), rep.matrix)
    table = collapse(c)
    for i in range(c.n):
        for j in set(range(c.n)) - span:
            words = list(rep.matrix.row_words)
            words[i] ^= 1 << j
            flipped = Gf2Matrix(c.n, c.n, tuple(words))
            assert table.first_difference(operator_table_of_matrix(flipped)) == 1 << j
            assert not transforms._subcube_proof(s2, rows, _reads(s2), flipped)


def test_a_read_nonlinear_gate_of_fanin_n_takes_the_sweep(monkeypatch):
    # output 0 reads identity gate 0 and a pair of equal fanin-n tables,
    # which cancel: the circuit computes the identity
    n = 6
    base = linear_circuit(Gf2Matrix.identity(n)).to_depth2()
    wide = MiddleGate(tuple(range(n)), TruthTable(n, 0x1234_5678_9ABC_DEF0))
    assert _kernels.parity_of(wide.table.bits, n) is None
    out0 = parity_out((0, n, n + 1))
    c = Depth2Circuit(n, base.middle + (wide, wide), (out0,) + base.outputs[1:])
    swept = []
    real = _kernels.node_vectors_general

    def sweep(*args, **kwargs):
        swept.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "node_vectors_general", sweep)
    lin, rep = linearize(c)
    assert swept == [n]  # the pair reads every input: its subcube is the whole cube
    assert rep.matrix == Gf2Matrix.identity(n)
    # the same verdict from the subcube proof on its own
    rows = lin.first_level.row_words
    assert transforms._subcube_proof(rep.stages[1], rows, _reads(rep.stages[1]), rep.matrix)
    # and the same refusal once the pair no longer cancels
    other = dataclasses.replace(wide, table=wide.table.complement())
    bad = dataclasses.replace(c, middle=c.middle[:-1] + (other,))
    with pytest.raises(NotLinearError) as err:
        linearize(bad)
    assert err.value.x == 0
    # a complemented table flips its negation bit and keeps its read-off row
    s2 = normalize_output_xor(remove_direct_wires(bad))
    assert not transforms._subcube_proof(s2, rows, _reads(s2), rep.matrix)


def test_wide_equal_tables_are_swept_over_the_inputs_they_read(monkeypatch):
    # at n = 16, output 0 reads identity gate 0 and two equal fanin-12
    # tables on inputs 2..15 but 5 and 9, which cancel
    n = 16
    base = linear_circuit(Gf2Matrix.identity(n)).to_depth2()
    ins = tuple(i for i in range(2, n) if i not in (5, 9))
    wide = MiddleGate(ins, TruthTable(12, random.Random(12).getrandbits(1 << 12)))
    assert _kernels.parity_of(wide.table.bits, 12) is None
    c = Depth2Circuit(n, base.middle + (wide, wide), (parity_out((0, n, n + 1)),) + base.outputs[1:])
    swept = []
    real = _kernels.node_vectors_general

    def sweep(*args, **kwargs):
        swept.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(_kernels, "node_vectors_general", sweep)
    _, rep = linearize(c)
    assert swept == [12]
    assert rep.matrix == Gf2Matrix.identity(n)
