"""The evaluation kernel: value-vector conventions, parity decisions
against the shift-based oracle, agreement of ``collapse`` with the
per-point interpreters, the memory bound of the mux tree, and the
exhaustive cap checked before any vector exists."""

import random
import tracemalloc

import pytest

from oracles import (
    eval_depth2,
    eval_general,
    linear_circuit,
    parity_candidate_by_shifts,
    parity_of_by_shifts,
    parity_table_by_doubling,
)
from wirelab import _kernels
from wirelab.circuit import (
    Depth2Circuit,
    GeneralCircuit,
    GeneralGate,
    MiddleGate,
    OutputGate,
    TruthTable,
    collapse,
    first_difference,
)
from wirelab.compress import encode
from wirelab.generators import random_depth2, random_general
from wirelab.gf2 import Gf2Matrix, Gf2Vector
from wirelab.transforms import cap_fanin, linearize


def assert_collapse_matches(c, oracle):
    table = collapse(c)
    for x in range(1 << c.n):
        assert list(table.value_at(x).coords()) == oracle(c, [(x >> i) & 1 for i in range(c.n)]), x


def test_variable_mask_convention():
    # bit x of mask(i) must equal coordinate i of assignment x
    for n in (1, 3, 6):
        for i in range(n):
            mask = _kernels.variable_mask(i, n)
            for x in range(1 << n):
                assert ((mask >> x) & 1) == ((x >> i) & 1)


def test_parity_table_against_popcount():
    assert _kernels.parity_table(2, 0b11, 0) == 0b0110
    for fanin, mask, neg in ((3, 0b101, 0), (4, 0b1111, 1), (5, 0, 1)):
        t = _kernels.parity_table(fanin, mask, neg)
        for b in range(1 << fanin):
            assert ((t >> b) & 1) == (((b & mask).bit_count() & 1) ^ neg)


def _assert_reads_like_the_oracle(table: int, fanin: int):
    mask, neg, exact = _kernels.read_parity(table, fanin)
    expected = parity_of_by_shifts(table, fanin)
    assert (mask, neg) == parity_candidate_by_shifts(table, fanin), (table, fanin)
    assert exact == (expected is not None), (table, fanin)
    assert _kernels.parity_of(table, fanin) == expected, (table, fanin)
    return expected


def test_parity_decisions_agree_with_the_shift_oracle_on_every_small_table():
    # every table of fanin <= 4, the read-off's candidate on non-parities too
    for fanin in range(5):
        found = sum(_assert_reads_like_the_oracle(t, fanin) is not None for t in range(1 << (1 << fanin)))
        assert found == 2 << fanin  # 2**fanin masks, each plain and negated


@pytest.mark.parametrize("fanin", range(5, 17))
def test_parity_decisions_agree_with_the_shift_oracle_on_wide_tables(fanin):
    rng = random.Random(fanin)
    for _ in range(6):
        _assert_reads_like_the_oracle(rng.getrandbits(1 << fanin), fanin)
        mask, neg = rng.getrandbits(fanin), rng.getrandbits(1)
        t = _kernels.parity_table(fanin, mask, neg)
        assert t == parity_table_by_doubling(fanin, mask, neg)
        assert _assert_reads_like_the_oracle(t, fanin) == (mask, neg)
        complement = t ^ ((1 << (1 << fanin)) - 1)
        assert _assert_reads_like_the_oracle(complement, fanin) == (mask, neg ^ 1)
        for bit in (0, 1 << rng.randrange(fanin), rng.randrange(1 << fanin)):  # bit 0, a probe bit 2**k, any bit
            assert _assert_reads_like_the_oracle(t ^ (1 << bit), fanin) is None
        if mask:  # a one and a zero swapped: still balanced, so only the comparison refuses it
            b = rng.randrange(1 << fanin)
            swapped = t ^ (1 << b) ^ (1 << (b ^ (mask & -mask)))  # x_k in the mask flips the value
            assert _assert_reads_like_the_oracle(swapped, fanin) is None


def test_apply_table_nonlinear_path():
    full = (1 << 8) - 1
    v0 = _kernels.variable_mask(0, 3)
    v1 = _kernels.variable_mask(1, 3)
    got = _kernels.apply_table(0b1000, [v0, v1], full)  # AND
    assert got == v0 & v1


def test_collapse_matches_per_point_eval():
    c = random_depth2(5, 6, 0.5, seed=33)
    table = collapse(c)
    for x in range(32):
        assert table.value_at(x) == c.eval(Gf2Vector(5, x))


def test_collapse_matches_interpreter_on_random_depth2():
    for seed in range(25):
        c = random_depth2(2 + seed % 7, 1 + seed % 9, 0.3 + 0.1 * (seed % 5), seed=seed)
        assert_collapse_matches(c, eval_depth2)


def test_collapse_matches_interpreter_on_random_general():
    for seed in range(25):
        n = 2 + seed % 6
        c = random_general(n, 2 + seed % 6, seed=seed, over_fanin_gates=1 + seed % 2)
        assert max(len(g.preds) for g in c.gates) > n
        assert_collapse_matches(c, eval_general)


def test_collapse_matches_interpreter_on_hand_cases():
    and23 = TruthTable(3, 0b11000000)  # ignores its first argument
    gates = (
        GeneralGate((), TruthTable.constant(1)),  # fanin 0
        GeneralGate((1,), TruthTable(1, 0b01)),  # fanin 1: negation
        GeneralGate((0, 1, 2), TruthTable(3, 0)),  # constant tables
        GeneralGate((3, 4, 0), TruthTable(3, 0xFF)),
        GeneralGate((0, 0, 1), and23),  # repeated preds
        GeneralGate((0, 1, 2, 0, 1, 7), TruthTable(6, 0x6A09E667F3BCC908)),  # fanin > n
    )
    c = GeneralCircuit(3, gates, (8, 7, 3))
    assert_collapse_matches(c, eval_general)
    assert_collapse_matches(GeneralCircuit(3, gates, (4, 5, 6)), eval_general)

    d = Depth2Circuit(
        2,
        (
            MiddleGate((), TruthTable.constant(1)),
            MiddleGate((1,), TruthTable.identity()),
            MiddleGate((0, 1), TruthTable(2, 0b1000)),
        ),
        (
            OutputGate((0, 1, 2), (0, 1), TruthTable(5, 0x9E3779B9)),  # fanin > n
            OutputGate((2,), (1,), TruthTable(2, 0b1100)),
        ),
    )
    assert_collapse_matches(d, eval_depth2)


def test_mux_tree_keeps_one_vector_per_level():
    # a breadth-first tree would hold 2**15 vectors at once
    n, fanin = 14, 16
    rng = random.Random(14)
    full = (1 << (1 << n)) - 1
    args = [rng.getrandbits(1 << n) for _ in range(fanin)]
    table = rng.getrandbits(1 << fanin)
    expected_bit = (table >> sum(((a >> 5) & 1) << k for k, a in enumerate(args))) & 1
    tracemalloc.start()
    try:
        got = _kernels.apply_table(table, args, full)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (got >> 5) & 1 == expected_bit
    vector_bytes = (1 << n) // 8
    assert peak < 2 * (fanin + 1) * vector_bytes


def _over_cap_calls():
    """Every library entry point that sweeps, on a hand-built 21-input
    circuit (``random_general`` would draw tables of fanin 25)."""
    n = 21
    linear = linear_circuit(Gf2Matrix.identity(n))
    wide = GeneralGate(tuple(range(n)) + (0,), TruthTable(n + 1, 0))
    return {
        "collapse-kernel": (collapse, linear.to_depth2()),
        "collapse-matrix": (collapse, linear),
        "cap_fanin": (cap_fanin, GeneralCircuit(n, (wide,), tuple(range(n)))),
        "linearize": (linearize, linear.to_depth2()),
        "encode": (encode, linear.to_depth2()),
        "first_difference": (lambda c: first_difference(c, linear), linear.to_depth2()),
    }


@pytest.mark.parametrize("name", sorted(_over_cap_calls()))
def test_exhaustive_cap_checked_before_allocation(name):
    fn, c = _over_cap_calls()[name]
    tracemalloc.start()
    try:
        with pytest.raises(_kernels.ExhaustiveCapError) as err:
            fn(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "exhaustive evaluation capped at n=20, got n=21"
    assert peak < (1 << 21) // 8  # less than one value vector at n = 21
