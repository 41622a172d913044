"""The four forms of a kernel sweep (row word, fold, stretch, mux tree):
``collapse`` against the per-point interpreters on circuits that hit
each form, each form against the mux tree on its own, the mux tree
against a per-point table lookup, and pins on the work and memory the
forms save."""

import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_depth2, eval_general
from wirelab import _kernels
from wirelab.circuit import (
    Depth2Circuit,
    GeneralCircuit,
    GeneralGate,
    MiddleGate,
    OutputGate,
    TruthTable,
    collapse,
    is_linear_gate,
)
from wirelab.generators import random_general, random_linear_circuit
from wirelab.transforms import cap_fanin


def assert_collapse_matches(c, oracle):
    table = collapse(c)
    for x in range(1 << c.n):
        assert list(table.value_at(x).coords()) == oracle(c, [(x >> i) & 1 for i in range(c.n)]), x


def tables(fanin: int):
    return st.integers(0, (1 << (1 << fanin)) - 1).map(lambda bits: TruthTable(fanin, bits))


def parity_tables(fanin: int):
    positions = st.sets(st.integers(0, fanin - 1)) if fanin else st.just(set())
    return st.builds(lambda ps, neg: TruthTable.parity(fanin, ps, neg), positions, st.booleans())


@st.composite
def outputs_of(draw, n: int, nodes: int):
    return tuple(draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n)))


@st.composite
def parity_chains(draw):
    """Parities of earlier nodes, some negated, some ignoring arguments."""
    n = draw(st.integers(1, 8))
    gates = []
    for k in range(draw(st.integers(1, 10))):
        preds = tuple(draw(st.lists(st.integers(max(0, n + k - 3), n + k - 1), max_size=5)))
        gates.append(GeneralGate(preds, draw(parity_tables(len(preds)))))
    return GeneralCircuit(n, tuple(gates), draw(outputs_of(n, n + len(gates))))


@st.composite
def mixed_parities(draw):
    """A parity gate that reads a vector gate (an AND of two inputs) and
    row words (inputs and a parity of inputs)."""
    n = draw(st.integers(2, 8))
    a, b = draw(st.permutations(range(n)))[:2]
    row_preds = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    gates = [
        GeneralGate((a, b), TruthTable(2, 0b1000)),
        GeneralGate(row_preds, draw(parity_tables(len(row_preds)))),
    ]
    extra = tuple(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    mixed = (n, n + 1) + extra
    gates.append(GeneralGate(mixed, TruthTable.parity(len(mixed), negated=draw(st.booleans()))))
    gates.append(GeneralGate((n + 2, n, n + 1), draw(tables(3))))
    return GeneralCircuit(n, tuple(gates), draw(outputs_of(n, n + len(gates))))


@st.composite
def input_level_tables(draw):
    """Gates on distinct inputs in any order, of fanin 0, 1, n or between."""
    n = draw(st.integers(1, 8))
    gates = []
    for _ in range(draw(st.integers(1, 4))):
        fanin = draw(st.sampled_from([0, 1, n]) | st.integers(0, n))
        preds = tuple(draw(st.permutations(range(n)))[:fanin])
        gates.append(GeneralGate(preds, draw(tables(fanin))))
    return GeneralCircuit(n, tuple(gates), draw(outputs_of(n, n + len(gates))))


@st.composite
def repeated_preds(draw):
    """Gates whose preds repeat inputs and earlier gates, some past fanin n."""
    n = draw(st.integers(1, 8))
    gates = []
    for k in range(draw(st.integers(1, 5))):
        preds = draw(st.lists(st.integers(0, n + k - 1), min_size=1, max_size=min(n + 4, 10)))
        preds.insert(draw(st.integers(0, len(preds))), draw(st.sampled_from(preds)))
        gates.append(GeneralGate(tuple(preds), draw(tables(len(preds)))))
    return GeneralCircuit(n, tuple(gates), draw(outputs_of(n, n + len(gates))))


@st.composite
def mixed_dags(draw):
    """Parities and arbitrary tables on any earlier nodes."""
    n = draw(st.integers(1, 8))
    gates = []
    for k in range(draw(st.integers(1, 10))):
        preds = tuple(draw(st.lists(st.integers(0, n + k - 1), max_size=5)))
        table = draw(parity_tables(len(preds)) | tables(len(preds)))
        gates.append(GeneralGate(preds, table))
    return GeneralCircuit(n, tuple(gates), draw(outputs_of(n, n + len(gates))))


@st.composite
def mixed_depth2(draw):
    """Depth-2 circuits whose gates are parities or arbitrary tables, with
    unsorted middle inputs and direct wires."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, 6))
    middle = []
    for _ in range(r):
        ins = tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
        middle.append(MiddleGate(ins, draw(parity_tables(len(ins)) | tables(len(ins)))))
    outputs = []
    for _ in range(n):
        mids = tuple(draw(st.permutations(range(r)))[:draw(st.integers(0, min(r, 4)))])
        directs = tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, min(n, 2)))])
        fanin = len(mids) + len(directs)
        outputs.append(OutputGate(mids, directs, draw(parity_tables(fanin) | tables(fanin))))
    return Depth2Circuit(n, tuple(middle), tuple(outputs))


@settings(max_examples=100, deadline=None)
@given(parity_chains())
def test_parity_chains_with_negations(c):
    assert_collapse_matches(c, eval_general)


@settings(max_examples=60, deadline=None)
@given(mixed_parities())
def test_parity_gate_mixing_row_words_and_vectors(c):
    assert_collapse_matches(c, eval_general)


@settings(max_examples=100, deadline=None)
@given(input_level_tables())
def test_input_level_tables_with_unsorted_inputs(c):
    assert_collapse_matches(c, eval_general)


@settings(max_examples=80, deadline=None)
@given(repeated_preds())
def test_repeated_preds(c):
    assert_collapse_matches(c, eval_general)


@settings(max_examples=100, deadline=None)
@given(mixed_dags())
def test_mixed_general_dags(c):
    assert_collapse_matches(c, eval_general)


@settings(max_examples=80, deadline=None)
@given(mixed_depth2())
def test_mixed_depth2_circuits(c):
    assert_collapse_matches(c, eval_depth2)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 6), st.integers(0, 2**32), st.integers(1, 2))
def test_cap_fanin_is_equivalent(n, gates, seed, over):
    c = random_general(n, max(gates, over), seed=seed, over_fanin_gates=over)
    capped = cap_fanin(c)
    assert collapse(capped) == collapse(c)
    assert_collapse_matches(capped, eval_general)


def _per_point(table, argvecs, points):
    """A gate's value vector, one table lookup per point."""
    vec = 0
    for x in range(points):
        index = sum(((v >> x) & 1) << k for k, v in enumerate(argvecs))
        vec |= ((table >> index) & 1) << x
    return vec


def _leaf_tables(fanin, rng):
    """Random tables, and tables built from chosen leaves: every byte value
    in turn, over as many tables as that takes (so every nibble, and
    every pair of nibbles one table byte holds), and complemented
    nibbles (8..15) only."""
    width = 1 << fanin
    tables = [rng.getrandbits(width) for _ in range(6)]
    if fanin == 2:  # one nibble, half a table byte
        tables += range(16)
    elif fanin > 2:
        size = width >> 3
        tables += [int.from_bytes(bytes(range(k, k + size)), "little") for k in range(0, 256, size)]
        tables.append(sum(rng.randrange(8, 16) << (4 * j) for j in range(width >> 2)))
    return tables


@pytest.mark.parametrize("fanin", range(1, 10))
def test_mux_tree_agrees_with_a_per_point_lookup(fanin):
    rng = random.Random(fanin)
    points = 128
    full = (1 << points) - 1
    v = rng.getrandbits(points)
    arguments = [
        [rng.getrandbits(points) for _ in range(fanin)],
        [v] * fanin,  # equal arguments: equal halves merge by the lo == hi shortcut
        [rng.choice((0, v, full)) for _ in range(fanin)],
    ]
    for table in _leaf_tables(fanin, rng):
        for argvecs in arguments:
            assert _kernels._mux_tree(table, argvecs, full) == _per_point(table, argvecs, points), (table, argvecs)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_stretch_agrees_with_the_mux_tree(n, data):
    # every plan of swaps, whether or not the sweep's cost rule picks it
    fanin = data.draw(st.integers(1, n))
    ps = tuple(data.draw(st.permutations(range(n)))[:fanin])
    table = data.draw(st.integers(0, (1 << (1 << fanin)) - 1))
    masks, full = _kernels.input_vectors(n)
    assert _kernels._stretch(table, ps, n, masks) == _kernels._mux_tree(table, [masks[p] for p in ps], full)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_fold_agrees_with_the_mux_tree(n, data):
    ps = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=9))
    table = data.draw(st.integers(0, (1 << (1 << len(ps))) - 1))
    folded, fps = _kernels._fold(table, tuple(ps))
    assert sorted(fps) == sorted(set(ps))
    masks, full = _kernels.input_vectors(n)
    want = _kernels._mux_tree(table, [masks[p] for p in ps], full)
    assert _kernels.apply_table(folded, [masks[p] for p in fps], full) == want


# ---------------------------------------------------------------------------
# work and memory


def _spy(monkeypatch, name):
    calls = []
    real = getattr(_kernels, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_kernels, name, spy)
    return calls


def test_wide_input_level_gate_needs_no_mux_tree(monkeypatch):
    n = 12
    rng = random.Random(12)
    ps = tuple(rng.sample(range(n), n))  # unsorted
    c = GeneralCircuit(n, (GeneralGate(ps, TruthTable(n, rng.getrandbits(1 << n))),), (n,) * n)
    muxes, stretches = _spy(monkeypatch, "_mux_tree"), _spy(monkeypatch, "_stretch")
    table = collapse(c)
    assert muxes == [] and len(stretches) == 1
    for x in rng.sample(range(1 << n), 64):
        assert list(table.value_at(x).coords()) == eval_general(c, [(x >> i) & 1 for i in range(n)])


def test_cap_fanin_rewired_gates_need_no_mux_tree(monkeypatch):
    # the over-fanin gate folds to the n inputs in order; its rewired copy
    # has preds 0..n-1, so each sweep takes its table as its value vector
    n = 10
    rng = random.Random(10)
    preds = tuple(range(n)) + tuple(rng.choices(range(n), k=3))
    c = GeneralCircuit(n, (GeneralGate(preds, TruthTable(n + 3, rng.getrandbits(1 << (n + 3)))),), (n,) * n)
    muxes = _spy(monkeypatch, "_mux_tree")
    capped = cap_fanin(c)
    assert capped.gates[0].preds == tuple(range(n))
    assert collapse(capped) == collapse(c)
    assert muxes == []


def test_all_parity_depth2_never_builds_its_middle_layer():
    # n masks, the all-ones vector and n outputs, and the sum being built;
    # a vector's size is that of the int object, 30-bit digits and all
    n, r = 16, 24
    c = random_linear_circuit(n, r, 0.5, seed=16).to_depth2()
    _kernels.input_vectors.cache_clear()
    tracemalloc.start()
    try:
        table = collapse(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table == collapse(random_linear_circuit(n, r, 0.5, seed=16))
    assert peak < (2 * n + 4) * sys.getsizeof((1 << (1 << n)) - 1)


def _peak_of_sweep(n, preds, table):
    _kernels.input_vectors(n)  # the masks are shared by every sweep at this n
    tracemalloc.start()
    try:
        (vec,) = _kernels._sweep(n, [preds], [table], [n])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return vec, peak


def test_stretch_and_fold_of_a_fanin_16_gate_keep_the_mux_bound(monkeypatch):
    # the bound of test_mux_tree_keeps_one_vector_per_level
    rng = random.Random(16)
    fanin = 16
    stretches = _spy(monkeypatch, "_stretch")
    for n, preds in ((16, tuple(rng.sample(range(16), 16))),
                     (14, tuple(rng.sample(range(14), 14)) + (3, 11))):
        table = rng.getrandbits(1 << fanin)
        vec, peak = _peak_of_sweep(n, preds, table)
        masks, _ = _kernels.input_vectors(n)
        for x in rng.sample(range(1 << n), 32):
            assert (vec >> x) & 1 == (table >> sum(((x >> p) & 1) << k for k, p in enumerate(preds))) & 1
        assert peak < 2 * (fanin + 1) * ((1 << n) // 8)
    assert len(stretches) == 2


def _xor_count(monkeypatch, c) -> tuple[int, int]:
    """Big-int XORs of one sweep of ``c``, and the XORs of argument
    vectors that its parity gates would make."""
    spent = 0
    real = _kernels._xor

    def counted(vecs, neg, full):
        nonlocal spent
        vecs = list(vecs)
        spent += max(len(vecs) - 1, 0) + neg
        return real(vecs, neg, full)

    monkeypatch.setattr(_kernels, "_xor", counted)
    collapse(c)
    gates = list(c.middle) + list(c.outputs)
    by_args = sum(len(is_linear_gate(g.table)[0]) for g in gates)
    return spent, by_args


def test_row_words_never_cost_more_xors_than_argument_vectors(monkeypatch):
    n = 12
    dense = random_linear_circuit(n, 16, 0.5, seed=3).to_depth2()
    spent, by_args = _xor_count(monkeypatch, dense)
    assert spent < by_args / 2  # the rows pay
    # two wide middle gates read by every output: each output's row has
    # about n/2 inputs, but the middle gates cost 2n and each output 2
    wide = TruthTable.parity(n)
    sparse = Depth2Circuit(
        n,
        (MiddleGate(tuple(range(n)), wide), MiddleGate(tuple(range(n // 2)), TruthTable.parity(n // 2))),
        tuple(OutputGate((0, 1), (), TruthTable.parity(2)) for _ in range(n)),
    )
    monkeypatch.undo()
    spent, by_args = _xor_count(monkeypatch, sparse)
    assert spent <= by_args
    assert_collapse_matches(sparse, eval_depth2)


def test_general_collapse_builds_only_what_its_outputs_read(monkeypatch):
    # gate k XORs the gate before it with input k mod n; every output reads
    # the last gate, whose row is the one vector the sweep has to build
    n = 16
    gates = [GeneralGate((0, 1), TruthTable.parity(2))]
    gates += [GeneralGate((n + k - 1, k % n), TruthTable.parity(2)) for k in range(1, 30)]
    c = GeneralCircuit(n, tuple(gates), (n + 29,) * n)
    xors = _spy(monkeypatch, "_xor")
    table = collapse(c)
    built = len(xors)  # not the calls themselves: their 2**16-bit arguments
    assert built == 1
    rng = random.Random(30)
    for x in [0] + rng.sample(range(1 << n), 32):
        assert list(table.value_at(x).coords()) == eval_general(c, [(x >> i) & 1 for i in range(n)])
