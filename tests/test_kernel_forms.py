"""The parts of a kernel sweep (affine forms of parity gates, the merge
of repeated and complemented gates, fold, stretch, mux tree):
``collapse`` and every-node sweeps against the per-point interpreters on
circuits that hit each part, ``first_difference``'s one-miter sweep
against two collapses, each part against the mux tree on its own, the
mux tree against a per-point table lookup, and pins on the work and
memory the parts save."""

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
    LinearDepth2Circuit,
    MiddleGate,
    OutputGate,
    TruthTable,
    _interpret,
    collapse,
    equivalent,
    first_difference,
    is_linear_gate,
)
from wirelab.generators import random_general, random_linear_circuit
from wirelab.gf2 import Gf2Matrix, Gf2Vector
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


@st.composite
def merged_dags(draw, n=None):
    """Gates that repeat or complement an earlier gate, identity gates
    (whose form is their argument's), parities that XOR an argument twice,
    and gates that read a node beside its identity copy."""
    n = draw(st.integers(1, 8)) if n is None else n
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        pick = st.integers(0, n + len(gates) - 1)
        kind = draw(st.sampled_from(["new", "repeat", "complement", "identity", "beside", "xor-twice"]))
        wide = [g for g in gates if len(g.preds) > 1]
        if kind in ("repeat", "complement") and wide:
            g = draw(st.sampled_from(wide))
            gates.append(g if kind == "repeat" else GeneralGate(g.preds, g.table.complement()))
        elif kind == "identity":
            gates.append(GeneralGate((draw(pick),), TruthTable.identity()))
        elif kind == "beside":
            p = draw(pick)
            gates.append(GeneralGate((p,), TruthTable.identity()))
            preds = (p, n + len(gates) - 1, draw(pick))
            gates.append(GeneralGate(preds, draw(tables(3))))
        elif kind == "xor-twice":
            a, b = draw(pick), draw(pick)
            gates.append(GeneralGate((a, b, b), TruthTable.parity(3)))
        else:
            preds = tuple(draw(st.lists(pick, min_size=2, max_size=4)))
            gates.append(GeneralGate(preds, draw(tables(len(preds)))))
    return GeneralCircuit(n, tuple(gates), draw(outputs_of(n, n + len(gates))))


def _every_node(c, x: int) -> list[int]:
    """Every node's value on input ``x``, one table lookup per gate."""
    vals = [(x >> i) & 1 for i in range(c.n)]
    for g in c.gates:
        vals.append((g.table.bits >> sum(vals[p] << k for k, p in enumerate(g.preds))) & 1)
    return vals


def assert_every_node_matches(c):
    preds, bits, _ = c._nodes
    vecs = _kernels.node_vectors_general(c.n, preds, bits)
    for x in range(1 << c.n):
        assert [(v >> x) & 1 for v in vecs] == _every_node(c, x), x


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


@settings(max_examples=100, deadline=None)
@given(mixed_dags())
def test_every_node_of_mixed_dags(c):
    # with every node an output, a sweep builds every parity gate from its
    # form, each form from the nearest one already built
    assert_every_node_matches(c)


@settings(max_examples=150, deadline=None)
@given(merged_dags())
def test_repeated_and_complemented_gates_and_arguments_of_equal_form(c):
    assert_collapse_matches(c, eval_general)
    assert_every_node_matches(c)


@settings(max_examples=80, deadline=None)
@given(mixed_depth2())
def test_mixed_depth2_circuits(c):
    assert_collapse_matches(c, eval_depth2)


@st.composite
def paired_depth2(draw, n: int):
    """Depth-2 circuits whose middle layer holds duplicated and
    complemented pairs and identity gates, with outputs that read an
    identity gate's input directly too."""
    middle = []
    for _ in range(draw(st.integers(0, 5))):
        ins = tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, min(n, 4)))])
        middle.append(MiddleGate(ins, draw(parity_tables(len(ins)) | tables(len(ins)))))
        if draw(st.booleans()):
            kind = draw(st.sampled_from(["repeat", "complement", "identity"]))
            if kind == "identity":
                middle.append(MiddleGate((draw(st.integers(0, n - 1)),), TruthTable.identity()))
            else:
                m = middle[-1]
                middle.append(m if kind == "repeat" else MiddleGate(m.inputs, m.table.complement()))
    r = len(middle)
    outputs = []
    for _ in range(n):
        mids = tuple(draw(st.permutations(range(r)))[:draw(st.integers(0, min(r, 4)))])
        directs = tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, min(n, 2)))])
        fanin = len(mids) + len(directs)
        outputs.append(OutputGate(mids, directs, draw(parity_tables(fanin) | tables(fanin))))
    return Depth2Circuit(n, tuple(middle), tuple(outputs))


def _as_general(c) -> GeneralCircuit:
    preds, bits, outputs = c._nodes
    gates = tuple(GeneralGate(tuple(ps), TruthTable(len(ps), t)) for ps, t in zip(preds, bits))
    return GeneralCircuit(c.n, gates, tuple(outputs))


def _flip_one_bit(draw, c: GeneralCircuit) -> tuple[int, GeneralCircuit]:
    """A gate k of ``c`` and ``c`` with one table bit of gate k flipped;
    k is the second gate of a duplicated or complemented pair when ``c``
    has one."""
    pairs = [k for k, g in enumerate(c.gates) for h in c.gates[:k]
             if len(g.preds) > 1 and g.preds == h.preds and g.table.bits in (h.table.bits, h.table.complement().bits)]
    k = draw(st.sampled_from(pairs)) if pairs else draw(st.integers(0, len(c.gates) - 1))
    g = c.gates[k]
    table = TruthTable(g.table.fanin, g.table.bits ^ (1 << draw(st.integers(0, (1 << g.table.fanin) - 1))))
    return k, GeneralCircuit(c.n, c.gates[:k] + (GeneralGate(g.preds, table),) + c.gates[k + 1:], c.outputs)


@st.composite
def circuit_pairs(draw):
    """Two circuits on the same inputs: the general circuit of a depth-2
    circuit's node view, possibly with one table bit flipped, against the
    depth-2 circuit; a general DAG against a copy with one table bit
    flipped; a general DAG against an unrelated depth-2 circuit; or an
    all-parity circuit against the general circuit of its depth-2 form,
    possibly flipped."""
    kind = draw(st.sampled_from(["general-depth2", "flip", "unrelated", "linear"]))
    if kind == "flip":  # one output reads the flipped gate
        c = draw(merged_dags())
        k, flipped = _flip_one_bit(draw, c)
        i = draw(st.integers(0, c.n - 1))
        outputs = c.outputs[:i] + (c.n + k,) + c.outputs[i + 1:]
        return GeneralCircuit(c.n, c.gates, outputs), GeneralCircuit(c.n, flipped.gates, outputs)
    n = draw(st.integers(1, 8))
    d2 = draw(paired_depth2(n))
    if kind == "general-depth2":
        g = _as_general(d2)
        return (_flip_one_bit(draw, g)[1] if draw(st.booleans()) else g), d2
    if kind == "unrelated":
        return draw(merged_dags(n)), d2
    r = draw(st.integers(0, 6))
    first = Gf2Matrix(r, n, tuple(draw(st.lists(st.integers(0, (1 << n) - 1), min_size=r, max_size=r))))
    second = Gf2Matrix(n, r, tuple(draw(st.lists(st.integers(0, (1 << r) - 1), min_size=n, max_size=n))))
    lin = LinearDepth2Circuit(first, second)
    other = _as_general(lin.to_depth2())
    return lin, (_flip_one_bit(draw, other)[1] if draw(st.booleans()) else other)


def _at(c, x: int) -> list[int]:
    """Outputs of ``c`` on input ``x`` from the per-point interpreter."""
    return list(_interpret(c.n, c._nodes, Gf2Vector(c.n, x)).coords())


@settings(max_examples=200, deadline=None)
@given(circuit_pairs())
def test_first_difference_sweeps_one_miter_exactly(pair):
    c1, c2 = pair
    want = collapse(c1).first_difference(collapse(c2))
    assert first_difference(c1, c2) == want
    assert first_difference(c2, c1) == want
    assert equivalent(c1, c2) == (want is None)
    if want is not None:
        assert _at(c1, want) != _at(c2, want)
        for x in range(want):
            assert _at(c1, x) == _at(c2, x), x


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
    wider = data.draw(st.integers(0, 2))  # masks longer than the table serve it as well
    folded, fps = _kernels._fold(table, tuple(ps), _kernels._Masks(len(ps) + wider))
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


def test_a_gate_reading_inputs_through_identity_gates_needs_no_mux_tree(monkeypatch):
    # an identity gate has its input's form, so the wide gate's argument
    # forms are all single inputs and it stretches like the same gate
    # wired straight to them
    n, fanin = 14, 11
    rng = random.Random(14)
    ins = tuple(rng.sample(range(n), fanin))  # unsorted
    table = TruthTable(fanin, rng.getrandbits(1 << fanin))
    identities = tuple(GeneralGate((i,), TruthTable.identity()) for i in ins)
    wide = GeneralGate(tuple(range(n, n + fanin)), table)
    c = GeneralCircuit(n, identities + (wide,), (n + fanin,) * n)
    muxes = _spy(monkeypatch, "_mux_tree")
    got = collapse(c)
    assert muxes == []
    assert got == collapse(GeneralCircuit(n, (GeneralGate(ins, table),), (n,) * n))
    for x in rng.sample(range(1 << n), 64):
        assert list(got.value_at(x).coords()) == eval_general(c, [(x >> i) & 1 for i in range(n)])


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


def test_cap_fanin_builds_only_the_gates_it_rewires(monkeypatch):
    # the fanin-7 gate folds to a stretch of inputs 0..2 and never reads
    # the AND gate, so the sweep that rewires it needs no mux tree
    n = 6
    rng = random.Random(6)
    wide = GeneralGate((0, 1, 2, 0, 1, 2, 0), TruthTable(7, rng.getrandbits(1 << 7)))
    c = GeneralCircuit(n, (GeneralGate((3, 4, 5), TruthTable(3, 0b10000000)), wide), (n, n + 1, 0, 1, 2, 3))
    muxes = _spy(monkeypatch, "_mux_tree")
    capped = cap_fanin(c)
    assert muxes == []
    assert capped.gates[0] == c.gates[0] and capped.gates[1].preds == tuple(range(n))
    assert collapse(capped) == collapse(c)


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
        (vec,) = _kernels.node_vectors_general(n, [preds], [table], outputs=[n])
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


def _counted_xor(spent: list[int]):
    """``_kernels._xor`` that adds the big-int XORs it makes to ``spent[0]``."""
    real = _kernels._xor

    def counted(vecs, neg, full):
        vecs = list(vecs)
        spent[0] += max(len(vecs) - 1, 0) + neg
        return real(vecs, neg, full)

    return counted


def _xor_count(monkeypatch, c) -> tuple[int, int]:
    """Big-int XORs of one sweep of ``c``, and the XORs of argument
    vectors that its parity gates would make."""
    spent = [0]
    monkeypatch.setattr(_kernels, "_xor", _counted_xor(spent))
    collapse(c)
    gates = list(c.middle) + list(c.outputs)
    by_args = sum(len(is_linear_gate(g.table)[0]) for g in gates)
    return spent[0], by_args


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


def test_parity_gates_built_from_their_arguments_cost_no_more_xors(monkeypatch):
    # gate k XORs gate k - 1 with input k + 1, so the chain's forms hold
    # 2, 3, ..., n inputs: about n**2 / 2 XORs from the masks, where each
    # gate from its two arguments takes one.  Nearest-first reuse holds
    # that bound: each form is built from the one before it with one XOR.
    # Past the chain, one parity gate XORs an AND gate in and the next XORs
    # it out again, so the AND gate cancels in the forms.  The last gate is
    # a non-parity gate on the chain.
    n = 12
    gates = [GeneralGate((0, 1), TruthTable.parity(2))]
    gates += [GeneralGate((n + k - 1, k + 1), TruthTable.parity(2)) for k in range(1, n - 1)]
    end = n + len(gates) - 1
    gates.append(GeneralGate((0, 1), TruthTable(2, 0b1000)))
    gates.append(GeneralGate((end, end + 1), TruthTable.parity(2)))
    gates.append(GeneralGate((end + 2, end + 1), TruthTable.parity(2, negated=True)))
    gates.append(GeneralGate((n + 5, n + 9, 3), TruthTable(3, 0b10010110 ^ 0b1000)))
    c = GeneralCircuit(n, tuple(gates), tuple(range(n + 1, end + 1)) + (end + 3, end + 4))
    by_args = sum(len(g.preds) for g in gates)
    spent = [0]
    monkeypatch.setattr(_kernels, "_xor", _counted_xor(spent))
    table = collapse(c)
    assert spent[0] <= by_args
    spent[0] = 0
    preds, bits, _ = c._nodes
    vecs = _kernels.node_vectors_general(n, preds, bits)
    assert spent[0] <= by_args
    rng = random.Random(12)
    for x in [0] + rng.sample(range(1 << n), 64):
        assert list(table.value_at(x).coords()) == eval_general(c, [(x >> i) & 1 for i in range(n)]), x
        assert [(v >> x) & 1 for v in vecs] == _every_node(c, x), x


def test_a_gate_no_output_reads_is_not_built(monkeypatch):
    # every gate of a 12-input XOR chain is an output, and so each chain
    # form is one XOR from the one before it; the AND gate after the chain
    # is read by no output, so its mux tree is never built
    n = 12
    gates = [GeneralGate((0, 1), TruthTable.parity(2))]
    gates += [GeneralGate((n + k - 1, k + 1), TruthTable.parity(2)) for k in range(1, n - 1)]
    gates.append(GeneralGate((0, 1), TruthTable(2, 0b1000)))
    c = GeneralCircuit(n, tuple(gates), tuple(range(n, 2 * n - 1)) + (2 * n - 2,))
    muxes = _spy(monkeypatch, "_mux_tree")
    spent = [0]
    monkeypatch.setattr(_kernels, "_xor", _counted_xor(spent))
    table = collapse(c)
    assert muxes == [] and spent[0] == n - 1
    rng = random.Random(12)
    for x in [0] + rng.sample(range(1 << n), 64):
        assert list(table.value_at(x).coords()) == eval_general(c, [(x >> i) & 1 for i in range(n)]), x


def test_output_forms_are_built_from_their_nearest_built_form(monkeypatch):
    # output rows: A = inputs 0..7, A and input 8, A negated, A again,
    # input 5 alone (A XOR the parity of A's other inputs), zero (A XOR a
    # second gate on A's inputs), and six XORs of three wide parity gates
    n = 12
    rng = random.Random(12)
    a = tuple(range(8))
    middle = [MiddleGate(a, TruthTable.parity(8)), MiddleGate((8,), TruthTable.identity()),
              MiddleGate(tuple(i for i in a if i != 5), TruthTable.parity(7)), MiddleGate(a, TruthTable.parity(8))]
    middle += [MiddleGate(tuple(sorted(rng.sample(range(n), 9))), TruthTable.parity(9)) for _ in range(3)]
    outs = [((0,), 0), ((0, 1), 0), ((0,), 1), ((0,), 0), ((0, 2), 0), ((0, 3), 0),
            ((4,), 0), ((5,), 0), ((4, 5), 0), ((6,), 1), ((4, 6), 0), ((5, 6), 1)]
    c = Depth2Circuit(n, tuple(middle), tuple(
        OutputGate(mids, (), TruthTable.parity(len(mids), negated=bool(neg))) for mids, neg in outs))
    rows = [sum(1 << i for i in m.inputs) for m in middle]
    forms = set()
    for mids, neg in outs:
        row = 0
        for j in mids:
            row ^= rows[j]
        forms.add(row << 1 | neg)
    assert {2 << 5, 0, 0xFF << 1, 0xFF << 1 | 1, 0x1FF << 1} <= forms
    from_scratch = sum(max(f.bit_count() - 1, 0) for f in forms)
    spent = [0]
    monkeypatch.setattr(_kernels, "_xor", _counted_xor(spent))
    assert_collapse_matches(c, eval_depth2)
    assert spent[0] < from_scratch


def test_input_masks_of_the_widest_n_serve_every_smaller_n():
    n = 20
    kept = _kernels.input_vectors(n)
    for k in range(n):
        masks, full = _kernels.input_vectors(k)
        assert full == (1 << (1 << k)) - 1
        assert list(masks) == [_kernels.variable_mask(i, k) for i in range(k)], k
    assert _kernels.input_vectors(n) is kept
    # a collapse at the kept width fetches the kept masks and builds its
    # one row: no second set of n masks
    c = GeneralCircuit(n, (GeneralGate((0, 1, 2, 3), TruthTable.parity(4)),), (n,) * n)
    _kernels.input_vectors(12)
    tracemalloc.start()
    try:
        table = collapse(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    masks, full = kept
    assert table.columns[0] == masks[0] ^ masks[1] ^ masks[2] ^ masks[3]
    assert peak < 4 * sys.getsizeof(full)


def test_a_form_of_one_input_or_one_piece_is_that_vector():
    # an identity gate is its input's mask, and a repeated gate, or an
    # identity gate on it, is the first gate's vector: no copy is built
    n = 10
    and01 = GeneralGate((0, 1), TruthTable(2, 0b1000))
    gates = (GeneralGate((4,), TruthTable.identity()), and01, and01, GeneralGate((n + 2,), TruthTable.identity()))
    c = GeneralCircuit(n, gates, (n,) * n)
    preds, bits, _ = c._nodes
    vecs = _kernels.node_vectors_general(n, preds, bits)
    masks, _ = _kernels.input_vectors(n)
    assert vecs[n] is masks[4]
    assert vecs[n + 2] is vecs[n + 1] and vecs[n + 3] is vecs[n + 1]
    assert vecs[n + 1] == masks[0] & masks[1]


def test_a_gate_that_folds_to_a_parity_reads_its_distinct_arguments():
    # a 4-input table that is no parity, but is the parity of arguments
    # 0..2 wherever arguments 1 and 3 agree; it reads input 2 both through
    # an identity gate and directly, so it folds to that parity, whose
    # form XORs the forms of its distinct arguments.  With every node an
    # output, the parity chain before it has long forms, each built from
    # the one before it; collapse builds only the last gate's form
    n = 8
    rng = random.Random(5)
    bits = 0
    for a in range(16):
        b = [(a >> k) & 1 for k in range(4)]
        bits |= (b[0] ^ b[1] ^ b[2] if b[1] == b[3] else rng.getrandbits(1)) << a
    assert is_linear_gate(TruthTable(4, bits)) is None
    gates = [GeneralGate((2,), TruthTable.identity()), GeneralGate((0, 1), TruthTable.parity(2))]
    gates += [GeneralGate((n + k, k + 1), TruthTable.parity(2)) for k in range(1, n - 1)]
    chain = n + len(gates) - 1
    gates.append(GeneralGate((chain, n, 5, 2), TruthTable(4, bits)))
    gates.append(GeneralGate((chain + 1, 0), TruthTable.parity(2, negated=True)))
    c = GeneralCircuit(n, tuple(gates), (chain + 2,) * n)
    assert_collapse_matches(c, eval_general)
    assert_every_node_matches(c)


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
