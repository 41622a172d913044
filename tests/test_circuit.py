import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eval_depth2,
    eval_general,
    linear_circuit,
    table_from_hex_per_nibble,
    table_to_hex_per_nibble,
)
from wirelab._kernels import EXHAUSTIVE_CAP, ExhaustiveCapError
from wirelab.circuit import (
    Depth2Circuit,
    GeneralCircuit,
    GeneralGate,
    MiddleGate,
    OutputGate,
    TruthTable,
    agrees_on_pivots,
    collapse,
    depth2_from_text,
    depth2_to_text,
    equivalent,
    general_from_text,
    general_to_text,
    is_linear_gate,
    operator_table_of_matrix,
    table_from_hex,
    table_to_hex,
    weak_counterexample,
)
from wirelab.gf2 import from_text as gf2_from_text
from wirelab.generators import (
    linear_middle_instance,
    linear_output_instance,
    random_depth2,
    random_general,
    random_matrix,
)
from wirelab.gf2 import Gf2Matrix, Gf2Vector, echelon
from wirelab.transforms import linearize


def bits(s: str) -> Gf2Vector:
    return Gf2Vector.from_coords(int(ch) for ch in s)


# --- evaluation ------------------------------------------------------------

def test_eval_linear_identity_circuit():
    c = linear_circuit(Gf2Matrix.identity(4))
    for xb in range(16):
        x = Gf2Vector(4, xb)
        assert c.eval(x) == x


def test_eval_constant_output_gate():
    c = Depth2Circuit(
        1, (), (OutputGate((), (), TruthTable.constant(1)),)
    )
    assert c.eval(Gf2Vector(1, 0)) == Gf2Vector(1, 1)
    assert c.eval(Gf2Vector(1, 1)) == Gf2Vector(1, 1)


def test_eval_depth2_against_interpreter_oracle():
    c = random_depth2(4, 5, 0.55, seed=5)
    for xb in range(16):
        x = Gf2Vector(4, xb)
        assert list(c.eval(x).coords()) == eval_depth2(c, list(x.coords()))


def test_eval_general_against_interpreter_oracle():
    c = random_general(4, 6, seed=5)
    for xb in range(16):
        x = Gf2Vector(4, xb)
        assert list(c.eval(x).coords()) == eval_general(c, list(x.coords()))


def test_eval_length_mismatch():
    lin = linear_circuit(Gf2Matrix.identity(3))
    general = GeneralCircuit(3, (), (0, 1, 2))
    for c in (lin, lin.to_depth2(), general):
        with pytest.raises(ValueError):
            c.eval(Gf2Vector(4, 0))


# --- wires -----------------------------------------------------------------

def test_wires_depth_identity_linear():
    n = 5
    c = linear_circuit(Gf2Matrix.identity(n))
    assert c.wire_count() == 2 * n


def test_wires_depth_single_direct_wire():
    c = Depth2Circuit(
        1, (), (OutputGate((), (0,), TruthTable.identity()),)
    )
    assert c.wire_count() == 1


def test_wires_general_matches_recount():
    c = random_general(5, 7, seed=6)
    assert c.wire_count() == sum(len(g.preds) for g in c.gates)


# --- collapse / equivalence ------------------------------------------------

def test_collapse_identity_circuit():
    c = linear_circuit(Gf2Matrix.identity(3))
    t = collapse(c)
    for xb in range(8):
        assert t.value_at(xb) == Gf2Vector(3, xb)


def test_collapse_constant_zero():
    c = random_depth2(3, 4, 0.0, seed=0)  # density 0: constants only
    t = collapse(c)
    assert all(t.value_at(x) == Gf2Vector(3, 0) for x in range(8))


def test_collapse_spot_entries_match_eval():
    c = random_depth2(3, 4, 0.6, seed=7)
    t = collapse(c)
    for xb in (0, 3, 5, 7):
        assert t.value_at(xb) == c.eval(Gf2Vector(3, xb))


def test_collapse_cap_enforced():
    # the cap is fixed at 20: both sweep paths take n = 20 and refuse n = 21
    assert EXHAUSTIVE_CAP == 20
    lin = linear_circuit(Gf2Matrix.identity(20))
    assert collapse(lin).value_at(5) == Gf2Vector(20, 5)
    big = linear_circuit(Gf2Matrix.identity(21))
    for c in (big, big.to_depth2()):
        with pytest.raises(ExhaustiveCapError, match="capped at n=20, got n=21"):
            collapse(c)


def test_equivalent_reflexive_and_zero_vs_identity():
    ident = linear_circuit(Gf2Matrix.identity(3))
    zero = linear_circuit(Gf2Matrix(3, 3, (0,) * 3))
    assert equivalent(ident, ident)
    assert not equivalent(ident, zero)


def test_equivalent_mismatched_inputs():
    with pytest.raises(ValueError):
        equivalent(
            linear_circuit(Gf2Matrix.identity(3)),
            linear_circuit(Gf2Matrix.identity(4)),
        )


def test_equivalent_circuit_vs_its_linearization():
    c, _ = linear_output_instance(4, 6, 0.5, seed=8)
    lin, _ = linearize(c)
    assert equivalent(c, lin)


# --- linearity checks ------------------------------------------------------

def test_is_linear_gate_xor_and_and():
    xor2 = TruthTable.parity(2)
    assert is_linear_gate(xor2) == ((0, 1), False)
    and2 = TruthTable(2, 0b1000)
    assert is_linear_gate(and2) is None


def test_is_linear_gate_negated_parity_roundtrip():
    import random

    rng = random.Random(9)
    positions = tuple(sorted(rng.sample(range(5), 3)))
    t = TruthTable.parity(5, positions, negated=True)
    got = is_linear_gate(t)
    assert got == (positions, True)
    rebuilt = TruthTable.parity(5, got[0], got[1])
    assert rebuilt == t


def test_computes_linear_recovers_planted_matrix():
    c, a = linear_middle_instance(4, 5, 0.5, seed=10)
    assert collapse(c) == operator_table_of_matrix(a)


def test_linear_output_instance_computes_its_planted_matrix():
    c, a = linear_output_instance(5, 6, 0.5, seed=18)
    assert collapse(c) == operator_table_of_matrix(a)


def test_weakly_computes_exact_circuit_and_zero():
    a = random_matrix(4, 4, 0.5, seed=12)
    c = linear_circuit(a)
    assert weak_counterexample(c, a) is None
    zero = linear_circuit(Gf2Matrix(4, 4, (0,) * 4))
    assert weak_counterexample(zero, Gf2Matrix.identity(4)) == Gf2Vector.unit(4, 0)
    # the first unit vector that fails: column 2 flipped fails only there
    flipped = Gf2Matrix(4, 4, tuple(w ^ 0b0100 for w in a.row_words))
    assert weak_counterexample(c, flipped) == Gf2Vector.unit(4, 2)


def test_weak_equals_full_for_parity_circuits():
    from wirelab.generators import random_linear_circuit

    for seed in range(20):
        c = random_linear_circuit(4, 5, 0.5, seed=seed)
        a = random_matrix(4, 4, 0.5, seed=seed + 100)
        weak = weak_counterexample(c, a) is None
        full = equivalent(c, linear_circuit(a))
        assert weak == full
        assert weak_counterexample(c, c.operator_matrix()) is None


def test_operator_table_of_matrix_matches_collapse():
    a = random_matrix(5, 5, 0.5, seed=13)
    assert operator_table_of_matrix(a) == collapse(linear_circuit(a))


def _dot(u: int, x: int) -> int:
    return (u & x).bit_count() & 1


def test_agrees_on_pivots_gives_the_verdict_of_every_input():
    # h = g(P*x) with g affine, or affine but for one point of P's image;
    # told h on the subcube of P's pivots only, the lemma must say whether
    # h is x -> a*x ^ neg exactly when a check of all 2**n inputs does
    verdicts = set()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 8), label="n")
        words = st.integers(0, (1 << n) - 1)
        p_rows = data.draw(st.lists(words, max_size=n + 1), label="P")
        kept = echelon(p_rows)
        pivots = sorted(kept)  # one-bit words
        coef = data.draw(st.integers(0, (1 << len(p_rows)) - 1), label="g's coefficients")
        c0 = data.draw(st.integers(0, 1), label="g's constant")
        flip = data.draw(st.none() | words, label="g flipped at the image of")

        def image(x):
            return sum(_dot(row, x) << k for k, row in enumerate(p_rows))

        def h(x):
            y = image(x)
            return _dot(coef, y) ^ c0 ^ (flip is not None and y == image(flip))

        def combination(pick):
            a = 0
            for k, row in enumerate(p_rows):
                if (pick >> k) & 1:
                    a ^= row
            return a

        kinds = ["h's own", "h's own off the pivots", "in the row space", "any"]
        kind = data.draw(st.sampled_from(kinds), label="a")
        if kind == "h's own":
            a = combination(coef)
        elif kind == "h's own off the pivots":  # outside the row space when nonzero
            a = combination(coef) ^ (data.draw(words) & ~sum(pivots))
        elif kind == "in the row space":
            a = combination(data.draw(st.integers(0, (1 << len(p_rows)) - 1)))
        else:
            a = data.draw(words)
        neg = data.draw(st.integers(0, 1), label="neg")

        # subcube input k is pivot k, lowest first; masks of any width will do
        rho = len(pivots)
        got = 0
        for z in range(1 << rho):
            got |= h(sum(low for k, low in enumerate(pivots) if (z >> k) & 1)) << z
        width = data.draw(st.integers(rho, 8), label="mask width")
        masks = [sum(1 << z for z in range(1 << width) if (z >> k) & 1) for k in range(width)]

        verdict = all(h(x) == _dot(a, x) ^ neg for x in range(1 << n))
        assert agrees_on_pivots(a, kept, got, neg, masks) == verdict
        verdicts.add(verdict)

    check()
    assert verdicts == {False, True}


# --- truth table hex and circuit text formats -------------------------------

def test_table_hex_xor_is_6():
    assert table_to_hex(TruthTable.parity(2)) == "6"
    assert table_from_hex("6", 2) == TruthTable.parity(2)


def test_table_hex_roundtrip_sizes():
    # against the per-nibble reference codec, byte for byte
    import random

    rng = random.Random(14)
    for fanin in range(0, 15):
        size = 1 << fanin
        for bits in (0, (1 << size) - 1, rng.getrandbits(size), rng.getrandbits(size)):
            t = TruthTable(fanin, bits)
            text = table_to_hex(t)
            assert text == table_to_hex_per_nibble(t)
            for form in (text, text.upper()):
                assert table_from_hex(form, fanin) == table_from_hex_per_nibble(form, fanin) == t


def test_table_from_hex_rejects_what_per_digit_parsing_rejects():
    # int() of a whole string would take "1_2", "0x1" and " 1"
    for text in ("1g", "1_2", "0x1", " 1", "1 ", "+1", "-1"):
        with pytest.raises(ValueError) as want:
            table_from_hex_per_nibble(text, 4)
        with pytest.raises(ValueError) as got:
            table_from_hex(text, 4)
        assert str(got.value) == str(want.value)


def test_depth2_text_roundtrip():
    c = random_depth2(4, 5, 0.5, seed=15)
    assert depth2_from_text(depth2_to_text(c)) == c


def test_depth2_text_roundtrip_with_directs_and_empty_gates():
    c, _ = linear_output_instance(5, 4, 0.4, seed=16)
    assert depth2_from_text(depth2_to_text(c)) == c
    c0 = random_depth2(3, 2, 0.0, seed=0)
    assert depth2_from_text(depth2_to_text(c0)) == c0


def test_general_text_roundtrip():
    c = random_general(4, 6, seed=17, over_fanin_gates=2)
    assert general_from_text(general_to_text(c)) == c


def test_text_rejects_bad_header():
    with pytest.raises(ValueError):
        depth2_from_text("depth3 v1\nn 1 r 0\n")
    with pytest.raises(ValueError, match="missing size line"):
        depth2_from_text("depth2 v1\n")
    with pytest.raises(ValueError, match="missing size line"):
        general_from_text("general v1\n")


def test_text_rejects_malformed_lines():
    with pytest.raises(ValueError, match="bad circuit line"):
        depth2_from_text("depth2 v1\nn 1 r 1\nmid 0: in ; tt\nout 0: mid 0 ; direct ; tt 2\n")
    with pytest.raises(ValueError, match="bad circuit line"):
        general_from_text("general v1\nn 1\ngate 5: pred 0 ; tt 2\noutputs 1\n")


GENERAL_4 = "general v1\nn 4\ngate 4: pred 0 1 2 3 ; tt f000\n"


def test_text_rejects_tables_of_another_length():
    # table_to_hex writes max(1, 2**fanin / 4) digits; no other length parses
    assert table_to_hex(general_from_text(GENERAL_4 + "outputs 4 4 4 4\n").gates[0].table) == "f000"
    for tt, fanin, want in (("f", 4, 4), ("f0000", 4, 4), ("66", 2, 1), ("1", 3, 2)):
        with pytest.raises(ValueError, match=f"takes {want} hex digits, got {len(tt)}"):
            table_from_hex(tt, fanin)
    line = "gate 4: pred 0 1 2 3 ; tt f"
    with pytest.raises(ValueError, match=f"bad circuit line {line!r}: tt of fanin 4 takes 4 hex"):
        general_from_text(f"general v1\nn 4\n{line}\noutputs 4 4 4 4\n")
    with pytest.raises(ValueError, match="bad circuit line 'mid 0: in 0 1 ; tt 66'"):
        depth2_from_text("depth2 v1\nn 2 r 1\nmid 0: in 0 1 ; tt 66\n"
                         "out 0: mid 0 ; direct ; tt 2\nout 1: mid ; direct 1 ; tt 2\n")


def test_general_text_takes_one_exact_outputs_line():
    with pytest.raises(ValueError, match="bad circuit line 'outputsXYZ 4 4 4 4': unknown line kind"):
        general_from_text(GENERAL_4 + "outputsXYZ 4 4 4 4\n")
    with pytest.raises(ValueError, match="bad circuit line 'outputs 0 1 2 3': second outputs line"):
        general_from_text(GENERAL_4 + "outputs 4 4 4 4\noutputs 0 1 2 3\n")


def test_text_numbers_are_ascii_decimals_and_hex_digits():
    # int() takes other scripts' digits, underscores and signs; the formats do not
    six, two = "\u0666", "\u0662"  # Arabic-Indic digits
    for text, want in (
        (f"general v1\nn 2\ngate 2: pred 0 1 ; tt {six}\noutputs 2 2\n",
         f"bad circuit line 'gate 2: pred 0 1 ; tt {six}': invalid literal for int() with base 16: '{six}'"),
        ("general v1\nn 2\ngate 2: pred 1_0 ; tt 2\noutputs 2 2\n",
         "bad circuit line 'gate 2: pred 1_0 ; tt 2': expected a decimal number, got '1_0'"),
        (f"general v1\nn 2\ngate {two}: pred 0 ; tt 2\noutputs 2 2\n",
         f"bad circuit line 'gate {two}: pred 0 ; tt 2': expected a decimal number, got '{two}'"),
        (f"general v1\nn {two}\noutputs 0 1\n",
         f"bad size line 'n {two}': expected a decimal number, got '{two}'"),
        (f"depth2 v1\nn {two} r 0\nout 0: mid ; direct ; tt 0\nout 1: mid ; direct ; tt 0\n",
         f"bad size line 'n {two} r 0': expected a decimal number, got '{two}'"),
        ("depth2 v1\nn 1 r 0\nout 0: mid ; direct +0 ; tt 2\n",
         "bad circuit line 'out 0: mid ; direct +0 ; tt 2': expected a decimal number, got '+0'"),
        ("depth2 v1\nn 1 r\n", "bad size line 'n 1 r': expected 'n <n> r <r>'"),
    ):
        parse = general_from_text if text.startswith("general") else depth2_from_text
        with pytest.raises(ValueError) as err:
            parse(text)
        assert str(err.value) == want
    with pytest.raises(ValueError, match=f"bad matrix header '{two} 2': expected a decimal number"):
        gf2_from_text(f"{two} 2\n01\n10\n")


def test_parity_depth2_wires_match_adjacency_popcounts():
    from wirelab.generators import random_linear_circuit

    for seed in range(5):
        lin = random_linear_circuit(4, 6, 0.5, seed=seed)
        assert lin.to_depth2().wire_count() == lin.wire_count()


# --- model validation -------------------------------------------------------

def test_duplicate_wires_rejected_in_depth2():
    with pytest.raises(ValueError):
        MiddleGate((0, 0), TruthTable.parity(2))
    with pytest.raises(ValueError):
        OutputGate((1, 1), (), TruthTable.parity(2))


def test_general_circuit_allows_duplicate_preds():
    g = GeneralGate((0, 0), TruthTable.parity(2))
    c = GeneralCircuit(1, (g,), (1,))
    assert c.wire_count() == 2
    # x XOR x == 0
    assert c.eval(Gf2Vector(1, 1)) == Gf2Vector(1, 0)


def test_general_circuit_rejects_forward_edges():
    with pytest.raises(ValueError):
        GeneralCircuit(1, (GeneralGate((2,), TruthTable.identity()),), (1,))


def test_truth_table_bounds():
    with pytest.raises(ValueError):
        TruthTable(1, 4)
    with pytest.raises(ValueError):
        TruthTable(25, 0)  # above the fanin cap
