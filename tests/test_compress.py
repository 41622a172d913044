import math
import random
import tracemalloc

import pytest
from oracles import decode_per_point, linear_circuit, ope1_stream

from wirelab import compress
from wirelab.circuit import (
    Depth2Circuit,
    LinearDepth2Circuit,
    MiddleGate,
    NotLinearError,
    OutputGate,
    TruthTable,
    collapse,
    operator_table_of_matrix,
)
from wirelab.compress import (
    CorruptEncodingError,
    EncodingFormatError,
    OperatorEncoding,
    bit_length,
    decode,
    decode_matrix,
    deserialize,
    encode,
    serialize,
)
from wirelab.generators import linear_middle_instance, random_matrix
from wirelab.gf2 import Gf2Matrix, Gf2Vector, echelon, matmul, matvec


def identity_depth2(n: int) -> Depth2Circuit:
    return linear_circuit(Gf2Matrix.identity(n)).to_depth2()


# --- encode ------------------------------------------------------------------

def test_encode_identity_circuit():
    enc = encode(identity_depth2(4))
    assert enc.b_rows == (1, 2, 4, 8)
    assert enc.c_rows == (1, 2, 4, 8)
    # each output sees one row; a single basis column whose value is A[i][i] = 1
    assert enc.basis_bits == ((1,), (1,), (1,), (1,))


def test_encode_zero_second_level():
    # outputs see nothing: t_i = 0 everywhere, basis bits empty
    mids = (MiddleGate((0,), TruthTable.identity()),)
    outs = tuple(OutputGate((), (), TruthTable.constant(0)) for _ in range(3))
    enc = encode(Depth2Circuit(3, mids, outs))
    assert enc.r == 0  # the unread middle gate is dropped
    assert enc.basis_bits == ((), (), ())
    assert decode_matrix(enc) == Gf2Matrix(3, 3, (0,) * 3)


def test_encode_rejects_direct_wires():
    c = Depth2Circuit(1, (), (OutputGate((), (0,), TruthTable.identity()),))
    with pytest.raises(ValueError, match="direct"):
        encode(c)


def test_encode_rejects_negated_or_partial_middle_parity():
    neg = Depth2Circuit(
        1,
        (MiddleGate((0,), TruthTable.parity(1, negated=True)),),
        (OutputGate((0,), (), TruthTable.parity(1, negated=True)),),
    )
    with pytest.raises(ValueError, match="middle gate 0"):
        encode(neg)
    lazy = Depth2Circuit(
        2,
        (MiddleGate((0, 1), TruthTable.parity(2, positions=[0])),),
        (OutputGate((0,), (), TruthTable.identity()), OutputGate((), (), TruthTable.constant(0))),
    )
    with pytest.raises(ValueError, match="middle gate 0"):
        encode(lazy)


def test_encode_rejects_nonlinear_operators():
    # parity middle gates but an AND output: not a matrix-vector product
    mids = (MiddleGate((0,), TruthTable.identity()), MiddleGate((1,), TruthTable.identity()))
    outs = (OutputGate((0, 1), (), TruthTable(2, 0b1000)), OutputGate((1,), (), TruthTable.identity()))
    with pytest.raises(ValueError, match="linear operator"):
        encode(Depth2Circuit(2, mids, outs))


def test_encode_rejects_nonzero_image_of_zero():
    # no middle gates; output 0 is the constant 1, so c(0) != 0
    outs = (OutputGate((), (), TruthTable.constant(1)), OutputGate((), (), TruthTable.constant(0)))
    with pytest.raises(NotLinearError) as err:
        encode(Depth2Circuit(2, (), outs))
    assert err.value.x == 0


def test_encode_proves_a_composition_is_its_product():
    c = LinearDepth2Circuit(
        random_matrix(4, 4, 0.5, seed=10),
        random_matrix(4, 4, 0.5, seed=11),
    )
    assert decode_matrix(encode(c.to_depth2())) == matmul(c.second_level, c.first_level)


def test_encode_proves_through_the_decoder(monkeypatch):
    # encode proves the matrix its certificate decodes to, so a decoder
    # fault fails the proof at the first input it shows on
    c, _ = linear_middle_instance(5, 6, 0.5, seed=3)
    encode(c)
    real = compress.decode_matrix

    def flipped(enc):
        rows = list(real(enc).row_words)
        rows[0] ^= 1  # A[0][0]
        return Gf2Matrix(enc.n, enc.n, tuple(rows))

    monkeypatch.setattr(compress, "decode_matrix", flipped)
    with pytest.raises(NotLinearError) as err:
        encode(c)
    assert err.value.x == 1


# --- decode ------------------------------------------------------------------

def test_decode_zero_input_gives_zero():
    c, _ = linear_middle_instance(5, 6, 0.5, seed=19)
    enc = encode(c)
    assert decode(enc, Gf2Vector(5, 0)) == Gf2Vector(5, 0)


def test_decode_unit_vectors_give_matrix_columns():
    c, a = linear_middle_instance(5, 6, 0.5, seed=19)
    enc = encode(c)
    for j in range(5):
        assert decode(enc, Gf2Vector.unit(5, j)) == a.column(j)
    assert decode_matrix(enc) == a
    assert collapse(c) == operator_table_of_matrix(a)


def test_decode_roundtrip_exhaustive():
    for seed in (19, 20, 21):
        c, _ = linear_middle_instance(5, 7, 0.5, seed=seed)
        enc = encode(c)
        table = collapse(c)
        for x in range(32):
            assert decode(enc, Gf2Vector(5, x)) == table.value_at(x)


def _oracle_encodings():
    """Seeded planted certificates plus the identity and an empty second level."""
    rng = random.Random(2024)
    for seed in range(60):
        n, r = rng.randint(1, 9), rng.randint(1, 12)
        c, a = linear_middle_instance(n, r, rng.uniform(0.2, 0.8), seed=seed)
        yield encode(c), a
    yield encode(identity_depth2(5)), Gf2Matrix.identity(5)
    mids = (MiddleGate((0, 2), TruthTable.parity(2)),)
    outs = tuple(OutputGate((), (), TruthTable.constant(0)) for _ in range(4))
    yield encode(Depth2Circuit(4, mids, outs)), Gf2Matrix(4, 4, (0,) * 4)


def test_decode_matches_per_point_oracle_on_every_input():
    cases = list(_oracle_encodings())
    assert len(cases) >= 52
    for enc, planted in cases:
        a = decode_matrix(enc)
        assert a == planted
        for x in range(1 << enc.n):
            v = Gf2Vector(enc.n, x)
            want = decode_per_point(enc, v)
            assert decode(enc, v) == want
            assert matvec(a, v) == want


def test_decode_rejects_bad_input_length():
    enc = encode(identity_depth2(3))
    with pytest.raises(ValueError, match="length"):
        decode(enc, Gf2Vector(4, 0))


def test_decode_detects_corrupted_basis_string():
    corrupted = (
        # output 0's wire pattern spans a 1-dimensional space but the
        # stream claims t_0 = 0; such a certificate cannot come from encode
        OperatorEncoding(n=2, r=1, b_rows=(0b01,), c_rows=(0b1, 0b0), basis_bits=((), ())),
        # output 1 reads two equal middle gates (rank 1) but stores two values
        OperatorEncoding(n=2, r=2, b_rows=(0b10, 0b10), c_rows=(0b00, 0b11), basis_bits=((), (1, 0))),
    )
    x = Gf2Vector.from_coords([1, 0])
    for enc in corrupted:
        with pytest.raises(CorruptEncodingError) as oracle_err:
            decode_per_point(enc, x)
        for fn in (lambda: decode(enc, x), lambda: decode_matrix(enc)):
            with pytest.raises(CorruptEncodingError) as err:
                fn()
            assert str(err.value) == str(oracle_err.value)


# --- sizes and serialization ---------------------------------------------------

def test_bit_length_header_only():
    # n = 1, one middle gate, no wires anywhere: nothing but the header fields
    c = Depth2Circuit(
        1,
        (MiddleGate((), TruthTable.parity(0)),),
        (OutputGate((), (), TruthTable.constant(0)),),
    )
    enc = encode(c)
    assert enc.wire_count() == 0
    assert bit_length(enc) == 96 + 16  # magic/counts plus one empty t_i field
    assert len(serialize(enc)) == (bit_length(enc) + 7) // 8


def test_bit_length_identity_against_byte_count():
    enc = encode(identity_depth2(4))
    w = enc.field_width()
    assert w == 3
    assert bit_length(enc) == 96 + 16 * 4 + 2 * w * 8 + 4
    assert len(serialize(enc)) == (bit_length(enc) + 7) // 8 == 27


def test_length_law_and_ratio_sweep():
    worst = 0.0
    for seed in range(60):
        n = 4 + seed % 5
        c, _ = linear_middle_instance(n, 2 + seed % 10, 0.5, seed=seed)
        enc = encode(c)
        w = enc.field_width()
        L = enc.wire_count()
        t_sum = sum(len(b) for b in enc.basis_bits)
        assert bit_length(enc) == 96 + 16 * n + 2 * L * w + t_sum
        assert t_sum <= sum(word.bit_count() for word in enc.c_rows) <= L
        if L:
            worst = max(worst, bit_length(enc) / (L * math.log2(n)))
    assert worst <= 25.0  # frozen from the sweep; certifies O(L log n) scaling


def test_serialize_roundtrip():
    for seed in (22, 23):
        c, _ = linear_middle_instance(6, 8, 0.5, seed=seed)
        enc = encode(c)
        data = serialize(enc)
        assert deserialize(data) == enc
        assert serialize(deserialize(data)) == data


def test_serialize_roundtrip_long_stream():
    # 8192 + 128 wires: a stream of about 16 KB
    n = r = 128
    b_rows = tuple((1 << n) - 1 if i < 64 else 0 for i in range(r))
    c_rows = tuple(1 << i for i in range(n))
    basis_bits = tuple((i & 1,) if i < 64 else () for i in range(n))
    enc = OperatorEncoding(n, r, b_rows, c_rows, basis_bits)
    data = serialize(enc)
    assert len(data) == (bit_length(enc) + 7) // 8
    assert deserialize(data) == enc


def test_deserialize_rejects_bad_magic():
    enc = encode(identity_depth2(3))
    data = bytearray(serialize(enc))
    data[0] ^= 0xFF
    with pytest.raises(EncodingFormatError) as err:
        deserialize(bytes(data))
    assert err.value.bit_offset == 0


def test_deserialize_rejects_truncation():
    data = serialize(encode(identity_depth2(3)))
    with pytest.raises(EncodingFormatError, match="truncated"):
        deserialize(data[:-2])


def test_deserialize_rejects_trailing_data():
    data = serialize(encode(identity_depth2(3)))
    with pytest.raises(EncodingFormatError, match="trailing"):
        deserialize(data + b"\x00")


def test_deserialize_offsets_inside_basis_bits_and_padding():
    # one output reading 20 middle gates: its 20 basis bits occupy bits
    # 312..331 of the stream, followed by 4 padding bits
    enc = OperatorEncoding(1, 20, (0,) * 20, ((1 << 20) - 1,), ((1, 0) * 10,))
    data = serialize(enc)
    assert bit_length(enc) == 332 and len(data) == 42
    with pytest.raises(EncodingFormatError, match="basis bit of output 0") as err:
        deserialize(data[:40])
    assert err.value.bit_offset == 320  # the first bit past the end, not the field start
    with pytest.raises(EncodingFormatError, match="nonzero padding") as err:
        deserialize(data[:-1] + bytes([data[-1] | 1]))
    assert err.value.bit_offset == 332


def test_deserialize_rejects_out_of_range_positions():
    enc = encode(identity_depth2(3))
    good = serialize(enc)
    # header is magic(32) n(16) r(16) |B|(16) = 80 bits; the first pair
    # is two 2-bit fields; force it to (3, 3), invalid for 3 rows
    assert enc.field_width() == 2
    bad = bytearray(good)
    bad[10] |= 0b11110000
    with pytest.raises(EncodingFormatError, match="out of range"):
        deserialize(bytes(bad))


def test_hand_written_stream_with_sorted_pairs_is_accepted():
    data = ope1_stream(2, 2, [(0, 1), (1, 0)], [(0, 0), (1, 0), (1, 1)], [(1,), (0, 1)])
    assert serialize(deserialize(data)) == data


# n = r = 2 gives 2-bit row and column fields: B's pairs start at bit 80,
# and after one B pair C's pairs start at bit 100
@pytest.mark.parametrize(
    "name, b_pairs, c_pairs, at",
    [
        ("B", [(0, 1), (0, 1)], [], 84),  # repeated
        ("B", [(1, 0), (0, 1)], [], 84),  # row-major order broken
        ("C", [(0, 0)], [(1, 0), (1, 0)], 104),
        ("C", [(0, 0)], [(1, 1), (0, 0)], 104),
    ],
)
def test_deserialize_rejects_repeated_or_unsorted_pairs(name, b_pairs, c_pairs, at):
    data = ope1_stream(2, 2, b_pairs, c_pairs, [(), ()])
    with pytest.raises(EncodingFormatError, match=f"^{name} positions out of order") as err:
        deserialize(data)
    assert err.value.bit_offset == at


# n = r = 4 gives 3-bit row and column fields: five B pairs start at bit
# 80 + 6k, and with no B pair, five C pairs start at bit 96 + 6k
PAIRS = [(0, 0), (0, 1), (1, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize(
    "b_pairs, c_pairs, keep, what, at",
    [
        (PAIRS, [], 11, "B row", 86),  # 88 bits: pair 1's row field ends at 89
        (PAIRS, [], 12, "B col", 95),  # 96 bits: pair 2's col field ends at 98
        ([], PAIRS, 13, "C row", 102),
        ([], PAIRS, 14, "C col", 111),
    ],
)
def test_deserialize_reports_a_pair_cut_short_at_its_truncated_field(b_pairs, c_pairs, keep, what, at):
    data = ope1_stream(4, 4, b_pairs, c_pairs, [()] * 4)
    assert serialize(deserialize(data)) == data
    with pytest.raises(EncodingFormatError) as err:
        deserialize(data[:keep])
    assert str(err.value) == f"stream truncated while reading {what} (at bit {at})"
    assert err.value.bit_offset == at


def test_deserialize_reports_an_overlong_basis_string_at_its_length_field():
    # output 1 reads one middle gate but stores two basis bits; its t_1
    # field starts at bit 129, after 128 bits of header, pairs and t_0
    data = ope1_stream(2, 1, [(0, 0), (0, 1)], [(0, 0), (1, 0)], [(1,), (0, 1)])
    with pytest.raises(EncodingFormatError, match="^output 1 stores more basis bits than wires") as err:
        deserialize(data)
    assert err.value.bit_offset == 129


def test_operator_encoding_validation():
    with pytest.raises(ValueError):
        OperatorEncoding(2, 1, (1 << 5,), (0, 0), ((), ()))  # column out of range
    with pytest.raises(ValueError):
        OperatorEncoding(2, 1, (), (0, 0), ((), ()))  # no row word for the middle gate
    with pytest.raises(ValueError):
        OperatorEncoding(2, 1, (0,), (0, 0), ((1,), ()))  # more basis bits than wires


# --- the subcube proof -------------------------------------------------------

def test_encode_proves_n20_without_a_2n_bit_vector():
    c, a = linear_middle_instance(20, 10, 0.5, seed=1)
    tracemalloc.start()
    try:
        enc = encode(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20) // 8
    assert decode_matrix(enc) == a


def test_a_decoder_fault_off_the_chosen_inputs_fails_part_b(monkeypatch):
    # flip A[i][j] for a column j that is not one of output i's chosen
    # inputs: the subcube sees no difference, the row-space test does
    c, _ = linear_middle_instance(6, 4, 0.5, seed=5)
    rows = [sum(1 << k for k in m.inputs) for m in c.middle]
    i, j = next(
        (i, j) for i, o in enumerate(c.outputs) for j in range(c.n)
        if 1 << j not in echelon(rows[t] for t in o.mids)
    )
    real = compress.decode_matrix

    def flipped(enc):
        words = list(real(enc).row_words)
        words[i] ^= 1 << j
        return Gf2Matrix(enc.n, enc.n, tuple(words))

    # what the sweep reports: the lowest input where c differs from the faulty matrix
    swept = operator_table_of_matrix(flipped(encode(c))).first_difference(collapse(c))
    proofs = []
    real_proof = compress._subcube_proof

    def subcube_proof(*args):
        proofs.append(real_proof(*args))
        return proofs[-1]

    monkeypatch.setattr(compress, "decode_matrix", flipped)
    monkeypatch.setattr(compress, "_subcube_proof", subcube_proof)
    with pytest.raises(NotLinearError) as err:
        encode(c)
    assert proofs == [False]
    assert err.value.x == swept == 1 << j
