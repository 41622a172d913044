"""Property tests for the parsers of untrusted input.

Circuit files, matrix files, truth-table hex and ``OPE1`` streams come
from outside the program.  On any mutation of a valid input a parser
either accepts it or raises a ``ValueError`` subclass (which the CLI
turns into exit code 2); an accepted stream is canonical, and generated
circuits, matrices and certificates round-trip.  ``serialize`` writes
the same bytes as the field-by-field writer of ``oracles``, and on a
mutated ``OPE1`` stream, and on every byte-length cut of a few streams,
``deserialize`` and the per-field reader of ``oracles`` return equal
encodings or raise the same error at the same bit offset.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import deserialize_per_field, ope1_stream

from wirelab.circuit import (
    TruthTable,
    depth2_from_text,
    depth2_to_text,
    general_from_text,
    general_to_text,
    table_from_hex,
    table_to_hex,
)
from wirelab.compress import OperatorEncoding, bit_length, deserialize, encode, serialize
from wirelab.generators import (
    linear_middle_instance,
    linear_output_instance,
    random_depth2,
    random_general,
    random_matrix,
)
from wirelab.gf2 import from_text, to_text

SEEDS = st.integers(0, 2**16)
DENSITIES = st.sampled_from([0.0, 0.3, 0.7])
# the formats' own characters, the signs and underscore int() would take,
# and non-ASCII digits, spaces and line breaks
ALPHABET = "0123456789abcdefABCDEF :;\n\t-+_xnrgiu" + "\u0662\u0666\u00b2\u00a0\u2028\x0b"

depth2_circuits = st.one_of(
    st.builds(random_depth2, st.integers(1, 5), st.integers(0, 4), DENSITIES, SEEDS),
    st.builds(lambda n, r, d, s: linear_output_instance(n, r, d, s)[0],
              st.integers(1, 5), st.integers(1, 4), DENSITIES, SEEDS),
)
general_circuits = st.builds(
    lambda n, g, s, over: random_general(n, g, seed=s, over_fanin_gates=min(over, g)),
    st.integers(1, 4), st.integers(1, 5), SEEDS, st.integers(0, 1),
)
matrices = st.builds(random_matrix, st.integers(1, 5), st.integers(1, 5), DENSITIES, SEEDS)


@st.composite
def encodings(draw):
    """Certificates drawn field by field, including r = 0 and empty levels."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    b_rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(r))
    c_rows = tuple(draw(st.integers(0, (1 << r) - 1)) for _ in range(n))
    basis = tuple(
        tuple(draw(st.lists(st.integers(0, 1), max_size=w.bit_count()))) for w in c_rows
    )
    return OperatorEncoding(n, r, b_rows, c_rows, basis)


certificates = st.one_of(
    encodings(),
    st.builds(lambda n, r, s: encode(linear_middle_instance(n, r, 0.5, s)[0]),
              st.integers(1, 6), st.integers(1, 6), SEEDS),
)


TEXT_EDITS = st.lists(
    st.tuples(st.sampled_from(["insert", "replace", "delete", "drop line", "repeat line"]),
              st.integers(0, 1 << 16), st.sampled_from(ALPHABET)),
    min_size=1, max_size=4,
)
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "set", "insert", "delete", "truncate"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=3,
)


def _edit_text(text: str, edits) -> str:
    for op, k, ch in edits:
        if op.endswith("line"):
            lines = text.split("\n")
            k %= len(lines)
            lines[k:k + 1] = [] if op == "drop line" else [lines[k]] * 2
            text = "\n".join(lines)
        else:
            k %= len(text) + 1
            text = text[:k] + ("" if op == "delete" else ch) + text[k + (op != "insert"):]
    return text


def _edit_bytes(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for op, k, value in edits:
        k %= len(data) + 1
        if op == "insert":
            data.insert(k, value)
        elif op == "truncate":
            del data[k:]
        elif k < len(data):
            if op == "flip":
                data[k] ^= 1 << (value & 7)
            elif op == "set":
                data[k] = value
            else:
                del data[k]
    return bytes(data)


def _parse_or_none(parse, text):
    """``parse(text)``, or None when it raises a ValueError; any other
    exception fails the test."""
    try:
        return parse(text)
    except ValueError:
        return None


@settings(max_examples=120, deadline=None)
@given(depth2_circuits, TEXT_EDITS)
def test_depth2_text_round_trips_and_mutations_raise_only_value_errors(c, edits):
    text = depth2_to_text(c)
    assert depth2_from_text(text) == c
    got = _parse_or_none(depth2_from_text, _edit_text(text, edits))
    if got is not None:
        assert depth2_from_text(depth2_to_text(got)) == got


@settings(max_examples=120, deadline=None)
@given(general_circuits, TEXT_EDITS)
def test_general_text_round_trips_and_mutations_raise_only_value_errors(g, edits):
    text = general_to_text(g)
    assert general_from_text(text) == g
    got = _parse_or_none(general_from_text, _edit_text(text, edits))
    if got is not None:
        assert general_from_text(general_to_text(got)) == got


@settings(max_examples=80, deadline=None)
@given(matrices, TEXT_EDITS)
def test_matrix_text_round_trips_and_mutations_raise_only_value_errors(m, edits):
    text = to_text(m)
    assert from_text(text) == m
    got = _parse_or_none(from_text, _edit_text(text, edits))
    if got is not None:
        assert from_text(to_text(got)) == got


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, (1 << 64) - 1), TEXT_EDITS)
def test_table_hex_round_trips_and_mutations_raise_only_value_errors(fanin, bits, edits):
    t = TruthTable(fanin, bits & ((1 << (1 << fanin)) - 1))
    text = table_to_hex(t)
    assert table_from_hex(text, fanin) == t
    mutated = _edit_text(text, edits)
    got = _parse_or_none(lambda s: table_from_hex(s, fanin), mutated)
    if got is not None:
        assert table_to_hex(got) == mutated.lower()


@settings(max_examples=150, deadline=None)
@given(certificates, BYTE_EDITS)
def test_certificate_stream_round_trips_and_accepts_only_canonical_streams(enc, edits):
    data = serialize(enc)
    assert len(data) == (bit_length(enc) + 7) // 8
    assert deserialize(data) == enc
    mutated = _edit_bytes(data, edits)
    got = _parse_or_none(deserialize, mutated)
    if got is not None:
        assert serialize(got) == mutated


def _positions(words, cols):
    """Row-major (row, col) positions of the 1-entries of row words."""
    return [(i, j) for i, word in enumerate(words) for j in range(cols) if word >> j & 1]


@settings(max_examples=150, deadline=None)
@given(encodings())
def test_serialize_writes_the_stream_the_field_by_field_writer_writes(enc):
    b_pairs = _positions(enc.b_rows, enc.n)
    c_pairs = _positions(enc.c_rows, enc.r)
    assert serialize(enc) == ope1_stream(enc.n, enc.r, b_pairs, c_pairs, enc.basis_bits)


def _outcome(parse, data):
    """``parse(data)``, or the type, message and bit offset of the
    ValueError it raises."""
    try:
        return parse(data)
    except ValueError as e:
        return type(e), str(e), getattr(e, "bit_offset", None)


@settings(max_examples=200, deadline=None)
@given(certificates, BYTE_EDITS)
def test_deserialize_and_the_per_field_reader_agree_on_mutated_streams(enc, edits):
    mutated = _edit_bytes(serialize(enc), edits)
    assert _outcome(deserialize, mutated) == _outcome(deserialize_per_field, mutated)


def _cut_certificates():
    """Certificates with basis runs of up to 10 bits, so that runs cross
    byte boundaries; the last is hand-built with one wide basis run."""
    encs = [encode(linear_middle_instance(n, r, 0.5, seed)[0])
            for n, r, seed in ((6, 4, 1), (8, 6, 2), (10, 8, 3), (12, 10, 4))]
    wide = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1)
    encs.append(OperatorEncoding(2, 12, (3,) * 11 + (1,), (0, (1 << 12) - 1), ((), wide)))
    return encs


def test_deserialize_and_the_per_field_reader_agree_on_every_cut_of_a_stream():
    """Byte-aligned edits seldom cut a stream inside a basis run of a few
    bits, so every byte length of a few streams is tried."""
    inside_basis_runs = 0
    for enc in _cut_certificates():
        data = serialize(enc)
        for cut in range(len(data) + 1):
            got = _outcome(deserialize, data[:cut])
            assert got == _outcome(deserialize_per_field, data[:cut]), (enc, cut)
            inside_basis_runs += "while reading basis bit" in str(got)
    # cuts at or inside a basis run; one inside is reported at the first bit past the end
    assert inside_basis_runs >= 10
