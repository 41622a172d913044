import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matrix_lists, naive_rank, row_echelon_gauss_jordan, vector_text_per_coordinate
from wirelab.compress import OperatorEncoding, decode_matrix
from wirelab.suite import naive_matvec
from wirelab.generators import random_matrix
from wirelab.gf2 import (
    Gf2Matrix,
    Gf2Vector,
    NotInSpanError,
    echelon,
    first_basis_columns,
    from_text,
    matmul,
    matvec,
    solve_in_span,
    to_text,
)


def test_matvec_identity():
    m = Gf2Matrix.identity(4)
    v = Gf2Vector.from_coords([1, 0, 1, 1])
    assert matvec(m, v) == v


def _patterns(length: int) -> list[int]:
    """Bit patterns of one length: none, all, alternating, the top bit
    alone and a few seeded draws."""
    full = (1 << length) - 1
    rng = random.Random(length)
    return [0, full, 0x555555 & full, (1 << length) >> 1] + [rng.getrandbits(length) for _ in range(8)]


def test_vector_text_is_the_per_coordinate_text():
    for length in range(25):
        for bits in _patterns(length):
            v = Gf2Vector(length, bits)
            assert str(v) == vector_text_per_coordinate(v), (length, bits)


def test_matvec_zero_matrix():
    m = Gf2Matrix(3, 3, (0,) * 3)
    assert matvec(m, Gf2Vector.from_coords([1, 1, 0])) == Gf2Vector(3, 0)


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec(Gf2Matrix.identity(3), Gf2Vector(4, 0))


def test_matvec_exhaustive_against_double_loop():
    m = random_matrix(5, 5, 0.5, seed=1)
    rows = matrix_lists(m)
    for xb in range(32):
        v = Gf2Vector(5, xb)
        assert list(matvec(m, v).coords()) == naive_matvec(rows, list(v.coords()))


def test_rank_identity_and_zero():
    for m, rk in ((Gf2Matrix.identity(5), 5), (Gf2Matrix(4, 6, (0,) * 4), 0)):
        assert len(first_basis_columns(m)) == naive_rank(matrix_lists(m)) == rk


def test_rank_against_elimination_oracle():
    m = random_matrix(6, 8, 0.5, seed=2)
    assert len(first_basis_columns(m)) == naive_rank(matrix_lists(m))


def test_rank_empty_matrix():
    for m in (Gf2Matrix(0, 5, ()), Gf2Matrix(3, 0, (0, 0, 0)), Gf2Matrix(0, 4, ())):
        assert len(first_basis_columns(m)) == naive_rank(matrix_lists(m)) == 0


def test_first_basis_identity():
    assert first_basis_columns(Gf2Matrix.identity(3)) == [0, 1, 2]


def test_first_basis_duplicate_column_forced_out():
    # col0 == col1 != 0, col2 independent
    m = from_text("2 3\n110\n001\n")
    assert first_basis_columns(m) == [0, 2]


def test_first_basis_greedy_prefix_property():
    m = random_matrix(5, 7, 0.5, seed=3)
    chosen = first_basis_columns(m)
    assert len(chosen) == naive_rank(matrix_lists(m))
    cols = [list(m.column(j).coords()) for j in range(m.cols)]
    kept = []
    for j in range(m.cols):
        gained = naive_rank(kept + [cols[j]]) > naive_rank(kept)
        assert gained == (j in chosen)
        if gained:
            kept.append(cols[j])


def test_solve_in_span_unit_vectors():
    e1, e2 = Gf2Vector.unit(4, 0), Gf2Vector.unit(4, 1)
    assert solve_in_span([e1, e2], Gf2Vector(4, e1.bits ^ e2.bits)) == (1, 1)


def test_solve_in_span_zero_vector():
    basis = [Gf2Vector.unit(3, 0), Gf2Vector.unit(3, 2)]
    assert solve_in_span(basis, Gf2Vector(3, 0)) == (0, 0)


def test_solve_in_span_roundtrip_random():
    m = random_matrix(6, 6, 0.5, seed=4)
    basis = [m.column(j) for j in first_basis_columns(m)][:4]
    y = Gf2Vector(6, basis[0].bits ^ basis[2].bits)
    lam = solve_in_span(basis, y)
    back = 0
    for k, bit in enumerate(lam):
        if bit:
            back ^= basis[k].bits
    assert back == y.bits


def test_solve_in_span_rejects_outsiders():
    basis = [Gf2Vector.unit(3, 0)]
    with pytest.raises(NotInSpanError):
        solve_in_span(basis, Gf2Vector.unit(3, 1))


def test_solve_in_span_rejects_dependent_basis():
    v = Gf2Vector.from_coords([1, 1, 0])
    with pytest.raises(ValueError):
        solve_in_span([v, v], v)
    # so is a basis that holds the zero vector, though y is in its span
    with pytest.raises(ValueError, match="^basis vectors are not linearly independent$"):
        solve_in_span([Gf2Vector.unit(3, 0), Gf2Vector(3, 0)], Gf2Vector.unit(3, 0))


def test_matmul_against_entrywise():
    a = random_matrix(4, 5, 0.5, seed=7)
    b = random_matrix(5, 3, 0.5, seed=8)
    prod = matmul(a, b)
    al, bl, pl = matrix_lists(a), matrix_lists(b), matrix_lists(prod)
    for i in range(4):
        for j in range(3):
            want = sum(al[i][k] * bl[k][j] for k in range(5)) % 2
            assert pl[i][j] == want


def test_matrix_text_roundtrip():
    m = random_matrix(3, 4, 0.5, seed=9)
    text = to_text(m)
    assert text.splitlines()[0] == "3 4"
    assert from_text(text) == m


def test_matrix_text_rejects_bad_rows():
    with pytest.raises(ValueError):
        from_text("2 3\n010\n01\n")
    with pytest.raises(ValueError):
        from_text("1 3\n012\n")


@st.composite
def matrices(draw, max_dim=7):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    words = tuple(draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows))
    return Gf2Matrix(rows, cols, words)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_property_first_basis_size_is_rank(m):
    assert len(first_basis_columns(m)) == naive_rank(matrix_lists(m))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_property_matvec_is_linear(m, data):
    u = Gf2Vector(m.cols, data.draw(st.integers(0, (1 << m.cols) - 1)))
    v = Gf2Vector(m.cols, data.draw(st.integers(0, (1 << m.cols) - 1)))
    assert matvec(m, Gf2Vector(m.cols, u.bits ^ v.bits)).bits == matvec(m, u).bits ^ matvec(m, v).bits


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_property_solve_recombines_span_members(m, data):
    chosen = first_basis_columns(m)
    basis = [m.column(j) for j in chosen]
    coeffs = [data.draw(st.integers(0, 1)) for _ in basis]
    y = 0
    for k, bit in enumerate(coeffs):
        if bit:
            y ^= basis[k].bits
    if basis:
        lam = solve_in_span(basis, Gf2Vector(m.rows, y))
        assert list(lam) == coeffs  # unique under independence


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_property_echelon_keys_the_greedy_basis_on_rows_that_span(m):
    # the one elimination against list arithmetic: its keys are the greedy
    # first basis of the columns, no kept row has a bit below its key, and
    # the kept rows span every input row
    kept = echelon(m.row_words)
    cols: list[list[int]] = []
    greedy = []
    for j in range(m.cols):
        col = list(m.column(j).coords())
        if naive_rank(cols + [col]) > naive_rank(cols):
            cols.append(col)
            greedy.append(j)
    assert sorted(low.bit_length() - 1 for low in kept) == greedy
    rows = {low.bit_length() - 1: list(Gf2Vector(m.cols, w).coords()) for low, w in kept.items()}
    for key, row in rows.items():
        assert row[:key + 1] == [0] * key + [1]
    assert naive_rank(list(rows.values()) + matrix_lists(m)) == len(rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=10))), st.data())
def test_property_echelon_rows_fix_up_to_the_selected_reduced_rows(n_rows, data):
    # the one elimination keys the pivots of the reduced form Gauss-Jordan
    # gives, and the decoder's ascending fix-up over its rows equals the
    # XOR of the reduced rows the stored bits select
    n, rows = n_rows
    pivots, reduced = row_echelon_gauss_jordan(rows)
    kept = echelon(rows)
    assert sorted(kept) == [1 << p for p in pivots]
    assert all(w & -w == low for low, w in kept.items())
    stored = tuple(data.draw(st.integers(0, 1)) for _ in pivots)
    want = 0
    for w, bit in zip(reduced, stored):
        if bit:
            want ^= w
    # output 0 reads every row; the others read none
    enc = OperatorEncoding(n, len(rows), tuple(rows), ((1 << len(rows)) - 1,) + (0,) * (n - 1),
                           (stored,) + ((),) * (n - 1))
    assert decode_matrix(enc).row_words == (want,) + (0,) * (n - 1)
