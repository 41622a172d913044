import math
from itertools import combinations, product
from pathlib import Path

import pytest

from wirelab import bounds
from wirelab.bounds import (
    DEFAULT_TABLE_NS,
    LINEAR_RATIO_INTERVAL,
    _linear_threshold_from,
    bounds_table,
    linear_circuit_count,
    linear_circuit_lower_bound,
    log2_count_upper,
    log2_num_operators,
    min_wires_lower_bound,
)

GOLDEN = Path(__file__).parent / "data" / "bounds_table.golden"


# --- independent evaluation path: naive ceil-log2, restructured formula,
# --- linear scan, and factorial-based binomials

def clog2_naive(v: int) -> int:
    k = 0
    while (1 << k) < v:
        k += 1
    return k


def upper_naive(n: int, wires: int) -> int:
    m = 2 * n * n
    e = (2 * wires + n - 1) // n
    return (
        m * clog2_naive(n + 1)
        + wires * clog2_naive(m)
        + (m - n // 2) * 2**e
        + ((n + 1) // 2) * 2**n
    )


def general_bound_by_scan(n: int) -> int:
    target = n * 2**n
    if upper_naive(n, 0) >= target:
        return 0
    wires = 0
    while wires < n * n and upper_naive(n, wires + 1) < target:
        wires += 1
    return wires


def comb_by_factorials(a: int, k: int) -> int:
    num = 1
    for i in range(k):
        num *= a - i
    return num // math.factorial(k)


def linear_count_naive(n: int, wires: int) -> int:
    return wires * comb_by_factorials(2 * n * wires, wires) * 2 ** (n + wires)


def min_parity_wires(n: int) -> dict[tuple[int, ...], int]:
    """Fewest wires of a depth-2 all-parity circuit for each n-by-n matrix
    it can compute, by enumeration: every middle set of distinct nonzero
    rows, each output wired to a smallest subset XORing to its row."""
    best: dict[tuple[int, ...], int] = {}
    nonzero = range(1, 1 << n)
    for r in range(len(nonzero) + 1):
        for mids in combinations(nonzero, r):
            cheapest: dict[int, int] = {}  # row -> fewest middle gates XORing to it
            for size in range(r + 1):
                for subset in combinations(mids, size):
                    row = 0
                    for g in subset:
                        row ^= g
                    cheapest.setdefault(row, size)
            first_level = sum(g.bit_count() for g in mids)
            for rows in product(cheapest, repeat=n):
                wires = first_level + sum(cheapest[row] for row in rows)
                if wires < best.get(rows, wires + 1):
                    best[rows] = wires
    return best


# --- log2_num_operators ------------------------------------------------------

def test_num_operators_small_values():
    assert log2_num_operators(1) == 2
    assert log2_num_operators(2) == 8
    assert log2_num_operators(10) == 10240


# --- log2_count_upper --------------------------------------------------------

def test_count_upper_at_zero_wires():
    for n in (2, 4, 9):
        m = 2 * n * n
        want = m * clog2_naive(n + 1) + (m - n // 2) + ((n + 1) // 2) * 2**n
        assert log2_count_upper(n, 0) == want


def test_count_upper_matches_independent_formula():
    assert log2_count_upper(4, 16) == upper_naive(4, 16)
    for n in (3, 5, 8, 13):
        for wires in (0, 1, n, n * n // 2, n * n):
            assert log2_count_upper(n, wires) == upper_naive(n, wires)


def test_count_upper_rejects_excess_wires():
    with pytest.raises(ValueError):
        log2_count_upper(4, 17)


def test_count_upper_monotone_in_wires():
    for n in range(2, 17):
        prev = -1
        for wires in range(n * n + 1):
            cur = log2_count_upper(n, wires)
            assert cur >= prev
            prev = cur


# --- min_wires_lower_bound ----------------------------------------------------

def test_general_bound_below_square():
    for n in (8, 16, 32, 64, 128):
        assert min_wires_lower_bound(n) <= n * n


def test_general_bound_growth():
    values = {n: min_wires_lower_bound(n) for n in (8, 16, 32, 64, 128)}
    for n in (8, 16, 32, 64):
        assert values[2 * n] >= 2 * values[n]


def test_general_bound_matches_independent_scan():
    for n in (8, 16, 32, 64, 128):
        assert min_wires_lower_bound(n) == general_bound_by_scan(n)


def test_general_bound_is_the_threshold():
    for n in (8, 16, 32):
        best = min_wires_lower_bound(n)
        target = n * 2**n
        assert log2_count_upper(n, best) < target
        if best < n * n:
            assert log2_count_upper(n, best + 1) >= target


# --- linear_circuit_lower_bound -------------------------------------------------

def test_linear_bound_trivial_range():
    for n in (3, 4, 16, 64):
        got = linear_circuit_lower_bound(n)
        assert 1 <= got <= n * n


def test_linear_bound_boundary_certified_by_factorials():
    for n in (*range(2, 129), 256):
        best = linear_circuit_lower_bound(n)
        target = 2 ** (n * n)
        assert linear_count_naive(n, best) < target
        assert best == n * n or linear_count_naive(n, best + 1) >= target


def test_linear_bound_fixup_ignores_the_starting_guess():
    # the float estimate only picks where the exact search starts
    for n in (16, 37, 64, 256):
        want = linear_circuit_lower_bound(n)
        for guess in (want - 50, want - 1, want, want + 1, want + 50):
            assert _linear_threshold_from(n, guess) == want


def test_linear_bound_makes_three_exact_counts_per_table_row(monkeypatch):
    # an exact lgamma start costs count(1), count(L) and count(L+1); a
    # drifting start stays correct but pays one count per wire it is off
    calls = []

    def counting(n, wires):
        calls.append(wires)
        return linear_circuit_count(n, wires)

    monkeypatch.setattr(bounds, "linear_circuit_count", counting)
    for n in DEFAULT_TABLE_NS:
        calls.clear()
        bounds.linear_circuit_lower_bound(n)
        assert len(calls) == 3, (n, calls)


def test_linear_count_covers_enumerated_circuits():
    for n, worst, l_star in ((2, 5, 0), (3, 9, 1)):
        best = min_parity_wires(n)
        assert len(best) == 1 << (n * n)
        for wires in range(1, 13):
            within = sum(1 for w in best.values() if w <= wires)
            assert within <= linear_circuit_count(n, wires), (n, wires)
        assert max(best.values()) == worst
        assert linear_circuit_lower_bound(n) == l_star < worst


def test_linear_count_monotone_samples():
    for n in (16, 64):
        for wires in (1, 5, 50, n * n // 2):
            assert linear_circuit_count(n, wires) <= linear_circuit_count(n, wires + 1)


def test_linear_bound_ratio_interval():
    lo, hi = LINEAR_RATIO_INTERVAL
    for n in (16, 32, 64, 128, 256):
        k = n.bit_length() - 1
        ratio = linear_circuit_lower_bound(n) * k / (n * n)
        assert lo <= ratio <= hi


# --- table and golden file -----------------------------------------------------

def test_table_matches_golden_file():
    assert bounds_table() == GOLDEN.read_text()


def test_golden_values_regenerated_independently():
    rows = [
        line.split()
        for line in GOLDEN.read_text().splitlines()
        if line and not line.startswith("#") and line[0].isdigit()
    ]
    assert [int(r[0]) for r in rows] == [8, 16, 32, 64, 128, 256]
    for n_s, general_s, linear_s, square_s, ratio_s in rows:
        n, general, linear = int(n_s), int(general_s), int(linear_s)
        assert int(square_s) == n * n
        assert general == general_bound_by_scan(n)
        target = 2 ** (n * n)
        assert linear_count_naive(n, linear) < target
        assert linear == n * n or linear_count_naive(n, linear + 1) >= target
        k = n.bit_length() - 1
        millionths = linear * k * 10**6 // (n * n)
        assert ratio_s == f"{millionths // 10**6}.{millionths % 10**6:06d}"


def test_params_validation():
    with pytest.raises(ValueError):
        log2_count_upper(0, 0)
    with pytest.raises(ValueError):
        min_wires_lower_bound(1)
    with pytest.raises(ValueError):
        linear_circuit_lower_bound(1)
