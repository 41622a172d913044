"""Exact integer evaluation of wire-counting bounds.

``log2_count_upper`` bounds (in the exponent) how many distinct
n-operators circuits with at most L wires can realize: with at most
m = 2n^2 gates of fanins d_1..d_m summing to at most L, there are at
most (n+1)^m fanin sequences, m^{d_i} wire choices and 2^{2^{d_i}} gate
functions per gate, and at most floor(n/2) gates can have fanin above
2L/n.  The gate cap m is fixed (the golden table's header states it).
Every fractional quantity is rounded up, which only loosens the upper
bound, so all arithmetic stays in exact integers.

``min_wires_lower_bound`` extracts the largest L whose bound still falls
short of the n * 2^n bits needed to name every operator: some operator
then needs more than L wires.

``linear_circuit_lower_bound`` plays the same game against the 2^{n^2}
matrices, over-counting depth-2 all-parity circuits with at most L wires
by

    count(L) = L * C(2*n*L, L) * 2^(n + L)

(for each middle-layer size r <= L: at most C(2nr, L) <= C(2nL, L) ways
to place L wires among the nr + nr = 2nr slots).  All-parity circuits
compute x -> Ax and carry no negations, so the factor 2^(n+L) counts
nothing real; it is kept as an over-count, which only loosens the upper
bound, and the golden table depends on it.  The largest L with
count(L) < 2^{n^2} then certifies that some matrix needs more than L
wires, and grows like n^2 / log n.

Both thresholds come from one bisection, ``_last_true``.  Evaluating
count(L) exactly costs a binomial with L factors, so
``linear_circuit_lower_bound`` starts from a floating-point estimate
instead: a bisection of log2 count(L) computed with ``math.lgamma``.
From there it steps one wire at a time in exact integers until
count(L) < 2^{n^2} <= count(L+1) holds.  A guess off by d costs d + 2
exact counts; the ``lgamma`` start is exact at every tabulated n, so
the table pays three.  The answer is decided by exact comparisons and
does not depend on the estimate.
"""

from __future__ import annotations

from math import comb, lgamma, log, log2

# Observed range of linear_circuit_lower_bound(n) * log2(n) / n^2 on
# powers of two n in [16, 256]; frozen so sweeps can assert the
# n^2/log n shape against a fixed interval.
LINEAR_RATIO_INTERVAL = (0.45, 0.80)


def _ceil_log2(v: int) -> int:
    if v < 1:
        raise ValueError("log of non-positive value")
    return (v - 1).bit_length()


def log2_num_operators(n: int) -> int:
    """log2 of the number of maps {0,1}^n -> {0,1}^n, i.e. n * 2^n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n << n


def log2_count_upper(n: int, wires: int) -> int:
    """Integer U with log2(#operators computable with <= wires wires) <= U,
    counting circuits of at most m = 2n^2 gates."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= wires <= n * n:
        raise ValueError("wire count must lie in [0, n^2]")
    m = 2 * n * n
    heavy = n // 2  # gates allowed fanin above 2*wires/n
    fanin_cap_exp = -(-2 * wires // n)  # ceil(2L/n)
    return (
        m * _ceil_log2(n + 1)
        + wires * _ceil_log2(m)
        + (m - heavy) * (1 << fanin_cap_exp)
        + ((n + 1) // 2) * (1 << n)
    )


def min_wires_lower_bound(n: int) -> int:
    """Largest L whose counting bound stays below n * 2^n.

    Circuits with that many wires cannot realize all n-operators, so
    some operator needs more than L wires.  The bound is nondecreasing
    in L, making binary search valid; returns 0 when even L = 0 fails.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    target = log2_num_operators(n)
    if log2_count_upper(n, 0) >= target:
        return 0
    return _last_true(lambda wires: log2_count_upper(n, wires) < target, 0, n * n)


def _last_true(pred, lo: int, hi: int) -> int:
    """Largest L in [lo, hi] with ``pred(L)``, for ``pred`` true at ``lo``
    and monotone (true, then false) on [lo, hi]."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def linear_circuit_count(n: int, wires: int) -> int:
    """Over-count of depth-2 all-parity circuits with at most ``wires`` wires."""
    if wires < 1:
        raise ValueError("wire count must be at least 1")
    return wires * comb(2 * n * wires, wires) * (1 << (n + wires))


def linear_circuit_lower_bound(n: int) -> int:
    """Largest L with fewer than 2^{n^2} all-parity circuits of <= L wires.

    Some n-by-n matrix then has no all-parity depth-2 circuit with L
    wires; the value grows like n^2 / log n.  A floating-point estimate
    only says where to start; exact integers decide the answer.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if linear_circuit_count(n, 1) >= 1 << (n * n):
        return 0
    estimate = _last_true(lambda wires: _log2_linear_count(n, wires) < n * n, 1, n * n)
    return _linear_threshold_from(n, estimate)


def _log2_linear_count(n: int, wires: int) -> float:
    """log2 of ``linear_circuit_count(n, wires)`` in floating point."""
    a = 2 * n * wires
    log_comb = lgamma(a + 1) - lgamma(wires + 1) - lgamma(a - wires + 1)
    return log2(wires) + log_comb / log(2) + n + wires


def _linear_threshold_from(n: int, guess: int) -> int:
    """The exact threshold L (count(L) < 2^{n^2} <= count(L+1), or L = n^2),
    found by stepping one wire at a time from ``guess``, with every
    comparison in exact integers.  Requires count(1) < 2^{n^2}.

    The count grows with L, so the answer does not depend on ``guess``;
    a guess off by d costs d + 2 counts.
    """
    target = 1 << (n * n)
    top = n * n

    def below(wires: int) -> bool:
        return linear_circuit_count(n, wires) < target

    wires = min(max(guess, 1), top)
    while wires > 1 and not below(wires):
        wires -= 1
    while wires < top and below(wires + 1):
        wires += 1
    return wires


DEFAULT_TABLE_NS = (8, 16, 32, 64, 128, 256)


def _ratio_millionths(num: int, den: int) -> str:
    v = num * 10**6 // den
    return f"{v // 10**6}.{v % 10**6:06d}"


def bounds_rows() -> tuple[tuple[int, int, int], ...]:
    """The table's rows ``(n, L_star_general, L_star_linear)``, one per n
    in ``DEFAULT_TABLE_NS``."""
    return tuple((n, min_wires_lower_bound(n), linear_circuit_lower_bound(n)) for n in DEFAULT_TABLE_NS)


def bounds_table() -> str:
    """Fixed-format table of ``bounds_rows()``.

    ``ratio`` is L_star_linear * log2(n) / n^2 (printed with six exact
    decimals; each tabulated n is a power of two).  The output is
    byte-stable: every call gives the same text.
    """
    lines = [
        "# wire lower bounds from exact counting",
        "# L_star_general: largest L with"
        " m*ceil(log2(n+1)) + L*ceil(log2(m)) + (m-floor(n/2))*2^ceil(2L/n)"
        " + ceil(n/2)*2^n < n*2^n, m = 2n^2",
        "# L_star_linear: largest L with L * C(2nL, L) * 2^(n+L) < 2^(n^2)",
        "# ratio = L_star_linear * log2(n) / n^2",
        "n L_star_general L_star_linear n^2 ratio",
    ]
    for n, general, linear in bounds_rows():
        k = n.bit_length() - 1
        lines.append(
            f"{n} {general} {linear} {n * n} {_ratio_millionths(linear * k, n * n)}"
        )
    return "\n".join(lines) + "\n"
