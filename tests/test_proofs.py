"""Each pass proves what it built, and a refusal names the right input.

``linearize`` (parity outputs) and ``encode`` (parity middle gates) compare
their own result with one sweep of the input.  On random instances of
both families, about half with one gate table swapped for a random one,
a pass must accept exactly the circuits that compute the matrix read off
their unit vectors, and otherwise raise NotLinearError at the lowest
input where the circuit differs from that matrix.  The oracle below reads
the matrix and the input point by point, independent of either pass.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from wirelab.circuit import NotLinearError, TruthTable, collapse
from wirelab.compress import decode_matrix, encode
from wirelab.generators import linear_middle_instance, linear_output_instance
from wirelab.transforms import linearize

INSTANCES = (
    st.integers(1, 7), st.integers(1, 8), st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(0, 2**16), st.booleans(),
)


def unit_vector_verdict(c) -> tuple[tuple[int, ...], int | None]:
    """Row words of the matrix whose column j is c(e_j), and the lowest x
    with c(x) != a*x (None when there is none)."""
    table = collapse(c)
    cols = [table.value_at(1 << j).bits for j in range(c.n)]
    rows = tuple(sum(((cols[j] >> i) & 1) << j for j in range(c.n)) for i in range(c.n))
    for x in range(1 << c.n):
        ax = 0
        for j in range(c.n):
            if (x >> j) & 1:
                ax ^= cols[j]
        if table.value_at(x).bits != ax:
            return rows, x
    return rows, None


def _swap_table(gates, rng: random.Random):
    """``gates`` with one gate's table replaced by a random one of its fanin."""
    k = rng.randrange(len(gates))
    fanin = gates[k].table.fanin
    table = TruthTable(fanin, rng.getrandbits(1 << fanin))
    return gates[:k] + (dataclasses.replace(gates[k], table=table),) + gates[k + 1:]


def _verdict_of(run, c):
    """(row words, None) of the matrix a pass proved, or (None, x) of its refusal."""
    try:
        return run(c), None
    except NotLinearError as e:
        return None, e.x


@settings(max_examples=150, deadline=None)
@given(*INSTANCES)
def test_linearize_refuses_at_the_lowest_unit_vector_counterexample(n, r, density, seed, swap):
    c, _ = linear_output_instance(n, r, density, seed)
    if swap:
        c = dataclasses.replace(c, middle=_swap_table(c.middle, random.Random(seed)))
    rows, x = unit_vector_verdict(c)
    got = _verdict_of(lambda c: linearize(c)[1].matrix.row_words, c)
    assert got == ((rows, None) if x is None else (None, x))


@settings(max_examples=150, deadline=None)
@given(*INSTANCES)
def test_encode_refuses_at_the_lowest_unit_vector_counterexample(n, r, density, seed, swap):
    c, _ = linear_middle_instance(n, r, density, seed)
    if swap:
        c = dataclasses.replace(c, outputs=_swap_table(c.outputs, random.Random(seed)))
    rows, x = unit_vector_verdict(c)
    got = _verdict_of(lambda c: decode_matrix(encode(c)).row_words, c)
    assert got == ((rows, None) if x is None else (None, x))
