import random

import pytest

from wirelab import _kernels, cli, generators
from wirelab.circuit import collapse, is_linear_gate, operator_table_of_matrix
from wirelab.generators import (
    linear_middle_instance,
    linear_output_instance,
    random_depth2,
    random_general,
    random_matrix,
)
from wirelab.gf2 import Gf2Vector


def test_determinism_in_seed():
    assert random_matrix(5, 5, 0.5, seed=3) == random_matrix(5, 5, 0.5, seed=3)
    assert random_depth2(4, 4, 0.5, seed=3) == random_depth2(4, 4, 0.5, seed=3)
    assert linear_output_instance(4, 4, 0.5, seed=3) == linear_output_instance(4, 4, 0.5, seed=3)
    assert linear_middle_instance(4, 4, 0.5, seed=3) == linear_middle_instance(4, 4, 0.5, seed=3)
    assert random_matrix(5, 5, 0.5, seed=3) != random_matrix(5, 5, 0.5, seed=4)


def test_linear_output_family_postconditions():
    # every output gate linear, operator linear, checked by the checkers
    c, a = linear_output_instance(4, 5, 0.5, seed=12)
    assert all(is_linear_gate(o.table) is not None for o in c.outputs)
    assert collapse(c) == operator_table_of_matrix(a)


def test_linear_output_family_really_nonlinear_middle():
    nonlinear_seen = False
    for seed in range(10):
        c, _ = linear_output_instance(5, 5, 0.5, seed=seed)
        if any(is_linear_gate(m.table) is None for m in c.middle):
            nonlinear_seen = True
    assert nonlinear_seen


def test_linear_middle_family_postconditions():
    c, a = linear_middle_instance(4, 5, 0.5, seed=13)
    for m in c.middle:
        got = is_linear_gate(m.table)
        assert got == (tuple(range(len(m.inputs))), False)
    assert collapse(c) == operator_table_of_matrix(a)


def test_linear_middle_family_usually_nonlinear_outputs():
    nonlinear_seen = False
    for seed in range(10):
        c, _ = linear_middle_instance(5, 6, 0.5, seed=seed)
        if any(is_linear_gate(o.table) is None for o in c.outputs):
            nonlinear_seen = True
    assert nonlinear_seen


def test_density_zero_gives_zero_operator():
    c = random_depth2(4, 3, 0.0, seed=1)
    assert all(m.table.fanin == 0 for m in c.middle)
    t = collapse(c)
    assert all(t.value_at(x) == Gf2Vector(4, 0) for x in range(16))


def test_density_bounds_checked():
    with pytest.raises(ValueError):
        random_depth2(3, 3, 1.5, seed=0)
    with pytest.raises(ValueError):
        random_matrix(3, 3, -0.1, seed=0)


def test_random_general_over_fanin_injection():
    c = random_general(4, 6, seed=2, over_fanin_gates=2)
    assert sum(1 for g in c.gates if len(g.preds) > 4) >= 2


@pytest.mark.parametrize("family, n, r", [
    ("random", 30, 30),
    ("general", 30, 30),
    ("linear", 30, 30),
    ("linear-output", 30, 30),
    ("linear-middle", 30, 30),
    ("linear-middle", 24, 30),  # parity middle gates of fanin 24, outputs of fanin 30
])
def test_fanin_cap_is_checked_before_a_table_is_built(family, n, r, monkeypatch, capsys):
    # at density 1 some gate has fanin above 24: its table would take
    # 2**25 bits or more, so nothing of that size may be drawn or built
    real_getrandbits = random.Random.getrandbits
    real_parity_table = _kernels.parity_table

    def getrandbits(self, k):
        assert k <= 1 << 24, f"asked for {k} random bits"
        return real_getrandbits(self, k)

    def parity_table(fanin, mask, neg):
        assert fanin <= 24, f"parity table of fanin {fanin}"
        return real_parity_table(fanin, mask, neg)

    def column_span_points(m):
        raise AssertionError("2**fanin points built before the fanin check")

    monkeypatch.setattr(random.Random, "getrandbits", getrandbits)
    monkeypatch.setattr(_kernels, "parity_table", parity_table)
    monkeypatch.setattr(generators, "_column_span_points", column_span_points)
    argv = ["gen-circuit", "--family", family, "--n", str(n), "--r", str(r), "--density", "1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fanin must be in [0, 24]\n"
