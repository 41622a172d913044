import pytest

from wirelab.circuit import collapse, is_linear_gate, linear_operator
from wirelab.generators import (
    linear_middle_instance,
    linear_output_instance,
    random_depth2,
    random_general,
    random_linear_circuit,
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
    assert linear_operator(c) == a


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
    assert linear_operator(c) == a


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
    assert all(t.value_at(x) == Gf2Vector.zero(4) for x in range(16))


def test_density_bounds_checked():
    with pytest.raises(ValueError):
        random_depth2(3, 3, 1.5, seed=0)
    with pytest.raises(ValueError):
        random_matrix(3, 3, -0.1, seed=0)


def test_random_general_over_fanin_injection():
    c = random_general(4, 6, seed=2, over_fanin_gates=2)
    assert sum(1 for g in c.gates if len(g.preds) > 4) >= 2


def test_random_linear_circuit_negations():
    c = random_linear_circuit(5, 5, 0.5, seed=4, negation_density=1.0)
    assert c.negations.weight() == 5
    c0 = random_linear_circuit(5, 5, 0.5, seed=4)
    assert c0.negations.weight() == 0
