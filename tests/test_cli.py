import dataclasses
from pathlib import Path

import pytest

from oracles import eval_depth2, linear_circuit, ope1_stream
from wirelab import _kernels, circuit, cli, suite
from wirelab.circuit import (
    Depth2Circuit,
    GeneralCircuit,
    GeneralGate,
    TruthTable,
    depth2_from_text,
    depth2_to_text,
    general_from_text,
    general_to_text,
)
from wirelab.compress import deserialize
from wirelab.generators import linear_output_instance, random_matrix
from wirelab.gf2 import Gf2Matrix, Gf2Vector, from_text, to_text
from wirelab.transforms import linearize


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_matrix_roundtrips(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, _ = run(capsys, "gen-matrix", "--n", "4", "--r", "6", "--seed", "5", "--out", str(path))
    assert code == 0
    m = from_text(path.read_text())
    assert (m.rows, m.cols) == (4, 6)


def test_gen_circuit_families(tmp_path, capsys):
    for family in ("random", "linear", "linear-output", "linear-middle"):
        path = tmp_path / f"{family}.ckt"
        code, _ = run(
            capsys, "gen-circuit", "--family", family, "--n", "4", "--r", "5",
            "--seed", "3", "--out", str(path),
        )
        assert code == 0
        depth2_from_text(path.read_text())
    gpath = tmp_path / "g.ckt"
    code, _ = run(capsys, "gen-circuit", "--family", "general", "--n", "4", "--r", "5",
                  "--seed", "3", "--out", str(gpath))
    assert code == 0
    general_from_text(gpath.read_text())


@pytest.mark.parametrize("family", ["random", "linear", "general"])
def test_matrix_out_without_a_planted_matrix_is_refused_before_any_write(tmp_path, capsys, family):
    code = cli.main(["gen-circuit", "--family", family, "--n", "3", "--out", str(tmp_path / "c.ckt"),
                     "--matrix-out", str(tmp_path / "m.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", "error: --matrix-out needs a planted family\n")
    assert list(tmp_path.iterdir()) == []


def test_eval_command(tmp_path, capsys):
    path = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear", "--n", "3", "--seed", "1", "--out", str(path))
    code, out = run(capsys, "eval", "--in", str(path), "--x", "101")
    assert code == 0
    assert out.startswith("y=") and len(out.strip()) == 5


def test_eval_header_only_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "g.ckt"
    path.write_text("general v1\n")
    code = cli.main(["eval", "--in", str(path), "--x", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "missing size line" in err and "Traceback" not in err


def test_non_ascii_numbers_are_usage_errors_naming_the_line(tmp_path, capsys):
    two = "\u0662"  # Arabic-Indic digit two, which int() reads as 2
    ckt, mat = tmp_path / "c.ckt", tmp_path / "a.txt"
    ckt.write_text(f"general v1\nn {two}\ngate 2: pred 0 1 ; tt 6\noutputs 2 2\n", encoding="utf-8")
    assert cli.main(["eval", "--in", str(ckt), "--x", "10"]) == 2
    assert capsys.readouterr().err == f"error: {ckt}: bad size line 'n {two}': expected a decimal number, got '{two}'\n"
    run(capsys, "gen-circuit", "--family", "linear", "--n", "2", "--seed", "1", "--out", str(ckt))
    mat.write_text(f"{two} 2\n01\n10\n", encoding="utf-8")
    assert cli.main(["verify-weak", "--in", str(ckt), "--matrix", str(mat)]) == 2
    assert f"error: {mat}: bad matrix header '{two} 2'" in capsys.readouterr().err


def test_missing_input_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.ckt"
    for argv in (
        ["eval", "--in", str(missing), "--x", "1"],
        ["decode", "--in", str(missing), "--x", "1"],
        ["verify-equiv", str(missing), str(missing)],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and str(missing) in err


def test_corrupt_certificate_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    ope = tmp_path / "c.ope"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "4", "--seed", "9",
        "--out", str(src))
    run(capsys, "encode", "--in", str(src), "--out", str(ope))
    good = ope.read_bytes()
    for bad, message in ((b"X" + good[1:], "bad magic"), (good[:-2], "truncated")):
        ope.write_bytes(bad)
        assert cli.main(["decode", "--in", str(ope), "--x", "0000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "(at bit " in err


def test_certificate_without_its_basis_values_is_a_usage_error_naming_the_file(tmp_path, capsys):
    # a well-formed stream whose output 0 reads a rank-1 pattern but stores nothing
    ope = tmp_path / "bad.ope"
    ope.write_bytes(ope1_stream(2, 1, [(0, 0), (0, 1)], [(0, 0), (1, 0)], [(), (1,)]))
    assert cli.main(["decode", "--in", str(ope), "--x", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ope}: output 0 stores 0 basis values, but its wire pattern has rank 1\n"


def test_bad_input_vector_and_matrix_are_usage_errors(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    mat = tmp_path / "a.txt"
    run(capsys, "gen-circuit", "--family", "linear", "--n", "3", "--seed", "1", "--out", str(src))
    assert cli.main(["eval", "--in", str(src), "--x", "10"]) == 2
    assert "--x must be 3 characters" in capsys.readouterr().err
    mat.write_text("3 3\n101\n01\n")
    assert cli.main(["verify-weak", "--in", str(src), "--matrix", str(mat)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    mat.write_text(to_text(Gf2Matrix.identity(2)))
    assert cli.main(["verify-weak", "--in", str(src), "--matrix", str(mat)]) == 2
    assert capsys.readouterr().err == f"error: {mat}: matrix must be 3-by-3, got 2-by-2\n"


def test_malformed_circuit_lines_are_usage_errors(tmp_path, capsys):
    src = tmp_path / "g.ckt"
    head = "general v1\nn 4\ngate 4: pred 0 1 2 3 ; tt "
    for body, line in (
        ("f\noutputs 4 4 4 4\n", "gate 4: pred 0 1 2 3 ; tt f"),
        ("f000\noutputsXYZ 4 4 4 4\n", "outputsXYZ 4 4 4 4"),
        ("f000\noutputs 4 4 4 4\noutputs 0 1 2 3\n", "outputs 0 1 2 3"),
    ):
        src.write_text(head + body)
        assert cli.main(["eval", "--in", str(src), "--x", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {src}: bad circuit line {line!r}: ")


def test_depth2_wiring_errors_name_the_gate(tmp_path, capsys):
    src = tmp_path / "a.ckt"
    for body, message in (
        ("mid 0: in 0 5 ; tt 6\nout 0: mid ; direct ; tt 0\nout 1: mid ; direct ; tt 0\n",
         "middle gate 0 wired to missing input 5"),
        ("mid 0: in 0 ; tt 2\nout 0: mid ; direct ; tt 0\nout 1: mid 3 ; direct ; tt 2\n",
         "output 1 wired to missing middle gate 3"),
        ("mid 0: in 0 ; tt 2\nout 0: mid ; direct 1 7 ; tt 6\nout 1: mid ; direct ; tt 0\n",
         "output 0 wired to missing input 7"),
    ):
        src.write_text("depth2 v1\nn 2 r 1\n" + body)
        assert cli.main(["eval", "--in", str(src), "--x", "10"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {src}: {message}\n")


@pytest.mark.parametrize("family, command", [
    ("linear-output", "linearize"), ("linear-middle", "encode"), ("general", "cap-fanin"),
])
def test_a_refused_out_write_prints_no_report(tmp_path, capsys, family, command):
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", family, "--n", "4", "--seed", "7", "--out", str(src))
    out = tmp_path / "missing" / "x.out"
    code = cli.main([command, "--in", str(src), "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and str(out) in captured.err


def test_bad_generator_arguments_are_usage_errors(capsys):
    for argv, message in (
        (["gen-matrix", "--n", "3", "--density", "2"], "density must lie in [0, 1]"),
        (["gen-matrix", "--n", "3", "--r", "0"], "--n and --r must be at least 1"),
        (["gen-matrix", "--n", "0"], "--n and --r must be at least 1"),
        (["gen-matrix", "--n", "0", "--r", "3"], "--n and --r must be at least 1"),
        (["gen-circuit", "--n", "0"], "need at least one input"),
        (["gen-circuit", "--family", "general", "--n", "3", "--r", "0"], "need at least one gate"),
        (["gen-circuit", "--family", "random", "--n", "3", "--r", "-2"], "middle gate count must be non-negative"),
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, option", [
    (["gen-matrix", "--n", "٤"], "--n"),  # Arabic-Indic four, which int() reads
    (["gen-matrix", "--n", "4", "--r", "1_0"], "--r"),
    (["gen-matrix", "--n", "4", "--seed", "٣"], "--seed"),
    (["gen-matrix", "--n", "+4"], "--n"),
    (["gen-matrix", "--n", " 4"], "--n"),
    (["gen-matrix", "--n", "4", "--density", "٠.٥"], "--density"),
    (["gen-matrix", "--n", "4", "--density", "1e-1"], "--density"),
    (["gen-matrix", "--n", "4", "--density", "0.5.0"], "--density"),
    (["gen-matrix", "--n", "4", "--density", "nan"], "--density"),
    (["gen-circuit", "--n", "4", "--density", "-0.5"], "--density"),
    (["suite", "--trials", "٤"], "--trials"),
    (["suite", "--n-max", "８"], "--n-max"),  # fullwidth eight
])
def test_numeric_options_take_ascii_digits_only(capsys, argv, option):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: expected a decimal " in captured.err


def test_numeric_options_keep_ascii_values(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, _ = run(capsys, "gen-matrix", "--n", "4", "--r", "06", "--density", ".25",
                  "--seed", "-2", "--out", str(path))
    assert code == 0
    assert from_text(path.read_text()) == random_matrix(4, 6, 0.25, -2)


def test_encode_of_a_non_parity_middle_layer_is_a_usage_error(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear-output", "--n", "5", "--seed", "7",
        "--out", str(src))
    assert cli.main(["encode", "--in", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {src}: middle gate ")
    assert captured.err.endswith(" is not the pure parity of its wires\n")


def test_a_circuit_of_the_wrong_kind_is_refused_with_its_file_named(tmp_path, capsys):
    general, depth2 = tmp_path / "g.ckt", tmp_path / "d.ckt"
    run(capsys, "gen-circuit", "--family", "general", "--n", "3", "--out", str(general))
    run(capsys, "gen-circuit", "--family", "linear", "--n", "3", "--out", str(depth2))
    for command, src, kind in (
        ("linearize", general, "a depth-2"), ("encode", general, "a depth-2"),
        ("cap-fanin", depth2, "a general"),
    ):
        assert cli.main([command, "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {src}: {command} expects {kind} circuit\n")


def test_linearize_report_and_verify(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    lin = tmp_path / "lin.ckt"
    run(capsys, "gen-circuit", "--family", "linear-output", "--n", "5", "--r", "6",
        "--seed", "7", "--out", str(src))
    code, out = run(capsys, "linearize", "--in", str(src), "--out", str(lin))
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert report["ok"] == "true"
    assert int(report["budget"]) == 10
    assert int(report["wires_after"]) <= int(report["wires_before"]) + 10
    code, out = run(capsys, "verify-equiv", str(src), str(lin))
    assert code == 0 and "equivalent=true" in out


def _complement_a_read_middle_gate(path):
    # an output parity uses the gate, so the output is no longer 0 at x = 0
    c = depth2_from_text(path.read_text())
    o = next(o for o in c.outputs if circuit.is_linear_gate(o.table)[0])
    j = o.mids[circuit.is_linear_gate(o.table)[0][0]]
    m = dataclasses.replace(c.middle[j], table=c.middle[j].table.complement())
    path.write_text(depth2_to_text(dataclasses.replace(c, middle=c.middle[:j] + (m,) + c.middle[j + 1:])))


def _complement_output_gate_0(path):
    c = depth2_from_text(path.read_text())
    o = dataclasses.replace(c.outputs[0], table=c.outputs[0].table.complement())
    path.write_text(depth2_to_text(dataclasses.replace(c, outputs=(o,) + c.outputs[1:])))


def _count_sweeps(monkeypatch):
    swept = []
    for name in ("output_vectors_depth2", "node_vectors_general"):
        def counted(n, *rest, fn=getattr(_kernels, name), **kwargs):
            swept.append(n)
            return fn(n, *rest, **kwargs)
        monkeypatch.setattr(_kernels, name, counted)
    return swept


def _count_operator_tables(monkeypatch):
    built = []
    real = circuit.operator_table_of_matrix

    def counted(a):
        built.append(a.rows)
        return real(a)

    monkeypatch.setattr(circuit, "operator_table_of_matrix", counted)
    return built


@pytest.mark.parametrize("family, command", [("linear-output", "linearize"), ("linear-middle", "encode")])
def test_accepted_circuits_are_proven_without_a_sweep(tmp_path, capsys, monkeypatch, family, command):
    # both prove on a subcube: no sweep of all 8 inputs, no operator table
    # (linearize sweeps its non-parity middle gates over the 6 inputs they read)
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", family, "--n", "8", "--r", "8",
        "--seed", "7", "--out", str(src))
    swept = _count_sweeps(monkeypatch)
    built = _count_operator_tables(monkeypatch)
    code, out = run(capsys, command, "--in", str(src))
    assert code == 0 and ("ok=true" in out if command == "linearize" else out.startswith("n=8\n"))
    assert 8 not in swept and built == []


def test_linearize_sweeps_its_input_once(tmp_path, capsys, monkeypatch):
    # a circuit it refuses: the subcube proof fails, and one sweep of all
    # 8 inputs names the counterexample
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear-output", "--n", "8", "--r", "8",
        "--seed", "7", "--out", str(src))
    _complement_a_read_middle_gate(src)
    swept = _count_sweeps(monkeypatch)
    code, out = run(capsys, "linearize", "--in", str(src))
    assert (code, out) == (1, "linear=false\ncounterexample=00000000\n")
    assert swept.count(8) == 1


def test_linearize_builds_one_operator_table(tmp_path, capsys, monkeypatch):
    # the table of the result's matrix, compared with the sweep that decides
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear-output", "--n", "8", "--r", "8",
        "--seed", "7", "--out", str(src))
    _complement_a_read_middle_gate(src)
    built = _count_operator_tables(monkeypatch)
    code, out = run(capsys, "linearize", "--in", str(src))
    assert (code, out) == (1, "linear=false\ncounterexample=00000000\n")
    assert built == [8]


def test_encode_sweeps_its_input_once(tmp_path, capsys, monkeypatch):
    # a circuit it refuses: the subcube proof fails and one sweep decides
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "8", "--r", "8",
        "--seed", "7", "--out", str(src))
    _complement_output_gate_0(src)
    swept = _count_sweeps(monkeypatch)
    code, out = run(capsys, "encode", "--in", str(src))
    assert (code, out) == (1, "linear=false\ncounterexample=00000000\n")
    assert swept == [8]


def test_encode_builds_one_operator_table(tmp_path, capsys, monkeypatch):
    # the table of the certificate's own matrix, compared with the sweep that decides
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "8", "--r", "8",
        "--seed", "7", "--out", str(src))
    _complement_output_gate_0(src)
    built = _count_operator_tables(monkeypatch)
    code, out = run(capsys, "encode", "--in", str(src))
    assert (code, out) == (1, "linear=false\ncounterexample=00000000\n")
    assert built == [8]


def _flip_a_read_first_level_entry(lin):
    # a middle gate some output reads, so the flip changes the operator
    j = next(j for j in range(lin.first_level.rows) if any((w >> j) & 1 for w in lin.second_level.row_words))
    rows = list(lin.first_level.row_words)
    rows[j] ^= 1
    return dataclasses.replace(lin, first_level=Gf2Matrix(len(rows), lin.n, tuple(rows)))


@pytest.mark.parametrize("spoil", [_flip_a_read_first_level_entry])
def test_linearize_reports_ok_false_for_a_wrong_result(tmp_path, capsys, monkeypatch, spoil):
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear-output", "--n", "6", "--r", "6",
        "--seed", "7", "--out", str(src))
    code, good = run(capsys, "linearize", "--in", str(src))
    assert code == 0 and good.endswith("ok=true\n")
    real = cli.linearize

    def spoiled(c):
        lin, report = real(c)
        return spoil(lin), report

    monkeypatch.setattr(cli, "linearize", spoiled)
    code, out = run(capsys, "linearize", "--in", str(src))
    assert code == 1
    assert out == good.replace("ok=true\n", "ok=false\n")


def test_linearize_prints_lowest_counterexample(tmp_path, capsys):
    # parity outputs, but middle gate 0 (inputs 0, 1, 3) swapped for majority:
    # 0 at zero and at every unit vector, 1 once two of its inputs are set
    src = tmp_path / "maj.ckt"
    run(capsys, "gen-circuit", "--family", "linear-output", "--n", "5", "--seed", "7",
        "--out", str(src))
    c = depth2_from_text(src.read_text())
    majority = dataclasses.replace(c.middle[0], table=TruthTable(3, 0b11101000))
    c = dataclasses.replace(c, middle=(majority,) + c.middle[1:])
    src.write_text(depth2_to_text(c))
    code, out = run(capsys, "linearize", "--in", str(src))
    assert code == 1
    assert out == "linear=false\ncounterexample=11000\n"
    # the candidate matrix: column j is c at unit vector j
    cols = [eval_depth2(c, [int(i == j) for i in range(5)]) for j in range(5)]

    def ax(x):
        return [sum(cols[j][i] for j in range(5) if (x >> j) & 1) % 2 for i in range(5)]

    def cx(x):
        return eval_depth2(c, [(x >> i) & 1 for i in range(5)])

    assert cx(3) != ax(3)
    assert all(cx(y) == ax(y) for y in range(3))


def test_encode_prints_lowest_counterexample(tmp_path, capsys):
    # parity middle gates x0 and x1; output 0 ANDs them, so it is 0 at both
    # unit vectors and breaks linearity first at x = 11
    src = tmp_path / "and.ckt"
    src.write_text(
        "depth2 v1\nn 2 r 2\nmid 0: in 0 ; tt 2\nmid 1: in 1 ; tt 2\n"
        "out 0: mid 0 1 ; direct ; tt 8\nout 1: mid 1 ; direct ; tt 2\n"
    )
    code, out = run(capsys, "encode", "--in", str(src))
    assert code == 1
    assert out == "linear=false\ncounterexample=11\n"
    # the same AND one layer down, read by an identity output: linearize's case
    src.write_text(
        "depth2 v1\nn 2 r 1\nmid 0: in 0 1 ; tt 8\n"
        "out 0: mid 0 ; direct ; tt 2\nout 1: mid ; direct ; tt 0\n"
    )
    code, out = run(capsys, "linearize", "--in", str(src))
    assert code == 1
    assert out == "linear=false\ncounterexample=11\n"


def test_linearize_refuses_a_non_parity_output_before_any_sweep(tmp_path, capsys, monkeypatch):
    # a random circuit and an AND of two parities: output gate 0 of each
    # is not a parity, and linearize must say so before it sweeps
    random_src, and_src = tmp_path / "r.ckt", tmp_path / "and.ckt"
    run(capsys, "gen-circuit", "--family", "random", "--n", "5", "--seed", "28", "--out", str(random_src))
    and_src.write_text(
        "depth2 v1\nn 2 r 2\nmid 0: in 0 ; tt 2\nmid 1: in 1 ; tt 2\n"
        "out 0: mid 0 1 ; direct ; tt 8\nout 1: mid 1 ; direct ; tt 2\n"
    )

    def sweep(*args):
        raise AssertionError("linearize swept a circuit it must refuse")

    monkeypatch.setattr(_kernels, "_sweep", sweep)
    for src in (random_src, and_src):
        assert cli.main(["linearize", "--in", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}: output gate 0 is not a (possibly negated) parity\n"


def test_verify_equiv_counterexample(tmp_path, capsys):
    a = tmp_path / "a.ckt"
    b = tmp_path / "b.ckt"
    run(capsys, "gen-circuit", "--family", "linear", "--n", "3", "--seed", "1", "--out", str(a))
    run(capsys, "gen-circuit", "--family", "random", "--n", "3", "--seed", "2", "--out", str(b))
    code, out = run(capsys, "verify-equiv", str(a), str(b))
    assert code == 1
    assert "equivalent=false" in out
    assert "counterexample=" in out


def test_verify_equiv_lowest_counterexample_at_n16(tmp_path, capsys):
    # the circuits differ exactly when x_15 = 1: output 0 also reads x_15
    n = 16
    ident = tmp_path / "ident.ckt"
    other = tmp_path / "other.ckt"
    ident.write_text(depth2_to_text(linear_circuit(Gf2Matrix.identity(n)).to_depth2()))
    rows = [1 << i for i in range(n)]
    rows[0] |= 1 << 15
    a = Gf2Matrix(n, n, tuple(rows))
    other.write_text(depth2_to_text(linear_circuit(a).to_depth2()))
    code, out = run(capsys, "verify-equiv", str(ident), str(other))
    assert code == 1
    assert out == "equivalent=false\ncounterexample=0000000000000001\n"


def test_verify_equiv_of_a_linearized_circuit_at_the_cap_builds_no_vector(tmp_path, capsys, monkeypatch):
    # the salted pairs cancel in the miter's forms, so no gate is built and
    # the input masks are never fetched; linearize has just swept a subcube
    n = 20
    c, _ = linear_output_instance(n, 10, 0.5, seed=3)
    lin, _ = linearize(c)
    src, out = tmp_path / "c.ckt", tmp_path / "lin.ckt"
    src.write_text(depth2_to_text(c))
    out.write_text(depth2_to_text(lin.to_depth2()))
    calls = []
    for name in ("_mux_tree", "_stretch", "row_vector"):
        monkeypatch.setattr(_kernels, name, lambda *args, name=name: calls.append(name))
    before = _kernels.input_vectors.cache_info()
    assert run(capsys, "verify-equiv", str(src), str(out)) == (0, "equivalent=true\n")
    assert calls == []
    assert _kernels.input_vectors.cache_info() == before
    monkeypatch.undo()

    # one table bit flipped in the second gate of a duplicated pair
    m = c.middle
    j = next(j for j in range(1, c.r) if m[j].inputs == m[j - 1].inputs and m[j].table.fanin > 1
             and m[j].table.bits in (m[j - 1].table.bits, m[j - 1].table.complement().bits)
             and any(j in o.mids for o in c.outputs))
    entry = 1 << (m[j].table.fanin - 1)  # the table bit of one argument assignment
    flipped_gate = dataclasses.replace(m[j], table=TruthTable(m[j].table.fanin, m[j].table.bits ^ entry))
    flipped = dataclasses.replace(c, middle=m[:j] + (flipped_gate,) + m[j + 1:])
    bad = tmp_path / "flipped.ckt"
    bad.write_text(depth2_to_text(flipped))
    x = circuit.collapse(flipped).first_difference(circuit.collapse(lin.to_depth2()))
    assert x is not None
    code, text = run(capsys, "verify-equiv", str(bad), str(out))
    assert (code, text) == (1, f"equivalent=false\ncounterexample={Gf2Vector(n, x)}\n")


def test_inputs_over_the_exhaustive_cap_are_usage_errors(tmp_path, capsys):
    n = 21
    depth2 = tmp_path / "d21.ckt"
    depth2.write_text(depth2_to_text(linear_circuit(Gf2Matrix.identity(n)).to_depth2()))
    general = tmp_path / "g21.ckt"
    wide = GeneralGate(tuple(range(n)) + (0,), TruthTable(n + 1, 0))
    general.write_text(general_to_text(GeneralCircuit(n, (wide,), tuple(range(n)))))
    for path, argv in (
        (depth2, ["verify-equiv", str(depth2), str(depth2)]),
        (depth2, ["linearize", "--in", str(depth2)]),
        (depth2, ["encode", "--in", str(depth2)]),
        (general, ["cap-fanin", "--in", str(general)]),
    ):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: exhaustive evaluation capped at n=20, got n=21\n"
    # the battery refuses before any trial runs
    assert cli.main(["suite", "--trials", "1", "--n-max", "21"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n-max: exhaustive evaluation capped at n=20, got n=21\n"


def test_suite_n_max_below_the_smallest_draw_is_a_usage_error(capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(suite, "run_linearization", no_trials)
    with pytest.raises(suite.NMaxError, match="must be at least 3, got 2"):
        suite.run_all(1, 2)
    for n_max, message in (("2", "must be at least 3, got 2"),
                           ("21", "exhaustive evaluation capped at n=20, got n=21")):
        assert cli.main(["suite", "--trials", "1", "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n-max: {message}\n"


def test_encode_decode_roundtrip(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    enc = tmp_path / "c.ope"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "4", "--r", "5",
        "--seed", "9", "--out", str(src), "--matrix-out", str(tmp_path / "a.txt"))
    code, out = run(capsys, "encode", "--in", str(src), "--out", str(enc), "--hex")
    assert code == 0
    hex_line = next(l for l in out.splitlines() if l.startswith("hex="))
    assert bytes.fromhex(hex_line[4:]) == enc.read_bytes()
    deserialize(enc.read_bytes())
    code, out = run(capsys, "decode", "--in", str(enc), "--x", "0000")
    assert code == 0 and out.strip() == "z=0000"
    # decoding unit vectors reproduces the planted matrix columns
    a = from_text((tmp_path / "a.txt").read_text())
    code, out = run(capsys, "decode", "--in", str(enc), "--x", "0100")
    assert out.strip()[2:] == str(a.column(1))


def test_verify_weak(tmp_path, capsys):
    src = tmp_path / "c.ckt"
    mat = tmp_path / "a.txt"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "4", "--r", "4",
        "--seed", "11", "--out", str(src), "--matrix-out", str(mat))
    code, out = run(capsys, "verify-weak", "--in", str(src), "--matrix", str(mat))
    assert code == 0 and "weakly_computes=true" in out
    # flipping column 2 breaks agreement at the third unit vector only
    a = from_text(mat.read_text())
    mat.write_text(to_text(Gf2Matrix(4, 4, tuple(w ^ 0b0100 for w in a.row_words))))
    code, out = run(capsys, "verify-weak", "--in", str(src), "--matrix", str(mat))
    assert code == 1
    assert out == "weakly_computes=false\ncounterexample=0010\n"


def test_verify_weak_evaluates_each_unit_vector_once(tmp_path, capsys, monkeypatch):
    src = tmp_path / "c.ckt"
    mat = tmp_path / "a.txt"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "6", "--r", "6",
        "--seed", "3", "--out", str(src), "--matrix-out", str(mat))
    calls = []
    real_eval = Depth2Circuit.eval

    def spy(self, x):
        calls.append(x.bits)
        return real_eval(self, x)

    monkeypatch.setattr(Depth2Circuit, "eval", spy)
    code, _ = run(capsys, "verify-weak", "--in", str(src), "--matrix", str(mat))
    assert code == 0 and calls == [1, 2, 4, 8, 16, 32]
    a = from_text(mat.read_text())
    mat.write_text(to_text(Gf2Matrix(6, 6, tuple(w ^ 0b1000 for w in a.row_words))))
    calls.clear()
    code, out = run(capsys, "verify-weak", "--in", str(src), "--matrix", str(mat))
    assert code == 1 and out == "weakly_computes=false\ncounterexample=000100\n"
    assert calls == [1, 2, 4, 8]


def test_cap_fanin_command(tmp_path, capsys):
    src = tmp_path / "g.ckt"
    out_path = tmp_path / "g2.ckt"
    run(capsys, "gen-circuit", "--family", "general", "--n", "4", "--r", "6",
        "--seed", "13", "--out", str(src))
    code, out = run(capsys, "cap-fanin", "--in", str(src), "--out", str(out_path))
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert int(report["max_fanin"]) <= 4
    assert int(report["wires_after"]) <= int(report["wires_before"])
    code, _ = run(capsys, "verify-equiv", str(src), str(out_path))
    assert code == 0


def test_bounds_golden_flow(tmp_path, capsys):
    golden = tmp_path / "table.golden"
    code, out = run(capsys, "bounds", "--golden", str(golden))
    assert code == 0 and "golden_written" in out
    code, out = run(capsys, "bounds", "--golden", str(golden))
    assert code == 0 and "golden_match=true" in out
    golden.write_text(golden.read_text() + "tampered\n")
    code, out = run(capsys, "bounds", "--golden", str(golden))
    assert code == 1 and "golden_match=false" in out


def test_reports_are_deterministic(tmp_path, capsys):
    args = ("suite", "--trials", "8", "--n-max", "5", "--seed", "3")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    # elapsed timings vary; everything else must agree byte for byte
    def scrub(text):
        return [
            " ".join(tok for tok in line.split() if not tok.startswith("elapsed="))
            for line in text.splitlines()
        ]
    assert scrub(out1) == scrub(out2)
    assert "suite_ok=true" in out1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["gen-matrix"])  # missing required --n
    assert err.value.code == 2


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    src = tmp_path / "c.ckt"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "4", "--seed", "9",
        "--out", str(src))
    code, out = run(capsys, "encode", "--in", str(src), "--hex")
    assert code == 0 and "hex=" in out
    code, out = run(capsys, "encode", "--in", str(src))
    assert code == 0 and "hex=" not in out

    mat = tmp_path / "a.txt"
    other = tmp_path / "d.ckt"
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "4", "--seed", "9",
        "--out", str(src), "--matrix-out", str(mat))
    assert mat.exists()
    mat.unlink()
    run(capsys, "gen-circuit", "--family", "linear-middle", "--n", "4", "--seed", "9",
        "--out", str(other))
    assert not mat.exists()

    for argv in (["gen-matrix"], ["decode", "--in", str(src)]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "required" in capsys.readouterr().err

    for argv in (["--help"], ["decode", "--help"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wirelab")


def test_cached_parser_calls_the_current_command_binding(capsys, monkeypatch):
    cli.build_parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_decode", lambda args: calls.append(args.x) or 0)
    assert cli.main(["decode", "--in", "unused.ope", "--x", "01"]) == 0
    assert calls == ["01"]


def test_parser_built_under_a_wrapper_calls_the_current_binding(monkeypatch):
    # a tracer or test wrapper installed before the parser is first built
    # has its own function name; the command still reaches it
    calls = []

    def spy(args):
        calls.append(args.x)
        return 0

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "cmd_decode", spy)
    try:
        assert cli.main(["decode", "--in", "unused.ope", "--x", "01"]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert calls == ["01"]
