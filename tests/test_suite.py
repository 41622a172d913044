"""The seeded battery: planted failures, sweep counts and a golden report.

Failures are planted by replacing names that ``wirelab.suite`` imported
(or, for a stage circuit, that ``linearize`` calls, and for a counting
bound, that ``bounds`` calls), so each check is shown to count its
failing trials and to keep the first witness, without a broken library.
"""

import dataclasses
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from oracles import matrix_lists, naive_rank
from wirelab import _kernels, bounds, cli, compress, suite, transforms
from wirelab.circuit import depth2_from_text, equivalent, general_from_text
from wirelab.generators import random_matrix
from wirelab.gf2 import Gf2Matrix

GOLDEN = Path(__file__).parent / "data" / "suite_report.golden"
GOLDEN_ARGS = ("suite", "--trials", "40", "--n-max", "8", "--seed", "42")


def _flip_first_entry_at_n5(monkeypatch):
    real = suite.decode_matrix

    def decode_matrix(enc):
        a = real(enc)
        if enc.n != 5:
            return a
        return Gf2Matrix(a.rows, a.cols, (a.row_words[0] ^ 1,) + a.row_words[1:])

    monkeypatch.setattr(suite, "decode_matrix", decode_matrix)


def _seeds_drawing_n5(trials, n_max, seed):
    return [
        suite._trial_seed(seed, t)
        for t in range(trials)
        if random.Random(suite._trial_seed(seed, t)).randint(suite.N_MIN, n_max) == 5
    ]


def test_codec_counts_every_planted_failure_and_keeps_the_first(monkeypatch):
    _flip_first_entry_at_n5(monkeypatch)
    trials, n_max, seed = 30, 6, 43
    bad = _seeds_drawing_n5(trials, n_max, seed)
    assert bad  # the seed must plant at least one failure
    r = suite.run_codec(trials, n_max, seed)
    assert (r.trials, r.failures, r.ok) == (trials, len(bad), False)
    # A[0][0] flipped: output 0 first differs at x = e_0
    assert r.witness.startswith(f"failed=codec-roundtrip\nseed={bad[0]}\ninput=10000\ncircuit:\n")
    c = depth2_from_text(r.witness.split("circuit:\n", 1)[1])
    assert c.n == 5


def test_weak_vs_full_sweeps_its_full_side(monkeypatch):
    # a kernel fault that sets one bit of the first output: matvec on unit
    # vectors cannot see it, so every agreeing pair must now fail
    assert suite.run_weak_vs_full(20, 5, 45).ok
    real = _kernels.node_vectors_general

    def flipped(*args, **kwargs):
        vecs = real(*args, **kwargs)
        return [vecs[0] ^ 1] + vecs[1:]

    monkeypatch.setattr(_kernels, "node_vectors_general", flipped)
    r = suite.run_weak_vs_full(20, 5, 45)
    assert r.failures > 0 and r.witness.startswith("failed=weak-vs-full\nseed=")


def _flip_first_entry_at_n5_in_compress(monkeypatch):
    # the decoder encode proves through: its proof fails and it raises
    real = compress.decode_matrix

    def decode_matrix(enc):
        a = real(enc)
        if enc.n != 5:
            return a
        return Gf2Matrix(a.rows, a.cols, (a.row_words[0] ^ 1,) + a.row_words[1:])

    monkeypatch.setattr(compress, "decode_matrix", decode_matrix)


RAISED = "error=NotLinearError: circuit does not compute a linear operator\n"


def test_codec_counts_a_proof_that_fails_inside_encode(monkeypatch):
    _flip_first_entry_at_n5_in_compress(monkeypatch)
    trials, n_max, seed = 30, 6, 43
    bad = _seeds_drawing_n5(trials, n_max, seed)
    assert bad
    r = suite.run_codec(trials, n_max, seed)
    assert (r.trials, r.failures, r.ok) == (trials, len(bad), False)
    head = f"failed=codec-roundtrip\nseed={bad[0]}\ninput=10000\n{RAISED}circuit:\n"
    assert r.witness.startswith(head)
    assert depth2_from_text(r.witness[len(head):]).n == 5


def test_cli_suite_exits_1_on_a_proof_that_fails_inside_encode(monkeypatch, capsys):
    _flip_first_entry_at_n5_in_compress(monkeypatch)
    trials, n_max, seed = 10, 6, 7
    bad = _seeds_drawing_n5(trials, n_max, seed + 1)  # the codec check runs at seed + 1
    assert bad
    code = cli.main(["suite", "--trials", str(trials), "--n-max", str(n_max), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"check=codec trials={trials} failures={len(bad)} " in out
    assert f"witness_codec:\nfailed=codec-roundtrip\nseed={bad[0]}\ninput=10000\n{RAISED}" in out
    assert out.endswith("suite_ok=false\n")


def test_fanin_cap_counts_a_value_error_raised_inside_cap_fanin(monkeypatch):
    real = suite.cap_fanin

    def cap_fanin(c):
        if c.n == 3:
            raise ValueError("planted")
        return real(c)

    monkeypatch.setattr(suite, "cap_fanin", cap_fanin)
    trials, n_max, seed = 20, 5, 44
    bad = [suite._trial_seed(seed, t) for t in range(trials)
           if random.Random(suite._trial_seed(seed, t)).randint(2, n_max) == 3]
    assert bad and len(bad) < trials
    r = suite.run_fanin_cap(trials, n_max, seed)
    assert (r.trials, r.failures, r.ok) == (trials, len(bad), False)
    head = f"failed=fanin-cap\nseed={bad[0]}\nerror=ValueError: planted\ncircuit:\n"
    assert r.witness.startswith(head)
    assert general_from_text(r.witness[len(head):]).n == 3


def test_stage_check_fails_alone_on_a_non_equivalent_stage(monkeypatch):
    # linearize reads its result off stage 2's wiring, not its output tables
    real = transforms.normalize_output_xor

    def normalize_output_xor(c):
        s2 = real(c)
        o = s2.outputs[0]
        flipped = dataclasses.replace(o, table=o.table.complement())
        return dataclasses.replace(s2, outputs=(flipped,) + s2.outputs[1:])

    monkeypatch.setattr(transforms, "normalize_output_xor", normalize_output_xor)
    trials, n_max, seed = 12, 6, 42
    lin, stages = suite.run_linearization(trials, n_max, seed)
    assert lin.ok and lin.witness is None
    assert (stages.trials, stages.failures, stages.elapsed) == (trials, trials, 0.0)
    head = f"failed=stage-budget-or-equivalence\nseed={suite._trial_seed(seed, 0)}\ncircuit:\n"
    assert stages.witness.startswith(head)
    c = depth2_from_text(stages.witness[len(head):])
    assert not equivalent(c, normalize_output_xor(transforms.remove_direct_wires(c)))


def test_cli_suite_writes_the_witness_and_exits_1(monkeypatch, tmp_path, capsys):
    _flip_first_entry_at_n5(monkeypatch)
    trials, n_max, seed = 10, 6, 7
    bad = _seeds_drawing_n5(trials, n_max, seed + 1)  # the codec check runs at seed + 1
    assert bad
    code = cli.main(["suite", "--trials", str(trials), "--n-max", str(n_max),
                     "--seed", str(seed), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    path = tmp_path / "witness_codec.txt"
    assert f"witness_file={path}\n" in out
    assert out.endswith("suite_ok=false\n")
    witness = path.read_text()
    assert witness.startswith(f"failed=codec-roundtrip\nseed={bad[0]}\ninput=10000\n")
    assert f"witness_codec:\n{witness}" in out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["witness_codec.txt"]


def _gf2_trial_matrices(trials, dim_max, seed):
    # the matrix each gf2-oracles trial draws, with its trial seed
    for t in range(trials):
        s = suite._trial_seed(seed, t)
        rng = random.Random(s)
        rows_n, cols_n = rng.randint(1, dim_max), rng.randint(1, dim_max)
        yield s, random_matrix(rows_n, cols_n, rng.uniform(0.1, 0.9), seed=s)


def _gf2_oracles_fail_exactly_on(bad, trials, dim_max, seed):
    assert bad and len(bad) < trials
    r = suite.run_gf2_oracles(trials, dim_max, seed)
    assert (r.trials, r.failures, r.ok) == (trials, len(bad), False)
    assert r.witness.startswith(f"failed=gf2-oracle\nseed={bad[0]}\ncircuit:\nGf2Matrix(")


def test_gf2_oracles_catch_a_dropped_coefficient_bit(monkeypatch):
    real = suite.echelon

    def echelon(rows):
        # the first kept row, the first nonzero input row, loses its top
        # bit when that bit is above its key
        kept = real(rows)
        low = next(iter(kept), 0)
        w = kept.get(low, 0)
        if w != low:
            kept[low] = w ^ 1 << (w.bit_length() - 1)
        return kept

    monkeypatch.setattr(suite, "echelon", echelon)
    trials, dim_max, seed = 30, 6, 46
    # a trial fails when its first nonzero row r has two bits or more and
    # the top one's unit row e is outside the row space: the kept rows
    # then span r ^ e, not r
    bad = []
    for s, m in _gf2_trial_matrices(trials, dim_max, seed):
        lists = matrix_lists(m)
        r = next((row for row in lists if any(row)), [])
        if sum(r) > 1:
            top = max(j for j, a in enumerate(r) if a)
            e = [int(j == top) for j in range(m.cols)]
            if naive_rank(lists + [e]) > naive_rank(lists):
                bad.append(s)
    _gf2_oracles_fail_exactly_on(bad, trials, dim_max, seed)


def test_gf2_oracles_catch_a_dropped_kept_row(monkeypatch):
    real = suite.echelon

    def echelon(rows):
        kept = real(rows)
        if kept:
            kept.popitem()  # the last row kept
        return kept

    monkeypatch.setattr(suite, "echelon", echelon)
    trials, dim_max, seed = 30, 6, 46
    # a trial fails when its matrix is nonzero: it keeps a row to drop
    bad = [s for s, m in _gf2_trial_matrices(trials, dim_max, seed) if any(m.row_words)]
    _gf2_oracles_fail_exactly_on(bad, trials, dim_max, seed)


def test_gf2_oracles_catch_a_matvec_fault_in_the_exhaustive_sweep(monkeypatch):
    # one wrong product, at the sweep's 3-by-5 matrix and x = 0b10110,
    # which the witness prints coordinate 0 first
    seed = 46
    planted = random_matrix(3, 5, 0.5, seed=suite._trial_seed(seed, 3 * 16 + 5))
    real = suite.matvec

    def matvec(m, v):
        z = real(m, v)
        return dataclasses.replace(z, bits=z.bits ^ 1) if (m, v.bits) == (planted, 0b10110) else z

    monkeypatch.setattr(suite, "matvec", matvec)
    r = suite.run_gf2_oracles(1, 2, seed)
    assert (r.trials, r.failures, r.ok) == (1, 1, False)
    assert r.witness == (f"failed=matvec-exhaustive\nseed={seed}\ninput=01101\n"
                         f"circuit:\n{planted!r}")


def test_linear_counting_fails_on_a_bound_outside_the_interval(monkeypatch):
    real = bounds.linear_circuit_lower_bound
    monkeypatch.setattr(bounds, "linear_circuit_lower_bound", lambda n: 0 if n == 256 else real(n))
    general, linear = suite.run_counting()
    assert general.ok  # both computations of the rows saw the same bound
    assert (linear.trials, linear.failures, linear.ok) == (1, 1, False)
    assert linear.notes[-1] == "n=256 ratio=0.000000"


def test_battery_computes_each_linear_bound_twice(monkeypatch):
    # once for the rows, once more to check that they are deterministic
    calls = Counter()
    real = bounds.linear_circuit_lower_bound

    def counted(n):
        calls[n] += 1
        return real(n)

    monkeypatch.setattr(bounds, "linear_circuit_lower_bound", counted)
    suite.run_all(2, 4, 42)
    assert calls == Counter(dict.fromkeys(bounds.DEFAULT_TABLE_NS, 2))


def test_linearize_trial_sweeps_the_input_and_both_stages(monkeypatch):
    # three sweeps over all n inputs per trial, of c, stage 1 and stage 2;
    # linearize itself sweeps at most once, its non-parity middle gates
    # over the inputs they read
    calls = []
    real = _kernels.node_vectors_general

    def sweep(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    inside = []  # per trial: n, and the input counts linearize swept
    real_linearize = suite.linearize

    def linearize(c):
        before = len(calls)
        result = real_linearize(c)
        inside.append((c.n, calls[before:]))
        return result

    monkeypatch.setattr(_kernels, "node_vectors_general", sweep)
    monkeypatch.setattr(suite, "linearize", linearize)
    trials = 10
    lin, stages = suite.run_linearization(trials, 8, 42)
    assert lin.ok and stages.ok
    assert len(inside) == trials
    assert all(len(ks) <= 1 and all(k <= n for k in ks) for n, ks in inside)
    assert any(k < n for n, ks in inside for k in ks)
    expected = Counter()
    for n, ks in inside:
        expected[n] += 3
        expected.update(ks)
    assert Counter(calls) == expected


def test_trials_below_one_are_refused_before_any_trial(monkeypatch, capsys):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(suite, "run_linearization", no_trials)
    for trials in (0, -3):
        with pytest.raises(suite.TrialsError, match=f"must be at least 1, got {trials}"):
            suite.run_all(trials, 8)
    assert cli.main(["suite", "--trials", "-3", "--n-max", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials: must be at least 1, got -3\n"


def _mask_elapsed(text):
    return re.sub(r"elapsed=\d+\.\d+s", "elapsed=…s", text)


def test_seeded_report_matches_the_golden_file(capsys):
    assert cli.main(list(GOLDEN_ARGS)) == 0
    out = capsys.readouterr().out
    assert _mask_elapsed(out) == _mask_elapsed(GOLDEN.read_text())
