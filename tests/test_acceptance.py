"""Acceptance battery: every headline guarantee at its stated scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import time
from pathlib import Path

import pytest

from test_bounds import general_bound_by_scan, linear_count_naive
from wirelab import cli
from wirelab.bounds import (
    LINEAR_RATIO_INTERVAL,
    bounds_table,
    linear_circuit_lower_bound,
    min_wires_lower_bound,
)
from wirelab import suite

GOLDEN = Path(__file__).parent / "data" / "bounds_table.golden"

TRIALS = 500
N_MAX = 8
SEED = 42


@pytest.fixture(scope="module")
def battery():
    return {r.name: r for r in suite.run_all(TRIALS, N_MAX, SEED)}


def report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num} {label}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_linearization(battery):
    r = battery["linearize"]
    ok = r.ok and r.trials >= 500 and r.elapsed < 60
    report(1, "linearization equivalence and 2n budget", ok,
           f"trials={r.trials} failures={r.failures} elapsed={r.elapsed:.1f}s")


def test_criterion_2_stage_budgets(battery):
    r = battery["stage-budgets"]
    ok = r.ok and r.trials >= 500
    report(2, "per-stage wire accounting", ok,
           f"trials={r.trials} failures={r.failures}")


def test_criterion_3_codec(battery):
    r = battery["codec"]
    ok = r.ok and r.trials >= 500 and r.elapsed < 60
    report(3, "codec roundtrip, matrix recovery, length law", ok,
           f"trials={r.trials} failures={r.failures} elapsed={r.elapsed:.1f}s")


def test_criterion_4_fanin_capping(battery):
    r = battery["fanin-cap"]
    ok = r.ok and r.trials >= 200
    report(4, "fanin capping preserves behaviour, wires, idempotence", ok,
           f"trials={r.trials} failures={r.failures}")


def test_criterion_5_counting_bounds():
    t0 = time.time()
    values = {n: min_wires_lower_bound(n) for n in (8, 16, 32, 64, 128)}
    size_ok = all(v <= n * n for n, v in values.items())
    growth_ok = all(values[2 * n] >= 2 * values[n] for n in (8, 16, 32, 64))
    table = bounds_table()
    golden_ok = table == GOLDEN.read_text()
    indep_ok = all(values[n] == general_bound_by_scan(n) for n in values)
    elapsed = time.time() - t0
    ok = size_ok and growth_ok and golden_ok and indep_ok and elapsed < 10
    report(5, "counting bound growth and golden table", ok,
           f"L*={values} golden={golden_ok} independent={indep_ok} elapsed={elapsed:.1f}s")


def test_criterion_6_linear_counting():
    lo, hi = LINEAR_RATIO_INTERVAL
    ratios = {}
    for n in (16, 32, 64, 128, 256):
        k = n.bit_length() - 1
        best = linear_circuit_lower_bound(n)
        ratios[n] = best * k / (n * n)
        # boundary independently certified with factorial-based binomials
        assert linear_count_naive(n, best) < 2 ** (n * n)
    ok = all(lo <= v <= hi for v in ratios.values())
    report(6, "all-parity counting has the n^2/log n shape", ok,
           f"interval=({lo},{hi}) ratios=" + " ".join(f"{n}:{v:.3f}" for n, v in ratios.items()))


def test_criterion_7_weak_vs_full(battery):
    r = battery["weak-vs-full"]
    ok = r.ok and r.trials >= 200
    report(7, "weak equals full computation for parity circuits", ok,
           f"trials={r.trials} failures={r.failures}")


def test_criterion_8_gf2_oracles(battery):
    r = battery["gf2-oracles"]
    ok = r.ok and r.trials >= 1000
    report(8, "GF(2) kernels match the naive elimination oracle", ok,
           f"trials={r.trials} failures={r.failures}")


def test_cli_suite_runs_green(battery, capsys, monkeypatch):
    # the CLI reports the fixture's battery rather than running it again;
    # test_suite's golden-file test covers a real CLI run at 40 trials
    results = list(battery.values())

    def run_all(trials, n_max, seed):
        assert (trials, n_max, seed) == (TRIALS, N_MAX, SEED)
        return results

    monkeypatch.setattr(suite, "run_all", run_all)
    code = cli.main(["suite", "--trials", str(TRIALS), "--n-max", str(N_MAX), "--seed", str(SEED)])
    out = capsys.readouterr().out
    print("PASS cli-suite: exit=0" if code == 0 else f"FAIL cli-suite: exit={code}")
    assert code == 0
    checks = [line for line in out.splitlines() if line.startswith("check=")]
    assert checks == [r.report_lines()[0] for r in results]
    assert out.endswith("suite_ok=true\n")
