#!/usr/bin/env python3
"""Self-test of the benchmark on tiny instances.

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` and checks that

* every metric ``BENCHMARK.json`` lists is emitted with its unit, and
  nothing else (end-to-end with ``--trace 0``, per-layer with ``--trace 1``);
* a fixed seed reproduces the same output digest and the same exact counts;
* a second seed runs, correctly, on different inputs;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Prints one line per failed check and exits 1 if there was any.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXPECTED = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
# per-layer metrics that are exact counts of work, not timings
EXACT_UNITS = {"count", "bytes", "frac"}
INEXACT = {"trace.overhead_frac"}


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                              "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        seen = {}
        for seed, trace, repeat in ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0)):
            where = f"{workload} seed={seed} trace={trace} run={repeat}"
            proc = run(ROOT, workload, seed, trace)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result, digest = parse(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {proc.stdout.strip()[-500:]}")
            metrics = result["metrics"]
            units = {name: m["unit"] for name, m in metrics.items()}
            if units != EXPECTED[trace]:
                missing = set(EXPECTED[trace].items()) ^ set(units.items())
                problems.append(f"{where}: metrics or units differ from BENCHMARK.json: {sorted(missing)}")
            for name, m in metrics.items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} is {m['value']!r}")
            exact = {name: m["value"] for name, m in metrics.items()
                     if trace and m["unit"] in EXACT_UNITS and name not in INEXACT}
            seen.setdefault((seed, trace), []).append((digest, exact))
        for (seed, trace), runs in seen.items():
            if any(r != runs[0] for r in runs[1:]):
                problems.append(f"{workload} seed={seed} trace={trace}: digest or exact counts differ between runs")
        digests = {seed: runs[0][0] for (seed, _), runs in seen.items()}
        if digests.get(1) is not None and digests.get(1) == digests.get(2):
            problems.append(f"{workload}: seeds 1 and 2 gave the same outputs")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, WORKLOADS[0], 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(problem)
    print(f"selftest {'failed' if problems else 'passed'}: {len(WORKLOADS)} workloads")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
