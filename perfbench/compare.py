#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py base1.json base2.json ... -- new1.json new2.json ...

For each workload and metric it prints the median of each side and the
change as a share of the base median, signed so that positive is worse.
An end-to-end metric worse by more than its bound in ``BENCHMARK.json``
is marked ``WORSE`` and makes the exit status 1.  Records whose backend
or ``WIRELAB_PURE_PYTHON`` setting differ are not comparable: the script
refuses them with exit status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BACKEND_KEYS = ("backend", "WIRELAB_PURE_PYTHON")


def load(paths: list[str]) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text())
        for name, m in record["result"]["metrics"].items():
            out[(record["workload"], record["trace"])][name].append(m["value"])
    return out


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cut = argv.index("--")
    base_paths, new_paths = argv[:cut], argv[cut + 1:]
    envs = {}
    for path in base_paths + new_paths:
        env = json.loads(Path(path).read_text())["env"]
        envs[path] = tuple(env.get(k) for k in BACKEND_KEYS)
    if len(set(envs.values())) > 1:
        for path, key in envs.items():
            print(f"{path}: backend={key[0]} WIRELAB_PURE_PYTHON={key[1]!r}", file=sys.stderr)
        print("refusing to compare runs with different kernel backends", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, new = load(base_paths), load(new_paths)
    worse = False
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} trace={key[1]}")
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = statistics.median(base[key][name]), statistics.median(new[key][name])
            change = (n - b) / b if b else 0.0
            if better.get(name) == "higher":
                change = -change
            flag = ""
            if name in bounds and change > bounds[name]:
                flag, worse = "  WORSE", True
            print(f"{name:40s} {b:12.6g} {n:12.6g} {change:+8.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
