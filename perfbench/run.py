#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 40 --trace 0

Load is one closed-loop client: the next operation starts when the
previous one returns.  The loop runs whole passes over the workload's
seeded pool for about ``--seconds``; the timings are each op's fastest
of its passes (see ``best_of_passes``).  Every output is checked
against an oracle outside the timed calls.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` the run first
makes untraced passes for half the time, then as many traced passes, and
the result holds the per-layer metrics (per set-up plus one pass).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it name every metric with its unit, the tail percentile, the output
digest and the environment.  ``--out FILE`` also writes all of that as
one JSON record, which ``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 5
# modules a set-up imports afresh each time it is repeated
FRESH_IMPORTS = ("wirelab", "workloads")
# bench_kernels' five fixed workloads: (name, (n, r, fanin)) for depth-2,
# (name, (n, gates)) for general circuits
BK_DEPTH2 = (("depth2_n8_r12_d5", (8, 12, 5)), ("depth2_n12_r24_d6", (12, 24, 6)),
             ("depth2_n16_r32_d8", (16, 32, 8)))
BK_GENERAL = (("general_n8_g16", (8, 16)), ("general_n12_g24", (12, 24)))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With twenty samples or
    fewer no such percentile lies above the median, and the median is
    reported instead, as percentile 50: the maximum of so few samples
    would measure the machine's worst moment, not the program.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Stats:
    def __init__(self) -> None:
        self.times: list[float] = []  # seconds per op, pass after pass
        self.attempts: list[int] = []  # outputs checked per op, likewise
        self.pass_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_pass(pool, stats: Stats, digest=None, tracer=None) -> None:
    """One pass over the pool; oracle checks and digests are not timed."""
    wall = 0.0
    for op in pool.ops:
        t0 = time.perf_counter()
        try:
            out = tracer.call("op." + op.kind, op.run) if tracer else op.run()
            error = None
        except Exception as e:  # a failing op is counted, the run goes on
            error = e
        dt = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        if error is None:
            try:
                attempted, failed = op.check(out)
                if digest is not None:
                    digest.update(op.digest(out))
            except Exception as e:
                error = e
        if error is not None:
            attempted, failed = 1, 1
            stats.errors.append(f"{op.kind}: {type(error).__name__}: {error}")
        if tracer:
            tracer.active = True
        wall += dt
        stats.times.append(dt)
        stats.attempts.append(attempted)
        stats.attempted += attempted
        stats.failed += failed
    stats.pass_walls.append(wall)


def run_until(pool, stats: Stats, deadline: float, digest) -> int:
    """Whole passes until ``deadline``; the first pass feeds the digest.

    A pass starts only if one of median length still ends by the deadline,
    so the timed phase lasts about ``--seconds`` and every pass is whole.
    """
    passes = 0
    while passes == 0 or time.perf_counter() + statistics.median(stats.pass_walls) <= deadline:
        run_pass(pool, stats, digest if passes == 0 else None)
        passes += 1
    return passes


def best_of_passes(stats: Stats, width: int) -> tuple[list[float], list[int]]:
    """Each op's fastest time over the run's passes, and its attempts.

    The host's speed switches between levels about a third apart every few
    seconds, so the median of a 40-second run depends on how much of it
    fell in the slow level; an op's fastest of its 10-30 repeats does not,
    and a slower program raises it in full.
    """
    best = [min(stats.times[i::width]) for i in range(width)]
    return best, stats.attempts[:width]


def kernel_bench(workloads, reps: int) -> dict[str, tuple[float, str]]:
    """Median time of the active kernel on bench_kernels' five workloads."""
    from wirelab import _kernels

    bk = workloads.bench_kernels
    cases = []
    for name, (n, r, fanin) in BK_DEPTH2:
        c = bk.bounded_depth2(n, r, fanin, seed=n)
        cases.append((name, _kernels.output_vectors_depth2, bk.depth2_args(c)))
    for name, (n, gates) in BK_GENERAL:
        c = workloads.generators.random_general(n, gates, seed=n)
        cases.append((name, _kernels.node_vectors_general, bk.general_args(c)))
    out = {}
    for name, fn, args in cases:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
        out[f"kernels.bk.{name}_ms"] = (1000.0 * statistics.median(times), "ms")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["battery", "exhaustive", "certificates"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="tiny instances (for the self-test)")
    p.add_argument("--out", help="also write the full record as JSON to this file")
    args = p.parse_args(argv)

    if not (SRC / "wirelab" / "__init__.py").is_file():
        print(f"perfbench: no wirelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = SCRATCH / f"tmp-{os.getpid()}"
    try:
        # each set-up imports the library afresh, builds the pool and
        # computes its oracles; setup_s is the median of the repeats
        setups = []
        for k in range(SETUP_REPEATS):
            for name in [m for m in sys.modules if m.split(".")[0] in FRESH_IMPORTS]:
                del sys.modules[name]
            t = time.perf_counter()
            import wirelab
            import workloads

            pool = workloads.WORKLOADS[args.workload](args.seed, args.tiny, tmp / f"setup{k}")
            setups.append(time.perf_counter() - t)
        setup_s = statistics.median(setups)
        if Path(wirelab.__file__).resolve().parent != (SRC / "wirelab").resolve():
            print(f"perfbench: imported wirelab from {wirelab.__file__}, not {SRC}", file=sys.stderr)
            return 2
        env = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
            "backend": wirelab.BACKEND,
            "WIRELAB_PURE_PYTHON": os.environ.get("WIRELAB_PURE_PYTHON", ""),
        }

        stats = Stats()
        digest = hashlib.sha256()
        start = time.perf_counter()
        if not args.trace:
            run_until(pool, stats, start + args.seconds, digest)
        else:
            import tracing

            passes = run_until(pool, stats, start + args.seconds / 2, digest)
            untraced = statistics.fmean(stats.pass_walls)
            tracer = tracing.Tracer()
            tracer.install()
            tracer.active = True
            pool = workloads.WORKLOADS[args.workload](args.seed, args.tiny, tmp / "traced")
            tracer.bucket = "passes"
            pool.stats.clear()
            traced = Stats()
            for _ in range(passes):
                run_pass(pool, traced, tracer=tracer)
            tracer.uninstall()
            stats.attempted += traced.attempted
            stats.failed += traced.failed
            stats.errors += traced.errors
        problems = pool.verify()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not args.trace:
        # latencies as the run would have seen them with every op at its best
        passes = len(stats.pass_walls)
        best, attempts = best_of_passes(stats, len(pool.ops))
        latencies = [1000.0 * b / a for b, a in zip(best, attempts)] * passes
        value, pct, count = tail(latencies)
        metrics = {
            "wall_s": (sum(best), "s"),
            "ops_per_s": (sum(attempts) / sum(best), "1/s"),
            "op_p50_ms": (statistics.median(latencies), "ms"),
            "op_tail_ms": (value, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        raw = [1000.0 * t / a for t, a in zip(stats.times, stats.attempts)]
        notes = {"tail_percentile": pct, "latency_samples": count, "passes": passes,
                 "median_pass_s": statistics.median(stats.pass_walls),
                 "median_op_ms": statistics.median(raw), "tail_op_ms": tail(raw)[0]}
    else:
        metrics = tracer.layer_metrics(passes)
        for check in workloads.SUITE_CHECKS:
            key = f"suite.{check}.elapsed_s"
            metrics[key] = (pool.stats.get(key, 0.0) / passes, "s")
        metrics["trace.overhead_frac"] = (statistics.fmean(traced.pass_walls) / untraced - 1, "frac")
        metrics.update(kernel_bench(workloads, 1 if args.tiny else 3))
        SCRATCH.mkdir(exist_ok=True)
        trace_file = SCRATCH / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_file)
        notes = {"passes": passes, "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT))}

    failed_frac = stats.failed / stats.attempted if stats.attempted else 1.0
    correct = stats.attempted > 0 and stats.failed == 0 and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "digest": digest.hexdigest(),
        "failed_frac": failed_frac,
        "notes": notes,
        "problems": problems + stats.errors[:5],
        "result": {
            "correct": correct,
            "attempted": stats.attempted,
            "failed": stats.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }
    for name, (v, unit) in metrics.items():
        print(f"metric {name} {v:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} frac")
    for key, value in notes.items():
        print(f"{key} {value}")
    for problem in record["problems"]:
        print(f"problem {problem}")
    print(f"digest {record['digest']}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
