"""Seeded instance pools of the three workloads, with their oracles.

A workload is built from ``--seed`` alone and yields a ``Pool``: the
operations of one pass, each with an oracle check and a digest of its
output.  Instance sizes are fixed by the workload; the seed only picks
wiring, tables, matrices and query points, so runs with different seeds
do comparable work.  Every call into the library goes through module
attributes (``generators.random_general``, not an imported name) so that
the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from wirelab import bounds, circuit, cli, compress, generators, gf2, suite, transforms

ROOT = Path(__file__).resolve().parent.parent


def _load_bench_kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels", ROOT / "benchmarks" / "bench_kernels.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_kernels = _load_bench_kernels()

# The seven checks of ``suite.run_all`` that time themselves (stage-budgets
# reports 0 s: its work is inside the linearize check).
SUITE_CHECKS = ("linearize", "codec", "fanin-cap", "counting-bounds", "linear-counting",
                "weak-vs-full", "gf2-oracles")


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, the rest is not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]  # output -> (attempted, failed)
    digest: Callable[[object], bytes]


@dataclass
class Pool:
    ops: list[Op]
    verify: Callable[[], list[str]] = lambda: []  # post-run oracle checks -> problems
    stats: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def _one(ok: bool) -> tuple[int, int]:
    return 1, 0 if ok else 1


def _vec(n: int, x: int) -> gf2.Gf2Vector:
    return gf2.Gf2Vector(n, x)


def _sample_points(rng: random.Random, n: int, k: int) -> list[int]:
    return [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(k)]


def _work(c) -> int:
    """Table entries over all gates, Σ 2^fanin.

    The circuit text format stores every table in full, so parsing and
    emitting grow with it, and so does the kernel's minterm path on
    non-parity gates.
    """
    if isinstance(c, circuit.GeneralCircuit):
        tables = [g.table for g in c.gates]
    else:
        tables = [m.table for m in c.middle] + [o.table for o in c.outputs]
    return sum(1 << t.fanin for t in tables)


def _typical(make: Callable[[int], object], rng: random.Random, draws: int = 25):
    """Of ``draws`` instances ``make(seed)``, the one with the median ``_work``.

    The generators draw gate counts, gadgets and fanins at random, so the
    work of one instance varies several-fold between seeds: one gate of
    fanin 17 at n = 20 makes ``linearize`` five times slower.  The median
    of many draws keeps that spread out of the comparison between runs
    with different ``--seed``; it matters most for the slowest command,
    which sets ``op_tail_ms`` of ``certificates``.  A draw costs about a
    millisecond.
    """
    made = [make(rng.randrange(1 << 30)) for _ in range(draws)]
    made.sort(key=lambda m: _work(m[0] if isinstance(m, tuple) else m))
    return made[draws // 2]


def _table_bytes(table: circuit.OperatorTable) -> bytes:
    width = max(1, (1 << table.n) // 8)
    return b"".join(col.to_bytes(width, "little") for col in table.columns)


# ---------------------------------------------------------------------------
# battery: the acceptance battery in batches of run_all


BATTERY_N_MAX = 8
# mean of n * 2^n * (1 + r * density) over the codec check's draws
# n ~ U{3..8}, r ~ U{1..12}, density ~ U(0.2, 0.8)
_CODEC_UNIT_MEAN = sum(n << n for n in range(3, 9)) / 6 * (1 + 6.5 * 0.5)


def _codec_work(seed: int, trials: int) -> float:
    """Predicted decode work of the codec check of ``run_all(trials, 8, seed)``.

    Mirrors the check's first draws per trial (n, r, density); its cost
    grows like n * 2^n * (1 + r * density) because it decodes all 2^n
    inputs.
    """
    w = 0.0
    for t in range(trials):
        rng = random.Random(suite._trial_seed(seed + 1, t))
        n = rng.randint(3, BATTERY_N_MAX)
        r = rng.randint(1, 12)
        w += (n << n) * (1 + r * rng.uniform(0.2, 0.8))
    return w


def _balanced_suite_seed(rng: random.Random, trials: int) -> int:
    """A suite seed whose codec work is within 2% of the mean.

    A 40-trial battery's codec time varies by about 20% between seeds;
    drawing seeds until the predicted work is near the mean keeps that
    spread out of the comparison between runs with different ``--seed``.
    """
    target = trials * _CODEC_UNIT_MEAN
    best, best_err = 0, float("inf")
    for _ in range(2000):
        s = rng.randrange(1 << 30)
        err = abs(_codec_work(s, trials) / target - 1)
        if err <= 0.02:
            return s
        if err < best_err:
            best, best_err = s, err
    return best


def battery(seed: int, tiny: bool, workdir: Path) -> Pool:
    trials = 2 if tiny else 40
    rng = random.Random(seed)
    pool = Pool([])

    def tally(results) -> tuple[int, int]:
        attempted = sum(r.trials for r in results if r.name != "stage-budgets")
        for r in results:
            pool.stats[f"suite.{r.name}.elapsed_s"] += r.elapsed
        return attempted, sum(r.failures for r in results)

    def digest(s: int, results) -> bytes:
        # the reports of a correct run do not depend on the suite seed; the
        # seed is part of the digest so that it names the trials that ran
        return f"seed {s}\n".encode() + "".join(
            f"{r.name} {r.trials} {r.failures} {r.notes}\n" for r in results).encode()

    # one battery per pass: with two of different cost, the median latency
    # of a run would fall at the gap between them and jump from run to run
    s = _balanced_suite_seed(rng, trials)
    pool.ops.append(Op("battery", lambda: suite.run_all(trials, BATTERY_N_MAX, s), tally,
                       lambda results: digest(s, results)))

    golden = ROOT / "tests" / "data" / "bounds_table.golden"

    def verify() -> list[str]:
        if bounds.bounds_table() != golden.read_text():
            return ["counting table differs from tests/data/bounds_table.golden"]
        return []

    pool.verify = verify
    return pool


# ---------------------------------------------------------------------------
# exhaustive: kernel sweeps over all 2^n inputs


def _collapse_op(kind: str, c, oracle, rng: random.Random) -> Op:
    """Collapse ``c``; spot-check it against ``oracle`` (a per-point evaluator)."""
    expected = [(x, oracle(_vec(c.n, x))) for x in _sample_points(rng, c.n, 16)]

    def check(table) -> tuple[int, int]:
        return _one(all(table.value_at(x) == y for x, y in expected))

    return Op(kind, lambda: circuit.collapse(c), check, _table_bytes)


def _general_with_fanin(rng: random.Random, n: int, gates: int, fanin: int):
    """A random DAG whose one over-fanin gate has exactly ``fanin`` wires."""
    while True:
        g = generators.random_general(n, gates, seed=rng.randrange(1 << 30), max_fanin=8,
                                      over_fanin_gates=1)
        if max(len(gate.preds) for gate in g.gates) == fanin:
            return g


def _cap_op(g, rng: random.Random) -> Op:
    expected = [(x, g.eval(_vec(g.n, x))) for x in _sample_points(rng, g.n, 16)]

    def run():
        capped = transforms.cap_fanin(g)
        return capped, circuit.equivalent(g, capped)

    def check(out) -> tuple[int, int]:
        capped, same = out
        return _one(
            same
            and max(len(gate.preds) for gate in capped.gates) <= g.n
            and capped.wire_count() <= g.wire_count()
            and all(capped.eval(_vec(g.n, x)) == y for x, y in expected)
        )

    return Op("cap_fanin", run, check, lambda out: circuit.general_to_text(out[0]).encode())


def exhaustive(seed: int, tiny: bool, workdir: Path) -> Pool:
    """Arbitrary-table depth-2 collapses, fanin capping, and a parity control.

    Gate fanin is what the kernel's cost depends on: arbitrary tables take
    the minterm path (cost ~ fanin * 2^fanin big-int ops per gate), so the
    depth-2 and capping shares keep fanin at 10-16 and hold most of the
    time, which sets ``wall_s`` and the tail.  The all-parity control takes
    the XOR fast path on 32-128 KB value vectors; its ops are the majority,
    so the median latency is a parity sweep at n = 20 and shows a change
    that speeds arbitrary tables but slows parities.
    """
    if tiny:
        depth2, general, parity = [(6, 8, 4)], (5, 4, [7]), [(8, 6)]
    else:
        depth2 = [(12, 24, 10), (12, 16, 12), (14, 20, 10), (16, 20, 10), (16, 20, 10)]
        general = (12, 10, [13, 14, 15, 16])
        parity = [(18, 24)] * 2 + [(19, 24)] * 2 + [(20, 24)] * 16
    rng = random.Random(seed)
    ops = []
    for n, r, fanin in depth2:
        c = bench_kernels.bounded_depth2(n, r, fanin, seed=rng.randrange(1 << 30))
        ops.append(_collapse_op("collapse", c, c.eval, rng))
    n, gates, fanins = general
    for fanin in fanins:
        g = _typical(lambda s: _general_with_fanin(random.Random(s), n, gates, fanin), rng, draws=5)
        ops.append(_cap_op(g, rng))
    for n, r in parity:
        lin = generators.random_linear_circuit(n, r, 0.5, seed=rng.randrange(1 << 30))
        ops.append(_collapse_op("collapse_parity", lin.to_depth2(), lin.eval, rng))
    return Pool(ops)


# ---------------------------------------------------------------------------
# certificates: the CLI write and read paths at the exhaustive cap


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def certificates(seed: int, tiny: bool, workdir: Path) -> Pool:
    """``linearize``/``verify-equiv`` and ``encode``/``decode`` through ``cli.main``.

    Each certificate is encoded once per pass and then queried at a
    seeded sample of points; every ``decode`` command re-reads its file,
    as separate invocations of the command line tool would.  Three
    instances of each kind per n keep the median ``decode`` and the tail
    (``linearize`` at n = 20) from resting on a single instance.
    """
    ns, per_n, r, density, queries = ((6, 7), 1, 4, 0.5, 4) if tiny else ((16, 18, 20), 3, 10, 0.5, 24)
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    for n, k in ((n, k) for n in ns for k in range(per_n)):
        c, _ = _typical(lambda s: generators.linear_output_instance(n, r, density, seed=s), rng)
        src, out = workdir / f"lo{n}-{k}.ckt", workdir / f"lin{n}-{k}.ckt"
        src.write_text(circuit.depth2_to_text(c))

        def check_lin(res, n=n) -> tuple[int, int]:
            rc, text = res
            rep = _report(text)
            return _one(rc == 0 and rep.get("ok") == "true"
                        and int(rep["wires_after"]) <= int(rep["wires_before"]) + 2 * n)

        ops.append(Op("linearize", lambda src=src, out=out: _cli(["linearize", "--in", str(src), "--out", str(out)]),
                      check_lin, lambda res, out=out: out.read_bytes()))
        ops.append(Op("verify-equiv", lambda src=src, out=out: _cli(["verify-equiv", str(src), str(out)]),
                      lambda res: _one(res == (0, "equivalent=true\n")), lambda res: res[1].encode()))

    for n, k in ((n, k) for n in ns for k in range(per_n)):
        c, a = _typical(lambda s: generators.linear_middle_instance(n, r, density, seed=s), rng)
        src, ope = workdir / f"lm{n}-{k}.ckt", workdir / f"lm{n}-{k}.ope"
        src.write_text(circuit.depth2_to_text(c))

        def check_enc(res, ope=ope, n=n) -> tuple[int, int]:
            rc, text = res
            data = ope.read_bytes()
            enc = compress.deserialize(data)
            return _one(rc == 0 and compress.serialize(enc) == data
                        and compress.deserialize(compress.serialize(enc)) == enc
                        and _report(text).get("wires") == str(enc.wire_count()) and enc.n == n)

        ops.append(Op("encode", lambda src=src, ope=ope: _cli(["encode", "--in", str(src), "--out", str(ope)]),
                      check_enc, lambda res, ope=ope: ope.read_bytes()))
        for x in (rng.getrandbits(n) for _ in range(queries)):
            xs = str(_vec(n, x))
            want = (0, f"z={gf2.matvec(a, _vec(n, x))}\n")
            ops.append(Op("decode", lambda ope=ope, xs=xs: _cli(["decode", "--in", str(ope), "--x", xs]),
                          lambda res, want=want: _one(res == want), lambda res: res[1].encode()))
    return Pool(ops)


WORKLOADS = {"battery": battery, "exhaustive": exhaustive, "certificates": certificates}
