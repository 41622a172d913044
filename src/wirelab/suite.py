"""Seeded verification battery.

Each check runs a batch of randomized trials against exhaustive or
independently implemented oracles and reports a pass/fail count; the
whole battery is deterministic in its seed.  Failures carry a replayable
witness (circuit text plus the offending input vector).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import bounds as bounds_mod
from ._kernels import check_exhaustive
from .circuit import (
    LinearDepth2Circuit,
    collapse,
    depth2_to_text,
    equivalent,
    general_to_text,
    operator_table_of_matrix,
    weakly_computes,
)
from .compress import bit_length, decode_matrix, deserialize, encode, serialize
from .generators import (
    linear_middle_instance,
    linear_output_instance,
    random_general,
    random_linear_circuit,
    random_matrix,
)
from .gf2 import Gf2Vector, first_basis_columns, matvec, rank, solve_in_span
from .transforms import linearize, normalize_output_xor, remove_direct_wires

_SEED_STRIDE = 1_000_003  # trial t of a run seeded s draws from s * stride + t
N_MIN = 3  # the smallest n the linearize and codec trials draw


class NMaxError(ValueError):
    """An ``n_max`` below ``N_MIN``: the trials would have no n to draw."""


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: int
    elapsed: float
    notes: tuple[str, ...] = ()
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def report_lines(self) -> list[str]:
        line = (
            f"check={self.name} trials={self.trials} failures={self.failures}"
            f" elapsed={self.elapsed:.2f}s ok={'true' if self.ok else 'false'}"
        )
        return [line] + [f"  {n}" for n in self.notes]


def _trial_seed(seed: int, t: int) -> int:
    return seed * _SEED_STRIDE + t


def _witness(kind: str, text: str, x: Gf2Vector | None, seed: int) -> str:
    parts = [f"failed={kind}", f"seed={seed}"]
    if x is not None:
        parts.append(f"input={x}")
    return "\n".join(parts) + "\ncircuit:\n" + text


# ---------------------------------------------------------------------------
# independent oracles (list-of-list arithmetic, no bitsets)

def naive_matvec(rows: list[list[int]], v: list[int]) -> list[int]:
    out = []
    for row in rows:
        s = 0
        for a, b in zip(row, v):
            s += a * b
        out.append(s % 2)
    return out


def naive_rank(rows: list[list[int]]) -> int:
    work = [row[:] for row in rows]
    cols = len(work[0]) if work else 0
    rk = 0
    for j in range(cols):
        pivot = next((i for i in range(rk, len(work)) if work[i][j]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        for i in range(len(work)):
            if i != rk and work[i][j]:
                work[i] = [(a + b) % 2 for a, b in zip(work[i], work[rk])]
        rk += 1
    return rk


def _columns(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else []


# ---------------------------------------------------------------------------
# batteries

def run_linearization(trials: int = 500, n_max: int = 8, seed: int = 42) -> tuple[CheckResult, CheckResult]:
    """End-to-end linearization equivalence/budget, plus per-stage accounting."""
    t0 = time.time()
    end_fail = stage_fail = 0
    end_wit = stage_wit = None
    for t in range(trials):
        s = _trial_seed(seed, t)
        rng = random.Random(s)
        n = rng.randint(N_MIN, n_max)
        r = rng.randint(1, 12)
        density = rng.uniform(0.2, 0.8)
        c, planted = linear_output_instance(n, r, density, seed=s)
        lin, rep = linearize(c)
        if not (
            equivalent(c, lin)
            and rep.within_budget(n)
            and lin.operator_matrix() == planted
        ):
            end_fail += 1
            if end_wit is None:
                end_wit = _witness("linearize-equivalence-or-budget", depth2_to_text(c), None, s)
            continue
        s1 = remove_direct_wires(c)
        s2 = normalize_output_xor(s1)
        stage_ok = (
            s1.wire_count() - c.wire_count() <= n
            and s2.wire_count() - s1.wire_count() <= n
            and s2.first_level_wires() <= s1.first_level_wires()
            and lin.first_level.popcount() <= s2.first_level_wires()
            and equivalent(c, s1)
            and equivalent(s1, s2)
        )
        if not stage_ok:
            stage_fail += 1
            if stage_wit is None:
                stage_wit = _witness("stage-budget-or-equivalence", depth2_to_text(c), None, s)
    elapsed = time.time() - t0
    return (
        CheckResult("linearize", trials, end_fail, elapsed, witness=end_wit),
        CheckResult("stage-budgets", trials, stage_fail, 0.0, witness=stage_wit),
    )


def run_codec(trials: int = 500, n_max: int = 8, seed: int = 43) -> CheckResult:
    """Encode/decode roundtrip, matrix recovery, length law, serialization."""
    t0 = time.time()
    failures = 0
    witness = None
    for t in range(trials):
        s = _trial_seed(seed, t)
        rng = random.Random(s)
        n = rng.randint(N_MIN, n_max)
        r = rng.randint(1, 12)
        c, planted = linear_middle_instance(n, r, rng.uniform(0.2, 0.8), seed=s)
        enc = encode(c)
        table = collapse(c)
        decoded = decode_matrix(enc)
        bad_x = operator_table_of_matrix(decoded).first_difference(table)
        w = enc.field_width()
        length_ok = bit_length(enc) <= 96 + 16 * n + 2 * enc.wire_count() * w + sum(
            len(b) for b in enc.basis_bits
        )
        ok = (
            bad_x is None
            and decoded == planted
            and deserialize(serialize(enc)) == enc
            and length_ok
        )
        if not ok:
            failures += 1
            if witness is None:
                x = Gf2Vector(n, bad_x) if bad_x is not None else None
                witness = _witness("codec-roundtrip", depth2_to_text(c), x, s)
    return CheckResult("codec", trials, failures, time.time() - t0, witness=witness)


def run_fanin_cap(trials: int = 200, n_max: int = 8, seed: int = 44) -> CheckResult:
    """Fanin capping: semantics, fanin bound, wire monotonicity, idempotence."""
    from .transforms import cap_fanin

    t0 = time.time()
    failures = 0
    witness = None
    for t in range(trials):
        s = _trial_seed(seed, t)
        rng = random.Random(s)
        n = rng.randint(2, n_max)
        gates = rng.randint(2, 8)
        c = random_general(n, gates, seed=s, over_fanin_gates=rng.randint(1, max(1, gates // 2)))
        capped = cap_fanin(c)
        ok = (
            collapse(capped) == collapse(c)
            and max(len(g.preds) for g in capped.gates) <= n
            and capped.wire_count() <= c.wire_count()
            and cap_fanin(capped) == capped
        )
        if not ok:
            failures += 1
            if witness is None:
                witness = _witness("fanin-cap", general_to_text(c), None, s)
    return CheckResult("fanin-cap", trials, failures, time.time() - t0, witness=witness)


def run_weak_vs_full(trials: int = 200, n_max: int = 8, seed: int = 45) -> CheckResult:
    """For all-parity circuits, unit-vector agreement must equal full equality."""
    t0 = time.time()
    failures = 0
    witness = None
    for t in range(trials):
        s = _trial_seed(seed, t)
        rng = random.Random(s)
        n = rng.randint(2, n_max)
        r = rng.randint(1, 12)
        c = random_linear_circuit(n, r, rng.uniform(0.2, 0.8), seed=s)
        if rng.random() < 0.5:
            a = c.operator_matrix()  # agreeing pair
        else:
            a = random_matrix(n, n, rng.uniform(0.2, 0.8), seed=s + 1)
        weak = weakly_computes(c, a)
        full = equivalent(c, LinearDepth2Circuit.from_matrix(a))
        if weak != full:
            failures += 1
            if witness is None:
                witness = _witness("weak-vs-full", depth2_to_text(c.to_depth2()), None, s)
    return CheckResult("weak-vs-full", trials, failures, time.time() - t0, witness=witness)


def run_gf2_oracles(trials: int = 1000, dim_max: int = 12, seed: int = 46) -> CheckResult:
    """Bitset kernels vs naive list-of-list Gaussian elimination."""
    t0 = time.time()
    failures = 0
    witness = None
    for t in range(trials):
        s = _trial_seed(seed, t)
        rng = random.Random(s)
        rows_n = rng.randint(1, dim_max)
        cols_n = rng.randint(1, dim_max)
        m = random_matrix(rows_n, cols_n, rng.uniform(0.1, 0.9), seed=s)
        lists = [list(m.row(i).coords()) for i in range(rows_n)]

        ok = rank(m) == naive_rank(lists)

        chosen = first_basis_columns(m)
        if ok and len(chosen) != naive_rank(lists):
            ok = False
        if ok:
            cols = _columns(lists)
            kept: list[list[int]] = []
            for j in range(cols_n):
                gain = naive_rank(kept + [cols[j]]) > naive_rank(kept)
                if gain != (j in chosen):
                    ok = False
                    break
                if gain:
                    kept.append(cols[j])

        if ok and chosen:
            basis = [m.column(j) for j in chosen]
            picks = [k for k in range(len(basis)) if rng.random() < 0.5]
            y = Gf2Vector.zero(rows_n)
            for k in picks:
                y = y ^ basis[k]
            lam = solve_in_span(basis, y)
            back = Gf2Vector.zero(rows_n)
            for k, bit in enumerate(lam):
                if bit:
                    back = back ^ basis[k]
            ok = back == y and lam == tuple(1 if k in picks else 0 for k in range(len(basis)))

        if ok:
            v = Gf2Vector(cols_n, rng.getrandbits(cols_n))
            ok = list(matvec(m, v).coords()) == naive_matvec(lists, list(v.coords()))

        if not ok:
            failures += 1
            if witness is None:
                witness = _witness("gf2-oracle", repr(m), None, s)

    # exhaustive matvec sweep against the double loop, all dims <= 8
    for rows_n in range(1, 9):
        for cols_n in range(1, 9):
            m = random_matrix(rows_n, cols_n, 0.5, seed=_trial_seed(seed, rows_n * 16 + cols_n))
            lists = [list(m.row(i).coords()) for i in range(rows_n)]
            for xb in range(1 << cols_n):
                v = Gf2Vector(cols_n, xb)
                if list(matvec(m, v).coords()) != naive_matvec(lists, list(v.coords())):
                    failures += 1
                    if witness is None:
                        witness = _witness("matvec-exhaustive", repr(m), v, seed)
    return CheckResult("gf2-oracles", trials, failures, time.time() - t0, witness=witness)


def run_counting_bounds() -> CheckResult:
    """Size and growth laws of the general counting bound, plus table stability."""
    t0 = time.time()
    failures = 0
    notes = []
    values = {}
    for n in (8, 16, 32, 64, 128):
        values[n] = bounds_mod.min_wires_lower_bound(n)
        if not values[n] <= n * n:
            failures += 1
    for n in (8, 16, 32, 64):
        if values[2 * n] < 2 * values[n]:
            failures += 1
            notes.append(f"growth violated at n={n}")
    if bounds_mod.bounds_table() != bounds_mod.bounds_table():
        failures += 1
        notes.append("table emission not deterministic")
    notes.insert(0, "L_star_general " + " ".join(f"{n}:{values[n]}" for n in sorted(values)))
    return CheckResult("counting-bounds", 1, failures, time.time() - t0, notes=tuple(notes))


def run_linear_counting() -> CheckResult:
    """n^2/log n shape: the scaled bound stays inside the frozen interval."""
    t0 = time.time()
    lo, hi = bounds_mod.LINEAR_RATIO_INTERVAL
    failures = 0
    notes = []
    for n in (16, 32, 64, 128, 256):
        k = n.bit_length() - 1
        ratio = bounds_mod.linear_circuit_lower_bound(n) * k / (n * n)
        notes.append(f"n={n} ratio={ratio:.6f}")
        if not lo <= ratio <= hi:
            failures += 1
    return CheckResult("linear-counting", 1, failures, time.time() - t0, notes=tuple(notes))


def run_all(trials: int = 500, n_max: int = 8, seed: int = 42) -> list[CheckResult]:
    """The full battery; smaller batches reuse the main trial count.  Trials
    draw n from ``N_MIN`` to ``n_max`` and sweep all 2**n inputs, so an
    ``n_max`` below ``N_MIN`` (NMaxError) or above the exhaustive cap
    (ExhaustiveCapError) is refused before any trial runs."""
    if n_max < N_MIN:
        raise NMaxError(f"must be at least {N_MIN}, got {n_max}")
    check_exhaustive(n_max)
    small = max(1, (2 * trials) // 5)
    lin, stages = run_linearization(trials, n_max, seed)
    return [
        lin,
        stages,
        run_codec(trials, n_max, seed + 1),
        run_fanin_cap(small, n_max, seed + 2),
        run_counting_bounds(),
        run_linear_counting(),
        run_weak_vs_full(small, n_max, seed + 3),
        run_gf2_oracles(2 * trials, 12, seed + 4),
    ]
