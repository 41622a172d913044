"""Seeded verification battery.

Every randomized check is a trial function run by one loop, ``_trials``:
trial t draws everything from its own seed ``_trial_seed(seed, t)``, so
the battery is deterministic in its seed.  Trials compare against
exhaustive sweeps or independently implemented oracles.  A check keeps
the witness of its first failing trial: ``failed=`` the failure kind,
``seed=`` the trial seed, ``input=`` the offending input where one is
known, ``error=`` the exception where the trial raised one, then
``circuit:`` and the circuit (or matrix) the trial drew.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import bounds as bounds_mod
from ._kernels import check_exhaustive
from .circuit import (
    NotLinearError,
    collapse,
    depth2_to_text,
    general_to_text,
    operator_table_of_matrix,
    weak_counterexample,
)
from .compress import bit_length, decode_matrix, deserialize, encode, serialize
from .generators import (
    linear_middle_instance,
    linear_output_instance,
    random_general,
    random_linear_circuit,
    random_matrix,
)
from .gf2 import Gf2Vector, echelon, matvec
from .transforms import cap_fanin, linearize

_SEED_STRIDE = 1_000_003  # trial t of a run seeded s draws from s * stride + t
N_MIN = 3  # the smallest n the linearize and codec trials draw


class NMaxError(ValueError):
    """An ``n_max`` below ``N_MIN``: the trials would have no n to draw."""


class TrialsError(ValueError):
    """A trial count below 1: the randomized checks would check nothing."""


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


def _witness(kind: str, text: str, x: Gf2Vector | None, seed: int, error: str | None = None) -> str:
    parts = [f"failed={kind}", f"seed={seed}"]
    if x is not None:
        parts.append(f"input={x}")
    if error is not None:
        parts.append(f"error={error}")
    return "\n".join(parts) + "\ncircuit:\n" + text


# ---------------------------------------------------------------------------
# independent oracles (list-of-list arithmetic, no bitsets)

def naive_matvec(rows: list[list[int]], v: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, v)) % 2 for row in rows]


# ---------------------------------------------------------------------------
# batteries

def _trials(names: dict[str, str], trials: int, seed: int, draw, check, text) -> tuple[CheckResult, ...]:
    """One result per check in ``names`` (check name -> witness kind).

    Trial t draws its instance with ``draw(random.Random(s), s)``,
    s = _trial_seed(seed, t), then runs ``check(instance)``, which
    returns None on a pass, else (check name, input or None);
    ``text(instance)`` is the circuit its witness carries.  A check that
    raises, as a pass whose own proof fails does, fails the first check
    in ``names``: its witness adds ``error=`` with the exception's type
    and message, and for NotLinearError the input it names.  The loop's
    time goes to the first check, 0.0 to the others.
    """
    t0 = time.time()
    first = next(iter(names))
    failures = dict.fromkeys(names, 0)
    witness: dict[str, str | None] = dict.fromkeys(names)
    for t in range(trials):
        s = _trial_seed(seed, t)
        instance = draw(random.Random(s), s)
        error = None
        try:
            failed = check(instance)
        except Exception as e:  # any fault inside a trial fails its check
            error = f"{type(e).__name__}: {e}"
            failed = first, Gf2Vector(e.n, e.x) if isinstance(e, NotLinearError) else None
        if failed is not None:
            name, x = failed
            failures[name] += 1
            if witness[name] is None:
                witness[name] = _witness(names[name], text(instance), x, s, error)
    elapsed = time.time() - t0
    return tuple(
        CheckResult(name, trials, failures[name], elapsed if k == 0 else 0.0, witness=witness[name])
        for k, name in enumerate(names)
    )


def _depth2_text(instance) -> str:
    return depth2_to_text(instance[0])


def run_linearization(trials: int, n_max: int, seed: int) -> tuple[CheckResult, CheckResult]:
    """End-to-end linearization equivalence/budget, plus per-stage accounting
    of the two stage circuits ``linearize`` built and read its result off;
    the result and both stages are compared with one sweep of the input."""

    def draw(rng: random.Random, s: int):
        n = rng.randint(N_MIN, n_max)
        r = rng.randint(1, 12)
        return linear_output_instance(n, r, rng.uniform(0.2, 0.8), seed=s)

    def check(instance):
        c, planted = instance
        n = c.n
        table = collapse(c)
        lin, rep = linearize(c)
        if collapse(lin) != table or not rep.within_budget or lin.operator_matrix() != planted:
            return "linearize", None
        s1, s2 = rep.stages
        if (
            s1.wire_count() - c.wire_count() > n
            or s2.wire_count() - s1.wire_count() > n
            or s2.first_level_wires() > s1.first_level_wires()
            or lin.first_level.popcount() > s2.first_level_wires()
            or collapse(s1) != table
            or collapse(s2) != table
        ):
            return "stage-budgets", None
        return None

    return _trials(
        {"linearize": "linearize-equivalence-or-budget", "stage-budgets": "stage-budget-or-equivalence"},
        trials, seed, draw, check, _depth2_text,
    )


def run_codec(trials: int, n_max: int, seed: int) -> CheckResult:
    """Encode/decode roundtrip, matrix recovery, length law, serialization."""

    def draw(rng: random.Random, s: int):
        n = rng.randint(N_MIN, n_max)
        r = rng.randint(1, 12)
        return linear_middle_instance(n, r, rng.uniform(0.2, 0.8), seed=s)

    def check(instance):
        c, planted = instance
        enc = encode(c)
        decoded = decode_matrix(enc)
        bad_x = operator_table_of_matrix(decoded).first_difference(collapse(c))
        if bad_x is not None:
            return "codec", Gf2Vector(c.n, bad_x)
        w = enc.field_width()
        length_max = 96 + 16 * c.n + 2 * enc.wire_count() * w + sum(len(b) for b in enc.basis_bits)
        if decoded != planted or deserialize(serialize(enc)) != enc or bit_length(enc) > length_max:
            return "codec", None
        return None

    return _trials({"codec": "codec-roundtrip"}, trials, seed, draw, check, _depth2_text)[0]


def run_fanin_cap(trials: int, n_max: int, seed: int) -> CheckResult:
    """Fanin capping: semantics, fanin bound, wire monotonicity, idempotence."""

    def draw(rng: random.Random, s: int):
        n = rng.randint(2, n_max)
        gates = rng.randint(2, 8)
        return random_general(n, gates, seed=s, over_fanin_gates=rng.randint(1, max(1, gates // 2)))

    def check(c):
        capped = cap_fanin(c)
        if (
            collapse(capped) != collapse(c)
            or max(len(g.preds) for g in capped.gates) > c.n
            or capped.wire_count() > c.wire_count()
            or cap_fanin(capped) != capped
        ):
            return "fanin-cap", None
        return None

    return _trials({"fanin-cap": "fanin-cap"}, trials, seed, draw, check, general_to_text)[0]


def run_weak_vs_full(trials: int, n_max: int, seed: int) -> CheckResult:
    """For all-parity circuits, unit-vector agreement (matvec on unit
    vectors) must equal full equality: a kernel sweep of the circuit's
    depth-2 form, whose parity gates are row words, against x -> a*x on
    all 2**n inputs."""

    def draw(rng: random.Random, s: int):
        n = rng.randint(2, n_max)
        r = rng.randint(1, 12)
        c = random_linear_circuit(n, r, rng.uniform(0.2, 0.8), seed=s)
        if rng.random() < 0.5:
            return c, c.operator_matrix()  # agreeing pair
        return c, random_matrix(n, n, rng.uniform(0.2, 0.8), seed=s + 1)

    def check(instance):
        c, a = instance
        weak = weak_counterexample(c, a) is None
        if weak != (collapse(c.to_depth2()) == operator_table_of_matrix(a)):
            return "weak-vs-full", None
        return None

    return _trials(
        {"weak-vs-full": "weak-vs-full"}, trials, seed, draw, check,
        lambda instance: depth2_to_text(instance[0].to_depth2()),
    )[0]


def run_gf2_oracles(trials: int, dim_max: int, seed: int) -> CheckResult:
    """The elimination and matvec against naive list-of-list arithmetic."""

    def draw(rng: random.Random, s: int):
        rows_n = rng.randint(1, dim_max)
        cols_n = rng.randint(1, dim_max)
        m = random_matrix(rows_n, cols_n, rng.uniform(0.1, 0.9), seed=s)
        return m, Gf2Vector(cols_n, rng.getrandbits(cols_n))

    def check(instance):
        m, v = instance
        lists = [list(m.row(i).coords()) for i in range(m.rows)]
        # the first basis is the greedy one: each column not in the span of
        # the columns before it, by one elimination on the columns as lists
        basis: list[tuple[int, list[int]]] = []  # (pivot entry, reduced column)
        greedy = []
        for j, col in enumerate(zip(*lists)):
            col = list(col)
            for i, b in basis:
                if col[i]:
                    col = [a ^ c for a, c in zip(col, b)]
            if any(col):
                basis.append((col.index(1), col))
                greedy.append(j)
        kept = echelon(m.row_words)
        keys = sorted(low.bit_length() - 1 for low in kept)
        if keys != greedy:
            return "gf2-oracles", None
        # each kept row has its key as its lowest set bit
        rows = sorted(
            (low.bit_length() - 1, [(w >> j) & 1 for j in range(m.cols)]) for low, w in kept.items()
        )
        if any(row[:key + 1] != [0] * key + [1] for key, row in rows):
            return "gf2-oracles", None
        # the kept rows span every input row: reduced against them in key
        # order, each leaves nothing
        for row in lists:
            for key, w in rows:
                if row[key]:
                    row = [a ^ b for a, b in zip(row, w)]
            if any(row):
                return "gf2-oracles", None
        if list(matvec(m, v).coords()) != naive_matvec(lists, list(v.coords())):
            return "gf2-oracles", None
        return None

    t0 = time.time()
    result = _trials(
        {"gf2-oracles": "gf2-oracle"}, trials, seed, draw, check, lambda instance: repr(instance[0])
    )[0]
    # exhaustive matvec sweep against list arithmetic, all dims <= 8, x
    # ascending: from x - 1 to x the low t bits flip, t = 1 + the trailing
    # zeros of x, so the product flips by pref[t], the XOR of columns < t
    for rows_n in range(1, 9):
        for cols_n in range(1, 9):
            m = random_matrix(rows_n, cols_n, 0.5, seed=_trial_seed(seed, rows_n * 16 + cols_n))
            want = [0] * rows_n
            pref = [want]
            for col in zip(*(m.row(i).coords() for i in range(rows_n))):
                pref.append([a ^ b for a, b in zip(pref[-1], col)])
            for xb in range(1 << cols_n):
                if xb:
                    want = [a ^ b for a, b in zip(want, pref[(xb & -xb).bit_length()])]
                v = Gf2Vector(cols_n, xb)
                if list(matvec(m, v).coords()) != want:
                    result.failures += 1
                    if result.witness is None:
                        result.witness = _witness("matvec-exhaustive", repr(m), v, seed)
    result.elapsed = time.time() - t0
    return result


def run_counting() -> tuple[CheckResult, CheckResult]:
    """Both counting checks from one computation of the bounds table's rows.

    ``counting-bounds``: the general bound stays below n^2 and at least
    doubles with n, and a second computation of the rows equals the first.
    ``linear-counting``: the linear bound has the n^2/log n shape, its
    scaled value staying inside the frozen interval.  The time goes to
    the first check, 0.0 to the second.
    """
    t0 = time.time()
    rows = bounds_mod.bounds_rows()
    general = {n: g for n, g, _ in rows if n in (8, 16, 32, 64, 128)}
    failures = sum(1 for n, g in general.items() if not g <= n * n)
    notes = ["L_star_general " + " ".join(f"{n}:{g}" for n, g in general.items())]
    for n in (8, 16, 32, 64):
        if general[2 * n] < 2 * general[n]:
            failures += 1
            notes.append(f"growth violated at n={n}")
    if bounds_mod.bounds_rows() != rows:
        failures += 1
        notes.append("table emission not deterministic")

    lo, hi = bounds_mod.LINEAR_RATIO_INTERVAL
    linear_failures = 0
    linear_notes = []
    for n, _, linear in rows:
        if n in (16, 32, 64, 128, 256):
            k = n.bit_length() - 1
            ratio = linear * k / (n * n)
            linear_notes.append(f"n={n} ratio={ratio:.6f}")
            if not lo <= ratio <= hi:
                linear_failures += 1
    return (
        CheckResult("counting-bounds", 1, failures, time.time() - t0, notes=tuple(notes)),
        CheckResult("linear-counting", 1, linear_failures, 0.0, notes=tuple(linear_notes)),
    )


def run_all(trials: int = 500, n_max: int = 8, seed: int = 42) -> list[CheckResult]:
    """The full battery, and the one place its seeds and trial counts are
    set; smaller batches reuse the main trial count.  Trials draw n from
    ``N_MIN`` to ``n_max`` and sweep all 2**n inputs, so an ``n_max``
    below ``N_MIN`` (NMaxError) or above the exhaustive cap
    (ExhaustiveCapError), or fewer than one trial (TrialsError), is
    refused before any trial runs."""
    if trials < 1:
        raise TrialsError(f"must be at least 1, got {trials}")
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
        *run_counting(),
        run_weak_vs_full(small, n_max, seed + 3),
        run_gf2_oracles(2 * trials, 12, seed + 4),
    ]
