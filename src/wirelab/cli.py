"""Command-line harness.

Reports are line-oriented ``key=value`` text; the same seed and flags
always produce byte-identical output.  Exit status: 0 when all checks
pass, 1 on a failed verification (a replayable witness is printed), 2 on
usage errors: bad arguments (generator parameters included), input files
that are missing, unreadable or malformed (the message names the file
and, where the format has them, the line or bit offset), and inputs a
command cannot take, such as an ``encode`` circuit whose middle gates are
not parities or a ``linearize`` circuit whose output gates are not (the
message names the file too).
Failed verifications return 1 themselves; every error raised out of a
command is a usage error.  A command writes its ``--out`` file before it
prints its report, so a refused write prints no report.  The commands
that can sweep all 2**n inputs (``verify-equiv``, ``linearize``, ``encode``,
``cap-fanin``, ``suite``) accept n up to the fixed cap
``_kernels.EXHAUSTIVE_CAP`` (20), even where a sweep builds no value
vector (``verify-equiv`` of two circuits whose output forms cancel); a
larger circuit, a ``suite --n-max`` outside 3 to 20, or a ``suite
--trials`` below 1, is a usage error too.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import gf2, suite
from ._kernels import ExhaustiveCapError
from .circuit import (
    Depth2Circuit,
    GeneralCircuit,
    NotLinearError,
    depth2_from_text,
    depth2_to_text,
    first_difference,
    general_from_text,
    general_to_text,
    weak_counterexample,
)
from .compress import bit_length, decode, deserialize, encode, serialize
from .generators import (
    linear_middle_instance,
    linear_output_instance,
    random_depth2,
    random_general,
    random_linear_circuit,
    random_matrix,
)
from .gf2 import Gf2Vector
from .transforms import cap_fanin, linearize


class UsageError(Exception):
    """A bad argument or an unusable input file; exits 2."""


def _load(path: str, parse, binary: bool = False):
    """``parse`` applied to the contents of ``path``; a file that cannot
    be read or parsed is a usage error."""
    try:
        p = Path(path)
        return parse(p.read_bytes() if binary else p.read_text())
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from e
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from e


def _integer(token: str) -> int:
    """An integer option: an optional ASCII ``-``, then ASCII digits."""
    try:
        value = gf2.parse_decimal(token.removeprefix("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a decimal number, got {token!r}") from None
    return -value if token.startswith("-") else value


def _fraction(token: str) -> float:
    """A fraction option: ASCII digits with at most one ``.``."""
    if not (token.isascii() and token.replace(".", "", 1).isdigit()):
        raise argparse.ArgumentTypeError(f"expected a decimal fraction, got {token!r}")
    return float(token)


def _parse_x(text: str, n: int) -> Gf2Vector:
    if len(text) != n or set(text) - {"0", "1"}:
        raise UsageError(f"--x must be {n} characters of 0/1")
    return Gf2Vector.from_coords(int(ch) for ch in text)


def _parse_circuit(text: str) -> Depth2Circuit | GeneralCircuit:
    head = text.lstrip().split("\n", 1)[0].strip()
    if head == "depth2 v1":
        return depth2_from_text(text)
    if head == "general v1":
        return general_from_text(text)
    raise ValueError("no recognized circuit header")


def load_circuit(path: str) -> Depth2Circuit | GeneralCircuit:
    return _load(path, _parse_circuit)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _verdict(key: str, counterexample: Gf2Vector | None) -> int:
    """Print ``key=true`` and return 0, or print ``key=false`` and the
    counterexample and return 1."""
    if counterexample is None:
        print(f"{key}=true")
        return 0
    print(f"{key}=false\ncounterexample={counterexample}")
    return 1


def cmd_gen_matrix(args) -> int:
    cols = args.r if args.r is not None else args.n
    if min(args.n, cols) < 1:  # an empty side writes a file no command reads
        raise UsageError("--n and --r must be at least 1")
    m = random_matrix(args.n, cols, args.density, args.seed)
    _write_or_print(gf2.to_text(m), args.out)
    return 0


def cmd_gen_circuit(args) -> int:
    r = args.r if args.r is not None else args.n
    if args.matrix_out and args.family not in ("linear-output", "linear-middle"):
        raise UsageError("--matrix-out needs a planted family")  # before anything is written
    if args.family == "general":
        g = random_general(args.n, r, args.seed, over_fanin_gates=max(1, r // 2))
        _write_or_print(general_to_text(g), args.out)
        return 0
    if args.family == "random":
        c = random_depth2(args.n, r, args.density, args.seed)
    elif args.family == "linear":
        c = random_linear_circuit(args.n, r, args.density, args.seed).to_depth2()
    elif args.family == "linear-output":
        c, matrix = linear_output_instance(args.n, r, args.density, args.seed)
    else:
        c, matrix = linear_middle_instance(args.n, r, args.density, args.seed)
    _write_or_print(depth2_to_text(c), args.out)
    if args.matrix_out:
        Path(args.matrix_out).write_text(gf2.to_text(matrix))
    return 0


def cmd_eval(args) -> int:
    c = load_circuit(args.infile)
    x = _parse_x(args.x, c.n)
    print(f"y={c.eval(x)}")
    return 0


def cmd_verify_equiv(args) -> int:
    c1 = load_circuit(args.first)
    c2 = load_circuit(args.second)
    if c1.n != c2.n:
        raise UsageError("circuits have different input counts")
    x = first_difference(c1, c2)
    return _verdict("equivalent", None if x is None else Gf2Vector(c1.n, x))


def cmd_verify_weak(args) -> int:
    c = load_circuit(args.infile)
    a = _load(args.matrix, gf2.from_text)
    if (a.rows, a.cols) != (c.n, c.n):
        raise UsageError(f"{args.matrix}: matrix must be {c.n}-by-{c.n}, got {a.rows}-by-{a.cols}")
    return _verdict("weakly_computes", weak_counterexample(c, a))


def cmd_cap_fanin(args) -> int:
    c = load_circuit(args.infile)
    if not isinstance(c, GeneralCircuit):
        raise ValueError("cap-fanin expects a general circuit")
    capped = cap_fanin(c)
    if args.out:
        Path(args.out).write_text(general_to_text(capped))
    print(f"wires_before={c.wire_count()}")
    print(f"wires_after={capped.wire_count()}")
    print(f"max_fanin={max((len(g.preds) for g in capped.gates), default=0)}")
    return 0


def cmd_linearize(args) -> int:
    c = load_circuit(args.infile)
    if not isinstance(c, Depth2Circuit):
        raise ValueError("linearize expects a depth-2 circuit")
    try:
        lin, report = linearize(c)
    except NotLinearError as e:
        return _verdict("linear", Gf2Vector(c.n, e.x))
    # lin is all-parity, so it computes x -> Mx on every input
    ok = report.within_budget and lin.operator_matrix() == report.matrix
    if args.out:
        Path(args.out).write_text(depth2_to_text(lin.to_depth2()))
    print(f"wires_before={report.wires_before}")
    print(f"wires_after={report.wires_after}")
    print(f"added={report.added}")
    print(f"added_first_level={report.added_first_level}")
    print(f"added_second_level={report.added_second_level}")
    print(f"budget={report.budget}")
    print(f"ok={'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_encode(args) -> int:
    c = load_circuit(args.infile)
    if not isinstance(c, Depth2Circuit):
        raise ValueError("encode expects a depth-2 circuit")
    try:
        enc = encode(c)
    except NotLinearError as e:
        return _verdict("linear", Gf2Vector(c.n, e.x))
    data = serialize(enc)
    if args.out:
        Path(args.out).write_bytes(data)
    print(f"n={enc.n}")
    print(f"r={enc.r}")
    print(f"wires={enc.wire_count()}")
    print(f"bit_length={bit_length(enc)}")
    if args.hex:
        print(f"hex={data.hex()}")
    return 0


def cmd_decode(args) -> int:
    enc = _load(args.infile, deserialize, binary=True)
    z = decode(enc, _parse_x(args.x, enc.n))
    print(f"z={z}")
    return 0


def cmd_bounds(args) -> int:
    table = bounds_mod.bounds_table()
    if args.out:
        Path(args.out).write_text(table)
    if args.golden:
        golden = Path(args.golden)
        if not golden.exists():
            golden.write_text(table)
            print(f"golden_written={args.golden}")
            return 0
        if _load(args.golden, str) == table:
            print("golden_match=true")
            return 0
        print("golden_match=false")
        return 1
    if not args.out:
        sys.stdout.write(table)
    return 0


def cmd_suite(args) -> int:
    try:
        results = suite.run_all(args.trials, args.n_max, args.seed)
    except (ExhaustiveCapError, suite.NMaxError) as e:
        raise UsageError(f"--n-max: {e}") from e
    except suite.TrialsError as e:
        raise UsageError(f"--trials: {e}") from e
    failed = [r for r in results if not r.ok]
    for r in results:
        for line in r.report_lines():
            print(line)
    for r in failed:
        if r.witness:
            if args.out:
                path = Path(args.out) / f"witness_{r.name}.txt"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(r.witness + "\n")
                print(f"witness_file={path}")
            print(f"witness_{r.name}:")
            print(r.witness)
    print(f"suite_ok={'true' if not failed else 'false'}")
    return 0 if not failed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; parsing
    leaves it unchanged (each call gets a fresh Namespace)."""
    p = argparse.ArgumentParser(prog="wirelab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-matrix", help="random 0/1 matrix")
    sp.add_argument("--n", type=_integer, required=True, help="rows")
    sp.add_argument("--r", type=_integer, help="columns (default: n)")
    sp.add_argument("--density", type=_fraction, default=0.5)
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--out")

    sp = sub.add_parser("gen-circuit", help="random depth-2 circuit")
    sp.add_argument(
        "--family",
        choices=["random", "general", "linear", "linear-output", "linear-middle"],
        default="random",
    )
    sp.add_argument("--n", type=_integer, required=True)
    sp.add_argument("--r", type=_integer, help="middle gates (default: n)")
    sp.add_argument("--density", type=_fraction, default=0.5)
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--out")
    sp.add_argument("--matrix-out", help="also write the planted matrix")

    sp = sub.add_parser("eval", help="evaluate a circuit on one input")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--x", required=True, help="input bits, coordinate 0 first")

    sp = sub.add_parser("verify-equiv", help="exhaustive equivalence of two circuits")
    sp.add_argument("first")
    sp.add_argument("second")

    sp = sub.add_parser("verify-weak", help="agreement with a matrix on unit vectors")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--matrix", required=True)

    sp = sub.add_parser("cap-fanin", help="rewire gates of fanin > n to the inputs")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("linearize", help="all-parity form of a linear-output circuit")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("encode", help="succinct certificate of a parity-middle circuit")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")
    sp.add_argument("--hex", action="store_true", help="print the stream as hex")

    sp = sub.add_parser("decode", help="evaluate a certificate on one input")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--x", required=True)

    sp = sub.add_parser("bounds", help="wire lower-bound table")
    sp.add_argument("--out")
    sp.add_argument("--golden", help="write if missing, else compare byte for byte")

    sp = sub.add_parser("suite", help="full verification battery")
    sp.add_argument("--trials", type=_integer, default=500)
    sp.add_argument("--n-max", type=_integer, default=8)
    sp.add_argument("--seed", type=_integer, default=42)
    sp.add_argument("--out", help="directory for failure witnesses")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at each call, so a wrapper bound since the parser was built runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ValueError as e:
        # a refused input: name its file (verify-equiv's first; gen-* read none)
        where = getattr(args, "infile", None) or getattr(args, "first", None)
        print(f"error: {where}: {e}" if where else f"error: {e}", file=sys.stderr)
        return 2
    except (UsageError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
