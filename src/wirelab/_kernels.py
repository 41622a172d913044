"""Evaluation kernel: bitsliced sweeps over all 2**n inputs.

Circuits are evaluated on all 2**n inputs at once by manipulating
"value vectors": ints whose bit ``x`` holds a node's output on input
``x`` (input assignments are encoded with coordinate ``i`` taken from
bit ``i`` of ``x``).  Gates combine value vectors with big-int bitwise
ops, so the inner loop runs in C inside the int implementation.

A first pass gives every node an **affine form**, decided once per gate
from its table and its arguments' forms.  The form is a row word over
the inputs with a negation bit, and a mask over the sweep's *pieces*,
the non-parity gates that repeat no earlier one; it is one int, with
the negation bit at bit 0, input i at bit 1 + i and piece b at bit
1 + n + b.  The node computes the XOR of the inputs and pieces in its
form, complemented if bit 0 is set.

* **parity.**  A parity gate XORs its arguments' forms, so the rows
  combine and a piece that appears twice cancels.
* **merge.**  A non-parity gate is looked up by its arguments' forms and
  its table.  A gate that repeats an earlier one is that piece, and a
  gate whose table is the complement of an earlier one is that piece
  plus the negation bit; any other gate is a new piece.
* **fold.**  Arguments of equal forms (a repeated pred, or a gate and an
  identity gate on it) are folded into the first on the table itself
  (swap the repeat to the top variable, keep the half where it equals
  the first occurrence), a few ops on a 2**fanin-bit int, so a piece
  has distinct arguments; a table that folds to a parity is a parity
  gate on the distinct arguments.

The second pass builds a value vector only for an output, and for a
piece that some needed form still holds after cancellation: an
output's, or an argument's of a needed piece.  A sweep whose outputs
all cancel to zero builds no vector at all, not even the input masks.
A form's vector is the XOR of its inputs' masks and its pieces'
vectors, built once per sweep; a form of one input or one piece is that
vector itself.  A sweep uses the forms only when the vectors of the
forms it must build cost no more big-int XORs than XORing every parity
gate's argument vectors; otherwise it builds every gate in order, each
parity gate from its arguments' vectors.  A piece is built one of two
ways:

* **stretch.**  A piece whose preds are all inputs is its table
  tiled up to 2**n bits (``x |= x << w``), with at most fanin delta
  swaps against the input masks that move table variable k to input
  ``ps[k]``.  The sweep stretches a piece only when a work estimate from
  its fanin and its swaps (``_stretch_pays``) beats the mux tree's
  cost; a gate wired to inputs ``0..n-1`` in order, as every gate
  ``cap_fanin`` rewires, is its table.
* **mux tree** (``_mux_tree``) for every other piece: each table nibble
  is looked up as one of 16 functions of the first two arguments, so the
  tree does 2**(fanin-2) - 1 merges, the lowest 2**(fanin-3) of them
  with a looked-up ``lo ^ hi``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .gf2 import bit_indices

BACKEND = "python"
EXHAUSTIVE_CAP = 20


class ExhaustiveCapError(ValueError):
    """An exhaustive sweep over 2**n inputs with n above ``EXHAUSTIVE_CAP``."""


def check_exhaustive(n: int) -> None:
    """Raise ExhaustiveCapError unless a sweep over 2**n inputs is allowed."""
    if n > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(f"exhaustive evaluation capped at n={EXHAUSTIVE_CAP}, got n={n}")


def variable_mask(i: int, n: int) -> int:
    """Value vector of input coordinate ``i`` over all 2**n assignments."""
    period = 1 << (i + 1)
    total = 1 << n
    m = ((1 << (1 << i)) - 1) << (1 << i)
    while period < total:
        m |= m << period
        period <<= 1
    return m


@lru_cache(maxsize=1)
def input_vectors(n: int) -> tuple[tuple[int, ...], int]:
    """Value vectors of the n input coordinates and the all-ones vector,
    built once per n; a sweep fetches them before its first vector, and
    the cap is checked before the first 2**n-bit int is built."""
    check_exhaustive(n)
    return tuple(variable_mask(i, n) for i in range(n)), (1 << (1 << n)) - 1


def parity_candidate(table: int, fanin: int) -> tuple[int, int]:
    """Mask of arguments and negation bit of the parity that agrees with
    ``table`` on the all-zero and all unit assignments."""
    neg = table & 1
    mask = 0
    for k in range(fanin):
        if ((table >> (1 << k)) & 1) ^ neg:
            mask |= 1 << k
    return mask, neg


def parity_table(fanin: int, mask: int, neg: int) -> int:
    """Truth table of XOR over the arguments in ``mask``, complemented if ``neg``."""
    t = neg
    width = 1
    for k in range(fanin):
        half = ~t & ((1 << width) - 1) if (mask >> k) & 1 else t
        t |= half << width
        width <<= 1
    return t


def parity_of(table: int, fanin: int) -> tuple[int, int] | None:
    """``parity_candidate`` of the table if the table is that parity, else None."""
    ones = table.bit_count()
    if ones and ones != 1 << fanin and ones << 1 != 1 << fanin:  # neither constant nor balanced
        return None
    mask, neg = parity_candidate(table, fanin)
    return (mask, neg) if table == parity_table(fanin, mask, neg) else None


def _xor(vecs, neg: int, full: int) -> int:
    """XOR of value vectors, complemented if ``neg``; one XOR per vector
    after the first."""
    it = iter(vecs)
    acc = next(it, 0)
    for v in it:
        acc ^= v
    return acc ^ full if neg else acc


def row_vector(n: int, row: int, neg: int) -> int:
    """Value vector of the XOR of the inputs in ``row``, complemented if ``neg``."""
    masks, full = input_vectors(n)
    return _xor((masks[i] for i in range(row.bit_length()) if (row >> i) & 1), neg, full)


def apply_table(table: int, argvecs: list[int], full: int) -> int:
    """Value vector of a gate given its table and argument value vectors."""
    parity = parity_of(table, len(argvecs))
    if parity is not None:
        mask, neg = parity
        return _xor((v for k, v in enumerate(argvecs) if (mask >> k) & 1), neg, full)
    return _mux_tree(table, argvecs, full)


# The functions of (v0, v1) named by nibbles 1..7 of a table: bit
# v0 + 2 * v1 of the nibble is the value there.  Nibble 0 is the zero
# vector, and nibble 15 - k is the complement of nibble k.
_NIBBLES = (
    None,
    lambda v0, v1, full: full ^ (v0 | v1),
    lambda v0, v1, full: v0 ^ (v0 & v1),
    lambda v0, v1, full: full ^ v1,
    lambda v0, v1, full: v1 ^ (v0 & v1),
    lambda v0, v1, full: full ^ v0,
    lambda v0, v1, full: v0 ^ v1,
    lambda v0, v1, full: full ^ (v0 & v1),
)


def _byte_plan(byte: int) -> tuple[int, int, int]:
    """How ``_mux_tree`` builds the level-3 node of one table byte from the
    kept leaves: the leaf of its low nibble, the leaf of the XOR of its
    two nibbles, and the complements to apply (bit 1: of the low nibble,
    bit 0: of the XOR)."""
    low, diff = byte & 15, (byte & 15) ^ (byte >> 4)
    return min(low, 15 - low), min(diff, 15 - diff), (low > 7) << 1 | (diff > 7)


_BYTE_PLANS = tuple(_byte_plan(b) for b in range(256))


def _mux_tree(table: int, argvecs: list[int], full: int) -> int:
    """Shannon expansion of a table with at least one argument.

    Node ``j`` of level ``k`` is the gate restricted to table bits
    ``[j * 2**k, (j + 1) * 2**k)``.  Nodes ``lo = 2j`` and ``hi = 2j + 1``
    of level ``k`` merge on argument ``k`` into ``lo ^ ((lo ^ hi) & v)``.

    A level-2 node is a table nibble, which names one of 16 functions of
    the first two arguments (v0, v1).  Each is built on its first use,
    and of a complementary pair (nibbles k and 15 - k) only k < 8 is
    kept, its partner one XOR with ``full`` away.  Nibble functions XOR
    as their nibbles do, so a level-3 node, a table byte with nibbles
    ``lo`` and ``hi``, is ``L(lo) ^ (L(lo ^ hi) & v2)``: two lookups and
    at most three ops, where a merge takes three.  A gate of fanin 2
    reads the zero vector as its third argument.

    Level-3 nodes are made in order and merged like a binary counter, so
    each level holds at most one pending vector, and a slot is cleared
    once merged: besides the arguments, memory stays at fanin - 2
    pending vectors, 7 leaves and ``full ^ v2``, not 2**(fanin-3) nodes.
    """
    fanin = len(argvecs)
    if fanin == 1:
        return (0, full ^ argvecs[0], argvecs[0], full)[table & 3]
    v0, v1, v2 = argvecs[0], argvecs[1], argvecs[2] if fanin > 2 else 0
    fixes = (0, v2, full, full ^ v2)
    leaves = [0] + [None] * 7
    top = max(fanin, 3)
    pending = [0] * (top + 1)
    for j, byte in enumerate(table.to_bytes(((1 << fanin) + 7) >> 3, "little")):
        low, diff, fix = _BYTE_PLANS[byte]
        acc = leaves[low]
        if acc is None:
            acc = leaves[low] = _NIBBLES[low](v0, v1, full)
        if diff:
            d = leaves[diff]
            if d is None:
                d = leaves[diff] = _NIBBLES[diff](v0, v1, full)
            acc ^= d & v2
        if fix:
            acc ^= fixes[fix]
        level = 3
        while j & 1:
            lo = pending[level]
            pending[level] = 0
            if lo != acc:
                acc = lo ^ ((lo ^ acc) & argvecs[level])
            j >>= 1
            level += 1
        pending[level] = acc
    return pending[top]


def _swap(x: int, i: int, j: int, mi: int, mj: int) -> int:
    """Delta swap of variables ``i < j`` of the function whose bit b is
    bit b of ``x``; ``mi`` and ``mj`` are the variables' masks, and may
    be longer than ``x``."""
    delta = (1 << j) - (1 << i)
    t = (x ^ (x >> delta)) & mi
    t ^= t & mj  # the lower bit of each swapped pair: bit i set, bit j clear
    return x ^ t ^ (t << delta)


def _fold(table: int, ps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The same gate with every repeated argument folded into its first
    occurrence; ``ps`` names the arguments, by node or by affine form."""
    ps = list(ps)
    first: dict[int, int] = {}
    k = 0
    while k < len(ps):
        f = first.setdefault(ps[k], k)
        if f == k:
            k += 1
            continue
        top = len(ps) - 1
        if k != top:  # the repeat becomes the top variable
            table = _swap(table, k, top, variable_mask(k, top + 1), variable_mask(top, top + 1))
            ps[k] = ps[top]
        ps.pop()
        half = 1 << top
        lo, hi = table & ((1 << half) - 1), table >> half
        table = lo ^ ((lo ^ hi) & variable_mask(f, top))  # hi where the first occurrence is 1
    return table, tuple(ps)


def _stretch_pays(ps, n: int) -> bool:
    """Whether a stretch of a gate on distinct inputs ``ps`` costs less
    than its mux tree.

    In units of one mux merge on whole vectors, the mux tree costs about
    2**(fanin-2): 2**(fanin-3) table bytes of at most three ops each,
    and 2**(fanin-3) - 1 merges of three.  The stretch
    costs about 1 for the tiling, and each table variable k not already
    at input ``ps[k]`` at most one swap: 1 for its interpreter overhead
    plus 4 * 2**j / 2**n for its big-int ops, where j = max(ps[k],
    fanin - 1) is the swap's top position.  The constants were fitted on
    timings of both forms at n = 6..16 and fanin 2..11 (CPython 3.11 on
    a 2-CPU x86-64 host).
    """
    top = len(ps) - 1
    moves = work = 0
    for k, p in enumerate(ps):
        if p != k:
            moves += 1
            work += 1 << max(p, top)
    return ((1 + moves) << n) + 4 * work < 1 << (n + top - 1)


def _stretch(table: int, ps, n: int, masks) -> int:
    """Value vector of a gate on distinct inputs ``ps`` from its table.

    Positions ``len(ps)..n-1`` start out holding variables the table
    ignores.  Delta swaps move table variable k to input ``ps[k]``, in the
    order of the targets, so a swap with top position j touches nothing
    above ``max(j, len(ps) - 1)``: the ignored inputs are tiled on top only
    as far as the next swap needs, and early swaps work on short ints.
    """
    at = list(range(n))  # the variable at each position
    where = list(range(n))  # the position of each variable
    x = table
    width = 1 << len(ps)
    for p, k in sorted(zip(ps, range(len(ps)))):
        q = where[k]
        if q == p:
            continue
        i, j = (p, q) if p < q else (q, p)
        while width <= 1 << j:
            x |= x << width
            width <<= 1
        x = _swap(x, i, j, masks[i], masks[j])
        other = at[p]
        at[p], at[q] = k, other
        where[k], where[other] = p, q
    total = 1 << n
    while width < total:
        x |= x << width
        width <<= 1
    return x


def _sweep(n: int, preds, tables, outputs=None) -> list[int]:
    """Value vectors of the nodes in ``outputs`` (every node by default):
    the n inputs, then each gate in order; gate arguments index the nodes
    before it.

    The first pass gives each node its affine form (see the module
    docstring); the second builds the pieces that the needed forms hold,
    then the forms themselves.  The cap is checked first, and the input
    masks are fetched only when a vector is built.  Both public entry
    points call this directly and never each other, so a wrapper
    installed on one of them sees each sweep exactly once.
    """
    check_exhaustive(n)
    forms = [2 << i for i in range(n)]
    # in node order, per parity gate: (its form, its argument nodes, None,
    # its negation bit); per piece: (its form, its argument forms, its
    # table, its preds)
    plan = []
    pieces = []  # the plan's pieces: non-parity gates that repeat no earlier one
    first = {}  # (argument forms, table or its complement, bit 0 clear) -> first gate's form | its bit 0
    arg_xors = 0  # XORs that building every parity gate from its arguments takes
    for ps, t in zip(preds, tables):
        d = len(ps)
        parity = parity_of(t, d)
        if parity is None:
            fs = tuple([forms[p] for p in ps])
            if len(set(fs)) < d:
                t, fs = _fold(t, fs)
                d = len(fs)
                parity = parity_of(t, d)
                if parity is not None:  # the folded gate's arguments as nodes
                    at = {forms[p]: p for p in ps}
                    ps = [at[f] for f in fs]
        if parity is not None:  # repeated arguments cancel in the XOR
            mask, neg = parity
            if mask + 1 != 1 << d:
                ps = [p for k, p in enumerate(ps) if (mask >> k) & 1]
            form = neg
            for p in ps:
                form ^= forms[p]
            plan.append((form, ps, None, neg))
            arg_xors += len(ps)
        else:
            low = t & 1
            key = (fs, t ^ ((1 << (1 << d)) - 1) if low else t)
            form = 2 << (n + len(pieces))
            known = first.setdefault(key, form | low)
            if known == form | low:
                piece = (form, fs, t, ps)
                pieces.append(piece)
                plan.append(piece)
            else:
                form = known ^ low
        forms.append(form)
    outs = [forms[o] for o in (range(len(forms)) if outputs is None else outputs)]
    if not any(outs):  # every output cancelled to the zero vector
        return outs

    need = 0  # bits of the pieces that some needed form holds
    for f in outs:
        need |= f
    needed = set(outs)
    for form, fs, _, _ in reversed(pieces):
        if need & form:
            needed.update(fs)
            for f in fs:
                need |= f
    todo = pieces
    if sum((f >> 1).bit_count() for f in needed if f & (f - 1)) > arg_xors:
        todo, need = plan, -1  # build every gate, each parity gate from its arguments

    masks, full = input_vectors(n)
    vecs = list(masks) + [None] * len(pieces)  # the inputs, then the pieces
    cache = dict(zip(forms, masks))
    get = cache.get

    def vector(f: int) -> int:
        v = get(f)
        if v is None:
            v = cache[f] = _xor([vecs[i] for i in bit_indices(f >> 1)], f & 1, full)
        return v

    for form, args, t, x in todo:
        if t is None:  # a parity gate on nodes args; x is its negation bit
            if form not in cache:
                cache[form] = _xor([vector(forms[p]) for p in args], x, full)
        elif need & form:  # a piece on argument forms args
            if max(x) < n:  # preds x are inputs, so its arguments are distinct inputs
                ins = [f.bit_length() - 2 for f in args]
                if _stretch_pays(ins, n):
                    v = _stretch(t, ins, n, masks)
                else:
                    v = _mux_tree(t, [masks[i] for i in ins], full)
            else:
                v = _mux_tree(t, [get(f) or vector(f) for f in args], full)
            vecs[form.bit_length() - 2] = cache[form] = v
    return [get(f) or vector(f) for f in outs]


def node_vectors_general(
    n: int, preds: list[tuple[int, ...]], tables: list[int], *, outputs=None
) -> list[int]:
    """Value vectors of the nodes in ``outputs``, or of every node (inputs
    first, then gates in order); a gate no needed form holds is not built."""
    return _sweep(n, preds, tables, outputs)


def output_vectors_depth2(
    n: int,
    mid_inputs: list[tuple[int, ...]],
    mid_tables: list[int],
    out_mids: list[tuple[int, ...]],
    out_directs: list[tuple[int, ...]],
    out_tables: list[int],
) -> list[int]:
    """Per-output value vectors of a depth-2 circuit over all 2**n inputs.

    No library code calls this: ``collapse`` sweeps a depth-2 circuit's
    node view through ``node_vectors_general``.  Only the benchmark
    (``perfbench``'s tracer and kernel timings) calls it."""
    # middle gate j is node n + j; an output reads its middle gates, then its direct inputs.
    # Lists, not generator expressions: with a generator per output, peak RSS grew
    # with every repeated sweep at n = 18-20 (by about 2 MB over a few thousand).
    r = len(mid_inputs)
    out_args = [[n + j for j in ms] + list(ds) for ms, ds in zip(out_mids, out_directs)]
    outputs = range(n + r, n + r + len(out_args))
    return _sweep(n, chain(mid_inputs, out_args), chain(mid_tables, out_tables), outputs)
