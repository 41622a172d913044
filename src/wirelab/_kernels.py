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
A form's vector is built once per sweep, as the XOR of the vector of
the nearest form already built (``_nearest_first``: the fewest inputs,
pieces and negation bit apart) with the masks and piece vectors in
which the two differ, or from scratch, its inputs' masks and its
pieces' vectors, when that takes fewer XORs; a form of one input or one
piece is that vector itself.  A piece is built one of two ways:

* **stretch.**  A piece whose argument forms are all single inputs is
  its table tiled up to 2**n bits (``x |= x << w``), with at most fanin
  delta swaps against the input masks that move table variable k to
  the input of argument k.  An identity gate has its input's form, so a
  gate that reads inputs through identity gates stretches too.  The
  sweep stretches a piece only when a work estimate from its fanin and
  its swaps (``_stretch_pays``) beats the mux tree's cost; a gate wired
  to inputs ``0..n-1`` in order, as every gate ``cap_fanin`` rewires, is
  its table.
* **mux tree** (``_mux_tree``) for every other piece: each table nibble
  is looked up as one of 16 functions of the first two arguments, so the
  tree does 2**(fanin-2) - 1 merges, the lowest 2**(fanin-3) of them
  with a looked-up ``lo ^ hi``.

Whether a gate is a parity is decided once per distinct (table, fanin)
in a sweep, and never remembered across sweeps: ``read_parity`` copies
the table to bytes once, reads the candidate off bits 2**k and compares
the bytes with the candidate's, which it builds by copying bytes.  The
input masks of the largest n built so far are kept (``input_vectors``):
a smaller n gets them ANDed with its all-ones vector, so a run that
moves between n = 18, 19 and 20 builds each mask once.
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


_widest: tuple[tuple[int, ...], int] = ((), 1)  # input_vectors of the largest n built so far


@lru_cache(maxsize=1)
def input_vectors(n: int) -> tuple[tuple[int, ...], int]:
    """Value vectors of the n input coordinates and the all-ones vector.

    The masks of the largest n built so far are kept: a smaller n gets
    them ANDed with its all-ones vector, and that n gets the kept tuple
    itself, so a run that moves between n = 18, 19 and 20 builds each
    mask once.  A sweep fetches them before its first vector, and the
    cap is checked before the first 2**n-bit int is built."""
    global _widest
    check_exhaustive(n)
    if len(_widest[0]) < n:
        _widest = tuple(variable_mask(i, n) for i in range(n)), (1 << (1 << n)) - 1
    masks, full = _widest
    if len(masks) == n:
        return _widest
    full = (1 << (1 << n)) - 1
    return tuple([m & full for m in masks[:n]]), full


# Byte m is the table of XOR over the variables in mask m of variables
# 0..2: bit x of the byte is the parity of x & m.
_LOW_PARITY = (0x00, 0xAA, 0xCC, 0x66, 0xF0, 0x5A, 0x3C, 0x96)
_NOT = bytes(range(255, -1, -1))  # bytes.translate table of the complement


def _parity_bytes(fanin: int, mask: int, neg: int) -> bytes:
    """``parity_table`` of fanin >= 3 as 2**(fanin-3) little-endian bytes:
    byte 0 is the parity of variables 0..2, and each further variable k
    doubles the table, with the new half complemented if k is in ``mask``;
    the doublings copy bytes and touch no big int."""
    seq = bytes((_LOW_PARITY[mask & 7] ^ (255 if neg else 0),))
    for k in range(3, fanin):
        seq += seq.translate(_NOT) if (mask >> k) & 1 else seq
    return seq


def parity_table(fanin: int, mask: int, neg: int) -> int:
    """Truth table of XOR over the arguments in ``mask``, complemented if ``neg``."""
    if fanin < 3:
        return (_LOW_PARITY[mask] ^ (255 if neg else 0)) & ((1 << (1 << fanin)) - 1)
    return int.from_bytes(_parity_bytes(fanin, mask, neg), "little")


def read_parity(table: int, fanin: int) -> tuple[int, int, bool]:
    """Mask of arguments and negation bit of the parity that agrees with
    ``table`` on the all-zero and all unit assignments, and whether the
    table is that parity.

    The table is read once, as bytes: bit 2**k is bit 0 of byte
    2**(k-3) for k >= 3, and bits 1, 2 and 4 of byte 0 below that; the
    verdict compares those bytes with the parity's (``_parity_bytes``).
    """
    neg = table & 1
    flip = (1 << fanin) - 1 if neg else 0
    if fanin < 3:
        mask = ((table >> 1) & 3 | (table >> 2) & 4) ^ flip
        return mask, neg, table == parity_table(fanin, mask, neg)
    data = table.to_bytes(1 << (fanin - 3), "little")
    mask = 0
    for k in range(fanin - 1, 2, -1):
        mask = mask << 1 | data[1 << (k - 3)] & 1
    low = data[0]
    mask = (mask << 3 | (low >> 1) & 3 | (low >> 2) & 4) ^ flip
    return mask, neg, data == _parity_bytes(fanin, mask, neg)


def parity_of(table: int, fanin: int) -> tuple[int, int] | None:
    """``read_parity``'s mask and negation bit if the table is that parity, else None."""
    ones = table.bit_count()
    if ones and ones != 1 << fanin and ones << 1 != 1 << fanin:  # neither constant nor balanced
        return None
    mask, neg, exact = read_parity(table, fanin)
    return (mask, neg) if exact else None


def _xor(vecs, neg: int, full: int) -> int:
    """XOR of value vectors, complemented if ``neg``; one XOR per vector
    after the first."""
    it = iter(vecs)
    acc = next(it, 0)
    for v in it:
        acc ^= v
    return acc ^ full if neg else acc


def row_vector(n: int, row: int) -> int:
    """Value vector of the XOR of the inputs in ``row``."""
    masks, full = input_vectors(n)
    return _xor((masks[i] for i in range(row.bit_length()) if (row >> i) & 1), 0, full)


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


def _nearest_first(todo: list[int], built: list[int]) -> list[tuple[int, int]]:
    """An order in which to build the affine forms ``todo``, each from a
    form already built: pairs ``(f, g)``, f to be built as g's vector
    XORed with the vectors of the inputs and pieces in ``f ^ g``, or from
    scratch when g is 0.

    Building f from g takes ``(f ^ g).bit_count()`` big-int XORs, the
    negation bit counted; from scratch it takes one fewer than f's bits.
    Each step builds the form that is cheapest to reach from ``built`` or
    from the forms built before it (Prim's order over the distances), so
    rows that share most of their inputs are built one from another.
    """
    best = {f: (f.bit_count() - 1, 0) for f in todo}  # f -> (its cost, its source)
    order = []
    reached = built
    while best:
        for g in reached:
            for f, (cost, _) in best.items():
                c = (f ^ g).bit_count()
                if c < cost:
                    best[f] = c, g
        f = min(best, key=best.get)
        order.append((f, best.pop(f)[1]))
        reached = (f,)
    return order


def node_vectors_general(
    n: int, preds: list[tuple[int, ...]], tables: list[int], *, outputs=None
) -> list[int]:
    """Value vectors of the nodes in ``outputs``, or of every node: the n
    inputs, then each gate in order; gate arguments index the nodes
    before it, and a gate no needed form holds is not built.

    The first pass gives each node its affine form (see the module
    docstring); the second builds the pieces that the needed forms hold,
    then the forms themselves.  The cap is checked first, and the input
    masks are fetched only when a vector is built.
    """
    check_exhaustive(n)
    forms = [2 << i for i in range(n)]
    form_of = forms.__getitem__
    # per piece, in node order: (its form, its argument forms, its table)
    pieces = []  # non-parity gates that repeat no earlier one
    first = {}  # (argument forms, table or its complement, bit 0 clear) -> first gate's form | its bit 0
    decided = {}  # (table, fanin) -> parity_of: gates of one sweep often share a table
    for ps, t in zip(preds, tables):
        d = len(ps)
        key = t, d
        parity = decided.get(key, False)
        if parity is False:
            parity = decided[key] = parity_of(t, d)
        if parity is None:
            fs = tuple(map(form_of, ps))
            if len(set(fs)) < d:
                t, fs = _fold(t, fs)
                d = len(fs)
                parity = parity_of(t, d)
        else:
            fs = map(form_of, ps)  # read once, by the XOR below
        if parity is not None:  # repeated arguments cancel in the XOR
            mask, form = parity  # the negation bit, XORed with the forms in the mask
            if mask + 1 != 1 << d:
                fs = [f for k, f in enumerate(fs) if (mask >> k) & 1]
            for f in fs:
                form ^= f
        else:
            low = t & 1
            key = (fs, t ^ ((1 << (1 << d)) - 1) if low else t)
            form = 2 << (n + len(pieces))
            known = first.setdefault(key, form | low)
            if known == form | low:
                pieces.append((form, fs, t))
            else:
                form = known ^ low
        forms.append(form)
    outs = [forms[o] for o in (range(len(forms)) if outputs is None else outputs)]
    if not any(outs):  # every output cancelled to the zero vector
        return outs

    need = 0  # bits of the pieces that some needed form holds
    for f in outs:
        need |= f
    for form, fs, _ in reversed(pieces):
        if need & form:
            for f in fs:
                need |= f

    masks, full = input_vectors(n)
    cache = dict(zip(forms, masks))  # built vectors by form: input i at 2 << i, piece b at 2 << (n + b)
    get = cache.get
    built = []  # the forms of more than one bit in cache

    def vectors(fs) -> list[int]:
        """The vectors of forms ``fs``, each missing one built nearest first
        (see ``_nearest_first``)."""
        vs = [get(f) for f in fs]
        if None not in vs:
            return vs
        for f, g in _nearest_first([f for f in dict.fromkeys(fs) if f not in cache], built):
            d = f ^ g
            apart = [cache[2 << i] for i in bit_indices(d >> 1)]
            cache[f] = _xor([cache[g]] + apart if g else apart, d & 1, full)
            if f & (f - 1):
                built.append(f)
        return [cache[f] for f in fs]

    single = set(forms[:n])  # the forms of one input each, 2 << i
    for form, fs, t in pieces:
        if need & form:
            ins = [f.bit_length() - 2 for f in fs]  # its arguments' inputs, if each form is one input
            if single.issuperset(fs) and _stretch_pays(ins, n):
                cache[form] = _stretch(t, ins, n, masks)
            else:
                cache[form] = _mux_tree(t, vectors(fs), full)
    return vectors(outs)


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
    node view through ``node_vectors_general``, and so does this.  Only
    the benchmark's kernel timings call it, after its tracer is
    uninstalled: a traced call would also be counted as the
    ``node_vectors_general`` sweep inside it.  Its deletion waits for
    ROADMAP item 1b."""
    # middle gate j is node n + j; an output reads its middle gates, then its direct inputs.
    # Lists, not generator expressions: with a generator per output, peak RSS grew
    # with every repeated sweep at n = 18-20 (by about 2 MB over a few thousand).
    r = len(mid_inputs)
    out_args = [[n + j for j in ms] + list(ds) for ms, ds in zip(out_mids, out_directs)]
    outputs = range(n + r, n + r + len(out_args))
    preds, tables = chain(mid_inputs, out_args), chain(mid_tables, out_tables)
    return node_vectors_general(n, preds, tables, outputs=outputs)
