"""Vectorized kernels for the exhaustive searches.

Every sum of one term from each of a list of tables comes from one
blocked fold, `_fold`, which takes a batch of such lists at once: the
codeword scans, the push blocks and pull batches of the coset-leader
sweep all read it.  There is one codeword scan, `coset_blocks`: it
yields offset + c for every codeword c, and every codeword question reads
it.
`codewords()` takes the zero offset, and the codeword route of the
distance to v takes -v, so `distance_counts` histograms wt(c - v).
`orbit_blocks` visits one codeword per scalar orbit {c*x : c != 0} of the
nonzero messages, (q^k - 1)/(q - 1) of them, as the cosets row i + span
of rows 0..i-1; that is all a question invariant under scaling needs:
wt(c*x) = wt(x) and <u, c*x> = 0 iff <u, x> = 0.  `weight_counts`
histograms wt(x) over the orbits (the weight enumerator and d).  Every
kernel takes the code length n explicitly, so a generator or check with
no rows still has its length.

Layout: every block a fold builds from entry-valued parts is a
C-contiguous (entries, rows) array, entries first: a codeword block is
(n, rows), a syndrome block of the odd-q sweep (r*m, rows) base-p digits,
and the map's table of multiples (r*m, n, q).  Characteristic-2 syndromes
are packed ints with no entry axis.  numpy's inner loop runs along the
last axis, so every add, offset and weight count runs along up to
_BLOCK_ROWS rows, not along the n entries of one codeword or the r*m
digits of one syndrome: one offset XOR on a 16,384-row block of GF(16)^17
takes 84 us rows first and 10 us entries first.  Each part is built
contiguous, as a ufunc's output follows its inputs' memory order (a
transposed view is no faster than rows first), and codeword weights are
summed along the rows in a dtype that holds n.  The public functions that
take or return vectors keep rows and transpose at that edge.  `mat_vecs`
alone keeps (vectors, rows of M): a column's term for one vector is then
one contiguous row of its table, gathered whole, where entries first
every entry of it is gathered alone (entries first ran 1.3-2x slower on
60 rows of M x 59,049 vectors over GF(9), n = 5 and 10).

The kernels read each field's numpy arrays, `ctx._arrays` = (log, exp,
add), which the field builds with its tables: log(0) points past two
periods of exp into zeros, so no product needs a modulo or a zero test,
and add is the field's array addition, defined for every GF(q).  Every
table of field multiples comes from `_multiples`, and every sum of one
term per column, M v^T (`mat_vecs`) or a syndrome lookup, from
`_column_sums`.  `SyndromeMap` alone packs syndromes into leader-array
indices: the sweep builds one per parity check and hands it back, and a
covering report keeps it for every lookup and lex search.  In
characteristic 2 the encoding makes XOR field addition on packed
syndromes too, so the map packs before it sums; for odd q = p^m, m >= 2,
the terms are columns of base-p digits summed by GF(p)'s add, never packed
GF(p^m) encodings, and each sum is packed or turned back into entries
once.

The coset-leader sweep is a breadth-first search from syndrome 0 in the
graph whose edges add some c*h_j, c != 0: a leader weight is a distance
there.  It settles one weight layer at a time, in whichever direction
visits fewer vectors (direction-optimizing BFS).  Push enumerates the
C(n, w)(q-1)^(w-1) weight-w error vectors whose first nonzero entry is 1,
stacking the supports of a layer into blocks.  Pull takes the `left`
orbits still uncovered, one representative each, and tests its
neighbours s + c*h_j for leader weight w-1 column by column, q-1 at a
time, stopping at its first hit: between left*(q-1) and left*n*(q-1)
vectors, priced at left*(q-1).  Both work on scalar orbits: c*e has the
weight of e and the syndrome c*s for every c != 0, so one leader weight
holds on all of {c*s}, and each newly settled syndrome's weight goes to
its q-1 multiples.  Scaling acts on
each digit alone, so the multiples of a packed syndrome are the sums of its
digit blocks' multiples, read from one packed block table per sweep,
(q^a, q-1) int64 within 2^16 entries; a one-digit table fits up to
q = 256, and larger fields unpack each fresh syndrome into digits, scale
them and repack.  Both routes yield the syndromes they settle, and every
layer ends by counting the uncovered representatives.

Column-subset facts (the minor and column-span deep-hole criteria, the
support search for d, first dependent columns) come from one engine,
`subset_ranks`: it stacks the column subsets of one or many small
matrices into a (b, r, w) array and eliminates them all at once.  The MDS
layer does not: `_minors_nonzero` checks every square minor of the
systematic part A of [I_k | A], from the smaller ones by Laplace
expansion, which decides all C(n, k) k-column subsets with no
elimination.

The lexicographically first vectors of a weight per syndrome (deep-hole
representatives) come from `lex_first_weight_vectors`: a depth-first
search over prefixes that tests all completions of a prefix with its last
few nonzero entries in one batch, cut from one lexicographic table that
keeps each completion vector beside its syndrome.

The leader array, one uint8 per syndrome, is read in place, chunk by
chunk, apart from lookups at given indices: by the sweep's layer count and
its pull, and, finished, by `leader_counts` (how many syndromes hold each
weight) and `leader_positions` (where one weight sits).  It is never
widened to int64 or compared whole, so the sweep needs the array plus
temporaries within the bounds below.

Everything here is deterministic; three bounds cap memory only, past one
unit of work: _BLOCK_ROWS rows per block (fold, push, pull, expansion),
_CHUNK_BYTES bytes of int64 per subset chunk, minor-table chunk or
lex-search batch, and as many entries, _CHUNK_BYTES // 8, per chunk of the
leader array that its readers compare (a bool temporary of 128 KB, where
np.bincount would copy the whole array to int64, 8 bytes per syndrome),
and _SCALE_TABLE_ENTRIES entries per packed scaling table of the sweep.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import BudgetExceeded, InvariantViolation
from .field import _dtype_for, field_new

DEFAULT_BUDGET = 1 << 24
_BLOCK_ROWS = 1 << 14  # rows of a fold, push, pull or expansion block
_CHUNK_BYTES = 1 << 20  # int64 bytes of a subset, minor or lex-search chunk
_SCALE_TABLE_ENTRIES = 1 << 16  # int64: 512 KB


def _multiples(ctx, vectors):
    """out[i, c] = c * vectors[i] for every field element c."""
    log, exp, _ = ctx._arrays
    return exp[log[np.asarray(vectors)][:, None, :] + log[:, None]]


def _outer_sum(parts, add):
    """Every sum of one column from each part, the first part slowest, for
    each index of the batch axis: (..., b, rows_i) parts give a
    (..., b, prod rows_i) array.  The axis before the batch axis, if any,
    is the entry axis (none for packed syndromes).  Parts and sum are
    C-contiguous, and the sum grows from the last part back, each earlier
    part taking the slower place, so numpy's inner loop runs along the
    rows summed so far, not along the few rows of one part."""
    acc = parts[-1]
    for prev in reversed(parts[:-1]):
        acc = add(prev[..., :, None], acc[..., None, :]).reshape(
            *acc.shape[:-1], -1)
    return acc


def _fold(parts, add):
    """Yield, in index order and in blocks, every sum of one column from
    each part, the batch varying slowest, then the first part: each block
    a C-contiguous (..., rows) array, entries first.

    Parts are C-contiguous (..., b, rows) arrays, entries first: a batch of
    b lists of parts, of packed syndromes or of columns of entries or
    digits.  The trailing parts whose row counts times b multiply to at
    most _BLOCK_ROWS rows (at least the last part) are summed once into a
    block; each sum of the leading parts is then added to its batch's
    block as an offset, one entry per row of the block.
    """
    split = len(parts) - 1
    rows = parts[split].shape[-2] * parts[split].shape[-1]
    while split > 0 and rows * parts[split - 1].shape[-1] <= _BLOCK_ROWS:
        split -= 1
        rows *= parts[split].shape[-1]
    block = _outer_sum(parts[split:], add)
    if split == 0:
        yield block.reshape(*block.shape[:-2], -1)
        return
    lead = _outer_sum(parts[:split], add)
    for sums, offsets in zip(block.swapaxes(0, -2), lead.swapaxes(0, -2)):
        for offset in offsets.T:
            yield add(sums, offset[..., None])


def _terms(M_int, n: int, ctx):
    """The terms of M v^T as table[j, c], the column c * M[:, j], the add
    that sums them and the map from sums to rows of entries.  For p = 2
    or prime q the terms are the entries; else each entry's m base-p
    digits, digit j of entry i at mi+j, summed by GF(p)'s add."""
    r = len(M_int)
    p, m = ctx.p, ctx.m
    table = _multiples(ctx, np.array(M_int, dtype=np.int64).reshape(r, n).T)
    if p == 2 or m == 1:
        return table, ctx._arrays[2], np.asarray
    unit = p ** np.arange(m, dtype=table.dtype)
    digits = (table[..., None] // unit % p).reshape(n, ctx.q, r * m)
    return (digits.astype(_dtype_for(p), copy=False),
            field_new(p, 1)._arrays[2],
            lambda s: s.reshape(*s.shape[:-1], r, m) @ unit)


def _column_sums(table, add, vectors, axis: int):
    """sum_j table[j] at v_j by `add`, column by column, for every row v of
    `vectors` (encodings).  table[j] holds column j's term for every field
    element along `axis`, and the sums hold one term per vector there:
    (q, E) terms at axis 0 give (len(vectors), E) sums, (E, q) terms at
    axis -1 give (E, len(vectors)).  np.take gathers these faster than
    fancy indexing: about 2x for rows of terms, and up to 3x for columns
    of the few digits of a syndrome (past about 20 entries a column,
    fancy indexing wins)."""
    vectors = np.asarray(vectors, dtype=np.int64)
    shape = list(table.shape[1:])
    shape[axis] = len(vectors)
    acc = np.zeros(shape, table.dtype)
    for j in range(len(table)):
        acc = add(acc, table[j].take(vectors[:, j], axis=axis))
    return acc


class SyndromeMap:
    """Syndromes of the c * e_j under H (r rows, n columns) as
    table[..., j, c], entries first: an (r*m, n, q) array of the digits of
    `_terms` for odd q = p^m, m >= 2 (digit j of entry i at mi+j), of the
    entries for prime q, and for p = 2 an (n, q) array of packed syndromes
    (entry i times q^i).  Beside it the add that sums them and the maps
    from (..., count) sums to packed syndromes and back; odd q packs digit
    j of entry i as p^(mi+j)."""

    __slots__ = ("n", "q", "r", "table", "add", "pack", "unpack")

    def __init__(self, H_int, n: int, ctx):
        r = len(H_int)
        p, m = ctx.p, ctx.m
        self.n, self.q, self.r = n, ctx.q, r
        table, self.add, _ = _terms(H_int, n, ctx)
        radix = p ** np.arange(r * m, dtype=np.int64)
        if p == 2:
            # XOR on the packing is field addition: pack once, sum packed
            # ints, and packing and unpacking are the identity
            self.table = table.astype(np.int64) @ radix[::m]
            self.pack = self.unpack = np.asarray
        else:
            self.table = np.ascontiguousarray(table.transpose(2, 0, 1))
            # einsum sums along the columns; matmul's int64 loop would
            # stride down each column instead
            self.pack = lambda s: np.einsum("i,i...->...", radix, s)
            self.unpack = lambda s: \
                (s // radix[:, None] % p).astype(table.dtype)

    def packed(self, vectors):
        """Packed syndrome H v^T of every row v of `vectors` (encodings)."""
        return self.pack(_column_sums(self.table.swapaxes(0, -2), self.add,
                                      vectors, -1))


# ---------------------------------------------------------------------------
# Codeword enumeration
# ---------------------------------------------------------------------------

def coset_blocks(G_int, n: int, ctx, offset, budget=DEFAULT_BUDGET):
    """Yield offset + c for every codeword c of length n, the first row's
    coefficient slowest, in (n, rows) blocks, entries first, of at most
    max(_BLOCK_ROWS, q) rows; with no rows, the offset alone.  q^k counts
    against the budget first."""
    k = len(G_int)
    if ctx.q ** k > budget:
        raise BudgetExceeded(f"q^k = {ctx.q ** k} exceeds budget {budget}")
    offset = np.asarray(offset, dtype=_dtype_for(ctx.q)).reshape(n, 1, 1)
    rows = np.array(G_int, dtype=np.int64).reshape(k, n)
    # (k, n, 1, q): the multiples of each row, entries first, copied
    # contiguous so that every sum the fold builds from them is too
    multiples = np.ascontiguousarray(
        _multiples(ctx, rows).transpose(0, 2, 1)[:, :, None])
    yield from _fold([offset, *multiples], ctx._arrays[2])


def orbit_blocks(G_int, n: int, ctx, budget=DEFAULT_BUDGET):
    """Yield (n, rows) blocks, entries first, holding one codeword of length
    n per scalar orbit of the nonzero messages: those whose last nonzero
    coefficient, at the leading row i, is 1, that is row i plus the span of
    rows 0..i-1; no rows give none.  The q^k codewords the orbits stand for
    count against the budget, before any block is built."""
    k = len(G_int)
    if ctx.q ** k > budget:
        raise BudgetExceeded(f"q^k = {ctx.q ** k} exceeds budget {budget}")
    for i in range(k):
        yield from coset_blocks(G_int[:i], n, ctx, G_int[i], budget)


def row_weights(block):
    """Nonzero entries of each codeword of an (n, rows) block, entries
    first: the n rows of nonzero flags, read as uint8, are added along the
    rows, in the smallest dtype that holds n (which can reach q + 1 =
    65,537, past any 16-bit count)."""
    return np.add.reduce((block != 0).view(np.uint8), axis=0,
                         dtype=np.min_scalar_type(len(block)))


def _histogram(blocks, n: int):
    """Counts of codewords of each weight 0..n over the (n, rows) `blocks`."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for block in blocks:
        counts += np.bincount(row_weights(block), minlength=n + 1)
    return counts


def weight_counts(G_int, n: int, ctx, budget=DEFAULT_BUDGET) -> list[int]:
    """Histogram of wt(c) over the codewords c.

    Each orbit's representative stands for its q - 1 messages, and the
    zero message is added; bin 0 is scaled too, since dependent rows send
    whole orbits to the zero word.
    """
    counts = _histogram(orbit_blocks(G_int, n, ctx, budget), n)
    counts *= ctx.q - 1
    counts[0] += 1
    return [int(c) for c in counts]


def distance_counts(G_int, n: int, ctx, v_int,
                    budget=DEFAULT_BUDGET) -> list[int]:
    """Histogram of wt(c - v) over the codewords c, from the coset -v + C:
    wt(c - v) is not invariant under scaling, so every codeword is
    visited."""
    neg_v = [ctx.neg_i(x) for x in v_int]
    counts = _histogram(coset_blocks(G_int, n, ctx, neg_v, budget), n)
    return [int(c) for c in counts]


def mat_vecs(M_int, n: int, ctx, vectors):
    """M v^T for every row v of `vectors`, as a (len(vectors), rows)
    array of encodings: the terms of `_terms`, summed by `_column_sums`."""
    table, add, entries = _terms(M_int, n, ctx)
    # rows of M stay the last axis, so that np.take gathers each term as
    # one contiguous row of the table (see the module docstring)
    return entries(_column_sums(table, add, vectors, 0))


# ---------------------------------------------------------------------------
# Ranks of column subsets
# ---------------------------------------------------------------------------

def _subset_chunks(n: int, w: int, size: int):
    """The w-subsets of range(n), lexicographic, in (size, w) int64 arrays."""
    count = comb(n, w)
    subsets = chain.from_iterable(combinations(range(n), w))
    for start in range(0, count, size):
        s = min(size, count - start)
        yield np.fromiter(subsets, np.int64, s * w).reshape(s, w)


def subset_ranks(mats, ctx, w: int, budget=DEFAULT_BUDGET, tail: int = 0):
    """Yield (subsets, ranks), chunk by chunk: the next w-subsets of the
    leading columns, in lexicographic order, as a (chunk, w) array, and
    ranks[i, j], the rank of matrix j on subset i plus its `tail` last
    columns.

    `mats` is an (m, r, n + tail) stack of encodings.  A chunk stacks its
    subsets of every matrix into one (b, r, w + tail) array and eliminates
    them all together; it holds at least one subset, and otherwise its
    int64 temporaries stay within _CHUNK_BYTES bytes (larger ones, freed,
    raise the allocator's mmap threshold and with it the peak RSS of the
    codeword scans that follow).  The C(n, w) * m subsets count against
    the budget, before anything is built.
    """
    mats = np.asarray(mats, dtype=np.int64)
    m, r, cols = mats.shape
    n = cols - tail
    total = comb(n, w) * m
    if total > budget:
        raise BudgetExceeded(f"{total} column subsets exceed budget {budget}")
    mats = mats.astype(_dtype_for(ctx.q))
    width = w + tail
    per_chunk = max(1, _CHUNK_BYTES // (8 * max(1, m * r * width)))
    fixed = np.arange(n, cols)
    for chunk in _subset_chunks(n, w, per_chunk):
        s = len(chunk)
        picked = np.hstack([chunk, np.broadcast_to(fixed, (s, tail))])
        # (m, r, s, width) -> one stack of s * m matrices, subset-major
        stack = mats[:, :, picked].transpose(2, 0, 1, 3)
        ranks = _ranks(stack.reshape(s * m, r, width), ctx)
        yield chunk, ranks.reshape(s, m)


def _ranks(A, ctx):
    """Ranks of a (b, r, w) stack of matrices of encodings, by one batched
    forward elimination, column by column; A is overwritten.

    A pivot is the first unused row with a nonzero entry in the column;
    every other unused row i then gains -(a_i / a_p) times the pivot row.
    Products use the field's log/exp arrays; the factor's log is
    reduced mod q-1, and log(0) marks the rows left alone.
    """
    b, r, w = A.shape
    rank = np.zeros(b, dtype=np.int64)
    if not (b and r and w):
        return rank
    log, exp, add = ctx._arrays
    period = ctx.q - 1
    log_zero = 2 * period
    # log(-a_i / a_p) = log a_i - log a_p + log(-1), kept nonnegative
    shift = period + int(log[ctx.neg_i(1)])
    unused = np.ones((b, r), dtype=bool)
    every = np.arange(b)
    for c in range(w):
        live = unused & (A[:, :, c] != 0)
        p = live.argmax(axis=1)
        found = live[every, p]
        rank += found
        unused[every, p] &= ~found
        if c + 1 == w:
            break
        live[every, p] = False
        lf = (log[A[:, :, c]] - log[A[every, p, c]][:, None] + shift) % period
        lf[~live] = log_zero
        prow = log[A[every, p, c + 1:]]
        A[:, :, c + 1:] = add(A[:, :, c + 1:],
                              exp[lf[:, :, None] + prow[:, None, :]])
    return rank


# ---------------------------------------------------------------------------
# Square minors of a systematic part
# ---------------------------------------------------------------------------

def _colex(ranks, i: int, binom):
    """The sorted i-subsets s of colex ranks `ranks`, rank(s) =
    sum_j C(s_j, j+1), as a (len(ranks), i) int64 array, and beside each,
    for every t, the colex rank of s without s_t: the later elements move
    down one place, to sum_{j<t} C(s_j, j+1) + sum_{j>t} C(s_j, j).
    Unranking takes the largest s_j with C(s_j, j+1) <= what is left, top
    element first; binom[a, b] = C(a, b)."""
    left = np.array(ranks, dtype=np.int64)
    subsets = np.empty((left.size, i), np.int64)
    for j in range(i - 1, -1, -1):
        subsets[:, j] = np.searchsorted(binom[:, j + 1], left, "right") - 1
        left -= binom[subsets[:, j], j + 1]
    own = binom[subsets, np.arange(1, i + 1)]
    shifted = binom[subsets, np.arange(i)]
    before = own.cumsum(axis=1) - own
    after = shifted[:, ::-1].cumsum(axis=1)[:, ::-1] - shifted
    return subsets, before + after


def _minors_nonzero(A, ctx) -> bool:
    """Whether every square submatrix of A, a (k, m) array of encodings,
    is nonsingular.

    The i x i minors D_i[R, C], for the i-subsets R of rows and C of
    columns indexed by colex rank, come from the (i-1) x (i-1) ones by
    Laplace expansion along the first row r_0 of R:
    D_i[R, C] = sum_t (-1)^t A[r_0, c_t] D_{i-1}[R - r_0, C - c_t], one
    gather, log-sum and add per t, starting from D_1 = A.  Each product
    is exp[log a + log d], which the two periods of exp and the zeros past
    them make exact, zeros included; the sign goes on A's entries through
    the field's negation, never as a log(-1) added to that sum, which
    could run past the zeros.

    A table is filled in blocks of row subsets times column subsets, each
    unranked where it is used: a block's int64 temporaries, and the
    subsets and ranks of its rows and of its columns, stay within
    _CHUNK_BYTES bytes (at least one row and one column).  The check stops at the first block
    that holds a zero minor.  Tables keep `_dtype_for(q)` entries, and the
    two live ones hold at most 2 C(k + m, k) of them, the count of the
    minors of all sizes.
    """
    k, m = A.shape
    if not A.all():
        return False
    log, exp, add = ctx._arrays
    # (-1)^t A[r, c] as logs, for even and odd t
    signed = (log[A], log[[[ctx.neg_i(int(a)) for a in row]
                           for row in A.tolist()]])
    top = min(k, m)
    binom = np.array([[comb(a, b) for b in range(top + 1)]
                      for a in range(max(k, m))], dtype=np.int64)
    prev = A
    for i in range(2, top + 1):
        table = np.empty((comb(k, i), comb(m, i)), A.dtype)
        width = min(table.shape[1], max(1, _CHUNK_BYTES // (8 * i)))
        height = max(1, _CHUNK_BYTES // (8 * max(width, i)))
        for c0 in range(0, table.shape[1], width):
            cols, without = _colex(
                range(c0, min(c0 + width, table.shape[1])), i, binom)
            for r0 in range(0, table.shape[0], height):
                rows, rest = _colex(
                    range(r0, min(r0 + height, table.shape[0])), i, binom)
                first, below = rows[:, :1], rest[:, :1]
                acc = np.zeros((len(rows), len(cols)), A.dtype)
                for t in range(i):
                    lg = signed[t % 2][first, cols[:, t]]
                    lg += log[prev[below, without[:, t]]]
                    acc = add(acc, exp[lg])
                if not acc.all():
                    return False
                table[r0:r0 + len(rows), c0:c0 + len(cols)] = acc
        prev = table
    return True


# ---------------------------------------------------------------------------
# Coset-leader weights by increasing-weight syndrome sweep
# ---------------------------------------------------------------------------

def _block_width(q: int, r: int) -> int:
    """Digits per block of the packed scaling table: the widest up to
    ceil(r/2) whose (q^a, q-1) table stays within _SCALE_TABLE_ENTRIES;
    0 when not even one digit fits, that is for q > 256."""
    a = 0
    while a < (r + 1) // 2 and q ** (a + 1) * (q - 1) <= _SCALE_TABLE_ENTRIES:
        a += 1
    return a


def _packed_multiples(ctx, r: int):
    """A map from a 1-D int64 array of packed syndromes s (r digits, digit
    i times q^i) to the (len(s), q-1) int64 array of packed c*s, c = 1..q-1.

    Scaling acts on each digit alone, so with a = _block_width(q, r) and
    A = q^a, c*s = sum_j M[block_j(s), c-1] * A^j, where block_j(s) is the
    j-th group of a digits of s and M[v, c-1] is packed c*v for every
    a-digit v: ceil(r/a) gathers and adds.  M is the outer sum of the
    one-digit table shifted to each digit of the block, built with v first,
    as each gather reads whole rows of it.  For q > 256 the map unpacks
    each s into digits, scales them by `_multiples` and repacks.
    """
    q = ctx.q
    a = _block_width(q, r)
    if not a:
        radix = q ** np.arange(r, dtype=np.int64)
        return lambda s: \
            _multiples(ctx, s[:, None] // radix % q)[:, 1:] @ radix
    one = _multiples(ctx, np.arange(q)[:, None])[:, 1:, 0].astype(np.int64)
    # each digit in turn takes the faster place; an entries-first outer sum
    # would need a second copy of the table to put v first
    M = np.zeros((1, q - 1), dtype=np.int64)
    for i in reversed(range(a)):
        M = (M[:, None] + one * q ** i).reshape(-1, q - 1)
    A = q ** a

    def scale(s):
        out = M[s % A]
        for j in range(1, -(-r // a)):
            out += M[s // A ** j % A] * A ** j
        return out
    return scale


def _pull_is_cheaper(n: int, q: int, w: int, left: int) -> bool:
    """Whether pulling layer w, priced at the q-1 neighbours of one column
    for each of the `left` uncovered orbits, visits fewer vectors than
    pushing it, the C(n, w)(q-1)^(w-1) error vectors whose first nonzero
    entry is 1.  A pull stops at each orbit's first hit, so it visits at
    least that price, and exactly that on the last layer of a full-radius
    MDS code, where the first column always hits."""
    return left * (q - 1) < comb(n, w) * (q - 1) ** (w - 1)


def _pushed(w: int, leader, syndromes):
    """Yield, in blocks, the packed syndromes not yet settled of the
    weight-w error vectors whose first nonzero entry is 1, support by
    support in lexicographic order.

    As many supports as fit in _BLOCK_ROWS rows, or else one, make a
    (b, w) chunk: it gathers each position's multiples for all b at once,
    a contiguous (..., b, q-1) part, entries first, and one `_fold` over
    that batch of b sums them, within the same bound.
    """
    n, table = syndromes.n, syndromes.table
    per_support = (syndromes.q - 1) ** (w - 1)
    for S in _subset_chunks(n, w, max(1, _BLOCK_ROWS // per_support)):
        # position 0 takes c = 1 only, the others every c != 0; each
        # gathered part is copied contiguous, as a ufunc's output follows
        # its inputs' memory order
        parts = [np.ascontiguousarray(table[..., S[:, 0], 1:2])] + \
            [np.ascontiguousarray(table[..., S[:, i], 1:])
             for i in range(1, w)]
        for block in _fold(parts, syndromes.add):
            syn = syndromes.pack(block)
            yield syn[leader[syn] == 0xFF]


def _pulled(w: int, leader, slices, syndromes):
    """Yield, in batches, the uncovered orbit representatives whose leader
    weight is w: those with a neighbour s + c*h_j of leader weight w-1.

    `slices` hold one representative per orbit, read chunk by chunk
    (`_positions`).  A batch of up to _BLOCK_ROWS // (q-1) representatives
    goes column by column: at column j it tests the q-1 neighbours c*h_j of
    the representatives still open, marks those with a hit and drops them,
    and it stops once none is open, so a representative settled at column
    j costs (j+1)(q-1) tests, not n(q-1).
    """
    steps = syndromes.table[..., 1:]
    n, q1 = steps.shape[-2:]
    per = max(1, _BLOCK_ROWS // q1)
    for part in slices:
        for reps in _positions(leader[part], 0xFF, part.start):
            for i in range(0, reps.size, per):
                s = reps[i:i + per]
                hit = np.zeros(s.size, dtype=bool)
                open_ = np.arange(s.size)
                digits = syndromes.unpack(s)
                for j in range(n):
                    # the step slowest, so the sums run along the open
                    # representatives, not along the q-1 steps
                    step = np.ascontiguousarray(steps[..., j, None, :])
                    sums = _outer_sum([step, digits[..., None, :]],
                                      syndromes.add)
                    near = leader[syndromes.pack(sums[..., 0, :])]
                    found = (near.reshape(q1, open_.size) == w - 1).any(axis=0)
                    hit[open_[found]] = True
                    open_, digits = open_[~found], digits[..., ~found]
                    if not open_.size:
                        break
                yield s[hit]


def coset_leader_weights(H_int, n: int, ctx, budget=DEFAULT_BUDGET):
    """Leader weight per packed syndrome, the covering radius, and the
    `SyndromeMap` that packs those syndromes, for later lookups.

    Settles syndromes by increasing leader weight, one layer per weight,
    and stops once every syndrome is covered.  The leader weight is the
    distance from 0 in the graph on syndromes whose edges add some c*h_j,
    c != 0, so each layer is one step of a breadth-first search, run in
    whichever direction visits fewer vectors (direction-optimizing BFS).
    The result does not depend on the route or the visit order.

    For c != 0, c*e has the weight of e and the syndrome c*s, so the leader
    weight is constant on each orbit {c*s}, and every newly settled
    syndrome s gets the weight written to all q-1 multiples c*s.  Up to
    q = 256 the multiples come from the block table of `_packed_multiples`,
    ceil(r/a) gathers and adds per batch; above it, from unpacking s into
    r digits, scaling them and repacking.

    Before layer w, with `left` orbits still uncovered, the sweep pushes
    if C(n, w)(q-1)^(w-1) <= left*(q-1), and pulls otherwise: a pull stops
    at each orbit's first hit, so it is priced at one column per orbit.
    Layer 1 pushes unless q^r - 1 < n.  Either route yields syndromes of
    leader weight w not yet settled, and the sweep settles them; each
    layer ends by counting the uncovered orbit representatives.

    Push (`_pushed`) enumerates the weight-w error vectors whose first
    nonzero entry is 1, stacked supports at a time, and yields the
    syndromes it meets uncovered; a block can meet one orbit twice, and the
    orbit is settled once.

    Pull (`_pulled`) takes one representative per uncovered orbit, the
    packed s in [q^t, 2q^t) whose top nonzero digit is 1, and settles s at
    weight w iff some s + c*h_j has leader weight w-1; it tests the columns
    j in order and stops at the first hit, which the order cannot change.
    If a leader e of s weighs w, e - c*e_j for a nonzero entry c at j
    weighs w-1 and has the syndrome s - c*h_j, whose leader weight is then
    w-1, as by the triangle inequality it is at least w-1.  Conversely, a
    vector of weight w-1 with syndrome s + c*h_j, minus c*e_j, gives s a
    vector of weight at most w, and s, uncovered after layers 0..w-1,
    weighs at least w.  Settling s writes only s into the slices (its
    other multiples lead with c != 1), and never weight w-1, so the
    representatives read chunk by chunk are those of the layer's start.
    On the last layer of a full-radius MDS code, w = r, the first column
    always hits: any r columns of H that include j are a basis, and in it
    s has a nonzero coefficient at j, or it would weigh at most r-1.

    A layer that settles no syndrome refuses H as rank deficient: if every
    weight-w syndrome has a lighter vector, so has e = e1 + c*e_j of weight
    w+1, through a lighter vector in the coset of e1.  A full-rank H never
    stops there, as its leader weights take every value 0..rho.

    Memory: the leader array, q^r bytes, plus temporaries bounded by
    _BLOCK_ROWS rows (blocks, batches) and _CHUNK_BYTES bytes (chunks of
    the leader array and their representatives).
    """
    q = ctx.q
    r = len(H_int)
    total = q ** r
    if total > budget:
        raise BudgetExceeded(f"q^(n-k) = {total} exceeds budget {budget}")
    leader = np.full(total, 0xFF, dtype=np.uint8)
    leader[0] = 0
    syndromes = SyndromeMap(H_int, n, ctx)
    if total == 1:
        return leader, 0, syndromes

    scale = _packed_multiples(ctx, r)
    # expansion batches keep the block table route's (batch, q-1) arrays
    # within _BLOCK_ROWS entries, and the digit route's (batch, q, r) ones
    # within r times as many, or one syndrome
    batch = max(1, _BLOCK_ROWS // (q - 1))
    # one representative per orbit: top nonzero digit 1, at position t
    slices = [slice(q ** t, 2 * q ** t) for t in range(r)]
    covered = 1
    for w in range(1, n + 1):
        before = covered
        if _pull_is_cheaper(n, q, w, (total - covered) // (q - 1)):
            route = _pulled(w, leader, slices, syndromes)
        else:
            route = _pushed(w, leader, syndromes)
        for fresh in route:
            for i in range(0, fresh.size, batch):
                cut = fresh[i:i + batch]
                # a pushed block can meet one orbit twice: skip a batch
                # that an earlier one settled
                if (leader[cut] == 0xFF).any():
                    leader[scale(cut)] = w
        covered = total - (q - 1) * sum(_count(leader[part], 0xFF)
                                        for part in slices)
        if covered == total:
            return leader, w, syndromes
        if covered == before:
            break
    raise InvariantViolation("syndrome sweep did not terminate; "
                             "parity check matrix is rank deficient")


def _leader_chunks(leader):
    """(offset, view) of the leader array, as many entries a view as an
    int64 chunk of _CHUNK_BYTES holds (at least one)."""
    size = max(1, _CHUNK_BYTES // 8)
    for start in range(0, leader.size, size):
        yield start, leader[start:start + size]


def _count(leader, value: int) -> int:
    """How many entries of the leader array equal `value`."""
    return sum(np.count_nonzero(chunk == value)
               for _, chunk in _leader_chunks(leader))


def _positions(leader, value: int, offset: int):
    """Yield, chunk by chunk, the ascending indices plus `offset` of the
    entries of the leader array equal to `value`."""
    for start, chunk in _leader_chunks(leader):
        yield np.flatnonzero(chunk == value) + (start + offset)


def leader_counts(leader, top: int):
    """How many entries of the uint8 leader array hold each value 0..top,
    as an int64 array.  Each value is counted in each chunk on its own,
    so the only temporary is one chunk's bool array, never an int64 copy
    of the whole array (as np.bincount would make)."""
    counts = np.zeros(top + 1, dtype=np.int64)
    for _, chunk in _leader_chunks(leader):
        for v in range(top + 1):
            counts[v] += np.count_nonzero(chunk == v)
    return counts


def leader_positions(leader, value: int):
    """Ascending indices of the entries of the leader array equal to
    `value`: counted chunk by chunk, then found chunk by chunk into an
    array of that size, so no bool array of the whole leader array is
    built."""
    out = np.empty(_count(leader, value), np.intp)
    at = 0
    for found in _positions(leader, value, 0):
        out[at:at + found.size] = found
        at += found.size
    return out


# ---------------------------------------------------------------------------
# Lexicographically-first fixed-weight coset leaders
# ---------------------------------------------------------------------------

def lex_first_weight_vectors(syndromes, weight: int, targets,
                             stop_after_first=False, budget=DEFAULT_BUDGET):
    """First weight-`weight` vector, in global lexicographic order, whose
    packed syndrome under the `SyndromeMap` `syndromes` lies in `targets`
    (an int array or list, not a set): a (len(targets), n) array of
    encodings, row i for the i-th smallest distinct target, or with
    stop_after_first a (1, n) array, the first to reach any target.

    Depth-first over positions, a zero entry before the nonzero ones, down
    to the prefixes that leave b nonzero entries to place; each of them
    tests all its completions in one batch.  b is the largest value up to
    `weight` such that no batch of any weight up to b holds more than
    _CHUNK_BYTES bytes of int64 syndromes (at least 1 if weight is).

    The batches come from one table per call, summed from the map's table
    of multiples.  T(pos, j), the weight-j vectors on positions pos..n-1 in
    lexicographic order, is [T(pos+1, j); c*e_pos + T(pos+1, j-1) for c =
    1..q-1], so it is the first C(n-pos, j)(q-1)^j vectors of T(0, j).  The
    table keeps each vector, n entries of `_dtype_for(q)` in a row (n bytes
    up to q = 256), beside its syndrome, 8 bytes packed, or for odd q r*m
    digits in a column, entries first like the map's table; a hit goes
    straight into its target's row: its table row, zero before pos, with
    the prefix written in.  The vectors of every batch count against the
    budget as tested.
    """
    n, q = syndromes.n, syndromes.q
    table, add, pack = syndromes.table, syndromes.add, syndromes.pack
    # return_index takes np.unique's sort route, 30x its hash route here
    targets = np.unique(np.asarray(targets, np.int64), return_index=True)[0]
    wanted = np.zeros(q ** syndromes.r, dtype=bool)
    wanted[targets] = True
    out = np.zeros((min(len(targets), 1) if stop_after_first
                    else len(targets), n), _dtype_for(q))
    b = min(weight, 1)
    while b < weight and 8 * comb(n, b + 1) * (q - 1) ** (b + 1) \
            <= _CHUNK_BYTES:
        b += 1
    zero = np.zeros(table.shape[:-2], table.dtype)
    levels = [zero[..., None]] + [table[..., 0, :0]] * b
    vectors = [np.zeros((1, n), _dtype_for(q))] + \
        [np.zeros((0, n), _dtype_for(q))] * b
    for pos in range(n - 1, -1, -1):
        for j in range(min(b, n - pos), 0, -1):
            heavier = add(table[..., pos, 1:, None],
                          levels[j - 1][..., None, :])
            levels[j] = np.concatenate(
                [levels[j], heavier.reshape(*zero.shape, -1)], axis=-1)
            placed = np.tile(vectors[j - 1], (q - 1, 1))
            placed[:, pos] = np.repeat(np.arange(1, q), len(vectors[j - 1]))
            vectors[j] = np.concatenate([vectors[j], placed])
    batch, batch_vectors = levels[b], vectors[b]
    del levels, vectors
    remaining = len(targets)
    tested = 0

    def rec(pos, acc, left, prefix):
        nonlocal remaining, tested
        if not remaining or n - pos < left:
            return
        if left == b:
            rows = comb(n - pos, b) * (q - 1) ** b
            tested += rows
            if tested > budget:
                raise BudgetExceeded(f"more than {budget} vectors tested")
            syn = pack(add(acc[..., None], batch[..., :rows]))
            hits = np.flatnonzero(wanted[syn])
            if not hits.size:
                return
            if stop_after_first:
                hits = hits[:1]
            new, first = np.unique(syn[hits], return_index=True)
            at = slice(0, 1) if stop_after_first else \
                np.searchsorted(targets, new)
            out[at] = batch_vectors[hits[first]]
            out[at, :pos] = prefix
            wanted[new] = False
            remaining = 0 if stop_after_first else remaining - new.size
            return
        if n - pos - 1 >= left:
            rec(pos + 1, acc, left, prefix + [0])
        for c in range(1, q):
            rec(pos + 1, add(acc, table[..., pos, c]), left - 1,
                prefix + [c])

    rec(0, zero, weight, [])
    if remaining:
        raise InvariantViolation("no fixed-weight vector reaches some "
                                 "target syndrome")
    return out
