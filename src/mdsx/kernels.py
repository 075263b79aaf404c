"""Vectorized kernels for the exhaustive searches.

Codewords and error vectors are enumerated as numpy arrays of integer
encodings by one chunked fold, `_fold`, which sums one row from each of a
list of tables.  There is one codeword scan, `coset_blocks`: it yields
offset + c for every codeword c, and every codeword question reads it.
`codewords()` takes the zero offset, and the codeword route of the
distance to v takes -v, so `distance_counts` histograms wt(c - v).
`orbit_blocks` visits one codeword per scalar orbit {c*x : c != 0} of the
nonzero messages, (q^k - 1)/(q - 1) of them, as the cosets row i + span
of rows 0..i-1; that is all a question invariant under scaling needs:
wt(c*x) = wt(x) and <u, c*x> = 0 iff <u, x> = 0.  `weight_counts`
histograms wt(x) over the orbits (the weight enumerator and d).  Every
kernel takes the code length n explicitly, so a generator or check with
no rows still has its length.

The kernels read each field's numpy arrays, `ctx._arrays` = (log, exp,
add), which the field builds with its tables: log(0) points past two
periods of exp into zeros, so no product needs a modulo or a zero test,
and add is the field's array addition, defined for every GF(q).  Every
table of field multiples comes from `_multiples`.  In characteristic 2 the
encoding makes XOR field addition on packed syndromes too, so the syndrome
sweep packs before it sums; other fields sum rows of r*m base-p digits by
GF(p)'s add, never packed GF(p^m) encodings, and pack the sums.

The coset-leader sweep works on scalar orbits: c*e has the weight of e and
the syndrome c*s for every c != 0, so one leader weight holds on all of
{c*s}.  It folds only error vectors whose first nonzero entry is 1 and
writes each fresh syndrome's weight to its q-1 multiples.  Scaling acts on
each digit alone, so the multiples of a packed syndrome are the sums of its
digit blocks' multiples, read from one packed block table per sweep,
(q^a, q-1) int64 within 2^16 entries; a one-digit table fits up to
q = 256, and larger fields unpack each fresh syndrome into digits, scale
them and repack.  It writes, then counts: each fresh syndrome covers
exactly q-1 syndromes, so the count of covered syndromes needs no
deduplication.

Column-subset facts (MDS layers, the minor and column-span deep-hole
criteria, the support search for d) come from one engine, `subset_ranks`:
it stacks the column subsets of one or many small matrices into a
(b, r, w) array and eliminates them all at once.

The lexicographically first vectors of a weight per syndrome (deep-hole
representatives) come from `lex_first_weight_vectors`: a depth-first
search over prefixes that tests all completions of a prefix with its last
few nonzero entries in one batch, cut from one lexicographic table that
keeps each completion vector beside its syndrome.
Everything here is deterministic; chunking only bounds memory.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import BudgetExceeded, InvariantViolation
from .field import _dtype_for, field_new

DEFAULT_BUDGET = 1 << 24
_CHUNK_ROWS = 1 << 20
_SCALE_TABLE_ENTRIES = 1 << 16  # int64: 512 KB


def _multiples(ctx, vectors):
    """out[i, c] = c * vectors[i] for every field element c."""
    log, exp, _ = ctx._arrays
    return exp[log[np.asarray(vectors)][:, None, :] + log[:, None]]


def _outer_sum(parts, add):
    """Every sum of one row from each part, the first part slowest."""
    acc = parts[0]
    for nxt in parts[1:]:
        acc = add(acc[:, None], nxt[None, :]).reshape(-1, *acc.shape[1:])
    return acc


def _fold(parts, add):
    """Yield, in index order and in chunks, every sum of one row from each
    part, the first part varying slowest.

    The trailing parts whose row counts multiply to at most _CHUNK_ROWS
    (at least the last part) are summed once into a block; each sum of the
    leading parts is then added to that block as an offset.  Parts are 1-D
    (packed syndromes) or 2-D (rows of digits).
    """
    split = len(parts) - 1
    rows = parts[split].shape[0]
    while split > 0 and rows * parts[split - 1].shape[0] <= _CHUNK_ROWS:
        split -= 1
        rows *= parts[split].shape[0]
    block = _outer_sum(parts[split:], add)
    if split == 0:
        yield block
        return
    for offset in _outer_sum(parts[:split], add):
        yield add(block, offset)


def _syndrome_table(H_int, n: int, ctx):
    """Syndromes of c * e_j as table[j, c], the add that sums them and the
    map from sums to packed syndromes (entry i times q^i).  Odd q gives
    each entry's m base-p digits: digit j of entry i packs as p^(mi+j)."""
    r = len(H_int)
    p, m = ctx.p, ctx.m
    table = _multiples(ctx, np.array(H_int, dtype=np.int64).reshape(r, n).T)
    radix = p ** np.arange(r * m, dtype=np.int64)
    if p == 2:
        # XOR on the packing is field addition: pack once, sum packed ints
        return table.astype(np.int64) @ radix[::m], np.bitwise_xor, lambda s: s
    digits = table[..., None] // p ** np.arange(m, dtype=table.dtype) % p
    return (digits.reshape(n, ctx.q, r * m).astype(_dtype_for(p), copy=False),
            field_new(p, 1)._arrays[2], lambda s: s.astype(np.int64) @ radix)


# ---------------------------------------------------------------------------
# Codeword enumeration
# ---------------------------------------------------------------------------

def coset_blocks(G_int, n: int, ctx, offset, budget=DEFAULT_BUDGET):
    """Yield, in chunks, offset + c for every codeword c of length n, the
    first row's coefficient varying slowest; with no rows, the offset
    alone.  q^k counts against the budget, before any block is built."""
    k = len(G_int)
    if ctx.q ** k > budget:
        raise BudgetExceeded(f"q^k = {ctx.q ** k} exceeds budget {budget}")
    offset = np.asarray(offset, dtype=_dtype_for(ctx.q)).reshape(1, n)
    rows = np.array(G_int, dtype=np.int64).reshape(k, n)
    yield from _fold([offset, *_multiples(ctx, rows)], ctx._arrays[2])


def orbit_blocks(G_int, n: int, ctx, budget=DEFAULT_BUDGET):
    """Yield blocks holding one codeword of length n per scalar orbit of
    the nonzero messages: those whose last nonzero coefficient, at the
    leading row i, is 1, that is row i plus the span of rows 0..i-1; no
    rows give none.  The q^k codewords the orbits stand for count against
    the budget, before any block is built."""
    k = len(G_int)
    if ctx.q ** k > budget:
        raise BudgetExceeded(f"q^k = {ctx.q ** k} exceeds budget {budget}")
    for i in range(k):
        yield from coset_blocks(G_int[:i], n, ctx, G_int[i], budget)


def _histogram(blocks, n: int):
    """Counts of rows of each weight 0..n over `blocks`."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for block in blocks:
        counts += np.bincount(np.count_nonzero(block, axis=1), minlength=n + 1)
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
    array of encodings."""
    r = len(M_int)
    vectors = np.asarray(vectors, dtype=np.int64)
    table = _multiples(ctx, np.array(M_int, dtype=np.int64).reshape(r, n).T)
    add = ctx._arrays[2]
    acc = np.zeros((vectors.shape[0], r), dtype=_dtype_for(ctx.q))
    for j in range(n):
        acc = add(acc, table[j, vectors[:, j]])
    return acc


# ---------------------------------------------------------------------------
# Ranks of column subsets
# ---------------------------------------------------------------------------

def subset_ranks(mats, ctx, w: int, budget=DEFAULT_BUDGET, tail: int = 0):
    """Yield (subsets, ranks), chunk by chunk: the next w-subsets of the
    leading columns, in lexicographic order, as a (chunk, w) array, and
    ranks[i, j], the rank of matrix j on subset i plus its `tail` last
    columns.

    `mats` is an (m, r, n + tail) stack of encodings.  A chunk stacks its
    subsets of every matrix into one (b, r, w + tail) array and eliminates
    them all together; it holds at least one subset, and otherwise its
    int64 temporaries stay within _CHUNK_ROWS bytes (larger ones, freed,
    raise the allocator's mmap threshold and with it the peak RSS of the
    codeword scans that follow).  The C(n, w) * m subsets count against
    the budget, before anything is built.
    """
    mats = np.asarray(mats, dtype=np.int64)
    m, r, cols = mats.shape
    n = cols - tail
    count = comb(n, w)
    total = count * m
    if total > budget:
        raise BudgetExceeded(f"{total} column subsets exceed budget {budget}")
    mats = mats.astype(_dtype_for(ctx.q))
    width = w + tail
    per_chunk = max(1, _CHUNK_ROWS // (8 * max(1, m * r * width)))
    fixed = np.arange(n, cols)
    subsets = chain.from_iterable(combinations(range(n), w))
    for start in range(0, count, per_chunk):
        s = min(per_chunk, count - start)
        chunk = np.fromiter(subsets, np.int64, s * w).reshape(s, w)
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
    one-digit table shifted to each digit of the block.  For q > 256 the
    map unpacks each s into digits, scales them by `_multiples` and
    repacks.
    """
    q = ctx.q
    a = _block_width(q, r)
    if not a:
        radix = q ** np.arange(r, dtype=np.int64)
        return lambda s: \
            _multiples(ctx, s[:, None] // radix % q)[:, 1:] @ radix
    one = _multiples(ctx, np.arange(q)[:, None])[:, 1:, 0].astype(np.int64)
    M = _outer_sum([one * q ** i for i in reversed(range(a))], np.add)
    A = q ** a

    def scale(s):
        out = M[s % A]
        for j in range(1, -(-r // a)):
            out += M[s // A ** j % A] * A ** j
        return out
    return scale


def coset_leader_weights(H_int, n: int, ctx, budget=DEFAULT_BUDGET):
    """Leader weight per packed syndrome, plus the covering radius.

    Enumerates error vectors by increasing weight and records the first
    weight at which each syndrome appears; stops once every syndrome is
    covered.  The result does not depend on the per-weight visit order.

    For c != 0, c*e has the weight of e and the syndrome c*s, so the leader
    weight is constant on each orbit {c*s}.  Each support therefore folds
    only its vectors with a 1 at its first position, and every fresh
    syndrome s gets the weight written to all q-1 multiples c*s.  Up to
    q = 256 the multiples come from the block table of `_packed_multiples`,
    ceil(r/a) gathers and adds per batch of fresh syndromes; above it,
    from unpacking s into r digits, scaling them and repacking.

    Each fresh syndrome adds exactly q-1 to the covered count.  Syndromes
    written in earlier chunks are not fresh, and no two fresh syndromes of
    one chunk share an orbit.  Suppose folded vectors e1 != e2 on support
    S, |S| = w, have H e1 = c H e2.  Then u = e1 - c*e2 is a codeword
    inside S; it is nonzero, since its entry at the first position of S is
    1 - c, and for c = 1 it is e1 - e2.  Pick i with u_i != 0:
    e1 - (e1_i / u_i)*u lies in the coset of e1 and weighs less than w, so
    H e1 is not fresh.

    A layer with no fresh syndrome refuses H as rank deficient: if every
    weight-w syndrome has a lighter vector, so has e = e1 + c*e_j of weight
    w+1, through a lighter vector in the coset of e1.  A full-rank H never
    stops there, as its leader weights take every value 0..rho.
    """
    q = ctx.q
    r = len(H_int)
    total = q ** r
    if total > budget:
        raise BudgetExceeded(f"q^(n-k) = {total} exceeds budget {budget}")
    leader = np.full(total, 0xFF, dtype=np.uint8)
    leader[0] = 0
    if total == 1:
        return leader, 0

    table, add, pack = _syndrome_table(H_int, n, ctx)
    scale = _packed_multiples(ctx, r)
    # expansion batches keep the digit route's (batch, q, r) array, and
    # the block table route's (batch, q-1) ones, within _CHUNK_ROWS
    batch = max(1, _CHUNK_ROWS // (q * r))
    covered = 1
    for w in range(1, n + 1):
        before = covered
        for support in combinations(range(n), w):
            parts = [table[support[0], 1:2]]
            parts += [table[j, 1:] for j in support[1:]]
            for chunk in _fold(parts, add):
                syn = pack(chunk)
                fresh = syn[leader[syn] == 0xFF]
                for i in range(0, fresh.size, batch):
                    leader[scale(fresh[i:i + batch])] = w
                covered += (q - 1) * fresh.size
            if covered == total:
                return leader, w
        if covered == before:
            break
    raise InvariantViolation("syndrome sweep did not terminate; "
                             "parity check matrix is rank deficient")


# ---------------------------------------------------------------------------
# Lexicographically-first fixed-weight coset leaders
# ---------------------------------------------------------------------------

def lex_first_weight_vectors(H_int, n: int, ctx, weight: int, targets,
                             stop_after_first=False, budget=DEFAULT_BUDGET):
    """First weight-`weight` vector, in global lexicographic order, whose
    packed syndrome lies in `targets`; one entry per target unless
    stop_after_first.

    Depth-first over positions, a zero entry before the nonzero ones, down
    to the prefixes that leave b nonzero entries to place; each of them
    tests all its completions in one batch.  b is the largest value up to
    `weight` such that no batch of any weight up to b holds more than
    _CHUNK_ROWS bytes of int64 syndromes (at least 1 if weight is).

    The batches come from one table per call.  T(pos, j), the weight-j
    vectors on positions pos..n-1 in lexicographic order, is
    [T(pos+1, j); c*e_pos + T(pos+1, j-1) for c = 1..q-1], so it is the
    first C(n-pos, j)(q-1)^j rows of T(0, j).  The table keeps each vector
    beside its syndrome, n entries of `_dtype_for(q)` (n bytes up to
    q = 256, next to 8 bytes of syndrome, or r*m digits for odd q), and
    a hit's vector is its row, zero before pos, with the prefix written
    in.  The vectors of every batch count against the budget as tested.
    """
    q = ctx.q
    table, add, pack = _syndrome_table(H_int, n, ctx)
    wanted = np.zeros(q ** len(H_int), dtype=bool)
    wanted[list(targets)] = True
    b = min(weight, 1)
    while b < weight and 8 * comb(n, b + 1) * (q - 1) ** (b + 1) \
            <= _CHUNK_ROWS:
        b += 1
    zero = np.zeros(table.shape[2:], table.dtype)
    levels = [zero[None]] + [table[:0, 0]] * b
    vectors = [np.zeros((1, n), _dtype_for(q))] + \
        [np.zeros((0, n), _dtype_for(q))] * b
    for pos in range(n - 1, -1, -1):
        for j in range(min(b, n - pos), 0, -1):
            heavier = add(table[pos, 1:, None], levels[j - 1][None])
            levels[j] = np.concatenate(
                [levels[j], heavier.reshape(-1, *zero.shape)])
            placed = np.tile(vectors[j - 1], (q - 1, 1))
            placed[:, pos] = np.repeat(np.arange(1, q), len(vectors[j - 1]))
            vectors[j] = np.concatenate([vectors[j], placed])
    batch, batch_vectors = levels[b], vectors[b]
    del levels, vectors
    found = {}
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
            syn = pack(add(acc, batch[:rows]))
            hits = np.flatnonzero(wanted[syn])
            if not hits.size:
                return
            if stop_after_first:
                hits = hits[:1]
            new, first = np.unique(syn[hits], return_index=True)
            vecs = batch_vectors[hits[first]]
            vecs[:, :pos] = prefix
            found.update(zip(new.tolist(), map(tuple, vecs.tolist())))
            wanted[new] = False
            remaining = 0 if stop_after_first else remaining - new.size
            return
        if n - pos - 1 >= left:
            rec(pos + 1, acc, left, prefix + [0])
        for c in range(1, q):
            rec(pos + 1, add(acc, table[pos, c]), left - 1, prefix + [c])

    rec(0, zero, weight, [])
    if remaining:
        raise InvariantViolation("no fixed-weight vector reaches some "
                                 "target syndrome")
    return found
