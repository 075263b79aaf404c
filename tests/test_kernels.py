"""Enumeration kernels against unchunked runs and the brute-force oracles."""

import hashlib
import random
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mdsx import kernels
from mdsx.code import code_from_generator, full_code, zero_code
from mdsx.constructions import GrsSpec, egrs_dual_code, grs, prs
from mdsx.covering import (
    covering_radius,
    deep_holes_via_mds,
    distance_to_code,
    syndrome_criteria,
)
from mdsx.errors import BadDims, BudgetExceeded, InvariantViolation
from mdsx.field import field_new
from mdsx.matrix import Matrix


def _small_codes(q):
    """Codes with brute force still cheap.  For q >= 4 their codeword
    count or sweep layers exceed 16 rows, so a 16-row chunk limit splits
    the fold; over GF(2) a syndrome's scalar orbit is itself, over GF(3)
    it holds two syndromes."""
    if q == 2:
        hamming = code_from_generator(Matrix(field_new(2, 1), [
            [1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]))  # [7,4], rho 1
        return [hamming, hamming.dual()]  # the simplex code has rho 3
    if q == 3:
        gf3 = field_new(3, 1)
        tetracode = code_from_generator(Matrix(gf3, [[1, 0, 1, 1],
                                                     [0, 1, 1, 2]]))
        return [tetracode, code_from_generator(Matrix(gf3, [[1, 1, 1, 1]]))]
    if q == 4:
        code = egrs_dual_code(field_new(2, 2).vector(range(4)), 3)  # rho 3
        return [code, code.dual()]
    if q == 5:
        # the dual's brute-force leader count would take 5^5 x 125 steps
        return [grs(GrsSpec.make(field_new(5, 1), range(5), 1, 2))]
    ctx = field_new(*{8: (2, 3), 9: (3, 2)}[q])
    code = grs(GrsSpec.make(ctx, [0, 1, 2], [1, 2, 3], 1))
    return [code, code.dual()]


def _fresh(code):
    """A copy with nothing cached from an earlier run; its parity check,
    and so its syndrome packing, is the nullspace of the reduced
    generator."""
    return code_from_generator(Matrix(code.ctx, code.generator.to_int_rows()))


def _first_bin(counts):
    return next(w for w, c in enumerate(counts) if c)


def _results(code, vectors):
    code = _fresh(code)
    rows = code.generator.to_int_rows()
    report = covering_radius(code)
    return {
        "weights": code.weight_enumerator(),
        "d": code.min_distance(),
        # the codeword route of distance_to_code: the first nonzero bin
        "distances": [_first_bin(kernels.distance_counts(rows, code.n,
                                                         code.ctx, v))
                      for v in vectors],
        "leaders": (report._leader.tolist(), report.rho),
        "leader_counts": report.coset_leader_weight_counts(),
    }


def _recording_scaler(split):
    """kernels._packed_multiples, on its block table route only, whose
    maps record for each batch whether it is a proper part of the fresh
    syndromes it was cut from."""
    real = kernels._packed_multiples

    def make(ctx, r):
        assert kernels._block_width(ctx.q, r) > 0
        scale = real(ctx, r)

        def recorded(s):
            split.append(len(s) < len(s.base))
            return scale(s)
        return recorded
    return make


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_split_fold_matches_unsplit_and_brute_force(q, monkeypatch):
    rng = random.Random(q)
    split = []
    for code in _small_codes(q):
        vectors = [[rng.randrange(q) for _ in range(code.n)]
                   for _ in range(6)]
        whole = _results(code, vectors)
        brute = {
            "weights": helpers.brute_weight_enumerator(code),
            "d": helpers.brute_min_distance(code),
            "distances": [helpers.brute_distance_to_code(
                code, code.ctx.vector(v)) for v in vectors],
            "leaders": helpers.brute_coset_leaders(_fresh(code)),
            "leader_counts": helpers.brute_coset_leader_weight_counts(code),
        }
        assert whole == brute
        # 1 row: every part but the last becomes an offset, and the sweep
        # expands one fresh syndrome's multiples at a time, by the block
        # table
        for rows in (16, 1):
            monkeypatch.setattr(kernels, "_CHUNK_ROWS", rows)
            monkeypatch.setattr(kernels, "_packed_multiples",
                                _recording_scaler(split))
            assert _results(code, vectors) == whole
            monkeypatch.undo()
    # over GF(2) every fold chunk holds one row, so no batch is cut from a
    # longer run of fresh syndromes
    assert split and any(split) == (q > 2)


def test_prime_field_beyond_the_addition_table():
    # GF(1031) has no scalar addition table; add_i sums on ints
    gf = field_new(1031, 1)
    code = grs(GrsSpec.make(gf, [0, 1, 2], 1, 1))
    dual = code.dual()
    assert code.min_distance() == 3 and dual.min_distance() == 2
    for c in (code, dual):
        assert c.weight_enumerator() \
            == helpers.mds_weight_enumerator(3, c.k, 1031)
    rng = random.Random(1031)
    vectors = [[rng.randrange(1031) for _ in range(3)] for _ in range(4)]
    vectors.append([5, 5, 5])  # a codeword
    want = [helpers.brute_distance_to_code(code, gf.vector(v))
            for v in vectors]
    # codeword route first, then the coset-leader route once the report
    # is cached
    assert [distance_to_code(code, v) for v in vectors] == want
    rep = covering_radius(code)
    assert rep.rho == 2
    # d = 3: every weight-1 vector leads its own coset
    assert rep.coset_leader_weight_counts() \
        == [1, 3 * 1030, 1031 ** 2 - 1 - 3 * 1030]
    assert [distance_to_code(code, v) for v in vectors] == want
    rep = covering_radius(dual)
    assert (rep.rho, rep.coset_leader_weight_counts()) == (1, [1, 1030])


# every field size from GF(2) to the largest with a one-digit block table
SCALE_FIELDS = [field_new(p, m) for p, m in (
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (2, 4),
    (3, 3), (2, 6), (2, 8))]


@pytest.mark.parametrize("ctx", SCALE_FIELDS, ids=lambda c: f"gf{c.q}")
def test_block_table_scaling_matches_the_digit_route(ctx):
    # every r with q^r <= 2^16; odd r and r not a multiple of the block
    # width leave a short last block
    q = ctx.q
    rng = np.random.default_rng(q)
    r = 1
    while q ** r <= 1 << 16:
        assert kernels._block_width(q, r) >= 1
        s = np.concatenate([[0, q ** r - 1], rng.integers(q ** r, size=200)])
        got = kernels._packed_multiples(ctx, r)(s)
        # with no room for a table, the digit route
        with mock.patch.object(kernels, "_SCALE_TABLE_ENTRIES", 0):
            assert kernels._block_width(q, r) == 0
            want = kernels._packed_multiples(ctx, r)(s)
        assert got.shape == want.shape == (len(s), q - 1)
        assert (got == want).all()
        # and against scalar field products on a few of them
        for x, row in zip(s[:4].tolist(), got[:4].tolist()):
            digits = [x // q ** i % q for i in range(r)]
            assert row == [sum(ctx.mul_i(c, d) * q ** i
                               for i, d in enumerate(digits))
                           for c in range(1, q)]
        r += 1


@pytest.mark.parametrize("pm, width", [((2, 8), 1), ((257, 1), 0)],
                         ids=["gf256-table", "gf257-digits"])
def test_sweep_on_each_side_of_the_block_table_boundary(pm, width):
    # a [3,1] code with d = 3, r = 2: every weight-1 vector leads its own
    # coset and every other coset has leader weight 2
    gf = field_new(*pm)
    q = gf.q
    assert kernels._block_width(q, 2) == width
    rep = covering_radius(grs(GrsSpec.make(gf, [0, 1, 2], 1, 1)))
    assert rep.rho == 2
    assert rep.coset_leader_weight_counts() \
        == [1, 3 * (q - 1), q ** 2 - 1 - 3 * (q - 1)]


@pytest.mark.parametrize("pm", [(3, 7), (5, 5)], ids=["gf2187", "gf3125"])
def test_non_prime_field_beyond_the_addition_table(pm):
    # no scalar addition table: add_i sums digit by digit on ints
    gf = field_new(*pm)
    q = gf.q
    code = grs(GrsSpec.make(gf, [0, 1, 2], 1, 1))
    assert code.weight_enumerator() == helpers.brute_weight_enumerator(code)
    assert code.min_distance() == helpers.brute_min_distance(code) == 3
    rng = random.Random(q)
    vectors = [[rng.randrange(q) for _ in range(3)] for _ in range(4)]
    vectors.append([5, 5, 5])  # a codeword
    want = [helpers.brute_distance_to_code(code, gf.vector(v))
            for v in vectors]
    assert [distance_to_code(code, v) for v in vectors] == want
    rep = covering_radius(code)
    assert [distance_to_code(code, v) for v in vectors] == want
    # a representative at distance rho = n-k, and d = 3 gives every
    # weight-1 vector its own coset
    reps = rep.representatives(limit=2)
    assert [helpers.brute_distance_to_code(code, r) for r in reps] \
        == [rep.rho] * 2 == [2, 2]
    assert rep.coset_leader_weight_counts() \
        == [1, 3 * (q - 1), q ** 2 - 1 - 3 * (q - 1)]
    us = vectors + [[e.value for e in r] for r in reps]
    deep = [helpers.brute_distance_to_code(code, gf.vector(u)) == 2
            for u in us]
    assert deep_holes_via_mds(code, us).tolist() == deep
    assert syndrome_criteria(code.parity, us, 2).tolist() == deep
    # the subset engine against one boxed elimination per subset
    m = Matrix(gf, [[rng.randrange(q) for _ in range(5)] for _ in range(2)]
               ).with_col([3, 7]).with_col([6, 14])
    for w in (1, 2, 3):
        got = np.concatenate([r[:, 0] for _, r in
                              kernels.subset_ranks([m.to_int_rows()], gf, w)])
        assert got.tolist() == [helpers.ref_rank(m.select_cols(s))
                                for s in combinations(range(m.cols), w)]


FIELDS = [field_new(p, m) for p, m in
          ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]


@st.composite
def sweep_codes(draw):
    """Codes with q^n <= 10^4: random generators, reduced (so non-MDS and
    rank-deficient draws give smaller codes), the zero code (r = n) and the
    full space (r = 0)."""
    ctx = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max(n for n in range(1, 14)
                                if ctx.q ** n <= 10 ** 4)))
    kind = draw(st.sampled_from(("random", "random", "zero", "full")))
    if kind == "zero":
        return zero_code(ctx, n)
    if kind == "full":
        return full_code(ctx, n)
    # zeros drawn often give codes of small distance; n + 1 rows are
    # always dependent
    entry = st.one_of(st.just(0), st.integers(0, ctx.q - 1))
    rows = [[draw(entry) for _ in range(n)]
            for _ in range(draw(st.integers(1, n + 1)))]
    return code_from_generator(Matrix(ctx, rows), allow_zero=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sweep_codes())
def test_sweep_matches_syndrome_oracle(code):
    report = covering_radius(code)
    assert (report._leader.tolist(), report.rho) \
        == helpers.brute_coset_leaders(code)


@pytest.mark.parametrize("pm", [(2, 1), (3, 1), (2, 2)])
def test_rank_deficient_parity_check_is_refused(pm):
    # the repeated row leaves all but q^2 of the q^3 syndromes unreachable
    H = [[1, 0, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1]]
    with pytest.raises(InvariantViolation):
        kernels.coset_leader_weights(H, 4, field_new(*pm))


@pytest.mark.parametrize("pm, layers", [
    # weight 1 already reaches the q^2 reachable syndromes over GF(2)
    ((2, 1), [1, 2]), ((3, 1), [1, 2, 3]), ((2, 2), [1, 2, 3])],
    ids=["gf2", "gf3", "gf4"])
def test_rank_deficient_sweep_stops_after_an_empty_layer(pm, layers,
                                                         monkeypatch):
    # the two equal rows leave q^2 syndromes reachable, all within weight
    # 2, so the first layer that adds none ends the sweep, not weight n
    n = 14
    H = [[1, 0] + [1] * (n - 2)] + [[0, 1] + [1] * (n - 2)] * 2
    asked = []

    def recording(pool, w):
        asked.append(w)
        return combinations(pool, w)

    monkeypatch.setattr(kernels, "combinations", recording)
    with pytest.raises(InvariantViolation):
        kernels.coset_leader_weights(H, n, field_new(*pm))
    assert asked == layers


@pytest.mark.parametrize("pm, k, digest", [
    # characteristic 2, deficient radius: the sweep stops mid-layer
    ((2, 4), 12,
     "5cd20403e613205d260c45ecc5acbbb1a670259c4321ecd7b1580d06493c86f5"),
    # odd q: sums of base-p digit rows, prime and not
    ((3, 2), 4,
     "c7fd7811036a67cd5173bbfbfd9c2eb89c01896a328fd57f6ea75a176c99bf55"),
    ((11, 1), 8,
     "820fd38590a28b41d62539f59696dbb4fa5eb0483458f16c5d1f466dfc3e62f0"),
    ((3, 3), 24,
     "8345114ef44c6bdcec94f3d773b48ddf925dd9f0e8b34ba79814151b350ede55"),
], ids=["prs17.12-gf16", "prs10.4-gf9", "prs12.8-gf11", "prs28.24-gf27"])
def test_leader_arrays_match_recorded_digests(pm, k, digest):
    leader = covering_radius(prs(field_new(*pm), k))._leader
    assert hashlib.sha256(leader.tobytes()).hexdigest() == digest


ORBIT_FIELDS = {2: field_new(2, 1), 3: field_new(3, 1), 4: field_new(2, 2),
                5: field_new(5, 1), 9: field_new(3, 2)}


def _full_scan_counts(G, n, ctx):
    """Weight histogram of every message's codeword, by the full scan."""
    counts = [0] * (n + 1)
    for block in kernels.coset_blocks(G, n, ctx, [0] * n):
        for w in np.count_nonzero(block, axis=1).tolist():
            counts[w] += 1
    return counts


def _message_counts(G, n, ctx):
    """The same histogram, one message at a time with scalar field ops."""
    counts = [0] * (n + 1)
    for coeffs in product(range(ctx.q), repeat=len(G)):
        word = [0] * n
        for c, row in zip(coeffs, G):
            word = [ctx.add_i(x, ctx.mul_i(c, g)) for x, g in zip(word, row)]
        counts[sum(1 for x in word if x)] += 1
    return counts


@st.composite
def orbit_generators(draw):
    """A generator of 0 to n+1 rows with q^rows <= 729, some rows zero or
    multiples of earlier ones, so that the rows may be dependent."""
    ctx = ORBIT_FIELDS[draw(st.sampled_from(sorted(ORBIT_FIELDS)))]
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, min(n + 1, max(r for r in range(8)
                                            if ctx.q ** r <= 729))))
    G = []
    for _ in range(r):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat")))
        if kind == "zero":
            G.append([0] * n)
        elif kind == "repeat" and G:
            c = draw(st.integers(1, ctx.q - 1))
            G.append([ctx.mul_i(c, x) for x in draw(st.sampled_from(G))])
        else:
            G.append([draw(st.integers(0, ctx.q - 1)) for _ in range(n)])
    return ctx, G, n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(orbit_generators())
def test_orbit_histogram_matches_full_scan_and_messages(case):
    ctx, G, n = case
    q, k = ctx.q, len(G)
    want = _message_counts(G, n, ctx)
    assert _full_scan_counts(G, n, ctx) == want
    # 1 row: every part but the last becomes an offset
    for rows in (kernels._CHUNK_ROWS, 16, 1):
        with mock.patch.object(kernels, "_CHUNK_ROWS", rows):
            blocks = list(kernels.orbit_blocks(G, n, ctx))
            assert kernels.weight_counts(G, n, ctx) == want
        # one codeword per orbit of the q^k - 1 nonzero messages
        assert sum(b.shape[0] for b in blocks) == (q ** k - 1) // (q - 1)


def test_orbit_scan_counts_q_to_the_k_against_the_budget(monkeypatch):
    ctx = field_new(3, 1)
    G = [[1, 0, 0, 2], [0, 1, 0, 1], [0, 0, 1, 1]]  # 27 codewords
    v = [1, 0, 0, 0]
    assert kernels.weight_counts(G, 4, ctx, budget=27) \
        == _message_counts(G, 4, ctx)
    assert len(list(kernels.orbit_blocks(G, 4, ctx, budget=27))) == 3
    assert len(list(kernels.coset_blocks(G, 4, ctx, v, budget=27))) == 1
    assert sum(kernels.distance_counts(G, 4, ctx, v, budget=27)) == 27

    def no_block(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(kernels, "_multiples", no_block)
    with pytest.raises(BudgetExceeded):
        next(kernels.orbit_blocks(G, 4, ctx, budget=26))
    with pytest.raises(BudgetExceeded):
        kernels.weight_counts(G, 4, ctx, budget=26)
    with pytest.raises(BudgetExceeded):
        next(kernels.coset_blocks(G, 4, ctx, v, budget=26))
    with pytest.raises(BudgetExceeded):
        kernels.distance_counts(G, 4, ctx, v, budget=26)


def test_orbit_scan_passes_its_budget_to_the_inner_scans(monkeypatch):
    # GF(2) [26,26]: q^k = 2^26 fits a budget of 2^26, and so does the
    # coset scan of every leading row; the default budget of 2^24 would
    # refuse the scans of rows 25 and 26
    ctx = field_new(2, 1)
    G = [[int(i == j) for j in range(26)] for i in range(26)]
    monkeypatch.setattr(kernels, "_fold", lambda parts, add: iter(()))
    assert list(kernels.orbit_blocks(G, 26, ctx, budget=2 ** 26)) == []
    with pytest.raises(BudgetExceeded):
        next(kernels.orbit_blocks(G, 26, ctx, budget=2 ** 26 - 1))


@st.composite
def span_codes(draw):
    """Codes with q^n <= 2500 whose dimension is 0, 1, n-1 or n as often as
    a random k: a reduced generator with random pivot columns and random
    entries right of each pivot."""
    ctx = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max(n for n in range(1, 12)
                                if ctx.q ** n <= 2500)))
    k = draw(st.sampled_from((0, 1, n - 1, n, draw(st.integers(0, n)))))
    pivots = sorted(draw(st.permutations(range(n)))[:k])
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = draw(st.integers(0, ctx.q - 1))
        rows.append(row)
    return code_from_generator(Matrix(ctx, rows, cols=n), allow_zero=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(span_codes(), st.data())
def test_codeword_scan_matches_span_oracle(code, data):
    ctx, n, k = code.ctx, code.n, code.k
    words = list(helpers.span(code))
    assert list(code.codewords()) == words
    assert code.weight_enumerator() \
        == _full_scan_counts(code.generator._rows, n, ctx) \
        == helpers.brute_weight_enumerator(code)
    if k == 0:
        with pytest.raises(BadDims):
            code.min_distance()
    else:
        assert code.min_distance() == helpers.brute_min_distance(code)
    noise = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n,
                               max_size=n))
    word = [e.value for e in data.draw(st.sampled_from(words))]
    for v in (noise, word):
        dists = [helpers.hamming(ctx.vector(v), c) for c in words]
        assert kernels.distance_counts(code.generator._rows, n, ctx, v) \
            == [dists.count(w) for w in range(n + 1)]
        assert distance_to_code(code, v) == min(dists)
        # no report cached: the distance came from the codeword route
        assert (code._covering is None) == (k <= n - k)
    assert distance_to_code(code, word) == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(span_codes(), st.data())
def test_coset_scan_is_the_span_plus_its_offset(code, data):
    ctx, n = code.ctx, code.n
    offset = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n,
                                max_size=n))
    shift = ctx.vector(offset)
    want = [[(a + b).value for a, b in zip(word, shift)]
            for word in helpers.span(code)]
    # 1 row: the offset and every row but the last become fold offsets
    for rows in (kernels._CHUNK_ROWS, 16, 1):
        with mock.patch.object(kernels, "_CHUNK_ROWS", rows):
            blocks = list(kernels.coset_blocks(code.generator._rows, n, ctx,
                                               offset))
        assert np.concatenate(blocks).tolist() == want


@pytest.mark.parametrize("pm", [(3, 1), (2, 2)])
def test_codewords_run_the_first_row_slowest(pm):
    ctx = field_new(*pm)
    n = 3
    for k in range(n + 1):
        rows = [[int(i == j) for j in range(n)] for i in range(k)]
        code = code_from_generator(Matrix(ctx, rows, cols=n),
                                   allow_zero=True)
        want = [list(m) + [0] * (n - k)
                for m in product(range(ctx.q), repeat=k)]
        assert [[e.value for e in c] for c in code.codewords()] == want


LEX_FIELDS = [field_new(p, m) for p, m in
              ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))]


@st.composite
def lex_first_cases(draw, min_weight=0):
    """A random check H (zero and repeated rows allowed), a weight from
    min_weight to n and a few target syndromes, reachable at that weight
    or not."""
    ctx = draw(st.sampled_from(LEX_FIELDS))
    n = draw(st.integers(max(1, min_weight),
                         max(n for n in range(1, 14)
                             if ctx.q ** n <= 10 ** 4)))
    r = draw(st.integers(1, min(n, 3)))
    H = [[draw(st.integers(0, ctx.q - 1)) for _ in range(n)]
         for _ in range(r)]
    weight = draw(st.integers(min_weight, n))
    targets = draw(st.sets(st.integers(0, ctx.q ** r - 1), min_size=1,
                           max_size=6))
    return ctx, H, n, weight, targets


# The search batches the last b nonzero entries, b the largest weight
# whose batches fit _CHUNK_ROWS bytes: the default lets b reach the weight
# on these small cases, 256 and 16 stop it in between, 1 forces b = 1.
LEX_CHUNK_ROWS = (kernels._CHUNK_ROWS, 256, 16, 1)


def _check_lex_first(case, stop_after_first):
    ctx, H, n, weight, targets = case
    first = helpers.brute_lex_first_weight_vectors(H, n, ctx, weight)
    reached = {t: first[t] for t in targets if t in first}
    if stop_after_first and reached:
        t = min(reached, key=reached.get)
        want = {t: reached[t]}
    elif not stop_after_first and len(reached) == len(targets):
        want = reached
    else:
        want = None
    for rows in LEX_CHUNK_ROWS:
        with mock.patch.object(kernels, "_CHUNK_ROWS", rows):
            if want is None:
                with pytest.raises(InvariantViolation):
                    kernels.lex_first_weight_vectors(
                        H, n, ctx, weight, targets, stop_after_first)
            else:
                assert kernels.lex_first_weight_vectors(
                    H, n, ctx, weight, targets, stop_after_first) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lex_first_cases(), st.booleans())
def test_lex_first_matches_brute_force(case, stop_after_first):
    _check_lex_first(case, stop_after_first)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lex_first_cases(min_weight=3), st.booleans())
def test_lex_first_matches_brute_force_at_weight_3_and_up(
        case, stop_after_first):
    _check_lex_first(case, stop_after_first)


def test_lex_first_search_counts_tested_vectors_against_the_budget():
    # weight 2 in length 4 over GF(3)
    ctx = field_new(3, 1)
    H = [[1, 1, 1, 1], [0, 1, 2, 0]]
    target = helpers.scalar_syndrome(H, (0, 1, 1, 0), ctx)
    for rows, tested in (
            # 16 bytes hold no batch of weight 2 (24 syndromes), so b = 1:
            # the prefixes 0 0 1 and 0 0 2 test 2 vectors each, then the
            # prefix 0 1 tests 4 and finds the target
            (16, 2 + 2 + 4),
            # by default b = 2: one batch of all C(4, 2) * 2^2 vectors
            (kernels._CHUNK_ROWS, 24)):
        with mock.patch.object(kernels, "_CHUNK_ROWS", rows):
            assert kernels.lex_first_weight_vectors(
                H, 4, ctx, 2, {target}, budget=tested) \
                == {target: (0, 1, 1, 0)}
            with pytest.raises(BudgetExceeded):
                kernels.lex_first_weight_vectors(H, 4, ctx, 2, {target},
                                                 budget=tested - 1)
