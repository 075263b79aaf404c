"""The batched column-subset engine against one elimination per subset,
and its callers (first dependent columns, the routes of min_distance, the
minor and column-span deep-hole criteria) against brute force; the MDS
layer's minor table against the subset engine."""

import json
import random
import re
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from mdsx import code as code_module
from mdsx import kernels, suites
from mdsx.cli import main
from mdsx.code import code_from_generator
from mdsx.constructions import GrsSpec, egrs, grs
from mdsx.covering import (
    covering_radius,
    deep_holes_via_mds,
    full_radius_witness,
    syndrome_criteria,
)
from mdsx.errors import BadK, BudgetExceeded
from mdsx.field import FieldCtx, field_new
from mdsx.matrix import (
    Matrix,
    all_k_columns_independent,
    first_dependent_columns,
)

FIELDS = [field_new(p, m) for p, m in
          ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
# at 256 a chunk holds several small subsets, at 16 and 1 only one
CHUNKS = (kernels._CHUNK_BYTES, 256, 16, 1)


def _column(draw, ctx, r, earlier):
    """A random, zero, or repeated (and rescaled) column of length r."""
    kind = draw(st.sampled_from(("random", "random", "zero", "repeat")))
    if kind == "zero":
        return [0] * r
    if kind == "repeat" and earlier:
        c = draw(st.integers(1, ctx.q - 1))
        return [ctx.mul_i(c, x) for x in draw(st.sampled_from(earlier))]
    return [draw(st.integers(0, ctx.q - 1)) for _ in range(r)]


def _matrix_rows(draw, ctx, r, cols):
    columns = []
    for _ in range(cols):
        columns.append(_column(draw, ctx, r, columns))
    return [[c[i] for c in columns] for i in range(r)]


@st.composite
def stacks(draw):
    """1-3 matrices of r x (n + tail) over one field: r = 0 to 4, so both
    r < w and r > w, with zero and repeated columns."""
    ctx = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(0, 4))
    n = draw(st.integers(0, 6))
    w = draw(st.integers(0, n))
    tail = draw(st.integers(0, 1))
    mats = [_matrix_rows(draw, ctx, r, n + tail)
            for _ in range(draw(st.integers(1, 3)))]
    return ctx, mats, r, n, w, tail


def _all_ranks(mats, ctx, w, tail):
    subsets, ranks = [], []
    for chunk, r in kernels.subset_ranks(mats, ctx, w, tail=tail):
        subsets += [tuple(s) for s in chunk.tolist()]
        ranks += r.tolist()
    return subsets, ranks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stacks())
def test_subset_ranks_match_one_rank_per_subset(case):
    ctx, mats, r, n, w, tail = case
    subsets = list(combinations(range(n), w))
    fixed = tuple(range(n, n + tail))
    want = [[Matrix(ctx, m, cols=n + tail).select_cols(s + fixed).rank()
             for m in mats] for s in subsets]
    stack = np.array(mats, dtype=np.int64).reshape(len(mats), r, n + tail)
    for size in CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CHUNK_BYTES", size)
            assert _all_ranks(stack, ctx, w, tail) == (subsets, want)


@st.composite
def matrices(draw):
    ctx = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 7))
    m = Matrix(ctx, _matrix_rows(draw, ctx, r, cols), cols=cols)
    return m, draw(st.integers(0, min(r, cols)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices())
def test_first_dependent_columns_matches_lex_first_loop(case):
    m, k = case
    want = helpers.lex_first_dependent_columns(m, k) if k else None
    for size in CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_CHUNK_BYTES", size)
            assert first_dependent_columns(m, k) == want


# ---------------------------------------------------------------------------
# The MDS layer: square minors of the systematic part against the subsets
# ---------------------------------------------------------------------------

LAYER_FIELDS = [field_new(p, m) for p, m in
                ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2))]


def _minor(ctx, rows, k, R, C):
    """det A[R, C] of A in rows = [I_k | A], by the boxed reference."""
    return helpers.ref_det(Matrix(ctx, [[rows[a][k + b] for b in C]
                                        for a in R])).value


def _zero_one_minor(draw, ctx, rows, k):
    """Move one entry of A in rows = [I_k | A] onto the one value that
    zeroes a drawn i x i minor of A through it: the minor is affine in
    that entry, with the complementary minor of the MDS code's A, which is
    nonzero, as its slope.  Draws where the move zeroes a second minor
    too are rejected, so exactly one minor of A is 0."""
    m = len(rows[0]) - k
    i = draw(st.integers(1, min(k, m)))
    R = sorted(draw(st.permutations(range(k)))[:i])
    C = sorted(draw(st.permutations(range(m)))[:i])
    r, c = R[0], k + C[0]
    for x in range(ctx.q):
        rows[r][c] = x
        if not _minor(ctx, rows, k, R, C):
            break
    else:
        raise AssertionError("no value zeroes the minor")
    zero = [(S, T) for j in range(1, min(k, m) + 1)
            for S in combinations(range(k), j)
            for T in combinations(range(m), j)
            if not _minor(ctx, rows, k, S, T)]
    assume(zero == [(tuple(R), tuple(C))])


@st.composite
def layer_matrices(draw):
    """k x n matrices for the MDS-layer twin, 1 <= k <= n - 1, so k = 1
    and k = n - 1 among them: reduced generators [I | A] of GRS and
    extended GRS codes (MDS), the same with one minor of A zeroed,
    rank-deficient matrices, and RREF matrices whose pivots are not the
    first k columns.  Some have a row added to another, so they arrive
    unreduced."""
    ctx = draw(st.sampled_from(LAYER_FIELDS))
    kind = draw(st.sampled_from(("mds", "one-minor", "one-minor",
                                 "deficient", "pivots")))
    n = draw(st.sampled_from(range(2, 9)))
    if kind in ("mds", "one-minor"):
        n = min(n, ctx.q + 1)
    k = draw(st.sampled_from(range(1, n)))
    if kind in ("mds", "one-minor"):
        nodes = draw(st.permutations(range(ctx.q)))[:min(n, ctx.q)]
        mult = [draw(st.integers(1, ctx.q - 1)) for _ in nodes]
        spec = GrsSpec.make(ctx, nodes, mult, k)
        code = grs(spec) if n <= ctx.q else egrs(spec)
        rows = code.generator.to_int_rows()
        if kind == "one-minor":
            _zero_one_minor(draw, ctx, rows, k)
    elif kind == "deficient":
        rows = _matrix_rows(draw, ctx, k, n)
        c = draw(st.integers(0, ctx.q - 1))
        rows[-1] = [ctx.mul_i(c, x) for x in rows[0]] if k > 1 else [0] * n
    else:
        pivots = sorted(draw(st.permutations(range(n)))[:k])
        if pivots == list(range(k)):
            pivots[-1] = n - 1
        rows = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            rows[i][p] = 1
            for j in range(p + 1, n):
                if j not in pivots:
                    rows[i][j] = draw(st.integers(0, ctx.q - 1))
    if k > 1 and draw(st.booleans()):
        c = draw(st.integers(1, ctx.q - 1))
        rows[1] = [ctx.add_i(a, ctx.mul_i(c, b))
                   for a, b in zip(rows[1], rows[0])]
    return Matrix(ctx, rows, cols=n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(layer_matrices())
def test_all_k_columns_independent_matches_first_dependent_columns(m):
    want = first_dependent_columns(m, m.rows) is None
    for size in CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            # one row subset per chunk at the smallest sizes
            mp.setattr(kernels, "_CHUNK_BYTES", size)
            assert all_k_columns_independent(m) == want


def test_all_k_columns_independent_edges():
    gf = field_new(3, 1)
    assert all_k_columns_independent(Matrix(gf, [], cols=4))
    # A = [[1, 1], [1, 2]] has det 1 but permanent 0, and [[1, 1], [1, 1]]
    # det 0 but permanent 2: over GF(3) only the minors' signs decide
    for a, want in (([1, 2], True), ([1, 1], False)):
        m = Matrix(gf, [[1, 0, 1, 1], [0, 1, *a]])
        assert all_k_columns_independent(m) is want
        assert (first_dependent_columns(m, 2) is None) is want
    assert all_k_columns_independent(Matrix(gf, [[2, 1], [1, 1]]))
    assert not all_k_columns_independent(Matrix(gf, [[1, 2], [2, 1]]))
    with pytest.raises(BadK):
        all_k_columns_independent(Matrix(gf, [[1], [2]]))
    with pytest.raises(BadK):
        first_dependent_columns(Matrix(gf, [[1], [2]]), 2)


def test_mds_layer_refuses_past_the_budget_before_building_anything(
        monkeypatch):
    gf = field_new(2, 1)
    small = Matrix(gf, [[1, 0, 1, 1], [0, 1, 1, 0]])
    assert not all_k_columns_independent(small, budget=comb(4, 2))

    def never(*args):
        raise AssertionError("the layer test built something")

    monkeypatch.setattr(Matrix, "rref", never)
    monkeypatch.setattr(kernels, "_minors_nonzero", never)
    with pytest.raises(BudgetExceeded):
        all_k_columns_independent(small, budget=comb(4, 2) - 1)
    big = Matrix(gf, [[1] * 40 for _ in range(20)])  # C(40, 20) > 10^11
    with pytest.raises(BudgetExceeded):
        all_k_columns_independent(big)


# ---------------------------------------------------------------------------
# Deep-hole criteria against brute force
# ---------------------------------------------------------------------------

def _criteria_codes():
    """Random small codes: evaluation codes on random nodes and
    multipliers (MDS, full or deficient radius) and random generators
    (mostly not MDS), with q^n <= 1024."""
    rng = random.Random(2024)
    codes = []
    for ctx in (field_new(2, 1), field_new(3, 1), field_new(2, 2),
                field_new(5, 1)):
        n_max = max(n for n in range(1, 11) if ctx.q ** n <= 1024)
        for _ in range(3):
            n = rng.randint(2, min(ctx.q, n_max))
            k = rng.randint(1, n - 1)
            nodes = rng.sample(range(ctx.q), n)
            mult = [rng.randrange(1, ctx.q) for _ in range(n)]
            codes.append(grs(GrsSpec.make(ctx, nodes, mult, k)))
            if n + 1 <= n_max:
                codes.append(egrs(GrsSpec.make(ctx, nodes, mult, k)))
        for _ in range(2):
            n = rng.randint(2, n_max)
            rows = [[rng.randrange(ctx.q) for _ in range(n)]
                    for _ in range(rng.randint(1, n - 1))]
            if any(map(any, rows)):
                codes.append(code_from_generator(Matrix(ctx, rows)))
    return codes


CRITERIA_CODES = _criteria_codes()


@pytest.mark.parametrize("code", CRITERIA_CODES,
                         ids=[f"q{c.ctx.q}-{c.n}.{c.k}-{i}"
                              for i, c in enumerate(CRITERIA_CODES)])
def test_criteria_match_brute_deep_holes(code):
    rho, holes = helpers.brute_deep_holes(code)
    us = list(product(range(code.ctx.q), repeat=code.n))
    want = [u in holes for u in us]
    rep = covering_radius(code)
    assert rep.rho == rho
    assert (rep.leader_weights(us) == rho).tolist() == want
    assert syndrome_criteria(code.parity, us, rho).tolist() == want
    assert [syndrome_criteria(code.parity, [u], rho)[0] for u in us] == want
    if code.is_mds() and rho == code.n - code.k:
        assert deep_holes_via_mds(code, us).tolist() == want
        assert [deep_holes_via_mds(code, [u])[0] for u in us] == want
        witness = full_radius_witness(code)
        assert tuple(e.value for e in witness) in holes


def test_the_suite_keeps_the_first_disagreement(monkeypatch):
    # flip the column-span verdict at the middle and the last u of every
    # code: each case stops at the middle one, and the report names the
    # first code's middle u
    real = suites.syndrome_criteria

    def flipped(h, us, rho, budget):
        out = real(h, us, rho, budget)
        out[[len(us) // 2, -1]] ^= True
        return out

    monkeypatch.setattr(suites, "syndrome_criteria", flipped)
    rep = suites.run_suite("dp-vs-bruteforce", {})
    cases = [c for c in rep["cases"] if c["part"] == "criteria-agreement"]
    assert not rep["passed"]
    assert [c for c in rep["cases"] if not c["ok"]] == cases
    first_bad = rep["counterexample"]["criteria_disagreement"]
    middles = []
    for case in cases:
        n = int(re.match(r"[a-z-]+\[(\d+),", case["code"]).group(1))
        us = list(product(range(case["q"]), repeat=n))
        middles.append(list(us[len(us) // 2]))
        assert (case["checked"], case["ok"]) == (len(us) // 2 + 1, False)
    assert first_bad == {"q": cases[0]["q"], "code": cases[0]["code"],
                         "u": middles[0]}


# ---------------------------------------------------------------------------
# min_distance: every route against brute force
# ---------------------------------------------------------------------------

def _code(pm, rows):
    return code_from_generator(Matrix(field_new(*pm), rows))


def _route(monkeypatch):
    """Record the calls that min_distance makes: ("mds", rows) for the MDS
    layer test, (rows, w) for the dependent-column search of one layer
    and "scan" for the codeword scan."""
    calls = []
    fdc, scan = code_module.first_dependent_columns, kernels.weight_counts
    layer = code_module.all_k_columns_independent

    def subsets(m, k, budget):
        calls.append((m.rows, k))
        return fdc(m, k, budget)

    def mds_layer(m, budget):
        calls.append(("mds", m.rows))
        return layer(m, budget)

    def weights(*args, **kw):
        calls.append("scan")
        return scan(*args, **kw)

    monkeypatch.setattr(code_module, "first_dependent_columns", subsets)
    monkeypatch.setattr(code_module, "all_k_columns_independent", mds_layer)
    monkeypatch.setattr(kernels, "weight_counts", weights)
    return calls


GRS52 = ((5, 1), [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]])
GRS53 = ((5, 1), [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4], [0, 1, 4, 4, 1]])
# GF(5) [5,2] with a weight-2 codeword: d = 2 < n - k + 1 = 4
LIGHT52 = ((5, 1), [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]])
# GF(4) [6,3] with weight-2 rows: two equal columns in H, d = 2
LIGHT63 = ((2, 2), [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0],
                    [0, 0, 0, 0, 1, 1]])
# GF(2) [5,3] with a weight-1 codeword: a zero column in H, d = 1
UNIT53 = ((2, 1), [[1, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]])


@pytest.mark.parametrize("spec, budget, route, d", [
    # C(5, 3) = 10 >= q^k = 8: the codeword scan first
    (UNIT53, None, ["scan"], 1),
    # C(n, k) < q^k: the MDS layer first, on the side with fewer rows:
    # G's 2 rows, H's 2 rows
    (GRS52, None, [("mds", 2)], 4),
    (GRS53, None, [("mds", 2)], 3),
    # not MDS: the codeword scan when it fits the budget
    (LIGHT52, None, [("mds", 2), "scan"], 2),
    # not MDS and q^k = 64 over the budget: the MDS layer on H, then H's
    # layers bottom-up, 20 + 6 + 15 subsets within the budget of 63
    (LIGHT63, 63, [("mds", 3), (3, 1), (3, 2)], 2),
    # C(5, 3) = 10 >= budget 7 < q^k = 8: no layer test, bottom-up at once
    (UNIT53, 7, [(2, 1)], 1),
], ids=["scan", "layer-G", "layer-H", "layer-then-scan",
        "layer-then-supports", "supports"])
def test_min_distance_routes(spec, budget, route, d, monkeypatch):
    code = _code(*spec)
    assert helpers.brute_min_distance(code) == d
    calls = _route(monkeypatch)
    kw = {} if budget is None else {"budget": budget}
    assert code.min_distance(**kw) == d
    assert calls == route


def test_support_search_refuses_past_the_budget():
    # GF(2) [5,3] with d = 2: layer 1 (5 subsets) passes, layer 2 (10 more)
    # would exceed a budget of 7
    code = _code((2, 1), [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1]])
    with pytest.raises(BudgetExceeded):
        code.min_distance(budget=7)
    assert _code((2, 1), code.generator.to_int_rows()).min_distance() == 2
    # GF(4) [6,3], d = 2, budget 30: every layer fits alone, but the MDS
    # layer (20), layer 1 (6) and layer 2 (15) together do not
    with pytest.raises(BudgetExceeded):
        _code(*LIGHT63).min_distance(budget=30)


@st.composite
def distance_codes(draw):
    """Random reduced codes, often not MDS (zeros and repeated columns),
    with q^k small enough for the brute-force oracle."""
    ctx = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 7))
    k_max = max(k for k in range(1, n + 1) if ctx.q ** k <= 800)
    k = draw(st.integers(1, min(k_max, n)))
    rows = _matrix_rows(draw, ctx, k, n)
    if not any(map(any, rows)):
        rows[0][0] = 1
    return code_from_generator(Matrix(ctx, rows))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(distance_codes())
def test_min_distance_matches_brute_force_on_every_route(code):
    want = helpers.brute_min_distance(code)
    n, k, total = code.n, code.k, code.ctx.q ** code.k
    # the bottom-up search visits at most the layer test and layers
    # 1..n-k; below q^k that budget forces the column-subset route
    worst = comb(n, k) + sum(comb(n, w) for w in range(1, n - k + 1))
    budgets = [kernels.DEFAULT_BUDGET] + ([total - 1] if worst < total
                                          else [])
    for size in CHUNKS:
        for budget in budgets:
            fresh = code_from_generator(code.generator)
            with pytest.MonkeyPatch.context() as mp:
                # the same small sizes split the codeword route's folds
                mp.setattr(kernels, "_CHUNK_BYTES", size)
                mp.setattr(kernels, "_BLOCK_ROWS", size)
                assert fresh.min_distance(budget) == want
                assert fresh.is_mds(budget) == (want == n - k + 1)


# ---------------------------------------------------------------------------
# Budgets on subset searches
# ---------------------------------------------------------------------------

def test_subset_budget_refuses_before_building_anything(monkeypatch):
    def never(*args):
        raise AssertionError("subsets were eliminated")

    monkeypatch.setattr(kernels, "_ranks", never)
    gf = field_new(2, 1)
    m = Matrix(gf, [[1] * 40 for _ in range(20)])  # C(40, 20) > 10^11
    with pytest.raises(BudgetExceeded):
        first_dependent_columns(m, 20)
    with pytest.raises(BudgetExceeded):
        first_dependent_columns(m, 3, budget=comb(40, 3) - 1)
    with pytest.raises(BudgetExceeded):
        syndrome_criteria(m, [[1] * 40], 21)


def test_criteria_count_subsets_per_vector():
    code = grs(GrsSpec.make(field_new(5, 1), [0, 1, 2, 3], 1, 2)).dual()
    rep = covering_radius(code)
    assert code.is_mds() and rep.rho == 2
    u = [0, 3, 3, 4]
    # C(4, 3) subsets per u for the minor test
    assert deep_holes_via_mds(code, [u], budget=4).tolist() == [True]
    with pytest.raises(BudgetExceeded):
        deep_holes_via_mds(code, [u], budget=3)
    with pytest.raises(BudgetExceeded):
        deep_holes_via_mds(code, [u, u], budget=7)
    # C(4, 1) subsets for u and once for h alone
    assert syndrome_criteria(code.parity, [u], 2, budget=8).tolist() == [True]
    with pytest.raises(BudgetExceeded):
        syndrome_criteria(code.parity, [u], 2, budget=7)


def test_cli_mindist_refuses_a_search_past_the_budget(capsys, tmp_path):
    # 16^12 codewords and C(17, 12) subsets are both over the budget, and
    # the bottom-up search meets it at the layer of 2 columns
    spec = tmp_path / "prs.json"
    spec.write_text(json.dumps({"field": {"p": 2, "m": 4},
                                "code": {"type": "prs", "k": 12}}))
    assert main(["mindist", str(spec), "--budget", "100"]) == 3
    assert main(["mindist", str(spec), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 6


# ---------------------------------------------------------------------------
# Field arrays and the length of row-free generators
# ---------------------------------------------------------------------------

def test_field_arrays_are_built_once(monkeypatch):
    # the field builds its arrays with its tables; the kernels only read
    # them, and the memoized field never builds them again
    gf = field_new(1021, 1)
    arrays = gf._arrays
    log, exp, _ = arrays
    monkeypatch.setattr(FieldCtx, "_build_tables", None)
    code = grs(GrsSpec.make(gf, [0, 1, 2], 1, 1))
    assert code.weight_enumerator() == [1, 0, 0, 1020]
    assert covering_radius(code).rho == 2
    assert field_new(1021, 1)._arrays is arrays
    assert gf._arrays[0] is log and gf._arrays[1] is exp
    assert (log.dtype, exp.dtype) == (np.int64, np.uint16)
    assert exp.size == 4 * 1020 + 1


@pytest.mark.parametrize("pm", [(2, 2), (3, 1), (1031, 1)])
def test_zero_row_generator_keeps_its_length(pm):
    ctx = field_new(*pm)
    blocks = list(kernels.coset_blocks([], 5, ctx, [0] * 5))
    assert [b.tolist() for b in blocks] == [[[0] * 5]]
    blocks = list(kernels.coset_blocks([], 5, ctx, [0, 1, 0, 1, 1]))
    assert [b.tolist() for b in blocks] == [[[0, 1, 0, 1, 1]]]
    assert kernels.weight_counts([], 5, ctx) == [1, 0, 0, 0, 0, 0]
    assert kernels.distance_counts([], 5, ctx, [0, 1, 0, 1, 1]) \
        == [0, 0, 0, 1, 0, 0]
