import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import verify_theorem6
from mdsx import kernels, serialize, suites
from mdsx.code import code_from_generator, full_code
from mdsx.constructions import GrsSpec, egrs, egrs_dual_code, grs, prs, \
    thm7_u
from mdsx.covering import (
    covering_radius,
    deep_holes_via_mds,
    distance_to_code,
    extensions_mds,
    full_radius_witness,
    is_deep_hole,
    syndrome_criteria,
)
from mdsx.errors import (
    BadEncoding,
    BadLimit,
    BadRho,
    BudgetExceeded,
    CoveringRadiusDeficient,
    LengthMismatch,
    MdsxError,
    NotMds,
)
from mdsx.field import field_new
from mdsx.matrix import Matrix, _box, first_dependent_columns

gf2 = field_new(2, 1)
gf3 = field_new(3, 1)
gf4 = field_new(2, 2)
gf5 = field_new(5, 1)

NODES4 = gf5.vector([0, 1, 2, 3])
GRS42 = grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2))
DUAL42 = GRS42.dual()
THM7_U = thm7_u(NODES4, gf5.vector([1, 1, 1, 1]), 2)


class TestCoveringRadius:
    def test_full_space_is_zero(self):
        assert covering_radius(full_code(gf5, 4)).rho == 0

    def test_example_over_gf4(self):
        dual = egrs_dual_code(gf4.vector([0, 1, 2, 3]), 3)
        assert (dual.n, dual.k, dual.min_distance()) == (5, 2, 4)
        assert covering_radius(dual).rho == 3

    def test_example_over_gf8(self):
        gf8 = field_new(2, 3)
        dual = egrs_dual_code(gf8.vector(range(8)), 3)
        assert (dual.n, dual.k, dual.min_distance()) == (9, 6, 4)
        assert covering_radius(dual).rho == 3

    def test_matches_definitional_maximum(self):
        rng = random.Random(7)
        cases = []
        for ctx in (gf2, gf3, gf4):
            for _ in range(6):
                n = rng.randint(2, 5)
                k = rng.randint(1, n)
                m = Matrix(ctx, [[rng.randrange(ctx.q) for _ in range(n)]
                                 for _ in range(k)])
                if any(e.value for row in m.row_list() for e in row):
                    cases.append(code_from_generator(m))
        assert cases
        for code in cases:
            assert covering_radius(code).rho \
                == helpers.brute_covering_radius(code)

    def test_random_vectors_give_lower_bound(self):
        rng = random.Random(13)
        rep = covering_radius(DUAL42)
        best = max(distance_to_code(
            DUAL42, [rng.randrange(5) for _ in range(4)])
            for _ in range(1000))
        assert best <= rep.rho
        assert rep.rho == 2

    def test_mds_radius_range(self):
        rng = random.Random(19)
        for ctx in (gf3, gf4, gf5):
            for _ in range(8):
                n = rng.randint(2, ctx.q)
                k = rng.randint(1, n - 1)
                c = grs(GrsSpec.make(ctx, rng.sample(range(ctx.q), n), 1, k))
                rho = covering_radius(c).rho
                assert rho in (n - k - 1, n - k)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            covering_radius(grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 1)),
                            budget=100)

    def test_leader_weight_counts_total(self):
        rep = covering_radius(DUAL42)
        assert sum(rep.coset_leader_weight_counts()) == 5 ** 2

    def test_leader_weight_is_the_leader_weights_row(self):
        rep = covering_radius(DUAL42)
        us = list(product(range(5), repeat=4))
        for u, w in zip(us, rep.leader_weights(us).tolist()):
            for form in (u, gf5.vector(u), np.array(u)):
                got = rep.leader_weight(form)
                assert type(got) is int and got == w
        assert covering_radius(full_code(gf5, 3)).leader_weight([1, 2, 3]) \
            == 0

    def test_rho_is_max_leader_weight(self):
        for code in (DUAL42, GRS42, prs(gf4, 2)):
            rep = covering_radius(code)
            counts = rep.coset_leader_weight_counts()
            assert counts[rep.rho] > 0
            assert rep.num_deep_hole_cosets == counts[rep.rho]


def _twin_codes():
    """Codes over GF(2), GF(16), GF(5), GF(9) and GF(2^16), and two with
    k = n, whose syndrome maps have no rows."""
    gf9, gf16 = field_new(3, 2), field_new(2, 4)
    hamming = code_from_generator(Matrix(gf2, [
        [1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]))
    return [hamming, grs(GrsSpec.make(gf16, range(6), 1, 3)), DUAL42,
            grs(GrsSpec.make(gf9, range(5), [1, 2, 3, 4, 5], 2)),
            grs(GrsSpec.make(field_new(2, 16), range(6), 1, 1)).dual(),
            full_code(gf2, 3), full_code(gf9, 3)]


TWIN_CODES = _twin_codes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(TWIN_CODES), st.integers(0, 40),
       st.sampled_from((0, .5, 1)), st.integers(0, 2 ** 32 - 1))
def test_leader_weights_match_the_product_twin(code, count, zeros, seed):
    # the report's syndrome map against mat_vecs packed entry by entry
    rng = np.random.default_rng(seed)
    shape = (count, code.n)
    vectors = np.where(rng.random(shape) < zeros, 0,
                       rng.integers(0, code.ctx.q, shape))
    rep = covering_radius(code)
    got = rep.leader_weights(vectors)
    assert got.tolist() == \
        helpers.leader_weights_by_product(rep, vectors).tolist()
    assert [rep.leader_weight(v) for v in vectors[:3]] == got[:3].tolist()


@pytest.mark.parametrize("code", [
    prs(gf4, 2), prs(field_new(3, 2), 4),
    grs(GrsSpec.make(field_new(2, 16), range(6), 1, 1)).dual(),
    full_code(gf5, 3),
], ids=["prs5.2-gf4", "prs10.4-gf9", "grs6.1-dual-gf65536", "k=n"])
def test_leader_histogram_and_deep_holes_match_the_whole_array_twin(code):
    # PRS [10,4]/GF(9) spans several reader chunks, the k = n code's
    # leader array has one entry
    rep = covering_radius(code)
    want = helpers.leader_counts_whole(rep._leader, rep.rho).tolist()
    assert rep.coset_leader_weight_counts() == want
    assert rep.num_deep_hole_cosets == want[-1]
    assert rep.deep_hole_syndromes.tolist() == \
        helpers.leader_positions_whole(rep._leader, rep.rho).tolist()
    # the counts are cached once: a caller's list is its own
    rep.coset_leader_weight_counts()[0] += 1
    assert rep.to_dict()["coset_leader_weight_counts"] == want


def test_leader_histogram_makes_no_copy_of_the_leader_array():
    # PRS [17,12]/GF(16): q^r = 2^20 syndromes, one byte each.  The chunked
    # reader's temporaries stay below that; an int64 copy takes 8 * q^r
    rep = covering_radius(prs(field_new(2, 4), 12))
    tracemalloc.start()
    try:
        rep.coset_leader_weight_counts()
        assert rep.num_deep_hole_cosets == 36480
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rep._leader.nbytes == 16 ** 5


def test_one_report_builds_one_table_of_multiples(monkeypatch):
    # the sweep's syndrome map serves every later lookup and search
    real = kernels._terms
    builds = []

    def counted(*args):
        builds.append(args)
        return real(*args)
    code = grs(GrsSpec.make(gf5, range(5), 1, 2))
    monkeypatch.setattr(kernels, "_terms", counted)
    rep = covering_radius(code)
    assert rep.rho == code.n - code.k
    for u in ([1, 2, 3, 4, 0], [0, 0, 0, 0, 1], [1, 1, 2, 3, 4]):
        rep.leader_weight(u)
    rep.leader_weights(list(product(range(5), repeat=5))[:100])
    assert len(rep.representatives()) == rep.num_deep_hole_cosets
    assert full_radius_witness(code) is not None
    assert distance_to_code(code, [0, 0, 0, 0, 1]) == 1
    assert is_deep_hole(code, rep.representatives()[0])
    assert len(builds) == 1


class TestRepresentatives:
    # odd characteristic and characteristic 2 (packed syndromes add by XOR)
    @pytest.mark.parametrize("code", [
        DUAL42, egrs_dual_code(gf4.vector([0, 1, 2, 3]), 3)],
        ids=["gf5", "gf4"])
    def test_lex_first_leaders(self, code):
        # brute force: for each deep-hole coset, the lexicographically
        # smallest minimum-weight vector
        rep = covering_radius(code)
        rho, holes = helpers.brute_deep_holes(code)
        assert rho == rep.rho
        by_syndrome = {}
        for v in sorted(holes):
            ve = code.ctx.vector(v)
            if helpers.weight(ve) != rho:
                continue
            s = tuple(e.value for e in code.parity.mat_vec(ve))
            by_syndrome.setdefault(s, v)
        got = {}
        for r in rep.representatives():
            s = tuple(e.value for e in code.parity.mat_vec(r))
            got[s] = tuple(e.value for e in r)
        assert got == by_syndrome

    def test_deep_hole_count_against_brute_force(self):
        code = DUAL42
        rep = covering_radius(code)
        _, holes = helpers.brute_deep_holes(code)
        # every deep hole is leader weight rho; cosets partition them
        assert rep.num_deep_hole_cosets == len(holes) // 5 ** code.k

    def test_report_serialization(self):
        rep = covering_radius(DUAL42)
        d = rep.to_dict(include_representatives=True)
        assert d["rho"] == rep.rho
        assert len(d["representatives"]) == d["num_deep_hole_cosets"]

    def test_negative_limit_is_refused(self):
        # PRS [5,2]/GF(4) has 3 deep-hole cosets; a negative limit would
        # slice from the end of their list.  Refused before the search and
        # once the full list is cached.
        rep = covering_radius(prs(gf4, 2))
        assert rep.num_deep_hole_cosets == 3
        for cached in (False, True):
            for limit in (-1, -2):
                with pytest.raises(BadLimit):
                    rep.representatives(limit=limit)
                with pytest.raises(BadLimit):
                    rep.to_dict(include_representatives=True, limit=limit)
            assert rep.representatives(limit=0) == []
            assert rep.to_dict(include_representatives=True,
                               limit=0)["representatives"] == []
            assert len(rep.representatives(limit=2)) == 2
            assert (rep._reps is not None) == cached
            rep.representatives()

    @pytest.mark.parametrize("limit", [None, 0, 2])
    def test_representatives_box_the_encoding_rows(self, limit):
        # the boxed rows are the per-row boxing of the rows to_dict emits,
        # the same interned elements, before and after the cache fills
        rep = covering_radius(prs(gf4, 2))
        for cached in (False, True):
            assert (rep._reps is not None) == cached
            got = rep.representatives(limit=limit)
            rows = rep.to_dict(include_representatives=True,
                               limit=limit)["representatives"]
            want = [_box(gf4, r) for r in rows]
            assert len(want) == (3 if limit is None else limit)
            assert got == want
            assert all(a is b for g, w in zip(got, want)
                       for a, b in zip(g, w))
            rep.representatives()


class TestDistanceToCode:
    def test_codeword_is_zero(self):
        for word in list(GRS42.codewords())[:5]:
            assert distance_to_code(GRS42, word) == 0

    def test_single_error_radius(self):
        word = next(iter(GRS42.codewords()))
        v = list(word)
        v[1] = v[1] + gf5.one
        assert GRS42.min_distance() == 3
        assert distance_to_code(GRS42, v) == 1

    def test_thm7_vector_distance_is_k(self):
        assert distance_to_code(DUAL42, THM7_U) == 2

    def test_agrees_with_brute_force(self):
        rng = random.Random(29)
        for _ in range(50):
            v = [rng.randrange(5) for _ in range(4)]
            assert distance_to_code(DUAL42, gf5.vector(v)) \
                == helpers.brute_distance_to_code(DUAL42, gf5.vector(v))

    def test_both_routes_agree(self):
        # codeword-scan route vs coset-leader route
        rng = random.Random(37)
        c1 = grs(GrsSpec.make(gf4, [0, 1, 2], 1, 2))
        c2 = grs(GrsSpec.make(gf4, [0, 1, 2], 1, 2))
        covering_radius(c2)  # forces the leader route on c2
        for _ in range(64):
            v = [rng.randrange(4) for _ in range(3)]
            assert distance_to_code(c1, v) == distance_to_code(c2, v)

    def test_length_check(self):
        with pytest.raises(LengthMismatch):
            distance_to_code(GRS42, [0, 0])

    def test_cached_report_answers(self, monkeypatch):
        # q^k = q^(n-k): a fresh code takes the codeword route once, and a
        # code with a covering report never does
        scans = []
        real = kernels.distance_counts

        def recording(*args):
            scans.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "distance_counts", recording)
        code = grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2))
        assert distance_to_code(code, THM7_U) == 1
        assert len(scans) == 1
        rep = covering_radius(code)
        assert distance_to_code(code, THM7_U) == 1
        for u in product(range(5), repeat=4):
            assert distance_to_code(code, u) == rep.leader_weight(u)
        assert len(scans) == 1


class TestDeepHoleCriteria:
    def test_codeword_is_not_deep_hole(self):
        word = next(iter(DUAL42.codewords()))
        assert covering_radius(DUAL42).rho >= 1
        assert not is_deep_hole(DUAL42, word)

    def test_thm7_vector_is_deep_hole(self):
        assert is_deep_hole(DUAL42, THM7_U)
        assert deep_holes_via_mds(DUAL42, [THM7_U])[0]
        assert syndrome_criteria(DUAL42.parity, [THM7_U],
                                 covering_radius(DUAL42).rho)[0]

    def test_ones_vector_cyclic_dual(self):
        from mdsx.constructions import cyclic_cu
        dual = cyclic_cu(2, 2).dual()
        assert is_deep_hole(dual, [1] * 5)

    def test_codeword_fails_minor_test(self):
        word = next(iter(DUAL42.codewords()))
        assert not deep_holes_via_mds(DUAL42, [word])[0]

    def test_via_mds_needs_mds(self):
        c = code_from_generator(Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
        with pytest.raises(NotMds):
            deep_holes_via_mds(c, [[1, 0, 0, 0]])

    def test_via_mds_refuses_deficient_radius(self):
        # radius-deficient MDS code: the projective evaluation code with
        # k = q - 1 has radius 1 < n - k = 2
        c = prs(gf5, 4)
        assert c.is_mds()
        assert covering_radius(c).rho == 1
        with pytest.raises(CoveringRadiusDeficient):
            deep_holes_via_mds(c, [[1, 0, 0, 0, 0, 0]])

    def test_syndrome_criterion_rejects_codewords(self):
        word = next(iter(DUAL42.codewords()))
        assert not syndrome_criteria(DUAL42.parity, [word], 2)[0]

    def test_syndrome_criteria_at_radius_zero(self):
        # the full space has an empty parity check, radius 0, and every
        # vector as a deep hole
        full = full_code(gf3, 3)
        us = list(product(range(3), repeat=3))
        assert full.parity.rows == 0 and covering_radius(full).rho == 0
        assert syndrome_criteria(full.parity, us, 0).tolist() \
            == [True] * len(us)

    def test_syndrome_criterion_bad_rho(self):
        with pytest.raises(BadRho):
            syndrome_criteria(DUAL42.parity, [THM7_U], -1)

    def test_syndrome_criteria_read_a_numpy_integer_radius(self):
        # GRS[5,2]/GF(5) has rho 3: np.int64(3) is that radius, 3.0 is not
        # an integer at all
        c = grs(GrsSpec.make(gf5, range(5), 1, 2))
        assert covering_radius(c).rho == 3
        us = list(product(range(5), repeat=5))[::97]
        want = syndrome_criteria(c.parity, us, 3).tolist()
        assert any(want) and not all(want)
        assert syndrome_criteria(c.parity, us, np.int64(3)).tolist() == want
        with pytest.raises(BadRho, match="not an integer"):
            syndrome_criteria(c.parity, us, 3.0)

    def test_exhaustive_agreement_gf3_full_radius(self):
        # all three criteria agree on every vector for a full-radius code
        c = grs(GrsSpec.make(gf3, [0, 1, 2], 1, 1))
        rep = covering_radius(c)
        assert c.is_mds() and rep.rho == c.n - c.k
        for vals in product(range(3), repeat=3):
            v = gf3.vector(vals)
            dh = is_deep_hole(c, v)
            assert dh == deep_holes_via_mds(c, [v])[0]
            assert dh == syndrome_criteria(c.parity, [v], rep.rho)[0]

    def test_exhaustive_agreement_gf3_deficient_radius(self):
        # the projective [4,2] code over GF(3) has radius 1 = n-k-1: the
        # minor test refuses, but the column-span criterion still agrees
        c = egrs(GrsSpec.make(gf3, [0, 1, 2], 1, 2))
        rep = covering_radius(c)
        assert c.is_mds() and rep.rho == c.n - c.k - 1
        with pytest.raises(CoveringRadiusDeficient):
            deep_holes_via_mds(c, [[0, 0, 0, 1]])
        for vals in product(range(3), repeat=4):
            v = gf3.vector(vals)
            assert is_deep_hole(c, v) \
                == syndrome_criteria(c.parity, [v], rep.rho)[0]

    def test_deep_holes_are_coset_closed(self):
        rng = random.Random(43)
        rep = covering_radius(DUAL42)
        words = list(DUAL42.codewords())
        hole = THM7_U
        for _ in range(20):
            c = words[rng.randrange(len(words))]
            shifted = [a + b for a, b in zip(hole, c)]
            assert is_deep_hole(DUAL42, shifted)


class TestFullRadiusWitness:
    def test_grs_has_witness(self):
        w = full_radius_witness(GRS42)
        assert w is not None
        assert covering_radius(GRS42).rho == 2
        stacked = GRS42.generator.with_row(w)
        assert first_dependent_columns(stacked, 3) is None

    def test_deficient_code_has_none(self):
        c = prs(gf5, 4)  # [6,4,3] with radius 1 = q - k < n - k
        assert covering_radius(c).rho == 1
        assert full_radius_witness(c) is None

    def test_full_space_degenerate(self):
        assert full_radius_witness(full_code(gf5, 3)) is None

    def test_requires_mds(self):
        c = code_from_generator(Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
        with pytest.raises(NotMds):
            full_radius_witness(c)


class TestVerifyTheorem6:
    def test_thm7_instance(self):
        chk = verify_theorem6(GRS42, THM7_U)
        assert (chk.extended_mds, chk.rho_dual_is_k, chk.u_deep_hole_dual) \
            == (True, True, True)
        assert chk.consistent

    def test_dual_codeword_gives_trivial_extension(self):
        u = GRS42.parity.row(0)
        chk = verify_theorem6(GRS42, u)
        assert not chk.extended_mds
        assert not chk.u_deep_hole_dual
        assert chk.consistent

    def test_exhaustive_small(self):
        # the batched left side against the per-u twin, every u, on every
        # evaluation and coefficient-extended code of every node set at
        # q <= 4; multipliers v only rename u (the extension of the code
        # with multipliers v by u is that of the plain code by u * v,
        # coordinatewise), so unit multipliers cover every verdict
        for ctx in (gf2, gf3, gf4):
            q = ctx.q
            for n in range(2, q + 1):
                for nodes in combinations(range(q), n):
                    codes = [grs(GrsSpec.make(ctx, nodes, 1, k))
                             for k in range(1, n)]
                    codes += [egrs(GrsSpec.make(ctx, nodes, 1, k))
                              for k in range(1, n + 1)]
                    for c in codes:
                        us = list(product(range(q), repeat=c.n))
                        want = [verify_theorem6(c, u).extended_mds
                                for u in us]
                        assert extensions_mds(c, us).tolist() == want


@st.composite
def generators(draw):
    """A generator over GF(2..5) with 0 to n rows, n = 1 to 4, whose
    columns may repeat (rescaled) or vanish, so its code may be non-MDS,
    the whole space, or the zero code."""
    ctx = draw(st.sampled_from([gf2, gf3, gf4, gf5]))
    n = draw(st.integers(1, 4))
    r = draw(st.integers(0, n))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat")))
        if kind == "zero":
            cols.append([0] * r)
        elif kind == "repeat" and cols:
            c = draw(st.integers(1, ctx.q - 1))
            cols.append([ctx.mul_i(c, x)
                         for x in draw(st.sampled_from(cols))])
        else:
            cols.append([draw(st.integers(0, ctx.q - 1)) for _ in range(r)])
    return Matrix(ctx, [[c[i] for c in cols] for i in range(r)], cols=n)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(generators())
def test_extensions_mds_matches_extend_u(g):
    code = code_from_generator(g, allow_zero=True)
    us = list(product(range(g.ctx.q), repeat=code.n))
    want = [code.extend_u(u).is_mds() for u in us]
    assert extensions_mds(code, us).tolist() == want
    assert helpers.extensions_mds_all_codewords(code, us).tolist() == want


def test_orbit_light_codewords_match_both_twins():
    # every u at q <= 5 and n <= 4, on every dimension of one evaluation
    # and one coefficient-extended code per length, with random
    # multipliers: the light codewords of one per scalar orbit decide as
    # all of them do, and as the per-u twin
    rng = random.Random(5)
    for ctx in (gf2, gf3, gf4, gf5):
        q = ctx.q
        for m in range(2, min(q, 4) + 1):
            nodes = rng.sample(range(q), m)
            mult = [rng.randrange(1, q) for _ in range(m)]
            codes = [grs(GrsSpec.make(ctx, nodes, mult, k))
                     for k in range(1, m)]
            if m < 4:
                codes += [egrs(GrsSpec.make(ctx, nodes, mult, k))
                          for k in range(1, m + 1)]
            for c in codes:
                us = list(product(range(q), repeat=c.n))
                got = extensions_mds(c, us).tolist()
                assert got == helpers.extensions_mds_all_codewords(
                    c, us).tolist()
                assert got == [verify_theorem6(c, u).extended_mds
                               for u in us]


def test_extensions_mds_rules_out_a_light_codeword():
    # d = n-k = 2: the weight-4 extensions of the two weight-2 words are
    # not enough, whatever u
    code = code_from_generator(Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
    assert not extensions_mds(code, [[1, 0, 1, 0], [0, 1, 0, 1]]).any()


def test_extensions_mds_budget_and_length():
    # 5^2 codewords
    assert not extensions_mds(GRS42, [[0] * 4], budget=25)[0]
    with pytest.raises(BudgetExceeded):
        extensions_mds(GRS42, [[0] * 4], budget=24)
    with pytest.raises(LengthMismatch):
        extensions_mds(GRS42, [[0] * 5])


@pytest.mark.parametrize("entry", [5, 7, -1])
def test_entries_outside_the_field_are_refused(entry):
    # numpy would index past the tables, or wrap -1 around to q - 1
    bad = [[0, 1, 2, 3], [0, 0, entry, 0]]
    rep = covering_radius(DUAL42)
    for call in (lambda: rep.leader_weights(bad),
                 lambda: extensions_mds(GRS42, bad),
                 lambda: deep_holes_via_mds(DUAL42, bad),
                 lambda: syndrome_criteria(DUAL42.parity, bad, 2)):
        with pytest.raises(BadEncoding, match=r"\[0, 5\)"):
            call()
    assert issubclass(BadEncoding, MdsxError)


@pytest.mark.parametrize("call", [
    lambda us: covering_radius(DUAL42).leader_weights(us),
    lambda us: extensions_mds(GRS42, us),
    lambda us: deep_holes_via_mds(DUAL42, us),
    lambda us: syndrome_criteria(DUAL42.parity, us, 2),
], ids=["leader_weights", "extensions_mds", "deep_holes_via_mds",
        "syndrome_criteria"])
def test_batches_are_two_dimensional(call):
    # an empty list is the batch of no rows, as an empty (0, n) array is;
    # a bare vector or a row of the wrong length is refused by its shape
    for empty in ([], np.empty((0, 4), dtype=np.int64)):
        assert call(empty).shape == (0,)
    for bad, shape in (([1, 2, 3, 4], r"\(4,\)"), ([[]], r"\(1, 0\)"),
                       ([[0, 1, 2]], r"\(1, 3\)")):
        with pytest.raises(LengthMismatch, match=shape):
            call(bad)


def test_thm6_suite_scans_each_codes_orbits_once(monkeypatch):
    # 8-row blocks cut GF(3)^3 into nine blocks of vectors u; the light
    # codewords of a code are still scanned once, not once per block
    real = kernels.orbit_blocks
    scans = []

    def counted(*args):
        scans.append(args)
        return real(*args)
    want = suites.run_suite("thm6-exhaustive", {"qs": [3], "max_n": 3})
    monkeypatch.setattr(kernels, "orbit_blocks", counted)
    monkeypatch.setattr(kernels, "_BLOCK_ROWS", 8)
    assert suites.run_suite("thm6-exhaustive",
                            {"qs": [3], "max_n": 3}) == want
    assert len(scans) == sum(case["codes"] for case in want["cases"]) == 10


def test_thm6_suite_reports_the_first_disagreement(monkeypatch):
    # flip the left side at the fifth and the eighth u of every code: every
    # case fails and still checks all its codes, and the report names the
    # first code, eval[2,1] on nodes (0, 1) over GF(3), at its fifth u,
    # (1, 1), in product order
    real = suites._extension_test

    def flipped(code, budget):
        test = real(code, budget)

        def flip(us):
            out = test(us)
            out[[4, 7]] ^= True
            return out
        return flip

    monkeypatch.setattr(suites, "_extension_test", flipped)
    rep = suites.run_suite("thm6-exhaustive", {"qs": [3], "max_n": 3})
    assert not rep["passed"]
    assert [c["ok"] for c in rep["cases"]] == [False, False]
    assert [c["u_checked"] for c in rep["cases"]] == [9 * 6, 27 * 4]
    cx = rep["counterexample"]
    assert cx["code"]["u"] == [1, 1]
    assert cx["code"]["inner"] == {"type": "grs", "nodes": [0, 1],
                                   "multipliers": [1, 1], "k": 1}
    # the spec replays to the extension, and its verdict is the unflipped
    # one
    ctx, ext = serialize.code_from_spec(cx)
    base = grs(GrsSpec.make(ctx, [0, 1], [1, 1], 1))
    assert ext.same_code(base.extend_u([1, 1]))
    assert ext.is_mds() == verify_theorem6(base, [1, 1]).extended_mds
