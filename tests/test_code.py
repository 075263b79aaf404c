import random

import pytest

import helpers
from mdsx.code import (
    LinearCode,
    code_from_generator,
    extend_g,
    extension_parity_check,
    full_code,
    zero_code,
)
from mdsx.constructions import GrsSpec, egrs, egrs_generator, grs, \
    grs_dual_weights, grs_generator, roth_lempel, thm7_u
from mdsx.covering import covering_radius
from mdsx.errors import (
    BadDims,
    BudgetExceeded,
    ContextMismatch,
    LengthMismatch,
    NotReduced,
    RankDeficient,
    ZeroMatrix,
)
from mdsx.field import field_new
from mdsx.kernels import DEFAULT_BUDGET
from mdsx.matrix import Matrix, first_dependent_columns

gf2 = field_new(2, 1)
gf3 = field_new(3, 1)
gf4 = field_new(2, 2)
gf5 = field_new(5, 1)

NODES4 = gf5.vector([0, 1, 2, 3])
GRS42 = grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2))
EGRS52 = egrs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2))
THM7_U = thm7_u(NODES4, gf5.vector([1, 1, 1, 1]), 2)


class TestConstruction:
    def test_identity_full_space(self):
        c = code_from_generator(Matrix.identity(gf5, 3))
        assert (c.n, c.k, c.min_distance()) == (3, 3, 1)

    def test_dependent_rows_drop_dimension(self):
        m = Matrix(gf5, [[1, 2, 3], [0, 1, 1], [1, 3, 4]])  # row3 = r1+r2
        c = code_from_generator(m)
        assert c.k == 2

    def test_grs_by_weight_scan(self):
        assert (GRS42.n, GRS42.k) == (4, 2)
        assert GRS42.min_distance() == helpers.brute_min_distance(GRS42) == 3

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroMatrix):
            code_from_generator(helpers.zeros(gf5, 2, 3))

    def test_public_constructor_refuses_an_unreduced_generator(self):
        # these rows span the [3,2] code with parity check (1, 3, 1); read
        # as a reduced generator they gave a 2x3 parity check, covering
        # radius 2 and dual distance 2
        with pytest.raises(NotReduced):
            LinearCode(gf5, Matrix(gf5, [[1, 1, 1], [1, 2, 3]]))
        with pytest.raises(NotReduced):  # reduced, with a zero row
            LinearCode(gf5, Matrix(gf5, [[1, 0, 4], [0, 0, 0]]))
        with pytest.raises(ContextMismatch):
            LinearCode(gf3, Matrix(gf5, [[1, 0, 4], [0, 1, 2]]))

    def test_public_constructor_takes_a_canonical_generator(self):
        want = code_from_generator(Matrix(gf5, [[1, 1, 1], [1, 2, 3]]))
        c = LinearCode(gf5, Matrix(gf5, [[1, 0, 4], [0, 1, 2]]))
        assert c.same_code(want) and c.parity == want.parity
        assert c.parity.to_int_rows() == [[1, 3, 1]]
        assert covering_radius(c).rho == 1
        assert c.dual().min_distance() == 3

    def test_generator_parity_orthogonal(self):
        for c in (GRS42, EGRS52, GRS42.dual()):
            prod = c.generator.mul(c.parity.transpose())
            assert all(e.value == 0 for row in prod.row_list() for e in row)
            assert c.generator.rank() == c.k
            assert c.parity.rank() == c.n - c.k


class TestDual:
    def test_full_space_dual_is_zero_code(self):
        c = full_code(gf5, 3)
        d = c.dual()
        assert (d.n, d.k) == (3, 0)
        assert d.dual().same_code(c)

    def test_grs_dual_is_twisted_evaluation_code(self):
        w = grs_dual_weights(NODES4, 1)
        assert [e.value for e in w] == [4, 3, 2, 1]
        expected = grs(GrsSpec.make(gf5, [0, 1, 2, 3], [4, 3, 2, 1], 2))
        assert GRS42.dual().same_code(expected)

    def test_dual_generator_annihilates(self):
        d = GRS42.dual()
        prod = d.generator.mul(GRS42.generator.transpose())
        assert all(e.value == 0 for row in prod.row_list() for e in row)

    def test_dimensions_sum(self):
        for c in (GRS42, EGRS52, GRS42.dual()):
            assert c.k + c.dual().k == c.n

    def test_dual_is_made_once(self):
        # one dual object, so its covering and distance caches persist
        c = grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2))
        assert c.dual() is c.dual()
        assert c.dual().dual() is c
        d = full_code(gf5, 3).dual()
        assert d.dual().dual() is d


class TestMinDistance:
    def test_grs(self):
        assert GRS42.min_distance() == 3

    def test_repetition(self):
        for ctx, n in ((gf5, 4), (gf4, 3)):
            c = code_from_generator(Matrix(ctx, [[1] * n]))
            assert c.min_distance() == n

    def test_cyclic_example(self):
        from mdsx.constructions import cyclic_cu
        c = cyclic_cu(2, 2)
        assert (c.n, c.k, c.min_distance()) == (5, 3, 3)

    def test_support_fallback_matches_enumeration(self):
        # the column-subset route, called directly (a budget below q^k no
        # longer forces it: its subsets count against the budget too);
        # these MDS codes take the layer test or, when C(n, k) >= q^k, the
        # bottom-up search through every layer
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(3, 5)
            k = rng.randint(1, n - 1)
            nodes = gf5.vector(rng.sample(range(5), n))
            c1 = grs(GrsSpec.make(gf5, [e.value for e in nodes], 1, k))
            c2 = grs(GrsSpec.make(gf5, [e.value for e in nodes], 1, k))
            assert c2._min_distance_by_supports(DEFAULT_BUDGET) \
                == c1.min_distance()

    def test_singleton_bound(self):
        rng = random.Random(23)
        for _ in range(20):
            r = rng.randint(1, 3)
            m = Matrix(gf3, [[rng.randrange(3) for _ in range(5)]
                             for _ in range(r)])
            if all(e.value == 0 for row in m.row_list() for e in row):
                continue
            c = code_from_generator(m)
            assert 1 <= c.min_distance() <= c.n - c.k + 1

    def test_budget_error_on_weight_enumerator(self):
        with pytest.raises(BudgetExceeded):
            EGRS52.weight_enumerator(budget=3)


class TestWeightEnumerator:
    def test_zero_code(self):
        assert zero_code(gf5, 4).weight_enumerator() == [1, 0, 0, 0, 0]

    def test_repetition(self):
        c = code_from_generator(Matrix(gf4, [[1, 1, 1]]))
        assert c.weight_enumerator() == [1, 0, 0, 3]

    def test_counts_sum_to_size(self):
        for c in (GRS42, EGRS52):
            wts = c.weight_enumerator()
            assert sum(wts) == gf5.q ** c.k
            assert wts[0] == 1

    def test_matches_brute_force(self):
        for c in (GRS42, EGRS52, GRS42.dual()):
            counts = [0] * (c.n + 1)
            for word in c.codewords():
                counts[helpers.weight(word)] += 1
            assert c.weight_enumerator() == counts


class TestIsMds:
    def test_grs_and_egrs(self):
        assert GRS42.is_mds()
        assert EGRS52.is_mds()

    def test_binary_counterexample(self):
        c = code_from_generator(Matrix(gf2, [[1, 1, 0, 0], [0, 0, 1, 1]]))
        assert c.min_distance() == 2
        assert not c.is_mds()

    def test_agrees_with_minor_criterion(self):
        rng = random.Random(31)
        for ctx in (gf3, gf4, gf5):
            for _ in range(15):
                n = rng.randint(2, min(ctx.q + 1, 6))
                k = rng.randint(1, n)
                m = Matrix(ctx, [[rng.randrange(ctx.q) for _ in range(n)]
                                 for _ in range(k)])
                if all(e.value == 0 for row in m.row_list() for e in row):
                    continue
                c = code_from_generator(m)
                assert c.is_mds() == (
                    first_dependent_columns(c.generator, c.k) is None)


class TestExtendU:
    def test_dual_vector_gives_trivial_extension(self):
        u = GRS42.parity.row(0)  # a dual codeword
        ext = GRS42.extend_u(u)
        for word in ext.codewords():
            assert word[-1].value == 0

    def test_zero_vector_appends_zero_column(self):
        ext = GRS42.extend_u([0, 0, 0, 0])
        for word in ext.codewords():
            assert word[-1].value == 0
        # same codeword set as any trivial extension
        assert ext.same_code(GRS42.extend_u(GRS42.parity.row(1)))

    def test_thm7_vector_reaches_extended_code(self):
        assert GRS42.extend_u(THM7_U).same_code(EGRS52)

    def test_distance_grows_by_at_most_one(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(2, 4)
            k = rng.randint(1, n)
            nodes = rng.sample(range(5), n)
            c = grs(GrsSpec.make(gf5, nodes, 1, k))
            u = [rng.randrange(5) for _ in range(n)]
            d0, d1 = c.min_distance(), c.extend_u(u).min_distance()
            assert d1 in (d0, d0 + 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            GRS42.extend_u([0, 1])


class TestExtendG:
    def test_zero_column(self):
        ext = extend_g(GRS42.generator, [0, 0])
        for word in ext.codewords():
            assert word[-1].value == 0

    def test_unit_column_gives_extended_evaluation_code(self):
        gk = grs_generator(NODES4, 1, 2)
        ext = extend_g(gk, [0, 1])
        assert ext.same_code(
            code_from_generator(egrs_generator(NODES4, 1, 2)))

    def test_roth_lempel_column(self):
        a = gf5.vector([0, 1, 2, 3])
        for delta in range(5):
            gki = egrs_generator(a, 1, 3)
            ext = extend_g(gki, [0, 1, delta])
            assert ext.same_code(roth_lempel(a, 3, delta))

    def test_fiber_size(self):
        # each target column has exactly q^(n-k) preimages u
        from itertools import product as iproduct
        g = GRS42.generator
        target = tuple(e.value for e in g.mat_vec(THM7_U))
        count = sum(
            1 for uvals in iproduct(range(5), repeat=4)
            if tuple(e.value for e in g.mat_vec(gf5.vector(uvals)))
            == target)
        assert count == 5 ** (4 - 2)

    def test_rank_deficient_rejected(self):
        good = Matrix(gf5, [[1, 2, 3, 4], [0, 1, 2, 2]])
        bad = Matrix(gf5, [[1, 2, 3, 4], [2, 4, 1, 3]])  # row2 = 2*row1
        extend_g(good, [0, 1])  # fine
        with pytest.raises(RankDeficient):
            extend_g(bad, [0, 1])

    def test_error_order(self):
        # a dependent g is reported before a column of the wrong length,
        # and a row-free g spans nothing
        bad = Matrix(gf5, [[1, 2, 3, 4], [2, 4, 1, 3]])
        with pytest.raises(RankDeficient):
            extend_g(bad, [0])
        with pytest.raises(BadDims):
            extend_g(GRS42.generator, [0])
        with pytest.raises(ZeroMatrix):
            extend_g(Matrix(gf5, [], cols=4), [])


class TestExtensionParityCheck:
    def test_blocks(self):
        h = GRS42.parity
        u = THM7_U
        hp = extension_parity_check(h, u)
        assert (hp.rows, hp.cols) == (h.rows + 1, h.cols + 1)
        assert [e.value for e in hp.row(hp.rows - 1)] \
            == [e.value for e in u] + [(-gf5.one).value]
        for i in range(h.rows):
            assert hp.entry(i, hp.cols - 1).value == 0

    def test_full_space_single_row(self):
        h = full_code(gf5, 3).parity
        hp = extension_parity_check(h, [1, 2, 3])
        assert (hp.rows, hp.cols) == (1, 4)
        assert [e.value for e in hp.row(0)] == [1, 2, 3, 4]

    def test_annihilates_extended_generator(self):
        rng = random.Random(53)
        for _ in range(20):
            n = rng.randint(2, 4)
            k = rng.randint(1, n)
            c = grs(GrsSpec.make(gf5, rng.sample(range(5), n), 1, k))
            u = gf5.vector([rng.randrange(5) for _ in range(n)])
            ext = c.extend_u(u)
            hp = extension_parity_check(c.parity, u)
            prod = hp.mul(ext.generator.transpose())
            assert all(e.value == 0 for row in prod.row_list() for e in row)

    def test_specific_instance(self):
        hp = extension_parity_check(GRS42.parity, THM7_U)
        prod = hp.mul(EGRS52.generator.transpose())
        assert all(e.value == 0 for row in prod.row_list() for e in row)


class TestSameCode:
    def test_row_permutation_invariant(self):
        g = GRS42.generator
        perm = Matrix(gf5, [g.row(1), g.row(0)])
        assert GRS42.same_code(code_from_generator(perm))

    def test_double_dual(self):
        for c in (GRS42, EGRS52):
            assert c.dual().dual().same_code(c)

    def test_codeword_sets_actually_equal(self):
        assert helpers.brute_codewords(GRS42.extend_u(THM7_U)) \
            == helpers.brute_codewords(EGRS52)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            GRS42.same_code(EGRS52)


class TestMdsDuality:
    def test_mds_iff_dual_mds(self):
        rng = random.Random(61)
        for ctx in (gf3, gf4, gf5):
            for _ in range(10):
                n = rng.randint(2, ctx.q)
                k = rng.randint(1, n - 1)
                c = grs(GrsSpec.make(ctx, rng.sample(range(ctx.q), n), 1, k))
                assert c.is_mds() and c.dual().is_mds()
