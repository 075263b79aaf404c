import random

import numpy as np
import pytest

import helpers
from mdsx import kernels
from mdsx.errors import (
    BadDims,
    BadK,
    DuplicateNode,
    InconsistentSystem,
    NotSquare,
    ZeroMultiplier,
)
from mdsx.constructions import egrs_generator, grs_generator
from mdsx.field import _dtype_for, field_new
from mdsx.matrix import Matrix, _box, _box_rows, first_dependent_columns

gf4 = field_new(2, 2)
gf5 = field_new(5, 1)
gf7 = field_new(7, 1)


def random_matrix(ctx, r, c, rng):
    return Matrix(ctx, [[rng.randrange(ctx.q) for _ in range(c)]
                        for _ in range(r)])


class TestElimination:
    def test_identity(self):
        m = Matrix.identity(gf5, 3)
        assert m.det().value == 1
        assert m.rank() == 3

    def test_vandermonde_det_nonzero(self):
        v = grs_generator(gf7.vector([0, 2, 3, 5]), 1, 4)
        assert v.det().value != 0

    def test_det_of_singular(self):
        m = Matrix(gf5, [[1, 2], [2, 4]])
        assert m.det().value == 0
        assert m.rank() == 1

    def test_det_multiplicative_with_inverse(self):
        rng = random.Random(5)
        for ctx in (gf5, gf4):
            found = 0
            while found < 10:
                m = random_matrix(ctx, 3, 3, rng)
                if m.det().value == 0:
                    continue
                found += 1
                # inverse built by solving against identity columns
                cols = [m.solve([1 if i == j else 0 for i in range(3)])
                        for j in range(3)]
                inv = Matrix(ctx, [[cols[j][i] for j in range(3)]
                                   for i in range(3)])
                assert (m.det() * inv.det()).value == 1
                prod = m.mul(inv)
                assert prod == Matrix.identity(ctx, 3)

    def test_det_requires_square(self):
        with pytest.raises(NotSquare):
            Matrix(gf5, [[1, 2, 3], [4, 0, 1]]).det()

    def test_rank_nullity(self):
        rng = random.Random(9)
        for _ in range(25):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            m = random_matrix(gf5, r, c, rng)
            ns = m.nullspace()
            assert m.rank() + ns.rows == c
            # basis rows actually annihilate
            for i in range(ns.rows):
                assert all(e.value == 0 for e in m.mat_vec(ns.row(i)))

    def test_solve_cramer_instance(self):
        g4 = grs_generator(gf5.vector([0, 1, 2, 3]), 1, 4)
        w = g4.solve([0, 0, 0, 1])
        assert [e.value for e in w] == [4, 3, 2, 1]

    def test_solve_inconsistent(self):
        m = Matrix(gf5, [[1, 1], [1, 1]])
        with pytest.raises(InconsistentSystem):
            m.solve([0, 1])

    def test_solve_sets_free_vars_to_zero(self):
        m = Matrix(gf5, [[1, 2, 3]])
        x = m.solve([4])
        assert [e.value for e in x] == [4, 0, 0]

    def test_rref_idempotent_and_canonical(self):
        rng = random.Random(2)
        for _ in range(20):
            m = random_matrix(gf7, 3, 5, rng)
            red, piv = m.rref()
            red2, piv2 = red.rref()
            assert red == red2 and piv == piv2


class TestColumnSubsets:
    nodes = gf5.vector([0, 1, 2, 3])

    def test_grs_all_k_independent(self):
        g = grs_generator(self.nodes, 1, 2)
        assert first_dependent_columns(g, 2) is None

    def test_repeated_column_dependent(self):
        m = Matrix(gf5, [[1, 1, 2], [3, 3, 0]])
        assert first_dependent_columns(m, 2) is not None
        assert first_dependent_columns(m, 2) == (0, 1)

    def test_codeword_row_breaks_independence(self):
        g = grs_generator(self.nodes, 1, 2)
        codeword = [a + b for a, b in zip(g.row(0), g.row(1))]
        stacked = g.with_row(codeword)
        assert first_dependent_columns(stacked, 3) is not None
        # brute-force witness: any 3 columns are dependent since rank is 2
        assert first_dependent_columns(stacked, 3) == (0, 1, 2)

    def test_bad_k(self):
        g = grs_generator(self.nodes, 1, 2)
        with pytest.raises(BadK):
            first_dependent_columns(g, 3)


class TestBuilders:
    nodes = gf5.vector([0, 1, 2, 3])

    def test_unit_multipliers(self):
        g = grs_generator(self.nodes, 1, 2)
        assert g.to_int_rows() == [[1, 1, 1, 1], [0, 1, 2, 3]]

    def test_k1_single_row(self):
        g = grs_generator(self.nodes, gf5.vector([2, 3, 1, 4]), 1)
        assert g.to_int_rows() == [[2, 3, 1, 4]]

    def test_entrywise_products(self):
        g = grs_generator(self.nodes, gf5.vector([4, 3, 2, 1]), 2)
        assert g.to_int_rows() == [[4, 3, 2, 1], [0, 3, 4, 3]]

    def test_rows_evaluate_monomials(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(2, 7)
            nodes = gf7.vector(rng.sample(range(7), n))
            v = gf7.vector([rng.randrange(1, 7) for _ in range(n)])
            k = rng.randint(1, n)
            g = grs_generator(nodes, v, k)
            for i in range(k):
                assert list(g.row(i)) == [vj * aj ** i
                                          for vj, aj in zip(v, nodes)]

    def test_extended_last_column(self):
        g = egrs_generator(self.nodes, 1, 2)
        assert g.to_int_rows() == [[1, 1, 1, 1, 0], [0, 1, 2, 3, 1]]
        for k in range(1, 5):
            ge = egrs_generator(self.nodes, 1, k)
            last = [ge.entry(i, ge.cols - 1).value for i in range(k)]
            assert last == [0] * (k - 1) + [1]

    def test_extended_k1(self):
        g = egrs_generator(self.nodes, 1, 1)
        assert g.to_int_rows() == [[1, 1, 1, 1, 1]]

    def test_duplicate_node_rejected(self):
        with pytest.raises(DuplicateNode):
            grs_generator(gf5.vector([0, 1, 1]), 1, 2)

    def test_zero_multiplier_rejected(self):
        with pytest.raises(ZeroMultiplier):
            grs_generator(self.nodes, gf5.vector([1, 0, 1, 1]), 2)

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            grs_generator(self.nodes, 1, 5)


class TestZeroRowMatrices:
    def test_empty_keeps_width(self):
        m = Matrix(gf5, [], cols=4)
        assert (m.rows, m.cols) == (0, 4)
        assert m.nullspace() == Matrix.identity(gf5, 4)

    def test_full_rank_square_has_empty_nullspace(self):
        ns = Matrix.identity(gf5, 3).nullspace()
        assert (ns.rows, ns.cols) == (0, 3)

    def test_equality_counts_columns(self):
        # with no rows, the width is all that tells two matrices apart
        assert Matrix(gf5, [], cols=3) != Matrix(gf5, [], cols=4)
        assert Matrix(gf5, [], cols=3) == Matrix(gf5, [], cols=3)
        assert len({Matrix(gf5, [], cols=c) for c in (3, 3, 4)}) == 2
        assert Matrix.identity(gf5, 3).nullspace() != Matrix(gf5, [], cols=4)


@pytest.mark.parametrize("pm", [(2, 1), (3, 2), (2, 16)],
                         ids=["gf2", "gf9", "gf65536"])
@pytest.mark.parametrize("shape", [(5, 7), (1, 1), (0, 7), (4, 0),
                                   (2 * kernels._BLOCK_ROWS + 3, 3)])
def test_box_rows_is_box_of_each_row(pm, shape):
    # the same interned elements, one tuple per row, for no rows, for rows
    # of no entries and across several chunks too, as by the map of the
    # element lookup over every entry
    ctx = field_new(*pm)
    rows = np.random.default_rng(3).integers(0, ctx.q, shape).astype(
        _dtype_for(ctx.q))
    got = _box_rows(ctx, rows)
    want = [_box(ctx, r) for r in rows.tolist()]
    assert got == want == helpers.box_rows_by_map(ctx, rows)
    assert all(type(r) is tuple for r in got)
    assert all(a is b for g, w in zip(got, want) for a, b in zip(g, w))
