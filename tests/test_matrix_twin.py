"""The int-backed Matrix against its boxed slow twin in helpers.py."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mdsx.errors import ContextMismatch, InconsistentSystem
from mdsx.field import field_new
from mdsx.matrix import Matrix

# each rule of add_i carries elimination and the row update: XOR
# (characteristic 2) and the Zech logarithms (odd p, up to GF(1031) and
# GF(3^7))
FIELDS = [field_new(p, m) for p, m in
          ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
           (1031, 1), (3, 7), (2, 16))]
SHAPES = ("zero-rows", "one-column", "full-rank", "rank-deficient", "random")


@st.composite
def matrices(draw, square=False):
    ctx = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(SHAPES))
    entry = st.integers(0, ctx.q - 1)
    if shape == "zero-rows":
        return Matrix(ctx, [], cols=0 if square else draw(st.integers(0, 5)))
    r = draw(st.integers(1, 4))
    if square:
        c = r
    elif shape == "one-column":
        c = 1
    else:
        c = draw(st.integers(r if shape == "full-rank" else 1, 5))
    rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
    if shape == "full-rank":
        # a unit in row i of column i keeps the rows independent
        for i in range(r):
            rows[i][:i + 1] = [0] * i + [draw(st.integers(1, ctx.q - 1))]
    elif shape == "rank-deficient" and r > 1:
        # the last row is a combination of the others
        coeffs = [ctx.elem(draw(entry)) for _ in range(r - 1)]
        rows[-1] = [sum((a * ctx.elem(row[j])
                         for a, row in zip(coeffs, rows)), ctx.zero).value
                    for j in range(c)]
    return Matrix(ctx, rows)


def values(rows):
    return [[e.value for e in r] for r in rows]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_match_twin(m):
    red, pivots = m.rref()
    ref_red, ref_pivots = helpers.ref_rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert values(red.row_list()) == values(ref_red)
    assert pivots == ref_pivots
    assert m.rank() == helpers.ref_rank(m)
    ns = m.nullspace()
    assert ns.cols == m.cols
    assert values(ns.row_list()) == values(helpers.ref_nullspace(m))


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_det_matches_twin(m):
    assert m.det() == helpers.ref_det(m)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_twin(m, data):
    ctx = m.ctx
    entry = st.integers(0, ctx.q - 1)
    x = [ctx.elem(data.draw(entry)) for _ in range(m.cols)]
    # a right-hand side in the column span, and one drawn at random
    consistent = [sum((a * b for a, b in zip(r, x)), ctx.zero)
                  for r in m.row_list()]
    arbitrary = [data.draw(entry) for _ in range(m.rows)]
    assert list(m.mat_vec(x)) == consistent
    assert m.solve(consistent) == helpers.ref_solve(m, consistent)
    want = helpers.ref_solve(m, arbitrary)
    if want is None:
        with pytest.raises(InconsistentSystem):
            m.solve(arbitrary)
    else:
        assert m.solve(arbitrary) == want


@given(st.sampled_from(FIELDS), st.sampled_from(FIELDS))
def test_other_fields_elements_rejected(ctx, other):
    if other is ctx:
        assert Matrix(ctx, [[other.elem(1)]]).entry(0, 0) == ctx.one
        return
    with pytest.raises(ContextMismatch):
        Matrix(ctx, [[1, other.elem(1)]])
    m = Matrix(ctx, [[1, 0]])
    for method in (m.mat_vec, m.with_row):
        with pytest.raises(ContextMismatch):
            method([0, other.elem(1)])
    with pytest.raises(ContextMismatch):
        m.solve([other.elem(1)])
