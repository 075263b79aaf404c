"""Dense exact linear algebra over a finite field.

Plain Gaussian elimination on the integer encodings of the entries;
matrices are immutable values.
"""

from __future__ import annotations

from functools import reduce
from math import comb

import numpy as np

from . import kernels
from .errors import (
    BadDims,
    BadK,
    BudgetExceeded,
    ContextMismatch,
    InconsistentSystem,
    NotSquare,
)
from .field import FieldCtx, FieldElement, _dtype_for
from .kernels import DEFAULT_BUDGET


def _of(ctx: FieldCtx, rows: tuple, cols: int) -> "Matrix":
    """A matrix on rows that are already tuples of encodings (no coercion)."""
    m = object.__new__(Matrix)
    m.ctx = ctx
    m._rows = rows
    m._cols = cols
    return m


def _with_col(m: "Matrix", col) -> "Matrix":
    """m with the encodings `col` appended as a column (no coercion)."""
    return _of(m.ctx, tuple(r + (e,) for r, e in zip(m._rows, col)),
               m.cols + 1)


def _box(ctx: FieldCtx, values) -> tuple:
    return tuple(map(ctx._elems.__getitem__, values))


def _box_rows(ctx: FieldCtx, rows) -> list[tuple]:
    """_box of every row of a 2-d array of encodings, in chunks of as many
    rows as hold _BLOCK_ROWS entries (at least one row), so that each
    temporary stays within _BLOCK_ROWS pointers: the values present in a
    chunk are boxed once into an object array, one slot each, and one
    gather of it through the slot of each encoding, cut into columns, is
    zipped into row tuples.  Only a bool and an index array are sized by
    the largest value present, never by q, so a one-row call over
    GF(2^16) boxes a few elements, not 65,536."""
    count, n = rows.shape
    if not n:
        return [()] * count
    out = []
    per = max(1, kernels._BLOCK_ROWS // n)
    for start in range(0, count, per):
        chunk = rows[start:start + per]
        seen = np.zeros(int(chunk.max()) + 1, dtype=bool)
        seen[chunk] = True
        present = np.flatnonzero(seen)
        slot = np.empty(seen.size, dtype=np.intp)
        slot[present] = np.arange(present.size)
        elems = np.empty(present.size, dtype=object)
        elems[:] = [ctx._elems[v] for v in present.tolist()]
        out += zip(*elems[slot[chunk.T]])
    return out


def _kernel(ctx: FieldCtx, red, nc: int) -> "Matrix":
    """A basis of {x : M x^T = 0} in RREF, from the rows of M's reduced
    form, whose nonzero rows each start at a pivot column."""
    pivots = [next(j for j, e in enumerate(r) if e) for r in red if any(r)]
    basis = []
    for f in (j for j in range(nc) if j not in pivots):
        v = [0] * nc
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = ctx.neg_i(red[r][f])
        basis.append(tuple(v))
    return _of(ctx, tuple(basis), nc).rref()[0] if basis else _of(ctx, (), nc)


class Matrix:
    """Rows are tuples of integer encodings in [0, q); the methods that
    return field values box them into FieldElements."""

    __slots__ = ("ctx", "_rows", "_cols")

    def __init__(self, ctx: FieldCtx, rows, cols: int | None = None):
        self.ctx = ctx
        self._rows = tuple(tuple(map(ctx.encode, row)) for row in rows)
        if self._rows:
            w = len(self._rows[0])
            if any(len(r) != w for r in self._rows):
                raise BadDims("ragged rows")
            if cols is not None and cols != w:
                raise BadDims("cols does not match row width")
            self._cols = w
        else:
            # row-free matrices keep an explicit width (e.g. the parity
            # check of the full space)
            self._cols = 0 if cols is None else cols

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, [[1 if i == j else 0 for j in range(n)]
                         for i in range(n)])

    # -- shape / access --------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return self._cols

    def row(self, i) -> tuple:
        return _box(self.ctx, self._rows[i])

    def entry(self, i, j) -> FieldElement:
        return self.ctx._elems[self._rows[i][j]]

    def row_list(self):
        return [list(_box(self.ctx, r)) for r in self._rows]

    def to_int_rows(self) -> list[list[int]]:
        return [list(r) for r in self._rows]

    def __eq__(self, other):
        # the width counts too: matrices with no rows differ only in it
        return (isinstance(other, Matrix) and other.ctx is self.ctx
                and other._cols == self._cols and other._rows == self._rows)

    def __hash__(self):
        return hash((id(self.ctx), self._cols, self._rows))

    def __repr__(self):
        body = "; ".join(" ".join(map(str, r)) for r in self._rows)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    # -- algebra ---------------------------------------------------------------

    def _check_ctx(self, other):
        if other.ctx is not self.ctx:
            raise ContextMismatch("matrices over different fields")

    def _dot_rows(self, v) -> tuple:
        """M v^T on an encoded vector, as encodings."""
        ctx = self.ctx
        exp, log, n1, add = ctx._exp, ctx._log, ctx.q - 1, ctx.add_i
        lv = [log[b] if b else -1 for b in v]
        return tuple(reduce(add, [exp[(log[a] + b) % n1] for a, b in zip(r, lv)
                                  if a and b >= 0], 0) for r in self._rows)

    def transpose(self) -> "Matrix":
        return _of(self.ctx,
                   tuple(tuple(r[j] for r in self._rows)
                         for j in range(self.cols)),
                   self.rows)

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_ctx(other)
        if self.cols != other.rows:
            raise BadDims(f"{self.rows}x{self.cols} times "
                          f"{other.rows}x{other.cols}")
        ot = other.transpose()
        return _of(self.ctx,
                   tuple(ot._dot_rows(r) for r in self._rows), other.cols)

    def mat_vec(self, v) -> tuple:
        v = tuple(map(self.ctx.encode, v))
        if len(v) != self.cols:
            raise BadDims("vector length does not match column count")
        return _box(self.ctx, self._dot_rows(v))

    def hstack(self, other: "Matrix") -> "Matrix":
        self._check_ctx(other)
        if self.rows != other.rows:
            raise BadDims("row counts differ")
        return _of(self.ctx,
                   tuple(a + b for a, b in zip(self._rows, other._rows)),
                   self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._check_ctx(other)
        if self.rows and other.rows and self.cols != other.cols:
            raise BadDims("column counts differ")
        return _of(self.ctx, self._rows + other._rows,
                   self.cols if self.rows else other.cols)

    def with_row(self, v) -> "Matrix":
        v = tuple(map(self.ctx.encode, v))
        if self.rows and len(v) != self.cols:
            raise BadDims("row length does not match")
        return _of(self.ctx, self._rows + (v,), len(v))

    def with_col(self, v) -> "Matrix":
        v = tuple(map(self.ctx.encode, v))
        if len(v) != self.rows:
            raise BadDims("column length does not match")
        return _with_col(self, v)

    def select_cols(self, idx) -> "Matrix":
        idx = list(idx)
        return _of(self.ctx, tuple(tuple(r[j] for j in idx)
                                   for r in self._rows), len(idx))

    # -- elimination -------------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns (zero rows kept)."""
        red, pivots, _, _ = self._eliminate()
        return red, pivots

    def _eliminate(self):
        """rref's elimination: the reduced form, the pivot columns, the
        pivot entries before their rows are scaled to 1, and the number
        of row swaps.  Row updates read the scaled pivot row's logs."""
        ctx = self.ctx
        exp, log, n1, add = ctx._exp, ctx._log, ctx.q - 1, ctx.add_i
        lneg = log[ctx.neg_i(1)]  # log(-1)
        rows = list(self._rows)
        nr, nc = self.rows, self.cols
        pivots = []
        values = []
        swaps = 0
        pr = 0
        for pc in range(nc):
            pivot = None
            for i in range(pr, nr):
                if rows[i][pc]:
                    pivot = i
                    break
            if pivot is None:
                continue
            swaps += pivot != pr
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
            values.append(rows[pr][pc])
            s = n1 - log[rows[pr][pc]]
            lp = [(log[b] + s) % n1 if b else -1 for b in rows[pr]]
            rows[pr] = tuple([exp[lb] if lb >= 0 else 0 for lb in lp])
            for i in range(nr):
                f = rows[i][pc]
                if i != pr and f:
                    lf = log[f] + lneg  # log(-f)
                    rows[i] = tuple([add(a, exp[(lf + b) % n1]) if b >= 0
                                     else a for a, b in zip(rows[i], lp)])
            pivots.append(pc)
            pr += 1
            if pr == nr:
                break
        return _of(ctx, tuple(rows), nc), tuple(pivots), values, swaps

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> FieldElement:
        """The product of the pivots, negated once per row swap: the
        other row operations keep the determinant, and the reduced form
        of a nonsingular matrix is the identity."""
        if self.rows != self.cols:
            raise NotSquare(f"{self.rows}x{self.cols} matrix")
        ctx = self.ctx
        _, pivots, values, swaps = self._eliminate()
        if len(pivots) < self.rows:
            return ctx.zero
        lg = sum(map(ctx._log.__getitem__, [ctx.neg_i(1)] * swaps + values))
        return ctx._elems[ctx._exp[lg % (ctx.q - 1)]]

    def nullspace(self) -> "Matrix":
        """Rows form a basis of the right kernel {x : M x^T = 0}, in RREF."""
        return _kernel(self.ctx, self.rref()[0]._rows, self.cols)

    def solve(self, b) -> tuple:
        """One solution of M x^T = b (free variables set to zero)."""
        b = list(b)
        if len(b) != self.rows:
            raise BadDims("rhs length does not match row count")
        red, pivots = self.with_col(b).rref()
        if self.cols in pivots:
            raise InconsistentSystem("no solution")
        x = [0] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red._rows[r][self.cols]
        return _box(self.ctx, x)


# ---------------------------------------------------------------------------
# Column-subset tests
# ---------------------------------------------------------------------------

def first_dependent_columns(m: Matrix, k: int, budget=DEFAULT_BUDGET):
    """Lexicographically first k-subset of columns with rank < k, if any;
    the C(cols, k) subsets count against the budget."""
    if k < 0 or k > m.rows or k > m.cols:
        raise BadK(f"k = {k} out of range for {m.rows}x{m.cols}")
    if k == 0:
        return None
    for subsets, ranks in kernels.subset_ranks([m._rows], m.ctx, k, budget):
        hits = np.flatnonzero(ranks[:, 0] < k)
        if hits.size:
            return tuple(int(j) for j in subsets[hits[0]])
    return None


def all_k_columns_independent(m: Matrix, budget=DEFAULT_BUDGET) -> bool:
    """Whether every k = m.rows columns of m are independent, the answer of
    first_dependent_columns(m, k) is None, from the square minors of the
    systematic part instead of one elimination per column subset.

    Every k columns are independent iff rref(m) = [I_k | A] with every
    square submatrix of A nonsingular (MacWilliams and Sloane, ch. 11,
    Thm. 8): the unit columns outside the rows R together with the columns
    C of A have determinant +-det A[R, C], and these pairs (R, C) are all
    C(n, k) column subsets.  A rank below k, pivots that are not the first
    k columns (which are then dependent) or a zero entry of A answer at
    once; `kernels._minors_nonzero` settles the larger minors.  The C(n, k)
    subsets count against the budget, before anything is built.
    """
    k, n = m.rows, m.cols
    if k > n:
        raise BadK(f"k = {k} out of range for {k}x{n}")
    if k == 0:
        return True
    if comb(n, k) > budget:
        raise BudgetExceeded(f"{comb(n, k)} column subsets exceed budget "
                             f"{budget}")
    red, pivots = m.rref()
    if len(pivots) < k:
        return False
    if pivots[-1] != k - 1:
        return False
    A = np.array(red._rows, dtype=_dtype_for(m.ctx.q)).reshape(k, n)[:, k:]
    return kernels._minors_nonzero(A, m.ctx)
