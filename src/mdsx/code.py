"""Linear codes: canonical generators, duality, distance, and extensions.

A code's identity is the reduced row echelon form of its generator, so
codeword-set equality is plain matrix equality.  The only mutable state is
the lazily computed distance / parity / covering / dual caches, whose fills
are idempotent.
"""

from __future__ import annotations

from math import comb

from . import kernels
from .errors import (
    BadDims,
    ContextMismatch,
    LengthMismatch,
    NotReduced,
    RankDeficient,
    ZeroMatrix,
)
from .field import FieldCtx
from .kernels import DEFAULT_BUDGET
from .matrix import Matrix, _box_rows, _kernel, _of, _with_col, \
    all_k_columns_independent, first_dependent_columns


class LinearCode:
    __slots__ = ("ctx", "n", "k", "generator", "_parity", "_d", "_covering",
                 "_dual")

    def __init__(self, ctx: FieldCtx, generator: Matrix):
        """The code generated by `generator`, which must be its own RREF
        with no zero rows (`code_from_generator` reduces any generator)."""
        if generator.ctx is not ctx:
            raise ContextMismatch("generator over a different field")
        red, pivots = generator.rref()
        if red != generator or len(pivots) < generator.rows:
            raise NotReduced("generator is not in RREF with no zero rows")
        self._init(ctx, generator, None)

    def _init(self, ctx, generator, parity):
        self.ctx, self.generator, self._parity = ctx, generator, parity
        self.n, self.k = generator.cols, generator.rows
        self._d = self._covering = self._dual = None

    # -- structure -------------------------------------------------------------

    @property
    def parity(self) -> Matrix:
        if self._parity is None:
            self._parity = _kernel(self.ctx, self.generator._rows, self.n)
        return self._parity

    def dual(self) -> "LinearCode":
        """The dual code, made once, so its caches persist; its dual is
        this code."""
        if self._dual is None:
            self._dual = _code(self.ctx, self.parity, self.generator)
            self._dual._dual = self
        return self._dual

    def same_code(self, other: "LinearCode") -> bool:
        if not isinstance(other, LinearCode):
            raise TypeError("expected a LinearCode")
        if other.ctx is not self.ctx:
            raise ContextMismatch("codes over different fields")
        if other.n != self.n:
            raise LengthMismatch(f"lengths {self.n} and {other.n} differ")
        return self.generator == other.generator

    def contains(self, v) -> bool:
        return not any(self.parity._dot_rows(self._vec(v)))

    def codewords(self):
        """All codewords, the first row's coefficient slowest (desk scale:
        at most DEFAULT_BUDGET)."""
        for block in kernels.coset_blocks(self.generator._rows, self.n,
                                          self.ctx, [0] * self.n):
            yield from _box_rows(self.ctx, block)

    def _vec(self, v) -> tuple:
        """Encodings of a length-n vector of ints or field elements."""
        v = tuple(map(self.ctx.encode, v))
        if len(v) != self.n:
            raise LengthMismatch(f"expected length {self.n}, got {len(v)}")
        return v

    # -- parameters ----------------------------------------------------------

    def min_distance(self, budget=DEFAULT_BUDGET) -> int:
        """Exact d.  The codeword scan runs first when it fits the budget
        and has no more codewords than the C(n, k) subsets of one column
        layer; otherwise the column-subset route, which tests that layer
        first when it is the cheaper."""
        if self._d is not None:
            return self._d
        if self.k == 0:
            raise BadDims("zero-dimensional code has no minimum distance")
        total = self.ctx.q ** self.k
        if self.k == self.n:
            d = 1
        elif total <= budget and comb(self.n, self.k) >= total:
            d = self._min_distance_by_codewords(budget)
        else:
            d = self._min_distance_by_supports(budget)
        self._d = d
        return d

    def _min_distance_by_codewords(self, budget) -> int:
        counts = kernels.weight_counts(self.generator._rows, self.n,
                                       self.ctx, budget)
        return next(w for w in range(1, self.n + 1) if counts[w])

    def _min_distance_by_supports(self, budget) -> int:
        """d from column subsets.  When the C(n, k) subsets of one layer
        cost less than both the q^k codewords and the budget, test the MDS
        layer first: every k columns of the generator, or every n-k of the
        parity check, whichever has fewer rows, are independent iff
        d = n-k+1.  `all_k_columns_independent` decides that layer from the
        square minors of the systematic part, one Laplace step per minor.
        If it fails, scan the codewords when the budget allows; otherwise d
        is the smallest w such that some w columns of the parity check are
        dependent, each layer's subsets eliminated by
        `first_dependent_columns`.  Every subset of a layer counts against
        the budget."""
        n, k = self.n, self.k
        total = self.ctx.q ** k
        spent = 0
        if comb(n, k) < min(total, budget):
            m = self.generator if k <= n - k else self.parity
            if all_k_columns_independent(m, budget):
                return n - k + 1
            if total <= budget:
                return self._min_distance_by_codewords(budget)
            spent = comb(n, k)
        # any n-k+1 columns of the n-k rows are dependent (Singleton)
        for d in range(1, n - k + 1):
            if first_dependent_columns(self.parity, d,
                                       budget - spent) is not None:
                return d
            spent += comb(n, d)
        return n - k + 1

    def weight_enumerator(self, budget=DEFAULT_BUDGET) -> list[int]:
        """A_0..A_n, the number of codewords of each weight, from one
        codeword per scalar orbit (wt(c*x) = wt(x) for c != 0), each
        counted q - 1 times, plus the zero word; q^k counts against the
        budget."""
        return kernels.weight_counts(self.generator._rows, self.n, self.ctx,
                                     budget)

    def is_mds(self, budget=DEFAULT_BUDGET) -> bool:
        if self.k == 0:
            return False
        return self.min_distance(budget) == self.n - self.k + 1

    # -- extensions ------------------------------------------------------------

    def extend_u(self, u) -> "LinearCode":
        """Append <u, c> as coordinate n+1: the reduced generator G with
        the column G u^T appended is still reduced."""
        col = self.generator._dot_rows(self._vec(u))
        return _code(self.ctx, _with_col(self.generator, col))

    def extend_g(self, g) -> "LinearCode":
        return extend_g(self.generator, g)

    def __repr__(self):
        d = f",{self._d}" if self._d is not None else ""
        return f"LinearCode[{self.n},{self.k}{d}]({self.ctx!r})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def _code(ctx: FieldCtx, generator: Matrix, parity=None) -> LinearCode:
    """A code on a generator already in RREF with no zero rows, unchecked:
    every construction inside the package goes through here."""
    code = object.__new__(LinearCode)
    code._init(ctx, generator, parity)
    return code


def code_from_generator(g: Matrix, allow_zero: bool = False) -> LinearCode:
    """Code spanned by the rows of g; rows are reduced to a canonical basis."""
    red, pivots = g.rref()
    if not pivots and not allow_zero:
        raise ZeroMatrix("generator spans nothing")
    return _code(g.ctx, _of(g.ctx, red._rows[:len(pivots)], g.cols))


def zero_code(ctx: FieldCtx, n: int) -> LinearCode:
    return _code(ctx, Matrix(ctx, [], cols=n), Matrix.identity(ctx, n))


def full_code(ctx: FieldCtx, n: int) -> LinearCode:
    return _code(ctx, Matrix.identity(ctx, n), Matrix(ctx, [], cols=n))


def extend_g(g: Matrix, vec) -> LinearCode:
    """Code generated by g with the column vec appended, in one elimination:
    rank(g) is the number of pivots of rref([g | vec]) left of vec."""
    vec = list(vec)
    ext = g.with_col(vec) if len(vec) == g.rows else g
    red, pivots = ext.rref()
    if sum(p < g.cols for p in pivots) < g.rows:
        raise RankDeficient("generator rows are dependent")
    if ext is g:
        raise BadDims(f"expected length {g.rows}, got {len(vec)}")
    if not pivots:
        raise ZeroMatrix("generator spans nothing")
    return _code(g.ctx, _of(g.ctx, red._rows[:len(pivots)], ext.cols))


def extension_parity_check(h: Matrix, u) -> Matrix:
    """Parity check of the inner-product extension: h bordered by a zero
    column, with bottom row (u | -1)."""
    u = list(u)
    if len(u) != h.cols:
        raise LengthMismatch(f"expected length {h.cols}, got {len(u)}")
    bordered = h.with_col([0] * h.rows)
    return bordered.with_row(u + [h.ctx.neg_i(1)])
