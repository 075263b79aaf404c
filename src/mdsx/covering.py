"""Covering radius, coset leaders, and deep-hole criteria.

The covering radius comes from a weight-layered syndrome sweep: error
vectors are enumerated by increasing weight and each syndrome records the
first weight that reaches it.  Deep-hole checks then reduce to a leader
weight lookup.  Two further, independent characterizations (the minor test
on a stacked generator and the parity-column-span test) are implemented
side by side so they can cross-check each other.  `extensions_mds` decides
the other side of the extension theorem, whether the inner-product
extension by u stays MDS, for many u at once from the code's light
codewords.
"""

from __future__ import annotations

import operator

import numpy as np

from . import kernels
from .errors import (
    BadDims,
    BadEncoding,
    BadLimit,
    BadRho,
    CoveringRadiusDeficient,
    InvariantViolation,
    LengthMismatch,
    NotMds,
)
from .code import LinearCode
from .kernels import DEFAULT_BUDGET
from .matrix import Matrix, _box_rows


class CoveringReport:
    """Coset-leader weights of a code, indexed by packed syndrome, and the
    sweep's `kernels.SyndromeMap`, which every lookup and search reads.
    The leader array is read in place, by the chunked readers of
    `kernels`; its histogram is counted once and cached."""

    __slots__ = ("code", "rho", "_leader", "_syndromes", "_reps", "_counts")

    def __init__(self, code: LinearCode, rho: int, leader, syndromes):
        self.code = code
        self.rho = rho
        self._leader = leader
        self._syndromes = syndromes
        self._reps = None
        self._counts = None

    def leader_weight(self, v) -> int:
        """Coset-leader weight of the coset of v (= distance from v to the
        code)."""
        return int(self.leader_weights([self.code._vec(v)])[0])

    def leader_weights(self, vectors):
        """leader_weight of every row of `vectors` (encodings), as an
        array, read at the packed syndromes of the sweep's map."""
        code = self.code
        return self._leader[self._syndromes.packed(
            _rows_of_length(vectors, code.n, code.ctx.q))]

    @property
    def deep_hole_syndromes(self):
        """Packed syndromes whose leader weight attains rho (ascending)."""
        return kernels.leader_positions(self._leader, self.rho)

    @property
    def num_deep_hole_cosets(self) -> int:
        return self._weight_counts()[-1]

    def coset_leader_weight_counts(self) -> list[int]:
        """Number of cosets per leader weight, 0..rho."""
        return list(self._weight_counts())

    def _weight_counts(self) -> tuple:
        """coset_leader_weight_counts, counted on the first call."""
        if self._counts is None:
            self._counts = tuple(
                int(c) for c in kernels.leader_counts(self._leader, self.rho))
        return self._counts

    def representatives(self, limit=None,
                        budget=DEFAULT_BUDGET) -> list[tuple]:
        """Canonical deep-hole representatives: per deep-hole coset, the
        lexicographically first minimum-weight vector (desk scale: the
        vectors the search tests count against the budget)."""
        return _box_rows(self.code.ctx,
                         self._representative_ints(limit, budget).T)

    def _representative_ints(self, limit, budget):
        """representatives as a (count, n) array of encodings, one row per
        deep-hole coset in ascending syndrome order; the full array is
        cached.  A negative limit is refused, not counted from the end."""
        if limit is not None and limit < 0:
            raise BadLimit(f"limit = {limit} is negative")
        if self._reps is not None:
            return self._reps[:limit]
        reps = kernels.lex_first_weight_vectors(
            self._syndromes, self.rho, self.deep_hole_syndromes[:limit],
            budget=budget)
        if limit is None:
            self._reps = reps
        return reps

    def to_dict(self, include_representatives=False, limit=None,
                budget=DEFAULT_BUDGET) -> dict:
        d = {
            "n": self.code.n,
            "k": self.code.k,
            "rho": self.rho,
            "num_deep_hole_cosets": self.num_deep_hole_cosets,
            "coset_leader_weight_counts": self.coset_leader_weight_counts(),
        }
        if include_representatives:
            d["representatives"] = \
                self._representative_ints(limit, budget).tolist()
        return d


def covering_radius(code: LinearCode, budget=DEFAULT_BUDGET) -> CoveringReport:
    """Exact covering radius via the coset-leader sweep (cached per code)."""
    if code._covering is not None:
        return code._covering
    leader, rho, syndromes = kernels.coset_leader_weights(
        code.parity._rows, code.n, code.ctx, budget)
    report = CoveringReport(code, rho, leader, syndromes)
    code._covering = report
    return report


def distance_to_code(code: LinearCode, v, budget=DEFAULT_BUDGET) -> int:
    """Exact Hamming distance from v to the nearest codeword."""
    v = code._vec(v)
    q = code.ctx.q
    if code._covering is None and q ** code.k <= min(budget,
                                                     q ** (code.n - code.k)):
        counts = kernels.distance_counts(code.generator._rows, code.n,
                                         code.ctx, v, budget)
        return next(w for w, c in enumerate(counts) if c)
    return covering_radius(code, budget).leader_weight(v)


def is_deep_hole(code: LinearCode, v, budget=DEFAULT_BUDGET) -> bool:
    """True iff v attains the covering radius."""
    report = covering_radius(code, budget)
    return report.leader_weight(v) == report.rho


def deep_holes_via_mds(code: LinearCode, us, budget=DEFAULT_BUDGET):
    """Minor-based deep-hole test for every row of `us` (encodings) at once,
    as a boolean array: u is a deep hole of a full-radius MDS code iff
    every (k+1)-subset of the columns of the generator with u stacked under
    it is nonsingular.  C(n, k+1) subsets per u count against the
    budget."""
    if not code.is_mds(budget):
        raise NotMds("the minor criterion requires an MDS code")
    if code.k >= code.n:
        raise BadDims("stacked matrix cannot generate a longer-than-full "
                      "rank code")
    report = covering_radius(code, budget)
    if report.rho != code.n - code.k:
        raise CoveringRadiusDeficient(
            f"covering radius {report.rho} < n-k = {code.n - code.k}")
    us = _rows_of_length(us, code.n, code.ctx.q)
    g = np.array(code.generator._rows, dtype=np.int64)
    mats = np.concatenate(
        [np.broadcast_to(g, (len(us), code.k, code.n)), us[:, None]], axis=1)
    ok = np.ones(len(us), dtype=bool)
    for _, ranks in kernels.subset_ranks(mats, code.ctx, code.k + 1, budget):
        ok &= (ranks == code.k + 1).all(axis=0)
    return ok


def syndrome_criteria(h: Matrix, us, rho: int, budget=DEFAULT_BUDGET):
    """Column-span deep-hole test for every row of `us` (encodings) at once,
    as a boolean array: h*u^T is outside the span of every (rho-1)-subset
    of the columns of h.  s = h*u^T lies in the span of the columns S iff
    rank([h_S | s]) = rank(h_S); one stack holds h_S (beside a zero
    column) and every [h_S | s], and its C(n, rho-1) subsets per matrix
    count against the budget."""
    try:
        rho = operator.index(rho)
    except TypeError:
        raise BadRho(f"rho = {rho!r} is not an integer") from None
    if not 0 <= rho <= h.cols:
        raise BadRho(f"rho = {rho} out of range")
    n = h.cols
    s = kernels.mat_vecs(h._rows, n, h.ctx, _rows_of_length(us, n, h.ctx.q))
    if rho == 0:
        return ~s.any(axis=1)
    cols = np.array(h._rows, dtype=np.int64).reshape(h.rows, n)
    syndromes = np.concatenate([np.zeros((1, h.rows), s.dtype), s])
    mats = np.concatenate(
        [np.broadcast_to(cols, (len(syndromes), h.rows, n)),
         syndromes[:, :, None]], axis=2)
    ok = np.ones(len(s), dtype=bool)
    for _, ranks in kernels.subset_ranks(mats, h.ctx, rho - 1, budget,
                                         tail=1):
        ok &= (ranks[:, 1:] > ranks[:, :1]).all(axis=0)
    return ok


def _rows_of_length(us, n: int, q: int):
    """`us` as an int64 array of rows of n encodings in [0, q); an empty
    list is the batch of no rows."""
    us = np.asarray(us, dtype=np.int64)
    if us.shape == (0,):
        us = us.reshape(0, n)
    if us.ndim != 2 or us.shape[1] != n:
        raise LengthMismatch(f"expected rows of length {n}, got an array "
                             f"of shape {us.shape}")
    # read as unsigned, a negative entry is >= 2^63: one comparison
    if np.count_nonzero(us.view(np.uint64) >= q):
        raise BadEncoding(f"entries must be encodings in [0, {q})")
    return us


def extensions_mds(code: LinearCode, us, budget=DEFAULT_BUDGET):
    """Whether the inner-product extension by u (`extend_u`) is MDS, for
    every row u of `us` (encodings) at once, as a boolean array.

    It has the codewords (c, <u, c>), so its distance is the least
    wt(c) + [<u, c> != 0] over codewords c != 0, and it is MDS iff that
    reaches n-k+2.  Only codewords of weight <= n-k+1 can stay below it:
    one of weight <= n-k rules out every u, and one of weight n-k+1 rules
    out the u orthogonal to it.  Both tests hold for c*x as for x, so one
    codeword per scalar orbit is enough.  At k = 0 no extension is MDS, as
    in `LinearCode.is_mds`.  The q^k codewords count against the budget.
    """
    us = _rows_of_length(us, code.n, code.ctx.q)
    return _extension_test(code, budget)(us)


def _extension_test(code: LinearCode, budget=DEFAULT_BUDGET):
    """`extensions_mds` for one code and many blocks of u: the code's
    light codewords, one per scalar orbit, are scanned once, here, and
    the returned map takes an array of rows u (encodings in [0, q), not
    checked) to their verdicts."""
    n, k = code.n, code.k
    # (n, count) light codewords, entries first like the orbit blocks
    light = [np.zeros((n, 0), dtype=np.int64)]
    for block in kernels.orbit_blocks(code.generator._rows, n, code.ctx,
                                      budget):
        wt = kernels.row_weights(block)
        light.append(block[:, (wt > 0) & (wt <= n - k + 1)])
    light = np.concatenate(light, axis=1)
    if k == 0 or (kernels.row_weights(light) <= n - k).any():
        return lambda us: np.zeros(len(us), dtype=bool)
    return lambda us: \
        (kernels.mat_vecs(light.T, n, code.ctx, us) != 0).all(axis=1)


def full_radius_witness(code: LinearCode, budget=DEFAULT_BUDGET):
    """A vector whose stacking under the generator stays MDS, if the
    covering radius is full (n-k); None when it is n-k-1."""
    if not code.is_mds(budget):
        raise NotMds("witness search requires an MDS code")
    if code.k == code.n:
        return None
    report = covering_radius(code, budget)
    if report.rho != code.n - code.k:
        return None
    vec = kernels.lex_first_weight_vectors(
        report._syndromes, report.rho, report.deep_hole_syndromes,
        stop_after_first=True, budget=budget)
    if not deep_holes_via_mds(code, vec, budget)[0]:
        raise InvariantViolation("deep-hole witness failed the minor check")
    return _box_rows(code.ctx, vec.T)[0]
