"""Independent brute-force oracles, kept deliberately naive."""

from itertools import combinations, product
from math import comb


def all_vectors(ctx, n):
    for vals in product(range(ctx.q), repeat=n):
        yield ctx.vector(vals)


def hamming(u, v):
    return sum(1 for a, b in zip(u, v) if a != b)


def weight(v):
    return sum(1 for a in v if a.value != 0)


def span(code):
    """Every codeword, by direct span enumeration with FieldElement
    arithmetic (independent of the kernels), the first generator row's
    coefficient varying slowest."""
    rows = code.generator.row_list()
    zero = tuple([code.ctx.zero] * code.n)
    for coeffs in product(range(code.ctx.q), repeat=code.k):
        w = list(zero)
        for c, row in zip(coeffs, rows):
            if c:
                ce = code.ctx.elem(c)
                for j, g in enumerate(row):
                    w[j] = w[j] + ce * g
        yield tuple(w)


def brute_codewords(code):
    """Codeword set via direct span enumeration (independent of kernels)."""
    return {tuple(e.value for e in c) for c in span(code)}


def brute_min_distance(code):
    return min(weight(c) for c in span(code) if any(e.value for e in c))


def brute_weight_enumerator(code):
    counts = [0] * (code.n + 1)
    for c in span(code):
        counts[weight(c)] += 1
    return counts


def brute_distance_to_code(code, v):
    return min(hamming(v, c) for c in span(code))


def brute_covering_radius(code):
    """Definitional maximum of distance-to-code over the whole space."""
    words = list(span(code))
    best = 0
    for v in all_vectors(code.ctx, code.n):
        d = min(hamming(v, c) for c in words)
        if d > best:
            best = d
    return best


def brute_coset_leader_weight_counts(code):
    """Cosets per leader weight 0..rho, from the distance of every vector
    to the code (each coset holds q^k vectors at its leader's distance)."""
    words = list(span(code))
    counts = [0] * (code.n + 1)
    for v in all_vectors(code.ctx, code.n):
        counts[min(hamming(v, c) for c in words)] += 1
    rho = max(d for d, c in enumerate(counts) if c)
    return [c // code.ctx.q ** code.k for c in counts[:rho + 1]]


def brute_coset_leaders(code):
    """Leader weight per packed syndrome (digit i times q^i) and the
    covering radius, from the syndrome under code.parity of every vector,
    computed entry by entry with scalar field operations."""
    ctx, q = code.ctx, code.ctx.q
    H = code.parity.to_int_rows()
    leader = [None] * q ** len(H)
    for v in product(range(q), repeat=code.n):
        s = 0
        for i, row in enumerate(H):
            digit = 0
            for h, x in zip(row, v):
                digit = ctx.add_i(digit, ctx.mul_i(h, x))
            s += digit * q ** i
        w = sum(1 for x in v if x)
        if leader[s] is None or w < leader[s]:
            leader[s] = w
    return leader, max(leader)


def mds_weight_enumerator(n, k, q):
    """Weight distribution shared by every [n, k] MDS code over GF(q)
    (closed form)."""
    d = n - k + 1
    out = [1] + [0] * n
    for w in range(d, n + 1):
        out[w] = comb(n, w) * sum(
            (-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1)
            for j in range(w - d + 1))
    return out


def brute_deep_holes(code):
    """All vectors at maximal distance from the code."""
    words = list(span(code))
    dist = {}
    for v in all_vectors(code.ctx, code.n):
        dist[tuple(e.value for e in v)] = min(hamming(v, c) for c in words)
    rho = max(dist.values())
    return rho, {v for v, d in dist.items() if d == rho}


# ---------------------------------------------------------------------------
# Boxed Gaussian elimination: the slow twin of the int-backed Matrix.  It
# reads a Matrix through its public, element-returning API and computes with
# FieldElement arithmetic only.
# ---------------------------------------------------------------------------

def ref_rref(m):
    """RREF rows (lists of FieldElements, zero rows kept) and pivots."""
    return _rref_rows(m.row_list(), m.cols)


def _rref_rows(rows, nc):
    nr = len(rows)
    pivots = []
    pr = 0
    for pc in range(nc):
        pivot = None
        for i in range(pr, nr):
            if rows[i][pc].value:
                pivot = i
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = rows[pr][pc].inv()
        rows[pr] = [e * inv for e in rows[pr]]
        for i in range(nr):
            if i != pr and rows[i][pc].value:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return rows, tuple(pivots)


def ref_rank(m):
    return len(ref_rref(m)[1])


def lex_first_dependent_columns(m, k):
    """Lexicographically first k-subset of columns of rank < k, one boxed
    elimination per subset; None if there is none."""
    for idx in combinations(range(m.cols), k):
        if ref_rank(m.select_cols(idx)) < k:
            return idx
    return None


def ref_det(m):
    rows = m.row_list()
    n = m.rows
    det = m.ctx.one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c].value:
                pivot = i
                break
        if pivot is None:
            return m.ctx.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c].inv()
        for i in range(c + 1, n):
            if rows[i][c].value:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def ref_nullspace(m):
    """Basis rows of {x : M x^T = 0} in RREF, as lists of FieldElements."""
    red, pivots = ref_rref(m)
    ctx, nc = m.ctx, m.cols
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [ctx.zero] * nc
        v[f] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        basis.append(v)
    return _rref_rows(basis, nc)[0]


def ref_solve(m, b):
    """One solution of M x^T = b with free variables zero; None if none."""
    ctx, nc = m.ctx, m.cols
    aug = [r + [ctx.elem(e)] for r, e in zip(m.row_list(), b)]
    red, pivots = _rref_rows(aug, nc + 1)
    if nc in pivots:
        return None
    x = [ctx.zero] * nc
    for r, pc in enumerate(pivots):
        x[pc] = red[r][nc]
    return tuple(x)
