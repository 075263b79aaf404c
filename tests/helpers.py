"""Independent brute-force oracles, kept deliberately naive."""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np

from mdsx import kernels
from mdsx.constructions import DeepHoleCandidate
from mdsx.covering import covering_radius
from mdsx.errors import BadDims, BadK, DuplicateNode, InvariantViolation, \
    NoBaseField, NotMds, ZeroMultiplier
from mdsx.field import FieldElement, Poly
from mdsx.kernels import DEFAULT_BUDGET
from mdsx.matrix import Matrix


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
        s = scalar_syndrome(H, v, ctx)
        w = sum(1 for x in v if x)
        if leader[s] is None or w < leader[s]:
            leader[s] = w
    return leader, max(leader)


def scalar_syndrome(H, v, ctx):
    """Packed syndrome of v under the int rows H (digit i times q^i), entry
    by entry with scalar field operations."""
    s = 0
    for i, row in enumerate(H):
        digit = 0
        for h, x in zip(row, v):
            digit = ctx.add_i(digit, ctx.mul_i(h, x))
        s += digit * ctx.q ** i
    return s


def brute_lex_first_weight_vectors(H, n, ctx, weight):
    """Packed syndrome -> the lexicographically first vector of the given
    weight with that syndrome, over every syndrome such a vector reaches,
    by scanning all q^n vectors in lexicographic order."""
    first = {}
    for v in product(range(ctx.q), repeat=n):
        if sum(1 for x in v if x) == weight:
            first.setdefault(scalar_syndrome(H, v, ctx), v)
    return first


def leader_weights_by_product(report, vectors):
    """`CoveringReport.leader_weights` by a second route: H v^T from
    `kernels.mat_vecs` as rows of entries, packed here as entry i times
    q^i, not by the report's syndrome map."""
    code, q = report.code, report.code.ctx.q
    s = kernels.mat_vecs(code.parity._rows, code.n, code.ctx, vectors)
    return report._leader[s @ q ** np.arange(s.shape[1], dtype=np.int64)]


def leader_counts_whole(leader, top):
    """`kernels.leader_counts` by one np.bincount of the whole array, which
    numpy widens to an int64 copy first."""
    return np.bincount(leader, minlength=top + 1)[:top + 1]


def leader_positions_whole(leader, value):
    """`kernels.leader_positions` by one comparison of the whole array."""
    return np.flatnonzero(leader == value)


def box_rows_by_map(ctx, rows):
    """`matrix._box_rows` by one map of the field's element lookup over all
    the entries, cut into rows of n by zip."""
    count, n = rows.shape
    if not n:
        return [()] * count
    entries = map(ctx._elems.__getitem__, rows.ravel().tolist())
    return list(zip(*[entries] * n))


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


# ---------------------------------------------------------------------------
# Scalar field tables: the slow twin of FieldCtx._build_tables.  The
# primitive search and one _raw_mul per power of it give exp and log;
# addition and negation go through the base field's twin in a quadratic
# extension and digit by digit in a ground field.
# ---------------------------------------------------------------------------

def _raw_pow(ctx, a, e):
    r = 1
    while e:
        if e & 1:
            r = ctx._raw_mul(r, a)
        a = ctx._raw_mul(a, a)
        e >>= 1
    return r


def scalar_primitive(ctx):
    """Smallest encoding of order q-1: a^((q-1)/r) != 1 for every prime
    r dividing q-1."""
    n = ctx.q - 1
    primes = [r for r in range(2, n + 1) if n % r == 0
              and all(r % f for f in range(2, int(r ** 0.5) + 1))]
    return next(a for a in range(1, ctx.q)
                if all(_raw_pow(ctx, a, n // r) != 1 for r in primes))


def raw_add(ctx, a, b):
    if ctx.base is not None:
        q0 = ctx.base.q
        return (raw_add(ctx.base, a % q0, b % q0)
                + raw_add(ctx.base, a // q0, b // q0) * q0)
    p = ctx.p
    if ctx.m == 1:
        return (a + b) % p
    out, mult = 0, 1
    for _ in range(ctx.m):
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def raw_neg(ctx, a):
    if ctx.base is not None:
        q0 = ctx.base.q
        return raw_neg(ctx.base, a % q0) + raw_neg(ctx.base, a // q0) * q0
    p = ctx.p
    if ctx.m == 1:
        return (-a) % p
    out, mult = 0, 1
    for _ in range(ctx.m):
        out += ((p - a % p) % p) * mult
        a //= p
        mult *= p
    return out


def scalar_tables(ctx, add_limit=1024):
    """(primitive, exp, log, add, neg) of the field, one scalar operation
    per entry.  log[0] is None; add is None above add_limit, and add and
    neg are None in characteristic 2 (XOR, and the identity)."""
    q = ctx.q
    prim = scalar_primitive(ctx)
    exp, log = [], [None] * q
    e = 1
    for i in range(q - 1):
        exp.append(e)
        log[e] = i
        e = ctx._raw_mul(e, prim)
    assert e == 1
    if ctx.p == 2:
        return prim, exp, log, None, None
    neg = [raw_neg(ctx, a) for a in range(q)]
    add = None
    if q <= add_limit:
        add = [[raw_add(ctx, a, b) for b in range(q)] for a in range(q)]
    return prim, exp, log, add, neg


# ---------------------------------------------------------------------------
# A certificate for the coset-leader sweep: the sweep's scalable twin.  It
# checks the output, not the route, and shares nothing with the sweep's
# pushes, pulls, stacking, exits or scaling table.
# ---------------------------------------------------------------------------

_CERTIFY_ENTRIES = 1 << 20  # digits per block of the certificate


def certify_leader_array(H, n, ctx, leader) -> bool:
    """Whether `leader` holds the coset-leader weight of every packed
    syndrome (entry i times q^i) under the int rows H.

    That weight is the breadth-first distance d from 0 in the graph whose
    edges add c*h_j, c != 0.  A map L is d iff L(0) = 0, no entry is unset
    and, for every s != 0, the least L over the n(q-1) neighbours of s is
    L(s) - 1: L <= d by induction along a shortest path, and L >= d by
    induction on L.  With L(g*s) = L(s) for a primitive g also checked,
    the neighbours of c*s are c times those of s, so the neighbour test
    runs on one representative per scalar orbit, the s in [q^t, 2q^t)
    whose top digit is 1: about q^r n gathers in all.  The field tables
    come from scalar operations (`scalar_tables`, so odd q <= 1024)."""
    q, r = ctx.q, len(H)
    leader = np.asarray(leader)
    if leader.shape != (q ** r,) or leader[0] != 0 or leader.max() > n:
        return False
    _, exp, log, add, _ = scalar_tables(ctx)
    exp = np.array(exp, dtype=np.int64)
    log = np.array([0 if x is None else x for x in log], dtype=np.int64)
    table = None if ctx.p == 2 else np.array(add, dtype=np.int64)
    radix = q ** np.arange(r, dtype=np.int64)

    def digits(s):
        return s[:, None] // radix % q

    def times(c, x):
        """g^c * x entrywise, for the primitive g of the tables."""
        return np.where(x == 0, 0, exp[(log[x] + c) % (q - 1)])

    def blocks(lo, hi, rows):
        for b in range(lo, hi, rows):
            yield np.arange(b, min(b + rows, hi), dtype=np.int64)

    rows = max(1, _CERTIFY_ENTRIES // max(r, 1))
    if any((leader[times(1, digits(s)) @ radix] != leader[s]).any()
           for s in blocks(0, q ** r, rows)):
        return False
    # the digits of c * h_j, for every column j and c = g^0 .. g^(q-2)
    cols = np.array(H, dtype=np.int64).reshape(r, n).T
    steps = np.concatenate([times(c, cols) for c in range(q - 1)])[None]
    rows = max(1, rows // len(steps[0]))
    for t in range(r):
        for s in blocks(q ** t, 2 * q ** t, rows):
            d = digits(s)[:, None]
            near = (d ^ steps if table is None else table[d, steps]) @ radix
            if (leader[near].min(axis=1)
                    != leader[s].astype(np.int64) - 1).any():
                return False
    return True


# ---------------------------------------------------------------------------
# Two twins of covering.extensions_mds and the suite's batched check: the
# same batch over all codewords, and Theorem 6 one u at a time, where each
# u builds the extension with extend_u and settles its MDS status by
# elimination and a codeword scan.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem6Check:
    extended_mds: bool
    rho_dual_is_k: bool
    u_deep_hole_dual: bool

    @property
    def consistent(self) -> bool:
        return self.extended_mds == (self.rho_dual_is_k
                                     and self.u_deep_hole_dual)


def extensions_mds_all_codewords(code, us, budget=DEFAULT_BUDGET):
    """covering.extensions_mds from the light codewords among all q^k
    codewords, where the package takes one per scalar orbit."""
    n, k = code.n, code.k
    light = []
    for block in kernels.coset_blocks(code.generator._rows, n, code.ctx,
                                      [0] * n, budget):
        block = block.T
        wt = np.count_nonzero(block, axis=1)
        light.append(block[(wt > 0) & (wt <= n - k + 1)])
    light = np.concatenate(light)
    if k == 0 or (np.count_nonzero(light, axis=1) <= n - k).any():
        return np.zeros(len(us), dtype=bool)
    return (kernels.mat_vecs(light, n, code.ctx, us) != 0).all(axis=1)


def verify_theorem6(code, u, budget=DEFAULT_BUDGET) -> Theorem6Check:
    """Evaluate, independently, whether the inner-product extension by u is
    MDS, whether the dual has full covering radius k, and whether u is a
    deep hole of the dual; the first must equal the conjunction of the
    other two."""
    if not code.is_mds(budget):
        raise NotMds("the biconditional is about MDS codes")
    ext = code.extend_u(u)
    extended_mds = ext.is_mds(budget)
    d = code.dual()
    report = covering_radius(d, budget)
    rho_is_k = report.rho == code.k
    u_dh = report.leader_weight(u) == report.rho
    check = Theorem6Check(extended_mds, rho_is_k, u_dh)
    if not check.consistent:
        raise InvariantViolation(
            f"extension-MDS biconditional failed: {check} for u = "
            f"{list(code._vec(u))}")
    return check


# ---------------------------------------------------------------------------
# Small field, polynomial and matrix oracles with no caller in the package.
# ---------------------------------------------------------------------------

def in_base(ext, e):
    """e lies in the base field of the quadratic extension ext: e^q0 = e."""
    if ext.base is None:
        raise NoBaseField(f"{ext!r} has no base field")
    return ext.pow_i(e.value, ext.base.q) == e.value


def lagrange_interpolate(points):
    """Unique polynomial of degree < n through the given (x, y) pairs."""
    points = list(points)
    if not points:
        raise ValueError("need at least one point")
    ctx = points[0][0].ctx
    xs = [ctx.elem(x) for x, _ in points]
    ys = [ctx.elem(y) for _, y in points]
    if len({x.value for x in xs}) != len(xs):
        raise ValueError("interpolation abscissae must be distinct")
    acc = Poly.zero(ctx)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi.value == 0:
            continue
        num = Poly.one(ctx)
        den = ctx.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly(ctx, (-xj, ctx.one))
            den = den * (xi - xj)
        acc = acc + num * (yi / den)
    return acc


def poly_from_roots(ctx, roots):
    """The product of x - r over the roots."""
    out = Poly.one(ctx)
    for r in roots:
        out = out * Poly(ctx, (-ctx.elem(r), ctx.one))
    return out


def poly_divmod(f, g):
    """Quotient and remainder of f by a nonzero g, by long division."""
    ctx = f.ctx
    quo = [ctx.zero] * max(f.degree - g.degree + 1, 0)
    rem = list(f.coeffs)
    inv_lead = g.leading().inv()
    while rem and len(rem) - 1 >= g.degree:
        shift = len(rem) - 1 - g.degree
        factor = rem[-1] * inv_lead
        quo[shift] = factor
        for i, c in enumerate(g.coeffs):
            rem[shift + i] = rem[shift + i] - factor * c
        while rem and rem[-1].value == 0:
            rem.pop()
    return Poly(ctx, quo), Poly(ctx, rem)


def zeros(ctx, r, c):
    return Matrix(ctx, [[0] * c for _ in range(r)], cols=c)


def deep_hole_family_rs(a, k, v=None):
    """Candidate deep holes of the k-dimensional evaluation code on nodes a
    (multipliers v, default 1): the degree-k monomial vector and one simple
    pole per point outside the node set.  The pole family is empty when the
    nodes exhaust the field."""
    ctx, a, v = boxed_nodes_multipliers(a, 1 if v is None else v)
    n = len(a)
    if not 1 <= k < n:
        raise BadK(f"need 1 <= k < n = {n}, got {k}")
    out = [DeepHoleCandidate(
        "monomial", tuple(vi * (ai ** k) for ai, vi in zip(a, v)))]
    used = {x.value for x in a}
    for pv in range(ctx.q):
        if pv in used:
            continue
        pi = ctx.elem(pv)
        out.append(DeepHoleCandidate(
            "pole", tuple(vi / (ai - pi) for ai, vi in zip(a, v)), pi=pi))
    return out


# ---------------------------------------------------------------------------
# Boxed twins of the builders, which compute on encodings: FieldElement
# arithmetic only, from their own normalisation of nodes and multipliers.
# ---------------------------------------------------------------------------

def boxed_nodes_multipliers(a, v):
    """(ctx, nodes, multipliers) as FieldElements, with the errors of
    constructions.GrsSpec's node and multiplier checks in the same order."""
    a = list(a)
    if not a:
        raise BadDims("empty node vector")
    ctx = a[0].ctx
    a = [ctx.elem(x) for x in a]
    if len({x.value for x in a}) != len(a):
        raise DuplicateNode("evaluation nodes must be pairwise distinct")
    n = len(a)
    if isinstance(v, (int, FieldElement)):
        v = [v] * n
    v = [ctx.elem(x) for x in v]
    if len(v) != n:
        raise BadDims("multiplier vector length does not match nodes")
    if any(x.value == 0 for x in v):
        raise ZeroMultiplier("column multipliers must be nonzero")
    return ctx, a, v


def ref_grs_generator(a, v, k):
    """Rows v_j * a_j^i for i = 0..k-1, as lists of FieldElements."""
    _, a, v = boxed_nodes_multipliers(a, v)
    return [[vj * aj ** i for aj, vj in zip(a, v)] for i in range(k)]


def ref_grs_dual_weights(a, v):
    _, a, v = boxed_nodes_multipliers(a, v)
    out = []
    for i, ai in enumerate(a):
        prod = v[i]
        for j, aj in enumerate(a):
            if j != i:
                prod = prod * (ai - aj)
        out.append(prod.inv())
    return tuple(out)


def ref_thm7_u(a, v, k):
    _, a, _ = boxed_nodes_multipliers(a, v)
    w = ref_grs_dual_weights(a, v)
    return tuple(ai ** (len(a) - k) * wi for ai, wi in zip(a, w))


def ref_thm12_u(a, k, delta):
    ctx, a, _ = boxed_nodes_multipliers(a, 1)
    w = ref_grs_dual_weights(a, 1)
    head = [ai ** (len(a) + 1 - k) * wi for ai, wi in zip(a, w)]
    return tuple(head + [ctx.elem(delta) - sum(a, ctx.zero)])


def ref_thm14_heads(a, k, pi=None):
    """The first n entries of the monomial candidate and of the pole
    candidate (None without a pole)."""
    ctx, a, _ = boxed_nodes_multipliers(a, 1)
    w = ref_grs_dual_weights(a, 1)
    m = len(a) + 1 - k
    monomial = [wi * (ai ** m) for ai, wi in zip(a, w)]
    if pi is None:
        return monomial, None
    pi = ctx.elem(pi)
    return monomial, [wi / (ai - pi) for ai, wi in zip(a, w)]
