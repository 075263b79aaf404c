"""Named code families and explicit deep-hole candidate vectors.

Covers evaluation codes on distinct nodes (plain, coefficient-extended, and
the full projective variant), the Roth-Lempel family, the length-(q+1)
cyclic family over GF(2^m) built from a (q+1)-th root of unity in GF(q^2),
and the vectors that tie inner-product extensions of these codes to their
deep holes.  Set conditions (no-k-subset-sums-to-delta and friends) are
computed by dynamic programming over subset size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .code import LinearCode, code_from_generator, full_code
from .covering import covering_radius
from .errors import (
    BadDims,
    BadK,
    BadU,
    DuplicateNode,
    PoleCollision,
    ZeroMultiplier,
)
from .field import (
    FieldCtx,
    FieldElement,
    Poly,
    field_new,
    minimal_poly_over_base,
    quadratic_extension,
)
from .kernels import DEFAULT_BUDGET
from .matrix import Matrix, _box, _of, _with_col


# ---------------------------------------------------------------------------
# Evaluation codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrsSpec:
    """Evaluation-code parameters: distinct nodes a, nonzero multipliers v,
    dimension k.  Building one is the only check of such an input: every
    builder on nodes and multipliers goes through it."""
    a: tuple
    v: tuple
    k: int

    def __post_init__(self):
        a = list(self.a)
        if not a:
            raise BadDims("empty node vector")
        ctx = a[0].ctx
        a = list(map(ctx.encode, a))
        if len(set(a)) != len(a):
            raise DuplicateNode("evaluation nodes must be pairwise distinct")
        v = self.v
        if isinstance(v, (int, FieldElement)):
            v = [v] * len(a)
        v = list(map(ctx.encode, v))
        if len(v) != len(a):
            raise BadDims("multiplier vector length does not match nodes")
        if 0 in v:
            raise ZeroMultiplier("column multipliers must be nonzero")
        if not 1 <= self.k <= len(a):
            raise BadDims(f"need 1 <= k <= {len(a)}, got {self.k}")
        object.__setattr__(self, "a", _box(ctx, a))
        object.__setattr__(self, "v", _box(ctx, v))

    @classmethod
    def make(cls, ctx: FieldCtx, nodes, multipliers=1, k=1):
        return cls(ctx.vector(nodes), multipliers, k)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def ctx(self) -> FieldCtx:
        return self.a[0].ctx


def _power_row(ctx: FieldCtx, a, lw, e: int) -> list:
    """Encodings of w_j a_j^e, from the node encodings a and the logs lw
    of the nonzero w (0^0 = 1)."""
    exp, log, n1 = ctx._exp, ctx._log, ctx.q - 1
    return [exp[(lb + e * log[x]) % n1] if x or not e else 0
            for x, lb in zip(a, lw)]


def _rows(spec: GrsSpec) -> Matrix:
    """grs_generator of a spec, which is checked already."""
    ctx = spec.ctx
    a = [x.value for x in spec.a]
    lv = [ctx._log[x.value] for x in spec.v]
    return _of(ctx, tuple(tuple(_power_row(ctx, a, lv, i))
                          for i in range(spec.k)), len(a))


def grs_generator(a, v, k: int) -> Matrix:
    """k x n matrix with entry (i, j) = v_j * a_j^i for i = 0..k-1."""
    return _rows(GrsSpec(a, v, k))


def _unit_extended(spec: GrsSpec) -> Matrix:
    """The spec's grs_generator with the (0,...,0,1)^T column appended."""
    return _with_col(_rows(spec), [0] * (spec.k - 1) + [1])


def egrs_generator(a, v, k: int) -> Matrix:
    """The k x n evaluation matrix with an appended (0,...,0,1)^T column."""
    return _unit_extended(GrsSpec(a, v, k))


def grs(spec: GrsSpec) -> LinearCode:
    return code_from_generator(_rows(spec))


def egrs(spec: GrsSpec) -> LinearCode:
    return code_from_generator(_unit_extended(spec))


def grs_dual_weights(a, v) -> tuple:
    """The column multipliers w making the w-twisted evaluation code on the
    same nodes the dual: w_i = 1 / (v_i * prod_{j != i} (a_i - a_j))."""
    ctx, _, lw = _dual_weight_logs(GrsSpec(a, v, 1))
    return _box(ctx, map(ctx._exp.__getitem__, lw))


def _dual_weight_logs(spec: GrsSpec):
    """The field, the node encodings and the logs of the spec's
    grs_dual_weights."""
    ctx = spec.ctx
    log, n1, sub = ctx._log, ctx.q - 1, ctx.sub_i
    a = [x.value for x in spec.a]
    return ctx, a, [
        -(log[vi.value] + sum(log[sub(ai, aj)] for aj in a if aj != ai)) % n1
        for ai, vi in zip(a, spec.v)]


def prs(ctx: FieldCtx, k: int) -> LinearCode:
    """Length q+1 evaluation code on all of GF(q) with unit multipliers and
    the coefficient coordinate; k = q+1 is the full space."""
    q = ctx.q
    if not 1 <= k <= q + 1:
        raise BadK(f"need 1 <= k <= q+1 = {q + 1}, got {k}")
    if k == q + 1:
        return full_code(ctx, q + 1)
    return egrs(GrsSpec.make(ctx, list(range(q)), 1, k))


def roth_lempel(a, k: int, delta) -> LinearCode:
    """[n+2, k] code: the coefficient-extended evaluation code on the nodes
    with unit multipliers, and one more column (0,..,0,1,delta)^T."""
    spec = GrsSpec(a, 1, k)
    if not 4 <= k + 1 <= spec.n:
        raise BadDims(f"need 4 <= k+1 <= n, got k = {k}, n = {spec.n}")
    delta = spec.ctx.encode(delta)
    return code_from_generator(
        _with_col(_unit_extended(spec), [0] * (k - 2) + [1, delta]))


# ---------------------------------------------------------------------------
# Extension vectors
# ---------------------------------------------------------------------------

def thm7_u(a, v, k: int) -> tuple:
    """The u with G_k u^T = (0,..,0,1)^T: extending the evaluation code by
    <u, .> appends exactly the degree-(k-1) coefficient."""
    spec = GrsSpec(a, v, k)
    return _box(spec.ctx, _thm7_row(spec))


def _thm7_row(spec: GrsSpec) -> list:
    """Encodings of thm7_u of a spec, which is checked already."""
    ctx, a, lw = _dual_weight_logs(spec)
    return _power_row(ctx, a, lw, spec.n - spec.k)


def thm12_u(a, k: int, delta) -> tuple:
    """Length n+1 vector u with G_{k,inf} u^T = (0,..,0,1,delta)^T, so the
    extension of the coefficient-extended code equals the Roth-Lempel code;
    unit multipliers assumed."""
    ctx, a, lw = _dual_weight_logs(GrsSpec(a, 1, k))
    head = _power_row(ctx, a, lw, len(a) + 1 - k)
    return _box(ctx, head + [ctx.sub_i(ctx.encode(delta),
                                       reduce(ctx.add_i, a))])


# ---------------------------------------------------------------------------
# Subset-sum and subset-product sets
# ---------------------------------------------------------------------------

def _distinct_elements(s):
    """The field and the sorted encodings of distinct elements s."""
    s = list(s)
    if not s:
        raise BadK("empty element set")
    ctx = s[0].ctx
    s = sorted(map(ctx.encode, s))
    if len(set(s)) != len(s):
        raise DuplicateNode("set elements must be pairwise distinct")
    return ctx, s


def _subset_folds(items, m: int, unit, op) -> set:
    """unit folded by `op` with the items of each m-subset of `items`, by
    DP over subset size: dp[c] holds the folds of the c-subsets so far."""
    dp = [{unit}] + [set() for _ in range(m)]
    for e in items:
        for c in range(m, 0, -1):
            dp[c] |= {op(x, e) for x in dp[c - 1]}
    return dp[m]


def subset_sums(s, m: int) -> set:
    """All sums over m-element subsets of s (DP over subset size)."""
    ctx, s = _distinct_elements(s)
    if not 0 <= m <= len(s):
        raise BadK(f"need 0 <= m <= {len(s)}, got {m}")
    return set(_box(ctx, _subset_folds(s, m, 0, ctx.add_i)))


def nk_delta_set_check(s, k: int, delta) -> bool:
    """True iff no k-element subset of s sums to delta."""
    sums = subset_sums(s, k)
    return next(iter(sums)).ctx.elem(delta) not in sums


def t_set(a, pi, m: int) -> set:
    """Reciprocals of m-fold products of (pi - a_i) over m-subsets."""
    ctx, a = _distinct_elements(a)
    pi = ctx.encode(pi)
    if pi in a:
        raise PoleCollision(f"pole {pi} collides with a node")
    if not 0 <= m <= len(a):
        raise BadK(f"need 0 <= m <= {len(a)}, got {m}")
    return set(_box(ctx, _reciprocal_products(ctx, a, pi, m)))


def _reciprocal_products(ctx: FieldCtx, a, pi: int, m: int) -> set:
    """t_set on the node encodings a and the pole's encoding pi."""
    factors = [ctx.sub_i(pi, x) for x in a]
    return set(map(ctx.inv_i, _subset_folds(factors, m, 1, ctx.mul_i)))


# ---------------------------------------------------------------------------
# Deep-hole candidate families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeepHoleCandidate:
    kind: str                 # thm14_monomial | thm14_pole
    vector: tuple
    pi: FieldElement | None = None
    delta: FieldElement | None = None
    valid: bool = True


def egrs_dual_code(a, k: int) -> LinearCode:
    """The dual of the coefficient-extended code on nodes a with unit
    multipliers; target of the thm14 candidates."""
    return egrs(GrsSpec(a, 1, k)).dual()


def thm14_vector(kind: str, a, k: int, delta, pi=None) -> DeepHoleCandidate:
    """Length n+1 deep-hole candidate for egrs_dual_code(a, k).

    monomial kind: (w_i a_i^{n+1-k}, .., delta), valid iff -delta is not an
    (n+1-k)-subset sum of the nodes.  pole kind: (w_i/(a_i - pi), .., delta),
    valid iff delta is outside the reciprocal-product set of the pole.
    When the code's covering radius equals k, valid coincides with the
    brute-force deep-hole verdict.
    """
    ctx, a, lw = _dual_weight_logs(GrsSpec(a, 1, k))
    delta = ctx.elem(delta)
    m = len(a) + 1 - k
    if kind == "monomial":
        head = _power_row(ctx, a, lw, m)
        valid = ctx.neg_i(delta.value) not in _subset_folds(a, m, 0,
                                                             ctx.add_i)
        return DeepHoleCandidate("thm14_monomial",
                                 _box(ctx, head + [delta.value]),
                                 delta=delta, valid=valid)
    if kind == "pole":
        if pi is None:
            raise PoleCollision("pole kind needs a pole location")
        pi = ctx.elem(pi)
        if pi.value in a:
            raise PoleCollision(f"pole {pi.value} collides with a node")
        head = _power_row(ctx, [ctx.sub_i(x, pi.value) for x in a], lw, -1)
        valid = delta.value not in _reciprocal_products(ctx, a, pi.value, m)
        return DeepHoleCandidate("thm14_pole", _box(ctx, head + [delta.value]),
                                 pi=pi, delta=delta, valid=valid)
    raise BadK(f"unknown candidate kind {kind!r}")


# ---------------------------------------------------------------------------
# Cyclic family over GF(2^m), length q+1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicSpec:
    m: int
    u: int
    beta: FieldElement           # fixed (q+1)-th root of unity in GF(q^2)
    gen_poly: Poly               # generator polynomial over GF(q)

    @property
    def q(self) -> int:
        return 2 ** self.m


def cyclic_spec(m: int, u: int) -> CyclicSpec:
    if m < 2:
        raise BadU(f"need m >= 2, got {m}")
    q = 2 ** m
    if not 1 <= u <= q // 2:
        raise BadU(f"need 1 <= u <= q/2 = {q // 2}, got {u}")
    base = field_new(2, m)
    ext = quadratic_extension(base)
    beta = ext.primitive ** (q - 1)
    g = Poly.one(base)
    for i in range(u, q // 2 + 1):
        g = g * minimal_poly_over_base(beta ** i)
    return CyclicSpec(m, u, beta, g)


def cyclic_cu(m: int, u: int) -> LinearCode:
    """Cyclic [q+1, 2u-1] code over GF(q = 2^m) whose generator polynomial
    collects the conjugate-pair roots beta^u .. beta^{q/2}."""
    spec = cyclic_spec(m, u)
    base = spec.gen_poly.ctx
    n = spec.q + 1
    coeffs = tuple(c.value for c in spec.gen_poly.coeffs)
    k = n - spec.gen_poly.degree
    rows = tuple((0,) * i + coeffs + (0,) * (n - len(coeffs) - i)
                 for i in range(k))
    return code_from_generator(_of(base, rows, n))


@dataclass(frozen=True)
class CuExtensionFacts:
    q: int
    u: int
    params: tuple               # (n, k, d) of the cyclic code
    mds: bool
    ext_params: tuple           # (n, k, d) of its all-ones extension
    ext_mds: bool
    weight_counts: list | None  # extension weight enumerator (u = 2 only)
    weight_formula_ok: bool | None
    rho_dual: int
    one_is_deep_hole: bool


def cu_extension_facts(m: int, u: int,
                       budget=DEFAULT_BUDGET) -> CuExtensionFacts:
    """All-ones-extension facts for the cyclic family at u = 2 and u = q/2:
    extension parameters and MDS status, the closed-form weight enumerator
    check (u = 2), and the dual's covering radius with the all-ones vector's
    deep-hole status."""
    q = 2 ** m
    if u not in (2, q // 2):
        raise BadU(f"extension facts cover u = 2 and u = q/2, got {u}")
    c = cyclic_cu(m, u)
    d = c.min_distance(budget)
    ones = [1] * c.n
    ext = c.extend_u(ones)
    ext_d = ext.min_distance(budget)
    weight_counts = None
    formula_ok = None
    if u == 2:
        weight_counts = ext.weight_enumerator(budget)
        expected = [0] * (q + 3)
        expected[0] = 1
        expected[q] = (q + 2) * (q * q - 1) // 2
        expected[q + 2] = q * (q - 1) ** 2 // 2
        formula_ok = weight_counts == expected
    dual = c.dual()
    report = covering_radius(dual, budget)
    return CuExtensionFacts(
        q=q, u=u,
        params=(c.n, c.k, d),
        mds=(d == c.n - c.k + 1),
        ext_params=(ext.n, ext.k, ext_d),
        ext_mds=(ext_d == ext.n - ext.k + 1),
        weight_counts=weight_counts,
        weight_formula_ok=formula_ok,
        rho_dual=report.rho,
        one_is_deep_hole=(report.leader_weight(ones) == report.rho),
    )


# ---------------------------------------------------------------------------
# Brute-force twins for the DP set operations (oracles, desk scale)
# ---------------------------------------------------------------------------

def subset_sums_bruteforce(s, m: int) -> set:
    ctx, s = _distinct_elements(s)
    s = _box(ctx, s)
    if not 0 <= m <= len(s):
        raise BadK(f"need 0 <= m <= {len(s)}, got {m}")
    out = set()
    for combo in combinations(s, m):
        out.add(sum(combo, ctx.zero))
    return out


def t_set_bruteforce(a, pi, m: int) -> set:
    ctx, a = _distinct_elements(a)
    a = _box(ctx, a)
    pi = ctx.elem(pi)
    if any(x == pi for x in a):
        raise PoleCollision(f"pole {pi.value} collides with a node")
    if not 0 <= m <= len(a):
        raise BadK(f"need 0 <= m <= {len(a)}, got {m}")
    out = set()
    for combo in combinations(a, m):
        prod = ctx.one
        for x in combo:
            prod = prod * (pi - x)
        out.add(prod.inv())
    return out
