"""Exact arithmetic in GF(p^m).

Elements are encoded as integers in [0, q): the polynomial-basis coefficient
vector read as a base-p number (for a quadratic extension of GF(q0), as a
base-q0 number).  Construction is deterministic: the modulus is the
lexicographically smallest monic irreducible of the right degree
(coefficients read low-to-high as a base-p integer) and the primitive element
is the smallest encoding of multiplicative order q-1.  Both factories share
one numpy table build from the base-p digits, `FieldCtx._build_tables`,
which also builds the kernels' arrays; digits add by XOR or by `_odd_add`.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import (
    ContextMismatch,
    DivisionByZero,
    NoBaseField,
    NonPrimeCharacteristic,
    SizeBudgetExceeded,
)

SIZE_LIMIT = 1 << 16
_ADD_TABLE_LIMIT = 1024  # odd q up to this size add scalars by q*q lists

_construction_lock = threading.Lock()


def _dtype_for(q: int):  # of an array of encodings
    return np.uint8 if q <= 256 else np.uint16


def _odd_add(p: int, m: int, dt):
    """The array addition of GF(p^m), p odd, on encodings of any integer
    dtype, into `dt`: digit i of a + b is s = a_i + b_i, less p where
    s >= p.  s is formed in an unsigned dtype that holds 2p - 2, in which
    s - p wraps above s when s < p, so min(s, s - p) is the residue."""
    wide = np.uint8 if p <= 127 else np.uint16 if p <= 32749 else np.uint32
    units = [dt(p ** i) for i in range(1, m)]

    def digit_sum(a, b):
        s = np.add(a, b, dtype=wide, casting="unsafe")
        return np.minimum(s, s - p, out=s)

    def add(a, b):
        out = digit_sum(a % p, b % p).astype(dt)
        for u in units:
            out += digit_sum(a // u % p, b // u % p) * u
        return out
    return digit_sum if m == 1 and wide is dt else add


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Raw polynomial helpers over GF(p), coefficients as ints, lowest degree first.
# Only used while constructing a context; all later arithmetic is table-driven.
# ---------------------------------------------------------------------------

def _ptrim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _ptrim(a)


def _irreducible_over_prime(mod, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg(mod)/2."""
    deg = len(mod) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            cand = _int_to_digits(enc, p, d) + [1]
            if not _pmod(mod, cand, p):
                return False
    return True


def _int_to_digits(v: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(v % base)
        v //= base
    return out


def _digits_to_int(ds, base: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * base + d
    return v


class FieldCtx:
    """A concrete finite field GF(p^m).

    Not constructed directly: use :func:`field_new` or
    :func:`quadratic_extension`, which memoize so equal parameters share one
    context (elements check context identity).
    """

    __slots__ = (
        "p", "m", "q", "modulus", "base", "_primitive_value",
        "_exp", "_log", "_add", "_neg", "_raw_mul", "_quad_ext",
        "_arrays", "_elems", "__weakref__",
    )

    def __init__(self, p, m, q, modulus, base, raw_mul):
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(modulus)
        self.base = base
        self._raw_mul = raw_mul
        self._quad_ext = None
        self._elems = _Elements(self)
        self._build_tables()

    # -- construction ------------------------------------------------------

    def _order(self, a: int) -> int:
        n = self.q - 1
        if a == 0:
            return 0
        order = n
        for r in _prime_factors(n):
            while order % r == 0 and self._raw_pow(a, order // r) == 1:
                order //= r
        return order

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return r

    def _build_tables(self):
        """exp and log, the neg and scalar add lists of odd p, and the
        kernels' arrays `_arrays` = (log, exp, add).

        An encoding is a vector of base-p digits (in a quadratic extension,
        the base field's digits low and the second coordinate's high), so
        multiplication by the primitive element is a GF(p)-linear map on
        the digits and addition is their sum mod p.  exp is the orbit of 1
        under that map, by block doubling: the next L powers are the first
        L times the map's L-th power, which is then squared.

        In the arrays, log(0) = 2(q-1) and exp runs over two periods and
        then zeros, so the sum of two logs indexes exp directly; the logs
        are int64, numpy's index type (int32 logs cost every gather a
        conversion).  add is XOR in characteristic 2, else `_odd_add`; the
        scalar add lists come from it, and -a = a * g^((q-1)/2) from exp.
        """
        p, m, q = self.p, self.m, self.q
        prim = next(a for a in range(1, q) if self._order(a) == q - 1)
        self._primitive_value = prim
        dt = _dtype_for(q)
        # digit rows of p^i * prim; no dot product of digits overflows acc
        acc = np.min_scalar_type(m * (p - 1) ** 2)
        step = np.array([_int_to_digits(self._raw_mul(p ** i, prim), p, m)
                         for i in range(m)], acc)
        orbit = np.zeros((1, m), acc)
        orbit[0, 0] = 1
        while len(orbit) < q - 1:
            nxt = orbit[:q - 1 - len(orbit)] @ step % p
            orbit = np.concatenate([orbit, nxt])
            step = step @ step % p
        exp = np.zeros(q - 1, dt)
        for i in range(m):
            exp += orbit[:, i].astype(dt) * dt(p ** i)
        del orbit
        log = np.empty(q, np.int64)
        log[0] = 2 * (q - 1)
        log[exp] = np.arange(q - 1)
        # the Python lists share one int object per element: 2 MB less at
        # q = 2^16, and 24 MB less for the add lists at q = 1021
        ints = list(range(q))
        self._exp = [ints[e] for e in exp]
        self._log = [0] + [ints[i] for i in log[1:]]
        padded = np.zeros(4 * (q - 1) + 1, dt)
        padded[:q - 1] = padded[q - 1:2 * (q - 1)] = exp

        if p == 2:
            self._add = self._neg = None
            add = np.bitwise_xor
        else:
            self._neg = [ints[v] for v in padded[log + (q - 1) // 2].tolist()]
            add = _odd_add(p, m, dt)
            e = np.arange(q, dtype=dt)
            self._add = None if q > _ADD_TABLE_LIMIT else \
                [[ints[v] for v in row.tolist()] for row in add(e[:, None], e)]
        self._arrays = (log, padded, add)

    # -- integer-encoding arithmetic (kernel API) ---------------------------

    def add_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._add is not None:
            return self._add[a][b]
        # `_odd_add`'s rule on ints; on one-element arrays GF(3^7) takes 100 us
        p, out, unit = self.p, 0, 1
        while a or b:
            s = a % p + b % p
            out += (s - p if s >= p else s) * unit
            a, b, unit = a // p, b // p, unit * p
        return out

    def neg_i(self, a: int) -> int:
        if self.p == 2:
            return a
        return self._neg[a]

    def sub_i(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add_i(a, self.neg_i(b))

    def mul_i(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.q - 1
        return self._exp[(self._log[a] + self._log[b]) % n]

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        n = self.q - 1
        return self._exp[(n - self._log[a]) % n]

    def div_i(self, a: int, b: int) -> int:
        return self.mul_i(a, self.inv_i(b))

    def pow_i(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        n = self.q - 1
        return self._exp[(self._log[a] * e) % n]

    # -- elements ------------------------------------------------------------

    def encode(self, v) -> int:
        """Integer encoding of an int or of an element of this field."""
        if isinstance(v, FieldElement):
            if v.ctx is not self:
                raise ContextMismatch(f"element of {v.ctx!r} used in {self!r}")
            return v.value
        return int(v) % self.q

    def elem(self, v) -> "FieldElement":
        return self._elems[self.encode(v)]

    @property
    def zero(self) -> "FieldElement":
        return self._elems[0]

    @property
    def one(self) -> "FieldElement":
        return self._elems[1]

    @property
    def primitive(self) -> "FieldElement":
        return self._elems[self._primitive_value]

    def elements(self):
        """All field elements in encoding order."""
        return list(map(self._elems.__getitem__, range(self.q)))

    def vector(self, values) -> tuple:
        return tuple(map(self._elems.__getitem__, map(self.encode, values)))

    # -- extension-specific helpers ------------------------------------------

    def embed(self, e: "FieldElement") -> "FieldElement":
        """Map an element of the base field into this extension."""
        if self.base is None:
            raise NoBaseField(f"{self!r} has no base field")
        if e.ctx is not self.base:
            raise ContextMismatch("embed expects a base-field element")
        return self._elems[e.value]

    def to_base(self, e: "FieldElement") -> "FieldElement":
        if self.base is None:
            raise NoBaseField(f"{self!r} has no base field")
        if e.ctx is not self:
            raise ContextMismatch("to_base expects an element of this field")
        if e.value >= self.base.q:
            raise ValueError(f"{e!r} is not in the base field")
        return self.base._elems[e.value]

    # -- misc ------------------------------------------------------------------

    def __repr__(self):
        return f"GF({self.q})"


class _Elements(dict):
    """A field's elements by encoding, each made on its first lookup, so
    one value is always one object; a lazy dict, since a run may box only
    a few of the 2^16 elements of the largest field."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: FieldCtx):
        super().__init__()
        self.ctx = ctx

    def __missing__(self, v) -> "FieldElement":
        v = int(v)
        e = self[v] = FieldElement(v, self.ctx)
        return e


class FieldElement:
    """An element of a fixed FieldCtx; immutable, hashable.  The field
    boxes each encoding into one shared instance (`FieldCtx._elems`), so
    an assignment to an attribute raises."""

    __slots__ = ("value", "ctx")

    def __init__(self, value: int, ctx: FieldCtx):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ctx", ctx)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx:
                raise ContextMismatch(
                    f"mixing elements of {self.ctx!r} and {other.ctx!r}")
            return other.value
        if isinstance(other, int):
            return other % self.ctx.q
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.ctx._elems[self.ctx.add_i(self.value, v)]

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.ctx._elems[self.ctx.sub_i(self.value, v)]

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.ctx._elems[self.ctx.sub_i(v, self.value)]

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.ctx._elems[self.ctx.mul_i(self.value, v)]

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.ctx._elems[self.ctx.div_i(self.value, v)]

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return self.ctx._elems[self.ctx.div_i(v, self.value)]

    def __neg__(self):
        return self.ctx._elems[self.ctx.neg_i(self.value)]

    def __pow__(self, e: int):
        return self.ctx._elems[self.ctx.pow_i(self.value, e)]

    def inv(self) -> "FieldElement":
        return self.ctx._elems[self.ctx.inv_i(self.value)]

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.ctx is self.ctx and other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.ctx.q
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.value))

    def __bool__(self):
        return self.value != 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"{self.value}@{self.ctx!r}"


# ---------------------------------------------------------------------------
# Context factories
# ---------------------------------------------------------------------------

def _make_ground_raw_mul(p, m, modulus):
    if m == 1:
        def raw_mul(a, b):
            return (a * b) % p
        return raw_mul

    def raw_mul(a, b):
        da = _int_to_digits(a, p, m)
        db = _int_to_digits(b, p, m)
        prod = _pmul(da, db, p)
        red = _pmod(prod, modulus, p)
        return _digits_to_int(red, p)

    return raw_mul


_field_registry: dict[tuple[int, int], FieldCtx] = {}


def field_new(p: int, m: int) -> FieldCtx:
    """Construct (or reuse) the canonical GF(p^m) context."""
    if not _is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    q = p ** m
    if q > SIZE_LIMIT:
        raise SizeBudgetExceeded(f"q = {q} exceeds limit {SIZE_LIMIT}")

    with _construction_lock:
        ctx = _field_registry.get((p, m))
        if ctx is not None:
            return ctx
        modulus = None
        for enc in range(q):
            cand = _int_to_digits(enc, p, m) + [1]
            if m == 1 or _irreducible_over_prime(cand, p):
                modulus = cand
                break
        assert modulus is not None
        ctx = FieldCtx(p, m, q, modulus, None,
                       _make_ground_raw_mul(p, m, modulus))
        _field_registry[(p, m)] = ctx
        return ctx


def quadratic_extension(base: FieldCtx) -> FieldCtx:
    """Build GF(q^2) as a degree-2 extension of GF(q) = base.

    Elements encode as a + b*q for a, b base-field encodings; base elements
    embed as themselves, so subfield membership is just e^q == e.
    """
    q0 = base.q
    if q0 * q0 > SIZE_LIMIT:
        raise SizeBudgetExceeded(f"q^2 = {q0 * q0} exceeds limit {SIZE_LIMIT}")
    with _construction_lock:
        if base._quad_ext is not None:
            return base._quad_ext

        modulus = None
        for enc in range(q0 * q0):
            c0, c1 = enc % q0, enc // q0
            # y^2 + c1*y + c0 is irreducible over GF(q0) iff it has no root
            if all(base.add_i(base.add_i(base.mul_i(e, e), base.mul_i(c1, e)), c0)
                   for e in range(q0)):
                modulus = (c0, c1, 1)
                break
        assert modulus is not None
        s = base.neg_i(modulus[1])  # y^2 = s*y + t
        t = base.neg_i(modulus[0])

        def raw_mul(x, y):
            a, b = x % q0, x // q0
            c, d = y % q0, y // q0
            bd = base.mul_i(b, d)
            lo = base.add_i(base.mul_i(a, c), base.mul_i(bd, t))
            hi = base.add_i(base.add_i(base.mul_i(a, d), base.mul_i(b, c)),
                            base.mul_i(bd, s))
            return lo + hi * q0

        ext = FieldCtx(base.p, 2 * base.m, q0 * q0, modulus, base, raw_mul)
        base._quad_ext = ext
        return ext


# ---------------------------------------------------------------------------
# Polynomials over a field
# ---------------------------------------------------------------------------

class Poly:
    """Univariate polynomial; coefficients lowest degree first, trimmed.

    The zero polynomial has empty coefficients and degree -1 (a sentinel, not
    a coefficient index).
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        cs = [ctx.elem(c) for c in coeffs]
        while cs and cs[-1].value == 0:
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (0, 1))

    @classmethod
    def from_roots(cls, ctx, roots):
        out = cls.one(ctx)
        for r in roots:
            out = out * cls(ctx, (-ctx.elem(r), ctx.one))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElement:
        """Coefficient of x^i (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero

    def __call__(self, x) -> FieldElement:
        x = self.ctx.elem(x)
        acc = self.ctx.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _check(self, other) -> "Poly":
        if not isinstance(other, Poly):
            raise TypeError("expected a Poly")
        if other.ctx is not self.ctx:
            raise ContextMismatch("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx,
                    [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        other = self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx,
                    [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            c = self.ctx.elem(other)
            return Poly(self.ctx, [a * c for a in self.coeffs])
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        out = [self.ctx.zero] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a.value:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def divmod(self, other) -> tuple["Poly", "Poly"]:
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        quo = [self.ctx.zero] * max(self.degree - other.degree + 1, 0)
        rem = list(self.coeffs)
        inv_lead = other.leading().inv()
        while len(rem) - 1 >= other.degree and rem:
            shift = len(rem) - 1 - other.degree
            factor = rem[-1] * inv_lead
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            while rem and rem[-1].value == 0:
                rem.pop()
        return Poly(self.ctx, quo), Poly(self.ctx, rem)

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx is self.ctx
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((id(self.ctx), tuple(c.value for c in self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i).value
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def minimal_poly_over_base(e: FieldElement) -> Poly:
    """Minimal polynomial over GF(q) of an element of GF(q^2)."""
    ext = e.ctx
    if ext.base is None:
        raise NoBaseField("element does not live in a constructed extension")
    base = ext.base
    conj = e ** base.q
    if conj == e:
        return Poly(base, (-ext.to_base(e), base.one))
    tr = e + conj
    nm = e * conj
    return Poly(base, (ext.to_base(nm), -ext.to_base(tr), base.one))
