import random

import numpy as np
import pytest

import helpers

from mdsx import matrix
from mdsx.constructions import GrsSpec, grs
from mdsx.errors import (
    ContextMismatch,
    DivisionByZero,
    NoBaseField,
    NonPrimeCharacteristic,
    SizeBudgetExceeded,
)
from mdsx.field import (
    FieldElement,
    Poly,
    field_new,
    minimal_poly_over_base,
    quadratic_extension,
)
from mdsx.matrix import Matrix

gf2 = field_new(2, 1)
gf4 = field_new(2, 2)
gf5 = field_new(5, 1)
gf8 = field_new(2, 3)
gf9 = field_new(3, 2)


class TestConstruction:
    def test_gf2_prime_field(self):
        assert (gf2.p, gf2.m, gf2.q) == (2, 1, 2)
        assert gf2.primitive.value == 1

    def test_gf4_modulus_is_the_unique_irreducible_quadratic(self):
        assert gf4.modulus == (1, 1, 1)

    def test_gf5_smallest_generator(self):
        # hand oracle: 2^1..2^4 = 2, 4, 3, 1
        powers = [pow(2, e, 5) for e in range(1, 5)]
        assert powers == [2, 4, 3, 1]
        assert gf5.primitive.value == 2

    def test_construction_is_memoized(self):
        assert field_new(5, 1) is gf5
        assert quadratic_extension(gf4) is quadratic_extension(gf4)

    def test_modulus_irreducibility_spot_check(self):
        # the canonical modulus has no roots in the prime field
        for ctx in (gf4, gf8, gf9):
            base = field_new(ctx.p, 1)
            for e in base.elements():
                val = sum((base.elem(c) * e ** i
                           for i, c in enumerate(ctx.modulus)), base.zero)
                assert val.value != 0

    def test_rejects_non_prime(self):
        with pytest.raises(NonPrimeCharacteristic):
            field_new(6, 1)

    def test_rejects_oversized(self):
        with pytest.raises(SizeBudgetExceeded):
            field_new(2, 17)


class TestArithmetic:
    def test_gf5_product(self):
        assert (gf5.elem(4) * gf5.elem(4)).value == 1  # 16 mod 5

    def test_characteristic_two_doubling(self):
        x = gf4.elem(2)
        assert (x + x).value == 0

    def test_multiplicative_identity(self):
        for ctx in (gf2, gf4, gf5, gf8, gf9):
            for a in ctx.elements():
                assert a * ctx.one == a

    def test_inverses(self):
        assert gf5.elem(4).inv().value == 4
        assert gf5.elem(2).inv().value == 3
        assert gf5.one.inv().value == 1
        for ctx in (gf4, gf5, gf8, gf9):
            for a in ctx.elements():
                if a.value:
                    assert (a * a.inv()).value == 1

    def test_division_matches_inverse(self):
        for a in gf9.elements():
            for b in gf9.elements():
                if b.value:
                    assert a / b == a * b.inv()

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            gf5.elem(3) / gf5.zero
        with pytest.raises(DivisionByZero):
            gf5.zero.inv()

    def test_context_mixing_rejected(self):
        with pytest.raises(ContextMismatch):
            gf4.elem(1) + gf5.elem(1)

    def test_frobenius_is_additive(self):
        for ctx in (gf4, gf8, gf9):
            for a in ctx.elements():
                for b in ctx.elements():
                    assert (a + b) ** ctx.p == a ** ctx.p + b ** ctx.p

    def test_primitive_order_is_exact(self):
        for ctx in (gf4, gf5, gf8, gf9):
            g = ctx.primitive
            assert (g ** (ctx.q - 1)).value == 1
            for d in range(1, ctx.q - 1):
                if (ctx.q - 1) % d == 0:
                    assert (g ** d).value != 1

    def test_field_axioms_sampled(self):
        rng = random.Random(11)
        for ctx in (gf5, gf8, gf9):
            for _ in range(50):
                a, b, c = (ctx.elem(rng.randrange(ctx.q)) for _ in range(3))
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


# Every field the suites and tests build, the largest of each kind, odd
# fields past the scalar add lists, prime and not, and the primes on each
# side of the digit sum's dtype boundaries (2p - 2 in uint8, uint16)
TWIN_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
               (11, 1), (13, 1), (2, 4), (17, 1), (5, 2), (3, 3), (2, 5),
               (7, 2), (2, 6), (3, 4), (127, 1), (131, 1), (251, 1), (2, 8),
               (257, 1), (2, 9), (3, 6), (1021, 1), (1031, 1), (3, 7),
               (5, 5), (32749, 1), (32771, 1), (65521, 1), (2, 16)]
TWIN_EXTENSIONS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (7, 1), (3, 2)]


def _assert_tables_match_twin(ctx):
    prim, exp, log, add, neg = helpers.scalar_tables(ctx)
    q = ctx.q
    assert ctx.primitive.value == prim
    assert ctx._exp == exp
    assert ctx._log[1:] == log[1:]
    assert ctx._add == add
    assert ctx._neg == neg
    # the kernels' arrays: log(0) past two periods of exp, then zeros
    log_arr, exp_arr, add_arr = ctx._arrays
    assert log_arr.tolist() == [2 * (q - 1)] + log[1:]
    assert exp_arr.tolist() == exp * 2 + [0] * (2 * q - 1)
    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, size=(2, 3000))
    want = [a_ ^ b_ if ctx.p == 2 else helpers.raw_add(ctx, a_, b_)
            for a_, b_ in zip(a.tolist(), b.tolist())]
    assert add_arr(a, b).tolist() == want
    assert [ctx.add_i(a_, b_) for a_, b_ in zip(a.tolist(), b.tolist())] \
        == want


class TestTableTwin:
    """The numpy table build against the scalar build it replaced."""

    @pytest.mark.parametrize("pm", TWIN_FIELDS,
                             ids=[f"gf{p ** m}" for p, m in TWIN_FIELDS])
    def test_ground_field(self, pm):
        _assert_tables_match_twin(field_new(*pm))

    @pytest.mark.parametrize("pm", TWIN_EXTENSIONS,
                             ids=[f"gf{p ** m}" for p, m in TWIN_EXTENSIONS])
    def test_quadratic_extension(self, pm):
        _assert_tables_match_twin(quadratic_extension(field_new(*pm)))


class TestInterning:
    """Each field boxes one value into one shared FieldElement."""

    def test_every_boxing_path_gives_one_object_per_value(self):
        ext = quadratic_extension(gf4)
        for ctx in (gf5, gf9, ext):
            for v in range(ctx.q):
                e = ctx.elem(v)
                assert e == FieldElement(v, ctx) and e.ctx is ctx
                m = Matrix(ctx, [[v]])
                boxed = [ctx.elem(e), ctx.elem(v + ctx.q), ctx.elements()[v],
                         ctx.vector([v])[0], matrix._box(ctx, [v])[0],
                         m.entry(0, 0), m.row(0)[0], m.row_list()[0][0],
                         m.det(), m.mat_vec([1])[0],
                         ctx._elems[np.int64(v)]]
                assert all(x is e for x in boxed)
            assert ctx.zero is ctx.elem(0) and ctx.one is ctx.elem(1)
            assert ctx.primitive is ctx.elem(ctx._primitive_value)
        assert ext.embed(gf4.elem(3)) is ext.elem(3)
        assert ext.to_base(ext.elem(3)) is gf4.elem(3)

    def test_arithmetic_results_are_interned(self):
        for ctx in (gf5, gf8, gf9):
            for a in ctx.elements():
                for b in ctx.elements()[1:]:
                    x, y = a.value, b.value
                    results = {
                        ctx.add_i(x, y): (a + b, b + a, a + y, y + a),
                        ctx.sub_i(x, y): (a - b, a - y),
                        ctx.sub_i(y, x): (y - a,),
                        ctx.mul_i(x, y): (a * b, a * y, y * a),
                        ctx.div_i(x, y): (a / b, a / y),
                        ctx.neg_i(x): (-a,),
                        ctx.pow_i(x, y): (a ** y,),
                        ctx.inv_i(y): (b.inv(),),
                    }
                    if x:
                        results[ctx.div_i(y, x)] = (y / a,)
                    for value, outs in results.items():
                        assert all(o is ctx.elem(value) for o in outs)

    def test_numpy_ints_box_to_python_ints(self):
        # a fresh lookup of a numpy integer stores and returns an int value
        fresh = type(gf9._elems)(gf9)
        e = fresh[np.int64(4)]
        assert type(e.value) is int and e == gf9.elem(4)
        assert fresh[4] is e and list(fresh) == [4]
        assert all(type(k) is int for k in fresh)
        big = field_new(2, 16)
        v = next(v for v in range(big.q) if v not in big._elems)
        e = matrix._box(big, np.array([v]))[0]
        assert type(e.value) is int and e.value == v
        assert big.elem(v) is e

    def test_shared_elements_are_immutable(self):
        e = gf9.elem(4)
        for attr, value in (("value", 5), ("ctx", gf5)):
            with pytest.raises(AttributeError):
                setattr(e, attr, value)
            with pytest.raises(AttributeError):
                delattr(e, attr)
        assert e.value == 4 and e.ctx is gf9 and gf9.elem(4) is e

    def test_no_element_is_shared_between_fields(self):
        ext = quadratic_extension(gf4)
        for a, b in ((gf4, gf8), (gf4, ext), (gf2, gf4), (gf5, gf9)):
            for v in range(min(a.q, b.q)):
                x, y = a.elem(v), b.elem(v)
                assert x is not y and x != y
                assert x.ctx is a and y.ctx is b
        assert ext.embed(gf4.elem(2)) is not gf4.elem(2)

    def test_elements_are_made_on_demand(self):
        # no table of all q elements: one entry of a GF(2^16) code boxes
        # at most one new element
        big = field_new(2, 16)
        code = grs(GrsSpec.make(big, range(6), 1, 1)).dual()
        before = len(big._elems)
        e = code.generator.entry(0, 1)
        assert len(big._elems) <= before + 1 < 1000
        assert e is big.elem(code.generator.to_int_rows()[0][1])


class TestQuadraticExtension:
    def test_gf4_to_gf16_root_order(self):
        ext = quadratic_extension(gf4)
        beta = ext.primitive ** 3
        assert (beta ** 5).value == 1
        assert all((beta ** i).value != 1 for i in range(1, 5))

    def test_gf2_to_gf4_root_order(self):
        ext = quadratic_extension(gf2)
        beta = ext.primitive ** 1
        assert (beta ** 3).value == 1
        assert all((beta ** i).value != 1 for i in range(1, 3))

    def test_embedding_fixes_base(self):
        ext = quadratic_extension(gf4)
        assert ext.embed(gf4.zero).value == 0
        for e in gf4.elements():
            emb = ext.embed(e)
            assert emb ** 4 == emb
            assert helpers.in_base(ext, emb)
            assert ext.to_base(emb) == e

    def test_embedding_is_homomorphic(self):
        ext = quadratic_extension(gf8)
        for a in gf8.elements():
            for b in gf8.elements():
                assert ext.embed(a + b) == ext.embed(a) + ext.embed(b)
                assert ext.embed(a * b) == ext.embed(a) * ext.embed(b)

    def test_size_guard(self):
        with pytest.raises(SizeBudgetExceeded):
            quadratic_extension(field_new(2, 9))


class TestMinimalPoly:
    ext = quadratic_extension(gf4)
    beta = ext.primitive ** 3

    def test_unit_root_gives_x_minus_one(self):
        mp = minimal_poly_over_base(self.ext.embed(gf4.one))
        assert mp == Poly(gf4, (-gf4.one, gf4.one))

    def test_conjugate_pair_factorization(self):
        for i in range(1, 5):
            e = self.beta ** i
            mp = minimal_poly_over_base(e)
            assert mp.degree == 2
            assert mp.leading().value == 1
            lifted = Poly.from_roots(self.ext, [e, self.beta ** (5 - i)])
            assert [self.ext.embed(c) for c in mp.coeffs] \
                == list(lifted.coeffs)

    def test_base_elements_give_degree_one(self):
        for e in gf4.elements():
            mp = minimal_poly_over_base(self.ext.embed(e))
            assert mp.degree == 1
            assert mp(e).value == 0

    def test_evaluates_to_zero_at_element(self):
        for i in range(6):
            e = self.ext.primitive ** i
            mp = minimal_poly_over_base(e)
            val = sum((self.ext.embed(c) * e ** j
                       for j, c in enumerate(mp.coeffs)), self.ext.zero)
            assert val.value == 0

    def test_requires_base(self):
        with pytest.raises(NoBaseField):
            minimal_poly_over_base(gf4.elem(2))


class TestPoly:
    def test_eval_square(self):
        f = Poly(gf5, (0, 0, 1))
        assert f(gf5.elem(3)).value == 4  # 9 mod 5

    def test_mul_identity(self):
        f = Poly(gf5, (3, 1, 2))
        assert f * Poly.one(gf5) == f

    def test_expand_two_roots(self):
        f = Poly.from_roots(gf5, [1, 2])
        assert f == Poly(gf5, (2, 2, 1))  # x^2 + 2x + 2

    def test_degree_of_product(self):
        f = Poly(gf8, (1, 0, 3))
        g = Poly(gf8, (5, 7))
        assert (f * g).degree == f.degree + g.degree

    def test_zero_degree_sentinel(self):
        assert Poly.zero(gf5).degree == -1
        assert Poly.zero(gf5).is_zero()

    def test_cross_field_poly_ops_rejected(self):
        with pytest.raises(ContextMismatch):
            Poly(gf5, (1, 2)) * Poly(gf4, (1, 1))

    def test_divmod(self):
        f = Poly.from_roots(gf5, [1, 2, 3])
        d = Poly.from_roots(gf5, [2])
        q, r = f.divmod(d)
        assert r.is_zero()
        assert q == Poly.from_roots(gf5, [1, 3])


class TestLagrange:
    def test_recovers_square(self):
        pts = [(gf5.elem(x), gf5.elem(y))
               for x, y in [(0, 0), (1, 1), (2, 4), (3, 4), (4, 1)]]
        assert helpers.lagrange_interpolate(pts) == Poly(gf5, (0, 0, 1))

    def test_constant_data(self):
        pts = [(e, gf8.elem(5)) for e in gf8.elements()]
        assert helpers.lagrange_interpolate(pts) == Poly(gf8, (5,))

    def test_single_point(self):
        assert helpers.lagrange_interpolate([(gf5.elem(2), gf5.elem(3))]) \
            == Poly(gf5, (3,))

    def test_round_trip_random(self):
        rng = random.Random(3)
        for ctx in (gf5, gf8, gf9):
            for _ in range(20):
                n = rng.randint(1, ctx.q)
                xs = rng.sample(range(ctx.q), n)
                ys = [rng.randrange(ctx.q) for _ in range(n)]
                pts = [(ctx.elem(x), ctx.elem(y)) for x, y in zip(xs, ys)]
                f = helpers.lagrange_interpolate(pts)
                assert f.degree < n
                for x, y in pts:
                    assert f(x) == y

    def test_duplicate_abscissa_rejected(self):
        with pytest.raises(ValueError):
            helpers.lagrange_interpolate([(gf5.elem(1), gf5.elem(0)),
                                  (gf5.elem(1), gf5.elem(2))])
