import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from mdsx.code import code_from_generator
from mdsx.constructions import (
    CyclicSpec,
    GrsSpec,
    cu_extension_facts,
    cyclic_cu,
    cyclic_spec,
    egrs,
    egrs_dual_code,
    egrs_generator,
    grs,
    grs_dual_weights,
    grs_generator,
    nk_delta_set_check,
    prs,
    roth_lempel,
    subset_sums,
    subset_sums_bruteforce,
    t_set,
    t_set_bruteforce,
    thm12_u,
    thm14_vector,
    thm7_u,
)
from mdsx.covering import covering_radius, is_deep_hole
from mdsx.errors import BadDims, BadK, BadU, DuplicateNode, PoleCollision
from mdsx.field import Poly, field_new
from mdsx.matrix import Matrix

gf3 = field_new(3, 1)
gf4 = field_new(2, 2)
gf5 = field_new(5, 1)
gf7 = field_new(7, 1)
gf8 = field_new(2, 3)
gf9 = field_new(3, 2)


class TestEvaluationCodes:
    def test_grs_parameters(self):
        c = grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2))
        assert (c.n, c.k, c.min_distance()) == (4, 2, 3) and c.is_mds()

    def test_egrs_parameters(self):
        c = egrs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2))
        assert (c.n, c.k, c.min_distance()) == (5, 2, 4) and c.is_mds()
        c43 = egrs(GrsSpec.make(gf4, [0, 1, 2, 3], 1, 3))
        assert (c43.n, c43.k, c43.min_distance()) == (5, 3, 3)

    def test_full_dimension_is_mds(self):
        c = grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 4))
        assert (c.k, c.min_distance()) == (4, 1) and c.is_mds()

    def test_spec_validation(self):
        with pytest.raises(BadDims):
            GrsSpec.make(gf5, [0, 1, 2], 1, 4)


class TestDualWeights:
    def test_hand_instance(self):
        w = grs_dual_weights(gf5.vector([0, 1, 2, 3]), 1)
        assert [e.value for e in w] == [4, 3, 2, 1]

    def test_whole_field_gives_minus_one(self):
        for ctx in (gf5, gf7, gf8):
            w = grs_dual_weights(ctx.vector(range(ctx.q)), 1)
            minus_one = (-ctx.one).value
            assert all(e.value == minus_one for e in w)

    def test_duality_product_zero_for_every_k(self):
        rng = random.Random(3)
        for ctx in (gf5, gf8, gf9):
            n = rng.randint(2, min(ctx.q, 6))
            nodes = ctx.vector(rng.sample(range(ctx.q), n))
            v = ctx.vector([rng.randrange(1, ctx.q) for _ in range(n)])
            w = grs_dual_weights(nodes, v)
            for k in range(1, n):
                gk = grs_generator(nodes, v, k)
                gw = grs_generator(nodes, w, n - k)
                prod = gk.mul(gw.transpose())
                assert all(e.value == 0
                           for row in prod.row_list() for e in row)

    def test_matches_nullspace_dual(self):
        nodes = gf7.vector([0, 1, 3, 6])
        v = gf7.vector([1, 2, 1, 5])
        w = grs_dual_weights(nodes, v)
        for k in range(1, 4):
            c = grs(GrsSpec.make(gf7, [0, 1, 3, 6], [1, 2, 1, 5], k))
            tw = grs(GrsSpec.make(gf7, [0, 1, 3, 6],
                                  [e.value for e in w], 4 - k))
            assert c.dual().same_code(tw)


class TestPrs:
    def test_parameters_gf4(self):
        c = prs(gf4, 2)
        assert (c.n, c.k, c.min_distance()) == (5, 2, 4)

    def test_full_space(self):
        c = prs(gf4, 5)
        assert (c.n, c.k, c.min_distance()) == (5, 5, 1)

    def test_self_dual_family(self):
        for ctx in (gf4, gf5):
            for k in range(1, ctx.q + 1):
                assert prs(ctx, k).dual().same_code(prs(ctx, ctx.q + 1 - k))

    def test_bad_k(self):
        with pytest.raises(BadK):
            prs(gf4, 6)


class TestRothLempel:
    def test_mds_iff_set_condition_gf4(self):
        a = gf4.vector([0, 1, 2, 3])
        assert nk_delta_set_check(a, 2, 0)
        c = roth_lempel(a, 3, 0)
        assert (c.n, c.k) == (6, 3) and c.is_mds()

    def test_not_mds_over_gf5(self):
        a = gf5.vector([0, 1, 2, 3, 4])
        assert not nk_delta_set_check(a, 2, 0)  # 2 + 3 = 0
        assert not roth_lempel(a, 3, 0).is_mds()

    def test_mds_matches_set_check_everywhere(self):
        for ctx in (gf4, gf5, gf7):
            a = ctx.vector(range(ctx.q))
            for k in range(3, ctx.q):
                for dv in range(ctx.q):
                    assert roth_lempel(a, k, dv).is_mds() \
                        == nk_delta_set_check(a, k - 1, dv), (ctx.q, k, dv)

    def test_generator_tail_columns(self):
        # Vandermonde rows on the nodes, then (0,..,0,1)^T and
        # (0,..,0,1,delta)^T
        from mdsx.matrix import Matrix
        rng = random.Random(13)
        cases = [(gf7.vector([0, 1, 2, 3, 4]), 4, 3)]
        for ctx in (gf4, gf5, gf7, gf8, gf9, field_new(11, 1)):
            for _ in range(10):
                n = rng.randint(4, ctx.q)
                cases.append((ctx.vector(rng.sample(range(ctx.q), n)),
                              rng.randint(3, n - 1), rng.randrange(ctx.q)))
        for a, k, delta in cases:
            rows = [[(x ** i).value for x in a]
                    + [1 if i == k - 1 else 0]
                    + [delta if i == k - 1 else (1 if i == k - 2 else 0)]
                    for i in range(k)]
            direct = code_from_generator(Matrix(a[0].ctx, rows))
            assert roth_lempel(a, k, delta).same_code(direct)

    def test_dimension_guard(self):
        with pytest.raises(BadDims):
            roth_lempel(gf5.vector([0, 1, 2]), 2, 0)

    def test_node_guards(self):
        with pytest.raises(BadDims):
            roth_lempel([], 3, 0)
        with pytest.raises(DuplicateNode):
            roth_lempel(gf5.vector([0, 1, 2, 2]), 3, 0)


class TestExtensionVectors:
    def test_thm7_hand_instance(self):
        u = thm7_u(gf5.vector([0, 1, 2, 3]), gf5.vector([1] * 4), 2)
        assert [e.value for e in u] == [0, 3, 3, 4]

    def test_thm7_unit_column_and_code_identity(self):
        rng = random.Random(5)
        for ctx in (gf5, gf8, gf9):
            for _ in range(5):
                n = rng.randint(2, ctx.q)
                nodes = rng.sample(range(ctx.q), n)
                mult = [rng.randrange(1, ctx.q) for _ in range(n)]
                a, v = ctx.vector(nodes), ctx.vector(mult)
                for k in range(1, n):
                    u = thm7_u(a, v, k)
                    col = grs_generator(a, v, k).mat_vec(u)
                    assert [e.value for e in col] == [0] * (k - 1) + [1]
                    c = grs(GrsSpec.make(ctx, nodes, mult, k))
                    e_code = egrs(GrsSpec.make(ctx, nodes, mult, k))
                    assert c.extend_u(u).same_code(e_code)

    def test_thm7_vector_is_dual_deep_hole(self):
        a = gf5.vector([0, 1, 2, 3])
        v = gf5.vector([1] * 4)
        u = thm7_u(a, v, 2)
        dual = grs(GrsSpec.make(gf5, [0, 1, 2, 3], 1, 2)).dual()
        assert covering_radius(dual).rho == 2
        assert is_deep_hole(dual, u)

    def test_thm12_column_and_code_identity(self):
        for ctx in (gf4, gf5):
            q = ctx.q
            a = ctx.vector(range(q))
            for k in range(3, q):
                gki = egrs_generator(a, 1, k)
                for dv in range(q):
                    u = thm12_u(a, k, dv)
                    col = gki.mat_vec(u)
                    assert [e.value for e in col] \
                        == [0] * (k - 2) + [1, dv]
                    e_code = egrs(GrsSpec.make(ctx, list(range(q)), 1, k))
                    assert e_code.extend_u(u).same_code(
                        roth_lempel(a, k, dv))

    def test_thm12_last_coordinate_char2(self):
        a = gf4.vector([0, 1, 2, 3])
        u = thm12_u(a, 3, 0)
        assert u[-1].value == 0  # the field elements sum to zero

    def test_power_sum_identity(self):
        rng = random.Random(11)
        for ctx in (gf4, gf5, gf7, gf8, gf9):
            for _ in range(5):
                n = rng.randint(2, ctx.q)
                a = ctx.vector(rng.sample(range(ctx.q), n))
                w = grs_dual_weights(a, 1)
                lhs = sum((wi * ai ** n for wi, ai in zip(w, a)), ctx.zero)
                assert lhs == sum(a, ctx.zero)


class TestSetOperations:
    def test_subset_sums_edges(self):
        s = gf5.vector([0, 2, 3])
        assert subset_sums(s, 0) == {gf5.zero}
        assert subset_sums(s, 3) == {gf5.elem(0 + 2 + 3)}

    def test_subset_sums_pairs_cover_gf5(self):
        s = gf5.vector(range(5))
        assert subset_sums(s, 2) == set(gf5.elements())

    def test_nk_delta_examples(self):
        assert nk_delta_set_check(gf4.vector(range(4)), 2, 0)
        assert nk_delta_set_check(gf8.vector(range(8)), 2, 0)
        for dv in range(8):
            assert not nk_delta_set_check(gf8.vector(range(8)), 3, dv)

    def test_t_set_edges(self):
        a = gf5.vector([0, 1, 2])
        assert t_set(a, 3, 0) == {gf5.one}
        prod = (gf5.elem(3) - 0) * (gf5.elem(3) - 1) * (gf5.elem(3) - 2)
        assert t_set(a, 3, 3) == {prod.inv()}

    def test_t_set_hand_instance(self):
        got = t_set(gf5.vector([0, 1, 2]), 3, 2)
        assert {e.value for e in got} == {1, 2, 3}

    def test_pole_collision(self):
        with pytest.raises(PoleCollision):
            t_set(gf5.vector([0, 1, 2]), 2, 1)

    def test_dp_matches_bruteforce(self):
        rng = random.Random(13)
        for ctx in (gf4, gf5, gf7, gf8, gf9):
            for trial in range(4):
                size = rng.randint(1, min(ctx.q, 12))
                vals = rng.sample(range(ctx.q), size)
                s = ctx.vector(vals)
                for m in range(size + 1):
                    assert subset_sums(s, m) == subset_sums_bruteforce(s, m)
                outside = [x for x in range(ctx.q) if x not in vals]
                if outside:
                    pv = outside[0]
                    for m in range(size + 1):
                        assert t_set(s, pv, m) == t_set_bruteforce(s, pv, m)

    def test_all_sums_corollary(self):
        for ctx in (gf5, gf7, gf8, gf9, field_new(11, 1)):
            q = ctx.q
            s = ctx.vector(range(q))
            for k in range((q - 1) // 2, q - 2):
                assert subset_sums(s, k) == set(ctx.elements())


class TestDeepHoleFamily:
    def test_monomial_vector_q5(self):
        fam = helpers.deep_hole_family_rs(gf5.vector(range(5)), 2)
        assert fam[0].kind == "monomial"
        assert [e.value for e in fam[0].vector] == [0, 1, 4, 4, 1]

    def test_pole_family_empty_when_nodes_exhaust_field(self):
        fam = helpers.deep_hole_family_rs(gf5.vector(range(5)), 2)
        assert [c.kind for c in fam] == ["monomial"]

    def test_pole_family_present_otherwise(self):
        fam = helpers.deep_hole_family_rs(gf5.vector([0, 1, 2]), 1)
        assert [c.kind for c in fam] == ["monomial", "pole", "pole"]
        assert [c.pi.value for c in fam[1:]] == [3, 4]

    def test_candidates_are_deep_holes_q5(self):
        a = gf5.vector(range(5))
        code = grs(GrsSpec.make(gf5, list(range(5)), 1, 2))
        for cand in helpers.deep_hole_family_rs(a, 2):
            assert is_deep_hole(code, cand.vector)

    def test_family_is_complete_at_q5(self):
        # brute force every deep hole of the [5,2] code; all of them must
        # lie in scalar-multiple-plus-codeword orbits of the candidates
        code = grs(GrsSpec.make(gf5, list(range(5)), 1, 2))
        rho, holes = helpers.brute_deep_holes(code)
        assert rho == covering_radius(code).rho == 3
        orbit = set()
        words = list(code.codewords())
        for cand in helpers.deep_hole_family_rs(gf5.vector(range(5)), 2):
            for s in range(1, 5):
                se = gf5.elem(s)
                scaled = [se * e for e in cand.vector]
                for wrd in words:
                    orbit.add(tuple((x + y).value
                                    for x, y in zip(scaled, wrd)))
        assert orbit == holes

    def test_twisted_multipliers(self):
        a = gf5.vector([0, 1, 2, 3])
        w = grs_dual_weights(a, 1)
        fam = helpers.deep_hole_family_rs(a, 2, v=w)
        code = grs(GrsSpec.make(gf5, [0, 1, 2, 3],
                                [e.value for e in w], 2))
        for cand in fam:
            assert is_deep_hole(code, cand.vector)


class TestThm14Vector:
    def test_pole_kind_delta_zero_always_valid(self):
        a = gf5.vector([0, 1, 2, 3])
        cand = thm14_vector("pole", a, 3, 0, pi=4)
        assert cand.valid  # reciprocal products are never zero

    def test_monomial_all_invalid_when_sums_cover_field(self):
        # 3-subset sums of GF(4) hit every element, so no delta works
        a = gf4.vector(range(4))
        assert subset_sums(a, 3) == set(gf4.elements())
        for dv in range(4):
            assert not thm14_vector("monomial", a, 2, dv).valid

    def test_agreement_with_brute_force_gf4(self):
        a = gf4.vector(range(4))
        target = egrs_dual_code(a, 3)
        assert covering_radius(target).rho == 3
        for dv in range(4):
            cand = thm14_vector("monomial", a, 3, dv)
            assert cand.valid == is_deep_hole(target, cand.vector)

    def test_agreement_with_brute_force_gf5_poles(self):
        a = gf5.vector([0, 1, 2, 3])
        target = egrs_dual_code(a, 3)
        assert covering_radius(target).rho == 3
        for dv in range(5):
            mono = thm14_vector("monomial", a, 3, dv)
            assert mono.valid == is_deep_hole(target, mono.vector)
            pole = thm14_vector("pole", a, 3, dv, pi=4)
            assert pole.valid == is_deep_hole(target, pole.vector)

    def test_pole_requires_location(self):
        with pytest.raises(PoleCollision):
            thm14_vector("pole", gf5.vector([0, 1, 2]), 2, 0)


class TestCyclicFamily:
    def test_root_has_exact_order(self):
        for m in (2, 3):
            spec = cyclic_spec(m, 1)
            q = spec.q
            assert (spec.beta ** (q + 1)).value == 1
            for i in range(1, q + 1):
                assert (spec.beta ** i).value != 1

    def test_generator_poly_divides_xn_minus_1(self):
        for m, u in ((2, 1), (2, 2), (3, 2), (3, 4)):
            spec = cyclic_spec(m, u)
            base = spec.gen_poly.ctx
            q = spec.q
            xn1 = Poly(base, [1] + [0] * q + [1])  # x^{q+1} - 1, char 2
            _, rem = helpers.poly_divmod(xn1, spec.gen_poly)
            assert rem.is_zero()

    def test_parameters_q4(self):
        c2 = cyclic_cu(2, 2)
        assert (c2.n, c2.k, c2.min_distance()) == (5, 3, 3)
        c1 = cyclic_cu(2, 1)
        assert (c1.n, c1.k, c1.min_distance()) == (5, 1, 5)

    def test_parameters_q8(self):
        for u in range(1, 5):
            c = cyclic_cu(3, u)
            assert (c.n, c.k, c.min_distance()) \
                == (9, 2 * u - 1, 8 - 2 * u + 3)
            assert c.is_mds()

    def test_code_is_cyclic(self):
        c = cyclic_cu(2, 2)
        for word in list(c.codewords())[:10]:
            rotated = (word[-1],) + word[:-1]
            assert c.contains(rotated)

    def test_bad_u(self):
        with pytest.raises(BadU):
            cyclic_cu(2, 3)
        with pytest.raises(BadU):
            cyclic_cu(1, 1)


class TestCuExtensionFacts:
    def test_q4_weight_enumerator(self):
        f = cu_extension_facts(2, 2)
        assert f.ext_params == (6, 3, 4) and f.ext_mds
        assert f.weight_counts == [1, 0, 0, 0, 45, 0, 18]
        assert f.weight_formula_ok

    def test_q4_dual_radius(self):
        f = cu_extension_facts(2, 2)
        assert f.rho_dual == 3 and f.one_is_deep_hole

    def test_q8_u2(self):
        f = cu_extension_facts(3, 2)
        assert f.ext_params == (10, 3, 8) and f.weight_formula_ok
        assert f.rho_dual == 3 and f.one_is_deep_hole

    def test_q16_desk_scale_ceiling(self):
        # length 17 over GF(16), via the GF(256) root of unity
        f = cu_extension_facts(4, 2)
        assert f.params == (17, 3, 15) and f.mds
        assert f.ext_params == (18, 3, 16) and f.ext_mds
        assert f.weight_formula_ok
        assert f.rho_dual == 3 and f.one_is_deep_hole

    def test_rejects_other_u(self):
        with pytest.raises(BadU):
            cu_extension_facts(3, 3)


# ---------------------------------------------------------------------------
# The builders compute on encodings; their boxed twins in helpers.py compute
# with FieldElement arithmetic.  GF(1031) is odd with uint16 encodings.
# ---------------------------------------------------------------------------

TWIN_FIELDS = [field_new(p, m) for p, m in
               ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (1031, 1))]


@st.composite
def builder_inputs(draw):
    """(nodes, multipliers, k, delta, pole or None), with node 0 and k = n
    each drawn half of the time."""
    ctx = draw(st.sampled_from(TWIN_FIELDS))
    values = st.integers(0, ctx.q - 1)
    nodes = draw(st.lists(values, min_size=1, max_size=min(ctx.q, 7),
                          unique=True))
    if draw(st.booleans()) and 0 not in nodes:
        nodes[draw(st.integers(0, len(nodes) - 1))] = 0
    n = len(nodes)
    k = n if draw(st.booleans()) else draw(st.integers(1, n))
    mult = draw(st.lists(st.integers(1, ctx.q - 1), min_size=n, max_size=n))
    poles = [x for x in range(min(ctx.q, 64)) if x not in nodes]
    pole = draw(st.sampled_from(poles)) if poles else None
    return (ctx.vector(nodes), ctx.vector(mult), k, draw(values), pole)


def encodings(vec):
    return [e.value for e in vec]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(builder_inputs())
def test_builders_match_boxed_twins(case):
    a, v, k, delta, pole = case
    assert grs_generator(a, v, k).to_int_rows() == \
        [encodings(r) for r in helpers.ref_grs_generator(a, v, k)]
    assert encodings(grs_dual_weights(a, v)) == \
        encodings(helpers.ref_grs_dual_weights(a, v))
    assert encodings(thm7_u(a, v, k)) == encodings(helpers.ref_thm7_u(a, v, k))
    assert encodings(thm12_u(a, k, delta)) == \
        encodings(helpers.ref_thm12_u(a, k, delta))
    monomial, pole_head = helpers.ref_thm14_heads(a, k, pole)
    n = len(a)
    assert encodings(thm14_vector("monomial", a, k, delta).vector[:n]) == \
        encodings(monomial)
    if pole is not None:
        cand = thm14_vector("pole", a, k, delta, pi=pole)
        assert encodings(cand.vector[:n]) == encodings(pole_head)


# ---------------------------------------------------------------------------
# One gate: every evaluation-code entry point checks its nodes, multipliers
# and k by building a GrsSpec, so it fails as that spec fails and, on a
# valid input, builds from what the spec holds.  roth_lempel's k stays in
# its own range 3 <= k <= n-1.
# ---------------------------------------------------------------------------

GATE_NODES = gf7.vector([3, 0, 6, 1, 5])
GATE_INPUTS = [
    (GATE_NODES, [2, 1, 4, 3, 6], 3),                    # valid
    (gf7.vector([3, 0, 6, 0, 5]), 1, 3),                 # duplicate node
    ((), 1, 3),                                          # empty nodes
    (GATE_NODES, [2, 1, 0, 3, 6], 3),                    # zero multiplier
    (GATE_NODES, [2, 1, 4], 3),                          # multiplier length
    (GATE_NODES, 1, 0),                                  # k = 0
    (GATE_NODES, 1, 6),                                  # k = n + 1
    (GATE_NODES[:4] + (gf5.elem(2),), 1, 3),             # mixed fields
    (GATE_NODES, 1, "2"),                                # k not an int
]


def _twin_generator(spec, *cols):
    """The boxed twin's evaluation matrix of the spec, with the given
    columns appended."""
    rows = helpers.ref_grs_generator(spec.a, spec.v, spec.k)
    return Matrix(spec.ctx, [r + [c[i] for c in cols]
                             for i, r in enumerate(rows)])


def _unit(k, *tail):
    return [0] * (k - 1 - len(tail)) + [1, *tail]


# name: (the spec it gates, the call, the boxed twin on that spec)
GATED = {
    "GrsSpec.make": (
        lambda a, v, k: (a, v, k),
        lambda a, v, k: GrsSpec.make(gf7, a, v, k),
        lambda s: s),
    "grs_generator": (
        lambda a, v, k: (a, v, k), grs_generator, _twin_generator),
    "egrs_generator": (
        lambda a, v, k: (a, v, k), egrs_generator,
        lambda s: _twin_generator(s, _unit(s.k))),
    "grs_dual_weights": (
        lambda a, v, k: (a, v, 1),
        lambda a, v, k: grs_dual_weights(a, v),
        lambda s: helpers.ref_grs_dual_weights(s.a, s.v)),
    "thm7_u": (
        lambda a, v, k: (a, v, k), thm7_u,
        lambda s: helpers.ref_thm7_u(s.a, s.v, s.k)),
    "thm12_u": (
        lambda a, v, k: (a, 1, k),
        lambda a, v, k: thm12_u(a, k, 2),
        lambda s: helpers.ref_thm12_u(s.a, s.k, 2)),
    "thm14_vector": (
        lambda a, v, k: (a, 1, k),
        lambda a, v, k: thm14_vector("monomial", a, k, 2).vector,
        lambda s: (*helpers.ref_thm14_heads(s.a, s.k)[0], s.ctx.elem(2))),
    "roth_lempel": (
        lambda a, v, k: (a, 1, k),
        lambda a, v, k: roth_lempel(a, k, 2),
        lambda s: code_from_generator(
            _twin_generator(s, _unit(s.k), _unit(s.k, 2)))),
    "egrs_dual_code": (
        lambda a, v, k: (a, 1, k),
        lambda a, v, k: egrs_dual_code(a, k),
        lambda s: code_from_generator(
            _twin_generator(s, _unit(s.k))).dual()),
}


def _plain(result):
    """Integer rows or encodings of a builder's result."""
    if isinstance(result, GrsSpec):
        return result
    if hasattr(result, "generator"):
        result = result.generator
    if isinstance(result, Matrix):
        return result.to_int_rows()
    return encodings(result)


@pytest.mark.parametrize("name", list(GATED))
def test_every_grs_entry_point_goes_through_the_gate(name):
    gate, call, twin = GATED[name]
    for a, v, k in GATE_INPUTS:
        try:
            spec = GrsSpec(*gate(a, v, k))
        except Exception as refused:
            with pytest.raises(Exception) as info:
                call(a, v, k)
            assert type(info.value) is type(refused), (a, v, k)
        else:
            assert _plain(call(a, v, k)) == _plain(twin(spec)), (a, v, k)
