"""Enumeration kernels against unchunked runs and the brute-force oracles."""

import random

import pytest

import helpers
from mdsx import kernels
from mdsx.code import code_from_generator
from mdsx.constructions import GrsSpec, egrs_dual_code, grs
from mdsx.covering import covering_radius, distance_to_code
from mdsx.errors import BudgetExceeded
from mdsx.field import field_new
from mdsx.matrix import Matrix


def _small_codes(q):
    """Codes whose codeword count or sweep layers exceed 16 rows, so a
    16-row chunk limit splits the fold, with brute force still cheap."""
    if q == 4:
        code = egrs_dual_code(field_new(2, 2).vector(range(4)), 3)  # rho 3
        return [code, code.dual()]
    if q == 5:
        # the dual's brute-force leader count would take 5^5 x 125 steps
        return [grs(GrsSpec.make(field_new(5, 1), range(5), 1, 2))]
    ctx = field_new(*{8: (2, 3), 9: (3, 2)}[q])
    code = grs(GrsSpec.make(ctx, [0, 1, 2], [1, 2, 3], 1))
    return [code, code.dual()]


def _results(code, vectors):
    # a fresh copy: nothing cached from an earlier run
    code = code_from_generator(Matrix(code.ctx, code.generator.to_int_rows()))
    rows = code.generator.to_int_rows()
    return {
        "weights": code.weight_enumerator(),
        "d": code.min_distance(),
        # the codeword route of distance_to_code
        "distances": [kernels.min_distance_to_vector(rows, v, code.ctx)
                      for v in vectors],
        "leaders": covering_radius(code).coset_leader_weight_counts(),
    }


@pytest.mark.parametrize("q", [4, 5, 8, 9])
def test_split_fold_matches_unsplit_and_brute_force(q, monkeypatch):
    rng = random.Random(q)
    for code in _small_codes(q):
        vectors = [[rng.randrange(q) for _ in range(code.n)]
                   for _ in range(6)]
        whole = _results(code, vectors)
        brute = {
            "weights": helpers.brute_weight_enumerator(code),
            "d": helpers.brute_min_distance(code),
            "distances": [helpers.brute_distance_to_code(
                code, code.ctx.vector(v)) for v in vectors],
            "leaders": helpers.brute_coset_leader_weight_counts(code),
        }
        assert whole == brute
        # 1 row: every part but the last becomes an offset
        for rows in (16, 1):
            monkeypatch.setattr(kernels, "_CHUNK_ROWS", rows)
            assert _results(code, vectors) == whole
            monkeypatch.undo()


def test_prime_field_beyond_the_addition_table():
    # GF(1031) has no addition table; the kernels add mod p
    gf = field_new(1031, 1)
    code = grs(GrsSpec.make(gf, [0, 1, 2], 1, 1))
    dual = code.dual()
    assert code.min_distance() == 3 and dual.min_distance() == 2
    for c in (code, dual):
        assert c.weight_enumerator() \
            == helpers.mds_weight_enumerator(3, c.k, 1031)
    rng = random.Random(1031)
    vectors = [[rng.randrange(1031) for _ in range(3)] for _ in range(4)]
    vectors.append([5, 5, 5])  # a codeword
    want = [helpers.brute_distance_to_code(code, gf.vector(v))
            for v in vectors]
    # codeword route first, then the coset-leader route once the report
    # is cached
    assert [distance_to_code(code, v) for v in vectors] == want
    rep = covering_radius(code)
    assert rep.rho == 2
    # d = 3: every weight-1 vector leads its own coset
    assert rep.coset_leader_weight_counts() \
        == [1, 3 * 1030, 1031 ** 2 - 1 - 3 * 1030]
    assert [distance_to_code(code, v) for v in vectors] == want
    rep = covering_radius(dual)
    assert (rep.rho, rep.coset_leader_weight_counts()) == (1, [1, 1030])


def test_non_prime_field_beyond_the_addition_table_is_refused():
    gf = field_new(3, 7)
    code = grs(GrsSpec.make(gf, [0, 1], 1, 1))
    with pytest.raises(BudgetExceeded):
        code.weight_enumerator()
