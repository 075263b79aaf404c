"""The failure path of every verify suite: one flipped verdict must fail the
suite, mark the case it belongs to, and report a counterexample that names
that case (and, where it is a code spec, replays to the code)."""

import dataclasses
import json
import re
import types
from collections import Counter

import numpy as np
import pytest

import helpers
from mdsx import cli, kernels, serialize, suites
from mdsx.code import LinearCode
from mdsx.constructions import (
    GrsSpec,
    egrs,
    egrs_dual_code,
    grs,
    thm12_u,
)
from mdsx.covering import CoveringReport, covering_radius, is_deep_hole
from mdsx.errors import BudgetExceeded
from mdsx.field import field_new


def test_thm7_reports_a_wrong_u(monkeypatch):
    # shift the last entry of every u over GF(5): G_k u^T is no longer the
    # last unit vector
    real = suites._thm7_row

    def shifted(spec):
        u = real(spec)
        return u if spec.ctx.q != 5 else u[:-1] + [(u[-1] + 1) % 5]

    monkeypatch.setattr(suites, "_thm7_row", shifted)
    rep = suites.run_suite("thm7-identity", {"qs": [3, 5], "samples": 2})
    assert not rep["passed"]
    assert [(c["q"], c["ok"]) for c in rep["cases"]] == [(3, True),
                                                         (5, False)]
    cx = rep["counterexample"]
    assert set(cx) == {"field", "code"}
    assert cx["code"]["type"] == "extend"
    assert set(cx["code"]["inner"]) == {"type", "nodes", "multipliers", "k"}
    assert cx["code"]["inner"]["type"] == "grs"
    ctx, ext = serialize.code_from_spec(cx)
    inner = cx["code"]["inner"]
    base = grs(GrsSpec.make(ctx, inner["nodes"], inner["multipliers"],
                            inner["k"]))
    assert ctx.q == 5
    assert ext.same_code(base.extend_u(cx["code"]["u"]))
    # the reported u is the shifted one, so the extension is not the
    # coefficient-extended code
    assert not ext.same_code(egrs(GrsSpec.make(
        ctx, inner["nodes"], inner["multipliers"], inner["k"])))


def test_thm12_reports_a_wrong_roth_lempel_code(monkeypatch):
    # build every Roth-Lempel code over GF(5) with delta + 1
    real = suites.roth_lempel

    def shifted(a, k, delta):
        return real(a, k, delta if a[0].ctx.q != 5 else delta + 1)

    monkeypatch.setattr(suites, "roth_lempel", shifted)
    rep = suites.run_suite("thm12-identity", {"qs": [4, 5]})
    assert not rep["passed"]
    assert [(c["q"], c["ok"]) for c in rep["cases"]] == [
        (4, True), (5, False), (5, False), (5, False)]
    cx = rep["counterexample"]
    assert cx["code"] == {"type": "roth-lempel", "nodes": [0, 1, 2, 3],
                          "k": 3, "delta": 0}
    # the spec replays to the true code, which the extension does equal
    ctx, code = serialize.code_from_spec(cx)
    a = ctx.vector([0, 1, 2, 3])
    assert code.same_code(real(a, 3, 0))
    extended = egrs(GrsSpec.make(ctx, [0, 1, 2, 3], 1, 3))
    assert extended.extend_u(thm12_u(a, 3, 0)).same_code(code)


def test_a_failing_case_without_a_counterexample_leaves_it_to_later_ones(
        monkeypatch):
    # over GF(4) the last dual weight is off by one, so the one case there
    # fails its sum identity alone and offers no code; over GF(5) every
    # Roth-Lempel code is built with delta + 1, and the report carries the
    # first of those
    real_weights, real_rl = suites.grs_dual_weights, suites.roth_lempel

    def bumped(a, v):
        w = real_weights(a, v)
        return w if a[0].ctx.q != 4 else (*w[:-1], w[-1] + 1)

    def shifted(a, k, delta):
        return real_rl(a, k, delta if a[0].ctx.q != 5 else delta + 1)

    monkeypatch.setattr(suites, "grs_dual_weights", bumped)
    monkeypatch.setattr(suites, "roth_lempel", shifted)
    rep = suites.run_suite("thm12-identity", {"qs": [4, 5]})
    assert not rep["passed"]
    assert [(c["q"], c["sum_identity"], c["ok"]) for c in rep["cases"]] == [
        (4, False, False), (5, True, False), (5, True, False),
        (5, True, False)]
    cx = rep["counterexample"]
    assert cx["field"]["p"] == 5
    assert cx["code"] == {"type": "roth-lempel", "nodes": [0, 1, 2, 3],
                          "k": 3, "delta": 0}

    # with the GF(4) fault alone no case offers a code to replay
    monkeypatch.setattr(suites, "roth_lempel", real_rl)
    rep = suites.run_suite("thm12-identity", {"qs": [4, 5]})
    assert [c["ok"] for c in rep["cases"]] == [False, True, True, True]
    assert rep["counterexample"] is None


def test_thm14_reports_a_flipped_deep_hole_verdict(monkeypatch):
    # over GF(5) every leader weight reads as a deep hole's iff it is not
    real = CoveringReport.leader_weights

    def flipped(self, vectors):
        w = real(self, vectors)
        if self.code.ctx.q != 5:
            return w
        return np.where(w == self.rho, self.rho - 1, self.rho)

    monkeypatch.setattr(CoveringReport, "leader_weights", flipped)
    rep = suites.run_suite("thm14-consistency", {"qs": [4, 5]})
    assert not rep["passed"]
    for c in rep["cases"]:
        assert c["ok"] == (c["q"] == 4 or not c["assumption_holds"])
    first = next(c for c in rep["cases"] if not c["ok"])
    cx = rep["counterexample"]
    assert set(cx) == {"field", "kind", "nodes", "k", "delta", "pi",
                       "set_verdict", "brute_force"}
    assert (cx["field"]["p"], cx["nodes"], cx["k"]) == (
        5, list(range(first["n"])), first["k"])
    assert (cx["kind"], cx["delta"], cx["pi"]) == ("thm14_monomial", 0, None)
    assert cx["brute_force"] != cx["set_verdict"]
    assert type(cx["brute_force"]) is bool


def test_examples_report_a_wrong_radius(monkeypatch):
    # raise the radius that example 3 (the dual over GF(8) at k = 4) sees
    real = suites.covering_radius

    def raised(code, budget):
        rep = real(code, budget)
        if (code.ctx.q, code.k) == (8, 5):
            return types.SimpleNamespace(rho=rep.rho + 1)
        return rep

    monkeypatch.setattr(suites, "covering_radius", raised)
    rep = suites.run_suite("examples-1-2-3", {})
    assert not rep["passed"]
    assert [(c["example"], c["ok"]) for c in rep["cases"]] == [
        ("1", True), ("2", True), ("3", False), ("3-set-scan", True)]
    cx = rep["counterexample"]
    assert set(cx) == {"field", "code", "got_params", "got_rho"}
    assert (cx["got_params"], cx["got_rho"]) == ([9, 5, 5], 4)
    ctx, code = serialize.code_from_spec(cx)
    assert code.same_code(egrs_dual_code(ctx.vector(range(8)), 4))
    assert covering_radius(code).rho == 3


def test_prs_reports_a_wrong_radius(monkeypatch):
    # hand the suite the k = 3 code where it asks for k = 2 over GF(5)
    real = suites.prs

    def swapped(ctx, k):
        return real(ctx, 3 if (ctx.q, k) == (5, 2) else k)

    monkeypatch.setattr(suites, "prs", swapped)
    rep = suites.run_suite("prs-conjecture", {"qs": [4, 5]})
    assert not rep["passed"]
    assert [(c["q"], c["k"], c["ok"]) for c in rep["cases"]] == [
        (4, 2, True), (5, 2, False), (5, 3, True)]
    cx = rep["counterexample"]
    assert set(cx) == {"field", "code", "got_rho", "want_rho"}
    assert cx["code"] == {"type": "prs", "k": 2}
    ctx, code = serialize.code_from_spec(cx)
    assert code.same_code(real(ctx, 2))
    assert covering_radius(code).rho == cx["want_rho"] == 3
    assert cx["got_rho"] == covering_radius(real(ctx, 3)).rho


def test_cyclic_cu_fails_through_the_cli(monkeypatch, capsys):
    real = suites.cu_extension_facts

    def flipped(m, u, budget):
        facts = real(m, u, budget)
        return dataclasses.replace(facts,
                                   one_is_deep_hole=not facts.one_is_deep_hole)

    monkeypatch.setattr(suites, "cu_extension_facts", flipped)
    rc = cli.main(["verify", "cyclic-cu", "--ms", "2", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_FAIL
    assert not rep["passed"]
    assert [(c["u"], c["ok"]) for c in rep["cases"]] == [(1, True),
                                                         (2, False)]
    cx = rep["counterexample"]
    assert set(cx) == {"field", "code", "case"}
    assert cx["code"] == {"type": "cyclic", "u": 2}
    assert cx["case"] == rep["cases"][1]
    assert cx["case"]["one_is_deep_hole"] is False
    ctx, code = serialize.code_from_spec(cx)
    assert (code.n, code.k) == (5, 3)
    assert is_deep_hole(code.dual(), [1] * 5)


def _flip_t_set(real):
    def flip(s, pi, m):
        out = real(s, pi, m)
        return out | {s[0].ctx.zero} if s[0].ctx.q == 7 and m == 1 else out
    return flip


def _flip_second_sum(real):
    # the first subset_sums call on all of GF(5) with m = 2 is the DP
    # check's, the second the all-sums part's
    calls = Counter()

    def flip(s, m):
        out = real(s, m)
        key = (s[0].ctx.q, len(s), m)
        calls[key] += 1
        return out - {s[0].ctx.zero} if calls[key] == 2 \
            and key == (5, 5, 2) else out
    return flip


def _flip_criteria(real):
    def flip(h, us, rho, budget):
        out = real(h, us, rho, budget)
        if h.ctx.q == 4:
            out[-1] ^= True
        return out
    return flip


def _flip_extend_g(real):
    def flip(g, vec):
        code = real(g, vec)
        return code.dual() if g.ctx.q == 3 else code
    return flip


@pytest.mark.parametrize("target, flip, part, q, cx", [
    ("t_set", _flip_t_set, "dp-vs-enumeration", 7, {"dp_mismatch_q": 7}),
    ("subset_sums", _flip_second_sum, "all-sums", 5,
     {"all-sums_failed": {"q": 5, "k": 2}}),
    ("syndrome_criteria", _flip_criteria, "criteria-agreement", 4, None),
    ("extend_g", _flip_extend_g, "extension-kinds", 3, None),
])
def test_dp_vs_bruteforce_reports_each_part(monkeypatch, target, flip, part,
                                            q, cx):
    monkeypatch.setattr(suites, target, flip(getattr(suites, target)))
    rep = suites.run_suite("dp-vs-bruteforce", {})
    assert not rep["passed"]
    assert {(c["part"], c["q"]) for c in rep["cases"] if not c["ok"]} \
        == {(part, q)}
    first = next(c for c in rep["cases"] if not c["ok"])
    if part == "criteria-agreement":
        # the flip hits the last u of each code, (3, .., 3) in product order
        got = rep["counterexample"]["criteria_disagreement"]
        assert set(got) == {"q", "code", "u"}
        assert (got["q"], got["code"]) == (4, first["code"])
        assert got["u"] == [3] * len(got["u"])
        assert first["checked"] == 4 ** len(got["u"])
    elif part == "extension-kinds":
        got = rep["counterexample"]["extension_kind_mismatch"]
        assert set(got) == {"q", "code", "g"}
        assert (got["q"], got["code"]) == (3, first["code"])
    else:
        assert rep["counterexample"] == cx


def test_dp_vs_bruteforce_derives_each_reference_once(monkeypatch):
    # one brute-force enumeration per (set, m): 5 + 10 + 14 + 16 + 18 + 22
    # over the sets of GF(4), GF(5), ..., GF(11); one build per small code,
    # 10 eval and 16 ext-eval; the functions under test are called as
    # often as when each part made its own references
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, call)

    for name in ("subset_sums_bruteforce", "grs", "egrs", "subset_sums",
                 "nk_delta_set_check", "t_set", "syndrome_criteria",
                 "deep_holes_via_mds", "extend_g"):
        counted(suites, name)
    counted(LinearCode, "extend_u")
    rep = suites.run_suite("dp-vs-bruteforce", {})
    assert rep["passed"]
    assert calls == {"subset_sums_bruteforce": 85, "grs": 10, "egrs": 16,
                     "subset_sums": 98, "nk_delta_set_check": 247,
                     "t_set": 70, "syndrome_criteria": 26,
                     "deep_holes_via_mds": 21, "extend_g": 501,
                     "extend_u": 2439}

    def codes(part):
        return [(c["q"], c["code"]) for c in rep["cases"]
                if c["part"] == part]

    # extension-kinds reads eval[n,k] and ext-eval[n+1,n] of those codes
    small = codes("criteria-agreement")
    assert len(small) == 26
    kinds = []
    for q, name in small:
        n, k = map(int, re.findall(r"\d+", name))
        if name.startswith("eval") or k == n - 1:
            kinds.append((q, name))
    assert codes("extension-kinds") == kinds


@pytest.mark.parametrize("pm, n", [((2, 1), 5), ((3, 1), 3), ((2, 2), 3),
                                   ((5, 1), 2)])
@pytest.mark.parametrize("rows", [1 << 14, 4])
def test_all_vectors_run_in_product_order(pm, n, rows, monkeypatch):
    # the vectors u of the suites: every vector, the first entry slowest,
    # in blocks of at most max(rows, q) rows, q^n against the budget
    ctx = field_new(*pm)
    monkeypatch.setattr(kernels, "_BLOCK_ROWS", rows)
    blocks = list(suites._all_vectors(ctx, n, ctx.q ** n))
    assert max(map(len, blocks)) <= max(rows, ctx.q)
    assert np.concatenate(blocks).tolist() \
        == [[e.value for e in v] for v in helpers.all_vectors(ctx, n)]
    with pytest.raises(BudgetExceeded):
        next(suites._all_vectors(ctx, n, ctx.q ** n - 1))
