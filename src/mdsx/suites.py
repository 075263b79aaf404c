"""Named verification suites behind the `verify` CLI command.

Each suite is a pure function of its parameters: same id and params give
the same report dict (and hence byte-identical JSON).  A report carries one
entry per case, an overall pass flag, and, on failure, the first
counterexample as a replayable spec dict; one recorder, `_Cases`, keeps
that first-counterexample rule for every suite.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations

import numpy as np

from . import kernels, serialize
from .code import code_from_generator, extend_g
from .covering import (
    _extension_test,
    covering_radius,
    deep_holes_via_mds,
    syndrome_criteria,
)
from .constructions import (
    GrsSpec,
    _rows,
    _thm7_row,
    cu_extension_facts,
    cyclic_cu,
    egrs,
    egrs_dual_code,
    egrs_generator,
    grs,
    grs_dual_weights,
    nk_delta_set_check,
    prs,
    roth_lempel,
    subset_sums,
    subset_sums_bruteforce,
    t_set,
    t_set_bruteforce,
    thm12_u,
    thm14_vector,
)
from .errors import BadU, UnknownSuite
from .field import _prime_factors, field_new
from .kernels import DEFAULT_BUDGET


def _ctx_for_q(q: int):
    """GF(q), with the characteristic p and degree m read off q = p^m."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise UnknownSuite(f"q = {q} is not a prime power")
    p = factors[0]
    m = 1
    while p ** m < q:
        m += 1
    return field_new(p, m)


def _spec(ctx, code=None, u=None, **extra):
    """A replayable spec over ctx: the code part `code`, extended by u when
    u is given, beside the report's `extra` keys."""
    if u is not None:
        code = {"type": "extend", "inner": code, "u": [int(x) for x in u]}
    spec = {"field": serialize.field_to_dict(ctx), **extra}
    if code is not None:
        spec["code"] = code
    return spec


class _Cases:
    """The cases of one report, in report order, and its counterexample:
    the first one offered by a failing case.  A failing case that offers
    none (thm12's sum identity has no code to replay) leaves the choice to
    the cases after it; a passing case's offer is dropped."""

    def __init__(self):
        self.cases = []
        self.counterexample = None

    def add(self, case: dict, counterexample=None) -> None:
        self.cases.append(case)
        if not case["ok"] and self.counterexample is None:
            self.counterexample = counterexample

    def result(self):
        """(cases, counterexample), what every suite returns."""
        return self.cases, self.counterexample


# ---------------------------------------------------------------------------
# thm6-exhaustive: extension of a GRS code is MDS iff the dual has full
# covering radius and u is one of its deep holes, for every single u.
# ---------------------------------------------------------------------------

def _all_vectors(ctx, n: int, budget):
    """GF(q)^n in itertools.product order, as the full code's codewords:
    q^n against the budget."""
    return kernels.coset_blocks(np.eye(n, dtype=np.int64), n, ctx, [0] * n,
                                budget)


def suite_thm6_exhaustive(params):
    qs = params.get("qs", [3, 4, 5])
    max_n = params.get("max_n", 5)
    seed = params.get("seed", 7)
    budget = params.get("budget", DEFAULT_BUDGET)
    rng = random.Random(seed)
    cases = _Cases()
    for q in qs:
        ctx = _ctx_for_q(q)
        for n in range(2, min(q, max_n) + 1):
            checked_codes = checked_u = 0
            first = None
            for nodes in combinations(range(q), n):
                mults = [[1] * n,
                         [rng.randrange(1, q) for _ in range(n)]]
                for mult in mults:
                    for k in range(1, n):
                        code = grs(GrsSpec.make(ctx, nodes, mult, k))
                        rep = covering_radius(code.dual(), budget)
                        extension_mds = _extension_test(code, budget)
                        checked_codes += 1
                        for us in _all_vectors(ctx, n, budget):
                            lhs = extension_mds(us)
                            rhs = (rep.rho == k) & (rep.leader_weights(us)
                                                    == rep.rho)
                            checked_u += len(us)
                            bad = np.flatnonzero(lhs != rhs)
                            if bad.size and first is None:
                                first = _spec(ctx, {
                                    "type": "grs", "nodes": list(nodes),
                                    "multipliers": mult, "k": k},
                                    u=us[bad[0]])
            cases.add({"q": q, "n": n, "codes": checked_codes,
                       "u_checked": checked_u, "ok": first is None}, first)
    return cases.result()


# ---------------------------------------------------------------------------
# thm7-identity: the closed-form u turns an evaluation code into its
# coefficient-extended form, and is a deep hole of the dual (full radius k).
# ---------------------------------------------------------------------------

def suite_thm7_identity(params):
    qs = params.get("qs", [2, 3, 4, 5, 7, 8, 9])
    samples = params.get("samples", 20)
    seed = params.get("seed", 7)
    budget = params.get("budget", 8192)
    rng = random.Random(seed)
    cases = _Cases()
    for q in qs:
        ctx = _ctx_for_q(q)
        checked = covered = 0
        first = None
        for s in range(samples):
            n = rng.randint(2, q) if q > 2 else 2
            nodes = rng.sample(range(q), n)
            mult = [1] * n if s % 2 == 0 \
                else [rng.randrange(1, q) for _ in range(n)]
            for k in range(1, n):
                spec = GrsSpec.make(ctx, nodes, mult, k)
                gk = _rows(spec)
                u = _thm7_row(spec)
                col = gk.mat_vec(u)
                ident = [e.value for e in col] == [0] * (k - 1) + [1]
                code = code_from_generator(gk)
                ext_ok = code.extend_u(u).same_code(egrs(spec))
                case_ok = ident and ext_ok
                if case_ok and q ** k <= budget:
                    rep = covering_radius(code.dual(), budget)
                    case_ok = (rep.rho == k
                               and rep.leader_weight(u) == rep.rho)
                    covered += 1
                checked += 1
                if not case_ok and first is None:
                    first = _spec(ctx, {"type": "grs", "nodes": nodes,
                                        "multipliers": mult, "k": k}, u=u)
        cases.add({"q": q, "checked": checked, "covering_checked": covered,
                   "ok": first is None}, first)
    return cases.result()


# ---------------------------------------------------------------------------
# thm12-identity: the closed-form u turns the coefficient-extended code into
# the Roth-Lempel code, across all delta; plus the node-power sum identity.
# ---------------------------------------------------------------------------

def suite_thm12_identity(params):
    qs = params.get("qs", [4, 5, 7, 8])
    seed = params.get("seed", 7)
    rng = random.Random(seed)
    cases = _Cases()
    for q in qs:
        ctx = _ctx_for_q(q)
        node_sets = []
        for n in range(4, q + 1):
            node_sets.append(list(range(n)))
            if n < q:
                node_sets.append(sorted(rng.sample(range(q), n)))
        for nodes in node_sets:
            n = len(nodes)
            a = ctx.vector(nodes)
            w = grs_dual_weights(a, 1)
            node_sum = reduce(ctx.add_i, nodes)
            power_sum = reduce(ctx.add_i, [
                ctx.mul_i(wi.value, ctx.pow_i(ai, n))
                for wi, ai in zip(w, nodes)])
            sum_ok = power_sum == node_sum
            checked = 0
            first = None
            for k in range(3, n):
                e_code = egrs(GrsSpec.make(ctx, nodes, 1, k))
                gki = egrs_generator(a, 1, k)
                for dv in range(q):
                    u = thm12_u(a, k, dv)
                    col = gki.mat_vec(u)
                    ident = ([e.value for e in col]
                             == [0] * (k - 2) + [1, dv])
                    rl = roth_lempel(a, k, dv)
                    match = e_code.extend_u(u).same_code(rl)
                    checked += 1
                    if not (ident and match) and first is None:
                        first = _spec(ctx, {"type": "roth-lempel",
                                            "nodes": nodes, "k": k,
                                            "delta": dv})
            cases.add({"q": q, "nodes": nodes, "checked": checked,
                       "sum_identity": sum_ok,
                       "ok": sum_ok and first is None}, first)
    return cases.result()


# ---------------------------------------------------------------------------
# thm14-consistency: subset-sum / pole-product verdicts versus brute-force
# deep-hole checks on the dual of the coefficient-extended code.
# ---------------------------------------------------------------------------

def suite_thm14_consistency(params):
    qs = params.get("qs", [4, 5])
    budget = params.get("budget", DEFAULT_BUDGET)
    cases = _Cases()
    for q in qs:
        ctx = _ctx_for_q(q)
        for n in range(3, q + 1):
            nodes = list(range(n))
            a = ctx.vector(nodes)
            for k in range(2, n + 1):
                target = egrs_dual_code(a, k)
                rep = covering_radius(target, budget)
                if rep.rho != k:
                    cases.add({"q": q, "n": n, "k": k, "rho": rep.rho,
                               "assumption_holds": False, "checked": 0,
                               "ok": True})
                    continue
                cands = []
                for dv in range(q):
                    cands.append(thm14_vector("monomial", a, k, dv))
                    cands += [thm14_vector("pole", a, k, dv, pi=pv)
                              for pv in range(q) if pv not in nodes]
                deep = rep.leader_weights(
                    [target._vec(c.vector) for c in cands]) == rep.rho
                bad = [_spec(ctx, kind=c.kind, nodes=nodes, k=k,
                             delta=c.delta.value,
                             pi=None if c.pi is None else c.pi.value,
                             set_verdict=c.valid, brute_force=b)
                       for c, b in zip(cands, deep.tolist()) if c.valid != b]
                cases.add({"q": q, "n": n, "k": k, "rho": rep.rho,
                           "assumption_holds": True, "checked": len(cands),
                           "ok": not bad}, bad[0] if bad else None)
    return cases.result()


# ---------------------------------------------------------------------------
# examples-1-2-3: the three worked covering-radius instances.
# ---------------------------------------------------------------------------

# (example, q, k, [n, k, d] and radius of the dual of the coefficient-
# extended code on all of GF(q))
_EXAMPLES = (("1", 4, 3, [5, 2, 4], 3),
             ("2", 8, 3, [9, 6, 4], 3),
             ("3", 8, 4, [9, 5, 5], 3))


def suite_examples_1_2_3(params):
    budget = params.get("budget", DEFAULT_BUDGET)
    cases = _Cases()
    for name, q, k, want_params, want_rho in _EXAMPLES:
        ctx = _ctx_for_q(q)
        dual = egrs_dual_code(ctx.vector(range(q)), k)
        rep = covering_radius(dual, budget)
        got = [dual.n, dual.k, dual.min_distance(budget)]
        cases.add({"example": name, "q": q, "k": k, "params": got,
                   "rho": rep.rho,
                   "ok": got == want_params and rep.rho == want_rho},
                  _spec(ctx, {"type": "dual",
                              "inner": {"type": "egrs",
                                        "nodes": list(range(q)),
                                        "multipliers": [1] * q, "k": k}},
                        got_params=got, got_rho=rep.rho))

    ctx8 = _ctx_for_q(8)
    all8 = ctx8.vector(range(8))
    no_delta = all(not nk_delta_set_check(all8, 3, d) for d in range(8))
    pair_sets = (nk_delta_set_check(all8, 2, 0)
                 and nk_delta_set_check(_ctx_for_q(4).vector(range(4)), 2, 0))
    cases.add({"example": "3-set-scan", "no_(8,3,delta)-set": no_delta,
               "pair-zero-sets": pair_sets, "ok": no_delta and pair_sets},
              {"set_scan_failed": True})
    return cases.result()


# ---------------------------------------------------------------------------
# prs-conjecture: projective evaluation codes at k in {2, q-2} have full
# radius + 1 exactly in even characteristic.
# ---------------------------------------------------------------------------

def suite_prs_conjecture(params):
    qs = params.get("qs", [4, 5, 7, 8])
    budget = params.get("budget", DEFAULT_BUDGET)
    cases = _Cases()
    # k = q - 2 adds a pair only at q = 5: q = 4 gives k = 2 again
    pairs = [(q, 2) for q in qs] + ([(5, 3)] if 5 in qs else [])
    for q, k in pairs:
        ctx = _ctx_for_q(q)
        want = q - k + 1 if q % 2 == 0 else q - k
        rep = covering_radius(prs(ctx, k), budget)
        cases.add({"q": q, "k": k, "rho": rep.rho, "want": want,
                   "ok": rep.rho == want},
                  _spec(ctx, {"type": "prs", "k": k}, got_rho=rep.rho,
                        want_rho=want))
    return cases.result()


# ---------------------------------------------------------------------------
# cyclic-cu: parameters and MDS status of the cyclic family, the all-ones
# extension facts, and the dual covering radii.
# ---------------------------------------------------------------------------

def suite_cyclic_cu(params):
    ms = params.get("ms", [2, 3])
    budget = params.get("budget", DEFAULT_BUDGET)
    cases = _Cases()
    for m in ms:
        if m < 2:
            raise BadU(f"need m >= 2, got {m}")
        q = 2 ** m
        for u in range(1, q // 2 + 1):
            code = cyclic_cu(m, u)
            d = code.min_distance(budget)
            ok = ((code.n, code.k, d) == (q + 1, 2 * u - 1, q - 2 * u + 3)
                  and code.is_mds(budget))
            case = {"q": q, "u": u, "params": [code.n, code.k, d]}
            if u in (2, q // 2):
                facts = cu_extension_facts(m, u, budget)
                want_rho = 3 if u == 2 else q - 1
                want_ext = (q + 2, 3, q) if u == 2 else (q + 2, q - 1, 4)
                ok = (ok and facts.ext_params == want_ext and facts.ext_mds
                      and facts.rho_dual == want_rho
                      and facts.one_is_deep_hole)
                if u == 2:
                    ok = ok and facts.weight_formula_ok
                    case["weight_counts"] = {
                        "A0": facts.weight_counts[0],
                        f"A{q}": facts.weight_counts[q],
                        f"A{q + 2}": facts.weight_counts[q + 2]}
                case["ext_params"] = list(facts.ext_params)
                case["rho_dual"] = facts.rho_dual
                case["one_is_deep_hole"] = facts.one_is_deep_hole
            case["ok"] = ok
            cases.add(case, _spec(field_new(2, m), {"type": "cyclic", "u": u},
                                  case=case))
    return cases.result()


# ---------------------------------------------------------------------------
# dp-vs-bruteforce: DP set operations against explicit enumeration, the
# all-sums corollary, the three deep-hole criteria against each other, and
# the inner-product / appended-column extension correspondence.
# ---------------------------------------------------------------------------

def _small_codes():
    """(name, code, extension_kind) for the small evaluation codes over
    GF(2), GF(3) and GF(4), each built once, in report order;
    extension_kind marks the ones that extension-kinds reads too, eval[n,k]
    and ext-eval[n+1,n]."""
    for q in (2, 3, 4):
        ctx = _ctx_for_q(q)
        for n in range(2, q + 1):
            nodes = list(range(n))
            for k in range(1, n):
                yield (f"eval[{n},{k}]", grs(GrsSpec.make(ctx, nodes, 1, k)),
                       True)
            for k in range(1, n + 1):
                yield (f"ext-eval[{n + 1},{k}]",
                       egrs(GrsSpec.make(ctx, nodes, 1, k)), k == n)


def _small_code_cases(cases, budget):
    """The criteria-agreement cases and then the extension-kinds cases of
    the small codes, recorded into `cases`; one all-u array per code serves
    both parts."""
    kinds = []
    for name, code, extension_kind in _small_codes():
        ctx, n, k = code.ctx, code.n, code.k
        q = ctx.q
        rep = covering_radius(code, budget)
        applicable = code.is_mds(budget) and rep.rho == n - k and k < n
        # every u at once, in product order; a verdict that differs
        # from the leader weight's is a disagreement
        us = np.concatenate(list(_all_vectors(ctx, n, budget)))
        dh = rep.leader_weights(us) == rep.rho
        bad = dh != syndrome_criteria(code.parity, us, rep.rho, budget)
        if applicable:
            bad |= dh != deep_holes_via_mds(code, us, budget)
        hit = bool(bad.any())
        checked = int(bad.argmax()) + 1 if hit else len(us)
        cases.add({"part": "criteria-agreement", "q": q, "code": name,
                   "rho": rep.rho, "minor_test_applicable": bool(applicable),
                   "checked": checked, "ok": not hit},
                  {"criteria_disagreement": {
                      "q": q, "code": name, "u": us[checked - 1].tolist()}}
                  if hit else None)
        if extension_kind:
            kinds.append((name, code, us))

    for name, code, us in kinds:
        q, n, k = code.ctx.q, code.n, code.k
        # the fibers of u -> G u^T, from one batched product; extend_u
        # takes <u, row> by scalar ops
        gs = kernels.mat_vecs(code.generator._rows, n, code.ctx, us)
        fibers = {}
        for u, g in zip(map(tuple, us.tolist()), map(tuple, gs.tolist())):
            fibers.setdefault(g, []).append(u)
        mismatch = None
        for g, fiber in sorted(fibers.items()):
            target = extend_g(code.generator, g)
            if not all(code.extend_u(u).same_code(target) for u in fiber):
                mismatch = {"q": q, "code": name, "g": list(g)}
                break
        else:
            if any(len(v) != q ** (n - k) for v in fibers.values()):
                mismatch = {"q": q, "code": name, "fibers": "size"}
        cases.add({"part": "extension-kinds", "q": q, "code": name,
                   "fibers": len(fibers), "fiber_size": q ** (n - k),
                   "ok": mismatch is None},
                  {"extension_kind_mismatch": mismatch}
                  if mismatch else None)


def suite_dp_vs_bruteforce(params):
    seed = params.get("seed", 7)
    budget = params.get("budget", DEFAULT_BUDGET)
    rng = random.Random(seed)
    cases = _Cases()

    # DP set ops == explicit enumeration
    for q in (4, 5, 7, 8, 9, 11):
        ctx = _ctx_for_q(q)
        sets = [list(range(q))]
        if q > 4:
            sets.append(sorted(rng.sample(range(q), q - 2)))
        ok = True
        checked = 0
        for vals in sets:
            s = ctx.vector(vals)
            # one enumeration per m, read by the DP and no-delta checks
            sums = [{e.value for e in subset_sums_bruteforce(s, m)}
                    for m in range(len(vals) + 1)]
            for m, bf_sums in enumerate(sums):
                checked += 1
                ok &= {e.value for e in subset_sums(s, m)} == bf_sums
            outside = [x for x in range(q) if x not in vals]
            for pv in outside[:2]:
                for m in range(len(vals) + 1):
                    dp = {e.value for e in t_set(s, pv, m)}
                    bf = {e.value for e in t_set_bruteforce(s, pv, m)}
                    checked += 1
                    ok &= dp == bf
            for dv in range(q):
                for m in range(1, min(4, len(vals))):
                    checked += 1
                    ok &= nk_delta_set_check(s, m, dv) == (dv not in sums[m])
        cases.add({"part": "dp-vs-enumeration", "q": q, "checked": checked,
                   "ok": ok}, {"dp_mismatch_q": q})

    # every element is a k-fold distinct sum in the stated k range
    for q in (5, 7, 8, 9, 11):
        s = _ctx_for_q(q).vector(range(q))
        ks = list(range((q - 1) // 2, q - 2))
        short = [k for k in ks
                 if {e.value for e in subset_sums(s, k)} != set(range(q))]
        cases.add({"part": "all-sums", "q": q, "ks": ks, "ok": not short},
                  {"all-sums_failed": {"q": q, "k": short[0]}}
                  if short else None)

    _small_code_cases(cases, budget)
    return cases.result()

SUITES = {
    "thm6-exhaustive": suite_thm6_exhaustive,
    "thm7-identity": suite_thm7_identity,
    "thm12-identity": suite_thm12_identity,
    "thm14-consistency": suite_thm14_consistency,
    "examples-1-2-3": suite_examples_1_2_3,
    "prs-conjecture": suite_prs_conjecture,
    "cyclic-cu": suite_cyclic_cu,
    "dp-vs-bruteforce": suite_dp_vs_bruteforce,
}


def run_suite(suite_id: str, params=None) -> dict:
    if suite_id not in SUITES:
        raise UnknownSuite(
            f"unknown suite {suite_id!r}; expected one of "
            f"{', '.join(sorted(SUITES))}")
    params = dict(params or {})
    cases, counterexample = SUITES[suite_id](params)
    if not cases:
        raise UnknownSuite(f"suite {suite_id!r} has no case for these "
                           f"parameters")
    passed = all(c.get("ok", False) for c in cases)
    return {
        "suite": suite_id,
        "params": {k: params[k] for k in sorted(params)},
        "cases": cases,
        "passed": passed,
        "counterexample": counterexample,
    }
