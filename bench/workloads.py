"""The three benchmark workloads: seeded inputs, timed items, reference checks.

Every workload is a list of items run back to back in one fresh process.
An item's ``run`` is the timed call into the library; its ``check`` runs
afterwards, outside the timed region, and raises ``WrongResult`` when the
output differs from the reference.

Seeds.  verify-suites passes the seed to every suite as ``--seed``.  The
covering and distance items build each code, then replace it by a monomially
equivalent one: a seeded random column permutation and seeded random nonzero
column multipliers.  Monomial maps preserve Hamming weight, so they leave d,
the covering radius, the weight enumerator and the number of cosets of each
leader weight unchanged.  The references below therefore hold for every
seed, while the syndrome tables, search orders and leader arrays that the
library computes differ from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

DEFAULT_SEED = 7

WORKLOADS = ("verify-suites", "covering-sweep", "distance-holes")

# End-to-end phases reported per workload, in addition to wall_s.
PHASES = {
    "verify-suites": ("thm6_s", "dp_s", "other_suites_s"),
    "covering-sweep": ("sweep_deficient_s", "sweep_full_s", "sweep_large_q_s"),
    "distance-holes": ("support_search_s", "enumerate_s", "reps_s"),
}


class WrongResult(Exception):
    """An item's output differs from its reference."""


@dataclass
class Item:
    name: str
    phase: str | None          # end-to-end phase the item's time counts in
    run: Callable[[], object]
    check: Callable[[object], None]
    digest: Callable[[object], str]
    inputs: str                # digest of the inputs the library receives


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongResult(what)


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

SUITE_ORDER = ("thm6-exhaustive", "thm7-identity", "thm12-identity",
               "thm14-consistency", "examples-1-2-3", "prs-conjecture",
               "cyclic-cu", "dp-vs-bruteforce")
# thm6-exhaustive at its default max_n = 5 takes 8-10 s alone, which leaves
# too few repetitions per run for a steady median; n <= 3 keeps all three
# fields (q = 3, 4, 5) at about 1 s.
SUITE_ARGS = {"thm6-exhaustive": ["--max-n", "3"]}
SUITE_PHASE = {"thm6-exhaustive": "thm6_s", "dp-vs-bruteforce": "dp_s"}
# The fields the suites use; building them is part of set-up.
SUITE_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1))
# sha256 of each report's stdout at the default seed, recorded from the
# library at the commit that introduced this benchmark.
SUITE_DIGESTS = {
    "thm6-exhaustive":
        "6906e7ecaa6675fa41dba280b15113a91dd81c492fc6f135ea18f72ac034bbcb",
    "thm7-identity":
        "3a2aeccdadda097fa2e002c87896125c1550b6693f5d5b406980422e88280271",
    "thm12-identity":
        "f25f52d4eaab1c09b7c985e66bab837bc0f3014f1fce2a25df4797466d260b1f",
    "thm14-consistency":
        "24dde7ea00c8f962c4953965e3164494b5b85bc6212345e7c4d88190013f99bb",
    "examples-1-2-3":
        "eb7b08b3e09794a2b00418859a5069bc2783169433bad0b856f811bfdce801f5",
    "prs-conjecture":
        "246bac7750358430f5121166bfec2484e9830d5518114baebc705e26e4b8427c",
    "cyclic-cu":
        "c50209dcae61a6c3134b9d8468bb044a9c11551822ba9db43c68c356a57c273d",
    "dp-vs-bruteforce":
        "2c5b052317cf32a004988d250991fd47b87105e5d93f424000656d0163cdfac4",
}


def suite_argv(suite: str, seed: int) -> list[str]:
    return (["verify", suite, "--json", "--seed", str(seed)]
            + SUITE_ARGS.get(suite, []))


def _verify_items(m, seed, wrong_reference):
    for p, e in SUITE_FIELDS:
        m.field_new(p, e)
    items = []
    for i, suite in enumerate(SUITE_ORDER):
        argv = suite_argv(suite, seed)
        want_pass = not (wrong_reference and i == 0)

        def run(argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = m.cli.main(argv)
            return rc, buf.getvalue().encode()

        def check(out, suite=suite, want_pass=want_pass):
            rc, stdout = out
            report = json.loads(stdout)
            _expect(report["passed"] is want_pass and
                    (rc == 0) is want_pass,
                    f"{suite}: passed={report['passed']} exit={rc}")
            want = SUITE_DIGESTS[suite]
            if seed == DEFAULT_SEED and want:
                _expect(_sha(stdout) == want,
                        f"{suite}: report differs from the recorded bytes")

        items.append(Item(
            name=suite, phase=SUITE_PHASE.get(suite, "other_suites_s"),
            run=run, check=check, digest=lambda out: _sha(out[1]),
            inputs=_sha(argv)))
    return items


# ---------------------------------------------------------------------------
# Seeded monomial scrambling
# ---------------------------------------------------------------------------

def scrambled(m, code, rng: random.Random):
    """A code monomially equivalent to `code`: columns permuted and scaled
    by nonzero field elements drawn from rng."""
    ctx = code.ctx
    n = code.n
    perm = list(range(n))
    rng.shuffle(perm)
    mult = [rng.randrange(1, ctx.q) for _ in range(n)]
    rows = code.generator.to_int_rows()
    new = [[ctx.mul_i(row[perm[j]], mult[j]) for j in range(n)]
           for row in rows]
    return m.code_from_generator(m.Matrix(ctx, new))


def _rng(workload: str, item: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{item}:{seed}")


def _generator_digest(code) -> str:
    return _sha({"q": code.ctx.q, "g": code.generator.to_int_rows()})


# ---------------------------------------------------------------------------
# covering-sweep
# ---------------------------------------------------------------------------

# (item, phase, field (p, m), base code, rho, coset-leader weight counts).
# Base codes: ("prs", k) is the length-(q+1) extended evaluation code on all
# of GF(q); ("grs", n, k) the evaluation code on nodes 0..n-1 with unit
# multipliers; a trailing "dual" takes its dual.
COVERING = (
    ("prs17.12/gf16", "sweep_deficient_s", (2, 4), ("prs", 12), 4,
     [1, 255, 30600, 981240, 36480]),
    ("prs10.4/gf9", "sweep_deficient_s", (3, 2), ("prs", 4), 5,
     [1, 80, 2880, 61440, 449040, 18000]),
    ("grs8.2/gf9", "sweep_full_s", (3, 2), ("grs", 8, 2), 6,
     [1, 64, 1792, 28672, 252560, 248336, 16]),
    ("grs11.6/gf11", "sweep_full_s", (11, 1), ("grs", 11, 6), 5,
     [1, 110, 5500, 121000, 34430, 10]),
    ("prs9.2/gf8", "sweep_full_s", (2, 3), ("prs", 2), 7,
     [1, 63, 1764, 28812, 300321, 1410759, 355362, 70]),
    ("grs16.11/gf16", "sweep_full_s", (2, 4), ("grs", 16, 11), 5,
     [1, 240, 27000, 956040, 65280, 15]),
    ("grs6.1-dual/gf65536", "sweep_large_q_s", (2, 16), ("grs", 6, 1, "dual"),
     1, [1, 65535]),
)


def base_code(m, ctx, spec):
    if spec[0] == "prs":
        code = m.prs(ctx, spec[1])
    else:
        code = m.grs(m.GrsSpec.make(ctx, range(spec[1]), 1, spec[2]))
    return code.dual() if spec[-1] == "dual" else code


def _covering_item(m, name, phase, code, rho, counts):
    def run():
        report = m.covering_radius(code)
        return report.rho, report.coset_leader_weight_counts()

    def check(out):
        _expect(out[0] == rho, f"{name}: rho {out[0]}, want {rho}")
        _expect(out[1] == counts,
                f"{name}: coset-leader weight counts {out[1]}, want {counts}")

    return Item(name=name, phase=phase, run=run, check=check,
                digest=_sha,
                inputs=_generator_digest(code))


def _covering_items(m, seed, wrong_reference):
    items = []
    for i, (name, phase, (p, e), spec, rho, counts) in enumerate(COVERING):
        ctx = m.field_new(p, e)
        code = scrambled(m, base_code(m, ctx, spec),
                         _rng("covering-sweep", name, seed))
        if wrong_reference and i == 0:
            rho += 1
        items.append(_covering_item(m, name, phase, code, rho, counts))
    return items


# ---------------------------------------------------------------------------
# distance-holes
# ---------------------------------------------------------------------------

def mds_weight_enumerator(n: int, k: int, q: int) -> list[int]:
    """Weight distribution of any [n, k] MDS code over GF(q) (closed form,
    independent of the code under test)."""
    d = n - k + 1
    out = [1] + [0] * n
    for w in range(d, n + 1):
        out[w] = comb(n, w) * sum(
            (-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1)
            for j in range(w - d + 1))
    return out


def packed_syndromes(ctx, h_rows, vectors) -> np.ndarray:
    """Packed syndromes (digit i times q^i) of the rows of `vectors`,
    computed with numpy tables built from the field's scalar operations."""
    q = ctx.q
    mul = np.array([[ctx.mul_i(a, b) for b in range(q)] for a in range(q)],
                   dtype=np.int64)
    add = (None if ctx.p == 2 else
           np.array([[ctx.add_i(a, b) for b in range(q)] for a in range(q)],
                    dtype=np.int64))
    v = np.asarray(vectors, dtype=np.int64)
    packed = np.zeros(len(v), dtype=np.int64)
    for i, row in enumerate(h_rows):
        acc = np.zeros(len(v), dtype=np.int64)
        for j, h in enumerate(row):
            term = mul[h][v[:, j]]
            acc = acc ^ term if add is None else add[acc, term]
        packed += acc * q ** i
    return packed


def check_representatives(name, code, report, want_count, reps):
    ctx = code.ctx
    vecs = [[e.value for e in r] for r in reps]
    _expect(len(vecs) == want_count,
            f"{name}: {len(vecs)} representatives, want {want_count}")
    weights = {sum(1 for x in v if x) for v in vecs}
    _expect(weights == {report.rho},
            f"{name}: representative weights {sorted(weights)}")
    syn = packed_syndromes(ctx, code.parity.to_int_rows(), vecs).tolist()
    _expect(len(set(syn)) == len(vecs),
            f"{name}: representatives share a coset")
    deep = {int(s) for s in report.deep_hole_syndromes}
    _expect(set(syn) == deep, f"{name}: representatives miss deep-hole "
                              f"cosets (leader weight not rho)")


def _distance_items(m, seed, wrong_reference):
    W = "distance-holes"
    gf16 = m.field_new(2, 4)
    gf9 = m.field_new(3, 2)
    items = []

    # Support search: q^k = 16^12 exceeds the default budget, so
    # min_distance tests ranks of column subsets of the parity check.
    c = scrambled(m, m.prs(gf16, 12), _rng(W, "support", seed))
    want_d = c.n - c.k + 1 + (1 if wrong_reference else 0)

    def check_support(d, want=want_d):
        _expect(d == want, f"support search: d = {d}, want {want}")

    items.append(Item("mindist-supports prs17.12/gf16", "support_search_s",
                      c.min_distance, check_support, _sha,
                      _generator_digest(c)))

    # Codeword enumeration: 16^6 = 2^24 codewords per pass.
    c = scrambled(m, m.prs(gf16, 6), _rng(W, "enumerate", seed))

    def check_d(d, code=c):
        want = code.n - code.k + 1
        _expect(d == want, f"enumeration: d = {d}, want {want}")

    def check_we(we, code=c):
        want = mds_weight_enumerator(code.n, code.k, code.ctx.q)
        _expect(we == want, f"weight enumerator {we}, want {want}")

    items.append(Item("mindist-codewords prs17.6/gf16", "enumerate_s",
                      c.min_distance, check_d, _sha,
                      _generator_digest(c)))
    items.append(Item("weights prs17.6/gf16", "enumerate_s",
                      c.weight_enumerator, check_we, _sha,
                      _generator_digest(c)))

    # Deep-hole representatives, each after its (sub-second) sweep.
    for name, ctx, k, rho, counts in (
            ("prs17.13/gf16", gf16, 13, 3, [1, 255, 30600, 34680]),
            ("prs10.5/gf9", gf9, 5, 4, [1, 80, 2880, 44960, 11128])):
        c = scrambled(m, m.prs(ctx, k), _rng(W, name, seed))
        items.append(_covering_item(m, f"sweep {name}", None, c, rho, counts))

        def run_reps(code=c):
            return m.covering_radius(code).representatives()

        def check_reps(reps, code=c, name=name, want=counts[-1]):
            check_representatives(f"reps {name}", code,
                                  m.covering_radius(code), want, reps)

        items.append(Item(
            f"reps {name}", "reps_s", run_reps, check_reps,
            lambda reps: _sha([[e.value for e in r] for r in reps]),
            _generator_digest(c)))
    return items


SETUP = {
    "verify-suites": _verify_items,
    "covering-sweep": _covering_items,
    "distance-holes": _distance_items,
}


def setup(workload: str, m, seed: int, wrong_reference: bool = False):
    """Build the fields and codes of a workload; return its items.

    With wrong_reference the first item's reference is deliberately wrong
    (a flipped verdict, rho + 1, d + 1), so the correctness gate must fail.
    """
    return SETUP[workload](m, seed, wrong_reference)
