"""Print the sha256 of the coset-leader array, and rho, of a fixed set of
codes, one line each, so that two trees can be diffed:

    python tests/leader_digests.py > after.txt    # in each tree
    diff before.txt after.txt

The codes are every covering-sweep and distance-holes code of the
benchmark at seed 7, PRS [17,12]/GF(16) unscrambled, and 283 random
parity checks (seeds 0..282) over GF(2), GF(3), GF(4), GF(5) and GF(8)
with q^r <= 2^21, a few of them rank deficient.  pytest does not collect
this file; the whole run takes about ten seconds.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import mdsx  # noqa: E402
from bench import workloads  # noqa: E402
from mdsx import kernels  # noqa: E402
from mdsx.errors import InvariantViolation  # noqa: E402

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3)}


def bench_codes(seed=7):
    for name, _, pm, spec, _, _ in workloads.COVERING:
        base = workloads.base_code(mdsx, mdsx.field_new(*pm), spec)
        yield name, workloads.scrambled(
            mdsx, base, workloads._rng("covering-sweep", name, seed))
    for name, pm, k in (("prs17.13/gf16", (2, 4), 13),
                        ("prs10.5/gf9", (3, 2), 5)):
        yield f"reps {name}", workloads.scrambled(
            mdsx, mdsx.prs(mdsx.field_new(*pm), k),
            workloads._rng("distance-holes", name, seed))
    yield "prs17.12/gf16 unscrambled", mdsx.prs(mdsx.field_new(2, 4), 12)


def random_check(seed):
    rng = random.Random(seed)
    q = rng.choice(sorted(FIELDS))
    r = rng.randint(1, max(r for r in range(1, 22) if q ** r <= 2 ** 21))
    n = rng.randint(r, r + 12)
    H = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
    return f"random {seed} q={q} r={r} n={n}", H, n, mdsx.field_new(*FIELDS[q])


def main() -> None:
    for name, code in bench_codes():
        report = mdsx.covering_radius(code)
        print(name, f"rho={report.rho}",
              hashlib.sha256(report._leader.data).hexdigest())
    for seed in range(283):
        name, H, n, ctx = random_check(seed)
        try:
            leader, rho, _ = kernels.coset_leader_weights(H, n, ctx)
            print(name, f"rho={rho}", hashlib.sha256(leader.data).hexdigest())
        except InvariantViolation:
            print(name, "rank deficient")


if __name__ == "__main__":
    main()
