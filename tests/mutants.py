"""Standing mutant gate: every mutant below must make its tests fail.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the mutants whose names contain NAME

Each mutant is a text patch to one file of the package: an old text that
must occur exactly once, and its replacement.  The script copies src/ to a
temporary directory, applies the patch there and runs pytest, stopping at
the first failure, on the mutant's tests with that copy on the import path;
a failing test or a package that no longer imports kills the mutant.
It exits 1 if the tests pass on some mutant (the mutant survived) or if
some old text is no longer found once (the patch is stale: update it with
the code it mutates).  pytest does not collect this file, since its name
does not start with test_; the whole run takes about three minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/mdsx, old text, new text, pytest arguments)
MUTANTS = [
    # the field's table build
    ("digitwise add drops its top digit", "field.py",
     "units = [dt(p ** i) for i in range(1, m)]",
     "units = [dt(p ** i) for i in range(1, m - 1)]",
     ["tests/test_field.py"]),
    ("digit sum keeps s where s >= p", "field.py",
     "        return np.minimum(s, s - p, out=s)\n", "        return s\n",
     ["tests/test_field.py"]),
    ("digit sum in the encoding dtype", "field.py",
     "    wide = np.uint8 if p <= 127 else np.uint16 if p <= 32749 else "
     "np.uint32\n", "    wide = dt\n",
     ["tests/test_field.py"]),
    ("scalar add above the lists keeps s where s >= p", "field.py",
     "out += (s - p if s >= p else s) * unit",
     "out += s * unit",
     ["tests/test_field.py"]),
    ("exp doubling step is not squared", "field.py",
     "            step = step @ step % p\n", "",
     ["tests/test_field.py"]),
    ("neg table off by one", "field.py",
     "padded[log + (q - 1) // 2]", "padded[log + (q - 1) // 2 + 1]",
     ["tests/test_field.py"]),
    # enumeration and the coset-leader sweep
    ("digit rows pack their high digit first", "kernels.py",
     "radix = p ** np.arange(r * m, dtype=np.int64)\n",
     "radix = p ** np.arange(r * m, dtype=np.int64)[::-1]\n",
     ["tests/test_kernels.py"]),
    ("_fold without its offset", "kernels.py",
     "        yield add(block, offset)", "        yield block",
     ["tests/test_kernels.py"]),
    ("sweep writes only c = 1", "kernels.py",
     "[:, 1:, 0].astype(np.int64)", "[:, 1:2, 0].astype(np.int64)",
     ["tests/test_kernels.py"]),
    ("digit route writes only c = 1", "kernels.py",
     "% q)[:, 1:] @ radix", "% q)[:, 1:2] @ radix",
     ["tests/test_kernels.py"]),
    ("block table drops its high blocks", "kernels.py",
     "for j in range(1, -(-r // a)):", "for j in range(1, -(-r // a) - 1):",
     ["tests/test_kernels.py"]),
    ("block table shifts by the wrong power", "kernels.py",
     "* A ** j\n", "* A ** (j - 1)\n",
     ["tests/test_kernels.py"]),
    ("block table puts its low digit first", "kernels.py",
     "for i in reversed(range(a))]", "for i in range(a)]",
     ["tests/test_kernels.py"]),
    ("sweep stops one layer early", "kernels.py",
     "    for w in range(1, n + 1):\n        before = covered",
     "    for w in range(1, n):\n        before = covered",
     ["tests/test_kernels.py"]),
    ("coset scan drops its offset", "kernels.py",
     "_fold([offset, *_multiples(", "_fold([0 * offset, *_multiples(",
     ["tests/test_kernels.py"]),
    ("codewords in reversed row order", "code.py",
     "kernels.coset_blocks(self.generator._rows,",
     "kernels.coset_blocks(self.generator._rows[::-1],",
     ["tests/test_kernels.py"]),
    ("orbit histogram drops the q - 1 factor", "kernels.py",
     "    counts *= ctx.q - 1\n", "",
     ["tests/test_kernels.py"]),
    ("orbit scan leads with every multiple", "kernels.py",
     "coset_blocks(G_int[:i], n,", "coset_blocks(G_int[:i + 1], n,",
     ["tests/test_kernels.py"]),
    ("orbit scan skips leading row 0", "kernels.py",
     "    for i in range(k):\n        yield from coset_blocks(",
     "    for i in range(1, k):\n        yield from coset_blocks(",
     ["tests/test_kernels.py"]),
    ("distance histogram ignores v", "kernels.py",
     "neg_v = [ctx.neg_i(x) for x in v_int]", "neg_v = [0 for x in v_int]",
     ["tests/test_kernels.py"]),
    ("min_distance reads bin 0", "code.py",
     "next(w for w in range(1, self.n + 1) if counts[w])",
     "next(w for w in range(0, self.n + 1) if counts[w])",
     ["tests/test_kernels.py"]),
    # the representative search
    ("lex-first search takes a batch's last hit", "kernels.py",
     "hits = hits[:1]", "hits = hits[-1:]",
     ["tests/test_kernels.py"]),
    ("representative search ignores the budget", "kernels.py",
     "if tested > budget:", "if False:",
     ["tests/test_kernels.py"]),
    ("lex table puts the zero branch last", "kernels.py",
     "[levels[j], heavier.reshape(-1, *zero.shape)]",
     "[heavier.reshape(-1, *zero.shape), levels[j]]",
     ["tests/test_kernels.py"]),
    ("hit's vector drops its prefix", "kernels.py",
     "            vecs[:, :pos] = prefix\n", "",
     ["tests/test_kernels.py"]),
    ("vector table writes 1 for every c", "kernels.py",
     "placed[:, pos] = np.repeat(np.arange(1, q), len(vectors[j - 1]))",
     "placed[:, pos] = 1",
     ["tests/test_kernels.py"]),
    ("vector table puts the zero branch last", "kernels.py",
     "[vectors[j], placed]", "[placed, vectors[j]]",
     ["tests/test_kernels.py"]),
    # one FieldElement per value
    ("interned element keeps a numpy value", "field.py",
     "        v = int(v)\n", "",
     ["tests/test_field.py"]),
    # the column-subset engine
    ("_ranks ignores used rows", "kernels.py",
     "live = unused & (A[:, :, c] != 0)", "live = A[:, :, c] != 0",
     ["tests/test_subsets.py"]),
    ("MDS layer skipped", "code.py",
     "if comb(n, k) < min(total, budget):", "if False:",
     ["tests/test_subsets.py"]),
    # elimination and the field's log array
    ("det keeps its sign on a row swap", "matrix.py",
     "            swaps += pivot != pr\n", "",
     ["tests/test_matrix_twin.py", "tests/test_matrix.py"]),
    ("rref stops one pivot early", "matrix.py",
     "            if pr == nr:\n", "            if pr + 1 == nr:\n",
     ["tests/test_matrix_twin.py", "tests/test_matrix.py"]),
    ("log(0) one period short", "field.py",
     "log[0] = 2 * (q - 1)", "log[0] = q - 1",
     ["tests/test_field.py", "tests/test_kernels.py"]),
    # the batched left side of Theorem 6
    ("extension test drops weight n-k+1", "covering.py",
     "(wt <= n - k + 1)", "(wt < n - k + 1)",
     ["tests/test_covering.py"]),
    ("extension test misses weight n-k", "covering.py",
     "<= n - k).any()", "< n - k).any()",
     ["tests/test_covering.py"]),
    ("thm6 fails a case only with the first counterexample", "suites.py",
     "if bad.size:\n                                ok = False\n"
     "                                if counterexample is None:",
     "if bad.size and counterexample is None:\n"
     "                                ok = False\n"
     "                                if True:",
     ["tests/test_covering.py"]),
    # specs from outside the program
    ("GRS spec entries unchecked", "serialize.py",
     "            nodes = _vector_from(ctx, part[\"nodes\"], "
     "len(part[\"nodes\"]),\n                                 \"nodes\")\n"
     "            mult = part.get(\"multipliers\", 1)\n"
     "            if isinstance(mult, int):\n"
     "                mult = [mult] * len(nodes)\n"
     "            mult = _vector_from(ctx, mult, len(nodes), "
     "\"multipliers\")\n",
     "            nodes = part[\"nodes\"]\n"
     "            mult = part.get(\"multipliers\", 1)\n",
     ["tests/test_cli.py"]),
    # constructions
    ("subset DP reuses an element", "constructions.py",
     "        for c in range(m, 0, -1):\n",
     "        for c in range(1, m + 1):\n",
     ["tests/test_constructions.py"]),
    ("Roth-Lempel column reversed", "constructions.py",
     "[1, delta]", "[delta, 1]",
     ["tests/test_constructions.py"]),
]


def run_mutant(path, old, new, tests) -> str:
    """'killed', 'SURVIVED' or 'STALE'."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "mdsx" / path
        text = target.read_text()
        if text.count(old) != 1:
            return "STALE"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        # the tests must import the mutated copy (found, not imported)
        where = subprocess.run(
            [sys.executable, "-c", "import importlib.util; "
             "print(importlib.util.find_spec('mdsx').origin)"],
            env=env, cwd=ROOT, capture_output=True, text=True).stdout
        if not where.startswith(str(src)):
            raise SystemExit(f"mdsx imported from {where!r}, not the copy")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            env=env, cwd=ROOT, capture_output=True, text=True)
        # 1: some test failed; 2: the mutated package failed to import
        # while the tests were collected.  Anything else (passed, no tests
        # found, a usage error) leaves the mutant alive.
        return "killed" if proc.returncode in (1, 2) else "SURVIVED"


def main(argv) -> int:
    chosen = [m for m in MUTANTS
              if not argv or any(a in m[0] for a in argv)]
    bad = 0
    start = time.monotonic()
    for mutant in chosen:
        t0 = time.monotonic()
        verdict = run_mutant(*mutant[1:])
        bad += verdict != "killed"
        print(f"{verdict:8s} {time.monotonic() - t0:5.1f}s  {mutant[0]}",
              flush=True)
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed in "
          f"{time.monotonic() - start:.0f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
