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
does not start with test_; the whole run takes about five minutes.
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
    ("Zech log of a/b instead of b/a", "field.py",
     "z = self._zech[self._log[b] - la]", "z = self._zech[la - self._log[b]]",
     ["tests/test_field.py"]),
    ("add_i returns b when a summand is 0", "field.py",
     "            return a or b\n", "            return b\n",
     ["tests/test_field.py"]),
    ("Zech marker read as a log", "field.py",
     "return self._exp[la + z - n] if z >= 0 else 0",
     "return self._exp[la + z - n]",
     ["tests/test_field.py"]),
    ("Zech logs of 2 + g^i", "field.py",
     "log[add(exp, 1)]", "log[add(exp, 2)]",
     ["tests/test_field.py"]),
    ("exp doubling step is not squared", "field.py",
     "            step = step @ step % p\n", "",
     ["tests/test_field.py"]),
    ("neg table off by one", "field.py",
     "padded[log + (q - 1) // 2]", "padded[log + (q - 1) // 2 + 1]",
     ["tests/test_field.py"]),
    # the one extension-field construction
    ("_rem skips the top coefficient", "field.py",
     "for top in range(len(a) - 1, d - 1, -1):",
     "for top in range(len(a) - 2, d - 1, -1):",
     ["tests/test_field.py"]),
    ("_first_irreducible tries only linear factors", "field.py",
     "for e in range(1, d // 2 + 1)", "for e in range(1, 2)",
     ["tests/test_field.py"]),
    ("_convolve drops its last term", "field.py",
     "mul(x, y))\n    return out\n", "mul(x, y))\n    return out[:-1]\n",
     ["tests/test_field.py"]),
    # enumeration and the coset-leader sweep
    ("digit rows pack their high digit first", "kernels.py",
     "radix = p ** np.arange(r * m, dtype=np.int64)\n",
     "radix = p ** np.arange(r * m, dtype=np.int64)[::-1]\n",
     ["tests/test_kernels.py"]),
    ("_fold without its offset", "kernels.py",
     "            yield add(sums, offset)", "            yield sums",
     ["tests/test_kernels.py"]),
    ("_fold ignores its row bound", "kernels.py",
     "    while split > 0 and rows * parts[split - 1].shape[1] "
     "<= _BLOCK_ROWS:\n", "    while split > 0:\n",
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
    ("pull reads leader weight w - 2", "kernels.py",
     "== w - 1).any(axis=1)", "== w - 2).any(axis=1)",
     ["tests/test_kernels.py"]),
    ("pull keeps testing representatives that already hit", "kernels.py",
     "                open_, digits = open_[~found], digits[~found]\n", "",
     ["tests/test_kernels.py"]),
    ("pull tests only the first column", "kernels.py",
     "                for j in range(n):\n                    near = ",
     "                for j in range(1):\n                    near = ",
     ["tests/test_kernels.py"]),
    ("pull is priced at n(q-1) per orbit", "kernels.py",
     "return left * (q - 1) < comb(", "return left * n * (q - 1) < comb(",
     ["tests/test_kernels.py"]),
    ("orbit representatives drop the end of [q^t, 2q^t)", "kernels.py",
     "slice(q ** t, 2 * q ** t)", "slice(q ** t, 2 * q ** t - 1)",
     ["tests/test_kernels.py"]),
    ("layer recount reads only the first chunk of a slice", "kernels.py",
     "_count(leader[part], 0xFF)",
     "_count(leader[part][:_CHUNK_BYTES // 8], 0xFF)",
     ["tests/test_kernels.py"]),
    ("pull reads only the first chunk of a slice", "kernels.py",
     "_positions(leader[part], 0xFF, part.start)",
     "_positions(leader[part][:_CHUNK_BYTES // 8], 0xFF, part.start)",
     ["tests/test_kernels.py"]),
    ("push chunk drops its last support", "kernels.py",
     "_BLOCK_ROWS // per_support)):\n",
     "_BLOCK_ROWS // per_support)):\n        S = S[:-1]\n",
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
    ("row weights summed in uint8", "kernels.py",
     "block != 0, dtype=np.int32)", "block != 0, dtype=np.uint8)",
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
    ("extend_u appends its column reversed", "code.py",
     "_with_col(self.generator, col))",
     "_with_col(self.generator, col[::-1]))",
     ["tests/test_kernels.py"]),
    ("distance histogram ignores v", "kernels.py",
     "neg_v = [ctx.neg_i(x) for x in v_int]", "neg_v = [0 for x in v_int]",
     ["tests/test_kernels.py"]),
    ("min_distance reads bin 0", "code.py",
     "next(w for w in range(1, self.n + 1) if counts[w])",
     "next(w for w in range(0, self.n + 1) if counts[w])",
     ["tests/test_kernels.py"]),
    # the leader array's readers
    ("leader reader drops its last chunk", "kernels.py",
     "    for start in range(0, leader.size, size):\n",
     "    for start in range(0, leader.size - size, size):\n",
     ["tests/test_kernels.py"]),
    ("_positions drops its chunk offset", "kernels.py",
     "== value) + (start + offset)", "== value) + offset",
     ["tests/test_kernels.py"]),
    ("leader histogram counts from value 1", "kernels.py",
     "        for v in range(top + 1):\n",
     "        for v in range(1, top + 1):\n",
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
     "            out[at, :pos] = prefix\n", "",
     ["tests/test_kernels.py"]),
    ("hit written one target row off", "kernels.py",
     "np.searchsorted(targets, new)", "np.searchsorted(targets, new) - 1",
     ["tests/test_kernels.py"]),
    ("vector table writes 1 for every c", "kernels.py",
     "placed[:, pos] = np.repeat(np.arange(1, q), len(vectors[j - 1]))",
     "placed[:, pos] = 1",
     ["tests/test_kernels.py"]),
    ("vector table puts the zero branch last", "kernels.py",
     "[vectors[j], placed]", "[placed, vectors[j]]",
     ["tests/test_kernels.py"]),
    # one FieldElement per value, boxed at the API edge
    ("interned element keeps a numpy value", "field.py",
     "        v = int(v)\n", "",
     ["tests/test_field.py"]),
    ("_box_rows keeps only its last chunk", "matrix.py",
     "        out += zip(*elems[slot[chunk.T]])\n",
     "        out = list(zip(*elems[slot[chunk.T]]))\n",
     ["tests/test_matrix.py"]),
    # the column-subset engine
    ("_ranks ignores used rows", "kernels.py",
     "live = unused & (A[:, :, c] != 0)", "live = A[:, :, c] != 0",
     ["tests/test_subsets.py"]),
    ("MDS layer skipped", "code.py",
     "if comb(n, k) < min(total, budget):", "if False:",
     ["tests/test_subsets.py"]),
    # the MDS layer's minor table
    ("minor-table sign dropped", "kernels.py",
     "lg = signed[t % 2][first, cols[:, t]]",
     "lg = signed[0][first, cols[:, t]]",
     ["tests/test_subsets.py"]),
    ("size-1 entry check skipped", "kernels.py",
     "    if not A.all():\n        return False\n", "",
     ["tests/test_subsets.py"]),
    ("pivot-prefix check skipped", "matrix.py",
     "    if pivots[-1] != k - 1:\n        return False\n", "",
     ["tests/test_subsets.py"]),
    # elimination and the field's log array
    ("det keeps its sign on a row swap", "matrix.py",
     "            swaps += pivot != pr\n", "",
     ["tests/test_matrix_twin.py", "tests/test_matrix.py"]),
    ("rref stops one pivot early", "matrix.py",
     "            if pr == nr:\n", "            if pr + 1 == nr:\n",
     ["tests/test_matrix_twin.py", "tests/test_matrix.py"]),
    ("odd elimination adds f·pivot row", "matrix.py",
     "lf = log[f] + lneg", "lf = log[f]",
     ["tests/test_matrix_twin.py", "tests/test_matrix.py"]),
    ("log(0) one period short", "field.py",
     "log[0] = 2 * (q - 1)", "log[0] = q - 1",
     ["tests/test_field.py", "tests/test_kernels.py"]),
    # the one column sum: both sides of Theorem 6 and leader lookups
    ("column sum drops the last column", "kernels.py",
     "    for j in range(len(table)):\n        acc = add(",
     "    for j in range(len(table) - 1):\n        acc = add(",
     ["tests/test_kernels.py", "tests/test_covering.py"]),
    ("column sum skips the first column", "kernels.py",
     "    for j in range(len(table)):\n        acc = add(",
     "    for j in range(1, len(table)):\n        acc = add(",
     ["tests/test_covering.py"]),
    ("mat_vecs repacks its digits high digit first", "kernels.py",
     "r, m) @ unit)", "r, m) @ unit[::-1])",
     ["tests/test_kernels.py"]),
    # the batched left side of Theorem 6
    ("extension test drops weight n-k+1", "covering.py",
     "(wt <= n - k + 1)", "(wt < n - k + 1)",
     ["tests/test_covering.py"]),
    ("extension test misses weight n-k", "covering.py",
     "<= n - k).any()", "< n - k).any()",
     ["tests/test_covering.py"]),
    ("thm6 fails a case only with the first counterexample", "suites.py",
     "if bad.size and first is None:",
     "if bad.size and first is None and cases.counterexample is None:",
     ["tests/test_covering.py"]),
    # the one recorder of every suite's cases and counterexample
    ("recorder keeps the last counterexample", "suites.py",
     'if not case["ok"] and self.counterexample is None:',
     'if not case["ok"]:',
     ["tests/test_suites.py"]),
    ("recorder takes a passing case's counterexample", "suites.py",
     'if not case["ok"] and self.counterexample is None:',
     "if self.counterexample is None:",
     ["tests/test_suites.py"]),
    ("recorder keeps the first failing case's counterexample, even none",
     "suites.py",
     'if not case["ok"] and self.counterexample is None:',
     'if not case["ok"] and all(c["ok"] for c in self.cases[:-1]):',
     ["tests/test_suites.py"]),
    ("spec builder drops the extension by u", "suites.py",
     "if u is not None:\n        code = ",
     "if False:\n        code = ",
     ["tests/test_suites.py"]),
    ("suite vectors u run the last entry slowest", "suites.py",
     "coset_blocks(np.eye(n, dtype=np.int64),",
     "coset_blocks(np.eye(n, dtype=np.int64)[::-1],",
     ["tests/test_suites.py"]),
    # dp-vs-bruteforce's shared references
    ("no-δ check reads the brute-force sums of m - 1", "suites.py",
     "(dv not in sums[m])", "(dv not in sums[m - 1])",
     ["tests/test_suites.py"]),
    ("extension-kinds runs on every small code", "suites.py",
     "egrs(GrsSpec.make(ctx, nodes, 1, k)), k == n)",
     "egrs(GrsSpec.make(ctx, nodes, 1, k)), True)",
     ["tests/test_suites.py"]),
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
    ("unit column at the first row", "constructions.py",
     "[0] * (spec.k - 1) + [1]", "[1] + [0] * (spec.k - 1)",
     ["tests/test_constructions.py"]),
    ("Roth-Lempel column reversed", "constructions.py",
     "[1, delta]", "[delta, 1]",
     ["tests/test_constructions.py"]),
    ("int dual weights drop the multiplier v_i", "constructions.py",
     "-(log[vi.value] + sum(", "-(sum(",
     ["tests/test_constructions.py"]),
    # the one gate for evaluation-code inputs, and the rows built on it
    ("GrsSpec accepts k = n + 1", "constructions.py",
     "if not 1 <= self.k <= len(a):", "if not 1 <= self.k <= len(a) + 1:",
     ["tests/test_constructions.py"]),
    ("spec rows ignore the multipliers", "constructions.py",
     "lv = [ctx._log[x.value] for x in spec.v]", "lv = [0 for x in spec.v]",
     ["tests/test_constructions.py"]),
    ("GRS power rows read node 0 as 1", "constructions.py",
     "exp[(lb + e * log[x]) % n1] if x or not e else 0",
     "exp[(lb + e * log[x]) % n1]",
     ["tests/test_constructions.py", "tests/test_matrix.py"]),
    ("extend_g counts the new column's pivot", "code.py",
     "p < g.cols", "p <= g.cols",
     ["tests/test_code.py"]),
    ("LinearCode accepts a non-reduced generator", "code.py",
     "        if red != generator or len(pivots) < generator.rows:\n",
     "        if False:\n",
     ["tests/test_code.py"]),
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
