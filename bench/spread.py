"""Steadiness check: run each workload of BENCHMARK.json on seeds 1-10 for
``run_seconds`` each and report, per end-to-end metric, the spread
(interquartile range over median) of the ten run medians.

    python3 bench/spread.py

Run from the repository root; the report also goes to
``.bench_out/spread.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    report = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                sys.stderr.write(proc.stdout[-3000:])
                return 1
            for name in values:
                values[name].append(last["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4)
                                   for k, v in values.items()}, flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            summary[m["name"]] = {"median": med, "spread": (q3 - q1) / med,
                                  "bound": m["bound"], "values": v}
            print(f"  {m['name']:<12} median {med:.4f} spread "
                  f"{(q3 - q1) / med:.4f} bound {m['bound']}", flush=True)
        report["workloads"][workload] = summary
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "spread.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
