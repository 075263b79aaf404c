"""mdsx benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload covering-sweep --seed 7 --seconds 36 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workload runs as a closed loop with one client: repetitions back to back,
each in a fresh process (worker.py), so every repetition starts with empty
field and covering caches, as a CLI call does.  Repetitions continue until
the next one would end after ``--seconds``, with at least three untraced
ones.

``--trace 0`` reports the end-to-end metrics (median over repetitions);
pass times are given at the reference speed of probe.py, which the worker
measures between the items, and the raw wall time is reported beside them.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Every output is checked against its reference outside the timed region, and
every repetition must give the same output digests; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is nonzero when any item failed.  Full results go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PLAIN_REPS = 3
# a run must end within 180 s; no repetition starts after this many seconds
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 170.0
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def run_worker(root, workload, seed, spans, wrong_reference, timeout):
    """One repetition; returns (record or None, error text, seconds)."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans:
        cmd += ["--spans", spans]
    if wrong_reference:
        cmd.append("--wrong-reference")
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {timeout:.0f} s", \
            time.perf_counter() - t
    secs = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (f"worker exited with {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}"), secs
    return json.loads(lines[-1]), None, secs


def percentile_beyond_ten(values):
    """(p, value) for the highest of p50..p99 with at least ten samples
    beyond it, or None when there are fewer than 20 samples."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def summarize(values, unit):
    out = {"median": statistics.median(values), "unit": unit,
           "samples": len(values)}
    high = percentile_beyond_ten(values)
    out["high_percentile"] = None if high is None else \
        {"p": high[0], "value": high[1]}
    return out


def end_to_end(workload, records):
    rows = []
    for r in records:
        row = {k: r[k] for k in END_TO_END_UNITS}
        row["wall_s"] = r["wall_s"]
        for phase in workloads.PHASES[workload]:
            row[phase] = sum(i["ref_seconds"] for i in r["items"]
                             if i["phase"] == phase)
        row["failed_frac"] = (sum(not i["ok"] for i in r["items"])
                              / len(r["items"]))
        rows.append(row)
    units = dict(END_TO_END_UNITS, wall_s="s", failed_frac="ratio",
                 **{p: "s" for p in workloads.PHASES[workload]})
    return {k: summarize([row[k] for row in rows], units[k]) for k in units}


def overhead_ratios(plain, traced):
    """Traced ``wall_ref_s`` over the untraced repetitions next to it.

    Repetitions alternate untraced, traced, untraced, ...; traced ``i`` runs
    between untraced ``i`` and ``i + 1``.  Dividing by the mean of its
    neighbours cancels what drift the probe leaves, which comparing medians
    taken at different times does not.
    """
    ratios = []
    for i, rec in enumerate(traced):
        near = [r["wall_ref_s"] for r in plain[i:i + 2]]
        ratios.append(rec["wall_ref_s"] / statistics.mean(near))
    return ratios


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-reference", action="store_true",
                    help="self-test hook: corrupt the first item's "
                         "reference, so the run must fail")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mdsx", "__init__.py")):
        sys.stderr.write("run from the repository root: src/mdsx not found\n")
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.wrong_reference:
        tag += "-wrongref"  # never overwrite a measured result
    # one span file per workload, overwritten by each traced repetition
    spans_path = os.path.join(out_dir, f"spans-{args.workload}.npz")

    modes = ["plain", "traced"] if args.trace else ["plain"]
    records = {m: [] for m in modes}
    durations = {m: [] for m in modes}
    attempted = failed = 0
    errors = []
    first_digests = {}
    start = time.perf_counter()
    turn = 0
    while True:
        mode = modes[turn % len(modes)]
        elapsed = time.perf_counter() - start
        rec, err, secs = run_worker(
            root, args.workload, args.seed,
            spans_path if mode == "traced" else None, args.wrong_reference,
            max(5.0, WORKER_TIMEOUT_S - elapsed))
        if rec is None:
            attempted += 1
            failed += 1
            errors.append(err)
            break
        durations[mode].append(secs)
        records[mode].append(rec)
        for item in rec["items"]:
            attempted += 1
            want = first_digests.setdefault(item["name"], item["digest"])
            if not item["ok"]:
                failed += 1
                errors.append(f"{item['name']}: {item['error']}")
            elif item["digest"] != want:
                failed += 1
                errors.append(f"{item['name']}: output digest differs "
                              f"between repetitions ({mode})")
        if failed:
            break
        turn += 1
        nxt = modes[turn % len(modes)]
        elapsed = time.perf_counter() - start
        enough = len(records["plain"]) >= (1 if args.trace else
                                           MIN_PLAIN_REPS)
        enough = enough and all(records[m] for m in modes)
        est = statistics.median(durations[nxt] or durations["plain"])
        if (enough and elapsed + est > args.seconds) \
                or elapsed > LAST_START_S:
            break

    plain = records["plain"]
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "attempted": attempted, "failed": failed, "errors": errors,
              "repetitions": {m: len(r) for m, r in records.items()},
              "digests": first_digests}
    if plain:
        result["end_to_end"] = end_to_end(args.workload, plain)
    metrics = {}
    if args.trace and records["traced"] and plain:
        traced = records["traced"]
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in tracer.LAYER_METRICS}
        ratios = overhead_ratios(plain, traced)
        layers["trace.overhead_frac"] = statistics.median(ratios) - 1
        result["trace_overhead"] = {
            "ratios": ratios,
            "range_frac": (max(ratios) - min(ratios))
            / statistics.median(ratios)}
        units = {k: u for k, (u, _, _) in tracer.LAYER_METRICS.items()}
        units["trace.overhead_frac"] = "ratio"
        # counts repeat exactly for a seed; keep them whole numbers
        result["layers"] = {
            k: {"value": round(v) if units[k] in ("count", "B") else v,
                "unit": units[k]} for k, v in layers.items()}
        metrics = {k: v for k, v in result["layers"].items()
                   if k not in tracer.REPORT_ONLY}
        result["spans_per_repetition"] = traced[-1]["spans"]
    elif not args.trace and plain:
        metrics = {k: {"value": result["end_to_end"][k]["median"],
                       "unit": u} for k, u in END_TO_END_UNITS.items()}
    result["metrics"] = metrics
    result["records"] = records
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print_report(result)
    ok = failed == 0 and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def print_report(result) -> None:
    reps = ", ".join(f"{n} {m}" for m, n in result["repetitions"].items())
    print(f"mdsx benchmark: {result['workload']} seed {result['seed']} "
          f"trace {result['trace']} ({reps} repetitions)")
    for name, s in result.get("end_to_end", {}).items():
        high = s["high_percentile"]
        tail = (f"p{high['p']} {high['value']:.4f}" if high else
                "no tail percentile (< 20 samples)")
        print(f"  {name:<20} {s['median']:12.4f} {s['unit']:<6} "
              f"median of {s['samples']}; {tail}")
    for name, m in result.get("layers", {}).items():
        print(f"  {name:<40} {m['value']:16.6g} {m['unit']}")
    for name, digest in result["digests"].items():
        print(f"  sha256 {digest} {name}")
    print(f"  attempted {result['attempted']} failed {result['failed']}")
    for err in result["errors"]:
        print("  FAILED " + err.replace("\n", "\n    "))


if __name__ == "__main__":
    sys.exit(main())
