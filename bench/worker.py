"""One repetition of a workload, in a fresh process.

Run by run.py with ``PYTHONPATH`` pointing at the library sources.  Prints a
single JSON line: set-up time, one pass of wall time, the same pass at the
reference speed (probe.py), peak RSS, and per item its time (raw and at
reference speed), verdict and output digest; in traced mode also the
per-layer table derived from the spans it wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    # set-up time starts before the library import, which a user pays on
    # every CLI call; the benchmark's own modules import numpy, so they are
    # loaded after it
    t_start = time.perf_counter()
    import mdsx
    import mdsx.cli
    sys.path.insert(0, HERE)
    import probe
    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", help="trace the run and write spans here")
    ap.add_argument("--wrong-reference", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    install_s = 0.0
    if args.spans:
        t = time.perf_counter()
        import tracer as tracing
        tracer = tracing.Tracer(mdsx)
        tracer.install()
        install_s = time.perf_counter() - t
    items = workloads.setup(args.workload, mdsx, args.seed,
                            args.wrong_reference)
    setup_s = time.perf_counter() - t_start - install_s

    # the probes run between the items, outside their timed regions
    speed = probe.Probe()
    outputs = []
    times = []
    ref_times = []
    before = speed.slowness()
    for item in items:
        t = time.perf_counter()
        try:
            outputs.append((item.run(), None))
        except Exception:  # an item that raises counts as failed
            outputs.append((None, traceback.format_exc(limit=3)))
        times.append(time.perf_counter() - t)
        after = speed.slowness()
        ref_times.append(times[-1] / ((before + after) / 2))
        before = after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        for item, (out, err) in zip(items, outputs):
            if err is None and args.workload == "verify-suites":
                tracer.add("cli.report_bytes", len(out[1]))
        tracer.save(args.spans)

    results = []
    for item, (out, err), secs, ref_secs in zip(items, outputs, times,
                                                ref_times):
        digest = None
        if err is None:
            try:
                item.check(out)
                digest = item.digest(out)
            except Exception:
                err = traceback.format_exc(limit=3)
        results.append({"name": item.name, "phase": item.phase,
                        "seconds": secs, "ref_seconds": ref_secs,
                        "ok": err is None, "error": err,
                        "digest": digest, "inputs": item.inputs})

    record = {"workload": args.workload, "seed": args.seed,
              "traced": tracer is not None, "setup_s": setup_s,
              "wall_s": sum(times), "wall_ref_s": sum(ref_times),
              "peak_rss_mb": peak_rss_mb,
              "items": results}
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(args.spans)
        record["spans"] = len(tracer.span_start)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
