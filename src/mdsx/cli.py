"""Command-line front end.

Machine-readable JSON goes to stdout; a one-line human summary (plus any
timing) goes to stderr, so reports stay byte-stable across runs.  Exit
codes: 0 pass, 1 assertion/suite failure, 2 usage or parse error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import serialize, suites
from .covering import covering_radius
from .constructions import subset_sums, t_set
from .errors import BudgetExceeded, MdsxError, ParseError
from .field import field_new
from .kernels import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(payload: dict, summary: str, args) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not args.json:
        sys.stderr.write(summary + "\n")


def _code_payload(ctx, code, budget) -> dict:
    payload = serialize.code_to_spec_dict(code)
    payload["n"] = code.n
    payload["k"] = code.k
    payload["d"] = code.min_distance(budget) if code.k else None
    payload["mds"] = code.is_mds(budget)
    return payload


def cmd_build(args) -> int:
    ctx, code = serialize.load_spec_file(args.spec)
    payload = _code_payload(ctx, code, args.budget)
    _emit(payload, f"[{code.n},{code.k},{payload['d']}] over GF({ctx.q}) "
                   f"MDS={payload['mds']}", args)
    return EXIT_OK


def cmd_mindist(args) -> int:
    ctx, code = serialize.load_spec_file(args.spec)
    d = code.min_distance(args.budget)
    _emit({"n": code.n, "k": code.k, "d": d},
          f"d = {d} for [{code.n},{code.k}] over GF({ctx.q})", args)
    return EXIT_OK


def cmd_weights(args) -> int:
    ctx, code = serialize.load_spec_file(args.spec)
    wts = code.weight_enumerator(args.budget)
    _emit({"n": code.n, "k": code.k, "weights": wts},
          f"weight enumerator of [{code.n},{code.k}] over GF({ctx.q})", args)
    return EXIT_OK


def cmd_dual(args) -> int:
    ctx, code = serialize.load_spec_file(args.spec)
    payload = _code_payload(ctx, code.dual(), args.budget)
    _emit(payload, f"dual is [{payload['n']},{payload['k']},{payload['d']}] "
                   f"over GF({ctx.q})", args)
    return EXIT_OK


def cmd_covering(args) -> int:
    ctx, code = serialize.load_spec_file(args.spec)
    t0 = time.monotonic()
    report = covering_radius(code, args.budget)
    payload = report.to_dict(include_representatives=args.deep_holes,
                             limit=args.limit, budget=args.budget)
    _emit(payload,
          f"rho = {report.rho} for [{code.n},{code.k}] over GF({ctx.q}) "
          f"({report.num_deep_hole_cosets} deep-hole cosets, "
          f"{time.monotonic() - t0:.2f}s)", args)
    return EXIT_OK


def cmd_deep_holes(args) -> int:
    ctx, code = serialize.load_spec_file(args.spec)
    report = covering_radius(code, args.budget)
    if args.vector is not None:
        v = serialize.parse_vector_arg(ctx, args.vector, code.n)
        dist = report.leader_weight(v)
        payload = {"vector": [e.value for e in v], "distance": dist,
                   "rho": report.rho,
                   "is_deep_hole": dist == report.rho}
        _emit(payload, f"distance {dist} vs rho {report.rho}: "
                       f"deep hole = {payload['is_deep_hole']}", args)
        return EXIT_OK
    payload = report.to_dict(include_representatives=True, limit=args.limit,
                             budget=args.budget)
    _emit(payload, f"rho = {report.rho}, "
                   f"{payload['num_deep_hole_cosets']} deep-hole cosets",
          args)
    return EXIT_OK


def cmd_extend(args) -> int:
    ctx, code = serialize.load_spec_file(args.spec)
    if (args.u is None) == (args.g is None):
        raise ParseError("extend needs exactly one of --u or --g")
    if args.u is not None:
        u = serialize.parse_vector_arg(ctx, args.u, code.n)
        ext = code.extend_u(u)
    else:
        g = serialize.parse_vector_arg(ctx, args.g, code.k)
        ext = code.extend_g(g)
    payload = _code_payload(ctx, ext, args.budget)
    _emit(payload, f"extended to [{ext.n},{ext.k},{payload['d']}] "
                   f"MDS={payload['mds']}", args)
    return EXIT_OK


def cmd_set_check(args) -> int:
    ctx = field_new(args.field[0], args.field[1])
    s = (serialize.parse_vector_arg(ctx, args.elements) if args.elements
         else ctx.vector(range(ctx.q)))
    vals = [e.value for e in s]
    if any(v is not None and not 0 <= v < ctx.q for v in (args.delta,
                                                          args.pi)):
        raise ParseError(f"--delta and --pi must lie in [0, {ctx.q})")
    deltas = [args.delta] if args.delta is not None else list(range(ctx.q))
    # delta passes iff it avoids the k-subset sums of s, or in the pole
    # form the reciprocal k-products of (pi - a_i); either set is built once
    if args.pi is not None:
        forbidden = t_set(s, args.pi, args.k)
        what = f"delta avoids reciprocal {args.k}-products at pi={args.pi}"
    else:
        forbidden = subset_sums(s, args.k)
        what = f"no-{args.k}-subset-sums"
    verdicts = {str(d): ctx.elem(d) not in forbidden for d in deltas}
    payload = {"q": ctx.q, "elements": vals, "k": args.k,
               "pi": args.pi, "verdicts": verdicts}
    good = [d for d, v in verdicts.items() if v]
    _emit(payload,
          f"(|S|={len(vals)}, k={args.k}): {what} holds "
          f"for delta in {{{', '.join(good) or 'nothing'}}}", args)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = {}
    if args.qs:
        params["qs"] = serialize.parse_int_list(args.qs, "--qs")
    if args.ms:
        params["ms"] = serialize.parse_int_list(args.ms, "--ms")
    if args.max_n is not None:
        params["max_n"] = args.max_n
    if args.samples is not None:
        params["samples"] = args.samples
    if args.seed is not None:
        params["seed"] = args.seed
    if args.budget is not None:
        params["budget"] = args.budget
    t0 = time.monotonic()
    report = suites.run_suite(args.suite, params)
    _emit(report,
          f"suite {args.suite}: {'PASS' if report['passed'] else 'FAIL'} "
          f"({len(report['cases'])} cases, {time.monotonic() - t0:.2f}s)",
          args)
    return EXIT_OK if report["passed"] else EXIT_FAIL


def _count(text: str) -> int:
    """argparse type of a count: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _positive(text: str) -> int:
    """argparse type of a budget or of a field's p and m: an integer >= 1
    (a budget of 0 or less admits no work at all)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mdsx",
        description="Finite-field linear codes: build constructions, "
                    "compute covering radii and deep holes, and run the "
                    "verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help="JSON code-spec file")
        p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET,
                       help="enumeration budget (syndromes or codewords)")
        p.add_argument("--json", action="store_true",
                       help="suppress the stderr summary line")

    p = sub.add_parser("build", help="construct a code and print its "
                                     "canonical generator spec")
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("mindist", help="exact minimum distance")
    add_common(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("weights", help="exact weight enumerator")
    add_common(p)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("dual", help="dual code as a replayable spec")
    add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("covering", help="exact covering radius")
    add_common(p)
    p.add_argument("--deep-holes", action="store_true",
                   help="include canonical deep-hole representatives")
    p.add_argument("--limit", type=_count, default=None,
                   help="cap the number of reported representatives")
    p.set_defaults(func=cmd_covering)

    p = sub.add_parser("deep-holes",
                       help="deep-hole representatives, or test one vector")
    add_common(p)
    p.add_argument("--vector", help="comma-separated vector to test")
    p.add_argument("--limit", type=_count, default=None)
    p.set_defaults(func=cmd_deep_holes)

    p = sub.add_parser("extend", help="extend by inner product (--u) or "
                                      "appended generator column (--g)")
    add_common(p)
    p.add_argument("--u", help="length-n vector, comma-separated")
    p.add_argument("--g", help="length-k column, comma-separated")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("set-check",
                       help="no-k-subset-sums-to-delta test")
    p.add_argument("--field", nargs=2, type=_positive, required=True,
                   metavar=("P", "M"))
    p.add_argument("--elements", help="comma-separated encodings "
                                      "(default: the whole field)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, default=None,
                   help="single delta (default: scan the field)")
    p.add_argument("--pi", type=int, default=None,
                   help="test the pole-product condition at this point "
                        "instead of subset sums")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_set_check)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(suites.SUITES))
    p.add_argument("--qs", help="comma-separated field sizes")
    p.add_argument("--ms", help="comma-separated extension degrees "
                               "(cyclic suite)")
    p.add_argument("--max-n", type=_count, default=None)
    p.add_argument("--samples", type=_count, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=_positive, default=None,
                   help="enumeration budget (default: each suite's own)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BudgetExceeded as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return EXIT_BUDGET
    except MdsxError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
