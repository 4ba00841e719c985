"""Argument parsing for the contract entry point and the three commands."""

from __future__ import annotations

import argparse
import json
import os

from .corpus import SETUP_ENV
from .spec import RUN_SECONDS, WORKLOAD_NAMES


def _contract(argv, t_start, at_start) -> int:
    ap = argparse.ArgumentParser(prog="benchmarks/perf/run.py", description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS, help="whole rounds until spent; at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    from .driver import run_workload

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), t_start, at_start, os.environ.get(SETUP_ENV)
    )
    print(json.dumps(result))
    return 0


def main(argv, t_start, at_start) -> int:
    if not argv or argv[0] not in ("run", "compare", "verify"):
        return _contract(argv, t_start, at_start)
    ap = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="every workload, every metric, checked")
    run.add_argument("--seed", type=int, default=0, help="trial t runs on seed + t")
    run.add_argument("--trials", type=int, default=3, help="fresh-interpreter trials per workload")
    run.add_argument("--trace", action="store_true", help="also the per-layer metrics (harness spans on)")
    run.add_argument("--quick", action="store_true", help="one trial of one round: a smoke run")
    run.add_argument("--out", metavar="FILE", help="result file (default: out/run-<time>.json)")

    cmp_ = sub.add_parser("compare", help="two result files against the bounds")
    cmp_.add_argument("a")
    cmp_.add_argument("b")

    ver = sub.add_parser("verify", help="every distinct op against expected/ and the simulator")
    ver.add_argument("--write", action="store_true", help="rewrite expected/ (simulator must agree)")

    args = ap.parse_args(argv)
    if args.cmd == "run":
        from .report import cmd_run

        return cmd_run(args)
    if args.cmd == "compare":
        from .compare import cmd_compare

        return cmd_compare(args.a, args.b)
    from .verify import cmd_verify

    return cmd_verify(args.write)
