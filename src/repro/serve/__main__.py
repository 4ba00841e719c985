"""``python -m repro.serve`` — start the planning daemon.

Usage::

    python -m repro.serve [--host H] [--port P] [--cache-dir DIR]
                          [--max-entries N] [--jobs J] [--max-pending N]
                          [--retry-after S] [--distribute P]
                          [--topology SPEC] [--access-log FILE]
                          [--trace-sample R]

``--cache-dir`` enables the persistent plan cache (omit it for a
memory-only cache that dies with the process); restarting the daemon on
the same directory warm-starts from the persisted entries.
``--distribute`` / ``--topology`` set the *default* machine for
requests that don't name one; per-request ``nprocs`` / ``topology``
fields always win.

``--access-log FILE`` appends one structured JSON line per request
(:mod:`repro.serve.accesslog`); ``--trace-sample R`` makes every
``round(1/R)``-th of those records carry a per-span time breakdown.
Lifecycle events (the ``listening`` line, malformed requests) go to
stdout as JSON records either way.
"""

from __future__ import annotations

import argparse
import asyncio

from .daemon import run_daemon
from .service import DEFAULT_NPROCS, PlanService


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running planning daemon (JSON lines over TCP)",
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument(
        "--port", type=int, default=8723, help="0 picks an ephemeral port"
    )
    ap.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent plan-cache directory (default: memory-only)",
    )
    ap.add_argument(
        "--max-entries",
        type=int,
        default=1024,
        help="LRU bound on entries held in memory, and on files with "
        "--cache-dir; both namespaces together (default 1024)",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for cold misses (default 1: inline)",
    )
    ap.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission high-water mark; beyond it requests are "
        "rejected with a retry_after hint (default 64)",
    )
    ap.add_argument(
        "--retry-after",
        type=float,
        default=0.05,
        help="retry hint (seconds) sent with rejections (default 0.05)",
    )
    ap.add_argument(
        "--distribute",
        type=int,
        metavar="P",
        default=None,
        help=f"default processor count (default {DEFAULT_NPROCS})",
    )
    ap.add_argument(
        "--topology",
        metavar="SPEC",
        help="default machine topology spec (e.g. torus:4x4)",
    )
    ap.add_argument(
        "--access-log",
        metavar="FILE",
        help="append one JSON line per request to FILE",
    )
    ap.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        metavar="R",
        help="fraction of access records carrying a span breakdown "
        "(deterministic: every round(1/R)-th request; default 0: off)",
    )
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error(f"--jobs must be >= 1, got {args.jobs}")
    if not 0.0 <= args.trace_sample <= 1.0:
        ap.error(f"--trace-sample outside [0, 1]: {args.trace_sample}")
    if args.trace_sample and not args.access_log:
        ap.error("--trace-sample needs --access-log")
    try:
        # The service checks its options and default machine itself, as
        # it checks a request's machine.
        service = PlanService(
            cache_dir=args.cache_dir,
            max_entries=args.max_entries,
            jobs=args.jobs,
            max_pending=args.max_pending,
            retry_after=args.retry_after,
            default_nprocs=args.distribute,
            default_topology=args.topology,
            access_log=args.access_log,
            trace_sample=args.trace_sample,
        )
    except ValueError as exc:
        ap.error(str(exc))
    try:
        asyncio.run(run_daemon(service, host=args.host, port=args.port))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
