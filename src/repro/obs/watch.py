"""``python -m repro.obs.watch HOST:PORT`` — live serve-daemon dashboard.

Polls a running :mod:`repro.serve` daemon over its JSON-lines protocol
(the ``stats`` and ``metrics`` ops) and renders a refreshing ASCII
table: request counts and hit ratios, the p50/p99 of the
unified/warm/delta/cold latency histograms, the in-flight gauge, cache
occupancy, and per-SLO burn rates.

The daemon keeps cumulative metrics only.  The left column is the
daemon's lifetime; the right one is the *last interval*, everything
between this poll and the previous one, which the dashboard derives by
subtracting the two polls: counters by value, histograms exactly
(:meth:`~repro.obs.metrics.Histogram.since`), and SLO burn from the
difference of each objective's cumulative ``bad``/``total`` counts.

No curses, no third-party TUI — plain ANSI clear-and-redraw, so it
works in any terminal and degrades to sequential snapshots when piped.

::

    python -m repro.obs.watch 127.0.0.1:8723              # refresh loop
    python -m repro.obs.watch 127.0.0.1:8723 --interval 5
    python -m repro.obs.watch 127.0.0.1:8723 --once       # one frame over one interval
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import Optional

from .metrics import Histogram
from .slo import burn

#: (row label, counter) of the per-outcome rows; every request is in
#: exactly one of the first five.
_COUNTS = (
    ("plan hits", "serve.hits.plan"),
    ("prefix hits", "serve.hits.prefix"),
    ("delta hits", "serve.hits.delta"),
    ("misses", "serve.misses"),
    ("errors", "serve.errors"),
    ("rejected", "serve.rejected"),
)
_HITS = tuple(name for _, name in _COUNTS if name.startswith("serve.hits."))

#: (row label, histogram) of the latency rows.
_LATENCY = (
    ("latency p50/p99", "serve.ms"),
    ("warm p50/p99", "serve.warm_ms"),
    ("delta p50/p99", "serve.delta_ms"),
    ("cold p50/p99", "serve.cold_ms"),
)

_ROWS = ("requests", "hit ratio", *(r for r, _ in _COUNTS), *(r for r, _ in _LATENCY))
_EMPTY = Histogram("").to_dict()


def fetch(host: str, port: int, ops: list[str], timeout: float = 5.0) -> dict:
    """One connection, one line per op; returns ``{op: response}``."""
    out: dict[str, dict] = {}
    with socket.create_connection((host, port), timeout=timeout) as sock:
        f = sock.makefile("rwb")
        for op in ops:
            f.write(json.dumps({"op": op}).encode() + b"\n")
            f.flush()
            line = f.readline()
            if not line:
                raise ConnectionError(f"daemon closed mid-{op}")
            out[op] = json.loads(line)
    return out


def poll(host: str, port: int, timeout: float = 5.0) -> dict:
    """One ``stats`` + ``metrics`` poll, stamped with the local
    monotonic time it was taken at."""
    replies = fetch(host, port, ["stats", "metrics"], timeout=timeout)
    for op, reply in replies.items():
        if reply.get("status") != "ok":
            raise ConnectionError(f"{op} op failed: {reply}")
    return {
        "at": time.monotonic(),
        "stats": replies["stats"]["stats"],
        "metrics": replies["metrics"]["metrics"],
    }


def interval(now: dict, before: dict) -> dict:
    """The metrics snapshot of what happened between two polls.

    Raises ``ValueError`` when a count went down: the daemon restarted
    between the polls, and the difference means nothing.
    """
    old, new = before["metrics"], now["metrics"]
    counters = {
        name: value - old["counters"].get(name, 0)
        for name, value in new["counters"].items()
    }
    if any(v < 0 for v in counters.values()):
        raise ValueError("a counter went down")
    histograms = {
        name: Histogram.from_dict(name, data)
        .since(old["histograms"].get(name, _EMPTY))
        .to_dict()
        for name, data in new["histograms"].items()
    }
    return {"counters": counters, "histograms": histograms}


def _ratio(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    --"


def _ms(data: Optional[dict]) -> str:
    if not data or not data["count"]:
        return "--/--"
    h = Histogram.from_dict("", data)
    return f"{h.percentile(0.50):.2f}/{h.percentile(0.99):.2f}ms"


def _column(snap: dict) -> list[str]:
    """One dashboard column (the cells of :data:`_ROWS`) of a snapshot."""
    counters, hists = snap["counters"], snap["histograms"]
    requests = counters.get("serve.requests", 0)
    hits = sum(counters.get(name, 0) for name in _HITS)
    return [
        f"{requests}",
        _ratio(hits, requests),
        *(f"{counters.get(name, 0)}" for _, name in _COUNTS),
        *(_ms(hists.get(name)) for _, name in _LATENCY),
    ]


def render_dashboard(
    now: dict, before: Optional[dict], address: str
) -> str:
    """The one-screen ASCII dashboard for one poll; the right column is
    the interval since ``before`` (``--`` without one)."""
    stats = now["stats"]
    last = None
    if before is not None:
        try:
            last = interval(now, before)
        except ValueError:
            pass
    if last is None:
        label, right = "last interval", ["--"] * len(_ROWS)
    else:
        label, right = f"last {now['at'] - before['at']:.1f}s", _column(last)

    width = 64
    lines = [
        f"repro.serve {address} — {time.strftime('%H:%M:%S')}",
        "=" * width,
        f"{'':<18s} {'lifetime':>14s} {label:>14s}",
        "-" * width,
    ]
    for name, life, win in zip(_ROWS, _column(now["metrics"]), right):
        lines.append(f"{name:<18s} {life:>14s} {win:>14s}")
    lines.append("-" * width)
    lines.append(
        f"{'in-flight':<18s} {stats.get('inflight', 0):>14} "
        f"{'pending ' + str(stats.get('pending', 0)):>14s}"
    )
    lines.append(
        f"{'cache entries':<18s} {stats.get('cache_entries', 0):>14}"
    )
    slo = stats.get("slo", {})
    if slo:
        old = before["stats"].get("slo", {}) if last is not None else {}
        lines.append("-" * width)
        lines.append(
            f"{'SLO burn':<18s} {'target':>8s} {'lifetime':>10s} "
            f"{'interval':>10s}  status"
        )
        for name in sorted(slo):
            life, last_burn, healthy = slo[name], "--", slo[name]["healthy"]
            if name in old:
                rate = burn(
                    life["bad"] - old[name]["bad"],
                    life["total"] - old[name]["total"],
                    life["target"],
                )["burn_rate"]
                last_burn, healthy = f"{rate:.2f}", rate <= 1.0
            lines.append(
                f"{name:<18s} {life['target'] * 100:>7.1f}% "
                f"{life['burn_rate']:>10.2f} {last_burn:>10s}  "
                f"{'OK' if healthy else 'BURNING'}"
            )
    lines.append("=" * width)
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="Live ASCII dashboard for a repro.serve daemon",
    )
    ap.add_argument("address", metavar="HOST:PORT")
    ap.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds (default 2)",
    )
    ap.add_argument(
        "--once",
        action="store_true",
        help="poll twice, --interval apart, print that one frame and exit "
        "(for scripts/CI)",
    )
    ap.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-poll connection timeout (default 5s)",
    )
    args = ap.parse_args(argv)
    host, _, port_text = args.address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        ap.error(f"bad address {args.address!r}: expected HOST:PORT")
    host = host or "127.0.0.1"
    address = f"{host}:{port}"

    if args.once:
        try:
            before = poll(host, port, timeout=args.timeout)
            time.sleep(args.interval)
            now = poll(host, port, timeout=args.timeout)
        except (OSError, ValueError) as exc:
            print(f"watch: {exc}", file=sys.stderr)
            return 1
        print(render_dashboard(now, before, address))
        return 0

    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    before = None
    try:
        while True:
            try:
                now = poll(host, port, timeout=args.timeout)
                frame = render_dashboard(now, before, address)
                before = now
            except (OSError, ValueError) as exc:
                frame = f"watch: {exc} (retrying in {args.interval:g}s)"
            print(f"{clear}{frame}", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
