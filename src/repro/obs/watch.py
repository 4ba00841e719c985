"""``python -m repro.obs.watch HOST:PORT`` — live serve-daemon dashboard.

Polls a running :mod:`repro.serve` daemon over its JSON-lines protocol
(the ``stats`` and ``metrics`` ops) and renders a refreshing ASCII
table: lifetime vs rolling-window request counts and hit ratios, the
windowed p50/p99 of the warm/delta/cold latency histograms, the in-flight
gauge, cache occupancy, and per-SLO burn rates.

No curses, no third-party TUI — plain ANSI clear-and-redraw, so it
works in any terminal and degrades to sequential snapshots when piped.

::

    python -m repro.obs.watch 127.0.0.1:8723              # refresh loop
    python -m repro.obs.watch 127.0.0.1:8723 --interval 5
    python -m repro.obs.watch 127.0.0.1:8723 --once       # one snapshot (CI)
"""

from __future__ import annotations

import json
import socket
import sys
import time
from typing import Optional


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


def _ratio(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    --"


def _ms(summary: dict) -> str:
    if not summary or not summary.get("count"):
        return "--/--"
    return f"{summary['p50']:.2f}/{summary['p99']:.2f}ms"


def render_dashboard(stats: dict, metrics: dict, address: str) -> str:
    """The one-screen ASCII dashboard for one stats/metrics poll."""
    counters = stats.get("counters", {})
    windows = metrics.get("windows", {})
    hists = metrics.get("histograms", {})
    label = next(
        (w["label"] for w in windows.values() if "label" in w), "window"
    )

    def wval(name: str) -> float:
        return windows.get(name, {}).get("value", 0)

    def wsum(name: str) -> dict:
        return windows.get(name, {}).get("summary", {})

    hit_names = ("serve.hits.plan", "serve.hits.prefix", "serve.hits.delta")
    requests = counters.get("serve.requests", 0)
    hits = sum(counters.get(name, 0) for name in hit_names)
    w_requests = wval("serve.requests")
    w_hits = sum(wval(name) for name in hit_names)

    width = 64
    lines = [
        f"repro.serve {address} — {time.strftime('%H:%M:%S')}",
        "=" * width,
        f"{'':<18s} {'lifetime':>14s} {label:>14s}",
        "-" * width,
    ]
    rows = [
        ("requests", f"{requests}", f"{w_requests:g}"),
        ("hit ratio", _ratio(hits, requests), _ratio(w_hits, w_requests)),
        (
            "plan hits",
            f"{counters.get('serve.hits.plan', 0)}",
            f"{wval('serve.hits.plan'):g}",
        ),
        (
            "prefix hits",
            f"{counters.get('serve.hits.prefix', 0)}",
            f"{wval('serve.hits.prefix'):g}",
        ),
        (
            "delta hits",
            f"{counters.get('serve.hits.delta', 0)}",
            f"{wval('serve.hits.delta'):g}",
        ),
        (
            "misses",
            f"{counters.get('serve.misses', 0)}",
            f"{wval('serve.misses'):g}",
        ),
        (
            "errors",
            f"{counters.get('serve.errors', 0)}",
            f"{wval('serve.errors'):g}",
        ),
        (
            "rejected",
            f"{counters.get('serve.rejected', 0)}",
            f"{wval('serve.rejected'):g}",
        ),
        (
            "latency p50/p99",
            _ms(hists.get("serve.ms", {})),
            _ms(wsum("serve.ms")),
        ),
        (
            "warm p50/p99",
            _ms(hists.get("serve.warm_ms", {})),
            _ms(wsum("serve.warm_ms")),
        ),
        (
            "delta p50/p99",
            _ms(hists.get("serve.delta_ms", {})),
            _ms(wsum("serve.delta_ms")),
        ),
        (
            "cold p50/p99",
            _ms(hists.get("serve.cold_ms", {})),
            _ms(wsum("serve.cold_ms")),
        ),
    ]
    for name, life, win in rows:
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
        lines.append("-" * width)
        lines.append(
            f"{'SLO':<18s} {'target':>8s} {'compliance':>11s} "
            f"{'burn':>7s}  status"
        )
        for name in sorted(slo):
            entry = slo[name]
            w = entry["window"]
            status = "OK" if entry.get("healthy", True) else "BURNING"
            lines.append(
                f"{name:<18s} {entry['target'] * 100:>7.1f}% "
                f"{w['compliance'] * 100:>10.2f}% "
                f"{w['burn_rate']:>7.2f}  {status}"
            )
    lines.append("=" * width)
    return "\n".join(lines)


def snapshot(host: str, port: int, timeout: float = 5.0) -> str:
    """One rendered dashboard frame for a running daemon."""
    replies = fetch(host, port, ["stats", "metrics"], timeout=timeout)
    for op, reply in replies.items():
        if reply.get("status") != "ok":
            raise ConnectionError(f"{op} op failed: {reply}")
    return render_dashboard(
        replies["stats"]["stats"],
        replies["metrics"]["metrics"],
        f"{host}:{port}",
    )


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
        help="print a single snapshot and exit (for scripts/CI)",
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

    if args.once:
        try:
            print(snapshot(host, port, timeout=args.timeout))
        except (OSError, ValueError, ConnectionError) as exc:
            print(f"watch: {exc}", file=sys.stderr)
            return 1
        return 0

    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    try:
        while True:
            try:
                frame = snapshot(host, port, timeout=args.timeout)
            except (OSError, ValueError, ConnectionError) as exc:
                frame = f"watch: {exc} (retrying in {args.interval:g}s)"
            print(f"{clear}{frame}", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
