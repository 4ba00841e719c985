"""The asyncio front end: a JSON-lines planning daemon over TCP.

Protocol — one JSON object per line, one response line per request::

    → {"op": "plan", "name": "q1", "source": "real A(8)\\n...", "nprocs": 4,
       "topology": "torus:2x2"}
    ← {"name": "q1", "status": "ok", "cached": "plan", "seconds": 0.0007,
       "plan": {"total_cost": "12", "distribution": "...", ...},
       "fingerprints": {"program": "...", ...}}

    → {"op": "plan", "name": "q1b", "source": "...edited...",
       "base_fingerprint": "<fingerprints.program of a prior response>"}
    ← {"name": "q1b", "status": "ok", "cached": "delta", ...}
                                                # incremental re-plan off the
                                                # base program's cached prefix;
                                                # stale/unknown base → cold plan

    → {"op": "stats"}
    ← {"status": "ok", "stats": {...}}          # cache + counters + latency
                                                # + lifetime slo + inflight

    → {"op": "metrics"}
    ← {"status": "ok", "metrics": {...}}        # full cumulative registry
                                                # snapshot: counters, gauges,
                                                # histograms as raw buckets

    → {"op": "metrics", "format": "prom"}
    ← {"status": "ok", "format": "prom",
       "metrics": "# TYPE serve_requests_total counter\\n..."}

    → {"op": "ping"}
    ← {"status": "ok", "pong": true}

    → {"op": "shutdown"}                        # from a loopback peer only
    ← {"status": "ok", "op": "shutdown"}

``op`` defaults to ``"plan"``.  Malformed JSON or a missing ``source``
yields ``{"status": "error", ...}`` on that line; the connection stays
open.  A line longer than :data:`MAX_LINE_BYTES` is answered with one
``{"status": "error", "error": "request line exceeds N bytes"}`` line
and that connection is closed; the daemon and its other connections
stay up.  Past the admission high-water mark the daemon answers
``{"status": "rejected", "retry_after": ...}`` immediately — clients
should back off and retry — rather than queueing without bound.  A
``shutdown`` from any peer but a loopback one is refused with an error
reply and one ``shutdown_refused`` event; the daemon keeps serving.

Scrape mode: a raw ``/metrics`` line (no JSON) answers with the
Prometheus text exposition and closes the connection, so a scraper
needs no JSON client; a ``GET /metrics`` line gets the same body
wrapped in a minimal HTTP/1.0 response, which is enough for ``curl``
and a Prometheus scrape target pointed straight at the daemon port.

Operational events (listening, malformed requests, connection resets)
are JSON-lines records through the daemon's event log — same schema as
the service's access log (:mod:`repro.serve.accesslog`), so one ``jq``
vocabulary covers both.

Admission runs in the event loop (cheap, bounded); planning runs in the
service's thread pool, and cold misses are sharded from there to the
worker-process pool (``--jobs``).  Repeat queries are answered from the
persistent fingerprint-keyed cache (``--cache-dir``), which survives
daemon restarts by construction: warm-start re-indexes the directory.
"""

from __future__ import annotations

import asyncio
import ipaddress
import json
import sys
from typing import Callable, Optional

from ..obs.metrics import registry
from ..obs.prom import render_prometheus
from .accesslog import AccessLog
from .service import PlanService, ServeRequest

#: The longest request line the daemon reads (asyncio's own default,
#: now stated).  A longer one gets an error reply, never a traceback.
MAX_LINE_BYTES = 64 * 1024


def _is_loopback(peer) -> bool:
    """Whether a socket peer address is a loopback one (an IPv4-mapped
    IPv6 address counts as its IPv4 address)."""
    try:
        addr = ipaddress.ip_address(peer[0])
    except (TypeError, ValueError, IndexError):
        return False
    mapped = getattr(addr, "ipv4_mapped", None)
    return (mapped or addr).is_loopback


class PlanDaemon:
    """Wraps a :class:`PlanService` in an asyncio stream server.

    ``log`` (an event-capable :class:`AccessLog`, typically
    stream-backed to stdout) receives the daemon's operational records;
    ``None`` keeps the daemon silent, as the in-process tests want.
    """

    def __init__(
        self,
        service: PlanService,
        host: str = "127.0.0.1",
        port: int = 0,
        log: Optional[AccessLog] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.log = log
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — useful with ``port=0`` (ephemeral)."""
        assert self._server is not None, "daemon not started"
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    def _event(self, event: str, **fields) -> None:
        if self.log is not None:
            self.log.event(event, **fields)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES,
        )

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` (or an ``{"op": "shutdown"}`` line)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()
        self.service.close()

    def shutdown(self) -> None:
        self._shutdown.set()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as eof:
                    line = eof.partial  # an unterminated last line, or b""
                except asyncio.LimitOverrunError as over:
                    await self._refuse_oversized(reader, writer, over.consumed)
                    break
                if not line:
                    break
                stripped = line.strip()
                if stripped == b"/metrics" or stripped.startswith(
                    b"GET /metrics"
                ):
                    await self._scrape(writer, http=stripped != b"/metrics")
                    break
                response = await self._dispatch(
                    line, writer.get_extra_info("peername")
                )
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if response.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            self._event("connection_reset")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _refuse_oversized(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        consumed: int,
    ) -> None:
        """Answer a line over :data:`MAX_LINE_BYTES`, then read it away.

        The rest of the line is discarded (``consumed`` bytes of it are
        buffered and hold no newline) before the caller closes: closing
        a socket with unread input resets the connection, and a reset
        can reach the client ahead of the reply.
        """
        error = f"request line exceeds {MAX_LINE_BYTES} bytes"
        self._event("malformed_request", error=error)
        reply = {"status": "error", "error": error}
        writer.write(json.dumps(reply).encode() + b"\n")
        await writer.drain()
        while True:
            await reader.readexactly(consumed)
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.IncompleteReadError:
                return
            except asyncio.LimitOverrunError as over:
                consumed = over.consumed

    async def _scrape(
        self, writer: asyncio.StreamWriter, http: bool
    ) -> None:
        """Answer a raw (non-JSON) ``/metrics`` line and close.

        One exposition per connection: plain for the text client, a
        minimal ``HTTP/1.0 200`` envelope for curl/Prometheus.
        """
        body = render_prometheus().encode()
        if http:
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
        writer.write(body)
        await writer.drain()

    async def _dispatch(self, line: bytes, peer) -> dict:
        """The reply to one request line from ``peer`` (the connection's
        ``peername``)."""
        try:
            msg = json.loads(line)
            if not isinstance(msg, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            self._event("malformed_request", error=str(exc))
            return {"status": "error", "error": f"bad request: {exc}"}
        op = msg.get("op", "plan")
        if op == "ping":
            return {"status": "ok", "pong": True}
        if op == "stats":
            return {"status": "ok", "stats": self.service.stats()}
        if op == "metrics":
            if msg.get("format") == "prom":
                return {
                    "status": "ok",
                    "format": "prom",
                    "metrics": render_prometheus(),
                }
            return {"status": "ok", "metrics": registry().snapshot()}
        if op == "shutdown":
            if not _is_loopback(peer):
                error = "shutdown is accepted only from a loopback peer"
                self._event("shutdown_refused", peer=str(peer), error=error)
                return {"status": "error", "error": error}
            self.shutdown()
            return {"status": "ok", "op": "shutdown"}
        if op != "plan":
            self._event("malformed_request", error=f"unknown op {op!r}")
            return {"status": "error", "error": f"unknown op {op!r}"}
        source = msg.get("source")
        if not isinstance(source, str) or not source.strip():
            self._event("malformed_request", error="plan request needs 'source'")
            return {"status": "error", "error": "plan request needs 'source'"}
        base = msg.get("base_fingerprint")
        request = ServeRequest(
            name=str(msg.get("name", "request")),
            source=source,
            nprocs=msg.get("nprocs"),
            topology=msg.get("topology"),
            base_fingerprint=str(base) if base is not None else None,
        )
        response = await self.service.handle_async(request)
        out = response.to_json()
        if "id" in msg:
            out["id"] = msg["id"]
        return out


async def run_daemon(
    service: PlanService,
    host: str = "127.0.0.1",
    port: int = 8723,
    log: Optional[AccessLog] = None,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Start a daemon and serve until shutdown.

    The bound address is announced as a structured ``listening`` event
    (stdout by default — machine-parseable, which is how the CI watch
    step discovers an ephemeral ``--port 0``); ``ready`` additionally
    receives ``(host, port)`` in-process.
    """
    if log is None:
        log = AccessLog(stream=sys.stdout)
    daemon = PlanDaemon(service, host=host, port=port, log=log)
    await daemon.start()
    bound_host, bound_port = daemon.address
    log.event("listening", host=bound_host, port=bound_port)
    if ready is not None:
        ready(bound_host, bound_port)
    await daemon.serve_forever()
