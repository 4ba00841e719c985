"""Serve-layer live telemetry: access log, inflight gauge, metrics op.

Covers the observable surface PR 9 added to :mod:`repro.serve` — the
exactly-once JSON-lines access log with deterministic trace sampling,
the ``serve.inflight`` gauge, the daemon's ``metrics`` op (JSON and
Prometheus forms) and raw ``/metrics`` scrape mode, structured daemon
event logging (the ``listening`` line, malformed requests, a refused
``shutdown``), the watch dashboard's interval column against the
requests served between two polls, and the daemon protocol under
concurrent clients (full stats schema, monotone counters).
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading

import pytest

from repro.obs.metrics import registry
from repro.serve import (
    AccessLog,
    PlanDaemon,
    PlanService,
    ServeRequest,
    ServeResponse,
    read_access_log,
    run_daemon,
)
from repro.serve.daemon import _is_loopback

from obs_formats import bucket_histogram, check_exposition, scrape

SRC = """
real A(64), B(64)
A(1:63) = A(1:63) + B(2:64)
"""

SRC_EDIT = SRC.replace("A(1:63) + B(2:64)", "A(1:63) - B(2:64)")

SRC2 = """
real C(32), D(32)
C(1:32) = C(1:32) + D(1:32)
"""


# -- AccessLog unit behavior ---------------------------------------------------


class TestAccessLog:
    def test_needs_exactly_one_sink(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            AccessLog()
        with pytest.raises(ValueError, match="exactly one"):
            AccessLog(str(tmp_path / "a.jsonl"), stream=io.StringIO())

    def test_trace_sample_validated(self):
        with pytest.raises(ValueError, match="trace_sample"):
            AccessLog(stream=io.StringIO(), trace_sample=1.5)

    def test_deterministic_sampling(self):
        log = AccessLog(stream=io.StringIO(), trace_sample=0.5)
        # every 2nd access, first always sampled
        assert [log.should_trace() for _ in range(6)] == [
            True, False, True, False, True, False,
        ]
        assert not AccessLog(stream=io.StringIO()).should_trace()

    def test_file_records_round_trip(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = AccessLog(path, clock=lambda: 123.0)
        log.access(name="q", status="ok", cached="plan", ms=0.61234)
        log.event("listening", host="h", port=9)
        access, event = read_access_log(path)
        assert access == {
            "ts": 123.0,
            "kind": "access",
            "name": "q",
            "status": "ok",
            "cached": "plan",
            "ms": 0.6123,
        }
        assert event["kind"] == "event" and event["event"] == "listening"
        assert event["port"] == 9

    def test_stream_mode_writes_json_lines(self):
        stream = io.StringIO()
        AccessLog(stream=stream).event("x", a=1)
        record = json.loads(stream.getvalue())
        assert record["event"] == "x" and record["a"] == 1

    def test_lines_are_the_compact_json_dumps_of_their_records(self, tmp_path):
        def write(log) -> list[dict]:
            return [
                log.access(name="café ∑ 日本", status="ok", cached="plan",
                           ms=1e308, fingerprints={"program": "ab" * 6}),
                log.access(
                    name="\ud800", status="error", cached=None,
                    ms=float("nan"), error="LexError: \udfff",
                    trace={"serve.request": {"count": 1, "ms": 0.5},
                           "nested": {"deep": [1e300, -0.0, float("inf")]}},
                ),
                log.event("listening", host="ħøst", port=2**70,
                          big=1.7976931348623157e308, neg=float("-inf")),
            ]

        def dumps(records: list[dict]) -> list[str]:
            return [json.dumps(r, separators=(",", ":")) for r in records]

        path = str(tmp_path / "log.jsonl")
        records = write(AccessLog(path, clock=lambda: 1.5e9))
        with open(path, encoding="utf-8") as f:
            assert f.read().splitlines() == dumps(records)
        stream = io.StringIO()
        records = write(AccessLog(stream=stream, clock=lambda: 1.5e9))
        assert stream.getvalue().splitlines() == dumps(records)

    def test_concurrent_appends_never_tear(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = AccessLog(path)
        n, threads = 200, 8

        def work(tid):
            for i in range(n):
                log.access(name=f"t{tid}.{i}", status="ok", cached=None,
                           ms=1.0)

        ts = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        records = read_access_log(path)  # json.loads fails on a torn line
        assert len(records) == n * threads
        assert len({r["name"] for r in records}) == n * threads


# -- service: inflight gauge + access log --------------------------------------


class TestServiceTelemetry:
    def test_inflight_gauge_tracks_admission(self):
        svc = PlanService(max_pending=4)
        base = registry().gauge("serve.inflight").value or 0
        assert svc.try_admit() and svc.try_admit()
        assert registry().gauge("serve.inflight").value == base + 2
        assert svc.stats()["inflight"] == base + 2
        svc.release()
        svc.release()
        assert registry().gauge("serve.inflight").value == base

    def test_access_log_exactly_once_all_outcomes(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        with PlanService(access_log=path, max_pending=1) as svc:
            ok = svc.handle(ServeRequest("q", SRC, nprocs=4))
            err = svc.handle(ServeRequest("bad", "no so//rce here"))
            assert svc.try_admit()  # fill the admission slot...
            rej = svc.handle(ServeRequest("q2", SRC2, nprocs=4))
            svc.release()
        assert (ok.status, err.status, rej.status) == (
            "ok", "error", "rejected",
        )
        records = read_access_log(path)
        assert [r["status"] for r in records] == ["ok", "error", "rejected"]
        assert all(r["kind"] == "access" for r in records)
        ok_rec, err_rec, rej_rec = records
        assert set(ok_rec["fingerprints"]) == {
            "program", "options", "machine",
        }
        assert "error" in err_rec and "fingerprints" not in err_rec
        assert rej_rec["cached"] is None

    def test_trace_sampling_deterministic_and_labeled(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        with PlanService(access_log=path, trace_sample=0.5) as svc:
            for _ in range(4):
                assert svc.handle(ServeRequest("q", SRC, nprocs=4)).ok
        records = read_access_log(path)
        assert ["trace" in r for r in records] == [True, False, True, False]
        trace = records[0]["trace"]
        assert trace["serve.request"]["count"] == 1
        assert trace["serve.request"]["ms"] > 0

    def test_fingerprints_on_the_wire_when_present(self):
        # The delta protocol needs them: a client quotes
        # fingerprints["program"] as the next request's base_fingerprint.
        resp = ServeResponse(
            name="q", status="ok", fingerprints={"program": "abc"}
        )
        assert resp.to_json()["fingerprints"] == {"program": "abc"}
        bare = ServeResponse(name="q", status="error")
        assert "fingerprints" not in bare.to_json()

    def test_slo_section_in_stats(self):
        with PlanService() as svc:
            slo = svc.stats()["slo"]
        assert set(slo) == {"warm_latency", "availability"}
        for entry in slo.values():
            assert set(entry) == {
                "total", "bad", "compliance", "burn_rate", "healthy",
                "target",
            }


# -- daemon: metrics op, scrape mode, event log --------------------------------


def _drive(coro):
    return asyncio.run(coro)


class TestDaemonMetricsOp:
    def _roundtrip(self, messages, log=None, service=None, then=None):
        """The replies to ``messages``; ``then(host, port)`` is a blocking
        client run in a thread while the daemon still serves, its result
        appended."""

        async def drive():
            daemon = PlanDaemon(service or PlanService(), port=0, log=log)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)
            replies = []
            for msg in messages:
                writer.write(json.dumps(msg).encode() + b"\n")
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            if then is not None:
                replies.append(await asyncio.to_thread(then, *daemon.address))
            writer.close()
            daemon.shutdown()
            await server
            return replies

        return _drive(drive())

    def test_metrics_op_json(self):
        plan, metrics = self._roundtrip(
            [
                {"op": "plan", "name": "q", "source": SRC, "nprocs": 4},
                {"op": "metrics"},
            ]
        )
        assert plan["status"] == "ok"
        assert metrics["status"] == "ok"
        snap = metrics["metrics"]
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["serve.requests"] >= 1
        # Raw buckets, so a reader subtracts two polls exactly.
        assert set(snap["histograms"]["serve.ms"]) == {
            "count", "sum", "min", "max", "zeros", "buckets",
        }

    def test_metrics_op_prom_format(self):
        (reply,) = self._roundtrip([{"op": "metrics", "format": "prom"}])
        assert reply["status"] == "ok" and reply["format"] == "prom"
        assert check_exposition(reply["metrics"]) == []

    def test_malformed_requests_logged_as_events(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        replies = self._roundtrip(
            [{"op": "wat"}, {"op": "plan", "source": "  "}], log=log
        )
        assert all(r["status"] == "error" for r in replies)
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [e["event"] for e in events] == [
            "malformed_request", "malformed_request",
        ]
        assert "wat" in events[0]["error"]

    def test_watch_and_scrape_against_a_live_daemon(self, capsys):
        """The dashboard's interval column is exactly the requests served
        between its two polls: their counts, and the p50/p99 of their
        latencies, whatever earlier tests left in the process registry."""
        from repro.obs import watch

        def client(host, port):
            before = watch.poll(host, port)
            with socket.create_connection((host, port), timeout=30) as sock:
                f = sock.makefile("rwb")

                def ask(**msg):
                    msg = {"op": "plan", "name": "q", "nprocs": 4, **msg}
                    f.write(json.dumps(msg).encode() + b"\n")
                    f.flush()
                    return json.loads(f.readline())

                cold = ask(source=SRC)
                hit = ask(source=SRC)
                delta = ask(
                    source=SRC_EDIT,
                    base_fingerprint=cold["fingerprints"]["program"],
                )
                again = ask(source=SRC)
            now = watch.poll(host, port)
            return (
                [cold, hit, delta, again],
                watch.render_dashboard(now, before, f"{host}:{port}"),
                scrape(host, port),
                watch.main([f"{host}:{port}", "--once", "--interval", "0"]),
            )

        ((served, frame, scraped, status),) = self._roundtrip([], then=client)
        assert [r["cached"] for r in served] == [None, "plan", "delta", "plan"]
        life, window = {}, {}
        for line in frame.split("-" * 64)[1].strip().splitlines():
            name = line[:18].strip()
            life[name], window[name] = line[18:].split()
        # Every request is in exactly one outcome row, a delta one too.
        outcome_rows = ("plan hits", "prefix hits", "delta hits", "misses", "errors")
        assert window["requests"] == "4"
        assert [window[r] for r in outcome_rows] == ["2", "0", "1", "1", "0"]
        assert window["hit ratio"] == "75.0%"
        hits = sum(int(life[r]) for r in outcome_rows[:3])
        assert life["hit ratio"] == f"{100 * hits / int(life['requests']):.1f}%"

        def p50_p99(responses):
            h = bucket_histogram(r["seconds"] * 1e3 for r in responses)
            return f"{h.percentile(0.5):.2f}/{h.percentile(0.99):.2f}ms"

        by_outcome = {
            "latency p50/p99": served,
            "warm p50/p99": [r for r in served if r["cached"] == "plan"],
            "delta p50/p99": [r for r in served if r["cached"] == "delta"],
            "cold p50/p99": [r for r in served if r["cached"] is None],
        }
        for row, responses in by_outcome.items():
            assert window[row] == p50_p99(responses), row
        assert "repro.serve" in frame and "SLO" in frame
        assert check_exposition(scraped) == []
        assert status == 0 and "delta hits" in capsys.readouterr().out

    def test_watch_once_on_a_dead_port_is_a_one_line_failure(self, capsys):
        from repro.obs import watch

        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert watch.main([f"127.0.0.1:{port}", "--once"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("watch: ")
        assert len(captured.err.splitlines()) == 1

    def test_raw_metrics_line_scrapes_and_closes(self):
        async def drive():
            daemon = PlanDaemon(PlanService(), port=0)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)
            writer.write(b"/metrics\n")
            await writer.drain()
            body = (await reader.read()).decode()  # daemon closes: EOF
            writer.close()
            daemon.shutdown()
            await server
            return body

        body = _drive(drive())
        assert check_exposition(body) == []

    def test_http_get_metrics(self):
        async def drive():
            daemon = PlanDaemon(PlanService(), port=0)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)
            writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            payload = (await reader.read()).decode()
            writer.close()
            daemon.shutdown()
            await server
            return payload

        payload = _drive(drive())
        head, _, body = payload.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain" in head
        assert body.endswith("\n") and "# TYPE" in body

    def test_run_daemon_emits_structured_listening_event(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)

        async def drive():
            service = PlanService()
            bound = {}
            task = asyncio.create_task(
                run_daemon(
                    service,
                    host="127.0.0.1",
                    port=0,
                    log=log,
                    ready=lambda h, p: bound.update(host=h, port=p),
                )
            )
            while "port" not in bound:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                bound["host"], bound["port"]
            )
            writer.write(b'{"op": "shutdown"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await task
            return bound, reply

        bound, reply = _drive(drive())
        assert reply["status"] == "ok"
        event = json.loads(stream.getvalue().splitlines()[0])
        assert event["kind"] == "event" and event["event"] == "listening"
        assert event["port"] == bound["port"]
        assert event["host"] == "127.0.0.1"


class TestDaemonShutdownPeer:
    """``shutdown`` from a peer that is not loopback: one error reply,
    one event, the daemon still up.  CI cannot open a real non-loopback
    connection, so the dispatch is driven with the peername directly."""

    @pytest.mark.parametrize(
        "peer, loopback",
        [
            (("127.0.0.1", 5000), True),
            (("::1", 5000, 0, 0), True),
            (("::ffff:127.0.0.1", 5000, 0, 0), True),
            (("203.0.113.7", 5000), False),
            (("2001:db8::1", 5000, 0, 0), False),
            (None, False),
        ],
    )
    def test_loopback_peers(self, peer, loopback):
        assert _is_loopback(peer) is loopback

    def test_non_loopback_shutdown_is_refused(self):
        stream = io.StringIO()
        with PlanService() as service:
            daemon = PlanDaemon(service, log=AccessLog(stream=stream))
            reply = _drive(
                daemon._dispatch(b'{"op": "shutdown"}\n', ("203.0.113.7", 5000))
            )
            pong = _drive(
                daemon._dispatch(b'{"op": "ping"}\n', ("203.0.113.7", 5000))
            )
        assert reply == {
            "status": "error",
            "error": "shutdown is accepted only from a loopback peer",
        }
        assert not daemon._shutdown.is_set()
        assert pong == {"status": "ok", "pong": True}
        (event,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert event["kind"] == "event" and event["event"] == "shutdown_refused"
        assert event["peer"] == "('203.0.113.7', 5000)"
        assert event["error"] == reply["error"]


class TestDaemonOversizedLine:
    """A request line over the daemon's limit: one defined reply, one
    event, that connection closed, everything else up (ROADMAP item 5)."""

    # Past the limit but inside asyncio's 2x buffer (the newline is seen
    # with the overrun); past both; and long enough that a close before
    # the line is read away resets the connection ahead of the reply.
    @pytest.mark.parametrize("size", [70_000, 140_000, 20_000_000])
    def test_error_line_then_eof_and_daemon_stays_up(self, size):
        from repro.serve.daemon import MAX_LINE_BYTES

        stream = io.StringIO()

        async def ping(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            return reply

        async def drive():
            daemon = PlanDaemon(
                PlanService(), port=0, log=AccessLog(stream=stream)
            )
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            host, port = daemon.address
            bystander = await asyncio.open_connection(host, port)
            reader, writer = await asyncio.open_connection(host, port)
            big = {"op": "plan", "name": "big", "source": "! " + "x" * size}
            writer.write(json.dumps(big).encode() + b"\n")
            writer.write(b'{"op": "ping"}\n')  # never answered: closed first
            await writer.drain()
            first = json.loads(await reader.readline())
            rest = await reader.read()  # the daemon closes: EOF
            writer.close()
            bystander[1].write(b'{"op": "ping"}\n')
            await bystander[1].drain()
            kept = json.loads(await bystander[0].readline())
            bystander[1].close()
            fresh = await ping(host, port)
            daemon.shutdown()
            await server
            return first, rest, kept, fresh

        first, rest, kept, fresh = _drive(asyncio.wait_for(drive(), 30))
        assert first == {
            "status": "error",
            "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
        }
        assert rest == b""
        assert kept == fresh == {"status": "ok", "pong": True}
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [(e["event"], e["error"]) for e in events] == [
            ("malformed_request", first["error"])
        ]

    def test_line_at_the_limit_is_still_served(self):
        from repro.serve.daemon import MAX_LINE_BYTES

        async def drive():
            daemon = PlanDaemon(PlanService(), port=0)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)
            msg = json.dumps({"op": "ping", "pad": ""}).encode()
            pad = b"x" * (MAX_LINE_BYTES - len(msg))
            line = msg.replace(b'""', b'"' + pad + b'"')
            assert len(line) == MAX_LINE_BYTES
            writer.write(line + b"\n")
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            daemon.shutdown()
            await server
            return reply

        assert _drive(asyncio.wait_for(drive(), 30)) == {
            "status": "ok", "pong": True,
        }


class TestDaemonBadProcessorCount:
    """A plan request whose ``nprocs`` is no processor count: one error
    reply, one access record, nothing planned or cached, and the same
    connection still plans (ROADMAP aim 3)."""

    def test_error_reply_one_record_and_no_cache_entry(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        bad = {"op": "plan", "id": 1, "name": "q", "source": SRC, "nprocs": True}
        good = {**bad, "id": 2, "nprocs": 4}

        async def drive(service):
            daemon = PlanDaemon(service, port=0)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)
            writer.write(json.dumps(bad).encode() + b"\n")
            await writer.drain()
            first = json.loads(await reader.readline())
            entries = len(service.cache)
            writer.write(json.dumps(good).encode() + b"\n")
            await writer.drain()
            second = json.loads(await reader.readline())
            writer.close()
            daemon.shutdown()
            await server
            return first, entries, second

        with PlanService(access_log=path) as service:
            first, entries, second = _drive(asyncio.wait_for(drive(service), 30))
        assert (first["status"], first["id"], first["cached"]) == ("error", 1, None)
        assert first["error"] == (
            "DistributionOptionsError: nprocs=True is not a processor "
            "count: give an int >= 1, or None with a finite topology"
        )
        assert "plan" not in first and entries == 0
        assert second["status"] == "ok" and second["id"] == 2
        records = read_access_log(path)
        assert [(r["kind"], r["status"]) for r in records] == [
            ("access", "error"), ("access", "ok"),
        ]
        assert records[0]["error"] == first["error"]


class TestDaemonBinaryLine:
    """A request line of invalid UTF-8 and NUL bytes: one error reply, one
    event, and the same connection still plans (ROADMAP item 10)."""

    @pytest.mark.parametrize(
        "line",
        [
            b"\xff\xfe\x00\x00\xc3\x28\x80\x00",  # a UTF-32 BOM, then junk
            b"\x00" * 7,  # sniffed as UTF-32: decodes, then fails to parse
            b'{"op": "plan", "source": "\xc3\x28\x00\xff"}',
            b"\x00{\x00}",  # sniffed as UTF-16, an odd byte count
        ],
    )
    def test_error_reply_then_the_connection_still_plans(self, line):
        stream = io.StringIO()
        plan = {"op": "plan", "id": 1, "name": "q", "source": SRC, "nprocs": 4}

        async def drive():
            daemon = PlanDaemon(
                PlanService(), port=0, log=AccessLog(stream=stream)
            )
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            reader, writer = await asyncio.open_connection(*daemon.address)
            writer.write(line + b"\n")
            writer.write(json.dumps(plan).encode() + b"\n")
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(2)]
            writer.close()
            daemon.shutdown()
            await server
            return replies

        refused, planned = _drive(asyncio.wait_for(drive(), 30))
        events = [json.loads(x) for x in stream.getvalue().splitlines()]
        assert [e["event"] for e in events] == ["malformed_request"]
        assert refused == {"status": "error", "error": "bad request: "
                           + events[0]["error"]}
        assert planned["status"] == "ok" and planned["id"] == 1
        assert planned["cached"] is None and planned["plan"]["name"] == "q"


class TestDaemonConcurrentClients:
    STATS_KEYS = {
        "pending", "max_pending", "jobs", "cache_dir", "cache_entries",
        "cache", "counters", "inflight", "latency", "slo",
    }

    def test_stats_schema_and_monotone_counters_under_load(self):
        async def client(host, port, name, source):
            reader, writer = await asyncio.open_connection(host, port)
            results = []
            for _ in range(3):
                writer.write(
                    json.dumps(
                        {"op": "plan", "name": name, "source": source,
                         "nprocs": 4}
                    ).encode() + b"\n"
                )
                await writer.drain()
                results.append(json.loads(await reader.readline()))
                writer.write(b'{"op": "stats"}\n')
                await writer.drain()
                results.append(json.loads(await reader.readline()))
            writer.close()
            return results

        async def drive():
            daemon = PlanDaemon(PlanService(), port=0)
            await daemon.start()
            server = asyncio.create_task(daemon.serve_forever())
            host, port = daemon.address
            per_client = await asyncio.gather(
                client(host, port, "a", SRC),
                client(host, port, "b", SRC2),
                client(host, port, "c", SRC),
            )
            daemon.shutdown()
            await server
            return per_client

        before = registry().counter("serve.requests").value
        per_client = _drive(drive())
        for results in per_client:
            plans = results[0::2]
            stats = results[1::2]
            assert all(p["status"] == "ok" for p in plans)
            for s in stats:
                assert s["status"] == "ok"
                assert self.STATS_KEYS <= set(s["stats"])
            requests_seen = [
                s["stats"]["counters"]["serve.requests"] for s in stats
            ]
            assert requests_seen == sorted(requests_seen)  # monotone
        final = registry().counter("serve.requests").value
        assert final == before + 9  # 3 clients x 3 plans, exactly once
