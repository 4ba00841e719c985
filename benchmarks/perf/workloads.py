"""The seven workloads: set-up, one round of timed ops, and the check.

An *item* is one distinct input, an *op* one timed call through a public
function of ``repro``.  A round runs every op of the workload once (in a
``--seed``-driven order); the amount of work in a round never depends on
the seed, only its order does, so runs on different seeds are comparable.
With a :class:`~.trace.Tracer` the same ops run with the harness's spans
around each layer call.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import cachestats
from repro.align.pipeline import align_and_distribute, plan_context
from repro.batch import machine_label, plan_many
from repro.lang import ast as A
from repro.lang.generate import generate_corpus
from repro.lang.parser import parse
from repro.obs import spans as obs
from repro.passes import MachineSpec, Pipeline, content_fingerprint, diff_programs, replan
from repro.serve import PlanCache, PlanService, ServeRequest, read_access_log

from . import corpus, stats
from .probe import PROBE_REF_S, at_reference_speed, probe_reading, ready_seconds
from .spec import CACHE_CELLS, EDIT_CLASSES, LABEL_CLASSES, NPROCS, OUTCOMES, STRATEGIES
from .trace import Tracer

perf = time.perf_counter
SRC_DIR = os.path.join(corpus.ROOT, "src")

#: One pipeline pass per step: (pass name, goal that runs exactly it, span name).
STEPS = (
    ("typecheck", "typeinfo", "lang.typecheck"),
    ("build-adg", "adg", "adg.build"),
    ("axis-stride", "skeletons", "align.axis_stride"),
    ("replication-offsets", ("replication", "offsets"), "align.replication_offsets"),
    ("assemble", "plan", "align.assemble"),
    ("comm-profile", "profile", "distrib.comm_profile"),
    ("distribute", "distribution", "distrib.distribute"),
)
SPAN_OF_PASS = {name: span for name, _, span in STEPS}

SWEEP_PREFIXES = ("figure1", "jacobi2d", "lu_wavefront", "skewed_wavefront")
SWEEP_MACHINES = (
    "grid:4x4",
    "torus:4x4",
    "ring:16",
    "hypercube:16",
    "hier:(grid:2)/(grid:8)@16",
    "grid:8x8",
    "torus:8x8",
    "ring:64",
    "hypercube:64",
)
#: (nprocs, topology) pairs a serve request names.
SERVE_MACHINES = ((NPROCS, None), (None, "torus:4x4"))
CHURN_MACHINES = SERVE_MACHINES + ((None, "ring:16"),)
#: Kernels whose waves carry a stale-base probe (each has an iters_change edit).
CHURN_EDIT_KERNELS = (
    "cg_step",
    "example5",
    "figure1",
    "figure4",
    "jacobi2d",
    "lu_wavefront",
    "redblack1d",
    "stencil_sweep",
)
CHURN_MAX_ENTRIES = 12
CHURN_HIT_REPEATS = 3
WARM_REPEATS = 8
BATCH_PROGRAMS = 14
BATCH_JOBS = min(2, os.cpu_count() or 1)

#: Timed seconds after which the next op boundary takes a probe: every
#: boundary for ops longer than this, about a tenth of the window otherwise.
PROBE_GAP_S = 0.02
#: Share of the timed seconds since the last boundary probe that the next
#: one may spend, as a burst of up to ``PROBE_BURST`` readings: a single
#: reading is itself ± 20 %, which a workload of few long calls
#: (``batch_pool``: a dozen a run) cannot average away.
PROBE_SHARE = 0.05
PROBE_BURST = 8

@dataclass
class Outcome:
    """What one op returned, reduced to what the check phase needs."""

    key: str  # expected/<key>.json
    label: str  # machine label inside that file
    plan: object = None  # AlignmentPlan with .distribution, when the op yields one
    topology: Optional[str] = None
    ctx: object = None  # solved PlanContext, when the op exposes one
    info: dict = field(default_factory=dict)
    _facts: Optional[dict] = None

    @property
    def facts(self) -> dict:
        """Read off the plan in the check phase, never inside a round:
        ``plan.report()`` prices edges through the memo caches the
        rounds are counting."""
        if self._facts is None:
            self._facts = corpus.plan_facts(self.plan)
        return self._facts


class Recorder:
    """Per-op latency samples and the first outcome of each distinct op.

    Every timed call is bracketed by two :func:`speed_probe` readings, the
    one before it and the one after, and recorded at reference speed: on
    this shared VM the same op reads up to twice as long from one minute
    to the next, and its neighbouring probes read longer by the same share.
    """

    def __init__(self) -> None:
        #: op -> seconds at reference speed, and as the clock read them.
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.outcomes: dict[str, Outcome] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self.seconds = 0.0  # timed wall seconds over all rounds, probes included
        self.cache_counts: dict = {}  # cachestats lookups of the first round
        #: Seconds (at reference speed) of each timed call, where one call
        #: completes many ops (``plan_many``); empty where every op is its own.
        self.calls: dict[str, list[float]] = {}
        self.probes: list[float] = []  # one reading per boundary probed
        self.probe_seconds = 0.0
        self._pending: list[tuple[dict, str, float]] = []  # awaiting the probe after them
        self._since = 0.0
        self.probe()

    def add(self, op: str, seconds: float, outcome: Optional[Outcome]) -> None:
        self.attempted += 1
        self.raw.setdefault(op, []).append(seconds)
        if outcome is not None:
            self.outcomes.setdefault(op, outcome)
        self._pend(self.samples, op, seconds)

    def add_call(self, name: str, seconds: float) -> None:
        self._pend(self.calls, name, seconds)

    def fail(self, op: str, message: str) -> None:
        self.attempted += 1
        self.errors.append(f"{op}: {message}")

    def _pend(self, table: dict, key: str, seconds: float) -> None:
        self._pending.append((table, key, seconds))
        self._since += seconds
        if self._since >= PROBE_GAP_S:
            self.probe()

    def probe(self) -> None:
        """Take a probe and record the samples waiting for it.  Called at
        the end of every round, and between ops as due."""
        before = self.probes[-1] if self.probes else None
        t0 = perf()
        self.probes.append(probe_reading(max(1, min(PROBE_BURST, round(PROBE_SHARE * self._since / PROBE_REF_S)))))
        self.probe_seconds += perf() - t0
        for table, key, seconds in self._pending:
            table.setdefault(key, []).append(at_reference_speed(seconds, before, self.probes[-1]))
        self._pending.clear()
        self._since = 0.0

    def machine_speed(self) -> float:
        """Reference probe time ÷ the median probe of this run: above 1
        where the machine ran faster than the reference while measuring."""
        return PROBE_REF_S / stats.median(self.probes)


def _attach(ctx) -> object:
    plan = ctx.get("plan")
    plan.distribution = ctx.get("distribution")
    return plan


def _ast_nodes(program) -> int:
    n = len(program.decls)
    for s in A.walk_stmts(program.body):
        n += 1
        if isinstance(s, A.Assign):
            n += sum(1 for _ in A.walk_exprs(s.lhs)) + sum(1 for _ in A.walk_exprs(s.rhs))
    return n


def _add_pass_spans(tracer: Tracer, ctx) -> None:
    """Lay the pass durations a returned context's trace reports back to
    back inside the open span (a replan cannot be stepped from outside)."""
    for ev in ctx.trace:
        if ev.get("event") == "run" and ev["pass"] in SPAN_OF_PASS:
            tracer.add(SPAN_OF_PASS[ev["pass"]], ev["seconds"])


class Workload:
    name = ""
    #: Child processes (daemon, pool workers) count toward ``peak_rss_mb``.
    has_children = False
    #: Distinct ops re-run through the machine simulator in the check phase.
    sim_sample = 6
    #: Trace runs alternate traced and untraced rounds (stepping differs
    #: from the one-shot call only on ``cold_kernels``).
    compare_untraced = False

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.expected = corpus.Expected()
        self.sim_seconds: list[float] = []
        self.verified_ops = 0

    # -- the contract every workload fills in ------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        """One tiny op, so lazy imports are paid before the timed region."""
        tiny = "real A(8)\nreal B(8)\nA(1:7) = A(1:7) + B(2:8)\n"
        align_and_distribute(parse(tiny, name="warmup"), nprocs=2)

    def run_round(self, rec: Recorder, tracer: Optional[Tracer] = None) -> None:
        raise NotImplementedError

    def item_of(self, op: str) -> str:
        """The row an op's latency is reported under (default: itself)."""
        return op

    def check_op(self, op: str, outcome: Outcome) -> Optional[str]:
        """Compare one distinct op's outcome with the committed expected file."""
        return self.expected.mismatch(outcome.key, outcome.label, outcome.facts)

    def check_run(self, rec: Recorder) -> list[str]:
        """Workload-level invariants (outcome mixes, access log)."""
        return []

    def simulable(self, op: str, outcome: Outcome):
        """``(plan, topology)`` the simulator can measure for this op."""
        return (outcome.plan, outcome.topology) if outcome.plan is not None else None

    def trace_extras(self, rec: Recorder, tracer: Tracer, plain: Optional[Recorder]) -> dict:
        """Layer metrics that need an experiment of their own (``plain``:
        the untraced rounds of a ``compare_untraced`` workload)."""
        return {}

    def setup_samples(self, own: float, n: int) -> list[float]:
        """This process's start-to-ready seconds plus the same set-up
        repeated in ``n`` fresh interpreters (each prints its own), so
        ``setup_s`` is a median of ``n + 1``."""
        out = [own]
        cmd = corpus.run_cmd(self.name, self.seed)
        for _ in range(n):
            done = subprocess.run(cmd, env=corpus.child_env("only"), capture_output=True, text=True, timeout=150, check=True)
            out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
        return out

    def close(self) -> None:
        pass

    # -- shared check phase -------------------------------------------------
    def check(self, rec: Recorder) -> list[str]:
        failures = list(rec.errors)
        for op, outcome in rec.outcomes.items():
            bad = self.check_op(op, outcome)
            if bad:
                failures.append(bad)
        failures.extend(self.check_run(rec))
        ops = sorted(rec.outcomes)
        random.Random(self.seed).shuffle(ops)
        for op in ops:
            if self.verified_ops == self.sim_sample:
                break
            target = self.simulable(op, rec.outcomes[op])  # may plan the op cold: only as many as needed
            if target is None:
                continue
            t0 = perf()
            bad = corpus.simulate(*target)
            self.sim_seconds.append(perf() - t0)
            self.verified_ops += 1
            if bad:
                failures.append(f"{op}: {bad}")
        return failures

    def plan_cost_sum(self, rec: Recorder) -> float:
        return sum(corpus.plan_cost(o.facts) for o in rec.outcomes.values())

    def counts(self, rec: Recorder) -> dict:
        """Exact per-round counts read off the distinct ops' outcomes."""
        out = dict.fromkeys(
            ("lang.ast_nodes", "adg.nodes", "adg.edges", "align.replication_rounds",
             "distrib.move_records", "distrib.candidates_searched"), 0
        )
        exact = []
        programs = set()
        for o in rec.outcomes.values():
            if "exact" in o.facts:
                exact.append(bool(o.facts["exact"]))
            plan = o.plan
            if plan is None:
                continue
            out["distrib.candidates_searched"] += plan.distribution.searched
            if o.key in programs:
                continue  # one program swept over many machines counts once
            programs.add(o.key)
            out["lang.ast_nodes"] += _ast_nodes(plan.program)
            out["adg.nodes"] += len(plan.adg.nodes)
            out["adg.edges"] += len(plan.adg.edges)
            out["align.replication_rounds"] += plan.replication_rounds
            if o.ctx is not None and o.ctx.has("profile"):
                out["distrib.move_records"] += len(o.ctx.get("profile").records)
        out["distrib.exact_share"] = sum(exact) / len(exact) if exact else 0.0
        return out


# ---------------------------------------------------------------------------


class ColdKernels(Workload):
    name = "cold_kernels"
    sim_sample = 16
    compare_untraced = True

    def setup(self) -> None:
        self.items = corpus.load_items()

    def _op(self, item, tracer):
        cachestats.clear_caches()
        if tracer is None:
            t0 = perf()
            plan = align_and_distribute(parse(item.source, name=item.name), nprocs=NPROCS)
            return perf() - t0, plan, None
        t0 = perf()
        with tracer.span("op", op=item.name):
            with tracer.span("lang.parse"):
                program = parse(item.source, name=item.name)
            ctx = plan_context(program)
            ctx.put("machine", MachineSpec.of(NPROCS))
            pipe = Pipeline()
            for _, goal, span in STEPS:
                with tracer.span(span):
                    pipe.run(ctx, goal=goal)
            plan = _attach(ctx)
        return perf() - t0, plan, ctx

    def run_round(self, rec, tracer=None):
        for item in self.rng.sample(self.items, len(self.items)):
            try:
                seconds, plan, ctx = self._op(item, tracer)
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted failure
                rec.fail(item.name, repr(exc))
                continue
            rec.add(item.name, seconds, Outcome(item.name, corpus.P16, plan, ctx=ctx))

    def trace_extras(self, rec, tracer, plain):
        """Same ops inside ``obs.recording()`` against the untraced medians."""
        recorded = Recorder()
        with obs.recording(label="perf"):
            self.run_round(recorded)
        recorded.probe()
        return {"obs.trace_overhead_share.cold": stats.median_ratio(recorded.samples, plain.samples) - 1.0}


class MachineSweep(Workload):
    name = "machine_sweep"

    def setup(self) -> None:
        items = {i.name: i for i in corpus.load_items()}
        pipe = Pipeline()
        self.blobs = {}
        for name in SWEEP_PREFIXES:
            ctx = plan_context(parse(items[name].source, name=name))
            pipe.run(ctx, goal=("plan", "profile"))
            # Every op starts from a freshly unpickled prefix (as a pool
            # worker of plan_sweep does), so no op inherits the profile
            # memos an earlier op filled and each is the same work.
            self.blobs[name] = pickle.dumps(ctx)
        self.ops = [(p, m) for p in SWEEP_PREFIXES for m in SWEEP_MACHINES]

    def _op(self, prefix, spec, tracer):
        cachestats.clear_caches()
        base = pickle.loads(self.blobs[prefix])
        machine = MachineSpec.of(topology=spec)
        pipe = Pipeline()
        t0 = perf()
        if tracer is None:
            sub = base.fork()
            sub.put("machine", machine)
            pipe.run(sub, goal="distribution")
        else:
            with tracer.span("op", op=f"{prefix}@{spec}"):
                with tracer.span("passes.fork"):
                    sub = base.fork()
                    sub.put("machine", machine)
                with tracer.span("distrib.distribute"):
                    pipe.run(sub, goal="distribution")
        seconds = perf() - t0
        if tracer is not None:
            with tracer.span("passes.reuse_check", op="reuse_check"):
                pipe.run(sub, goal="distribution")
        return seconds, sub

    def run_round(self, rec, tracer=None):
        for prefix, spec in self.rng.sample(self.ops, len(self.ops)):
            op = f"{prefix}@{spec}"
            try:
                seconds, sub = self._op(prefix, spec, tracer)
            except Exception as exc:  # noqa: BLE001
                rec.fail(op, repr(exc))
                continue
            plan = _attach(sub)
            rec.add(op, seconds, Outcome(prefix, spec, plan, spec, sub))

    def trace_extras(self, rec, tracer, plain):
        """The same sweep through ``replan(base, machine=...)``."""
        for prefix, spec in self.ops:
            base = pickle.loads(self.blobs[prefix])
            with tracer.span("delta.machine_only", op="machine_only"):
                replan(base, machine=MachineSpec.of(topology=spec), goal="distribution")
        return {}


# ---------------------------------------------------------------------------


def _serve_request(item, machine, base_fingerprint=None) -> ServeRequest:
    nprocs, topology = machine
    return ServeRequest(item.name, item.source, nprocs, topology, base_fingerprint)


def _wire_request(item, machine) -> bytes:
    nprocs, topology = machine
    msg = {"op": "plan", "name": item.name, "source": item.source}
    if nprocs is not None:
        msg["nprocs"] = nprocs
    if topology is not None:
        msg["topology"] = topology
    return json.dumps(msg).encode() + b"\n"


class Daemon:
    """One ``python -m repro.serve`` subprocess and a persistent connection."""

    def __init__(self, cache_dir: str, access_log: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        self.t_spawn = perf()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0", "--cache-dir", cache_dir,
             "--access-log", access_log],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True,
        )
        try:
            listening = json.loads(self.proc.stdout.readline())
            self.sock = socket.create_connection((listening["host"], listening["port"]), timeout=60)
            self.reader = self.sock.makefile("rb")
        except Exception:
            self.proc.kill()
            self.proc.wait()
            raise

    def call(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.reader.readline()

    def close(self) -> None:
        try:
            self.call(b'{"op": "shutdown"}\n')
            self.sock.close()
            self.proc.wait(timeout=30)
        except Exception:  # noqa: BLE001 - never leave the daemon behind
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class ServeWarm(Workload):
    name = "serve_warm"
    has_children = True
    sim_sample = 4

    def setup(self) -> None:
        self.items = {i.name: i for i in corpus.load_items()}
        self.cache_dir = os.path.join(self.workdir, "warm-cache")
        self.access_log = os.path.join(self.workdir, "warm-access.jsonl")
        self.keys = [(n, m) for n in self.items for m in SERVE_MACHINES]
        # The primed directory is an input prepared on disk, like the
        # corpus; set-up is what a daemon pays to serve from it.
        self.cold_payload = {}
        with PlanService(cache_dir=self.cache_dir) as svc:
            for name, machine in self.keys:
                resp = svc.handle(_serve_request(self.items[name], machine))
                if not resp.ok:
                    raise RuntimeError(f"priming {name}: {resp.error}")
                self.cold_payload[(name, machine)] = dict(resp.plan)
        self.requests_sent = 0
        self.wire_bytes = 0
        self.spawn_seconds = []
        self.daemon = None
        self._spawn()

    def _spawn(self) -> None:
        """Start a daemon on the primed directory and time spawn → first hit."""
        if self.daemon is not None:
            self.daemon.close()
        before = probe_reading(5)
        self.daemon = Daemon(self.cache_dir, self.access_log)
        name, machine = self.keys[0]
        self._call(name, machine)
        self.spawn_seconds.append(ready_seconds(self.daemon.t_spawn, before))

    def setup_samples(self, own, n):
        """Daemon spawn → first hit answered, ``n + 1`` times: what a
        daemon pays (import, warm start) to serve from a primed directory."""
        for _ in range(n):
            self._spawn()
        return self.spawn_seconds

    def _call(self, name, machine) -> dict:
        line = _wire_request(self.items[name], machine)
        reply = self.daemon.call(line)
        self.requests_sent += 1
        self.wire_bytes += len(line) + len(reply)
        return json.loads(reply)

    def run_round(self, rec, tracer=None):
        for _ in range(WARM_REPEATS):
            for name, machine in self.rng.sample(self.keys, len(self.keys)):
                op = f"{name}@{machine_label(*machine)}"
                t0 = perf()
                try:
                    if tracer is None:
                        reply = self._call(name, machine)
                    else:
                        with tracer.span("serve.rtt", op=op):
                            reply = self._call(name, machine)
                except Exception as exc:  # noqa: BLE001
                    rec.fail(op, repr(exc))
                    continue
                seconds = perf() - t0
                if reply.get("status") != "ok" or reply.get("cached") != "plan":
                    rec.fail(op, f"status={reply.get('status')} cached={reply.get('cached')}")
                    continue
                rec.add(op, seconds, Outcome(name, machine_label(*machine), _facts=corpus.payload_facts(reply["plan"]),
                                             info={"payload": reply["plan"], "machine": machine}))

    def check_op(self, op, outcome):
        bad = super().check_op(op, outcome)
        if bad is None and outcome.info["payload"] != self.cold_payload[(outcome.key, outcome.info["machine"])]:
            bad = f"{op}: hit payload differs from the cold payload it was stored from"
        return bad

    def check_run(self, rec):
        self.daemon.close()  # flushes nothing (O_APPEND writes), but ends the log
        records = [r for r in read_access_log(self.access_log) if r.get("kind") == "access"]
        self.daemon = None
        if len(records) != self.requests_sent:
            return [f"access log holds {len(records)} records for {self.requests_sent} requests"]
        return []

    def simulable(self, op, outcome):
        item = self.items[outcome.key]
        nprocs, topology = outcome.info["machine"]
        opts = {"topology": topology} if topology else None
        plan = align_and_distribute(parse(item.source, name=item.name), nprocs=16, distrib_options=opts)
        if corpus.payload_facts(outcome.info["payload"])["directive"] != plan.distribution.directive():
            return None
        return plan, topology

    def trace_extras(self, rec, tracer, plain):
        """The same hits in-process, and each layer of a hit on its own."""
        out = {}
        starts = []
        for _ in range(5):
            t0 = perf()
            cache = PlanCache(self.cache_dir)
            starts.append(perf() - t0)
        out["serve.cache.warm_start_ms"] = stats.median(starts) * 1e3
        reqs = [_serve_request(self.items[n], m) for n, m in self.keys]
        with PlanService(cache_dir=self.cache_dir) as svc:
            direct, recorded = [], []
            for _ in range(4):
                for req in reqs:
                    with tracer.span("serve.handle.plan", op="handle"):
                        t0 = perf()
                        svc.handle(req)
                        direct.append(perf() - t0)
                with obs.recording(label="perf"):
                    for req in reqs:
                        t0 = perf()
                        svc.handle(req)
                        recorded.append(perf() - t0)
        out["obs.trace_overhead_share.warm"] = stats.median(recorded) / stats.median(direct) - 1.0
        for name, machine in self.keys:
            item = self.items[name]
            with tracer.span("hit_layers", op="hit_layers"):
                with tracer.span("lang.parse"):
                    program = parse(item.source, name=name)
                with tracer.span("passes.fingerprint"):
                    ctx = plan_context(program)
                    key = (
                        ctx.artifact("program").fingerprint,
                        ctx.artifact("align_options").fingerprint,
                        content_fingerprint(MachineSpec.of(machine[0], topology=machine[1])),
                    )
                with tracer.span("serve.cache.get.plan"):
                    cache.get("plan", key)
        rtt = stats.median([s for v in rec.raw.values() for s in v])
        out["serve.wire_ms"] = (rtt - stats.median(direct)) * 1e3
        out["serve.wire_bytes"] = self.wire_bytes / self.requests_sent
        return out

    def close(self):
        if self.daemon is not None:
            self.daemon.close()


class TimedCache:
    """A ``PlanCache`` with a harness span around every get and put."""

    def __init__(self, cache: PlanCache, tracer: Tracer) -> None:
        self._cache = cache
        self._tracer = tracer

    def get(self, namespace, key):
        with self._tracer.span(f"serve.cache.get.{namespace}"):
            return self._cache.get(namespace, key)

    def put(self, namespace, key, payload):
        with self._tracer.span(f"serve.cache.put.{namespace}"):
            return self._cache.put(namespace, key, payload)

    def __len__(self):
        return len(self._cache)

    def __getattr__(self, name):
        return getattr(self._cache, name)


class ServeChurn(Workload):
    """Eight waves of two programs each over a 12-entry cache.

    A wave plans its two programs cold on the first machine, on the other
    two machines off the cached prefix, repeats all six keys as plan hits,
    replans a label edit of each program off its base fingerprint, and
    quotes the base of a program two waves back — long evicted, so the
    request degrades to a cold plan.  A wave stores at most 12 entries
    before its stale probe, so it evicts exactly the previous wave and
    never an entry it still needs: the outcome of every request is fixed
    by construction, whatever order ``--seed`` gives the waves.
    """

    name = "serve_churn"
    sim_sample = 4

    def setup(self) -> None:
        self.items = {i.name: i for i in corpus.load_items()}
        self.edits = {e.name: e for e in corpus.load_edits()}
        self.round_no = 0
        self.requests_sent = 0
        self.svc = None
        self.stats = {"hits": 0, "misses": 0, "evictions": 0}

    def _schedule(self) -> list[tuple[str, object, tuple, Optional[str]]]:
        """One round: ``(expected outcome, item, machine, base kernel)``."""
        first = self.rng.sample(CHURN_EDIT_KERNELS, len(CHURN_EDIT_KERNELS))
        second = self.rng.sample(
            sorted(set(self.items) - set(CHURN_EDIT_KERNELS)), len(self.items) - len(first)
        )
        m0 = CHURN_MACHINES[0]
        out = []
        for g, pair in enumerate(zip(first, second)):
            progs = [self.items[k] for k in pair]
            out += [("cold", p, m0, None) for p in self.rng.sample(progs, 2)]
            others = [(p, m) for p in progs for m in CHURN_MACHINES[1:]]
            out += [("prefix", p, m, None) for p, m in self.rng.sample(others, len(others))]
            keys = [(p, m) for p in progs for m in CHURN_MACHINES]
            for _ in range(CHURN_HIT_REPEATS):
                out += [("plan", p, m, None) for p, m in self.rng.sample(keys, len(keys))]
            for p in progs:
                edit = self.edits.get(f"{p.name}.op_swap")
                if edit is not None:
                    out.append(("delta", edit, m0, p.name))
            gone = first[(g - 2) % len(first)]
            out.append(("stale", self.edits[f"{gone}.iters_change"], m0, gone))
        return out

    def run_round(self, rec, tracer=None):
        if self.svc is not None:
            self.svc.close()
        self.round_no += 1
        root = os.path.join(self.workdir, f"churn-{self.round_no}")
        self.cache_dir = os.path.join(root, "cache")
        self.access_log = os.path.join(root, "access.jsonl")
        os.makedirs(root)
        self.svc = PlanService(cache_dir=self.cache_dir, max_entries=CHURN_MAX_ENTRIES, access_log=self.access_log)
        if tracer is not None:
            self.svc.cache = TimedCache(self.svc.cache, tracer)
        self.requests_sent = 0
        fingerprint = {}
        stored = {}
        self.outcome_counts = dict.fromkeys(OUTCOMES, 0)
        for want, item, machine, base in self._schedule():
            op = f"{want}:{item.name}@{machine_label(*machine)}"
            # A base this round has not planned yet is as stale as an evicted one.
            base_fp = None if base is None else fingerprint.get(base, "0" * 12)
            request = _serve_request(item, machine, base_fp)
            self.requests_sent += 1
            t0 = perf()
            if tracer is None:
                resp = self.svc.handle(request)
            else:
                with tracer.span(f"serve.handle.{want}", op=op):
                    resp = self.svc.handle(request)
            seconds = perf() - t0
            got = resp.cached or ("stale" if request.base_fingerprint else "cold")
            if not resp.ok or got != want:
                rec.fail(op, f"status={resp.status} outcome={got} error={resp.error}")
                continue
            fingerprint[item.name] = resp.fingerprints["program"]
            key = (item.name, machine)
            if want == "plan" and dict(resp.plan) != stored[key]:
                rec.fail(op, "hit payload differs from the cold payload it was stored from")
                continue
            stored[key] = dict(resp.plan)
            self.outcome_counts[want] += 1
            rec.add(op, seconds, Outcome(item.name, machine_label(*machine), _facts=corpus.payload_facts(resp.plan),
                                         info={"item": item, "machine": machine}))
        s = self.svc.cache.stats
        self.stats = {"hits": s.hits, "misses": s.misses, "evictions": s.evictions}

    def item_of(self, op):
        return op.split(":", 1)[0]

    def check_run(self, rec):
        records = [r for r in read_access_log(self.access_log) if r.get("kind") == "access"]
        if len(records) != self.requests_sent:
            return [f"access log holds {len(records)} records for {self.requests_sent} requests"]
        return []

    def simulable(self, op, outcome):
        if not op.startswith("cold:"):
            return None
        item = outcome.info["item"]
        return align_and_distribute(parse(item.source, name=item.name), nprocs=NPROCS), None

    def trace_extras(self, rec, tracer, plain):
        out = {f"serve.outcome.{o}_count": n for o, n in self.outcome_counts.items()}
        out["serve.cache.evictions"] = self.stats["evictions"]
        out["serve.cache.hit_share"] = self.stats["hits"] / (self.stats["hits"] + self.stats["misses"])
        for ns in ("plan", "prefix"):
            d = os.path.join(self.cache_dir, ns)
            sizes = [os.path.getsize(os.path.join(d, f)) for f in os.listdir(d) if f.endswith(".pkl")]
            out[f"serve.cache.entry_bytes.{ns}"] = stats.median(sizes) if sizes else 0
        # Access-log cost on the ops where it is largest relative to the
        # work: the keys still resident, as plan hits, with and without it.
        resident = [
            _serve_request(o.info["item"], o.info["machine"])
            for op, o in rec.outcomes.items()
            if op.startswith("plan:")
        ][-6:]
        timings = {}
        for label, log in (("with", os.path.join(self.workdir, "overhead-access.jsonl")), ("without", None)):
            with PlanService(cache_dir=self.cache_dir, max_entries=CHURN_MAX_ENTRIES, access_log=log) as svc:
                samples = []
                for _ in range(40):
                    for req in resident:
                        t0 = perf()
                        resp = svc.handle(req)
                        if resp.cached == "plan":
                            samples.append(perf() - t0)
                timings[label] = stats.median(samples) if samples else 0.0
        if timings["without"]:
            out["serve.access_log_overhead_share"] = timings["with"] / timings["without"] - 1.0
        return out

    def close(self):
        if self.svc is not None:
            self.svc.close()


# ---------------------------------------------------------------------------


class Edits(Workload):
    classes: tuple[str, ...] = ()

    def setup(self) -> None:
        self.edits = corpus.load_edits(self.classes)
        items = {i.name: i for i in corpus.load_items()}
        pipe = Pipeline()
        self.bases = {}
        for kernel in sorted({e.kernel for e in self.edits}):
            ctx = plan_context(parse(items[kernel].source, name=kernel))
            ctx.put("machine", MachineSpec.of(NPROCS))
            pipe.run(ctx, goal=("plan", "distribution"))
            self.bases[kernel] = ctx
        self.reports = {}

    def _op(self, edit, tracer):
        base = self.bases[edit.kernel]
        t0 = perf()
        if tracer is None:
            ctx, report = replan(base, parse(edit.source, name=edit.kernel))
        else:
            with tracer.span("op", op=edit.name):
                with tracer.span("lang.parse"):
                    program = parse(edit.source, name=edit.kernel)
                with tracer.span(f"delta.replan.{edit.edit_class}"):
                    ctx, report = replan(base, program)
                    _add_pass_spans(tracer, ctx)
        return perf() - t0, ctx, report

    def run_round(self, rec, tracer=None):
        for edit in self.rng.sample(self.edits, len(self.edits)):
            try:
                seconds, ctx, report = self._op(edit, tracer)
            except Exception as exc:  # noqa: BLE001
                rec.fail(edit.name, repr(exc))
                continue
            plan = _attach(ctx)
            self.reports.setdefault(edit.name, report)
            rec.add(edit.name, seconds, Outcome(edit.name, corpus.P16, plan, ctx=ctx))

    def trace_extras(self, rec, tracer, plain):
        out = {}
        cold = Recorder()
        for edit in self.edits:
            with tracer.span("delta.diff", op="diff"):
                diff_programs(self.bases[edit.kernel].get("program"), parse(edit.source, name=edit.kernel))
            t0 = perf()
            align_and_distribute(parse(edit.source, name=edit.kernel), nprocs=NPROCS)
            cold.add(edit.name, perf() - t0, None)
        cold.probe()
        ratios = {c: [] for c in self.classes}
        for edit in self.edits:
            if edit.name in rec.samples:
                ratios[edit.edit_class].append(cold.samples[edit.name][0] / stats.median(rec.samples[edit.name]))
        for c, vals in ratios.items():
            if vals:
                out[f"delta.cold_ratio.{c}"] = stats.median(vals)
        for s in STRATEGIES:
            out[f"delta.strategy.{s}_count"] = sum(1 for r in self.reports.values() if r.strategy == s)
        reused = sum(r.reused_entries for r in self.reports.values())
        total = reused + sum(r.recomputed_entries for r in self.reports.values())
        out["delta.reused_entry_share"] = reused / total if total else 0.0
        return out


class EditLabel(Edits):
    name = "edit_label"
    classes = LABEL_CLASSES


class EditStructural(Edits):
    name = "edit_structural"
    classes = tuple(c for c in EDIT_CLASSES if c not in LABEL_CLASSES)


class BatchPool(Workload):
    name = "batch_pool"
    has_children = True

    def setup(self) -> None:
        # Two programs of each generator family.  Its 48-program corpus
        # spends 10 s a call at nprocs=16, 70 % of it in the axis-stride
        # DP of five `reduction`/`twod` programs — that would time one
        # solver, not the pool.  The seed orders the corpus; its content
        # is pinned, so plan costs and work are the same on every seed.
        self.corpus = generate_corpus(BATCH_PROGRAMS, seed=0)
        self.by_name = {s.name: s for s in self.corpus}

    def run_round(self, rec, tracer=None, **kw):
        order = self.rng.sample(self.corpus, len(self.corpus))
        t0 = perf()
        try:
            if tracer is None:
                report = plan_many(order, nprocs=NPROCS, jobs=BATCH_JOBS, **kw)
            else:
                with tracer.span("batch.pool", op="plan_many"):
                    report = plan_many(order, nprocs=NPROCS, jobs=BATCH_JOBS, **kw)
        except Exception as exc:  # noqa: BLE001 - the call failed: so did every program in it
            for scenario in order:
                rec.fail(scenario.name, repr(exc))
            return
        rec.add_call("plan_many", perf() - t0)
        self.last_report = report
        for r in report.results:
            if not r.ok:
                rec.fail(r.name, r.error or "failed")
            else:
                rec.add(r.name, r.seconds, Outcome("generated", r.name, _facts=corpus.result_facts(r), info={"verified": r.verified}))

    def check_run(self, rec):
        """``plan_many(verify=True)`` once, untimed: analytic == simulator."""
        verified = Recorder()
        self.run_round(verified, verify=True)
        self.verified_ops = len(verified.outcomes)
        bad = [op for op, o in verified.outcomes.items() if o.info["verified"] is not True]
        return [f"{op}: model/simulator mismatch" for op in bad] + verified.errors

    def trace_extras(self, rec, tracer, plain):
        pool_s = stats.median(rec.calls["plan_many"])
        results = self.last_report.results
        serial_rec = Recorder()
        t0 = perf()
        with tracer.span("batch.serial", op="plan_many_serial"):
            serial = plan_many(self.corpus, nprocs=NPROCS, serial=True)
        serial_rec.add_call("serial", perf() - t0)
        serial_rec.probe()
        serial_s = serial_rec.calls["serial"][0]
        n = len(self.corpus)
        return {
            "batch.serial_plans_per_s": len(serial.ok) / serial_s,
            "batch.pool_plans_per_s": n / pool_s,
            "batch.pool_efficiency": (n / pool_s) / (len(serial.ok) / serial_s * BATCH_JOBS),
            "batch.result_pickle_bytes": len(pickle.dumps(results)),
        }


WORKLOADS = {
    w.name: w
    for w in (ColdKernels, MachineSweep, ServeWarm, ServeChurn, EditLabel, EditStructural, BatchPool)
}


def cache_counts(before: dict, after: dict) -> dict:
    """``cache.<cell>.lookups`` / ``.hit_share`` between two cachestats snapshots."""
    delta = cachestats.delta(before, after)
    out = {}
    for cell in CACHE_CELLS:
        hits, misses = delta.get(cell, (0, 0))
        out[f"cache.{cell}.lookups"] = hits + misses
        out[f"cache.{cell}.hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    return out
