"""Planning as a service: daemon, service core, and persistent cache.

Everything below :mod:`repro.batch` is one-shot; this package is the
long-running front end the north star asks for.  Three layers:

* :mod:`repro.serve.cache` — :class:`PlanCache`: a persistent,
  fingerprint-keyed, schema-versioned, LRU-bounded on-disk cache with
  atomic writes and warm start;
* :mod:`repro.serve.service` — :class:`PlanService`: admission with
  bounded backpressure, cache probe, cold-miss sharding over a
  worker-process pool, :mod:`repro.obs` spans and metrics throughout.
  It plans nothing itself: cold, prefix-hit and delta answers are calls
  to the planning kernel (:mod:`repro.align.pipeline`);
* :mod:`repro.serve.daemon` — :class:`PlanDaemon`: the asyncio
  JSON-lines TCP front end (``python -m repro.serve``), with a
  Prometheus ``/metrics`` scrape mode and structured lifecycle events;
* :mod:`repro.serve.accesslog` — :class:`AccessLog`: the JSON-lines
  per-request access log (and daemon event log), with deterministic
  trace sampling.

Quickstart (in-process)::

    from repro.serve import PlanService, ServeRequest

    with PlanService(cache_dir="/tmp/repro-cache") as svc:
        r1 = svc.handle(ServeRequest("q", SOURCE, nprocs=4))   # cold
        r2 = svc.handle(ServeRequest("q", SOURCE, nprocs=4))   # cached="plan"
        assert r1.plan == r2.plan
"""

from .accesslog import AccessLog, read_access_log
from .cache import (
    MISS,
    SCHEMA_VERSION,
    CacheStats,
    PlanCache,
)
from .daemon import PlanDaemon, run_daemon
from .service import (
    DEFAULT_NPROCS,
    PlanService,
    ServeRequest,
    ServeResponse,
)

__all__ = [
    "AccessLog",
    "CacheStats",
    "DEFAULT_NPROCS",
    "MISS",
    "PlanCache",
    "PlanDaemon",
    "PlanService",
    "SCHEMA_VERSION",
    "ServeRequest",
    "ServeResponse",
    "read_access_log",
    "run_daemon",
]
