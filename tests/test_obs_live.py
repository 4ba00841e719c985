"""Cumulative metrics, their exact differences, SLOs, and Prometheus
exposition.

Covers the exact ``to_dict``/``from_dict`` round trip and the
:meth:`~repro.obs.metrics.Histogram.since` difference every rolling view
is read through (a hypothesis test holds it equal to a histogram of the
observations in between), metric thread-safety (a hammer asserting
*exact* counts under concurrent increments, plus the overhead guard),
SLO burn-rate math over a snapshot and over the difference of two, and
:mod:`repro.obs.prom`, checked against the from-scratch Prometheus
format oracle in ``tests/obs_formats.py``.
"""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.prom import render_prometheus, sanitize
from repro.obs.slo import burn, serve_slo_report

from obs_formats import bucket_histogram, check_exposition


# -- histogram round trips (the substrate since() relies on) ------------------


class TestHistogramRoundTrips:
    def test_to_from_dict_exact(self):
        h = Histogram("lat")
        for v in (0.0, 0.1, 1.0, 3.7, 42.0, 42.0, 1e6):
            h.observe(v)
        d = h.to_dict()
        back = Histogram.from_dict("lat", d)
        assert back.count == h.count
        assert back.total == h.total
        assert back.min == h.min and back.max == h.max
        assert back.zeros == h.zeros
        assert back.buckets == h.buckets
        assert back.summary() == h.summary()

    def test_to_dict_is_json_clean_when_empty(self):
        d = Histogram("empty").to_dict()
        assert d["min"] is None and d["max"] is None
        assert d["count"] == 0 and d["buckets"] == {}
        # and it round-trips back to the infinities sentinel state
        back = Histogram.from_dict("empty", d)
        assert back.min == math.inf and back.max == -math.inf

    def test_count_le_is_conservative(self):
        h = Histogram("lat")
        for v in (0.0, 1.0, 10.0, 100.0):
            h.observe(v)
        assert h.count_le(-1.0) == 0
        assert h.count_le(0.0) == 1  # just the zero
        # 1.0 is an exact bucket upper edge (base**0): included.
        assert h.count_le(1.0) == 2
        # A threshold strictly inside 10.0's bucket must not credit it.
        assert h.count_le(9.0) == 2
        assert h.count_le(1e9) == 4


# -- the exact difference every rolling view is read through -----------------

_VALUES = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-6, max_value=1e9, allow_nan=False),
    ),
    max_size=60,
)


class TestHistogramSince:
    @settings(max_examples=200, deadline=None)
    @given(before=_VALUES, after=_VALUES)
    def test_equals_a_histogram_of_the_observations_in_between(
        self, before, after
    ):
        cumulative = Histogram("h")
        for v in before:
            cumulative.observe(v)
        earlier = cumulative.to_dict()
        for v in after:
            cumulative.observe(v)
        diff = cumulative.since(earlier)
        # Extremes do not subtract, so the reference knows them only at
        # bucket resolution too; everything else is read off the buckets.
        later = bucket_histogram(after)
        assert (diff.count, diff.zeros, diff.buckets) == (
            later.count, later.zeros, later.buckets,
        )
        assert (diff.min, diff.max) == (later.min, later.max)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert diff.percentile(q) == later.percentile(q)
        for threshold in (0.0, 1.0, 25.0, 1e3, 1e9):
            assert diff.count_le(threshold) == later.count_le(threshold)
        assert diff.total == pytest.approx(
            later.total, rel=1e-9, abs=1e-12 * cumulative.total
        )
        if after:
            # ...and those bucket edges bound the true extremes.
            assert diff.min <= min(after)
            assert diff.max >= max(after) * (1 - 1e-9)

    def test_nothing_in_between_is_empty(self):
        h = Histogram("h")
        h.observe(3.0)
        diff = h.since(h.to_dict())
        assert diff.count == 0 and diff.buckets == {}
        assert diff.summary() == Histogram("empty").summary()

    def test_refuses_a_snapshot_it_does_not_extend(self):
        h, other = Histogram("h"), Histogram("other")
        h.observe(5.0)
        other.observe(5.0)
        other.observe(9.0)
        with pytest.raises(ValueError, match="prefix"):
            h.since(other.to_dict())


# -- the registry's one record ------------------------------------------------


class TestRegistrySnapshot:
    def test_histograms_are_raw_and_render_as_summaries(self):
        reg = Registry()
        reg.counter("reqs").inc(5)
        h = reg.histogram("ms")
        h.observe(2.0)
        snap = reg.snapshot(include_cachestats=False)
        assert snap == {
            "counters": {"reqs": 5},
            "gauges": {},
            "histograms": {"ms": h.to_dict()},
        }
        rendered = reg.render(include_cachestats=False)
        assert "reqs" in rendered and "n=1" in rendered

    def test_kind_mismatch_raises(self):
        reg = Registry()
        reg.gauge("g")
        with pytest.raises(TypeError):
            reg.counter("g")


# -- thread-safety -------------------------------------------------------------


class TestConcurrency:
    THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, fn):
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                fn()

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_exact_under_hammer(self):
        c = Counter("c")
        self._hammer(c.inc)
        assert c.value == self.THREADS * self.PER_THREAD

    def test_gauge_inc_dec_exact_under_hammer(self):
        g = Gauge("g")
        self._hammer(g.inc)
        assert g.value == self.THREADS * self.PER_THREAD
        self._hammer(g.dec)
        assert g.value == 0

    def test_histogram_exact_under_hammer(self):
        h = Histogram("h")
        self._hammer(lambda: h.observe(1.0))
        expected = self.THREADS * self.PER_THREAD
        assert h.count == expected
        assert h.buckets == {0: expected}

    def test_locked_inc_overhead_within_guard(self):
        # The same guard style PR 7 put on disabled spans: an uncontended
        # locked increment must stay well under 20µs/call even on a slow
        # CI box (typically it is tens of nanoseconds).
        import timeit

        c = Counter("c")
        n = 20_000
        per_call = timeit.timeit(c.inc, number=n) / n
        assert per_call < 20e-6, f"Counter.inc at {per_call * 1e6:.2f}µs/call"


# -- gauges --------------------------------------------------------------------


class TestGauge:
    def test_inc_dec_from_unset(self):
        g = Gauge("g")
        assert g.value is None
        g.inc()
        g.inc(2)
        assert g.value == 3
        g.dec()
        assert g.value == 2
        g.set(10.0)
        assert g.value == 10.0


# -- SLOs ----------------------------------------------------------------------


class TestSLOs:
    def _report(self, reg):
        return serve_slo_report(reg.snapshot(include_cachestats=False))

    def test_no_traffic_is_perfect_compliance(self):
        report = self._report(Registry())
        assert list(report) == ["warm_latency", "availability"]
        for entry in report.values():
            assert entry["healthy"]
            assert entry["compliance"] == 1.0
            assert entry["burn_rate"] == 0.0
            assert entry["target"] == 0.99

    def test_error_rate_burn(self):
        reg = Registry()
        reg.counter("serve.requests").inc(100)
        reg.counter("serve.errors").inc(5)  # 5% bad against a 1% budget: burn 5x
        entry = self._report(reg)["availability"]
        assert entry["burn_rate"] == pytest.approx(5.0)
        assert not entry["healthy"]
        # The lifetime remembers; the interval since ``entry`` does not.
        reg.counter("serve.requests").inc(100)
        now = self._report(reg)["availability"]
        assert now["burn_rate"] == pytest.approx(2.5)
        last = burn(
            now["bad"] - entry["bad"], now["total"] - entry["total"],
            now["target"],
        )
        assert (last["total"], last["burn_rate"]) == (100, 0.0)

    def test_latency_at_budget_is_healthy(self):
        reg = Registry()
        h = reg.histogram("serve.warm_ms")
        for _ in range(99):
            h.observe(1.0)
        h.observe(1000.0)  # exactly the 1% budget
        entry = self._report(reg)["warm_latency"]
        assert (entry["bad"], entry["total"]) == (1, 100)
        assert entry["burn_rate"] == pytest.approx(1.0)
        assert entry["healthy"]  # burn == 1.0 is at, not over, budget


# -- Prometheus exposition -----------------------------------------------------


class TestPromRender:
    def _registry(self):
        reg = Registry()
        reg.counter("serve.requests").inc(5)
        reg.counter("plain.total.count").inc(2)
        reg.gauge("serve.inflight").set(3)
        reg.gauge("unset.gauge")  # must be omitted (no null in prom)
        h = reg.histogram("serve.ms")
        for v in (0.0, 0.5, 2.0, 100.0):
            h.observe(v)
        reg.histogram("empty.hist")
        return reg

    def test_render_is_valid(self):
        text = render_prometheus(self._registry(), include_cachestats=False)
        assert check_exposition(text) == []
        assert text.endswith("\n")
        assert "serve_requests_total 5" in text
        assert "serve_inflight 3" in text
        assert "unset_gauge" not in text
        assert "last_" not in text  # every family is cumulative

    def test_histogram_buckets_cumulative_and_complete(self):
        text = render_prometheus(self._registry(), include_cachestats=False)
        lines = [
            line for line in text.splitlines()
            if line.startswith("serve_ms_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf == _count
        assert 'le="0"' in lines[0]  # zeros made visible
        assert "serve_ms_count 4" in text

    def test_sanitize(self):
        assert sanitize("serve.hits.plan") == "serve_hits_plan"
        assert sanitize("9lives") == "_9lives"
        assert check_exposition(
            render_prometheus(self._registry(), include_cachestats=False)
        ) == []


class TestPromChecker:
    def test_rejects_garbage(self):
        assert check_exposition("") != []
        assert any(
            "unparseable" in e
            for e in check_exposition("!! not a metric line\n")
        )

    def test_rejects_missing_trailing_newline(self):
        errors = check_exposition("# TYPE a counter\na_total 1")
        assert any("newline" in e for e in errors)

    def test_rejects_negative_counter(self):
        bad = "# TYPE a_total counter\na_total -4\n"
        assert any("negative" in e for e in check_exposition(bad))

    def test_rejects_non_cumulative_histogram(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 9\n"
            "h_count 5\n"
        )
        assert any("cumulative" in e for e in check_exposition(bad))

    def test_rejects_inf_count_mismatch(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 9\n"
            "h_count 5\n"
        )
        assert any("_count" in e for e in check_exposition(bad))

    def test_rejects_type_after_samples(self):
        bad = "a_total 1\n# TYPE a_total counter\n"
        assert any("after its samples" in e for e in check_exposition(bad))

    def test_accepts_fullscale_exposition(self):
        reg = Registry()
        reg.histogram("h")
        text = render_prometheus(reg, include_cachestats=False)
        assert check_exposition(text) == []  # empty histograms included
