"""Unit tests for the metrics registry and instrument kinds."""

import numpy as np
import pytest

from repro.obs.metrics import (
    METRIC_CATALOGUE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_names,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(4.5)
        assert counter.value == 5.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("x")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("x", edges=[1.0, 10.0, 100.0])
        hist.observe(0.5)    # below first edge -> bucket 0
        hist.observe(1.0)    # at edge 0 -> bucket 1
        hist.observe(50.0)   # bucket 2
        hist.observe(1e6)    # above last edge -> final bucket
        assert list(hist.counts) == [1.0, 1.0, 1.0, 1.0]
        assert hist.total == 4.0
        assert hist.mean() == pytest.approx((0.5 + 1 + 50 + 1e6) / 4)

    def test_observe_many_matches_scalar_path(self):
        values = np.array([0.1, 5.0, 5.0, 200.0, 1e9])
        batch = Histogram("x", edges=[1.0, 10.0, 100.0])
        batch.observe_many(values)
        scalar = Histogram("x", edges=[1.0, 10.0, 100.0])
        for value in values:
            scalar.observe(float(value))
        assert list(batch.counts) == list(scalar.counts)
        assert batch.sum == pytest.approx(scalar.sum)

    def test_observe_many_empty_is_noop(self):
        hist = Histogram("x", edges=[1.0])
        hist.observe_many(np.array([]))
        assert hist.total == 0.0

    def test_observe_runs_matches_observe_many_per_run(self):
        """Runs fold exactly like one ``observe_many`` per non-empty run,
        including the order ``sum`` takes each run's total in (the sum
        starts at 2**53 - 1, where unit steps round away)."""
        values = np.array([1, 1, 7, 300, 2, 2**40, 1], dtype=np.int64)
        bounds = np.array([0, 1, 1, 3, 6, 7])
        runs = Histogram("x", edges=[1.0, 10.0, 100.0])
        per_run = Histogram("x", edges=[1.0, 10.0, 100.0])
        runs.sum = per_run.sum = 2.0**53 - 1
        runs.observe_runs(values, bounds)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                per_run.observe_many(values[lo:hi])
        assert list(runs.counts) == list(per_run.counts)
        assert runs.total == per_run.total
        assert runs.sum == per_run.sum

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("x", edges=[])
        with pytest.raises(ValueError):
            Histogram("x", edges=[2.0, 1.0])


class TestRegistry:
    def test_precreates_full_catalogue(self):
        snap = MetricsRegistry().snapshot()
        names = (
            set(snap["counters"])
            | set(snap["gauges"])
            | set(snap["histograms"])
        )
        assert names == set(metric_names())

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            MetricsRegistry().counter("no.such_metric")

    def test_kind_mismatch_raises_typeerror(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.gauge("scan.windows")  # it's a counter
        with pytest.raises(TypeError):
            registry.counter("promotion.queue_depth")  # it's a gauge

    def test_snapshot_is_json_compatible(self):
        import json

        registry = MetricsRegistry()
        registry.counter("scan.windows").inc(3)
        registry.gauge("promotion.queue_depth").set(7)
        registry.histogram("fault.cit_ns").observe_many(
            np.array([1e3, 1e6, 1e9])
        )
        snap = registry.snapshot()
        round_trip = json.loads(json.dumps(snap))
        assert round_trip["counters"]["scan.windows"] == 3
        assert round_trip["histograms"]["fault.cit_ns"]["total"] == 3

    def test_histogram_edges_from_catalogue(self):
        registry = MetricsRegistry()
        hist = registry.histogram("migration.batch_pages")
        assert list(hist.edges) == list(
            METRIC_CATALOGUE["migration.batch_pages"].edges
        )
