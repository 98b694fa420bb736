"""Metrics instruments and the jobs-invariance snapshot contract."""

from __future__ import annotations

import json

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    NULL_INSTRUMENT,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.session import ObsSession
from repro.sim import MachineConfig


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("attempts")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            Counter("attempts").inc(-1)

    def test_gauge_set_and_max(self):
        gauge = Gauge("frontier_peak")
        gauge.max(3)
        gauge.max(1)
        assert gauge.value == 3
        gauge.set(0)
        assert gauge.value == 0

    def test_histogram_buckets_and_summary(self):
        hist = Histogram("steps")
        for value in (1, 2, 3, 1024):
            hist.observe(value)
        rec = hist.to_record()
        assert rec["count"] == 4
        assert rec["sum"] == 1030
        assert rec["min"] == 1 and rec["max"] == 1024
        assert rec["buckets"]["le_1"] == 1
        assert rec["buckets"]["le_2"] == 1  # 2 falls on the bound
        assert rec["buckets"]["le_4"] == 1  # 3 rounds up to the next bound
        assert rec["buckets"]["le_1024"] == 1

    def test_histogram_overflow_bucket(self):
        hist = Histogram("huge")
        hist.observe(BUCKET_BOUNDS[-1] + 1)
        assert hist.to_record()["buckets"] == {"inf": 1}


class TestRegistry:
    def test_instruments_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_disabled_registry_hands_out_the_shared_null(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_INSTRUMENT
        assert registry.gauge("g") is NULL_INSTRUMENT
        assert registry.histogram("h") is NULL_INSTRUMENT
        assert NULL_METRICS.counter("x") is NULL_INSTRUMENT
        # the null instrument absorbs every verb silently
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.set(3)
        NULL_INSTRUMENT.observe(9)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_snapshot_is_json_ready_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.counter("alpha").inc(2)
        registry.histogram("steps").observe(10)
        registry.gauge("jobs").set(4)
        snapshot = json.loads(registry.to_json())
        assert list(snapshot["counters"]) == ["alpha", "zeta"]
        assert snapshot["gauges"]["jobs"] == 4
        assert snapshot["histograms"]["steps"]["count"] == 1

    def test_render_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("attempts").inc(3)
        registry.gauge("jobs").set(2)
        registry.histogram("steps").observe(7)
        text = registry.render()
        assert "attempts" in text and "jobs" in text and "steps" in text


def _recorded(bug_id: str):
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None, f"{bug_id}: no failing seed"
    return record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )


def _deterministic_view(session: ObsSession):
    """The snapshot minus gauges (which may carry wall/host figures)."""
    snapshot = session.metrics.snapshot()
    return {"counters": snapshot["counters"],
            "histograms": snapshot["histograms"]}


class TestJobsInvariance:
    """Counters/histograms are identical for any jobs at fixed batch_size."""

    @pytest.mark.parametrize("bug_id",
                             ["pbzip2-order-free", "openldap-deadlock"])
    def test_jobs_1_vs_jobs_4_snapshots_match(self, bug_id):
        recorded = _recorded(bug_id)
        config = ExplorerConfig(max_attempts=25, batch_size=8)
        views = {}
        for jobs in (1, 4):
            session = ObsSession.create(trace=False, metrics=True)
            reproduce(recorded, config, jobs=jobs, obs=session)
            views[jobs] = _deterministic_view(session)
        assert views[1] == views[4]
        assert views[1]["counters"]["attempts"] > 0
        assert views[1]["counters"]["batches"] > 0

    def test_serial_explorer_matches_engine_at_batch_size_1(self):
        # The serial (jobs=1, in-process) exploration charges exactly what
        # a pool does at its batch size, parallel.* prefix accounting
        # included.
        recorded = _recorded("pbzip2-order-free")
        serial_session = ObsSession.create(trace=False, metrics=True)
        reproduce(recorded, ExplorerConfig(max_attempts=20),
                  obs=serial_session)
        engine_session = ObsSession.create(trace=False, metrics=True)
        reproduce(recorded, ExplorerConfig(max_attempts=20, batch_size=1),
                  jobs=2, obs=engine_session)
        serial = _deterministic_view(serial_session)
        assert serial == _deterministic_view(engine_session)
        assert serial["counters"]["parallel.prefix_hits"] > 0

    def test_attempt_counters_split_by_outcome(self):
        recorded = _recorded("pbzip2-order-free")
        session = ObsSession.create(trace=False, metrics=True)
        report = reproduce(recorded, ExplorerConfig(max_attempts=25),
                           obs=session)
        counters = session.metrics.snapshot()["counters"]
        by_outcome = sum(
            value for name, value in counters.items()
            if name.startswith("attempts_")
        )
        assert counters["attempts"] == report.attempts == by_outcome
        if report.success:
            assert counters["attempts_matched"] == 1
