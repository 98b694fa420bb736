"""Warm-start reproduction through the cross-run attempt store.

The store's engine-facing contract: with ``store=`` a reproduction
reports *exactly* what it reports without one (same attempt sequence,
winner, and complete log) — a warm store may only turn live replays into
folds of memoized outcomes.  That must hold cold, warm, partially
populated (after gc), and for every ``jobs`` value.
"""

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import AttemptCache
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.errors import SimUsageError
from repro.obs.session import ObsSession
from repro.sim import MachineConfig
from repro.store import AttemptStore

BUG = "mysql-atom-log"  # explores ~19 attempts before matching


@pytest.fixture(scope="module")
def recorded():
    spec = get_bug(BUG)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None
    return record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )


def _keys(report):
    return [(r.outcome, r.base_seed, r.n_constraints) for r in report.records]


def _assert_identical(left, right):
    assert left.success == right.success
    assert left.attempts == right.attempts
    assert left.winning_constraints == right.winning_constraints
    assert _keys(left) == _keys(right)
    if left.success:
        assert left.complete_log.schedule == right.complete_log.schedule


CFG = ExplorerConfig(max_attempts=40)


class TestWarmStart:
    def test_warm_run_answers_every_attempt_from_disk(self, recorded, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = reproduce(recorded, CFG, store=store_dir)
        warm = reproduce(recorded, CFG, store=store_dir)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.attempts == cold.attempts
        _assert_identical(warm, cold)

    def test_store_on_reports_exactly_like_store_off(self, recorded, tmp_path):
        plain = reproduce(recorded, CFG)
        stored = reproduce(recorded, CFG, store=str(tmp_path / "store"))
        _assert_identical(stored, plain)

    def test_partially_populated_store_replays_only_missing_keys(
        self, recorded, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        cold = reproduce(recorded, CFG, store=store_dir)
        records = AttemptStore(store_dir).stats().records
        gc_report = AttemptStore(store_dir).gc(max(1, records // 2))
        assert gc_report.evicted > 0

        partial = reproduce(recorded, CFG, store=store_dir)
        _assert_identical(partial, cold)
        live = partial.attempts - partial.cache_hits
        assert 0 < live <= gc_report.evicted

    def test_degraded_ladder_shares_the_store(self, recorded, tmp_path):
        store_dir = str(tmp_path / "store")
        cold = reproduce(recorded, CFG, store=store_dir, degrade=True)
        warm = reproduce(recorded, CFG, store=store_dir, degrade=True)
        assert warm.cache_hits == warm.attempts
        _assert_identical(warm, cold)

    def test_store_warmed_without_feedback_serves_a_feedback_run(
        self, recorded, tmp_path
    ):
        # The no-feedback arm stores the root attempt unmined; a feedback
        # session folding it must still get the root's candidates.
        store_dir = str(tmp_path / "store")
        reproduce(recorded, CFG, store=store_dir, use_feedback=False)
        warm = reproduce(recorded, CFG, store=store_dir)
        assert warm.cache_hits >= 1
        _assert_identical(warm, reproduce(recorded, CFG))


class TestJobsEquivalence:
    def test_store_preserves_jobs_equivalence(self, recorded, tmp_path):
        config = ExplorerConfig(max_attempts=25, batch_size=8)
        serial = reproduce(recorded, config, jobs=1,
                           store=str(tmp_path / "serial"))
        pooled = reproduce(recorded, config, jobs=4,
                           store=str(tmp_path / "pooled"))
        _assert_identical(pooled, serial)

        # A store written at jobs=1 warms a jobs=4 run completely.
        warm = reproduce(recorded, config, jobs=4,
                         store=str(tmp_path / "serial"))
        assert warm.cache_hits == warm.attempts
        _assert_identical(warm, serial)


class TestWiring:
    def test_store_and_cache_are_mutually_exclusive(self, recorded, tmp_path):
        with pytest.raises(SimUsageError):
            reproduce(recorded, CFG, cache=AttemptCache(),
                      store=str(tmp_path / "store"))

    def test_store_metrics_are_charged_into_the_session(
        self, recorded, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        cold_obs = ObsSession.create(trace=False, metrics=True)
        cold = reproduce(recorded, CFG, store=store_dir, obs=cold_obs)
        counters = cold_obs.metrics.snapshot()["counters"]
        assert counters["store.appends"] == cold.attempts
        assert counters["store.misses"] >= cold.attempts

        warm_obs = ObsSession.create(trace=False, metrics=True)
        warm = reproduce(recorded, CFG, store=store_dir, obs=warm_obs)
        counters = warm_obs.metrics.snapshot()["counters"]
        assert counters["store.hits"] == warm.attempts
        assert counters.get("store.appends", 0) == 0
