"""Graceful degradation: coarser sketches derived from damaged logs."""

import dataclasses

import pytest

from repro.apps import get_bug
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import degradation_ladder, reproduce
from repro.core.sketches import SketchKind, visible_kinds
from repro.core.sketchlog import SketchLog, derive_coarser
from repro.errors import SimUsageError
from repro.sim.failures import Failure, FailureKind


@pytest.fixture(scope="module")
def recorded():
    spec = get_bug("pbzip2-order-free")
    run = record(spec.make_program(), sketch=SketchKind.RW, seed=3)
    assert run.failed
    return run


class TestDeriveCoarser:
    def test_keeps_only_kinds_the_target_watches(self, recorded):
        coarse = derive_coarser(recorded.log, SketchKind.SYNC)
        allowed = visible_kinds(SketchKind.SYNC)
        assert coarse.sketch is SketchKind.SYNC
        assert coarse.entries
        assert all(entry.kind in allowed for entry in coarse.entries)

    def test_is_an_ordered_subsequence(self, recorded):
        coarse = derive_coarser(recorded.log, SketchKind.SYS)
        remaining = iter(recorded.log.entries)
        for entry in coarse.entries:
            assert any(entry == candidate for candidate in remaining)

    def test_same_level_is_identity(self, recorded):
        assert derive_coarser(recorded.log, SketchKind.RW) is recorded.log

    def test_refining_upward_is_rejected(self, recorded):
        sync = derive_coarser(recorded.log, SketchKind.SYNC)
        with pytest.raises(SimUsageError):
            derive_coarser(sync, SketchKind.RW)


class TestLadder:
    def test_rw_descends_the_full_ladder(self):
        assert degradation_ladder(SketchKind.RW) == [
            SketchKind.RW,
            SketchKind.BB,
            SketchKind.FUNC,
            SketchKind.SYS,
            SketchKind.SYNC,
        ]

    def test_sync_is_a_single_rung(self):
        assert degradation_ladder(SketchKind.SYNC) == [SketchKind.SYNC]

    def test_none_falls_back_to_sync(self):
        assert degradation_ladder(SketchKind.NONE) == [SketchKind.SYNC]


class TestReproduceDegraded:
    def test_pristine_log_wins_at_the_top_rung(self, recorded):
        report = reproduce(
            recorded, config=ExplorerConfig(max_attempts=100), degrade=True
        )
        assert report.success
        assert report.winning_sketch is SketchKind.RW
        assert not report.degraded
        assert report.degradation_path[0].sketch is SketchKind.RW
        assert "reproduced at the rw rung" in report.outcome_reason
        assert report.complete_log is not None

    def test_truncated_log_still_reproduces(self, recorded):
        partial = SketchLog(sketch=recorded.sketch)
        for entry in recorded.log.entries[:50]:
            partial.append(entry)
        damaged = dataclasses.replace(recorded, log=partial)
        report = reproduce(
            damaged, config=ExplorerConfig(max_attempts=100), degrade=True
        )
        assert report.degradation_path
        assert report.success  # 50 RW entries still pin the crash down

    def test_exhaustion_is_a_structured_report_not_a_traceback(self, recorded):
        # A failure signature no replay can ever match: every rung must
        # run out of attempts, and the report must say so cleanly.
        never = Failure(kind=FailureKind.ASSERTION, where="unreachable sentinel")
        doomed = dataclasses.replace(recorded, failure=never)
        report = reproduce(
            doomed, config=ExplorerConfig(max_attempts=10), degrade=True
        )
        assert not report.success
        assert report.winning_sketch is None
        assert "exhausted the degradation ladder" in report.outcome_reason
        assert [r.sketch for r in report.degradation_path] == degradation_ladder(
            recorded.sketch
        )
        assert all(not rung.success for rung in report.degradation_path)
        assert all(rung.reason for rung in report.degradation_path)
        assert "NOT reproduced" in report.describe()

    def test_seed_backoff_keeps_the_session_deterministic(self, recorded):
        partial = SketchLog(sketch=recorded.sketch)
        for entry in recorded.log.entries[:30]:
            partial.append(entry)
        damaged = dataclasses.replace(recorded, log=partial)
        config = ExplorerConfig(max_attempts=40)
        first = reproduce(damaged, config=config, degrade=True)
        second = reproduce(damaged, config=config, degrade=True)
        assert first.success == second.success
        assert first.attempts == second.attempts
        assert [r.sketch for r in first.degradation_path] == [
            r.sketch for r in second.degradation_path
        ]

    def test_interrupt_stops_the_walk_with_walk_totals(self, recorded, monkeypatch):
        from repro.robust.supervise import Supervisor

        never = Failure(kind=FailureKind.ASSERTION, where="unreachable sentinel")
        doomed = dataclasses.replace(recorded, failure=never)
        evaluate = Supervisor.evaluate_batch
        calls = []

        def interrupt_fourth_batch(self, tasks):
            calls.append(len(tasks))
            if len(calls) == 4:
                raise KeyboardInterrupt
            return evaluate(self, tasks)

        monkeypatch.setattr(Supervisor, "evaluate_batch", interrupt_fourth_batch)
        report = reproduce(
            doomed, config=ExplorerConfig(max_attempts=10), degrade=True
        )
        # rung rw ran its 2 attempts; rung bb folded 1 before the interrupt
        assert report.interrupted and not report.success
        assert [r.attempts for r in report.degradation_path] == [2, 1]
        assert report.attempts == 3
        assert report.outcome_reason == (
            "interrupted after 3 attempt(s); partial results only"
        )
