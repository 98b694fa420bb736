"""Resuming a killed run: the same reproduction, rerun against its store.

The contract (``docs/resilience.md``): the attempt store writes every
decided attempt through as it folds, flushed per record, so a
reproduction killed mid-exploration and rerun against the same store
finishes with a report byte-identical to an uninterrupted run — the
rerun answers the decided attempts from the store and replays only the
rest.  The store key (recording, constraints, seed, base policy, output
matching) is the whole identity of an attempt and leaves ``jobs``,
the budget and the batch size out, so an interrupted parallel run may
resume serially and a store warmed under one budget serves another.
"""

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import render_report, report_signature, reproduce
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig
from repro.store.persistent import PersistentAttemptCache

BUG = "mysql-atom-log"  # explores ~19 attempts: room to interrupt mid-run

CFG = ExplorerConfig(max_attempts=40)


def _record(sketch):
    spec = get_bug(BUG)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None
    return record(
        spec.make_program(),
        sketch=sketch,
        seed=seed,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )


@pytest.fixture(scope="module")
def recorded():
    return _record(SketchKind.SYNC)


@pytest.fixture(scope="module")
def baseline(recorded):
    return reproduce(recorded, CFG)


class InterruptAfter(PersistentAttemptCache):
    """A store-backed cache that simulates a kill after N stored attempts."""

    def __init__(self, root, interrupt_after):
        super().__init__(root)
        self.interrupt_after = interrupt_after
        self.puts = 0

    def put(self, key, outcome):
        super().put(key, outcome)
        self.puts += 1
        if self.puts >= self.interrupt_after:
            raise KeyboardInterrupt


def _kill_and_rerun(recorded, root, interrupt_after, jobs, **kwargs):
    """Kill a session after ``interrupt_after`` decided attempts, then
    rerun it serially against the same store."""
    killed = InterruptAfter(root, interrupt_after)
    try:
        partial = reproduce(recorded, CFG, jobs=jobs, cache=killed, **kwargs)
    finally:
        killed.close()
    assert partial.interrupted is True
    assert partial.success is False
    assert partial.attempts == interrupt_after
    finished = reproduce(recorded, CFG, jobs=1, store=root, **kwargs)
    assert finished.interrupted is False
    assert finished.cache_hits == interrupt_after
    return finished


class TestResumeRoundTrip:
    def test_killed_run_resumes_to_an_identical_report(
        self, recorded, baseline, tmp_path
    ):
        finished = _kill_and_rerun(recorded, str(tmp_path / "store"), 5, jobs=1)
        assert report_signature(finished) == report_signature(baseline)
        assert render_report(finished) == render_report(baseline)

    def test_interrupted_parallel_run_resumes_serially(
        self, recorded, baseline, tmp_path
    ):
        finished = _kill_and_rerun(recorded, str(tmp_path / "store"), 4, jobs=2)
        assert report_signature(finished) == report_signature(baseline)
        assert render_report(finished) == render_report(baseline)

    def test_killed_degrade_session_resumes_across_rungs(self, tmp_path):
        # At FUNC the first rung fails after 14 attempts and the SYS rung
        # reproduces after 5 more, so a kill at 16 lands in the second rung.
        rich = _record(SketchKind.FUNC)
        uninterrupted = reproduce(rich, CFG, degrade=True)
        assert [r.success for r in uninterrupted.degradation_path] == [
            False, True,
        ]
        finished = _kill_and_rerun(
            rich, str(tmp_path / "store"), 16, jobs=1, degrade=True
        )
        assert report_signature(finished) == report_signature(uninterrupted)
        assert render_report(finished) == render_report(uninterrupted)
        assert finished.degradation_path == uninterrupted.degradation_path


class TestRunIdentity:
    """The store key is the run's identity; budget and batch size are not
    part of it."""

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_store_warmed_under_a_smaller_budget_serves_a_larger_one(
        self, recorded, tmp_path, batch_size
    ):
        config = ExplorerConfig(max_attempts=40, batch_size=batch_size)
        cacheless = reproduce(recorded, config)
        root = str(tmp_path / "store")
        cut = reproduce(recorded, ExplorerConfig(max_attempts=7), store=root)
        assert cut.attempts == 7 and not cut.success
        rerun = reproduce(recorded, config, store=root)
        assert rerun.cache_hits > 0
        assert render_report(rerun) == render_report(cacheless)
