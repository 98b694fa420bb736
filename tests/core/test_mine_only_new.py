"""Mine only new executions, and re-mine what a session is owed.

An attempt whose execution the session already folded cannot add a
candidate (the fold drops a duplicate's candidates), so the engine hands
each batch its known fingerprints and the attempt skips the HB sweep and
the feedback generator.  An outcome that was never mined and turns out
new to a later session — a cached or stored outcome written by a run
with another trajectory — is re-mined at fold, so no session loses
candidates.  Calls are counted across forked pool workers through shared
memory.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.bench.speedup import e12_workload
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import AttemptCache, FeedbackGenerator
from repro.core.parallel import (
    AttemptContext,
    evaluate_attempt,
    recording_token,
)
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.sim import MachineConfig


@pytest.fixture
def mining_calls(monkeypatch):
    """A shared counter of ``FeedbackGenerator.candidates`` calls.

    Pool workers fork after the patch, so they count into the same
    shared value as this process.
    """
    calls = multiprocessing.Value("i", 0)
    original = FeedbackGenerator.candidates

    def counted(self, *args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FeedbackGenerator, "candidates", counted)
    return calls


@pytest.fixture(scope="module")
def e12():
    return e12_workload()


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_e12_mines_once_per_new_execution(e12, mining_calls, jobs):
    report = reproduce(
        e12, ExplorerConfig(max_attempts=300), match_output=True, jobs=jobs
    )
    assert report.attempts == 300 and report.duplicate_traces == 158
    assert mining_calls.value == report.attempts - report.duplicate_traces
    assert mining_calls.value == 142


def test_unmined_cached_root_is_remined(mining_calls):
    recorded = _recorded("mysql-atom-log")
    config = ExplorerConfig(max_attempts=60)
    alone = reproduce(recorded, config)
    assert alone.attempts > 1, "the search must need the root's candidates"

    root = evaluate_attempt(AttemptContext(recorded=recorded), frozenset(), 0)
    assert root.candidates and root.mined
    cache = AttemptCache()
    key = AttemptCache.key_for(
        recording_token(recorded), frozenset(), 0, "random", False
    )
    cache.put(key, replace(root, candidates=(), mined=False, snapshots=()))

    session = ObsSession.create(trace=False, metrics=True)
    warm = reproduce(recorded, config, cache=cache, obs=session)
    assert render_report(warm) == render_report(alone)
    assert warm.cache_hits >= 1
    assert session.metrics.snapshot()["counters"]["remined"] == 1
    # the cache now holds the mined outcome, so the next session is owed
    # nothing
    assert cache.get(key).mined and cache.get(key).candidates


def test_no_feedback_arm_neither_mines_nor_remines(mining_calls):
    recorded = _recorded("mysql-atom-drop")
    config = ExplorerConfig(max_attempts=30)
    cache = AttemptCache()
    cold = reproduce(recorded, config, use_feedback=False, cache=cache)
    failed = [o for o in cache._outcomes.values() if not o.matched]
    assert failed and all(not outcome.mined for outcome in failed)
    # every cached outcome is unmined and new to the second session
    session = ObsSession.create(trace=False, metrics=True)
    warm = reproduce(
        recorded, config, use_feedback=False, cache=cache, obs=session
    )
    assert render_report(warm) == render_report(cold)
    assert warm.cache_hits == warm.attempts
    assert mining_calls.value == 0
    assert "remined" not in session.metrics.snapshot()["counters"]
