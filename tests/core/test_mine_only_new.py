"""Mine only new executions the budget can reach, and re-mine what a
session is owed.

An attempt whose execution the session already folded cannot add a
candidate (the fold drops a duplicate's candidates), so the engine hands
each batch its known fingerprints and the attempt skips the HB sweep and
the feedback generator.  Nor can an attempt whose children could only
pop after the budget ran out (:func:`~repro.core.parallel.children_can_run`
decides that at batch assembly), so it skips them too.  An outcome that
was never mined and turns out new and reachable to a later session — a
cached or stored outcome written by a run with another trajectory or a
smaller budget — is re-mined at fold, so no session loses candidates.
Calls are counted across forked pool workers through shared memory.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.bench.speedup import e12_workload
from repro.core import parallel
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import AttemptCache, FeedbackGenerator
from repro.core.parallel import (
    AttemptContext,
    evaluate_attempt,
    recording_token,
)
from repro.core.recorder import record
from repro.core.reproducer import render_report, report_signature, reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.sim import MachineConfig
from repro.store import PersistentAttemptCache


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


@lru_cache(maxsize=None)
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


def _counters(session: ObsSession):
    return session.metrics.snapshot()["counters"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_e12_mines_once_per_new_execution(e12, mining_calls, jobs):
    session = ObsSession.create(trace=False, metrics=True)
    report = reproduce(
        e12, ExplorerConfig(max_attempts=300), match_output=True, jobs=jobs,
        obs=session,
    )
    skipped = _counters(session)["mining_skipped"]
    assert report.attempts == 300 and report.duplicate_traces == 158
    # every new execution is mined once, or skipped as unreachable
    assert (
        mining_calls.value + skipped
        == report.attempts - report.duplicate_traces
    )
    assert (mining_calls.value, skipped) == (64, 78)


def test_e12_skips_the_same_minings_at_any_jobs(e12):
    skipped = []
    for jobs in (1, 2):
        session = ObsSession.create(trace=False, metrics=True)
        reproduce(
            e12, ExplorerConfig(max_attempts=300, batch_size=4),
            match_output=True, jobs=jobs, obs=session,
        )
        skipped.append(_counters(session)["mining_skipped"])
    assert skipped[0] == skipped[1] > 0


def _reports(recorded, config, **kwargs):
    """``(rendered report, signature, mining_skipped)`` of one session."""
    session = ObsSession.create(trace=False, metrics=True)
    report = reproduce(recorded, config, obs=session, **kwargs)
    return (
        render_report(report), report_signature(report),
        _counters(session).get("mining_skipped", 0),
    )


def test_skipping_unreachable_mining_changes_no_report(e12, monkeypatch):
    sessions = [
        (e12, ExplorerConfig(max_attempts=300), True),
        *(
            (_recorded(spec.bug_id), ExplorerConfig(max_attempts=cap), False)
            for spec in all_bugs() for cap in (4, 8, 16)
        ),
    ]
    ruled = [
        _reports(recorded, config, match_output=strict)
        for recorded, config, strict in sessions
    ]
    # the reference: every attempt is mined
    monkeypatch.setattr(
        parallel, "children_can_run", lambda frontier, depth, left: True
    )
    for (recorded, config, strict), (text, signature, skipped) in zip(
        sessions, ruled
    ):
        reference = _reports(recorded, config, match_output=strict)
        assert (text, signature) == reference[:2], recorded.program.name
        assert reference[2] == 0
    # the rule fires on E12 and on 10 of the 39 T1 sessions
    # (mysql-atom-log, apache-atom-buf, lu-atom-diag, radix-order-rank)
    fired = [skipped for _, _, skipped in ruled[1:] if skipped]
    assert ruled[0][2] == 78 and len(fired) == 10


@pytest.fixture
def e12_session(monkeypatch, e12):
    """Run E12 at a cap, optionally over a store; returns the rendered
    report, the counters and, per folded attempt in pop order, its
    ``((constraints, seed), new execution, mine verdict)``."""
    fold = parallel.ParallelExplorer._fold
    log = []

    def logged(self, result, outcome, push, resume, mine):
        new = outcome.fingerprint not in self.db.known_fingerprints()
        log.append(((outcome.constraints, outcome.seed), new, mine))
        return fold(self, result, outcome, push, resume, mine)

    monkeypatch.setattr(parallel.ParallelExplorer, "_fold", logged)

    def run(cap, store=None):
        log.clear()
        session = ObsSession.create(trace=False, metrics=True)
        config = ExplorerConfig(max_attempts=cap)
        if store is None:
            report = reproduce(e12, config, match_output=True, obs=session)
        else:
            with PersistentAttemptCache(str(store)) as cache:
                report = reproduce(
                    e12, config, match_output=True, cache=cache, obs=session
                )
        return render_report(report), _counters(session), list(log)

    return run


#: E12's rule first fires at attempt 5 at cap 60, and at attempt 68 at
#: any cap from about 70 to 900: there 843 pairs with three constraints
#: wait behind the last one with two.
SMALL_CAP = 60


def test_a_larger_budget_remines_what_it_now_reaches(e12_session, tmp_path):
    _, _, small = e12_session(SMALL_CAP, store=tmp_path)
    cold, _, large = e12_session(300)
    warm, counters, _ = e12_session(300, store=tmp_path)
    assert warm == cold
    skipped = {pair for pair, new, mine in small if new and not mine}
    reached = skipped & {pair for pair, _, mine in large if mine}
    assert counters["remined"] == len(reached) > 0


def test_a_smaller_budget_pushes_no_stored_candidate_it_cannot_reach(
    e12_session, tmp_path
):
    # the store holds mined outcomes for attempts 5 to 67, which this
    # budget cannot reach
    e12_session(300, store=tmp_path)
    cold, cold_counters, _ = e12_session(SMALL_CAP)
    warm, counters, _ = e12_session(SMALL_CAP, store=tmp_path)
    assert warm == cold
    for name in ("candidates_mined", "mining_skipped"):
        assert counters[name] == cold_counters[name], name
    assert counters["mining_skipped"] > 0
    assert counters.get("remined", 0) == 0


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
