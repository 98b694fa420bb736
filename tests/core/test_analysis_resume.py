"""An attempt analyzes only the steps it ran.

A replay resumed from its parent's prefix snapshot shares the parent's
first events, object for object, so its fingerprint, race sweep and ref
index continue from the analysis checkpoint kept beside the snapshot.
These tests pin that a resumed analysis equals a fresh analysis of the
same trace, that a checkpoint survives any number of resumes unchanged
and never leaves its process, and — by counting events across forked
pool workers — that the skipped work really is skipped.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hb_race import HBAnalysis, SweepState
from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.bench.speedup import e12_workload
from repro.core import parallel
from repro.core.constraints import RefIndex
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import (
    AnalysisCheckpoint,
    FeedbackGenerator,
    trace_fingerprint,
)
from repro.core.parallel import AttemptContext, evaluate_attempt, run_attempt
from repro.core.prefix import PrefixTree, analysis_of, resume_depth
from repro.core.recorder import record, record_with_trace
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig
from repro.sim.trace import Trace

T1 = tuple(spec.bug_id for spec in all_bugs())


def _recorded(bug_id: str, sketch: SketchKind):
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None, f"{bug_id}: no failing seed"
    return record(
        spec.make_program(),
        sketch=sketch,
        seed=seed,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )


def _trace_identity(trace):
    return (
        tuple(trace.schedule),
        tuple(e.signature() for e in trace.events),
        trace.stdout,
        trace.final_memory,
    )


@pytest.fixture
def compared(monkeypatch):
    """Check every resumed analysis against a fresh one of its trace.

    Returns the counts of resumed fingerprints and resumed minings
    checked so far.
    """
    checked = {"fingerprints": 0, "minings": 0}
    fingerprint = parallel.trace_fingerprint
    mine = FeedbackGenerator.candidates

    def checked_fingerprint(trace, resume=None, checkpoints={}):
        digest = fingerprint(trace, resume, checkpoints)
        if resume is not None:
            # a copy of the trace holds no memoized digest
            assert digest == fingerprint(dataclasses.replace(trace))
            checked["fingerprints"] += 1
        return digest

    def checked_candidates(self, trace, current, resume=None, checkpoints={}):
        resumed = mine(self, trace, current, resume, checkpoints)
        if resume is not None:
            # constraints, anchor, shape, safe prefix, parent steps, order
            assert resumed == mine(self, trace, current)
            checked["minings"] += 1
        return resumed

    monkeypatch.setattr(parallel, "trace_fingerprint", checked_fingerprint)
    monkeypatch.setattr(FeedbackGenerator, "candidates", checked_candidates)
    return checked


class TestResumedEqualsFresh:
    def test_every_e12_attempt(self, compared):
        report = reproduce(
            e12_workload(), ExplorerConfig(max_attempts=300),
            match_output=True,
        )
        assert report.attempts == 300
        # every realized resume continued the fingerprint; every mined
        # attempt but the cold root continued its sweep
        assert compared["fingerprints"] == report.realized_resumes == 299
        assert compared["minings"] == 63

    @pytest.mark.parametrize("sketch", [SketchKind.SYNC, SketchKind.SYS])
    def test_t1_sessions(self, compared, sketch):
        for bug_id in T1:
            reproduce(
                _recorded(bug_id, sketch), ExplorerConfig(max_attempts=400)
            )
        assert compared["fingerprints"] > 0 and compared["minings"] > 0


# -- the sweep resumes from any depth ---------------------------------------


@lru_cache(maxsize=None)
def _t1_trace(bug_id: str) -> Trace:
    spec = get_bug(bug_id)
    _, trace = record_with_trace(
        spec.make_program(),
        seed=find_failing_seed(spec, ncpus=4),
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )
    return trace


def _with_suffix(trace: Trace, k: int, suffix) -> Trace:
    """``trace``'s first ``k`` events (the same objects), then ``suffix``."""
    events = list(trace.events[:k])
    events.extend(
        event._replace(gidx=k + i) for i, event in enumerate(suffix)
    )
    return Trace(trace.program_name, events=events)


def _plain(value):
    """A value-comparable deep copy of checkpoint state."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return frozenset(value)
    if isinstance(value, (list, tuple)):
        return tuple(_plain(item) for item in value)
    return value


def _sweep_view(state: SweepState):
    return {name: _plain(getattr(state, name)) for name in SweepState.__slots__}


@settings(max_examples=60, deadline=None)
@given(
    bug_id=st.sampled_from(T1),
    fraction=st.floats(0.0, 1.0),
    use_lock_edges=st.booleans(),
)
def test_sweep_resumes_from_any_depth(bug_id, fraction, use_lock_edges):
    trace = _t1_trace(bug_id)
    n = len(trace.events)
    k = int(fraction * n)
    one = HBAnalysis(trace, use_lock_edges=use_lock_edges, checkpoints=[k, n])
    checkpoint = one.checkpoints[k]
    assert checkpoint.events == k
    before = _sweep_view(checkpoint)

    resumed = HBAnalysis(
        trace, use_lock_edges=use_lock_edges, resume=checkpoint,
        checkpoints=[n],
    )
    assert resumed.start == k
    # the one-pass races, in order, with the locks each side held
    assert resumed.races == one.races
    assert resumed.checkpoints[n].held == one.checkpoints[n].held
    assert resumed.event_vcs == one.event_vcs

    # resuming the same checkpoint under another suffix leaves it as it was
    other = _with_suffix(trace, k, reversed(trace.events[k:]))
    HBAnalysis(other, use_lock_edges=use_lock_edges, resume=checkpoint)
    assert _sweep_view(checkpoint) == before
    again = HBAnalysis(trace, use_lock_edges=use_lock_edges, resume=checkpoint)
    assert again.races == one.races

    # the ref index and the fingerprint resume from the same depth
    refs = RefIndex(trace.events, checkpoints=[k])
    resumed_refs = RefIndex(trace.events, resume=refs.checkpoints[k])
    assert [resumed_refs.ref_of(e) for e in trace.events] == [
        refs.ref_of(e) for e in trace.events
    ]
    marks = {k: AnalysisCheckpoint(trace, k)}
    fresh = trace_fingerprint(dataclasses.replace(trace), checkpoints=marks)
    assert trace_fingerprint(dataclasses.replace(trace), marks[k]) == fresh


def test_a_sweep_resumes_only_under_its_own_lock_edges():
    trace = _t1_trace(T1[0])
    state = HBAnalysis(trace, checkpoints=[10]).checkpoints[10]
    with pytest.raises(ValueError):
        HBAnalysis(trace, use_lock_edges=False, resume=state)


# -- checkpoints are process-local --------------------------------------------


def _run_in_worker(ctx, constraints, plan):
    outcome = evaluate_attempt(ctx, constraints, 0, resume=plan, checkpoint=False)
    trace, _ = run_attempt(ctx, constraints, 0, resume=plan)
    return outcome, _trace_identity(trace)


def test_a_plan_with_a_checkpoint_pickles_and_resumes_in_a_worker():
    ctx = AttemptContext(recorded=_recorded("mysql-atom-log", SketchKind.SYNC))
    root = evaluate_attempt(ctx, frozenset(), 0)
    assert all(analysis_of(snapshot) for _, snapshot in root.snapshots)
    tree = PrefixTree()
    tree.store(frozenset(), 0, root.snapshots)
    candidate = next(
        c for c in root.candidates
        if resume_depth(c.parent_steps, c.safe_prefix) > 0
    )
    plan = tree.plan(
        candidate.constraints, 0, candidate.flip,
        resume_depth(candidate.parent_steps, candidate.safe_prefix),
        candidate.parent_steps, candidate.safe_prefix,
    )
    assert analysis_of(plan.snapshot) is not None
    # a checkpoint pickles as nothing, so the plan travels without it
    assert analysis_of(pickle.loads(pickle.dumps(plan)).snapshot) is None
    # a fresh interpreter, with its own string-hash seed
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        warm, warm_trace = pool.submit(
            _run_in_worker, ctx, candidate.constraints, plan
        ).result(timeout=120)
    cold = evaluate_attempt(ctx, candidate.constraints, 0, checkpoint=False)
    cold_trace, _ = run_attempt(ctx, candidate.constraints, 0)
    assert warm == cold and warm.candidates == cold.candidates
    assert warm_trace == _trace_identity(cold_trace)
    # in process, the same plan resumes the analysis too, to the same end
    assert evaluate_attempt(ctx, candidate.constraints, 0, resume=plan) == cold


# -- the mechanism, by counts -------------------------------------------------


@pytest.fixture
def analysis_counts(monkeypatch):
    """Events fingerprinted and swept, and checkpoints taken, counted
    across forked pool workers (they fork after the patches)."""
    counts = multiprocessing.Array("q", 3)
    fingerprint = parallel.trace_fingerprint
    sweep = HBAnalysis.__init__
    checkpoint = AnalysisCheckpoint.__init__

    def add(slot, amount):
        with counts.get_lock():
            counts[slot] += amount

    def counted_fingerprint(trace, resume=None, checkpoints={}):
        resumed = resume is not None and resume.digest is not None
        skipped = resume.events if resumed else 0
        add(0, len(trace.events) - skipped)
        return fingerprint(trace, resume, checkpoints)

    def counted_sweep(self, trace, *args, **kwargs):
        sweep(self, trace, *args, **kwargs)
        add(1, len(trace.events) - self.start)

    def counted_checkpoint(self, *args, **kwargs):
        checkpoint(self, *args, **kwargs)
        add(2, 1)

    monkeypatch.setattr(parallel, "trace_fingerprint", counted_fingerprint)
    monkeypatch.setattr(HBAnalysis, "__init__", counted_sweep)
    monkeypatch.setattr(AnalysisCheckpoint, "__init__", counted_checkpoint)
    return counts


def test_serial_e12_analyzes_only_executed_events(analysis_counts, monkeypatch):
    session = reproduce(
        e12_workload(), ExplorerConfig(max_attempts=300),
        match_output=True,
    )
    fingerprinted, swept, _ = analysis_counts[:]
    # 17,306 events executed; a pool worker, which analyzes from event
    # 0, fingerprints 73,436 and sweeps 19,430
    assert fingerprinted == 17_306
    assert swept <= 15_000
    # the reference: every attempt run cold, with nothing to resume from
    monkeypatch.setattr(
        parallel.ParallelExplorer, "_resume_plan",
        lambda self, candidate, seed: None,
    )
    reference = reproduce(
        e12_workload(), ExplorerConfig(max_attempts=300),
        match_output=True,
    )
    assert render_report(session) == render_report(reference)


def test_pool_workers_analyze_from_event_zero(analysis_counts, monkeypatch):
    fold = parallel.ParallelExplorer._fold
    folded = []

    def inspected(self, result, outcome, push, resume, mine):
        assert not outcome.shared
        for _, snapshot in outcome.snapshots:
            assert isinstance(snapshot, bytes)
            assert analysis_of(pickle.loads(snapshot)) is None
        folded.append(len(outcome.snapshots))
        return fold(self, result, outcome, push, resume, mine)

    monkeypatch.setattr(parallel.ParallelExplorer, "_fold", inspected)
    reproduce(
        e12_workload(), ExplorerConfig(max_attempts=300),
        match_output=True, jobs=2,
    )
    assert analysis_counts[:] == [73_436, 19_430, 0]
    assert len(folded) == 300 and sum(folded) > 0
