"""Tests for feedback generation from failed attempts."""

import hashlib

import pytest

from repro.apps import get_bug
from repro.core.constraints import ConstraintSet, OrderConstraint
from repro.core.feedback import (
    AttemptCache,
    FeedbackDB,
    FeedbackGenerator,
    _inverse,
    trace_fingerprint,
)
from repro.core.recorder import apply_oracle
from repro.core.sketches import SketchKind
from repro.sim import Machine, MachineConfig, RandomScheduler
from repro.sim.ops import OpKind

from tests.conftest import (
    counter_program,
    find_seed,
    order_violation_program,
    run_program,
)

EMPTY: ConstraintSet = frozenset()


def _clean_ov_trace():
    program = order_violation_program()
    return run_program(program, find_seed(program, want_failure=False))


class TestCandidateGeneration:
    def test_races_become_flip_candidates(self):
        trace = _clean_ov_trace()
        generator = FeedbackGenerator(sketch=SketchKind.SYNC)
        candidates = generator.candidates(trace, EMPTY)
        assert candidates
        assert all(len(c.constraints) == 1 for c in candidates)

    def test_flip_reverses_observed_order(self):
        trace = _clean_ov_trace()
        generator = FeedbackGenerator(sketch=SketchKind.SYNC)
        data_flips = [
            c
            for c in generator.candidates(trace, EMPTY)
            for constraint in c.constraints
            if constraint.before.key == "data" or constraint.after.key == "data"
        ]
        assert data_flips
        constraint = next(iter(data_flips[0].constraints))
        # whichever side executed second in the trace becomes 'before'
        assert constraint.before.tid != constraint.after.tid

    def test_race_free_trace_yields_no_candidates(self):
        trace = run_program(counter_program(locked=True), seed=1)
        generator = FeedbackGenerator(sketch=SketchKind.SYNC)
        assert generator.candidates(trace, EMPTY) == []

    def test_candidates_extend_current_set(self):
        trace = run_program(counter_program(locked=False), seed=1)
        generator = FeedbackGenerator(sketch=SketchKind.SYNC)
        base = generator.candidates(trace, EMPTY)
        assert base
        existing = base[0].constraints
        deeper = generator.candidates(trace, existing)
        assert all(existing < c.constraints for c in deeper)
        assert all(len(c.constraints) == 2 for c in deeper)

    def test_inverse_of_current_not_offered(self):
        trace = run_program(counter_program(locked=False), seed=1)
        generator = FeedbackGenerator(sketch=SketchKind.SYNC)
        base = generator.candidates(trace, EMPTY)
        constraint = next(iter(base[0].constraints))
        inverse_set = frozenset({_inverse(constraint)})
        deeper = generator.candidates(trace, inverse_set)
        for candidate in deeper:
            assert constraint not in candidate.constraints

    def test_depth_limit_stops_generation(self):
        trace = run_program(counter_program(locked=False), seed=1)
        generator = FeedbackGenerator(sketch=SketchKind.SYNC, max_constraint_depth=1)
        base = generator.candidates(trace, EMPTY)
        assert generator.candidates(trace, base[0].constraints) == []

    def test_candidate_cap_respected(self):
        trace = run_program(counter_program(nworkers=3, iters=5), seed=2)
        generator = FeedbackGenerator(
            sketch=SketchKind.SYNC, max_candidates_per_attempt=5
        )
        assert len(generator.candidates(trace, EMPTY)) <= 5

    def test_read_shaped_races_ranked_first(self):
        trace = run_program(counter_program(nworkers=2, iters=4), seed=2)
        generator = FeedbackGenerator(sketch=SketchKind.SYNC)
        candidates = generator.candidates(trace, EMPTY)
        shapes = [c.shape for c in candidates]
        assert shapes == sorted(shapes)


class TestLockLifting:
    def test_lock_protected_race_dropped_under_sync_sketch(self):
        # Accesses under a common mutex are pinned by a SYNC sketch;
        # flipping them must not be offered.
        trace = run_program(counter_program(locked=True), seed=1)
        generator = FeedbackGenerator(sketch=SketchKind.SYNC)
        assert generator.candidates(trace, EMPTY) == []

    def test_lock_protected_race_lifted_under_none_sketch(self):
        trace = run_program(counter_program(locked=True), seed=1)
        generator = FeedbackGenerator(sketch=SketchKind.NONE)
        candidates = generator.candidates(trace, EMPTY)
        assert candidates
        lock_flips = [
            constraint
            for candidate in candidates
            for constraint in candidate.constraints
            if constraint.before.family == "lock"
        ]
        assert lock_flips
        for constraint in lock_flips:
            assert constraint.after.family == "lock"
            assert constraint.before.key == constraint.after.key == "m"


class TestFeedbackDB:
    def test_tried_tracks_constraints_and_seed(self):
        db = FeedbackDB()
        constraints = frozenset(
            {
                OrderConstraint(
                    before=_ref(1, "x", 1),
                    after=_ref(2, "x", 1),
                )
            }
        )
        assert not db.tried(constraints, 0)
        db.mark_tried(constraints, 0)
        assert db.tried(constraints, 0)
        assert not db.tried(constraints, 1)  # fresh seed, fresh attempt

    def test_record_trace_detects_duplicates(self):
        db = FeedbackDB()
        trace = run_program(counter_program(), seed=3)
        same = run_program(counter_program(), seed=3)
        other = run_program(counter_program(), seed=4)
        assert db.record_trace(trace) is True
        assert db.record_trace(same) is False
        assert db.duplicate_traces == 1
        assert db.record_trace(other) is True


class TestTraceFingerprintPinned:
    """Store shards persist trace fingerprints, so a warm store written by
    an earlier version must keep deduplicating: the digests are pinned to
    literals, not just to another run of the same code."""

    @staticmethod
    def _radix(seed, **params):
        spec = get_bug("radix-order-rank")
        trace = Machine(
            spec.make_program(**params), RandomScheduler(seed),
            MachineConfig(ncpus=4),
        ).run()
        return trace, apply_oracle(trace, spec.oracle)

    def test_e12_recording_trace(self):
        # seed 6 is the first failing seed of the E12 request
        for seed in range(6):
            assert self._radix(seed, workers=5, seg=6)[1] is None
        trace, failure = self._radix(6, workers=5, seg=6)
        assert failure is not None and trace.steps == 412
        assert trace_fingerprint(trace) == (
            "a0d8fdf8dd2320d04c5ebcb89af62d316cf24c73"
        )

    def test_trace_spanning_several_digest_chunks(self):
        trace, _ = self._radix(0, workers=6, seg=30)
        assert trace.steps == 1799
        assert trace_fingerprint(trace) == (
            "ffd1facdf08479161b4096c1c785f93d11daf7b4"
        )

    def test_digest_is_sha1_of_signature_reprs(self):
        trace = run_program(counter_program(), seed=5)
        expected = hashlib.sha1(
            "".join(repr(e.signature()) for e in trace.events).encode("utf-8")
        ).hexdigest()
        assert trace_fingerprint(trace) == expected


def _ref(tid, key, occ):
    from repro.core.constraints import EventRef

    return EventRef(tid, "mem", key, occ)


class TestBoundedAttemptCache:
    """The ``max_entries`` bound trades cache hits for live replays —
    and, because attempts are pure, changes nothing else."""

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            AttemptCache(max_entries=0)

    def test_unbounded_cache_never_evicts(self):
        cache = AttemptCache()
        for n in range(100):
            cache.put(("key", n), n)
        assert len(cache) == 100
        assert cache.evictions == 0

    def test_evicts_least_recently_used(self):
        cache = AttemptCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refreshes "a"
        cache.put(("c",), 3)  # evicts "b", the least recently used
        assert cache.evictions == 1
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3

    def test_reput_refreshes_recency(self):
        cache = AttemptCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 1)  # re-put: "a" becomes the most recent
        cache.put(("c",), 3)  # so this evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1

    def test_tiny_bound_cannot_change_exploration_results(self):
        from repro.apps import get_bug
        from repro.bench.seeds import find_failing_seed
        from repro.core.explorer import ExplorerConfig
        from repro.core.recorder import record
        from repro.core.reproducer import reproduce
        from repro.sim import MachineConfig

        spec = get_bug("mysql-atom-log")  # ~19 attempts: the bound bites
        seed = find_failing_seed(spec, ncpus=4)
        recorded = record(
            spec.make_program(), sketch=SketchKind.SYNC, seed=seed,
            config=MachineConfig(ncpus=4), oracle=spec.oracle,
        )
        config = ExplorerConfig(max_attempts=40)

        def keys(report):
            return [
                (r.outcome, r.base_seed, r.n_constraints)
                for r in report.records
            ]

        free = reproduce(recorded, config, cache=AttemptCache())
        bounded_cache = AttemptCache(max_entries=2)
        bounded = reproduce(recorded, config, cache=bounded_cache)
        assert keys(bounded) == keys(free)
        assert bounded.success == free.success
        assert bounded.attempts == free.attempts
        assert bounded.winning_constraints == free.winning_constraints
        assert bounded_cache.evictions > 0

        # A rewalk under the bound replays what was evicted — live —
        # and still reports the identical exploration.
        rewalk = reproduce(recorded, config, cache=bounded_cache)
        assert keys(rewalk) == keys(free)
        assert rewalk.success == free.success
        assert rewalk.winning_constraints == free.winning_constraints
