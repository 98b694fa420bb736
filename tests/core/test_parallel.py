"""The parallel exploration engine's determinism and cache contracts.

The load-bearing property: the exploration schedule is a function of
``batch_size`` only, never of ``jobs`` — attempt counts published by the
benchmarks cannot depend on how many cores the host happened to have.
"""

from __future__ import annotations

import pytest

from tests.conftest import find_seed, order_violation_program

from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import AttemptCache
from repro.core.parallel import ParallelExplorer
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig, Program

BUG_IDS = [spec.bug_id for spec in all_bugs()]


def _recorded(bug_id: str, sketch: SketchKind = SketchKind.SYNC, ncpus: int = 4):
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=ncpus)
    assert seed is not None, f"{bug_id}: no failing seed"
    return record(
        spec.make_program(),
        sketch=sketch,
        seed=seed,
        config=MachineConfig(ncpus=ncpus),
        oracle=spec.oracle,
    )


def _record_keys(report):
    return [(r.outcome, r.base_seed, r.n_constraints) for r in report.records]


class TestJobsEquivalence:
    """jobs=1 and jobs=4 must report identical explorations."""

    @pytest.mark.parametrize("bug_id", BUG_IDS)
    def test_pool_matches_inline_across_suite(self, bug_id):
        recorded = _recorded(bug_id)
        config = ExplorerConfig(max_attempts=25, batch_size=8)
        serial = reproduce(recorded, config, jobs=1)
        pooled = reproduce(recorded, config, jobs=4)
        assert pooled.success == serial.success
        assert pooled.attempts == serial.attempts
        assert pooled.winning_constraints == serial.winning_constraints
        assert _record_keys(pooled) == _record_keys(serial)
        if serial.success:
            assert pooled.complete_log.schedule == serial.complete_log.schedule

    def test_random_ablation_is_jobs_and_batch_invariant(self):
        recorded = _recorded("openldap-deadlock")
        serial = reproduce(
            recorded, ExplorerConfig(max_attempts=30), use_feedback=False
        )
        batched = reproduce(
            recorded, ExplorerConfig(max_attempts=30, batch_size=6),
            use_feedback=False, jobs=1,
        )
        pooled = reproduce(
            recorded, ExplorerConfig(max_attempts=30, batch_size=6),
            use_feedback=False, jobs=3,
        )
        assert _record_keys(batched) == _record_keys(serial)
        assert _record_keys(pooled) == _record_keys(serial)
        assert pooled.success == serial.success


class TestSerialDegeneration:
    """batch_size=1 is exactly the serial (jobs=1) schedule, at any jobs."""

    @pytest.mark.parametrize(
        "bug_id", ["pbzip2-order-free", "openldap-deadlock", "fft-order-sync"]
    )
    def test_batch_of_one_matches_serial_explorer(self, bug_id):
        recorded = _recorded(bug_id)
        serial = reproduce(recorded, ExplorerConfig(max_attempts=40))
        # A pool fed one candidate per batch, through a cache, must walk
        # the serial schedule the frozen report digests pin.
        engine = reproduce(
            recorded, ExplorerConfig(max_attempts=40, batch_size=1), jobs=2,
            cache=AttemptCache(),
        )
        assert engine.success == serial.success
        assert engine.attempts == serial.attempts
        assert engine.winning_constraints == serial.winning_constraints
        assert _record_keys(engine) == _record_keys(serial)
        if serial.success:
            assert engine.complete_log.schedule == serial.complete_log.schedule


class TestAttemptCache:
    def test_rewalk_is_answered_from_the_cache(self):
        recorded = _recorded("pbzip2-order-free")
        cache = AttemptCache()
        first = reproduce(recorded, ExplorerConfig(max_attempts=40), cache=cache)
        assert cache.hits == 0 and len(cache) == first.attempts
        second = reproduce(recorded, ExplorerConfig(max_attempts=40), cache=cache)
        assert second.cache_hits == second.attempts
        assert second.success == first.success
        assert second.attempts == first.attempts
        assert second.winning_constraints == first.winning_constraints

    def test_each_session_counts_only_its_own_hits(self):
        # A cache shared across sessions (as a service tenant's store
        # is): each report counts the hits among its own attempts, not
        # the cache's lifetime total.
        recorded = _recorded("mysql-atom-log")
        cache = AttemptCache()
        reports = [
            reproduce(recorded, ExplorerConfig(max_attempts=400), cache=cache)
            for _ in range(3)
        ]
        assert [report.attempts for report in reports] == [19, 19, 19]
        assert [report.cache_hits for report in reports] == [0, 19, 19]

    def test_cache_keys_separate_policies(self):
        recorded = _recorded("pbzip2-order-free")
        cache = AttemptCache()
        reproduce(recorded, ExplorerConfig(max_attempts=10), cache=cache)
        # Different base policy must not reuse the memoized outcomes.
        reproduce(
            recorded, ExplorerConfig(max_attempts=10), base_policy="pct",
            cache=cache,
        )
        assert cache.hits == 0

    def test_one_cache_serves_every_suite_recording(self):
        # Equal sketch logs do not make equal recordings: every NONE log
        # is empty, and SYNC/SYS logs of different programs can coincide.
        # A cache shared across the whole suite must never answer one
        # recording's attempt with another's outcome.
        config = ExplorerConfig(max_attempts=100)
        shared = AttemptCache()
        broken = []
        for bug_id in BUG_IDS:
            for sketch in (SketchKind.NONE, SketchKind.SYNC, SketchKind.SYS):
                recorded = _recorded(bug_id, sketch)
                alone = render_report(reproduce(recorded, config))
                try:
                    together = render_report(
                        reproduce(recorded, config, cache=shared)
                    )
                except AssertionError as exc:
                    together = f"raised: {exc}"
                if together != alone:
                    broken.append(f"{bug_id}/{sketch.value}")
        assert broken == []


def _local_order_violation() -> Program:
    """An order-violation program whose bodies defeat pickling (local defs)."""

    def producer(ctx):
        yield ctx.local(2)
        yield ctx.write("data", 42)

    def consumer(ctx):
        yield ctx.local(1)
        value = yield ctx.read("data")
        yield ctx.check(value == 42, "read unpublished data")

    def main(ctx):
        p = yield ctx.spawn(producer)
        c = yield ctx.spawn(consumer)
        yield ctx.join(p)
        yield ctx.join(c)

    return Program(name="local-ov", main=main, initial_memory={"data": 0})


class TestPoolFallback:
    def test_unpicklable_session_runs_inline(self):
        program = _local_order_violation()
        seed = find_seed(program)
        recorded = record(
            program, sketch=SketchKind.SYNC, seed=seed,
            config=MachineConfig(ncpus=4),
        )
        explorer = ParallelExplorer(
            recorded, ExplorerConfig(max_attempts=40), jobs=4
        )
        result = explorer.explore()
        assert explorer.pool_disabled_reason is not None
        assert result.success

    def test_fallback_matches_picklable_run(self):
        # The inline fallback must still honor the batch-merge semantics:
        # same results as the reference (picklable, pooled) exploration.
        local = _local_order_violation()
        reference = order_violation_program()
        seed = find_seed(reference)
        assert find_seed(local) == seed  # same program, different packaging
        config = ExplorerConfig(max_attempts=40, batch_size=4)
        reports = []
        for program, jobs in ((reference, 2), (local, 2)):
            recorded = record(
                program, sketch=SketchKind.SYNC, seed=seed,
                config=MachineConfig(ncpus=4),
            )
            reports.append(reproduce(recorded, config, jobs=jobs))
        assert _record_keys(reports[0]) == _record_keys(reports[1])
        assert reports[0].success == reports[1].success
