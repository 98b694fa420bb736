"""Tests for the PCT scheduler and prefix replay (a
:class:`FixedOrderScheduler` that hands over to ``then``)."""

import pytest

from repro.errors import ReplayDivergence
from repro.sim import (
    FixedOrderScheduler,
    Machine,
    MachineConfig,
    PCTScheduler,
    RandomScheduler,
)

from tests.conftest import (
    counter_program,
    deadlock_program,
    order_violation_program,
    run_program,
)


class TestPCTScheduler:
    def test_deterministic_per_seed(self):
        program = counter_program(nworkers=3, iters=4)
        a = Machine(program, PCTScheduler(7)).run()
        b = Machine(program, PCTScheduler(7)).run()
        assert a.schedule == b.schedule

    def test_different_seeds_vary(self):
        program = counter_program(nworkers=3, iters=4)
        schedules = {
            tuple(Machine(program, PCTScheduler(seed)).run().schedule)
            for seed in range(8)
        }
        assert len(schedules) > 1

    def test_runs_programs_to_completion(self):
        program = counter_program(nworkers=2, iters=3)
        trace = Machine(program, PCTScheduler(3)).run()
        assert not trace.failed
        assert trace.final_memory["counter"] >= 1

    def test_depth_one_is_strict_priority(self):
        # With no change points, the highest-priority thread runs until
        # it blocks - so the schedule has long same-thread runs.
        program = counter_program(nworkers=3, iters=5)
        trace = Machine(program, PCTScheduler(5, depth=1)).run()
        switches = sum(
            1 for a, b in zip(trace.schedule, trace.schedule[1:]) if a != b
        )
        random_trace = run_program(program, 5)
        random_switches = sum(
            1
            for a, b in zip(random_trace.schedule, random_trace.schedule[1:])
            if a != b
        )
        assert switches < random_switches

    def test_finds_ordering_bugs_efficiently(self):
        # PCT's selling point: for a depth-1 ordering bug, a large
        # fraction of priority assignments trigger it.
        program = order_violation_program()
        pct_hits = sum(
            1
            for seed in range(40)
            if Machine(program, PCTScheduler(seed)).run().failed
        )
        assert pct_hits > 0

    def test_describe(self):
        assert "depth=3" in PCTScheduler(1).describe()


class TestPrefixScheduler:
    """``FixedOrderScheduler(prefix, then=policy)``: the what-if replay."""

    def test_prefix_then_policy(self):
        program = counter_program(nworkers=2, iters=3)
        original = run_program(program, 9)
        half = len(original.schedule) // 2
        scheduler = FixedOrderScheduler(
            original.schedule[:half], then=RandomScheduler(1)
        )
        trace = Machine(program, scheduler, MachineConfig(ncpus=4)).run()
        assert trace.schedule[:half] == original.schedule[:half]
        assert not trace.diverged

    def test_empty_prefix_is_just_the_policy(self):
        program = counter_program()
        a = Machine(
            program, FixedOrderScheduler([], then=RandomScheduler(4))
        ).run()
        b = run_program(program, 4)
        assert a.schedule == b.schedule

    def test_bad_prefix_diverges(self):
        program = counter_program()
        trace = Machine(
            program, FixedOrderScheduler([99], then=RandomScheduler(0))
        ).run()
        assert trace.diverged
        assert "not runnable" in trace.divergence

    def test_reusable_across_runs(self):
        program = counter_program()
        original = run_program(program, 2)
        scheduler = FixedOrderScheduler(
            original.schedule[:5], then=RandomScheduler(2)
        )
        t1 = Machine(program, scheduler).run()
        t2 = Machine(program, scheduler).run()
        assert t1.schedule == t2.schedule

    def test_what_if_exploration_from_captured_prefix(self):
        # The intended workflow: replay a captured failure's schedule up
        # to just before the failing event, then vary the ending - some
        # endings still fail, and (for this bug) some survive.
        program = order_violation_program()
        failing = None
        for seed in range(60):
            trace = run_program(program, seed)
            if trace.failed:
                failing = trace
                break
        assert failing is not None
        cut = max(0, failing.failure.gidx - 2)
        outcomes = set()
        for seed in range(20):
            scheduler = FixedOrderScheduler(
                failing.schedule[:cut], then=RandomScheduler(seed)
            )
            trace = Machine(program, scheduler, MachineConfig(ncpus=4)).run()
            assert not trace.diverged
            outcomes.add(trace.failed)
        assert True in outcomes  # the bad ending is reachable

    def test_describe(self):
        scheduler = FixedOrderScheduler([1, 2], then=RandomScheduler(3))
        assert "2 steps" in scheduler.describe()
