"""Unit tests for schedulers."""

import pytest

from repro.errors import ReplayDivergence, SchedulerError
from repro.sim import Machine, Program, RandomScheduler
from repro.sim.scheduler import FixedOrderScheduler, Scheduler, validate_pick

from tests.conftest import counter_program, run_program


class TestRandomScheduler:
    def test_same_seed_same_choices(self):
        a, b = RandomScheduler(4), RandomScheduler(4)
        picks_a = [a.pick(None, (1, 2, 3)) for _ in range(30)]
        picks_b = [b.pick(None, (1, 2, 3)) for _ in range(30)]
        assert picks_a == picks_b

    def test_reusable_across_runs(self):
        scheduler = RandomScheduler(9)
        program = counter_program()
        t1 = Machine(program, scheduler).run()
        scheduler2 = RandomScheduler(9)
        t2 = Machine(program, scheduler2).run()
        # on_run_start re-arms the RNG, so reuse equals a fresh instance
        program2 = counter_program()
        t3 = Machine(program2, scheduler).run()
        assert t1.schedule == t2.schedule == t3.schedule

    def test_covers_all_choices_eventually(self):
        scheduler = RandomScheduler(0)
        picks = {scheduler.pick(None, (1, 2, 3)) for _ in range(100)}
        assert picks == {1, 2, 3}

    def test_describe_mentions_seed(self):
        assert "seed=7" in RandomScheduler(7).describe()


class TestFixedOrder:
    def test_replays_given_schedule(self):
        original = run_program(counter_program(), seed=3)
        replay = Machine(
            counter_program(), FixedOrderScheduler(original.schedule)
        ).run()
        assert replay.schedule == original.schedule

    def test_wrong_tid_raises_divergence(self):
        scheduler = FixedOrderScheduler([99])
        with pytest.raises(ReplayDivergence, match="not runnable"):
            scheduler.pick(None, (0, 1))

    def test_exhausted_log_raises_divergence(self):
        scheduler = FixedOrderScheduler([])
        with pytest.raises(ReplayDivergence, match="exhausted"):
            scheduler.pick(None, (0,))

    def test_divergence_is_captured_on_the_trace(self):
        # Replaying a truncated schedule ends with a divergence marker,
        # not an exception.
        original = run_program(counter_program(), seed=3)
        truncated = original.schedule[: len(original.schedule) // 2]
        trace = Machine(counter_program(), FixedOrderScheduler(truncated)).run()
        assert trace.diverged
        assert "exhausted" in trace.divergence

    def test_on_run_start_rewinds(self):
        original = run_program(counter_program(), seed=3)
        scheduler = FixedOrderScheduler(original.schedule)
        t1 = Machine(counter_program(), scheduler).run()
        t2 = Machine(counter_program(), scheduler).run()
        assert not t1.diverged and not t2.diverged


class TestValidation:
    def test_validate_pick_accepts_member(self):
        validate_pick(2, (1, 2))

    def test_validate_pick_rejects_non_member(self):
        with pytest.raises(SchedulerError):
            validate_pick(9, (1, 2))

    def test_machine_guards_against_bad_scheduler(self):
        class Evil(Scheduler):
            def pick(self, machine, runnable):
                return -1

        def main(ctx):
            yield ctx.local()

        with pytest.raises(SchedulerError):
            Machine(Program("p", main), Evil()).run()
