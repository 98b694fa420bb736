"""Tests for trace diffing."""

from repro.analysis import first_divergence, same_execution
from repro.sim import FixedOrderScheduler, Machine

from tests.conftest import counter_program, run_program


class TestTraceDiff:
    def test_identical_traces_have_no_divergence(self):
        a = run_program(counter_program(), 4)
        b = run_program(counter_program(), 4)
        assert first_divergence(a, b) is None
        assert same_execution(a, b)

    def test_different_schedules_diverge(self):
        a = run_program(counter_program(), 0)
        b = run_program(counter_program(), 1)
        if a.schedule == b.schedule:  # unlikely; pick another seed
            b = run_program(counter_program(), 2)
        div = first_divergence(a, b)
        assert div is not None
        assert div.index <= min(len(a.events), len(b.events))
        assert "diverge at event" in div.describe()

    def test_prefix_divergence_at_shorter_length(self):
        full = run_program(counter_program(), 4)
        truncated = Machine(
            counter_program(), FixedOrderScheduler(full.schedule[:10])
        ).run()
        div = first_divergence(full, truncated)
        assert div is not None
        assert div.index == 10
        assert div.right is None  # the truncated side ended

    def test_replay_is_same_execution_with_values(self):
        original = run_program(counter_program(), 4)
        replay = Machine(
            counter_program(), FixedOrderScheduler(original.schedule)
        ).run()
        assert same_execution(original, replay, check_values=True)
