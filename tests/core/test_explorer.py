"""The exploration engine's search loop, driven through stub runners.

``explore_stub`` swaps the engine's replay for a stub, so each test pins
one behaviour of the loop itself: what it runs, in which order, and when
it stops.
"""

from repro.core.explorer import ExplorerConfig
from repro.core.sketches import SketchKind
from repro.sim.failures import Failure, FailureKind
from repro.sim.trace import Trace

from tests.conftest import explore_stub, order_violation_program, run_program


def _trace(failed=False, diverged=False, steps=10):
    trace = Trace(program_name="stub", steps=steps)
    if failed:
        trace.failure = Failure(FailureKind.ASSERTION, where="stub")
    if diverged:
        trace.divergence = "stub divergence"
    return trace


def _random(monkeypatch, runner, max_attempts):
    """The no-feedback arm: mining off, one fresh seed per attempt."""
    return explore_stub(
        monkeypatch, runner, ExplorerConfig(max_attempts=max_attempts),
        SketchKind.NONE, use_feedback=False,
    )[1]


class TestRandomExplorer:
    def test_stops_on_first_match(self, monkeypatch):
        calls = []

        def runner(constraints, seed):
            calls.append(seed)
            return _trace(failed=(seed == 3)), seed == 3

        result = _random(monkeypatch, runner, 10)
        assert result.success
        assert result.attempt_count == 4
        assert calls == [0, 1, 2, 3]
        assert result.winning_seed == 3

    def test_respects_budget(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(), False

        result = _random(monkeypatch, runner, 7)
        assert not result.success
        assert result.attempt_count == 7

    def test_never_passes_constraints(self, monkeypatch):
        seen = []

        def runner(constraints, seed):
            # a real trace would mine flips; without feedback none are used
            seen.append(constraints)
            return run_program(order_violation_program(), seed), False

        _random(monkeypatch, runner, 3)
        assert seen == [frozenset()] * 3

    def test_outcome_classification(self, monkeypatch):
        outcomes = iter(
            [
                (_trace(), False),  # no_failure
                (_trace(diverged=True), False),  # diverged
                (_trace(failed=True), False),  # other_failure (no match)
                (_trace(failed=True), True),  # matched
            ]
        )

        def runner(constraints, seed):
            return next(outcomes)

        result = _random(monkeypatch, runner, 10)
        assert [r.outcome for r in result.attempts] == [
            "no_failure",
            "diverged",
            "other_failure",
            "matched",
        ]


class TestFeedbackExplorer:
    def test_reproduces_real_bug_and_uses_constraints(self):
        from repro.core.parallel import ParallelExplorer
        from repro.core.recorder import record

        program = order_violation_program()
        failing = None
        for seed in range(50):
            recorded = record(program, SketchKind.SYNC, seed=seed)
            if recorded.failed:
                failing = recorded
                break
        assert failing is not None
        result = ParallelExplorer(
            failing, ExplorerConfig(max_attempts=50)
        ).explore()
        assert result.success
        assert result.winning_trace is not None

    def test_seed_restarts_when_frontier_empties(self, monkeypatch):
        # A runner whose traces yield no flip candidates under a SYNC
        # sketch (all races lock-protected): the frontier stays empty, so
        # the engine must re-roll base seeds.
        from tests.conftest import counter_program as locked_counter

        seeds_seen = []

        def runner(constraints, seed):
            seeds_seen.append(seed)
            return run_program(locked_counter(locked=True), 999), False

        config = ExplorerConfig(max_attempts=4, seed_restarts=10)
        explore_stub(monkeypatch, runner, config, SketchKind.SYNC)
        # all four attempts ran, each with a fresh seed after the first
        assert seeds_seen == [0, 1, 2, 3]

    def test_restart_budget_bounds_attempts(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(), False  # empty traces -> no candidates

        config = ExplorerConfig(max_attempts=100, seed_restarts=3)
        _, result = explore_stub(monkeypatch, runner, config, SketchKind.SYNC)
        assert not result.success
        # initial attempt + 3 restarts
        assert result.attempt_count == 4

    def test_duplicate_traces_counted(self, monkeypatch):
        def runner(constraints, seed):
            return run_program(order_violation_program(), 999), False

        config = ExplorerConfig(max_attempts=5, seed_restarts=10)
        _, result = explore_stub(monkeypatch, runner, config, SketchKind.SYNC)
        assert result.attempt_count == 5
        # every attempt replays the same execution: all but the first
        # are duplicates, and only the first is mined
        assert result.duplicate_traces == 4

    def test_total_steps_accumulates(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(steps=25), False

        config = ExplorerConfig(max_attempts=3, seed_restarts=5)
        _, result = explore_stub(monkeypatch, runner, config, SketchKind.SYNC)
        assert result.total_steps == 25 * result.attempt_count
