"""Degradation-ladder budget accounting.

Regression for the remainder-dropping split: ``max_attempts // rungs``
used to silently discard ``max_attempts % rungs`` attempts (budget 7
over 5 rungs ran only 5).  The exact-split contract: when no rung
succeeds, the ladder consumes *exactly* the configured budget.
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.conftest import find_seed, order_violation_program

from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import (
    degradation_ladder,
    reproduce,
    split_rung_budgets,
)
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig


class TestSplitRungBudgets:
    def test_even_split(self):
        assert split_rung_budgets(10, 5) == [2, 2, 2, 2, 2]

    def test_remainder_goes_to_finest_rungs(self):
        assert split_rung_budgets(7, 5) == [2, 2, 1, 1, 1]
        assert split_rung_budgets(11, 3) == [4, 4, 3]

    def test_budget_smaller_than_ladder(self):
        assert split_rung_budgets(3, 5) == [1, 1, 1, 0, 0]

    def test_degenerate_inputs(self):
        assert split_rung_budgets(0, 4) == [0, 0, 0, 0]
        assert split_rung_budgets(-2, 3) == [0, 0, 0]
        assert split_rung_budgets(5, 0) == []

    @pytest.mark.parametrize("total", range(0, 23))
    @pytest.mark.parametrize("rungs", range(1, 6))
    def test_split_is_exact_and_monotone(self, total, rungs):
        budgets = split_rung_budgets(total, rungs)
        assert sum(budgets) == total
        assert budgets == sorted(budgets, reverse=True)
        assert max(budgets) - min(budgets) <= 1


def _doomed_recorded():
    """A recorded failure that no attempt can ever match.

    ODR-strict matching against a stdout no execution produces makes
    every rung exhaust its budget — the accounting worst case.
    """
    program = order_violation_program()
    seed = find_seed(program)
    recorded = record(
        program, sketch=SketchKind.RW, seed=seed, config=MachineConfig(ncpus=4)
    )
    return dataclasses.replace(recorded, stdout=["__unreachable__"])


class TestLadderBudgetExact:
    def test_full_ladder_consumes_exactly_the_budget(self):
        recorded = _doomed_recorded()
        rungs = degradation_ladder(recorded.sketch)
        assert len(rungs) == 5  # rw -> bb -> func -> sys -> sync
        report = reproduce(
            recorded,
            ExplorerConfig(max_attempts=7),
            use_feedback=False,
            match_output=True,
            degrade=True,
        )
        assert not report.success
        assert report.attempts == 7
        assert [r.attempts for r in report.degradation_path] == [2, 2, 1, 1, 1]

    def test_tiny_budget_skips_zero_rungs(self):
        recorded = _doomed_recorded()
        report = reproduce(
            recorded,
            ExplorerConfig(max_attempts=3),
            use_feedback=False,
            match_output=True,
            degrade=True,
        )
        assert not report.success
        assert report.attempts == 3
        # Only the three finest rungs ran; zero-budget rungs never appear.
        tried = [r.sketch for r in report.degradation_path]
        assert tried == [SketchKind.RW, SketchKind.BB, SketchKind.FUNC]
        assert all(r.attempts == 1 for r in report.degradation_path)
