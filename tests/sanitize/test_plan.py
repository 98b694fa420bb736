"""Dynamic plan assembly: ranking, applicability, evidence gate, JSON."""

import pytest

from repro.core.plan import DYNAMIC, Plan
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.sanitize.plan import (
    MAX_PIN_CONSTRAINTS,
    MAX_PLAN_CANDIDATES,
    MIN_PLAN_EVIDENCE,
    build_plan,
    plan_evidence,
)

from tests.conftest import counter_program, deadlock_program, find_seed


def plan_of(program, seed=0, **kwargs):
    log = record(program, sketch=SketchKind.RW, seed=seed).log
    return build_plan(log, **kwargs)


@pytest.fixture(scope="module")
def counter_plan():
    # big enough that the evidence mass clears MIN_PLAN_EVIDENCE
    return plan_of(counter_program(nworkers=3, iters=5, locked=False))


@pytest.fixture(scope="module")
def deadlock_plan():
    program = deadlock_program()
    return plan_of(program, seed=find_seed(program, want_failure=False))


class TestRanking:
    def test_pin_all_ranks_first(self, counter_plan):
        assert counter_plan.candidates
        first = counter_plan.candidates[0]
        assert first.source == "pin-all"
        assert len(first.constraints) <= MAX_PIN_CONSTRAINTS

    def test_pin_all_unions_every_finding_pin(self, counter_plan):
        pool = set()
        for finding in counter_plan.races + counter_plan.violations:
            pool.update(finding.constraints)
        assert all(len(race.constraints) == 1 for race in counter_plan.races)
        assert all(len(v.constraints) == 2 for v in counter_plan.violations)
        expected = min(len(pool), MAX_PIN_CONSTRAINTS)
        assert len(counter_plan.candidates[0].constraints) == expected

    def test_scored_tail_is_sorted_by_confidence(self, counter_plan):
        tail = counter_plan.candidates[1:]
        confidences = [candidate.confidence for candidate in tail]
        assert confidences == sorted(confidences, reverse=True)

    def test_candidates_are_deduplicated_and_capped(self, counter_plan):
        sets = [candidate.constraints for candidate in counter_plan.candidates]
        assert len(sets) == len(set(sets))
        assert len(sets) <= MAX_PLAN_CANDIDATES
        small = plan_of(
            counter_program(nworkers=3, iters=5, locked=False),
            max_candidates=3,
        )
        assert len(small.candidates) == 3

    def test_clean_locked_program_yields_an_empty_plan(self):
        plan = plan_of(counter_program(locked=True))
        assert plan.candidates == ()
        assert plan.races == ()
        assert plan.violations == ()


class TestApplicability:
    def test_rw_replay_gets_no_seeds(self, counter_plan):
        assert counter_plan.seeds_for(SketchKind.RW) == ()

    def test_memory_candidates_ship_below_rw_with_enough_evidence(
        self, counter_plan
    ):
        assert plan_evidence(counter_plan.findings) >= MIN_PLAN_EVIDENCE
        assert counter_plan.seed_memory
        seeds = counter_plan.seeds_for(SketchKind.SYNC)
        assert seeds
        assert seeds[0] == counter_plan.candidates[0].constraints

    def test_sparse_evidence_holds_memory_candidates_back(self):
        plan = plan_of(counter_program(nworkers=2, iters=1, locked=False))
        assert plan.candidates  # findings exist ...
        assert plan_evidence(plan.findings) < MIN_PLAN_EVIDENCE
        assert not plan.seed_memory
        assert plan.seeds_for(SketchKind.SYNC) == ()  # ... but do not ship

    def test_deadlock_triggers_apply_only_to_sketchless_replay(
        self, deadlock_plan
    ):
        assert deadlock_plan.deadlocks
        assert deadlock_plan.seeds_for(SketchKind.SYNC) == ()
        seeds = deadlock_plan.seeds_for(SketchKind.NONE)
        assert seeds == (deadlock_plan.candidates[0].constraints,)
        assert deadlock_plan.candidates[0].family == "lock"


class TestSerialization:
    def test_json_round_trip_is_lossless(self, counter_plan):
        assert Plan.from_json(counter_plan.to_json()) == counter_plan

    def test_deadlock_plan_round_trips(self, deadlock_plan):
        assert Plan.from_json(deadlock_plan.to_json()) == deadlock_plan

    def test_format_tag_is_checked(self):
        with pytest.raises(ValueError):
            Plan.from_json('{"sketch": "RW"}')

    def test_describe_summarizes_findings_and_candidates(self, counter_plan):
        assert counter_plan.provenance == DYNAMIC
        text = counter_plan.describe()
        assert "replay plan from RW sketch" in text
        assert "#0 [pin-all" in text
