"""Unit tests for the static concurrency analyzer.

Small hand-built guest programs exercise each finding kind — shared
access maps, races, lock protection, atomicity windows, deadlock
cycles — plus the static :class:`~repro.core.plan.Plan` serialization
and seed-gating contracts the explorer relies on.
"""

from repro.analysis.static_ import analyze_program
from repro.core.plan import Plan
from repro.core.sketches import SketchKind
from repro.sim import Program


def _racy_worker(ctx, iters):
    for _ in range(iters):
        value = yield ctx.read("counter")
        yield ctx.local(1)
        yield ctx.write("counter", value + 1)


def _racy_main(ctx, nworkers, iters):
    tids = []
    for _ in range(nworkers):
        tid = yield ctx.spawn(_racy_worker, iters)
        tids.append(tid)
    for tid in tids:
        yield ctx.join(tid)
    final = yield ctx.read("counter")
    yield ctx.check(final == nworkers * iters, "lost update")


def racy_counter_program(nworkers=2, iters=2):
    return Program(
        name="racycounter",
        main=_racy_main,
        params={"nworkers": nworkers, "iters": iters},
        initial_memory={"counter": 0},
    )


def _locked_worker(ctx, iters):
    for _ in range(iters):
        yield ctx.lock("mu")
        value = yield ctx.read("counter")
        yield ctx.write("counter", value + 1)
        yield ctx.unlock("mu")


def _locked_main(ctx, nworkers, iters):
    tids = []
    for _ in range(nworkers):
        tid = yield ctx.spawn(_locked_worker, iters)
        tids.append(tid)
    for tid in tids:
        yield ctx.join(tid)
    yield ctx.check(True, "never")


def locked_counter_program(nworkers=2, iters=2):
    return Program(
        name="lockedcounter",
        main=_locked_main,
        params={"nworkers": nworkers, "iters": iters},
        initial_memory={"counter": 0},
    )


def _ab_worker(ctx):
    yield ctx.lock("A")
    yield ctx.write("x", 1)
    yield ctx.lock("B")
    yield ctx.write("y", 1)
    yield ctx.unlock("B")
    yield ctx.unlock("A")


def _ba_worker(ctx):
    yield ctx.lock("B")
    yield ctx.write("y", 2)
    yield ctx.lock("A")
    yield ctx.write("x", 2)
    yield ctx.unlock("A")
    yield ctx.unlock("B")


def _deadlock_main(ctx):
    t1 = yield ctx.spawn(_ab_worker)
    t2 = yield ctx.spawn(_ba_worker)
    yield ctx.join(t1)
    yield ctx.join(t2)
    yield ctx.check(True, "never")


def deadlock_program():
    return Program(
        name="abba",
        main=_deadlock_main,
        params={},
        initial_memory={"x": 0, "y": 0},
    )


class TestFindings:
    def test_unlocked_counter_races_are_found(self):
        plan = analyze_program(racy_counter_program())
        assert "counter" in plan.regions
        assert plan.races, "two unlocked writers must race"
        assert all(race.targets == ("counter",) for race in plan.races)
        assert plan.violations, "read..write window must be flagged"
        assert plan.candidates

    def test_common_lock_suppresses_the_race(self):
        plan = analyze_program(locked_counter_program())
        assert not plan.races
        assert not plan.violations

    def test_lock_order_cycle_becomes_a_deadlock(self):
        plan = analyze_program(deadlock_program())
        assert plan.deadlocks
        cycle = set(plan.deadlocks[0].targets)
        assert cycle == {"A", "B"}
        assert plan.deadlocks[0].constraints, "cycle must ship a trigger"

    def test_straight_lock_order_has_no_deadlock(self):
        plan = analyze_program(locked_counter_program())
        assert not plan.deadlocks


def _embedded_main(ctx, iters):
    tids = []
    tids.append((yield ctx.spawn(_racy_worker, iters)))
    tids.append((yield ctx.spawn(_racy_worker, iters)))
    value = yield ctx.read("counter")
    yield ctx.check(value >= 0, "lost update")


def embedded_spawn_program(iters=2):
    return Program(
        name="embedded",
        main=_embedded_main,
        params={"iters": iters},
        initial_memory={"counter": 0},
    )


class TestWalkerCoverage:
    def test_spawn_embedded_in_a_call_argument_is_still_walked(self):
        # ``tids.append((yield ctx.spawn(...)))`` must not silently drop
        # the spawned thread from the access map (over-approximation).
        plan = analyze_program(embedded_spawn_program())
        # one ``T<tid>=body(args) spawn@... join@...`` line per thread
        worker_tids = {line.split("=")[0] for line in plan.threads} - {"T0"}
        assert worker_tids == {"T1", "T2"}
        assert plan.races, "the embedded-spawned workers still race"


class TestRanking:
    def test_max_candidates_caps_and_notes(self):
        plan = analyze_program(racy_counter_program(nworkers=3, iters=3),
                               max_candidates=2)
        assert len(plan.candidates) == 2
        assert any("capped" in note for note in plan.notes)

    def test_max_findings_caps_stored_races(self):
        full = analyze_program(racy_counter_program(nworkers=3, iters=3),
                               max_findings=10_000)
        capped = analyze_program(racy_counter_program(nworkers=3, iters=3),
                                 max_findings=1)
        assert len(full.races) > 1
        assert len(capped.races) == 1
        # the cap stores the top-scored finding
        assert capped.races[0].confidence == max(
            r.confidence for r in full.races
        )

    def test_failure_hint_is_recorded(self):
        plan = analyze_program(racy_counter_program(), failure="lost update")
        assert plan.failure == "lost update"


class TestSeedGating:
    def test_rw_sketch_ships_nothing(self):
        plan = analyze_program(racy_counter_program())
        assert plan.seeds_for(SketchKind.RW) == ()

    def test_none_sketch_ships_every_candidate(self):
        plan = analyze_program(racy_counter_program())
        seeds = plan.seeds_for(SketchKind.NONE)
        assert len(seeds) == len(plan.candidates)

    def test_lock_family_candidates_only_apply_sketchless(self):
        plan = analyze_program(deadlock_program())
        lock_cands = [c for c in plan.candidates if c.family == "lock"]
        assert lock_cands, "deadlock triggers pin lock acquisitions"
        none_seeds = set(plan.seeds_for(SketchKind.NONE))
        sync_seeds = set(plan.seeds_for(SketchKind.SYNC))
        for candidate in lock_cands:
            assert candidate.constraints in none_seeds
            assert candidate.constraints not in sync_seeds


class TestSerialization:
    def test_analysis_is_byte_deterministic(self):
        first = analyze_program(racy_counter_program()).to_json()
        second = analyze_program(racy_counter_program()).to_json()
        assert first == second

    def test_json_round_trip_preserves_the_plan(self):
        for program in (racy_counter_program(), deadlock_program()):
            plan = analyze_program(program, failure="hint")
            rebuilt = Plan.from_json(plan.to_json())
            assert rebuilt == plan
            assert rebuilt.to_json() == plan.to_json()

    def test_format_tag_is_enforced(self):
        import json

        import pytest

        with pytest.raises(ValueError):
            Plan.from_json(json.dumps({"format": "something-else"}))
