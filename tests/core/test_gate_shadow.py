"""The PIR gate's incrementally kept state, shadowed.

``PIRScheduler`` keeps its sketch cursor and its constraint gate's
occurrence counts up to date as it goes: each pick feeds the events
executed since the last one, once each, to ``OccurrenceCounter.observe``,
and the counter keeps a per-region table only when a constraint names a
region-family ref (see "The step loop" in ``docs/internals.md``).

These tests replay under a scheduler that recomputes, before every pick,
what the gate allows from scratch -- a fresh counter with region counts
fed every event of the run, the cursor position recounted from the
visible events, each constraint's ``executed``/``pending_matches``
evaluated directly -- and require the schedule, step count and
divergence text ``PIRScheduler`` gives: for every T1 bug under three
sketches with the root and two mined constraint sets, for static-plan
seeds (whose refs are region-family), after prefix-snapshot and
epoch-boundary restores, and for a snapshot taken under a gate without
a region-family ref restored under one that holds some.
"""

import pytest

from repro.analysis.static_ import analyze_program
from repro.apps import ALL_BUG_IDS, get_bug
from repro.core.constraints import OccurrenceCounter, ordered_constraints
from repro.core.epochs import EpochConfig, suffix_log
from repro.core.feedback import FeedbackGenerator
from repro.core.pir import PIRScheduler, SketchCursor
from repro.core.recorder import record
from repro.core.sketches import SketchKind, visible_mask
from repro.errors import ReplayDivergence
from repro.sim import Machine

SKETCHES = (SketchKind.SYNC, SketchKind.SYS, SketchKind.NONE)
SEED = 1
#: mined constraint sets replayed per recording, beyond the root attempt.
MINED_ATTEMPTS = 2
#: static-plan seeds replayed per recording.
STATIC_SEEDS = 3


class FromScratchPIR(PIRScheduler):
    """A PIR scheduler whose every gate verdict is recomputed per pick.

    Only the base policy is ``PIRScheduler``'s, since an RNG's state
    cannot be recomputed.  ``start`` is the number of leading events the
    sketch log does not cover: an epoch suffix log starts at its
    boundary.
    """

    def __init__(self, *args, start=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.start = start

    def pick(self, machine, runnable):
        events = machine.events
        counter = OccurrenceCounter(regions=True)
        for event in events:
            counter.observe(event)
        entries = self.log.entries
        visible = visible_mask(self.log.sketch)
        position = 0
        for event in events[self.start:]:
            if position < len(entries) and event.kind.bit & visible:
                expected = entries[position]
                if event.tid != expected.tid:
                    raise ReplayDivergence(
                        f"executed visible event {event.describe()} out of "
                        f"sketch order (expected {expected.describe()})"
                    )
                position += 1
        expected = entries[position] if position < len(entries) else None
        allowed, reasons = [], []
        for tid in runnable:
            op = machine.threads[tid].pending_op
            if expected is not None and op.kind.bit & visible:
                if tid != expected.tid:
                    reasons.append(f"T{tid} awaits its sketch turn")
                    continue
                if not expected.matches_op(tid, op):
                    raise SketchCursor(self.log).off_sketch(tid, op, expected)
            if any(
                not counter.executed(c.before)
                and counter.pending_matches(tid, op, c.after)
                for c in self.constraints
            ):
                reasons.append(f"T{tid} awaits an order constraint")
                continue
            allowed.append(tid)
        if not allowed:
            raise ReplayDivergence(
                "no schedulable thread: " + ("; ".join(reasons) or "all gated")
            )
        if len(allowed) == 1:
            return allowed[0]
        return self._policy.pick(machine, allowed)


def outcome(trace):
    return trace.schedule, trace.steps, trace.divergence


def has_region_ref(constraints):
    return any(
        "region" in (c.before.family, c.after.family) for c in constraints
    )


def static_seeds(spec, sketch):
    seeds = analyze_program(spec.make_program()).seeds_for(sketch)
    assert seeds and all(has_region_ref(s) for s in seeds)
    return seeds[:STATIC_SEEDS]


def build(recorded, cls, constraints, **kwargs):
    scheduler = cls(
        recorded.log, ordered_constraints(constraints), base_seed=SEED,
        **kwargs,
    )
    return scheduler, Machine(recorded.program, scheduler, recorded.config)


def replay_both(recorded, constraints=frozenset()):
    """Cold replays under both schedulers; returns PIRScheduler's trace."""
    traces = [
        build(recorded, cls, constraints)[1].run()
        for cls in (PIRScheduler, FromScratchPIR)
    ]
    assert outcome(traces[1]) == outcome(traces[0])
    return traces[0]


def resume_both(recorded, state, constraints):
    """Both schedulers resumed from one prefix snapshot."""
    machine_state, scheduler_state = state
    traces = []
    for cls in (PIRScheduler, FromScratchPIR):
        scheduler, machine = build(recorded, cls, constraints)
        machine.restore_state(machine_state)
        scheduler.restore_resume_state(scheduler_state)
        traces.append(machine.run())
    assert outcome(traces[1]) == outcome(traces[0])
    return traces[0]


def prefix_snapshots(recorded):
    """Snapshots of the unconstrained attempt at three depths."""
    steps = build(recorded, PIRScheduler, frozenset())[1].run().steps
    depths = sorted({1, steps // 3, steps // 2} - {0})
    parent, machine = build(recorded, PIRScheduler, frozenset())
    snapshots = {}

    def on_snapshot(machine):
        snapshots[len(machine.schedule)] = (
            machine.capture_state(), parent.capture_resume_state()
        )

    machine.run(snapshot_depths=depths, on_snapshot=on_snapshot)
    assert snapshots
    return [snapshots[depth] for depth in sorted(snapshots)]


def sync_recording(spec, **kwargs):
    return record(
        spec.make_program(), sketch=SketchKind.SYNC, seed=SEED,
        oracle=spec.oracle, **kwargs,
    )


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_root_and_mined_attempts_match(bug_id):
    spec = get_bug(bug_id)
    for sketch in SKETCHES:
        recorded = record(
            spec.make_program(), sketch=sketch, seed=SEED, oracle=spec.oracle
        )
        trace = replay_both(recorded)
        generator = FeedbackGenerator(sketch=sketch)
        for candidate in generator.candidates(trace, frozenset())[:MINED_ATTEMPTS]:
            replay_both(recorded, candidate.constraints)


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_static_plan_seeds_match(bug_id):
    spec = get_bug(bug_id)
    for sketch in (SketchKind.NONE, SketchKind.SYNC):
        recorded = record(
            spec.make_program(), sketch=sketch, seed=SEED, oracle=spec.oracle
        )
        for constraints in static_seeds(spec, sketch):
            replay_both(recorded, constraints)


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_prefix_restores_match(bug_id):
    spec = get_bug(bug_id)
    recorded = sync_recording(spec)
    root = replay_both(recorded)
    mined = [
        c.constraints
        for c in FeedbackGenerator(sketch=SketchKind.SYNC).candidates(
            root, frozenset()
        )[:1]
    ]
    for state in prefix_snapshots(recorded):
        for constraints in (frozenset(), *mined):
            resume_both(recorded, state, constraints)


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_snapshot_without_regions_restores_under_region_refs(bug_id):
    # the snapshot's gate keeps no region table, so the restored gate
    # derives one from the per-address counts
    spec = get_bug(bug_id)
    recorded = sync_recording(spec)
    seeds = static_seeds(spec, SketchKind.SYNC)
    for state in prefix_snapshots(recorded):
        for constraints in seeds:
            resume_both(recorded, state, constraints)


def test_epoch_restores_match():
    restored = 0
    for bug_id in ALL_BUG_IDS:
        spec = get_bug(bug_id)
        recorded = sync_recording(spec, epochs=EpochConfig(steps=40))
        seeds = static_seeds(spec, SketchKind.SYNC)[:1]
        for boundary in recorded.epochs.replay_bases()[:2]:
            log = suffix_log(
                recorded.log, recorded.epochs, boundary,
                program_name=recorded.program.name, seed=recorded.seed,
            )
            for constraints in (frozenset(), *seeds):
                traces = []
                for cls in (PIRScheduler, FromScratchPIR):
                    kwargs = {"start": boundary.step} if cls is FromScratchPIR else {}
                    scheduler = cls(
                        log, ordered_constraints(constraints), base_seed=SEED,
                        **kwargs,
                    )
                    machine = Machine(recorded.program, scheduler, recorded.config)
                    machine.restore_state(boundary.snapshot)
                    assert len(machine.events) == boundary.step
                    scheduler.on_run_start(machine)
                    traces.append(machine.run())
                assert outcome(traces[1]) == outcome(traces[0])
            restored += 1
    assert restored >= len(ALL_BUG_IDS) // 2
