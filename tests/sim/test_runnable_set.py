"""The machine's incrementally maintained runnable set, shadowed.

``Machine.runnable_tids()`` re-evaluates only what a step changed (see
"The step loop" in ``docs/internals.md``).  These tests recompute the
set from scratch — every READY thread filtered through ``_can_execute``
— before every pick of real replays and require the two to agree, in
ascending tid order: for every T1 bug under three sketches, two CPU
counts and a few seeds, with and without mined constraints, and right
after ``PIRScheduler.resume`` restores a prefix-resume snapshot and an
epoch-boundary snapshot.
"""

import pytest

from repro.apps import ALL_BUG_IDS, get_bug
from repro.core.constraints import canonical_order
from repro.core.epochs import EpochConfig, suffix_log
from repro.core.feedback import FeedbackGenerator
from repro.core.pir import PIRScheduler
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.sim import Machine, MachineConfig
from repro.sim.machine import ThreadStatus

SKETCHES = (SketchKind.SYNC, SketchKind.SYS, SketchKind.NONE)
SEEDS = (0, 1, 2)
NCPUS = (2, 4)
#: mined constraint sets replayed per recording, beyond the root attempt.
MINED_ATTEMPTS = 2


def from_scratch(machine):
    """The runnable set as a full scan computes it."""
    return sorted(
        ts.tid
        for ts in machine.threads.values()
        if ts.status is ThreadStatus.READY and machine._can_execute(ts)
    )


class ShadowPIR(PIRScheduler):
    """A PIR scheduler that checks the maintained set before every pick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = 0

    def pick(self, machine, runnable):
        assert list(runnable) == from_scratch(machine), (
            f"step {len(machine.schedule)}: maintained {list(runnable)}"
        )
        assert machine.runnable_tids() is runnable
        self.checks += 1
        return super().pick(machine, runnable)


def replay(recorded, constraints=(), seed=0):
    scheduler = ShadowPIR(recorded.log, canonical_order(constraints), base_seed=seed)
    machine = Machine(recorded.program, scheduler, recorded.config)
    trace = machine.run()
    assert machine.runnable_tids() == from_scratch(machine)
    # one check per pick: every step, plus the pick that diverged
    assert scheduler.checks == trace.steps + trace.diverged
    return trace


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
@pytest.mark.parametrize("ncpus", NCPUS)
def test_maintained_set_matches_full_scan(bug_id, ncpus):
    spec = get_bug(bug_id)
    for sketch in SKETCHES:
        generator = FeedbackGenerator(sketch=sketch)
        for seed in SEEDS:
            recorded = record(
                spec.make_program(), sketch=sketch, seed=seed,
                config=MachineConfig(ncpus=ncpus), oracle=spec.oracle,
            )
            trace = replay(recorded, seed=seed)
            for candidate in generator.candidates(trace, frozenset())[:MINED_ATTEMPTS]:
                replay(recorded, candidate.constraints, seed=seed)


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_set_rebuilt_after_prefix_resume(bug_id):
    spec = get_bug(bug_id)
    recorded = record(spec.make_program(), sketch=SketchKind.SYNC, seed=1,
                      oracle=spec.oracle)
    cold = replay(recorded, seed=3)
    depths = sorted({1, cold.steps // 3, cold.steps // 2} - {0})
    snapshots = {}

    def on_snapshot(machine):
        snapshots[len(machine.schedule)] = (
            machine.capture_state(), parent.capture_resume_state()
        )

    parent = ShadowPIR(recorded.log, base_seed=3)
    Machine(recorded.program, parent, recorded.config).run(
        snapshot_depths=depths, on_snapshot=on_snapshot
    )
    assert snapshots
    for depth, (machine_state, scheduler_state) in sorted(snapshots.items()):
        scheduler = ShadowPIR(recorded.log, base_seed=3)
        machine = scheduler.resume(
            recorded.program, recorded.config, machine_state, scheduler_state
        )
        assert machine.runnable_tids() == from_scratch(machine)
        resumed = machine.run()
        assert machine.runnable_tids() == from_scratch(machine)
        assert scheduler.checks == resumed.steps - depth + resumed.diverged
        assert resumed.schedule == cold.schedule


def test_set_rebuilt_after_epoch_restore():
    restored = 0
    for bug_id in ALL_BUG_IDS:
        spec = get_bug(bug_id)
        recorded = record(
            spec.make_program(), sketch=SketchKind.SYNC, seed=1,
            oracle=spec.oracle, epochs=EpochConfig(steps=40),
        )
        for boundary in recorded.epochs.replay_bases()[:2]:
            log = suffix_log(
                recorded.log, recorded.epochs, boundary,
                program_name=recorded.program.name, seed=recorded.seed,
            )
            scheduler = ShadowPIR(log, base_seed=0)
            machine = scheduler.resume(
                recorded.program, recorded.config, boundary.snapshot
            )
            assert machine.runnable_tids() == from_scratch(machine)
            trace = machine.run()
            assert machine.runnable_tids() == from_scratch(machine)
            assert scheduler.checks == trace.steps - boundary.step + trace.diverged
            restored += 1
    assert restored >= len(ALL_BUG_IDS) // 2
