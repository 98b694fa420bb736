"""The PIR gate's incrementally kept state, shadowed at every pick.

``PIRScheduler`` keeps its sketch cursor, its constraint gate's
occurrence counts and the list of threads it allowed up to date as it
goes: each pick feeds the events executed since the last one, once
each, to ``OccurrenceCounter.observe``, the counter keeps a per-region
table only when a constraint names a region-family ref, and while the
machine hands over the same runnable list and no event advanced the
cursor or ran a constraint's ``before``, only the threads that executed
are decided again (see "The step loop" in ``docs/internals.md``).

These tests replay under a scheduler that recomputes, before every
pick, what the gate allows from scratch -- a fresh counter with region
counts fed every event of the run, the cursor position recounted from
the visible events, each constraint's ``executed``/``pending_matches``
evaluated directly, every runnable thread decided -- and require, at
that very pick, the list ``PIRScheduler`` hands its base policy (or the
one thread it returns without asking the policy), or the divergence
text it raises: for every T1 bug under three sketches with the root and
two mined constraint sets, for static-plan seeds (whose refs are
region-family), after prefix-snapshot and epoch-boundary restores, for
a snapshot taken under a gate without a region-family ref restored under
one that holds some, and for a run in which a constraint's ``before``
executes while its ``after`` thread is runnable and held.
"""

import pytest

from repro.analysis.static_ import analyze_program
from repro.apps import ALL_BUG_IDS, get_bug
from repro.core.constraints import (
    EventRef, OccurrenceCounter, OrderConstraint, ordered_constraints,
)
from repro.core.epochs import EpochConfig, suffix_log
from repro.core.feedback import FeedbackGenerator
from repro.core.pir import PIRScheduler, SketchCursor
from repro.core.recorder import record
from repro.core.sketches import SketchKind, visible_mask
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.sim import Machine, MachineConfig, Program

SKETCHES = (SketchKind.SYNC, SketchKind.SYS, SketchKind.NONE)
SEED = 1
#: mined constraint sets replayed per recording, beyond the root attempt.
MINED_ATTEMPTS = 2
#: static-plan seeds replayed per recording.
STATIC_SEEDS = 3


def from_scratch(scheduler, machine, runnable, start):
    """The threads the sketch and the constraints allow, recomputed from
    the machine alone; raises the divergence ``PIRScheduler`` must raise.

    Only the log and the constraints are read off ``scheduler``.
    ``start`` is the number of leading events the sketch log does not
    cover: an epoch suffix log starts at its boundary.
    """
    events = machine.events
    counter = OccurrenceCounter(regions=True)
    for event in events:
        counter.observe(event)
    log = scheduler.log
    entries = log.entries
    visible = visible_mask(log.sketch)
    position = 0
    for event in events[start:]:
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
                raise SketchCursor(log).off_sketch(tid, op, expected)
        if any(
            not counter.executed(c.before)
            and counter.pending_matches(tid, op, c.after)
            for c in scheduler.constraints
        ):
            reasons.append(f"T{tid} awaits an order constraint")
            continue
        allowed.append(tid)
    if not allowed:
        raise ReplayDivergence(
            "no schedulable thread: " + ("; ".join(reasons) or "all gated")
        )
    return allowed


class ShadowedPIR(PIRScheduler):
    """``PIRScheduler`` checked against :func:`from_scratch` at every pick.

    ``picks`` keeps, per pick, the step, whether the machine handed over
    the same runnable list object as at the previous pick, and what was
    allowed.
    """

    def __init__(self, *args, start=0, **kwargs):
        super().__init__(*args, **kwargs)
        self.start = start
        self.picks = []
        self._previous = None
        self._handed = None
        policy = self._policy
        choose = policy.pick

        def handed(machine, allowed):
            self._handed = list(allowed)
            return choose(machine, allowed)

        policy.pick = handed

    def pick(self, machine, runnable):
        try:
            expected = from_scratch(self, machine, runnable, self.start)
        except ReplayDivergence as diverged:
            expected = diverged.reason
        same_list = runnable is self._previous
        self._previous = runnable
        self._handed = None
        try:
            tid = super().pick(machine, runnable)
        except ReplayDivergence as diverged:
            assert diverged.reason == expected, len(machine.schedule)
            self.picks.append((len(machine.schedule), same_list, None))
            raise
        allowed = self._handed if self._handed is not None else [tid]
        assert allowed == expected, (
            f"step {len(machine.schedule)}: handed {allowed}, "
            f"a full scan allows {expected}"
        )
        self.picks.append((len(machine.schedule), same_list, allowed))
        return tid


def shadowed(recorded, constraints, log=None, **kwargs):
    return ShadowedPIR(
        log or recorded.log, ordered_constraints(constraints), base_seed=SEED,
        **kwargs,
    )


def checked(scheduler, trace, first_step=0):
    """The shadow ran at every pick of the run: each step, plus the pick
    that diverged."""
    assert len(scheduler.picks) == trace.steps - first_step + trace.diverged
    return trace


def replay(recorded, constraints=frozenset()):
    """A cold replay, shadowed at every pick."""
    scheduler = shadowed(recorded, constraints)
    trace = Machine(recorded.program, scheduler, recorded.config).run()
    return checked(scheduler, trace)


def has_region_ref(constraints):
    return any(
        "region" in (c.before.family, c.after.family) for c in constraints
    )


def static_seeds(spec, sketch):
    seeds = analyze_program(spec.make_program()).seeds_for(sketch)
    assert seeds and all(has_region_ref(s) for s in seeds)
    return seeds[:STATIC_SEEDS]


def resume(recorded, state, constraints):
    """A replay resumed from one prefix snapshot, shadowed at every pick."""
    machine_state, scheduler_state = state
    scheduler = shadowed(recorded, constraints)
    machine = scheduler.resume(
        recorded.program, recorded.config, machine_state, scheduler_state
    )
    depth = len(machine.schedule)
    return checked(scheduler, machine.run(), depth)


def prefix_snapshots(recorded):
    """Snapshots of the unconstrained attempt at three depths."""
    steps = replay(recorded).steps
    depths = sorted({1, steps // 3, steps // 2} - {0})
    parent = shadowed(recorded, frozenset())
    snapshots = {}

    def on_snapshot(machine):
        snapshots[len(machine.schedule)] = (
            machine.capture_state(), parent.capture_resume_state()
        )

    Machine(recorded.program, parent, recorded.config).run(
        snapshot_depths=depths, on_snapshot=on_snapshot
    )
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
        trace = replay(recorded)
        generator = FeedbackGenerator(sketch=sketch)
        for candidate in generator.candidates(trace, frozenset())[:MINED_ATTEMPTS]:
            replay(recorded, candidate.constraints)


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_static_plan_seeds_match(bug_id):
    spec = get_bug(bug_id)
    for sketch in (SketchKind.NONE, SketchKind.SYNC):
        recorded = record(
            spec.make_program(), sketch=sketch, seed=SEED, oracle=spec.oracle
        )
        for constraints in static_seeds(spec, sketch):
            replay(recorded, constraints)


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_prefix_restores_match(bug_id):
    spec = get_bug(bug_id)
    recorded = sync_recording(spec)
    root = replay(recorded)
    mined = [
        c.constraints
        for c in FeedbackGenerator(sketch=SketchKind.SYNC).candidates(
            root, frozenset()
        )[:1]
    ]
    for state in prefix_snapshots(recorded):
        for constraints in (frozenset(), *mined):
            resume(recorded, state, constraints)


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_snapshot_without_regions_restores_under_region_refs(bug_id):
    # the snapshot's gate keeps no region table, so the restored gate
    # derives one from the per-address counts
    spec = get_bug(bug_id)
    recorded = sync_recording(spec)
    seeds = static_seeds(spec, SketchKind.SYNC)
    for state in prefix_snapshots(recorded):
        for constraints in seeds:
            resume(recorded, state, constraints)


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
                scheduler = shadowed(
                    recorded, constraints, log=log, start=boundary.step
                )
                machine = scheduler.resume(
                    recorded.program, recorded.config, boundary.snapshot
                )
                assert len(machine.events) == boundary.step
                checked(scheduler, machine.run(), boundary.step)
            restored += 1
    assert restored >= len(ALL_BUG_IDS) // 2


def test_the_kept_list_is_reused():
    # The shadow covers the path that decides only the threads that
    # executed: most picks of a replay get the list of the pick before.
    recorded = sync_recording(get_bug("radix-order-rank"))
    scheduler = shadowed(recorded, frozenset())
    Machine(recorded.program, scheduler, recorded.config).run()
    reused = sum(same_list for _, same_list, _ in scheduler.picks)
    assert reused > len(scheduler.picks) // 2


# -- a before that frees a held thread ---------------------------------------


def _writer(ctx, addr, n):
    for i in range(n):
        yield ctx.write(addr, i)


def _two_writers(ctx):
    first = yield ctx.spawn(_writer, "x", 2)
    second = yield ctx.spawn(_writer, "y", 5)
    yield ctx.join(first)
    yield ctx.join(second)


def test_a_before_frees_a_thread_held_on_the_same_list():
    # T1's first write to x waits for T2's third write to y.  Both run
    # only unguarded writes under an empty sketch, so the machine keeps
    # handing over one runnable list while T1 is held and T2 writes:
    # the write that runs the ``before`` changes no member's op but T1's
    # verdict, so the kept list must be decided again there.
    held = OrderConstraint(
        before=EventRef(2, "mem", "y", 3), after=EventRef(1, "mem", "x", 1)
    )
    program = Program("two-writers", _two_writers)
    log = SketchLog(sketch=SketchKind.NONE)
    freed = 0
    for seed in range(8):
        scheduler = ShadowedPIR(log, (held,), base_seed=seed)
        trace = Machine(program, scheduler, MachineConfig(ncpus=2)).run()
        assert not trace.diverged and trace.failure is None
        (before,) = [
            e.gidx for e in trace.events if e.tid == 2 and e.addr == "y"
        ][2:3]
        picks = {step: (same, allowed) for step, same, allowed in scheduler.picks}
        same, allowed = picks[before + 1]
        _, earlier = picks[before]
        if same and 1 not in earlier and 1 in allowed:
            freed += 1
    assert freed > 0
