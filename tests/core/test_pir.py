"""Tests for the partial-information replay scheduler."""

from types import SimpleNamespace

import pytest

from repro.core.constraints import EventRef, OrderConstraint
from repro.core.pir import PIRScheduler
from repro.core.recorder import record, record_with_trace
from repro.core.sketches import SketchEntry, SketchKind, event_visible
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.sim import Machine, Program
from repro.sim.events import Event
from repro.sim.ops import OpKind
from repro.sim.program import ThreadContext

from tests.conftest import counter_program, producer_consumer_program


def replay(program, log, constraints=(), seed=0, **cfg):
    scheduler = PIRScheduler(log, constraints, base_seed=seed)
    from repro.sim import MachineConfig

    return Machine(program, scheduler, MachineConfig(**cfg)).run()


def _pick(log, pending, executed=()):
    """``PIRScheduler.pick`` over threads whose pending ops are
    ``pending`` (tid -> op), after the run executed ``executed``."""
    scheduler = PIRScheduler(log)
    machine = SimpleNamespace(
        events=[],
        threads={tid: SimpleNamespace(pending_op=op) for tid, op in pending.items()},
    )
    scheduler.on_run_start(machine)
    machine.events.extend(executed)
    return scheduler.pick(machine, sorted(pending))


def _lock_log():
    log = SketchLog(SketchKind.SYNC)
    log.append(SketchEntry(1, OpKind.LOCK, "m"))
    return log


class TestSketchCursor:
    """The sketch-order check ``PIRScheduler.pick`` makes per thread."""

    def test_invisible_ops_are_free(self):
        # T1 is due, yet T2's invisible op may run
        assert _pick(_lock_log(), {2: ThreadContext(2).read("x")}) == 2

    def test_expected_thread_allowed(self):
        assert _pick(_lock_log(), {1: ThreadContext(1).lock("m")}) == 1

    def test_other_thread_blocked(self):
        pending = {1: ThreadContext(1).lock("m"), 2: ThreadContext(2).lock("m")}
        assert _pick(_lock_log(), pending) == 1
        with pytest.raises(ReplayDivergence, match="T2 awaits its sketch turn"):
            _pick(_lock_log(), {2: pending[2]})

    def test_signature_mismatch_is_divergence(self):
        with pytest.raises(ReplayDivergence, match="next visible op"):
            _pick(_lock_log(), {1: ThreadContext(1).lock("other")})

    def test_exhausted_sketch_frees_everything(self):
        op = ThreadContext(2).lock("m")
        assert _pick(SketchLog(SketchKind.SYNC), {2: op}) == 2
        # past the recorded horizon: T1's lock consumed the only entry
        taken = Event(0, 1, OpKind.LOCK, obj="m")
        assert _pick(_lock_log(), {2: op}, executed=[taken]) == 2


def _locker(ctx):
    yield ctx.lock("m")
    yield ctx.unlock("m")


def _two_lockers(ctx):
    first = yield ctx.spawn(_locker)
    second = yield ctx.spawn(_locker)
    yield ctx.join(first)
    yield ctx.join(second)


def _two_lockers_log(first_lock="m"):
    """SYNC log of ``_two_lockers`` where T1 takes the mutex first."""
    log = SketchLog(SketchKind.SYNC)
    for entry in (
        SketchEntry(0, OpKind.SPAWN, None),
        SketchEntry(0, OpKind.SPAWN, None),
        SketchEntry(1, OpKind.LOCK, first_lock),
        SketchEntry(1, OpKind.UNLOCK, "m"),
        SketchEntry(2, OpKind.LOCK, "m"),
        SketchEntry(2, OpKind.UNLOCK, "m"),
        SketchEntry(0, OpKind.JOIN, 1),
        SketchEntry(0, OpKind.JOIN, 2),
    ):
        log.append(entry)
    return log


class _StopRun(Exception):
    """Raised by a snapshot hook to end a run at the hook's depth."""


def _stop_run(machine):
    raise _StopRun


class TestDivergenceTexts:
    """Divergence reasons reach reports and run journals verbatim; the
    scheduler builds them off its hot path, so pin the exact text."""

    def test_no_schedulable_thread(self):
        # T1 is due to lock next but must wait for T2's lock, and T2
        # waits for its own sketch turn: nothing can run.
        constraint = OrderConstraint(
            before=EventRef(2, "lock", "m", 1),
            after=EventRef(1, "lock", "m", 1),
        )
        trace = replay(
            Program("two-lockers", _two_lockers), _two_lockers_log(), [constraint]
        )
        assert trace.divergence == (
            "no schedulable thread: T1 awaits an order constraint; "
            "T2 awaits its sketch turn"
        )
        assert trace.steps == 2

    def test_next_visible_op_is_not_the_recorded_entry(self):
        trace = replay(
            Program("two-lockers", _two_lockers), _two_lockers_log("other")
        )
        assert trace.divergence == (
            "thread 1 is due to produce sketch entry [T1 lock 'other'] "
            "but its next visible op is T1 lock 'm'"
        )

    def test_visible_event_executed_out_of_turn(self):
        program = Program("two-lockers", _two_lockers)
        scheduler = PIRScheduler(_two_lockers_log())
        machine = Machine(program, scheduler)
        # The hook fires at the top of the step loop, after 2 steps.
        with pytest.raises(_StopRun):
            machine.run(snapshot_depths=(2,), on_snapshot=_stop_run)
        # T2 takes the mutex although the sketch gives T1 the turn.
        machine.events.append(Event(2, 2, OpKind.LOCK, obj="m"))
        with pytest.raises(ReplayDivergence) as diverged:
            scheduler.pick(machine, machine.runnable_tids())
        assert diverged.value.reason == (
            "executed visible event #2 T2 lock 'm' out of sketch order "
            "(expected T1 lock 'm')"
        )
        assert diverged.value.step == 2


class TestSketchConformance:
    @pytest.mark.parametrize(
        "sketch",
        [SketchKind.SYNC, SketchKind.SYS, SketchKind.FUNC, SketchKind.BB,
         SketchKind.RW],
    )
    def test_replay_preserves_recorded_subsequence(self, sketch):
        program = producer_consumer_program(4)
        recorded = record(program, sketch=sketch, seed=9)
        trace = replay(program, recorded.log, seed=1)
        assert not trace.diverged, trace.divergence
        replayed_visible = [
            (e.tid, e.kind) for e in trace.events if event_visible(sketch, e)
        ]
        recorded_visible = [(en.tid, en.kind) for en in recorded.log]
        # The replay may extend past the recorded horizon, but its prefix
        # must be exactly the sketch.
        assert replayed_visible[: len(recorded_visible)] == recorded_visible

    def test_rw_sketch_replay_is_value_identical(self):
        # RW pins the order of every *shared* operation; thread-local
        # quanta may interleave differently, but all observable state
        # (shared access values, final memory, output) must be identical.
        program = counter_program(nworkers=3, iters=4)
        recorded, original = record_with_trace(program, SketchKind.RW, seed=9)
        trace = replay(program, recorded.log, seed=5)

        def shared(events):
            return [
                (e.signature(), e.value)
                for e in events
                if event_visible(SketchKind.RW, e)
            ]

        assert shared(trace.events) == shared(original.events)
        assert trace.final_memory == original.final_memory
        assert trace.stdout == original.stdout

    def test_different_base_seeds_vary_unrecorded_order(self):
        program = counter_program(nworkers=3, iters=4)
        recorded = record(program, SketchKind.SYNC, seed=9)
        schedules = set()
        for seed in range(6):
            trace = replay(program, recorded.log, seed=seed)
            schedules.add(tuple(trace.schedule))
        assert len(schedules) > 1  # memory ops are genuinely free

    def test_none_sketch_is_unconstrained_random(self):
        program = counter_program()
        recorded = record(program, SketchKind.NONE, seed=9)
        trace = replay(program, recorded.log, seed=4)
        assert not trace.diverged
        assert len(trace.events) > 0


class TestConstraints:
    def test_constraint_forces_order(self):
        # Force worker 2's first counter read to wait for worker 1's
        # final write: worker 1's three increments land first, so worker
        # 2 reads at least 3.
        program = counter_program(nworkers=2, iters=3)
        recorded = record(program, SketchKind.SYNC, seed=9)
        constraint = OrderConstraint(
            before=EventRef(1, "mem", "counter", 6),  # w1's last write
            after=EventRef(2, "mem", "counter", 1),  # w2's first read
        )
        for seed in range(5):
            trace = replay(program, recorded.log, [constraint], seed=seed)
            assert not trace.diverged, trace.divergence
            w2_reads = [
                e.value
                for e in trace.events
                if e.tid == 2 and e.kind is OpKind.READ and e.addr == "counter"
            ]
            assert w2_reads[0] == 3

    def test_contradictory_constraints_diverge(self):
        program = counter_program(nworkers=2, iters=3)
        recorded = record(program, SketchKind.SYNC, seed=9)
        a = OrderConstraint(
            before=EventRef(1, "mem", "counter", 1),
            after=EventRef(2, "mem", "counter", 1),
        )
        b = OrderConstraint(
            before=EventRef(2, "mem", "counter", 1),
            after=EventRef(1, "mem", "counter", 1),
        )
        trace = replay(program, recorded.log, [a, b], seed=0)
        assert trace.diverged
        assert "order constraint" in trace.divergence


class TestDivergenceDetection:
    def test_wrong_program_diverges(self):
        # Record one program, replay a structurally different one.
        recorded = record(producer_consumer_program(4), SketchKind.SYNC, seed=9)
        other = counter_program(nworkers=2, iters=2)
        trace = replay(other, recorded.log, seed=0)
        assert trace.diverged

    def test_divergence_reports_reason(self):
        recorded = record(producer_consumer_program(4), SketchKind.SYNC, seed=9)
        trace = replay(counter_program(), recorded.log, seed=0)
        assert trace.divergence  # human-readable text
        assert isinstance(trace.divergence, str)

    def test_describe(self):
        log = SketchLog(SketchKind.SYNC)
        scheduler = PIRScheduler(log, (), base_seed=3)
        text = scheduler.describe()
        assert "sync" in text and "seed=3" in text


class TestTrylockReplaySemantics:
    def test_trylock_outcome_may_flip_and_is_caught_downstream(self):
        # Sketch entries record that a TRYLOCK happened, not whether it
        # succeeded; a replay where the outcome flips takes a different
        # branch, and any resulting visible-op mismatch surfaces as
        # divergence rather than silent corruption.
        def holder(ctx):
            yield ctx.lock("m")
            yield ctx.local(4)
            yield ctx.unlock("m")

        def opportunist(ctx):
            got = yield ctx.trylock("m")
            if got:
                yield ctx.write("path", "fast")
                yield ctx.unlock("m")
            else:
                yield ctx.write("path", "slow")

        def main(ctx):
            a = yield ctx.spawn(holder)
            b = yield ctx.spawn(opportunist)
            yield ctx.join(a)
            yield ctx.join(b)

        program = Program("trylock", main, initial_memory={"path": None})
        recorded = record(program, SketchKind.SYNC, seed=3)
        outcomes = set()
        for seed in range(12):
            trace = replay(program, recorded.log, seed=seed)
            if trace.diverged:
                outcomes.add("diverged")
            else:
                outcomes.add(trace.final_memory["path"])
        # every attempt either completed on some branch or was aborted as
        # divergent - never a half-consistent state
        assert outcomes <= {"fast", "slow", "diverged"}
        assert outcomes, "no attempts ran"
