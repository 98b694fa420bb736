"""Tests for replay ordering constraints."""

from repro.core.constraints import (
    ConstraintGate,
    EventRef,
    OccurrenceCounter,
    OrderConstraint,
    RefIndex,
)
from repro.sim.events import Event
from repro.sim.ops import Op, OpKind
from repro.sim.program import ThreadContext

from tests.conftest import counter_program, run_program


def mem_event(gidx, tid, kind, addr, value=None):
    return Event(gidx=gidx, tid=tid, kind=kind, addr=addr, value=value)


def lock_event(gidx, tid, obj):
    return Event(gidx=gidx, tid=tid, kind=OpKind.LOCK, obj=obj)


class TestOccurrenceCounter:
    def test_counts_memory_accesses_per_thread_address(self):
        counter = OccurrenceCounter()
        counter.observe(mem_event(0, 1, OpKind.READ, "x"))
        counter.observe(mem_event(1, 1, OpKind.WRITE, "x"))
        counter.observe(mem_event(2, 2, OpKind.READ, "x"))
        assert counter.mem_count(1, "x") == 2
        assert counter.mem_count(2, "x") == 1
        assert counter.mem_count(1, "y") == 0

    def test_counts_lock_acquisitions(self):
        counter = OccurrenceCounter()
        counter.observe(lock_event(0, 1, "m"))
        counter.observe(Event(gidx=1, tid=1, kind=OpKind.TRYLOCK, obj="m", value=True))
        counter.observe(Event(gidx=2, tid=1, kind=OpKind.TRYLOCK, obj="m", value=False))
        assert counter.lock_count(1, "m") == 2  # failed trylock not counted

    def test_unlock_not_counted(self):
        counter = OccurrenceCounter()
        counter.observe(Event(gidx=0, tid=1, kind=OpKind.UNLOCK, obj="m"))
        assert counter.lock_count(1, "m") == 0

    def test_executed_checks_occurrence(self):
        counter = OccurrenceCounter()
        ref = EventRef(1, "mem", "x", 2)
        counter.observe(mem_event(0, 1, OpKind.READ, "x"))
        assert not counter.executed(ref)
        counter.observe(mem_event(1, 1, OpKind.READ, "x"))
        assert counter.executed(ref)

    def test_pending_matches_exact_occurrence(self):
        ctx = ThreadContext(1)
        counter = OccurrenceCounter()
        ref = EventRef(1, "mem", "x", 2)
        op = ctx.read("x")
        assert not counter.pending_matches(1, op, ref)  # would be 1st
        counter.observe(mem_event(0, 1, OpKind.READ, "x"))
        assert counter.pending_matches(1, op, ref)  # now the 2nd
        assert not counter.pending_matches(2, op, ref)  # wrong thread
        assert not counter.pending_matches(1, ctx.read("y"), ref)

    def test_pending_matches_lock_family(self):
        ctx = ThreadContext(3)
        counter = OccurrenceCounter()
        ref = EventRef(3, "lock", "m", 1)
        assert counter.pending_matches(3, ctx.lock("m"), ref)
        assert counter.pending_matches(3, ctx.trylock("m"), ref)
        assert not counter.pending_matches(3, ctx.unlock("m"), ref)


class TestConstraintGate:
    def test_blocks_after_until_before_fires(self):
        ctx = ThreadContext(2)
        constraint = OrderConstraint(
            before=EventRef(1, "mem", "x", 1),
            after=EventRef(2, "mem", "x", 1),
        )
        gate = ConstraintGate([constraint])
        assert gate.blocks(2, ctx.read("x"))
        gate.observe(mem_event(0, 1, OpKind.WRITE, "x"))
        assert not gate.blocks(2, ctx.read("x"))

    def test_does_not_block_unrelated_ops(self):
        ctx = ThreadContext(2)
        constraint = OrderConstraint(
            before=EventRef(1, "mem", "x", 1),
            after=EventRef(2, "mem", "x", 1),
        )
        gate = ConstraintGate([constraint])
        assert not gate.blocks(2, ctx.read("y"))
        assert not gate.blocks(3, ctx.read("x"))
        assert not gate.blocks(2, ctx.lock("m"))

    def test_blocks_only_named_occurrence(self):
        ctx = ThreadContext(2)
        constraint = OrderConstraint(
            before=EventRef(1, "mem", "x", 1),
            after=EventRef(2, "mem", "x", 2),
        )
        gate = ConstraintGate([constraint])
        assert not gate.blocks(2, ctx.read("x"))  # 1st access is free
        gate.observe(mem_event(0, 2, OpKind.READ, "x"))
        assert gate.blocks(2, ctx.read("x"))  # 2nd access gated


class TestRefIndex:
    def test_indexes_memory_and_lock_events(self):
        trace = run_program(counter_program(locked=True), 2)
        refs = RefIndex(trace.events)
        for event in trace.events:
            ref = refs.ref_of(event)
            if event.kind in (OpKind.READ, OpKind.WRITE):
                assert ref is not None and ref.family == "mem"
                assert ref.key == event.addr
            elif event.kind is OpKind.LOCK:
                assert ref is not None and ref.family == "lock"
            elif event.kind is OpKind.SPAWN:
                assert ref is None

    def test_occurrences_increment_in_program_order(self):
        trace = run_program(counter_program(nworkers=1, iters=3), 0)
        refs = RefIndex(trace.events)
        worker_reads = [
            e for e in trace.events
            if e.tid == 1 and e.kind is OpKind.READ and e.addr == "counter"
        ]
        # reads and writes share one per-(thread, address) sequence:
        # read #1, write #2, read #3, write #4, read #5, write #6
        occurrences = [refs.ref_of(e).occurrence for e in worker_reads]
        assert occurrences == [1, 3, 5]

    def test_lock_ref_builder(self):
        refs = RefIndex([])
        ref = refs.lock_ref(4, "m", 2)
        assert ref == EventRef(4, "lock", "m", 2)

    def test_describe(self):
        ref = EventRef(1, "mem", ("buf", 0), 3)
        constraint = OrderConstraint(ref, EventRef(2, "mem", ("buf", 0), 1))
        assert "->" in constraint.describe()
        assert "T1" in ref.describe()
