"""PIR: the Partial-Information Replay scheduler.

One replay attempt = one machine run under a :class:`PIRScheduler`, which
enforces three things at every step:

1. **Sketch order** (via :class:`SketchCursor`): the i-th sketch-visible
   event of the attempt must match the i-th recorded entry.  A thread
   whose pending op is sketch-visible but out of turn simply waits; a
   thread that is *in* turn but about to do something *different* than the
   recorded entry proves the attempt has diverged, and the attempt is
   aborted immediately (failing fast is a large chunk of PRES's replay
   efficiency).
2. **Flip constraints** (via :class:`~repro.core.constraints.
   ConstraintGate`): ordering edges injected by feedback generation.
3. **Base policy** for everything still unconstrained: a seeded
   :class:`~repro.sim.scheduler.RandomScheduler` (or
   :class:`~repro.sim.scheduler.PCTScheduler`), so an attempt is a pure
   function of (sketch, constraints, base seed).

If no thread can be scheduled while unfinished threads remain *because of
the gates* (the machine itself had runnable threads), the attempt is stuck
— also a divergence.  Genuine program deadlocks (no machine-runnable
threads at all) are left to the machine, which records them as failures;
those are legitimate reproductions when the recorded bug *is* a deadlock.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.constraints import ConstraintGate, OrderConstraint
from repro.core.sketches import SketchEntry, entry_for_op, visible_mask
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.sim.events import Event
from repro.sim.machine import Machine, MachineConfig
from repro.sim.ops import Op
from repro.sim.program import Program
from repro.sim.scheduler import PCTScheduler, RandomScheduler, Scheduler


class SketchCursor:
    """Walks the recorded sketch log during one attempt."""

    def __init__(self, log: SketchLog) -> None:
        self.entries = log.entries
        self.position = 0
        #: ``kind.bit & visible_mask`` is nonzero for sketch-visible kinds.
        self.visible_mask = visible_mask(log.sketch)

    def off_sketch(
        self, tid: int, op: Op, expected: SketchEntry
    ) -> ReplayDivergence:
        """The divergence of an in-turn thread whose next visible op is
        not the recorded entry."""
        return ReplayDivergence(
            f"thread {tid} is due to produce sketch entry "
            f"[{expected.describe()}] but its next visible op is "
            f"{entry_for_op(tid, op).describe()}",
            step=self.position,
        )


def make_chooser(policy: str, seed: int) -> Union[RandomScheduler, PCTScheduler]:
    """PIR's base policy by name: 'random' (:class:`RandomScheduler`) or
    'pct' (:class:`PCTScheduler`)."""
    if policy == "random":
        return RandomScheduler(seed)
    if policy == "pct":
        return PCTScheduler(seed)
    raise ValueError(f"unknown base policy {policy!r}; expected 'random' or 'pct'")


class PIRScheduler(Scheduler):
    """Scheduler enforcing sketch + constraints, randomizing the rest."""

    def __init__(
        self,
        log: SketchLog,
        constraints: Sequence[OrderConstraint] = (),
        base_seed: int = 0,
        base_policy: str = "random",
    ) -> None:
        self.log = log
        self.constraints = list(constraints)
        self.base_seed = base_seed
        self.base_policy = base_policy
        #: makes every choice the sketch and the constraints leave open.
        self._policy = make_chooser(base_policy, base_seed)

    def _start(self, position: int, seen_events: int) -> None:
        """A cursor at ``position`` and a gate that has counted nothing,
        for a run that has executed ``seen_events`` events.  Every run
        starts here, through :meth:`on_run_start` or :meth:`resume`."""
        self.cursor = SketchCursor(self.log)
        self.cursor.position = position
        self.gate = ConstraintGate(self.constraints)
        self._seen_events = seen_events
        #: the runnable list the last pick was handed, and the threads
        #: it allowed (see :meth:`pick`).
        self._runnable: Optional[Sequence[int]] = None
        self._allowed: List[int] = []

    def on_run_start(self, machine: Machine) -> None:
        """Rewind the cursor, the gate and the policy for a run on
        ``machine``.

        A machine restored from an epoch snapshot already holds the
        production prefix *executed inside the snapshot*, and this
        scheduler's log is then the epoch-local suffix: the cursor starts
        at 0 while the gate's occurrence counters are primed by observing
        the prefix (constraints generated from attempt traces count
        occurrences from the start of the run, prefix included).  A
        restored machine skips this hook; :meth:`resume` calls it for an
        epoch snapshot.
        """
        events = machine.events
        self._start(0, len(events))
        for event in events:
            self.gate.observe(event)
        self._policy.on_run_start(machine)

    def pick(self, machine: Machine, runnable: Sequence[int]) -> int:
        """The next thread: one the sketch and the gate allow, chosen by
        the base policy when more than one is.

        The allowed list is kept from pick to pick.  While the machine
        hands over the same runnable list object and no event since the
        last pick advanced the cursor or ran a constraint's ``before``,
        only the threads that executed since are decided again.  That
        rests on the machine's contract: its runnable list is replaced
        whenever membership changes, and a member's pending op changes
        only when that thread executes.  Either way each verdict comes
        from :meth:`_allows`.
        """
        events = machine.events
        seen = self._seen_events
        cursor = self.cursor
        position = cursor.position
        if seen != len(events):
            self._catch_up(events)
        entries = cursor.entries
        expected = (
            entries[cursor.position] if cursor.position < len(entries) else None
        )
        threads = machine.threads
        allows = self._allows
        allowed: Optional[List[int]] = None
        if runnable is self._runnable and cursor.position == position:
            allowed = self._allowed
            unmet = self.gate.unmet_by_before_tid
            before_ran = self.gate.before_ran
            for gidx in range(seen, len(events)):
                tid = events[gidx].tid
                if tid in unmet and before_ran(tid):
                    allowed = None  # a held thread may be free now
                    break
                if allows(tid, threads[tid].pending_op, expected):
                    if tid not in allowed:
                        insort(allowed, tid)
                elif tid in allowed:
                    allowed.remove(tid)
        if allowed is None:
            allowed = [
                tid for tid in runnable
                if allows(tid, threads[tid].pending_op, expected)
            ]
            self._runnable = runnable
            self._allowed = allowed
        if not allowed:
            raise ReplayDivergence(
                "no schedulable thread: " + self._blocked_reasons(machine, runnable),
                step=len(events),
            )
        if len(allowed) == 1:
            return allowed[0]
        return self._policy.pick(machine, allowed)

    def _allows(
        self, tid: int, op: Op, expected: Optional[SketchEntry]
    ) -> bool:
        """Whether ``tid`` may run its pending ``op`` now, ``expected``
        being the sketch entry due next (None past the log's end).

        The cursor check: only the next entry's thread may run a visible
        op, and only that entry's op -- an in-turn thread about to do
        anything else raises the attempt's divergence.  Then the gate:
        an op an order constraint still holds waits.
        """
        if expected is not None and op.kind.bit & self.cursor.visible_mask:
            if tid != expected.tid:
                return False  # awaits its sketch turn
            if not expected.matches_op(tid, op):
                raise self.cursor.off_sketch(tid, op, expected)
        gate = self.gate
        return tid not in gate.live_by_after_tid or not gate.blocks(tid, op)

    def _blocked_reasons(self, machine: Machine, runnable: Sequence[int]) -> str:
        """Why each runnable thread is gated (only built to report a stuck
        attempt, so the per-step path formats nothing).  ``pick`` has
        already raised for an in-turn thread whose op is off the sketch,
        so a visible op waits exactly when it is another thread's turn."""
        cursor = self.cursor
        entries = cursor.entries
        expected = (
            entries[cursor.position] if cursor.position < len(entries) else None
        )
        reasons: List[str] = []
        for tid in runnable:
            op = machine.threads[tid].pending_op
            if (
                expected is not None
                and op.kind.bit & cursor.visible_mask
                and tid != expected.tid
            ):
                reasons.append(f"T{tid} awaits its sketch turn")
            elif self.gate.blocks(tid, op):
                reasons.append(f"T{tid} awaits an order constraint")
        return "; ".join(reasons) or "all gated"

    def _catch_up(self, events: Sequence[Event]) -> None:
        """Feed the events executed since the last pick to the gate's
        counter and the cursor, each event once."""
        observe = self.gate.counter.observe
        cursor = self.cursor
        entries = cursor.entries
        visible = cursor.visible_mask
        position = cursor.position
        seen = self._seen_events
        while seen < len(events):
            event = events[seen]
            seen += 1
            observe(event)
            if position < len(entries) and event.kind.bit & visible:
                expected = entries[position]
                if event.tid != expected.tid:
                    raise ReplayDivergence(
                        f"executed visible event {event.describe()} out of "
                        f"sketch order (expected {expected.describe()})",
                        step=event.gidx,
                    )
                position += 1
        cursor.position = position
        self._seen_events = seen

    # -- prefix resume -----------------------------------------------------

    def capture_resume_state(self) -> Tuple[Any, ...]:
        """Scheduler state to pair with a :meth:`Machine.capture_state`
        snapshot taken at the same step.

        Everything here is constraint-independent (cursor position,
        executed-occurrence counts, base-policy state, events consumed):
        within a child's safe prefix the child makes the very same picks
        as its parent, so a parent-built snapshot fast-forwards a child
        scheduler whose gate holds a *larger* constraint set.  The base
        policy travels as its ``capture()``, which holds its RNG as a
        ``getstate()`` tuple; every :meth:`resume` loads that state into
        the scheduler's own policy.
        """
        return (
            self.cursor.position,
            self.gate.counter.capture(),
            self._policy.capture(),
            self._seen_events,
        )

    def resume(
        self,
        program: Program,
        config: MachineConfig,
        machine_state: Dict[str, Any],
        scheduler_state: Optional[Tuple[Any, ...]] = None,
    ) -> Machine:
        """The machine of a run continuing from a snapshot under this
        scheduler: the one entry for a prefix and an epoch restore.

        The machine is built straight from ``machine_state``
        (:meth:`Machine.restored`).  With ``scheduler_state``, a
        :meth:`capture_resume_state` of the same step, this scheduler
        fast-forwards to it: the gate keeps *this* scheduler's
        constraints, only the execution-progress state is loaded, and
        the base policy continues from the captured RNG state without
        seeding one first.  Without it (an epoch boundary keeps no
        scheduler state) the run starts fresh on the restored machine
        through :meth:`on_run_start`.
        """
        machine = Machine.restored(program, self, machine_state, config)
        if scheduler_state is None:
            self.on_run_start(machine)
            return machine
        position, counter_state, policy, seen = scheduler_state
        self._start(position, seen)
        self.gate.counter.restore(counter_state)
        self._policy.restore(policy)
        return machine

    def describe(self) -> str:
        return (
            f"PIR(sketch={self.log.sketch.value}, "
            f"constraints={len(self.constraints)}, seed={self.base_seed})"
        )
