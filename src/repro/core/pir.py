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

from typing import Any, List, Sequence, Tuple, Union

from repro.core.constraints import ConstraintGate, OrderConstraint
from repro.core.sketches import SketchEntry, entry_for_op, visible_mask
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.sim.events import Event
from repro.sim.machine import Machine
from repro.sim.ops import Op
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
        starts here, through :meth:`on_run_start` or
        :meth:`restore_resume_state`."""
        self.cursor = SketchCursor(self.log)
        self.cursor.position = position
        self.gate = ConstraintGate(self.constraints)
        self._seen_events = seen_events

    def on_run_start(self, machine: Machine) -> None:
        """Rewind the cursor, the gate and the policy for a run on
        ``machine``.

        A machine restored from an epoch snapshot already holds the
        production prefix *executed inside the snapshot*, and this
        scheduler's log is then the epoch-local suffix: the cursor starts
        at 0 while the gate's occurrence counters are primed by observing
        the prefix (constraints generated from attempt traces count
        occurrences from the start of the run, prefix included).  A
        resumed machine skips this hook, so call it after such a restore.
        """
        events = machine.events
        self._start(0, len(events))
        for event in events:
            self.gate.observe(event)
        self._policy.on_run_start(machine)

    def pick(self, machine: Machine, runnable: Sequence[int]) -> int:
        events = machine.events
        if self._seen_events != len(events):
            self._catch_up(events)
        threads = machine.threads
        cursor = self.cursor
        entries = cursor.entries
        position = cursor.position
        # The cursor check: only the next entry's thread may run a
        # visible op, and only that entry's op.
        expected = entries[position] if position < len(entries) else None
        visible = cursor.visible_mask
        constrained = self.gate.live_by_after_tid
        blocks = self.gate.blocks
        allowed: List[int] = []
        for tid in runnable:
            op = threads[tid].pending_op
            if expected is not None and op.kind.bit & visible:
                if tid != expected.tid:
                    continue  # awaits its sketch turn
                if not expected.matches_op(tid, op):
                    raise cursor.off_sketch(tid, op, expected)
            if tid in constrained and blocks(tid, op):
                continue  # awaits an order constraint
            allowed.append(tid)
        if not allowed:
            raise ReplayDivergence(
                "no schedulable thread: " + self._blocked_reasons(machine, runnable),
                step=len(events),
            )
        if len(allowed) == 1:
            return allowed[0]
        return self._policy.pick(machine, allowed)

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
        ``getstate()`` tuple; every restore loads that state into the
        fresh scheduler's own policy.
        """
        return (
            self.cursor.position,
            self.gate.counter.capture(),
            self._policy.capture(),
            self._seen_events,
        )

    def restore_resume_state(self, state: Tuple[Any, ...]) -> None:
        """Fast-forward this scheduler from :meth:`capture_resume_state`.

        Call instead of ``on_run_start`` (the machine resuming from a
        snapshot skips that hook); the gate keeps *this* scheduler's
        constraints — only the execution-progress state is loaded.
        """
        position, counter_state, policy, seen = state
        self._start(position, seen)
        self.gate.counter.restore(counter_state)
        self._policy.restore(policy)

    def describe(self) -> str:
        return (
            f"PIR(sketch={self.log.sketch.value}, "
            f"constraints={len(self.constraints)}, seed={self.base_seed})"
        )
