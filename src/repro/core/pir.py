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
3. **Base policy** for everything still unconstrained: a seeded RNG, so an
   attempt is a pure function of (sketch, constraints, base seed).

If no thread can be scheduled while unfinished threads remain *because of
the gates* (the machine itself had runnable threads), the attempt is stuck
— also a divergence.  Genuine program deadlocks (no machine-runnable
threads at all) are left to the machine, which records them as failures;
those are legitimate reproductions when the recorded bug *is* a deadlock.
"""

from __future__ import annotations

import enum
import random
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.constraints import ConstraintGate, OrderConstraint
from repro.core.sketches import SketchEntry, SketchKind, entry_for_op, visible_mask
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.sim.events import Event
from repro.sim.machine import Machine
from repro.sim.ops import Op
from repro.sim.scheduler import Scheduler


class Gate(enum.Enum):
    """Verdict of a gate for one (thread, pending op)."""

    FREE = "free"  # not governed by this gate
    ALLOWED = "allowed"  # governed and it is this op's turn
    BLOCKED = "blocked"  # governed, not its turn yet


class SketchCursor:
    """Walks the recorded sketch log during one attempt."""

    def __init__(self, log: SketchLog) -> None:
        self.sketch: SketchKind = log.sketch
        self.entries = log.entries
        self.position = 0
        #: ``kind.bit & visible_mask`` is nonzero for sketch-visible kinds.
        self.visible_mask = visible_mask(log.sketch)

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.entries)

    def gate(self, tid: int, op: Op) -> Gate:
        """Classify a pending op against the next expected entry.

        Raises :class:`ReplayDivergence` when the expected thread's next
        visible action provably differs from the recorded one.
        :meth:`PIRScheduler.pick` inlines this check on its hot path.
        """
        if not op.kind.bit & self.visible_mask:
            return Gate.FREE
        if self.exhausted:
            # Past the recorded horizon (the production run ended here,
            # e.g. at its failure); the remainder is unconstrained.
            return Gate.FREE
        expected = self.entries[self.position]
        if tid != expected.tid:
            return Gate.BLOCKED
        if expected.matches_op(tid, op):
            return Gate.ALLOWED
        raise self.off_sketch(tid, op, expected)

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


class BaseChooser:
    """Policy for the genuinely unconstrained choices within an attempt."""

    def restart(self) -> None:
        raise NotImplementedError

    def choose(self, allowed: List[int]) -> int:
        raise NotImplementedError

    def capture(self) -> Any:
        """This chooser's progress, for a snapshot; :meth:`restore`
        loads it into a chooser built with the same arguments, and never
        changes it, so one capture serves any number of restores."""
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        raise NotImplementedError


class RandomChooser(BaseChooser):
    """Uniform random over the allowed set (the default)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def restart(self) -> None:
        self._rng = random.Random(self.seed)

    def choose(self, allowed: List[int]) -> int:
        # randrange(n) for n > 0, without its Python-level argument
        # checks: draw n.bit_length() bits until they fall below n.
        n = len(allowed)
        bits = n.bit_length()
        getrandbits = self._rng.getrandbits
        index = getrandbits(bits)
        while index >= n:
            index = getrandbits(bits)
        return allowed[index]

    def capture(self) -> Tuple[Any, ...]:
        return self._rng.getstate()

    def restore(self, state: Tuple[Any, ...]) -> None:
        self._rng.setstate(state)


class PCTChooser(BaseChooser):
    """PCT-style priorities over the allowed set.

    Used by the exploration-strategy ablation: a sketch-respecting PCT
    replayer that concentrates probability on few-ordering-point bugs
    without any feedback.
    """

    def __init__(self, seed: int, depth: int = 3, max_steps_hint: int = 1000):
        self.seed = seed
        self.depth = depth
        self.max_steps_hint = max_steps_hint
        self._rng = random.Random(seed)
        self._priorities: dict = {}
        self._change_points: set = set()
        self._steps = 0

    def restart(self) -> None:
        self._rng = random.Random(self.seed)
        self._priorities = {}
        self._steps = 0
        self._change_points = {
            self._rng.randrange(self.max_steps_hint)
            for _ in range(max(0, self.depth - 1))
        }

    def _priority_of(self, tid: int) -> float:
        if tid not in self._priorities:
            self._priorities[tid] = 1.0 + self._rng.random()
        return self._priorities[tid]

    def choose(self, allowed: List[int]) -> int:
        self._steps += 1
        winner = max(allowed, key=self._priority_of)
        if self._steps in self._change_points:
            self._priorities[winner] = self._rng.random()
            winner = max(allowed, key=self._priority_of)
        return winner

    def capture(self) -> Tuple[Any, ...]:
        return (
            self._rng.getstate(),
            dict(self._priorities),
            frozenset(self._change_points),
            self._steps,
        )

    def restore(self, state: Tuple[Any, ...]) -> None:
        rng, priorities, change_points, steps = state
        self._rng.setstate(rng)
        self._priorities = dict(priorities)
        self._change_points = set(change_points)
        self._steps = steps


def make_chooser(policy: str, seed: int) -> BaseChooser:
    """Build a chooser by name: 'random' or 'pct'."""
    if policy == "random":
        return RandomChooser(seed)
    if policy == "pct":
        return PCTChooser(seed)
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
        self.cursor = SketchCursor(log)
        self.gate = ConstraintGate(self.constraints)
        self._chooser = make_chooser(base_policy, base_seed)
        self._seen_events = 0

    def on_run_start(self, machine: Machine) -> None:
        self.cursor = SketchCursor(self.log)
        self.gate = ConstraintGate(self.constraints)
        self._chooser = make_chooser(self.base_policy, self.base_seed)
        self._chooser.restart()
        self._seen_events = 0

    def pick(self, machine: Machine, runnable: Sequence[int]) -> int:
        events = machine.events
        if self._seen_events != len(events):
            self._catch_up(events)
        threads = machine.threads
        cursor = self.cursor
        entries = cursor.entries
        position = cursor.position
        # The cursor check (SketchCursor.gate), inlined: only the next
        # entry's thread may run a visible op, and only that entry's op.
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
        return self._chooser.choose(allowed)

    def _blocked_reasons(self, machine: Machine, runnable: Sequence[int]) -> str:
        """Why each runnable thread is gated (only built to report a stuck
        attempt, so the per-step path formats nothing)."""
        reasons: List[str] = []
        for tid in runnable:
            op = machine.threads[tid].pending_op
            if self.cursor.gate(tid, op) is Gate.BLOCKED:
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

    # -- epoch resume ------------------------------------------------------

    def prime_restored(self, machine: Machine) -> None:
        """Initialize against a machine restored from an epoch snapshot.

        The restored machine's event list already holds the production
        prefix that was *executed inside the snapshot*; this scheduler's
        log is the epoch-local suffix, so the cursor must start at 0
        while the constraint gate's occurrence counters are primed by
        observing the prefix (constraints generated from attempt traces
        count occurrences from the start of the run, prefix included).
        Call instead of ``on_run_start`` — a resumed machine skips that
        hook.
        """
        self.cursor = SketchCursor(self.log)
        self.gate = ConstraintGate(self.constraints)
        self._chooser = make_chooser(self.base_policy, self.base_seed)
        self._chooser.restart()
        for event in machine.events:
            self.gate.observe(event)
        self._seen_events = len(machine.events)

    # -- prefix resume -----------------------------------------------------

    def capture_resume_state(self) -> Tuple[Any, ...]:
        """Scheduler state to pair with a :meth:`Machine.capture_state`
        snapshot taken at the same step.

        Everything here is constraint-independent (cursor position,
        executed-occurrence counts, RNG/chooser state, events consumed):
        within a child's safe prefix the child makes the very same picks
        as its parent, so a parent-built snapshot fast-forwards a child
        scheduler whose gate holds a *larger* constraint set.  The
        chooser travels as its :meth:`BaseChooser.capture`, which holds
        its RNG as a ``getstate()`` tuple; every restore loads that
        state into the fresh scheduler's own chooser.
        """
        return (
            self.cursor.position,
            self.gate.counter.capture(),
            self._chooser.capture(),
            self._seen_events,
        )

    def restore_resume_state(self, state: Tuple[Any, ...]) -> None:
        """Fast-forward this scheduler from :meth:`capture_resume_state`.

        Call instead of ``on_run_start`` (the machine resuming from a
        snapshot skips that hook); the gate keeps *this* scheduler's
        constraints — only the execution-progress state is loaded.
        """
        position, counter_state, chooser, seen = state
        self.cursor = SketchCursor(self.log)
        self.cursor.position = position
        self.gate = ConstraintGate(self.constraints)
        self.gate.counter.restore(counter_state)
        self._chooser.restore(chooser)
        self._seen_events = seen

    def describe(self) -> str:
        return (
            f"PIR(sketch={self.log.sketch.value}, "
            f"constraints={len(self.constraints)}, seed={self.base_seed})"
        )
