"""Schedulers: the single source of execution non-determinism.

At every machine step, :meth:`Scheduler.pick` chooses which runnable
thread's pending operation executes.  Production runs use
:class:`RandomScheduler` (the "OS scheduler" of the simulated world);
deterministic re-execution from a complete log uses
:class:`FixedOrderScheduler`; PRES's partial-information replayer provides
its own scheduler (:class:`repro.core.pir.PIRScheduler`) built on the
same interface, which hands every choice its sketch and constraints leave
open to a :class:`RandomScheduler` or a :class:`PCTScheduler`.
"""

from __future__ import annotations

import functools
import random
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.errors import ReplayDivergence, SchedulerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.machine import Machine


class Scheduler:
    """Base class; subclasses implement :meth:`pick`."""

    def pick(self, machine: "Machine", runnable: Sequence[int]) -> int:
        """Choose the next thread to step from ``runnable`` (non-empty).

        ``runnable`` is in ascending tid order.  Implementations may
        inspect the machine (pending ops, memory, trace so far) but must
        not mutate it.
        """
        raise NotImplementedError

    def on_run_start(self, machine: "Machine") -> None:
        """Hook invoked once before the first step."""

    def describe(self) -> str:
        return type(self).__name__


def rng_from_state(state: Tuple[Any, ...]) -> random.Random:
    """A ``random.Random`` in the ``getstate()`` state ``state``.

    Built without the seeding ``random.Random()`` does first (about
    6 µs, mostly spent expanding the seed), which ``setstate`` would
    overwrite at once.
    """
    rng = random.Random.__new__(random.Random)
    rng.setstate(state)
    return rng


def _seeded_rng(scheduler: Any) -> random.Random:
    """A scheduler's RNG, seeded from its ``seed`` on first use.

    As a cached property it costs nothing once set, and a scheduler
    whose run starts (``on_run_start``) or resumes (``restore``) before
    it draws never seeds one only to replace it: a cold run seeds once,
    a restored one not at all.
    """
    return random.Random(scheduler.seed)


class RandomScheduler(Scheduler):
    """Uniform random choice — the model of a production OS scheduler.

    The same seed always yields the same execution, which is how benchmark
    harnesses pin down a "production run that failed".  It is also PIR's
    default base policy, which is why it can :meth:`capture` and
    :meth:`restore` its progress for a prefix snapshot.
    """

    _rng = functools.cached_property(_seeded_rng)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def pick(self, machine: "Machine", runnable: Sequence[int]) -> int:
        """Uniform choice among the runnable threads."""
        # randrange(n) for n > 0, without its Python-level argument
        # checks: draw n.bit_length() bits until they fall below n.
        n = len(runnable)
        bits = n.bit_length()
        getrandbits = self._rng.getrandbits
        index = getrandbits(bits)
        while index >= n:
            index = getrandbits(bits)
        return runnable[index]

    def on_run_start(self, machine: "Machine") -> None:
        """Re-arm the RNG so one scheduler object is reusable across runs."""
        self._rng = random.Random(self.seed)

    def capture(self) -> Tuple[Any, ...]:
        """This scheduler's progress, for a snapshot; :meth:`restore`
        loads it into a scheduler built with the same arguments, and
        never changes it, so one capture serves any number of restores."""
        return self._rng.getstate()

    def restore(self, state: Tuple[Any, ...]) -> None:
        """Continue from a :meth:`capture`."""
        self._rng = rng_from_state(state)

    def describe(self) -> str:
        """Identify the scheduler and its seed (for reports)."""
        return f"RandomScheduler(seed={self.seed})"


class PCTScheduler(Scheduler):
    """Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS 2010).

    Each thread gets a random priority; the highest-priority runnable
    thread always runs, except at ``depth - 1`` randomly chosen steps
    where the running thread's priority drops below everyone else's.  For
    a bug of depth d, one run finds it with probability >= 1/(n * k^(d-1))
    — much better than uniform random for ordering bugs, which makes PCT
    the strong stress-testing baseline for the exploration-strategy
    ablation (benchmarks/bench_e9_exploration_strategies.py).  As PIR's
    ``pct`` base policy it counts only the choices PIR leaves open.
    """

    _rng = functools.cached_property(_seeded_rng)

    def __init__(self, seed: int, depth: int = 3, max_steps_hint: int = 1000):
        self.seed = seed
        self.depth = depth
        self.max_steps_hint = max_steps_hint
        self._priorities: dict = {}
        self._change_points: set = set()
        self._steps = 0

    def on_run_start(self, machine: "Machine") -> None:
        self._rng = random.Random(self.seed)
        self._priorities = {}
        self._steps = 0
        self._change_points = {
            self._rng.randrange(self.max_steps_hint)
            for _ in range(max(0, self.depth - 1))
        }

    def _priority_of(self, tid: int) -> float:
        if tid not in self._priorities:
            # fresh threads draw a high base priority band
            self._priorities[tid] = 1.0 + self._rng.random()
        return self._priorities[tid]

    def pick(self, machine: "Machine", runnable: Sequence[int]) -> int:
        self._steps += 1
        winner = max(runnable, key=self._priority_of)
        if self._steps in self._change_points:
            # demote the would-be winner below every base priority
            self._priorities[winner] = self._rng.random()
            winner = max(runnable, key=self._priority_of)
        return winner

    def capture(self) -> Tuple[Any, ...]:
        """As :meth:`RandomScheduler.capture`."""
        return (
            self._rng.getstate(),
            dict(self._priorities),
            frozenset(self._change_points),
            self._steps,
        )

    def restore(self, state: Tuple[Any, ...]) -> None:
        """Continue from a :meth:`capture`."""
        rng, priorities, change_points, steps = state
        self._rng = rng_from_state(rng)
        self._priorities = dict(priorities)
        self._change_points = set(change_points)
        self._steps = steps

    def describe(self) -> str:
        return f"PCTScheduler(seed={self.seed}, depth={self.depth})"


class FixedOrderScheduler(Scheduler):
    """Replay an exact schedule (a list of tids) — complete-log replay.

    Once PRES has reproduced a bug, the successful attempt's schedule is
    saved and this scheduler replays it verbatim: the "reproduce every
    time" guarantee.  A mismatch (the scheduled tid is not runnable, or the
    log is exhausted while threads still run) raises
    :class:`~repro.errors.ReplayDivergence`, because it means the recorded
    schedule does not correspond to this program/input.

    With ``then``, the schedule is a prefix: once it runs out, ``then``
    picks every later step.  That is the developer's "what-if" tool once a
    bug is captured: replay the complete log up to just before the
    failure, then let a different scheduler vary the ending — e.g. to
    check whether a candidate fix closes *every* bad ending reachable from
    that state, not just the recorded one.
    """

    def __init__(
        self, schedule: Sequence[int], then: Optional[Scheduler] = None
    ) -> None:
        self.schedule: List[int] = list(schedule)
        self.then = then
        self._cursor = 0

    def pick(self, machine: "Machine", runnable: Sequence[int]) -> int:
        if self._cursor >= len(self.schedule):
            if self.then is not None:
                return self.then.pick(machine, runnable)
            raise ReplayDivergence(
                "complete log exhausted while threads are still runnable",
                step=self._cursor,
            )
        tid = self.schedule[self._cursor]
        if tid not in runnable:
            raise ReplayDivergence(
                f"scheduled thread {tid} is not runnable (runnable={list(runnable)})",
                step=self._cursor,
            )
        self._cursor += 1
        return tid

    def on_run_start(self, machine: "Machine") -> None:
        self._cursor = 0
        if self.then is not None:
            self.then.on_run_start(machine)

    def describe(self) -> str:
        if self.then is None:
            return "FixedOrderScheduler"
        return (
            f"FixedOrderScheduler({len(self.schedule)} steps, "
            f"then {self.then.describe()})"
        )


def validate_pick(tid: int, runnable: Sequence[int]) -> None:
    """Machine-side guard: a scheduler must return a runnable tid."""
    if tid not in runnable:
        raise SchedulerError(
            f"scheduler chose thread {tid}, runnable set is {list(runnable)}"
        )
