"""Schedule-prefix memoization: resume sibling attempts mid-simulation.

Feedback exploration is a tree: every mined candidate is its parent's
constraint set plus one flip, replayed under the same base seed.  The
flip's gate provably cannot alter anything before the candidate's
*safe prefix* (see :class:`~repro.core.feedback._PrefixIndex`), so the
child re-simulates the parent's opening steps — same picks, same RNG
draws, same events — before the search actually begins.  This module
skips that shared prefix: a live attempt snapshots its simulator state
as it passes a ladder of planned depths (:func:`capture_hooks`) and
returns the snapshots its own candidates can resume from
(:func:`resume_depths`); the engine's one :class:`PrefixTree` keeps them
keyed by ``(constraint set, seed, depth)`` and hands each child the
deepest one inside its safe prefix on a :class:`ResumePlan`; and
:func:`restore_machine` materializes the child machine from the plan,
wherever the attempt runs.

Design constraints, in order:

* **Exactness.**  A resumed attempt must produce the byte-identical
  trace of a cold run.  Snapshots carry all mutable machine state as a
  pickle blob and rebuild generators by feed replay
  (:meth:`Machine.capture_state`); the scheduler fast-forward carries
  the RNG, cursor, and occurrence counts
  (:meth:`PIRScheduler.capture_resume_state`).  Any surprise in the
  resume machinery falls back to a cold run — attempts are pure, so the
  result is the same either way, just slower.
* **Jobs-invariance.**  Capturing is pure observation: a copy of mid-run
  state cannot change the attempt's outcome.  The tree lives in the
  engine, is filled at fold time and read at batch assembly — both in
  pop order — so which plans are issued, and which of them carry a
  snapshot, is a function of the exploration schedule alone.  No worker
  holds a tree; a snapshot travels to the worker on the plan.
* **Bounded memory and overhead.**  Capture depths double
  (48, 96, 192, ...), so a live attempt pays O(log steps) snapshots and
  ships back only those at the depths its candidates resume from.  The
  tree holds at most ``max_nodes`` snapshots, evicting
  least-recently-used, and drops, as each attempt folds, the lineage
  aliases none of its pushed children can resume from
  (:meth:`PrefixTree.discard`).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.core.constraints import ConstraintSet, OrderConstraint
from repro.core.pir import PIRScheduler
from repro.sim.machine import Machine

#: Snapshots below this depth are not worth the restore cost.
MIN_RESUME_DEPTH = 24
#: First rung of the snapshot ladder; subsequent rungs double.
BASE_DEPTH = 48
#: The full capture ladder, covering any plausible attempt length.
CAPTURE_DEPTHS: Tuple[int, ...] = tuple(BASE_DEPTH * (1 << k) for k in range(12))

#: One ladder snapshot: ``(machine state, scheduler state)``, or that
#: pair as one pickle blob (:func:`pack`) once it has crossed a process
#: boundary.
Snapshot = Any


def pack(snapshot: Snapshot) -> bytes:
    """One snapshot as a single pickle blob, for a pool worker to ship.

    The engine stores and forwards a packed snapshot without unpickling
    it, so a snapshot crossing two process boundaries is pickled once
    and unpickled once, where it is restored.
    """
    return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)


def planned_depths(parent_steps: int) -> Tuple[int, ...]:
    """The snapshot-ladder depths inside a parent of ``parent_steps``.

    A pure function of the step count, so the engine plans a child's
    resume from candidate metadata alone.  All depths are strictly below
    ``parent_steps``: the parent's final step may have failed or
    diverged, and snapshots must be clean mid-run states.
    """
    return tuple(d for d in CAPTURE_DEPTHS if d < parent_steps)


def resume_depth(parent_steps: int, safe_prefix: int) -> int:
    """Deepest ladder depth usable for a child with this safe prefix.

    0 means "run cold" — no planned depth fits inside the prefix.
    """
    best = 0
    for depth in planned_depths(parent_steps):
        if depth <= safe_prefix:
            best = depth
    return best


def resume_depths(candidates: Iterable[Any]) -> FrozenSet[int]:
    """The ladder depths ``candidates`` plan to resume from.

    An attempt's snapshots at these depths are the ones its children
    can resume from; the rest serve nobody.
    """
    depths = (resume_depth(c.parent_steps, c.safe_prefix) for c in candidates)
    return frozenset(d for d in depths if d > 0)


@dataclass(frozen=True)
class ResumePlan:
    """Where a child attempt resumes, with the state it resumes from.

    Built by the engine at batch assembly from its :class:`PrefixTree`:
    ``snapshot`` is the parent's (``constraints - {flip}``, same seed)
    deepest ladder snapshot inside the child's safe prefix, taken at
    ``depth`` steps.  The plan travels with the task, so a pool worker,
    an in-process fallback and a chaos retry all restore the same state.
    """

    flip: OrderConstraint
    depth: int
    snapshot: Snapshot


class PrefixTree:
    """The engine's LRU store of mid-attempt simulator snapshots.

    ``max_nodes`` bounds snapshots, not attempts: each attempt keeps
    only the rungs its children can resume from, so the default holds
    the parents of a long best-first frontier.
    """

    def __init__(self, max_nodes: int = 256) -> None:
        self.max_nodes = max_nodes
        self._nodes: Dict[Tuple, Snapshot] = {}
        self.hits = 0
        self.misses = 0
        self.captures = 0
        self.aliases = 0

    def get(self, key: Tuple) -> Optional[Snapshot]:
        node = self._nodes.get(key)
        if node is not None:
            self.hits += 1
            del self._nodes[key]  # LRU refresh (dict is insertion-ordered)
            self._nodes[key] = node
        else:
            self.misses += 1
        return node

    def put(self, key: Tuple, snapshot: Snapshot) -> None:
        if key in self._nodes:
            del self._nodes[key]
        self._nodes[key] = snapshot
        self.captures += 1
        self._evict()

    def alias(self, src: Tuple, dst: Tuple) -> None:
        """Share ``src``'s snapshot under ``dst`` too (no copy is made).

        Sound whenever the two keys provably name identical states —
        snapshots are immutable once stored (restores copy out of them),
        so sharing is free.
        """
        node = self._nodes.get(src)
        if node is None:
            return
        if dst in self._nodes:
            del self._nodes[dst]
        self._nodes[dst] = node
        self.aliases += 1
        self._evict()

    def _evict(self) -> None:
        while len(self._nodes) > self.max_nodes:
            del self._nodes[next(iter(self._nodes))]

    def store(
        self,
        constraints: ConstraintSet,
        seed: int,
        snapshots: Iterable[Tuple[int, Snapshot]],
    ) -> None:
        """Keep the ``(depth, snapshot)`` rungs one attempt shipped back."""
        for depth, snapshot in snapshots:
            self.put((constraints, seed, depth), snapshot)

    def discard(
        self, constraints: ConstraintSet, seed: int, keep_below: int = 0
    ) -> None:
        """Drop the snapshots of attempt ``(constraints, seed)`` deeper
        than ``keep_below`` — the ones no child of it can resume from."""
        for depth in CAPTURE_DEPTHS:
            if depth > keep_below:
                self._nodes.pop((constraints, seed, depth), None)

    def plan(
        self,
        constraints: ConstraintSet,
        seed: int,
        flip: OrderConstraint,
        depth: int,
        parent_steps: int,
    ) -> Optional[ResumePlan]:
        """A plan carrying the parent's deepest snapshot at or below
        ``depth``, or None (counted as a miss) when no rung is warm.

        Probes the ladder downward, so a partially kept parent still
        serves its shallower rungs.  On a hit, the parent's rungs up to
        the resume point are aliased under the child's key: inside the
        safe prefix child and parent states are identical, and the
        resumed run never revisits those depths — without the aliases a
        resumed lineage would starve its own descendants of shallow
        snapshots.
        """
        parent: ConstraintSet = constraints - {flip}
        ladder = planned_depths(parent_steps)
        for found in reversed(ladder):
            if found <= depth and (parent, seed, found) in self._nodes:
                snapshot = self.get((parent, seed, found))
                for rung in ladder:
                    if rung > found:
                        break
                    self.alias((parent, seed, rung), (constraints, seed, rung))
                return ResumePlan(flip=flip, depth=found, snapshot=snapshot)
        self.misses += 1
        return None

    def __len__(self) -> int:
        return len(self._nodes)


def capture_hooks(
    scheduler: PIRScheduler, into: Dict[int, Snapshot]
) -> Tuple[Iterable[int], Callable[[Machine], None]]:
    """``(snapshot_depths, on_snapshot)`` for one live attempt.

    Passed to :meth:`Machine.run`, they snapshot the attempt's state
    into ``into[depth]`` as it passes each ladder depth — observation
    only, so the attempt's outcome is untouched.  Snapshots that cannot
    be taken cleanly (the machine already failed or diverged, or its
    state does not pickle) are skipped: a rung that cannot travel to
    another process is not kept in any.
    """

    def on_snapshot(machine: Machine) -> None:
        try:
            into[len(machine.schedule)] = (
                machine.capture_state(serialize=True),
                scheduler.capture_resume_state(serialize=True),
            )
        except Exception:
            pass  # unclean state at this depth; deeper rungs may still work

    return CAPTURE_DEPTHS, on_snapshot


def restore_machine(
    ctx: Any,
    constraints: ConstraintSet,
    seed: int,
    plan: ResumePlan,
) -> Optional[Tuple[Machine, PIRScheduler]]:
    """A machine fast-forwarded to the plan's snapshot, or None.

    ``ctx`` is an :class:`~repro.core.parallel.AttemptContext` (duck-
    typed to avoid the import cycle).  None means "run this attempt
    cold" — the plan does not name a parent of ``constraints``, or its
    snapshot does not restore; purity of attempts makes the cold result
    identical.
    """
    if plan.flip not in constraints:
        return None
    try:
        snapshot = plan.snapshot
        if isinstance(snapshot, bytes):
            snapshot = pickle.loads(snapshot)
        machine_state, scheduler_state = snapshot
        recorded = ctx.recorded
        scheduler = PIRScheduler(
            recorded.log,
            ctx.ordered(constraints),
            base_seed=seed,
            base_policy=ctx.base_policy,
        )
        machine = Machine(recorded.program, scheduler, recorded.config)
        machine.restore_state(machine_state)
        scheduler.restore_resume_state(scheduler_state)
        return machine, scheduler
    except Exception:
        return None
