"""Schedule-prefix memoization: resume sibling attempts mid-simulation.

Feedback exploration is a tree: every mined candidate is its parent's
constraint set plus one flip, replayed under the same base seed.  The
flip's gate provably cannot alter anything before the candidate's
*safe prefix* (see :class:`~repro.core.feedback._PrefixIndex`), so the
child re-simulates the parent's opening steps — same picks, same RNG
draws, same events — before the search actually begins.  This module
skips that shared prefix:

* **The ladder.**  A live attempt snapshots its simulator state as it
  passes a ladder of planned depths (:func:`capture_hooks`) and returns
  the snapshots its own candidates can resume from
  (:func:`resume_depths`); the engine's one :class:`PrefixTree` keeps
  them keyed by ``(constraints, seed, depth)`` and hands each child the
  deepest one inside its safe prefix on a :class:`ResumePlan`; and
  :func:`restore_machine` materializes the child machine from the plan,
  wherever the attempt runs, through
  :meth:`~repro.core.pir.PIRScheduler.resume` -- the one restore entry,
  which an epoch-boundary replay base starts through too.  It builds the
  machine straight from the snapshot and the scheduler from the state
  captured beside it, so a restore constructs no memory, sync table,
  kernel, clock or seeded RNG that the snapshot would overwrite.
* **Family snapshots.**  A rung can sit up to half a safe prefix short
  of where the child departs from its parent.  So a plan also names the
  safe prefixes of the parent's not-yet-run children that lie inside
  the child's own (:attr:`ResumePlan.siblings`), the resumed run
  snapshots there too — up to its safe prefix its state *is* the
  parent's — and the tree keeps those captures under the parent's
  family key, so each later sibling resumes where it departs
  (:func:`family_depth`).  The same identity chains up the lineage, so
  a child with no family snapshot yet resumes from an ancestor's.
  Family captures are taken only when attempts run in the engine's own
  process, where a capture shares the run's events; a pool worker would
  have to pickle and ship each one, for a session that waits on
  dispatch more than on steps (see ``docs/parallel.md``).
* **The analysis travels too.**  An attempt run in the engine's own
  process analyzes its trace after the run — fingerprint, race sweep,
  ref index — and copies each pass's state at every depth it
  snapshotted into an :class:`~repro.core.feedback.AnalysisCheckpoint`
  kept beside the snapshot (:func:`checkpoint_snapshots`).  A child
  resumed from the snapshot shares those events with its parent, so its
  analysis continues from the copy (:func:`analysis_of`): an attempt
  fingerprints, sweeps and indexes only the events it executed.  The
  checkpoint is process-local — it pickles as None — so a snapshot
  packed in a pool worker, or a plan sent to one, carries none, and the
  worker analyzes from event 0.

Design constraints, in order:

* **Exactness.**  A resumed attempt must produce the byte-identical
  trace of a cold run.  Snapshots carry the mutable machine state as a
  pickle blob, with the kernel RNG's state tuple beside it, and
  rebuild generators by feed replay (:meth:`Machine.capture_state`,
  :meth:`Machine.restored`),
  checking that every rebuilt thread waits on the op it waited on when
  captured; the scheduler fast-forward carries the base policy's state,
  the cursor, and occurrence counts
  (:meth:`PIRScheduler.capture_resume_state`), all
  constraint-independent, so one child's capture serves its siblings
  too.  Any surprise in the resume machinery falls back to a cold run —
  attempts are pure, so the result is the same either way, just slower.
* **Jobs-invariance.**  Capturing is pure observation: a copy of mid-run
  state cannot change the attempt's outcome.  The tree lives in the
  engine, is filled at fold time and read at batch assembly — both in
  pop order — so which plans are issued, and which of them carry a
  ladder snapshot, is a function of the exploration schedule alone.  No
  worker holds a tree; a snapshot travels to the worker on the plan.  A
  family snapshot only deepens a plan whose ladder rung is warm, and
  only short of the next ladder depth, so the child still captures
  every rung it would have: the ladder, and every planned and realized
  resume count, is the same at every ``jobs``.
* **Bounded memory and overhead.**  Capture depths double
  (48, 96, 192, ...), so a live attempt pays O(log steps) ladder
  snapshots and ships back only those at the depths its candidates
  resume from.  The tree holds at most ``max_nodes`` distinct ladder
  snapshots, evicting least-recently-used keys (a lineage alias shares
  its target and is free), and drops, as each attempt folds, the
  aliases none of its pushed children can resume from
  (:meth:`PrefixTree.discard`).  Family snapshots have their own
  budget of ``max_shared``, least-recently-used first; since a family
  snapshot also serves the parent's descendants (a child's state is its
  parent's up to its safe prefix), a session needs few of them.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.core.constraints import (
    ConstraintSet,
    OrderConstraint,
    ordered_constraints,
)
from repro.core.feedback import AnalysisCheckpoint
from repro.core.pir import PIRScheduler
from repro.sim.machine import Machine
from repro.sim.trace import Trace

#: Snapshots below this depth are not worth the restore cost.
MIN_RESUME_DEPTH = 24
#: First rung of the snapshot ladder; subsequent rungs double.
BASE_DEPTH = 48
#: The full capture ladder, covering any plausible attempt length.
CAPTURE_DEPTHS: Tuple[int, ...] = tuple(BASE_DEPTH * (1 << k) for k in range(12))

#: One snapshot: ``(machine state, scheduler state, analysis)``, where
#: ``analysis`` is the process-local
#: :class:`~repro.core.feedback.AnalysisCheckpoint` at the same point or
#: None, or that triple as one pickle blob (:func:`pack`) once it has
#: crossed a process boundary.
Snapshot = Any


def pack(snapshot: Snapshot) -> bytes:
    """One snapshot as a single pickle blob, for a pool worker to ship.

    The engine stores and forwards a packed snapshot without unpickling
    it, so a snapshot crossing two process boundaries is pickled once
    and unpickled once, where it is restored.  Its analysis checkpoint,
    if any, does not survive the pickling.
    """
    return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)


def checkpoint_snapshots(
    captured: Dict[int, Snapshot], trace: Trace
) -> Dict[int, AnalysisCheckpoint]:
    """Give each snapshot ``captured`` from ``trace``'s run an empty
    analysis checkpoint; returns them keyed by event count, for the
    analysis passes to fill."""
    checkpoints: Dict[int, AnalysisCheckpoint] = {}
    for depth, (machine_state, scheduler_state, _) in captured.items():
        events = len(machine_state["events"])
        checkpoint = checkpoints.get(events)
        if checkpoint is None:
            checkpoint = checkpoints[events] = AnalysisCheckpoint(trace, events)
        captured[depth] = (machine_state, scheduler_state, checkpoint)
    return checkpoints


def analysis_of(snapshot: Snapshot) -> Optional[AnalysisCheckpoint]:
    """The analysis checkpoint kept beside ``snapshot``, if it has one."""
    if isinstance(snapshot, tuple) and snapshot:
        analysis = snapshot[-1]
        if isinstance(analysis, AnalysisCheckpoint):
            return analysis
    return None


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


def family_depth(parent_steps: int, safe_prefix: int) -> int:
    """Where a sibling's run snapshots for this child, or 0 for nowhere.

    The child's safe prefix, when it lies past the child's ladder rung
    and short of the next capture depth (twice the rung: the ladder
    doubles) — the window in which :meth:`PrefixTree.plan` resumes from
    a family snapshot.  Otherwise the ladder already starts the child as
    deep (0).
    """
    rung = resume_depth(parent_steps, safe_prefix)
    return safe_prefix if rung and rung < safe_prefix < 2 * rung else 0


@dataclass(frozen=True)
class ResumePlan:
    """Where a child attempt resumes, with the state it resumes from.

    Built by the engine at batch assembly from its :class:`PrefixTree`:
    ``snapshot`` is the parent's (``constraints - {flip}``, same seed)
    state ``depth`` steps in — its deepest ladder rung inside the
    child's safe prefix, or a family snapshot deeper still.  The plan
    travels with the task, so a pool worker, an in-process fallback and
    a chaos retry all restore the same state; in process the snapshot's
    analysis checkpoint comes along, and the child's analysis resumes
    too.
    """

    flip: OrderConstraint
    depth: int
    snapshot: Snapshot
    #: safe prefixes of the parent's not-yet-run children that lie past
    #: ``depth`` and inside this child's own safe prefix, ascending: the
    #: run snapshots there for them.  Empty while attempts run in pool
    #: workers (see the module docstring).
    siblings: Tuple[int, ...] = ()


class PrefixTree:
    """The engine's store of mid-attempt simulator snapshots.

    Ladder rungs are keyed ``(constraints, seed, depth)``, least-recently
    used first.  ``max_nodes`` bounds distinct rung snapshots, not keys:
    a lineage alias shares its target's snapshot and costs nothing, and
    a snapshot dies with its last key.  The default holds the parents of
    a long best-first frontier, since each attempt keeps only the rungs
    its children can resume from.

    Family snapshots live apart, keyed by the parent's
    ``(constraints, seed)`` and a depth, under their own budget of
    ``max_shared``, so a sibling capture can never evict a rung a plan
    needs.  The E12 session keeps 64 of them.
    """

    def __init__(self, max_nodes: int = 256, max_shared: int = 128) -> None:
        self.max_nodes = max_nodes
        self.max_shared = max_shared
        self._nodes: Dict[Tuple, Snapshot] = {}
        #: live keys per distinct rung snapshot, by object identity (a
        #: snapshot in here is always held by one of ``_nodes``' keys).
        self._refs: Dict[int, int] = {}
        #: family snapshots by depth, per parent ``(constraints, seed)``,
        #: least-recently-used family first.
        self._shared: Dict[Tuple[ConstraintSet, int], Dict[int, Snapshot]] = {}
        self._shared_count = 0
        #: each planned attempt's ``(parent constraints, safe prefix)``,
        #: by ``(constraints, seed)``: up to the safe prefix its state is
        #: its parent's.
        self._lineage: Dict[
            Tuple[ConstraintSet, int], Tuple[ConstraintSet, int]
        ] = {}
        self.hits = 0
        self.misses = 0
        self.captures = 0
        self.aliases = 0
        #: plans that resumed from a family snapshot.
        self.shared_hits = 0

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
        self._link(key, snapshot)
        self.captures += 1
        self._evict()

    def alias(self, src: Tuple, dst: Tuple) -> None:
        """Share ``src``'s snapshot under ``dst`` too (no copy is made).

        Sound whenever the two keys provably name identical states —
        snapshots are immutable once stored (restores copy out of them),
        so sharing is free, and an alias never counts against
        ``max_nodes``.
        """
        node = self._nodes.get(src)
        if node is None:
            return
        self._link(dst, node)
        self.aliases += 1

    def _link(self, key: Tuple, snapshot: Snapshot) -> None:
        self._unlink(key)
        self._nodes[key] = snapshot
        ref = id(snapshot)
        self._refs[ref] = self._refs.get(ref, 0) + 1

    def _unlink(self, key: Tuple) -> None:
        snapshot = self._nodes.pop(key, None)
        if snapshot is None:
            return
        ref = id(snapshot)
        if self._refs[ref] > 1:
            self._refs[ref] -= 1
        else:
            del self._refs[ref]

    def _evict(self) -> None:
        while len(self._refs) > self.max_nodes:
            self._unlink(next(iter(self._nodes)))

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
        than ``keep_below`` — the ones no child of it can resume from.
        With none kept, no descendant walks up through the attempt
        either, so its lineage goes too."""
        for depth in CAPTURE_DEPTHS:
            if depth > keep_below:
                self._unlink((constraints, seed, depth))
        if not keep_below:
            self._lineage.pop((constraints, seed), None)

    def share(
        self,
        parent: ConstraintSet,
        seed: int,
        snapshots: Iterable[Tuple[int, Snapshot]],
    ) -> None:
        """Keep the family snapshots a child of ``(parent, seed)`` took
        for its siblings, evicting the least recently used family's
        shallowest beyond ``max_shared``."""
        family = (parent, seed)
        shared = self._shared.pop(family, {})
        for depth, snapshot in snapshots:
            if depth not in shared:
                shared[depth] = snapshot
                self._shared_count += 1
        if shared:
            self._shared[family] = shared
        while self._shared_count > self.max_shared:
            oldest, kept = next(iter(self._shared.items()))
            del kept[min(kept)]
            self._shared_count -= 1
            if not kept:
                del self._shared[oldest]

    def _deepest_shared(
        self, parent: ConstraintSet, seed: int, above: int, bound: int
    ) -> Tuple[int, Optional[Snapshot]]:
        """``(depth, snapshot)``: the deepest family snapshot that is
        ``(parent, seed)``'s state at a depth in ``(above, bound]``, or
        ``(above, None)``.

        Walks up the lineage: a planned attempt's state equals its
        parent's up to its safe prefix, so an ancestor's family snapshot
        serves too, bounded by every safe prefix on the way up.
        """
        best: Tuple[int, Optional[Snapshot]] = (above, None)
        family = (parent, seed)
        while self._shared and bound > best[0]:
            shared = self._shared.get(family)
            if shared:
                for at in sorted(shared):
                    if best[0] < at <= bound:
                        best = (at, shared[at])
                self._shared[family] = self._shared.pop(family)  # LRU
            lineage = self._lineage.get(family)
            if lineage is None:
                break
            family = (lineage[0], seed)
            bound = min(bound, lineage[1])
        return best

    def plan(
        self,
        constraints: ConstraintSet,
        seed: int,
        flip: OrderConstraint,
        depth: int,
        parent_steps: int,
        safe_prefix: int = 0,
        siblings: Tuple[int, ...] = (),
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

        The plan then starts from the deepest family snapshot of the
        parent's lineage past the rung, inside ``safe_prefix`` and short
        of the next capture depth (so the run still captures every rung
        it would have), and asks the run to snapshot at those of
        ``siblings`` — the family depths of the parent's children that
        have not run yet — that it passes and nothing serves yet.
        """
        parent: ConstraintSet = constraints - {flip}
        self._lineage[(constraints, seed)] = (parent, safe_prefix)
        ladder = planned_depths(parent_steps)
        for found in reversed(ladder):
            if found <= depth and (parent, seed, found) in self._nodes:
                snapshot = self.get((parent, seed, found))
                for rung in ladder:
                    if rung > found:
                        break
                    self.alias((parent, seed, rung), (constraints, seed, rung))
                start, shared = self._deepest_shared(
                    parent, seed, found, min(safe_prefix, 2 * found - 1)
                )
                if shared is not None:
                    snapshot = shared
                    self.shared_hits += 1
                wanted = tuple(
                    at for at in siblings
                    if start < at <= safe_prefix
                    and self._deepest_shared(parent, seed, at - 1, at)[1] is None
                )
                return ResumePlan(
                    flip=flip, depth=start, snapshot=snapshot, siblings=wanted
                )
        self.misses += 1
        return None

    def __len__(self) -> int:
        """Distinct ladder snapshots held (the quantity ``max_nodes``
        bounds)."""
        return len(self._refs)


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
                machine.capture_state(),
                scheduler.capture_resume_state(),
                None,
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
        machine_state, scheduler_state, _ = snapshot
        recorded = ctx.recorded
        scheduler = PIRScheduler(
            recorded.log,
            ordered_constraints(constraints),
            base_seed=seed,
            base_policy=ctx.base_policy,
        )
        machine = scheduler.resume(
            recorded.program, recorded.config, machine_state, scheduler_state
        )
        return machine, scheduler
    except Exception:
        return None
