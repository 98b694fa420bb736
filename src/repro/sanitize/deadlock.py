"""Lock-order cycle prediction straight from a sketch log.

Deadlock prediction is the one analysis a *SYNC-level* sketch can feed:
lock acquisitions and releases are exactly what the cheapest mechanism
records.  This module adapts sketch entries into the event shape
:func:`repro.analysis.lockorder.collect_lock_order` sweeps (the same
Goodlock pass the post-mortem trace analysis uses, including gate-lock
suppression) and turns each surviving cycle into *trigger constraints*:
an interleaving seed that parks every thread on its first lock of the
cycle before any neighbour reaches for it as a second lock.

Trigger constraints deliberately contradict the recorded lock order — in
production the cycle did **not** close, which is precisely why the run
survived to be recorded.  They are therefore only seedable when replay
runs without a sketch (:meth:`repro.core.plan.Plan.seeds_for`
enforces that); under a SYNC-or-richer sketch the PIR scheduler would
just diverge on them.

A ``TRYLOCK`` entry does not record success, so it is treated as an
acquisition; cycles whose locks saw trylocks carry a confidence penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.analysis.lockorder import (
    LockOrderEdge,
    collect_lock_order,
    find_potential_deadlocks,
)
from repro.core.constraints import EventRef, OrderConstraint
from repro.core.sketchlog import SketchLog
from repro.sanitize.race import TRYLOCK_PENALTY
from repro.sim.ops import OpKind

#: Base confidence of a two-lock inversion predicted from a sketch.
DEADLOCK_BASE_CONFIDENCE = 0.7
#: Longer cycles need more threads to line up; decay per extra lock.
CYCLE_LENGTH_DECAY = 0.85


class _EntryEvent:
    """Adapter giving a sketch entry the attribute shape of a trace event.

    ``value`` is pinned to True so an (outcome-less) TRYLOCK entry counts
    as an acquisition — the conservative reading a predictor wants.
    """

    __slots__ = ("tid", "kind", "obj", "value", "gidx")

    def __init__(self, tid: int, kind: OpKind, obj, gidx: int) -> None:
        self.tid = tid
        self.kind = kind
        self.obj = obj
        self.value = True
        self.gidx = gidx


@dataclass(frozen=True)
class PredictedDeadlock:
    """A lock-order cycle predicted from the sketch, with trigger seeds."""

    cycle: Tuple[str, ...]
    tids: Tuple[int, ...]
    confidence: float
    #: constraints that steer a sketchless replay into the deadlock.
    trigger: FrozenSet[OrderConstraint]

    def describe(self) -> str:
        """One-line summary with the confidence score."""
        hops = " -> ".join(self.cycle + (self.cycle[0],))
        who = ", ".join(f"T{tid}" for tid in self.tids)
        return (
            f"predicted deadlock: {hops} (acquired by {who}, "
            f"confidence {self.confidence:.2f})"
        )


def sketch_lock_order(log: SketchLog) -> List[LockOrderEdge]:
    """The lock-order edges a sketch log witnesses."""
    return collect_lock_order(
        _EntryEvent(entry.tid, entry.kind, entry.key, index)
        for index, entry in enumerate(log)
    )


def _hop_edge(
    edges: List[LockOrderEdge],
    holder: str,
    acquired: str,
    avoid_tid: Optional[int],
) -> Optional[LockOrderEdge]:
    """The edge instance backing one cycle hop, preferring a fresh thread."""
    matching = [e for e in edges if e.holder == holder and e.acquired == acquired]
    for edge in matching:
        if edge.tid != avoid_tid:
            return edge
    return matching[0] if matching else None


def trigger_constraints(
    cycle: Tuple[str, ...], edges: List[LockOrderEdge]
) -> FrozenSet[OrderConstraint]:
    """Constraints that interleave a cycle's acquisitions into a deadlock.

    For each hop ``L_i -> L_{i+1}`` (thread ``t_i`` held ``L_i`` while
    acquiring ``L_{i+1}``), the trigger makes ``t_i`` acquire ``L_i``
    *before* the previous hop's thread reaches for ``L_i`` as its second
    lock — once every thread holds its first lock, the cycle closes.
    Hops whose backing edges collapse onto one thread contribute nothing
    (a thread cannot race itself).
    """
    k = len(cycle)
    hops: List[Optional[LockOrderEdge]] = []
    previous_tid: Optional[int] = None
    for i in range(k):
        edge = _hop_edge(edges, cycle[i], cycle[(i + 1) % k], previous_tid)
        hops.append(edge)
        previous_tid = edge.tid if edge is not None else None
    constraints = []
    for i in range(k):
        mine, previous = hops[i], hops[i - 1]
        if mine is None or previous is None or mine.tid == previous.tid:
            continue
        constraints.append(
            OrderConstraint(
                before=EventRef(
                    mine.tid, "lock", mine.holder, mine.holder_occurrence
                ),
                after=EventRef(
                    previous.tid, "lock", previous.acquired,
                    previous.acquired_occurrence,
                ),
            )
        )
    return frozenset(constraints)


def predict_deadlocks(log: SketchLog) -> List[PredictedDeadlock]:
    """Predict lock-order cycles (and their triggers) from a sketch log.

    Works from SYNC upward — the level hierarchy only ever *adds* entries,
    and the sweep ignores non-lock kinds.  Results are deterministic for
    a given log (the cycle finder walks locks in sorted order).
    """
    edges = sketch_lock_order(log)
    cycles, _gated = find_potential_deadlocks(edges)
    trylocked = {
        entry.key for entry in log if entry.kind is OpKind.TRYLOCK
    }
    predictions: List[PredictedDeadlock] = []
    for cycle in cycles:
        confidence = DEADLOCK_BASE_CONFIDENCE * (
            CYCLE_LENGTH_DECAY ** max(0, len(cycle.cycle) - 2)
        )
        if trylocked.intersection(cycle.cycle):
            confidence *= TRYLOCK_PENALTY
        predictions.append(
            PredictedDeadlock(
                cycle=cycle.cycle,
                tids=cycle.tids,
                confidence=round(confidence, 4),
                trigger=trigger_constraints(cycle.cycle, edges),
            )
        )
    return predictions
