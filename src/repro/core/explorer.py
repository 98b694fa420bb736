"""The search model the exploration engine walks.

PRES's diagnosis phase is one loop: replay under the sketch, mine the
failed attempt for race flips, steer the next attempt with them.  This
module holds that loop's vocabulary — the budget and shape
(:class:`ExplorerConfig`; worker count is no part of it), what an
attempt and a search produced (:class:`AttemptRecord`,
:class:`ExplorationResult`), and the best-first :class:`Frontier` the
mined, plan-seeded and static candidates wait in.  The loop itself is
:class:`~repro.core.parallel.ParallelExplorer`, which
:func:`~repro.core.reproducer.reproduce` runs once per rung, in process
at ``jobs=1`` and over a worker pool above.  The paper's
no-feedback ablation is the same loop with mining off: the sketch is
still enforced, but every attempt just re-rolls the unrecorded choices
with the next seed.  With no sketch at all, that is plain stress testing.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.core.constraints import ConstraintSet
from repro.core.feedback import (
    TIER_MINED,
    TIER_PLAN,
    TIER_STATIC,
    Candidate,
)
from repro.core.plan import DYNAMIC, STATIC
from repro.sim.trace import Trace

_EMPTY: ConstraintSet = frozenset()

#: The frontier tier each plan provenance seeds at.
SEED_TIERS = {DYNAMIC: TIER_PLAN, STATIC: TIER_STATIC}


@dataclass
class AttemptRecord:
    """Summary of one replay attempt."""

    index: int
    base_seed: int
    n_constraints: int
    outcome: str  # "matched" | "diverged" | "no_failure" | "other_failure"
    steps: int
    detail: str = ""


@dataclass
class ExplorationResult:
    """What one exploration found."""

    success: bool
    attempts: List[AttemptRecord] = field(default_factory=list)
    winning_trace: Optional[Trace] = None
    winning_constraints: ConstraintSet = _EMPTY
    winning_seed: int = 0
    duplicate_traces: int = 0
    #: reported attempts answered from the attempt cache — this
    #: exploration's own, not the (possibly shared) cache's lifetime count.
    cache_hits: int = 0
    #: attempts dispatched with a schedule-prefix resume plan (see
    #: :mod:`repro.core.prefix`) — counted at batch assembly, so the
    #: figure is jobs-invariant: the in-process engine at ``jobs=1``
    #: plans exactly the resumes a pool does.
    prefix_hits: int = 0
    #: the resume plans above that carried a parent snapshot from the
    #: engine's prefix tree — resumes that happened rather than ran cold.
    realized_resumes: int = 0
    #: True when the search was cut short by a KeyboardInterrupt: the
    #: fields above describe a *partial* exploration, not a verdict.
    interrupted: bool = False

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def total_steps(self) -> int:
        return sum(record.steps for record in self.attempts)


@dataclass
class ExplorerConfig:
    """Search budget and shape."""

    max_attempts: int = 200
    base_seed: int = 0
    seed_restarts: int = 16
    #: frontier candidates speculatively dispatched per batch; 0 picks
    #: 1 at ``jobs=1`` and ``2 * jobs`` (doubled for cheap attempts) for
    #: a pool.  Any fixed value gives the same schedule at every ``jobs``
    #: (the engine's argument), and ``batch_size=1`` is the serial
    #: (``jobs=1``) schedule.
    batch_size: int = 0
    #: ``(provenance, constraints)`` pairs pre-seeded by the predictive
    #: passes (:meth:`repro.core.plan.Plan.seeds_for`), each plan's in
    #: rank order.  Dynamic seeds are explored right after the root empty
    #: attempt and before any mined feedback; static seeds interleave
    #: with mined feedback — one mined candidate, then one static
    #: candidate (see :class:`Frontier`) — and any that duplicate a
    #: dynamic seed are dropped.  Ignored without feedback.
    plan_seeds: Tuple[Tuple[str, ConstraintSet], ...] = ()


def plan_candidates(
    seeds: Tuple[Tuple[str, ConstraintSet], ...]
) -> List[Candidate]:
    """Wrap plan seeds as frontier candidates at their provenance's tier
    (:data:`SEED_TIERS`), ranked in order within each provenance."""
    ranks = dict.fromkeys(SEED_TIERS, 0)
    candidates = []
    for provenance, constraints in seeds:
        candidates.append(Candidate(
            constraints=constraints,
            depth=len(constraints),
            anchor_gidx=0,
            tier=SEED_TIERS[provenance],
            rank=ranks[provenance],
        ))
        ranks[provenance] += 1
    return candidates


class Frontier:
    """Best-first frontier with an interleaved static-candidate lane.

    Root, plan-seeded, and mined candidates live in a heap ordered by
    :meth:`~repro.core.feedback.Candidate.sort_key`.  Static-analyzer
    candidates (:data:`~repro.core.feedback.TIER_STATIC`) live in a
    separate FIFO lane in static-plan rank order.  Pops interleave the
    two lanes: the root and every dynamic plan seed drain first, and
    once the heap's best candidate is mined feedback, each mined pop is
    followed by one static pop — dynamic evidence (an ordering actually
    observed unordered in a failed attempt) dominates the static
    approximation, but a ranked structural prediction is worth one
    attempt before the mined tail of re-rolls.  When either lane runs
    dry the other drains in its own order.

    With no static seeds every pop is a plain heap pop, so the mined
    exploration schedule is byte-identical to an unseeded search.  The
    alternation is a pure function of the pop sequence, so the engine
    (which assembles batches by popping this structure) explores the
    same schedule for a fixed ``batch_size`` at any worker count.

    The frontier remembers every pair it has popped, so each pair pops
    once (:meth:`popped`), and counts the mined pairs still waiting that
    never popped (:meth:`waiting_mined`), which bounds the attempts left
    before any deeper mined candidate can pop.
    """

    def __init__(self) -> None:
        self._heap: List[
            Tuple[Tuple[int, int, int, int], int, ConstraintSet, int, Candidate]
        ] = []
        self._static: Deque[Tuple[ConstraintSet, int, Candidate]] = deque()
        self._counter = 0
        self._last_pop_mined = False
        #: every ``(constraints, seed)`` pair popped so far, from any lane.
        self._popped: Set[Tuple[ConstraintSet, int]] = set()
        #: per constraint count, the distinct mined-tier pairs waiting
        #: that never popped.
        self._unpopped: Dict[int, Set[Tuple[ConstraintSet, int]]] = {}

    def push(self, candidate: Candidate, seed: int) -> None:
        """Add a candidate, routed by tier (statics to the FIFO lane)."""
        if candidate.tier == TIER_STATIC:
            self._static.append((candidate.constraints, seed, candidate))
            return
        if candidate.tier == TIER_MINED:
            pair = (candidate.constraints, seed)
            if pair not in self._popped:
                self._unpopped.setdefault(len(pair[0]), set()).add(pair)
        self._counter += 1
        heapq.heappush(
            self._heap,
            (
                candidate.sort_key(),
                self._counter,
                candidate.constraints,
                seed,
                candidate,
            ),
        )

    def __len__(self) -> int:
        return len(self._heap) + len(self._static)

    def pop(self) -> Optional[Tuple[ConstraintSet, int, Candidate]]:
        """Remove and return the next ``(constraints, seed, candidate)``,
        or None when that pair popped before: the engine tries each pair
        once.  A repeat still counts as a pop for the lane alternation."""
        take_static = bool(self._static) and (
            not self._heap
            or (self._heap[0][0][0] >= TIER_MINED and self._last_pop_mined)
        )
        if take_static:
            self._last_pop_mined = False
            constraints, seed, candidate = self._static.popleft()
        else:
            key, _, constraints, seed, candidate = heapq.heappop(self._heap)
            self._last_pop_mined = key[0] >= TIER_MINED
        pair = (constraints, seed)
        if pair in self._popped:
            return None
        self._popped.add(pair)
        self._unpopped.get(len(constraints), set()).discard(pair)
        return constraints, seed, candidate

    def popped(self, constraints: ConstraintSet, seed: int) -> bool:
        """Whether the ``(constraints, seed)`` pair has popped, so its
        attempt has been tried."""
        return (constraints, seed) in self._popped

    def waiting_mined(self, depth: int) -> int:
        """The distinct mined-tier ``(constraints, seed)`` pairs waiting
        with at most ``depth`` constraints that never popped.

        The engine tries a pair the first time it pops, so each of these
        costs exactly one attempt, and every one of them pops before any
        mined candidate with more than ``depth`` constraints.
        """
        return sum(
            len(pairs) for size, pairs in self._unpopped.items()
            if size <= depth
        )
