"""Feedback generation from unsuccessful replay attempts.

The abstract's verdict — "PRES's feedback generation from unsuccessful
replays is critical in bug reproduction" — rests on this module.  A failed
attempt is not thrown away: its trace is mined for the scheduling
decisions the sketch left open, and each becomes a *flip candidate* for
the next attempt.

Candidate derivation:

1. Run the happens-before race detector over the attempt's trace.  Each
   race pair (a, b) executed a-then-b; the flip candidate enforces b
   before a in the next attempt.
2. If both sides held a common mutex, the accesses themselves cannot be
   reordered (blocking the lock holder would wedge the attempt); the flip
   is *lifted* to the corresponding lock acquisitions.  Under a SYNC-or-
   richer sketch such a flip would contradict the recorded lock order, so
   it is dropped instead — correctly, because the sketch already pinned
   that decision to its production-run outcome.
3. With no sketch at all, lock-acquisition order is itself unrecorded
   non-determinism, so adjacent acquisitions of the same mutex by
   different threads are offered as candidates too (this is what lets a
   sketchless replayer find lock-inversion deadlocks).

Candidates are ranked: fewest constraints first (stay close to schedules
already known to follow the sketch), then latest-in-trace first (races
near where the attempt ended are likelier to be the one that matters).
The generator caps the fan-out per attempt, and the engine's frontier
(:class:`~repro.core.explorer.Frontier`) runs each (constraint set, seed)
pair once.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple,
)

from repro.analysis.hb_race import HBAnalysis, RacePair, SweepState
from repro.core.constraints import (
    ConstraintSet,
    EventRef,
    OrderConstraint,
    RefIndex,
    RefState,
)
from repro.core.sketches import SketchKind
from repro.sim.events import Event
from repro.sim.ops import OpKind
from repro.sim.trace import Trace


#: Frontier tiers.  The root (empty) attempt always runs first — it is
#: the baseline's attempt 1, so pre-seeding a plan can never make a
#: one-attempt bug slower.  Plan candidates (from the predictive
#: sanitizer pass, see :mod:`repro.sanitize`) run next, in plan rank
#: order — dynamic evidence dominates static approximation.  Static
#: candidates (from the sketchless analyzer, see
#: :mod:`repro.analysis.static_`) do *not* form a strict tier of their
#: own: the frontier interleaves them with the mined tier, alternating
#: one mined candidate (an ordering actually observed unordered in a
#: failed attempt) with one static candidate in static-plan rank order
#: (see :class:`repro.core.explorer.Frontier`).  Candidates mined from
#: failed attempts otherwise keep their best-first heap order.
TIER_ROOT = 0
TIER_PLAN = 1
TIER_STATIC = 2
TIER_MINED = 3


@dataclass(frozen=True)
class Candidate:
    """A constraint set to try, with its ranking key."""

    constraints: ConstraintSet
    depth: int  # number of constraints
    anchor_gidx: int  # trace position of the flipped race (for ranking)
    #: 0 for races involving a plain read (check-act shaped; the classic
    #: atomicity/order-violation ingredient), 1 for write/atomic-only races.
    shape: int = 0
    #: frontier tier (see :data:`TIER_ROOT` / :data:`TIER_PLAN` /
    #: :data:`TIER_STATIC` / :data:`TIER_MINED`); root and plan tiers
    #: are explored strictly first, then statics interleave with mined.
    tier: int = TIER_MINED
    #: rank within :data:`TIER_PLAN` / :data:`TIER_STATIC` (the
    #: analyzer's candidate order); unused by the other tiers.
    rank: int = 0
    #: the single constraint this candidate adds to the attempt it was
    #: mined from (None for root/plan candidates).  ``constraints -
    #: {flip}`` with the same seed names the parent attempt — the handle
    #: prefix-resume uses to find a shared simulator snapshot.
    flip: Optional[OrderConstraint] = None
    #: deepest parent-schedule step provably shared with this candidate:
    #: the flip's gate cannot block anything before the previous
    #: same-thread event of its ``after`` action's first possible match,
    #: so picks (and RNG draws) up to here are identical.  0 = no resume.
    safe_prefix: int = 0
    #: the parent attempt's total step count (bounds snapshot planning).
    parent_steps: int = 0

    def sort_key(self) -> Tuple[int, int, int, int]:
        """Heap key: (tier, major, shape, -anchor).

        The major key is the plan rank inside :data:`TIER_PLAN` and
        :data:`TIER_STATIC`, and the constraint-set depth inside
        :data:`TIER_MINED` (fewest constraints first — stay close to
        schedules already known to follow the sketch), so mined
        exploration order is unchanged when no plan is seeded.
        """
        major = (
            self.rank if self.tier in (TIER_PLAN, TIER_STATIC) else self.depth
        )
        return (self.tier, major, self.shape, -self.anchor_gidx)


#: ``repr`` of each kind, by ``kind.bit``, as it appears inside
#: ``repr(event.signature())``.
_KIND_REPRS: Dict[int, str] = {kind.bit: repr(kind) for kind in OpKind}

#: Events rendered per ``digest.update`` call; bounds the transient
#: string to a chunk, never the whole trace.
_FINGERPRINT_CHUNK = 512


def _process_local() -> None:
    """What a process-local object unpickles as: nothing."""
    return None


class AnalysisCheckpoint:
    """Each per-attempt pass's state after a trace's first :attr:`events`
    events, kept beside the prefix snapshot taken there.

    A replay resumed from that snapshot shares those events with the
    trace, object for object (:meth:`covers`), so its fingerprint, race
    sweep and ref index continue from here: an attempt analyzes only
    the events it executed.  A pass that did not run on the trace (an
    attempt that was not mined has no sweep) leaves its slot None, and
    its resumed run does that pass from event 0.

    Process-local: a SHA-1 state does not pickle, so a checkpoint
    pickles as None, and a snapshot or plan sent to another process
    arrives without one.
    """

    __slots__ = ("events", "last", "digest", "sweep", "refs")

    def __init__(self, trace: Trace, events: int) -> None:
        self.events = events
        #: the last event covered; identity ties the state to its trace.
        self.last = trace.events[events - 1] if events else None
        #: SHA-1 state of :func:`trace_fingerprint` (a ``hashlib`` object).
        self.digest = None
        self.sweep: Optional[SweepState] = None
        self.refs: Optional[RefState] = None

    def covers(self, trace: Trace) -> bool:
        """Whether ``trace`` begins with the events this state covers."""
        n = self.events
        return len(trace.events) >= n and (
            n == 0 or trace.events[n - 1] is self.last
        )

    def __reduce__(self):
        return (_process_local, ())


def trace_fingerprint(
    trace: Trace,
    resume: Optional[AnalysisCheckpoint] = None,
    checkpoints: Optional[Mapping[int, AnalysisCheckpoint]] = None,
) -> str:
    """Stable digest of *what* a trace executed (signatures, in order).

    The sha1 of the concatenated ``repr(event.signature())`` of every
    event — persisted in store shards, so the bytes must never change.
    They are rendered a chunk of events at a time, with each kind's
    ``repr`` looked up rather than formatted per event.

    ``hashlib`` rather than ``hash()`` so fingerprints computed in pool
    worker processes are comparable with the parent's regardless of each
    interpreter's string-hash randomization.  The digest is memoized on
    the trace — dedup, caching, and candidate mining all fingerprint the
    same trace, and events are immutable once emitted.

    SHA-1 streams, so hashing resumes: ``resume`` (which must cover this
    trace) continues from its copied state past its events, and each of
    ``checkpoints`` — keyed by event count — receives a copy of the
    state at its count.
    """
    cached = getattr(trace, "_fingerprint", None)
    if cached is not None and not checkpoints:
        return cached
    checkpoints = checkpoints or {}
    events = trace.events
    if resume is not None and resume.digest is not None:
        digest, start = resume.digest.copy(), resume.events
    else:
        digest, start = hashlib.sha1(), 0
    kinds = _KIND_REPRS
    wanted = {n for n in checkpoints if start <= n <= len(events)}
    pos = start
    for stop in (*sorted(wanted), len(events)):
        for lo in range(pos, stop, _FINGERPRINT_CHUNK):
            chunk = "".join(
                [
                    "(%r, %s, %r, %r, %r, %r)"
                    % (e.tid, kinds[e.kind.bit], e.addr, e.obj, e.name, e.label)
                    for e in events[lo:min(lo + _FINGERPRINT_CHUNK, stop)]
                ]
            )
            digest.update(chunk.encode("utf-8"))
        if stop in wanted:
            checkpoints[stop].digest = digest.copy()
        pos = stop
    fingerprint = digest.hexdigest()
    trace._fingerprint = fingerprint
    return fingerprint


class FeedbackDB:
    """The executions a session has seen; counts the duplicates."""

    def __init__(self) -> None:
        self._trace_fingerprints: Set[str] = set()
        self.duplicate_traces = 0

    def known_fingerprints(self) -> FrozenSet[str]:
        """Every execution recorded so far, as a shareable snapshot.

        The engine hands this to each batch, so an attempt can skip
        mining an execution whose candidates the fold would drop.
        """
        return frozenset(self._trace_fingerprints)

    def record_fingerprint(self, fingerprint: str) -> bool:
        """Remember a precomputed trace fingerprint; True if new.

        The parallel engine computes fingerprints inside pool workers (the
        trace itself never crosses the process boundary), so the dedup set
        accepts the digest directly.
        """
        if fingerprint in self._trace_fingerprints:
            self.duplicate_traces += 1
            return False
        self._trace_fingerprints.add(fingerprint)
        return True


class AttemptCache:
    """Memoized replay outcomes, keyed by what determines an attempt.

    A replay attempt is a pure function of (sketch log, constraint set,
    base seed, base policy, output strictness); re-running one that has
    already executed cannot produce a new interleaving.  The cache lets
    the exploration engine skip the replay entirely and fold the memoized
    outcome back in — most valuable when the same recorded run is
    explored repeatedly (degradation-ladder rungs that rewalk an empty
    frontier, serial-vs-parallel comparisons, benchmark reruns).

    Keys are built by the caller via :meth:`key_for`; values are opaque
    to the cache (the engine stores its ``AttemptOutcome`` records).
    """

    def __init__(self) -> None:
        self._outcomes: Dict[Tuple, object] = {}
        self.hits = 0
        self.misses = 0
        #: get/put are atomic under this (reentrant) lock, so one cache
        #: may be shared by concurrent sessions — the reproduction
        #: service runs a thread per job over per-tenant caches.  Within
        #: one session the engine is single-threaded and the lock is
        #: uncontended.
        self._lock = threading.RLock()

    @staticmethod
    def key_for(
        log_token: Tuple,
        constraints: ConstraintSet,
        seed: int,
        base_policy: str,
        match_output: bool,
    ) -> Tuple:
        """The cache key for one attempt: everything that determines it."""
        return (log_token, constraints, seed, base_policy, match_output)

    def get(self, key: Tuple) -> Optional[object]:
        """The memoized outcome for ``key``, counting the hit or miss."""
        with self._lock:
            outcome = self._outcomes.get(key)
            if outcome is not None:
                self.hits += 1
            else:
                self.misses += 1
            return outcome

    def put(self, key: Tuple, outcome: object) -> None:
        """Memoize one attempt outcome under its :meth:`key_for` key."""
        with self._lock:
            self._outcomes[key] = outcome

    def __len__(self) -> int:
        return len(self._outcomes)


def _inverse(constraint: OrderConstraint) -> OrderConstraint:
    return OrderConstraint(before=constraint.after, after=constraint.before)


def _flip_for_race(
    race: RacePair,
    refs: RefIndex,
    sketch: SketchKind,
) -> Optional[OrderConstraint]:
    """The constraint that reverses this race on the next attempt."""
    common = race.common_mutexes()
    if common:
        if sketch.includes(SketchKind.SYNC):
            # Lock order is already pinned by the sketch; this race's
            # outcome was recorded, not open.
            return None
        (m_first, m_second) = common[0]
        name_first, occ_first = m_first
        name_second, occ_second = m_second
        return OrderConstraint(
            before=refs.lock_ref(race.second.tid, name_second, occ_second),
            after=refs.lock_ref(race.first.tid, name_first, occ_first),
        )
    before = refs.ref_of(race.second)
    after = refs.ref_of(race.first)
    if before is None or after is None:
        return None
    return OrderConstraint(before=before, after=after)


class _PrefixIndex:
    """Computes a flip's safe resume prefix in the trace it was mined from.

    ``safe_prefix(flip, gidx)`` is the first schedule step at which the
    flip's gate could possibly block something.  The gate only ever
    blocks the thread named by ``flip.after``, and only from the moment
    that thread's pending op first satisfies ``pending_matches`` — for a
    mem ref that is the named access itself (memory ops never fail, so
    the occurrence-th access is the first match; its caller passes its
    ``gidx``); for a lock ref it may be an earlier *failed* TRYLOCK of
    the same mutex at the same prior-acquisition count.  Blocking a
    pending op can reshape the schedule from the pick right after the
    thread's previous event, so the safe prefix ends there.

    Only lock refs need a table, and only flips mined without a sketch
    name them, so it is built on first use.
    """

    def __init__(self, trace: Trace) -> None:
        self._events = trace.events
        #: ``(tid, mutex, prior acquisitions) -> gidx`` of the first
        #: attempt at that count.
        self._lock_attempts: Optional[Dict[Tuple[int, object, int], int]] = None

    def safe_prefix(self, flip: OrderConstraint, gidx: Optional[int]) -> int:
        after = flip.after
        if after.family != "mem":
            gidx = self._first_lock_attempt(after)
        if gidx is None:
            return 0
        events = self._events
        for prev in range(gidx - 1, -1, -1):
            if events[prev].tid == after.tid:
                return prev + 1
        return 0

    def _first_lock_attempt(self, ref: EventRef) -> Optional[int]:
        if self._lock_attempts is None:
            self._lock_attempts = {}
            acquired: Dict[Tuple[int, object], int] = {}
            for event in self._events:
                if event.kind.is_lock:
                    key = (event.tid, event.obj)
                    prior = acquired.get(key, 0)
                    self._lock_attempts.setdefault((*key, prior), event.gidx)
                    if event.kind is not OpKind.TRYLOCK or event.value:
                        acquired[key] = prior + 1
        return self._lock_attempts.get((ref.tid, ref.key, ref.occurrence - 1))


def _lock_order_flips(trace: Trace, refs: RefIndex) -> List[Tuple[OrderConstraint, int]]:
    """Adjacent same-mutex acquisitions by different threads, flipped."""
    flips: List[Tuple[OrderConstraint, int]] = []
    last_acquire: Dict[str, Event] = {}
    for event in trace.events:
        acquired = event.kind in (OpKind.LOCK, OpKind.WRLOCK) or (
            event.kind is OpKind.TRYLOCK and event.value
        )
        if not acquired:
            continue
        mutex = event.obj
        prev = last_acquire.get(mutex)
        if prev is not None and prev.tid != event.tid:
            before = refs.ref_of(event)
            after = refs.ref_of(prev)
            if before is not None and after is not None:
                flips.append(
                    (OrderConstraint(before=before, after=after), event.gidx)
                )
        last_acquire[mutex] = event
    return flips


@dataclass
class FeedbackGenerator:
    """Turns one failed attempt into ranked next-attempt candidates."""

    sketch: SketchKind
    max_candidates_per_attempt: int = 24
    max_constraint_depth: int = 8

    def candidates(
        self,
        attempt_trace: Trace,
        current: ConstraintSet,
        resume: Optional[AnalysisCheckpoint] = None,
        checkpoints: Optional[Mapping[int, AnalysisCheckpoint]] = None,
    ) -> List[Candidate]:
        """Ranked, unseen constraint sets derived from one attempt.

        ``resume`` (which must cover the trace) lets the race sweep and
        the ref index continue past its events; each of ``checkpoints``
        receives their states at its event count.
        """
        if len(current) >= self.max_constraint_depth:
            return []
        checkpoints = checkpoints or {}

        use_lock_edges = self.sketch.includes(SketchKind.SYNC)
        analysis = HBAnalysis(
            attempt_trace, use_lock_edges=use_lock_edges,
            resume=resume.sweep if resume is not None else None,
            checkpoints=checkpoints,
        )
        refs = RefIndex(
            attempt_trace.events,
            resume=resume.refs if resume is not None else None,
            checkpoints=checkpoints,
        )
        for n, checkpoint in checkpoints.items():
            checkpoint.sweep = analysis.checkpoints.get(n)
            checkpoint.refs = refs.checkpoints.get(n)

        # (flip, anchor, shape, gidx of the event a mem-family
        # ``flip.after`` names)
        raw: List[Tuple[OrderConstraint, int, int, Optional[int]]] = []
        for race in analysis.races:
            flip = _flip_for_race(race, refs, self.sketch)
            if flip is not None:
                involves_read = (
                    race.first.kind is OpKind.READ
                    or race.second.kind is OpKind.READ
                )
                raw.append((
                    flip, race.second.gidx, 0 if involves_read else 1,
                    race.first.gidx,
                ))
        if self.sketch is SketchKind.NONE:
            raw.extend(
                (flip, anchor, 0, None)
                for flip, anchor in _lock_order_flips(attempt_trace, refs)
            )

        current_inverses = {_inverse(c) for c in current}
        seen_sets: Set[ConstraintSet] = set()
        out: List[Candidate] = []
        prefixes = _PrefixIndex(attempt_trace)
        # Check-act-shaped races first, then later-in-trace first, so the
        # per-attempt cap keeps the likeliest flips.
        for flip, anchor, shape, after_gidx in sorted(
            raw, key=lambda t: (t[2], -t[1])
        ):
            if flip in current or flip in current_inverses:
                continue
            candidate_set: ConstraintSet = frozenset(current | {flip})
            if candidate_set in seen_sets:
                continue
            seen_sets.add(candidate_set)
            out.append(
                Candidate(
                    constraints=candidate_set,
                    depth=len(candidate_set),
                    anchor_gidx=anchor,
                    shape=shape,
                    flip=flip,
                    safe_prefix=prefixes.safe_prefix(flip, after_gidx),
                    parent_steps=attempt_trace.steps,
                )
            )
            if len(out) >= self.max_candidates_per_attempt:
                break
        return out
