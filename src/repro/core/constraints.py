"""Ordering constraints for replay attempts.

A constraint says "this program action must execute before that one".
Actions are named by :class:`EventRef` — (thread, action family, key,
occurrence) — a coordinate system that survives re-scheduling: "thread 3's
2nd access to ``buf_len``" names the same action in any attempt where
thread 3's control flow has not diverged.  (If it *has* diverged, the
sketch-conformance monitor notices and the attempt is abandoned anyway.)

Three families cover every producer:

* ``mem`` — the k-th shared-memory access by a thread to an address
  (reads, writes, atomics and frees all count in one sequence);
* ``lock`` — the k-th acquisition of a mutex by a thread (LOCK, a
  successful TRYLOCK, or a condition-wait re-acquire).  Flips of
  lock-protected races are lifted to this family, because blocking a
  thread that already holds the common mutex would deadlock the attempt.
* ``region`` — the k-th shared-memory access by a thread to a *region*:
  the address itself for scalar addresses, the tuple head for indexed
  addresses like ``("row", i)``.  The static analyzer (which sees
  program structure, not concrete indices) emits refs in this family;
  they are coarser than ``mem`` refs but resolve deterministically
  against any schedule.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (
    Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

from repro.core.sketchlog import _from_jsonable, _jsonable
from repro.sim.events import Event
from repro.sim.ops import Address, Op, OpKind


@dataclass(frozen=True)
class EventRef:
    """A schedule-independent name for one program action."""

    tid: int
    family: str  # "mem", "lock" or "region"
    key: Address  # address for mem, mutex name for lock, region head for region
    occurrence: int  # 1-based

    def describe(self) -> str:
        return f"T{self.tid}:{self.family}[{self.key!r}]#{self.occurrence}"


@dataclass(frozen=True)
class OrderConstraint:
    """``before`` must have executed before ``after`` may execute."""

    before: EventRef
    after: EventRef

    def describe(self) -> str:
        return f"{self.before.describe()} -> {self.after.describe()}"


#: A replay attempt's full set of constraints, hashable for dedup.
ConstraintSet = FrozenSet[OrderConstraint]


def _key_token(key: Any) -> Tuple:
    """A totally ordered stand-in for an EventRef key.

    Keys are addresses or mutex names — str, int, or tuples thereof —
    and Python refuses to compare across those types.  Tagging each
    value with a type rank (and recursing into tuples) yields a cheap
    total order without building ``repr`` strings.
    """
    if isinstance(key, tuple):
        return (2, tuple(_key_token(part) for part in key))
    if isinstance(key, str):
        return (1, key)
    return (0, "", key)


def ref_sort_key(ref: EventRef) -> Tuple:
    """Total-order key for an :class:`EventRef` (no string building)."""
    return (ref.tid, ref.family, _key_token(ref.key), ref.occurrence)


def constraint_sort_key(constraint: OrderConstraint) -> Tuple:
    """Total-order key for an :class:`OrderConstraint`.

    Replaces ``sorted(constraints, key=str)``: dataclass ``__repr__``
    interpolation dominated the per-attempt setup cost, and the sort only
    exists to make attempt identity independent of set iteration order.
    """
    return (ref_sort_key(constraint.before), ref_sort_key(constraint.after))


def canonical_order(constraints: Iterable[OrderConstraint]) -> Tuple[OrderConstraint, ...]:
    """The canonical (sorted) tuple form of a constraint set.

    Every consumer that needs a deterministic sequence — the PIR gate,
    attempt fingerprints, parallel dispatch order — sorts through here,
    so serial and parallel replays see identical constraint order.
    """
    return tuple(sorted(constraints, key=constraint_sort_key))


#: Bounded memo for :func:`ordered_constraints`; constraint sets repeat
#: heavily within a session (plan ranking, cache keys, dispatch), and
#: E12's microbench puts sort-once at ~245x cheaper than re-sorting.
_ORDERED_MEMO: Dict[ConstraintSet, Tuple[OrderConstraint, ...]] = {}
_ORDERED_MEMO_LIMIT = 4096


def ordered_constraints(constraints: ConstraintSet) -> Tuple[OrderConstraint, ...]:
    """Memoized :func:`canonical_order` over hashable constraint sets.

    For call sites outside the engine (which hoists through
    ``AttemptContext.ordered``): sanitize plan ranking, cache keys, and
    anything else that canonicalizes the same set repeatedly.
    """
    cached = _ORDERED_MEMO.get(constraints)
    if cached is None:
        if len(_ORDERED_MEMO) >= _ORDERED_MEMO_LIMIT:
            _ORDERED_MEMO.clear()
        cached = canonical_order(constraints)
        _ORDERED_MEMO[constraints] = cached
    return cached


def region_key(addr: Address) -> Address:
    """The region an address belongs to: the tuple head for indexed
    addresses (``("row", 3)`` → ``"row"``), the address itself otherwise.

    Static analysis names accesses at region granularity because loop
    indices are schedule- or parameter-dependent; the runtime maps every
    concrete access back through this function when resolving
    ``region``-family refs.
    """
    if isinstance(addr, tuple) and addr:
        return addr[0]
    return addr


# -- JSON form ---------------------------------------------------------------
# One encoding for every artifact that stores constraints (attempt-store
# records, plan files): refs as objects, keys tagged by the sketch-log
# ``_jsonable`` convention so tuple addresses come back as tuples, sets
# in canonical order so the same set always encodes to the same bytes.


def _ref_to_json(ref: EventRef) -> Dict[str, Any]:
    return {
        "tid": ref.tid,
        "family": ref.family,
        "key": _jsonable(ref.key),
        "occurrence": ref.occurrence,
    }


def _ref_from_json(data: Dict[str, Any]) -> EventRef:
    tid, family, occurrence = data["tid"], data["family"], data["occurrence"]
    if type(tid) is not int or type(occurrence) is not int or type(family) is not str:
        raise ValueError(f"malformed event ref {data!r}")
    key = _from_jsonable(data["key"])
    hash(key)  # a list or dict key names no action: TypeError
    return EventRef(tid, family, key, occurrence)


def constraint_to_json(constraint: OrderConstraint) -> Dict[str, Any]:
    """One constraint as a JSON-ready ``{"before": ref, "after": ref}``."""
    return {
        "before": _ref_to_json(constraint.before),
        "after": _ref_to_json(constraint.after),
    }


def constraint_from_json(data: Dict[str, Any]) -> OrderConstraint:
    """Inverse of :func:`constraint_to_json`.

    Raises ``KeyError``/``TypeError``/``ValueError`` on a malformed
    payload; each decoder turns those into its own named error.
    """
    return OrderConstraint(
        _ref_from_json(data["before"]), _ref_from_json(data["after"])
    )


def constraints_to_json(constraints: ConstraintSet) -> List[Dict[str, Any]]:
    """A constraint set as a JSON list, in canonical order."""
    return [constraint_to_json(c) for c in canonical_order(constraints)]


def constraints_from_json(data: List[Dict[str, Any]]) -> ConstraintSet:
    """Inverse of :func:`constraints_to_json`."""
    return frozenset(constraint_from_json(c) for c in data)


class OccurrenceCounter:
    """Counts executed actions so EventRefs can be resolved online."""

    def __init__(self) -> None:
        self._mem: Dict[Tuple[int, Address], int] = {}
        self._lock: Dict[Tuple[int, str], int] = {}
        self._region: Dict[Tuple[int, Address], int] = {}

    def observe(self, event: Event) -> None:
        """Account one executed event.  Counts only ever grow in a run."""
        kind = event.kind
        if kind.is_memory:
            mem = self._mem
            key = (event.tid, event.addr)
            mem[key] = mem.get(key, 0) + 1
            region = self._region
            rkey = (event.tid, region_key(event.addr))
            region[rkey] = region.get(rkey, 0) + 1
        elif kind.is_lock and (kind is not OpKind.TRYLOCK or event.value):
            lock = self._lock
            key = (event.tid, event.obj)
            lock[key] = lock.get(key, 0) + 1

    def executed(self, ref: EventRef) -> bool:
        """Whether the named action has already happened."""
        if ref.family == "mem":
            table = self._mem
        elif ref.family == "region":
            table = self._region
        else:
            table = self._lock
        return table.get((ref.tid, ref.key), 0) >= ref.occurrence

    def pending_matches(self, tid: int, op: Op, ref: EventRef) -> bool:
        """Whether executing ``op`` now would *be* the named action."""
        if tid != ref.tid:
            return False
        family = ref.family
        if family == "mem":
            if not op.kind.is_memory or op.addr != ref.key:
                return False
            done = self._mem.get((tid, op.addr), 0)
            return done + 1 == ref.occurrence
        if family == "region":
            if not op.kind.is_memory or region_key(op.addr) != ref.key:
                return False
            done = self._region.get((tid, ref.key), 0)
            return done + 1 == ref.occurrence
        # lock family: TRYLOCK may fail, but blocking it until the
        # constraint is satisfied is still sound (just conservative).
        if not op.kind.is_lock or op.obj != ref.key:
            return False
        done = self._lock.get((tid, op.obj), 0)
        return done + 1 == ref.occurrence

    def mem_count(self, tid: int, addr: Address) -> int:
        return self._mem.get((tid, addr), 0)

    def lock_count(self, tid: int, mutex: str) -> int:
        return self._lock.get((tid, mutex), 0)

    def region_count(self, tid: int, region: Address) -> int:
        return self._region.get((tid, region), 0)

    def capture(self) -> Tuple[Dict, Dict, Dict]:
        """Snapshot the executed-action counts (for prefix resume)."""
        return (dict(self._mem), dict(self._lock), dict(self._region))

    def restore(self, state: Tuple[Dict, ...]) -> None:
        """Load counts captured by :meth:`capture`.

        Counts are constraint-independent — they track what *executed*,
        which is identical for a parent attempt and a child resuming
        inside the parent's safe prefix — so a snapshot taken under one
        gate is valid under another whose constraints extend it.
        """
        self._mem = dict(state[0])
        self._lock = dict(state[1])
        self._region = dict(state[2]) if len(state) > 2 else {}


class ConstraintGate:
    """Online enforcement of a constraint set during one attempt."""

    def __init__(self, constraints: Iterable[OrderConstraint]) -> None:
        self.constraints: List[OrderConstraint] = list(constraints)
        self.counter = OccurrenceCounter()
        #: after-tid -> the constraints that may still block that thread.
        #: blocks() runs once per runnable thread per step — the hottest
        #: loop in an attempt.  A constraint can only block the thread its
        #: ``after`` ref names, so index by that tid and scan the (tiny)
        #: relevant slice instead of the whole set.  A constraint whose
        #: ``before`` has executed can never block again (occurrence
        #: counts only grow within a run), so blocks() drops it, and a
        #: tid with none left leaves the index.
        self.live_by_after_tid: Dict[int, List[OrderConstraint]] = {}
        for constraint in self.constraints:
            self.live_by_after_tid.setdefault(
                constraint.after.tid, []
            ).append(constraint)

    def observe(self, event: Event) -> None:
        self.counter.observe(event)

    def blocks(self, tid: int, op: Op) -> bool:
        """Whether this thread's pending op must wait for a constraint."""
        live = self.live_by_after_tid.get(tid)
        if live is None:
            return False
        counter = self.counter
        for constraint in live:
            if counter.executed(constraint.before):
                live = [c for c in live if not counter.executed(c.before)]
                if live:
                    self.live_by_after_tid[tid] = live
                else:
                    del self.live_by_after_tid[tid]
                break
        for constraint in live:
            if counter.pending_matches(tid, op, constraint.after):
                return True
        return False


class RefState:
    """A :class:`RefIndex` after a trace's first :attr:`events` events:
    each one's occurrence number, and the per-(thread, address) and
    per-(thread, mutex) counts a resumed index goes on counting from."""

    __slots__ = ("events", "occurrences", "mem", "lock")

    def __init__(
        self,
        events: int,
        occurrences: "array[int]",
        mem: Dict[Tuple[int, Address], int],
        lock: Dict[Tuple[int, str], int],
    ) -> None:
        self.events = events
        self.occurrences = occurrences
        self.mem = mem
        self.lock = lock


class RefIndex:
    """Maps every memory access / lock acquisition of a trace to its EventRef.

    One pass over the events assigns occurrence numbers, kept per event
    in a compact array (0 for unnamed kinds); afterwards :meth:`ref_of`
    answers by global index.  Refs are built on demand: a trace names
    every access, and a miner asks about a few dozen.

    ``resume`` continues from a :class:`RefState` of a trace whose first
    ``resume.events`` events this one shares; ``checkpoints`` names
    event counts at which to copy the state into :attr:`checkpoints`.
    """

    def __init__(
        self,
        events: Sequence[Event],
        resume: Optional[RefState] = None,
        checkpoints: Iterable[int] = (),
    ) -> None:
        if resume is None:
            start, occurrences, mem, lock = 0, array("i"), {}, {}
        else:
            start = resume.events
            occurrences = resume.occurrences[:]
            mem, lock = dict(resume.mem), dict(resume.lock)
        self._occurrences = occurrences
        #: the index's state at each requested event count.
        self.checkpoints: Dict[int, RefState] = {}
        append = occurrences.append
        wanted = {n for n in checkpoints if start <= n <= len(events)}
        pos = start
        for stop in (*sorted(wanted), len(events)):
            for event in events[pos:stop]:
                kind = event.kind
                if kind.is_memory:
                    key = (event.tid, event.addr)
                    count = mem[key] = mem.get(key, 0) + 1
                elif kind.is_lock and (kind is not OpKind.TRYLOCK or event.value):
                    # LOCK, a successful TRYLOCK and reader-writer
                    # acquisitions: each is a scheduling point a flip can
                    # target.
                    key = (event.tid, event.obj)
                    count = lock[key] = lock.get(key, 0) + 1
                else:
                    count = 0
                append(count)
            if stop in wanted:
                self.checkpoints[stop] = RefState(
                    stop, occurrences[:], dict(mem), dict(lock)
                )
            pos = stop

    def ref_of(self, event: Event) -> Optional[EventRef]:
        """The ref naming this event, or None for unnamed kinds."""
        gidx = event.gidx
        occurrences = self._occurrences
        count = occurrences[gidx] if gidx < len(occurrences) else 0
        if not count:
            return None
        if event.kind.is_memory:
            return EventRef(event.tid, "mem", event.addr, count)
        return EventRef(event.tid, "lock", event.obj, count)

    def lock_ref(self, tid: int, mutex: str, occurrence: int) -> EventRef:
        """Explicit lock-family ref (for lifted flips)."""
        return EventRef(tid, "lock", mutex, occurrence)
