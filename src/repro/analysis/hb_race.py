"""Happens-before analysis and race detection over a trace.

One forward sweep over the event list computes, per event, the thread's
vector clock and held-lock set, and reports *race pairs*: conflicting
memory accesses by different threads that are not ordered by the
happens-before relation.  Each race pair is a scheduling decision that a
sketch did not record — exactly the candidates PRES's replayer flips
between attempts.

The happens-before edges modelled (all of pthreads-on-our-simulator):

* program order within each thread;
* mutex release -> subsequent acquire (UNLOCK / COND_WAIT's release ->
  LOCK / successful TRYLOCK);
* condition signal/broadcast -> the woken thread's next event;
* semaphore release -> subsequent acquire (accumulated conservatively);
* barrier: every arrival of a generation -> every participant's
  continuation;
* SPAWN -> child's first event, child's last event -> JOIN;
* channel ``send`` -> the ``recv`` that returns the same message.

Race state is FastTrack-flavoured: per address we keep each thread's most
recent read and write, so a race is reported between an access and the
latest conflicting access of every other thread — sufficient for flip
candidates without quadratic blowup.

``use_lock_edges=False`` drops the mutex edges: with no sketch at all, even
lock-acquisition order is up for grabs during replay, so accesses ordered
only by lock handoffs must still be offered as flip candidates.

The sweep is resumable.  Its state after *k* events depends on those *k*
events alone, so :class:`HBAnalysis` copies it at requested event counts
(a :class:`SweepState` each) and continues from such a copy: a trace that
shares its first *k* events with the swept one, object for object — a
replay attempt resumed from its parent's snapshot — is swept from event
*k* on and ends with the one-pass races.  A copy is proportional to
threads, addresses and races, never to events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.vector_clock import VectorClock
from repro.sim.events import Event
from repro.sim.memory import region_of
from repro.sim.ops import Address, OpKind
from repro.sim.trace import Trace

#: (mutex name, acquisition occurrence) — which lock acquisition protects
#: an access; feedback uses it to lift flips up to the LOCK operation.
HeldLock = Tuple[str, int]

#: The kinds the sweep tests, bound at import: on Python 3.11 reading a
#: member off an Enum class goes through ``EnumType.__getattr__`` (about
#: 0.1 µs), and the sweep tests kinds for every event.
_LOCK, _TRYLOCK, _UNLOCK, _RDLOCK, _WRLOCK, _RWUNLOCK = (
    OpKind.LOCK, OpKind.TRYLOCK, OpKind.UNLOCK, OpKind.RDLOCK,
    OpKind.WRLOCK, OpKind.RWUNLOCK,
)
_COND_WAIT, _COND_SIGNAL, _COND_BROADCAST = (
    OpKind.COND_WAIT, OpKind.COND_SIGNAL, OpKind.COND_BROADCAST,
)
_SEM_ACQUIRE, _SEM_RELEASE, _BARRIER_WAIT, _SPAWN, _JOIN = (
    OpKind.SEM_ACQUIRE, OpKind.SEM_RELEASE, OpKind.BARRIER_WAIT,
    OpKind.SPAWN, OpKind.JOIN,
)
_SYSCALL, _FREE = OpKind.SYSCALL, OpKind.FREE


@dataclass(frozen=True)
class RacePair:
    """Two conflicting, happens-before-unordered accesses.

    ``first`` executed before ``second`` in this trace's global order, but
    nothing forces that: a replay may execute them the other way around.
    ``held_first``/``held_second`` are the (mutex, acquisition-occurrence)
    pairs each thread held at the time.
    """

    first: Event
    second: Event
    addr: Address
    held_first: Tuple[HeldLock, ...] = ()
    held_second: Tuple[HeldLock, ...] = ()

    def common_mutexes(self) -> List[Tuple[HeldLock, HeldLock]]:
        """Lock acquisitions both sides hold on the same mutex."""
        by_name = {name: (name, k) for name, k in self.held_first}
        pairs = []
        for name, k in self.held_second:
            if name in by_name:
                pairs.append((by_name[name], (name, k)))
        return pairs

    def describe(self) -> str:
        return (
            f"race on {self.addr!r}: "
            f"T{self.first.tid}#{self.first.gidx} {self.first.kind.value} vs "
            f"T{self.second.tid}#{self.second.gidx} {self.second.kind.value}"
        )


#: One thread's latest access to an address: (event, its local time —
#: its own thread's vector-clock component — and the locks held).
_Access = Tuple[Event, int, Tuple[HeldLock, ...]]

#: :class:`SweepState` tables whose values a sweep never changes in
#: place (or copies first), so a copy of the state copies each shallowly.
_TABLES = (
    "thread_vc", "local", "mutex_vc", "rwlock_vc", "sem_vc",
    "channel_sends", "channel_skips", "pending_join", "barrier_arrived",
    "barrier_vc", "lock_counts", "held_now", "reads", "writes",
    "region_addrs",
)


class SweepState:
    """The sweep after a trace's first :attr:`events` events.

    What a resumed :class:`HBAnalysis` continues from.  Clocks, held-lock
    tuples, pending channel sends and barrier arrivals are immutable
    values, shared by every copy.  The per-address access histories and
    region cell sets are shared too: a sweep copies one before it first
    changes it (copy on write), so consecutive copies along one sweep —
    and along a lineage of resumed sweeps — hold one history per change,
    not one per copy.
    """

    __slots__ = ("events", "use_lock_edges", "races", "held") + _TABLES

    def __init__(self, use_lock_edges: bool) -> None:
        self.events = 0
        self.use_lock_edges = use_lock_edges
        self.races: List[RacePair] = []
        #: per thread: its last built clock, and its own component now
        #: (which runs ahead of that clock across edge-free events).
        self.thread_vc: Dict[int, VectorClock] = {}
        self.local: Dict[int, int] = {}
        self.mutex_vc: Dict[str, VectorClock] = {}
        self.rwlock_vc: Dict[str, VectorClock] = {}
        self.sem_vc: Dict[str, VectorClock] = {}
        #: per channel: the clocks of sends no recv has returned yet, and
        #: how many recvs ran ahead of the sends (their sends are never
        #: returned to anyone: the k-th recv returns the k-th send).
        self.channel_sends: Dict[str, Tuple[VectorClock, ...]] = {}
        self.channel_skips: Dict[str, int] = {}
        self.pending_join: Dict[int, VectorClock] = {}  # joined at tid's next event
        self.barrier_arrived: Dict[str, Tuple[int, ...]] = {}
        self.barrier_vc: Dict[str, VectorClock] = {}
        self.lock_counts: Dict[Tuple[int, str], int] = {}
        self.held: Dict[int, Dict[str, int]] = {}
        #: sorted held-lock tuple per thread, rebuilt only after the
        #: thread's lockset changes (races record it per access).
        self.held_now: Dict[int, Tuple[HeldLock, ...]] = {}
        #: per-address access history: addr -> tid -> last read / write.
        self.reads: Dict[Address, Dict[int, _Access]] = {}
        self.writes: Dict[Address, Dict[int, _Access]] = {}
        self.region_addrs: Dict[Address, Set[Address]] = {}

    def copy(self) -> "SweepState":
        """An independent copy; inner histories stay shared (see above)."""
        twin = SweepState.__new__(SweepState)
        twin.events = self.events
        twin.use_lock_edges = self.use_lock_edges
        twin.races = list(self.races)
        twin.held = {tid: dict(locks) for tid, locks in self.held.items()}
        for name in _TABLES:
            setattr(twin, name, getattr(self, name).copy())
        return twin


class HBAnalysis:
    """Sweep result: the race report, and per-event vector clocks.

    Clocks are kept FastTrack-style.  An event that draws no
    happens-before edge (a memory access, a marker, local work) only
    advances its own thread's component, so the sweep does not build a
    clock for it: it keeps the thread's last built clock plus the
    event's *local time*.  Clocks come from tick and join alone, so an
    event of thread ``t`` with local time ``k`` happens before an event
    whose clock is ``C`` iff ``k <= C[t]`` — the race check is one
    component lookup.  :attr:`event_vcs` builds the full per-event
    clocks only when asked.

    ``resume`` continues from a :class:`SweepState` of a trace whose
    first ``resume.events`` events this trace shares; ``checkpoints``
    names event counts at which to copy the state into
    :attr:`checkpoints`.  Neither changes :attr:`races`.
    """

    def __init__(
        self,
        trace: Trace,
        use_lock_edges: bool = True,
        max_races: int = 10_000,
        resume: Optional[SweepState] = None,
        checkpoints: Iterable[int] = (),
    ) -> None:
        self.trace = trace
        self.use_lock_edges = use_lock_edges
        self.max_races = max_races
        #: events this sweep skipped: those ``resume`` already covered.
        self.start = 0
        self.races: List[RacePair] = []
        #: the sweep's state at each requested event count.
        self.checkpoints: Dict[int, SweepState] = {}
        #: per swept event: (its thread's last built clock, its local time)
        self._clock_parts: List[Tuple[VectorClock, int]] = []
        self._event_vcs: Optional[List[VectorClock]] = None
        self._sweep(resume, checkpoints)

    # -- public helpers ---------------------------------------------------

    @property
    def event_vcs(self) -> List[VectorClock]:
        """Every event's vector clock, indexed by global index."""
        if self._event_vcs is None:
            if self.start:
                # a resumed sweep kept no clocks for the events it skipped
                self._event_vcs = HBAnalysis(
                    self.trace, self.use_lock_edges, self.max_races
                ).event_vcs
            else:
                self._event_vcs = [
                    vc.advanced(event.tid, local)
                    for event, (vc, local) in zip(
                        self.trace.events, self._clock_parts
                    )
                ]
        return self._event_vcs

    def ordered(self, first_gidx: int, second_gidx: int) -> bool:
        """Whether event ``first_gidx`` happens-before event ``second_gidx``."""
        return self.event_vcs[first_gidx].leq(self.event_vcs[second_gidx])

    def races_involving(self, addr: Address) -> List[RacePair]:
        return [r for r in self.races if r.addr == addr]

    # -- the sweep ----------------------------------------------------------

    def _sweep(self, resume: Optional[SweepState], at: Iterable[int]) -> None:
        if resume is None:
            state = SweepState(self.use_lock_edges)
        elif resume.use_lock_edges != self.use_lock_edges:
            raise ValueError("a sweep resumes only under its own lock edges")
        else:
            state = resume.copy()
        events = self.trace.events
        start = self.start = state.events
        if start > len(events):
            raise ValueError("the resumed state covers more events than the trace")
        thread_vc = state.thread_vc
        local = state.local
        mutex_vc = state.mutex_vc
        rwlock_vc = state.rwlock_vc
        sem_vc = state.sem_vc
        channel_sends = state.channel_sends
        channel_skips = state.channel_skips
        pending_join = state.pending_join
        barrier_arrived = state.barrier_arrived
        barrier_vc = state.barrier_vc
        lock_counts = state.lock_counts
        held = state.held
        held_now = state.held_now
        reads = state.reads
        writes = state.writes
        region_addrs = state.region_addrs
        # The read histories, write histories and region cell sets this
        # sweep may change in place: the ones it made or copied since its
        # state was last shared.
        owned: Tuple[Set[Address], Set[Address], Set[Address]] = (
            set(), set(), set()
        )

        zero = VectorClock.zero()
        parts = self._clock_parts
        races = self.races = state.races
        max_races = self.max_races
        use_lock_edges = self.use_lock_edges

        def clock_of(tid: int) -> VectorClock:
            """The clock of thread ``tid``'s latest event."""
            return thread_vc.get(tid, zero).advanced(tid, local.get(tid, 0))

        wanted = {n for n in at if start <= n <= len(events)}
        pos = start
        for stop in (*sorted(wanted), len(events)):
            for event in events[pos:stop]:
                tid = event.tid
                kind = event.kind
                if not (kind.is_sync or kind is _SYSCALL):
                    # No outgoing edge, and an incoming one only on the
                    # first event after a spawn or wakeup; otherwise only
                    # the own component advances.
                    if tid in pending_join:
                        vc = clock_of(tid).join(pending_join.pop(tid)).tick(tid)
                        thread_vc[tid] = vc
                        now = local[tid] = vc.get(tid)
                    else:
                        now = local[tid] = local.get(tid, 0) + 1
                        vc = thread_vc.get(tid, zero)
                    parts.append((vc, now))
                    if kind.is_memory and len(races) < max_races:
                        locks = held_now.get(tid)
                        if locks is None:
                            locks = tuple(sorted(held.get(tid, {}).items()))
                            held_now[tid] = locks
                        self._check_access(
                            event, now, vc, locks, reads, writes,
                            region_addrs, owned,
                        )
                    continue

                vc = clock_of(tid)

                # Incoming edges ----------------------------------------------
                if tid in pending_join:
                    vc = vc.join(pending_join.pop(tid))
                if kind is _LOCK and use_lock_edges:
                    vc = vc.join(mutex_vc.get(event.obj, zero))
                elif kind is _TRYLOCK and event.value and use_lock_edges:
                    vc = vc.join(mutex_vc.get(event.obj, zero))
                elif (kind is _RDLOCK or kind is _WRLOCK) and use_lock_edges:
                    # conservative: any release -> any acquire (masks only
                    # reader-reader pairs, which cannot race through reads)
                    vc = vc.join(rwlock_vc.get(event.obj, zero))
                elif kind is _SEM_ACQUIRE:
                    vc = vc.join(sem_vc.get(event.obj, zero))
                elif kind is _JOIN:
                    vc = vc.join(clock_of(event.obj))
                elif kind is _SYSCALL and event.name in ("recv", "try_recv"):
                    # The k-th recv on a channel returns the k-th send's
                    # message.
                    chan = self._channel_of(event)
                    if chan is not None and event.value is not None:
                        sends = channel_sends.get(chan)
                        if sends:
                            vc = vc.join(sends[0])
                            channel_sends[chan] = sends[1:]
                        else:
                            channel_skips[chan] = channel_skips.get(chan, 0) + 1

                vc = vc.tick(tid)
                thread_vc[tid] = vc
                local[tid] = vc.get(tid)
                parts.append((vc, local[tid]))

                # Lockset maintenance ------------------------------------------
                tid_held = held.setdefault(tid, {})
                if kind.is_lock and (kind is not _TRYLOCK or event.value):
                    key = (tid, event.obj)
                    lock_counts[key] = lock_counts.get(key, 0) + 1
                    tid_held[event.obj] = lock_counts[key]
                    held_now.pop(tid, None)
                elif kind is _UNLOCK or kind is _RWUNLOCK:
                    tid_held.pop(event.obj, None)
                    held_now.pop(tid, None)
                elif kind is _COND_WAIT:
                    _, lock_name = event.obj
                    tid_held.pop(lock_name, None)
                    held_now.pop(tid, None)

                # Outgoing edges ------------------------------------------------
                if kind is _UNLOCK:
                    mutex_vc[event.obj] = vc
                elif kind is _RWUNLOCK:
                    rwlock_vc[event.obj] = rwlock_vc.get(event.obj, zero).join(vc)
                elif kind is _COND_WAIT:
                    _, lock_name = event.obj
                    mutex_vc[lock_name] = vc
                elif kind is _SEM_RELEASE:
                    sem_vc[event.obj] = sem_vc.get(event.obj, zero).join(vc)
                elif kind is _SPAWN:
                    pending_join[event.value] = vc
                elif kind is _COND_SIGNAL and event.value is not None:
                    woken = event.value
                    pending_join[woken] = pending_join.get(woken, zero).join(vc)
                elif kind is _COND_BROADCAST and event.value:
                    for woken in event.value:
                        pending_join[woken] = pending_join.get(woken, zero).join(vc)
                elif kind is _BARRIER_WAIT:
                    name = event.obj
                    arrived = barrier_arrived.get(name, ()) + (tid,)
                    merged = barrier_vc[name] = barrier_vc.get(name, zero).join(vc)
                    if event.value is not None:  # this arrival tripped the barrier
                        for participant in arrived:
                            pending_join[participant] = (
                                pending_join.get(participant, zero).join(merged)
                            )
                        arrived = ()
                        barrier_vc[name] = zero
                    barrier_arrived[name] = arrived
                elif kind is _SYSCALL and event.name == "send":
                    chan = self._channel_of(event)
                    if chan is not None:
                        if channel_skips.get(chan):
                            channel_skips[chan] -= 1  # a recv already passed it
                        else:
                            channel_sends[chan] = channel_sends.get(chan, ()) + (vc,)
            if stop in wanted:
                state.events = stop
                self.checkpoints[stop] = state.copy()
                for mine in owned:  # now shared with the copy
                    mine.clear()
            pos = stop

    @staticmethod
    def _channel_of(event: Event) -> Optional[str]:
        """Channel name of a send/recv/try_recv event (first syscall arg)."""
        if event.args:
            return event.args[0]
        return None

    def _check_access(
        self,
        event: Event,
        now: int,
        vc: VectorClock,
        held_now: Tuple[HeldLock, ...],
        reads: Dict[Address, Dict[int, _Access]],
        writes: Dict[Address, Dict[int, _Access]],
        region_addrs: Dict[Address, Set[Address]],
        owned: Tuple[Set[Address], Set[Address], Set[Address]],
    ) -> None:
        addr = event.addr
        tid = event.tid
        kind = event.kind
        is_write = kind.is_write
        is_free = kind is _FREE

        # Addresses this access conflicts with: itself, plus the whole
        # region when freeing a region name, plus the region name when
        # accessing a cell (a FREE may sit there).  Only targets with a
        # history can race, and a non-FREE access races across addresses
        # only with a FREE, which is stored among the writes.
        region = region_of(addr)
        if is_free:
            targets = {addr}
            if region != addr:
                targets.add(region)
            targets.update(region_addrs.get(addr, ()))
            order: List[Address] = [
                target for target in targets
                if target in writes or target in reads
            ]
        elif region != addr and region in writes:
            order = [region]
            if addr in writes or (is_write and addr in reads):
                order.append(addr)
        else:
            order = [addr]
        if len(order) > 1:
            # Deterministic iteration: set order depends on
            # PYTHONHASHSEED, and race *ordering* feeds candidate
            # ranking, which must be reproducible across processes.
            order.sort(key=repr)

        races = self.races
        for target in order:
            for history in (writes.get(target), reads.get(target) if is_write else None):
                if not history:
                    continue
                for other_tid, (prev, prev_local, prev_held) in history.items():
                    if other_tid == tid:
                        continue
                    if target != addr and not (
                        prev.kind is _FREE or is_free
                    ):
                        # Cross-address conflicts only involve region frees.
                        continue
                    # ``vc`` may lag in this thread's own component only.
                    if prev_local > vc.get(other_tid):
                        races.append(
                            RacePair(
                                first=prev,
                                second=event,
                                addr=addr,
                                held_first=prev_held,
                                held_second=held_now,
                            )
                        )
                        if len(races) >= self.max_races:
                            return

        if is_write:
            table, mine = writes, owned[1]
        else:
            table, mine = reads, owned[0]
        if addr in mine:
            table[addr][tid] = (event, now, held_now)
        else:
            history = table.get(addr)
            history = {} if history is None else history.copy()
            history[tid] = (event, now, held_now)
            table[addr] = history
            mine.add(addr)
        if region != addr:
            cells = region_addrs.get(region)
            if cells is None or addr not in cells:
                own_regions = owned[2]
                if region not in own_regions:
                    cells = set() if cells is None else set(cells)
                    region_addrs[region] = cells
                    own_regions.add(region)
                cells.add(addr)


def find_races(
    trace: Trace, use_lock_edges: bool = True, max_races: int = 10_000
) -> List[RacePair]:
    """Convenience wrapper: the race pairs of one trace."""
    return HBAnalysis(
        trace, use_lock_edges=use_lock_edges, max_races=max_races
    ).races
