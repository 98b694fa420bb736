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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.vector_clock import VectorClock
from repro.sim.events import Event
from repro.sim.memory import region_of
from repro.sim.ops import Address, OpKind
from repro.sim.trace import Trace

#: (mutex name, acquisition occurrence) — which lock acquisition protects
#: an access; feedback uses it to lift flips up to the LOCK operation.
HeldLock = Tuple[str, int]


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


class HBAnalysis:
    """Sweep result: per-event vector clocks plus the race report.

    Clocks are kept FastTrack-style.  An event that draws no
    happens-before edge (a memory access, a marker, local work) only
    advances its own thread's component, so the sweep does not build a
    clock for it: it keeps the thread's last built clock plus the
    event's *local time*.  Clocks come from tick and join alone, so an
    event of thread ``t`` with local time ``k`` happens before an event
    whose clock is ``C`` iff ``k <= C[t]`` — the race check is one
    component lookup.  :attr:`event_vcs` builds the full per-event
    clocks only when asked.
    """

    def __init__(
        self,
        trace: Trace,
        use_lock_edges: bool = True,
        max_races: int = 10_000,
    ) -> None:
        self.trace = trace
        self.use_lock_edges = use_lock_edges
        self.max_races = max_races
        self.races: List[RacePair] = []
        #: per event: (its thread's last built clock, the event's local time)
        self._clock_parts: List[Tuple[VectorClock, int]] = []
        self._event_vcs: Optional[List[VectorClock]] = None
        self._sweep()

    # -- public helpers ---------------------------------------------------

    @property
    def event_vcs(self) -> List[VectorClock]:
        """Every event's vector clock, indexed by global index."""
        if self._event_vcs is None:
            self._event_vcs = [
                vc.advanced(event.tid, local)
                for event, (vc, local) in zip(self.trace.events, self._clock_parts)
            ]
        return self._event_vcs

    def vc_of(self, gidx: int) -> VectorClock:
        return self.event_vcs[gidx]

    def ordered(self, first_gidx: int, second_gidx: int) -> bool:
        """Whether event ``first_gidx`` happens-before event ``second_gidx``."""
        return self.event_vcs[first_gidx].leq(self.event_vcs[second_gidx])

    def races_involving(self, addr: Address) -> List[RacePair]:
        return [r for r in self.races if r.addr == addr]

    # -- the sweep ----------------------------------------------------------

    def _sweep(self) -> None:
        # thread_vc[tid] is the thread's last built clock; local[tid] its
        # own component now, which runs ahead across edge-free events.
        thread_vc: Dict[int, VectorClock] = {}
        local: Dict[int, int] = {}
        mutex_vc: Dict[str, VectorClock] = {}
        rwlock_vc: Dict[str, VectorClock] = {}
        sem_vc: Dict[str, VectorClock] = {}
        channel_sends: Dict[str, List[VectorClock]] = {}
        channel_recvs: Dict[str, int] = {}
        pending_join: Dict[int, VectorClock] = {}  # joined at tid's next event
        barrier_arrived: Dict[str, List[int]] = {}
        barrier_vc: Dict[str, VectorClock] = {}

        lock_counts: Dict[Tuple[int, str], int] = {}
        held: Dict[int, Dict[str, int]] = {}
        # Sorted held-lock tuple per thread, rebuilt only after the
        # thread's lockset changes (races record it per access).
        held_now: Dict[int, Tuple[HeldLock, ...]] = {}

        # Per-address access history: addr -> tid -> last read / last write.
        reads: Dict[Address, Dict[int, _Access]] = {}
        writes: Dict[Address, Dict[int, _Access]] = {}
        region_addrs: Dict[Address, Set[Address]] = {}

        zero = VectorClock.zero()
        parts = self._clock_parts
        races = self.races

        def clock_of(tid: int) -> VectorClock:
            """The clock of thread ``tid``'s latest event."""
            return thread_vc.get(tid, zero).advanced(tid, local.get(tid, 0))

        for event in self.trace.events:
            tid = event.tid
            kind = event.kind
            if not (kind.is_sync or kind is OpKind.SYSCALL):
                # No outgoing edge, and an incoming one only on the first
                # event after a spawn or wakeup; otherwise only the own
                # component advances.
                if tid in pending_join:
                    vc = clock_of(tid).join(pending_join.pop(tid)).tick(tid)
                    thread_vc[tid] = vc
                    now = local[tid] = vc.get(tid)
                else:
                    now = local[tid] = local.get(tid, 0) + 1
                    vc = thread_vc.get(tid, zero)
                parts.append((vc, now))
                if kind.is_memory and len(races) < self.max_races:
                    locks = held_now.get(tid)
                    if locks is None:
                        locks = tuple(sorted(held.get(tid, {}).items()))
                        held_now[tid] = locks
                    self._check_access(
                        event, now, vc, locks, reads, writes, region_addrs
                    )
                continue

            vc = clock_of(tid)

            # Incoming edges --------------------------------------------------
            if tid in pending_join:
                vc = vc.join(pending_join.pop(tid))
            if kind is OpKind.LOCK and self.use_lock_edges:
                vc = vc.join(mutex_vc.get(event.obj, zero))
            elif kind is OpKind.TRYLOCK and event.value and self.use_lock_edges:
                vc = vc.join(mutex_vc.get(event.obj, zero))
            elif kind in (OpKind.RDLOCK, OpKind.WRLOCK) and self.use_lock_edges:
                # conservative: any release -> any acquire (masks only
                # reader-reader pairs, which cannot race through reads)
                vc = vc.join(rwlock_vc.get(event.obj, zero))
            elif kind is OpKind.SEM_ACQUIRE:
                vc = vc.join(sem_vc.get(event.obj, zero))
            elif kind is OpKind.JOIN:
                vc = vc.join(clock_of(event.obj))
            elif kind is OpKind.SYSCALL and event.name in ("recv", "try_recv"):
                # The k-th recv on a channel returns the k-th send's message.
                chan = self._channel_of(event)
                if chan is not None and event.value is not None:
                    k = channel_recvs.get(chan, 0)
                    sends = channel_sends.get(chan, [])
                    if k < len(sends):
                        vc = vc.join(sends[k])
                    channel_recvs[chan] = k + 1

            vc = vc.tick(tid)
            thread_vc[tid] = vc
            local[tid] = vc.get(tid)
            parts.append((vc, local[tid]))

            # Lockset maintenance ------------------------------------------------
            tid_held = held.setdefault(tid, {})
            if kind.is_lock and (kind is not OpKind.TRYLOCK or event.value):
                key = (tid, event.obj)
                lock_counts[key] = lock_counts.get(key, 0) + 1
                tid_held[event.obj] = lock_counts[key]
                held_now.pop(tid, None)
            elif kind is OpKind.UNLOCK or kind is OpKind.RWUNLOCK:
                tid_held.pop(event.obj, None)
                held_now.pop(tid, None)
            elif kind is OpKind.COND_WAIT:
                _, lock_name = event.obj
                tid_held.pop(lock_name, None)
                held_now.pop(tid, None)

            # Outgoing edges ------------------------------------------------------
            if kind is OpKind.UNLOCK:
                mutex_vc[event.obj] = vc
            elif kind is OpKind.RWUNLOCK:
                rwlock_vc[event.obj] = rwlock_vc.get(event.obj, zero).join(vc)
            elif kind is OpKind.COND_WAIT:
                _, lock_name = event.obj
                mutex_vc[lock_name] = vc
            elif kind is OpKind.SEM_RELEASE:
                sem_vc[event.obj] = sem_vc.get(event.obj, zero).join(vc)
            elif kind is OpKind.SPAWN:
                pending_join[event.value] = vc
            elif kind is OpKind.COND_SIGNAL and event.value is not None:
                woken = event.value
                pending_join[woken] = pending_join.get(woken, zero).join(vc)
            elif kind is OpKind.COND_BROADCAST and event.value:
                for woken in event.value:
                    pending_join[woken] = pending_join.get(woken, zero).join(vc)
            elif kind is OpKind.BARRIER_WAIT:
                name = event.obj
                barrier_arrived.setdefault(name, []).append(tid)
                barrier_vc[name] = barrier_vc.get(name, zero).join(vc)
                if event.value is not None:  # this arrival tripped the barrier
                    merged = barrier_vc[name]
                    for participant in barrier_arrived[name]:
                        pending_join[participant] = (
                            pending_join.get(participant, zero).join(merged)
                        )
                    barrier_arrived[name] = []
                    barrier_vc[name] = zero
            elif kind is OpKind.SYSCALL and event.name == "send":
                chan = self._channel_of(event)
                if chan is not None:
                    channel_sends.setdefault(chan, []).append(vc)

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
    ) -> None:
        addr = event.addr
        tid = event.tid
        kind = event.kind
        is_write = kind.is_write
        is_free = kind is OpKind.FREE

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
                        prev.kind is OpKind.FREE or is_free
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

        table = writes if is_write else reads
        history = table.get(addr)
        if history is None:
            table[addr] = history = {}
        history[tid] = (event, now, held_now)
        if region != addr:
            cells = region_addrs.get(region)
            if cells is None:
                region_addrs[region] = cells = set()
            cells.add(addr)


def find_races(
    trace: Trace, use_lock_edges: bool = True, max_races: int = 10_000
) -> List[RacePair]:
    """Convenience wrapper: the race pairs of one trace."""
    return HBAnalysis(
        trace, use_lock_edges=use_lock_edges, max_races=max_races
    ).races
