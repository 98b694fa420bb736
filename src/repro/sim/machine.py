"""The simulated multiprocessor machine.

The machine owns the shared memory, synchronization objects, kernel and
virtual clocks, and runs a :class:`~repro.sim.program.Program` under a
:class:`~repro.sim.scheduler.Scheduler`.  One call to :meth:`Machine.run`
is one execution; machines are single-use.

Execution model
---------------

Each thread is a generator with exactly one *pending* operation — the op it
yielded and is waiting to have performed.  A step is:

1. bring the runnable set (threads whose pending op can complete now) up
   to date — incrementally, see :meth:`Machine.runnable_tids`;
2. ask the scheduler to pick one;
3. perform the op's effect, emit an :class:`~repro.sim.events.Event`,
   charge virtual time, notify observers;
4. resume the generator with the op's result to obtain the next pending op.

Blocking ops simply keep their thread out of the runnable set until the
awaited condition holds (a held mutex, an empty channel, an unfinished
join target...), so no step is ever "wasted" on a thread that cannot make
progress, and every step emits exactly one event.  Condition waits and
barriers park the thread in a dedicated waiting state between their two
phases.

When no thread is runnable and not all threads are done, the machine
classifies the situation as DEADLOCK (a cycle in the wait-for graph) or
HANG (e.g. a lost wakeup) and ends the run with that failure.
"""

from __future__ import annotations

import copy
import enum
import pickle
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    ReplayDivergence,
    SimMemoryError,
    SimProgramError,
    SimUsageError,
)
from repro.sim.events import Event
from repro.sim.failures import Failure, FailureKind
from repro.sim.memory import SharedMemory
from repro.sim.ops import Op, OpKind
from repro.sim.persist import event_row, trace_meta
from repro.sim.program import Program, ThreadContext
from repro.sim.scheduler import Scheduler, validate_pick
from repro.sim.sync import SyncTable
from repro.sim.syscalls import Kernel
from repro.sim.trace import Trace
from repro.sim.vtime import VirtualClock


class ThreadStatus(enum.Enum):
    READY = "ready"
    WAITING_COND = "waiting_cond"
    WAITING_BARRIER = "waiting_barrier"
    DONE = "done"
    FAILED = "failed"


@dataclass
class ThreadState:
    """Bookkeeping for one simulated thread."""

    tid: int
    gen: Any
    name: str
    status: ThreadStatus = ThreadStatus.READY
    pending_op: Optional[Op] = None
    #: original COND_WAIT op while the thread is re-acquiring the mutex;
    #: its presence marks pending_op as a synthetic re-acquire LOCK.
    resuming_wait: Optional[Op] = None
    retval: Any = None
    #: how the generator was built, plus every value ever sent into it
    #: (including the priming ``None``).  Generators cannot be pickled or
    #: deep-copied, but thread bodies are pure functions of the values
    #: they receive (the :mod:`repro.sim.program` contract), so replaying
    #: ``feeds`` into a fresh generator reconstructs this thread exactly.
    #: That is what makes mid-run machine snapshots possible.
    body: Any = None
    args: tuple = ()
    kwargs: Optional[dict] = None
    feeds: List[Any] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.status in (ThreadStatus.DONE, ThreadStatus.FAILED)


@dataclass
class MachineConfig:
    """Run-wide knobs."""

    ncpus: int = 4
    max_steps: int = 200_000
    kernel_seed: int = 0


class Observer:
    """Passive hook notified of machine lifecycle; subclass what you need."""

    def on_start(self, machine: "Machine") -> None:
        """Called once before the first step."""

    def on_event(self, machine: "Machine", event: Event) -> None:
        """Called after every executed operation."""

    def on_finish(self, machine: "Machine", trace: Trace) -> None:
        """Called once after the run ends."""


class Machine:
    """One simulated execution of a program under a scheduler."""

    def __init__(
        self,
        program: Program,
        scheduler: Scheduler,
        config: Optional[MachineConfig] = None,
        observers: Sequence[Observer] = (),
        event_journal: Optional[Any] = None,
    ) -> None:
        self.program = program
        self.scheduler = scheduler
        self.config = config or MachineConfig()
        self.observers = list(observers)
        #: crash-consistent event sink (anything with ``append``/``commit``,
        #: e.g. :func:`repro.sim.persist.trace_journal_writer`).  Events are
        #: journaled the moment they execute — *before* observers run — so a
        #: process dying at event k leaves a salvageable prefix of length k.
        self.event_journal = event_journal

        self.memory = SharedMemory(program.initial_memory)
        self.sync = SyncTable(program.semaphores, program.barriers)
        self.kernel = Kernel(seed=self.config.kernel_seed)
        self.kernel.seed_files(program.initial_files)
        self.clock = VirtualClock(self.config.ncpus)

        self.threads: Dict[int, ThreadState] = {}
        self.events: List[Event] = []
        self.schedule: List[int] = []
        self.failure: Optional[Failure] = None
        self.divergence: Optional[str] = None
        self._next_tid = 0
        self._ran = False
        self._resumed = False
        self._reset_runnable()

    # -- public API -------------------------------------------------------

    def run(
        self,
        *,
        snapshot_depths: Iterable[int] = (),
        on_snapshot: Optional[Callable[["Machine"], None]] = None,
        snapshot_when: Optional[Callable[["Machine"], bool]] = None,
        stop_after: Optional[int] = None,
    ) -> Trace:
        """Execute the program to completion; returns the trace.

        ``snapshot_depths``/``on_snapshot`` invoke the callback at the top
        of the step loop whenever ``len(schedule)`` is a requested depth —
        the state at that moment is exactly "``depth`` steps executed,
        nothing failed yet", which is what :meth:`capture_state` wants.
        ``snapshot_when`` is the dynamic variant: a predicate consulted at
        the same point, for producers (the epoch-windowed recorder) whose
        boundaries depend on run state rather than a precomputed depth
        set.  ``stop_after`` ends the run once that many steps have
        executed (used when a snapshot producer has no use for the
        suffix).
        """
        if self._ran:
            raise SimUsageError("a Machine is single-use; build a fresh one")
        self._ran = True

        if not self._resumed:
            self._spawn_thread(
                self.program.main, (), kwargs=self.program.params
            )
            self.scheduler.on_run_start(self)
        for observer in self.observers:
            observer.on_start(self)

        depths = frozenset(snapshot_depths)
        schedule = self.schedule
        pick = self.scheduler.pick
        max_steps = self.config.max_steps

        while self.failure is None:
            if on_snapshot is not None and (
                len(schedule) in depths
                or (snapshot_when is not None and snapshot_when(self))
            ):
                on_snapshot(self)
            if stop_after is not None and len(schedule) >= stop_after:
                break
            runnable = self.runnable_tids()
            if not runnable:
                if all(ts.finished for ts in self.threads.values()):
                    break
                self.failure = self._diagnose_stuck()
                break
            if len(schedule) >= max_steps:
                self.failure = Failure(
                    kind=FailureKind.TIMEOUT,
                    where="step budget exhausted",
                    gidx=len(self.events),
                )
                break
            try:
                tid = pick(self, runnable)
            except ReplayDivergence as diverged:
                # A replay scheduler proved the attempt cannot follow its
                # recorded order; end the run with the prefix trace.
                self.divergence = diverged.reason
                break
            validate_pick(tid, runnable)
            schedule.append(tid)
            self._step(tid)

        trace = self._build_trace()
        if self.event_journal is not None:
            # Reaching here means the run *completed* (with or without a
            # failure); a killed recorder never writes this footer, which
            # is how salvage tells a finished journal from a torn one.
            self.event_journal.commit(trace_meta(trace))
        for observer in self.observers:
            observer.on_finish(self, trace)
        return trace

    def runnable_tids(self) -> List[int]:
        """Threads whose pending operation can complete now (ascending).

        Always equal to filtering every READY thread through
        :meth:`_can_execute`, but maintained incrementally: a step
        re-evaluates only the threads whose status or pending op it
        changed, plus the waiters of the guards (mutex, rwlock,
        semaphore, join target, kernel) whose state it changed.  The
        returned list is replaced, never mutated, when the set changes;
        treat it as read-only.
        """
        if self._touched or self._touched_guards:
            self._refresh_runnable()
        return self._runnable

    # -- mid-run snapshots -------------------------------------------------

    def capture_state(self, *, serialize: bool = False) -> Dict[str, Any]:
        """A deep, reusable snapshot of a healthy mid-run machine.

        Valid only between steps with no failure recorded — callers
        capture through :meth:`run`'s ``on_snapshot`` hook, which fires
        exactly there.  The snapshot is independent of this machine (its
        mutable pieces are deep-copied) and can seed any number of fresh
        machines via :meth:`restore_state`.  Generators are represented
        by their (body, args, kwargs, feeds) recipe, not the generator
        object — see :class:`ThreadState`.

        With ``serialize=True`` the mutable pieces are stored as one
        pickle blob instead of a deep copy — considerably cheaper to
        capture (pickling runs in C), and every restore unpickles its
        own fresh copy.  Raises when the state does not pickle (e.g. a
        thread body that is a closure); callers fall back to the deep
        variant.
        """
        if self.failure is not None or self.divergence is not None:
            raise SimUsageError("cannot snapshot a failed or diverged run")
        thread_meta = []
        for tid in sorted(self.threads):
            ts = self.threads[tid]
            thread_meta.append(
                {
                    "tid": ts.tid,
                    "name": ts.name,
                    "status": ts.status,
                    "retval": ts.retval,
                    "resuming": ts.resuming_wait is not None,
                    "body": ts.body,
                    "args": ts.args,
                    "kwargs": ts.kwargs,
                    "feeds": list(ts.feeds),
                }
            )
        live = {
            "memory": self.memory,
            "sync": self.sync,
            "kernel": self.kernel,
            "clock": self.clock,
            "threads": thread_meta,
        }
        if serialize:
            mutable: Dict[str, Any] = {
                "blob": pickle.dumps(live, protocol=pickle.HIGHEST_PROTOCOL)
            }
        else:
            mutable = copy.deepcopy(live)
        # Events are immutable once emitted; sharing them across restores
        # keeps snapshots cheap.
        mutable["events"] = tuple(self.events)
        mutable["schedule"] = tuple(self.schedule)
        mutable["next_tid"] = self._next_tid
        return mutable

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Load a :meth:`capture_state` snapshot into this *fresh* machine.

        The next :meth:`run` then continues from the snapshot point:
        the main-thread spawn and ``scheduler.on_run_start`` are skipped
        (the caller is responsible for fast-forwarding its scheduler with
        matching state).  The snapshot itself is not consumed — mutable
        pieces are deep-copied again here, so one snapshot can seed many
        sibling attempts.
        """
        if self._ran:
            raise SimUsageError("restore_state requires an unused Machine")
        events = state["events"]
        schedule = state["schedule"]
        blob = state.get("blob")
        if blob is not None:
            # serialized snapshot: unpickling *is* the private fresh copy
            mutable = pickle.loads(blob)
        else:
            mutable = copy.deepcopy(
                {key: state[key] for key in ("memory", "sync", "kernel", "clock", "threads")}
            )
        self.memory = mutable["memory"]
        self.sync = mutable["sync"]
        self.kernel = mutable["kernel"]
        self.clock = mutable["clock"]
        self.events = list(events)
        self.schedule = list(schedule)
        self._next_tid = state["next_tid"]
        self.threads = {}
        for meta in mutable["threads"]:
            ts = self._rebuild_thread(meta)
            self.threads[ts.tid] = ts
        # The runnable set is not part of a snapshot: rebuild it from
        # scratch on the first runnable_tids() call.
        self._reset_runnable()
        self._touched.extend(self.threads)
        self._resumed = True

    def _rebuild_thread(self, meta: Dict[str, Any]) -> ThreadState:
        """Reconstruct one thread by replaying its recorded feeds into a
        fresh generator (bodies are pure functions of their feeds)."""
        ctx = ThreadContext(meta["tid"])
        gen = meta["body"](ctx, *meta["args"], **(meta["kwargs"] or {}))
        ts = ThreadState(
            tid=meta["tid"],
            gen=gen,
            name=meta["name"],
            body=meta["body"],
            args=meta["args"],
            kwargs=meta["kwargs"],
        )
        op: Optional[Op] = None
        done = False
        try:
            for value in meta["feeds"]:  # feeds[0] is the priming None
                op = gen.send(value)
        except StopIteration as stop:
            done = True
            ts.status = ThreadStatus.DONE
            ts.pending_op = None
            ts.retval = stop.value
        if not done:
            ts.status = meta["status"]
            ts.retval = meta["retval"]
            ts.pending_op = op
            if meta["resuming"]:
                # Mid condition-wait re-acquire: pending op is the
                # synthetic LOCK, the original COND_WAIT is parked.
                ts.resuming_wait = op
                _, lock_name = op.obj
                ts.pending_op = Op(OpKind.LOCK, obj=lock_name)
        ts.feeds = list(meta["feeds"])
        return ts

    # -- thread management ---------------------------------------------------

    def _spawn_thread(self, body: Any, args: tuple, kwargs: Optional[dict] = None) -> int:
        tid = self._next_tid
        self._next_tid += 1
        ctx = ThreadContext(tid)
        gen = body(ctx, *args, **(kwargs or {}))
        ts = ThreadState(
            tid=tid,
            gen=gen,
            name=getattr(body, "__name__", "thread"),
            body=body,
            args=args,
            kwargs=kwargs,
        )
        self.threads[tid] = ts
        self._advance(ts, None)
        return tid

    def _advance(self, ts: ThreadState, send_value: Any) -> None:
        """Resume a thread's generator and stash its next pending op."""
        self._touched.append(ts.tid)
        ts.feeds.append(send_value)
        try:
            op = ts.gen.send(send_value)
        except StopIteration as stop:
            ts.status = ThreadStatus.DONE
            ts.pending_op = None
            ts.retval = stop.value
            return
        except SimProgramError as exc:
            self._fail_thread(ts, exc)
            return
        except Exception as exc:  # application-level Python crash
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self._fail_thread(ts, exc, detail=detail)
            return
        if not isinstance(op, Op):
            raise SimUsageError(
                f"thread {ts.name!r} yielded {op!r}; thread bodies must yield Op "
                "objects built via their ThreadContext"
            )
        ts.pending_op = op
        ts.status = ThreadStatus.READY

    def _fail_thread(self, ts: ThreadState, exc: Exception, detail: str = "") -> None:
        ts.status = ThreadStatus.FAILED
        ts.pending_op = None
        # Memory crashes are identified by their static crash site (the
        # region), not the dynamic address instance — hitting the same
        # use-after-free on a different element is the same bug.
        if isinstance(exc, SimMemoryError):
            where = exc.crash_site()
            detail = detail or str(exc)
        else:
            where = str(exc)
        self.failure = Failure(
            kind=FailureKind.CRASH,
            where=where,
            tid=ts.tid,
            gidx=len(self.events),
            detail=detail,
        )

    # -- runnability ------------------------------------------------------------

    def _reset_runnable(self) -> None:
        """Empty the incremental runnable-set bookkeeping."""
        self._runnable: List[int] = []
        self._runnable_set: Set[int] = set()
        #: threads whose status or pending op changed since the last
        #: refresh, and guard keys whose state an executed op changed.
        self._touched: List[int] = []
        self._touched_guards: List[Tuple[str, Any]] = []
        #: the guard each READY thread's guarded pending op waits on,
        #: and the threads waiting on each guard.
        self._guard_of: Dict[int, Tuple[str, Any]] = {}
        self._guard_waiters: Dict[Tuple[str, Any], Set[int]] = {}

    def _refresh_runnable(self) -> None:
        """Re-evaluate what changed since the last step (see runnable_tids).

        Touched threads are evaluated in ascending tid order, which is
        the order a full scan would first evaluate their pending ops in,
        so sync objects are created in the same order either way; the
        waiters of touched guards follow.
        """
        threads = self.threads
        runnable = self._runnable_set
        guard_of = self._guard_of
        guard_waiters = self._guard_waiters
        touched = self._touched
        if len(touched) > 1:
            touched.sort()
        for key in self._touched_guards:
            touched.extend(guard_waiters.get(key, ()))
        changed = False
        for tid in touched:  # grows when a finished thread adds its joiners
            ts = threads[tid]
            old = guard_of.pop(tid, None)
            if old is not None:
                guard_waiters[old].discard(tid)
            op = ts.pending_op
            if op is None or ts.status is not ThreadStatus.READY:
                ready = False
                if ts.finished:
                    touched.extend(guard_waiters.get(("thread", tid), ()))
            elif op.kind.is_guarded:
                key = _guard_key(op)
                guard_of[tid] = key
                waiters = guard_waiters.get(key)
                if waiters is None:
                    guard_waiters[key] = waiters = set()
                waiters.add(tid)
                ready = self._can_execute(ts)
            else:
                ready = True
            if ready != (tid in runnable):
                changed = True
                if ready:
                    runnable.add(tid)
                else:
                    runnable.discard(tid)
        touched.clear()
        self._touched_guards.clear()
        if changed:
            self._runnable = sorted(runnable)

    def _can_execute(self, ts: ThreadState) -> bool:
        op = ts.pending_op
        if op is None:
            return False
        kind = op.kind
        if kind is OpKind.LOCK:
            return self.sync.mutex(op.obj).is_free
        if kind is OpKind.RDLOCK:
            return self.sync.rwlock(op.obj).can_read
        if kind is OpKind.WRLOCK:
            return self.sync.rwlock(op.obj).can_write
        if kind is OpKind.SEM_ACQUIRE:
            return self.sync.semaphore(op.obj).available
        if kind is OpKind.JOIN:
            target = self.threads.get(op.obj)
            return target is not None and target.finished
        if kind is OpKind.SYSCALL:
            return self.kernel.can_execute(op.name, op.args)
        return True

    # -- stepping ----------------------------------------------------------------

    def _step(self, tid: int) -> None:
        ts = self.threads[tid]
        op = ts.pending_op
        if op is None:
            raise SimUsageError(f"stepping thread {tid} with no pending op")
        cpu = self.clock.cpu_of(tid)
        self.clock.charge_op(cpu, op.cost)

        try:
            result, advance = self._perform(ts, op)
        except SimProgramError as exc:
            self._touched.append(tid)
            self._fail_thread(ts, exc)
            return

        event = Event.from_op(len(self.events), tid, cpu, op, result)
        self.events.append(event)
        if self.event_journal is not None:
            self.event_journal.append(event_row(event))
        for observer in self.observers:
            observer.on_event(self, event)
        if self.failure is not None and self.failure.gidx is None:
            # an ASSERT failure points at its own event
            self.failure = Failure(
                kind=self.failure.kind,
                where=self.failure.where,
                tid=self.failure.tid,
                gidx=event.gidx,
                detail=self.failure.detail,
            )
        if advance and self.failure is None:
            self._advance(ts, result)
        else:
            self._touched.append(tid)

    def _perform(self, ts: ThreadState, op: Op):
        """Apply the op's effect.

        Returns ``(result, advance_generator)``.  An effect that changes
        the state a guard reads (see :data:`~repro.sim.ops.GUARDED_KINDS`)
        reports the guard's key in ``_touched_guards``.
        """
        kind = op.kind
        tid = ts.tid

        # Memory -----------------------------------------------------------
        if kind is OpKind.READ:
            return self.memory.load(op.addr), True
        if kind is OpKind.WRITE:
            self.memory.store(op.addr, op.value)
            return op.value, True
        if kind is OpKind.RMW:
            return self.memory.rmw(op.addr, op.value), True
        if kind is OpKind.CAS:
            expected, new = op.value
            return self.memory.cas(op.addr, expected, new), True
        if kind is OpKind.FREE:
            victims = self.memory.free(op.addr)
            return len(victims), True

        # Mutexes -------------------------------------------------------------
        if kind is OpKind.LOCK:
            self.sync.mutex(op.obj).acquire(tid)
            self._touched_guards.append(("mutex", op.obj))
            if ts.resuming_wait is not None:
                # Second phase of a condition wait: the mutex is back, the
                # original COND_WAIT finally returns.
                ts.resuming_wait = None
            return None, True
        if kind is OpKind.TRYLOCK:
            mutex = self.sync.mutex(op.obj)
            if mutex.is_free:
                mutex.acquire(tid)
                self._touched_guards.append(("mutex", op.obj))
                return True, True
            return False, True
        if kind is OpKind.UNLOCK:
            self.sync.mutex(op.obj).release(tid)
            self._touched_guards.append(("mutex", op.obj))
            return None, True

        # Reader-writer locks ---------------------------------------------------
        if kind is OpKind.RDLOCK:
            self.sync.rwlock(op.obj).acquire_read(tid)
            self._touched_guards.append(("rwlock", op.obj))
            return None, True
        if kind is OpKind.WRLOCK:
            self.sync.rwlock(op.obj).acquire_write(tid)
            self._touched_guards.append(("rwlock", op.obj))
            return None, True
        if kind is OpKind.RWUNLOCK:
            self.sync.rwlock(op.obj).release(tid)
            self._touched_guards.append(("rwlock", op.obj))
            return None, True

        # Condition variables ---------------------------------------------------
        if kind is OpKind.COND_WAIT:
            cond_name, lock_name = op.obj
            self.sync.mutex(lock_name).release(tid)  # raises if not owner
            self._touched_guards.append(("mutex", lock_name))
            self.sync.cond(cond_name).add_waiter(tid)
            ts.status = ThreadStatus.WAITING_COND
            # The generator is resumed only after the wakeup + re-acquire.
            return None, False
        if kind is OpKind.COND_SIGNAL:
            woken = self.sync.cond(op.obj).wake_one()
            if woken is not None:
                self._wake_from_cond(woken)
            # The woken tid is the event value so offline happens-before
            # analysis can draw the signal -> wakeup edge.
            return woken, True
        if kind is OpKind.COND_BROADCAST:
            woken = self.sync.cond(op.obj).wake_all()
            for wtid in woken:
                self._wake_from_cond(wtid)
            return tuple(woken), True

        # Semaphores --------------------------------------------------------------
        if kind is OpKind.SEM_ACQUIRE:
            self.sync.semaphore(op.obj).acquire(tid)
            self._touched_guards.append(("semaphore", op.obj))
            return None, True
        if kind is OpKind.SEM_RELEASE:
            self.sync.semaphore(op.obj).release()
            self._touched_guards.append(("semaphore", op.obj))
            return None, True

        # Barriers ------------------------------------------------------------------
        if kind is OpKind.BARRIER_WAIT:
            barrier = self.sync.barrier(op.obj)
            tripped = barrier.arrive(tid)
            if tripped:
                waiters = barrier.release()
                generation = barrier.generation
                for wtid in waiters:
                    if wtid == tid:
                        continue
                    wts = self.threads[wtid]
                    wts.status = ThreadStatus.READY
                    self._advance(wts, generation)
                return generation, True
            ts.status = ThreadStatus.WAITING_BARRIER
            return None, False

        # Thread lifecycle ----------------------------------------------------------
        if kind is OpKind.SPAWN:
            child = self._spawn_thread(op.func, op.args)
            return child, True
        if kind is OpKind.JOIN:
            target = self.threads[op.obj]
            return target.retval, True

        # Environment ------------------------------------------------------------------
        if kind is OpKind.SYSCALL:
            if op.name == "sleep":
                self.clock.advance(self.clock.cpu_of(tid), op.args[0])
            # Any syscall may change what a blocked syscall waits for.
            self._touched_guards.append(_KERNEL_GUARD)
            result = self.kernel.execute(op.name, op.args, now=len(self.events))
            return result, True

        # Markers, local work, checks ---------------------------------------------------
        if kind in (OpKind.FUNC_ENTER, OpKind.FUNC_EXIT, OpKind.BASIC_BLOCK):
            return None, True
        if kind in (OpKind.LOCAL, OpKind.YIELD):
            return None, True
        if kind is OpKind.ASSERT:
            if not op.value:
                self.failure = Failure(
                    kind=FailureKind.ASSERTION,
                    where=op.msg or "assertion failed",
                    tid=tid,
                    gidx=None,  # filled in by _step once the event exists
                )
                ts.status = ThreadStatus.FAILED
                ts.pending_op = None
                return False, False
            return True, True

        raise SimUsageError(f"machine cannot perform op kind {kind}")

    def _wake_from_cond(self, tid: int) -> None:
        """Move a condition waiter to the mutex re-acquire phase."""
        ts = self.threads[tid]
        wait_op = ts.pending_op
        _, lock_name = wait_op.obj
        ts.resuming_wait = wait_op
        ts.pending_op = Op(OpKind.LOCK, obj=lock_name)
        ts.status = ThreadStatus.READY
        self._touched.append(tid)

    # -- stuck diagnosis -------------------------------------------------------

    def _diagnose_stuck(self) -> Failure:
        """No runnable thread, not all finished: deadlock or hang?"""
        waiting_for: Dict[int, Any] = {}
        for ts in self.threads.values():
            if ts.finished:
                continue
            op = ts.pending_op
            if ts.status is ThreadStatus.READY and op is not None:
                if op.kind is OpKind.LOCK:
                    waiting_for[ts.tid] = ("mutex", op.obj)
                elif op.kind in (OpKind.RDLOCK, OpKind.WRLOCK):
                    waiting_for[ts.tid] = ("rwlock", op.obj)
                elif op.kind is OpKind.JOIN:
                    waiting_for[ts.tid] = ("thread", op.obj)
                elif op.kind is OpKind.SEM_ACQUIRE:
                    waiting_for[ts.tid] = ("semaphore", op.obj)
                elif op.kind is OpKind.SYSCALL:
                    waiting_for[ts.tid] = ("syscall", op.name)

        # Wait-for edges: waiter -> holder (only attributable resources).
        edges: Dict[int, int] = {}
        for tid, (what, obj) in waiting_for.items():
            if what == "mutex":
                owner = self.sync.mutex(obj).owner
                if owner is not None:
                    edges[tid] = owner
            elif what == "rwlock":
                holders = self.sync.rwlock(obj).holders()
                if holders:
                    # functional graph: wait on the first holder; enough
                    # to expose writer/reader cycles
                    edges[tid] = holders[0]
            elif what == "thread":
                edges[tid] = obj

        cycle = _find_cycle(edges)
        if cycle:
            resources = sorted(
                str(waiting_for[tid][1]) for tid in cycle if tid in waiting_for
            )
            return Failure(
                kind=FailureKind.DEADLOCK,
                where="cycle:" + ",".join(resources),
                gidx=len(self.events),
                involved_tids=tuple(sorted(cycle)),
                detail=f"threads {sorted(cycle)} wait in a cycle",
            )
        stuck = sorted(
            ts.tid for ts in self.threads.values() if not ts.finished
        )
        return Failure(
            kind=FailureKind.HANG,
            where="no runnable thread",
            gidx=len(self.events),
            involved_tids=tuple(stuck),
            detail=f"threads {stuck} are blocked with no waker",
        )

    # -- trace assembly ------------------------------------------------------------

    def _build_trace(self) -> Trace:
        return Trace(
            program_name=self.program.name,
            events=self.events,
            schedule=self.schedule,
            final_memory=self.memory.snapshot(),
            stdout=list(self.kernel.stdout),
            files={
                name: self.kernel.file_contents(name)
                for name in self.kernel.file_names()
            },
            thread_returns={
                ts.tid: ts.retval
                for ts in self.threads.values()
                if ts.status is ThreadStatus.DONE
            },
            thread_names={ts.tid: ts.name for ts in self.threads.values()},
            failure=self.failure,
            clock=self.clock.summary(),
            steps=len(self.schedule),
            ncpus=self.config.ncpus,
            divergence=self.divergence,
        )


#: Guard key of every syscall: kernel state changes only when a syscall
#: executes, so any syscall re-evaluates every blocked one.
_KERNEL_GUARD: Tuple[str, Any] = ("kernel", None)


def _guard_key(op: Op) -> Tuple[str, Any]:
    """The state a guarded pending op waits on (see ``_can_execute``)."""
    kind = op.kind
    if kind is OpKind.LOCK:
        return ("mutex", op.obj)
    if kind is OpKind.RDLOCK or kind is OpKind.WRLOCK:
        return ("rwlock", op.obj)
    if kind is OpKind.SEM_ACQUIRE:
        return ("semaphore", op.obj)
    if kind is OpKind.JOIN:
        return ("thread", op.obj)
    if kind is OpKind.SYSCALL:
        return _KERNEL_GUARD
    raise SimUsageError(f"op kind {kind} has no guard")


def _find_cycle(edges: Dict[int, int]) -> List[int]:
    """Nodes on some cycle of the functional graph ``edges`` (may be empty)."""
    for start in edges:
        seen: List[int] = []
        node = start
        while node in edges and node not in seen:
            seen.append(node)
            node = edges[node]
        if node in seen:
            return seen[seen.index(node):]
    return []
