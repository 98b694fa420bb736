"""Programs and the thread-side API for writing them.

A :class:`Program` bundles a main thread body with its inputs and the
initial shared state.  Thread bodies are generator functions taking a
:class:`ThreadContext` as their first argument; they interact with the
world exclusively by yielding :class:`~repro.sim.ops.Op` objects built via
the context::

    def main(ctx, nworkers):
        tids = []
        for i in range(nworkers):
            tid = yield ctx.spawn(worker, i)
            tids.append(tid)
        for tid in tids:
            yield ctx.join(tid)

Determinism contract: between two yields, a thread body must be a pure
function of the values it has received so far plus the program params.  In
particular, bodies must not consult ``random``, wall-clock time or any
other ambient state — use ``ctx.rand`` / ``ctx.now`` (simulated syscalls)
instead.  This is what makes "same scheduler decisions => same execution"
hold, which all of record/replay rests on.  A body may only yield the op a
context method returns; it must not inspect or keep it (a snapshot restore
replays a thread's feeds on a :class:`FastForwardContext`, whose methods
return a placeholder).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple

from repro.sim.ops import Address, Op, OpKind

ThreadBody = Callable[..., Generator[Op, Any, Any]]

#: The kinds the op builders name, bound at import: on Python 3.11
#: reading a member off an Enum class goes through
#: ``EnumType.__getattr__`` (about 0.1 µs), and a body builds an op for
#: every yield.
_READ, _WRITE, _RMW, _CAS, _FREE = (
    OpKind.READ, OpKind.WRITE, OpKind.RMW, OpKind.CAS, OpKind.FREE,
)
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
_SYSCALL, _BASIC_BLOCK, _FUNC_ENTER, _FUNC_EXIT = (
    OpKind.SYSCALL, OpKind.BASIC_BLOCK, OpKind.FUNC_ENTER, OpKind.FUNC_EXIT,
)
_LOCAL, _YIELD, _ASSERT = OpKind.LOCAL, OpKind.YIELD, OpKind.ASSERT


class ThreadContext:
    """Per-thread handle used by thread bodies to construct operations.

    The context is cheap and stateless apart from its thread id; every
    method simply returns an :class:`Op` for the body to yield.  The
    exceptions are :meth:`call`, :meth:`work` and :meth:`free_region`,
    generator helpers meant to be used with ``yield from``; they build
    each op through a method looked up on ``self`` (see
    :class:`FastForwardContext`).
    """

    __slots__ = ("tid",)

    def __init__(self, tid: int) -> None:
        self.tid = tid

    # -- shared memory -------------------------------------------------

    def read(self, addr: Address, cost: int = 1) -> Op:
        """Load the value at ``addr``; the yield returns the value."""
        return Op(_READ, addr=addr, cost=cost)

    def write(self, addr: Address, value: Any, cost: int = 1) -> Op:
        """Store ``value`` at ``addr`` (creating the address if needed)."""
        return Op(_WRITE, addr=addr, value=value, cost=cost)

    def rmw(self, addr: Address, fn: Callable[[Any], Any], cost: int = 2) -> Op:
        """Atomically replace ``mem[addr]`` with ``fn(mem[addr])``.

        The yield returns the *old* value.  This models hardware atomics
        (``fetch_add`` etc.) and is the building block for race-free
        counters; the racy alternative is a separate read + write pair.
        """
        return Op(_RMW, addr=addr, value=fn, cost=cost)

    def cas(self, addr: Address, expected: Any, new: Any, cost: int = 2) -> Op:
        """Atomic compare-and-swap; the yield returns True on success."""
        return Op(_CAS, addr=addr, value=(expected, new), cost=cost)

    def free(self, addr: Address, cost: int = 1) -> Op:
        """Deallocate ``addr``.

        If ``addr`` is a string, every tuple address whose first element
        equals it is deallocated too (freeing a whole region/buffer).
        Subsequent access to a freed address crashes the accessing thread —
        which is exactly how use-after-free order violations manifest.
        """
        return Op(_FREE, addr=addr, cost=cost)

    # -- synchronization -----------------------------------------------

    def lock(self, name: str) -> Op:
        """Acquire the mutex ``name``, blocking until it is free."""
        return Op(_LOCK, obj=name)

    def trylock(self, name: str) -> Op:
        """Try to acquire mutex ``name``; yields True iff acquired."""
        return Op(_TRYLOCK, obj=name)

    def unlock(self, name: str) -> Op:
        """Release the mutex ``name`` (must be held by this thread)."""
        return Op(_UNLOCK, obj=name)

    def rdlock(self, name: str) -> Op:
        """Acquire reader-writer lock ``name`` in shared (read) mode."""
        return Op(_RDLOCK, obj=name)

    def wrlock(self, name: str) -> Op:
        """Acquire reader-writer lock ``name`` in exclusive (write) mode."""
        return Op(_WRLOCK, obj=name)

    def rwunlock(self, name: str) -> Op:
        """Release reader-writer lock ``name`` (either mode)."""
        return Op(_RWUNLOCK, obj=name)

    def wait(self, cond: str, lock: str) -> Op:
        """Wait on condition variable ``cond``; ``lock`` must be held.

        Semantics follow pthreads: the lock is released atomically with
        enqueueing on the condition, and re-acquired before the wait
        returns (the re-acquire appears as a separate LOCK event).
        Spurious wakeups do not occur, but as in pthreads, the predicate
        should still be re-checked in a loop because another thread may run
        between the signal and the re-acquire.
        """
        return Op(_COND_WAIT, obj=(cond, lock))

    def signal(self, cond: str) -> Op:
        """Wake one waiter of ``cond`` (no-op if none are waiting)."""
        return Op(_COND_SIGNAL, obj=cond)

    def broadcast(self, cond: str) -> Op:
        """Wake every waiter of ``cond``."""
        return Op(_COND_BROADCAST, obj=cond)

    def sem_acquire(self, name: str) -> Op:
        """Decrement semaphore ``name``, blocking while it is zero."""
        return Op(_SEM_ACQUIRE, obj=name)

    def sem_release(self, name: str) -> Op:
        """Increment semaphore ``name``."""
        return Op(_SEM_RELEASE, obj=name)

    def barrier(self, name: str) -> Op:
        """Wait at barrier ``name`` until all parties have arrived."""
        return Op(_BARRIER_WAIT, obj=name)

    # -- thread lifecycle ----------------------------------------------

    def spawn(self, body: ThreadBody, *args: Any) -> Op:
        """Start a new thread running ``body(ctx, *args)``; yields its tid."""
        return Op(_SPAWN, func=body, args=args, name=body.__name__)

    def join(self, tid: int) -> Op:
        """Block until thread ``tid`` finishes; yields its return value."""
        return Op(_JOIN, obj=tid)

    # -- environment ----------------------------------------------------

    def syscall(self, name: str, *args: Any) -> Op:
        """Invoke the simulated kernel (see :mod:`repro.sim.syscalls`)."""
        return Op(_SYSCALL, name=name, args=args)

    def output(self, value: Any) -> Op:
        """Append ``value`` to the program's captured stdout."""
        return Op(_SYSCALL, name="write_stdout", args=(value,))

    def rand(self, n: int) -> Op:
        """Yield a kernel-PRNG integer in ``[0, n)`` (deterministic under
        replay because draws are ordered by the schedule)."""
        return Op(_SYSCALL, name="rand", args=(n,))

    def now(self) -> Op:
        """Yield the current simulated time."""
        return Op(_SYSCALL, name="now", args=())

    def sleep(self, duration: int) -> Op:
        """Consume ``duration`` units of simulated time."""
        return Op(_SYSCALL, name="sleep", args=(duration,))

    def epoch_barrier(self) -> Op:
        """Request an epoch boundary from an epoch-windowed recorder.

        A kernel no-op: applications place it at natural quiescent points
        (a served request, a committed transaction) so the recorder can
        cut its rolling window there.  Without ``--epoch-steps`` the
        marker is just an ordinary (SYS-visible) syscall.
        """
        return Op(_SYSCALL, name="epoch_barrier", args=())

    # -- instrumentation markers -----------------------------------------

    def bb(self, label: str) -> Op:
        """Mark entry to basic block ``label``.

        Real PRES instruments these automatically with a binary rewriter;
        here application code places markers at loop heads and branch
        targets, which is where instrumentation would put them.
        """
        return Op(_BASIC_BLOCK, label=label, cost=0)

    def call(
        self, body: ThreadBody, *args: Any, name: Optional[str] = None
    ) -> Generator[Op, Any, Any]:
        """Call a sub-generator, bracketing it with FUNC_ENTER/FUNC_EXIT.

        Use as ``result = yield from ctx.call(helper, arg)`` where
        ``helper`` is ``def helper(ctx, arg): yield ...; return value``.
        """
        fname = name if name is not None else body.__name__
        yield self._marker(_FUNC_ENTER, fname)
        result = yield from body(self, *args)
        yield self._marker(_FUNC_EXIT, fname)
        return result

    def _marker(self, kind: OpKind, name: str) -> Op:
        """The FUNC_ENTER or FUNC_EXIT marker :meth:`call` yields."""
        return Op(kind, name=name, cost=0)

    # -- local work and checks -------------------------------------------

    def local(self, cost: int = 1) -> Op:
        """Perform ``cost`` units of thread-local computation as ONE step.

        Note: this is a single scheduling quantum however large ``cost``
        is; it only affects virtual time.  To model think-time that other
        threads can interleave with, use :meth:`work`.
        """
        return Op(_LOCAL, cost=cost)

    def work(self, units: int, cost: int = 1) -> Generator[Op, Any, None]:
        """Perform ``units`` interleavable quanta of local computation.

        Each quantum is a separate operation, so the scheduler can run
        other threads between them — this is what spaces out race windows
        in schedule-space, not :meth:`local`'s cost parameter.
        Use with ``yield from``.
        """
        for _ in range(units):
            yield self.local(cost)

    def cpu_yield(self) -> Op:
        """A pure scheduling point with no effect."""
        return Op(_YIELD, cost=0)

    def check(self, cond: bool, msg: str) -> Op:
        """Assert a program invariant; a false ``cond`` is a failure."""
        return Op(_ASSERT, value=bool(cond), msg=msg, cost=0)

    def free_region(
        self, prefix: str, indices: Iterable[Any]
    ) -> Generator[Op, Any, None]:
        """Free ``(prefix, i)`` for each index, then ``prefix`` itself."""
        for i in indices:
            yield self.free((prefix, i))
        yield self.free(prefix)


#: The op every :class:`FastForwardContext` method returns.
_PLACEHOLDER = Op(_YIELD, cost=0)


class FastForwardContext(ThreadContext):
    """A context that builds no op: every op method returns one shared
    placeholder.

    A snapshot restore replays a thread's recorded feeds into a fresh
    body on this context, where every op before the last feed is
    discarded unseen, then switches the context to
    :class:`ThreadContext` with ``ctx.__class__ = ThreadContext`` (the
    two share one slot layout) before the last feed, so the op the
    thread waits on is real.  The generator helpers are inherited: they
    build their ops through the methods on ``self``, so they follow the
    switch.
    """

    __slots__ = ()


def _placeholder(self: ThreadContext, *args: Any, **kwargs: Any) -> Op:
    return _PLACEHOLDER


for _name, _method in vars(ThreadContext).items():
    if (
        inspect.isfunction(_method)
        and not _name.startswith("__")
        and not inspect.isgeneratorfunction(_method)
    ):
        setattr(FastForwardContext, _name, _placeholder)
del _name, _method


@dataclass
class Program:
    """A complete simulated program: entry point, inputs, initial state.

    :param name: identifier used in traces, logs and reports.
    :param main: thread body for thread 0, invoked as ``main(ctx, **params)``.
    :param params: program inputs.  These are recorded in
        :class:`~repro.core.recorder.RecordedRun` so replay sees identical
        inputs (PRES assumes input non-determinism is logged by prior work).
    :param initial_memory: shared-memory contents before the run.
    :param semaphores: initial count per semaphore name.
    :param barriers: party count per barrier name.  Mutexes and condition
        variables need no declaration; they are created on first use.
    :param initial_files: pre-existing kernel files (record lists), e.g.
        the documents a web server serves.
    """

    name: str
    main: ThreadBody
    params: Dict[str, Any] = field(default_factory=dict)
    initial_memory: Dict[Address, Any] = field(default_factory=dict)
    semaphores: Dict[str, int] = field(default_factory=dict)
    barriers: Dict[str, int] = field(default_factory=dict)
    initial_files: Dict[str, list] = field(default_factory=dict)

    def describe(self) -> str:
        """One-line summary for reports."""
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.name}({params})"
