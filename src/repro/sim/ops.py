"""Operation vocabulary of the simulated machine.

Every observable action a simulated thread can take is an :class:`Op`.
Thread bodies are generators that yield ops and receive the op's result
back from the machine::

    def worker(ctx):
        value = yield ctx.read("counter")
        yield ctx.write("counter", value + 1)

The vocabulary mirrors what PRES's instrumentation can see on a real
machine: shared-memory accesses, synchronization operations, system calls,
function boundaries and basic-block markers.  Sketching mechanisms are
defined as subsets of this vocabulary (see :mod:`repro.core.sketches`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Tuple

Address = Any  # a string, or a tuple like ("buf", 3); must be hashable


class OpKind(enum.Enum):
    """Kinds of operations a simulated thread can perform.

    Every member carries per-kind flags, set once below from the kind
    sets: a unique ``bit`` (for :func:`kind_mask` masks such as a
    sketch's visible kinds) and the booleans ``is_memory``, ``is_write``,
    ``is_sync``, ``is_lock`` and ``is_guarded``.  Hot paths test these
    instead of frozenset membership, which would call the Python-level
    ``Enum.__hash__`` once per test.
    """

    bit: int
    is_memory: bool
    is_write: bool
    is_sync: bool
    is_lock: bool
    is_guarded: bool

    # Shared-memory accesses.
    READ = "read"
    WRITE = "write"
    RMW = "rmw"  # atomic read-modify-write
    CAS = "cas"  # atomic compare-and-swap
    FREE = "free"  # deallocate an address (or a region prefix)

    # Synchronization.
    LOCK = "lock"
    TRYLOCK = "trylock"
    UNLOCK = "unlock"
    RDLOCK = "rdlock"
    WRLOCK = "wrlock"
    RWUNLOCK = "rwunlock"
    COND_WAIT = "cond_wait"
    COND_SIGNAL = "cond_signal"
    COND_BROADCAST = "cond_broadcast"
    SEM_ACQUIRE = "sem_acquire"
    SEM_RELEASE = "sem_release"
    BARRIER_WAIT = "barrier_wait"

    # Thread lifecycle (these are synchronization points too).
    SPAWN = "spawn"
    JOIN = "join"

    # Environment.
    SYSCALL = "syscall"

    # Control-flow markers emitted by instrumentation.
    FUNC_ENTER = "func_enter"
    FUNC_EXIT = "func_exit"
    BASIC_BLOCK = "basic_block"

    # Thread-local work and scheduling hints.
    LOCAL = "local"
    YIELD = "yield"

    # Program-level invariant check; a false condition is a failure.
    ASSERT = "assert"


#: Kinds that read and/or write shared memory.  These are the accesses whose
#: relative order across threads is the unrecorded non-determinism PRES's
#: replayer must search (unless the sketch captured them).
MEMORY_KINDS = frozenset(
    {OpKind.READ, OpKind.WRITE, OpKind.RMW, OpKind.CAS, OpKind.FREE}
)

#: Kinds that *write* shared memory (for race detection two accesses
#: conflict if they touch the same address and at least one is a write).
WRITE_KINDS = frozenset({OpKind.WRITE, OpKind.RMW, OpKind.CAS, OpKind.FREE})

#: Synchronization kinds, including thread lifecycle events.
SYNC_KINDS = frozenset(
    {
        OpKind.LOCK,
        OpKind.TRYLOCK,
        OpKind.UNLOCK,
        OpKind.RDLOCK,
        OpKind.WRLOCK,
        OpKind.RWUNLOCK,
        OpKind.COND_WAIT,
        OpKind.COND_SIGNAL,
        OpKind.COND_BROADCAST,
        OpKind.SEM_ACQUIRE,
        OpKind.SEM_RELEASE,
        OpKind.BARRIER_WAIT,
        OpKind.SPAWN,
        OpKind.JOIN,
    }
)

#: Kinds that may block the issuing thread until some condition holds.
BLOCKING_KINDS = frozenset(
    {
        OpKind.LOCK,
        OpKind.RDLOCK,
        OpKind.WRLOCK,
        OpKind.COND_WAIT,
        OpKind.SEM_ACQUIRE,
        OpKind.BARRIER_WAIT,
        OpKind.JOIN,
        OpKind.SYSCALL,  # only some syscalls block; the kernel decides
    }
)

#: Kinds whose pending op completes only once a machine-state guard
#: holds: a free mutex, a readable/writable rwlock, a semaphore count, a
#: finished join target, a ready syscall.  ``Machine._can_execute``
#: checks exactly these; every other pending op of a READY thread can
#: always run.  (COND_WAIT and BARRIER_WAIT block through the thread's
#: status, not a guard.)
GUARDED_KINDS = frozenset(
    {
        OpKind.LOCK,
        OpKind.RDLOCK,
        OpKind.WRLOCK,
        OpKind.SEM_ACQUIRE,
        OpKind.JOIN,
        OpKind.SYSCALL,
    }
)

#: Kinds that try to acquire a lock (a TRYLOCK may fail to).
LOCK_KINDS = frozenset({OpKind.LOCK, OpKind.TRYLOCK, OpKind.RDLOCK, OpKind.WRLOCK})

for _index, _kind in enumerate(OpKind):
    _kind.bit = 1 << _index
    _kind.is_memory = _kind in MEMORY_KINDS
    _kind.is_write = _kind in WRITE_KINDS
    _kind.is_sync = _kind in SYNC_KINDS
    _kind.is_lock = _kind in LOCK_KINDS
    _kind.is_guarded = _kind in GUARDED_KINDS
del _index, _kind


def kind_mask(kinds: Iterable[OpKind]) -> int:
    """The union of the kinds' ``bit`` flags (test with ``kind.bit & mask``)."""
    mask = 0
    for kind in kinds:
        mask |= kind.bit
    return mask


@dataclass(frozen=True, init=False)
class Op:
    """One operation yielded by a simulated thread.

    Only the fields relevant to ``kind`` are populated; the rest keep their
    defaults.  Ops are immutable so they can be shared and used as parts of
    dictionary keys.

    :param kind: what the operation does.
    :param addr: target address for memory kinds.
    :param value: value to store (WRITE), expected/new pair (CAS) or
        asserted condition (ASSERT).
    :param obj: name of the synchronization object (lock/cond/sem/barrier)
        or the joined thread id (JOIN).
    :param name: syscall or function name.
    :param args: positional syscall arguments or spawn arguments.
    :param func: thread body callable for SPAWN.
    :param label: basic-block label for BASIC_BLOCK.
    :param msg: human-readable message for ASSERT.
    :param cost: virtual-time units the op consumes on its CPU.
    """

    kind: OpKind
    addr: Optional[Address] = None
    value: Any = None
    obj: Any = None
    name: Optional[str] = None
    args: Tuple[Any, ...] = ()
    func: Optional[Callable[..., Any]] = field(default=None, compare=False)
    label: Optional[str] = None
    msg: Optional[str] = None
    cost: int = 1

    def __init__(
        self,
        kind: OpKind,
        addr: Optional[Address] = None,
        value: Any = None,
        obj: Any = None,
        name: Optional[str] = None,
        args: Tuple[Any, ...] = (),
        func: Optional[Callable[..., Any]] = None,
        label: Optional[str] = None,
        msg: Optional[str] = None,
        cost: int = 1,
    ) -> None:
        # One op is built per simulated step.  The generated frozen
        # __init__ pays an object.__setattr__ call per field; filling the
        # instance dict directly is the same state at well under half
        # the cost.  Assignment after construction still raises
        # FrozenInstanceError.
        attrs = self.__dict__
        attrs["kind"] = kind
        attrs["addr"] = addr
        attrs["value"] = value
        attrs["obj"] = obj
        attrs["name"] = name
        attrs["args"] = args
        attrs["func"] = func
        attrs["label"] = label
        attrs["msg"] = msg
        attrs["cost"] = cost

    def is_memory_access(self) -> bool:
        """Whether this op reads or writes shared memory."""
        return self.kind.is_memory

    def is_write(self) -> bool:
        """Whether this op may modify shared memory."""
        return self.kind.is_write

    def is_sync(self) -> bool:
        """Whether this op is a synchronization operation."""
        return self.kind.is_sync

    def describe(self) -> str:
        """Short human-readable rendering, used in logs and error messages."""
        kind = self.kind.value
        if self.kind.is_memory:
            return f"{kind}({self.addr!r})"
        if self.kind.is_sync:
            return f"{kind}({self.obj!r})"
        if self.kind is OpKind.SYSCALL:
            return f"syscall {self.name}{self.args!r}"
        if self.kind in (OpKind.FUNC_ENTER, OpKind.FUNC_EXIT):
            return f"{kind}({self.name})"
        if self.kind is OpKind.BASIC_BLOCK:
            return f"bb({self.label})"
        if self.kind is OpKind.ASSERT:
            return f"assert({self.msg})"
        return kind
