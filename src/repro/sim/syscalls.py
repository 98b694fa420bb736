"""The simulated kernel.

Applications reach the environment exclusively through syscalls, mirroring
how PRES piggybacks on existing input-logging work: everything the kernel
returns is a deterministic function of (machine seed, global order of
syscalls), so replaying the schedule replays the environment for free.

Provided facilities:

``write_stdout(value)``
    Append to the captured program output (used by wrong-output oracles).
``write_file(name, record) / read_file(name, index) / file_len(name)``
    An append-only record file system (logs, binlogs, ...).
``send(chan, msg) / recv(chan) / try_recv(chan) / chan_len(chan)``
    FIFO channels modelling sockets/pipes; ``recv`` blocks while empty.
``rand(n)``
    Kernel PRNG integer in ``[0, n)``; seeded per machine.
``now()``
    Simulated wall clock (the machine's maximum CPU virtual time).
``sleep(duration)``
    Consume virtual time without doing work.
``epoch_barrier()``
    No-op marker an epoch-windowed recorder cuts its rolling window on.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimSyscallError
from repro.sim.scheduler import rng_from_state


class Kernel:
    """State and semantics of the simulated operating system."""

    #: syscall names whose execution may have to wait for a condition.
    BLOCKING = frozenset({"recv"})

    def __init__(self, seed: int = 0) -> None:
        #: the PRNG behind ``rand``; a pickled kernel leaves it out.
        self.rng = random.Random(seed)
        #: ``rng.getstate()`` as last taken or loaded, while ``rand`` has
        #: not drawn since; None once it has.
        self._rng_state: Optional[Tuple[Any, ...]] = None
        self._files: Dict[str, List[Any]] = {}
        self._channels: Dict[str, List[Any]] = {}
        self.stdout: List[Any] = []
        self.syscall_count = 0

    def __getstate__(self) -> Dict[str, Any]:
        # The RNG is most of a pickled kernel and the slowest part to
        # unpickle.  Machine.capture_state keeps its rng_state() beside
        # the blob instead, and Machine.restored loads it back.
        state = dict(self.__dict__)
        del state["rng"], state["_rng_state"]
        return state

    def rng_state(self) -> Tuple[Any, ...]:
        """``rng.getstate()``, for a snapshot.

        While ``rand`` has not drawn since the last call or
        :meth:`load_rng`, this is the same tuple: the snapshots of one
        lineage share it instead of each holding a fresh 24 KB copy.
        """
        state = self._rng_state
        if state is None:
            state = self._rng_state = self.rng.getstate()
        return state

    def load_rng(self, state: Tuple[Any, ...]) -> None:
        """Continue ``rand`` from a :meth:`rng_state`, seeding nothing."""
        self.rng = rng_from_state(state)
        self._rng_state = state

    # -- dispatch ---------------------------------------------------------

    def can_execute(self, name: str, args: Tuple[Any, ...]) -> bool:
        """Whether the syscall can complete now (False => caller blocks)."""
        if name == "recv":
            (chan,) = args
            return bool(self._channels.get(chan))
        return True

    def execute(self, name: str, args: Tuple[Any, ...], now: int) -> Any:
        """Run the syscall; the caller guarantees :meth:`can_execute`."""
        handler = getattr(self, "_sys_" + name, None)
        if handler is None:
            raise SimSyscallError(f"unknown syscall {name!r}")
        try:
            if name == "now":
                return handler(now)
            return handler(*args)
        except TypeError as exc:
            raise SimSyscallError(f"bad arguments for {name}{args!r}: {exc}") from None
        finally:
            self.syscall_count += 1

    # -- stdout -------------------------------------------------------------

    def _sys_write_stdout(self, value: Any) -> None:
        self.stdout.append(value)

    # -- files ----------------------------------------------------------------

    def _sys_write_file(self, name: str, record: Any) -> int:
        """Append a record; returns its index."""
        records = self._files.setdefault(name, [])
        records.append(record)
        return len(records) - 1

    def _sys_read_file(self, name: str, index: int) -> Any:
        try:
            return self._files[name][index]
        except (KeyError, IndexError):
            raise SimSyscallError(f"read_file({name!r}, {index}) out of range") from None

    def _sys_file_len(self, name: str) -> int:
        return len(self._files.get(name, ()))

    def file_contents(self, name: str) -> List[Any]:
        """Host-side accessor for oracles; not a syscall."""
        return list(self._files.get(name, ()))

    def file_names(self) -> List[str]:
        """Host-side accessor: names of all files, creation order."""
        return list(self._files)

    def seed_files(self, files: Dict[str, List[Any]]) -> None:
        """Host-side setup: install pre-existing files before the run."""
        for name, records in files.items():
            self._files[name] = list(records)

    # -- channels -------------------------------------------------------------

    def _sys_send(self, chan: str, msg: Any) -> None:
        self._channels.setdefault(chan, []).append(msg)

    def _sys_recv(self, chan: str) -> Any:
        queue = self._channels.get(chan)
        if not queue:
            raise SimSyscallError(f"recv on empty channel {chan!r}")
        return queue.pop(0)

    def _sys_try_recv(self, chan: str) -> Any:
        queue = self._channels.get(chan)
        if not queue:
            return None
        return queue.pop(0)

    def _sys_chan_len(self, chan: str) -> int:
        return len(self._channels.get(chan, ()))

    # -- misc ------------------------------------------------------------------

    def _sys_rand(self, n: int) -> int:
        if n <= 0:
            raise SimSyscallError(f"rand({n}) requires n > 0")
        self._rng_state = None
        return self.rng.randrange(n)

    def _sys_now(self, now: int) -> int:
        return now

    def _sys_sleep(self, duration: int) -> None:
        # Time accounting happens in the machine's clock; nothing to do here.
        if duration < 0:
            raise SimSyscallError(f"sleep({duration}) requires duration >= 0")

    def _sys_epoch_barrier(self) -> None:
        # The epoch-windowed recorder watches for this marker in the event
        # stream (see repro.core.epochs); the kernel itself does nothing.
        pass
