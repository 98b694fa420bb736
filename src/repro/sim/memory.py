"""Shared memory of the simulated machine.

Memory is a flat map from hashable addresses to values.  Addresses are
either strings (scalar variables: ``"counter"``) or tuples whose first
element names a region (``("buf", 3)`` is cell 3 of buffer ``"buf"``).

Deallocation is first-class because order-violation bugs frequently
manifest as use-after-free: :meth:`SharedMemory.free` removes addresses and
remembers them, so a later access raises :class:`~repro.errors.SimMemoryError`
with a "use after free" diagnosis rather than a generic missing-address
error.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Set, Tuple

from repro.errors import SimMemoryError
from repro.sim.ops import Address


def region_of(addr: Address) -> Address:
    """The region an address belongs to (itself, for scalar addresses)."""
    if isinstance(addr, tuple) and addr:
        return addr[0]
    return addr


class SharedMemory:
    """The machine's shared address space."""

    def __init__(self, initial: Dict[Address, Any] | None = None) -> None:
        self._cells: Dict[Address, Any] = dict(initial or {})
        self._freed: Set[Address] = set()

    def __contains__(self, addr: Address) -> bool:
        return addr in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def addresses(self) -> Iterator[Address]:
        """Iterate over live addresses in insertion order."""
        return iter(self._cells)

    def load(self, addr: Address) -> Any:
        """Read ``addr``; raises :class:`SimMemoryError` if invalid."""
        try:
            return self._cells[addr]
        except KeyError:
            raise SimMemoryError(addr, self._diagnose(addr)) from None

    def store(self, addr: Address, value: Any) -> None:
        """Write ``addr``, creating it if new.

        Writing to a freed address is a use-after-free and crashes, the
        same as reading one.  (Re-creating a freed address would silently
        mask exactly the bug class we need to surface.)
        """
        if addr in self._freed or region_of(addr) in self._freed:
            raise SimMemoryError(addr, self._diagnose(addr))
        self._cells[addr] = value

    def rmw(self, addr: Address, fn: Any) -> Any:
        """Atomically apply ``fn`` to ``addr``; returns the old value."""
        old = self.load(addr)
        self._cells[addr] = fn(old)
        return old

    def cas(self, addr: Address, expected: Any, new: Any) -> bool:
        """Atomic compare-and-swap; returns True iff the swap happened."""
        old = self.load(addr)
        if old != expected:
            return False
        self._cells[addr] = new
        return True

    def free(self, addr: Address) -> Tuple[Address, ...]:
        """Deallocate ``addr``; a scalar address also frees its region.

        Returns the tuple of addresses removed.  Freeing an address that
        does not exist (or was already freed) is a double-free crash.
        """
        victims = [a for a in self._cells if a == addr or region_of(a) == addr]
        if not victims:
            raise SimMemoryError(addr, self._diagnose(addr, freeing=True))
        for victim in victims:
            del self._cells[victim]
            self._freed.add(victim)
        self._freed.add(addr)
        return tuple(victims)

    def was_freed(self, addr: Address) -> bool:
        """Whether ``addr`` (or its region) has been deallocated."""
        return addr in self._freed or region_of(addr) in self._freed

    def snapshot(self) -> Dict[Address, Any]:
        """Shallow copy of the live cells (for end-of-run oracles)."""
        return dict(self._cells)

    def _diagnose(self, addr: Address, freeing: bool = False) -> str:
        if self.was_freed(addr):
            return "double free" if freeing else "use after free"
        if freeing:
            return "free of unallocated address"
        return "address was never allocated"
