"""Vector clocks over dynamically created threads.

A :class:`VectorClock` maps thread ids to logical timestamps; missing
entries are zero, so clocks over a growing thread population compose
without pre-declaring the population.  Instances are immutable — every
operation returns a new clock — which keeps sharing safe when the same
clock is stored on many events.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple


class VectorClock:
    """An immutable vector clock."""

    __slots__ = ("_clocks",)

    def __init__(self, clocks: Mapping[int, int] | None = None) -> None:
        self._clocks: Dict[int, int] = {
            tid: ts for tid, ts in (clocks or {}).items() if ts > 0
        }

    @classmethod
    def _adopt(cls, clocks: Dict[int, int]) -> "VectorClock":
        """Wrap a dict that holds no zero entries, without copying it."""
        vc = cls.__new__(cls)
        vc._clocks = clocks
        return vc

    def get(self, tid: int) -> int:
        return self._clocks.get(tid, 0)

    def tick(self, tid: int) -> "VectorClock":
        """Advance one component (a thread performing a step)."""
        clocks = self._clocks.copy()
        clocks[tid] = clocks.get(tid, 0) + 1
        return VectorClock._adopt(clocks)

    def advanced(self, tid: int, ts: int) -> "VectorClock":
        """This clock with ``tid``'s component raised to at least ``ts``."""
        if ts <= self._clocks.get(tid, 0):
            return self
        clocks = self._clocks.copy()
        clocks[tid] = ts
        return VectorClock._adopt(clocks)

    def join(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum — acquiring another clock's knowledge.

        Returns ``self`` when ``other`` adds nothing (e.g. the zero clock).
        """
        mine = self._clocks
        merged = None
        for tid, ts in other._clocks.items():
            if ts > mine.get(tid, 0):
                if merged is None:
                    merged = mine.copy()
                merged[tid] = ts
        if merged is None:
            return self
        return VectorClock._adopt(merged)

    def happens_before(self, other: "VectorClock") -> bool:
        """Strict: self <= other pointwise, and self != other."""
        return self.leq(other) and self._clocks != other._clocks

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise less-or-equal."""
        theirs = other._clocks
        for tid, ts in self._clocks.items():
            if ts > theirs.get(tid, 0):
                return False
        return True

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock precedes the other."""
        return not self.leq(other) and not other.leq(self)

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._clocks.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._clocks == other._clocks

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._clocks.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"T{tid}:{ts}" for tid, ts in sorted(self._clocks.items()))
        return f"VC({inner})"

    @staticmethod
    def zero() -> "VectorClock":
        return _ZERO


_ZERO = VectorClock()
