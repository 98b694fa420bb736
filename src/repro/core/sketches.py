"""Execution sketching mechanisms.

A *sketch* is a global, totally ordered log of a subset of a run's events.
PRES's five mechanisms form a spectrum from "record almost nothing" to
"record the order of every shared access" (which is classical software
deterministic replay, the overhead baseline the paper improves on):

========  ==========================================================
SYNC      synchronization operations (locks, condvars, semaphores,
          barriers, thread spawn/join)
SYS       SYNC + system calls
FUNC      SYS + function entries/exits
BB        FUNC + basic-block markers
RW        BB + every shared-memory access — full order, deterministic
          replay on the first attempt
========  ==========================================================

plus the degenerate ``NONE`` (record only the inputs; replay is stress
testing).  Mechanisms are cumulative by construction, so more recording
never reproduces a bug in *more* attempts.

Each sketch entry remembers (thread, kind, object key): enough to enforce
"the i-th sketch-visible event must be this thread doing this thing", and
nothing more — in particular no values, which is what keeps the logs small.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.sim.events import Event
from repro.sim.ops import MEMORY_KINDS, SYNC_KINDS, Op, OpKind, kind_mask


class SketchKind(enum.Enum):
    """The recording mechanisms, cheapest first."""

    NONE = "none"
    SYNC = "sync"
    SYS = "sys"
    FUNC = "func"
    BB = "bb"
    RW = "rw"

    @property
    def level(self) -> int:
        """Information level; higher records strictly more."""
        return SKETCH_ORDER.index(self)

    def includes(self, other: "SketchKind") -> bool:
        return self.level >= other.level


#: Mechanisms ordered by information content.
SKETCH_ORDER: Tuple[SketchKind, ...] = (
    SketchKind.NONE,
    SketchKind.SYNC,
    SketchKind.SYS,
    SketchKind.FUNC,
    SketchKind.BB,
    SketchKind.RW,
)

_VISIBLE_BY_KIND = {
    SketchKind.NONE: frozenset(),
    SketchKind.SYNC: SYNC_KINDS,
    SketchKind.SYS: SYNC_KINDS | {OpKind.SYSCALL},
    SketchKind.FUNC: SYNC_KINDS
    | {OpKind.SYSCALL, OpKind.FUNC_ENTER, OpKind.FUNC_EXIT},
    SketchKind.BB: SYNC_KINDS
    | {OpKind.SYSCALL, OpKind.FUNC_ENTER, OpKind.FUNC_EXIT, OpKind.BASIC_BLOCK},
    SketchKind.RW: SYNC_KINDS
    | {OpKind.SYSCALL, OpKind.FUNC_ENTER, OpKind.FUNC_EXIT, OpKind.BASIC_BLOCK}
    | MEMORY_KINDS,
}


_VISIBLE_MASK_BY_KIND = {
    sketch: kind_mask(kinds) for sketch, kinds in _VISIBLE_BY_KIND.items()
}


def visible_kinds(sketch: SketchKind) -> frozenset:
    """Op kinds this mechanism records."""
    return _VISIBLE_BY_KIND[sketch]


def visible_mask(sketch: SketchKind) -> int:
    """:func:`visible_kinds` as a mask: ``kind.bit & mask`` tests membership."""
    return _VISIBLE_MASK_BY_KIND[sketch]


def op_visible(sketch: SketchKind, op: Op) -> bool:
    """Whether an op about to execute would be recorded by this sketch."""
    return bool(op.kind.bit & _VISIBLE_MASK_BY_KIND[sketch])


def event_visible(sketch: SketchKind, event: Event) -> bool:
    """Whether an executed event is recorded by this sketch."""
    return bool(event.kind.bit & _VISIBLE_MASK_BY_KIND[sketch])


def op_key(kind: OpKind, op_or_event: Any) -> Any:
    """The object key stored in a sketch entry.

    Chosen so that the key is a pure function of the thread's control flow
    (never of racy data values): sync object names, syscall name plus its
    channel/file argument, function names, basic-block labels, addresses.
    """
    if kind.is_sync:
        return op_or_event.obj
    if kind is OpKind.SYSCALL:
        args = op_or_event.args
        first = args[0] if args else None
        if isinstance(first, (str, int)):
            return (op_or_event.name, first)
        return (op_or_event.name, None)
    if kind in (OpKind.FUNC_ENTER, OpKind.FUNC_EXIT):
        return op_or_event.name
    if kind is OpKind.BASIC_BLOCK:
        return op_or_event.label
    if kind.is_memory:
        return op_or_event.addr
    return None


@dataclass(frozen=True)
class SketchEntry:
    """One recorded sketch point: thread ``tid`` performed ``kind`` on ``key``."""

    tid: int
    kind: OpKind
    key: Any

    @classmethod
    def from_event(cls, event: Event) -> "SketchEntry":
        return cls(tid=event.tid, kind=event.kind, key=op_key(event.kind, event))

    def matches_op(self, tid: int, op: Op) -> bool:
        """Whether a pending op is this entry."""
        return (
            tid == self.tid
            and op.kind is self.kind
            and op_key(op.kind, op) == self.key
        )

    def describe(self) -> str:
        return f"T{self.tid} {self.kind.value} {self.key!r}"


def entry_for_op(tid: int, op: Op) -> SketchEntry:
    """The entry this pending op would record when it executes."""
    return SketchEntry(tid=tid, kind=op.kind, key=op_key(op.kind, op))


def parse_sketch_kind(name: str) -> SketchKind:
    """Parse a user-supplied mechanism name ('sync', 'rw', ...)."""
    try:
        return SketchKind(name.lower())
    except ValueError:
        valid = ", ".join(k.value for k in SKETCH_ORDER)
        raise ValueError(f"unknown sketch kind {name!r}; expected one of {valid}") from None
