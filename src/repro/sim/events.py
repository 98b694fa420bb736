"""Executed-event records.

An :class:`Event` is one *completed* operation: the machine emits exactly
one per step, in global execution order.  Events carry enough to (a) feed
sketch recorders, (b) run happens-before race analysis offline, and (c)
check replay fidelity (values included).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

from repro.sim.ops import Address, Op, OpKind


class Event(NamedTuple):
    """One executed operation in the global order.

    A named tuple: the machine builds one per step, and a tuple is built
    in one C call where a frozen dataclass fills an instance dict field
    by field.  Events are immutable, hash and compare by their fields,
    and :meth:`_replace` derives a changed copy.

    :param gidx: global index (position in the trace).
    :param tid: thread that executed the operation.
    :param kind: operation kind.
    :param addr: memory address, for memory kinds.
    :param obj: synchronization object name / joined tid, for sync kinds.
    :param name: syscall or function name.
    :param label: basic-block label.
    :param args: syscall arguments (needed to pair channel sends/recvs and
        to check replay conformance of SYS-level sketches).
    :param value: observed value — the loaded value for READ, stored value
        for WRITE, result for RMW/CAS/SYSCALL, spawned tid for SPAWN.
    :param cpu: CPU the thread is pinned on.
    """

    gidx: int
    tid: int
    kind: OpKind
    addr: Optional[Address] = None
    obj: Any = None
    name: Optional[str] = None
    label: Optional[str] = None
    args: Tuple[Any, ...] = ()
    value: Any = None
    cpu: int = 0

    @classmethod
    def from_op(
        cls, gidx: int, tid: int, cpu: int, op: Op, value: Any = None
    ) -> "Event":
        """The event of ``op`` executed by ``tid``; the machine emits
        every event through here.  Only a SYSCALL event carries args."""
        kind = op.kind
        return _new(
            cls,
            (
                gidx,
                tid,
                kind,
                op.addr,
                op.obj,
                op.name,
                op.label,
                op.args if kind is _SYSCALL else (),
                value,
                cpu,
            ),
        )

    def signature(self) -> Tuple[Any, ...]:
        """Identity of *what* executed, excluding position and value.

        Two events with equal signatures are "the same program action";
        sketch conformance compares signatures, not values, because a
        diverged value is a symptom the monitor handles separately.
        """
        return (self.tid, self.kind, self.addr, self.obj, self.name, self.label)

    def describe(self) -> str:
        parts = [f"#{self.gidx}", f"T{self.tid}", self.kind.value]
        if self.addr is not None:
            parts.append(repr(self.addr))
        if self.obj is not None:
            parts.append(repr(self.obj))
        if self.name is not None:
            parts.append(self.name)
        if self.label is not None:
            parts.append(self.label)
        return " ".join(parts)


#: Bound once: on Python 3.11 reading a member off an Enum class goes
#: through ``EnumType.__getattr__``, and every step builds an event.
_SYSCALL = OpKind.SYSCALL
#: ``Event.from_op`` fills the tuple directly, skipping the generated
#: ``__new__``'s Python frame.
_new = tuple.__new__
