"""``Op``/``Event`` records and the per-kind flags the hot paths read.

``Op`` and ``Event`` fill their instance dict directly instead of using
the frozen dataclass's generated ``__init__``.  These tests hold them to
the records the generated ``__init__`` builds — declared here as
reference dataclasses with the same fields — and check that every
``OpKind`` carries flags that agree with the kind sets.
"""

import copy
import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

import pytest

from repro.sim import Machine, Program
from repro.sim.events import Event
from repro.sim.machine import ThreadState
from repro.sim.ops import (
    GUARDED_KINDS,
    LOCK_KINDS,
    MEMORY_KINDS,
    SYNC_KINDS,
    WRITE_KINDS,
    Op,
    OpKind,
    kind_mask,
)


@dataclass(frozen=True)
class ReferenceOp:
    kind: OpKind
    addr: Any = None
    value: Any = None
    obj: Any = None
    name: Optional[str] = None
    args: Tuple[Any, ...] = ()
    func: Optional[Callable[..., Any]] = field(default=None, compare=False)
    label: Optional[str] = None
    msg: Optional[str] = None
    cost: int = 1


@dataclass(frozen=True)
class ReferenceEvent:
    gidx: int
    tid: int
    kind: OpKind
    addr: Any = None
    obj: Any = None
    name: Optional[str] = None
    label: Optional[str] = None
    args: Tuple[Any, ...] = ()
    value: Any = None
    cpu: int = 0


def _body(ctx):
    yield ctx.local()


OP_SAMPLES = [
    {"kind": OpKind.READ, "addr": "x"},
    {"kind": OpKind.WRITE, "addr": ("buf", 3), "value": (1, 2), "cost": 2},
    {"kind": OpKind.CAS, "addr": "flag", "value": (0, 1), "cost": 2},
    {"kind": OpKind.COND_WAIT, "obj": ("cv", "m")},
    {"kind": OpKind.SYSCALL, "name": "send", "args": ("chan", 7)},
    {"kind": OpKind.SPAWN, "func": _body, "args": (1,), "name": "_body"},
    {"kind": OpKind.BASIC_BLOCK, "label": "loop.head"},
    {"kind": OpKind.ASSERT, "value": False, "msg": "invariant"},
]

EVENT_SAMPLES = [
    {"gidx": 0, "tid": 0, "kind": OpKind.SPAWN, "value": 1},
    {"gidx": 5, "tid": 2, "kind": OpKind.READ, "addr": ("buf", 3), "value": 9, "cpu": 2},
    {"gidx": 7, "tid": 1, "kind": OpKind.SYSCALL, "name": "recv", "args": ("c",), "value": "msg"},
    {"gidx": 9, "tid": 3, "kind": OpKind.LOCK, "obj": "m", "cpu": 3},
]

PAIRS = [(Op, ReferenceOp, sample) for sample in OP_SAMPLES] + [
    (Event, ReferenceEvent, sample) for sample in EVENT_SAMPLES
]


def _describe_fields(cls):
    return [(f.name, f.default, f.compare, f.hash, f.init) for f in dataclasses.fields(cls)]


class TestSameRecordAsGeneratedInit:
    @pytest.mark.parametrize("cls, reference", [(Op, ReferenceOp), (Event, ReferenceEvent)])
    def test_same_fields(self, cls, reference):
        assert _describe_fields(cls) == _describe_fields(reference)

    @pytest.mark.parametrize("cls, reference, sample", PAIRS)
    def test_same_repr_equality_and_hash(self, cls, reference, sample):
        record, expected = cls(**sample), reference(**sample)
        assert repr(record) == repr(expected).replace(
            reference.__name__, cls.__name__, 1
        )
        assert record == cls(**sample)
        assert hash(record) == hash(expected)
        assert dataclasses.astuple(record) == dataclasses.astuple(expected)
        assert vars(record) == vars(expected)

    @pytest.mark.parametrize("cls, reference, sample", PAIRS)
    def test_positional_construction(self, cls, reference, sample):
        names = [f.name for f in dataclasses.fields(cls)]
        values = [sample.get(name, reference(**sample).__dict__[name]) for name in names]
        assert cls(*values) == cls(**sample)
        assert repr(cls(*values)) == repr(cls(**sample))

    @pytest.mark.parametrize("cls, reference, sample", PAIRS)
    def test_pickle_and_copy_round_trip(self, cls, reference, sample):
        record = cls(**sample)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(record, protocol=protocol))
            assert type(clone) is cls
            assert clone == record and repr(clone) == repr(record)
            with pytest.raises(dataclasses.FrozenInstanceError):
                clone.cost = 5
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record

    @pytest.mark.parametrize("cls, reference, sample", PAIRS)
    def test_replace(self, cls, reference, sample):
        record = cls(**sample)
        changed = dataclasses.replace(record, name="renamed")
        assert type(changed) is cls
        assert changed == cls(**{**sample, "name": "renamed"})
        assert record.name == sample.get("name")

    @pytest.mark.parametrize("cls, reference, sample", PAIRS)
    def test_frozen(self, cls, reference, sample):
        record = cls(**sample)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.name = "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.name
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1

    def test_op_func_excluded_from_comparison(self):
        def other(ctx):
            yield ctx.local()

        a = Op(OpKind.SPAWN, func=_body, args=(1,))
        b = Op(OpKind.SPAWN, func=other, args=(1,))
        assert a == b and hash(a) == hash(b)
        assert a.func is _body and b.func is other
        assert "func=" in repr(a)

    @pytest.mark.parametrize("sample", OP_SAMPLES)
    def test_event_from_op(self, sample):
        op = Op(**sample)
        event = Event.from_op(4, 2, 1, op, value="v")
        assert event == Event(
            gidx=4, tid=2, kind=op.kind, addr=op.addr, obj=op.obj,
            name=op.name, label=op.label,
            args=op.args if op.kind is OpKind.SYSCALL else (),
            value="v", cpu=1,
        )


class TestKindFlags:
    def test_every_kind_has_a_unique_bit(self):
        bits = [kind.bit for kind in OpKind]
        assert len(set(bits)) == len(OpKind)
        assert all(bit > 0 and bit & (bit - 1) == 0 for bit in bits)

    @pytest.mark.parametrize("kind", list(OpKind))
    def test_flags_agree_with_the_kind_sets(self, kind):
        assert kind.is_memory == (kind in MEMORY_KINDS)
        assert kind.is_write == (kind in WRITE_KINDS)
        assert kind.is_sync == (kind in SYNC_KINDS)
        assert kind.is_lock == (kind in LOCK_KINDS)
        assert kind.is_guarded == (kind in GUARDED_KINDS)

    def test_kind_mask(self):
        mask = kind_mask(MEMORY_KINDS)
        assert [kind for kind in OpKind if kind.bit & mask] == [
            kind for kind in OpKind if kind in MEMORY_KINDS
        ]
        assert kind_mask(()) == 0

    @pytest.mark.parametrize(
        "kind", [kind for kind in OpKind if kind not in GUARDED_KINDS]
    )
    def test_unguarded_kinds_never_wait(self, kind):
        # The runnable set skips _can_execute for unguarded kinds; a new
        # kind that can wait must join GUARDED_KINDS.
        machine = Machine(Program("idle", _body), scheduler=None)
        ts = ThreadState(tid=0, gen=None, name="t", pending_op=Op(kind, obj="x"))
        assert machine._can_execute(ts) is True
