"""Trace persistence: serialize executions for offline analysis.

A reproduced bug is most useful when the whole execution can be attached
to the bug report.  This module round-trips a :class:`~repro.sim.trace.
Trace` through one JSON-lines format: one header object, then one line
per event, written by :func:`dump_trace` (atomically to a path by
:func:`save_trace`, which ``pres reproduce --exec-out`` uses).

Values survive when they are JSON-representable (the simulator's
conventions — ints, strings, tuples, lists, None — all are; tuples are
tagged so they come back as tuples, which matters because addresses are
tuples).  Dicts are pair-encoded, so payloads that happen to contain the
tag keys ``__t``/``__d`` round-trip unharmed.

Round-tripped traces support everything the analyses need: race
detection, lockset, timelines, diffing, and `schedule`-based re-execution.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List

from repro.errors import SketchFormatError
from repro.sim.events import Event
from repro.sim.failures import Failure, FailureKind
from repro.sim.ops import OpKind
from repro.sim.trace import Trace
from repro.sim.vtime import ClockSummary

_FORMAT = "pres-trace"
_VERSION = 1


def _pack(value: Any) -> Any:
    """JSON-encode simulator values, tagging tuples and dicts."""
    if isinstance(value, tuple):
        return {"__t": [_pack(v) for v in value]}
    if isinstance(value, list):
        return [_pack(v) for v in value]
    if isinstance(value, dict):
        return {"__d": [[_pack(k), _pack(v)] for k, v in value.items()]}
    return value


def _unpack(value: Any) -> Any:
    # Only exact single-key tag dicts decode as tags; a payload dict that
    # merely *contains* "__t" (possible in hand-authored or adversarial
    # files — _pack itself always pair-encodes dicts) stays a plain dict.
    if isinstance(value, dict) and set(value) == {"__t"}:
        return tuple(_unpack(v) for v in value["__t"])
    if isinstance(value, dict) and set(value) == {"__d"}:
        return {_unpack(k): _unpack(v) for k, v in value["__d"]}
    if isinstance(value, list):
        return [_unpack(v) for v in value]
    return value


# -- event rows --------------------------------------------------------------


def event_row(event: Event) -> list:
    """One event as a flat JSON-ready row."""
    return [
        event.gidx,
        event.tid,
        event.kind.value,
        _pack(event.addr),
        _pack(event.obj),
        event.name,
        event.label,
        _pack(list(event.args)),
        _pack(event.value),
        event.cpu,
    ]


def event_from_row(row: Any) -> Event:
    """Decode :func:`event_row`; raises ``ValueError`` on a bad row."""
    gidx, tid, kind, addr, obj, name, label, args, value, cpu = row
    return Event(
        gidx=gidx,
        tid=tid,
        kind=OpKind(kind),
        addr=_unpack(addr),
        obj=_unpack(obj),
        name=name,
        label=label,
        args=tuple(_unpack(args)),
        value=_unpack(value),
        cpu=cpu,
    )


# -- trace metadata ----------------------------------------------------------


def trace_meta(trace: Trace) -> Dict[str, Any]:
    """Everything about a trace except the events (the header)."""
    return {
        "program": trace.program_name,
        "ncpus": trace.ncpus,
        "steps": trace.steps,
        "schedule": trace.schedule,
        "stdout": _pack(trace.stdout),
        "files": _pack(trace.files),
        "final_memory": _pack(trace.final_memory),
        "thread_returns": _pack(
            {str(tid): value for tid, value in trace.thread_returns.items()}
        ),
        "thread_names": {str(tid): n for tid, n in trace.thread_names.items()},
        "divergence": trace.divergence,
        "failure": None
        if trace.failure is None
        else {
            "kind": trace.failure.kind.value,
            "where": trace.failure.where,
            "tid": trace.failure.tid,
            "gidx": trace.failure.gidx,
            "detail": trace.failure.detail,
            "involved_tids": list(trace.failure.involved_tids),
        },
        "clock": None
        if trace.clock is None
        else {
            "native_time": trace.clock.native_time,
            "recorded_time": trace.clock.recorded_time,
            "per_cpu_native": trace.clock.per_cpu_native,
            "per_cpu_recorded": trace.clock.per_cpu_recorded,
        },
    }


def _trace_from_meta(meta: Dict[str, Any], events: List[Event]) -> Trace:
    failure = None
    if meta.get("failure") is not None:
        raw = meta["failure"]
        failure = Failure(
            kind=FailureKind(raw["kind"]),
            where=raw["where"],
            tid=raw["tid"],
            gidx=raw["gidx"],
            detail=raw["detail"],
            involved_tids=tuple(raw["involved_tids"]),
        )
    clock = None
    if meta.get("clock") is not None:
        raw = meta["clock"]
        clock = ClockSummary(
            native_time=raw["native_time"],
            recorded_time=raw["recorded_time"],
            per_cpu_native=raw["per_cpu_native"],
            per_cpu_recorded=raw["per_cpu_recorded"],
        )
    return Trace(
        program_name=meta["program"],
        events=events,
        schedule=list(meta["schedule"]),
        final_memory=_unpack(meta["final_memory"]),
        stdout=_unpack(meta["stdout"]),
        files=_unpack(meta["files"]),
        thread_returns={
            int(tid): value
            for tid, value in _unpack(meta["thread_returns"]).items()
        },
        thread_names={
            int(tid): name for tid, name in meta.get("thread_names", {}).items()
        },
        failure=failure,
        clock=clock,
        steps=meta["steps"],
        ncpus=meta["ncpus"],
        divergence=meta["divergence"],
    )


# -- JSON-lines format ------------------------------------------------------


def dump_trace(trace: Trace, handle: IO[str]) -> None:
    """Write a trace as JSON lines: header first, then one event per line."""
    header = {"format": _FORMAT, "version": _VERSION}
    header.update(trace_meta(trace))
    handle.write(json.dumps(header) + "\n")
    for event in trace.events:
        handle.write(json.dumps(event_row(event)) + "\n")


def load_trace(handle: IO[str]) -> Trace:
    """Read a trace written by :func:`dump_trace`."""
    header_line = handle.readline()
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SketchFormatError(f"corrupt trace header (line 1): {exc}") from None
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise SketchFormatError("not a PRES trace file")
    if header.get("version") != _VERSION:
        raise SketchFormatError(
            f"unsupported trace version {header.get('version')}"
        )

    events: List[Event] = []
    for line_number, line in enumerate(handle, start=2):
        if not line.strip():
            continue
        try:
            events.append(event_from_row(json.loads(line)))
        except (json.JSONDecodeError, ValueError, TypeError, RecursionError) as exc:
            raise SketchFormatError(
                f"corrupt trace event (line {line_number}, "
                f"event {line_number - 1}): {exc}"
            ) from None
    try:
        return _trace_from_meta(header, events)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SketchFormatError(
            f"corrupt trace header (line 1): {type(exc).__name__} {exc}"
        ) from None


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace to ``path``, atomically.

    The content lands in a temp file first and replaces ``path`` only
    once complete and fsynced (:mod:`repro.robust.atomic`), so a crash
    mid-write leaves whatever was at ``path`` before — never a truncated,
    unloadable trace.
    """
    from repro.robust.atomic import atomic_writer

    with atomic_writer(path) as handle:
        dump_trace(trace, handle)


def read_trace(path: str) -> Trace:
    """Load a trace written by :func:`save_trace` from ``path``.

    Undecodable bytes are replaced rather than raised on, so the
    resulting damage surfaces as :class:`SketchFormatError`.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return load_trace(handle)
