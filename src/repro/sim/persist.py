"""Trace persistence: serialize executions for offline analysis.

A reproduced bug is most useful when the whole execution can be attached
to the bug report.  This module round-trips a :class:`~repro.sim.trace.
Trace` through two formats:

* the classic JSON-lines format (one header object, then one line per
  event) written by :func:`dump_trace`;
* a crash-consistent *journal* format (:func:`save_trace_journaled`)
  built on :mod:`repro.robust.journal`, where every event is a
  checksummed record flushed as it is written and the run metadata
  becomes a completion footer — so a run that dies mid-recording leaves
  a salvageable prefix instead of nothing.

Values survive when they are JSON-representable (the simulator's
conventions — ints, strings, tuples, lists, None — all are; tuples are
tagged so they come back as tuples, which matters because addresses are
tuples).  Dicts are pair-encoded, so payloads that happen to contain the
tag keys ``__t``/``__d`` round-trip unharmed.

Round-tripped traces support everything the analyses need: race
detection, lockset, timelines, diffing, and `schedule`-based re-execution.
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, IO, List, Optional, Tuple

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
    """One event as a flat JSON-ready row (shared by both formats)."""
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
    """Everything about a trace except the events (header or footer)."""
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


# -- classic JSON-lines format -----------------------------------------------


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
    """Load a trace from ``path`` (either format, sniffed by magic).

    Sniffing and parsing share one handle — one open, one read — so a
    concurrent :func:`save_trace` replacement cannot swap the file
    between the sniff and the reload, and hot paths pay a single open.
    Undecodable bytes are replaced rather than raised on (both formats
    turn the resulting damage into :class:`SketchFormatError`).
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        text = handle.read()
    if text.startswith("PRESJ"):
        from repro.robust.journal import read_journal_text

        return trace_from_salvage(read_journal_text(text, path))
    return load_trace(io.StringIO(text))


# -- crash-consistent journal format -----------------------------------------


def trace_journal_writer(program_name: str, ncpus: int, path: str):
    """Open an event journal for a run that is *about to happen*.

    Hand the writer to :class:`~repro.sim.machine.Machine` as its
    ``event_journal``; the machine appends every event as it executes and
    commits the metadata footer only if the run completes.  The caller
    owns closing it.
    """
    from repro.robust.journal import TRACE_KIND, JournalWriter

    return JournalWriter(
        path, TRACE_KIND, {"program": program_name, "ncpus": ncpus}
    )


def save_trace_journaled(trace: Trace, path: str) -> None:
    """Write a finished trace in the journal format (conversion utility)."""
    writer = trace_journal_writer(trace.program_name, trace.ncpus, path)
    try:
        for event in trace.events:
            writer.append(event_row(event))
        writer.commit(trace_meta(trace))
    finally:
        writer.close()


def _partial_trace(meta: Dict[str, Any], events: List[Event], note: str) -> Trace:
    """A prefix-only trace: the run's tail (and end state) are unknown."""
    return Trace(
        program_name=meta.get("program", "<unknown>"),
        events=events,
        schedule=[event.tid for event in events],
        final_memory={},
        stdout=[],
        files={},
        thread_returns={},
        thread_names={},
        failure=None,
        clock=None,
        steps=len(events),
        ncpus=int(meta.get("ncpus", 1)),
        divergence=note,
    )


def trace_from_salvage(report) -> Trace:
    """Rebuild a trace from a salvaged journal.

    With an intact footer this is a full, exact trace; without one it is
    the event prefix the dying process managed to flush, with the
    schedule re-derived from the events (every machine step that emitted
    an event was one scheduler pick of that event's thread).
    """
    from repro.robust.journal import TRACE_KIND

    if report.kind != TRACE_KIND:
        raise SketchFormatError(
            f"{report.path}: expected a trace journal, found {report.kind!r}"
        )
    events: List[Event] = []
    for number, row in enumerate(report.records, start=1):
        try:
            events.append(event_from_row(row))
        except (ValueError, TypeError) as exc:
            raise SketchFormatError(
                f"{report.path}: record {number}: {exc}"
            ) from None
    if report.footer is not None and "schedule" in report.footer:
        return _trace_from_meta(report.footer, events)
    return _partial_trace(
        report.meta,
        events,
        f"salvaged prefix: {report.reason or 'journal has no footer'}",
    )


def salvage_trace(path: str) -> Tuple[Trace, Any]:
    """Tolerant journal load: best-effort trace plus the salvage report."""
    from repro.robust.journal import salvage

    report = salvage(path)
    if report.unrecoverable:
        raise SketchFormatError(f"{path}: {report.reason}")
    return trace_from_salvage(report), report
