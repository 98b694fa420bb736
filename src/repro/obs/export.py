"""Exporters: Chrome ``trace_event`` JSON for Perfetto / chrome://tracing.

The tracer's span list (:mod:`repro.obs.tracer`) becomes a standard
`trace_event <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
document: complete spans are ``"ph": "X"`` events, instants are
``"ph": "i"``, and every timeline lane gets a ``thread_name`` metadata
record — the parent explorer on track 0, one track per replay worker
above it — so a reproduction session opens directly in Perfetto with
replay attempts laid out worker-by-worker.

The written document is ``{"traceEvents": [...], ...}``; both Perfetto
and ``chrome://tracing`` accept that envelope (and the bare-array form,
which :func:`load_chrome_trace` also reads back).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.tracer import PARENT_TRACK, SpanRecord, Tracer

#: pid stamped on every exported event (one process == one trace).
EXPORT_PID = 1

#: recognized trace_event phases for validation.
_KNOWN_PHASES = {"X", "i", "M"}


def _jsonable_args(args: Dict[str, Any]) -> Dict[str, Any]:
    """Span annotations coerced to JSON scalars (repr for the exotic)."""
    out: Dict[str, Any] = {}
    for key in sorted(args):
        value = args[key]
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def _lane_name(track: int) -> str:
    """Human name for a timeline lane."""
    return "explorer" if track == PARENT_TRACK else f"worker {track}"


def chrome_trace_events(
    spans: Sequence[SpanRecord],
) -> List[Dict[str, Any]]:
    """The ``traceEvents`` array for a span list.

    Metadata (process/thread names) comes first, then spans sorted by
    start time with ties broken by track — a canonical order, so the
    exported document is a pure function of the span list.
    """
    tracks = sorted({span.track for span in spans} | {PARENT_TRACK})
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": EXPORT_PID,
            "tid": PARENT_TRACK,
            "args": {"name": "pres replay session"},
        }
    ]
    for track in tracks:
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": EXPORT_PID,
                "tid": track,
                "args": {"name": _lane_name(track)},
            }
        )
    for span in sorted(spans, key=lambda s: (s.start_us, s.track, s.name)):
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category,
            "pid": EXPORT_PID,
            "tid": span.track,
            "ts": round(span.start_us, 3),
            "args": _jsonable_args(span.args),
        }
        if span.duration_us > 0:
            event["ph"] = "X"
            event["dur"] = round(span.duration_us, 3)
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
    return events


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The full Chrome-trace document for a tracer's collected spans."""
    return {
        "traceEvents": chrome_trace_events(tracer.spans),
        "displayTimeUnit": "ms",
        "otherData": {"tool": "pres", "format": "pres-obs-trace", "version": 1},
    }


def save_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome-trace JSON for ``tracer`` to ``path`` atomically."""
    from repro.robust.atomic import atomic_writer

    with atomic_writer(path) as handle:
        json.dump(chrome_trace(tracer), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_chrome_trace(path: str) -> Dict[str, Any]:
    """Read a saved trace document back, normalized to the dict envelope.

    Accepts both the ``{"traceEvents": [...]}`` envelope this module
    writes and a bare event array (the other shape Perfetto accepts).
    Malformed documents raise ``ValueError`` with a named reason — the
    CLI turns those into exit-code-2 messages, never tracebacks.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if isinstance(payload, list):
        payload = {"traceEvents": payload}
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise ValueError(
            f"{path} is not a Chrome trace (no traceEvents array); "
            "expected a file written by `pres reproduce --trace-out`"
        )
    for index, event in enumerate(payload["traceEvents"], start=1):
        problem = validate_trace_event(event)
        if problem:
            raise ValueError(f"{path}: trace event {index} {problem}")
    return payload


def validate_trace_event(event: Any) -> str:
    """Why one ``traceEvents`` element is malformed; empty string if OK.

    This is the schema check the exporter's tests (and ``pres inspect``)
    share: required keys per phase, numeric timestamps, known phase.
    """
    if not isinstance(event, dict):
        return "is not an object"
    phase = event.get("ph")
    if phase not in _KNOWN_PHASES:
        return f"has unknown phase {phase!r}"
    if "name" not in event or "pid" not in event or "tid" not in event:
        return "is missing name/pid/tid"
    if phase == "M":
        return ""
    if not isinstance(event.get("ts"), (int, float)):
        return "has a non-numeric ts"
    if phase == "X" and not isinstance(event.get("dur"), (int, float)):
        return "is a complete span without a numeric dur"
    return ""
