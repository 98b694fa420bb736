"""Log triage: validate and salvage on-disk recording artifacts.

``pres doctor <log>`` is the operator-facing entry point: point it at any
file the toolchain writes — a sketch or trace journal, a classic
JSON-lines trace, a sketch-log JSON blob, a complete log — and it tells
you whether the file is **ok** (usable as-is), **salvageable** (a valid
prefix can be recovered and written out), or **unrecoverable** (nothing
trustworthy inside).  The verdicts map to exit codes 0/1/2 so scripts
and CI can gate on log health.

Pointing the doctor at a *directory* triages it as an attempt store
(:func:`examine_store`): every shard is verified read-only, quarantine
sidecars are listed, and stale temp files left behind by a killed run
(``*.gc``, ``*.rebuild``, ``*.tmp.*``) are detected — and removed with
``pres doctor --clean``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.robust import journal as journal_mod
from repro.robust.journal import MAGIC, SalvageReport, salvage
from repro.errors import SketchFormatError

#: Verdicts, in order of decreasing health.
OK = "ok"
SALVAGEABLE = "salvageable"
UNRECOVERABLE = "unrecoverable"

_EXIT_CODES = {OK: 0, SALVAGEABLE: 1, UNRECOVERABLE: 2}


@dataclass
class LogDiagnosis:
    """The doctor's verdict on one file."""

    path: str
    format: str  # "sketch-journal" | "trace-journal" | "trace-jsonl" |
    #              "sketch-json" | "complete-log" | "unknown"
    status: str  # OK | SALVAGEABLE | UNRECOVERABLE
    detail: str = ""
    valid_records: int = 0
    dropped: int = 0
    salvage: Optional[SalvageReport] = None
    #: for non-journal formats: the salvageable text prefix, ready to write.
    salvaged_text: Optional[str] = None

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]

    def describe(self) -> str:
        lines = [f"{self.path}: {self.format}, {self.status}"]
        if self.detail:
            lines.append(f"  {self.detail}")
        lines.append(
            f"  {self.valid_records} valid record(s), {self.dropped} dropped"
        )
        return "\n".join(lines)


def _diagnose_journal(path: str) -> LogDiagnosis:
    report = salvage(path)
    fmt = f"{report.kind}-journal" if report.kind else "unknown"
    if report.unrecoverable:
        return LogDiagnosis(
            path=path,
            format=fmt,
            status=UNRECOVERABLE,
            detail=report.reason,
            dropped=report.total_lines,
            salvage=report,
        )
    status = OK if report.intact else SALVAGEABLE
    return LogDiagnosis(
        path=path,
        format=fmt,
        status=status,
        detail="" if report.intact else report.reason,
        valid_records=len(report.records),
        dropped=report.dropped_lines,
        salvage=report,
    )


def _diagnose_trace_jsonl(path: str, first_line: str) -> LogDiagnosis:
    from repro.sim.persist import event_from_row

    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = handle.read().splitlines()
    valid = [first_line]
    bad_at: Optional[str] = None
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            event_from_row(json.loads(line))
        except (json.JSONDecodeError, ValueError, TypeError, RecursionError) as exc:
            bad_at = f"event at line {number} is corrupt: {exc}"
            break
        valid.append(line)
    n_events = len(valid) - 1
    if bad_at is None:
        return LogDiagnosis(
            path=path, format="trace-jsonl", status=OK, valid_records=n_events
        )
    return LogDiagnosis(
        path=path,
        format="trace-jsonl",
        status=SALVAGEABLE,
        detail=bad_at,
        valid_records=n_events,
        dropped=len([l for l in lines if l.strip()]) - len(valid),
        salvaged_text="\n".join(valid) + "\n",
    )


def _diagnose_json_blob(path: str, text: str) -> LogDiagnosis:
    """Single-blob JSON artifacts: valid or nothing — no prefix to save."""
    from repro.core.full_replay import CompleteLog
    from repro.core.sketchlog import SketchLog

    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        return LogDiagnosis(
            path=path,
            format="unknown",
            status=UNRECOVERABLE,
            detail=f"not valid JSON: {exc}",
        )
    if isinstance(payload, dict) and "entries" in payload and "sketch" in payload:
        try:
            log = SketchLog.from_json(text)
        except SketchFormatError as exc:
            return LogDiagnosis(
                path=path, format="sketch-json", status=UNRECOVERABLE,
                detail=str(exc),
            )
        return LogDiagnosis(
            path=path, format="sketch-json", status=OK,
            valid_records=len(log),
        )
    if isinstance(payload, dict) and "schedule" in payload and "program" in payload:
        try:
            log = CompleteLog.from_json(text)
        except SketchFormatError as exc:
            return LogDiagnosis(
                path=path, format="complete-log", status=UNRECOVERABLE,
                detail=str(exc),
            )
        return LogDiagnosis(
            path=path, format="complete-log", status=OK,
            valid_records=len(log.schedule),
        )
    return LogDiagnosis(
        path=path, format="unknown", status=UNRECOVERABLE,
        detail="valid JSON but not a recognized PRES artifact",
    )


def diagnosis_metrics(diagnosis: LogDiagnosis, registry) -> None:
    """Fold one diagnosis into a metrics registry.

    ``registry`` is anything with the
    :class:`~repro.obs.metrics.MetricsRegistry` counter/gauge surface
    (duck-typed, matching the convention of
    :meth:`~repro.sim.stats.TraceStats.to_metrics`).  ``pres doctor
    --metrics-out`` uses this so fleet-wide log-health dashboards can
    aggregate doctor verdicts without parsing the prose report.
    """
    registry.counter("doctor_examined").inc()
    registry.counter(f"doctor_{diagnosis.status}").inc()
    registry.counter("doctor_valid_records").inc(diagnosis.valid_records)
    registry.counter("doctor_dropped_records").inc(diagnosis.dropped)


@dataclass
class StoreDiagnosis:
    """The doctor's verdict on one attempt-store directory.

    ``exit_code`` is 1 when any shard is damaged or stale temp files
    remain (both fixable: shards heal on the next write, stale files go
    away with :meth:`clean`), else 0.  Quarantine sidecars are listed
    but do not fail the store — they are evidence of *past* damage the
    store already routed around.
    """

    root: str
    verify: object  # StoreVerifyReport (typed loosely: lazy store import)
    stale: List[str] = field(default_factory=list)
    quarantine: List[str] = field(default_factory=list)
    cleaned: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        damaged = any(not shard.ok for shard in self.verify.shards)
        return not damaged and not self.stale

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def clean(self) -> List[str]:
        """Remove the stale temp files (only those); returns what went."""
        removed: List[str] = []
        for path in self.stale:
            try:
                os.unlink(path)
            except OSError:
                continue
            removed.append(path)
        self.stale = [path for path in self.stale if path not in removed]
        self.cleaned.extend(removed)
        return removed

    def describe(self) -> str:
        lines = [f"{self.root}: attempt store, "
                 f"{len(self.verify.shards)} shard(s)"]
        lines.extend("  " + shard.describe() for shard in self.verify.shards)
        for path in self.cleaned:
            lines.append(f"  cleaned: {path}")
        for path in self.stale:
            lines.append(
                f"  stale: {path} (partial write from a killed run; "
                "remove with --clean)"
            )
        for path in self.quarantine:
            lines.append(f"  quarantined: {path}")
        lines.append("store: " + ("ok" if self.ok else "DAMAGED"))
        return "\n".join(lines)


def examine_store(root: str) -> StoreDiagnosis:
    """Triage a store directory: verify shards, find stale/quarantine
    files.  Read-only (no epoch bump) until :meth:`StoreDiagnosis.clean`
    is explicitly invoked."""
    # Imported lazily: the store package reaches back into this package
    # (journal/atomic), and the doctor must stay importable from
    # ``repro.robust`` during interpreter start-up.
    from repro.store.attempt_store import verify_store

    report = verify_store(root)
    return StoreDiagnosis(
        root=root,
        verify=report,
        stale=list(report.stale),
        quarantine=list(report.quarantine),
    )


def examine(path: str) -> LogDiagnosis:
    """Sniff the file format and produce a verdict (never raises on
    corrupt content; missing files still raise ``OSError``)."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        first_line = handle.readline().rstrip("\n")
    if first_line.startswith(MAGIC.rstrip("0123456789")):
        return _diagnose_journal(path)
    stripped = first_line.lstrip()
    if stripped.startswith("{"):
        try:
            header = json.loads(first_line)
        except (json.JSONDecodeError, RecursionError):
            header = None
        if isinstance(header, dict) and header.get("format") == "pres-trace":
            return _diagnose_trace_jsonl(path, first_line)
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return _diagnose_json_blob(path, handle.read())
    return LogDiagnosis(
        path=path,
        format="unknown",
        status=UNRECOVERABLE,
        detail="unrecognized file format",
    )


def write_salvaged(diagnosis: LogDiagnosis, out_path: str) -> str:
    """Write the recovered prefix of a salvageable file; returns the path."""
    if diagnosis.status != SALVAGEABLE:
        raise SketchFormatError(
            f"{diagnosis.path} is {diagnosis.status}; nothing to salvage"
        )
    if diagnosis.salvaged_text is not None:
        from repro.robust.atomic import atomic_write_text

        return atomic_write_text(out_path, diagnosis.salvaged_text)
    report = diagnosis.salvage
    if report is None:
        raise SketchFormatError(f"{diagnosis.path} has no salvageable content")
    writer = journal_mod.JournalWriter(out_path, report.kind, report.meta)
    try:
        for record in report.records:
            writer.append(record)
        writer.commit(
            {
                "salvaged_from": diagnosis.path,
                "complete": False,
                "dropped_lines": report.dropped_lines,
                "reason": report.reason,
            }
        )
    finally:
        writer.close()
    return out_path
