"""Crash-consistent journaling for sketch logs and traces.

The rest of the package serializes whole artifacts at once — useless when
the defining PRES scenario is a production process that *dies while
recording*.  This module provides the append-only alternative: a
:class:`JournalWriter` that flushes every record as it is written, and a
:func:`salvage` reader that recovers the longest valid prefix from a torn
or corrupted file instead of raising.

Format (text, line-oriented)::

    PRESJ1 <crc32> <header json>
    <crc32> <record json>
    <crc32> <record json>
    ...
    <crc32> <footer json>

* The header json is ``{"kind": ..., "meta": {...}}``; ``kind`` names the
  payload schema (``"sketch"`` or ``"trace"``).
* Each subsequent line carries one record as ``[seq, payload]`` — the
  sequence number detects silently *dropped* lines, which per-line CRCs
  alone cannot.
* The crc32 (8 hex digits) covers the json text of its own line, so a
  torn tail or a flipped bit invalidates exactly the lines it touches.
* A *footer* is a record whose payload is ``{"__footer__": {...}}``,
  written only when the run completes; its absence marks a journal left
  behind by a crash.

:func:`salvage` walks the file and stops at the first invalid line (bad
CRC, bad json, or a sequence gap): everything before it is trustworthy,
everything after it is not — a record missing from the middle of a sketch
would silently desynchronize replay, so the prefix property is exactly
what replay needs.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.core.sketches import SketchKind
from repro.core.sketchlog import SketchLog, entry_from_record, entry_record
from repro.errors import SketchFormatError

#: First token of every journal file; the trailing digit is the version.
MAGIC = "PRESJ1"


def _frame(payload: Any) -> str:
    """One journal line (without the magic prefix) for ``payload``."""
    text = json.dumps(payload, separators=(",", ":"), sort_keys=False)
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {text}"


def _unframe(line: str) -> Any:
    """Decode one framed line; raises ``ValueError`` on any corruption."""
    if len(line) < 10 or line[8] != " ":
        raise ValueError("malformed frame")
    crc_text, text = line[:8], line[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        raise ValueError("malformed checksum") from None
    actual = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise ValueError(
            f"checksum mismatch (stored {crc_text}, computed {actual:08x})"
        )
    return json.loads(text)


class JournalWriter:
    """Append-only, incrementally-flushed journal.

    Every :meth:`append` writes one checksummed line and flushes it, so a
    process killed at any instant leaves at most one torn line at the
    tail.  Pass ``fsync=True`` to also force the OS to persist each
    record (slower; the tests don't need it, a real deployment would).

    With ``resume=True`` an existing journal at ``path`` is *continued*
    instead of truncated: the valid record prefix is kept (a torn tail is
    healed first — see :func:`resume_journal`), sequence numbering picks
    up where the file left off, and new appends extend the same file.
    This is what the attempt store's shards use to accumulate records
    across process runs.
    """

    def __init__(
        self,
        path: str,
        kind: str,
        meta: Optional[Dict[str, Any]] = None,
        fsync: bool = False,
        resume: bool = False,
    ) -> None:
        self.path = path
        self.kind = kind
        self.meta = dict(meta or {})
        self.fsync = fsync
        self._seq = 0
        self._closed = False
        #: salvage report of the pre-existing file when ``resume`` found
        #: one (``None`` for a fresh journal); lets callers count healed
        #: tails without re-reading the file.
        self.resume_report: Optional["SalvageReport"] = None
        if resume and os.path.exists(path) and os.path.getsize(path) > 0:
            self._handle, self._seq = _resume_handle(self, path, kind)
        else:
            self._handle: IO[str] = open(path, "w", encoding="utf-8")
            header = {"kind": kind, "meta": self.meta}
            self._write_line(f"{MAGIC} {_frame(header)}")

    # -- write path -------------------------------------------------------

    def _write_line(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def append(self, payload: Any) -> int:
        """Journal one record; returns its sequence number."""
        if self._closed:
            raise SketchFormatError(f"journal {self.path} is closed")
        seq = self._seq
        self._seq += 1
        self._write_line(_frame([seq, payload]))
        return seq

    def commit(self, footer: Optional[Dict[str, Any]] = None) -> None:
        """Write the completion footer; the journal becomes *intact*."""
        payload = {"__footer__": dict(footer or {})}
        payload["__footer__"].setdefault("records", self._seq)
        self.append(payload)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.close()

    @property
    def records_written(self) -> int:
        return self._seq

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class SalvageReport:
    """What :func:`salvage` recovered from one journal file."""

    path: str
    #: journal kind from the header, or ``None`` when the header itself
    #: is unreadable (the unrecoverable case).
    kind: Optional[str] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: payloads of the valid record prefix, footer excluded.
    records: List[Any] = field(default_factory=list)
    #: the footer payload when one was reached, else ``None``.
    footer: Optional[Dict[str, Any]] = None
    total_lines: int = 0
    #: lines past the valid prefix that had to be discarded.
    dropped_lines: int = 0
    #: why salvage stopped early ("" when the whole file validated).
    reason: str = ""

    @property
    def intact(self) -> bool:
        """Header, every record, and the completion footer all validated."""
        return (
            self.kind is not None
            and self.dropped_lines == 0
            and self.footer is not None
        )

    @property
    def salvageable(self) -> bool:
        """The header validated, so the record prefix is trustworthy."""
        return self.kind is not None and not self.intact

    @property
    def unrecoverable(self) -> bool:
        """Not even the header survived; nothing can be trusted."""
        return self.kind is None

    def describe(self) -> str:
        if self.intact:
            return (
                f"{self.path}: intact {self.kind} journal, "
                f"{len(self.records)} record(s)"
            )
        if self.unrecoverable:
            return f"{self.path}: unrecoverable ({self.reason})"
        return (
            f"{self.path}: salvaged {len(self.records)} record(s) from "
            f"{self.kind} journal, dropped {self.dropped_lines} line(s)"
            + (f" ({self.reason})" if self.reason else "")
        )


def _read_header(line: str) -> Tuple[str, Dict[str, Any]]:
    """Decode the header line; raises ``ValueError`` when corrupt."""
    if not line.startswith(MAGIC + " "):
        raise ValueError(f"missing {MAGIC} magic")
    header = _unframe(line[len(MAGIC) + 1:])
    if not isinstance(header, dict) or "kind" not in header:
        raise ValueError("header is not a journal header object")
    return str(header["kind"]), dict(header.get("meta") or {})


def salvage(path: str) -> SalvageReport:
    """Recover the longest valid prefix of a journal; never raises on
    corrupt *content* (missing files still raise ``OSError``).

    Stops at the first bad line — torn tail, flipped bits, or a sequence
    gap left by a dropped record — because records past a gap can no
    longer be trusted to be *the next* records.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return salvage_text(handle.read(), path)


def salvage_text(text: str, path: str = "<memory>") -> SalvageReport:
    """:func:`salvage`, but over journal content already in memory.

    Lets callers that hold one open handle (:func:`repro.sim.persist.
    read_trace` sniffing formats, the attempt store healing a shard)
    validate without a second racy ``open`` of the same path.
    """
    report = SalvageReport(path=path)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    report.total_lines = len(lines)
    if not lines:
        report.reason = "empty file"
        return report

    try:
        report.kind, report.meta = _read_header(lines[0])
    except (ValueError, json.JSONDecodeError, RecursionError) as exc:
        report.kind = None
        report.reason = f"corrupt header: {exc}"
        report.dropped_lines = len(lines)
        return report

    expected_seq = 0
    for index, line in enumerate(lines[1:], start=2):
        try:
            record = _unframe(line)
            seq, payload = record
        except (ValueError, json.JSONDecodeError, TypeError, RecursionError) as exc:
            report.reason = f"line {index}: {exc}"
            break
        if seq != expected_seq:
            report.reason = (
                f"line {index}: sequence gap (expected record {expected_seq},"
                f" found {seq})"
            )
            break
        expected_seq += 1
        if isinstance(payload, dict) and "__footer__" in payload:
            report.footer = payload["__footer__"]
            # Records after a footer were appended after "completion";
            # treat the footer as the end of the trustworthy prefix.
            break
        report.records.append(payload)
    # expected_seq counts every validated record, the footer included.
    report.dropped_lines = report.total_lines - (1 + expected_seq)
    if report.footer is None and not report.reason:
        report.reason = "no completion footer (recorder died mid-run?)"
    return report


def read_journal(path: str) -> SalvageReport:
    """Strict read: raises :class:`SketchFormatError` on any corruption,
    naming the 1-based line of the first bad record."""
    return _strict(salvage(path), path)


def read_journal_text(text: str, path: str = "<memory>") -> SalvageReport:
    """Strict :func:`read_journal` over content already in memory."""
    return _strict(salvage_text(text, path), path)


def _strict(report: SalvageReport, path: str) -> SalvageReport:
    if report.unrecoverable:
        raise SketchFormatError(f"{path}: {report.reason}")
    if not report.intact:
        raise SketchFormatError(
            f"{path}: journal is damaged ({report.reason}); "
            f"run `pres doctor` or pass --salvage to recover "
            f"{len(report.records)} valid record(s)"
        )
    return report


def _resume_handle(
    writer: JournalWriter, path: str, kind: str
) -> Tuple[IO[str], int]:
    """Open an existing journal for continued appends (see ``resume=``).

    The pre-existing file is salvaged first.  A torn or corrupt tail is
    *healed* — the valid prefix is rewritten atomically, so records
    appended afterwards sit directly behind trustworthy lines instead of
    being stranded past garbage that salvage refuses to cross.  At most
    the torn line itself is lost, never the journal.
    """
    from repro.robust.atomic import atomic_writer

    report = salvage(path)
    if report.unrecoverable:
        raise SketchFormatError(
            f"{path}: cannot resume journal: {report.reason}"
        )
    if report.kind != kind:
        raise SketchFormatError(
            f"{path}: cannot resume a {report.kind!r} journal as {kind!r}"
        )
    if report.footer is not None:
        raise SketchFormatError(
            f"{path}: journal is committed; resuming would append past "
            "its completion footer"
        )
    writer.resume_report = report
    writer.meta = dict(report.meta)
    if report.dropped_lines > 0:
        # Heal: keep exactly the valid prefix, drop the torn tail.
        header = {"kind": report.kind, "meta": report.meta}
        with atomic_writer(path) as handle:
            handle.write(f"{MAGIC} {_frame(header)}\n")
            for seq, payload in enumerate(report.records):
                handle.write(_frame([seq, payload]) + "\n")
    return open(path, "a", encoding="utf-8"), len(report.records)


# -- sketch journals -------------------------------------------------------

SKETCH_KIND = "sketch"
TRACE_KIND = "trace"
#: journal kind of one attempt-store shard (see :mod:`repro.store`).
ATTEMPTS_KIND = "attempts"


def sketch_journal_writer(
    path: str, sketch: SketchKind, meta: Optional[Dict[str, Any]] = None
) -> JournalWriter:
    """Open a journal for one recording session's sketch entries."""
    merged = {"sketch": sketch.value}
    merged.update(meta or {})
    return JournalWriter(path, SKETCH_KIND, merged)


def write_sketch_journal(
    log: SketchLog, path: str, meta: Optional[Dict[str, Any]] = None
) -> None:
    """Journal an already-complete sketch log (conversion utility)."""
    with sketch_journal_writer(path, log.sketch, meta) as writer:
        for entry in log.entries:
            writer.append(entry_record(entry))
        writer.commit({"entries": len(log.entries)})


def sketch_log_from_salvage(report: SalvageReport) -> SketchLog:
    """Rebuild a (possibly partial) sketch log from salvaged records."""
    if report.kind != SKETCH_KIND:
        raise SketchFormatError(
            f"{report.path}: expected a sketch journal, found {report.kind!r}"
        )
    try:
        sketch = SketchKind(report.meta.get("sketch"))
    except ValueError:
        raise SketchFormatError(
            f"{report.path}: header names unknown sketch kind "
            f"{report.meta.get('sketch')!r}"
        ) from None
    log = SketchLog(sketch=sketch)
    for number, record in enumerate(report.records, start=1):
        try:
            log.append(entry_from_record(record))
        except (SketchFormatError, ValueError, TypeError) as exc:
            raise SketchFormatError(
                f"{report.path}: record {number}: {exc}"
            ) from None
    return log


def load_sketch_journal(
    path: str, allow_salvage: bool = False
) -> Tuple[SketchLog, SalvageReport]:
    """Load a sketch journal; with ``allow_salvage`` a damaged file yields
    its longest valid prefix instead of raising."""
    report = salvage(path) if allow_salvage else read_journal(path)
    if report.unrecoverable:
        raise SketchFormatError(f"{path}: {report.reason}")
    return sketch_log_from_salvage(report), report
