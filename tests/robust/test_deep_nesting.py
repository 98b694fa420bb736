"""Decoders of persisted and network input fail with their named error.

A JSON document nested 100k deep makes ``json.loads`` raise a raw
``RecursionError``; every decoder must turn that (and a trace header
that is not an object, or lacks a key) into the error its callers
handle: ``ProtocolError`` 400 for a job request, ``PlanFormatError``
for a plan, ``SketchFormatError`` for logs and traces, ``ValueError``
for a Chrome trace, and a damaged frame or line that ``pres doctor``
salvages up to, never a traceback.
"""

import io
import struct
import zlib

import pytest

from repro.cli import main
from repro.core.full_replay import CompleteLog
from repro.core.plan import Plan, PlanFormatError
from repro.core.sketches import SketchKind
from repro.core.sketchlog import SketchLog
from repro.errors import SketchFormatError
from repro.obs.export import load_chrome_trace
from repro.robust.journal import salvage, sketch_journal_writer
from repro.service.protocol import JobRequest, ProtocolError
from repro.sim.persist import load_trace

DEEP = "[" * 100_000 + "]" * 100_000

TRACE_HEADER = '{"format": "pres-trace", "version": 1}'


def _binary_sketch_log(text, _):
    """A binary sketch log with no entries whose key table is ``text``."""
    magic_version_sketch = SketchLog(sketch=SketchKind.SYNC).to_bytes()[:6]
    table = text.encode()
    return SketchLog.from_bytes(
        magic_version_sketch + struct.pack("<II", len(table), 0) + table
    )


def _chrome_trace(text, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(text, encoding="utf-8")
    return load_chrome_trace(str(path))


DECODERS = {
    "job-request": (lambda text, _: JobRequest.from_json(text.encode()),
                    ProtocolError),
    "plan": (lambda text, _: Plan.from_json(text), PlanFormatError),
    "sketch-log": (lambda text, _: SketchLog.from_json(text),
                   SketchFormatError),
    "sketch-log-binary": (_binary_sketch_log, SketchFormatError),
    "complete-log": (lambda text, _: CompleteLog.from_json(text),
                     SketchFormatError),
    "trace-header": (lambda text, _: load_trace(io.StringIO(text + "\n")),
                     SketchFormatError),
    "trace-event": (lambda text, _: load_trace(io.StringIO(
        f"{TRACE_HEADER}\n{text}\n")), SketchFormatError),
    "chrome-trace": (_chrome_trace, ValueError),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_deep_nesting_raises_the_named_error(name, tmp_path):
    decode, error = DECODERS[name]
    with pytest.raises(error) as raised:
        decode(DEEP, tmp_path)
    if error is ProtocolError:
        assert raised.value.status == 400


@pytest.mark.parametrize(
    "header",
    ["[]", "null", "3", '"x"', TRACE_HEADER],
)
def test_trace_header_that_is_not_a_trace_raises_sketch_format_error(header):
    with pytest.raises(SketchFormatError):
        load_trace(io.StringIO(header + "\n"))


def _deep_frame_journal(path):
    """A sketch journal of three entries, then a CRC-valid frame whose
    payload is nested 100k deep."""
    with sketch_journal_writer(str(path), SketchKind.SYNC) as writer:
        for tid in range(3):
            writer.append([tid, "lock", "m"])
    text = f"[3,{DEEP}]"
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{crc:08x} {text}\n")


def test_deep_journal_frame_is_a_damaged_frame(tmp_path, capsys):
    path = tmp_path / "deep.journal"
    _deep_frame_journal(path)
    report = salvage(str(path))
    assert len(report.records) == 3
    assert report.reason.startswith("line 5:")

    assert main(["doctor", str(path)]) == 1
    assert "salvaged log written" in capsys.readouterr().out
    assert main(["doctor", f"{path}.salvaged"]) == 0


def test_doctor_on_a_deep_json_document_is_unrecoverable(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"a":' * 100_000 + "0" + "}" * 100_000)
    assert main(["doctor", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().out


def test_doctor_salvages_a_trace_before_a_deep_event_line(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text(f"{TRACE_HEADER}\n{DEEP}\n")
    assert main(["doctor", str(path)]) == 1
    assert "event at line 2 is corrupt" in capsys.readouterr().out
