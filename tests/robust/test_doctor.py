"""`pres doctor` triage, exit codes, and the fault-tolerance CLI surface."""

import io
import json
import os

import pytest

from repro.apps import get_bug
from repro.cli import main
from repro.core.recorder import record, record_with_trace
from repro.core.sketches import SketchKind
from repro.robust.doctor import OK, SALVAGEABLE, UNRECOVERABLE, examine, write_salvaged
from repro.robust.journal import write_sketch_journal
from repro.sim.persist import dump_trace, load_trace

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "corrupt_sketch.journal"
)

#: ``pres reproduce`` over a journal of the pbzip2 seed-3 RW recording
#: truncated to 900 bytes, which salvage cuts back to 19 entries.
TRUNCATED_RUN = [
    "reproduce", "pbzip2-order-free", "--seed", "3", "--sketch", "rw",
    "--inject-fault", "truncate@900", "--salvage", "--max-attempts", "100",
]


def _summary(out):
    """The report's summary line in ``pres reproduce`` output."""
    return next(
        line for line in out.splitlines()
        if line.startswith("pbzip2-order-free [")
    )


@pytest.fixture
def sketch_journal(tmp_path):
    spec = get_bug("pbzip2-order-free")
    run = record(spec.make_program(), sketch=SketchKind.RW, seed=3)
    path = tmp_path / "sketch.journal"
    write_sketch_journal(run.log, str(path))
    return path


@pytest.fixture
def trace(tmp_path):
    spec = get_bug("pbzip2-order-free")
    _, trace = record_with_trace(spec.make_program(), sketch=SketchKind.RW, seed=3)
    return trace


class TestExamine:
    def test_intact_journal_is_ok(self, sketch_journal):
        diagnosis = examine(str(sketch_journal))
        assert diagnosis.status == OK
        assert diagnosis.format == "sketch-journal"
        assert diagnosis.exit_code == 0

    def test_torn_journal_is_salvageable_and_heals(self, tmp_path, sketch_journal):
        data = sketch_journal.read_bytes()
        sketch_journal.write_bytes(data[: len(data) // 2])
        diagnosis = examine(str(sketch_journal))
        assert diagnosis.status == SALVAGEABLE
        assert diagnosis.exit_code == 1
        assert diagnosis.valid_records > 0

        healed = tmp_path / "healed.journal"
        write_salvaged(diagnosis, str(healed))
        again = examine(str(healed))
        assert again.status == OK
        assert again.valid_records == diagnosis.valid_records

    def test_garbage_is_unrecoverable(self, tmp_path):
        path = tmp_path / "noise.log"
        path.write_text("total nonsense\n")
        diagnosis = examine(str(path))
        assert diagnosis.status == UNRECOVERABLE
        assert diagnosis.exit_code == 2

    def test_sketch_json_blob_valid_and_corrupt(self, tmp_path):
        spec = get_bug("pbzip2-order-free")
        run = record(spec.make_program(), sketch=SketchKind.RW, seed=3)
        path = tmp_path / "sketch.json"
        path.write_text(run.log.to_json())
        assert examine(str(path)).status == OK

        path.write_text(path.read_text()[:-30])
        assert examine(str(path)).status == UNRECOVERABLE

    def test_trace_jsonl_valid_and_torn(self, tmp_path, trace):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            dump_trace(trace, handle)
        assert examine(str(path)).status == OK

        lines = path.read_text().splitlines()
        lines[40] = lines[40][: len(lines[40]) // 2]
        path.write_text("\n".join(lines) + "\n")
        diagnosis = examine(str(path))
        assert diagnosis.status == SALVAGEABLE
        assert diagnosis.valid_records > 0

        out = tmp_path / "trace.salvaged"
        write_salvaged(diagnosis, str(out))
        with open(out, "r", encoding="utf-8") as handle:
            salvaged = load_trace(handle)
        assert len(salvaged.events) == diagnosis.valid_records


class TestDoctorCli:
    def test_exit_0_on_intact(self, capsys, sketch_journal):
        assert main(["doctor", str(sketch_journal)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_exit_1_writes_salvaged_file(self, capsys, tmp_path, sketch_journal):
        data = sketch_journal.read_bytes()
        sketch_journal.write_bytes(data[: len(data) - 7])
        out = tmp_path / "recovered.journal"
        assert main(["doctor", str(sketch_journal), "--out", str(out)]) == 1
        assert "salvaged log written" in capsys.readouterr().out
        assert main(["doctor", str(out)]) == 0

    def test_exit_2_on_garbage(self, capsys, tmp_path):
        path = tmp_path / "noise.log"
        path.write_text("total nonsense\n")
        assert main(["doctor", str(path)]) == 2

    def test_exit_2_on_missing_file(self, capsys, tmp_path):
        assert main(["doctor", str(tmp_path / "no-such-file")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checked_in_corrupt_fixture_is_salvageable(self, capsys, tmp_path):
        out = tmp_path / "fixture.salvaged"
        assert main(["doctor", FIXTURE, "--out", str(out)]) == 1
        assert out.exists()
        assert main(["doctor", str(out)]) == 0


class TestFaultToleranceCli:
    def test_record_kill_exits_cleanly_with_salvage_note(self, capsys, tmp_path):
        journal = tmp_path / "killed.journal"
        code = main(
            ["record", "pbzip2-order-free", "--seed", "3", "--sketch", "rw",
             "--journal", str(journal), "--inject-fault", "kill@40"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault injected" in out
        assert "salvaged" in out
        assert main(["doctor", str(journal), "--out",
                     str(tmp_path / "k.salvaged")]) == 1

    def test_record_file_fault_needs_a_target(self, capsys):
        code = main(
            ["record", "pbzip2-order-free", "--seed", "3",
             "--inject-fault", "truncate@100"]
        )
        assert code == 2
        assert "--journal" in capsys.readouterr().err

    def test_bad_fault_spec_exits_2(self, capsys):
        code = main(
            ["record", "pbzip2-order-free", "--seed", "3",
             "--inject-fault", "explode@3"]
        )
        assert code == 2
        assert "bad fault spec" in capsys.readouterr().err

    def test_reproduce_salvage_degrade_pipeline(self, capsys, tmp_path):
        journal = tmp_path / "sketch.journal"
        code = main(
            TRUNCATED_RUN + ["--journal", str(journal), "--degrade"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault injected" in out
        assert "salvaged" in out
        assert "rung" in out
        assert "outcome:" in out
        # the CLI stamps the salvage accounting on the degradation report
        assert _summary(out).endswith("[salvaged 19 entries]")

    def test_reproduce_salvage_without_degrade_stamps_nothing(
        self, capsys, tmp_path
    ):
        journal = tmp_path / "sketch.journal"
        code = main(TRUNCATED_RUN + ["--journal", str(journal)])
        out = capsys.readouterr().out
        assert code == 0
        assert "salvaged 19 record(s)" in out
        assert "salvaged" not in _summary(out)

    def test_reproduce_salvage_requires_journal(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3", "--salvage"]
        )
        assert code == 2
        assert "--salvage needs --journal" in capsys.readouterr().err

    def test_reproduce_kill_is_a_clean_failure(self, capsys, tmp_path):
        journal = tmp_path / "killed.journal"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--journal", str(journal), "--inject-fault", "kill@20"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "nothing to reproduce" in err

    def test_corrupt_complete_log_exits_2_with_hint(self, capsys, tmp_path):
        path = tmp_path / "complete.json"
        path.write_text('{"program_name": "x", "schedule": [1, 2')
        code = main(["replay", "pbzip2-order-free", "--log", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
