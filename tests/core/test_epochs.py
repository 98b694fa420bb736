"""Rolling-epoch recording and last-epoch in-situ replay.

Pins the contracts the epoch machinery rests on: boundaries are a pure
function of the schedule (same seed, same boundaries), the retention
window truncates deterministically on a boundary, explicit
``ctx.epoch_barrier()`` markers cut where the application asked, the
epoch walk reproduces windowed recordings without regressing plain
reproduction, and the full-history fallback rung exists exactly when
nothing was truncated.
"""

import pytest

from repro.core.epochs import (
    EpochConfig,
    base_tag,
    suffix_log,
)
from repro.core.explorer import ExplorerConfig
from repro.core.parallel import ParallelExplorer
from repro.core.recorder import record
from repro.core.reproducer import (
    epoch_replay_ladder,
    render_report,
    reproduce,
)
from repro.core.sketches import SketchKind
from repro.errors import SimUsageError
from repro.sim import MachineConfig, Program

from tests.conftest import counter_program, find_seed, order_violation_program


def epoch_record(program, steps, window, seed=0, **kwargs):
    return record(
        program,
        sketch=SketchKind.SYNC,
        seed=seed,
        epochs=EpochConfig(steps=steps, window=window),
        **kwargs,
    )


class TestEpochConfig:
    def test_negative_steps_rejected(self):
        with pytest.raises(SimUsageError, match="epoch-steps"):
            EpochConfig(steps=-1).validate()

    def test_negative_window_rejected(self):
        with pytest.raises(SimUsageError, match="epoch-window"):
            EpochConfig(steps=10, window=-2).validate()

    def test_zero_steps_disables_epochs(self):
        assert not EpochConfig(steps=0, window=5).enabled
        recorded = record(
            counter_program(), sketch=SketchKind.SYNC, seed=3,
            epochs=EpochConfig(steps=0, window=5),
        )
        assert recorded.epochs is None


class TestBoundaryDeterminism:
    def test_same_seed_same_boundaries(self):
        a = epoch_record(counter_program(nworkers=3, iters=6), 15, 0, seed=7)
        b = epoch_record(counter_program(nworkers=3, iters=6), 15, 0, seed=7)
        assert a.epochs is not None
        assert [(x.epoch, x.step, x.entry_index) for x in a.epochs.boundaries] \
            == [(x.epoch, x.step, x.entry_index) for x in b.epochs.boundaries]
        assert a.log.to_bytes() == b.log.to_bytes()

    def test_epoch_recording_does_not_perturb_the_log(self):
        # Cutting boundaries (and capturing snapshots) must not change
        # which events execute or which entries are sketched.
        plain = record(counter_program(), sketch=SketchKind.SYNC, seed=5)
        epoched = epoch_record(counter_program(), 10, 0, seed=5)
        assert epoched.log.entries == plain.log.entries

    def test_boundary_pitch_respected(self):
        recorded = epoch_record(counter_program(nworkers=3, iters=6), 12, 0)
        boundaries = recorded.epochs.boundaries
        assert boundaries, "run too short to cut a single boundary"
        previous = 0
        for boundary in boundaries:
            assert boundary.step - previous >= 12
            previous = boundary.step


class TestTruncation:
    def make(self, window):
        return epoch_record(
            counter_program(nworkers=3, iters=6), 10, window, seed=4
        )

    def test_window_arithmetic(self):
        full = self.make(0)
        windowed = self.make(2)
        timeline = windowed.epochs
        assert timeline.total_epochs == full.epochs.total_epochs
        assert timeline.truncated_epochs == max(0, timeline.total_epochs - 2)
        assert timeline.retained_epochs == min(2, timeline.total_epochs)
        assert timeline.truncated_entries + len(windowed.log) == len(full.log)

    def test_cut_falls_on_a_boundary(self):
        full = self.make(0)
        windowed = self.make(2)
        cut = windowed.epochs.truncated_entries
        assert cut in [b.entry_index for b in full.epochs.boundaries]
        # The retained log is exactly the suffix of the full log.
        assert windowed.log.entries == full.log.entries[cut:]

    def test_rolling_retention_bounds_snapshots(self):
        # An always-on recorder keeps at most `window` snapshots alive,
        # dropped *during* the run, not only at finalize.
        windowed = self.make(2)
        with_snapshot = [
            b for b in windowed.epochs.boundaries if b.snapshot is not None
        ]
        assert 1 <= len(with_snapshot) <= 2
        assert windowed.epochs.replay_bases()[0] is with_snapshot[-1]

    def test_window_zero_keeps_everything(self):
        full = self.make(0)
        assert full.epochs.truncated_entries == 0
        assert full.epochs.truncated_epochs == 0
        assert all(b.snapshot is not None for b in full.epochs.boundaries)


def _barrier_worker(ctx, n):
    for _ in range(n):
        value = yield ctx.read("counter")
        yield ctx.write("counter", value + 1)
        yield ctx.epoch_barrier()
    return n


def _barrier_main(ctx, n):
    tid = yield ctx.spawn(_barrier_worker, n)
    yield ctx.join(tid)


def barrier_program(n: int = 3) -> Program:
    return Program(
        name="barrier",
        main=_barrier_main,
        params={"n": n},
        initial_memory={"counter": 0},
    )


class TestExplicitBarrier:
    def test_barrier_cuts_explicit_boundaries(self):
        # Pitch far beyond the run length: every boundary comes from the
        # application's own epoch_barrier() markers.
        recorded = epoch_record(barrier_program(), 10_000, 0)
        boundaries = recorded.epochs.boundaries
        assert len(boundaries) == 3
        assert all(b.explicit for b in boundaries)

    def test_barrier_without_epochs_is_an_ordinary_syscall(self):
        # No EpochConfig: the marker is just a SYS-visible syscall entry.
        recorded = record(barrier_program(), sketch=SketchKind.SYS, seed=0)
        assert recorded.epochs is None
        assert any(
            "epoch_barrier" in str(entry.key) for entry in recorded.log
        )


class TestSuffixLog:
    def test_suffix_matches_boundary(self):
        recorded = epoch_record(counter_program(nworkers=3, iters=6), 10, 2)
        timeline = recorded.epochs
        boundary = timeline.replay_bases()[0]
        derived = suffix_log(
            recorded.log, timeline, boundary,
            program_name=recorded.program.name, seed=recorded.seed,
        )
        rel = boundary.entry_index - timeline.truncated_entries
        assert derived.entries == recorded.log.entries[rel:]
        assert derived.base_tag == base_tag(
            recorded.program.name, recorded.seed, boundary
        )

    def test_base_tag_separates_fingerprints(self):
        # An epoch suffix replays from a snapshot, not step 0: its cache
        # identity must never collide with a same-entries full log.
        recorded = epoch_record(counter_program(nworkers=3, iters=6), 10, 2)
        timeline = recorded.epochs
        boundary = timeline.replay_bases()[0]
        derived = suffix_log(
            recorded.log, timeline, boundary,
            program_name=recorded.program.name, seed=recorded.seed,
        )
        bare = suffix_log(
            recorded.log, timeline, boundary,
            program_name=recorded.program.name, seed=recorded.seed,
        )
        bare.base_tag = ""
        assert derived.fingerprint() != bare.fingerprint()

    def test_out_of_range_boundary_rejected(self):
        recorded = epoch_record(counter_program(nworkers=3, iters=6), 10, 2)
        timeline = recorded.epochs
        boundary = timeline.replay_bases()[0]
        import dataclasses as _dc
        bad = _dc.replace(boundary, entry_index=timeline.truncated_entries - 1)
        with pytest.raises(SimUsageError, match="outside"):
            suffix_log(
                recorded.log, timeline, bad,
                program_name=recorded.program.name, seed=recorded.seed,
            )


def failing_epoch_record(steps, window):
    program = order_violation_program()
    seed = find_seed(program)
    return epoch_record(
        program, steps, window, seed=seed, config=MachineConfig(ncpus=4),
    )


class TestWindowedReproduce:
    CONFIG = ExplorerConfig(max_attempts=300)

    def test_windowed_reproduction_succeeds(self):
        recorded = failing_epoch_record(10, 2)
        assert recorded.failed
        report = reproduce(recorded, self.CONFIG)
        assert report.success
        assert report.epoch_path
        assert any(r.success for r in report.epoch_path)

    def test_report_identical_across_jobs(self):
        recorded = failing_epoch_record(10, 2)
        serial = render_report(reproduce(recorded, self.CONFIG))
        for jobs in (2, 4):
            parallel = render_report(
                reproduce(recorded, self.CONFIG, jobs=jobs)
            )
            assert parallel == serial, f"jobs={jobs} diverged"

    def test_full_history_rung_only_when_untruncated(self):
        truncated = failing_epoch_record(10, 2)
        if truncated.epochs.truncated_entries > 0 \
                or truncated.epochs.truncated_epochs > 0:
            assert None not in epoch_replay_ladder(truncated)
        untruncated = failing_epoch_record(10, 0)
        assert untruncated.epochs.truncated_entries == 0
        assert epoch_replay_ladder(untruncated)[-1] is None

    def test_unwindowed_recording_falls_back_to_plain_reproduce(self):
        program = order_violation_program()
        seed = find_seed(program)
        recorded = record(
            program, sketch=SketchKind.SYNC, seed=seed,
            config=MachineConfig(ncpus=4),
        )
        assert recorded.epochs is None
        walked = reproduce(recorded, self.CONFIG)
        plain = ParallelExplorer(recorded, self.CONFIG).explore()
        assert walked.success and plain.success
        assert walked.records == plain.attempts
        assert walked.winning_constraints == plain.winning_constraints
        assert walked.complete_log.schedule == list(
            plain.winning_trace.schedule
        )
        assert walked.epoch_path == [] and walked.degradation_path == []
        assert walked.outcome_reason == ""

    def test_walks_that_do_not_compose_are_refused(self):
        recorded = failing_epoch_record(10, 2)
        with pytest.raises(SimUsageError, match="degrade"):
            reproduce(recorded, self.CONFIG, degrade=True)

    def test_outcome_reason_names_the_rung(self):
        recorded = failing_epoch_record(10, 2)
        report = reproduce(recorded, self.CONFIG)
        assert report.success
        assert "epoch" in report.outcome_reason or \
            "full history" in report.outcome_reason
