"""Epoch-windowed always-on recording vs full history (experiment E18).

PRES as published keeps the entire sketch log; the epoch recorder
(:mod:`repro.core.epochs`) retains only the trailing window and replays
from the newest boundary snapshot.  E18 pins the bargain on the T1
suite, per bug:

* **log size** — retained (windowed) log bytes vs the full-history log
  of the same production run; on the long-running server workloads
  (apache, mysql, cherokee) the windowed log must be *strictly* smaller.
* **attempts** — :func:`~repro.core.reproducer.reproduce` of the
  windowed recording (its epoch walk) against the full-history
  recording's plain session (E3's SYNC arm): last-epoch in-situ replay
  must reproduce every bug in no more attempts than the full-history
  search.
* **determinism** — on the server bugs, the rendered report must be
  byte-identical across ``jobs`` ∈ {1, 2, 4} and across window sizes K
  and K+1 (both cover the bug window, so the walk reproduces on the
  same rung either way).

Two per-bug adaptive choices keep the experiment meaningful without
hand tuning.  The production run is the *longest* failing run the seed
budget finds (:func:`~repro.bench.seeds.find_longest_failing_seed`) —
the always-on scenario is a long run ahead of the failure, and a seed
whose run dies in 50 steps leaves nothing to window.  The boundary
pitch is then derived from that run's own length, so every bug gets a
multi-epoch timeline with real truncation.  ``tools/check_epochs.py``
gates CI on the JSON this module emits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.apps import all_bugs
from repro.apps.spec import BugSpec
from repro.bench.results import BenchResult
from repro.bench.seeds import find_longest_failing_seed
from repro.core.epochs import EpochConfig
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import RecordedRun, record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig

#: the long-running server workloads the windowing story is *for*: their
#: production runs dwarf the bug window, so these are where the strict
#: log-size win and the determinism contracts are asserted.
E18_SERVER_BUGS = ("apache-atom-buf", "mysql-atom-log", "mysql-atom-drop",
                   "cherokee-atom-time")
E18_NCPUS = 4
E18_MAX_ATTEMPTS = 400
E18_WINDOW = 2
#: aim for about this many epochs per run when deriving the pitch.
E18_TARGET_EPOCHS = 3
#: jobs values the server-bug reports must be byte-identical across.
E18_JOBS_ARMS = (1, 2, 4)


@dataclass
class EpochBenchRow:
    """One bug's full-history vs epoch-windowed comparison."""

    bug_id: str
    seed: int
    steps: int
    window: int
    total_epochs: int
    truncated_entries: int
    full_bytes: int
    windowed_bytes: int
    full_entries: int
    windowed_entries: int
    full_attempts: int
    full_success: bool
    windowed_attempts: int
    windowed_success: bool
    #: which rung reproduced ("epoch N (step S)" / "full history" / "").
    reproduced_from: str = ""
    #: report byte-identity across jobs arms (server bugs; None = not run).
    jobs_identical: Optional[bool] = None
    #: report byte-identity across window K vs K+1 (server bugs).
    window_identical: Optional[bool] = None

    @property
    def bytes_saved_percent(self) -> float:
        if self.full_bytes <= 0:
            return 0.0
        return 100.0 * (1.0 - self.windowed_bytes / self.full_bytes)

    def to_record(self) -> Dict[str, Any]:
        return {
            "bug": self.bug_id,
            "seed": self.seed,
            "steps": self.steps,
            "window": self.window,
            "total_epochs": self.total_epochs,
            "truncated_entries": self.truncated_entries,
            "full_bytes": self.full_bytes,
            "windowed_bytes": self.windowed_bytes,
            "full_entries": self.full_entries,
            "windowed_entries": self.windowed_entries,
            "bytes_saved_percent": round(self.bytes_saved_percent, 2),
            "full_attempts": self.full_attempts,
            "full_success": self.full_success,
            "windowed_attempts": self.windowed_attempts,
            "windowed_success": self.windowed_success,
            "reproduced_from": self.reproduced_from,
            "jobs_identical": self.jobs_identical,
            "window_identical": self.window_identical,
            "server_bug": self.bug_id in E18_SERVER_BUGS,
        }


def epoch_pitch(recorded_full: RecordedRun) -> int:
    """The per-bug boundary pitch: about :data:`E18_TARGET_EPOCHS` epochs.

    Derived from the production run's own event count (steps and events
    are 1:1 in the simulator), so every bug gets a multi-epoch timeline
    regardless of how long its run is.
    """
    return max(10, recorded_full.stats.total_events // E18_TARGET_EPOCHS)


def _record_windowed(
    spec: BugSpec, seed: int, steps: int, window: int
) -> RecordedRun:
    return record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=E18_NCPUS),
        oracle=spec.oracle,
        epochs=EpochConfig(steps=steps, window=window),
    )


def epoch_bench_row(
    spec: BugSpec,
    max_attempts: int = E18_MAX_ATTEMPTS,
    window: int = E18_WINDOW,
    seed: Optional[int] = None,
) -> EpochBenchRow:
    """Run one bug's full-vs-windowed comparison (both from one seed)."""
    if seed is None:
        seed = find_longest_failing_seed(spec, ncpus=E18_NCPUS)
    if seed is None:
        raise RuntimeError(f"{spec.bug_id}: no failing production run found")
    full = record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=E18_NCPUS),
        oracle=spec.oracle,
    )
    steps = epoch_pitch(full)
    windowed = _record_windowed(spec, seed, steps, window)
    config = ExplorerConfig(max_attempts=max_attempts)
    full_report = reproduce(full, config)
    windowed_report = reproduce(windowed, config)
    reproduced_from = ""
    for rung in windowed_report.epoch_path:
        if rung.success:
            reproduced_from = (
                "full history" if rung.full_history
                else f"epoch {rung.epoch} (step {rung.step})"
            )
            break
    row = EpochBenchRow(
        bug_id=spec.bug_id,
        seed=seed,
        steps=steps,
        window=window,
        total_epochs=(
            windowed.epochs.total_epochs if windowed.epochs is not None else 1
        ),
        truncated_entries=(
            windowed.epochs.truncated_entries
            if windowed.epochs is not None else 0
        ),
        full_bytes=full.stats.log_bytes,
        windowed_bytes=windowed.stats.log_bytes,
        full_entries=len(full.log),
        windowed_entries=len(windowed.log),
        full_attempts=full_report.attempts,
        full_success=full_report.success,
        windowed_attempts=windowed_report.attempts,
        windowed_success=windowed_report.success,
        reproduced_from=reproduced_from,
    )
    if spec.bug_id in E18_SERVER_BUGS:
        baseline = render_report(windowed_report)
        row.jobs_identical = all(
            render_report(
                reproduce(windowed, config, jobs=jobs)
            ) == baseline
            for jobs in E18_JOBS_ARMS
        )
        wider = _record_windowed(spec, seed, steps, window + 1)
        row.window_identical = (
            render_report(reproduce(wider, config)) == baseline
        )
    return row


def build_e18() -> BenchResult:
    rows = []
    records = []
    for spec in all_bugs():
        row = epoch_bench_row(spec)
        rows.append(
            [row.bug_id, row.total_epochs,
             row.full_bytes, row.windowed_bytes,
             f"{row.bytes_saved_percent:.0f}%",
             row.full_attempts if row.full_success
             else f">{row.full_attempts}",
             row.windowed_attempts if row.windowed_success
             else f">{row.windowed_attempts}",
             row.reproduced_from or "-",
             _tri(row.jobs_identical), _tri(row.window_identical)]
        )
        records.append(row.to_record())
    return BenchResult(
        experiment="e18",
        title="E18: epoch-windowed vs full-history recording "
              f"(window {E18_WINDOW}, cap {E18_MAX_ATTEMPTS})",
        headers=["bug", "epochs", "full B", "window B", "saved",
                 "full att", "win att", "reproduced from",
                 "jobs ==", "K/K+1 =="],
        rows=rows,
        records=records,
        meta={
            "window": E18_WINDOW,
            "max_attempts": E18_MAX_ATTEMPTS,
            "jobs_arms": list(E18_JOBS_ARMS),
            "server_bugs": list(E18_SERVER_BUGS),
        },
    )


def _tri(value: Optional[bool]) -> str:
    """Render the tri-state identity cells: yes / NO / not asserted."""
    if value is None:
        return "-"
    return "yes" if value else "NO"
