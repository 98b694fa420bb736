"""Rolling-epoch recording and last-epoch in-situ replay.

PRES as published keeps the whole sketch log, which is only affordable
when runs are short.  Production recorders must be *always-on*: the
server workloads (apache, mysql, cherokee) run far longer than the bug
window, so the recorder here segments the run into **epochs** — every
``--epoch-steps`` scheduler steps, or wherever the application yields an
explicit :meth:`~repro.sim.program.ThreadContext.epoch_barrier` — and
captures a :meth:`~repro.sim.machine.Machine.capture_state` snapshot at
each boundary, exactly the snapshot machinery the prefix-memoization
ladder (:mod:`repro.core.prefix`) already relies on.

Only the trailing ``--epoch-window`` epochs of sketch entries (and
boundary snapshots) are retained; everything older is dropped with
**deterministic truncation** — the cut falls on a boundary, boundaries
are a pure function of the schedule, and the schedule is a pure function
of the recording seed, so two recordings of the same run truncate
identically.  On failure, reproduction restores the newest healthy
boundary snapshot and searches only the epoch-local suffix instead of
re-simulating from step 0 (iReplayer-style last-epoch replay), walking
older boundaries — and finally full history, when nothing was truncated
— only if the suffix search comes up empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.core.sketchlog import SketchLog
from repro.errors import SimUsageError
from repro.sim.events import Event
from repro.sim.machine import Machine, Observer
from repro.sim.ops import OpKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.tracer import Tracer

#: syscall name of the explicit boundary marker op.
BARRIER_SYSCALL = "epoch_barrier"


@dataclass(frozen=True)
class EpochConfig:
    """Recorder-side epoch policy.

    :param steps: cut a boundary every this many scheduler steps
        (0 disables epoch recording entirely).
    :param window: retain only the trailing this-many epochs of sketch
        entries and snapshots (0 keeps everything — boundaries are still
        cut, so replay can start from the newest one).
    """

    steps: int = 0
    window: int = 0

    @property
    def enabled(self) -> bool:
        return self.steps > 0

    def validate(self) -> "EpochConfig":
        if self.steps < 0:
            raise SimUsageError(f"--epoch-steps must be >= 0, got {self.steps}")
        if self.window < 0:
            raise SimUsageError(f"--epoch-window must be >= 0, got {self.window}")
        return self


@dataclass
class EpochBoundary:
    """One recorded epoch boundary (it *opens* epoch ``epoch``)."""

    #: index of the epoch this boundary opens (boundary i opens epoch i;
    #: epoch 0 opens implicitly at step 0 with no boundary record).
    epoch: int
    #: scheduler steps executed when the boundary was cut.
    step: int
    #: sketch entries recorded before the boundary (absolute index).
    entry_index: int
    #: serialized :meth:`Machine.capture_state` blob; ``None`` once the
    #: rolling window dropped it (or if capture was disabled).
    snapshot: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: whether the barrier was an explicit ``ctx.epoch_barrier()`` rather
    #: than the every-N-steps rule.
    explicit: bool = False


@dataclass
class EpochTimeline:
    """Everything the diagnosis side needs to replay epoch-locally.

    Travels on :class:`~repro.core.recorder.RecordedRun`; boundaries are
    ordered oldest-first and only the retained window keeps snapshots.
    """

    steps: int
    window: int
    #: retained boundaries, oldest first.
    boundaries: List[EpochBoundary] = field(default_factory=list)
    #: total epochs the run produced (retained + truncated).
    total_epochs: int = 1
    #: whole epochs dropped off the front by the window.
    truncated_epochs: int = 0
    #: sketch entries dropped off the front by the window.
    truncated_entries: int = 0

    @property
    def retained_epochs(self) -> int:
        return self.total_epochs - self.truncated_epochs

    def replay_bases(self) -> List[EpochBoundary]:
        """Boundaries usable as replay bases, newest first."""
        return [b for b in reversed(self.boundaries) if b.snapshot is not None]

    def describe(self) -> str:
        return (
            f"{self.total_epochs} epochs (steps={self.steps}, "
            f"window={self.window or 'all'}): retained {self.retained_epochs}, "
            f"truncated {self.truncated_epochs} epochs / "
            f"{self.truncated_entries} entries"
        )


@dataclass(frozen=True)
class EpochResumeBase:
    """A picklable replay base: restore the snapshot, search the suffix.

    Lives on :class:`~repro.core.parallel.AttemptContext` so pool workers
    restore the boundary state instead of re-simulating the prefix; each
    attempt starts from it through
    :meth:`~repro.core.pir.PIRScheduler.resume`, as a prefix restore does.
    """

    #: machine snapshot (:meth:`~repro.sim.machine.Machine.capture_state`).
    state: Dict[str, Any]
    #: scheduler steps already executed inside the snapshot.
    step: int
    #: epoch index the base opens.
    epoch: int


def base_tag(program_name: str, seed: int, boundary: EpochBoundary) -> str:
    """Cache-key tag identifying the snapshot an epoch-suffix log replays
    from (folded into :meth:`SketchLog.fingerprint`)."""
    return f"{program_name}:{seed}:{boundary.epoch}:{boundary.step}"


def suffix_log(
    log: SketchLog,
    timeline: EpochTimeline,
    boundary: EpochBoundary,
    *,
    program_name: str,
    seed: int,
) -> SketchLog:
    """The epoch-local suffix of ``log`` from ``boundary`` onward.

    The returned log is a replay artifact, not a serialization one: it is
    single-epoch, and its fingerprint carries the snapshot identity so
    attempt-cache and store entries can never collide with a full-history
    log that happens to contain the same entries.
    """
    rel = boundary.entry_index - timeline.truncated_entries
    if rel < 0 or rel > len(log.entries):
        raise SimUsageError(
            f"boundary entry index {boundary.entry_index} outside the "
            f"retained log ({timeline.truncated_entries}..)"
        )
    derived = SketchLog(sketch=log.sketch, entries=list(log.entries[rel:]))
    derived.base_tag = base_tag(program_name, seed, boundary)
    return derived


class EpochTracker(Observer):
    """Recorder-side driver: watches for barriers, cuts boundaries.

    Attached as a machine observer *and* wired into
    :meth:`Machine.run`'s ``snapshot_when``/``on_snapshot`` hooks: the
    observer half latches explicit ``epoch_barrier`` markers mid-step,
    and the snapshot half fires at the next top-of-loop — the only point
    where machine state is clean enough to capture.
    """

    def __init__(
        self,
        config: EpochConfig,
        log: SketchLog,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.config = config.validate()
        self.log = log
        self.tracer = tracer
        self.boundaries: List[EpochBoundary] = []
        self._pending_barrier = False
        self._last_cut_step = 0
        self._epoch_span: Any = None

    # -- observer half ----------------------------------------------------

    def on_start(self, machine: Machine) -> None:
        self._epoch_span = self._open_span(0, 0)

    def on_event(self, machine: Machine, event: Event) -> None:
        if event.kind is OpKind.SYSCALL and event.name == BARRIER_SYSCALL:
            self._pending_barrier = True

    def on_finish(self, machine: Machine, trace: Any) -> None:
        self._close_span(len(machine.schedule), len(self.log))

    # -- snapshot half ----------------------------------------------------

    def should_cut(self, machine: Machine) -> bool:
        """``snapshot_when`` predicate: boundary due at this step?"""
        if self._pending_barrier:
            return True
        return (
            self.config.steps > 0
            and len(machine.schedule) - self._last_cut_step >= self.config.steps
        )

    def cut(self, machine: Machine) -> None:
        """``on_snapshot`` callback: capture state, open the next epoch."""
        step = len(machine.schedule)
        explicit = self._pending_barrier
        self._pending_barrier = False
        self._last_cut_step = step
        boundary = EpochBoundary(
            epoch=len(self.boundaries) + 1,
            step=step,
            entry_index=len(self.log),
            snapshot=machine.capture_state(),
            explicit=explicit,
        )
        self.boundaries.append(boundary)
        # Rolling retention: drop snapshots that fell out of the window
        # *during* the run, so an always-on recorder's memory stays
        # bounded by K snapshots regardless of run length.
        if self.config.window > 0:
            for old in self.boundaries[: -self.config.window]:
                old.snapshot = None
        self._close_span(step, boundary.entry_index)
        self._epoch_span = self._open_span(boundary.epoch, step)

    # -- epoch spans ------------------------------------------------------

    def _open_span(self, epoch: int, step: int) -> Any:
        if self.tracer is None:
            return None
        span = self.tracer.span(
            f"epoch {epoch}", category="record", epoch=epoch, start_step=step
        )
        span.__enter__()
        return span

    def _close_span(self, step: int, entries: int) -> None:
        span, self._epoch_span = self._epoch_span, None
        if span is None:
            return
        span.note(end_step=step, entries=entries)
        span.__exit__(None, None, None)

    # -- finalization -----------------------------------------------------

    def finalize(self) -> "tuple[EpochTimeline, SketchLog]":
        """Apply the retention window; returns (timeline, windowed log).

        Deterministic truncation: the cut falls on the boundary opening
        the oldest retained epoch, and boundaries are a pure function of
        the schedule.
        """
        total = len(self.boundaries) + 1
        window = self.config.window
        drop = max(0, total - window) if window > 0 else 0
        kept = self.boundaries[drop - 1 :] if drop > 0 else self.boundaries
        cut = kept[0].entry_index if drop > 0 else 0
        starts = [0] + [b.entry_index - cut for b in kept[1 if drop else 0 :]]
        # Boundaries cut back-to-back (an explicit barrier landing on the
        # periodic step) can coincide; epoch starts must stay strictly
        # increasing for the codec.
        starts = sorted(set(starts))
        windowed = SketchLog(
            sketch=self.log.sketch,
            entries=list(self.log.entries[cut:]),
            epoch_starts=starts if (len(starts) > 1 or drop) else [],
            truncated_entries=cut,
            truncated_epochs=drop,
        )
        timeline = EpochTimeline(
            steps=self.config.steps,
            window=window,
            boundaries=list(kept),
            total_epochs=total,
            truncated_epochs=drop,
            truncated_entries=cut,
        )
        return timeline, windowed
