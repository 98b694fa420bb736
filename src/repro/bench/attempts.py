"""Replay-attempt sweeps (experiments E3, E5, E7, E8)."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.apps.spec import BugSpec
from repro.core.reproducer import ReproductionReport
from repro.core.request import ReproduceRequest, run_request
from repro.core.sketches import SKETCH_ORDER, SketchKind


@dataclass
class AttemptCell:
    """One (bug, sketch) reproduction outcome."""

    success: bool
    attempts: int
    replay_steps: int
    constraints_used: int
    #: reproduction wall time in seconds (recording and exploration).
    wall_time: float = 0.0

    def render(self) -> str:
        return str(self.attempts) if self.success else f">{self.attempts}"

    def to_record(self) -> Dict[str, object]:
        """Machine-readable cell for ``pres bench --json``."""
        return {
            "success": self.success,
            "attempts": self.attempts,
            "replay_steps": self.replay_steps,
            "constraints": self.constraints_used,
            "wall_time_s": round(self.wall_time, 6),
        }


@dataclass
class AttemptRow:
    bug_id: str
    bug_type: str
    seed: int
    cells: Dict[SketchKind, AttemptCell]


def attempts_row(
    spec: BugSpec,
    sketches: Sequence[SketchKind] = SKETCH_ORDER,
    max_attempts: int = 400,
    ncpus: int = 4,
    use_feedback: bool = True,
    seed: Optional[int] = None,
    jobs: int = 1,
    **params,
) -> AttemptRow:
    """Reproduce one bug under each sketch; returns the attempts per cell."""
    request = ReproduceRequest(
        spec.bug_id, params=params, seed=seed, ncpus=ncpus,
        max_attempts=max_attempts, feedback=use_feedback,
    ).resolved()
    cells: Dict[SketchKind, AttemptCell] = {}
    for sketch in sketches:
        started = time.perf_counter()
        report = run_request(
            dataclasses.replace(request, sketch=sketch), jobs=jobs
        ).report
        elapsed = time.perf_counter() - started
        cells[sketch] = AttemptCell(
            success=report.success,
            attempts=report.attempts,
            replay_steps=report.total_replay_steps,
            constraints_used=len(report.winning_constraints),
            wall_time=elapsed,
        )
    return AttemptRow(
        bug_id=spec.bug_id, bug_type=spec.bug_type, seed=request.seed,
        cells=cells,
    )


def attempts_matrix(
    specs: Sequence[BugSpec],
    sketches: Sequence[SketchKind] = SKETCH_ORDER,
    max_attempts: int = 400,
    ncpus: int = 4,
    use_feedback: bool = True,
    jobs: int = 1,
) -> List[AttemptRow]:
    """E3 (and, with use_feedback=False, the E5 ablation arm)."""
    return [
        attempts_row(
            spec,
            sketches,
            max_attempts=max_attempts,
            ncpus=ncpus,
            use_feedback=use_feedback,
            jobs=jobs,
        )
        for spec in specs
    ]


def reproduce_once(
    spec: BugSpec,
    sketch: SketchKind,
    max_attempts: int = 400,
    ncpus: int = 4,
    use_feedback: bool = True,
    **params,
) -> ReproductionReport:
    """One full reproduction, returning the raw report (E7/E8 building block)."""
    return run_request(ReproduceRequest(
        spec.bug_id, params=params, sketch=sketch, ncpus=ncpus,
        max_attempts=max_attempts, feedback=use_feedback,
    )).report
