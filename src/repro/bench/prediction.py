"""E13: predictive-sanitizer ablation (plan-seeded vs unplanned replay).

The record-rich / replay-coarse pipeline under test: record each T1 bug
once at RW fidelity, run the static sanitizer over that log
(:func:`repro.sanitize.build_plan`), then reproduce the *SYNC projection*
of the same recording twice — once unplanned (the E3/E5 baseline), once
with the plan's applicable candidates seeded into the first attempts.

Attempt 1 is the baseline empty attempt in both arms (plan candidates
rank behind it, see ``TIER_PLAN``), so the plan can tie but never slow a
bug the baseline reproduces immediately; the interesting rows are the
multi-attempt bugs, where a correct prediction collapses the search to
"baseline attempt + pin-all attempt".

The harness also spot-checks jobs-determinism: with a plan seeded and
``batch_size`` fixed, the parallel explorer must produce identical
reports for any ``--jobs`` value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps import all_bugs, get_bug
from repro.bench.results import BenchResult
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import RecordedRun, record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.core.sketchlog import derive_coarser
from repro.sanitize import build_plan
from repro.sim.machine import MachineConfig

#: Bugs used for the plan-enabled jobs-invariance spot check (both have
#: applicable plans, so the check exercises the seeded frontier).
INVARIANCE_BUGS = ("mysql-atom-log", "radix-order-rank")


@dataclass
class PredictionRow:
    """One bug's planned-vs-unplanned comparison at the SYNC level."""

    bug_id: str
    seed: int
    races: int
    violations: int
    deadlocks: int
    applicable: int
    baseline_attempts: int
    baseline_success: bool
    planned_attempts: int
    planned_success: bool

    @property
    def improved(self) -> bool:
        """Strictly fewer attempts with the plan (both arms succeeding)."""
        return (
            self.baseline_success
            and self.planned_success
            and self.planned_attempts < self.baseline_attempts
        )

    @property
    def regressed(self) -> bool:
        """More attempts (or lost success) with the plan — must not happen."""
        if self.baseline_success and not self.planned_success:
            return True
        return (
            self.planned_success
            and self.baseline_success
            and self.planned_attempts > self.baseline_attempts
        )


def _record_rich(spec, seed: int, ncpus: int) -> RecordedRun:
    return record(
        spec.make_program(),
        sketch=SketchKind.RW,
        seed=seed,
        config=MachineConfig(ncpus=ncpus),
        oracle=spec.oracle,
    )


def _sync_projection(recorded: RecordedRun) -> RecordedRun:
    sync_log = derive_coarser(recorded.log, SketchKind.SYNC)
    return dataclasses.replace(
        recorded, sketch=SketchKind.SYNC, log=sync_log
    )


def prediction_row(
    spec,
    max_attempts: int = 400,
    ncpus: int = 4,
    obs=None,
) -> PredictionRow:
    """Run one bug through both arms of the ablation."""
    seed = find_failing_seed(spec, ncpus=ncpus)
    if seed is None:
        raise RuntimeError(f"{spec.bug_id}: no failing production run found")
    rich = _record_rich(spec, seed, ncpus)
    plan = build_plan(rich.log)
    replayable = _sync_projection(rich)
    config = ExplorerConfig(max_attempts=max_attempts)
    kwargs = {} if obs is None else {"obs": obs}
    baseline = reproduce(replayable, config, **kwargs)
    planned = reproduce(replayable, config, plans=[plan], **kwargs)
    return PredictionRow(
        bug_id=spec.bug_id,
        seed=seed,
        races=len(plan.races),
        violations=len(plan.violations),
        deadlocks=len(plan.deadlocks),
        applicable=len(plan.seeds_for(SketchKind.SYNC)),
        baseline_attempts=baseline.attempts,
        baseline_success=baseline.success,
        planned_attempts=planned.attempts,
        planned_success=planned.success,
    )


def prediction_ablation(
    specs: Optional[Sequence] = None,
    max_attempts: int = 400,
    ncpus: int = 4,
    obs=None,
) -> List[PredictionRow]:
    """The full E13 matrix over the bug suite."""
    return [
        prediction_row(spec, max_attempts=max_attempts, ncpus=ncpus, obs=obs)
        for spec in (all_bugs() if specs is None else specs)
    ]


def plan_jobs_invariant(
    bug_ids: Sequence[str] = INVARIANCE_BUGS,
    jobs_values: Sequence[int] = (1, 2),
    batch_size: int = 4,
    max_attempts: int = 400,
    ncpus: int = 4,
) -> bool:
    """Whether plan-seeded parallel exploration is ``--jobs``-independent.

    At a fixed ``batch_size`` the exploration schedule is defined to
    depend only on the batch size, never on worker count; seeding plan
    candidates must preserve that (identical attempt counts and winning
    constraints across ``jobs_values``).
    """
    for bug_id in bug_ids:
        spec = get_bug(bug_id)
        seed = find_failing_seed(spec, ncpus=ncpus)
        if seed is None:
            return False
        rich = _record_rich(spec, seed, ncpus)
        plan = build_plan(rich.log)
        replayable = _sync_projection(rich)
        outcomes = []
        for jobs in jobs_values:
            report = reproduce(
                replayable,
                ExplorerConfig(
                    max_attempts=max_attempts,
                    jobs=jobs,
                    batch_size=batch_size,
                ),
                plans=[plan],
            )
            outcomes.append(
                (report.success, report.attempts, report.winning_constraints)
            )
        if any(outcome != outcomes[0] for outcome in outcomes[1:]):
            return False
    return True


def build_e13(obs=None) -> BenchResult:
    """E13 as a :class:`BenchResult` (table + JSON payload)."""
    matrix = prediction_ablation(obs=obs)
    invariant = plan_jobs_invariant()
    rows = []
    records = []
    for row in matrix:
        delta = row.baseline_attempts - row.planned_attempts
        rows.append(
            [
                row.bug_id,
                f"{row.races}/{row.violations}/{row.deadlocks}",
                row.applicable,
                row.baseline_attempts if row.baseline_success else "cap",
                row.planned_attempts if row.planned_success else "cap",
                f"-{delta}" if row.improved else ("=" if not row.regressed else f"+{-delta}"),
            ]
        )
        records.append(
            {
                "bug": row.bug_id,
                "seed": row.seed,
                "predicted": {
                    "races": row.races,
                    "violations": row.violations,
                    "deadlocks": row.deadlocks,
                },
                "applicable_candidates": row.applicable,
                "baseline": {
                    "attempts": row.baseline_attempts,
                    "success": row.baseline_success,
                },
                "planned": {
                    "attempts": row.planned_attempts,
                    "success": row.planned_success,
                },
                "improved": row.improved,
                "regressed": row.regressed,
            }
        )
    wins = sum(1 for row in matrix if row.improved)
    regressions = sum(1 for row in matrix if row.regressed)
    return BenchResult(
        experiment="e13",
        title=(
            "E13: predictive sanitizer ablation "
            f"(SYNC replay; {wins} bugs improved, {regressions} regressed)"
        ),
        headers=["bug", "races/viol/dl", "cands", "baseline", "planned", "delta"],
        rows=rows,
        records=records,
        meta={
            "max_attempts": 400,
            "wins": wins,
            "regressions": regressions,
            "jobs_invariant": invariant,
        },
    )


__all__ = [
    "INVARIANCE_BUGS",
    "PredictionRow",
    "build_e13",
    "plan_jobs_invariant",
    "prediction_ablation",
    "prediction_row",
]
