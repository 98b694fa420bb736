"""E13: predictive-sanitizer ablation (plan-seeded vs unplanned replay).

The record-rich / replay-coarse pipeline under test, as
``pres reproduce --plan`` runs it: reproduce each T1 bug's SYNC
recording twice — once unplanned (the E3/E5 baseline), once with the
applicable candidates of the plan the sanitizer
(:func:`repro.sanitize.build_plan`) builds from an RW recording of the
same run seeded into the first attempts.

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

from repro.apps import all_bugs
from repro.bench.results import BenchResult
from repro.core.plan import DYNAMIC
from repro.core.reproducer import render_report
from repro.core.request import ReproduceRequest, run_request
from repro.core.sketches import SketchKind

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


def prediction_row(
    spec,
    max_attempts: int = 400,
    ncpus: int = 4,
    obs=None,
) -> PredictionRow:
    """Run one bug through both arms of the ablation."""
    request = ReproduceRequest(
        spec.bug_id, ncpus=ncpus, max_attempts=max_attempts
    ).resolved()
    baseline = run_request(request, obs=obs).report
    planned = run_request(
        dataclasses.replace(request, plans=(DYNAMIC,)), obs=obs
    )
    plan = planned.plans[0]
    return PredictionRow(
        bug_id=spec.bug_id,
        seed=request.seed,
        races=len(plan.races),
        violations=len(plan.violations),
        deadlocks=len(plan.deadlocks),
        applicable=len(plan.seeds_for(SketchKind.SYNC)),
        baseline_attempts=baseline.attempts,
        baseline_success=baseline.success,
        planned_attempts=planned.report.attempts,
        planned_success=planned.report.success,
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


def jobs_invariant(
    request: ReproduceRequest, jobs_values: Sequence[int]
) -> bool:
    """Whether ``request`` renders one report at every ``jobs`` value."""
    return len({
        render_report(run_request(request, jobs=jobs).report)
        for jobs in jobs_values
    }) == 1


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
    candidates must preserve that (an identical rendered report across
    ``jobs_values``).
    """
    return all(
        jobs_invariant(ReproduceRequest(
            bug_id, ncpus=ncpus, max_attempts=max_attempts,
            batch_size=batch_size, plans=(DYNAMIC,),
        ), jobs_values)
        for bug_id in bug_ids
    )


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
    "jobs_invariant",
    "plan_jobs_invariant",
    "prediction_ablation",
    "prediction_row",
]
