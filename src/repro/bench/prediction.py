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
from typing import Optional, Sequence, Tuple

from repro.apps import all_bugs
from repro.bench.results import BenchResult
from repro.core.plan import DYNAMIC
from repro.core.reproducer import render_report
from repro.core.request import (
    ReproduceRequest,
    RequestResult,
    record_request,
    run_request,
)
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
    request: ReproduceRequest, obs=None
) -> Tuple[PredictionRow, RequestResult]:
    """Run one bug through both arms of the ablation.

    ``request`` is the planned arm's (``plans=(DYNAMIC,)``); the
    baseline arm is the same request without plans, on the same
    recording.  Returns the bug's row and the planned arm's result,
    whose recording and dynamic plan a rerun of ``request`` can reuse.
    """
    request = request.resolved()
    recorded = record_request(request, obs=obs)
    baseline = run_request(
        dataclasses.replace(request, plans=()), recorded=recorded, obs=obs
    ).report
    planned = run_request(request, recorded=recorded, obs=obs)
    plan = planned.plans[0]
    row = PredictionRow(
        bug_id=request.bug,
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
    return row, planned


def jobs_invariant(
    request: ReproduceRequest,
    jobs_values: Sequence[int],
    built: Optional[RequestResult] = None,
) -> bool:
    """Whether ``request`` renders one report at every ``jobs`` value.

    One recording and one build of the request's plans serve every
    value: ``built``'s, when the caller already ran the request's run
    with its plans, else those of the first value's run.
    """
    recorded = plans = None
    if built is not None:
        recorded, plans = built.recorded, built.plans
    reports = set()
    for jobs in jobs_values:
        result = run_request(
            request, recorded=recorded, plans=plans, jobs=jobs
        )
        recorded, plans = result.recorded, result.plans
        reports.add(render_report(result.report))
    return len(reports) == 1


def build_e13(obs=None) -> BenchResult:
    """E13 as a :class:`BenchResult` (table + JSON payload)."""
    requests = {
        spec.bug_id: ReproduceRequest(
            spec.bug_id, ncpus=4, max_attempts=400, plans=(DYNAMIC,)
        )
        for spec in all_bugs()
    }
    runs = {
        bug_id: prediction_row(request, obs=obs)
        for bug_id, request in requests.items()
    }
    matrix = [row for row, _ in runs.values()]
    # Plan-seeded parallel exploration must be --jobs-independent: at a
    # fixed batch size the exploration schedule depends only on the
    # batch size, never on the worker count, and seeding plan
    # candidates must keep it so.  Each check is a matrix request at
    # batch size 4 and reuses that request's recording and plan.
    invariant = all(
        jobs_invariant(
            dataclasses.replace(requests[bug_id], batch_size=4), (1, 2),
            runs[bug_id][1],
        )
        for bug_id in INVARIANCE_BUGS
    )
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
    "prediction_row",
]
