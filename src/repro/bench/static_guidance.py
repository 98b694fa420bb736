"""E16: static guidance ablation (sketchless replay, structure-seeded).

The bug-report scenario under test: no recording exists, so the replayer
starts from a NONE sketch — zero ordering information.  The baseline arm
is plain NONE-mode exploration (empty attempt, then mined feedback
flips).  The static arm runs :func:`repro.analysis.static_.analyze_program`
over the program *source* — no execution — filtered by the recorded
failure message (the one artifact a bug report reliably carries), and
seeds the ranked candidates at ``TIER_STATIC``.

Attempt 1 is the baseline empty attempt in both arms, and attempt 2 is
the best mined flip in both arms — static candidates interleave with
the mined tier starting at attempt 3 (see
:class:`repro.core.explorer.Frontier`), so static guidance can tie but
never displace a bug the baseline reproduces within two attempts.  The
interesting rows are the multi-attempt bugs, where a correct structural
prediction collapses the search to "baseline, best flip, pin the
static candidate".

The harness also checks two invariances:

* **jobs**: with static seeds and a fixed ``batch_size``, the parallel
  explorer must render byte-identical reports for any ``--jobs`` value;
* **plan bytes**: two independent analyses of the same program must
  serialize to byte-identical plan JSON (the analyzer is
  a pure function of the source).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.static_ import analyze_program
from repro.apps import all_bugs, get_bug
from repro.bench.prediction import jobs_invariant
from repro.bench.results import BenchResult
from repro.core.plan import STATIC
from repro.core.request import ReproduceRequest, record_request, run_request
from repro.core.sketches import SketchKind

#: Bugs used for the static-seeded jobs-invariance check (both carry
#: applicable static candidates, so the check exercises the seeded
#: frontier rather than an empty one).
INVARIANCE_BUGS = ("mysql-atom-log", "pbzip2-order-free")


@dataclass
class StaticRow:
    """One bug's static-vs-baseline comparison at the NONE level."""

    bug_id: str
    seed: int
    races: int
    violations: int
    deadlocks: int
    candidates: int
    applicable: int
    baseline_attempts: int
    baseline_success: bool
    static_attempts: int
    static_success: bool

    @property
    def improved(self) -> bool:
        """Strictly fewer attempts with static seeds (both succeeding)."""
        return (
            self.baseline_success
            and self.static_success
            and self.static_attempts < self.baseline_attempts
        )

    @property
    def regressed(self) -> bool:
        """More attempts (or lost success) with static seeds."""
        if self.baseline_success and not self.static_success:
            return True
        return (
            self.static_success
            and self.baseline_success
            and self.static_attempts > self.baseline_attempts
        )


def static_row(
    spec,
    max_attempts: int = 400,
    ncpus: int = 4,
    obs=None,
) -> StaticRow:
    """Run one bug through both arms of the ablation."""
    request = ReproduceRequest(
        spec.bug_id, sketch=SketchKind.NONE, ncpus=ncpus,
        max_attempts=max_attempts,
    ).resolved()
    recorded = record_request(request, obs=obs)
    baseline = run_request(request, recorded=recorded, obs=obs).report
    guided = run_request(
        dataclasses.replace(request, plans=(STATIC,)), recorded=recorded,
        obs=obs,
    )
    plan = guided.plans[0]
    return StaticRow(
        bug_id=spec.bug_id,
        seed=request.seed,
        races=len(plan.races),
        violations=len(plan.violations),
        deadlocks=len(plan.deadlocks),
        candidates=len(plan.candidates),
        applicable=len(plan.seeds_for(SketchKind.NONE)),
        baseline_attempts=baseline.attempts,
        baseline_success=baseline.success,
        static_attempts=guided.report.attempts,
        static_success=guided.report.success,
    )


def static_ablation(
    specs: Optional[Sequence] = None,
    max_attempts: int = 400,
    ncpus: int = 4,
    obs=None,
) -> List[StaticRow]:
    """The full E16 matrix over the bug suite."""
    return [
        static_row(spec, max_attempts=max_attempts, ncpus=ncpus, obs=obs)
        for spec in (all_bugs() if specs is None else specs)
    ]


def static_plan_deterministic(bug_ids: Sequence[str] = INVARIANCE_BUGS) -> bool:
    """Whether two independent analyses serialize byte-identically."""
    for bug_id in bug_ids:
        spec = get_bug(bug_id)
        first = analyze_program(spec.make_program()).to_json()
        second = analyze_program(spec.make_program()).to_json()
        if first != second:
            return False
    return True


def static_jobs_invariant(
    bug_ids: Sequence[str] = INVARIANCE_BUGS,
    jobs_values: Sequence[int] = (1, 4),
    batch_size: int = 4,
    max_attempts: int = 400,
    ncpus: int = 4,
) -> bool:
    """Whether static-seeded parallel exploration is ``--jobs``-independent.

    At a fixed ``batch_size`` the exploration schedule depends only on
    the batch size, never on worker count; static seeds must preserve
    that — the *rendered report* (the byte-for-byte CLI surface) must be
    identical across ``jobs_values``.
    """
    return all(
        jobs_invariant(ReproduceRequest(
            bug_id, sketch=SketchKind.NONE, ncpus=ncpus,
            max_attempts=max_attempts, batch_size=batch_size,
            plans=(STATIC,),
        ), jobs_values)
        for bug_id in bug_ids
    )


def build_e16(obs=None) -> BenchResult:
    """E16 as a :class:`BenchResult` (table + JSON payload)."""
    matrix = static_ablation(obs=obs)
    invariant = static_jobs_invariant()
    plan_bytes = static_plan_deterministic()
    rows = []
    records = []
    for row in matrix:
        delta = row.baseline_attempts - row.static_attempts
        rows.append(
            [
                row.bug_id,
                f"{row.races}/{row.violations}/{row.deadlocks}",
                f"{row.applicable}/{row.candidates}",
                row.baseline_attempts if row.baseline_success else "cap",
                row.static_attempts if row.static_success else "cap",
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
                "candidates": row.candidates,
                "applicable_candidates": row.applicable,
                "baseline": {
                    "attempts": row.baseline_attempts,
                    "success": row.baseline_success,
                },
                "static": {
                    "attempts": row.static_attempts,
                    "success": row.static_success,
                },
                "improved": row.improved,
                "regressed": row.regressed,
            }
        )
    wins = sum(1 for row in matrix if row.improved)
    regressions = sum(1 for row in matrix if row.regressed)
    return BenchResult(
        experiment="e16",
        title=(
            "E16: static guidance ablation "
            f"(NONE replay; {wins} bugs improved, {regressions} regressed)"
        ),
        headers=["bug", "races/viol/dl", "cands", "baseline", "static", "delta"],
        rows=rows,
        records=records,
        meta={
            "max_attempts": 400,
            "wins": wins,
            "regressions": regressions,
            "jobs_invariant": invariant,
            "plan_bytes_identical": plan_bytes,
        },
    )


__all__ = [
    "INVARIANCE_BUGS",
    "StaticRow",
    "build_e16",
    "static_ablation",
    "static_jobs_invariant",
    "static_plan_deterministic",
    "static_row",
]
