"""Assemble sanitizer findings into a ranked, seedable dynamic :class:`Plan`.

The plan is the sanitizer's contract with the replayer: a deduplicated,
confidence-ranked list of constraint sets that the explorers try *first*,
before any feedback-mined candidates (see ``TIER_PLAN`` in
:mod:`repro.core.feedback`).  Attempt 1 always stays the unconstrained
baseline attempt, so seeding a plan can never slow down a bug the
baseline already reproduces immediately.

Candidate order is fixed: the **pin-all** candidate first (every race and
atomicity pin at once, capped — production manifested the bug, so
re-pinning all of production's suspicious orderings is the single most
likely reproducer), then individual findings by descending confidence,
breaking ties toward windows that close *later* in the log (concurrency
bugs manifest near the failure).

Applicability is sketch-aware (:meth:`Plan.seeds_for`): a plan is built
from a *rich* (RW) recording but applied when replaying a coarser
projection of it — memory pins are redundant under an RW sketch and
deadlock triggers contradict any SYNC-or-richer sketch, so each candidate
only ships to the sketch levels where it can help.  The plan also carries
the evidence gate's verdict (``MIN_PLAN_EVIDENCE``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.constraints import (
    ConstraintSet,
    OrderConstraint,
    constraint_sort_key,
    ordered_constraints,
)
from repro.core.plan import DYNAMIC, Finding, Plan, PlanCandidate
from repro.core.sketchlog import SketchLog
from repro.sanitize.atomicity import AtomicityViolation, predict_atomicity
from repro.sanitize.deadlock import PredictedDeadlock, predict_deadlocks
from repro.sanitize.race import PredictedRace, predict_races

#: Plan-wide caps: candidates shipped to the explorer, and constraints
#: folded into the pin-all candidate.
MAX_PLAN_CANDIDATES = 16
MAX_PIN_CONSTRAINTS = 64
#: Minimum distinct production-order pins before memory candidates ship.
#: Sparse evidence means a small schedule space that feedback mining
#: already searches in a couple of attempts — seeding a thin plan there
#: can only delay the mined candidates, never beat them.
MIN_PLAN_EVIDENCE = 10


def plan_evidence(findings: Iterable[Finding]) -> int:
    """Distinct production-order pins backing the memory candidates."""
    pins: Set[OrderConstraint] = set()
    for finding in findings:
        if finding.kind != "deadlock":
            pins.update(finding.constraints)
    return len(pins)


def build_plan(
    log: SketchLog,
    max_candidates: int = MAX_PLAN_CANDIDATES,
    max_pin_constraints: int = MAX_PIN_CONSTRAINTS,
) -> Plan:
    """Run every predictor over a sketch log and rank the results.

    Deterministic for a given log: predictors iterate in sorted order and
    ranking ties break on canonical constraint keys, never on hashes.
    """
    races = predict_races(log)
    violations = predict_atomicity(log)
    deadlocks = predict_deadlocks(log)

    ranked: List[PlanCandidate] = []
    seen: Set[ConstraintSet] = set()

    def add(candidate: PlanCandidate) -> None:
        if candidate.constraints and candidate.constraints not in seen:
            seen.add(candidate.constraints)
            ranked.append(candidate)

    pin_all = _pin_all_candidate(races, violations, max_pin_constraints)
    if pin_all is not None:
        add(pin_all)

    # (anchor, candidate): the anchor is the latest log index the
    # candidate's findings touch, the tie-break toward late windows.
    scored: List[Tuple[int, PlanCandidate]] = []
    for violation in violations:
        scored.append((violation.local_second.index, PlanCandidate(
            constraints=frozenset(violation.pins()),
            source="atomicity",
            confidence=violation.confidence,
            note=violation.describe(),
        )))
    for race in races:
        scored.append((race.second.index, PlanCandidate(
            constraints=frozenset({race.pin()}),
            source="race",
            confidence=race.confidence,
            note=race.describe(),
        )))
    for deadlock in deadlocks:
        scored.append((0, PlanCandidate(
            constraints=deadlock.trigger,
            source="deadlock",
            confidence=deadlock.confidence,
            note=deadlock.describe(),
        )))
    # ordered_constraints memoizes the canonical sort per set: ranking
    # re-reads the same sets the predictors just built, so sorting each
    # once per session (not once per ranking pass) is pure savings.
    scored.sort(
        key=lambda item: (
            -item[1].confidence,
            -item[0],
            tuple(
                constraint_sort_key(x)
                for x in ordered_constraints(item[1].constraints)
            ),
        )
    )
    for _, candidate in scored:
        if len(ranked) >= max_candidates:
            break
        add(candidate)

    findings = _findings(races, violations, deadlocks)
    return Plan(
        provenance=DYNAMIC,
        subject=log.sketch.name,
        findings=findings,
        candidates=tuple(ranked[:max_candidates]),
        seed_memory=plan_evidence(findings) >= MIN_PLAN_EVIDENCE,
    )


def _findings(
    races: List[PredictedRace],
    violations: List[AtomicityViolation],
    deadlocks: List[PredictedDeadlock],
) -> Tuple[Finding, ...]:
    """The predictors' results as plan findings, in report order."""
    return tuple(
        [
            Finding(
                "race", (race.first.tid, race.second.tid), (race.addr,),
                race.confidence, race.describe(), frozenset({race.pin()}),
            )
            for race in races
        ] + [
            Finding(
                "atomicity", (v.local_first.tid, v.remote.tid), (v.addr,),
                v.confidence, v.describe(), frozenset(v.pins()),
            )
            for v in violations
        ] + [
            Finding(
                "deadlock", d.tids, d.cycle, d.confidence, d.describe(),
                d.trigger,
            )
            for d in deadlocks
        ]
    )


def _pin_all_candidate(
    races: List[PredictedRace],
    violations: List[AtomicityViolation],
    max_pin_constraints: int,
) -> Optional[PlanCandidate]:
    """The rank-0 candidate: every production-order pin at once.

    All pins agree with production order, so their union is satisfiable
    by construction (the production schedule witnesses it).  When the
    union overflows the cap, pins anchored latest in the log win.
    """
    pool: Dict[OrderConstraint, int] = {}
    best = 0.0
    for violation in violations:
        best = max(best, violation.confidence)
        for pin in violation.pins():
            anchor = violation.local_second.index
            pool[pin] = max(pool.get(pin, 0), anchor)
    for race in races:
        best = max(best, race.confidence)
        pool[race.pin()] = max(pool.get(race.pin(), 0), race.second.index)
    if not pool:
        return None
    chosen = sorted(
        pool.items(), key=lambda kv: (-kv[1], constraint_sort_key(kv[0]))
    )[:max_pin_constraints]
    return PlanCandidate(
        constraints=frozenset(pin for pin, _ in chosen),
        source="pin-all",
        confidence=best,
        note=f"all {len(chosen)} production-order pins",
    )
