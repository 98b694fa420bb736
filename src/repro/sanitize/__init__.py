"""Predictive sanitizer: analyze a sketch log *before* replaying.

PRES records cheap execution sketches and searches for a matching replay
afterwards.  This package shortens that search without running a single
attempt: static predictors sweep the recorded
:class:`~repro.core.sketchlog.SketchLog` for race pairs
(:mod:`~repro.sanitize.race`), unserializable atomicity windows
(:mod:`~repro.sanitize.atomicity`) and lock-order cycles
(:mod:`~repro.sanitize.deadlock`), and :func:`build_plan` folds the
findings into a ranked dynamic :class:`~repro.core.plan.Plan` whose
constraint sets seed the explorers' first attempts
(``ExplorerConfig.plan_seeds``).

The intended flow is *record rich, replay coarse*: analyze an RW-level
recording, then reproduce under a cheaper sketch with the plan pinning
the predicted orderings the coarse sketch no longer captures.
"""

from repro.sanitize.atomicity import (
    ATOMICITY_BASE_CONFIDENCE,
    UNSERIALIZABLE,
    AtomicityViolation,
    predict_atomicity,
)
from repro.sanitize.deadlock import (
    CYCLE_LENGTH_DECAY,
    DEADLOCK_BASE_CONFIDENCE,
    PredictedDeadlock,
    predict_deadlocks,
    sketch_lock_order,
    trigger_constraints,
)
from repro.sanitize.plan import (
    MAX_PIN_CONSTRAINTS,
    MAX_PLAN_CANDIDATES,
    build_plan,
    plan_evidence,
)
from repro.sanitize.race import (
    LOCKSET_BONUS,
    RACE_BASE_CONFIDENCE,
    TRYLOCK_PENALTY,
    PredictedRace,
    SketchAccess,
    SketchHB,
    predict_races,
    race_confidence,
)

__all__ = [
    "ATOMICITY_BASE_CONFIDENCE",
    "AtomicityViolation",
    "CYCLE_LENGTH_DECAY",
    "DEADLOCK_BASE_CONFIDENCE",
    "LOCKSET_BONUS",
    "MAX_PIN_CONSTRAINTS",
    "MAX_PLAN_CANDIDATES",
    "PredictedDeadlock",
    "PredictedRace",
    "RACE_BASE_CONFIDENCE",
    "SketchAccess",
    "SketchHB",
    "TRYLOCK_PENALTY",
    "UNSERIALIZABLE",
    "build_plan",
    "plan_evidence",
    "predict_atomicity",
    "predict_deadlocks",
    "predict_races",
    "race_confidence",
    "sketch_lock_order",
    "trigger_constraints",
]
