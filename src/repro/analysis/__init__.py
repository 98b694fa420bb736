"""Offline analyses over execution traces.

These are the substrate for PRES's *feedback generation*: after an
unsuccessful replay attempt, the replayer mines the attempt's trace for
unordered conflicting accesses (happens-before races) — each one is a
scheduling decision the sketch did not pin down and therefore a candidate
to flip on the next attempt.

Also here: vector clocks, a lockset detector (used to lift flip points for
lock-protected accesses up to the lock acquisitions), Goodlock lock-order
analysis (with gate-lock suppression), wait-for-graph deadlock analysis
and trace diffing.

The *predictive* entry points of :mod:`repro.sanitize` (which run the
same families of analyses over recorded sketch logs instead of traces)
are re-exported lazily — ``from repro.analysis import build_plan`` works,
without this package importing the sanitizer at import time.  The
*static* analyzer (:mod:`repro.analysis.static_`), which needs no log
at all, is re-exported the same way: ``analyze_program`` resolves on
first use.  Both passes return a :class:`repro.core.plan.Plan`.
"""

from repro.analysis.hb_race import HBAnalysis, RacePair, find_races
from repro.analysis.lockset import (
    AddressProtection,
    LocksetReport,
    lockset_candidates,
    lockset_report,
)
from repro.analysis.lockorder import (
    LockOrderEdge,
    LockOrderReport,
    PotentialDeadlock,
    collect_lock_order,
    find_potential_deadlocks,
    lock_order_report,
    predicts_deadlock,
)
from repro.analysis.timeline import failure_window, render_timeline
from repro.analysis.tracediff import Divergence, first_divergence, same_execution
from repro.analysis.vector_clock import VectorClock
from repro.analysis.waitfor import WaitForGraph

#: sanitize entry points re-exported lazily (PEP 562): importing them
#: eagerly would create a cycle, because repro.sanitize modules import
#: from this package during their own initialization.
_SANITIZE_EXPORTS = (
    "AtomicityViolation",
    "PredictedDeadlock",
    "PredictedRace",
    "SketchHB",
    "build_plan",
    "predict_atomicity",
    "predict_deadlocks",
    "predict_races",
)

#: static-analyzer entry points, lazily resolved for symmetry (and so
#: `import repro.analysis` stays cheap for trace-only consumers).
_STATIC_EXPORTS = (
    "analyze_program",
    "extract_program",
)

__all__ = [
    "AddressProtection",
    "AtomicityViolation",
    "Divergence",
    "HBAnalysis",
    "LockOrderEdge",
    "LockOrderReport",
    "LocksetReport",
    "PotentialDeadlock",
    "PredictedDeadlock",
    "PredictedRace",
    "RacePair",
    "SketchHB",
    "VectorClock",
    "WaitForGraph",
    "analyze_program",
    "build_plan",
    "collect_lock_order",
    "extract_program",
    "failure_window",
    "find_potential_deadlocks",
    "find_races",
    "first_divergence",
    "lock_order_report",
    "lockset_candidates",
    "lockset_report",
    "predict_atomicity",
    "predict_deadlocks",
    "predict_races",
    "predicts_deadlock",
    "render_timeline",
    "same_execution",
]


def __getattr__(name: str):
    """Resolve the lazy re-exports on first use."""
    if name in _SANITIZE_EXPORTS:
        import repro.sanitize as _sanitize

        return getattr(_sanitize, name)
    if name in _STATIC_EXPORTS:
        import repro.analysis.static_ as _static

        return getattr(_static, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
