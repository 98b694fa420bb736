"""Static concurrency analysis: sketchless exploration guided by
program structure.

The dynamic sanitizer (:mod:`repro.sanitize`) predicts interleavings
from a recorded sketch log; this package predicts them from the program
*source* alone — the bug-report scenario where no recording exists.
``analyze_program`` walks thread bodies abstractly (:mod:`.extract`),
mines the access map for race/atomicity/deadlock candidates
(:mod:`.analyzer`) and returns a static :class:`~repro.core.plan.Plan`
whose candidates seed exploration at ``TIER_STATIC``.
"""

from repro.analysis.static_.analyzer import (
    MAX_STATIC_CANDIDATES,
    analyze_extraction,
    analyze_program,
)
from repro.analysis.static_.extract import (
    Extraction,
    ThreadWalk,
    extract_program,
)
from repro.analysis.static_.model import (
    StaticAccess,
    StaticAtomicity,
    StaticDeadlock,
    StaticRace,
    ThreadRole,
)

__all__ = [
    "Extraction",
    "MAX_STATIC_CANDIDATES",
    "StaticAccess",
    "StaticAtomicity",
    "StaticDeadlock",
    "StaticRace",
    "ThreadRole",
    "ThreadWalk",
    "analyze_extraction",
    "analyze_program",
    "extract_program",
]
