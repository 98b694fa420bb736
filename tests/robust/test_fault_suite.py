"""The fault-injection acceptance matrix.

Every sketch mechanism crossed with every file-level fault: the damaged
journal must still end in a *structured* answer — salvage recovers a
prefix, and the degraded reproducer either re-triggers the bug or
returns a clean failure report.  No ``SketchFormatError`` and no
``ReplayDivergence`` may escape to the caller.
"""

import dataclasses

import pytest

from repro.apps import get_bug
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import ReproductionReport, reproduce
from repro.core.sketches import SketchKind
from repro.robust.inject import FaultPlan, apply_fault, seeded_truncate_offset
from repro.robust.journal import load_sketch_journal

BUG = "pbzip2-order-free"
SEED = 3  # deterministic use-after-free crash
FAULT_SEED = 11

SKETCHES = [
    SketchKind.SYNC,
    SketchKind.SYS,
    SketchKind.FUNC,
    SketchKind.BB,
    SketchKind.RW,
]


def _plan(fault: str, path: str) -> FaultPlan:
    if fault == "truncate":
        return FaultPlan("truncate", seeded_truncate_offset(path, seed=FAULT_SEED))
    return FaultPlan(fault, FAULT_SEED)


@pytest.mark.parametrize("fault", ["truncate", "garble", "drop"])
@pytest.mark.parametrize("sketch", SKETCHES, ids=lambda s: s.value)
def test_damaged_journal_ends_in_structured_report(tmp_path, sketch, fault):
    spec = get_bug(BUG)
    path = tmp_path / "sketch.journal"
    pristine = record(
        spec.make_program(), sketch=sketch, seed=SEED, journal_path=str(path)
    )
    assert pristine.failed

    apply_fault(str(path), _plan(fault, str(path)))

    # Salvage must absorb the damage (the injectors spare the header).
    log, report = load_sketch_journal(str(path), allow_salvage=True)
    assert not report.unrecoverable
    assert len(log) <= len(pristine.log)
    assert log.entries == pristine.log.entries[: len(log)]

    damaged = dataclasses.replace(pristine, log=log)
    outcome = reproduce(
        damaged, config=ExplorerConfig(max_attempts=50), degrade=True
    )
    assert isinstance(outcome, ReproductionReport)
    assert outcome.degradation_path
    assert outcome.outcome_reason
    if outcome.success:
        assert outcome.complete_log is not None
        assert outcome.winning_sketch is not None
    else:
        assert "exhausted the degradation ladder" in outcome.outcome_reason
    # describe() must render without touching anything unset
    assert outcome.describe()
