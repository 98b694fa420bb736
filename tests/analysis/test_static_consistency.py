"""Static analysis over-approximates the dynamic sanitizer — T1 suite.

The static walker's soundness stance (see
:mod:`repro.analysis.static_.extract`) is that its access map is a
superset of any dynamic execution's.  The checkable consequence: every
race the *dynamic* sanitizer predicts from a rich (RW) recording must
appear in the static race set, at (thread-pair, region) granularity —
the static side names regions via
:func:`repro.core.constraints.region_key`, so a dynamic race on a
concrete address ``("row", 3)`` matches a static race on the region
head ``"row"``.

``max_findings`` is raised because the containment claim is about the
full over-approximation, not the stored top-N slice a default plan
keeps for reports.
"""

import pytest

from repro.analysis.static_ import analyze_program
from repro.apps import all_bugs
from repro.bench.seeds import find_failing_seed
from repro.core.constraints import region_key
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.sanitize import build_plan
from repro.sim.machine import MachineConfig


def _static_race_keys(spec):
    plan = analyze_program(spec.make_program(), max_findings=100_000)
    return {(frozenset(race.threads), race.targets[0]) for race in plan.races}


@pytest.mark.parametrize(
    "spec", all_bugs(), ids=lambda spec: spec.bug_id
)
def test_dynamic_race_predictions_are_contained_in_static(spec):
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None, f"{spec.bug_id}: no failing seed"
    recorded = record(
        spec.make_program(),
        sketch=SketchKind.RW,
        seed=seed,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )
    dynamic = build_plan(recorded.log)
    static_keys = _static_race_keys(spec)
    missing = []
    for race in dynamic.races:
        key = (frozenset(race.threads), region_key(race.targets[0]))
        if key not in static_keys:
            missing.append(race.describe())
    assert not missing, (
        f"{spec.bug_id}: dynamic races absent from the static "
        f"over-approximation:\n" + "\n".join(missing)
    )
