"""Frozen digests of what the two predictive passes produce.

For every suite bug at its first failing seed and ``ncpus=4``,
``tests/fixtures/plan_digests.json`` pins the sha256 of:

* the dynamic plan (:func:`repro.sanitize.build_plan` over the RW
  recording): its ``describe()`` text and its ``seeds_for`` output at
  every sketch level;
* the static plan (:func:`repro.analysis.static_.analyze_program`): the
  same two texts, once without a failure hint and once with the recorded
  failure as the hint;
* :func:`render_report` of three plan-seeded sessions at cap 400 — the
  SYNC projection of the RW recording with the dynamic plan (E13's
  planned arm), the NONE recording with the hinted static plan (E16's
  guided arm), and the NONE recording with both plans, which exercises
  the dedup of static seeds against dynamic ones.  The last session also
  runs through a two-worker pool at ``batch_size=1``.

It also pins the bytes of one attempt-store record whose constraints mix
``mem``, ``region`` and ``lock`` refs with tuple keys, so the constraint
JSON the plan codec shares with the store cannot drift.

Regenerate the fixture by running this module as a script — only for a
change that is *meant* to alter what the analyses produce::

    PYTHONPATH=src python tests/core/test_plan_digests.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

import pytest

from repro.analysis.static_ import analyze_program
from repro.apps import ALL_BUG_IDS, get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.constraints import EventRef, OrderConstraint, ordered_constraints
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import Candidate
from repro.core.parallel import AttemptOutcome
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SKETCH_ORDER, SketchKind
from repro.core.sketchlog import derive_coarser
from repro.sanitize import build_plan
from repro.sim import MachineConfig
from repro.store.codec import encode_record

FIXTURE = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "plan_digests.json"
)
CAP = 400
NCPUS = 4
SESSIONS = ("sync+dynamic", "none+static", "none+both")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def _inputs(bug_id: str):
    """``(rich RW recording, NONE recording, dynamic, static, hinted)``."""
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=NCPUS)

    def recording(sketch: SketchKind):
        return record(
            spec.make_program(),
            sketch=sketch,
            seed=seed,
            config=MachineConfig(ncpus=NCPUS),
            oracle=spec.oracle,
        )

    rich, none = recording(SketchKind.RW), recording(SketchKind.NONE)
    hinted = analyze_program(
        spec.make_program(), failure=none.failure.describe()
    )
    return (
        rich, none, build_plan(rich.log),
        analyze_program(spec.make_program()), hinted,
    )


def _seeds_text(plan) -> str:
    lines = []
    for sketch in SKETCH_ORDER:
        seeds = plan.seeds_for(sketch)
        lines.append(f"{sketch.value}: {len(seeds)}")
        for constraints in seeds:
            pins = [(c.before, c.after) for c in ordered_constraints(constraints)]
            lines.append(repr(pins))
    return "\n".join(lines)


def _planned(recorded, config, jobs, dynamic=None, static=None):
    plans = [plan for plan in (dynamic, static) if plan is not None]
    return reproduce(recorded, config, jobs=jobs, plans=plans)


def _session(bug_id: str, name: str, jobs: int = 1, batch_size: int = 0) -> str:
    rich, none, dynamic, _, hinted = _inputs(bug_id)
    config = ExplorerConfig(max_attempts=CAP, batch_size=batch_size)
    if name == "sync+dynamic":
        sync = dataclasses.replace(
            rich, sketch=SketchKind.SYNC,
            log=derive_coarser(rich.log, SketchKind.SYNC),
        )
        report = _planned(sync, config, jobs, dynamic=dynamic)
    elif name == "none+static":
        report = _planned(none, config, jobs, static=hinted)
    else:
        report = _planned(none, config, jobs, dynamic=dynamic, static=hinted)
    return _sha(render_report(report))


def _plan_digests(bug_id: str):
    _, _, dynamic, static, hinted = _inputs(bug_id)
    digests = {}
    for name, plan in (
        ("dynamic", dynamic), ("static", static), ("static-hinted", hinted)
    ):
        digests[f"{bug_id}/{name}/describe"] = _sha(plan.describe())
        digests[f"{bug_id}/{name}/seeds"] = _sha(_seeds_text(plan))
    for name in SESSIONS:
        digests[f"{bug_id}/session/{name}"] = _session(bug_id, name)
    return digests


def _store_record_text() -> str:
    def ref(tid, family, key, occurrence):
        return EventRef(tid, family, key, occurrence)

    constraints = frozenset(
        {
            OrderConstraint(ref(1, "mem", ("buf", 3), 2), ref(2, "mem", ("buf", 3), 1)),
            OrderConstraint(ref(2, "region", "row", 4), ref(1, "region", ("log", ("tail", 0)), 1)),
            OrderConstraint(ref(0, "lock", "m", 1), ref(3, "lock", ("bucket", 7), 2)),
        }
    )
    flip = OrderConstraint(ref(3, "lock", ("bucket", 7), 2), ref(0, "lock", "m", 2))
    mined = Candidate(
        constraints=constraints | {flip}, depth=4, anchor_gidx=91, shape=1,
        flip=flip, safe_prefix=40, parent_steps=120,
    )
    key = (("sync", 57, "f" * 16), constraints, 7, "random", False)
    outcome = AttemptOutcome(
        constraints=constraints, seed=7, outcome="no_failure",
        detail="ran to completion", steps=120, matched=False,
        fingerprint="0" * 16, candidates=(mined,),
    )
    return json.dumps(encode_record(key, outcome, (3, 11)), sort_keys=True)


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["digests"]


def test_fixture_covers_every_bug(frozen):
    expected = {"store/record"}
    for bug_id in ALL_BUG_IDS:
        for name in ("dynamic", "static", "static-hinted"):
            expected |= {f"{bug_id}/{name}/describe", f"{bug_id}/{name}/seeds"}
        expected |= {f"{bug_id}/session/{name}" for name in SESSIONS}
    assert set(frozen) == expected


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_analyses_reproduce_the_frozen_digests(frozen, bug_id):
    for key, digest in _plan_digests(bug_id).items():
        assert digest == frozen[key], key


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_both_plans_session_holds_through_a_pool(frozen, bug_id):
    pooled = _session(bug_id, "none+both", jobs=2, batch_size=1)
    assert pooled == frozen[f"{bug_id}/session/none+both"]


def test_store_record_bytes_are_frozen(frozen):
    assert _sha(_store_record_text()) == frozen["store/record"]


if __name__ == "__main__":
    digests = {"store/record": _sha(_store_record_text())}
    for bug_id in ALL_BUG_IDS:
        digests.update(_plan_digests(bug_id))
    payload = {"max_attempts": CAP, "ncpus": NCPUS, "digests": digests}
    FIXTURE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{len(digests)} digests written to {FIXTURE}")
