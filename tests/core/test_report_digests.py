"""Frozen report digests for the E3, E5 and E9 reproduction sessions.

Each session is pinned by the sha256 of its :func:`render_report` bytes
in ``tests/fixtures/report_digests.json``:

* E3 — every suite bug under every sketch, with feedback, cap 400;
* E5 — every suite bug under the SYNC sketch without feedback, cap 400;
* E9's ``pct`` arm — the same sessions as E5 under the PCT base policy,
  the only end-to-end runs of PIR under PCT.

Recordings use the first failing seed at ``ncpus=4``, as the E3/E5/E9
tables do.  The digests are the reference the exploration engine is held
to: at ``jobs=1`` for every session, and through a two-worker pool for
the SYNC column (feedback sessions at ``batch_size=1``, whose schedule is
the ``jobs=1`` schedule; no-feedback sessions at the automatic batch
size, which the seed sequence makes batch-invariant).

Regenerate the fixture by running this module as a script — only for a
change that is *meant* to alter what exploration does::

    PYTHONPATH=src python tests/core/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.apps import ALL_BUG_IDS, get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import SKETCH_ORDER, SketchKind
from repro.sim import MachineConfig

FIXTURE = (
    pathlib.Path(__file__).parent.parent / "fixtures" / "report_digests.json"
)
CAP = 400
NCPUS = 4


def _session(
    bug_id: str, sketch: SketchKind, feedback: bool, policy: str = "random"
) -> str:
    mode = "feedback" if feedback else "no-feedback"
    key = f"{bug_id}/{sketch.value}/{mode}"
    return key if policy == "random" else f"{key}/{policy}"


def _sessions():
    for bug_id in ALL_BUG_IDS:
        for sketch in SKETCH_ORDER:
            yield bug_id, sketch, True, "random"
        yield bug_id, SketchKind.SYNC, False, "random"
        yield bug_id, SketchKind.SYNC, False, "pct"


def _digest(
    bug_id: str, sketch: SketchKind, feedback: bool, policy: str = "random",
    jobs: int = 1, batch_size: int = 0,
) -> str:
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=NCPUS)
    recorded = record(
        spec.make_program(),
        sketch=sketch,
        seed=seed,
        config=MachineConfig(ncpus=NCPUS),
        oracle=spec.oracle,
    )
    config = ExplorerConfig(max_attempts=CAP, batch_size=batch_size)
    report = reproduce(
        recorded, config, use_feedback=feedback, base_policy=policy, jobs=jobs
    )
    return hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["digests"]


def test_fixture_covers_every_session(frozen):
    assert sorted(frozen) == sorted(_session(*s) for s in _sessions())


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_engine_reproduces_the_frozen_digests(frozen, bug_id):
    for session in _sessions():
        if session[0] != bug_id:
            continue
        assert _digest(*session) == frozen[_session(*session)], session


@pytest.mark.parametrize("bug_id", ALL_BUG_IDS)
def test_sync_column_holds_through_a_pool(frozen, bug_id):
    feedback = _digest(bug_id, SketchKind.SYNC, True, jobs=2, batch_size=1)
    assert feedback == frozen[_session(bug_id, SketchKind.SYNC, True)]
    no_feedback = _digest(bug_id, SketchKind.SYNC, False, jobs=2)
    assert no_feedback == frozen[_session(bug_id, SketchKind.SYNC, False)]


if __name__ == "__main__":
    digests = {_session(*s): _digest(*s) for s in _sessions()}
    payload = {"max_attempts": CAP, "ncpus": NCPUS, "digests": digests}
    FIXTURE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"{len(digests)} digests written to {FIXTURE}")
