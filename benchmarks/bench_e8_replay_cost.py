"""E8 - diagnosis-time replay cost.

The flip side of cheap recording is work moved to diagnosis time, where
the paper argues it belongs ("when performance is less critical").  This
experiment quantifies that trade: total replay steps executed and
distinct schedules explored per reproduction, per sketch.  Expected
shape: richer sketches spend less diagnosis work; the total stays within
an interactive budget for every mechanism.
"""

import pytest

from repro.apps import all_bugs
from repro.bench import format_table
from repro.core.request import ReproduceRequest, run_request
from repro.core.sketches import SketchKind

SKETCHES = (SketchKind.NONE, SketchKind.SYNC, SketchKind.SYS, SketchKind.RW)


@pytest.fixture(scope="module")
def reports():
    table = {}
    for spec in all_bugs():
        table[spec.bug_id] = {
            sketch: run_request(ReproduceRequest(
                spec.bug_id, sketch=sketch, max_attempts=400
            )).report
            for sketch in SKETCHES
        }
    return table


def test_e8_replay_cost_table(reports, publish, benchmark):
    def check():
        rows = []
        for bug_id, by_sketch in reports.items():
            row = [bug_id]
            for sketch in SKETCHES:
                report = by_sketch[sketch]
                row.append(f"{report.attempts}/{report.total_replay_steps}")
            rows.append(row)
        table = format_table(
            ["bug"] + [f"{k.value} (att/steps)" for k in SKETCHES],
            rows,
            title="E8: diagnosis cost - attempts and total replay steps",
        )
        publish("e8_replay_cost", table)

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e8_all_reproductions_succeed(reports, benchmark):
    def check():
        for bug_id, by_sketch in reports.items():
            for sketch, report in by_sketch.items():
                assert report.success, (bug_id, sketch)

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e8_diagnosis_cost_stays_interactive(reports, benchmark):
    def check():
        # No reproduction may need more than ~200k simulated replay steps
        # (seconds of wall time) - diagnosis work is bounded.
        for bug_id, by_sketch in reports.items():
            for sketch, report in by_sketch.items():
                assert report.total_replay_steps < 200_000, (bug_id, sketch)

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e8_rw_spends_least_diagnosis_work(reports, benchmark):
    def check():
        # Full-order recording buys a one-attempt replay everywhere, so its
        # diagnosis cost is the per-bug floor.
        for bug_id, by_sketch in reports.items():
            rw_steps = by_sketch[SketchKind.RW].total_replay_steps
            for sketch in (SketchKind.NONE, SketchKind.SYNC, SketchKind.SYS):
                assert rw_steps <= by_sketch[sketch].total_replay_steps * 1.05 + 50, (
                    bug_id,
                    sketch,
                )

    benchmark.pedantic(check, rounds=1, iterations=1)
