"""E3 - replay attempts needed to reproduce each bug, per sketch.

Paper claim: "PRES (with synchronization or system call sketching) ...
still reproduc[es] most tested bugs in fewer than 10 replay attempts",
and full-order recording reproduces on the first attempt by construction.
"""

import pytest

from repro.apps import all_bugs
from repro.bench import format_table
from repro.bench.attempts import attempts_matrix
from repro.core.sketches import SKETCH_ORDER, SketchKind


@pytest.fixture(scope="module")
def matrix():
    return attempts_matrix(all_bugs(), SKETCH_ORDER, max_attempts=400, ncpus=4)


def test_e3_attempts_table(matrix, publish, benchmark):
    def check():
        rows = [
            [row.bug_id, row.bug_type, row.seed]
            + [row.cells[sketch].render() for sketch in SKETCH_ORDER]
            for row in matrix
        ]
        table = format_table(
            ["bug", "type", "seed"] + [k.value for k in SKETCH_ORDER],
            rows,
            title="E3: replay attempts to reproduce (cap 400; '>N' = not reproduced)",
        )
        publish("e3_replay_attempts", table)
        # every bug reproduces under every mechanism within the cap
        for row in matrix:
            for sketch in SKETCH_ORDER:
                assert row.cells[sketch].success, (row.bug_id, sketch)

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e3_rw_reproduces_first_attempt(matrix, benchmark):
    def check():
        for row in matrix:
            assert row.cells[SketchKind.RW].attempts == 1, row.bug_id

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e3_most_bugs_under_ten_with_sync_or_sys(matrix, benchmark):
    def check():
        under_ten = sum(
            1
            for row in matrix
            if min(
                row.cells[SketchKind.SYNC].attempts,
                row.cells[SketchKind.SYS].attempts,
            )
            < 10
        )
        assert under_ten > len(matrix) // 2, f"only {under_ten}/{len(matrix)}"

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e3_reproduction_speed(benchmark):
    """Timed portion: one full reproduction session (SYNC sketch)."""
    from repro.core.request import ReproduceRequest, run_request

    def session():
        return run_request(ReproduceRequest(
            "pbzip2-order-free", sketch=SketchKind.SYNC
        )).report

    report = benchmark.pedantic(session, rounds=3, iterations=1)
    assert report.success
