"""E7 - reproduce-every-time.

Paper claim: "after a bug is reproduced once, PRES can reproduce it every
time."  For every bug: reproduce once probabilistically, save the
complete log, then replay it repeatedly - each replay must re-trigger the
same failure with the identical schedule.
"""

import pytest

from repro.apps import all_bugs, get_bug
from repro.bench import format_table
from repro.bench.seeds import find_failing_seed
from repro.core.full_replay import replay_complete
from repro.core.request import ReproduceRequest, run_request

REPLAYS = 5


@pytest.fixture(scope="module")
def complete_logs():
    logs = {}
    for spec in all_bugs():
        report = run_request(ReproduceRequest(
            spec.bug_id, max_attempts=400
        )).report
        assert report.success, spec.bug_id
        logs[spec.bug_id] = report.complete_log
    return logs


def test_e7_every_bug_replays_deterministically(complete_logs, publish, benchmark):
    def check():
        rows = []
        for spec in all_bugs():
            log = complete_logs[spec.bug_id]
            program = spec.make_program()
            signatures = set()
            schedules = set()
            for _ in range(REPLAYS):
                trace = replay_complete(program, log, oracle=spec.oracle)
                assert trace.failure is not None, spec.bug_id
                signatures.add(trace.failure.signature())
                schedules.add(tuple(trace.schedule))
            assert len(signatures) == 1, spec.bug_id
            assert len(schedules) == 1, spec.bug_id
            assert signatures.pop() == log.failure_signature
            rows.append([spec.bug_id, REPLAYS, f"{REPLAYS}/{REPLAYS}", len(log.schedule)])
        table = format_table(
            ["bug", "replays", "reproduced", "log steps"],
            rows,
            title="E7: deterministic replay from the complete log",
        )
        publish("e7_determinism", table)

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e7_complete_log_survives_serialization(complete_logs, benchmark):
    def check():
        from repro.core.full_replay import CompleteLog

        spec = get_bug("openldap-deadlock")
        log = complete_logs[spec.bug_id]
        restored = CompleteLog.from_json(log.to_json())
        trace = replay_complete(spec.make_program(), restored, oracle=spec.oracle)
        assert trace.failure is not None
        assert trace.failure.signature() == log.failure_signature

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e7_replay_speed(benchmark, complete_logs):
    """Timed portion: one deterministic replay (the developer's iteration
    loop once the bug is captured)."""
    spec = get_bug("mysql-atom-log")
    log = complete_logs[spec.bug_id]
    program = spec.make_program()

    def replay_once():
        return replay_complete(program, log, oracle=spec.oracle)

    trace = benchmark.pedantic(replay_once, rounds=5, iterations=1)
    assert trace.failure is not None
