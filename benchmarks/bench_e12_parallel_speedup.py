"""E12 - parallel exploration speedup (extension).

Attempts are pure functions of (sketch log, constraints, seed), so the
exploration engine can run them on a process pool without changing what
is explored.  The asserted shape is the part that must hold on *any*
host: every arm reports the identical attempt trajectory
(jobs-invariance) and the cached re-walk answers from the attempt
cache.  Pool wall-clock speedup needs spare host cores, so it is
published (with ``host_cpus`` in the JSON meta) but not asserted — CI
runners may have a single core.
"""

import pytest

from repro.bench.speedup import e12_workload, run_speedup

CAP = 300


@pytest.fixture(scope="module")
def result():
    return run_speedup(jobs=(2, 4), max_attempts=CAP, recorded=e12_workload())


def test_e12_speedup_table(result, publish, benchmark):
    def check():
        publish("e12_parallel_speedup", result.render())

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e12_workload_is_multi_hundred_attempts(result, benchmark):
    def check():
        assert result.records[0]["attempts"] >= 200

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e12_jobs_invariance(result, benchmark):
    def check():
        assert all(record["matches_serial"] for record in result.records)
        assert len({record["attempts"] for record in result.records}) == 1

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e12_cached_rewalk_hits_every_attempt(result, benchmark):
    def check():
        cached = next(
            record for record in result.records
            if record["label"] == "cached re-walk"
        )
        assert cached["cache_hits"] == cached["attempts"]
        assert cached["speedup"] > 10

    benchmark.pedantic(check, rounds=1, iterations=1)
