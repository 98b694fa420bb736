"""E16 - static guidance ablation (extension).

The static analyzer reads the guest program *source* — no recording, no
execution — predicts races / atomicity windows / lock-order cycles, and
seeds the ranked candidates into sketchless (NONE) exploration, where
they interleave with mined feedback.  The asserted shape: static
guidance never costs attempts on any suite bug (attempts 1 and 2 stay
the baseline's empty attempt and best mined flip by construction), it
strictly reduces attempts on at least three bugs, static-seeded
parallel exploration stays ``--jobs``-invariant at a fixed batch size,
and the analyzer is bytewise deterministic (two independent analyses
serialize to identical plan JSON).
"""

import pytest

from repro.bench.static_guidance import build_e16

MIN_STRICT_WINS = 3


@pytest.fixture(scope="module")
def result():
    return build_e16()


def test_e16_static_guidance_table(result, publish, benchmark):
    def check():
        publish("e16_static_guidance", result.render())

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e16_static_never_regresses_any_bug(result, benchmark):
    def check():
        assert result.meta["regressions"] == 0
        for record in result.records:
            assert record["static"]["success"] >= record["baseline"]["success"]
            if record["baseline"]["success"] and record["static"]["success"]:
                assert (
                    record["static"]["attempts"]
                    <= record["baseline"]["attempts"]
                )

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e16_static_strictly_improves_several_bugs(result, benchmark):
    def check():
        assert result.meta["wins"] >= MIN_STRICT_WINS
        improved = [r["bug"] for r in result.records if r["improved"]]
        assert len(improved) >= MIN_STRICT_WINS

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e16_static_seeded_exploration_is_jobs_invariant(result, benchmark):
    def check():
        assert result.meta["jobs_invariant"] is True

    benchmark.pedantic(check, rounds=1, iterations=1)


def test_e16_static_plan_serialization_is_deterministic(result, benchmark):
    def check():
        assert result.meta["plan_bytes_identical"] is True

    benchmark.pedantic(check, rounds=1, iterations=1)
