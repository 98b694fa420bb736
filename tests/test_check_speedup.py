"""The E12 speedup gate (``tools/check_speedup.py``) on synthetic artifacts.

Each test starts from a passing four-arm artifact shaped like the one
``pres bench e12 --json`` writes and breaks exactly one thing, so every
rule the CI job relies on is pinned on its own.
"""

import copy
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_speedup  # noqa: E402  (path set up above)


def _arm(label, jobs, speedup, prefix_hits=299, cache_hits=0,
         realized_resumes=None):
    if realized_resumes is None:
        realized_resumes = prefix_hits
    return {
        "label": label, "jobs": jobs, "attempts": 300, "success": False,
        "wall_time_s": 1.0, "cache_hits": cache_hits,
        "prefix_hits": prefix_hits, "realized_resumes": realized_resumes,
        "speedup": speedup, "matches_serial": True,
    }


PASSING = {
    "experiment": "e12",
    "meta": {"host_cpus": 8},
    "records": [
        _arm("serial", 1, 1.0),
        _arm("pool jobs=2", 2, 1.8),
        _arm("pool jobs=4", 4, 2.6),
        _arm("cached re-walk", 1, 150.0, prefix_hits=0, cache_hits=300),
    ],
}


def _artifact(**changes):
    """A copy of :data:`PASSING` with ``{label: {field: value}}`` applied."""
    data = copy.deepcopy(PASSING)
    for arm in data["records"]:
        arm.update(changes.get(arm["label"], {}))
    return data


def test_a_healthy_artifact_passes():
    assert check_speedup.check(PASSING) == []


def test_an_arm_that_no_longer_matches_serial_fails():
    failures = check_speedup.check(
        _artifact(**{"pool jobs=2": {"matches_serial": False}})
    )
    assert len(failures) == 1 and "matches_serial" in failures[0]


def test_a_slow_gated_arm_fails_only_with_enough_cores():
    slow = _artifact(**{"pool jobs=4": {"speedup": 1.2}})
    failures = check_speedup.check(slow)
    assert len(failures) == 1 and "below the 1.5x floor" in failures[0]
    starved = copy.deepcopy(slow)
    starved["meta"]["host_cpus"] = 2
    assert check_speedup.check(starved) == []


def test_a_gated_arm_without_prefix_hits_fails():
    failures = check_speedup.check(_artifact(**{
        "serial": {"prefix_hits": 0, "realized_resumes": 0},
        "pool jobs=2": {"prefix_hits": 0, "realized_resumes": 0},
        "pool jobs=4": {"prefix_hits": 0, "realized_resumes": 0},
    }))
    assert len(failures) == 1 and "memoization never engaged" in failures[0]


def test_a_live_arm_that_realizes_too_few_resumes_fails():
    # one unrealized resume of 299 is a shortfall; any live arm trips
    for label in ("serial", "pool jobs=2", "pool jobs=4"):
        failures = check_speedup.check(
            _artifact(**{label: {"realized_resumes": 298}})
        )
        assert len(failures) == 1, label
        assert failures[0].startswith(f"{label}: realized 298 of 299")
    assert check_speedup.check(
        _artifact(**{"pool jobs=2": {"realized_resumes": 299}})
    ) == []


def test_an_artifact_without_realized_counts_fails():
    data = copy.deepcopy(PASSING)
    for arm in data["records"]:
        del arm["realized_resumes"]
    failures = check_speedup.check(data)
    assert len(failures) == 3
    assert all("realized 0 of 299" in failure for failure in failures)


def test_the_cached_rewalk_is_exempt_from_the_realized_floor():
    rewalk = _artifact(**{
        "cached re-walk": {"prefix_hits": 7, "realized_resumes": 0}
    })
    assert check_speedup.check(rewalk) == []


def test_live_arms_that_disagree_on_prefix_hits_fail():
    failures = check_speedup.check(_artifact(serial={"prefix_hits": 0}))
    assert len(failures) == 1
    assert "disagree on prefix_hits" in failures[0]
    assert "serial: 0" in failures[0]


def test_the_cached_rewalk_is_exempt_from_prefix_agreement():
    rewalk = _artifact(**{"cached re-walk": {"prefix_hits": 7}})
    assert check_speedup.check(rewalk) == []


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(PASSING))
    assert check_speedup.main([str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_artifact(serial={"prefix_hits": 1})))
    assert check_speedup.main([str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().err
    assert check_speedup.main([]) == 2
