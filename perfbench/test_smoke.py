"""Self-tests of the benchmark: a tiny-length run of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and once traced with ``--seconds 1``
(set-up still runs in full, so this takes a couple of minutes).  The
runs must emit exactly the metrics ``BENCHMARK.json`` lists, with their
units, and fail no operation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> tuple:
    done = _run(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_listed_metric_and_fails_nothing(workload, trace):
    result, lines = _result(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert any(
        line.split()[:2] == ["fail_frac", "0.000000"] for line in lines
    ), lines
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        # Self times exclude nested calls, so the remainder of the
        # operation they leave (explore.other_s) is positive.
        assert result["metrics"]["explore.other_s"]["value"] > 0
        assert result["metrics"]["sim.run_s"]["value"] > 0
    else:
        for entry in result["metrics"].values():
            assert entry["value"] > 0


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        str(tmp_path), "--workload", "search", "--seed", "0",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
