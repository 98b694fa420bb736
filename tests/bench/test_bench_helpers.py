"""Unit tests for the benchmark harness helpers."""

import pytest

import repro.sanitize
from repro.apps import ALL_BUG_IDS, get_bug
from repro.bench import (
    failure_rate,
    find_failing_seed,
    format_table,
    overhead_row,
)
from repro.bench.attempts import attempts_row
from repro.bench.overhead import max_reduction
from repro.bench.prediction import build_e13
from repro.bench.scaling import scaling_curves
from repro.core.sketches import SketchKind


class TestSeeds:
    def test_find_failing_seed_finds_one(self):
        seed = find_failing_seed(get_bug("openldap-deadlock"))
        assert seed is not None
        assert seed >= 0

    def test_find_failing_seed_memoized(self):
        spec = get_bug("openldap-deadlock")
        assert find_failing_seed(spec) == find_failing_seed(spec)

    def test_failure_rate_in_unit_interval(self):
        rate = failure_rate(get_bug("fft-order-sync"), samples=40)
        assert 0.0 <= rate <= 1.0

    def test_fixed_variant_rate_is_zero(self):
        spec = get_bug("fft-order-sync")
        rate = failure_rate(spec, samples=30, buggy=False)
        assert rate == 0.0


class TestOverheadRow:
    def test_row_fields(self):
        row = overhead_row(
            get_bug("lu-atom-diag"),
            (SketchKind.SYNC, SketchKind.RW),
            seed=3,
        )
        assert row.bug_id == "lu-atom-diag"
        assert row.total_events > 0
        assert row.overhead_percent[SketchKind.RW] > row.overhead_percent[
            SketchKind.SYNC
        ]

    def test_reduction_vs_rw(self):
        row = overhead_row(
            get_bug("lu-atom-diag"), (SketchKind.SYNC, SketchKind.RW), seed=3
        )
        reduction = row.reduction_vs_rw(SketchKind.SYNC)
        assert reduction > 1
        assert max_reduction([row], SketchKind.SYNC) == reduction

    def test_zero_overhead_reduction_is_infinite(self):
        row = overhead_row(
            get_bug("lu-atom-diag"),
            (SketchKind.NONE, SketchKind.RW),
            seed=3,
        )
        assert row.reduction_vs_rw(SketchKind.NONE) == float("inf")


class TestAttemptsRow:
    def test_row_reports_success_cells(self):
        row = attempts_row(
            get_bug("fft-order-sync"),
            (SketchKind.SYNC, SketchKind.RW),
            max_attempts=200,
        )
        assert row.cells[SketchKind.RW].attempts == 1
        assert row.cells[SketchKind.SYNC].success
        assert row.cells[SketchKind.SYNC].render().isdigit()


class TestScaling:
    def test_curves_shape(self):
        spec = get_bug("fft-order-sync")
        curves = scaling_curves(
            spec,
            lambda n: spec.make_program(workers=n, seg=4),
            (SketchKind.SYNC, SketchKind.RW),
            cpu_counts=(2, 4),
        )
        assert len(curves) == 2
        for curve in curves:
            assert [p.ncpus for p in curve.points] == [2, 4]
        rw = next(c for c in curves if c.sketch is SketchKind.RW)
        assert rw.growth > 1.0


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"],
            [["alpha", 1.5], ["b", 12345.0]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1] == "===="
        assert "name" in lines[2]
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows padded to the same width

    def test_float_formatting(self):
        text = format_table(["x"], [[12345.6]])
        assert "12,346" in text
        text = format_table(["x"], [[0.1234]])
        assert "0.123" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestRunner:
    def test_run_experiment_e6(self):
        from repro.bench.runner import run_experiment

        table = run_experiment("e6")
        assert "sketch log size" in table
        assert "radix-order-rank" in table

    def test_run_experiment_unknown(self):
        from repro.bench.runner import run_experiment

        with pytest.raises(ValueError, match="available"):
            run_experiment("nope")

    def test_available_experiments(self):
        from repro.bench.runner import available_experiments

        names = available_experiments()
        assert "t1" in names and "e1" in names and "e12" in names


class TestBenchResults:
    def test_structured_result_round_trips_json(self, tmp_path):
        import json

        from repro.bench.runner import run_experiment_result

        result = run_experiment_result("e6")
        payload = result.to_payload()
        json.dumps(payload)  # must be serializable as-is
        assert payload["experiment"] == "e6"
        assert payload["headers"][0] == "bug"
        assert len(payload["records"]) == 13
        assert all("log_bytes" in record for record in payload["records"])

        path = result.write_json(tmp_path)
        assert path.name == "BENCH_e6.json"
        assert json.loads(path.read_text())["experiment"] == "e6"

    def test_render_and_payload_agree(self):
        from repro.bench.results import BenchResult

        result = BenchResult(
            experiment="x", title="demo", headers=["a", "b"],
            rows=[["r", 1.5]], records=[{"a": "r", "b": 1.5}],
        )
        assert "demo" in result.render()
        assert result.to_payload()["rows"] == [["r", 1.5]]

    def test_jsonable_coerces_exotic_values(self):
        from repro.bench.results import jsonable

        assert jsonable(float("inf")) == "inf"
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable({1: float("nan")}) == {"1": "nan"}


class TestSpeedupHarness:
    def test_e12_arms_are_equivalent_and_cached(self):
        from repro.bench.speedup import e12_workload, run_speedup

        recorded = e12_workload()
        result = run_speedup(jobs=(2,), max_attempts=20, recorded=recorded)
        labels = [record["label"] for record in result.records]
        assert labels == ["serial", "pool jobs=2", "cached re-walk"]
        # Deterministic merge: every arm reports the serial trajectory.
        assert all(record["matches_serial"] for record in result.records)
        attempts = {record["attempts"] for record in result.records}
        assert len(attempts) == 1
        cached = result.records[-1]
        assert cached["cache_hits"] == cached["attempts"]


class TestPrediction:
    def test_e13_builds_each_dynamic_plan_once(self, monkeypatch):
        # one plan per bug: the jobs-invariance check reuses the
        # matrix's plans instead of building one per jobs value
        built = []
        build_plan = repro.sanitize.build_plan

        def counting(log, *args, **kwargs):
            built.append(log.fingerprint())
            return build_plan(log, *args, **kwargs)

        monkeypatch.setattr(repro.sanitize, "build_plan", counting)
        result = build_e13()
        assert len(built) == len(ALL_BUG_IDS) == 13
        assert len(set(built)) == 13
        assert result.meta["jobs_invariant"] is True
