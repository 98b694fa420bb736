"""Tests for the `pres` command-line interface."""

import json
import random

import pytest

from repro.cli import main


class TestBugs:
    def test_lists_all_thirteen(self, capsys):
        assert main(["bugs"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 13
        assert "mysql-atom-log" in out
        assert "deadlock" in out


class TestFindSeed:
    def test_prints_a_seed(self, capsys):
        assert main(["find-seed", "openldap-deadlock"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.isdigit()

    def test_unknown_bug_is_an_error(self, capsys):
        assert main(["find-seed", "no-such-bug"]) == 2
        assert "known bugs" in capsys.readouterr().err


class TestRecord:
    def test_record_reports_stats(self, capsys):
        assert main(["record", "fft-order-sync", "--seed", "43"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out and "entries" in out

    def test_record_writes_sketch_json(self, capsys, tmp_path):
        out_file = tmp_path / "sketch.json"
        assert main(
            ["record", "fft-order-sync", "--seed", "43", "--out", str(out_file)]
        ) == 0
        payload = json.loads(out_file.read_text())
        assert payload["sketch"] == "sync"
        assert payload["entries"]

    def test_sketch_flag_selects_mechanism(self, capsys, tmp_path):
        out_file = tmp_path / "sketch.json"
        assert main(
            ["record", "fft-order-sync", "--seed", "43", "--sketch", "rw",
             "--out", str(out_file)]
        ) == 0
        assert json.loads(out_file.read_text())["sketch"] == "rw"


class TestAnalyze:
    """`pres analyze` reads both sketch-log files `pres record` writes."""

    def _record(self, tmp_path, bug, seed):
        journal, log_file = tmp_path / "rw.journal", tmp_path / "rw.json"
        assert main(
            ["record", bug, "--seed", str(seed), "--sketch", "rw",
             "--ncpus", "4", "--journal", str(journal), "--out", str(log_file)]
        ) == 0
        return journal, log_file

    @pytest.mark.parametrize(
        "bug,seed",
        [("pbzip2-order-free", 3), ("mysql-atom-log", 4),
         ("openldap-deadlock", 0)],
    )
    def test_journal_and_json_give_the_same_plan(
        self, capsys, tmp_path, bug, seed
    ):
        journal, log_file = self._record(tmp_path, bug, seed)
        capsys.readouterr()
        assert main(["analyze", str(journal), "--json"]) == 0
        from_journal = capsys.readouterr().out
        assert main(["analyze", str(log_file), "--json"]) == 0
        assert from_journal == capsys.readouterr().out

    def test_torn_journal_exits_2_with_the_doctor_hint(self, capsys, tmp_path):
        journal, _ = self._record(tmp_path, "pbzip2-order-free", 3)
        journal.write_bytes(journal.read_bytes()[:900])
        capsys.readouterr()
        assert main(["analyze", str(journal)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "journal is damaged" in err
        assert "pres doctor" in err
        assert "Traceback" not in err

    def test_binary_sketch_file_exits_2_with_an_error_line(
        self, capsys, tmp_path
    ):
        from repro.core.sketchlog import SketchLog

        _, log_file = self._record(tmp_path, "pbzip2-order-free", 3)
        binary = tmp_path / "rw.prez"
        binary.write_bytes(
            SketchLog.from_json(log_file.read_text()).to_bytes_compressed()
        )
        capsys.readouterr()
        assert main(["analyze", str(binary)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestNonUtf8Files:
    """A file that is not UTF-8 is a named error naming the file, exit 2."""

    @pytest.fixture
    def garbage(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x9c" + random.Random(0).randbytes(199))
        return path

    def _refused(self, capsys, argv, garbage):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(garbage) in err and "Traceback" not in err
        assert not err.startswith("'utf-8' codec")
        return err

    def test_replay_log(self, capsys, garbage):
        err = self._refused(
            capsys, ["replay", "pbzip2-order-free", "--log", str(garbage)],
            garbage,
        )
        assert err.startswith(f"error: {garbage}: not a complete log (byte 0")

    def test_reproduce_static_plan(self, capsys, garbage):
        err = self._refused(
            capsys,
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--static-plan", str(garbage)],
            garbage,
        )
        assert err.startswith(f"error: {garbage}: not a plan file (byte 0")

    def test_inspect(self, capsys, garbage):
        err = self._refused(capsys, ["inspect", str(garbage)], garbage)
        assert err.startswith(f"{garbage} is not valid JSON: ")


class TestReproduce:
    def test_full_pipeline_and_replay(self, capsys, tmp_path):
        log_file = tmp_path / "complete.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--out", str(log_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced in" in out
        assert log_file.exists()

        code = main(["replay", "pbzip2-order-free", "--log", str(log_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced:" in out

    def test_clean_seed_is_rejected(self, capsys):
        # seed 0 of fft does not fail
        code = main(["reproduce", "fft-order-sync", "--seed", "0"])
        assert code == 1
        assert "did not fail" in capsys.readouterr().err

    def test_no_feedback_flag_accepted(self, capsys):
        code = main(
            ["reproduce", "openldap-deadlock", "--seed", "0", "--no-feedback",
             "--max-attempts", "50"]
        )
        assert code == 0

    def test_jobs_flag_reproduces_on_a_pool(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--jobs", "2", "--max-attempts", "40"]
        )
        assert code == 0
        assert "reproduced in" in capsys.readouterr().out


class TestDiagnose:
    def test_diagnose_prints_report(self, capsys):
        code = main(["diagnose", "openldap-deadlock", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "failure: deadlock" in out
        assert "wait-for cycle" in out


class TestBench:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "t1" in out

    def test_bench_renders_a_table(self, capsys):
        assert main(["bench", "e6"]) == 0
        out = capsys.readouterr().out
        assert "sketch log size" in out
        assert "mysql-atom-log" in out

    def test_bench_unknown_experiment(self, capsys):
        assert main(["bench", "e99"]) == 2
        assert "available" in capsys.readouterr().err

    def test_bench_json_writes_machine_readable_results(self, capsys, tmp_path):
        assert main(["bench", "t1", "--json", "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results written to" in out
        payload = json.loads((tmp_path / "BENCH_t1.json").read_text())
        assert payload["experiment"] == "t1"
        assert len(payload["records"]) == 13
        assert all("failure_rate" in record for record in payload["records"])

    @pytest.mark.parametrize("target", ["missing", "a-file"])
    def test_bad_json_dir_is_refused_before_the_experiment_runs(
        self, capsys, tmp_path, monkeypatch, target
    ):
        from repro.bench import runner

        def must_not_run(*args, **kwargs):
            raise AssertionError("the experiment ran before --json-dir was checked")

        monkeypatch.setattr(runner, "run_experiment_result", must_not_run)
        (tmp_path / "a-file").write_text("", encoding="utf-8")
        json_dir = tmp_path / target
        assert main(["bench", "t1", "--json", "--json-dir", str(json_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "--json-dir" in err
        assert not (tmp_path / "missing").exists()


class TestExecOut:
    def test_reproduce_saves_execution(self, capsys, tmp_path):
        exec_file = tmp_path / "repro.jsonl"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--exec-out", str(exec_file)]
        )
        assert code == 0
        from repro.sim.persist import read_trace

        trace = read_trace(str(exec_file))
        assert trace.failed
        assert trace.failure.kind.value == "crash"


class TestObservability:
    def test_reproduce_writes_chrome_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--trace-out", str(trace_file)]
        )
        assert code == 0
        assert "observability trace written" in capsys.readouterr().out
        payload = json.loads(trace_file.read_text())
        assert payload["traceEvents"]
        names = {e["name"] for e in payload["traceEvents"]}
        assert "reproduce" in names and "attempt" in names

    def test_reproduce_writes_metrics_snapshot(self, capsys, tmp_path):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--metrics-out", str(metrics_file)]
        )
        assert code == 0
        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["counters"]["attempts"] >= 1
        assert snapshot["counters"]["attempts_matched"] == 1
        assert "attempt_steps" in snapshot["histograms"]

    def test_artifacts_written_even_on_failed_reproduction(
        self, capsys, tmp_path
    ):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--max-attempts", "1", "--metrics-out", str(metrics_file)]
        )
        assert code == 1  # not reproduced within 1 attempt
        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["counters"]["attempts"] == 1

    def test_inspect_renders_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--trace-out", str(trace_file)]
        ) == 0
        capsys.readouterr()
        assert main(["inspect", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "attempt timeline" in out
        assert "<- matched" in out

    def test_inspect_rejects_non_trace_json(self, capsys, tmp_path):
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text('{"schedule": [1, 2, 3]}')
        assert main(["inspect", str(bogus)]) == 2
        assert capsys.readouterr().err

    def test_bench_embeds_metrics_in_json(self, capsys, tmp_path):
        metrics_file = tmp_path / "metrics.json"
        code = main(
            ["bench", "e12", "--json", "--json-dir", str(tmp_path),
             "--metrics-out", str(metrics_file)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_e12.json").read_text())
        assert payload["meta"]["metrics"]["counters"]["attempts"] > 0
        assert json.loads(metrics_file.read_text()) == payload["meta"]["metrics"]


class TestStats:
    def test_stats_prints_summary_and_hazards(self, capsys):
        assert main(["stats", "openldap-deadlock", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "sync density" in out
        assert "lock-order graph" in out

    def test_stats_sketch_flag_reports_visible_events(self, capsys):
        assert main(
            ["stats", "openldap-deadlock", "--seed", "5", "--sketch", "sync"]
        ) == 0
        out = capsys.readouterr().out
        assert "sync sketch would record" in out

    def test_stats_rejects_unknown_sketch_by_name(self, capsys):
        assert main(
            ["stats", "openldap-deadlock", "--seed", "5", "--sketch", "bogus"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown sketch kind 'bogus'" in err
        assert "sync" in err  # the error names the valid kinds


class TestStore:
    def _reproduce_into(self, store, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--store", str(store)]
        )
        out = capsys.readouterr().out
        assert code == 0
        return out

    def test_reproduce_store_round_trip_and_maintenance(self, capsys, tmp_path):
        store = tmp_path / "store"
        cold = self._reproduce_into(store, capsys)
        assert "0 attempt(s) answered from the store" in cold

        assert main(["store", "stats", str(store)]) == 0
        assert "attempt record(s)" in capsys.readouterr().out

        assert main(["store", "verify", str(store)]) == 0
        assert "store: ok" in capsys.readouterr().out

        warm = self._reproduce_into(store, capsys)
        assert "0 replayed live" in warm

        assert main(["store", "gc", str(store), "--max-records", "1"]) == 0
        assert "evicted" in capsys.readouterr().out

    def test_verify_reports_a_torn_tail(self, capsys, tmp_path):
        from repro.robust.inject import truncate_file

        store = tmp_path / "store"
        self._reproduce_into(store, capsys)
        shard = sorted(store.rglob("attempts.jsonl"))[0]
        truncate_file(str(shard), -3)

        assert main(["store", "verify", str(store)]) == 1
        out = capsys.readouterr().out
        assert "torn" in out


class TestResilience:
    def test_chaos_flag_reproduces_identically(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3", "--jobs", "2",
             "--chaos", "crash=0.2,hang=0.1,seed=7", "--max-attempts", "40"]
        )
        assert code == 0
        assert "reproduced in" in capsys.readouterr().out

    def test_bad_chaos_spec_is_a_usage_error(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--chaos", "explode=0.5"]
        )
        assert code == 2
        assert "bad chaos spec" in capsys.readouterr().err

    def test_supervision_flags_are_accepted(self, capsys):
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3", "--jobs", "2",
             "--attempt-timeout", "60", "--max-retries", "1",
             "--max-attempts", "40"]
        )
        assert code == 0
        assert "reproduced in" in capsys.readouterr().out

    def test_killed_run_resumes_from_its_store(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.store.persistent import PersistentAttemptCache

        cold = tmp_path / "cold.txt"
        assert main(
            ["reproduce", "mysql-atom-log", "--seed", "4",
             "--report-out", str(cold)]
        ) == 0
        store, rerun = str(tmp_path / "store"), tmp_path / "rerun.txt"
        command = ["reproduce", "mysql-atom-log", "--seed", "4",
                   "--store", store, "--report-out", str(rerun)]

        put, puts = PersistentAttemptCache.put, []

        def killing_put(self, key, outcome):
            put(self, key, outcome)
            puts.append(key)
            if len(puts) == 5:
                raise KeyboardInterrupt

        monkeypatch.setattr(PersistentAttemptCache, "put", killing_put)
        capsys.readouterr()
        assert main(command) == 130
        out = capsys.readouterr().out
        assert "INTERRUPTED after 5 attempt(s)" in out
        assert (f"resume: run the same command again; the store {store} "
                "keeps every decided attempt") in out

        monkeypatch.undo()
        assert main(command) == 0
        assert "5 attempt(s) answered from the store" in capsys.readouterr().out
        assert rerun.read_bytes() == cold.read_bytes()

    def test_resuming_an_unknown_run_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["reproduce", "pbzip2-order-free", "--seed", "3",
                  "--resume", "x"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    def test_interrupt_mid_exploration_exits_130(self, capsys, monkeypatch):
        from repro.robust.supervise import Supervisor

        def boom(self, tasks):
            raise KeyboardInterrupt

        monkeypatch.setattr(Supervisor, "evaluate_batch", boom)
        code = main(["reproduce", "pbzip2-order-free", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 130
        assert "interrupted: true" in out
        assert "INTERRUPTED after 0 attempt(s)" in out
        assert "resume: pass --store DIR" in out

    def test_doctor_triages_and_cleans_a_store_directory(
        self, capsys, tmp_path
    ):
        store = tmp_path / "store"
        assert main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(["doctor", str(store)]) == 0
        assert "store: ok" in capsys.readouterr().out

        (store / "leftover.gc").write_text("")
        assert main(["doctor", str(store)]) == 1
        out = capsys.readouterr().out
        assert "stale" in out
        assert "--clean" in out  # the hint

        assert main(["doctor", str(store), "--clean"]) == 0
        assert "cleaned:" in capsys.readouterr().out
        assert main(["doctor", str(store)]) == 0
        assert "DAMAGED" in out


class TestPlans:
    """Saved plans: the analyze-save-reuse path and malformed plan files."""

    @pytest.mark.parametrize(
        "text", ['{"format": "pres-static-plan-v1"}', "[]", "not json"]
    )
    def test_malformed_static_plan_exits_2_with_an_error_line(
        self, capsys, tmp_path, text
    ):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(text, encoding="utf-8")
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--static-plan", str(plan_file)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert any(line.startswith("error: ") for line in err.splitlines())
        assert "Traceback" not in err

    def test_static_plan_flag_refuses_a_dynamic_plan(self, capsys, tmp_path):
        log_file, plan_file = tmp_path / "rw.json", tmp_path / "plan.json"
        assert main(
            ["record", "pbzip2-order-free", "--seed", "3", "--sketch", "rw",
             "--out", str(log_file)]
        ) == 0
        assert main(["analyze", str(log_file), "--out", str(plan_file)]) == 0
        capsys.readouterr()
        code = main(
            ["reproduce", "pbzip2-order-free", "--seed", "3",
             "--static-plan", str(plan_file)]
        )
        assert code == 2
        assert "holds a dynamic plan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bug", ["mysql-atom-log", "lu-atom-diag", "radix-order-rank"]
    )
    def test_saved_static_plan_seeds_what_reanalysis_seeds(
        self, capsys, tmp_path, bug
    ):
        fresh_report = tmp_path / "fresh.txt"
        assert main(
            ["reproduce", bug, "--static", "--report-out", str(fresh_report)]
        ) == 0
        fresh = capsys.readouterr().out.splitlines()
        failure = next(
            line for line in fresh if line.startswith("production: ")
        )[len("production: "):]
        plan_file = tmp_path / "plan.json"
        assert main(
            ["analyze", bug, "--static", "--failure", failure,
             "--out", str(plan_file)]
        ) == 0
        capsys.readouterr()
        saved_report = tmp_path / "saved.txt"
        assert main(
            ["reproduce", bug, "--static-plan", str(plan_file),
             "--report-out", str(saved_report)]
        ) == 0
        saved = capsys.readouterr().out.splitlines()

        def summary(lines):
            return next(line for line in lines if line.startswith("static plan: "))

        assert summary(saved) == summary(fresh)
        assert saved_report.read_bytes() == fresh_report.read_bytes()
