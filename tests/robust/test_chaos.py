"""Chaos harness: seeded fault injection and report equivalence.

The headline robustness claim (E17, ``docs/resilience.md``): injected
crashes, hangs, and store corruption change *where* attempt outcomes are
computed — retries, inline fallbacks, quarantined shards — never *what*
the reproduction reports.  These tests pin the ``--chaos`` spec grammar,
the content-keyed verdict function, and the equivalence claim itself
across four suite bugs, including jobs-invariance of the injected-fault
counters and the store-corruption round trip.
"""

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import record
from repro.core.reproducer import report_signature, reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.robust.inject import ChaosInjector, ChaosSpec, parse_chaos
from repro.robust.supervise import SuperviseConfig
from repro.sim import MachineConfig
from repro.store import verify_store

#: ~10% combined crash+hang dispatch rate, as in the E17 benchmark.
CHAOS = "crash=0.06,hang=0.04,seed=11"

#: four T1 bugs spanning categories; module-scoped so each records once.
BUGS = ("mysql-atom-log", "apache-atom-buf", "fft-order-sync",
        "pbzip2-order-free")

CFG = ExplorerConfig(max_attempts=60)

#: retries should not sleep inside the test suite.
SUPERVISE = SuperviseConfig(backoff_base=0.0)


@pytest.fixture(scope="module", params=BUGS)
def recorded(request):
    spec = get_bug(request.param)
    seed = find_failing_seed(spec, ncpus=4)
    assert seed is not None
    return record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=4),
        oracle=spec.oracle,
    )


class TestParseChaos:
    def test_full_spec(self):
        spec = parse_chaos("crash=0.1,hang=0.05,corrupt=0.02,seed=7")
        assert spec == ChaosSpec(crash=0.1, hang=0.05, corrupt=0.02, seed=7)

    def test_keys_are_optional_and_order_free(self):
        spec = parse_chaos("seed=3, crash=0.5")
        assert spec.crash == 0.5
        assert spec.hang == 0.0 and spec.corrupt == 0.0
        assert spec.seed == 3

    def test_unknown_key_is_rejected(self):
        with pytest.raises(ValueError, match="bad chaos spec"):
            parse_chaos("explode=0.1")

    def test_duplicate_key_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate key"):
            parse_chaos("crash=0.1,crash=0.2")

    def test_rate_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            parse_chaos("hang=1.5")

    def test_non_numeric_rate_is_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_chaos("crash=lots")

    def test_non_integer_seed_is_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            parse_chaos("seed=pi")

    def test_empty_spec_is_rejected(self):
        with pytest.raises(ValueError, match="empty chaos spec"):
            parse_chaos("  ,  ")

    def test_active_property(self):
        assert not ChaosSpec(seed=9).active
        assert ChaosSpec(hang=0.01).active


class TestVerdicts:
    def test_verdicts_are_deterministic_in_content(self):
        left = ChaosInjector(ChaosSpec(crash=0.3, hang=0.3, seed=5))
        right = ChaosInjector(ChaosSpec(crash=0.3, hang=0.3, seed=5))
        materials = [f"7|frozenset({i})" for i in range(50)]
        assert [left.verdict(m, 0) for m in materials] == [
            right.verdict(m, 0) for m in materials
        ]

    def test_retry_rolls_again_at_each_try_index(self):
        injector = ChaosInjector(ChaosSpec(crash=0.5, seed=5))
        verdicts = {injector.verdict("same-attempt", t) for t in range(20)}
        assert verdicts == {None, "crash"}  # both outcomes across tries

    def test_zero_rates_never_inject(self):
        injector = ChaosInjector(ChaosSpec(seed=5))
        assert all(
            injector.verdict(f"m{i}", 0) is None for i in range(50)
        )

    def test_certain_crash_always_injects(self):
        injector = ChaosInjector(ChaosSpec(crash=1.0, seed=5))
        assert all(
            injector.verdict(f"m{i}", 0) == "crash" for i in range(20)
        )


class TestReportEquivalence:
    def test_chaos_report_is_byte_identical_to_fault_free(self, recorded):
        baseline = reproduce(recorded, CFG, supervise=SUPERVISE)
        chaotic = reproduce(recorded, CFG, supervise=SUPERVISE, chaos=CHAOS)
        assert report_signature(chaotic) == report_signature(baseline)

    def test_chaos_counters_are_jobs_invariant(self, recorded):
        signatures = []
        counters = []
        for jobs in (1, 2):
            obs = ObsSession.create(trace=False, metrics=True)
            config = ExplorerConfig(max_attempts=60, jobs=jobs, batch_size=4)
            # crash=1.0 makes injection certain even for bugs that
            # reproduce in a couple of attempts.
            report = reproduce(
                recorded, config, obs=obs,
                supervise=SUPERVISE, chaos="crash=1.0,seed=11",
            )
            signatures.append(report_signature(report))
            counters.append(
                {
                    name: obs.metrics.counter(name).value
                    for name in (
                        "supervise.chaos_injected",
                        "supervise.retries",
                        "supervise.inline_fallbacks",
                    )
                }
            )
        assert signatures[0] == signatures[1]
        assert counters[0] == counters[1]
        assert counters[0]["supervise.chaos_injected"] > 0


class TestStoreCorruption:
    def test_corrupted_shard_is_quarantined_and_report_unchanged(
        self, recorded, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        cold = reproduce(recorded, CFG, store=store_dir)

        injector = ChaosInjector(ChaosSpec(corrupt=1.0, seed=3))
        hit = injector.corrupt_store(store_dir, tick=0)
        assert hit is not None
        assert verify_store(store_dir).ok is False

        obs = ObsSession.create(trace=False, metrics=True)
        warm = reproduce(recorded, CFG, store=store_dir, obs=obs)
        assert report_signature(warm) == report_signature(cold)
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("store.quarantined", 0) > 0

    def test_corrupt_store_is_a_no_op_at_rate_zero(self, tmp_path):
        injector = ChaosInjector(ChaosSpec(seed=3))
        assert injector.corrupt_store(str(tmp_path), tick=0) is None
