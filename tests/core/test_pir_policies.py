"""Tests for PIR base policies (random vs PCT choosers)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pir import PCTChooser, PIRScheduler, RandomChooser, make_chooser
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.explorer import ExplorerConfig
from repro.core.sketches import SketchKind
from repro.sim import Machine, MachineConfig

from tests.conftest import counter_program, find_seed, order_violation_program


class TestChoosers:
    def test_make_chooser_dispatch(self):
        assert isinstance(make_chooser("random", 0), RandomChooser)
        assert isinstance(make_chooser("pct", 0), PCTChooser)
        with pytest.raises(ValueError, match="unknown base policy"):
            make_chooser("magic", 0)

    def test_random_chooser_deterministic(self):
        a, b = RandomChooser(5), RandomChooser(5)
        a.restart()
        b.restart()
        assert [a.choose([1, 2, 3]) for _ in range(20)] == [
            b.choose([1, 2, 3]) for _ in range(20)
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        lengths=st.lists(st.integers(min_value=1, max_value=64), max_size=50),
    )
    def test_random_chooser_draws_what_randrange_draws(self, seed, lengths):
        # RandomChooser draws with getrandbits the way randrange(n) does;
        # any other draw would change every schedule and report.
        chooser = RandomChooser(seed)
        chooser.restart()
        reference = random.Random(seed)
        assert [chooser.choose(list(range(n))) for n in lengths] == [
            reference.randrange(n) for n in lengths
        ]

    def test_pct_chooser_prefers_high_priority(self):
        chooser = PCTChooser(seed=1, depth=1)
        chooser.restart()
        first = chooser.choose([1, 2, 3])
        # with no change points, the same winner repeats while available
        assert all(chooser.choose([1, 2, 3]) == first for _ in range(10))

    def test_pct_chooser_change_point_demotes(self):
        chooser = PCTChooser(seed=3, depth=4, max_steps_hint=20)
        chooser.restart()
        picks = [chooser.choose([1, 2]) for _ in range(20)]
        assert len(set(picks)) == 2  # demotions force a switch

    @pytest.mark.parametrize(
        "build",
        [lambda: RandomChooser(7),
         lambda: PCTChooser(seed=7, depth=4, max_steps_hint=20)],
        ids=["random", "pct"],
    )
    def test_one_capture_restores_any_number_of_times(self, build):
        chooser = build()
        chooser.restart()
        for _ in range(5):
            chooser.choose([1, 2])
        state = chooser.capture()
        # thread 3 first competes after the capture, and PCT's change
        # points fall on both sides of it
        expected = [chooser.choose([1, 2, 3]) for _ in range(20)]
        for _ in range(2):
            restored = build()
            restored.restore(state)
            assert [restored.choose([1, 2, 3]) for _ in range(20)] == expected


class TestPolicyEndToEnd:
    def test_both_policies_replay_the_sketch_faithfully(self):
        program = counter_program(nworkers=3, iters=4)
        recorded = record(program, SketchKind.SYNC, seed=9)
        for policy in ("random", "pct"):
            scheduler = PIRScheduler(
                recorded.log, (), base_seed=2, base_policy=policy
            )
            trace = Machine(program, scheduler, MachineConfig(ncpus=4)).run()
            assert not trace.diverged, (policy, trace.divergence)

    def test_policies_explore_different_schedules(self):
        program = counter_program(nworkers=3, iters=4)
        recorded = record(program, SketchKind.SYNC, seed=9)
        traces = {}
        for policy in ("random", "pct"):
            scheduler = PIRScheduler(
                recorded.log, (), base_seed=2, base_policy=policy
            )
            traces[policy] = Machine(
                program, scheduler, MachineConfig(ncpus=4)
            ).run()
        assert traces["random"].schedule != traces["pct"].schedule

    def test_pct_reproduction_end_to_end(self):
        program = order_violation_program()
        seed = find_seed(program)
        recorded = record(program, SketchKind.SYNC, seed=seed)
        report = reproduce(
            recorded,
            ExplorerConfig(max_attempts=100),
            use_feedback=False,
            base_policy="pct",
        )
        assert report.success
