"""Tests for PIR base policies (the random and PCT schedulers)."""

import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pir import PIRScheduler, make_chooser
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.explorer import ExplorerConfig
from repro.core.sketches import SketchKind
from repro.sim import Machine, MachineConfig, PCTScheduler, RandomScheduler

from tests.conftest import counter_program, find_seed, order_violation_program

#: builds each base policy from a seed; PCT's change points fall within
#: the first 20 picks.
POLICIES = {
    "random": RandomScheduler,
    "pct": lambda seed: PCTScheduler(seed, depth=4, max_steps_hint=20),
}


def _pick(policy, runnable):
    # PIR hands its policy only the allowed set; the machine is unused
    return policy.pick(None, runnable)


class TestChoosers:
    def test_make_chooser_dispatch(self):
        assert isinstance(make_chooser("random", 0), RandomScheduler)
        assert isinstance(make_chooser("pct", 0), PCTScheduler)
        with pytest.raises(ValueError, match="unknown base policy"):
            make_chooser("magic", 0)

    def test_random_chooser_deterministic(self):
        a, b = RandomScheduler(5), RandomScheduler(5)
        a.on_run_start(None)
        b.on_run_start(None)
        assert [_pick(a, [1, 2, 3]) for _ in range(20)] == [
            _pick(b, [1, 2, 3]) for _ in range(20)
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**64),
        lengths=st.lists(st.integers(min_value=1, max_value=64), max_size=50),
    )
    def test_random_chooser_draws_what_randrange_draws(self, seed, lengths):
        # RandomScheduler.pick draws with getrandbits the way randrange(n)
        # does; recordings and replays both draw through it, so any other
        # draw would change every recording, schedule and report.
        scheduler = RandomScheduler(seed)
        reference = random.Random(seed)
        assert [_pick(scheduler, list(range(n))) for n in lengths] == [
            reference.randrange(n) for n in lengths
        ]

    def test_pct_chooser_prefers_high_priority(self):
        chooser = PCTScheduler(seed=1, depth=1)
        chooser.on_run_start(None)
        first = _pick(chooser, [1, 2, 3])
        # with no change points, the same winner repeats while available
        assert all(_pick(chooser, [1, 2, 3]) == first for _ in range(10))

    def test_pct_chooser_change_point_demotes(self):
        chooser = PCTScheduler(seed=3, depth=4, max_steps_hint=20)
        chooser.on_run_start(None)
        picks = [_pick(chooser, [1, 2]) for _ in range(20)]
        assert len(set(picks)) == 2  # demotions force a switch

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_one_capture_restores_any_number_of_times(self, policy):
        build = functools.partial(POLICIES[policy], 7)
        chooser = build()
        chooser.on_run_start(None)
        for _ in range(5):
            _pick(chooser, [1, 2])
        state = chooser.capture()
        # thread 3 first competes after the capture, and PCT's change
        # points fall on both sides of it
        expected = [_pick(chooser, [1, 2, 3]) for _ in range(20)]
        for _ in range(2):
            restored = build()
            restored.restore(state)
            assert [_pick(restored, [1, 2, 3]) for _ in range(20)] == expected

    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        seed=st.integers(min_value=0, max_value=2**32),
        sets=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=6), min_size=1,
                max_size=5, unique=True,
            ).map(sorted),
            max_size=40,
        ),
        k=st.integers(min_value=0, max_value=40),
    )
    def test_capture_after_k_picks_resumes_the_run(self, policy, seed, sets, k):
        build = functools.partial(POLICIES[policy], seed)
        k = min(k, len(sets))
        uninterrupted = build()
        uninterrupted.on_run_start(None)
        picks = [_pick(uninterrupted, runnable) for runnable in sets]
        interrupted = build()
        interrupted.on_run_start(None)
        for runnable in sets[:k]:
            _pick(interrupted, runnable)
        restored = build()
        restored.restore(interrupted.capture())
        assert [_pick(restored, runnable) for runnable in sets[k:]] == picks[k:]


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
