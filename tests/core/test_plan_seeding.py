"""Plan seeding in the exploration engine: ordering, tiers, metrics,
determinism."""

from repro.core.constraints import EventRef, OrderConstraint
from repro.core.explorer import ExplorerConfig, plan_candidates
from repro.core.feedback import TIER_PLAN
from repro.core.plan import DYNAMIC
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.sanitize import build_plan
from repro.sim import Program
from repro.sim.failures import Failure, FailureKind
from repro.sim.trace import Trace

from tests.conftest import explore_stub, find_seed, order_violation_program


def _racy_worker(ctx, iters):
    for _ in range(iters):
        value = yield ctx.read("counter")
        yield ctx.local(1)
        yield ctx.write("counter", value + 1)


def _racy_main(ctx, nworkers, iters):
    tids = []
    for _ in range(nworkers):
        tids.append((yield ctx.spawn(_racy_worker, iters)))
    for tid in tids:
        yield ctx.join(tid)
    final = yield ctx.read("counter")
    yield ctx.check(final == nworkers * iters, "lost update")


def racy_counter_program(nworkers=3, iters=5):
    return Program(
        name="racycounter",
        main=_racy_main,
        params={"nworkers": nworkers, "iters": iters},
        initial_memory={"counter": 0},
    )


def _pin(key, tid_a=1, tid_b=2):
    return OrderConstraint(
        before=EventRef(tid_a, "mem", key, 1),
        after=EventRef(tid_b, "mem", key, 1),
    )


SEEDS = (
    frozenset({_pin("x")}),
    frozenset({_pin("y")}),
    frozenset({_pin("z")}),
)
#: ``SEEDS`` as a dynamic plan hands them to the engine.
DYNAMIC_SEEDS = tuple((DYNAMIC, seeds) for seeds in SEEDS)


def _trace(failed=False):
    trace = Trace(program_name="stub", steps=5)
    if failed:
        trace.failure = Failure(FailureKind.ASSERTION, where="stub")
    return trace


class TestCandidateWrapping:
    def test_plan_candidates_preserve_rank_order(self):
        candidates = plan_candidates(DYNAMIC_SEEDS)
        assert [c.constraints for c in candidates] == list(SEEDS)
        assert all(c.tier == TIER_PLAN for c in candidates)
        assert [c.rank for c in candidates] == [0, 1, 2]

    def test_plan_rank_order_survives_the_frontier(self):
        # earlier plan ranks must pop first despite identical tiers
        candidates = plan_candidates(DYNAMIC_SEEDS)
        keys = [c.sort_key() for c in candidates]
        assert keys == sorted(keys)


class TestSerialExplorer:
    """The engine at ``jobs=1``, replay stubbed out (see ``explore_stub``)."""

    def test_root_attempt_runs_before_the_plan(self, monkeypatch):
        seen = []

        def runner(constraints, seed):
            seen.append(constraints)
            return _trace(), False

        config = ExplorerConfig(max_attempts=4, plan_seeds=DYNAMIC_SEEDS)
        explore_stub(monkeypatch, runner, config, SketchKind.SYNC)
        assert seen[0] == frozenset()
        assert seen[1:4] == list(SEEDS)

    def test_plan_match_is_charged_to_metrics(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(failed=bool(constraints)), bool(constraints)

        config = ExplorerConfig(max_attempts=4, plan_seeds=DYNAMIC_SEEDS)
        explorer, result = explore_stub(
            monkeypatch, runner, config, SketchKind.SYNC,
            obs=ObsSession.create(trace=False, metrics=True),
        )
        assert result.success
        assert result.winning_constraints == SEEDS[0]
        metrics = explorer.obs.metrics
        assert metrics.counter("sanitize.dynamic.seeded").value == len(SEEDS)
        assert metrics.counter("sanitize.dynamic.matched").value == 1

    def test_baseline_win_is_not_a_plan_match(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(failed=True), True  # attempt 1 wins outright

        config = ExplorerConfig(max_attempts=4, plan_seeds=DYNAMIC_SEEDS)
        explorer, result = explore_stub(
            monkeypatch, runner, config, SketchKind.SYNC,
            obs=ObsSession.create(trace=False, metrics=True),
        )
        assert result.success
        assert result.attempt_count == 1
        assert explorer.obs.metrics.counter("sanitize.dynamic.matched").value == 0

    def test_no_feedback_ignores_the_plan(self, monkeypatch):
        seen = []

        def runner(constraints, seed):
            seen.append((constraints, seed))
            return _trace(), False

        config = ExplorerConfig(max_attempts=4, plan_seeds=DYNAMIC_SEEDS)
        explore_stub(
            monkeypatch, runner, config, SketchKind.SYNC, use_feedback=False
        )
        assert seen == [(frozenset(), seed) for seed in range(4)]


class TestReproducerIntegration:
    def test_plan_narrows_config_to_applicable_seeds(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.RW, seed=seed)
        plan = build_plan(recorded.log)
        obs = ObsSession.create(trace=False)
        reproduce(recorded, ExplorerConfig(), plans=[plan], obs=obs)
        # RW replay already pins everything: no seeds ship
        assert obs.metrics.counter("sanitize.dynamic.candidates").value > 0
        assert obs.metrics.counter("sanitize.dynamic.applicable").value == 0
        assert obs.metrics.counter("sanitize.dynamic.seeded").value == 0

    def test_plan_never_costs_attempts_on_a_one_shot_bug(self):
        program = order_violation_program()
        seed = find_seed(program)
        rich = record(program, sketch=SketchKind.RW, seed=seed)
        plan = build_plan(rich.log)
        recorded = record(program, sketch=SketchKind.SYNC, seed=seed)
        assert recorded.failed
        baseline = reproduce(recorded, ExplorerConfig(max_attempts=60))
        planned = reproduce(
            recorded, ExplorerConfig(max_attempts=60), plans=[plan]
        )
        assert planned.success
        assert planned.attempts <= baseline.attempts

    def test_plan_seeded_exploration_is_jobs_invariant(self):
        program = racy_counter_program()
        seed = find_seed(program)
        rich = record(program, sketch=SketchKind.RW, seed=seed)
        plan = build_plan(rich.log)
        assert plan.seeds_for(SketchKind.SYNC)  # the plan actually ships

        def outcome(jobs):
            recorded = record(program, sketch=SketchKind.SYNC, seed=seed)
            report = reproduce(
                recorded, ExplorerConfig(max_attempts=30, batch_size=4),
                jobs=jobs, plans=[plan],
            )
            return (report.success, report.attempts)

        assert outcome(1) == outcome(2)
