"""Static seeding in the explorers: interleave order, metrics, invariance.

Static candidates do not form a strict tier: the :class:`Frontier`
keeps them in a FIFO lane and alternates them with mined feedback —
root first, every dynamic plan seed next, then mined/static/mined/...
These tests pin the alternation directly on the frontier, through the
exploration engine with replay stubbed out, and end-to-end through
:func:`reproduce` with a real static :class:`~repro.core.plan.Plan`.
"""

from repro.analysis.static_ import analyze_program
from repro.core.constraints import EventRef, OrderConstraint
from repro.core.explorer import ExplorerConfig, Frontier, plan_candidates
from repro.core.feedback import TIER_PLAN, TIER_ROOT, TIER_STATIC, Candidate
from repro.core.plan import DYNAMIC, STATIC
from repro.core.recorder import record
from repro.core.reproducer import reproduce
from repro.core.sketches import SketchKind
from repro.obs.session import ObsSession
from repro.sim.failures import Failure, FailureKind
from repro.sim.trace import Trace

from tests.analysis.test_static_analyzer import racy_counter_program
from tests.conftest import explore_stub, find_seed


def _pin(key, tid_a=1, tid_b=2, occ=1):
    return OrderConstraint(
        before=EventRef(tid_a, "mem", key, occ),
        after=EventRef(tid_b, "mem", key, occ),
    )


STATICS = (
    frozenset({_pin("s0")}),
    frozenset({_pin("s1")}),
    frozenset({_pin("s2")}),
)
#: ``STATICS`` as a static plan hands them to the engine.
STATIC_SEEDS = tuple((STATIC, seeds) for seeds in STATICS)


def _mined(key, depth=1, anchor=0):
    return Candidate(
        constraints=frozenset({_pin(key)}),
        depth=depth,
        anchor_gidx=anchor,
    )


def _trace(failed=False):
    trace = Trace(program_name="stub", steps=5)
    if failed:
        trace.failure = Failure(FailureKind.ASSERTION, where="stub")
    return trace


class TestFrontierInterleave:
    def test_static_seeds_wrap_at_the_static_tier_in_rank_order(self):
        candidates = plan_candidates(STATIC_SEEDS)
        assert [c.constraints for c in candidates] == list(STATICS)
        assert all(c.tier == TIER_STATIC for c in candidates)
        assert [c.rank for c in candidates] == [0, 1, 2]

    def test_without_statics_pops_are_pure_heap_order(self):
        frontier = Frontier()
        frontier.push(Candidate(frozenset(), 0, 0, tier=TIER_ROOT), 0)
        deep = _mined("b", depth=2)
        shallow = _mined("a", depth=1)
        frontier.push(deep, 0)
        frontier.push(shallow, 0)
        order = [frontier.pop()[0] for _ in range(3)]
        assert order == [
            frozenset(), shallow.constraints, deep.constraints
        ]

    def test_statics_alternate_with_mined(self):
        frontier = Frontier()
        for candidate in plan_candidates(STATIC_SEEDS):
            frontier.push(candidate, 0)
        mined = [_mined(k) for k in ("m0", "m1", "m2", "m3")]
        for candidate in mined:
            frontier.push(candidate, 0)
        order = [frontier.pop()[0] for _ in range(7)]
        assert order == [
            mined[0].constraints,   # dynamic evidence first
            STATICS[0],
            mined[1].constraints,
            STATICS[1],
            mined[2].constraints,
            STATICS[2],
            mined[3].constraints,   # static lane drained: heap resumes
        ]

    def test_plan_seeds_pop_before_any_static(self):
        frontier = Frontier()
        for candidate in plan_candidates(STATIC_SEEDS[:1]):
            frontier.push(candidate, 0)
        plan = Candidate(
            frozenset({_pin("p0")}), 1, 0, tier=TIER_PLAN, rank=0
        )
        frontier.push(plan, 0)
        frontier.push(_mined("m0"), 0)
        order = [frontier.pop()[0] for _ in range(3)]
        assert order[0] == plan.constraints
        assert order[1] == frozenset({_pin("m0")})
        assert order[2] == STATICS[0]

    def test_statics_drain_when_the_heap_is_empty(self):
        frontier = Frontier()
        for candidate in plan_candidates(STATIC_SEEDS):
            frontier.push(candidate, 0)
        order = [frontier.pop()[0] for _ in range(3)]
        assert order == list(STATICS)
        assert len(frontier) == 0

    def test_each_pair_pops_once(self):
        frontier = Frontier()
        candidate = _mined("m0")
        for seed in (0, 0, 1):
            frontier.push(candidate, seed)
        for static in plan_candidates(STATIC_SEEDS[:2]):
            frontier.push(static, 0)
        assert not frontier.popped(candidate.constraints, 0)
        assert frontier.pop()[:2] == (candidate.constraints, 0)
        assert frontier.popped(candidate.constraints, 0)
        assert frontier.pop()[0] == STATICS[0]
        # a repeat is not tried again, yet counts as a mined pop
        assert frontier.pop() is None
        assert frontier.pop()[0] == STATICS[1]
        assert not frontier.popped(candidate.constraints, 1)
        assert frontier.pop()[:2] == (candidate.constraints, 1)  # fresh seed

    def test_length_counts_both_lanes(self):
        frontier = Frontier()
        frontier.push(_mined("m0"), 0)
        for candidate in plan_candidates(STATIC_SEEDS):
            frontier.push(candidate, 0)
        assert len(frontier) == 4


class TestSerialExplorer:
    """The engine at ``jobs=1``, replay stubbed out (see ``explore_stub``)."""

    def test_statics_follow_the_root_when_nothing_is_mined(self, monkeypatch):
        seen = []

        def runner(constraints, seed):
            seen.append(constraints)
            return _trace(), False  # stub traces mine no candidates

        config = ExplorerConfig(max_attempts=4, plan_seeds=STATIC_SEEDS)
        explore_stub(monkeypatch, runner, config, SketchKind.NONE)
        assert seen[0] == frozenset()
        assert seen[1:4] == list(STATICS)

    def test_static_match_is_charged_to_metrics(self, monkeypatch):
        def runner(constraints, seed):
            return _trace(failed=bool(constraints)), bool(constraints)

        config = ExplorerConfig(max_attempts=4, plan_seeds=STATIC_SEEDS)
        explorer, result = explore_stub(
            monkeypatch, runner, config, SketchKind.NONE,
            obs=ObsSession.create(trace=False, metrics=True),
        )
        assert result.success
        assert result.winning_constraints == STATICS[0]
        metrics = explorer.obs.metrics
        assert metrics.counter("sanitize.static.seeded").value == len(STATICS)
        assert metrics.counter("sanitize.static.matched").value == 1
        assert metrics.counter("sanitize.dynamic.matched").value == 0

    def test_duplicate_of_a_plan_seed_is_dropped(self, monkeypatch):
        dynamic = ((DYNAMIC, STATICS[0]),)  # duplicates the first static
        # whichever order the plans arrive in, the dynamic seed wins
        for plan_seeds in (dynamic + STATIC_SEEDS, STATIC_SEEDS + dynamic):
            seen = []

            def runner(constraints, seed):
                seen.append(constraints)
                return _trace(), False

            config = ExplorerConfig(max_attempts=5, plan_seeds=plan_seeds)
            explorer, _ = explore_stub(
                monkeypatch, runner, config, SketchKind.NONE,
                obs=ObsSession.create(trace=False, metrics=True),
            )
            assert seen[:2] == [frozenset(), STATICS[0]]
            assert seen.count(STATICS[0]) == 1
            metrics = explorer.obs.metrics
            assert metrics.counter("sanitize.dynamic.seeded").value == 1
            assert metrics.counter(
                "sanitize.static.seeded"
            ).value == len(STATICS) - 1


class TestReproducerIntegration:
    def test_static_guidance_reproduces_the_racy_counter(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.NONE, seed=seed)
        assert recorded.failed
        plan = analyze_program(program, failure=recorded.failure.describe())
        assert plan.seeds_for(SketchKind.NONE)
        report = reproduce(
            recorded, ExplorerConfig(max_attempts=100), plans=[plan]
        )
        assert report.success

    def test_static_guidance_never_costs_attempts(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.NONE, seed=seed)
        plan = analyze_program(program)
        config = ExplorerConfig(max_attempts=100)
        baseline = reproduce(recorded, config)
        guided = reproduce(recorded, config, plans=[plan])
        assert guided.success
        assert guided.attempts <= baseline.attempts

    def test_static_seeded_exploration_is_jobs_invariant(self):
        program = racy_counter_program()
        seed = find_seed(program)
        plan = analyze_program(program)
        assert plan.seeds_for(SketchKind.NONE)

        def outcome(jobs):
            recorded = record(program, sketch=SketchKind.NONE, seed=seed)
            report = reproduce(
                recorded, ExplorerConfig(max_attempts=40, batch_size=4),
                jobs=jobs, plans=[plan],
            )
            return (report.success, report.attempts)

        assert outcome(1) == outcome(2)

    def test_rw_replay_ships_no_static_seeds(self):
        program = racy_counter_program()
        seed = find_seed(program)
        recorded = record(program, sketch=SketchKind.RW, seed=seed)
        plan = analyze_program(program)
        obs = ObsSession.create(trace=False)
        reproduce(recorded, ExplorerConfig(), plans=[plan], obs=obs)
        assert obs.metrics.counter("sanitize.static.candidates").value > 0
        assert obs.metrics.counter("sanitize.static.applicable").value == 0
        assert obs.metrics.counter("sanitize.static.seeded").value == 0
