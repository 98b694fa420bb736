"""Schedule-prefix memoization: exactness, planning, and bounded memory."""

from __future__ import annotations

import pickle

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.parallel import AttemptContext, evaluate_attempt, run_attempt
from repro.core.prefix import (
    BASE_DEPTH,
    CAPTURE_DEPTHS,
    MIN_RESUME_DEPTH,
    PrefixTree,
    ResumePlan,
    pack,
    planned_depths,
    resume_depth,
    resume_depths,
    restore_machine,
)
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig
from repro.sim.machine import Machine

#: flips from these bugs span both constraint families (mem and lock).
BUGS = ("mysql-atom-log", "apache-order-ref", "pbzip2-order-free")


class TestPlannedDepths:
    def test_short_parents_plan_nothing(self):
        assert planned_depths(0) == ()
        assert planned_depths(MIN_RESUME_DEPTH) == ()

    @pytest.mark.parametrize("steps", [25, 60, 100, 247, 1000, 9999])
    def test_depths_are_bounded_increasing_and_strictly_inside(self, steps):
        depths = planned_depths(steps)
        # geometric ladder: O(log steps) snapshots, each double the last.
        assert len(depths) <= len(CAPTURE_DEPTHS)
        assert all(MIN_RESUME_DEPTH <= d < steps for d in depths)
        assert list(depths) == sorted(set(depths))
        assert all(b == 2 * a for a, b in zip(depths, depths[1:]))
        if steps > BASE_DEPTH:
            assert depths[0] == BASE_DEPTH

    def test_pure_function_of_step_count(self):
        # worker processes plan independently; the plans must agree.
        assert planned_depths(300) == planned_depths(300)


class TestResumeDepth:
    def test_zero_when_nothing_fits(self):
        assert resume_depth(10, 5) == 0
        assert resume_depth(300, 0) == 0

    @pytest.mark.parametrize("steps", [60, 247, 1000])
    def test_picks_the_deepest_planned_depth_inside_the_prefix(self, steps):
        depths = planned_depths(steps)
        for prefix in (0, depths[0] - 1, depths[0], steps - 1, steps):
            chosen = resume_depth(steps, prefix)
            fitting = [d for d in depths if d <= prefix]
            assert chosen == (max(fitting) if fitting else 0)


class TestPrefixTree:
    def test_lru_eviction_keeps_the_most_recent(self):
        tree = PrefixTree(max_nodes=2)
        tree.put("a", (1, 1))
        tree.put("b", (2, 2))
        assert tree.get("a") == (1, 1)  # refreshes "a"
        tree.put("c", (3, 3))  # evicts "b", the least recent
        assert tree.get("b") is None
        assert tree.get("a") == (1, 1)
        assert tree.get("c") == (3, 3)
        assert len(tree) == 2

    def test_hit_and_miss_accounting(self):
        tree = PrefixTree()
        assert tree.get("missing") is None
        tree.put("k", (0, 0))
        tree.get("k")
        assert tree.misses == 1 and tree.hits == 1

    def test_discard_drops_only_the_attempts_deeper_rungs(self):
        tree = PrefixTree()
        mine, other = frozenset({"a"}), frozenset({"b"})
        for depth in CAPTURE_DEPTHS[:4]:
            tree.put((mine, 0, depth), (depth, 0))
            tree.put((other, 0, depth), (depth, 0))
        tree.discard(mine, 0, keep_below=CAPTURE_DEPTHS[1])
        assert sorted(d for c, _, d in tree._nodes if c == mine) == list(
            CAPTURE_DEPTHS[:2]
        )
        assert sum(1 for c, _, _ in tree._nodes if c == other) == 4
        tree.discard(mine, 0)
        assert all(c == other for c, _, _ in tree._nodes)

    def test_plan_probes_down_and_aliases_the_lineage(self):
        tree = PrefixTree()
        flip = object()
        parent, child = frozenset({"p"}), frozenset({"p", flip})
        # the parent kept its first and third rungs, not the second
        tree.put((parent, 0, CAPTURE_DEPTHS[0]), ("s0", 0))
        tree.put((parent, 0, CAPTURE_DEPTHS[2]), ("s2", 0))
        plan = tree.plan(child, 0, flip, CAPTURE_DEPTHS[1], parent_steps=1000)
        assert plan.depth == CAPTURE_DEPTHS[0] and plan.snapshot == ("s0", 0)
        # the child now serves its own descendants the shared rung
        assert tree._nodes[(child, 0, CAPTURE_DEPTHS[0])] == ("s0", 0)
        assert (child, 0, CAPTURE_DEPTHS[2]) not in tree._nodes
        grandchild = tree.plan(child | {"x"}, 0, "x", 48, 1000)
        assert grandchild.snapshot == ("s0", 0)
        # a parent with no warm rung plans nothing (and counts a miss)
        assert tree.plan(frozenset({"q", "y"}), 0, "y", 96, 1000) is None
        assert tree.misses == 1


def _context(bug_id: str) -> AttemptContext:
    spec = get_bug(bug_id)
    seed = find_failing_seed(spec, ncpus=2)
    assert seed is not None, f"{bug_id}: no failing seed"
    recorded = record(
        spec.make_program(),
        sketch=SketchKind.SYNC,
        seed=seed,
        config=MachineConfig(ncpus=2),
        oracle=spec.oracle,
    )
    return AttemptContext(
        recorded=recorded,
        base_policy="random",
        match_output=False,
        max_candidates_per_attempt=24,
        max_constraint_depth=8,
    )


def _trace_identity(trace):
    """Everything a trace decides, for byte-identity comparison."""
    return (
        tuple(trace.schedule),
        trace.steps,
        tuple(e.signature() for e in trace.events),
        trace.stdout,
        trace.final_memory,
        trace.thread_returns,
        trace.files,
        trace.clock,
        trace.failure.signature() if trace.failure else None,
        trace.divergence,
    )


def _root_with_tree(ctx):
    """The root attempt's outcome, and an engine tree holding what it
    shipped back."""
    root = evaluate_attempt(ctx, frozenset(), 0)
    tree = PrefixTree()
    tree.store(frozenset(), 0, root.snapshots)
    return root, tree


def _resumable(candidates):
    return [
        c for c in candidates
        if c.flip is not None and resume_depth(c.parent_steps, c.safe_prefix) > 0
    ]


def _plan(tree, candidate, seed=0):
    return tree.plan(
        candidate.constraints, seed, candidate.flip,
        resume_depth(candidate.parent_steps, candidate.safe_prefix),
        candidate.parent_steps,
    )


def _count_runs(monkeypatch):
    """Count Machine.run calls in this process."""
    runs = []
    original = Machine.run

    def counted(machine, **kwargs):
        runs.append(len(machine.schedule))
        return original(machine, **kwargs)

    monkeypatch.setattr(Machine, "run", counted)
    return runs


class TestResumedTraceIdentity:
    """A resumed attempt is byte-identical to running the same attempt cold."""

    @pytest.mark.parametrize("bug_id", BUGS)
    def test_resume_matches_cold_for_mined_flips(self, bug_id):
        ctx = _context(bug_id)
        # the live root run ships back the rungs its candidates resume from
        root, tree = _root_with_tree(ctx)
        assert root.snapshots, "root run shipped no snapshots"
        assert {d for d, _ in root.snapshots} == resume_depths(root.candidates)
        resumed = 0
        for candidate in _resumable(root.candidates):
            # the plan crosses a process boundary on its way to a worker
            plan = pickle.loads(pickle.dumps(_plan(tree, candidate)))
            assert plan.snapshot is not None
            assert restore_machine(ctx, candidate.constraints, 0, plan) is not None
            # a pool worker ships its rungs packed; the engine forwards them
            packed = ResumePlan(plan.flip, plan.depth, pack(plan.snapshot))
            assert restore_machine(ctx, candidate.constraints, 0, packed)
            cold, cold_matched = run_attempt(ctx, candidate.constraints, 0)
            for resume in (plan, packed):
                warm, warm_matched = run_attempt(
                    ctx, candidate.constraints, 0, resume=resume
                )
                assert _trace_identity(cold) == _trace_identity(warm)
                assert cold_matched == warm_matched
            resumed += 1
            if resumed >= 6:
                break
        assert resumed > 0, f"{bug_id}: no resumable candidate mined"
        assert tree.hits == resumed and tree.misses == 0

    def test_one_live_capture_serves_many_siblings(self, monkeypatch):
        ctx = _context("mysql-atom-log")
        root, tree = _root_with_tree(ctx)
        siblings = _resumable(root.candidates)
        assert len(siblings) >= 2, "workload mined too few resumable siblings"
        runs = _count_runs(monkeypatch)
        for candidate in siblings:
            plan = _plan(tree, candidate)
            assert plan.snapshot is not None
            run_attempt(ctx, candidate.constraints, 0, resume=plan)
        # every sibling resumed from the snapshots the root shipped back
        # live — no extra parent replay of any kind happened.
        assert tree.captures == len(root.snapshots)
        assert tree.misses == 0
        assert len(runs) == len(siblings) and all(runs)

    def test_missing_snapshot_means_cold_run_not_a_rebuild(self, monkeypatch):
        ctx = _context("mysql-atom-log")
        # the root outcome came from a cache: nothing shipped, nothing kept
        root = evaluate_attempt(ctx, frozenset(), 0)
        candidate = _resumable(root.candidates)[0]
        assert _plan(PrefixTree(), candidate) is None
        depth = resume_depth(candidate.parent_steps, candidate.safe_prefix)
        bare = ResumePlan(flip=candidate.flip, depth=depth, snapshot=None)
        cold, _ = run_attempt(ctx, candidate.constraints, 0)
        runs = _count_runs(monkeypatch)
        warm, _ = run_attempt(ctx, candidate.constraints, 0, resume=bare)
        assert runs == [0], "a snapshot-less plan must run cold, once"
        assert _trace_identity(cold) == _trace_identity(warm)

    def test_unusable_plan_degrades_to_cold_not_an_error(self):
        ctx = _context("mysql-atom-log")
        root, tree = _root_with_tree(ctx)
        candidate = _resumable(root.candidates)[0]
        plan = _plan(tree, candidate)
        # a flip that is not in the constraint set cannot name a parent
        assert restore_machine(ctx, frozenset(), 0, plan) is None
        # a snapshot that does not restore is no snapshot at all
        garbage = ResumePlan(
            flip=candidate.flip, depth=plan.depth, snapshot=("junk", "junk")
        )
        assert restore_machine(ctx, candidate.constraints, 0, garbage) is None
        # run_attempt still answers, just cold
        cold, _ = run_attempt(ctx, frozenset(), 0)
        via_plan, _ = run_attempt(ctx, frozenset(), 0, resume=plan)
        assert _trace_identity(cold) == _trace_identity(via_plan)
        cold, _ = run_attempt(ctx, candidate.constraints, 0)
        via_garbage, _ = run_attempt(
            ctx, candidate.constraints, 0, resume=garbage
        )
        assert _trace_identity(cold) == _trace_identity(via_garbage)


def _e12_session(jobs: int):
    """An E12 session at ``jobs``: its report and the engine's tree."""
    from repro.bench.speedup import e12_workload
    from repro.core.explorer import ExplorerConfig
    from repro.core.reproducer import Reproducer

    reproducer = Reproducer(
        e12_workload(), ExplorerConfig(max_attempts=300, jobs=jobs),
        match_output=True,
    )
    report = reproducer.run()
    return report, reproducer.explorer._prefix_tree


class TestInProcessEngine:
    def test_serial_session_realizes_nearly_every_planned_resume(
        self, monkeypatch
    ):
        # The engine keeps the only tree, and each fold drops the rungs
        # no pushed child can resume from, so the bounded tree still
        # holds the parents the next batches need.
        runs = _count_runs(monkeypatch)
        report, tree = _e12_session(jobs=1)
        assert report.prefix_hits == tree.hits + tree.misses
        assert report.realized_resumes == tree.hits
        assert report.realized_resumes >= 0.9 * report.prefix_hits
        # every plan that carried a snapshot really started mid-run
        # (the winner's rematerialization never resumes).
        assert sum(1 for start in runs if start) == report.realized_resumes

    def test_pool_session_realizes_nearly_every_planned_resume(self):
        # With the tree in the engine, a pool realizes what serial does:
        # no resume depends on which worker ran its parent.
        report, tree = _e12_session(jobs=2)
        assert report.prefix_hits == tree.hits + tree.misses
        assert report.realized_resumes == tree.hits
        assert report.realized_resumes >= 0.9 * report.prefix_hits
