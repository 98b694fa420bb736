"""Schedule-prefix memoization: exactness, planning, and bounded memory."""

from __future__ import annotations

import pickle

import pytest

from repro.apps import get_bug
from repro.bench.seeds import find_failing_seed
from repro.core import parallel
from repro.core.parallel import AttemptContext, evaluate_attempt, run_attempt
from repro.core.prefix import (
    BASE_DEPTH,
    CAPTURE_DEPTHS,
    MIN_RESUME_DEPTH,
    PrefixTree,
    ResumePlan,
    family_depth,
    pack,
    planned_depths,
    resume_depth,
    resume_depths,
    restore_machine,
)
from repro.core.recorder import record
from repro.core.sketches import SketchKind
from repro.sim import MachineConfig, Program
from repro.sim.machine import Machine

#: flips from these bugs span both constraint families (mem and lock).
BUGS = ("mysql-atom-log", "apache-order-ref", "pbzip2-order-free")

#: Module state the impure guest below reads outside its feeds.
_OUTSIDE = {"cell": 0}


def _impure_worker(ctx, n):
    # ``cell`` is no feed: a rebuild from the feeds reads it anew.
    cell = _OUTSIDE["cell"]
    for i in range(n):
        yield ctx.write(("cell", cell), i)


def _impure_main(ctx):
    workers = []
    for _ in range(2):
        workers.append((yield ctx.spawn(_impure_worker, 40)))
    for tid in workers:
        yield ctx.join(tid)


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

    def test_aliases_never_evict_another_snapshot(self):
        tree = PrefixTree(max_nodes=2)
        tree.put("b", ("b", 0))
        tree.put("a", ("a", 0))
        for n in range(50):
            tree.alias("a", ("alias", n))
        # fifty-two keys name two snapshots: the bound is not reached,
        # and "b", the least recently used, stays
        assert len(tree) == 2
        assert tree.get("b") == ("b", 0)
        # a third snapshot evicts least-recently-used keys until one
        # snapshot has lost its last key: "a" goes with all its aliases
        tree.put("c", ("c", 0))
        assert len(tree) == 2
        assert tree.get("b") == ("b", 0) and tree.get("c") == ("c", 0)
        assert tree.get(("alias", 49)) is None

    def test_family_snapshots_have_their_own_budget(self):
        tree = PrefixTree(max_nodes=2, max_shared=3)
        parent = frozenset({"p"})
        tree.put((parent, 0, 48), ("rung", 48))
        tree.put((parent, 0, 96), ("rung", 96))
        for depth in range(100, 110):
            tree.share(parent, 0, [(depth, ("family", depth))])
        assert tree._shared_count == 3
        # shallowest family snapshots went first; every rung stayed
        assert sorted(tree._shared[(parent, 0)]) == [107, 108, 109]
        assert len(tree) == 2 and tree.get((parent, 0, 48)) == ("rung", 48)

    def test_plan_resumes_siblings_from_family_snapshots(self):
        tree = PrefixTree()
        parent = frozenset({"p"})
        tree.put((parent, 0, 96), ("rung", 96))
        first = tree.plan(
            parent | {"x"}, 0, "x", 96, 300,
            safe_prefix=180, siblings=(120, 150, 170, 185),
        )
        # the first child starts at the rung and snapshots for the
        # siblings inside its own safe prefix
        assert (first.depth, first.snapshot) == (96, ("rung", 96))
        assert first.siblings == (120, 150, 170)
        tree.share(parent, 0, [(d, ("family", d)) for d in first.siblings])
        second = tree.plan(
            parent | {"y"}, 0, "y", 96, 300,
            safe_prefix=150, siblings=(120, 170, 185),
        )
        assert (second.depth, second.snapshot) == (150, ("family", 150))
        assert second.siblings == ()
        assert tree.shared_hits == 1
        # a grandchild walks up to its grandparent's family snapshots,
        # bounded by its parent's safe prefix (170 lies past 150)
        grandchild = tree.plan(
            parent | {"y", "z"}, 0, "z", 96, 300, safe_prefix=175
        )
        assert (grandchild.depth, grandchild.snapshot) == (150, ("family", 150))
        # the ladder's counts see plans, not family snapshots
        assert tree.hits == 3 and tree.misses == 0

    def test_a_family_snapshot_never_starts_a_run_past_a_rung(self):
        # The parent kept only its first rung, so the child resumes at 48
        # and must still capture its own rung at 96: a family snapshot
        # deeper than that would skip it.
        tree = PrefixTree()
        parent = frozenset({"p"})
        tree.put((parent, 0, 48), ("rung", 48))
        tree.share(parent, 0, [(90, ("family", 90)), (100, ("family", 100))])
        plan = tree.plan(parent | {"x"}, 0, "x", 96, 300, safe_prefix=120)
        assert (plan.depth, plan.snapshot) == (90, ("family", 90))

    def test_family_depth_marks_only_prefixes_past_their_rung(self):
        assert family_depth(300, 150) == 150
        assert family_depth(300, 96) == 0  # the rung starts it there
        assert family_depth(300, 40) == 0  # too shallow to resume at all
        assert family_depth(100, 99) == 99


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

    def test_a_guest_that_reads_outside_its_feeds_resumes_cold(
        self, monkeypatch
    ):
        program = Program(name="impure", main=_impure_main)
        recorded = record(
            program, sketch=SketchKind.SYNC, seed=0,
            config=MachineConfig(ncpus=2),
        )
        ctx = AttemptContext(recorded=recorded)
        root, tree = _root_with_tree(ctx)
        candidate = _resumable(root.candidates)[0]
        plan = _plan(tree, candidate)
        assert restore_machine(ctx, candidate.constraints, 0, plan)
        # the workers' rebuild now reads another cell than they wrote
        # before the snapshot, so they wait on other ops than captured
        monkeypatch.setitem(_OUTSIDE, "cell", 1)
        assert restore_machine(ctx, candidate.constraints, 0, plan) is None
        cold, _ = run_attempt(ctx, candidate.constraints, 0)
        warm, _ = run_attempt(ctx, candidate.constraints, 0, resume=plan)
        assert _trace_identity(cold) == _trace_identity(warm)

    def test_family_resumes_match_cold(self, monkeypatch):
        # Every attempt an E12 session resumes from a family snapshot —
        # a sibling's capture or an ancestor's, past the ladder — replays
        # its cold trace event for event.
        checked = []
        original = parallel.run_attempt

        def checked_run(ctx, constraints, seed, resume=None, snapshots=None):
            trace, matched = original(
                ctx, constraints, seed, resume=resume, snapshots=snapshots
            )
            if resume is not None and resume.depth not in CAPTURE_DEPTHS:
                assert restore_machine(ctx, constraints, seed, resume)
                cold, cold_matched = original(ctx, constraints, seed)
                assert _trace_identity(trace) == _trace_identity(cold)
                assert matched == cold_matched
                checked.append(resume.depth)
            return trace, matched

        monkeypatch.setattr(parallel, "run_attempt", checked_run)
        _, tree = _e12_session(jobs=1)
        assert len(checked) == tree.shared_hits > 200


def _e12_session(jobs: int, max_attempts: int = 300, batch_size: int = 0):
    """An E12 session at ``jobs``: its report and the engine's tree."""
    from repro.bench.speedup import e12_workload
    from repro.core.explorer import ExplorerConfig
    from repro.core.reproducer import Reproducer

    reproducer = Reproducer(
        e12_workload(),
        ExplorerConfig(
            max_attempts=max_attempts, jobs=jobs, batch_size=batch_size
        ),
        match_output=True,
    )
    report = reproducer.run()
    return report, reproducer.explorer._prefix_tree


def _count_steps(monkeypatch):
    """Count the steps each Machine.run in this process executes."""
    executed = []
    original = Machine.run

    def counted(machine, **kwargs):
        start = len(machine.schedule)
        trace = original(machine, **kwargs)
        executed.append(len(machine.schedule) - start)
        return trace

    monkeypatch.setattr(Machine, "run", counted)
    return executed


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


class TestFamilySnapshots:
    """In process, each child resumes where it departs from its parent."""

    def test_serial_session_resumes_where_children_depart(self, monkeypatch):
        from repro.core.reproducer import render_report

        # the reference: the same request with every attempt run cold
        monkeypatch.setattr(
            parallel.ParallelExplorer, "_resume_plan",
            lambda self, candidate, seed: None,
        )
        reference, _ = _e12_session(jobs=1)
        monkeypatch.undo()
        executed = _count_steps(monkeypatch)
        report, tree = _e12_session(jobs=1)
        # ladder rungs alone leave 35,708 steps to execute
        assert sum(executed) <= 22_000
        assert report.realized_resumes == report.prefix_hits == 299
        assert tree.shared_hits > 0
        assert render_report(report) == render_report(reference)

    def test_long_serial_session_realizes_every_planned_resume(self):
        # Lineage aliases are free: counted as snapshots, they once
        # evicted rungs that later plans needed (589 of 599 here).
        report, _ = _e12_session(jobs=1, max_attempts=600)
        assert report.prefix_hits == 599
        assert report.realized_resumes == report.prefix_hits

    def test_prefix_metrics_stay_planned_ladder_quantities(self):
        # The pool takes no family captures and jobs=1 does, yet every
        # prefix metric is the same: each counts the planned ladder.
        from repro.bench.speedup import e12_workload
        from repro.core.explorer import ExplorerConfig
        from repro.core.reproducer import reproduce
        from repro.obs.session import ObsSession

        views = {}
        for jobs in (1, 2):
            session = ObsSession.create(trace=False, metrics=True)
            reproduce(
                e12_workload(), ExplorerConfig(max_attempts=300, batch_size=4),
                match_output=True, jobs=jobs, obs=session,
            )
            snapshot = session.metrics.snapshot()
            views[jobs] = tuple(
                snapshot["counters"][name]
                for name in ("parallel.prefix_hits", "parallel.prefix_realized")
            ) + (snapshot["histograms"]["parallel.prefix_depth"],)
        assert views[1] == views[2]
        assert views[1][0] == views[1][1] > 0
