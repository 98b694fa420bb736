"""Shared fixtures and program builders used across the test suite."""

from __future__ import annotations

import pytest

from repro.sim import Machine, MachineConfig, Program, RandomScheduler
from repro.sim.trace import Trace


# ---------------------------------------------------------------------------
# Small reference programs.  Each builder returns a fresh Program; thread
# bodies are module-level so traces are comparable across runs.
# ---------------------------------------------------------------------------


def _counter_worker(ctx, n, locked):
    for _ in range(n):
        if locked:
            yield ctx.lock("m")
        value = yield ctx.read("counter")
        yield ctx.local(1)
        yield ctx.write("counter", value + 1)
        if locked:
            yield ctx.unlock("m")
    return n


def _counter_main(ctx, nworkers, iters, locked):
    tids = []
    for _ in range(nworkers):
        tid = yield ctx.spawn(_counter_worker, iters, locked)
        tids.append(tid)
    total = 0
    for tid in tids:
        value = yield ctx.join(tid)
        total += value
    final = yield ctx.read("counter")
    yield ctx.output(("counter", final, "expected", total))


def counter_program(nworkers: int = 2, iters: int = 3, locked: bool = False) -> Program:
    """N workers incrementing a shared counter, optionally under a lock."""
    return Program(
        name="counter",
        main=_counter_main,
        params={"nworkers": nworkers, "iters": iters, "locked": locked},
        initial_memory={"counter": 0},
    )


def _pc_producer(ctx, n):
    for i in range(n):
        yield ctx.lock("m")
        queue = yield ctx.read("queue")
        yield ctx.write("queue", queue + [i])
        yield ctx.signal("cv")
        yield ctx.unlock("m")
    return n


def _pc_consumer(ctx, n):
    got = []
    for _ in range(n):
        yield ctx.lock("m")
        while True:
            queue = yield ctx.read("queue")
            if queue:
                break
            yield ctx.wait("cv", "m")
        yield ctx.write("queue", queue[1:])
        got.append(queue[0])
        yield ctx.unlock("m")
    return got


def _pc_main(ctx, n):
    consumer = yield ctx.spawn(_pc_consumer, n)
    producer = yield ctx.spawn(_pc_producer, n)
    got = yield ctx.join(consumer)
    yield ctx.join(producer)
    yield ctx.check(got == list(range(n)), "fifo order broken")


def producer_consumer_program(n: int = 3) -> Program:
    """A correct condvar-based bounded producer/consumer."""
    return Program(
        name="prodcons",
        main=_pc_main,
        params={"n": n},
        initial_memory={"queue": []},
    )


def _dl_left(ctx):
    yield ctx.lock("A")
    yield ctx.local(1)
    yield ctx.lock("B")
    yield ctx.unlock("B")
    yield ctx.unlock("A")


def _dl_right(ctx):
    yield ctx.lock("B")
    yield ctx.local(1)
    yield ctx.lock("A")
    yield ctx.unlock("A")
    yield ctx.unlock("B")


def _dl_main(ctx):
    left = yield ctx.spawn(_dl_left)
    right = yield ctx.spawn(_dl_right)
    yield ctx.join(left)
    yield ctx.join(right)


def deadlock_program() -> Program:
    """Classic AB/BA lock inversion; deadlocks on some schedules."""
    return Program(name="abba", main=_dl_main)


def _ov_producer(ctx):
    yield ctx.local(2)
    yield ctx.write("data", 42)


def _ov_consumer(ctx):
    yield ctx.local(1)
    value = yield ctx.read("data")
    yield ctx.check(value == 42, "read unpublished data")


def _ov_main(ctx):
    producer = yield ctx.spawn(_ov_producer)
    consumer = yield ctx.spawn(_ov_consumer)
    yield ctx.join(producer)
    yield ctx.join(consumer)


def order_violation_program() -> Program:
    """Unordered publish/consume pair; fails when the consumer wins."""
    return Program(
        name="orderviolation",
        main=_ov_main,
        initial_memory={"data": 0},
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def run_program(program: Program, seed: int = 0, ncpus: int = 4,
                max_steps: int = 200_000) -> Trace:
    """Run once under a seeded random scheduler."""
    machine = Machine(
        program,
        RandomScheduler(seed),
        MachineConfig(ncpus=ncpus, max_steps=max_steps),
    )
    return machine.run()


def find_seed(program: Program, want_failure: bool = True, limit: int = 300) -> int:
    """First seed whose run fails (or succeeds, with want_failure=False)."""
    for seed in range(limit):
        trace = run_program(program, seed)
        if trace.failed == want_failure:
            return seed
    raise AssertionError(
        f"no seed in [0, {limit}) produced failed={want_failure} for "
        f"{program.name}"
    )


def explore_stub(monkeypatch, runner, config, sketch, use_feedback=True,
                 obs=None):
    """Run the exploration engine with ``runner`` standing in for replay.

    ``runner(constraints, seed) -> (trace, matched)`` replaces
    :func:`repro.core.parallel.run_attempt`; the engine still mines the
    traces it returns (under ``sketch``), so stub traces steer the search
    like real ones.  Attempts are pure, so the stub answers each
    ``(constraints, seed)`` once: the engine's in-process re-run of the
    winner sees the same answer without calling ``runner`` again.
    Returns ``(explorer, result)``.
    """
    from repro.core import parallel
    from repro.core.recorder import record

    answers = {}

    def stub(ctx, constraints, seed, resume=None, snapshots=None):
        if (constraints, seed) not in answers:
            answers[constraints, seed] = runner(constraints, seed)
        return answers[constraints, seed]

    monkeypatch.setattr(parallel, "run_attempt", stub)
    recorded = record(counter_program(), sketch=sketch, seed=0)
    explorer = parallel.ParallelExplorer(
        recorded, config, use_feedback=use_feedback, obs=obs
    )
    return explorer, explorer.explore()


@pytest.fixture
def counter() -> Program:
    return counter_program()


@pytest.fixture
def prodcons() -> Program:
    return producer_consumer_program()


@pytest.fixture
def abba() -> Program:
    return deadlock_program()


@pytest.fixture
def orderviolation() -> Program:
    return order_violation_program()
