"""Per-layer self-time attribution for the traced benchmark run.

Wrappers that live here, not in ``src/``, time calls into each layer's
public functions.  A layer's *self time* is the wall time of its calls
minus the time spent in nested calls into other wrapped layers, so the
self times of one thread add up to the wall time it spent inside them.

Replay workers are forked from the benchmark process after the wrappers
are installed, so they run the wrapped functions too.  Each forked
process owns one row of an anonymous shared mapping and adds its totals
there whenever its outermost wrapped call returns; the parent reads the
rows.  Parent and worker totals stay apart: only the parent's self times
partition a session's wall time, while worker totals say how much replay
work the pool did.
"""

from __future__ import annotations

import mmap
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.hb_race import HBAnalysis
from repro.core import feedback, parallel, reproducer, shm
from repro.core.feedback import FeedbackGenerator
from repro.core.pir import PIRScheduler
from repro.core.sketchlog import SketchLog
from repro.errors import ReplayDivergence
from repro.robust.supervise import Supervisor
from repro.service import jobs as service_jobs
from repro.sim.machine import Machine
from repro.store.persistent import PersistentAttemptCache

#: Accumulator slots.  ``<layer>.s`` is self time in seconds and
#: ``<layer>.calls`` the call count; the rest are per-layer work counts.
KEYS: Tuple[str, ...] = (
    "sim.s", "sim.calls", "sim.steps", "sim.resumed", "sim.skipped_steps",
    "pir.s", "pir.calls", "pir.diverged",
    "feedback.s", "feedback.calls", "feedback.mined",
    "hb.s", "hb.calls",
    "fingerprint.s", "fingerprint.calls",
    "explore.s", "explore.calls", "explore.planned_resumes",
    "explore.duplicate_traces",
    "sketchlog.s", "sketchlog.calls", "sketchlog.bytes",
    "pool.batch.s", "pool.batch.calls",
    "pool.publish.s", "pool.publish.calls",
    "record.s", "record.calls", "record.events",
    "store.get.s", "store.get.calls", "store.get.hits",
    "store.put.s", "store.put.calls",
)
INDEX: Dict[str, int] = {key: i for i, key in enumerate(KEYS)}

#: Every timed layer, in table order.
LAYERS: Tuple[str, ...] = (
    "sim", "pir", "feedback", "hb", "fingerprint", "explore", "sketchlog",
    "pool.batch", "pool.publish", "record", "store.get", "store.put",
)

#: Rows in the shared mapping: one per worker forked while tracing.
MAX_WORKERS = 1024


def _count_report(acc: List[float], args: tuple, report, _) -> None:
    acc[INDEX["explore.planned_resumes"]] += report.prefix_hits
    acc[INDEX["explore.duplicate_traces"]] += report.duplicate_traces


def _count_bytes(acc: List[float], args: tuple, log, _) -> None:
    acc[INDEX["sketchlog.bytes"]] += len(args[0])


def _steps_before(args: tuple) -> int:
    return len(args[0].schedule)


def _count_steps(acc: List[float], args: tuple, trace, executed_before) -> None:
    # Executed steps only: a machine resumed from a prefix snapshot starts
    # with that prefix already in its schedule.
    acc[INDEX["sim.steps"]] += len(args[0].schedule) - executed_before
    if executed_before:
        acc[INDEX["sim.resumed"]] += 1
        acc[INDEX["sim.skipped_steps"]] += executed_before


def _count_mined(acc: List[float], args: tuple, candidates, _) -> None:
    acc[INDEX["feedback.mined"]] += len(candidates)


def _count_events(acc: List[float], args: tuple, recorded, _) -> None:
    acc[INDEX["record.events"]] += recorded.stats.total_events


def _count_hit(acc: List[float], args: tuple, outcome, _) -> None:
    if outcome is not None:
        acc[INDEX["store.get.hits"]] += 1


class _ThreadState(threading.local):
    """One thread's span stack and accumulators."""

    def __init__(self, registry: List[List[float]]) -> None:
        self.stack: List[float] = []
        self.acc: List[float] = [0.0] * len(KEYS)
        registry.append(self.acc)


class LayerClock:
    """Installs the timing wrappers and reads the accumulated totals."""

    def __init__(self) -> None:
        self.installed = False
        self._patches: List[Tuple[object, str, object]] = []
        self._registry: List[List[float]] = []
        self._local = _ThreadState(self._registry)
        self._in_child = False
        self._row = -1
        self._rows_used = 0
        self._shared = mmap.mmap(-1, MAX_WORKERS * len(KEYS) * 8)
        self._rows = memoryview(self._shared).cast("d")
        #: ``reproduce`` and the sketch-log decoder, timed while installed.
        self.reproduce: Callable = reproducer.reproduce
        self.decode: Callable = SketchLog.from_bytes_compressed
        os.register_at_fork(
            before=self._before_fork, after_in_child=self._after_fork_child
        )

    # -- fork bookkeeping ------------------------------------------------

    def _before_fork(self) -> None:
        if not self.installed or self._in_child:
            return
        if self._rows_used < MAX_WORKERS:
            self._row = self._rows_used
            self._rows_used += 1
        else:
            self._row = -1  # beyond the mapping: this worker goes uncounted

    def _after_fork_child(self) -> None:
        if not self.installed:
            return
        self._in_child = True
        self._registry = []
        self._local = _ThreadState(self._registry)

    def _flush(self, acc: List[float]) -> None:
        """Add a worker's totals to its shared row (worker side only)."""
        if self._row < 0:
            return
        base = self._row * len(KEYS)
        rows = self._rows
        for i, value in enumerate(acc):
            if value:
                rows[base + i] += value
                acc[i] = 0.0

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable,
        after: Optional[Callable[[List[float], tuple, object, object], None]] = None,
        before: Optional[Callable[[tuple], object]] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``.

        ``after(acc, args, result, token)`` adds work counts, where
        ``token`` is what ``before(args)`` returned ahead of the call.
        """
        s_slot = INDEX[f"{layer}.s"]
        calls_slot = INDEX[f"{layer}.calls"]
        clock = self
        perf_counter = time.perf_counter

        def timed(*args, **kwargs):
            token = before(args) if before is not None else None
            state = clock._local
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                acc = state.acc
                acc[s_slot] += elapsed - nested
                acc[calls_slot] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(acc, args, result, token)
            if not stack and clock._in_child:
                clock._flush(acc)
            return result

        timed.__wrapped__ = fn
        return timed

    def _wrap_pick(self, fn: Callable) -> Callable:
        """``PIRScheduler.pick``, also counting divergence verdicts."""
        s_slot, calls_slot = INDEX["pir.s"], INDEX["pir.calls"]
        diverged_slot = INDEX["pir.diverged"]
        clock = self
        perf_counter = time.perf_counter

        def pick(scheduler, machine, runnable):
            state = clock._local
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(scheduler, machine, runnable)
            except ReplayDivergence:
                state.acc[diverged_slot] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                acc = state.acc
                acc[s_slot] += elapsed - nested
                acc[calls_slot] += 1
                if stack:
                    stack[-1] += elapsed
                elif clock._in_child:
                    clock._flush(acc)

        pick.__wrapped__ = fn
        return pick

    def _patch(self, owner: object, name: str, wrapper: Callable) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point; idempotent."""
        if self.installed:
            return
        self.reproduce = self.wrap("explore", reproducer.reproduce, _count_report)
        self.decode = self.wrap(
            "sketchlog", SketchLog.from_bytes_compressed, _count_bytes
        )
        self._patch(service_jobs, "reproduce", self.reproduce)
        self._patch(
            Machine, "run",
            self.wrap("sim", Machine.run, _count_steps, _steps_before),
        )
        self._patch(PIRScheduler, "pick", self._wrap_pick(PIRScheduler.pick))
        self._patch(
            FeedbackGenerator, "candidates",
            self.wrap("feedback", FeedbackGenerator.candidates, _count_mined),
        )
        self._patch(HBAnalysis, "__init__", self.wrap("hb", HBAnalysis.__init__))
        fingerprint = self.wrap("fingerprint", feedback.trace_fingerprint)
        self._patch(feedback, "trace_fingerprint", fingerprint)
        self._patch(parallel, "trace_fingerprint", fingerprint)
        self._patch(
            Supervisor, "evaluate_batch",
            self.wrap("pool.batch", Supervisor.evaluate_batch),
        )
        self._patch(shm, "publish", self.wrap("pool.publish", shm.publish))
        self._patch(
            service_jobs, "record",
            self.wrap("record", service_jobs.record, _count_events),
        )
        self._patch(
            PersistentAttemptCache, "get",
            self.wrap("store.get", PersistentAttemptCache.get, _count_hit),
        )
        self._patch(
            PersistentAttemptCache, "put",
            self.wrap("store.put", PersistentAttemptCache.put),
        )
        self.installed = True

    def uninstall(self) -> None:
        """Restore every original; idempotent."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self.reproduce = reproducer.reproduce
        self.decode = SketchLog.from_bytes_compressed
        self.installed = False

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> Tuple[List[float], List[float]]:
        """(parent totals, forked-worker totals), one value per key."""
        parent = [0.0] * len(KEYS)
        for acc in list(self._registry):
            for i, value in enumerate(acc):
                parent[i] += value
        workers = [0.0] * len(KEYS)
        width = len(KEYS)
        rows = self._rows
        for row in range(self._rows_used):
            base = row * width
            for i in range(width):
                workers[i] += rows[base + i]
        return parent, workers


Snapshot = Tuple[List[float], List[float]]


def delta(after: Snapshot, before: Snapshot) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-key differences of two snapshots, as (parent, workers) dicts."""
    parent, workers = (
        {key: a[i] - b[i] for i, key in enumerate(KEYS)}
        for a, b in zip(after, before)
    )
    return parent, workers


def add(into: Dict[str, float], more: Dict[str, float]) -> None:
    """Accumulate one delta dict into another."""
    for key, value in more.items():
        into[key] = into.get(key, 0.0) + value


def zeros() -> Dict[str, float]:
    return {key: 0.0 for key in KEYS}


def self_time_table(
    parent: Dict[str, float],
    workers: Dict[str, float],
    ops: int,
    layers: Sequence[str] = LAYERS,
) -> List[str]:
    """Rows of the per-layer self-time table, per operation."""
    per = max(1, ops)
    lines = [
        f"  {'layer':<14}{'parent s/op':>13}{'worker s/op':>13}{'calls/op':>11}"
    ]
    for layer in layers:
        calls = parent[f"{layer}.calls"] + workers[f"{layer}.calls"]
        lines.append(
            f"  {layer:<14}{parent[f'{layer}.s'] / per:>13.5f}"
            f"{workers[f'{layer}.s'] / per:>13.5f}{calls / per:>11.1f}"
        )
    return lines
