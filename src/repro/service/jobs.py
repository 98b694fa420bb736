"""Job lifecycle: admission, scheduling, execution, cancellation.

:class:`JobManager` multiplexes many concurrent reproduction jobs over
*one* warm engine: a single shared :class:`~repro.core.parallel.PoolLease`
(one process pool lent to every parallel exploration) and one
:class:`~repro.store.persistent.PersistentAttemptCache` per tenant (all
rooted under one store directory).  Jobs run on a bounded thread pool —
the exploration engine releases the GIL around its process-pool waits,
and serial jobs are dominated by simulator stepping, so a handful of
threads keeps all cores busy without oversubscribing the host.

Determinism: a job's *report* is a pure function of its request — the
engine's jobs-invariance and store-invariance contracts guarantee the
rendered report is byte-identical to the serial CLI run of the same
``(bug, sketch, seed, max_attempts)``, whatever the pool, store
temperature, or concurrency.  Queue order keys on the admission
sequence number (FIFO deque), never on timestamps; wall-clock readings
below exist only for latency *measurement* and are marked with the
determinism pragma the linter checks for.

All bookkeeping (queues, job states, metrics) mutates only on the
asyncio loop thread; worker threads touch nothing but their own job's
payload plus the internally-locked cache/store/lease tiers.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional

from repro.apps import get_bug
from repro.core.parallel import PoolLease
from repro.core.recorder import record
from repro.core.reproducer import render_report, reproduce
from repro.core.request import run_request
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import JobRequest, ProtocolError
from repro.store.persistent import PersistentAttemptCache

__all__ = ["Job", "JobManager", "BackpressureError"]

#: Job states, in lifecycle order.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled",
)
_FINISHED = (DONE, FAILED, CANCELLED)


class BackpressureError(ProtocolError):
    """Admission refused: the queue or a tenant budget is full (429)."""

    def __init__(self, message: str) -> None:
        super().__init__(429, message)


@dataclass
class Job:
    """One admitted job and everything the API reports about it."""

    id: str
    seq: int
    request: JobRequest
    state: str = QUEUED
    error: Optional[str] = None
    result: Optional[Dict[str, object]] = None
    latency_s: Optional[float] = None
    cancel_requested: bool = False
    started: Optional[float] = field(default=None, repr=False)

    def status_doc(self) -> Dict[str, object]:
        """The ``GET /jobs/{id}`` document."""
        doc: Dict[str, object] = {
            "id": self.id,
            "seq": self.seq,
            "state": self.state,
            "request": self.request.to_json(),
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.latency_s is not None:
            doc["latency_s"] = self.latency_s
        return doc


class JobManager:
    """Admit, schedule, execute, and account for reproduction jobs.

    :param store_root: directory holding one attempt-store namespace per
        tenant (``<store_root>/<tenant>/``); jobs of one tenant share a
        warm cache, tenants never see each other's shards.
    :param slots: concurrent job executions (thread-pool width).
    :param max_queued: bound on jobs waiting for a slot; admission past
        it is refused with 429 (clients retry with backoff).
    :param tenant_slots: per-tenant bound on jobs admitted but not yet
        finished — one noisy tenant cannot occupy the whole queue.
    :param pool_jobs: width of the shared replay worker pool lent to
        parallel explorations.
    :param default_jobs: exploration ``jobs`` applied when a request
        leaves ``jobs`` at 0.
    """

    def __init__(
        self,
        store_root: str,
        slots: int = 4,
        max_queued: int = 256,
        tenant_slots: int = 64,
        pool_jobs: int = 2,
        default_jobs: int = 1,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.store_root = store_root
        self.slots = max(1, slots)
        self.max_queued = max(1, max_queued)
        self.tenant_slots = max(1, tenant_slots)
        self.default_jobs = max(1, default_jobs)
        self.lease = PoolLease(max(2, pool_jobs))
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.jobs: Dict[str, Job] = {}
        self.queue: Deque[Job] = deque()
        self.running: Dict[str, "asyncio.Future"] = {}
        self.draining = False
        self._seq = 0
        self._caches: Dict[str, PersistentAttemptCache] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="pres-job"
        )

    # -- loop binding --------------------------------------------------

    def bind(self, loop: asyncio.AbstractEventLoop) -> None:
        """Attach to the serving loop (called once, before traffic)."""
        self._loop = loop

    # -- admission (loop thread) ---------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Admit a job or refuse it; never blocks.

        Raises :class:`ProtocolError` 400 for a bug id the registry does
        not know, 503 while draining, and :class:`BackpressureError`
        (429) when the global queue or the tenant's in-flight budget is
        full.
        """
        try:
            get_bug(request.bug)
        except KeyError as exc:
            raise ProtocolError(400, exc.args[0]) from None
        if self.draining:
            raise ProtocolError(503, "draining; not accepting jobs")
        if len(self.queue) >= self.max_queued:
            raise BackpressureError(
                f"queue full ({self.max_queued} jobs waiting); retry later"
            )
        in_flight = sum(
            1 for job in self.jobs.values()
            if job.request.tenant == request.tenant
            and job.state in (QUEUED, RUNNING)
        )
        if in_flight >= self.tenant_slots:
            raise BackpressureError(
                f"tenant {request.tenant!r} has {in_flight} jobs in flight "
                f"(budget {self.tenant_slots}); retry later"
            )
        self._seq += 1
        job = Job(id=f"j{self._seq:06d}", seq=self._seq, request=request)
        self.jobs[job.id] = job
        self.queue.append(job)
        self.metrics.counter("service.submitted").inc()
        self.metrics.counter(f"service.tenant.{request.tenant}.submitted").inc()
        self._cache_for(request.tenant)  # created on the loop thread
        self._pump()
        return job

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ProtocolError(404, f"no job {job_id!r}")
        return job

    def list_jobs(self, tenant: Optional[str] = None) -> list:
        """Status docs for every job, admission order (oldest first)."""
        return [
            job.status_doc()
            for job in sorted(self.jobs.values(), key=lambda j: j.seq)
            if tenant is None or job.request.tenant == tenant
        ]

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now, a running job at its next boundary.

        A finished job refuses with 409 — its outcome is already final.
        """
        job = self.get(job_id)
        if job.state in _FINISHED:
            raise ProtocolError(409, f"job {job_id} already {job.state}")
        if job.state == QUEUED:
            self.queue.remove(job)
            self._settle(job, CANCELLED)
        else:
            # Best effort: the exploration runs to completion but the
            # result is discarded and the job lands in ``cancelled``.
            job.cancel_requested = True
        return job

    # -- scheduling (loop thread) --------------------------------------

    def _pump(self) -> None:
        assert self._loop is not None, "JobManager.bind() not called"
        while self.queue and len(self.running) < self.slots:
            job = self.queue.popleft()
            job.state = RUNNING
            job.started = time.perf_counter()  # determinism: ok (latency only)
            future = self._loop.run_in_executor(
                self._executor, self._execute, job
            )
            self.running[job.id] = future
            future.add_done_callback(
                lambda done, job=job: self._finish(job, done)
            )
        self.metrics.gauge("service.queue_depth").set(len(self.queue))
        self.metrics.gauge("service.running").set(len(self.running))

    def _finish(self, job: Job, future: "asyncio.Future") -> None:
        self.running.pop(job.id, None)
        if job.started is not None:
            job.latency_s = time.perf_counter() - job.started  # determinism: ok (latency only)
        try:
            outcome = future.result()
        except Exception as exc:  # worker thread raised
            job.error = f"{type(exc).__name__}: {exc}"
            self._settle(job, FAILED)
        else:
            if job.cancel_requested:
                self._settle(job, CANCELLED)
            else:
                job.result = outcome
                # Aggregate engine totals, charged here (loop thread) so
                # concurrent jobs never race on the registry.
                self.metrics.counter("service.attempts").inc(
                    int(outcome.get("attempts", 0))
                )
                self.metrics.counter("service.store_hits").inc(
                    int(outcome.get("cache_hits", 0))
                )
                self._settle(job, DONE)
        self._pump()

    def _settle(self, job: Job, state: str) -> None:
        job.state = state
        tenant = job.request.tenant
        self.metrics.counter(f"service.{state}").inc()
        self.metrics.counter(f"service.tenant.{tenant}.{state}").inc()
        if job.latency_s is not None and state == DONE:
            self.metrics.histogram("service.latency_s").observe(job.latency_s)

    # -- execution (worker thread) -------------------------------------

    def _cache_for(self, tenant: str) -> PersistentAttemptCache:
        cache = self._caches.get(tenant)
        if cache is None:
            cache = PersistentAttemptCache(os.path.join(self.store_root, tenant))
            cache.bind_metrics(self.metrics)
            self._caches[tenant] = cache
        return cache

    def _execute(self, job: Job) -> Dict[str, object]:
        """The whole pipeline for one job: seed -> record -> reproduce.

        Runs on a worker thread and returns the result document.  A job
        with no failing run raises, and :meth:`_finish` files it as
        ``failed`` with the error.
        """
        request = job.request
        jobs = request.jobs or self.default_jobs
        result = run_request(
            request.reproduce_request(), jobs=jobs,
            cache=self._cache_for(request.tenant),
            pool=self.lease if jobs > 1 else None,
            # This module's names, so a profiler or a test can wrap them.
            record=record, reproduce=reproduce,
        )
        report = result.report
        return {
            "bug": request.bug,
            "seed": result.recorded.seed,
            "success": report.success,
            "attempts": report.attempts,
            "cache_hits": report.cache_hits,
            "report": render_report(report),
        }

    # -- shutdown (loop thread) ----------------------------------------

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown: refuse new work, finish what is running.

        Queued jobs are cancelled (their submitters can resubmit —
        reports are pure, nothing is lost), running jobs complete, then
        the executor, the shared pool, and every tenant store close.
        Mirrors the CLI's Ctrl-C contract: in-flight state is flushed,
        never abandoned.
        """
        self.draining = True
        cancelled = 0
        while self.queue:
            self._settle(self.queue.popleft(), CANCELLED)
            cancelled += 1
        pending = list(self.running.values())
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self.lease.close()
        for cache in self._caches.values():
            cache.close()
        finished = sum(1 for j in self.jobs.values() if j.state in _FINISHED)
        return {"cancelled": cancelled, "finished": finished}

    def stats_doc(self) -> Dict[str, object]:
        """The ``GET /healthz`` payload (beyond the liveness bit)."""
        return {
            "status": "draining" if self.draining else "ok",
            "queued": len(self.queue),
            "running": len(self.running),
            "jobs": len(self.jobs),
            "slots": self.slots,
            "pool_builds": self.lease.builds,
        }
