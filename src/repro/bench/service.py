"""E15 - replay as a service: throughput, latency, and byte-identity.

The claim under test (see :mod:`repro.service`): a long-lived
multi-tenant server multiplexing many concurrent jobs over one warm
engine loses *nothing* of the pipeline's determinism — every job's
report is byte-identical to the serial CLI run of the same request —
while the shared store turns repeat reproductions into lookups.

The harness boots the real server (``ServiceThread``, the same code
path as ``pres serve``) on an ephemeral port, computes one serial
reference report per bug in-process, then drives two arms over the
service's own HTTP client:

* **cold**: ~100 jobs (the E14 bug spread, round-robin) against an
  empty shared store;
* **warm**: the same ~100 jobs again — every attempt now folds from
  the store the cold arm populated.

Each arm reports throughput (jobs/s), p50/p99 job latency, and whether
*every* report matched its serial reference byte for byte.  The meta
block carries the two CI gates: ``zero_failed`` and
``identical_reports``.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Tuple

from repro.bench.results import BenchResult
from repro.bench.warmstore import E14_BUGS
from repro.core.reproducer import render_report
from repro.core.request import ReproduceRequest, run_request
from repro.service.client import ServiceClient
from repro.service.protocol import JobRequest
from repro.service.server import ServiceThread

#: Jobs per arm: the E14 bug spread, round-robin.
E15_JOBS = 100
E15_MAX_ATTEMPTS = 200


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic; no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def _serial_references(bugs, obs=None) -> Dict[str, Tuple[int, str]]:
    """Per bug: the failing seed and the serial CLI report bytes."""
    references: Dict[str, Tuple[int, str]] = {}
    for bug_id in bugs:
        recorded, _, report = run_request(
            ReproduceRequest(bug_id, max_attempts=E15_MAX_ATTEMPTS), obs=obs
        )
        references[bug_id] = (recorded.seed, render_report(report))
    return references


def _run_arm(
    client: ServiceClient,
    references: Dict[str, Tuple[int, str]],
    n_jobs: int,
) -> dict:
    """Submit ``n_jobs`` round-robin, wait for all, audit every report."""
    bugs = sorted(references)
    started = time.perf_counter()
    submitted: List[Tuple[str, str]] = []  # (job_id, bug)
    for index in range(n_jobs):
        bug_id = bugs[index % len(bugs)]
        seed, _ = references[bug_id]
        doc = client.submit(JobRequest(
            bug=bug_id,
            seed=seed,
            max_attempts=E15_MAX_ATTEMPTS,
            # Even indices explore serially, odd ones over the shared
            # pool — byte-identity must hold across both.
            jobs=1 if index % 2 == 0 else 2,
        ))
        submitted.append((doc["id"], bug_id))
    latencies: List[float] = []
    failed = 0
    mismatched = 0
    store_hits = 0
    for job_id, bug_id in submitted:
        final = client.wait_for(job_id)
        if final["state"] != "done":
            failed += 1
            continue
        latencies.append(final["latency_s"])
        result = client.result(job_id)
        store_hits += result["cache_hits"]
        if client.result_text(job_id) != references[bug_id][1]:
            mismatched += 1
    elapsed = time.perf_counter() - started
    return {
        "jobs": n_jobs,
        "failed": failed,
        "mismatched": mismatched,
        "store_hits": store_hits,
        "throughput_jobs_s": n_jobs / elapsed if elapsed else 0.0,
        "p50_s": _percentile(latencies, 0.50),
        "p99_s": _percentile(latencies, 0.99),
        "elapsed_s": elapsed,
    }


def build_e15(obs=None) -> BenchResult:
    """Run the service load comparison and package it as a BenchResult.

    :param obs: optional :class:`~repro.obs.session.ObsSession`; the
        serial reference reproductions charge into it, so
        ``pres bench e15 --metrics-out`` still exports engine counters.
    """
    references = _serial_references(E14_BUGS, obs)
    arms: List[Tuple[str, dict]] = []
    with tempfile.TemporaryDirectory() as root:
        with ServiceThread(
            os.path.join(root, "store"), slots=4, pool_jobs=2,
            max_queued=2 * E15_JOBS,
        ) as service:
            client = ServiceClient(service.url)
            arms.append(("cold", _run_arm(client, references, E15_JOBS)))
            arms.append(("warm", _run_arm(client, references, E15_JOBS)))
            snapshot = client.metrics()

    rows = []
    records = []
    zero_failed = True
    identical = True
    for name, arm in arms:
        zero_failed = zero_failed and arm["failed"] == 0
        identical = identical and arm["mismatched"] == 0
        rows.append([
            name,
            arm["jobs"],
            arm["failed"],
            arm["store_hits"],
            f"{arm['throughput_jobs_s']:.1f}",
            f"{arm['p50_s'] * 1e3:.1f}",
            f"{arm['p99_s'] * 1e3:.1f}",
            "yes" if arm["mismatched"] == 0 else "NO",
        ])
        records.append(dict(arm, arm=name))

    return BenchResult(
        experiment="e15",
        title="E15: replay as a service - concurrent jobs, one warm engine",
        headers=["arm", "jobs", "failed", "store hits", "jobs/s",
                 "p50 ms", "p99 ms", "identical"],
        rows=rows,
        records=records,
        meta={
            "n_jobs": E15_JOBS,
            "max_attempts": E15_MAX_ATTEMPTS,
            "bugs": list(E14_BUGS),
            "zero_failed": zero_failed,
            "identical_reports": identical,
            "service_counters": snapshot.get("counters", {}),
        },
    )
