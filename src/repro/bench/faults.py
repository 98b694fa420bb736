"""E17 - report equivalence and overhead under injected faults.

The claim under test (see ``docs/resilience.md``): supervision changes
*where* an attempt's outcome is computed — retried on a rebuilt worker,
replayed inline after the retry budget, folded from a store that had a
shard corrupted — never *what* the outcome is.  For each bug the harness
runs the same reproduction twice:

* **fault-free**: plain ``--jobs 2`` exploration, no chaos;
* **chaos**: the same exploration under the deterministic chaos harness
  (:class:`~repro.robust.inject.ChaosInjector`) injecting worker crashes
  and attempt hangs at a combined 10% attempt rate plus store-shard
  corruption, with a zero-delay backoff supervisor.

Both must produce an identical :func:`~repro.core.reproducer.report_signature`
— same attempt sequence, same winner, same complete log.  The table also
reports how much chaos the supervisor absorbed (``supervise.*`` counters)
and the wall-clock overhead ratio of the chaos arm.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List

from repro.bench.results import BenchResult
from repro.core.reproducer import report_signature
from repro.core.request import ReproduceRequest, record_request, run_request
from repro.obs.session import ObsSession
from repro.robust.supervise import SuperviseConfig

#: Suite bugs exercised by E17 — the same spread E14 uses, so the two
#: robustness benchmarks stay comparable.
E17_BUGS = (
    "mysql-atom-log",
    "apache-atom-buf",
    "fft-order-sync",
    "pbzip2-order-free",
)

E17_MAX_ATTEMPTS = 200

#: The injected fault mix: 6% worker crashes + 4% attempt hangs (the 10%
#: combined attempt rate the acceptance bar names) + 5% per-batch store
#: corruption, all drawn from one fixed seed.
E17_CHAOS = "crash=0.06,hang=0.04,corrupt=0.05,seed=2017"

#: ``supervise.*`` counters folded into the per-bug records.
_SUPERVISE_COUNTERS = (
    "supervise.chaos_injected",
    "supervise.chaos_corruptions",
    "supervise.retries",
    "supervise.timeouts",
    "supervise.worker_deaths",
    "supervise.inline_fallbacks",
    "supervise.pool_rebuilds",
    "supervise.serial_fallbacks",
)


def build_e17(obs=None) -> BenchResult:
    """Run the fault-equivalence comparison and package it as a BenchResult.

    :param obs: optional :class:`~repro.obs.session.ObsSession`; the
        chaos arms' ``supervise.*`` counters are folded into it so
        ``pres bench e17 --metrics-out`` exports the suite totals.
    """
    rows: List[list] = []
    records: List[dict] = []
    all_identical = True
    total_injected = 0
    # Zero-delay backoff: retry decisions stay deterministic either way,
    # and the benchmark should measure supervision, not sleeping.
    supervise = SuperviseConfig(backoff_base=0.0)

    for bug_id in E17_BUGS:
        request = ReproduceRequest(
            bug_id, max_attempts=E17_MAX_ATTEMPTS, batch_size=4
        ).resolved()
        recorded = record_request(request)

        started = time.perf_counter()
        baseline = run_request(
            request, recorded=recorded, jobs=2, supervise=supervise
        ).report
        baseline_elapsed = time.perf_counter() - started

        chaos_obs = ObsSession.create(trace=False, metrics=True)
        with tempfile.TemporaryDirectory() as root:
            store_dir = os.path.join(root, "store")
            started = time.perf_counter()
            chaotic = run_request(
                request, recorded=recorded, jobs=2, store=store_dir,
                obs=chaos_obs, supervise=supervise, chaos=E17_CHAOS,
            ).report
            chaos_elapsed = time.perf_counter() - started

        counters = {
            name: chaos_obs.metrics.counter(name).value
            for name in _SUPERVISE_COUNTERS
        }
        if obs is not None and obs.metrics.enabled:
            for name, value in counters.items():
                if value:
                    obs.metrics.counter(name).inc(value)

        identical = report_signature(baseline) == report_signature(chaotic)
        all_identical = all_identical and identical
        total_injected += counters["supervise.chaos_injected"]
        overhead = (
            chaos_elapsed / baseline_elapsed if baseline_elapsed > 0
            else float("inf")
        )

        rows.append(
            [bug_id, baseline.attempts,
             counters["supervise.chaos_injected"],
             counters["supervise.chaos_corruptions"],
             counters["supervise.retries"],
             counters["supervise.inline_fallbacks"],
             f"{overhead:.2f}x",
             "yes" if identical else "NO"]
        )
        records.append(
            {
                "bug": bug_id,
                "seed": request.seed,
                "success": baseline.success,
                "attempts": baseline.attempts,
                "chaos_spec": E17_CHAOS,
                "signature_baseline": report_signature(baseline),
                "signature_chaos": report_signature(chaotic),
                "identical_reports": identical,
                "overhead_ratio": overhead,
                "supervise": counters,
            }
        )

    return BenchResult(
        experiment="e17",
        title="E17: report equivalence under injected faults (10% rate)",
        headers=["bug", "attempts", "injected", "corrupted", "retries",
                 "inline", "overhead", "identical"],
        rows=rows,
        records=records,
        meta={
            "max_attempts": E17_MAX_ATTEMPTS,
            "chaos_spec": E17_CHAOS,
            "identical_reports": all_identical,
            "faults_injected": total_injected,
        },
    )
