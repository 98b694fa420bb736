"""E14 - warm-start reproduction from a cross-run attempt store.

The claim under test (see :mod:`repro.store`): persisting attempt
outcomes changes *where* outcomes come from, never *what* is explored.
For each bug the harness runs the same reproduction four ways —

* **baseline**: no store at all;
* **cold**: an empty store (every attempt replays live, then persists);
* **warm**: the same store again, as a fresh process would see it
  (every attempt folds from disk: zero live replays);
* **partial**: after ``gc`` evicted roughly half the records (only the
  evicted keys replay live).

All four must report the same attempt sequence, the same winner, and a
byte-identical complete log; the warm run must answer every attempt from
the store.  That is the store's jobs-invariance-style contract, asserted
here over real suite bugs rather than unit fixtures.
"""

from __future__ import annotations

import functools
import os
import tempfile
from typing import List

from repro.bench.results import BenchResult
from repro.core.reproducer import report_signature
from repro.core.request import ReproduceRequest, record_request, run_request

#: Suite bugs exercised by E14 — a spread of bug types, kept small
#: enough for CI (the store contract is per-recording, not per-suite).
E14_BUGS = (
    "mysql-atom-log",
    "apache-atom-buf",
    "fft-order-sync",
    "pbzip2-order-free",
)

E14_MAX_ATTEMPTS = 200


def build_e14(obs=None) -> BenchResult:
    """Run the warm-start comparison and package it as a BenchResult.

    :param obs: optional :class:`~repro.obs.session.ObsSession` shared by
        every reproduction, so ``pres bench e14 --metrics-out`` exports
        the ``store.*`` counters the runs charged.
    """
    from repro.store import AttemptStore

    rows: List[list] = []
    records: List[dict] = []
    all_identical = True
    zero_live_warm = True

    for bug_id in E14_BUGS:
        request = ReproduceRequest(
            bug_id, max_attempts=E14_MAX_ATTEMPTS
        ).resolved()
        run = functools.partial(
            run_request, request, recorded=record_request(request, obs=obs),
            obs=obs,
        )
        baseline = run().report
        with tempfile.TemporaryDirectory() as root:
            store_dir = os.path.join(root, "store")
            cold = run(store=store_dir).report
            warm = run(store=store_dir).report
            stats = AttemptStore(store_dir).stats()
            gc_store = AttemptStore(store_dir)
            gc_report = gc_store.gc(max(1, stats.records // 2))
            partial = run(store=store_dir).report

        identical = (
            report_signature(baseline)
            == report_signature(cold)
            == report_signature(warm)
            == report_signature(partial)
        )
        warm_live = warm.attempts - warm.cache_hits
        partial_live = partial.attempts - partial.cache_hits
        all_identical = all_identical and identical
        zero_live_warm = zero_live_warm and warm_live == 0

        rows.append(
            [bug_id, cold.attempts, warm.cache_hits, warm_live,
             partial_live, stats.records, "yes" if identical else "NO"]
        )
        records.append(
            {
                "bug": bug_id,
                "seed": request.seed,
                "success": cold.success,
                "attempts": cold.attempts,
                "cold_cache_hits": cold.cache_hits,
                "warm_cache_hits": warm.cache_hits,
                "warm_live_replays": warm_live,
                "partial_live_replays": partial_live,
                "gc_evicted": gc_report.evicted,
                "store_records": stats.records,
                "store_bytes": stats.size_bytes,
                "identical_reports": identical,
            }
        )

    return BenchResult(
        experiment="e14",
        title="E14: warm-start reproduction from a cross-run attempt store",
        headers=["bug", "attempts", "warm hits", "warm live",
                 "partial live", "records", "identical"],
        rows=rows,
        records=records,
        meta={
            "max_attempts": E14_MAX_ATTEMPTS,
            "identical_reports": all_identical,
            "zero_live_warm": zero_live_warm,
        },
    )
