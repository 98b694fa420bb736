"""Parallel-exploration speedup harness (experiment E12).

Measures the parallel engine on a multi-hundred-attempt workload
(``radix-order-rank`` under ODR-strict output matching, which defeats
the feedback shortcuts and forces a long frontier walk) and reports,
per arm:

* wall time and attempt count — with the deterministic-merge contract
  checked: every ``jobs`` arm must report the *identical* attempt count,
  success bit and winning constraint set as the serial arm;
* a cached re-walk arm — the same exploration run twice against one
  shared :class:`~repro.core.feedback.AttemptCache`, where the second
  walk answers from the cache instead of replaying;
* a sort-once microbenchmark — per-attempt ``sorted(key=str)`` (what
  the reproducer used to do on every replay) against the memoized
  :func:`~repro.core.constraints.canonical_order` path.

Honest-measurement note: wall-clock gains from the process pool require
actual spare cores; on a single-CPU host the pool arm pays dispatch
overhead for no parallelism, and the JSON reports whatever was really
measured (``host_cpus`` is in the meta so readers can judge).  The
cache and sort arms are serial wins and hold on any host.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.results import BenchResult
from repro.core.constraints import EventRef, OrderConstraint, canonical_order
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import AttemptCache
from repro.core.recorder import RecordedRun
from repro.core.reproducer import ReproductionReport, reproduce
from repro.core.request import ReproduceRequest, record_request

#: The E12 workload: radix sort's rank-order bug with ODR-strict output
#: matching needs several hundred attempts at this size — big enough for
#: per-attempt costs to dominate per-session setup.
E12_BUG = "radix-order-rank"
E12_PARAMS: Dict[str, int] = {"workers": 5, "seg": 6}
E12_NCPUS = 4
E12_MAX_ATTEMPTS = 300
#: Timed runs per arm; an arm reports its fastest (min-of-N: runs of the
#: same command on a shared host vary by about 15%).
E12_REPEATS = 3


def host_cpu_count() -> int:
    """CPUs this process may actually run on.

    ``os.cpu_count()`` reports the machine's cores even when an affinity
    mask or container quota grants fewer; ``sched_getaffinity`` reports
    the usable set where the platform has it (Linux).  E12's speedup
    numbers are only honest against the usable figure.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class SpeedupArm:
    """One measured configuration of the E12 workload."""

    label: str
    jobs: int
    attempts: int
    success: bool
    wall_time_s: float
    cache_hits: int = 0
    #: attempts dispatched with a schedule-prefix resume plan.
    prefix_hits: int = 0
    #: the plans among them that resumed from a parent snapshot.
    realized_resumes: int = 0
    #: serial wall time / this arm's wall time (1.0 for the serial arm).
    speedup: float = 1.0
    #: deterministic-merge check: same attempts/success/winner as serial.
    matches_serial: bool = True

    def to_record(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "jobs": self.jobs,
            "attempts": self.attempts,
            "success": self.success,
            "wall_time_s": round(self.wall_time_s, 6),
            "cache_hits": self.cache_hits,
            "prefix_hits": self.prefix_hits,
            "realized_resumes": self.realized_resumes,
            "speedup": round(self.speedup, 3),
            "matches_serial": self.matches_serial,
        }


def e12_workload(
    bug: str = E12_BUG,
    params: Optional[Dict[str, int]] = None,
    ncpus: int = E12_NCPUS,
) -> RecordedRun:
    """Record the E12 production run (one recording serves every arm,
    each reproducing it with ``match_output``, which no request sets)."""
    return record_request(ReproduceRequest(
        bug, params=dict(E12_PARAMS if params is None else params),
        ncpus=ncpus,
    ))


def _timed_reproduce(
    recorded: RecordedRun,
    max_attempts: int,
    jobs: int = 1,
    cache: Optional[AttemptCache] = None,
    obs=None,
) -> "tuple[ReproductionReport, float]":
    config = ExplorerConfig(max_attempts=max_attempts, jobs=jobs)
    started = time.perf_counter()
    report = reproduce(recorded, config, match_output=True, cache=cache,
                       obs=obs)
    return report, time.perf_counter() - started


def _fastest_reproduce(
    recorded: RecordedRun, max_attempts: int, **kwargs: Any
) -> "tuple[ReproductionReport, float]":
    """:func:`_timed_reproduce` :data:`E12_REPEATS` times: the first
    report (runs are deterministic) and the fastest wall time."""
    report, wall = _timed_reproduce(recorded, max_attempts, **kwargs)
    for _ in range(E12_REPEATS - 1):
        wall = min(wall, _timed_reproduce(recorded, max_attempts, **kwargs)[1])
    return report, wall


def _same_outcome(a: ReproductionReport, b: ReproductionReport) -> bool:
    return (
        a.success == b.success
        and a.attempts == b.attempts
        and a.winning_constraints == b.winning_constraints
    )


def sort_microbench(repeats: int = 400, n_sets: int = 16, n_constraints: int = 8) -> Dict[str, Any]:
    """Per-attempt re-sort vs sort-once constraint ordering.

    Models the reproducer's old hot path — every replay attempt re-sorted
    its constraint set with ``key=str`` (dataclass ``__repr__`` per
    element per comparison) — against the current one, which sorts each
    distinct set once via :func:`canonical_order` and serves repeats from
    a memo, exactly as :class:`~repro.core.parallel.AttemptContext` does.
    """
    sets = []
    for i in range(n_sets):
        constraints = frozenset(
            OrderConstraint(
                before=EventRef(tid=i % 4, family="mem", key=("seg", i, j), occurrence=j + 1),
                after=EventRef(tid=(i + 1) % 4, family="lock", key=f"m{j}", occurrence=1),
            )
            for j in range(n_constraints)
        )
        sets.append(constraints)

    started = time.perf_counter()
    for _ in range(repeats):
        for constraints in sets:
            tuple(sorted(constraints, key=str))
    legacy = time.perf_counter() - started

    memo: Dict[Any, Any] = {}
    started = time.perf_counter()
    for _ in range(repeats):
        for constraints in sets:
            ordered = memo.get(constraints)
            if ordered is None:
                # the microbench measures the re-sort cost on purpose
                memo[constraints] = canonical_order(constraints)  # determinism: ok
    memoized = time.perf_counter() - started

    return {
        "repeats": repeats,
        "sets": n_sets,
        "constraints_per_set": n_constraints,
        "per_attempt_sort_s": round(legacy, 6),
        "sort_once_s": round(memoized, 6),
        "speedup": round(legacy / memoized, 1) if memoized > 0 else float("inf"),
    }


def run_speedup(
    jobs: Sequence[int] = (2, 4),
    max_attempts: int = E12_MAX_ATTEMPTS,
    recorded: Optional[RecordedRun] = None,
    sort_repeats: int = 400,
    obs=None,
) -> BenchResult:
    """E12: serial vs pooled vs cached exploration of one workload.

    Every arm is timed :data:`E12_REPEATS` times and reports its fastest
    run; the cached re-walk's cold pass runs once, since only the first
    walk over a fresh cache is cold.

    :param obs: optional :class:`~repro.obs.session.ObsSession` shared by
        every arm — each arm pays the same instrumentation cost, so the
        relative speedups stay honest.  Its metrics snapshot is attached
        as ``meta["metrics"]``.
    """
    if recorded is None:
        recorded = e12_workload()
    arms: List[SpeedupArm] = []

    serial_report, serial_wall = _fastest_reproduce(
        recorded, max_attempts, obs=obs
    )
    arms.append(
        SpeedupArm(
            label="serial",
            jobs=1,
            attempts=serial_report.attempts,
            success=serial_report.success,
            wall_time_s=serial_wall,
            prefix_hits=serial_report.prefix_hits,
            realized_resumes=serial_report.realized_resumes,
        )
    )

    for n in jobs:
        if n <= 1:
            continue
        report, wall = _fastest_reproduce(recorded, max_attempts, jobs=n,
                                          obs=obs)
        arms.append(
            SpeedupArm(
                label=f"pool jobs={n}",
                jobs=n,
                attempts=report.attempts,
                success=report.success,
                wall_time_s=wall,
                prefix_hits=report.prefix_hits,
                realized_resumes=report.realized_resumes,
                speedup=serial_wall / wall if wall > 0 else float("inf"),
                matches_serial=_same_outcome(report, serial_report),
            )
        )

    # Cached re-walk: the second pass over the same exploration answers
    # from the shared AttemptCache instead of replaying — the ladder
    # re-walk scenario reproduce(degrade=True) leans on.
    shared = AttemptCache()
    _cold_report, cold_wall = _timed_reproduce(recorded, max_attempts,
                                               cache=shared, obs=obs)
    warm_report, warm_wall = _fastest_reproduce(recorded, max_attempts,
                                                cache=shared, obs=obs)
    arms.append(
        SpeedupArm(
            label="cached re-walk",
            jobs=1,
            attempts=warm_report.attempts,
            success=warm_report.success,
            wall_time_s=warm_wall,
            cache_hits=warm_report.cache_hits,
            prefix_hits=warm_report.prefix_hits,
            realized_resumes=warm_report.realized_resumes,
            speedup=cold_wall / warm_wall if warm_wall > 0 else float("inf"),
            matches_serial=_same_outcome(warm_report, serial_report),
        )
    )

    rows = [
        [
            arm.label,
            arm.jobs,
            arm.attempts,
            "yes" if arm.success else "no",
            f"{arm.wall_time_s:.2f}",
            arm.cache_hits,
            arm.prefix_hits,
            arm.realized_resumes,
            f"{arm.speedup:.2f}x",
            "yes" if arm.matches_serial else "NO",
        ]
        for arm in arms
    ]
    widest = max((arm.jobs for arm in arms), default=1)
    cpus = host_cpu_count()
    meta = {
        "bug": recorded.program.name,
        "params": dict(E12_PARAMS),
        "ncpus_simulated": E12_NCPUS,
        "max_attempts": max_attempts,
        "host_cpus": cpus,
        "repeats": E12_REPEATS,
        "sort_microbench": sort_microbench(repeats=sort_repeats),
        "note": (
            "pool-arm wall time needs spare host cores; attempt "
            "trajectories are jobs-invariant by construction"
        ),
    }
    if cpus < widest:
        meta["warning"] = (
            f"host grants {cpus} usable core(s) but the widest arm asks "
            f"for {widest} workers; pool wall times measure dispatch "
            "overhead, not parallel speedup"
        )
    if obs is not None and obs.metrics.enabled:
        meta["metrics"] = obs.metrics.snapshot()
    return BenchResult(
        experiment="e12",
        title=(
            f"E12: parallel exploration speedup ({E12_BUG}, "
            f"cap {max_attempts}, ODR-strict)"
        ),
        headers=["arm", "jobs", "attempts", "success", "wall s",
                 "cache hits", "prefix hits", "realized", "speedup",
                 "= serial"],
        rows=rows,
        records=[arm.to_record() for arm in arms],
        meta=meta,
    )


def build_e12(obs=None) -> BenchResult:
    """Registry entry point (``pres bench e12``)."""
    result = run_speedup(obs=obs)
    result.meta["command"] = "pres bench e12"
    return result
