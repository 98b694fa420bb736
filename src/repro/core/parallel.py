"""The exploration engine: batched replay attempts, in process or pooled.

The paper's pitch is that PRES trades a cheap sketch for *more replay
attempts* — which makes attempt throughput, not single-replay latency,
the number that matters at diagnosis time.  Every attempt is a pure
function of ``(sketch log, constraint set, base seed)``, so attempts are
embarrassingly parallel: :class:`ParallelExplorer` — the one search loop
every reproduction runs — evaluates *batches* of frontier candidates,
in-process at ``jobs=1`` and on a ``ProcessPoolExecutor`` of replay
workers above, each of which reconstructs the machine + PIR scheduler
from a pickled :class:`~repro.core.recorder.RecordedRun` and sends back a
compact :class:`AttemptOutcome` (never the full trace).

Deterministic merge semantics
-----------------------------

Parallelism must not change *what* is explored, or the published attempt
counts would depend on core count.  The engine guarantees that by being
batch-synchronous:

1. A batch of up to ``batch_size`` candidates is popped from the
   :class:`~repro.core.explorer.Frontier` in canonical best-first order.
2. The batch is evaluated — concurrently or not; each attempt is pure, so
   worker scheduling cannot affect any outcome.
3. Outcomes are folded back **in pop order**: records are appended, the
   first matched outcome (in pop order, not completion order) wins, and
   mined candidates re-enter the frontier in that same order.

Consequently the exploration schedule depends only on ``batch_size``,
never on ``jobs``: ``jobs=1`` and ``jobs=64`` report the same winning
schedule and the same attempt count (property-tested in
``tests/core/test_parallel.py``; ``tests/core/test_report_digests.py``
pins the E3/E5 reports themselves).

Without feedback (the paper's E5 ablation) the loop is unchanged but
mines nothing: each batch is the next ``batch_size`` seeds of
``base_seed, base_seed + 1, ...`` with no constraints, and plan seeds are
ignored.

Early cancellation: once a batch's canonical-first match is known, every
later future in the batch is cancelled and no further batches are
dispatched — their results could never be reported anyway.

The attempt cache (:class:`~repro.core.feedback.AttemptCache`) sits in
front of dispatch: a (constraints, seed) pair whose outcome is already
memoized cannot produce a new interleaving, so it is folded straight from
the cache without burning a worker.

Two more kinds of work are never thrown away.  Every batch carries the
fingerprints of the executions folded so far, so an attempt that replays
one of them skips mining — the fold would drop its candidates — and its
outcome says it was not mined; an unmined outcome from the cache whose
execution is new to this session is re-mined at fold time.  And the
engine keeps the session's one prefix-snapshot tree
(:mod:`repro.core.prefix`): outcomes ship back the snapshots their
candidates resume from, and each resume plan carries its parent's
snapshot to wherever the attempt runs.  An attempt run in the engine's
own process also snapshots where its not-yet-run siblings depart from
their parent, so each of them resumes there.

Fault tolerance is delegated to a :class:`~repro.robust.supervise.Supervisor`,
which owns the pool: attempt deadlines, retry/backoff on worker death,
pool rebuilds, serial fallback, and (optional) chaos injection all live
there.  Attempts are pure, so supervision can only change *where* an
outcome is computed — the exploration schedule and the final report stay
byte-identical under injected faults (see ``docs/resilience.md``).  A
``KeyboardInterrupt`` mid-exploration shuts the pool down cleanly
(workers joined, no zombies) and returns the partial result with
``interrupted=True`` instead of propagating a traceback.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import AbstractSet, Any, Dict, List, Optional, Tuple

from repro.core import shm
from repro.core.constraints import ConstraintSet, canonical_order
from repro.core.epochs import EpochResumeBase
from repro.core.explorer import (
    AttemptRecord,
    ExplorationResult,
    ExplorerConfig,
    SEED_TIERS,
    Frontier,
    plan_candidates,
)
from repro.core.feedback import (
    TIER_ROOT,
    AttemptCache,
    Candidate,
    FeedbackDB,
    FeedbackGenerator,
    trace_fingerprint,
)
from repro.core.pir import PIRScheduler
from repro.core.prefix import (
    PrefixTree,
    ResumePlan,
    Snapshot,
    analysis_of,
    capture_hooks,
    checkpoint_snapshots,
    family_depth,
    pack,
    resume_depth,
    resume_depths,
    restore_machine,
)
from repro.core.recorder import RecordedRun, apply_oracle
from repro.obs.session import NULL_SESSION, ObsSession
from repro.obs.tracer import NULL_TRACER, PARENT_TRACK, SpanRecord, Tracer
from repro.robust.inject import ChaosInjector, ChaosSpec, parse_chaos
from repro.robust.supervise import Supervisor, SuperviseConfig
from repro.sim.machine import Machine
from repro.sim.trace import Trace

_EMPTY: ConstraintSet = frozenset()
_ROOT = Candidate(_EMPTY, 0, 0, tier=TIER_ROOT)


def recording_token(recorded: RecordedRun) -> Tuple[str, int, str]:
    """The recording half of every attempt-cache and store key.

    ``(sketch, entries, fingerprint)``, where the fingerprint digests the
    sketch log *and* the recording it constrains: the program with its
    parameters, the machine config, the recorded failure signature and
    the recorded output.  A log alone does not identify a recording —
    every NONE log is empty, and short SYNC/SYS logs of different
    programs coincide — and a key on the log alone would let one
    recording's memoized outcome answer another's attempt.  The
    fingerprint also names the store shard (and the epoch-base registry
    entry) the attempts land in.
    """
    failure = recorded.failure.signature() if recorded.failure is not None else None
    identity = (
        recorded.program.describe(), recorded.config, failure, recorded.stdout
    )
    digest = hashlib.sha1(recorded.log.fingerprint().encode("utf-8"))
    digest.update(repr(identity).encode("utf-8"))
    return recorded.sketch.value, len(recorded.log), digest.hexdigest()


def _classify(trace: Trace, matched: bool) -> Tuple[str, str]:
    if matched:
        return "matched", trace.failure.describe() if trace.failure else ""
    if trace.diverged:
        return "diverged", trace.divergence or ""
    if trace.failure is not None:
        return "other_failure", trace.failure.describe()
    return "no_failure", ""


@dataclass
class AttemptContext:
    """Everything a replay worker needs to run attempts for one session.

    Pickled once per pool (via the worker initializer), not per task —
    tasks themselves are just ``(constraints, seed)`` pairs.
    """

    recorded: RecordedRun
    base_policy: str = "random"
    match_output: bool = False
    #: canonical-order memo so each distinct constraint set is sorted
    #: once per session, not once per replay.
    sorted_cache: Dict[ConstraintSet, Tuple] = field(default_factory=dict)
    #: bound on the memo above — a long ladder walk over a large
    #: frontier sees an unbounded stream of distinct constraint sets, so
    #: without a cap the memo is a slow leak.  Eviction is oldest-first
    #: (dict insertion order, schedule-deterministic) and can only cost
    #: a re-sort, never change its result.  ``0`` disables the bound.
    sorted_cache_limit: int = 4096
    #: record per-attempt spans inside :func:`evaluate_attempt` (in the
    #: worker process, when pooled) and ship them on the outcome.
    trace_attempts: bool = False
    #: the parent tracer's monotonic-clock epoch, so worker spans land on
    #: the parent timeline directly (see :mod:`repro.obs.tracer`).
    trace_epoch: float = 0.0
    #: epoch replay base: restore this boundary snapshot instead of
    #: re-simulating from step 0 (``recorded.log`` is then the
    #: epoch-local suffix).  Serialized snapshots pickle with the rest
    #: of the context, so pool workers restore it like the parent does.
    epoch_base: Optional[EpochResumeBase] = None

    def ordered(self, constraints: ConstraintSet) -> Tuple:
        """The canonical ordering of ``constraints``, memoized per session."""
        cached = self.sorted_cache.get(constraints)
        if cached is None:
            cached = canonical_order(constraints)
            if (
                self.sorted_cache_limit > 0
                and len(self.sorted_cache) >= self.sorted_cache_limit
            ):
                del self.sorted_cache[next(iter(self.sorted_cache))]
            self.sorted_cache[constraints] = cached
        return cached

    def attempt_tracer(self) -> Tracer:
        """A tracer for one attempt evaluation (null when tracing is off)."""
        if not self.trace_attempts:
            return NULL_TRACER
        return Tracer(enabled=True, epoch=self.trace_epoch)


@dataclass(frozen=True)
class AttemptOutcome:
    """What one replay attempt produced, compact enough to pickle back.

    The full trace stays in the worker; the parent only needs the
    classification, a stable execution fingerprint for dedup, the mined
    next-attempt candidates, the snapshots those candidates can resume
    from, and (for matches) the winning schedule.
    """

    constraints: ConstraintSet
    seed: int
    outcome: str
    detail: str
    steps: int
    matched: bool
    fingerprint: str
    candidates: Tuple[Candidate, ...] = ()
    schedule: Optional[Tuple[int, ...]] = None
    #: False when a failed attempt was not mined: feedback was off, or
    #: the session that ran it already knew its execution.  Its empty
    #: ``candidates`` are then no verdict, and a session to which the
    #: execution is new re-mines it at fold time.
    mined: bool = True
    #: spans recorded while evaluating this attempt (tracing only);
    #: stamped with the recording pid so the parent can assign worker
    #: lanes deterministically at fold time.  Stripped before caching.
    spans: Tuple[SpanRecord, ...] = ()
    #: ``(depth, snapshot)`` ladder rungs this attempt's candidates can
    #: resume from, for the engine's prefix tree.  Stripped before
    #: caching.
    snapshots: Tuple[Tuple[int, Snapshot], ...] = field(
        default=(), compare=False, repr=False
    )
    #: ``(depth, snapshot)`` family snapshots taken at the depths the
    #: resume plan's ``siblings`` asked for, for the engine's prefix
    #: tree.  Stripped before caching.
    shared: Tuple[Tuple[int, Snapshot], ...] = field(
        default=(), compare=False, repr=False
    )


def _ladder_snapshots(
    captured: Dict[int, Snapshot], candidates: Tuple[Candidate, ...]
) -> Tuple[Tuple[int, Snapshot], ...]:
    """The captured rungs ``candidates`` resume from, shallowest first."""
    wanted = resume_depths(candidates)
    return tuple(
        (depth, captured[depth]) for depth in sorted(captured) if depth in wanted
    )


def run_attempt(
    ctx: AttemptContext,
    constraints: ConstraintSet,
    seed: int,
    resume: Optional[ResumePlan] = None,
    snapshots: Optional[Dict[int, Snapshot]] = None,
) -> Tuple[Trace, bool]:
    """One replay attempt; the single source of attempt semantics.

    Shared by the engine's in-process path, pool workers, and the
    winner's rematerialization, so none of them can drift.

    ``resume``/``snapshots`` opt into prefix memoization: the machine
    starts from the plan's snapshot of the parent attempt instead of
    step 0, and the live run captures its own snapshots into
    ``snapshots`` (keyed by depth) as it passes each ladder depth, so
    future children can resume from *this* attempt, and at each of the
    plan's ``siblings`` depths, for its siblings.  Capturing is
    observation-only and resume failures of any kind fall back to a cold
    run — attempts are pure, so the trace is identical either way
    (property-tested in ``tests/core/test_prefix.py``).
    """
    recorded = ctx.recorded
    machine = None
    scheduler: Optional[PIRScheduler] = None
    if resume is not None:
        resumed = restore_machine(ctx, constraints, seed, resume)
        if resumed is not None:
            machine, scheduler = resumed
    if machine is None:
        scheduler = PIRScheduler(
            recorded.log,
            ctx.ordered(constraints),
            base_seed=seed,
            base_policy=ctx.base_policy,
        )
        machine = Machine(recorded.program, scheduler, recorded.config)
        if ctx.epoch_base is not None:
            # Last-epoch in-situ replay: restore the boundary snapshot
            # and search only the epoch-local suffix.  The restored
            # machine already holds the production prefix events, so the
            # scheduler primes its gate from them while its cursor walks
            # the suffix log from 0.
            ctx.epoch_base.restore_into(machine)
            scheduler.prime_restored(machine)
    if snapshots is not None:
        depths, on_snapshot = capture_hooks(scheduler, snapshots)
        if machine.schedule:
            # resumed: the engine aliased the parent's rungs at or below
            # the resume point; only capture deeper ones
            start = len(machine.schedule)
            depths = tuple(d for d in depths if d > start)
        if resume is not None:
            depths = (*depths, *resume.siblings)
        trace = machine.run(snapshot_depths=depths, on_snapshot=on_snapshot)
    else:
        trace = machine.run()
    failure = apply_oracle(trace, recorded.oracle)
    if failure is not None and trace.failure is None:
        trace.failure = failure
    matched = (
        not trace.diverged
        and failure is not None
        and recorded.failure.matches(failure)
    )
    if matched and ctx.match_output:
        matched = trace.stdout == recorded.stdout
    return trace, matched


def evaluate_attempt(
    ctx: AttemptContext,
    constraints: ConstraintSet,
    seed: int,
    mine: bool = True,
    resume: Optional[ResumePlan] = None,
    known: AbstractSet[str] = frozenset(),
    checkpoint: bool = True,
) -> AttemptOutcome:
    """Run one attempt and summarize it as a picklable outcome.

    Candidate mining happens here, in the worker, so the (potentially
    large) trace never crosses the process boundary.  The trace is
    fingerprinted first: an execution in ``known`` (the session's folded
    fingerprints) is one whose candidates the engine would drop, so it
    is not mined and the outcome says so.  A matched attempt skips
    mining too — the search stops at it anyway — and carries the
    winning schedule instead.  A mined attempt ships back the ladder
    snapshots its candidates can resume from, and every attempt the
    family snapshots its resume plan asked for.

    A run resumed from a snapshot that keeps an analysis checkpoint
    fingerprints, sweeps and indexes only the events it executed, and
    each snapshot the run takes keeps the analysis at its depth.
    ``checkpoint=False`` (pool workers) takes no checkpoints: they could
    not leave the process (see :func:`~repro.core.prefix.analysis_of`).
    """
    tracer = ctx.attempt_tracer()
    attempt_span = tracer.span(
        "attempt", category="attempt", seed=seed, constraints=len(constraints)
    )
    captured: Dict[int, Snapshot] = {}
    with attempt_span:
        with tracer.span("replay", category="replay"):
            trace, matched = run_attempt(
                ctx, constraints, seed, resume=resume,
                snapshots=captured if mine else None,
            )
        outcome, detail = _classify(trace, matched)
        inherited = analysis_of(resume.snapshot) if resume is not None else None
        if inherited is not None and not inherited.covers(trace):
            inherited = None  # the run did not resume from this snapshot
        checkpoints = (
            checkpoint_snapshots(captured, trace) if checkpoint else {}
        )
        fingerprint = trace_fingerprint(trace, inherited, checkpoints)
        candidates: Tuple[Candidate, ...] = ()
        snapshots: Tuple[Tuple[int, Snapshot], ...] = ()
        schedule: Optional[Tuple[int, ...]] = None
        mined = True
        if matched:
            schedule = tuple(trace.schedule)
        elif mine and fingerprint not in known:
            with tracer.span("mine", category="feedback"):
                generator = FeedbackGenerator(sketch=ctx.recorded.sketch)
                candidates = tuple(
                    generator.candidates(
                        trace, constraints, inherited, checkpoints
                    )
                )
            snapshots = _ladder_snapshots(captured, candidates)
        else:
            mined = False
        shared = tuple(
            (depth, captured[depth])
            for depth in (resume.siblings if resume is not None else ())
            if depth in captured
        )
        attempt_span.note(
            outcome=outcome, steps=trace.steps, candidates=len(candidates)
        )
    return AttemptOutcome(
        constraints=constraints,
        seed=seed,
        outcome=outcome,
        detail=detail,
        steps=trace.steps,
        matched=matched,
        fingerprint=fingerprint,
        candidates=candidates,
        schedule=schedule,
        mined=mined,
        spans=tuple(tracer.spans),
        snapshots=snapshots,
        shared=shared,
    )


# -- pool worker plumbing -----------------------------------------------------

#: Per-worker-process session cache, keyed by segment token: each entry
#: is one session's AttemptContext, attached once from the shared
#: segment and unpickled once.  A *leased* pool serves many sessions
#: over its lifetime, so workers keep the most recent few warm instead
#: of one.  Workers hold no prefix snapshots: those ride on the tasks.
_WORKER_SESSIONS: "OrderedDict[shm.SegmentToken, AttemptContext]" = OrderedDict()

#: sessions a worker keeps warm before evicting the least recently used
#: one.  Eviction only costs a re-attach + re-unpickle; attempts are
#: pure, so outcomes are unaffected.
_WORKER_SESSION_LIMIT = 4


def _worker_session(token: shm.SegmentToken) -> AttemptContext:
    ctx = _WORKER_SESSIONS.get(token)
    if ctx is None:
        ctx = pickle.loads(shm.attach(token))
        while len(_WORKER_SESSIONS) >= _WORKER_SESSION_LIMIT:
            _WORKER_SESSIONS.popitem(last=False)
        _WORKER_SESSIONS[token] = ctx
    else:
        _WORKER_SESSIONS.move_to_end(token)
    return ctx


def _worker_init(token: shm.SegmentToken) -> None:
    """Pre-warm a session-owned pool's workers at fork time."""
    _worker_session(token)


def _worker_run(
    task: Tuple[
        shm.SegmentToken, ConstraintSet, int, bool, Optional[ResumePlan],
        AbstractSet[str],
    ]
) -> AttemptOutcome:
    token, constraints, seed, mine, resume, known = task
    outcome = evaluate_attempt(
        _worker_session(token), constraints, seed,
        mine=mine, resume=resume, known=known, checkpoint=False,
    )
    if outcome.snapshots:
        outcome = replace(outcome, snapshots=tuple(
            (depth, pack(snapshot)) for depth, snapshot in outcome.snapshots
        ))
    return outcome


# -- pool lending -------------------------------------------------------------


class PoolLease:
    """An externally owned replay-worker pool shared across sessions.

    A long-lived host (the reproduction service) keeps one warm
    ``ProcessPoolExecutor`` and lends it to every
    :class:`ParallelExplorer` it runs: sessions dispatch tasks carrying
    their own segment token (workers keep a small per-session cache, see
    :data:`_WORKER_SESSIONS`), a session ending detaches without tearing
    the pool down, and only a broken-pool verdict — or :meth:`close` —
    recycles the executor.  Thread-safe: concurrent sessions may acquire
    and invalidate from different threads.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs)
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        #: executors built over this lease's lifetime (diagnostics).
        self.builds = 0

    def acquire(self) -> ProcessPoolExecutor:
        """The shared executor, built lazily on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool lease is closed")
            if self._pool is None:
                import multiprocessing

                mp_context = None
                if "fork" in multiprocessing.get_all_start_methods():
                    mp_context = multiprocessing.get_context("fork")
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=mp_context
                )
                self.builds += 1
            return self._pool

    def invalidate(self, pool: ProcessPoolExecutor) -> None:
        """Discard a broken executor so the next acquire rebuilds.

        Keyed on identity: if another session already replaced the
        executor, only the stale one is shut down.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self, wait: bool = True) -> None:
        """Shut the shared executor down for good (host shutdown path)."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)


class _LeasedPool:
    """A session's borrowed view of a :class:`PoolLease` executor.

    Looks enough like a ``ProcessPoolExecutor`` for the supervisor:
    ``submit`` delegates; ``shutdown`` — the session-detach path — is a
    no-op because the lease owns the executor's lifecycle; a
    broken-pool verdict goes through :meth:`discard_broken`, which
    invalidates the shared executor for every session.
    """

    def __init__(self, lease: PoolLease, pool: ProcessPoolExecutor) -> None:
        self._lease = lease
        self._pool = pool

    def submit(self, fn, *args, **kwargs):
        return self._pool.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = False, cancel_futures: bool = False) -> None:
        """Detach from the lease; the shared executor keeps running."""

    def discard_broken(self) -> None:
        self._lease.invalidate(self._pool)


class ParallelExplorer:
    """Batch-deterministic exploration, in-process or over a worker pool.

    The one search loop: ``jobs=1`` evaluates every batch in this
    process (with the same prefix memoization a pool gets), ``jobs > 1``
    ships batches to pool workers.  It holds the :class:`AttemptContext`
    itself, since pooled attempts must be able to rebuild it elsewhere.

    :param use_feedback: with False, mining is off and the search
        explores the seed sequence ``base_seed, base_seed + 1, ...`` with
        no constraints (the E5 ablation arm), still batched and cached;
        plan seeds are ignored.
    :param cache: optional shared :class:`AttemptCache`; hits are folded
        without dispatching a replay.
    :param supervise: retry/deadline/rebuild policy for the worker pool
        (:class:`~repro.robust.supervise.SuperviseConfig`); the default
        tolerates a couple of worker deaths per attempt and a couple of
        pool rebuilds per session.
    :param chaos: optional fault injection — a ``--chaos``-style spec
        string, a :class:`~repro.robust.inject.ChaosSpec`, or a built
        :class:`~repro.robust.inject.ChaosInjector`.
    :param pool: optional :class:`PoolLease` — a shared, externally
        owned worker pool to borrow instead of building (and tearing
        down) a private one.  Results are identical either way; the
        lease only changes where attempts are computed.
    """

    def __init__(
        self,
        recorded: RecordedRun,
        config: Optional[ExplorerConfig] = None,
        base_policy: str = "random",
        match_output: bool = False,
        use_feedback: bool = True,
        cache: Optional[AttemptCache] = None,
        obs: Optional[ObsSession] = None,
        supervise: Optional[SuperviseConfig] = None,
        chaos=None,
        pool: Optional[PoolLease] = None,
        epoch_base: Optional[EpochResumeBase] = None,
    ) -> None:
        self.config = config or ExplorerConfig()
        self.obs = obs or NULL_SESSION
        self.context = AttemptContext(
            recorded=recorded,
            base_policy=base_policy,
            match_output=match_output,
            trace_attempts=self.obs.tracer.enabled,
            trace_epoch=self.obs.tracer.epoch,
            epoch_base=epoch_base,
        )
        self.use_feedback = use_feedback
        self.cache = cache
        self.supervise = supervise or SuperviseConfig()
        if isinstance(chaos, str):
            chaos = parse_chaos(chaos)
        if isinstance(chaos, ChaosSpec):
            chaos = ChaosInjector(chaos) if chaos.active else None
        self.chaos: Optional[ChaosInjector] = chaos
        bind = getattr(cache, "bind_metrics", None)
        if bind is not None:
            # A persistent cache tier charges its store.* counters into
            # this session's registry (at get/put time, so they stay as
            # jobs-invariant as every other counter).
            bind(self.obs.metrics)
        self.db = FeedbackDB()
        #: why the process pool could not be used, if it could not.
        self.pool_disabled_reason: Optional[str] = None
        #: shared pool lease, when the host lends one (see :class:`PoolLease`).
        self.lease = pool
        #: this session's published segment token; set by :meth:`_make_pool`
        #: before any dispatch can happen (the supervisor builds the pool
        #: before submitting its first task).
        self._session_token: Optional[shm.SegmentToken] = None
        self._log_token = recording_token(recorded)
        # Worker lanes are assigned by first appearance *at fold time*,
        # which happens in pop order — so lane numbering is deterministic
        # even though OS pids are not.
        self._parent_pid = os.getpid()
        self._lanes: Dict[int, int] = {}
        #: seeded plan constraint sets and their provenance (feedback
        #: mode only), for the match attribution at fold time.
        self._seeded: Dict[ConstraintSet, str] = {}
        #: the session's only prefix-snapshot tree: filled at fold from
        #: the snapshots outcomes ship back, read at batch assembly to
        #: put the parent's snapshot on each resume plan.
        self._prefix_tree = PrefixTree()
        #: whether attempts run in this process (the supervisor has no
        #: pool), so plans ask for family captures; a pool worker would
        #: have to pickle and ship each one (see docs/parallel.md).
        self._in_process = False
        #: per mined parent ``(constraints, seed)``, while attempts run in
        #: process, its children as ``(constraints, family depth)`` pairs:
        #: where a sibling's run can snapshot for each (see
        #: :func:`~repro.core.prefix.family_depth`; 0 is nowhere).
        self._families: Dict[
            Tuple[ConstraintSet, int], Tuple[Tuple[ConstraintSet, int], ...]
        ] = {}
        #: resume plans issued at batch assembly — the logical count the
        #: report and metrics publish, from candidate metadata alone.  The
        #: tree's ``hits`` are the plans that carried a snapshot; the tree
        #: is a function of the schedule, so that count is jobs-invariant
        #: at a fixed ``batch_size`` too.
        self._prefix_hits = 0
        #: folded attempt-cost totals driving auto batch sizing; updated
        #: only at fold points, so they are jobs-invariant too.
        self._folded_attempts = 0
        self._folded_steps = 0

    # -- public API -----------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Frontier candidates dispatched per batch.

        The exploration schedule — and therefore every counter and
        histogram the engine charges — depends only on this value, never
        on ``jobs``.
        """
        configured = self.config.batch_size
        if configured > 0:
            return configured
        # Auto: serial stays exactly serial (batches of one); pools
        # speculate two batches per worker —
        # doubled when folded attempts measure as cheap, where dispatch
        # latency dominates and deeper speculation amortizes it.  The
        # tuning signal is virtual steps folded so far (never wall
        # clock), so the batch sequence is a deterministic function of
        # the exploration itself.
        if self.config.jobs <= 1:
            return 1
        base = 2 * self.config.jobs
        if (
            self._folded_attempts >= 8
            and self._folded_steps <= 200 * self._folded_attempts
        ):
            base *= 2
        return base

    def explore(self) -> ExplorationResult:
        """Run the batched search; identical results for any ``jobs``.

        Worker faults (and injected chaos) are absorbed by the
        supervisor; a ``KeyboardInterrupt`` shuts the pool down with its
        workers joined and returns the partial result, flagged
        ``interrupted``, instead of propagating.
        """
        metrics = self.obs.metrics
        metrics.gauge("jobs").set(self.config.jobs)
        metrics.gauge("batch_size").set(self.batch_size)
        result = ExplorationResult(success=False)
        with self.obs.tracer.span(
            "explore", category="engine",
            jobs=self.config.jobs, batch_size=self.batch_size,
            feedback=self.use_feedback,
        ):
            supervisor = self._make_supervisor()
            try:
                self._search(result, supervisor)
            except KeyboardInterrupt:
                supervisor.shutdown(wait=True)
                result.interrupted = True
                metrics.counter("supervise.interrupted").inc()
                self.obs.tracer.instant("interrupted", category="supervise")
            finally:
                supervisor.shutdown(wait=False)
        result.duplicate_traces = self.db.duplicate_traces
        if self.cache is not None:
            result.cache_hits = self.cache.hits
        result.prefix_hits = self._prefix_hits
        result.realized_resumes = self._prefix_tree.hits
        metrics.counter("duplicate_traces").inc(result.duplicate_traces)
        return result

    # -- supervision ----------------------------------------------------

    def _make_supervisor(self) -> Supervisor:
        """The fault-absorbing executor for this session's batches.

        The supervisor is handed callables instead of this object, so it
        stays decoupled from the engine (and unit-testable with stub
        pools): ``dispatch`` ships one task to a pool worker, ``inline``
        is the deterministic in-process escape hatch.
        """
        return Supervisor(
            self.supervise,
            obs=self.obs,
            pool_factory=self._make_pool,
            dispatch=lambda pool, constraints, seed, mine, resume, known: (
                pool.submit(
                    _worker_run,
                    (self._session_token, constraints, seed, mine, resume, known),
                )
            ),
            inline=lambda constraints, seed, mine, resume, known: (
                evaluate_attempt(
                    self.context, constraints, seed, mine=mine,
                    resume=resume, known=known,
                )
            ),
            max_attempts=self.config.max_attempts,
            chaos=self.chaos,
            # Chaos verdicts key on attempt *content* in canonical
            # constraint order — never dispatch order or pids — so
            # injection is jobs-invariant.
            chaos_material=lambda constraints, seed: (
                f"{seed}|{self.context.ordered(constraints)!r}"
            ),
            # The attempt-store root behind a persistent cache, if
            # any: the target of chaos shard corruption.
            store_root=getattr(getattr(self.cache, "store", None), "root", None),
        )

    # -- pool management ------------------------------------------------

    def _make_pool(self):
        if self.config.jobs <= 1 and self.lease is None:
            return None
        started = time.perf_counter()
        try:
            payload = pickle.dumps(self.context)
        except Exception as exc:  # unpicklable program/oracle: run inline
            self.pool_disabled_reason = (
                f"session is not picklable ({exc}); running attempts in-process"
            )
            self.obs.tracer.instant(
                "pool-disabled", category="engine",
                reason=self.pool_disabled_reason,
            )
            return None
        try:
            import multiprocessing

            # Publish the session snapshot once; workers attach to the
            # segment by name and unpickle on first use, so the context
            # bytes cross the executor pipe zero times.  The publish
            # registry dedups by content, so a supervisor rebuilding
            # this pool (or another arm over the same recording)
            # republishes nothing.
            token = shm.publish(payload)
            self._session_token = token
            if self.lease is not None:
                # Borrowed pool: workers attach lazily per session (the
                # lease's workers may predate this session), and the
                # session must not tear the executor down on its way out.
                pool = _LeasedPool(self.lease, self.lease.acquire())
                self.obs.metrics.gauge("parallel.warm_init_s").set(
                    round(time.perf_counter() - started, 6)
                )
                return pool
            mp_context = None
            if "fork" in multiprocessing.get_all_start_methods():
                # fork keeps worker hash seeds identical to the parent's
                # and skips re-importing the world per worker.
                mp_context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(
                max_workers=self.config.jobs,
                mp_context=mp_context,
                initializer=_worker_init,
                initargs=(token,),
            )
            # Gauge, not counter: wall-clock warm-up cost is environment
            # data, exempt from the jobs-invariance contract.
            self.obs.metrics.gauge("parallel.warm_init_s").set(
                round(time.perf_counter() - started, 6)
            )
            return pool
        except Exception as exc:  # no fork/spawn support in this env
            self.pool_disabled_reason = (
                f"process pool unavailable ({exc}); running attempts in-process"
            )
            self.obs.tracer.instant(
                "pool-disabled", category="engine",
                reason=self.pool_disabled_reason,
            )
            return None

    # -- batch assembly -------------------------------------------------

    def _cache_key(self, constraints: ConstraintSet, seed: int) -> Tuple:
        return AttemptCache.key_for(
            self._log_token,
            constraints,
            seed,
            self.context.base_policy,
            self.context.match_output,
        )

    def _cached(self, constraints: ConstraintSet, seed: int) -> Optional[AttemptOutcome]:
        if self.cache is None:
            return None
        # Lookups happen during batch assembly, in pop order, so these
        # counters are as schedule-deterministic as the search itself.
        outcome = self.cache.get(self._cache_key(constraints, seed))
        if outcome is not None:
            self.obs.metrics.counter("cache_hits").inc()
            self.obs.tracer.instant(
                "cache-hit", category="cache",
                seed=seed, constraints=len(constraints),
            )
        else:
            self.obs.metrics.counter("cache_misses").inc()
        return outcome

    def _remember(self, outcome: AttemptOutcome) -> None:
        if self.cache is not None:
            # Spans describe *this* run's wall clock and snapshots feed
            # only this session's tree; a future session folding the
            # cached outcome must inherit neither.
            self.cache.put(
                self._cache_key(outcome.constraints, outcome.seed),
                replace(outcome, spans=(), snapshots=(), shared=()),
            )

    def _remine(self, outcome: AttemptOutcome) -> AttemptOutcome:
        """``outcome`` with the candidates it was never mined for.

        An unmined outcome comes from the cache or the store, written by
        a session that already knew its execution; to this session the
        execution is new, so its candidates are owed.  Attempts are
        pure, so replaying it in process recovers exactly the trace the
        mining needs, and the snapshots its children resume from.
        """
        self.obs.metrics.counter("remined").inc()
        with self.obs.tracer.span(
            "remine", category="feedback", seed=outcome.seed
        ):
            fresh = evaluate_attempt(
                self.context, outcome.constraints, outcome.seed
            )
        return replace(
            outcome, candidates=fresh.candidates, mined=True,
            snapshots=fresh.snapshots,
        )

    def _resume_plan(
        self, candidate: Candidate, seed: int
    ) -> Optional[ResumePlan]:
        """A prefix-resume plan for one popped candidate, if one exists.

        Called during batch assembly, in pop order, on live (uncached)
        attempts only — the hit count is therefore a logical property of
        the exploration schedule, identical for every ``jobs`` value.
        The plan carries the parent's snapshot from the engine's tree,
        so the attempt resumes wherever it runs; with no warm rung it
        runs cold.  In process, it also names the family depths of the
        candidate's not-yet-run siblings, for the run to snapshot at.
        """
        if candidate.flip is None:
            return None
        depth = resume_depth(candidate.parent_steps, candidate.safe_prefix)
        if depth <= 0:
            return None
        metrics = self.obs.metrics
        self._prefix_hits += 1
        metrics.counter("parallel.prefix_hits").inc()
        metrics.histogram("parallel.prefix_depth").observe(depth)
        parent = candidate.constraints - {candidate.flip}
        siblings = (
            self._pending_siblings(parent, seed) if self._in_process else ()
        )
        plan = self._prefix_tree.plan(
            candidate.constraints, seed, candidate.flip, depth,
            candidate.parent_steps, candidate.safe_prefix, siblings,
        )
        if plan is not None:
            metrics.counter("parallel.prefix_realized").inc()
        return plan

    def _pending_siblings(
        self, parent: ConstraintSet, seed: int
    ) -> Tuple[int, ...]:
        """The family depths of ``(parent, seed)``'s untried children,
        ascending; a family with none left is forgotten."""
        children = self._families.get((parent, seed), ())
        pending = tuple(sorted({
            depth for constraints, depth in children
            if depth and not self.db.tried(constraints, seed)
        }))
        if not pending:
            self._families.pop((parent, seed), None)
        return pending

    def _lane_for(self, pid: int) -> int:
        """The timeline lane for spans recorded by ``pid``.

        Parent-process spans stay on :data:`~repro.obs.tracer.PARENT_TRACK`;
        worker pids get 1-based lanes in first-appearance-at-fold order.
        """
        if pid == self._parent_pid:
            return PARENT_TRACK
        lane = self._lanes.get(pid)
        if lane is None:
            lane = len(self._lanes) + 1
            self._lanes[pid] = lane
        return lane

    # -- the search ------------------------------------------------------

    def _seed_plan(self, push) -> None:
        """Push the config's plan seeds right behind the root.

        Dynamic seeds go first; a static seed that duplicates a dynamic
        seed is dropped (the dynamic plan dominates), and the frontier
        routes the rest to its interleave lane.  Remembers each seed's
        provenance for the match attribution on success.
        """
        config, metrics = self.config, self.obs.metrics
        seeds = zip(config.plan_seeds, plan_candidates(config.plan_seeds))
        for (provenance, constraints), candidate in sorted(
            seeds, key=lambda pair: pair[1].tier
        ):
            if constraints not in self._seeded:
                self._seeded[constraints] = provenance
                push(candidate, config.base_seed)
        for provenance in SEED_TIERS:
            count = sum(1 for p in self._seeded.values() if p == provenance)
            if count:
                metrics.counter(f"sanitize.{provenance}.seeded").inc(count)

    def _search(self, result: ExplorationResult, supervisor: Supervisor) -> None:
        config = self.config
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        frontier = Frontier()
        push = frontier.push
        rolled = 0  # no-feedback seeds handed out so far
        restarts_used = 0
        if self.use_feedback:
            push(_ROOT, config.base_seed)
            self._seed_plan(push)

        while result.attempt_count < config.max_attempts:
            want = min(self.batch_size, config.max_attempts - result.attempt_count)
            if not self.use_feedback:
                # No feedback: every attempt re-rolls the unrecorded
                # choices with the next seed of the sequence.
                for seed in range(rolled, rolled + want):
                    push(_ROOT, config.base_seed + seed)
                rolled += want
            # Assemble the next batch in canonical best-first order.
            # Every task carries the executions folded so far, so no
            # attempt mines one whose candidates the fold would drop.
            known = (
                self.db.known_fingerprints() if self.use_feedback
                else frozenset()
            )
            batch: List[Tuple[
                ConstraintSet, int, Optional[AttemptOutcome],
                Optional[ResumePlan], AbstractSet[str],
            ]] = []
            while len(batch) < want and frontier:
                constraints, seed, candidate = frontier.pop()
                if self.db.tried(constraints, seed):
                    continue
                self.db.mark_tried(constraints, seed)
                cached = self._cached(constraints, seed)
                resume = (
                    None if cached is not None
                    else self._resume_plan(candidate, seed)
                )
                batch.append((constraints, seed, cached, resume, known))
            if not batch:
                # A restart re-rolls every unrecorded choice: same (empty)
                # constraint set, fresh base seed.
                restarts_used += 1
                if restarts_used > config.seed_restarts:
                    break
                metrics.counter("seed_restarts").inc()
                push(_ROOT, config.base_seed + restarts_used)
                continue

            metrics.counter("batches").inc()
            with tracer.span(
                "batch", category="explore", size=len(batch),
                first_attempt=result.attempt_count,
            ):
                outcomes = supervisor.evaluate_batch(batch, self.use_feedback)
            # Known once the first batch ran; no plan precedes it.
            self._in_process = supervisor.serial
            for (_, _, _, resume, _), outcome in zip(batch, outcomes):
                if self._fold(result, outcome, push, resume):
                    return
            metrics.gauge("frontier_peak").max(len(frontier))

    def _fold(
        self,
        result: ExplorationResult,
        outcome: AttemptOutcome,
        push,
        resume: Optional[ResumePlan],
    ) -> bool:
        """Merge one outcome into the running result; True when done.

        Called only in pop order, which is what makes every counter and
        histogram charged here ``jobs``-invariant for a fixed
        ``batch_size``.
        """
        metrics = self.obs.metrics
        record = AttemptRecord(
            index=result.attempt_count,
            base_seed=outcome.seed,
            n_constraints=len(outcome.constraints),
            outcome=outcome.outcome,
            steps=outcome.steps,
            detail=outcome.detail,
        )
        result.attempts.append(record)
        metrics.counter("attempts").inc()
        metrics.counter(f"attempts_{record.outcome}").inc()
        metrics.histogram("constraint_set_size").observe(record.n_constraints)
        metrics.histogram("attempt_steps").observe(record.steps)
        if record.outcome == "diverged":
            metrics.histogram("divergence_depth").observe(record.steps)
        self._folded_attempts += 1
        self._folded_steps += outcome.steps
        if outcome.spans:
            # All spans of one outcome were recorded by one process.
            self.obs.tracer.absorb(
                outcome.spans, self._lane_for(outcome.spans[0].pid)
            )
        new_execution = False
        if not outcome.matched:
            new_execution = self.db.record_fingerprint(outcome.fingerprint)
            if new_execution and not outcome.mined and self.use_feedback:
                outcome = self._remine(outcome)
        self._remember(outcome)
        if outcome.matched:
            result.success = True
            result.winning_constraints = outcome.constraints
            result.winning_seed = outcome.seed
            # A seeded win is charged to its plan; the root never is.
            provenance = self._seeded.get(outcome.constraints)
            if outcome.constraints and provenance is not None:
                metrics.counter(f"sanitize.{provenance}.matched").inc()
            # Attempts are pure, so re-running the winner in-process
            # reconstructs the full winning trace the batch did not keep.
            with self.obs.tracer.span(
                "rematerialize-winner", category="replay", seed=outcome.seed
            ):
                trace, matched = run_attempt(
                    self.context, outcome.constraints, outcome.seed
                )
            assert matched, "winning attempt must re-match deterministically"
            result.winning_trace = trace
            return True
        tree = self._prefix_tree
        if outcome.shared:
            tree.share(
                outcome.constraints - {resume.flip}, outcome.seed,
                outcome.shared,
            )
        if new_execution:
            metrics.counter("candidates_mined").inc(len(outcome.candidates))
            for candidate in outcome.candidates:
                push(candidate, outcome.seed)
            # Only the children just pushed can ever resume from this
            # attempt: drop the lineage aliases deeper than any of them
            # plans, and keep the rungs the attempt shipped back.
            tree.discard(
                outcome.constraints, outcome.seed,
                max(resume_depths(outcome.candidates), default=0),
            )
            tree.store(outcome.constraints, outcome.seed, outcome.snapshots)
            if self._in_process:
                self._families[(outcome.constraints, outcome.seed)] = tuple(
                    (
                        child.constraints,
                        family_depth(child.parent_steps, child.safe_prefix),
                    )
                    for child in outcome.candidates
                )
        else:
            tree.discard(outcome.constraints, outcome.seed)
        return False
