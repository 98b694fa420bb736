"""The top-level reproduction driver.

Ties everything together: given a :class:`~repro.core.recorder.RecordedRun`
whose production run failed, run replay attempts (each a fresh machine
under a :class:`~repro.core.pir.PIRScheduler`) until one re-triggers the
recorded failure, then package the winning schedule as a
:class:`~repro.core.full_replay.CompleteLog`.

The usual flow::

    recorded = record(program, sketch=SketchKind.SYNC, seed=failing_seed)
    report = reproduce(recorded)
    assert report.success and report.attempts <= 10
    trace = replay_complete(program, report.complete_log)   # every time

:func:`reproduce` is the engine's only entry for a recording
(``run_request`` makes one from a request).  It walks a list of *rungs*,
each a recorded run plus a share of the attempt budget: one full-history
rung by default, the epoch ladder for an epoch-windowed recording, and
the sketch degradation ladder with ``degrade=True``.  Each rung is one
:class:`~repro.core.parallel.ParallelExplorer` search, and the walk folds
the rungs' results into one :class:`ReproductionReport`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.constraints import ConstraintSet
from repro.core.explorer import AttemptRecord, ExplorationResult, ExplorerConfig
from repro.core.epochs import EpochBoundary, EpochResumeBase, suffix_log
from repro.core.feedback import AttemptCache
from repro.core.full_replay import CompleteLog
from repro.core.parallel import ParallelExplorer, PoolLease, recording_token
from repro.core.plan import Plan
from repro.core.recorder import RecordedRun
from repro.core.sketches import SKETCH_ORDER, SketchKind
from repro.core.sketchlog import derive_coarser
from repro.errors import SimUsageError
from repro.obs.session import NULL_SESSION, ObsSession
from repro.robust.supervise import SuperviseConfig

#: base-seed offset between consecutive rungs of a walk
#: (``base_seed + rung_index * SEED_BACKOFF``): each rung re-rolls the
#: unrecorded choices from its own deterministic seed range.
SEED_BACKOFF = 101


@dataclass
class DegradationRung:
    """One rung of the degradation ladder: a sketch level that was tried."""

    sketch: SketchKind
    attempts: int
    success: bool
    entries: int
    reason: str = ""

    def describe(self) -> str:
        status = "reproduced" if self.success else "failed"
        tail = f" ({self.reason})" if self.reason else ""
        return (
            f"{self.sketch.value}: {status} after {self.attempts} "
            f"attempt(s), {self.entries} entries{tail}"
        )


@dataclass
class EpochRung:
    """One rung of the epoch walk: a replay base that was tried.

    ``epoch`` is the epoch index the base opens; ``step`` its boundary
    step.  The full-history fallback rung reports ``epoch=0, step=0``.
    """

    epoch: int
    step: int
    attempts: int
    success: bool
    entries: int
    reason: str = ""

    @property
    def full_history(self) -> bool:
        return self.step == 0

    def describe(self) -> str:
        status = "reproduced" if self.success else "failed"
        base = (
            "full history" if self.full_history
            else f"epoch {self.epoch} (step {self.step})"
        )
        tail = f" ({self.reason})" if self.reason else ""
        return (
            f"{base}: {status} after {self.attempts} attempt(s), "
            f"{self.entries} suffix entries{tail}"
        )


@dataclass
class ReproductionReport:
    """Outcome of one reproduction session.

    The rung fields are filled by the ladder walks of :func:`reproduce`
    (``degrade=True``, or an epoch-windowed recording), and
    ``salvaged_entries`` by ``pres reproduce --salvage --degrade``; a
    plain session leaves them at their defaults.  They exist so a run
    against a damaged or windowed log ends in a *structured* answer —
    what was salvaged, which rung succeeded, why it stopped — instead of
    an unhandled traceback.
    """

    program_name: str
    sketch: SketchKind
    success: bool
    attempts: int
    records: List[AttemptRecord] = field(default_factory=list)
    complete_log: Optional[CompleteLog] = None
    winning_constraints: ConstraintSet = frozenset()
    total_replay_steps: int = 0
    duplicate_traces: int = 0
    #: attempts this session answered from the attempt cache instead of
    #: a fresh replay.
    cache_hits: int = 0
    #: attempts dispatched with a schedule-prefix resume plan (see
    #: :mod:`repro.core.prefix`).  Jobs-invariant.
    prefix_hits: int = 0
    #: the plans above that resumed from a parent snapshot instead of
    #: running cold.  Jobs-invariant at a fixed ``batch_size``.
    realized_resumes: int = 0
    #: entries available after salvage, when the log came from salvage
    #: (``None`` when the log was pristine).
    salvaged_entries: Optional[int] = None
    #: every rung the degradation ladder tried, in order.
    degradation_path: List[DegradationRung] = field(default_factory=list)
    #: every replay base the epoch walk tried, newest first (empty for
    #: full-history recordings).
    epoch_path: List[EpochRung] = field(default_factory=list)
    #: the sketch level that finally reproduced the bug (success only).
    winning_sketch: Optional[SketchKind] = None
    #: structured explanation of the final outcome.
    outcome_reason: str = ""
    #: True when exploration was cut short by a KeyboardInterrupt; the
    #: report describes *partial* progress, not a verdict.
    interrupted: bool = False

    @property
    def degraded(self) -> bool:
        """Whether success came from a coarser rung than was recorded."""
        return (
            self.winning_sketch is not None and self.winning_sketch is not self.sketch
        )

    def describe(self) -> str:
        """One-line outcome summary for logs and the CLI."""
        if self.interrupted:
            status = f"INTERRUPTED after {self.attempts} attempt(s)"
        elif self.success:
            status = f"reproduced in {self.attempts} attempt(s)"
        else:
            status = f"NOT reproduced within {self.attempts} attempts"
        extras = []
        if self.degraded:
            extras.append(f"degraded to {self.winning_sketch.value}")
        if self.salvaged_entries is not None:
            extras.append(f"salvaged {self.salvaged_entries} entries")
        suffix = f" [{', '.join(extras)}]" if extras else ""
        return (
            f"{self.program_name} [{self.sketch.value} sketch]: {status}, "
            f"{self.total_replay_steps} replay steps, "
            f"{len(self.winning_constraints)} feedback constraints{suffix}"
        )


def render_report(report: ReproductionReport) -> str:
    """The canonical multi-line report text, ending in one newline.

    This is the *byte-exact* contract surface shared by the CLI
    (``pres reproduce``, which prints it, and ``--report-out``, which
    writes it) and the reproduction service (``GET /jobs/{id}/result``
    returns it): the summary line followed by one line per attempt.
    Anything that should be comparable across transports belongs here;
    anything environment-specific (store hit ratios, timings, rungs)
    stays out.
    """
    lines = [report.describe()]
    for attempt in report.records:
        lines.append(
            f"  attempt {attempt.index}: {attempt.outcome} "
            f"(constraints={attempt.n_constraints}, seed={attempt.base_seed})"
        )
    return "\n".join(lines) + "\n"


def report_signature(report: ReproductionReport) -> str:
    """A deterministic digest of everything a report decides.

    Two reports with equal signatures reproduced the same bug the same
    way: same success, same attempt sequence, same winner, same complete
    log.  Cache provenance (``cache_hits``, ``salvaged_entries``) is
    deliberately excluded — a rerun answered from a warm store or a
    chaos-supervised run differs there while still being *the same
    reproduction*.
    """
    payload = {
        "success": report.success,
        "attempts": report.attempts,
        "records": [
            [r.outcome, r.base_seed, r.n_constraints] for r in report.records
        ],
        "winning_constraints": sorted(
            repr(c) for c in (report.winning_constraints or ())
        ),
        "complete_log": (
            report.complete_log.to_json() if report.complete_log else None
        ),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _store_cache(store: object) -> AttemptCache:
    """A write-through persistent cache over ``store`` (a store directory
    path or an open :class:`~repro.store.attempt_store.AttemptStore`).

    Imported lazily: ``repro.store`` builds on this module, so the
    dependency must not run at import time.
    """
    from repro.store.persistent import PersistentAttemptCache

    return PersistentAttemptCache(store)


def _resolve_store(store: object, cache: Optional[AttemptCache]) -> Tuple[
    Optional[AttemptCache], Optional[AttemptCache]
]:
    """Turn a ``store=`` argument into the cache to use.

    Returns ``(cache, close_after)``: ``close_after`` is the persistent
    tier this call created and must close on the way out (``None`` when
    the caller supplied the cache, or no store was requested).
    """
    if store is None:
        return cache, None
    if cache is not None:
        raise SimUsageError(
            "pass either cache= or store=, not both (wrap the store in a "
            "PersistentAttemptCache to share it with an explicit cache)"
        )
    created = _store_cache(store)
    return created, created


def reproduce(
    recorded: RecordedRun,
    config: Optional[ExplorerConfig] = None,
    use_feedback: bool = True,
    base_policy: str = "random",
    match_output: bool = False,
    jobs: int = 1,
    cache: Optional[AttemptCache] = None,
    store: object = None,
    obs: Optional[ObsSession] = None,
    plans: Sequence[Plan] = (),
    supervise: Optional[SuperviseConfig] = None,
    chaos: object = None,
    pool: Optional[PoolLease] = None,
    degrade: bool = False,
) -> ReproductionReport:
    """Reproduce a recorded failure: the engine's only entry point.

    The session walks a list of rungs, each a recorded run searched by
    one :class:`~repro.core.parallel.ParallelExplorer` under a share of
    ``config.max_attempts``:

    * a full-history recording is one rung — a plain session;
    * an epoch-windowed recording (``recorded.epochs`` set) walks its
      replay bases newest first, restoring each boundary snapshot and
      searching only the epoch-local suffix of the sketch; the
      full-history rung runs last, and only when the window truncated
      nothing (see :func:`epoch_replay_ladder`);
    * ``degrade=True`` walks the sketch degradation ladder
      ``recorded.sketch`` → ... → SYNC, each rung's log derived from the
      previous (finer) one (see :func:`degradation_ladder`).

    The budget splits exactly across rungs (remainders to the first,
    finest or newest, rungs), rung ``i`` starts at ``base_seed + i *``
    :data:`SEED_BACKOFF`, and every rung shares one attempt cache, so the
    walk is a pure function of its inputs: the report is byte-identical
    across ``jobs``, store state and chaos.  It stops at the
    first rung that reproduces the failure (or at an interrupt) and
    always returns a structured :class:`ReproductionReport`; neither
    ``SketchFormatError`` nor ``ReplayDivergence`` escapes.

    :param base_policy: how unconstrained choices are made within an
        attempt — ``"random"`` (uniform) or ``"pct"`` (PCT priorities,
        the stronger stress baseline for the E9 ablation).
    :param match_output: ODR-style strictness — the attempt must also
        reproduce the production run's captured output exactly, not just
        its failure.  Typically needs more attempts.
    :param jobs: replay workers.  Results are identical for every
        value; >1 dispatches attempt batches to a process pool.
    :param cache: optional shared :class:`AttemptCache`; memoized attempt
        outcomes are folded in without re-running the replay.  A ladder
        walk creates one for its rungs when none is given.
    :param store: optional cross-run attempt store — a store directory
        path or an open :class:`~repro.store.attempt_store.AttemptStore`.
        Outcomes are written through to it and a warm store answers
        attempts without live replays; the reported schedule and winner
        are identical with the store cold, warm, or partially populated.
        That makes the store the resume path too: a killed session
        rerun against the same store replays only the attempts it had
        not decided.
        An epoch walk first expires entries persisted under boundaries
        the window has since dropped (see
        :meth:`~repro.store.attempt_store.AttemptStore.expire_epochs`).
        Mutually exclusive with ``cache``.
    :param obs: optional :class:`~repro.obs.session.ObsSession` shared by
        every rung, so the exported timeline shows the whole walk; off
        (zero cost) when not given.
    :param plans: predictive :class:`~repro.core.plan.Plan` s whose
        candidates applicable at each rung's sketch seed the search.  A
        ``dynamic`` plan (:func:`repro.sanitize.build_plan`) seeds the
        first attempts after the baseline empty attempt.  A ``static``
        plan (:func:`repro.analysis.static_.analyze_program`, mined from
        program *structure* with no recording) seeds at
        ``TIER_STATIC``, after every dynamic seed (dynamic evidence
        dominates static approximation), and any static seed that
        duplicates a dynamic one is dropped.  With a NONE sketch and no
        dynamic plan, static candidates are all the search has beyond
        blind stress.
    :param supervise: optional
        :class:`~repro.robust.supervise.SuperviseConfig` — attempt
        deadlines, retry/backoff on worker death, pool rebuild limits.
        Supervision never changes the report, only how faults on the way
        to it are absorbed.
    :param chaos: optional fault injection (a ``--chaos`` spec string, a
        :class:`~repro.robust.inject.ChaosSpec`, or a
        :class:`~repro.robust.inject.ChaosInjector`); deterministic given
        the spec seed, and report-preserving by the same argument.
    :param pool: optional shared :class:`~repro.core.parallel.PoolLease`
        — borrow a host-owned warm worker pool instead of building a
        private one (the reproduction service lends one pool to every
        concurrent job).  Identical results either way.
    :param degrade: walk the sketch degradation ladder instead of the
        recorded sketch alone.
    :raises SimUsageError: for a recording that did not fail, and for
        walks that do not compose with an epoch-windowed recording (see
        :func:`refuse_uncomposable`).
    """
    windowed = recorded.epochs is not None
    refuse_uncomposable(windowed, bool(degrade or plans))
    if recorded.failure is None:
        raise SimUsageError(
            "the recorded run did not fail; there is nothing to reproduce"
        )
    session = obs or NULL_SESSION
    cache, close_after = _resolve_store(store, cache)
    try:
        rungs = _rungs(recorded, degrade)
        if windowed:
            _expire_dropped_epochs(cache, recorded, rungs, session)
        if cache is None and (degrade or windowed):
            cache = AttemptCache()
        engine = functools.partial(
            ParallelExplorer, base_policy=base_policy,
            match_output=match_output, use_feedback=use_feedback,
            cache=cache, obs=session, supervise=supervise, chaos=chaos,
            pool=pool, jobs=jobs,
        )
        return _walk(
            recorded, rungs, config or ExplorerConfig(), session, degrade,
            plans, engine,
        )
    finally:
        if close_after is not None:
            close_after.close()


def refuse_uncomposable(windowed: bool, full_history: bool) -> None:
    """Refuse a walk over full-history logs (degrade, plans, salvage) of
    an epoch-windowed recording: the one home of this rule, shared by
    :func:`reproduce` and :class:`~repro.core.request.ReproduceRequest`."""
    if windowed and full_history:
        raise SimUsageError(
            "--epoch-steps does not compose with --degrade/--salvage/--plan/"
            "--static (they walk full-history logs; the epoch walk replays "
            "windowed suffixes)"
        )


@dataclass
class _Rung:
    """One recorded run a :func:`reproduce` walk explores."""

    recorded: RecordedRun
    #: ladder span name; empty for the lone rung of a plain session.
    span: str = ""
    #: the outcome reason when this rung reproduces the failure.
    won: str = ""
    #: the epoch boundary replayed from (epoch walks; ``None`` = full
    #: history).
    boundary: Optional[EpochBoundary] = None

    @property
    def epoch_base(self) -> Optional[EpochResumeBase]:
        boundary = self.boundary
        if boundary is None:
            return None
        return EpochResumeBase(
            state=boundary.snapshot, step=boundary.step, epoch=boundary.epoch
        )


def _rungs(recorded: RecordedRun, degrade: bool) -> List[_Rung]:
    """The rungs a walk over ``recorded`` tries, in order."""
    timeline = recorded.epochs
    if degrade:
        # Mechanisms are cumulative, so deriving each rung from the
        # previous (finer) one equals projecting from the original log
        # but touches ever-shrinking entry lists.
        rungs, log = [], recorded.log
        for sketch in degradation_ladder(recorded.sketch):
            log = derive_coarser(log, sketch)
            rungs.append(_Rung(
                dataclasses.replace(recorded, sketch=sketch, log=log),
                span=f"rung {sketch.value}",
                won=f"reproduced at the {sketch.value} rung" + (
                    "" if sketch is recorded.sketch
                    else f" (degraded from {recorded.sketch.value})"
                ),
            ))
        return rungs
    if timeline is None:
        return [_Rung(recorded)]
    rungs = []
    for boundary in epoch_replay_ladder(recorded):
        if boundary is None:
            rungs.append(_Rung(
                recorded, span="epoch rung full-history",
                won="reproduced from the full history",
            ))
            continue
        log = suffix_log(
            recorded.log, timeline, boundary,
            program_name=recorded.program.name, seed=recorded.seed,
        )
        rungs.append(_Rung(
            dataclasses.replace(recorded, log=log),
            span=f"epoch rung epoch {boundary.epoch}",
            won=f"reproduced from the epoch {boundary.epoch} boundary "
                f"(step {boundary.step})",
            boundary=boundary,
        ))
    return rungs


def _walk(
    recorded: RecordedRun,
    rungs: List[_Rung],
    config: ExplorerConfig,
    session: ObsSession,
    degrade: bool,
    plans: Sequence[Plan],
    engine: Callable[..., ParallelExplorer],
) -> ReproductionReport:
    """Explore ``rungs`` in order under one budget; one aggregate report.

    ``engine(recorded, config, epoch_base=...)`` builds the
    :class:`~repro.core.parallel.ParallelExplorer` for one rung with the
    session-wide settings; its config carries the seeds of ``plans``
    applicable at the rung's sketch.
    """
    metrics = session.metrics
    timeline = recorded.epochs
    budgets = split_rung_budgets(config.max_attempts, len(rungs))
    if timeline is not None:
        metrics.counter("epoch.replay_bases").inc(len(rungs))
    results: List[ExplorationResult] = []
    degradation_path: List[DegradationRung] = []
    epoch_path: List[EpochRung] = []
    rung = rungs[0]
    for index, rung in enumerate(rungs):
        budget = budgets[index]
        if budget <= 0:
            continue
        entries = len(rung.recorded.log)
        sketch = rung.recorded.sketch
        if degrade:
            metrics.counter("ladder_rungs").inc()
            metrics.histogram("rung_budget").observe(budget)
        elif timeline is not None:
            metrics.counter("epoch.rungs").inc()
        rung_config = dataclasses.replace(
            config,
            max_attempts=budget,
            base_seed=config.base_seed + index * SEED_BACKOFF,
        )
        applicable = [(plan, plan.seeds_for(sketch)) for plan in plans]
        if applicable:
            rung_config = dataclasses.replace(rung_config, plan_seeds=tuple(
                (plan.provenance, seed)
                for plan, seeds in applicable for seed in seeds
            ))
        for plan, seeds in applicable:
            family = f"sanitize.{plan.provenance}"
            metrics.counter(f"{family}.races").inc(len(plan.races))
            metrics.counter(f"{family}.atomicity").inc(len(plan.violations))
            metrics.counter(f"{family}.deadlocks").inc(len(plan.deadlocks))
            metrics.counter(f"{family}.candidates").inc(len(plan.candidates))
            metrics.counter(f"{family}.applicable").inc(len(seeds))
        explorer = engine(
            rung.recorded, rung_config, epoch_base=rung.epoch_base
        )
        with (
            session.tracer.span(
                rung.span, category="ladder", budget=budget, entries=entries
            ) if rung.span else contextlib.nullcontext()
        ), session.tracer.span(
            "reproduce", category="session",
            program=recorded.program.name, sketch=sketch.value,
        ):
            result = explorer.explore()
        results.append(result)
        metrics.counter("reproductions").inc()
        if result.success:
            metrics.counter("reproductions_succeeded").inc()
            metrics.histogram("attempts_to_match").observe(
                result.attempt_count
            )
        why = "" if result.success else _rung_failure_reason(result.attempts)
        if degrade:
            degradation_path.append(DegradationRung(
                sketch, result.attempt_count, result.success, entries, why
            ))
        elif timeline is not None:
            boundary = rung.boundary
            epoch_path.append(EpochRung(
                0 if boundary is None else boundary.epoch,
                0 if boundary is None else boundary.step,
                result.attempt_count, result.success, entries, why,
            ))
        if result.success or result.interrupted:
            break

    last = results[-1] if results else ExplorationResult(success=False)
    records = [record for result in results for record in result.attempts]
    reason = ""
    if last.interrupted:
        reason = (
            f"interrupted after {len(records)} attempt(s); "
            "partial results only"
        )
    elif last.success:
        reason = rung.won
        if timeline is not None:
            metrics.counter("epoch.reproduced").inc()
    elif degrade:
        reason = (
            "exhausted the degradation ladder "
            f"({' -> '.join(r.sketch.value for r in degradation_path)}) "
            f"within {len(records)} total attempt(s)"
        )
    elif timeline is not None:
        reason = (
            f"exhausted the epoch ladder within {len(records)} total "
            "attempt(s)"
        )
        if timeline.truncated_epochs > 0 or timeline.truncated_entries > 0:
            reason += (
                "; the epoch window was too tight to reach full history "
                f"({timeline.truncated_epochs} truncated epoch(s) are "
                "unreachable)"
            )
    complete_log = None
    if last.success:
        complete_log = CompleteLog(
            program_name=recorded.program.name,
            schedule=list(last.winning_trace.schedule),
            config=recorded.config,
            failure_signature=recorded.failure.signature(),
        )
    return ReproductionReport(
        program_name=recorded.program.name,
        sketch=recorded.sketch,
        success=last.success,
        attempts=len(records),
        records=records,
        complete_log=complete_log,
        winning_constraints=last.winning_constraints,
        total_replay_steps=sum(result.total_steps for result in results),
        duplicate_traces=sum(result.duplicate_traces for result in results),
        cache_hits=sum(result.cache_hits for result in results),
        prefix_hits=sum(result.prefix_hits for result in results),
        realized_resumes=sum(result.realized_resumes for result in results),
        degradation_path=degradation_path,
        epoch_path=epoch_path,
        winning_sketch=rung.recorded.sketch if last.success else None,
        outcome_reason=reason,
        interrupted=last.interrupted,
    )


def epoch_replay_ladder(recorded: RecordedRun) -> List[Optional[EpochBoundary]]:
    """The replay bases an epoch walk tries, newest boundary first.

    ``None`` marks the full-history rung (replay from step 0 with the
    whole retained log).  It is only reachable when nothing was
    truncated: with entries dropped off the front, the oldest retained
    boundary *is* the horizon — the window was too tight for anything
    older, and the walk must say so instead of replaying a log that no
    longer matches step 0.
    """
    timeline = recorded.epochs
    if timeline is None:
        return [None]
    ladder: List[Optional[EpochBoundary]] = list(timeline.replay_bases())
    if timeline.truncated_entries == 0 and timeline.truncated_epochs == 0:
        ladder.append(None)
    return ladder or [None]


def _expire_dropped_epochs(
    cache: Optional[AttemptCache],
    recorded: RecordedRun,
    rungs: List[_Rung],
    session: ObsSession,
) -> None:
    """Expire store entries persisted under no-longer-live epoch bases.

    Only fires when the cache is store-backed: the live set is the
    recording tokens (see :func:`~repro.core.parallel.recording_token`)
    of this timeline's replay-base rungs plus the retained full log;
    registered epoch entries outside it belong to boundaries the rolling
    window has dropped and can never be looked up again.
    """
    store = getattr(cache, "store", None)
    if store is None or not hasattr(store, "expire_epochs"):
        return
    tags = {}
    live = set()
    for rung in rungs:
        fingerprint = recording_token(rung.recorded)[2]
        live.add(fingerprint)
        if rung.recorded.log.base_tag:
            tags[fingerprint] = {
                "program": recorded.program.name,
                "seed": recorded.seed,
                "base": rung.recorded.log.base_tag,
            }
    store.register_epoch_fingerprints(tags)
    report = store.expire_epochs(live)
    if report.expired:
        session.metrics.counter("store.epochs_expired").inc(len(report.expired))


# -- graceful degradation ----------------------------------------------------


def degradation_ladder(start: SketchKind) -> List[SketchKind]:
    """The rungs tried, finest first: start, then coarser down to SYNC.

    A damaged or salvaged-partial sketch may be un-followable at its
    recorded fidelity (attempts keep diverging on the torn tail), but
    because mechanisms are cumulative, a coarser projection of the same
    prefix constrains *less* and therefore diverges less — at the price
    of more attempts, which is PRES's home turf anyway.
    """
    rungs = [s for s in reversed(SKETCH_ORDER) if SketchKind.NONE.level < s.level <= start.level]
    return rungs or [SketchKind.SYNC]


def split_rung_budgets(total: int, rungs: int) -> List[int]:
    """Split an attempt budget across ladder rungs without losing any.

    ``total // rungs`` alone silently drops the remainder (budget 7 over
    5 rungs used to run only 5 attempts); the remainder goes to the
    *finest* rungs — they follow the most recorded detail, so extra
    attempts there are likeliest to pay off.  Rungs can receive 0 when
    the budget is smaller than the ladder; callers skip those entirely.
    """
    if rungs <= 0:
        return []
    base, remainder = divmod(max(0, total), rungs)
    return [base + (1 if index < remainder else 0) for index in range(rungs)]


def _rung_failure_reason(records: List[AttemptRecord]) -> str:
    """Summarize why one rung failed, from its attempt outcomes."""
    outcomes: dict = {}
    for record in records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
    summary = ", ".join(f"{count}x {name}" for name, count in sorted(outcomes.items()))
    return summary or "no attempts ran"
