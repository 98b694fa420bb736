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

:func:`reproduce` is the one entry point.  It walks a list of *rungs*,
each a recorded run plus a share of the attempt budget: one full-history
rung by default, the epoch ladder when the recording is epoch-windowed,
and the sketch degradation ladder with ``degrade=True``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
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
from repro.obs.session import ObsSession, resolve_session
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

    The salvage and rung fields are filled by the ladder walks of
    :func:`reproduce` (``degrade=True``, or an epoch-windowed recording);
    a plain session leaves them at their defaults.  They exist so a run
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
    #: attempts answered from the attempt cache instead of a fresh replay.
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
    #: journal lines discarded by salvage.
    dropped_records: int = 0
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


class Reproducer:
    """Explores one recorded run (one rung of a :func:`reproduce` walk).

    Narrows each plan to the candidates applicable at the recording's
    sketch, runs the exploration engine
    (:class:`~repro.core.parallel.ParallelExplorer`) and packages its
    result as a :class:`ReproductionReport`.
    """

    def __init__(
        self,
        recorded: RecordedRun,
        config: Optional[ExplorerConfig] = None,
        use_feedback: bool = True,
        base_policy: str = "random",
        match_output: bool = False,
        cache: Optional[AttemptCache] = None,
        obs: Optional[ObsSession] = None,
        plans: Sequence[Plan] = (),
        supervise: Optional["SuperviseConfig"] = None,
        chaos: object = None,
        pool: Optional[PoolLease] = None,
        epoch_base: Optional[EpochResumeBase] = None,
    ) -> None:
        if recorded.failure is None:
            raise SimUsageError(
                "the recorded run did not fail; there is nothing to reproduce"
            )
        self.recorded = recorded
        self.config = config or ExplorerConfig()
        #: each plan with its seeds applicable at this recording's sketch.
        self.plans = [(plan, plan.seeds_for(recorded.sketch)) for plan in plans]
        if self.plans:
            self.config = dataclasses.replace(self.config, plan_seeds=tuple(
                (plan.provenance, seed)
                for plan, seeds in self.plans for seed in seeds
            ))
        self.obs = resolve_session(self.config, obs)
        #: ``match_output`` is ODR-style strictness: besides re-triggering
        #: the failure, an attempt must reproduce the production run's
        #: observable output.
        self.explorer = ParallelExplorer(
            recorded,
            self.config,
            base_policy=base_policy,
            match_output=match_output,
            use_feedback=use_feedback,
            cache=cache,
            obs=self.obs,
            supervise=supervise,
            chaos=chaos,
            pool=pool,
            epoch_base=epoch_base,
        )

    def run(self) -> ReproductionReport:
        """Run the exploration loop and package the outcome."""
        metrics = self.obs.metrics
        for plan, seeds in self.plans:
            family = f"sanitize.{plan.provenance}"
            metrics.counter(f"{family}.races").inc(len(plan.races))
            metrics.counter(f"{family}.atomicity").inc(len(plan.violations))
            metrics.counter(f"{family}.deadlocks").inc(len(plan.deadlocks))
            metrics.counter(f"{family}.candidates").inc(len(plan.candidates))
            metrics.counter(f"{family}.applicable").inc(len(seeds))
        with self.obs.tracer.span(
            "reproduce", category="session",
            program=self.recorded.program.name,
            sketch=self.recorded.sketch.value,
        ):
            result = self.explorer.explore()
        report = self._package(result)
        metrics.counter("reproductions").inc()
        if report.success:
            metrics.counter("reproductions_succeeded").inc()
            metrics.histogram("attempts_to_match").observe(report.attempts)
        return report

    def _package(self, result: ExplorationResult) -> ReproductionReport:
        complete_log = None
        if result.success and result.winning_trace is not None:
            complete_log = CompleteLog(
                program_name=self.recorded.program.name,
                schedule=list(result.winning_trace.schedule),
                config=self.recorded.config,
                failure_signature=self.recorded.failure.signature(),
            )
        return ReproductionReport(
            program_name=self.recorded.program.name,
            sketch=self.recorded.sketch,
            success=result.success,
            attempts=result.attempt_count,
            records=result.attempts,
            complete_log=complete_log,
            winning_constraints=result.winning_constraints,
            total_replay_steps=result.total_steps,
            duplicate_traces=result.duplicate_traces,
            cache_hits=result.cache_hits,
            prefix_hits=result.prefix_hits,
            realized_resumes=result.realized_resumes,
            interrupted=result.interrupted,
        )


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
    jobs: Optional[int] = None,
    cache: Optional[AttemptCache] = None,
    store: object = None,
    obs: Optional[ObsSession] = None,
    plans: Sequence[Plan] = (),
    supervise: Optional[SuperviseConfig] = None,
    chaos: object = None,
    run: object = None,
    pool: Optional[PoolLease] = None,
    degrade: bool = False,
    salvaged_entries: Optional[int] = None,
    dropped_records: int = 0,
) -> ReproductionReport:
    """Reproduce a recorded failure: the one reproduction entry point.

    The session walks a list of rungs, each a recorded run explored by
    :class:`Reproducer` under a share of ``config.max_attempts``:

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
    across ``jobs``, store state, chaos and resume.  It stops at the
    first rung that reproduces the failure (or at an interrupt) and
    always returns a structured :class:`ReproductionReport`; neither
    ``SketchFormatError`` nor ``ReplayDivergence`` escapes.

    :param base_policy: how unconstrained choices are made within an
        attempt — ``"random"`` (uniform) or ``"pct"`` (PCT priorities,
        the stronger stress baseline for the E9 ablation).
    :param match_output: ODR-style strictness — the attempt must also
        reproduce the production run's captured output exactly, not just
        its failure.  Typically needs more attempts.
    :param jobs: replay workers (overrides ``config.jobs``).  Results are
        identical for every value; >1 dispatches attempt batches to a
        process pool (:class:`~repro.core.parallel.ParallelExplorer`).
    :param cache: optional shared :class:`AttemptCache`; memoized attempt
        outcomes are folded in without re-running the replay.  A ladder
        walk creates one for its rungs when none is given.
    :param store: optional cross-run attempt store — a store directory
        path or an open :class:`~repro.store.attempt_store.AttemptStore`.
        Outcomes are written through to it and a warm store answers
        attempts without live replays; the reported schedule and winner
        are identical with the store cold, warm, or partially populated.
        An epoch walk first expires entries persisted under boundaries
        the window has since dropped (see
        :meth:`~repro.store.attempt_store.AttemptStore.expire_epochs`).
        Mutually exclusive with ``cache``.
    :param obs: optional :class:`~repro.obs.session.ObsSession` shared by
        every rung, so the exported timeline shows the whole walk;
        defaults to the ``config.trace`` / ``config.metrics`` knobs (off
        = zero cost).
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
    :param run: optional resumable-run journal
        (:class:`~repro.robust.runs.RunJournalCache`): decided attempts
        are journaled as they fold, an interrupted run can be resumed,
        and the journal is committed when the report completes.  Layers
        *over* ``cache``/``store`` (they become its inner tier).  Plain
        sessions only.
    :param pool: optional shared :class:`~repro.core.parallel.PoolLease`
        — borrow a host-owned warm worker pool instead of building a
        private one (the reproduction service lends one pool to every
        concurrent job).  Identical results either way.
    :param degrade: walk the sketch degradation ladder instead of the
        recorded sketch alone.
    :param salvaged_entries: entry count recovered by salvage, recorded
        on the report for the bug ticket (``None`` = log was pristine).
    :param dropped_records: journal lines salvage had to discard.
    :raises SimUsageError: for walks that do not compose — ``degrade``
        with an epoch-windowed recording, a ``run`` journal with either
        ladder, or ``plans``/salvage accounting with an epoch-windowed
        recording (those describe full-history logs).
    """
    windowed = recorded.epochs is not None
    if degrade and windowed:
        raise SimUsageError(
            "degrade does not compose with an epoch-windowed recording "
            "(both are rung walks over their own exploration)"
        )
    if run is not None and (degrade or windowed):
        raise SimUsageError(
            "a run journal does not compose with a ladder walk (each "
            "rung is its own exploration)"
        )
    if windowed and (plans or salvaged_entries is not None
                     or dropped_records):
        raise SimUsageError(
            "plans and salvage describe full-history logs; an "
            "epoch-windowed recording replays windowed suffixes"
        )
    config = config or ExplorerConfig()
    if jobs is not None:
        config = dataclasses.replace(config, jobs=jobs)
    session = resolve_session(config, obs)
    cache, close_after = _resolve_store(store, cache)
    if run is not None:
        if cache is not None:
            run.attach_inner(cache)
        cache = run
    try:
        rungs = _rungs(recorded, degrade)
        if windowed:
            _expire_dropped_epochs(cache, recorded, rungs, session)
        if cache is None and (degrade or windowed):
            cache = AttemptCache()
        explorer = functools.partial(
            Reproducer, use_feedback=use_feedback, base_policy=base_policy,
            match_output=match_output, cache=cache, obs=session, plans=plans,
            supervise=supervise, chaos=chaos, pool=pool,
        )
        report = _walk(recorded, rungs, config, session, cache, degrade, explorer)
        report.salvaged_entries = salvaged_entries
        report.dropped_records = dropped_records
        if run is not None and not report.interrupted:
            run.commit(report)
        return report
    finally:
        if run is not None:
            run.close()
        if close_after is not None:
            close_after.close()


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
    cache: Optional[AttemptCache],
    degrade: bool,
    explorer: Callable[..., Reproducer],
) -> ReproductionReport:
    """Explore ``rungs`` in order under one budget; one aggregate report.

    ``explorer(recorded, config=..., epoch_base=...)`` builds the
    :class:`Reproducer` for one rung with the session-wide settings.
    """
    metrics = session.metrics
    timeline = recorded.epochs
    budgets = split_rung_budgets(config.max_attempts, len(rungs))
    if timeline is not None:
        metrics.counter("epoch.replay_bases").inc(len(rungs))
    records: List[AttemptRecord] = []
    degradation_path: List[DegradationRung] = []
    epoch_path: List[EpochRung] = []
    steps = duplicates = prefix_hits = realized = 0
    last: Optional[ReproductionReport] = None
    rung = rungs[0]
    for index, rung in enumerate(rungs):
        budget = budgets[index]
        if budget <= 0:
            continue
        entries = len(rung.recorded.log)
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
        with (
            session.tracer.span(
                rung.span, category="ladder", budget=budget, entries=entries
            ) if rung.span else contextlib.nullcontext()
        ):
            last = explorer(
                rung.recorded, config=rung_config, epoch_base=rung.epoch_base
            ).run()
        records.extend(last.records)
        steps += last.total_replay_steps
        duplicates += last.duplicate_traces
        prefix_hits += last.prefix_hits
        realized += last.realized_resumes
        why = "" if last.success else _rung_failure_reason(last)
        if degrade:
            degradation_path.append(DegradationRung(
                rung.recorded.sketch, last.attempts, last.success, entries, why
            ))
        elif timeline is not None:
            boundary = rung.boundary
            epoch_path.append(EpochRung(
                0 if boundary is None else boundary.epoch,
                0 if boundary is None else boundary.step,
                last.attempts, last.success, entries, why,
            ))
        if last.success or last.interrupted:
            break

    success = last is not None and last.success
    interrupted = last is not None and last.interrupted
    reason = ""
    if interrupted:
        reason = (
            f"interrupted after {len(records)} attempt(s); "
            "partial results only"
        )
    elif success:
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
    return ReproductionReport(
        program_name=recorded.program.name,
        sketch=recorded.sketch,
        success=success,
        attempts=len(records),
        records=records,
        complete_log=last.complete_log if success else None,
        winning_constraints=last.winning_constraints if success else frozenset(),
        total_replay_steps=steps,
        duplicate_traces=duplicates,
        cache_hits=cache.hits if cache is not None else 0,
        prefix_hits=prefix_hits,
        realized_resumes=realized,
        degradation_path=degradation_path,
        epoch_path=epoch_path,
        winning_sketch=rung.recorded.sketch if success else None,
        outcome_reason=reason,
        interrupted=interrupted,
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


def _rung_failure_reason(report: ReproductionReport) -> str:
    """Summarize why one rung failed, from its attempt outcomes."""
    outcomes: dict = {}
    for record in report.records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
    summary = ", ".join(f"{count}x {name}" for name, count in sorted(outcomes.items()))
    return summary or "no attempts ran"
