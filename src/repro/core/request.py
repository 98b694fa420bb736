"""One reproduction request: the seed-record-plan-reproduce pipeline.

:class:`ReproduceRequest` holds every value that shapes a report and
nothing else, checked by one :meth:`~ReproduceRequest.validate`, and
:func:`run_request` finds the failing production run, records it,
builds the plans and reproduces it.  The CLI, the service's jobs and the
``bench/`` harnesses all build a request.  Host resources (``jobs``, a
store or cache, a pool, an obs session, supervision, chaos) are
arguments, never fields: none of them changes a report.
:func:`~repro.core.reproducer.reproduce` stays the entry for callers
that reuse a recording they already hold.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.apps import get_bug
from repro.core.epochs import EpochConfig
from repro.core.explorer import ExplorerConfig
from repro.core.plan import DYNAMIC, STATIC, Plan
from repro.core.recorder import RecordedRun, record
from repro.core.reproducer import (
    ReproductionReport,
    refuse_uncomposable,
    reproduce,
)
from repro.core.sketches import SketchKind
from repro.errors import NoFailingRunError, SimUsageError
from repro.obs.session import NULL_SESSION
from repro.sim import MachineConfig


@dataclass(frozen=True)
class ReproduceRequest:
    """What to reproduce and how to search; validated at construction.

    ``seed=None`` searches for the first failing production run.  Each
    ``plans`` entry is ``"dynamic"`` (sanitize an RW recording of the same
    run), ``"static"`` (analyze the program, filtered by the recorded
    failure) or a saved static :class:`~repro.core.plan.Plan`.
    """

    bug: str
    #: keyword arguments for the bug's ``make_program``.
    params: Mapping[str, int] = field(default_factory=dict)
    sketch: SketchKind = SketchKind.SYNC
    seed: Optional[int] = None
    ncpus: int = 4
    epoch_steps: int = 0
    epoch_window: int = 0
    max_attempts: int = 400
    batch_size: int = 0
    feedback: bool = True
    degrade: bool = False
    plans: Tuple[Union[str, Plan], ...] = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`~repro.errors.SimUsageError`, naming the
        ``pres reproduce`` flags, for values that do not compose."""
        for flag, name, value in (
            ("--max-attempts", "max_attempts", self.max_attempts),
            ("--ncpus", "ncpus", self.ncpus),
        ):
            if value < 1:
                raise SimUsageError(
                    f"{flag} must be at least 1 (got {name}={value})"
                )
        if self.epoch_window and not self.epoch_steps:
            raise SimUsageError(
                "--epoch-window needs --epoch-steps (a window of epochs only "
                "exists once boundaries are being cut)"
            )
        refuse_uncomposable(
            self.epochs is not None, self.degrade or bool(self.plans)
        )
        for plan in self.plans:
            if isinstance(plan, Plan) and plan.provenance != STATIC:
                raise SimUsageError(
                    f"the --static-plan file holds a {plan.provenance} "
                    "plan; it takes `pres analyze BUG --static --out` output"
                )

    def resolved(self) -> "ReproduceRequest":
        """This request with a seed: the first failing production run's
        when ``seed`` is ``None``, else :class:`NoFailingRunError`."""
        if self.seed is not None:
            return self
        # Imported here: repro.bench builds on this module.
        from repro.bench.seeds import find_failing_seed

        seed = find_failing_seed(
            get_bug(self.bug), ncpus=self.ncpus, **self.params
        )
        if seed is None:
            raise NoFailingRunError(
                "no failing seed found within the search budget"
            )
        return dataclasses.replace(self, seed=seed)

    @property
    def epochs(self) -> Optional[EpochConfig]:
        """The epoch recording policy, or ``None`` for full history."""
        if not self.epoch_steps:
            return None
        return EpochConfig(
            steps=self.epoch_steps, window=self.epoch_window
        ).validate()


class RequestResult(NamedTuple):
    """What :func:`run_request` recorded, planned and reported."""

    recorded: RecordedRun
    plans: List[Plan]
    report: ReproductionReport


def record_request(
    request: ReproduceRequest, *, obs=None,
    record: Callable[..., RecordedRun] = record,
) -> RecordedRun:
    """Record the request's production run, resolving its seed first;
    ``record`` is the recorder (the CLI passes one that journals)."""
    request = request.resolved()
    spec = get_bug(request.bug)
    return record(
        spec.make_program(**request.params), sketch=request.sketch,
        seed=request.seed, config=MachineConfig(ncpus=request.ncpus),
        oracle=spec.oracle, epochs=request.epochs, obs=obs or NULL_SESSION,
    )


def require_failure(recorded: RecordedRun) -> RecordedRun:
    """``recorded``, or :class:`NoFailingRunError` if it did not fail."""
    if not recorded.failed:
        raise NoFailingRunError(
            f"seed {recorded.seed} did not fail; nothing to reproduce"
        )
    return recorded


def _plan(request, recorded: RecordedRun, entry, record) -> Plan:
    if entry == DYNAMIC:
        from repro.sanitize import build_plan

        # The sanitizer reads rich, the replayer follows the cheap sketch.
        return build_plan(record_request(dataclasses.replace(
            request, sketch=SketchKind.RW, seed=recorded.seed
        ), record=record).log)
    if entry == STATIC:
        from repro.analysis.static_ import analyze_program

        # The failure message narrows the candidates to its def-use slice.
        return analyze_program(
            get_bug(request.bug).make_program(**request.params),
            failure=recorded.failure.describe(),
        )
    return entry


def run_request(
    request: ReproduceRequest,
    *,
    recorded: Optional[RecordedRun] = None,
    jobs: int = 1,
    store: object = None,
    cache=None,
    pool=None,
    obs=None,
    supervise=None,
    chaos: object = None,
    salvaged_entries: Optional[int] = None,
    dropped_records: int = 0,
    record: Callable[..., RecordedRun] = record,
    reproduce: Callable[..., ReproductionReport] = reproduce,
) -> RequestResult:
    """Run ``request``'s pipeline: seed, record, plan, reproduce.

    ``recorded`` is a recording of the request the caller already made
    (``pres reproduce`` journals and salvages its own).  The other
    arguments go to :func:`~repro.core.reproducer.reproduce` unchanged;
    ``record`` and ``reproduce`` are the two stages, so a host can wrap
    them.  Raises :class:`NoFailingRunError` when no run fails.
    """
    if recorded is None:
        recorded = record_request(request, obs=obs, record=record)
    require_failure(recorded)
    plans = [_plan(request, recorded, entry, record)
             for entry in request.plans]
    report = reproduce(
        recorded,
        ExplorerConfig(max_attempts=request.max_attempts,
                       batch_size=request.batch_size),
        use_feedback=request.feedback, jobs=jobs, cache=cache, store=store,
        obs=obs, plans=plans, supervise=supervise, chaos=chaos, pool=pool,
        degrade=request.degrade, salvaged_entries=salvaged_entries,
        dropped_records=dropped_records,
    )
    return RequestResult(recorded, plans, report)
