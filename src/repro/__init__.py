"""repro — a reproduction of PRES (SOSP 2009).

PRES (probabilistic replay via execution sketching) reproduces concurrency
bugs on multiprocessors by recording only a cheap *sketch* of the
production run and searching the unrecorded schedule space at diagnosis
time, learning from every failed attempt.

Quickstart::

    from repro import SketchKind, record, reproduce, replay_complete

    recorded = record(my_program, sketch=SketchKind.SYNC, seed=failing_seed)
    assert recorded.failed
    report = reproduce(recorded)
    if report.success:
        trace = replay_complete(my_program, report.complete_log)  # every time

Programs are written against the simulator API (:mod:`repro.sim`); the
application suite from the paper's evaluation lives in :mod:`repro.apps`.
"""

from repro.core.cost import DEFAULT_COST_MODEL, CostModel
from repro.core.diagnose import Diagnosis, diagnose
from repro.core.explorer import ExplorerConfig
from repro.core.feedback import AttemptCache
from repro.core.full_replay import CompleteLog, replay_complete
from repro.core.parallel import ParallelExplorer
from repro.core.recorder import RecordedRun, record, record_with_trace
from repro.core.reproducer import ReproductionReport, reproduce
from repro.core.sketches import SKETCH_ORDER, SketchKind, parse_sketch_kind
from repro.core.systematic import SystematicResult, systematic_search
from repro.obs import MetricsRegistry, ObsSession, Tracer
from repro.sim import (
    Machine,
    MachineConfig,
    Program,
    RandomScheduler,
    ThreadContext,
    Trace,
)
from repro.sim.failures import Failure, FailureKind

__version__ = "0.1.0"

__all__ = [
    "AttemptCache",
    "CompleteLog",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Diagnosis",
    "ExplorerConfig",
    "Failure",
    "FailureKind",
    "Machine",
    "MachineConfig",
    "MetricsRegistry",
    "ObsSession",
    "ParallelExplorer",
    "Program",
    "RandomScheduler",
    "RecordedRun",
    "ReproductionReport",
    "SKETCH_ORDER",
    "SketchKind",
    "SystematicResult",
    "ThreadContext",
    "Trace",
    "Tracer",
    "diagnose",
    "parse_sketch_kind",
    "record",
    "record_with_trace",
    "replay_complete",
    "reproduce",
    "systematic_search",
]
