"""Multiprocessor execution simulator.

This package is the substrate PRES records and replays.  It simulates a
shared-memory multiprocessor at the granularity of individual operations:
application threads are Python generators that *yield*
:class:`~repro.sim.ops.Op` objects (loads, stores, lock acquisitions,
system calls, ...) and a :class:`~repro.sim.machine.Machine` decides, at
every step, which thread's pending operation executes next.

Because every source of non-determinism is funneled through one
:class:`~repro.sim.scheduler.Scheduler` decision per step, an execution is
completely determined by (program, params, scheduler decisions).  That is
exactly the property PRES needs: "record" means remembering a subset of the
decision outcomes, and "replay" means re-running with a scheduler that
enforces them.

The simulator knows nothing about PRES; it only exposes traces, observers
and schedulers.
"""

from repro.sim.events import Event
from repro.sim.failures import Failure, FailureKind
from repro.sim.machine import Machine, MachineConfig
from repro.sim.ops import Op, OpKind
from repro.sim.persist import dump_trace, load_trace, read_trace, save_trace
from repro.sim.program import Program, ThreadContext
from repro.sim.scheduler import (
    FixedOrderScheduler,
    PCTScheduler,
    RandomScheduler,
    Scheduler,
)
from repro.sim.stats import TraceStats, trace_stats
from repro.sim.trace import Trace

__all__ = [
    "Event",
    "Failure",
    "FailureKind",
    "FixedOrderScheduler",
    "Machine",
    "MachineConfig",
    "Op",
    "OpKind",
    "PCTScheduler",
    "Program",
    "RandomScheduler",
    "Scheduler",
    "ThreadContext",
    "Trace",
    "TraceStats",
    "dump_trace",
    "load_trace",
    "read_trace",
    "save_trace",
    "trace_stats",
]
