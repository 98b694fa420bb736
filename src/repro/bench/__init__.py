"""Benchmark harness: the machinery behind ``benchmarks/``.

Each experiment from DESIGN.md's index (T1, E1..E8) is a thin pytest
benchmark over these helpers, so the same sweeps are usable from the CLI
and from notebooks.
"""

from repro.bench.attempts import attempts_matrix, attempts_row
from repro.bench.overhead import overhead_matrix, overhead_row
from repro.bench.prediction import prediction_row
from repro.bench.results import BenchResult
from repro.bench.runner import (
    available_experiments,
    run_experiment,
    run_experiment_result,
)
from repro.bench.scaling import scaling_curves
from repro.bench.seeds import failure_rate, find_failing_seed
from repro.bench.speedup import run_speedup
from repro.bench.tables import format_table

__all__ = [
    "BenchResult",
    "attempts_matrix",
    "attempts_row",
    "available_experiments",
    "failure_rate",
    "find_failing_seed",
    "format_table",
    "overhead_matrix",
    "overhead_row",
    "prediction_row",
    "run_experiment",
    "run_experiment_result",
    "run_speedup",
    "scaling_curves",
]
