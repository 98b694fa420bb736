"""PRES: probabilistic replay via execution sketching.

The paper's contribution, in four movements:

* :mod:`repro.core.sketches` / :mod:`repro.core.recorder` — production-run
  recording of *partial* execution information (five mechanisms: SYNC, SYS,
  FUNC, BB, RW, plus the degenerate NONE), with a virtual-time cost model
  (:mod:`repro.core.cost`) measuring what recording would have cost.
* :mod:`repro.core.pir` — the Partial-Information Replayer: a scheduler
  that enforces the recorded sketch order plus any accumulated ordering
  constraints, and detects divergence early.
* :mod:`repro.core.feedback` / :mod:`repro.core.explorer` /
  :mod:`repro.core.parallel` — feedback generation and the exploration
  engine: failed attempts are mined for happens-before races, races
  become flip constraints, duplicates are pruned, and the next attempt is
  steered.
* :mod:`repro.core.reproducer` / :mod:`repro.core.full_replay` — the
  driver loop, and the reproduce-every-time guarantee: a successful
  attempt's complete schedule replays deterministically forever after.
  :mod:`repro.core.request` runs the whole pipeline from one request.
"""

from repro.core.cost import CostModel
from repro.core.diagnose import Diagnosis, diagnose
from repro.core.explorer import ExplorerConfig
from repro.core.full_replay import CompleteLog, replay_complete
from repro.core.recorder import RecordedRun, record
from repro.core.reproducer import ReproductionReport, reproduce
from repro.core.sketches import SKETCH_ORDER, SketchKind
from repro.core.systematic import SystematicResult, systematic_search

__all__ = [
    "CompleteLog",
    "CostModel",
    "Diagnosis",
    "ExplorerConfig",
    "RecordedRun",
    "ReproductionReport",
    "SKETCH_ORDER",
    "SketchKind",
    "SystematicResult",
    "diagnose",
    "record",
    "replay_complete",
    "reproduce",
    "systematic_search",
]
