"""Fault tolerance: crash-consistent journaling, fault injection, triage.

PRES's premise is that the production run *fails while recording*, so the
recording pipeline must assume it will be interrupted at any instant and
the artifacts it leaves behind may be torn or damaged.  This package is
that assumption made executable:

* :mod:`repro.robust.journal` — an append-only, incrementally-flushed,
  per-record-checksummed journal for sketch logs and attempt-store
  shards, with a ``salvage()`` reader that recovers the longest valid
  prefix of a damaged file instead of raising;
* :mod:`repro.robust.inject` — seeded, deterministic fault injectors
  (truncate / garble / drop / kill-recorder-at-event) used by the test
  suite and the ``--inject-fault`` CLI flag, plus the chaos harness
  (:class:`ChaosSpec` / :class:`ChaosInjector`) behind ``pres reproduce
  --chaos``;
* :mod:`repro.robust.supervise` — the exploration supervisor: attempt
  deadlines, retry with deterministic backoff, worker-death detection,
  pool rebuild, and serial fallback (see ``docs/resilience.md``);
* :mod:`repro.robust.doctor` — triage for any on-disk artifact or store
  directory, backing the ``pres doctor`` subcommand and its 0/1/2
  exit-code contract;
* :mod:`repro.robust.atomic` — crash-safe whole-file writes (temp file,
  fsync, atomic rename) for every serialize-the-whole-artifact path.

The replay-side counterpart — the degradation ladder that re-derives
coarser sketches from a salvaged prefix and retries — is one of the rung
walks of the reproduction driver,
:func:`repro.core.reproducer.reproduce` with ``degrade=True``.  A killed
reproduction needs no journal of its own to resume: the cross-run
attempt store (:mod:`repro.store`) already keeps every decided attempt,
so rerunning the same command against the same ``--store`` replays only
the rest.
"""

from repro.robust.atomic import atomic_write_text, atomic_writer
from repro.robust.doctor import (
    LogDiagnosis,
    StoreDiagnosis,
    examine,
    examine_store,
    write_salvaged,
)
from repro.robust.inject import (
    CHAOS_KINDS,
    ChaosInjector,
    ChaosSpec,
    FaultPlan,
    KillSwitch,
    apply_fault,
    drop_line,
    garble_file,
    parse_chaos,
    parse_fault,
    seeded_truncate_offset,
    truncate_file,
)
from repro.robust.journal import (
    JournalWriter,
    SalvageReport,
    load_sketch_journal,
    read_journal,
    salvage,
    sketch_journal_writer,
    sketch_log_from_salvage,
    write_sketch_journal,
)
from repro.robust.supervise import (
    SuperviseConfig,
    Supervisor,
    backoff_delay,
    default_retry_budget,
)

__all__ = [
    "CHAOS_KINDS",
    "ChaosInjector",
    "ChaosSpec",
    "FaultPlan",
    "JournalWriter",
    "KillSwitch",
    "LogDiagnosis",
    "SalvageReport",
    "StoreDiagnosis",
    "SuperviseConfig",
    "Supervisor",
    "apply_fault",
    "atomic_write_text",
    "atomic_writer",
    "backoff_delay",
    "default_retry_budget",
    "drop_line",
    "examine",
    "examine_store",
    "garble_file",
    "load_sketch_journal",
    "parse_chaos",
    "parse_fault",
    "read_journal",
    "salvage",
    "seeded_truncate_offset",
    "sketch_journal_writer",
    "sketch_log_from_salvage",
    "truncate_file",
    "write_salvaged",
    "write_sketch_journal",
]
