"""Crash-safe, disk-backed store of replay-attempt outcomes.

A replay attempt is a pure function of (sketch log, constraint set, base
seed, base policy, output strictness) — which means its outcome is worth
keeping *across* processes, not just within one
(:class:`~repro.core.feedback.AttemptCache` already memoizes within a
session).  The :class:`AttemptStore` persists every outcome under a
content-addressed layout sharded by sketch-log fingerprint::

    store_root/
      meta.json                      # {"epoch": N, ...} bumped per open
      <fp[:2]>/<fp>/attempts.jsonl   # one journal shard per recorded log

Each shard is a :class:`~repro.robust.journal.JournalWriter` journal of
kind ``"attempts"`` opened with ``resume=True``: records accumulate
across runs, a torn tail (process killed mid-append) is healed on the
next open and costs at most that one record, and salvage recovers the
valid prefix of any damaged shard.  Shards never write completion
footers — a store is never "finished" — so "no completion footer" is a
shard's healthy steady state, not damage.

Recorded order and GC
---------------------

Every record carries a ``tick``: ``[epoch, n]`` where ``epoch`` is the
store-open counter from ``meta.json`` and ``n`` a per-session append
counter.  Ticks are schedule-deterministic (appends happen at the
engine's deterministic fold points), so :meth:`AttemptStore.gc` can bound
the store with a *deterministic* least-recently-recorded eviction: sort
every record by ``(epoch, n, fingerprint, seq)``, drop from the front,
rewrite the surviving shards atomically.  Crashing mid-GC leaves either
the old shard or the new one, never a half-written file.

Concurrency: one writer per store at a time is the supported mode (the
engine funnels every lookup and append through the parent process's fold
loop).  Readers of a store being written see a journal-valid prefix.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SketchFormatError
from repro.robust.atomic import atomic_write_text
from repro.robust.journal import ATTEMPTS_KIND, JournalWriter, salvage
from repro.store.codec import decode_record, encode_record

#: ``meta.json`` / shard-header format tag.
STORE_FORMAT = "pres-attempt-store"
STORE_VERSION = 1
#: File name of every shard journal.
SHARD_FILE = "attempts.jsonl"
#: File name of the store-level metadata blob.
META_FILE = "meta.json"
#: File name of the epoch-base registry (which shards replay from a
#: boundary snapshot, and from which one).
EPOCHS_FILE = "epochs.json"

__all__ = [
    "AttemptStore",
    "EpochExpiryReport",
    "GCReport",
    "ShardReport",
    "StoreStats",
    "StoreVerifyReport",
    "find_quarantine_files",
    "find_stale_files",
    "iter_shard_files",
    "verify_store",
]

#: file-name suffixes of temp files the store writes and renames away;
#: one left behind means a run was killed mid-rewrite (stale debris).
_TEMP_SUFFIXES = (".gc", ".rebuild")
#: substring marking :func:`repro.robust.atomic.atomic_writer` temp files.
_ATOMIC_TMP_MARK = ".tmp."
#: suffixes of quarantine sidecars (damage evidence, not live data).
_QUARANTINE_SUFFIXES = (".corrupt", ".quarantine")


def iter_shard_files(root: str) -> List[Tuple[str, str]]:
    """Every on-disk ``(fingerprint, shard_path)`` under ``root``, sorted."""
    found: List[Tuple[str, str]] = []
    if not os.path.isdir(root):
        return found
    for prefix in sorted(os.listdir(root)):
        prefix_dir = os.path.join(root, prefix)
        if len(prefix) != 2 or not os.path.isdir(prefix_dir):
            continue
        for fingerprint in sorted(os.listdir(prefix_dir)):
            path = os.path.join(prefix_dir, fingerprint, SHARD_FILE)
            if fingerprint.startswith(prefix) and os.path.isfile(path):
                found.append((fingerprint, path))
    return found


def _walk_files(root: str) -> List[str]:
    files: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        files.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    return files


def find_stale_files(root: str) -> List[str]:
    """Temp/partial files a killed run left behind under ``root``, sorted.

    Covers the store's own rewrite temps (``*.gc``, ``*.rebuild``) and
    :func:`~repro.robust.atomic.atomic_writer` temps (``*.tmp.*``).
    All are safe to delete: each is either superseded by the file it was
    about to replace or an abandoned partial write.
    """
    stale: List[str] = []
    for path in _walk_files(root):
        name = os.path.basename(path)
        if name.endswith(_TEMP_SUFFIXES) or _ATOMIC_TMP_MARK in name:
            stale.append(path)
    return stale


def find_quarantine_files(root: str) -> List[str]:
    """Quarantine sidecars under ``root`` (rotated/damaged bytes), sorted.

    These are *evidence*, not damage: the live store no longer reads
    them.  They are reported for triage and left alone by cleaning.
    """
    return [
        path for path in _walk_files(root)
        if os.path.basename(path).endswith(_QUARANTINE_SUFFIXES)
    ]


@dataclass
class StoreStats:
    """Totals over one store (``pres store stats``)."""

    root: str
    epoch: int
    shards: int = 0
    records: int = 0
    size_bytes: int = 0
    #: shards whose header did not survive (counted, not included above).
    corrupt_shards: int = 0

    def describe(self) -> str:
        lines = [
            f"{self.root}: {self.records} attempt record(s) in "
            f"{self.shards} shard(s), {self.size_bytes} bytes, "
            f"epoch {self.epoch}"
        ]
        if self.corrupt_shards:
            lines.append(f"  {self.corrupt_shards} corrupt shard(s)")
        return "\n".join(lines)


@dataclass
class ShardReport:
    """One shard's health, as ``pres store verify`` sees it."""

    fingerprint: str
    path: str
    #: ``"ok"`` | ``"torn"`` (healable tail) | ``"corrupt"`` (header gone)
    #: | ``"committed"`` (footer anomaly) | ``"invalid-records"``.
    status: str
    records: int = 0
    dropped: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def describe(self) -> str:
        tail = f" ({self.detail})" if self.detail else ""
        return (
            f"{self.fingerprint[:12]}: {self.status}, {self.records} "
            f"record(s), {self.dropped} dropped{tail}"
        )


@dataclass
class StoreVerifyReport:
    """Every shard's verdict (``pres store verify``)."""

    root: str
    shards: List[ShardReport] = field(default_factory=list)
    #: leftover temp/partial files from a killed run (damage: see
    #: :func:`find_stale_files`; ``pres doctor --clean`` removes them).
    stale: List[str] = field(default_factory=list)
    #: quarantine sidecars (informational: see
    #: :func:`find_quarantine_files`; not damage).
    quarantine: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every shard validated and no stale debris remains."""
        return not self.stale and all(shard.ok for shard in self.shards)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def describe(self) -> str:
        lines = [f"{self.root}: {len(self.shards)} shard(s)"]
        lines.extend("  " + shard.describe() for shard in self.shards)
        for path in self.stale:
            lines.append(f"  stale: {path} (partial write from a killed run)")
        for path in self.quarantine:
            lines.append(f"  quarantined: {path}")
        lines.append("store: " + ("ok" if self.ok else "DAMAGED"))
        return "\n".join(lines)


@dataclass
class EpochExpiryReport:
    """What one :meth:`AttemptStore.expire_epochs` pass did."""

    root: str
    #: registered epoch-base fingerprints still live after the pass.
    live: int = 0
    #: fingerprints whose registration was dropped (no longer live).
    expired: List[str] = field(default_factory=list)
    #: expired fingerprints that also had an on-disk shard removed.
    shards_removed: int = 0

    def describe(self) -> str:
        return (
            f"{self.root}: {len(self.expired)} epoch base(s) expired "
            f"({self.shards_removed} shard(s) removed), {self.live} live"
        )


@dataclass
class GCReport:
    """What one :meth:`AttemptStore.gc` pass did."""

    root: str
    max_records: int
    records_before: int = 0
    records_after: int = 0
    evicted: int = 0
    shards_removed: int = 0
    shards_rewritten: int = 0

    def describe(self) -> str:
        return (
            f"{self.root}: gc to {self.max_records} record(s): "
            f"{self.records_before} -> {self.records_after} "
            f"({self.evicted} evicted, {self.shards_rewritten} shard(s) "
            f"rewritten, {self.shards_removed} removed)"
        )


def _json_object(handle: Any) -> Dict[str, Any]:
    """A JSON document that must be an object; TypeError when it is not.

    ``meta.json`` and ``epochs.json`` hold one object each; a file that
    parses to a list, a number or ``null`` is damage, like a torn one.
    """
    data = json.load(handle)
    if not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    return data


class AttemptStore:
    """The persistent shard set; see the module docstring for layout.

    Opening a store creates ``root`` if needed and bumps the epoch in
    ``meta.json``.  Shards load lazily (first :meth:`get`/:meth:`put`
    touching a fingerprint salvages its journal once), so opening a
    large store costs one small file write, not a full scan.

    :param fsync: force every appended record to stable storage (the
        same knob :class:`~repro.robust.journal.JournalWriter` takes).
    """

    def __init__(self, root: str, fsync: bool = False) -> None:
        self.root = root
        self.fsync = fsync
        #: damaged-state observations: healed torn tails, rotated corrupt
        #: shards, skipped undecodable records, unreadable ``meta.json``.
        self.salvage_events = 0
        #: records/lines moved aside into quarantine sidecars this
        #: session.  A quarantined entry is a cache *miss*, never an
        #: error: corruption on disk degrades the store to "replay it
        #: live", it does not reach the exploration loop.
        self.quarantined = 0
        #: records appended (this session).
        self.appends = 0
        #: records evicted by :meth:`gc` (this session).
        self.evictions = 0
        self._shards: Dict[str, Dict[Tuple, Any]] = {}
        self._writers: Dict[str, JournalWriter] = {}
        self._tick = 0
        #: serializes get/put/gc/close within this process, so one open
        #: store can back concurrent sessions (the reproduction service
        #: shares per-tenant stores across job threads).  The one-writer-
        #: per-store *process* contract is unchanged.
        self._lock = threading.RLock()
        os.makedirs(root, exist_ok=True)
        self.epoch = self._bump_epoch()

    # -- layout ---------------------------------------------------------

    @staticmethod
    def fingerprint_of(key: Tuple) -> str:
        """The shard fingerprint inside one ``AttemptCache.key_for`` key."""
        return key[0][2]

    def shard_path(self, fingerprint: str) -> str:
        """Where the shard for ``fingerprint`` lives (may not exist yet)."""
        return os.path.join(
            self.root, fingerprint[:2], fingerprint, SHARD_FILE
        )

    def _shard_files(self) -> List[Tuple[str, str]]:
        """Every on-disk ``(fingerprint, shard_path)``, in sorted order."""
        return iter_shard_files(self.root)

    # -- epoch ----------------------------------------------------------

    def _meta_path(self) -> str:
        return os.path.join(self.root, META_FILE)

    def _bump_epoch(self) -> int:
        """Read, increment, and atomically rewrite the open counter."""
        epoch = 0
        try:
            with open(self._meta_path(), "r", encoding="utf-8") as handle:
                epoch = int(_json_object(handle).get("epoch", 0))
        except FileNotFoundError:
            pass
        except (OSError, ValueError, TypeError, json.JSONDecodeError,
                RecursionError):
            # A torn meta.json costs only eviction-order fidelity for
            # older epochs, never records; restart the counter.
            self.salvage_events += 1
        epoch += 1
        atomic_write_text(
            self._meta_path(),
            json.dumps(
                {
                    "format": STORE_FORMAT,
                    "version": STORE_VERSION,
                    "epoch": epoch,
                },
                sort_keys=True,
            )
            + "\n",
        )
        return epoch

    def _next_tick(self) -> Tuple[int, int]:
        tick = (self.epoch, self._tick)
        self._tick += 1
        return tick

    # -- shard loading ---------------------------------------------------

    def _quarantine(self, path: str, entries: List[str], count: int) -> None:
        """Move damage evidence into the ``.quarantine`` sidecar.

        Best-effort by design: quarantining is bookkeeping on an
        already-degraded path, so an unwritable sidecar must not turn a
        cache miss into an exploration-loop error.
        """
        self.quarantined += count
        if not entries:
            return
        try:
            with open(path + ".quarantine", "a", encoding="utf-8") as sidecar:
                for entry in entries:
                    sidecar.write(entry.rstrip("\n") + "\n")
        except OSError:
            pass

    def _load_shard(self, fingerprint: str) -> Dict[Tuple, Any]:
        shard = self._shards.get(fingerprint)
        if shard is not None:
            return shard
        shard = {}
        damaged = False
        path = self.shard_path(fingerprint)
        if os.path.isfile(path):
            try:
                report = salvage(path)
            except OSError:
                # Unreadable shard file (permissions, I/O error): every
                # key in it is a miss; the engine replays those live.
                report = None
                self.salvage_events += 1
            if report is None:
                pass
            elif report.unrecoverable:
                # Nothing trustworthy inside; rotate it out of the way so
                # a fresh shard can grow, but keep the bytes for forensics.
                try:
                    os.replace(path, path + ".corrupt")
                except OSError:
                    pass
                self.salvage_events += 1
                self.quarantined += max(1, report.total_lines)
            else:
                if report.dropped_lines > 0:
                    self.salvage_events += 1
                    damaged = True
                    self._quarantine(
                        path, self._raw_tail(path, report.dropped_lines),
                        report.dropped_lines,
                    )
                for payload in report.records:
                    try:
                        key, outcome, _tick = decode_record(payload)
                    except SketchFormatError:
                        self.salvage_events += 1
                        damaged = True
                        self._quarantine(
                            path, [json.dumps(payload, sort_keys=True)], 1
                        )
                        continue
                    if self.fingerprint_of(key) != fingerprint:
                        self.salvage_events += 1  # misfiled record
                        damaged = True
                        self._quarantine(
                            path, [json.dumps(payload, sort_keys=True)], 1
                        )
                        continue
                    shard[key] = outcome
        self._shards[fingerprint] = shard
        if damaged:
            # Quarantining is a *move*: with the evidence in the sidecar,
            # rewrite the shard to just its decodable records so the next
            # verify (and every future load) sees a clean file.  Best
            # effort — a failed rewrite leaves the old miss semantics.
            try:
                self._rebuild_shard(fingerprint)
            except OSError:
                pass
        return shard

    @staticmethod
    def _raw_tail(path: str, n_lines: int) -> List[str]:
        """The last ``n_lines`` raw lines of ``path`` (damage evidence),
        captured *before* the next journal resume heals the file."""
        if n_lines <= 0:
            return []
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as handle:
                return handle.read().splitlines()[-n_lines:]
        except OSError:
            return []

    def _shard_meta(self, fingerprint: str) -> Dict[str, Any]:
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
        }

    def _writer(self, fingerprint: str) -> JournalWriter:
        writer = self._writers.get(fingerprint)
        if writer is None:
            path = self.shard_path(fingerprint)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            meta = self._shard_meta(fingerprint)
            try:
                writer = JournalWriter(
                    path, ATTEMPTS_KIND, meta, fsync=self.fsync, resume=True
                )
            except SketchFormatError:
                # Wrong kind or a stray completion footer: rebuild the
                # shard from the records already loaded, then resume.
                self.salvage_events += 1
                self._rebuild_shard(fingerprint)
                writer = JournalWriter(
                    path, ATTEMPTS_KIND, meta, fsync=self.fsync, resume=True
                )
            self._writers[fingerprint] = writer
        return writer

    def _rebuild_shard(self, fingerprint: str) -> None:
        """Atomically rewrite one shard from its loaded records."""
        path = self.shard_path(fingerprint)
        temp = path + ".rebuild"
        with JournalWriter(
            temp, ATTEMPTS_KIND, self._shard_meta(fingerprint),
            fsync=self.fsync,
        ) as writer:
            for key, outcome in self._load_shard(fingerprint).items():
                writer.append(encode_record(key, outcome, self._next_tick()))
        os.replace(temp, path)

    # -- record access ---------------------------------------------------

    def get(self, key: Tuple) -> Optional[Any]:
        """The persisted outcome for one cache key, or ``None``."""
        with self._lock:
            return self._load_shard(self.fingerprint_of(key)).get(key)

    def put(self, key: Tuple, outcome: Any) -> bool:
        """Persist one outcome; True when a record was actually appended.

        Idempotent per key: a key already present in the shard (loaded
        from disk or appended earlier this session) is left alone, so
        the engine's re-put of a folded cache hit costs nothing.
        """
        with self._lock:
            fingerprint = self.fingerprint_of(key)
            shard = self._load_shard(fingerprint)
            if key in shard:
                return False
            if getattr(outcome, "spans", ()):
                outcome = replace(outcome, spans=())
            shard[key] = outcome
            self._writer(fingerprint).append(
                encode_record(key, outcome, self._next_tick())
            )
            self.appends += 1
            return True

    def close(self) -> None:
        """Close every shard writer (records are already on disk)."""
        with self._lock:
            for fingerprint in sorted(self._writers):
                self._writers[fingerprint].close()
            self._writers.clear()

    def __enter__(self) -> "AttemptStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- maintenance -----------------------------------------------------

    def stats(self) -> StoreStats:
        """Totals over the on-disk store (reads every shard)."""
        with self._lock:
            stats = StoreStats(root=self.root, epoch=self.epoch)
            for _fingerprint, path in self._shard_files():
                report = salvage(path)
                if report.unrecoverable:
                    stats.corrupt_shards += 1
                    continue
                stats.shards += 1
                stats.records += len(report.records)
                stats.size_bytes += os.path.getsize(path)
            return stats

    def verify(self) -> StoreVerifyReport:
        """Validate every shard end to end (``pres store verify``).

        Delegates to the module-level :func:`verify_store`; see there
        for the read-only contract.
        """
        return verify_store(self.root)

    def gc(self, max_records: int) -> GCReport:
        """Bound the store to ``max_records``, evicting oldest-recorded
        first.

        Deterministic: records sort by ``(epoch, n, fingerprint, seq)``
        — the recorded-order tick, with the shard address breaking
        (cross-process) ties — so two GC passes over equal stores evict
        equal records.  Surviving shards are rewritten atomically
        (journal to a temp file, then rename); emptied shards are
        removed along with their directories.  Also heals any torn tail
        or undecodable record it passes over.
        """
        if max_records < 0:
            raise ValueError(f"max_records must be >= 0, got {max_records}")
        with self._lock:
            return self._gc_locked(max_records)

    def _gc_locked(self, max_records: int) -> GCReport:
        out = GCReport(root=self.root, max_records=max_records)
        # Writers hold open handles into files about to be replaced.
        self.close()
        self._shards.clear()

        entries: List[Tuple[int, int, str, int, Any]] = []
        per_shard_total: Dict[str, int] = {}
        damaged: Dict[str, bool] = {}
        for fingerprint, path in self._shard_files():
            report = salvage(path)
            if report.unrecoverable:
                os.replace(path, path + ".corrupt")
                self.salvage_events += 1
                continue
            if report.dropped_lines > 0:
                self.salvage_events += 1
                damaged[fingerprint] = True
            kept = 0
            for seq, payload in enumerate(report.records):
                try:
                    _key, _outcome, tick = decode_record(payload)
                except SketchFormatError:
                    self.salvage_events += 1
                    damaged[fingerprint] = True
                    continue
                entries.append((tick[0], tick[1], fingerprint, seq, payload))
                kept += 1
            per_shard_total[fingerprint] = kept

        out.records_before = len(entries)
        entries.sort(key=lambda entry: entry[:4])
        evict = max(0, len(entries) - max_records)
        survivors = entries[evict:]
        out.evicted = evict
        out.records_after = len(survivors)
        self.evictions += evict

        surviving: Dict[str, List[Any]] = {}
        for _epoch, _n, fingerprint, _seq, payload in survivors:
            surviving.setdefault(fingerprint, []).append(payload)

        for fingerprint in sorted(per_shard_total):
            payloads = surviving.get(fingerprint, [])
            path = self.shard_path(fingerprint)
            if not payloads:
                os.unlink(path)
                self._remove_empty_dirs(path)
                out.shards_removed += 1
                continue
            if (
                len(payloads) == per_shard_total[fingerprint]
                and not damaged.get(fingerprint)
            ):
                continue  # untouched, healthy shard: leave the file alone
            temp = path + ".gc"
            with JournalWriter(
                temp, ATTEMPTS_KIND, self._shard_meta(fingerprint),
                fsync=self.fsync,
            ) as writer:
                for payload in payloads:
                    writer.append(payload)
            os.replace(temp, path)
            out.shards_rewritten += 1
        return out

    # -- epoch-base expiry ----------------------------------------------
    #
    # Not to be confused with the store's *open counter* (also called
    # "epoch" in ``meta.json``): the registry below tracks recording-side
    # epoch boundaries — shards whose sketch fingerprint is bound to a
    # boundary snapshot.  Once the rolling window drops a boundary, its
    # suffix-log fingerprint can never be looked up again (the fingerprint
    # carries the boundary identity), so the shard is dead weight that
    # ordinary LRU gc would only reclaim under record pressure.

    def _epochs_path(self) -> str:
        return os.path.join(self.root, EPOCHS_FILE)

    def _load_epoch_registry(self) -> Dict[str, Any]:
        try:
            with open(self._epochs_path(), "r", encoding="utf-8") as handle:
                bases = _json_object(handle).get("bases", {})
                if isinstance(bases, dict):
                    return bases
        except FileNotFoundError:
            return {}
        except (OSError, ValueError, TypeError, json.JSONDecodeError,
                RecursionError):
            pass
        # A torn registry costs only expiry bookkeeping, never records.
        self.salvage_events += 1
        return {}

    def _write_epoch_registry(self, bases: Dict[str, Any]) -> None:
        atomic_write_text(
            self._epochs_path(),
            json.dumps(
                {
                    "format": STORE_FORMAT,
                    "version": STORE_VERSION,
                    "bases": {k: bases[k] for k in sorted(bases)},
                },
                sort_keys=True,
            )
            + "\n",
        )

    def register_epoch_fingerprints(self, tags: Dict[str, Any]) -> None:
        """Record that these sketch fingerprints are epoch-base-bound.

        ``tags`` maps fingerprint -> descriptive metadata (program, seed,
        boundary tag).  Merged into ``epochs.json`` atomically; repeat
        registrations of a live base are idempotent.
        """
        if not tags:
            return
        with self._lock:
            bases = self._load_epoch_registry()
            bases.update(tags)
            self._write_epoch_registry(bases)

    def expire_epochs(self, live: Any) -> EpochExpiryReport:
        """Expire attempt shards of epoch bases not in ``live``.

        ``live`` is the collection of fingerprints still reachable from
        some recording's retained window.  Registered fingerprints
        outside it are unregistered and their shards (if any) removed —
        deterministically, in sorted fingerprint order.  Fingerprints
        never registered are untouched: full-history shards do not
        expire here, only :meth:`gc` bounds those.
        """
        live_set = set(live)
        with self._lock:
            out = EpochExpiryReport(root=self.root)
            bases = self._load_epoch_registry()
            survivors: Dict[str, Any] = {}
            for fingerprint in sorted(bases):
                if fingerprint in live_set:
                    survivors[fingerprint] = bases[fingerprint]
                    continue
                out.expired.append(fingerprint)
                writer = self._writers.pop(fingerprint, None)
                if writer is not None:
                    writer.close()
                self._shards.pop(fingerprint, None)
                path = self.shard_path(fingerprint)
                if os.path.isfile(path):
                    try:
                        os.unlink(path)
                    except OSError:
                        continue
                    self._remove_empty_dirs(path)
                    out.shards_removed += 1
                    self.evictions += 1
            out.live = len(survivors)
            if out.expired:
                self._write_epoch_registry(survivors)
            return out

    def _remove_empty_dirs(self, shard_file: str) -> None:
        """Prune ``<fp>/`` and then ``<fp[:2]>/`` when they emptied out."""
        for directory in (
            os.path.dirname(shard_file),
            os.path.dirname(os.path.dirname(shard_file)),
        ):
            try:
                os.rmdir(directory)
            except OSError:
                return  # not empty (e.g. a .corrupt sibling); keep it


def verify_store(root: str) -> StoreVerifyReport:
    """Validate every shard of the store at ``root`` end to end.

    Strictly read-only — unlike opening an :class:`AttemptStore`, this
    neither creates ``root`` nor bumps the epoch in ``meta.json``, so
    ``pres store verify`` and ``pres doctor`` can run against a store
    another process owns.  Damage is *reported* (torn tails, corrupt
    headers, undecodable or misfiled records, stray footers, stale temp
    files from a killed run), never repaired — repair happens on the
    write path (:meth:`AttemptStore.put`), via :meth:`AttemptStore.gc`,
    or with ``pres doctor --clean`` for stale temp files.
    """
    out = StoreVerifyReport(
        root=root,
        stale=find_stale_files(root),
        quarantine=find_quarantine_files(root),
    )
    for fingerprint, path in iter_shard_files(root):
        try:
            report = salvage(path)
        except OSError as exc:
            out.shards.append(
                ShardReport(
                    fingerprint=fingerprint,
                    path=path,
                    status="corrupt",
                    detail=f"unreadable: {exc}",
                )
            )
            continue
        if report.unrecoverable:
            out.shards.append(
                ShardReport(
                    fingerprint=fingerprint,
                    path=path,
                    status="corrupt",
                    dropped=report.total_lines,
                    detail=report.reason,
                )
            )
            continue
        bad = 0
        detail = ""
        for payload in report.records:
            try:
                key, _outcome, _tick = decode_record(payload)
            except SketchFormatError as exc:
                bad += 1
                detail = detail or str(exc)
                continue
            if AttemptStore.fingerprint_of(key) != fingerprint:
                bad += 1
                detail = detail or "record filed under wrong fingerprint"
        if report.footer is not None:
            status = "committed"
            detail = "unexpected completion footer"
        elif report.dropped_lines > 0:
            status = "torn"
            detail = report.reason
        elif bad:
            status = "invalid-records"
        else:
            status = "ok"
        out.shards.append(
            ShardReport(
                fingerprint=fingerprint,
                path=path,
                status=status,
                records=len(report.records) - bad,
                dropped=report.dropped_lines + bad,
                detail=detail,
            )
        )
    return out
