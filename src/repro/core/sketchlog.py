"""Sketch logs: the on-disk artifact of a production run.

A :class:`SketchLog` is the ordered list of :class:`~repro.core.sketches.
SketchEntry` plus enough metadata to size it.  Serialization is a compact
binary framing (interned keys, fixed-width entries) with a JSON alternative
for debugging; both round-trip exactly.

Epoch-windowed recording (``pres record --epoch-steps``) marks the log
with *epoch structure*: the entry indices where each retained epoch
begins plus how many entries/epochs deterministic truncation dropped off
the front.  Epoch-marked logs serialize as format version 2 (an extra
epoch block between the header and the key table); logs without epoch
structure keep emitting the byte-identical version-1 framing, and v1
artifacts load as a single untruncated epoch.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.sketches import SketchEntry, SketchKind, visible_kinds
from repro.errors import SketchFormatError, SimUsageError
from repro.sim.ops import OpKind

_MAGIC = b"PRES"
_CMAGIC = b"PREZ"
_VERSION = 1
#: version emitted when the log carries epoch structure; v1 readers of
#: old artifacts are unaffected because plain logs still write v1.
_EPOCH_VERSION = 2
_ENTRY = struct.Struct("<IBH")  # tid, kind code, key index
_EPOCH_HEAD = struct.Struct("<III")  # n epoch starts, truncated entries/epochs
_EPOCH_START = struct.Struct("<I")

_KIND_CODES = {kind: i for i, kind in enumerate(OpKind)}
_CODE_KINDS = {i: kind for kind, i in _KIND_CODES.items()}


def _key_to_token(key: Any) -> str:
    """Stable string form of an entry key for the intern table."""
    return json.dumps(_jsonable(key), sort_keys=True, separators=(",", ":"))


def _jsonable(key: Any) -> Any:
    if isinstance(key, tuple):
        return {"__t": [_jsonable(k) for k in key]}
    if isinstance(key, dict):
        # Dicts are pair-encoded so a payload dict that happens to carry a
        # "__t"/"__d" key can never be mistaken for a tag on the way back.
        return {"__d": [[_jsonable(k), _jsonable(v)] for k, v in key.items()]}
    if isinstance(key, list):
        return [_jsonable(k) for k in key]
    return key


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"__t"}:
        return tuple(_from_jsonable(v) for v in value["__t"])
    if isinstance(value, dict) and set(value) == {"__d"}:
        return {_from_jsonable(k): _from_jsonable(v) for k, v in value["__d"]}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def _token_to_key(token: str) -> Any:
    return _from_jsonable(json.loads(token))


@dataclass
class SketchLog:
    """The recorded sketch of one production run."""

    sketch: SketchKind
    entries: List[SketchEntry] = field(default_factory=list)
    #: entry indices (into ``entries``) where each retained epoch begins;
    #: ``[]`` means the whole log is one epoch.  When set, the first
    #: element is always 0 and the indices are strictly increasing.
    epoch_starts: List[int] = field(default_factory=list)
    #: sketch entries dropped off the front by the recording window.
    truncated_entries: int = 0
    #: whole epochs dropped off the front by the recording window.
    truncated_epochs: int = 0
    #: runtime-only replay-base tag (never serialized): epoch-suffix logs
    #: carry the identity of the snapshot they replay from, folded into
    #: :meth:`fingerprint` so attempt-cache/store keys cannot collide
    #: with a full-history log that happens to share the same entries.
    base_tag: str = field(default="", repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SketchEntry]:
        return iter(self.entries)

    def append(self, entry: SketchEntry) -> None:
        self.entries.append(entry)

    # -- epoch structure --------------------------------------------------

    def epoch_marked(self) -> bool:
        """Whether this log carries non-trivial epoch structure.

        A log whose structure is trivial (no truncation, at most one
        epoch starting at 0) serializes as plain version-1 bytes so
        pre-epoch readers and byte-level fixtures are unaffected.
        """
        if self.truncated_entries > 0 or self.truncated_epochs > 0:
            return True
        return bool(self.epoch_starts) and list(self.epoch_starts) != [0]

    @property
    def epoch_count(self) -> int:
        """Number of retained epochs (a plain log is one epoch)."""
        return max(1, len(self.epoch_starts))

    def epoch_spans(self) -> List[Tuple[int, int]]:
        """Retained epochs as ``(start, end)`` entry-index pairs."""
        starts = list(self.epoch_starts) or [0]
        ends = starts[1:] + [len(self.entries)]
        return list(zip(starts, ends))

    def _check_epoch_structure(self, n_entries: int) -> None:
        starts = list(self.epoch_starts)
        if not starts:
            return
        if starts[0] != 0 or starts != sorted(set(starts)) or starts[-1] > n_entries:
            raise SketchFormatError(
                f"corrupt epoch block: starts {starts!r} for {n_entries} entries"
            )

    # -- sizing ----------------------------------------------------------

    def size_bytes(self) -> int:
        """Size of the binary serialization (the paper's log-size metric)."""
        return len(self.to_bytes())

    def entries_per_kilo_events(self, total_events: int) -> float:
        """Entries logged per 1000 executed operations."""
        if total_events <= 0:
            return 0.0
        return 1000.0 * len(self.entries) / total_events

    # -- binary serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        """Compact framing: header, interned key table, fixed entries.

        Epoch-marked logs (see :meth:`epoch_marked`) emit version 2 with
        an epoch block between the header and the key table; plain logs
        emit the byte-identical version-1 framing.
        """
        tokens: Dict[str, int] = {}
        packed_entries = []
        for entry in self.entries:
            token = _key_to_token(entry.key)
            index = tokens.setdefault(token, len(tokens))
            if index > 0xFFFF:
                raise SketchFormatError("too many distinct keys for 16-bit intern table")
            packed_entries.append(
                _ENTRY.pack(entry.tid, _KIND_CODES[entry.kind], index)
            )
        table = json.dumps(list(tokens)).encode("utf-8")
        version = _EPOCH_VERSION if self.epoch_marked() else _VERSION
        header = _MAGIC + struct.pack(
            "<BBII", version, _SKETCH_CODES[self.sketch], len(table), len(packed_entries)
        )
        epoch_block = b""
        if version == _EPOCH_VERSION:
            self._check_epoch_structure(len(self.entries))
            starts = list(self.epoch_starts) or [0]
            epoch_block = _EPOCH_HEAD.pack(
                len(starts), self.truncated_entries, self.truncated_epochs
            ) + b"".join(_EPOCH_START.pack(s) for s in starts)
        return header + epoch_block + table + b"".join(packed_entries)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SketchLog":
        if data[:4] != _MAGIC:
            raise SketchFormatError("bad magic; not a PRES sketch log")
        try:
            version, sketch_code, table_len, n_entries = struct.unpack_from(
                "<BBII", data, 4
            )
        except struct.error as exc:
            raise SketchFormatError(f"truncated header: {exc}") from None
        if version not in (_VERSION, _EPOCH_VERSION):
            raise SketchFormatError(f"unsupported sketch log version {version}")
        offset = 4 + struct.calcsize("<BBII")
        epoch_starts: List[int] = []
        truncated_entries = 0
        truncated_epochs = 0
        if version == _EPOCH_VERSION:
            try:
                n_starts, truncated_entries, truncated_epochs = _EPOCH_HEAD.unpack_from(
                    data, offset
                )
                offset += _EPOCH_HEAD.size
                for _ in range(n_starts):
                    epoch_starts.append(_EPOCH_START.unpack_from(data, offset)[0])
                    offset += _EPOCH_START.size
            except struct.error as exc:
                raise SketchFormatError(f"truncated epoch block: {exc}") from None
        try:
            tokens = json.loads(data[offset:offset + table_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise SketchFormatError(f"corrupt key table: {exc}") from None
        keys = [_token_to_key(t) for t in tokens]
        offset += table_len
        expected = offset + n_entries * _ENTRY.size
        if len(data) < expected:
            raise SketchFormatError(
                f"truncated entries: have {len(data)} bytes, need {expected}"
            )
        if len(data) > expected:
            # Distinct from truncation so `pres doctor` can tell a short
            # copy apart from tail corruption / concatenation damage.
            raise SketchFormatError(
                f"{len(data) - expected} byte(s) of trailing garbage after "
                f"the declared {n_entries} entries"
            )
        try:
            sketch = _CODE_SKETCHES[sketch_code]
        except KeyError:
            raise SketchFormatError(f"unknown sketch code {sketch_code}") from None
        log = cls(
            sketch=sketch,
            epoch_starts=epoch_starts,
            truncated_entries=truncated_entries,
            truncated_epochs=truncated_epochs,
        )
        for i in range(n_entries):
            tid, kind_code, key_index = _ENTRY.unpack_from(data, offset + i * _ENTRY.size)
            try:
                key = keys[key_index]
            except IndexError:
                raise SketchFormatError(f"entry {i} references unknown key {key_index}") from None
            try:
                kind = _CODE_KINDS[kind_code]
            except KeyError:
                raise SketchFormatError(f"entry {i} has unknown op kind {kind_code}") from None
            log.append(SketchEntry(tid=tid, kind=kind, key=key))
        if version == _EPOCH_VERSION:
            log._check_epoch_structure(n_entries)
        return log

    # -- compressed serialization ----------------------------------------------

    def to_bytes_compressed(self, level: int = 6) -> bytes:
        """Deflate-compressed binary framing.

        Sketch entries are extremely repetitive (the same handful of
        threads touching the same handful of objects), so generic
        compression recovers most of the redundancy the fixed-width
        framing leaves behind — the same trick production recorders use
        before shipping logs off-box.
        """
        return _CMAGIC + zlib.compress(self.to_bytes(), level)

    @classmethod
    def from_bytes_compressed(cls, data: bytes) -> "SketchLog":
        if len(data) < 4:
            # The slice below would be IndexError-safe, but a too-short
            # input deserves its own diagnosis rather than "bad magic".
            raise SketchFormatError(
                f"compressed sketch log too short: {len(data)} byte(s), "
                "need at least a 4-byte magic"
            )
        if data[:4] != _CMAGIC:
            raise SketchFormatError("bad magic; not a compressed PRES sketch log")
        try:
            raw = zlib.decompress(data[4:])
        except zlib.error as exc:
            raise SketchFormatError(f"corrupt compressed payload: {exc}") from None
        return cls.from_bytes(raw)

    def compressed_size_bytes(self) -> int:
        """Size of the compressed serialization."""
        return len(self.to_bytes_compressed())

    # -- JSON serialization ---------------------------------------------------

    def to_json(self) -> str:
        payload: Dict[str, Any] = {
            "sketch": self.sketch.value,
            "entries": [
                [e.tid, e.kind.value, _jsonable(e.key)] for e in self.entries
            ],
        }
        if self.epoch_marked():
            self._check_epoch_structure(len(self.entries))
            payload["epochs"] = {
                "starts": list(self.epoch_starts) or [0],
                "truncated_entries": self.truncated_entries,
                "truncated_epochs": self.truncated_epochs,
            }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SketchLog":
        try:
            payload = json.loads(text)
            epochs = payload.get("epochs") or {}
            log = cls(
                sketch=SketchKind(payload["sketch"]),
                epoch_starts=[int(s) for s in epochs.get("starts", [])],
                truncated_entries=int(epochs.get("truncated_entries", 0)),
                truncated_epochs=int(epochs.get("truncated_epochs", 0)),
            )
            entries = payload["entries"]
        except (KeyError, ValueError, TypeError, AttributeError, RecursionError) as exc:
            raise SketchFormatError(f"corrupt JSON sketch log: {exc}") from None
        for number, record in enumerate(entries, start=1):
            try:
                log.append(entry_from_record(record))
            except SketchFormatError as exc:
                raise SketchFormatError(
                    f"corrupt JSON sketch log: entry {number}: {exc}"
                ) from None
        log._check_epoch_structure(len(log.entries))
        return log

    def fingerprint(self) -> str:
        """Stable content digest (memoized until entries are appended).

        Used as the log half of attempt-cache keys: two logs with equal
        fingerprints constrain replay identically.  ``hashlib`` rather
        than ``hash()`` so the digest is comparable across processes.
        """
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is not None and cached[0] == len(self.entries):
            return cached[1]
        digest = hashlib.sha1(self.sketch.value.encode("utf-8"))
        if self.base_tag:
            # Epoch-suffix logs replay from a snapshot, not from step 0;
            # the snapshot identity is part of what the log constrains.
            digest.update(f"base:{self.base_tag}".encode("utf-8"))
        for entry in self.entries:
            digest.update(
                f"{entry.tid}:{entry.kind.value}:{_key_to_token(entry.key)}".encode("utf-8")
            )
        value = digest.hexdigest()
        self._fingerprint_cache = (len(self.entries), value)
        return value

    def describe(self, limit: int = 10) -> str:
        lines = [f"{self.sketch.value} sketch, {len(self.entries)} entries"]
        lines.extend(e.describe() for e in self.entries[:limit])
        if len(self.entries) > limit:
            lines.append(f"... {len(self.entries) - limit} more")
        return "\n".join(lines)


_SKETCH_CODES = {kind: i for i, kind in enumerate(SketchKind)}
_CODE_SKETCHES = {i: kind for kind, i in _SKETCH_CODES.items()}


# -- journal records ---------------------------------------------------------


def entry_record(entry: SketchEntry) -> list:
    """One sketch entry as a journal-record payload ``[tid, kind, key]``."""
    return [entry.tid, entry.kind.value, _jsonable(entry.key)]


def entry_from_record(record: Any) -> SketchEntry:
    """Decode :func:`entry_record`; raises :class:`SketchFormatError`."""
    try:
        tid, kind, key = record
        return SketchEntry(tid=int(tid), kind=OpKind(kind), key=_from_jsonable(key))
    except (KeyError, ValueError, TypeError) as exc:
        raise SketchFormatError(f"bad sketch entry {record!r}: {exc}") from None


# -- degradation -------------------------------------------------------------


def derive_coarser(log: SketchLog, target: SketchKind) -> SketchLog:
    """Project a sketch log down to a coarser mechanism.

    Because the mechanisms are cumulative, the entries a coarser sketch
    *would have recorded* are exactly the subset of a finer log whose op
    kinds the coarser mechanism watches.  This is the degradation ladder's
    workhorse: a salvaged RW prefix still yields a complete-as-recorded
    SYNC prefix to replay against.
    """
    if target.level > log.sketch.level:
        raise SimUsageError(
            f"cannot derive a {target.value} sketch from a coarser "
            f"{log.sketch.value} log"
        )
    if target is log.sketch:
        return log
    # Memoized per source log: the degradation ladder projects the same
    # salvaged log once per rung, and benchmark reruns hit it repeatedly.
    # Keyed by entry count so a log appended to after a projection can
    # never serve a stale result.
    cache = getattr(log, "_coarser_cache", None)
    if cache is None:
        cache = log._coarser_cache = {}
    key = (target, len(log.entries))
    cached = cache.get(key)
    if cached is not None:
        return cached
    keep = visible_kinds(target)
    derived = SketchLog(sketch=target)
    starts = set(log.epoch_starts)
    projected_starts: List[int] = []
    for index, entry in enumerate(log.entries):
        if index in starts:
            projected_starts.append(len(derived.entries))
        if entry.kind in keep:
            derived.append(entry)
    if log.epoch_marked():
        # Epoch boundaries are positions, not entries: each retained
        # boundary projects to "how many kept entries precede it", and
        # epochs emptied by the projection collapse into their neighbour.
        # The truncated-entry count stays at the source sketch's
        # granularity (an upper bound for the coarser view); truncated
        # epochs are exact either way.
        derived.epoch_starts = sorted(set(projected_starts)) or [0]
        derived.truncated_entries = log.truncated_entries
        derived.truncated_epochs = log.truncated_epochs
        derived.base_tag = log.base_tag
    cache[key] = derived
    return derived
