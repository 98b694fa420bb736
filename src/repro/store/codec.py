"""JSON codec for persisted attempt outcomes.

The attempt store journals one record per replay attempt; each record
must survive a round trip through JSON *exactly*, because a warm run
folds decoded outcomes back into the exploration engine in place of live
replays — any drift (a candidate field lost, a tuple decoded as a list)
would change the frontier and break the store's core invariant that a
warm store only *skips* replays, never changes what is explored.

Three shapes are encoded:

* the **cache key** — everything that determines an attempt:
  ``(log_token, constraints, seed, base_policy, match_output)`` exactly
  as :meth:`repro.core.feedback.AttemptCache.key_for` builds it, with
  the log token opened up into (sketch, entries, fingerprint);
* the **outcome** — the :class:`~repro.core.parallel.AttemptOutcome`
  minus its ``spans`` (spans describe one process's wall clock and are
  stripped before any caching, in-memory or on disk);
* **candidates** — the mined next-attempt
  :class:`~repro.core.feedback.Candidate` set riding on each failed
  outcome, which the warm run re-pushes onto its frontier when its
  budget reaches their parent's children.  An outcome that was never
  mined (its session already knew the execution, could not reach its
  children, or ran without feedback) carries ``"mined": false``;
  records without the field — every record written before it existed —
  decode as mined.

Constraints use the JSON form every artifact shares
(:func:`~repro.core.constraints.constraints_to_json`): sets in canonical
order, so the same attempt always produces byte-identical record text
(which also makes shard files diffable across runs), and tuple keys
tagged so addresses come back as tuples.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.constraints import (
    constraint_from_json,
    constraint_to_json,
    constraints_from_json,
    constraints_to_json,
)
from repro.core.feedback import Candidate
from repro.core.parallel import AttemptOutcome
from repro.errors import SketchFormatError

__all__ = [
    "decode_key",
    "decode_record",
    "encode_key",
    "encode_record",
]


# -- keys --------------------------------------------------------------------


def encode_key(key: Tuple) -> Dict[str, Any]:
    """One :meth:`AttemptCache.key_for` key as a JSON-ready dict."""
    (sketch, entries, fingerprint), constraints, seed, policy, match = key
    return {
        "sketch": sketch,
        "entries": entries,
        "fingerprint": fingerprint,
        "constraints": constraints_to_json(constraints),
        "seed": seed,
        "policy": policy,
        "match_output": bool(match),
    }


def decode_key(data: Dict[str, Any]) -> Tuple:
    """Rebuild the exact key tuple :func:`encode_key` flattened."""
    return (
        (data["sketch"], data["entries"], data["fingerprint"]),
        constraints_from_json(data["constraints"]),
        data["seed"],
        data["policy"],
        bool(data["match_output"]),
    )


# -- candidates and outcomes -------------------------------------------------


def _candidate_json(candidate: Candidate) -> Dict[str, Any]:
    data = {
        "constraints": constraints_to_json(candidate.constraints),
        "depth": candidate.depth,
        "anchor": candidate.anchor_gidx,
        "shape": candidate.shape,
        "tier": candidate.tier,
        "rank": candidate.rank,
    }
    # Prefix-resume provenance: present only when mined, so shards from
    # versions that predate schedule-prefix memoization decode cleanly.
    if candidate.flip is not None:
        data["flip"] = constraint_to_json(candidate.flip)
    if candidate.safe_prefix:
        data["safe_prefix"] = candidate.safe_prefix
    if candidate.parent_steps:
        data["parent_steps"] = candidate.parent_steps
    return data


def _candidate_from(data: Dict[str, Any]) -> Candidate:
    flip = data.get("flip")
    return Candidate(
        constraints=constraints_from_json(data["constraints"]),
        depth=data["depth"],
        anchor_gidx=data["anchor"],
        shape=data["shape"],
        tier=data["tier"],
        rank=data["rank"],
        flip=constraint_from_json(flip) if flip is not None else None,
        safe_prefix=data.get("safe_prefix", 0),
        parent_steps=data.get("parent_steps", 0),
    )


def encode_record(key: Tuple, outcome: AttemptOutcome, tick: Tuple[int, int]) -> Dict[str, Any]:
    """One store record: the key, the outcome, and its recorded-order tick.

    The outcome's ``constraints``/``seed`` equal the key's by construction
    (the engine keys every memoization on the outcome itself), so they
    are stored once, on the key side.  ``spans``, ``snapshots`` and
    ``shared`` are never persisted.
    """
    record = {
        "key": encode_key(key),
        "outcome": {
            "outcome": outcome.outcome,
            "detail": outcome.detail,
            "steps": outcome.steps,
            "matched": outcome.matched,
            "fingerprint": outcome.fingerprint,
            "candidates": [_candidate_json(c) for c in outcome.candidates],
            "schedule": list(outcome.schedule) if outcome.schedule is not None else None,
        },
        "tick": [tick[0], tick[1]],
    }
    if not outcome.mined:
        # written only when false, so a mined record keeps its old bytes
        record["outcome"]["mined"] = False
    return record


def decode_record(data: Any) -> Tuple[Tuple, AttemptOutcome, Tuple[int, int]]:
    """Decode one store record back to ``(key, outcome, tick)``.

    Raises :class:`SketchFormatError` on structurally bad payloads, so
    shard readers can skip a damaged record instead of crashing the run.
    """
    try:
        key = decode_key(data["key"])
        raw = data["outcome"]
        schedule = raw.get("schedule")
        mined = raw.get("mined", True)
        if not isinstance(mined, bool):
            raise TypeError(f"mined must be a boolean, not {mined!r}")
        outcome = AttemptOutcome(
            constraints=key[1],
            seed=key[2],
            outcome=raw["outcome"],
            detail=raw["detail"],
            steps=raw["steps"],
            matched=bool(raw["matched"]),
            fingerprint=raw["fingerprint"],
            candidates=tuple(_candidate_from(c) for c in raw["candidates"]),
            schedule=tuple(schedule) if schedule is not None else None,
            mined=mined,
        )
        epoch, index = data["tick"]
        return key, outcome, (int(epoch), int(index))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SketchFormatError(f"corrupt attempt record: {exc}") from None


def record_fingerprint(data: Any) -> Optional[str]:
    """The shard fingerprint a decoded record claims to belong to."""
    try:
        return str(data["key"]["fingerprint"])
    except (KeyError, TypeError):
        return None
