"""One plan model for every predictive pass.

Two passes predict schedules before the search starts.  The sanitizer
(:func:`repro.sanitize.build_plan`) reads a rich RW recording; the
static analyzer (:func:`repro.analysis.static_.analyze_program`) reads
program source, optionally filtered by a bug report's failure text.
Both hand the engine the same thing, a :class:`Plan`: the findings that
justify it, ranked :class:`PlanCandidate` constraint sets, and a
provenance that says which pass produced it.

The provenance is all the engine needs to know about the producer.
:meth:`Plan.seeds_for` narrows a plan to the candidates that can help at
a replay sketch level, ``ExplorerConfig.plan_seeds`` carries them as
``(provenance, constraints)`` pairs, and the frontier seeds ``dynamic``
ones at ``TIER_PLAN`` and ``static`` ones at ``TIER_STATIC`` (see
:mod:`repro.core.explorer`).

Plans serialize to ``pres-plan-v2`` JSON (:meth:`Plan.to_json`).
:meth:`Plan.from_json` either rebuilds the plan exactly or raises
:class:`PlanFormatError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.constraints import (
    ConstraintSet,
    canonical_order,
    constraints_from_json,
    constraints_to_json,
)
from repro.core.sketches import SketchKind
from repro.core.sketchlog import _from_jsonable, _jsonable
from repro.errors import ReproError
from repro.sim.ops import Address

#: Provenances: which pass produced a plan.
DYNAMIC = "dynamic"
STATIC = "static"
PROVENANCES = (DYNAMIC, STATIC)

#: What a finding predicts.
FINDING_KINDS = ("race", "atomicity", "deadlock")

PLAN_FORMAT = "pres-plan-v2"
_V1_FORMATS = ("pres-plan-v1", "pres-static-plan-v1")


class PlanFormatError(ReproError, ValueError):
    """A plan file could not be decoded."""


@dataclass(frozen=True)
class Finding:
    """One predicted race, atomicity violation or deadlock."""

    kind: str  # one of FINDING_KINDS
    threads: Tuple[int, ...]
    #: what the threads contend for: addresses (dynamic) or regions
    #: (static) for races and atomicity, lock names for deadlocks.
    targets: Tuple[Address, ...]
    confidence: float
    description: str  # one line, as ``Plan.describe`` prints it
    #: the orderings the finding implies, where the producer derives
    #: them (the dynamic production-order pins, deadlock triggers).
    constraints: ConstraintSet = frozenset()


@dataclass(frozen=True)
class PlanCandidate:
    """One ranked constraint set the engine can seed."""

    constraints: ConstraintSet
    source: str  # the finding kind, or "pin-all", "use-after-free", ...
    confidence: float
    note: str = ""

    @property
    def family(self) -> str:
        """``lock`` if any ref pins a lock acquisition, else ``memory``."""
        for constraint in self.constraints:
            if "lock" in (constraint.before.family, constraint.after.family):
                return "lock"
        return "memory"

    def describe(self) -> str:
        """Render as ``[race 0.90] T1:mem['x']#2 -> T2:mem['x']#1``."""
        pins = "; ".join(
            c.describe() for c in canonical_order(self.constraints)
        )
        return f"[{self.source} {self.confidence:.2f}] {pins}"


@dataclass(frozen=True)
class Plan:
    """A predictive pass's output: findings plus ranked candidates."""

    provenance: str  # one of PROVENANCES
    #: what was analyzed: the recording's sketch level (dynamic) or the
    #: program name (static).
    subject: str
    findings: Tuple[Finding, ...] = ()
    candidates: Tuple[PlanCandidate, ...] = ()
    notes: Tuple[str, ...] = ()
    #: the producer's evidence-gate verdict: False holds every
    #: memory-family candidate back (see ``sanitize.MIN_PLAN_EVIDENCE``).
    seed_memory: bool = True
    #: one line per thread the producer modeled (static: spawn/join roles).
    threads: Tuple[str, ...] = ()
    #: every shared region the producer saw accessed (static).
    regions: Tuple[Address, ...] = ()
    failure: str = ""  # failure text the candidates were filtered by
    complete: bool = True  # False: the producer hit unmodeled constructs

    def _of_kind(self, kind: str) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.kind == kind)

    @property
    def races(self) -> Tuple[Finding, ...]:
        return self._of_kind("race")

    @property
    def violations(self) -> Tuple[Finding, ...]:
        return self._of_kind("atomicity")

    @property
    def deadlocks(self) -> Tuple[Finding, ...]:
        return self._of_kind("deadlock")

    def seeds_for(self, replay_sketch: SketchKind) -> Tuple[ConstraintSet, ...]:
        """The candidate constraint sets applicable at a replay level.

        An RW sketch already pins every memory access, so nothing ships.
        Lock-family candidates (deadlock triggers, which *invert* an
        order) apply only to sketchless replay, where no recorded order
        can contradict them.  Memory-family candidates apply below RW
        unless the producer's evidence gate held them back.
        """
        if replay_sketch.includes(SketchKind.RW):
            return ()
        seeds: List[ConstraintSet] = []
        for candidate in self.candidates:
            if candidate.family == "lock":
                if replay_sketch is not SketchKind.NONE:
                    continue
            elif not self.seed_memory:
                continue
            seeds.append(candidate.constraints)
        return tuple(seeds)

    def counts(self) -> str:
        """``N race(s), N atomicity ...(s), N deadlock cycle(s)``."""
        windows = "violation" if self.provenance == DYNAMIC else "window"
        return (
            f"{len(self.races)} race(s), {len(self.violations)} atomicity "
            f"{windows}(s), {len(self.deadlocks)} deadlock cycle(s)"
        )

    def describe(self) -> str:
        """Multi-line human report: findings first, then ranked candidates."""
        if self.provenance == DYNAMIC:
            head = f"replay plan from {self.subject} sketch: "
        else:
            head = (
                f"static plan for {self.subject}: {len(self.threads)} "
                f"thread(s), {len(self.regions)} shared region(s), "
            )
        lines = [f"{head}{self.counts()}, {len(self.candidates)} candidate(s)"]
        if self.failure:
            lines.append(f"  failure hint: {self.failure!r}")
        if not self.complete:
            lines.append("  (incomplete: unmodeled constructs, see notes)")
        lines.extend(f"  note: {note}" for note in self.notes)
        lines.extend(f"  {thread}" for thread in self.threads)
        lines.extend(f"  {finding.description}" for finding in self.findings)
        lines.extend(
            f"  #{rank} {candidate.describe()}"
            for rank, candidate in enumerate(self.candidates)
        )
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize the plan as ``pres-plan-v2`` JSON (byte-deterministic)."""
        payload = {
            "format": PLAN_FORMAT,
            "provenance": self.provenance,
            "subject": self.subject,
            "findings": [_finding_json(f) for f in self.findings],
            "candidates": [_candidate_json(c) for c in self.candidates],
            "notes": list(self.notes),
            "seed_memory": self.seed_memory,
            "threads": list(self.threads),
            "regions": [_jsonable(r) for r in self.regions],
            "failure": self.failure,
            "complete": self.complete,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        """Rebuild a plan from :meth:`to_json` output.

        :raises PlanFormatError: for anything else — not JSON, not a
            plan, a v1 plan, or a plan with missing or mistyped fields.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, bad UTF-8
            raise PlanFormatError(f"plan is not JSON: {exc}") from None
        tag = payload.get("format") if isinstance(payload, dict) else None
        if tag in _V1_FORMATS:
            raise PlanFormatError(
                f"{tag} plans are no longer read; re-run `pres analyze` "
                f"to write a {PLAN_FORMAT} plan"
            )
        if tag != PLAN_FORMAT:
            raise PlanFormatError(f"not a PRES plan (no {PLAN_FORMAT!r} tag)")
        try:
            return _plan_from(payload)
        except PlanFormatError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise PlanFormatError(f"malformed plan: {exc!r}") from None


# -- JSON helpers --------------------------------------------------------


def _field(data: Any, name: str, kind: Any) -> Any:
    """``data[name]``, checked against ``kind`` (bool never passes as int)."""
    if not isinstance(data, dict):
        raise PlanFormatError(f"expected an object holding {name!r}")
    if name not in data:
        raise PlanFormatError(f"missing field {name!r}")
    value = data[name]
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, kind):
        raise PlanFormatError(f"field {name!r} has the wrong type")
    return value


def _choice(data: Any, name: str, allowed: Tuple[str, ...]) -> str:
    value = _field(data, name, str)
    if value not in allowed:
        raise PlanFormatError(f"field {name!r} is not one of {allowed}")
    return value


def _address(value: Any) -> Address:
    address = _from_jsonable(value)
    hash(address)  # a list or dict is no address: TypeError
    return address


def _number(data: Any, name: str) -> float:
    value = _field(data, name, (int, float))
    if not math.isfinite(value):
        raise PlanFormatError(f"field {name!r} is not a finite number")
    return value


def _finding_json(finding: Finding) -> Dict[str, Any]:
    return {
        "kind": finding.kind,
        "threads": list(finding.threads),
        "targets": [_jsonable(t) for t in finding.targets],
        "confidence": finding.confidence,
        "description": finding.description,
        "constraints": constraints_to_json(finding.constraints),
    }


def _items(data: Any, name: str, kind: type) -> Tuple[Any, ...]:
    """A list field whose items are all ``kind`` (never bool)."""
    values = _field(data, name, list)
    if any(type(value) is not kind for value in values):
        raise PlanFormatError(f"field {name!r} must hold {kind.__name__}s")
    return tuple(values)


def _finding_from(data: Any) -> Finding:
    return Finding(
        kind=_choice(data, "kind", FINDING_KINDS),
        threads=_items(data, "threads", int),
        targets=tuple(_address(t) for t in _field(data, "targets", list)),
        confidence=_number(data, "confidence"),
        description=_field(data, "description", str),
        constraints=constraints_from_json(_field(data, "constraints", list)),
    )


def _candidate_json(candidate: PlanCandidate) -> Dict[str, Any]:
    return {
        "constraints": constraints_to_json(candidate.constraints),
        "source": candidate.source,
        "confidence": candidate.confidence,
        "note": candidate.note,
    }


def _candidate_from(data: Any) -> PlanCandidate:
    return PlanCandidate(
        constraints=constraints_from_json(_field(data, "constraints", list)),
        source=_field(data, "source", str),
        confidence=_number(data, "confidence"),
        note=_field(data, "note", str),
    )


def _plan_from(payload: Dict[str, Any]) -> Plan:
    return Plan(
        provenance=_choice(payload, "provenance", PROVENANCES),
        subject=_field(payload, "subject", str),
        findings=tuple(
            _finding_from(f) for f in _field(payload, "findings", list)
        ),
        candidates=tuple(
            _candidate_from(c) for c in _field(payload, "candidates", list)
        ),
        notes=_items(payload, "notes", str),
        seed_memory=_field(payload, "seed_memory", bool),
        threads=_items(payload, "threads", str),
        regions=tuple(_address(r) for r in _field(payload, "regions", list)),
        failure=_field(payload, "failure", str),
        complete=_field(payload, "complete", bool),
    )
