"""The wire contract: routes, request validation, protocol errors.

This module is the single source of truth for the service's HTTP
surface.  The server builds its dispatch table from :data:`ROUTES`, the
API reference (``docs/service.md``) is checked against it by
``tests/service/test_docs_routes.py``, and the client mirrors it method
by method — so an endpoint cannot exist without being documented, and a
documented endpoint cannot silently disappear.

Nothing here touches sockets or the job engine; it is pure data and
validation, unit-testable without a running server.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.request import ReproduceRequest
from repro.core.sketches import parse_sketch_kind
from repro.errors import SimUsageError

__all__ = [
    "Route",
    "ROUTES",
    "match",
    "ProtocolError",
    "JobRequest",
    "TENANT_RE",
]

#: Tenant namespaces double as store subdirectories, so the charset is
#: restricted to names that are safe as a single path component.
TENANT_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,31}$")


@dataclass(frozen=True)
class Route:
    """One endpoint: the method + path pattern the server serves.

    ``pattern`` uses ``{name}`` placeholders for path parameters
    (currently only ``{id}``).  ``name`` keys the server's handler
    lookup (``_h_<name>``) and the doc check.
    """

    method: str
    pattern: str
    name: str
    summary: str


#: Every endpoint the server serves, in documentation order.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/healthz", "health", "liveness + drain state"),
    Route("GET", "/metrics", "metrics", "service + engine metrics snapshot"),
    Route("POST", "/jobs", "submit", "submit a reproduction job"),
    Route("GET", "/jobs", "list_jobs", "list jobs (optionally by tenant)"),
    Route("GET", "/jobs/{id}", "status", "job status document"),
    Route("GET", "/jobs/{id}/result", "result", "final report for a finished job"),
    Route("POST", "/jobs/{id}/cancel", "cancel", "cancel a queued or running job"),
)


def _pattern_re(pattern: str) -> "re.Pattern[str]":
    parts = []
    for piece in re.split(r"(\{[a-z]+\})", pattern):
        if piece.startswith("{") and piece.endswith("}"):
            parts.append(f"(?P<{piece[1:-1]}>[^/]+)")
        else:
            parts.append(re.escape(piece))
    return re.compile("^" + "".join(parts) + "$")


_COMPILED: Tuple[Tuple[Route, "re.Pattern[str]"], ...] = tuple(
    (route, _pattern_re(route.pattern)) for route in ROUTES
)


class ProtocolError(Exception):
    """A request the protocol rejects; carries the HTTP status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def match(method: str, path: str) -> Tuple[Route, Dict[str, str]]:
    """Resolve ``(method, path)`` to a route and its path parameters.

    Raises :class:`ProtocolError` 404 when no pattern matches the path
    and 405 (message lists the allowed methods) when the path matches
    but only under other methods.
    """
    allowed = []
    for route, regex in _COMPILED:
        found = regex.match(path)
        if found is None:
            continue
        if route.method == method:
            return route, found.groupdict()
        allowed.append(route.method)
    if allowed:
        raise ProtocolError(405, ", ".join(sorted(set(allowed))))
    raise ProtocolError(404, f"no route for {path}")


def _is_int(value: object) -> bool:
    """An integer field value: a JSON ``true`` is a bool, not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class JobRequest:
    """A validated job submission (the body of ``POST /jobs``).

    ``jobs=0`` means "use the server's default parallelism"; any other
    value pins the exploration's ``jobs`` for this job.  Either way the
    report is byte-identical — the engine's jobs-invariance contract
    (``docs/parallel.md``) is what makes the service's byte-for-byte
    guarantee automatic rather than heroic.
    """

    bug: str
    tenant: str = "default"
    sketch: str = "sync"
    seed: Optional[int] = None
    max_attempts: int = 400
    jobs: int = 0
    ncpus: int = 4
    meta: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bug or not isinstance(self.bug, str):
            raise ProtocolError(400, "bug: required non-empty string")
        if not TENANT_RE.match(self.tenant):
            raise ProtocolError(
                400, f"tenant: must match {TENANT_RE.pattern!r}"
            )
        if not isinstance(self.sketch, str):
            raise ProtocolError(400, "sketch: must be a string")
        if self.seed is not None and not _is_int(self.seed):
            raise ProtocolError(400, "seed: must be an integer or null")
        if not _is_int(self.max_attempts):
            raise ProtocolError(400, "max_attempts: must be an integer")
        if not _is_int(self.jobs) or self.jobs < 0:
            raise ProtocolError(400, "jobs: must be a non-negative integer")
        if not _is_int(self.ncpus) or self.ncpus > 64:
            raise ProtocolError(400, "ncpus: must be an integer of at most 64")
        if not isinstance(self.meta, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in self.meta.items()
        ):
            raise ProtocolError(400, "meta: must map strings to strings")
        try:
            self.reproduce_request()
        except (SimUsageError, ValueError) as exc:  # ValueError: sketch
            raise ProtocolError(400, str(exc)) from None

    def reproduce_request(self) -> ReproduceRequest:
        """What ``pres reproduce`` builds from the same flags; its rules
        answer 400 at parse time, before a job exists."""
        return ReproduceRequest(
            self.bug, sketch=parse_sketch_kind(self.sketch), seed=self.seed,
            ncpus=self.ncpus, max_attempts=self.max_attempts,
        )

    @classmethod
    def from_json(cls, body: bytes) -> "JobRequest":
        """Parse and validate a request body; 400 on any defect."""
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ProtocolError(400, f"body: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ProtocolError(400, "body: expected a JSON object")
        known = {
            "bug", "tenant", "sketch", "seed", "max_attempts",
            "jobs", "ncpus", "meta",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ProtocolError(400, f"unknown fields: {', '.join(unknown)}")
        if "bug" not in doc:
            raise ProtocolError(400, "bug: required non-empty string")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise ProtocolError(400, f"body: {exc}") from exc

    def to_json(self) -> Dict[str, object]:
        """The document form echoed back in status responses."""
        return {
            "bug": self.bug,
            "tenant": self.tenant,
            "sketch": self.sketch,
            "seed": self.seed,
            "max_attempts": self.max_attempts,
            "jobs": self.jobs,
            "ncpus": self.ncpus,
            "meta": dict(sorted(self.meta.items())),
        }
