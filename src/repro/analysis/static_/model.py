"""Data model for the static concurrency analyzer.

The static pass (:mod:`repro.analysis.static_.analyzer`) walks guest
program *structure* — thread bodies as Python generators, never executed
— and reports what it can prove or suspect about shared-state access:
who touches which region, under which locks, which accesses may happen
in parallel, and which interleavings look like race / atomicity /
deadlock triggers.  :func:`~repro.analysis.static_.analyze_program`
turns these findings into a static :class:`~repro.core.plan.Plan`.

Static refs live in the ``region`` constraint family: the analyzer sees
``("row", i)`` with a loop-dependent ``i``, so it names accesses by the
region head ``"row"`` and a per-thread occurrence index that the runtime
resolves through :func:`repro.core.constraints.region_key`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.core.constraints import ConstraintSet, EventRef, _key_token
from repro.sim.ops import Address, OpKind

#: Lock modes recorded in static locksets: "x" exclusive, "s" shared.
LOCK_EXCLUSIVE = "x"
LOCK_SHARED = "s"


@dataclass(frozen=True)
class StaticAccess:
    """One shared-state access site, as seen along one abstract path.

    ``occurrence`` is the 1-based per-(tid, region) index of this access
    when the walk could count it exactly, and 0 when control flow made
    the count unreliable (divergent branch counts, unbounded loops).
    Only reliable accesses can anchor EventRefs.
    """

    tid: int
    kind: OpKind
    region: Address
    occurrence: int  # 0 = unreliable (cannot be named by a ref)
    lockset: Tuple[Tuple[str, str], ...] = ()  # ((name, mode), ...)
    func: str = ""
    line: int = 0
    phase: int = 0  # barrier-crossing count before this access
    addr: Optional[Address] = None  # full concrete address when known

    @property
    def reliable(self) -> bool:
        return self.occurrence > 0

    def ref(self) -> EventRef:
        """The region-family ref naming this access (reliable only)."""
        if not self.reliable:
            raise ValueError(f"unreliable access has no ref: {self}")
        return EventRef(self.tid, "region", self.region, self.occurrence)

    def describe(self) -> str:
        tag = f"#{self.occurrence}" if self.reliable else "#?"
        held = ",".join(name for name, _ in self.lockset) or "-"
        return (
            f"T{self.tid}:{self.kind.name}[{self.region!r}]{tag}"
            f"@{self.func}:{self.line} locks={{{held}}}"
        )


@dataclass(frozen=True)
class ThreadRole:
    """A statically known thread: who spawns it, when, and its body."""

    tid: int
    name: str  # body function name
    args: Tuple[Any, ...] = ()
    spawn_pos: int = 0  # spawner's effect position of the SPAWN
    join_pos: int = -1  # spawner's effect position of the JOIN (-1: never)

    def describe(self) -> str:
        joined = f"join@{self.join_pos}" if self.join_pos >= 0 else "no join"
        return f"T{self.tid}={self.name}{self.args!r} spawn@{self.spawn_pos} {joined}"


@dataclass(frozen=True)
class StaticRace:
    """Two MHP accesses to one region, at least one write, no common lock."""

    region: Address
    first: StaticAccess
    second: StaticAccess
    score: float
    kind: str = "race"  # "race" | "use-after-free" | "use-before-init"

    def describe(self) -> str:
        return (
            f"static {self.kind} on {self.region!r}: "
            f"{self.first.describe()} vs {self.second.describe()} "
            f"(score {self.score:.2f})"
        )


@dataclass(frozen=True)
class StaticAtomicity:
    """A read...use window in one thread with an interfering writer."""

    window_first: StaticAccess
    window_second: StaticAccess
    writer_first: StaticAccess
    writer_second: StaticAccess
    score: float
    pattern: str = "single-variable"  # or "multi-variable"

    def describe(self) -> str:
        return (
            f"static atomicity ({self.pattern}): window "
            f"{self.window_first.describe()} .. {self.window_second.describe()} "
            f"vs writer T{self.writer_first.tid} (score {self.score:.2f})"
        )


@dataclass(frozen=True)
class StaticDeadlock:
    """A cross-thread lock-order cycle with a trigger constraint set."""

    cycle: Tuple[str, ...]  # lock names around the cycle
    tids: Tuple[int, ...]
    trigger: ConstraintSet
    score: float

    def describe(self) -> str:
        ring = " -> ".join(self.cycle + (self.cycle[0],)) if self.cycle else "?"
        return (
            f"static deadlock cycle [{ring}] threads "
            f"{list(self.tids)} (score {self.score:.2f})"
        )


def region_sort_key(region: Address) -> Tuple:
    """Total order over region keys (str / int / tuple mixtures)."""
    return _key_token(region)
