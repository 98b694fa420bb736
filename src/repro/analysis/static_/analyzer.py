"""Static concurrency analysis over extracted program structure.

Consumes an :class:`~repro.analysis.static_.extract.Extraction` and
produces a static :class:`~repro.core.plan.Plan`:

* a shared-region access map with static (must-hold) locksets,
* a may-happen-in-parallel (MHP) approximation from the spawn/join
  structure of the main thread,
* static race / use-after-free / use-before-init findings,
* static atomicity windows (read..use in one thread, interfering writer
  in another, both interleaving diagonals),
* static deadlock candidates from cross-thread lock-order cycles,
* ranked, deduplicated trigger candidates over *reliable* accesses only
  — the ones the PIR gate can resolve as ``region``/``lock`` EventRefs.

Everything iterates in deterministic order (thread lists, site order,
region sort keys); two runs over the same program produce byte-identical
plans, which CI checks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.constraints import (
    ConstraintSet,
    EventRef,
    OrderConstraint,
    constraint_sort_key,
    ordered_constraints,
    region_key,
)
from repro.core.plan import STATIC, Finding, Plan, PlanCandidate
from repro.sim.ops import Address, OpKind
from repro.sim.program import Program

from repro.analysis.static_.extract import (
    AccessSite,
    AcquireRec,
    Extraction,
    LockName,
    ThreadWalk,
    UNKNOWN_REGION,
    extract_program,
)
from repro.analysis.static_.model import (
    LOCK_SHARED,
    StaticAccess,
    StaticAtomicity,
    StaticDeadlock,
    StaticRace,
    ThreadRole,
    region_sort_key,
)

#: Cap on shipped candidates: the static tier runs *before* mined
#: feedback, so junk here delays real wins — keep the list short.
MAX_STATIC_CANDIDATES = 12

#: Max effect distance between the two accesses of an atomicity window,
#: and between the interfering writer's two writes.
WINDOW_SPAN = 12

#: Cap on raw findings *stored* in the plan (candidate generation still
#: sees everything): loop-heavy apps produce thousands of window/writer
#: combinations and the plan JSON must stay reviewable.
MAX_STORED_FINDINGS = 64

#: Score multiplier when the window and its interferer sit in different
#: barrier phases (usually unreachable; keep, but rank last).
CROSS_PHASE_FACTOR = 0.4

_WRITE_KINDS = frozenset({OpKind.WRITE, OpKind.RMW, OpKind.CAS, OpKind.FREE})
_READ_KINDS = frozenset({OpKind.READ, OpKind.RMW, OpKind.CAS})

_BASE_SCORE = {
    "use-after-free": 0.85,
    "atomicity": 0.80,
    "use-before-init": 0.80,
    "race-exact": 0.75,
    "race": 0.50,
    "deadlock": 0.70,
}


#: A candidate before ranking, with the regions it touches (the
#: failure-hint filter keeps only candidates touching relevant regions).
_Ranked = Tuple[PlanCandidate, Tuple[Address, ...]]


def _ranked(
    pins: Sequence[OrderConstraint],
    source: str,
    score: float,
    regions: Tuple[Address, ...],
    note: str,
) -> _Ranked:
    return PlanCandidate(frozenset(pins), source, score, note), regions


class _Analysis:
    def __init__(self, extraction: Extraction, failure: Optional[str]) -> None:
        self.ex = extraction
        self.failure = (failure or "").strip()
        self.notes: List[str] = list(extraction.notes)
        self.walks: Dict[int, ThreadWalk] = {
            walk.tid: walk for walk in extraction.threads
        }
        self.roles: Dict[int, ThreadRole] = {
            role.tid: role for role in extraction.roles
        }
        self.tids = sorted(self.walks)

    # -- MHP approximation ----------------------------------------------

    def _interval(self, tid: int) -> Tuple[int, float]:
        """(spawn position, join position) of a thread in main's clock."""
        role = self.roles.get(tid)
        if role is None:  # main: alive for the whole run
            return (-1, float("inf"))
        end = float("inf") if role.join_pos < 0 else role.join_pos
        return (role.spawn_pos, end)

    def mhp_threads(self, tid_a: int, tid_b: int) -> bool:
        """May threads a and b overlap at all?  (Spawn/join edges only —
        condvars, semaphores and barriers are deliberately ignored, so
        this over-approximates the dynamic happens-before relation.)"""
        if tid_a == tid_b:
            return False
        start_a, end_a = self._interval(tid_a)
        start_b, end_b = self._interval(tid_b)
        return start_a < end_b and start_b < end_a

    def mhp_sites(self, a: AccessSite, b: AccessSite, tid_a: int, tid_b: int) -> bool:
        """May these two accesses interleave?

        For a role-vs-role pair this is thread-level MHP; when one side
        is main, the main access's own position is checked against the
        role's alive interval (main's accesses before a spawn or after a
        join cannot race with that thread).
        """
        if not self.mhp_threads(tid_a, tid_b):
            return False
        if tid_a == 0:
            start, end = self._interval(tid_b)
            if not (start < a.pos < end):
                return False
        if tid_b == 0:
            start, end = self._interval(tid_a)
            if not (start < b.pos < end):
                return False
        return True

    # -- lock reasoning --------------------------------------------------

    @staticmethod
    def _excluded(a: StaticAccess, b: StaticAccess) -> bool:
        """Whether a common (concrete, not-both-shared) lock serializes
        the two accesses.  Pattern names (``*``) never count: a pattern
        stands for *some* lock, not provably the same one."""
        held_a = {
            (name, mode) for name, mode in a.lockset if "*" not in name
        }
        for name, mode in b.lockset:
            if "*" in name:
                continue
            for other_name, other_mode in held_a:
                if other_name != name:
                    continue
                if mode == LOCK_SHARED and other_mode == LOCK_SHARED:
                    continue
                return True
        return False

    @staticmethod
    def _addr_conflict(a: StaticAccess, b: StaticAccess) -> Optional[bool]:
        """True/False when both concrete addresses are known, else None."""
        if a.addr is None or b.addr is None:
            return None
        return a.addr == b.addr

    def _phase_factor(self, a: StaticAccess, b: StaticAccess) -> float:
        return 1.0 if a.phase == b.phase else CROSS_PHASE_FACTOR

    # -- access map ------------------------------------------------------

    def _by_region(self) -> Dict[Address, Dict[int, List[AccessSite]]]:
        table: Dict[Address, Dict[int, List[AccessSite]]] = {}
        for tid in self.tids:
            for site in self.walks[tid].sites:
                table.setdefault(site.access.region, {}).setdefault(
                    tid, []
                ).append(site)
        return table

    def regions(self) -> Tuple[Address, ...]:
        return tuple(sorted(self._by_region(), key=region_sort_key))

    def initial_regions(self) -> Set[Address]:
        return {
            region_key(addr)
            for addr in self.ex.program.initial_memory
        }

    # -- races -----------------------------------------------------------

    def find_races(self) -> List[StaticRace]:
        """Exhaustive at (region, tid pair, signature pair) granularity:
        the dynamic sanitizer's predictions must embed into this list."""
        races: List[StaticRace] = []
        initial = self.initial_regions()
        by_region = self._by_region()
        for region in sorted(by_region, key=region_sort_key):
            if region == UNKNOWN_REGION:
                continue
            per_tid = by_region[region]
            tids = sorted(per_tid)
            for index_a, tid_a in enumerate(tids):
                for tid_b in tids[index_a + 1:]:
                    races.extend(
                        self._race_pairs(
                            region, tid_a, per_tid[tid_a],
                            tid_b, per_tid[tid_b], initial,
                        )
                    )
        return races

    def _race_pairs(
        self,
        region: Address,
        tid_a: int,
        sites_a: List[AccessSite],
        tid_b: int,
        sites_b: List[AccessSite],
        initial: Set[Address],
    ) -> List[StaticRace]:
        races: List[StaticRace] = []
        seen: Set[Tuple] = set()
        for site_a in sites_a:
            for site_b in sites_b:
                a, b = site_a.access, site_b.access
                if (
                    a.kind not in _WRITE_KINDS
                    and b.kind not in _WRITE_KINDS
                ):
                    continue
                if not self.mhp_sites(site_a, site_b, tid_a, tid_b):
                    continue
                if self._excluded(a, b):
                    continue
                if self._addr_conflict(a, b) is False:
                    continue
                signature = (
                    a.kind, a.lockset, a.func, a.line,
                    b.kind, b.lockset, b.func, b.line,
                )
                if signature in seen:
                    continue
                seen.add(signature)
                if a.kind is OpKind.FREE or b.kind is OpKind.FREE:
                    kind = "use-after-free"
                elif region not in initial:
                    kind = "use-before-init"
                else:
                    kind = "race"
                exact = self._addr_conflict(a, b) is True
                base = _BASE_SCORE[
                    kind if kind != "race"
                    else ("race-exact" if exact else "race")
                ]
                score = round(base * self._phase_factor(a, b), 4)
                races.append(
                    StaticRace(
                        region=region, first=a, second=b,
                        score=score, kind=kind,
                    )
                )
        return races

    def race_candidates(self, races: Sequence[StaticRace]) -> List[_Ranked]:
        candidates: List[_Ranked] = []
        for race in races:
            a, b = race.first, race.second
            if not (a.reliable and b.reliable):
                continue
            if race.kind == "use-after-free":
                free, victim = (a, b) if a.kind is OpKind.FREE else (b, a)
                if victim.kind is OpKind.FREE:
                    continue  # double free: ordering cannot crash it
                candidates.append(_ranked(
                    [OrderConstraint(free.ref(), victim.ref())],
                    "use-after-free", race.score, (race.region,),
                    f"free in T{free.tid} before use in T{victim.tid}",
                ))
                continue
            if race.kind == "use-before-init":
                if a.kind in _WRITE_KINDS and b.kind is OpKind.READ:
                    writer, reader = a, b
                elif b.kind in _WRITE_KINDS and a.kind is OpKind.READ:
                    writer, reader = b, a
                else:
                    continue
                candidates.append(_ranked(
                    [OrderConstraint(reader.ref(), writer.ref())],
                    "use-before-init", race.score, (race.region,),
                    f"T{reader.tid} reads {race.region!r} before "
                    f"T{writer.tid} initializes it",
                ))
                continue
            for before, after in ((a, b), (b, a)):
                candidates.append(_ranked(
                    [OrderConstraint(before.ref(), after.ref())],
                    "race", race.score, (race.region,),
                    f"order T{before.tid} before T{after.tid}",
                ))
        return candidates

    # -- atomicity windows -----------------------------------------------

    def find_atomicity(self) -> List[StaticAtomicity]:
        violations: List[StaticAtomicity] = []
        for tid in self.tids:
            for window in self._windows(self.walks[tid]):
                for other in self.tids:
                    if other == tid:
                        continue
                    violations.extend(
                        self._interfere(tid, window, other)
                    )
        return violations

    def _windows(self, walk: ThreadWalk) -> List[Tuple[AccessSite, AccessSite]]:
        """Read..use pairs close together in one thread, same function."""
        windows: List[Tuple[AccessSite, AccessSite]] = []
        sites = walk.sites
        for index, first in enumerate(sites):
            a1 = first.access
            if a1.kind not in _READ_KINDS or not a1.reliable:
                continue
            if a1.region == UNKNOWN_REGION:
                continue
            for second in sites[index + 1:]:
                a2 = second.access
                if second.pos - first.pos > WINDOW_SPAN:
                    break
                if not a2.reliable or a2.region == UNKNOWN_REGION:
                    continue
                if a2.func != a1.func:
                    continue
                windows.append((first, second))
        return windows

    def _interfere(
        self,
        tid: int,
        window: Tuple[AccessSite, AccessSite],
        other: int,
    ) -> List[StaticAtomicity]:
        first, second = window
        a1, a2 = first.access, second.access
        results: List[StaticAtomicity] = []
        writes = [
            site for site in self.walks[other].sites
            if site.access.kind in _WRITE_KINDS and site.access.reliable
        ]
        for index_1, w_site_1 in enumerate(writes):
            w1 = w_site_1.access
            if w1.region != a1.region:
                continue
            if self._addr_conflict(a1, w1) is False:
                continue
            if self._excluded(a1, w1):
                continue
            if not self.mhp_sites(first, w_site_1, tid, other):
                continue
            for w_site_2 in writes[index_1:]:
                w2 = w_site_2.access
                if w_site_2.pos - w_site_1.pos > WINDOW_SPAN:
                    break
                if w2.region != a2.region:
                    continue
                if self._addr_conflict(a2, w2) is False:
                    continue
                if self._excluded(a2, w2):
                    continue
                if w2.func != w1.func:
                    continue
                pattern = (
                    "single-variable" if a1.region == a2.region
                    else "multi-variable"
                )
                tight = 1.0 if second.pos - first.pos <= 4 else 0.9
                exact = (
                    1.1 if self._addr_conflict(a1, w1) is True else 1.0
                )
                score = round(
                    min(
                        0.99,
                        _BASE_SCORE["atomicity"]
                        * self._phase_factor(a1, w1)
                        * tight * exact,
                    ),
                    4,
                )
                results.append(
                    StaticAtomicity(
                        window_first=a1,
                        window_second=a2,
                        writer_first=w1,
                        writer_second=w2,
                        score=score,
                        pattern=pattern,
                    )
                )
        return results

    def atomicity_candidates(
        self, violations: Sequence[StaticAtomicity]
    ) -> List[_Ranked]:
        candidates: List[_Ranked] = []
        for violation in violations:
            a1 = violation.window_first
            a2 = violation.window_second
            w1 = violation.writer_first
            w2 = violation.writer_second
            regions = tuple(
                sorted({a1.region, a2.region}, key=region_sort_key)
            )
            # D1: the writer lands inside the window
            candidates.append(_ranked(
                [OrderConstraint(a1.ref(), w1.ref()),
                 OrderConstraint(w2.ref(), a2.ref())],
                "atomicity", violation.score, regions,
                f"T{w1.tid} writes between T{a1.tid}'s "
                f"{violation.pattern} window",
            ))
            # D2: the window lands inside the writer's section (skip when
            # the writer is a single access: that set contradicts itself)
            if w1.ref() != w2.ref():
                candidates.append(_ranked(
                    [OrderConstraint(w1.ref(), a1.ref()),
                     OrderConstraint(a2.ref(), w2.ref())],
                    "atomicity", round(violation.score * 0.95, 4), regions,
                    f"T{a1.tid}'s window lands inside T{w1.tid}'s "
                    f"write section",
                ))
        return candidates

    # -- deadlocks -------------------------------------------------------

    def find_deadlocks(self) -> List[StaticDeadlock]:
        """Cross-thread 2-cycles in the static lock graph, pattern-aware."""
        deadlocks: List[StaticDeadlock] = []
        seen: Set[Tuple] = set()
        edge_recs = self._acquire_edges()
        for tid_a, hold_a, rec_a in edge_recs:
            for tid_b, hold_b, rec_b in edge_recs:
                if tid_b <= tid_a or not self.mhp_threads(tid_a, tid_b):
                    continue
                # a holds A wants B; b holds B wants A
                if not (
                    self._lock_match(rec_a.name, hold_b.name)
                    and self._lock_match(rec_b.name, hold_a.name)
                ):
                    continue
                trigger = self._deadlock_trigger(
                    tid_a, hold_a, rec_a, tid_b, hold_b, rec_b
                )
                if trigger is None:
                    continue
                cycle = tuple(
                    sorted({hold_a.name.text, hold_b.name.text})
                )
                key = (tid_a, tid_b, cycle, ordered_constraints(trigger))
                if key in seen:
                    continue
                seen.add(key)
                deadlocks.append(
                    StaticDeadlock(
                        cycle=cycle,
                        tids=(tid_a, tid_b),
                        trigger=trigger,
                        score=_BASE_SCORE["deadlock"],
                    )
                )
        return deadlocks

    def _acquire_edges(self) -> List[Tuple[int, AcquireRec, AcquireRec]]:
        """(tid, holder acquisition, nested acquisition) triples."""
        triples: List[Tuple[int, AcquireRec, AcquireRec]] = []
        for tid in self.tids:
            recs = self.walks[tid].acquires
            for rec in recs:
                for held_name in rec.held_names:
                    holder = self._holder_rec(recs, rec, held_name)
                    if holder is not None:
                        triples.append((tid, holder, rec))
        return triples

    @staticmethod
    def _holder_rec(
        recs: Sequence[AcquireRec], nested: AcquireRec, held: LockName
    ) -> Optional[AcquireRec]:
        """The latest acquisition of ``held`` before ``nested``."""
        best: Optional[AcquireRec] = None
        for rec in recs:
            if rec.pos >= nested.pos:
                break
            if rec.name.text == held.text:
                best = rec
        return best

    @staticmethod
    def _lock_match(a: LockName, b: LockName) -> bool:
        if not a.is_pattern and not b.is_pattern:
            return a.text == b.text
        if a.is_pattern and not b.is_pattern:
            return a.matches(b.text)
        if b.is_pattern and not a.is_pattern:
            return b.matches(a.text)
        return False  # two patterns: no concrete witness

    def _deadlock_trigger(
        self,
        tid_a: int,
        hold_a: AcquireRec,
        rec_a: AcquireRec,
        tid_b: int,
        hold_b: AcquireRec,
        rec_b: AcquireRec,
    ) -> Optional[ConstraintSet]:
        """Order both threads into the held-and-wanting configuration.

        Thread a holds A and wants B; thread b holds B and wants A.
        Steer: b takes B before a asks for B, and a takes A before b
        asks for A.  Pattern-named refs borrow the concrete name from
        the matching side (first acquisition of that name: occurrence 1).
        """
        constraints: Set[OrderConstraint] = set()
        for holder_tid, holder, waiter_tid, waiter in (
            (tid_b, hold_b, tid_a, rec_a),  # B's owner before a's want
            (tid_a, hold_a, tid_b, rec_b),  # A's owner before b's want
        ):
            if holder.name.is_pattern or holder.occurrence <= 0:
                return None  # the held side must be a nameable event
            name = holder.name.text
            waiter_occ = (
                1 if waiter.name.is_pattern else waiter.occurrence
            )
            if waiter_occ <= 0:
                return None
            constraints.add(
                OrderConstraint(
                    EventRef(holder_tid, "lock", name, holder.occurrence),
                    EventRef(waiter_tid, "lock", name, waiter_occ),
                )
            )
        return frozenset(constraints)

    def deadlock_candidates(
        self, deadlocks: Sequence[StaticDeadlock]
    ) -> List[_Ranked]:
        return [
            _ranked(
                deadlock.trigger, "deadlock", deadlock.score, (),
                f"lock cycle {'/'.join(deadlock.cycle)}",
            )
            for deadlock in deadlocks
        ]

    # -- failure-artifact filtering --------------------------------------

    def relevant_regions(self) -> Optional[FrozenSet[Address]]:
        """Regions implicated by the failure hint, or None for no filter.

        SysPro-style: match the hint against ``ctx.check`` messages, take
        the regions those assertions read (transitively: a write to a
        relevant region pulls in the regions read by the same function of
        the same thread), and keep only candidates touching them.
        """
        if not self.failure:
            return None
        hint = self.failure.lower()
        matched: Set[Address] = set()
        hit = False
        for tid in self.tids:
            for check in self.walks[tid].checks:
                msg = check.msg.lower()
                if hint in msg or msg in hint:
                    hit = True
                    matched |= check.regions
        if not hit:
            self.notes.append(
                f"failure hint {self.failure!r} matched no assertion; "
                "candidates unfiltered"
            )
            return None
        # fixpoint closure over def-use at (thread, function) granularity
        while True:
            added = False
            for tid in self.tids:
                funcs: Set[str] = set()
                for site in self.walks[tid].sites:
                    if (
                        site.access.kind in _WRITE_KINDS
                        and site.access.region in matched
                    ):
                        funcs.add(site.access.func)
                for site in self.walks[tid].sites:
                    if (
                        site.access.func in funcs
                        and site.access.kind in _READ_KINDS
                        and site.access.region not in matched
                    ):
                        matched.add(site.access.region)
                        added = True
            if not added:
                break
        return frozenset(matched)

    # -- assembly --------------------------------------------------------

    def rank(
        self, candidates: Sequence[_Ranked], max_candidates: int
    ) -> Tuple[List[PlanCandidate], bool]:
        relevant = self.relevant_regions()
        best: Dict[ConstraintSet, PlanCandidate] = {}
        for candidate, regions in candidates:
            if not candidate.constraints:
                continue
            if relevant is not None and regions and not (
                set(regions) & relevant
            ):
                continue
            current = best.get(candidate.constraints)
            if current is None or candidate.confidence > current.confidence:
                best[candidate.constraints] = candidate
        ranked = sorted(
            best.values(),
            key=lambda c: (
                -c.confidence,
                c.source,
                tuple(
                    constraint_sort_key(x)
                    for x in ordered_constraints(c.constraints)
                ),
            ),
        )
        return ranked[:max_candidates], len(ranked) > max_candidates


def analyze_extraction(
    extraction: Extraction,
    failure: Optional[str] = None,
    max_candidates: int = MAX_STATIC_CANDIDATES,
    max_findings: int = MAX_STORED_FINDINGS,
) -> Plan:
    """Run the full static analysis over an extraction.

    ``max_findings`` caps the races/atomicity windows *stored* on the
    plan (candidate ranking always sees everything); raise it when a
    consumer needs the exhaustive over-approximation, e.g. the suite's
    dynamic-containment check.
    """
    analysis = _Analysis(extraction, failure)
    races = analysis.find_races()
    violations = analysis.find_atomicity()
    deadlocks = analysis.find_deadlocks()
    candidates, truncated = analysis.rank(
        analysis.race_candidates(races)
        + analysis.atomicity_candidates(violations)
        + analysis.deadlock_candidates(deadlocks),
        max_candidates,
    )
    if truncated:
        analysis.notes.append(
            f"candidate list capped at {max_candidates}"
        )
    stored_races = _top_findings(races, max_findings)
    stored_violations = _top_findings(violations, max_findings)
    if len(stored_races) < len(races):
        analysis.notes.append(
            f"storing top {len(stored_races)} of {len(races)} races"
        )
    if len(stored_violations) < len(violations):
        analysis.notes.append(
            f"storing top {len(stored_violations)} of "
            f"{len(violations)} atomicity windows"
        )
    program = extraction.program
    main_role = ThreadRole(
        tid=0,
        name=getattr(program.main, "__name__", "main"),
        args=(),
        spawn_pos=0,
        join_pos=-1,
    )
    findings = [
        Finding(
            "race", (race.first.tid, race.second.tid), (race.region,),
            race.score, race.describe(),
        )
        for race in stored_races
    ] + [
        Finding(
            "atomicity", (v.window_first.tid, v.writer_first.tid),
            tuple(sorted(
                {v.window_first.region, v.window_second.region},
                key=region_sort_key,
            )),
            v.score, v.describe(),
        )
        for v in stored_violations
    ] + [
        Finding(
            "deadlock", d.tids, d.cycle, d.score, d.describe(), d.trigger
        )
        for d in deadlocks
    ]
    return Plan(
        provenance=STATIC,
        subject=program.name,
        findings=tuple(findings),
        candidates=tuple(candidates),
        notes=tuple(analysis.notes),
        threads=tuple(
            role.describe() for role in (main_role,) + tuple(extraction.roles)
        ),
        regions=analysis.regions(),
        failure=analysis.failure,
        complete=extraction.complete,
    )


def _top_findings(findings: Sequence, limit: int = MAX_STORED_FINDINGS) -> List:
    """Highest-scoring findings in stable (deterministic) order."""
    indexed = sorted(
        range(len(findings)), key=lambda i: (-findings[i].score, i)
    )
    return [findings[i] for i in indexed[:limit]]


def analyze_program(
    program: Program,
    failure: Optional[str] = None,
    max_candidates: int = MAX_STATIC_CANDIDATES,
    max_findings: int = MAX_STORED_FINDINGS,
) -> Plan:
    """Extract and analyze a program in one step (the CLI entry point)."""
    return analyze_extraction(
        extract_program(program),
        failure=failure,
        max_candidates=max_candidates,
        max_findings=max_findings,
    )
