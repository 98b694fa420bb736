#!/usr/bin/env python3
"""CI regression gate over an E12 speedup JSON artifact.

Reads the ``BENCH_e12.json`` written by ``pres bench e12 --json`` and
fails (exit 1) when the parallel engine has regressed:

* any arm reports ``matches_serial: false`` — the deterministic-merge
  contract broke, which is a correctness bug whatever the wall times;
* the ``pool jobs=4`` arm's wall speedup fell below the floor
  (default 1.5x — the CI runner has spare cores, so the warm pool must
  actually beat serial);
* the ``pool jobs=4`` arm made no schedule-prefix resumes
  (``prefix_hits == 0``) — the memoization path silently stopped
  engaging;
* the arms that replayed live (every arm but the ``cached re-walk``,
  whose attempts are answered from the cache) disagree on
  ``prefix_hits`` — one engine plans its resumes from the exploration
  schedule alone, so ``jobs`` must not move the count;
* a live arm realized fewer than all of its planned resumes
  (``realized_resumes`` below ``REALIZED_FLOOR`` x ``prefix_hits``) —
  the engine's prefix tree stopped holding the parents its plans need.
  Realized counts are schedule-deterministic, so any shortfall is a
  regression, not noise.

The speedup floor is only enforced when the host really had more usable
cores than the arm asked for (``meta.host_cpus``); on a starved runner
the gate reports the measurement but only the correctness checks fail
the build.  Used by the ``speedup-gate`` CI job.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

#: minimum acceptable wall speedup for the widest pool arm on a
#: multi-core runner (ISSUE acceptance asks for >2x; the gate floor is
#: deliberately looser so runner noise cannot flake the build).
SPEEDUP_FLOOR = 1.5
GATED_ARM = "pool jobs=4"
#: the arm whose attempts come from the cache, so it plans no resumes.
CACHED_ARM = "cached re-walk"
#: share of planned resumes a live arm must realize.
REALIZED_FLOOR = 1.0


def check(data: Dict[str, Any], floor: float = SPEEDUP_FLOOR) -> List[str]:
    """Every gate failure in ``data`` (an E12 BenchResult JSON dict)."""
    failures: List[str] = []
    records = data.get("records", [])
    meta = data.get("meta", {})
    if not records:
        return ["no arms in the artifact (records is empty)"]

    for arm in records:
        if not arm.get("matches_serial", False):
            failures.append(
                f"{arm.get('label', '?')}: matches_serial is false — "
                "the deterministic-merge contract broke"
            )

    live_arms = [arm for arm in records if arm.get("label") != CACHED_ARM]
    live = {
        arm.get("label", "?"): int(arm.get("prefix_hits", 0))
        for arm in live_arms
    }
    if len(set(live.values())) > 1:
        failures.append(
            "live arms disagree on prefix_hits ("
            + ", ".join(f"{label}: {hits}" for label, hits in live.items())
            + ") — resume planning must depend on the schedule alone"
        )
    for arm in live_arms:
        planned = int(arm.get("prefix_hits", 0))
        realized = int(arm.get("realized_resumes", 0))
        if realized < REALIZED_FLOOR * planned:
            failures.append(
                f"{arm.get('label', '?')}: realized {realized} of {planned} "
                f"planned resumes, below the {REALIZED_FLOOR:.0%} floor — "
                "the prefix tree lost the parents its plans need"
            )

    gated = next((a for a in records if a.get("label") == GATED_ARM), None)
    if gated is None:
        failures.append(f"artifact has no '{GATED_ARM}' arm")
        return failures

    host_cpus = int(meta.get("host_cpus", 0))
    enough_cores = host_cpus >= int(gated.get("jobs", 0))
    speedup = float(gated.get("speedup", 0.0))
    if enough_cores and speedup < floor:
        failures.append(
            f"{GATED_ARM}: speedup {speedup:.2f}x is below the "
            f"{floor:.1f}x floor on a {host_cpus}-core host"
        )
    if int(gated.get("prefix_hits", 0)) <= 0:
        failures.append(
            f"{GATED_ARM}: prefix_hits is 0 — schedule-prefix "
            "memoization never engaged"
        )
    return failures


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: check_speedup.py BENCH_e12.json", file=sys.stderr)
        return 2
    path = Path(argv[0])
    data = json.loads(path.read_text(encoding="utf-8"))
    meta = data.get("meta", {})
    if "warning" in meta:
        print(f"note: {meta['warning']}")
    for arm in data.get("records", []):
        print(
            f"  {arm.get('label', '?'):>16}: {arm.get('speedup', 0):>6}x, "
            f"prefix_hits={arm.get('prefix_hits', 0)}, "
            f"realized_resumes={arm.get('realized_resumes', 0)}, "
            f"matches_serial={arm.get('matches_serial')}"
        )
    failures = check(data)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("speedup gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
