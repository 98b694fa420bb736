#!/usr/bin/env python
"""What-if replay: vary the ending of a captured bug, then verify the fix.

Once PRES has a deterministic reproduction, the complete log is more than
a replay button — it is a *position* you can explore from.  This example:

1. captures the miniMySQL binlog bug and prints the failure timeline;
2. replays the captured schedule up to just before the fatal window and
   lets a fresh scheduler vary the ending ("was this a one-off ordering,
   or is the state already poisoned?");
3. runs the same what-if sweep against the fixed build, showing that no
   ending fails once the patch is in.

Run:  python examples/whatif_replay.py
"""

from repro import ExplorerConfig, SketchKind, record, replay_complete, reproduce
from repro.analysis import failure_window
from repro.apps import get_bug
from repro.bench import find_failing_seed
from repro.core.recorder import apply_oracle
from repro.sim import FixedOrderScheduler, Machine, MachineConfig, RandomScheduler

spec = get_bug("mysql-atom-log")
program = spec.make_program()
print(f"target: {spec.describe()}\n")

# -- 1. capture the bug -------------------------------------------------------

seed = find_failing_seed(spec)
recorded = record(program, sketch=SketchKind.SYNC, seed=seed, oracle=spec.oracle)
report = reproduce(recorded, ExplorerConfig(max_attempts=400))
assert report.success
print(f"captured after {report.attempts} attempt(s)")

trace = replay_complete(program, report.complete_log, oracle=spec.oracle)
print("\ntimeline around the failure:")
print(failure_window(trace, context=8))

# -- 2. what-if: how early is the run already doomed? -------------------------
#
# Bisect over prefix lengths: for each cut, replay the captured schedule up
# to the cut and let 15 fresh schedules finish the run.  The cut where
# endings stop surviving brackets the fatal window — the point where the
# lost binlog entry actually happened, far before the end-of-run assert.

def doomed_fraction(cut, endings=15):
    failed = 0
    for ending_seed in range(endings):
        scheduler = FixedOrderScheduler(
            trace.schedule[:cut], then=RandomScheduler(ending_seed)
        )
        what_if = Machine(program, scheduler, report.complete_log.config).run()
        if apply_oracle(what_if, spec.oracle) is not None:
            failed += 1
    return failed / endings

print("\nwhat-if sweep: replay a prefix, vary the ending x15")
total = len(trace.schedule)
for fraction in (0.2, 0.4, 0.6, 0.8, 1.0):
    cut = int(total * fraction) - 2
    doomed = doomed_fraction(cut)
    bar = "#" * round(doomed * 20)
    print(f"  prefix {fraction:4.0%} ({cut:4d} steps): "
          f"{doomed:4.0%} of endings fail  {bar}")
print("  -> once the prefix covers the racy append window, every ending is "
      "doomed:\n     the damage (a lost entry) precedes the assert by "
      "hundreds of steps.")

# -- 3. the same sweep against the fixed build --------------------------------

fixed = spec.make_fixed_program()
print("\nsame sweep against the patched server (append holds LOCK_log):")
fixed_failures = 0
for ending_seed in range(30):
    what_if = Machine(
        fixed, RandomScheduler(ending_seed), report.complete_log.config
    ).run()
    if apply_oracle(what_if, spec.oracle) is not None:
        fixed_failures += 1
print(f"  {fixed_failures}/30 runs fail after the fix")
assert fixed_failures == 0
print("\nfix verified: no schedule reaches the lost-entry state anymore.")
