"""Command-line interface: ``pres`` (or ``python -m repro``).

Subcommands::

    pres bugs                         list the evaluated bug suite
    pres find-seed BUG                find a failing production run
    pres record BUG [--sketch SYNC]   record a production run, show stats
    pres analyze LOG [--json]         predict races/deadlocks from a sketch
    pres analyze BUG --static         predict them from program structure
    pres reproduce BUG [...]          full pipeline: record -> PIR -> log
    pres replay BUG --log FILE        deterministic replay of a saved log
    pres inspect TRACE                render a saved observability trace
    pres doctor LOG [--out FILE]      validate/salvage an on-disk artifact
    pres store stats|verify|gc DIR    manage a cross-run attempt store
    pres serve [--port N]             run the reproduction service (HTTP)
    pres submit BUG [--wait]          submit a job to a running service
    pres jobs [--tenant T]            list jobs on a running service

Replay as a service (see docs/service.md): ``pres serve`` runs a
long-lived multi-tenant server that accepts reproduction jobs over HTTP
and multiplexes them over one warm engine — a shared replay worker pool
and a per-tenant cross-run attempt store — so repeat reproductions cost
a store lookup instead of a cold exploration.  Reports are byte-identical
to the serial CLI (``pres reproduce --report-out`` vs ``pres submit
--wait --report-out``).

Cross-run attempt store (see docs/store.md): ``reproduce --store DIR``
persists every replay-attempt outcome to a crash-safe, sharded store and
answers repeat attempts from it — a warm second reproduction of the same
recording replays nothing live and reports the identical schedule.
``pres store`` exposes the maintenance surface: ``stats`` (size/record
totals), ``verify`` (per-shard integrity; exit 1 on damage), and ``gc
--max-records N`` (deterministic oldest-recorded-first eviction).

Predictive analysis (see docs/predictive-analysis.md): both passes
print a ranked :class:`~repro.core.plan.Plan` and ``--out`` saves it as
``pres-plan-v2`` JSON.  ``analyze`` runs the sanitizer over a sketch
log that ``pres record`` wrote (its ``--journal`` or its ``--out`` JSON);
``reproduce --plan`` records a rich RW sketch of the same run, builds
the dynamic plan from it, and seeds the plan's candidates into the first
replay attempts at the requested (coarser) ``--sketch`` level.

Static analysis (see docs/predictive-analysis.md, "Static analysis"):
``analyze BUG --static`` needs no log at all — it walks the program's
thread bodies, builds the shared-variable access map, static locksets
and may-happen-in-parallel intervals, and prints ranked race /
atomicity / deadlock candidates (``--failure TEXT`` filters them to a
bug report's def-use slice).  ``reproduce --static`` seeds those
candidates into exploration at ``TIER_STATIC`` — after any dynamic plan
seeds, interleaved with mined flips — and ``reproduce --static-plan
FILE`` reuses a saved static plan instead of re-analyzing.

Observability flags (see docs/observability.md): ``reproduce`` accepts
``--trace-out FILE`` (Chrome ``trace_event`` JSON — open in Perfetto or
feed to ``pres inspect``) and ``--metrics-out FILE`` (counters / gauges /
histograms snapshot); ``bench`` accepts the same pair; ``doctor`` accepts
``--metrics-out``.  The reproduced execution JSONL that ``--trace-out``
used to write now lives under ``--exec-out``.

Fault tolerance flags (see docs/internals.md, "Fault tolerance"):
``record``/``reproduce`` accept ``--journal`` (crash-consistent sketch
journaling) and ``--inject-fault kill@K|truncate@N|garble@S|drop@S``;
``reproduce`` accepts ``--salvage`` and ``--degrade``.  Parse errors in
on-disk artifacts exit 2 with a message — never a traceback.

Resilience flags (see docs/resilience.md): ``reproduce`` accepts
``--attempt-timeout`` / ``--max-retries`` (worker supervision: deadlines,
retry with deterministic backoff, pool rebuild, serial fallback) and
``--chaos SPEC`` (seeded fault injection —
``crash=P,hang=P,corrupt=P,seed=N`` — under which reported results still
match the fault-free run).  ``pres doctor DIR`` triages a store
directory; ``--clean`` removes stale temp files a killed run left.  A
``Ctrl-C`` during ``reproduce`` terminates workers, flushes the
``--store``, prints the partial report, and exits 130 — never a
traceback.  Running the same command again against the same store
resumes: the decided attempts come from the store, and only the rest
replay live, to a byte-identical report.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

from repro.apps import all_bugs, get_bug
from repro.bench.seeds import find_failing_seed
from repro.core.full_replay import CompleteLog, replay_complete
from repro.core.diagnose import diagnose
from repro.core.plan import DYNAMIC, STATIC, Plan, PlanFormatError
from repro.core.recorder import record
from repro.core.reproducer import refuse_uncomposable, render_report
from repro.core.request import (
    ReproduceRequest,
    record_request,
    require_failure,
    run_request,
)
from repro.core.sketches import parse_sketch_kind
from repro.errors import (
    NoFailingRunError,
    RecorderKilled,
    SimUsageError,
    SketchFormatError,
)
from repro.obs.session import ObsSession
from repro.robust.atomic import atomic_write_text
from repro.sim import MachineConfig


def _obs_from_args(args) -> Optional[ObsSession]:
    """A live session when ``--trace-out``/``--metrics-out`` ask for one.

    Metrics are always collected alongside a trace (the snapshot is cheap
    and the pair is how the docs teach reading a session), so
    ``--trace-out`` alone still yields a metrics-capable session.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        return None
    return ObsSession.create(trace=bool(trace_out), metrics=True)


def _write_obs(args, obs: Optional[ObsSession]) -> None:
    """Flush the session's artifacts to the paths the user asked for."""
    if obs is None:
        return
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out:
        obs.write_trace(trace_out)
        print(f"observability trace written to {trace_out} "
              "(open in Perfetto, or `pres inspect`)")
    if metrics_out:
        obs.write_metrics(metrics_out)
        print(f"metrics snapshot written to {metrics_out}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("bug", help="bug id from `pres bugs`")
    parser.add_argument("--sketch", default="sync",
                        help="none|sync|sys|func|bb|rw (default: sync)")
    parser.add_argument("--seed", type=int, default=None,
                        help="production-run seed (default: search)")
    parser.add_argument("--ncpus", type=int, default=4)


def _add_epoch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epoch-steps", type=int, default=0, metavar="N",
                        help="cut an epoch boundary (with a state snapshot) "
                             "every N scheduler steps; 0 disables epoch "
                             "recording (default)")
    parser.add_argument("--epoch-window", type=int, default=0, metavar="K",
                        help="retain only the trailing K epochs of sketch "
                             "entries and snapshots; 0 keeps everything "
                             "(default)")


def _request(args, **fields) -> ReproduceRequest:
    """The (validated) request the common flags plus ``fields`` describe."""
    return ReproduceRequest(
        args.bug, sketch=parse_sketch_kind(args.sketch), seed=args.seed,
        ncpus=args.ncpus, **fields,
    )


def _record(request: ReproduceRequest, journal=None, fault=None, obs=None):
    """:func:`record_request` under the journal flags, announcing a seed
    search on stdout."""
    if request.seed is None:
        print(f"searching for a failing production run of {request.bug} ...")
        request = request.resolved()
        print(f"found failing seed {request.seed}")
    kill_at = fault.arg if fault is not None and fault.kind == "kill" else None
    return record_request(request, obs=obs, record=functools.partial(
        record, journal_path=journal, kill_at_event=kill_at))


def cmd_bugs(args) -> int:
    for spec in all_bugs():
        print(spec.describe())
    return 0


def cmd_find_seed(args) -> int:
    spec = get_bug(args.bug)
    seed = find_failing_seed(spec, budget=args.budget, ncpus=args.ncpus)
    if seed is None:
        print("no failing seed found", file=sys.stderr)
        return 1
    print(seed)
    return 0


def _parse_fault_arg(spec: Optional[str]):
    """Parse --inject-fault, turning bad specs into exit-code-2 errors."""
    if spec is None:
        return None
    from repro.robust.inject import parse_fault

    return parse_fault(spec)


def _inject_file_fault(path: str, plan) -> None:
    from repro.robust.inject import apply_fault

    print(f"fault injected: {apply_fault(path, plan)}")


def cmd_record(args) -> int:
    request = _request(args, epoch_steps=args.epoch_steps,
                       epoch_window=args.epoch_window)
    fault = _parse_fault_arg(args.inject_fault)
    if fault is not None and fault.kind != "kill" and not (args.journal or args.out):
        print("--inject-fault needs --journal or --out to damage", file=sys.stderr)
        return 2
    try:
        recorded = _record(request, args.journal, fault)
    except RecorderKilled as killed:
        print(f"fault injected: {killed}")
        if args.journal:
            from repro.robust.journal import salvage

            print(salvage(args.journal).describe())
        return 0
    print(recorded.describe())
    if recorded.epochs is not None:
        print(f"epochs: {recorded.epochs.describe()}")
    if args.journal:
        print(f"sketch journal written to {args.journal}")
    if args.out:
        atomic_write_text(args.out, recorded.log.to_json())
        print(f"sketch log written to {args.out}")
    if fault is not None and fault.kind != "kill":
        _inject_file_fault(args.journal or args.out, fault)
    return 0


def _load_sketch_log(path: str):
    """Load a sketch log that ``pres record`` wrote: its ``--journal``
    (sniffed by the journal magic) or its ``--out`` JSON.

    Damage, a torn journal included, surfaces as
    :class:`SketchFormatError`, which :func:`main` turns into exit code 2
    plus the ``pres doctor`` hint.
    """
    from repro.core.sketchlog import SketchLog
    from repro.robust.journal import MAGIC, load_sketch_journal

    magic = MAGIC.encode("ascii")
    with open(path, "rb") as handle:
        if handle.read(len(magic)) == magic:
            return load_sketch_journal(path)[0]
    return SketchLog.from_json(_read_utf8(
        path, SketchFormatError, "neither a sketch journal nor sketch JSON"
    ))


def _read_utf8(path: str, error: type, what: str) -> str:
    """The text of ``path``, a file a command reads as JSON.

    A file that is not UTF-8 raises ``error``, naming the file, what it
    is not, and the first bad byte, so the command prints a named error
    instead of a bare codec message.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(
            f"{path}: {what} (byte {exc.start} is not UTF-8)"
        ) from None


def cmd_analyze(args) -> int:
    from repro.sanitize.plan import MAX_PLAN_CANDIDATES, build_plan

    if args.static:
        return _cmd_analyze_static(args)
    if args.failure:
        print("--failure only applies to --static (the dynamic sanitizer "
              "already knows the recorded failure)", file=sys.stderr)
        return 2
    log = _load_sketch_log(args.log)
    plan = build_plan(
        log, max_candidates=_candidate_cap(args, MAX_PLAN_CANDIDATES)
    )
    if args.json:
        print(plan.to_json())
    else:
        print(f"analyzed {len(log)} {log.sketch.value} entries "
              f"from {args.log}")
        print(plan.describe())
    if args.out:
        atomic_write_text(args.out, plan.to_json())
        print(f"replay plan written to {args.out}")
    return 0


def _candidate_cap(args, default: int) -> int:
    """``--max-candidates``, defaulting to the pass's own cap, so a saved
    plan seeds exactly what re-analysis inside ``reproduce`` seeds."""
    return default if args.max_candidates is None else args.max_candidates


def _cmd_analyze_static(args) -> int:
    """``pres analyze BUG --static``: no log, no execution — the plan
    comes from walking the program's thread bodies."""
    from repro.analysis.static_ import MAX_STATIC_CANDIDATES, analyze_program

    spec = get_bug(args.log)
    plan = analyze_program(
        spec.make_program(),
        failure=args.failure,
        max_candidates=_candidate_cap(args, MAX_STATIC_CANDIDATES),
    )
    if args.json:
        print(plan.to_json())
    else:
        print(f"statically analyzed {spec.bug_id} "
              f"({len(plan.threads)} thread(s), "
              f"{len(plan.regions)} shared region(s))")
        print(plan.describe())
    if args.out:
        atomic_write_text(args.out, plan.to_json())
        print(f"static plan written to {args.out}")
    return 0


def _print_plan_summary(plan, sketch) -> None:
    """One line per seeded plan: what it predicts and what applies."""
    dynamic = plan.provenance == DYNAMIC
    print(f"{'plan' if dynamic else 'static plan'}: {plan.counts()}"
          f"{' predicted' if dynamic else ''}; "
          f"{len(plan.seeds_for(sketch))} of {len(plan.candidates)} "
          f"candidate(s) applicable at {sketch.value}")


def _plans(args) -> tuple:
    """The plans ``--plan``, ``--static-plan`` and ``--static`` ask for."""
    plans = (DYNAMIC,) if args.plan else ()
    if args.static_plan:
        text = _read_utf8(args.static_plan, PlanFormatError, "not a plan file")
        return plans + (Plan.from_json(text),)
    return plans + ((STATIC,) if args.static else ())


def cmd_reproduce(args) -> int:
    request = _request(
        args, epoch_steps=args.epoch_steps, epoch_window=args.epoch_window,
        max_attempts=args.max_attempts, batch_size=args.batch_size,
        feedback=not args.no_feedback, degrade=args.degrade,
        plans=_plans(args),
    )
    fault = _parse_fault_arg(args.inject_fault)
    if fault is not None and fault.kind != "kill" and not args.journal:
        print("--inject-fault needs --journal on reproduce", file=sys.stderr)
        return 2
    if args.salvage:
        if not args.journal:
            print("--salvage needs --journal on reproduce", file=sys.stderr)
            return 2
        refuse_uncomposable(request.epochs is not None, full_history=True)
    chaos = None
    if args.chaos:
        from repro.robust.inject import parse_chaos

        chaos = parse_chaos(args.chaos)
    supervise = None
    if args.attempt_timeout is not None or args.max_retries is not None:
        from repro.robust.supervise import SuperviseConfig

        supervise = SuperviseConfig(
            attempt_timeout=args.attempt_timeout or 0.0,
            **({"max_retries": args.max_retries}
               if args.max_retries is not None else {}),
        )
    obs = _obs_from_args(args)
    try:
        recorded = require_failure(_record(request, args.journal, fault, obs))
    except RecorderKilled as killed:
        print(f"fault injected: {killed}", file=sys.stderr)
        print("the recorder died before observing a failure; nothing to "
              "reproduce (salvage the journal with `pres doctor`)",
              file=sys.stderr)
        return 1
    print(f"production: {recorded.failure.describe()}")
    print(f"sketch: {len(recorded.log)} entries, "
          f"{recorded.stats.log_bytes} bytes, "
          f"overhead {recorded.stats.render_overhead()}")
    if recorded.epochs is not None:
        print(f"epochs: {recorded.epochs.describe()}")

    salvage_report = None
    if fault is not None and fault.kind != "kill":
        _inject_file_fault(args.journal, fault)
    if args.salvage:
        import dataclasses

        from repro.robust.journal import load_sketch_journal

        log, salvage_report = load_sketch_journal(args.journal, allow_salvage=True)
        print(salvage_report.describe())
        recorded = dataclasses.replace(recorded, log=log)

    result = run_request(
        request,
        recorded=recorded,
        jobs=args.jobs,
        store=args.store,
        obs=obs,
        supervise=supervise,
        chaos=chaos,
    )
    for plan in result.plans:
        _print_plan_summary(plan, request.sketch)
    report = result.report
    # The salvage accounting belongs to the degradation report.
    if args.degrade and salvage_report is not None and not salvage_report.intact:
        report.salvaged_entries = len(recorded.log)
    if args.degrade or recorded.epochs is not None:
        for rung in report.degradation_path + report.epoch_path:
            print(f"  rung {rung.describe()}")
        if report.outcome_reason:
            print(f"  outcome: {report.outcome_reason}")
    if args.store:
        live = report.attempts - report.cache_hits
        print(f"store {args.store}: {report.cache_hits} attempt(s) answered "
              f"from the store, {live} replayed live")
    report_text = render_report(report)
    print(report_text, end="")
    if args.report_out:
        # The same bytes `pres submit --report-out` writes for the same
        # request — the byte-for-byte surface the CI smoke job compares.
        atomic_write_text(args.report_out, report_text)
        print(f"report written to {args.report_out}")
    # Observability artifacts flush whether or not the reproduction
    # succeeded — a failed session is precisely when the timeline matters.
    _write_obs(args, obs)
    if report.interrupted:
        # The partial report above is real; the exit code says "stopped
        # by signal" so wrappers don't mistake it for a verdict.
        if args.store:
            print(f"resume: run the same command again; the store "
                  f"{args.store} keeps every decided attempt")
        else:
            print("resume: pass --store DIR to keep decided attempts, so "
                  "a rerun replays only the rest")
        print("interrupted: true")
        return 130
    if not report.success:
        return 1
    if args.out:
        atomic_write_text(args.out, report.complete_log.to_json())
        print(f"complete log written to {args.out}; replays deterministically")
    if args.exec_out:
        from repro.sim.persist import save_trace

        save_trace(_replay(request, report), args.exec_out)
        print(f"reproduced execution written to {args.exec_out}")
    return 0


def _replay(request: ReproduceRequest, report):
    """The reproduced execution: the winning schedule replayed in full."""
    spec = get_bug(request.bug)
    return replay_complete(
        spec.make_program(), report.complete_log, oracle=spec.oracle
    )


def cmd_diagnose(args) -> int:
    request = _request(args, max_attempts=args.max_attempts)
    report = run_request(request, recorded=_record(request)).report
    if not report.success:
        print("could not reproduce the failure", file=sys.stderr)
        return 1
    print(diagnose(_replay(request, report)).render())
    return 0


def cmd_stats(args) -> int:
    from repro.analysis import lock_order_report
    from repro.core.sketches import event_visible
    from repro.sim import Machine, RandomScheduler, trace_stats

    # Validate the sketch name *before* running anything: an unknown name
    # exits 2 with the registry's named error (lists the valid kinds)
    # instead of silently reporting stats for the wrong mechanism.
    sketch = parse_sketch_kind(args.sketch) if args.sketch else None
    spec = get_bug(args.bug)
    seed = args.seed if args.seed is not None else 0
    machine = Machine(
        spec.make_program(),
        RandomScheduler(seed),
        MachineConfig(ncpus=args.ncpus),
    )
    trace = machine.run()
    print(f"run of {spec.bug_id} (seed {seed}): "
          f"{'FAILED - ' + trace.failure.describe() if trace.failed else 'clean'}")
    print(trace_stats(trace).describe())
    print(lock_order_report(trace).describe())
    if sketch is not None:
        visible = sum(1 for e in trace.events if event_visible(sketch, e))
        total = len(trace.events)
        share = 100.0 * visible / total if total else 0.0
        print(f"{sketch.value} sketch would record {visible} of {total} "
              f"events ({share:.1f}%)")
    return 0


def cmd_bench(args) -> int:
    from repro.bench.runner import available_experiments, run_experiment_result

    if args.experiment == "list":
        for name in available_experiments():
            print(name)
        return 0
    if args.json and not os.path.isdir(args.json_dir):
        # Refuse before the experiment runs, not after its whole table.
        print(f"error: --json-dir {args.json_dir} is not a directory",
              file=sys.stderr)
        return 2
    obs = _obs_from_args(args)
    try:
        result = run_experiment_result(args.experiment, obs=obs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if obs is not None and obs.metrics.enabled:
        # The snapshot rides inside the BenchResult JSON so one artifact
        # carries both the table and the session's instrumentation.
        result.meta["metrics"] = obs.metrics.snapshot()
    print(result.render())
    if args.json:
        path = result.write_json(args.json_dir)
        print(f"results written to {path}")
    _write_obs(args, obs)
    return 0


def cmd_inspect(args) -> int:
    from repro.obs import load_chrome_trace, render_trace

    payload = load_chrome_trace(args.trace)
    print(render_trace(payload))
    return 0


def cmd_replay(args) -> int:
    spec = get_bug(args.bug)
    log = CompleteLog.from_json(
        _read_utf8(args.log, SketchFormatError, "not a complete log")
    )
    trace = replay_complete(spec.make_program(), log, oracle=spec.oracle)
    if trace.failure is None:
        print("replay completed without the failure (wrong log?)",
              file=sys.stderr)
        return 1
    print(f"reproduced: {trace.failure.describe()}")
    return 0


def cmd_doctor(args) -> int:
    from repro.robust.doctor import (
        SALVAGEABLE,
        diagnosis_metrics,
        examine,
        examine_store,
        write_salvaged,
    )

    if os.path.isdir(args.log):
        store_diag = examine_store(args.log)
        if args.clean and store_diag.stale:
            store_diag.clean()
        print(store_diag.describe())
        if store_diag.stale and not args.clean:
            print("hint: `pres doctor --clean` removes stale temp files")
        return store_diag.exit_code
    diagnosis = examine(args.log)
    print(diagnosis.describe())
    if diagnosis.status == SALVAGEABLE:
        out = args.out or args.log + ".salvaged"
        write_salvaged(diagnosis, out)
        print(f"salvaged log written to {out}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        diagnosis_metrics(diagnosis, registry)
        atomic_write_text(args.metrics_out, registry.to_json())
        print(f"metrics snapshot written to {args.metrics_out}")
    return diagnosis.exit_code


def cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import serve

    try:
        asyncio.run(serve(
            args.store,
            host=args.host,
            port=args.port,
            slots=args.slots,
            max_queued=args.max_queued,
            tenant_slots=args.tenant_slots,
            pool_jobs=args.pool_jobs,
            default_jobs=args.jobs,
            port_file=args.port_file,
        ))
    except KeyboardInterrupt:
        # The signal handler normally wins and drains gracefully; a
        # second Ctrl-C can land here.  Match the CLI-wide contract.
        print("interrupted", file=sys.stderr)
        return 130
    return 0


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.protocol import JobRequest, ProtocolError

    try:
        request = JobRequest(
            bug=args.bug,
            tenant=args.tenant,
            sketch=args.sketch,
            seed=args.seed,
            max_attempts=args.max_attempts,
            jobs=args.jobs,
            ncpus=args.ncpus,
        )
    except ProtocolError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2
    client = ServiceClient(args.server)
    try:
        doc = client.submit(request)
        print(f"job {doc['id']} {doc['state']} (tenant {args.tenant})")
        if not args.wait:
            print(f"poll with: pres jobs --server {args.server}")
            return 0
        final = client.wait_for(doc["id"])
        if final["state"] != "done":
            detail = final.get("error", final["state"])
            print(f"job {doc['id']} {final['state']}: {detail}", file=sys.stderr)
            return 1
        text = client.result_text(doc["id"])
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text, end="")
    if args.report_out:
        atomic_write_text(args.report_out, text)
        print(f"report written to {args.report_out}")
    result = client.result(doc["id"])
    return 0 if result.get("success") else 1


def cmd_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        docs = client.jobs(args.tenant)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not docs:
        print("no jobs")
        return 0
    for doc in docs:
        request = doc["request"]
        line = (f"{doc['id']}  {doc['state']:<9}  {request['tenant']:<12}  "
                f"{request['bug']}")
        if "latency_s" in doc:
            line += f"  {doc['latency_s']:.3f}s"
        if "error" in doc:
            line += f"  ({doc['error']})"
        print(line)
    return 0


def cmd_store(args) -> int:
    from repro.store import AttemptStore, verify_store

    if args.store_command == "verify":
        # Read-only on purpose: verifying must not create the store or
        # bump its epoch (it may belong to a running process).
        report = verify_store(args.store_dir)
        print(report.describe())
        return report.exit_code
    store = AttemptStore(args.store_dir)
    if args.store_command == "stats":
        print(store.stats().describe())
        return 0
    # gc
    report = store.gc(args.max_records)
    print(report.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pres",
        description="PRES: probabilistic replay with execution sketching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("bugs", help="list the evaluated bug suite")

    p_seed = sub.add_parser("find-seed", help="find a failing production run")
    p_seed.add_argument("bug")
    p_seed.add_argument("--budget", type=int, default=500)
    p_seed.add_argument("--ncpus", type=int, default=4)

    p_record = sub.add_parser("record", help="record one production run")
    _add_common(p_record)
    _add_epoch_flags(p_record)
    p_record.add_argument("--out", help="write the sketch log (JSON) here")
    p_record.add_argument("--journal",
                          help="journal sketch entries (crash-consistent) here")
    p_record.add_argument("--inject-fault", metavar="SPEC",
                          help="kill@K | truncate@N | garble@S | drop@S")

    p_analyze = sub.add_parser(
        "analyze", help="predict races/deadlocks from a saved sketch log"
    )
    p_analyze.add_argument("log", help="sketch log from `pres record`: its "
                                       "--journal file or its --out JSON")
    p_analyze.add_argument("--json", action="store_true",
                           help="print the replay plan as JSON instead of "
                                "the human report")
    p_analyze.add_argument("--out",
                           help="also write the replay plan (JSON) here")
    p_analyze.add_argument("--max-candidates", type=int, default=None,
                           help="cap on ranked plan candidates (default 16, "
                                "or 12 with --static: what `reproduce "
                                "--plan`/`--static` seed)")
    p_analyze.add_argument("--static", action="store_true",
                           help="analyze a BUG ID statically (no log, no "
                                "execution): walk the program's thread "
                                "bodies and print the static plan")
    p_analyze.add_argument("--failure", metavar="TEXT",
                           help="with --static: a failure message from a "
                                "bug report; candidates are filtered to "
                                "the regions in its def-use slice")

    p_repro = sub.add_parser("reproduce", help="record and reproduce a bug")
    _add_common(p_repro)
    _add_epoch_flags(p_repro)
    p_repro.add_argument("--max-attempts", type=int, default=400)
    p_repro.add_argument("--plan", action="store_true",
                         help="run the predictive sanitizer over an RW "
                              "recording of the same run and seed its "
                              "plan into the first replay attempts")
    p_repro.add_argument("--static", action="store_true",
                         help="run the static analyzer over the program "
                              "source (filtered by the recorded failure) "
                              "and seed its candidates after any dynamic "
                              "plan seeds")
    p_repro.add_argument("--static-plan", metavar="FILE",
                         help="seed candidates from a saved static plan "
                              "(pres-plan-v2 JSON from `pres analyze BUG "
                              "--static --out FILE`) instead of "
                              "re-analyzing")
    p_repro.add_argument("--jobs", type=int, default=1,
                         help="replay workers; >1 explores attempt batches "
                              "on a process pool (same result, less wall "
                              "time on multi-core hosts)")
    p_repro.add_argument("--batch-size", type=int, default=0,
                         help="frontier candidates dispatched per batch; "
                              "0 = auto.  The exploration schedule (and "
                              "every metrics counter) depends only on "
                              "this, never on --jobs")
    p_repro.add_argument("--no-feedback", action="store_true",
                         help="ablation: random re-rolls instead of feedback")
    p_repro.add_argument("--out", help="write the complete log (JSON) here")
    p_repro.add_argument("--report-out",
                         help="write the attempt report (text) here; "
                              "byte-identical to what `pres submit "
                              "--report-out` writes for the same request")
    p_repro.add_argument("--exec-out",
                         help="write the reproduced execution (JSONL) here")
    p_repro.add_argument("--trace-out",
                         help="write the session's observability trace "
                              "(Chrome trace_event JSON; open in Perfetto "
                              "or `pres inspect`) here")
    p_repro.add_argument("--metrics-out",
                         help="write the session's metrics snapshot "
                              "(JSON) here")
    p_repro.add_argument("--journal",
                         help="journal sketch entries (crash-consistent) here")
    p_repro.add_argument("--inject-fault", metavar="SPEC",
                         help="damage the journal before replay: "
                              "truncate@N | garble@S | drop@S (or kill@K)")
    p_repro.add_argument("--salvage", action="store_true",
                         help="reload the sketch from the (damaged) journal, "
                              "recovering the longest valid prefix")
    p_repro.add_argument("--degrade", action="store_true",
                         help="walk the sketch degradation ladder "
                              "(rw->bb->func->sys->sync) if replay fails")
    p_repro.add_argument("--store", metavar="DIR",
                         help="persist attempt outcomes to a cross-run "
                              "store at DIR and answer repeat attempts "
                              "from it (warm runs replay nothing live, a "
                              "killed run resumes when rerun; identical "
                              "reported results)")
    p_repro.add_argument("--attempt-timeout", type=float, metavar="SECONDS",
                         help="per-attempt wall-clock deadline for pooled "
                              "workers; a hung attempt is abandoned and "
                              "retried (0/unset = no deadline)")
    p_repro.add_argument("--max-retries", type=int, metavar="N",
                         help="retries per attempt after a worker death "
                              "or timeout, with deterministic backoff "
                              "(default 2; exhaustion falls back to an "
                              "in-process replay of the same attempt)")
    p_repro.add_argument("--chaos", metavar="SPEC",
                         help="deterministically inject faults while "
                              "exploring: crash=P,hang=P,corrupt=P,seed=N "
                              "(rates in [0,1]; reported results stay "
                              "identical to the fault-free run)")

    p_diag = sub.add_parser(
        "diagnose", help="reproduce a bug and print a root-cause report"
    )
    _add_common(p_diag)
    p_diag.add_argument("--max-attempts", type=int, default=400)

    p_replay = sub.add_parser("replay", help="replay a saved complete log")
    p_replay.add_argument("bug")
    p_replay.add_argument("--log", required=True)

    p_doctor = sub.add_parser(
        "doctor", help="validate an on-disk log; salvage what it can"
    )
    p_doctor.add_argument("log", help="journal / trace / sketch / complete "
                                      "log, or an attempt-store directory")
    p_doctor.add_argument("--out",
                          help="where to write the salvaged log "
                               "(default: <log>.salvaged)")
    p_doctor.add_argument("--clean", action="store_true",
                          help="for store directories: remove stale temp "
                               "files left behind by a killed run")
    p_doctor.add_argument("--metrics-out",
                          help="write the diagnosis as a metrics snapshot "
                               "(JSON) here")

    p_stats = sub.add_parser(
        "stats", help="run once and print execution statistics + lock hazards"
    )
    p_stats.add_argument("bug")
    p_stats.add_argument("--seed", type=int, default=None)
    p_stats.add_argument("--ncpus", type=int, default=4)
    p_stats.add_argument("--sketch", default=None,
                         help="also report how many events this sketch "
                              "kind would record (none|sync|sys|func|bb|rw)")

    p_bench = sub.add_parser(
        "bench",
        help="render an evaluation table (t1, e1..e6, e12..e18, "
             "or 'list')",
    )
    p_bench.add_argument("experiment")
    p_bench.add_argument("--json", action="store_true",
                         help="also write BENCH_<experiment>.json "
                              "(machine-readable rows + records)")
    p_bench.add_argument("--json-dir", default=".",
                         help="directory for the JSON file (default: .)")
    p_bench.add_argument("--trace-out",
                         help="write the experiment's observability trace "
                              "(Chrome trace_event JSON) here")
    p_bench.add_argument("--metrics-out",
                         help="write the experiment's metrics snapshot "
                              "(JSON) here; also embedded in the --json "
                              "payload as meta.metrics")

    p_inspect = sub.add_parser(
        "inspect", help="render a saved observability trace as text"
    )
    p_inspect.add_argument("trace",
                           help="Chrome trace_event JSON written by "
                                "--trace-out")

    p_store = sub.add_parser(
        "store", help="inspect or bound a cross-run attempt store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    s_stats = store_sub.add_parser(
        "stats", help="record/shard/byte totals for one store"
    )
    s_stats.add_argument("store_dir", help="store directory "
                                           "(from reproduce --store)")
    s_verify = store_sub.add_parser(
        "verify", help="validate every shard; exit 1 on any damage"
    )
    s_verify.add_argument("store_dir", help="store directory")
    s_gc = store_sub.add_parser(
        "gc", help="evict oldest-recorded records down to a bound"
    )
    s_gc.add_argument("store_dir", help="store directory")
    s_gc.add_argument("--max-records", type=int, required=True,
                      help="records to keep (deterministic "
                           "oldest-recorded-first eviction)")

    p_serve = sub.add_parser(
        "serve",
        help="run the reproduction service (HTTP; see docs/service.md)",
    )
    p_serve.add_argument("--store", default=".pres-service",
                         help="store root; one attempt-store namespace "
                              "per tenant (default: .pres-service)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8979,
                         help="listen port; 0 picks an ephemeral one "
                              "(default: 8979)")
    p_serve.add_argument("--port-file",
                         help="write the bound port here once listening "
                              "(for wrappers using --port 0)")
    p_serve.add_argument("--slots", type=int, default=4,
                         help="concurrent job executions (default: 4)")
    p_serve.add_argument("--max-queued", type=int, default=256,
                         help="jobs waiting for a slot before admission "
                              "returns 429 (default: 256)")
    p_serve.add_argument("--tenant-slots", type=int, default=64,
                         help="per-tenant bound on unfinished jobs "
                              "(default: 64)")
    p_serve.add_argument("--pool-jobs", type=int, default=2,
                         help="width of the shared replay worker pool "
                              "lent to parallel explorations (default: 2)")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="default exploration jobs for requests that "
                              "leave jobs at 0 (default: 1)")

    p_submit = sub.add_parser(
        "submit", help="submit a reproduction job to a running service"
    )
    p_submit.add_argument("bug", help="bug id from `pres bugs`")
    p_submit.add_argument("--server", default="http://127.0.0.1:8979",
                          help="service base URL "
                               "(default: http://127.0.0.1:8979)")
    p_submit.add_argument("--tenant", default="default",
                          help="tenant namespace (default: default)")
    p_submit.add_argument("--sketch", default="sync",
                          help="none|sync|sys|func|bb|rw (default: sync)")
    p_submit.add_argument("--seed", type=int, default=None,
                          help="production-run seed (default: the server "
                               "searches for a failing one)")
    p_submit.add_argument("--max-attempts", type=int, default=400)
    p_submit.add_argument("--jobs", type=int, default=0,
                          help="exploration jobs; 0 = server default "
                               "(identical report either way)")
    p_submit.add_argument("--ncpus", type=int, default=4)
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job finishes and print "
                               "its report")
    p_submit.add_argument("--report-out",
                          help="with --wait: write the report (text) "
                               "here; byte-identical to `pres reproduce "
                               "--report-out` for the same request")

    p_jobs = sub.add_parser(
        "jobs", help="list jobs on a running service"
    )
    p_jobs.add_argument("--server", default="http://127.0.0.1:8979",
                        help="service base URL "
                             "(default: http://127.0.0.1:8979)")
    p_jobs.add_argument("--tenant", default=None,
                        help="only this tenant's jobs")

    return parser


_HANDLERS = {
    "bugs": cmd_bugs,
    "find-seed": cmd_find_seed,
    "record": cmd_record,
    "analyze": cmd_analyze,
    "reproduce": cmd_reproduce,
    "diagnose": cmd_diagnose,
    "replay": cmd_replay,
    "doctor": cmd_doctor,
    "bench": cmd_bench,
    "stats": cmd_stats,
    "inspect": cmd_inspect,
    "store": cmd_store,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except KeyboardInterrupt:
        # Commands that can report partial progress (reproduce) catch
        # the interrupt themselves; anything interrupted earlier or
        # later still exits 130 without a traceback.
        print("interrupted", file=sys.stderr)
        return 130
    except PlanFormatError as exc:  # before ValueError: it is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # unknown bug id
        print(exc.args[0], file=sys.stderr)
        return 2
    except SimUsageError as exc:  # flags whose walks do not compose
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoFailingRunError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:  # bad --sketch / --inject-fault / --chaos spec
        print(exc, file=sys.stderr)
        return 2
    except SketchFormatError as exc:
        # A damaged artifact is an expected condition, not a crash: point
        # the user at the salvage path instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        print("hint: `pres doctor <log>` validates and salvages damaged logs",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
