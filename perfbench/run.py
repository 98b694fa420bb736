"""The repository benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

Runs one workload (``search``, ``search-pool`` or ``service``) from the
root of a source checkout, prints a human-readable report, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics, including the tracing overhead.  Every operation's
report bytes are compared with a reference made during set-up.

``--write-digests`` regenerates ``digests.json``, the committed digests
of the default-seed reference reports, and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("search", "search-pool", "service")


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_digests:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def commit_id() -> str:
    """HEAD of the checkout's git metadata, or ``unknown`` without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_children() -> None:
    """Join every worker process and the shared-memory tracker."""
    import multiprocessing
    from multiprocessing import resource_tracker

    from repro.core import shm

    for child in multiprocessing.active_children():
        child.join(30)
    # Unlink the published session segments now rather than at exit, so
    # the tracker process they started can be stopped and waited for.
    shm._release_all()
    resource_tracker._resource_tracker._stop()


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(out, w) -> Dict[str, Dict[str, object]]:
    """The ``end_to_end`` metrics; times scaled to the sizing host's speed."""
    ops = w.scaled(out.op_s, out.op_calibration_s)
    setup = w.scaled(out.setup_s, out.setup_calibration_s)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_ms_p50": metric(statistics.median(ops) * 1e3, "ms"),
        "op_ms_mean": metric(statistics.fmean(ops) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def raw_lines(out, w) -> List[str]:
    """The same timings unscaled, as this host ran them, and the tail."""
    return [
        f"  {'raw setup_s':<24}{statistics.median(out.setup_s):>14.6f} s",
        f"  {'raw op_ms_p50':<24}{statistics.median(out.op_s) * 1e3:>14.6f} ms",
        f"  {'raw op_ms_mean':<24}{statistics.fmean(out.op_s) * 1e3:>14.6f} ms",
        f"  {'raw op_ms_p95':<24}{w.percentile(out.op_s, 0.95) * 1e3:>14.6f} ms",
        f"  {'op_ms_p95':<24}"
        f"{w.percentile(w.scaled(out.op_s, out.op_calibration_s), 0.95) * 1e3:>14.6f} ms",
    ]


def totals(out) -> Dict[str, float]:
    """Layer totals of the parent and its forked workers together."""
    return {key: out.parent[key] + out.workers[key] for key in out.parent}


def per_layer(out) -> Dict[str, Dict[str, object]]:
    """The ``per_layer`` metrics, per traced operation unless a rate."""
    total = totals(out)
    ops = max(1, len(out.traced_op_s))

    def per_op(key: str) -> float:
        return total[key] / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    other = out.parent["explore.s"] + sum(out.unattributed_s)
    overhead = (
        statistics.median(out.traced_op_s) / statistics.median(out.op_s) - 1.0
    )
    return {
        "sim.run_s": metric(per_op("sim.s"), "s"),
        "sim.us_per_step": metric(ratio(total["sim.s"], total["sim.steps"]) * 1e6, "us"),
        "sim.runs": metric(per_op("sim.calls"), "count"),
        "sim.steps": metric(per_op("sim.steps"), "count"),
        "pir.pick_s": metric(per_op("pir.s"), "s"),
        "pir.ns_per_pick": metric(ratio(total["pir.s"], total["pir.calls"]) * 1e9, "ns"),
        "pir.picks": metric(per_op("pir.calls"), "count"),
        "pir.diverged": metric(per_op("pir.diverged"), "count"),
        "feedback.mine_s": metric(per_op("feedback.s"), "s"),
        "hb.sweep_s": metric(per_op("hb.s"), "s"),
        "feedback.fingerprint_s": metric(per_op("fingerprint.s"), "s"),
        "feedback.mined": metric(per_op("feedback.mined"), "count"),
        "feedback.duplicate_traces": metric(per_op("explore.duplicate_traces"), "count"),
        "explore.other_s": metric(other / ops, "s"),
        "sketchlog.bytes": metric(per_op("sketchlog.bytes"), "bytes"),
        "pool.batches": metric(per_op("pool.batch.calls"), "count"),
        "prefix.planned_hits": metric(per_op("explore.planned_resumes"), "count"),
        "prefix.realized_hits": metric(per_op("sim.resumed"), "count"),
        "prefix.depth_mean": metric(
            ratio(total["sim.skipped_steps"], total["sim.resumed"]), "steps"
        ),
        "record.calls": metric(per_op("record.calls"), "count"),
        "store.gets": metric(per_op("store.get.calls"), "count"),
        "store.puts": metric(per_op("store.put.calls"), "count"),
        "store.hit_ratio": metric(
            ratio(total["store.get.hits"], total["store.get.calls"]), "ratio"
        ),
        "trace.overhead_frac": metric(overhead, "ratio"),
    }


def detail_lines(out) -> List[str]:
    """Workload-specific layer timings, printed but not in the JSON line."""
    total = totals(out)
    ops = max(1, len(out.traced_op_s))
    lines = []

    def show(name: str, value: float, unit: str) -> None:
        lines.append(f"  {name:<24}{value:>14.6f} {unit}")

    show("sketchlog.decode_s", total["sketchlog.s"] / ops, "s")
    show("pool.batch_wait_s", out.parent["pool.batch.s"] / ops, "s")
    show("pool.publish_s", total["pool.publish.s"] / ops, "s")
    show("pool.warm_init_s", out.gauges.get("pool.warm_init_s", 0.0) / ops, "s")
    show("record.s", total["record.s"] / ops, "s")
    if total["record.events"]:
        show("record.us_per_event", total["record.s"] / total["record.events"] * 1e6, "us")
    show("store.get_s", total["store.get.s"] / ops, "s")
    show("store.put_s", total["store.put.s"] / ops, "s")
    planned = out.gauges.get("prefix.depth_count", 0.0)
    if planned:
        show("prefix.planned_depth_mean", out.gauges["prefix.depth_sum"] / planned, "steps")
    return lines


def service_lines(out, w) -> List[str]:
    lines = []
    for sample, q, name in (
        ("job.cold", 0.5, "job.cold_ms_p50"),
        ("job.warm", 0.5, "job.warm_ms_p50"),
        ("http.submit", 0.5, "http.submit_ms_p50"),
        ("http.poll", 0.5, "http.poll_ms_p50"),
        ("svc.exec", 0.5, "svc.exec_ms_p50"),
        ("svc.exec", 0.95, "svc.exec_ms_p95"),
        ("svc.wait", 0.5, "svc.wait_ms_p50"),
    ):
        values = out.samples.get(sample)
        if values:
            lines.append(f"  {name:<24}{w.percentile(values, q) * 1e3:>14.3f} ms")
    return lines


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no source tree at {os.path.join(ROOT, 'src')}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import workloads as w

    if args.write_digests:
        with open(DIGESTS, "w", encoding="utf-8") as handle:
            json.dump(w.reference_digests(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {DIGESTS}")
        return 0

    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    clock = layers.LayerClock() if args.trace else None
    trace = bool(args.trace)
    jobs = w.POOL_JOBS if args.workload == "search-pool" else 1
    # Search sessions are bracketed by points calibrated in as many
    # processes as a pool session keeps busy, serial ones too: on the
    # 2-core sizing host that tracked a serial session's speed better
    # (quartile spread 6% over seven runs) than calibrating alone (8%).
    speed = w.HostSpeed(
        processes=1 if args.workload == "service" else 1 + w.POOL_JOBS
    )
    try:
        if args.workload == "service":
            out = w.run_service(
                args.seed, args.seconds, trace, digests, clock, workdir, speed
            )
        else:
            out = w.run_search(
                args.seconds, trace, jobs, digests, clock, speed
            )
    finally:
        speed.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    stop_children()

    cpus = host_cpus()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host_cpus": cpus,
        "python": platform.python_version(), "commit": commit_id(),
        "setup_runs": len(out.setup_s),
        "ops_untraced": len(out.op_s), "ops_traced": len(out.traced_op_s),
        "calibration_points": len(out.speed.points),
        "calibration_s_median": statistics.median(out.speed.points),
        **out.meta,
    }
    print(f"perfbench {args.workload}: {json.dumps(meta, sort_keys=True)}")
    if cpus < w.POOL_JOBS:
        print(f"warning: {cpus} usable core(s) but the pool is {w.POOL_JOBS} "
              "wide; pool timings measure dispatch, not parallelism")
    for failure in out.failures[:20]:
        print(f"FAILED {failure}")
    fail_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"  {'fail_frac':<24}{fail_frac:>14.6f} ratio "
          f"({out.failed} of {out.attempted} ops)")
    if trace:
        metrics = per_layer(out)
        ops = len(out.traced_op_s)
        print(f"per-layer self time over {ops} traced op(s):")
        for line in layers.self_time_table(out.parent, out.workers, ops):
            print(line)
        if out.unattributed_s:
            walls = sum(out.traced_op_s)
            print(f"  session wall {walls / ops:.5f} s/op = parent self times "
                  f"{(walls - sum(out.unattributed_s)) / ops:.5f} + unattributed "
                  f"{sum(out.unattributed_s) / ops:.5f} (render, glue)")
        for line in detail_lines(out):
            print(line)
    else:
        metrics = end_to_end(out, w)
        for line in raw_lines(out, w):
            print(line)
    for line in service_lines(out, w):
        print(line)
    for name, entry in metrics.items():
        print(f"  {name:<24}{entry['value']:>14.6f} {entry['unit']}")
    print(json.dumps({
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
