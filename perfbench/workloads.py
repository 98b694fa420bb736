"""The benchmark's workloads: ``search``, ``search-pool`` and ``service``.

Each workload has a set-up step, run several times so that its median
is steady, and a measured phase.  The workload seed is the only source
of variation: the programs under test see the inputs made from it and
nothing else.  ``NOTES.md`` beside this file says why each workload was
chosen and which layer numbers should move which end-to-end number.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import multiprocessing
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.apps import ALL_BUG_IDS, get_bug
from repro.core.explorer import ExplorerConfig
from repro.core.recorder import RecordedRun, apply_oracle, record
from repro.core.reproducer import render_report, reproduce
from repro.core.sketches import parse_sketch_kind
from repro.core.sketchlog import SketchLog
from repro.obs.session import ObsSession
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import JobRequest
from repro.service.server import ServiceThread
from repro.sim import Machine, MachineConfig, RandomScheduler

import layers

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# -- search / search-pool: the E12 recording ---------------------------------
SEARCH_BUG = "radix-order-rank"
SEARCH_PARAMS: Dict[str, int] = {"workers": 5, "seg": 6}
SEARCH_NCPUS = 4
SEARCH_CAP = 300
#: E12's exploration seed; the session spends the whole cap without
#: reproducing.
SEARCH_BASE_SEED = 0
#: ``jobs`` of the search-pool sessions (= the 2-core sizing host's nproc).
POOL_JOBS = 2

# -- service -----------------------------------------------------------------
SERVICE_SKETCHES = ("sync", "sys")
SERVICE_CAP = 400
SERVICE_SLOTS = 2
#: Warm jobs per (bug, sketch) pair in a round.
WARM_REPEATS = 2
#: Pause between the client's status polls; bounds ``op_ms`` resolution.
POLL_INTERVAL_S = 0.005
#: A job not done by then counts as failed.
JOB_DEADLINE_S = 60.0

# -- host speed --------------------------------------------------------------
#: Median ``calibrate()`` time on the 2-core sizing host, seconds.
REFERENCE_CALIBRATION_S = 0.060
#: Calibrations taken at each point between operations.
CALIBRATIONS = 3


def _calibration_thread(tid: int, shared: Dict[int, int]) -> Iterator[Tuple[str, int]]:
    for i in range(120):
        key = (tid + i) % 16
        yield "read", key
        value = shared.get(key, 0)
        yield "write", key
        shared[key] = value + tid
        if i % 5 == 0:
            yield "lock", key % 3


def calibrate() -> float:
    """Seconds a fixed generator-scheduling loop takes now.

    The loop does what a simulator step loop does (generators, dicts,
    sets, a seeded random choice) in code the benchmark owns, so a change
    to the program cannot move it; the collector is paused so the
    program's heap cannot either.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for round_seed in range(12):
            rng = random.Random(round_seed)
            shared: Dict[int, int] = {}
            threads = {tid: _calibration_thread(tid, shared) for tid in range(6)}
            pending = {tid: next(thread) for tid, thread in threads.items()}
            held = set()
            while pending:
                runnable = [
                    tid for tid, (kind, key) in sorted(pending.items())
                    if kind != "lock" or key not in held
                ]
                if not runnable:
                    held.clear()
                    continue
                tid = rng.choice(runnable)
                kind, key = pending[tid]
                if kind == "lock":
                    held.add(key)
                try:
                    pending[tid] = next(threads[tid])
                except StopIteration:
                    del pending[tid]
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def _calibrate_on_request(conn) -> None:
    """A helper process's loop: one calibration per request until told to stop."""
    while conn.recv():
        conn.send(calibrate())


class HostSpeed:
    """How fast this host runs, from calibrations between operations.

    The machines this benchmark runs on share their cores with other
    tenants: their speed drifts by a third over minutes and flips between
    a fast and a slow mode within a second.  Timings are reported scaled
    to the sizing host's speed: an operation's raw seconds times
    ``REFERENCE_CALIBRATION_S`` over the mean of the calibration points
    taken just before and just after it.  A point calibrates in
    ``processes`` processes at once (helpers forked before the program
    runs), unless it is taken ``alone``: a search session slows down
    when either core does.
    """

    def __init__(self, processes: int = 1) -> None:
        #: mean seconds of each calibration point.
        self.points: List[float] = []
        self._helpers = []
        context = multiprocessing.get_context("fork")
        for _ in range(processes - 1):
            mine, theirs = context.Pipe()
            process = context.Process(
                target=_calibrate_on_request, args=(theirs,), daemon=True
            )
            process.start()
            self._helpers.append((process, mine))

    def point(self, repeats: int = CALIBRATIONS, alone: bool = False) -> float:
        """Take a calibration point; its mean seconds.

        ``alone`` calibrates in this process only, for one-core work.
        """
        helpers = [] if alone else self._helpers
        taken = []
        for _ in range(repeats):
            for _, conn in helpers:
                conn.send(True)
            taken.append(calibrate())
            taken.extend(conn.recv() for _, conn in helpers)
        self.points.append(statistics.fmean(taken))
        return self.points[-1]

    def close(self) -> None:
        """Stop the helper processes and wait for them."""
        for process, conn in self._helpers:
            conn.send(False)
            process.join()
        self._helpers = []


def scaled(seconds: List[float], calibrations: List[float]) -> List[float]:
    """Raw seconds scaled to the sizing host's speed, one calibration each."""
    return [
        raw * REFERENCE_CALIBRATION_S / calibration
        for raw, calibration in zip(seconds, calibrations)
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def first_failing_seed(spec, ncpus: int, params: Dict[str, int], budget: int = 500) -> int:
    """The first production seed under which ``spec``'s bug manifests."""
    for seed in range(budget):
        trace = Machine(
            spec.make_program(**params), RandomScheduler(seed),
            MachineConfig(ncpus=ncpus),
        ).run()
        if apply_oracle(trace, spec.oracle) is not None:
            return seed
    raise RuntimeError(f"{spec.bug_id}: no failing seed below {budget}")


def record_bug(bug: str, sketch: str, ncpus: int, params: Dict[str, int]) -> RecordedRun:
    spec = get_bug(bug)
    seed = first_failing_seed(spec, ncpus, params)
    return record(
        spec.make_program(**params), sketch=parse_sketch_kind(sketch),
        seed=seed, config=MachineConfig(ncpus=ncpus), oracle=spec.oracle,
    )


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """What one run measured; times are raw wall seconds."""

    speed: HostSpeed
    setup_s: List[float] = field(default_factory=list)
    #: calibration around each set-up.
    setup_calibration_s: List[float] = field(default_factory=list)
    #: latency of each untraced / traced operation.
    op_s: List[float] = field(default_factory=list)
    traced_op_s: List[float] = field(default_factory=list)
    #: calibration around each untraced operation.
    op_calibration_s: List[float] = field(default_factory=list)
    attempted: int = 0
    #: operations that raised, were refused, ended unfinished, or whose
    #: report bytes differ from the reference.
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: layer totals over the traced operations (parent, workers).
    parent: Dict[str, float] = field(default_factory=layers.zeros)
    workers: Dict[str, float] = field(default_factory=layers.zeros)
    #: program metrics gathered in traced operations.
    gauges: Dict[str, float] = field(default_factory=dict)
    #: client-side service samples by name.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: session wall minus the parent's layer self times, per traced session.
    unattributed_s: List[float] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def fail(self, what: str, op: bool = True) -> None:
        """Record a failure; ``op`` is false for a set-up check."""
        self.failures.append(what)
        self.failed += op

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def set_up(self, step: Callable[[], object]) -> object:
        """Run set-up ``SETUP_REPEATS`` times, timing each; the last result."""
        before = self.speed.point(alone=True)
        result = None
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            result = step()
            self.setup_s.append(time.perf_counter() - started)
            after = self.speed.point(alone=True)
            self.setup_calibration_s.append((before + after) / 2)
            before = after
        return result


def _check_digest(out: Outcome, digests: Dict[str, str], key: str, text: str) -> None:
    expected = digests.get(key)
    if expected is None:
        out.fail(f"set-up: no committed digest for {key}", op=False)
    elif digest(text) != expected:
        out.fail(
            f"set-up: reference report for {key} differs from its committed digest",
            op=False,
        )


# -- search and search-pool ---------------------------------------------------


@dataclass
class SearchInputs:
    recorded: RecordedRun
    log_bytes: bytes
    config: ExplorerConfig
    reference: str


def _decoded(recorded: RecordedRun, log_bytes: bytes, decode: Callable) -> RecordedRun:
    return dataclasses.replace(recorded, log=decode(log_bytes))


def search_setup(digests: Dict[str, str], out: Outcome) -> SearchInputs:
    """Seed search, recording, and the serial no-store reference report.

    Every workload seed runs E12's own request: the exploration's
    trajectory, which its ``base_seed`` picks, moves a pool session's
    time by up to 15%, which would let the seed, not the code, set it.
    """
    recorded = record_bug(SEARCH_BUG, "sync", SEARCH_NCPUS, SEARCH_PARAMS)
    log_bytes = recorded.log.to_bytes_compressed()
    decoded = _decoded(recorded, log_bytes, SketchLog.from_bytes_compressed)
    config = ExplorerConfig(max_attempts=SEARCH_CAP, base_seed=SEARCH_BASE_SEED)
    reference = render_report(reproduce(decoded, config, match_output=True))
    _check_digest(out, digests, "search", reference)
    return SearchInputs(recorded, log_bytes, config, reference)


def search_session(
    inputs: SearchInputs, jobs: int, clock: Optional[layers.LayerClock]
) -> Tuple[float, str, Dict[str, object]]:
    """One session: decode the log, reproduce, render the report.

    Returns (wall seconds, report text, program metrics snapshot).
    """
    decode, run = SketchLog.from_bytes_compressed, reproduce
    obs = None
    if clock is not None:
        decode, run = clock.decode, clock.reproduce
        obs = ObsSession.create(trace=False, metrics=True)
    started = time.perf_counter()
    recorded = _decoded(inputs.recorded, inputs.log_bytes, decode)
    report = run(recorded, inputs.config, match_output=True, jobs=jobs, obs=obs)
    text = render_report(report)
    wall = time.perf_counter() - started
    snapshot = obs.metrics.snapshot() if obs is not None else {}
    return wall, text, snapshot


def run_search(
    seconds: float, trace: bool, jobs: int, digests: Dict[str, str],
    clock: Optional[layers.LayerClock], speed: HostSpeed,
) -> Outcome:
    out = Outcome(speed)
    inputs = out.set_up(lambda: search_setup(digests, out))
    out.meta.update(
        recording_seed=inputs.recorded.seed,
        base_seed=inputs.config.base_seed, jobs=jobs,
    )

    began = time.perf_counter()
    index = 0
    before_calibration = out.speed.point()
    while time.perf_counter() - began < seconds or (trace and index < 2):
        # A traced run alternates untraced and traced sessions, so both
        # sides of trace.overhead_frac see the same host.
        traced = trace and index % 2 == 1
        index += 1
        out.attempted += 1
        if traced:
            clock.install()
            before = clock.snapshot()
        try:
            wall, text, snapshot = search_session(
                inputs, jobs, clock if traced else None
            )
        except Exception as exc:  # counted, reported, and the run goes on
            out.fail(f"session {index}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if traced:
                clock.uninstall()
            after_calibration = out.speed.point()
            calibration = (before_calibration + after_calibration) / 2
            before_calibration = after_calibration
        if text != inputs.reference:
            out.fail(f"session {index}: report differs from the reference")
        if not traced:
            out.op_s.append(wall)
            out.op_calibration_s.append(calibration)
            continue
        out.traced_op_s.append(wall)
        parent, workers = layers.delta(clock.snapshot(), before)
        layers.add(out.parent, parent)
        layers.add(out.workers, workers)
        charged = sum(parent[f"{layer}.s"] for layer in layers.LAYERS)
        out.unattributed_s.append(wall - charged)
        gauges = snapshot.get("gauges", {})
        hist = snapshot.get("histograms", {}).get("parallel.prefix_depth")
        for name, value in (
            ("pool.warm_init_s", gauges.get("parallel.warm_init_s", 0.0)),
            ("prefix.depth_sum", hist["sum"] if hist else 0.0),
            ("prefix.depth_count", hist["count"] if hist else 0.0),
        ):
            out.gauges[name] = out.gauges.get(name, 0.0) + value
    return out


# -- service -----------------------------------------------------------------


@dataclass
class Pair:
    bug: str
    sketch: str
    seed: int
    reference: str


@dataclass
class ServiceInputs:
    pairs: List[Pair]
    #: (pair index, exploration jobs) of each job in a round, in offer order.
    sequence: List[Tuple[int, int]]


def service_sequence(seed: int, n_pairs: int) -> List[Tuple[int, int]]:
    """A round's jobs: each pair once in pair order (cold), then warm repeats.

    Every pair is repeated ``WARM_REPEATS`` times in the warm phase, in an
    order the seed draws, so every seed offers the same work.  ``jobs``
    alternates 1/2 over a pair's successive jobs, starting at 1 for even
    pair indices and at 2 for odd ones, so half the cold replays go
    through the pool.
    """
    rng = random.Random(seed)
    warm = [pair for pair in range(n_pairs) for _ in range(WARM_REPEATS)]
    rng.shuffle(warm)
    order = list(range(n_pairs)) + warm
    count = [0] * n_pairs
    sequence = []
    for pair_index in order:
        sequence.append((pair_index, 1 + (pair_index + count[pair_index]) % 2))
        count[pair_index] += 1
    return sequence


def service_setup(
    seed: int, digests: Dict[str, str], workdir: str, out: Outcome
) -> ServiceInputs:
    """Seed search, recordings, serial references, one server start."""
    pairs = []
    for bug in ALL_BUG_IDS:
        for sketch in SERVICE_SKETCHES:
            recorded = record_bug(bug, sketch, 4, {})
            report = reproduce(recorded, ExplorerConfig(max_attempts=SERVICE_CAP))
            text = render_report(report)
            _check_digest(out, digests, f"service/{bug}/{sketch}", text)
            pairs.append(Pair(bug, sketch, recorded.seed, text))
    store = os.path.join(workdir, "setup-store")
    with ServiceThread(store, slots=SERVICE_SLOTS, pool_jobs=POOL_JOBS) as service:
        ServiceClient(service.url).health()
    shutil.rmtree(store, ignore_errors=True)
    return ServiceInputs(pairs, service_sequence(seed, len(pairs)))


def service_job(
    client: ServiceClient, pair: Pair, jobs: int, index: int, out: Outcome
) -> Optional[float]:
    """Submit one job, poll it until it ends and check its report.

    Returns the seconds from submission to the status poll that saw it
    done, or None if the job failed (counted in ``out``).
    """
    request = JobRequest(
        bug=pair.bug, tenant=pair.bug, sketch=pair.sketch,
        seed=pair.seed, max_attempts=SERVICE_CAP, jobs=jobs,
    )
    sent = time.perf_counter()
    try:
        doc = client.submit(request)
        out.sample("http.submit", time.perf_counter() - sent)
        while doc["state"] in ("queued", "running"):
            if time.perf_counter() - sent > JOB_DEADLINE_S:
                out.fail(f"job {index}: still {doc['state']} after {JOB_DEADLINE_S}s")
                return None
            time.sleep(POLL_INTERVAL_S)
            asked = time.perf_counter()
            doc = client.status(doc["id"])
            out.sample("http.poll", time.perf_counter() - asked)
        seen = time.perf_counter()
        if doc["state"] != "done":
            out.fail(f"job {index}: ended {doc['state']}: {doc.get('error')}")
            return None
        text = client.result_text(doc["id"])
    except ServiceError as exc:
        out.fail(f"job {index}: {exc}")
        return None
    if text != pair.reference:
        out.fail(f"job {index}: report differs from the reference")
    out.sample("svc.exec", doc["latency_s"])
    out.sample("svc.wait", seen - sent - doc["latency_s"])
    return seen - sent


def service_round(inputs: ServiceInputs, store: str, out: Outcome, traced: bool) -> None:
    """One round against a fresh server on an empty store; audit each job.

    Jobs are offered one at a time, each once the previous one is seen
    done, with a calibration between consecutive jobs: an untraced job's
    time is scaled by the mean of the two calibrations around it.
    """
    cold_jobs = len(inputs.pairs)
    with ServiceThread(store, slots=SERVICE_SLOTS, pool_jobs=POOL_JOBS) as service:
        client = ServiceClient(service.url)
        before = out.speed.point(repeats=1)
        for index, (pair_index, jobs) in enumerate(inputs.sequence):
            out.attempted += 1
            latency = service_job(client, inputs.pairs[pair_index], jobs, index, out)
            after = out.speed.point(repeats=1)
            calibration = (before + after) / 2
            before = after
            if latency is not None:
                out.sample("job.cold" if index < cold_jobs else "job.warm", latency)
                if traced:
                    out.traced_op_s.append(latency)
                else:
                    out.op_s.append(latency)
                    out.op_calibration_s.append(calibration)


def run_service(
    seed: int, seconds: float, trace: bool, digests: Dict[str, str],
    clock: Optional[layers.LayerClock], workdir: str, speed: HostSpeed,
) -> Outcome:
    out = Outcome(speed)
    inputs = out.set_up(lambda: service_setup(seed, digests, workdir, out))
    out.meta.update(
        jobs_per_round=len(inputs.sequence), poll_interval_s=POLL_INTERVAL_S,
        slots=SERVICE_SLOTS, pool_jobs=POOL_JOBS,
    )
    began = time.perf_counter()
    index = 0
    while time.perf_counter() - began < seconds or (trace and index < 2):
        # A traced run alternates untraced and traced rounds.
        traced = trace and index % 2 == 1
        store = os.path.join(workdir, f"round-{index}")
        index += 1
        if traced:
            clock.install()
            before = clock.snapshot()
        try:
            service_round(inputs, store, out, traced)
        finally:
            if traced:
                parent, workers = layers.delta(clock.snapshot(), before)
                clock.uninstall()
                layers.add(out.parent, parent)
                layers.add(out.workers, workers)
            shutil.rmtree(store, ignore_errors=True)
    out.meta["rounds"] = index
    return out


def reference_digests() -> Dict[str, str]:
    """Digests of every default-seed reference report (``--write-digests``)."""
    out = Outcome(HostSpeed())
    digests = {"search": digest(search_setup({}, out).reference)}
    for bug in ALL_BUG_IDS:
        for sketch in SERVICE_SKETCHES:
            recorded = record_bug(bug, sketch, 4, {})
            report = reproduce(recorded, ExplorerConfig(max_attempts=SERVICE_CAP))
            digests[f"service/{bug}/{sketch}"] = digest(render_report(report))
    return digests
