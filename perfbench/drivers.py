"""The three workload drivers: set-up, timed phase, output checks, metrics.

Each driver talks to the program only through its public API
(``SchedulingService``, ``AsyncFrontDoor``, ``FleetService``,
``SystemBuilder``, ``Cluster``) and returns a :class:`Pass` -- what one
pass over the workload's inputs produced.  ``run.py`` turns passes into
the reported metrics.

All latencies are timed here, by the caller, and each is also
scaled to a nominal host speed by the reference-kernel samples a
:class:`~speed.Speedometer` takes between operations.  None is read from
``ScheduleResponse.measured_wall_time_s``: inside an ``AsyncFrontDoor``
window that field only covers the request's own cache lookup, while
the request actually waited for its whole window's drive (see
``NOTES.md``).
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    AsyncFrontDoor,
    Cluster,
    FleetService,
    ScheduleRequest,
    SchedulingService,
    SystemBuilder,
    Workload,
)
from repro.baselines.gpu_only import GpuOnlyScheduler
from repro.estimator.model import ThroughputEstimator
from repro.resilience import TraceJournal
from repro.sim import BoardSimulator, Mapping

import inputs
from speed import Speedometer
from tracer import Tracer, patched

CHECKPOINT = os.path.join("benchmarks", ".cache", "estimator_s2500_e80_seed0.npz")
#: ``dup-burst`` offered load: bursts of one window's worth of requests
#: (Poisson bursts per second, at least ``DUP_MIN_GAP_S`` apart), each
#: request a 25-query decision.  A window's drive takes about 80 ms of
#: host time, so windows queue behind each other only when the host runs
#: 3x slower than that: the latency is the program's, not a queue's that
#: grows with the host's load.
DUP_BURSTS_PER_S = 3.0
DUP_MIN_GAP_S = 0.25
DUP_WINDOW = 8
DUP_BUDGET = 25
#: The open-loop generator spins (instead of sleeping) this close to a
#: request's due time.
SPIN_S = 0.002
#: The reference kernel is sampled between bursts only when the next one
#: is due in more than this many times the kernel's last duration.
REFERENCE_GAP = 3.0
#: ``cold-mix`` samples the reference kernel after every this many
#: estimator forwards inside a decision (about four per decision).
FORWARDS_PER_SAMPLE = 125
#: ``fleet-churn`` cluster and its small per-board estimators.
FLEET_BOARDS = {
    "edge0": "hikey970",
    "edge1": "hikey970_with_npu",
    "edge2": "cpu_only_board",
}
FLEET_ESTIMATOR = {"num_training_samples": 40, "epochs": 3}
#: Per-operation latency limit behind ``goodput_ratio``, per workload.
LATENCY_LIMIT_S = {"cold-mix": 4.0, "dup-burst": 2.0, "fleet-churn": 1.5}
#: Timing-independent counters compared between two passes over the
#: same inputs (pooled batch counts depend on window timing in an open
#: loop, so they are compared only within one pass).
STABLE_COUNTERS = (
    "requests_served",
    "cache_hits",
    "cache_misses",
    "estimator_queries",
    "estimator_queries_actual",
    "trace_events",
    "trace_reschedules",
    "trace_warm_reschedules",
)

clock = time.perf_counter


def _now() -> float:
    return clock()  # repro: lint-ignore[RPR002] -- caller-side host timing is what the benchmark measures


@dataclass
class Pass:
    """What one pass over a workload's inputs produced."""

    #: One entry per attempted operation: caller-timed latency, and
    #: whether the operation succeeded and passed its output checks.
    latencies_s: List[float] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    #: ``latencies_s`` scaled to the nominal host speed.
    scaled_s: List[float] = field(default_factory=list)
    #: Host seconds of the timed phase (closed loop: summed operation
    #: time; open loop: first due time to last completion).
    elapsed_s: float = 0.0
    #: ``elapsed_s`` scaled to the nominal host speed (closed loops; the
    #: open loop's span is set by its schedule and is not scaled).
    scaled_elapsed_s: float = 0.0
    #: Operation identity -> chosen mapping rows keyed by model name.
    mappings: Dict[str, Dict[str, Tuple[int, ...]]] = field(default_factory=dict)
    #: (models, mapping, platform) for throughput_boost.
    chosen: List[Tuple[Sequence, Mapping, object]] = field(default_factory=list)
    #: Failed output checks, as messages.
    problems: List[str] = field(default_factory=list)
    #: Counter deltas of the program's own stats over the timed phase.
    stats: Dict[str, float] = field(default_factory=dict)
    #: Workload properties printed with every run.
    properties: Dict[str, object] = field(default_factory=dict)
    #: Per-layer numbers the driver measured itself.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Set-up phases (assemble, load, train, warm-up) in host seconds.
    phases: Dict[str, float] = field(default_factory=dict)
    #: The whole set-up, scaled to the nominal host speed.
    setup_scaled_s: float = 0.0
    #: Operations completed (inputs consumed) -- a traced pass replays
    #: exactly this many.
    ops: int = 0
    #: Host seconds the program spent serving (the tracing-overhead base).
    work_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def fail(self, message: str) -> None:
        """Mark the latest operation failed."""
        self.ok[-1] = False
        self.problems.append(message)


def _operation(tracer: Optional[Tracer], op_id: int):
    """The traced pass's root span for one operation; nothing when untraced."""
    return tracer.operation(op_id) if tracer is not None else nullcontext()


def _patched(tracer: Optional[Tracer]):
    return patched(tracer) if tracer is not None else nullcontext()


def _rows_by_name(names: Sequence[str], mapping: Mapping) -> Dict[str, Tuple[int, ...]]:
    return dict(zip(names, mapping.assignments))


def check_mapping(models: Sequence, mapping: Mapping, num_devices: int) -> Optional[str]:
    """``None`` when ``mapping`` is a valid mapping of ``models``, else why not."""
    try:
        mapping.validate(models, num_devices)
    except ValueError as error:
        return str(error)
    if mapping.max_stages > num_devices:
        return f"{mapping.max_stages} stages exceed the {num_devices}-stage cap"
    return None


def _stats_delta(after, before) -> Dict[str, float]:
    now, then = asdict(after), asdict(before)
    return {
        key: now[key] - then[key]
        for key in STABLE_COUNTERS + ("pooled_eval_batches", "pooled_evaluations")
        if key in now
    }


def throughput_boost(chosen: Sequence[Tuple[Sequence, Mapping, object]]) -> float:
    """Geometric mean of simulated throughput over the GPU-only mapping's.

    Noise-free :meth:`BoardSimulator.simulate` on the board each mapping
    was chosen for -- simulated board time, not host time.
    """
    simulators: Dict[int, Tuple[BoardSimulator, int]] = {}
    logs = []
    for models, mapping, platform in chosen:
        if id(platform) not in simulators:
            simulators[id(platform)] = (
                BoardSimulator(platform),
                GpuOnlyScheduler(platform).device_id,
            )
        simulator, gpu = simulators[id(platform)]
        ours = simulator.simulate(models, mapping).average_throughput
        base = simulator.simulate(models, Mapping.single_device(models, gpu)).average_throughput
        logs.append(math.log(ours / base))
    return math.exp(sum(logs) / len(logs)) if logs else math.nan


# ----------------------------------------------------------------------
# Single-board set-up (cold-mix, dup-burst)
# ----------------------------------------------------------------------
def setup_service(workdir: str) -> Tuple[SchedulingService, SystemBuilder, Dict[str, float]]:
    """Assemble a checkpoint-backed service on a fresh ``cache_dir``."""
    started = _now()
    builder = SystemBuilder(seed=0).from_checkpoint(CHECKPOINT)
    service = SchedulingService(builder, cache_dir=workdir)
    builder.embedding  # profiles the board: latency table + embedding
    assembled = _now()
    builder.estimator  # loads the checkpoint
    loaded = _now()
    service.submit(Workload.from_names(inputs.WARMUP_MIX))
    warmed = _now()
    phases = {
        "assemble_s": assembled - started,
        "load_s": loaded - assembled,
        "train_s": 0.0,
        "warmup_s": warmed - loaded,
    }
    return service, builder, phases


def timed_setup(setup: Callable[[], tuple], meter: Speedometer) -> tuple:
    """Run ``setup``; returns its result and its scaled duration.

    The reference kernel is sampled once the set-up ends, so the next
    operation's scale has a sample just before it.
    """
    started = _now()
    built = setup()
    ended = _now()
    meter.sample()
    return built, meter.scaled(sum(built[-1].values()), started, ended)


def _snapshot_bytes(workdir: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(workdir):
        total += sum(
            os.path.getsize(os.path.join(folder, name))
            for name in files
            if name.endswith(".json")
        )
    return total


# ----------------------------------------------------------------------
# cold-mix: closed loop, one client, every request a new signature
# ----------------------------------------------------------------------
def cold_mix(
    seed: int,
    seconds: float,
    workdir: str,
    meter: Speedometer,
    replay_ops: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """One client submitting distinct mixes back to back.

    Runs for ``seconds`` of summed decision time, or -- for a traced
    replay -- exactly ``replay_ops`` decisions.  The reference kernel
    is sampled after every decision and, untraced, inside it (see
    :func:`_sampled_forwards`); a decision's latency excludes the
    samples inside it and is scaled by all of them and the two around.
    """
    (service, builder, phases), setup_scaled_s = timed_setup(lambda: setup_service(workdir), meter)
    platform = builder.platform
    num_devices = platform.num_devices
    estimator = builder.estimator
    result = Pass(phases=phases, setup_scaled_s=setup_scaled_s)
    before = service.stats()
    queries_before = estimator.query_count
    mixes = inputs.distinct_mixes(seed)
    seen = []
    with _patched(tracer):
        while (result.elapsed_s < seconds) if replay_ops is None else (result.ops < replay_ops):
            names = next(mixes)
            workload = Workload.from_names(names)
            seen.append(names)
            first_sample = len(meter.samples)
            sampled = _sampled_forwards(meter) if tracer is None else nullcontext()
            started = _now()
            try:
                with _operation(tracer, result.ops), sampled:
                    response = service.submit(workload)
            except Exception as error:  # a failed operation, reported as such
                ended = _now()
                result.ok.append(False)
                result.problems.append(f"decision {result.ops}: {error!r}")
            else:
                ended = _now()
                result.ok.append(True)
                problem = check_mapping(workload.models, response.mapping, num_devices)
                if problem is None and response.cache_status != "miss":
                    problem = f"cache status {response.cache_status!r} for a new signature"
                if problem is not None:
                    result.fail(f"decision {result.ops} {names}: {problem}")
                result.mappings[str(result.ops)] = _rows_by_name(names, response.mapping)
                result.chosen.append((workload.models, response.mapping, platform))
            inside_s = sum(seconds for _at, seconds in meter.samples[first_sample:])
            meter.sample()
            result.latencies_s.append(ended - started - inside_s)
            result.scaled_s.append(meter.scaled(result.latencies_s[-1], started, ended))
            result.elapsed_s += result.latencies_s[-1]
            result.scaled_elapsed_s += result.scaled_s[-1]
            result.ops += 1
    result.work_s = result.elapsed_s
    stats = service.stats()
    result.stats = _stats_delta(stats, before)
    result.stats["query_count"] = estimator.query_count - queries_before
    result.layer.update(
        {
            "cache.entries_persisted": stats.cache_persisted - before.cache_persisted,
            "cache.evictions": stats.cache_evictions - before.cache_evictions,
            "cache.snapshot_bytes": _snapshot_bytes(workdir),
            "estimator.plan_compiles": stats.estimator_plan_compiles - before.estimator_plan_compiles,
        }
    )
    result.properties = {
        "repeat_share": inputs.repeat_share(seen),
        "mix_sizes": inputs.size_histogram(seen),
        "distinct_signatures": inputs.distinct_signatures(seen),
    }
    if result.properties["repeat_share"] != 0:
        result.problems.append("cold-mix repeated a signature")
    return result


# ----------------------------------------------------------------------
# dup-burst: open loop through AsyncFrontDoor windows
# ----------------------------------------------------------------------
class _TimedService:
    """The front door's backend: times each window's ``schedule_many``."""

    def __init__(self, service: SchedulingService, tracer: Optional[Tracer]) -> None:
        self.service = service
        self.tracer = tracer
        self.busy_s = 0.0
        #: (start, request ids) per window.
        self.windows: List[Tuple[float, List[str]]] = []

    def schedule_many(self, requests):
        started = _now()
        self.windows.append((started, [request.request_id for request in requests]))
        try:
            with _operation(self.tracer, len(self.windows) - 1):
                return self.service.schedule_many(requests)
        finally:
            self.busy_s += _now() - started


def dup_burst(
    seed: int,
    seconds: float,
    workdir: str,
    meter: Speedometer,
    replay_ops: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Poisson bursts of 8 requests through ``AsyncFrontDoor(window_size=8)``.

    The schedule covers ``seconds``; a traced replay serves exactly its
    first ``replay_ops`` requests, at the same due times.  The
    reference kernel is sampled between bursts, only while no request
    is outstanding and the next burst is not due for a while.
    """
    (service, builder, phases), setup_scaled_s = timed_setup(lambda: setup_service(workdir), meter)
    platform = builder.platform
    num_devices = platform.num_devices
    schedule = inputs.dup_burst_schedule(seed, DUP_BURSTS_PER_S, seconds, DUP_WINDOW, DUP_MIN_GAP_S)
    if replay_ops is not None:
        schedule = schedule[:replay_ops]
    requests = [
        ScheduleRequest(
            workload=Workload.from_names(arrival.names),
            budget=DUP_BUDGET,
            request_id=str(arrival.index),
        )
        for arrival in schedule
    ]
    backend = _TimedService(service, tracer)
    frontdoor = AsyncFrontDoor(backend, window_size=DUP_WINDOW)
    count = len(schedule)
    submitted = [math.nan] * count
    done = [math.nan] * count
    responses: List = [None] * count
    errors: List[Optional[BaseException]] = [None] * count
    backlog_end = [0]
    before = service.stats()
    queries_before = builder.estimator.query_count

    async def one(index: int) -> None:
        try:
            responses[index] = await frontdoor.submit(requests[index])
        except Exception as error:  # a failed request, reported as such
            errors[index] = error
        done[index] = _now()

    async def drive() -> float:
        loop = asyncio.get_running_loop()
        tasks = []
        origin = _now()
        burst_due = None
        for arrival in schedule:
            due = origin + arrival.due_s
            if arrival.due_s != burst_due:
                # A new burst: two loop turns let the previous burst's
                # window drive and its requests resume, before anything
                # new is submitted.  Then, if the loop is idle and the
                # burst is not due yet, sample the reference kernel.
                burst_due = arrival.due_s
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                idle = not any(math.isnan(done[task]) for task in range(arrival.index))
                if idle and due - _now() > REFERENCE_GAP * meter.samples[-1][1]:
                    meter.sample()
            # Sleep to just before the due time, then spin: the event
            # loop's timer alone wakes up to a millisecond late, which
            # would swamp the sub-millisecond cache-hit path.
            if due - _now() > SPIN_S:
                await asyncio.sleep(due - _now() - SPIN_S)
            while _now() < due:
                pass
            submitted[arrival.index] = _now()
            if arrival.index == count - 1:
                backlog_end[0] = sum(
                    1
                    for earlier in schedule
                    if earlier.due_s < arrival.due_s and math.isnan(done[earlier.index])
                )
            tasks.append(loop.create_task(one(arrival.index)))
        await asyncio.gather(*tasks)
        await frontdoor.drain()
        meter.sample()
        return origin

    with _patched(tracer):
        origin = asyncio.run(drive())
    result = Pass(phases=phases, setup_scaled_s=setup_scaled_s, ops=count)
    result.elapsed_s = max(done) - origin if count else 0.0
    result.scaled_elapsed_s = result.elapsed_s
    for arrival in schedule:
        due = origin + arrival.due_s
        result.latencies_s.append(done[arrival.index] - due)
        result.scaled_s.append(meter.scaled(result.latencies_s[-1], due, done[arrival.index]))
        result.ok.append(True)
        response = responses[arrival.index]
        if errors[arrival.index] is not None or response is None:
            result.fail(f"request {arrival.index}: {errors[arrival.index]!r}")
            continue
        workload = requests[arrival.index].workload
        problem = check_mapping(workload.models, response.mapping, num_devices)
        rows = _rows_by_name(arrival.names, response.mapping)
        if problem is None and arrival.first != arrival.index:
            if response.cache_status == "miss":
                problem = "a repeated signature missed the cache"
            elif result.mappings.get(str(arrival.first)) != rows:
                problem = f"repeat of request {arrival.first} got a different decision"
        elif problem is None and response.cache_status != "miss":
            problem = f"cache status {response.cache_status!r} for a new signature"
        if problem is not None:
            result.fail(f"request {arrival.index} {arrival.names}: {problem}")
        result.mappings[str(arrival.index)] = rows
        result.chosen.append((workload.models, response.mapping, platform))
    result.work_s = backend.busy_s
    stats = service.stats()
    result.stats = _stats_delta(stats, before)
    result.stats["query_count"] = builder.estimator.query_count - queries_before
    window_of = {
        request_id: started for started, ids in backend.windows for request_id in ids
    }
    waits = [window_of[str(i)] - submitted[i] for i in range(count) if str(i) in window_of]
    lateness = [submitted[a.index] - (origin + a.due_s) for a in schedule]
    fd = frontdoor.stats
    result.layer.update(
        {
            "engine.busy_s": backend.busy_s,
            "frontdoor.windows": fd.windows,
            "frontdoor.window_size_mean": (sum(fd.window_sizes) / fd.windows) if fd.windows else 0.0,
            "frontdoor.full_flush_share": (fd.flushes["full"] / fd.windows) if fd.windows else 0.0,
            "frontdoor.queue_wait_p50_s": inputs.quantile(waits, 0.5),
            "cache.entries_persisted": stats.cache_persisted - before.cache_persisted,
            "cache.evictions": stats.cache_evictions - before.cache_evictions,
            "cache.snapshot_bytes": _snapshot_bytes(workdir),
            "estimator.plan_compiles": stats.estimator_plan_compiles - before.estimator_plan_compiles,
            "generator.late_p90_s": inputs.quantile(lateness, 0.9),
            "generator.backlog_end": backlog_end[0],
        }
    )
    mixes = [arrival.names for arrival in schedule]
    result.properties = {
        "repeat_share": inputs.repeat_share(mixes),
        "mix_sizes": inputs.size_histogram(mixes),
        "distinct_signatures": inputs.distinct_signatures(mixes),
        "bursts_per_s": DUP_BURSTS_PER_S,
        "min_gap_s": DUP_MIN_GAP_S,
        "burst_size": DUP_WINDOW,
        "budget": DUP_BUDGET,
    }
    return result


# ----------------------------------------------------------------------
# fleet-churn: churn traces replayed across a three-board fleet
# ----------------------------------------------------------------------
def setup_fleet() -> Tuple[FleetService, Cluster, Dict[str, float]]:
    """A three-board fleet with small per-board estimators trained now."""
    started = _now()
    cluster = Cluster.from_presets(FLEET_BOARDS, seed=0, estimator=FLEET_ESTIMATOR)
    fleet = FleetService(cluster)
    for board in cluster:
        board.source.embedding  # profiles the board
    assembled = _now()
    for board in cluster:
        board.source.estimator  # trains the board's estimator
    trained = _now()
    fleet.schedule_many([ScheduleRequest(workload=Workload.from_names(inputs.WARMUP_MIX))])
    warmed = _now()
    phases = {
        "assemble_s": assembled - started,
        "load_s": 0.0,
        "train_s": trained - assembled,
        "warmup_s": warmed - trained,
    }
    return fleet, cluster, phases


def _fleet_counters(fleet: FleetService, cluster: Cluster) -> Dict[str, float]:
    stats = fleet.stats()
    combined = asdict(stats.combined)
    counters = {key: combined[key] for key in STABLE_COUNTERS}
    counters["pooled_eval_batches"] = combined["pooled_eval_batches"]
    counters["pooled_evaluations"] = combined["pooled_evaluations"]
    counters["placements"] = stats.placements
    counters["placement_evaluations"] = stats.placement_evaluations
    counters["migrations"] = stats.migrations
    counters["query_count"] = sum(board.source.estimator.query_count for board in cluster)
    return counters


def fleet_churn(
    seed: int,
    seconds: float,
    workdir: str,
    meter: Speedometer,
    replay_ops: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Replay churn traces with journaling until ``seconds`` of replay.

    ``replay_ops`` counts traces for a traced replay.  The reference
    kernel is sampled after every journaled event group (see
    :func:`_sampled_groups`) and after every replay; every event is
    scaled by the samples on either side of its group, and the replay
    time excludes the samples.
    """
    (fleet, cluster, phases), setup_scaled_s = timed_setup(setup_fleet, meter)
    os.makedirs(workdir, exist_ok=True)
    result = Pass(phases=phases, setup_scaled_s=setup_scaled_s)
    before = _fleet_counters(fleet, cluster)
    traces = inputs.churn_traces(seed)
    records = []
    peaks = []
    journal_lines = 0
    journal_bytes = 0
    with _patched(tracer):
        while (result.elapsed_s < seconds) if replay_ops is None else (result.ops < replay_ops):
            trace = next(traces)
            peaks.append(inputs.max_concurrent(trace))
            journal = os.path.join(workdir, f"replay-{result.ops}.journal")
            group_sizes: List[int] = []
            first_sample = len(meter.samples)
            started = _now()
            try:
                with _operation(tracer, result.ops), _sampled_groups(meter, group_sizes):
                    report = fleet.run_trace(trace, record_mappings=True, checkpoint=journal)
            except Exception as error:  # a failed replay fails all its events
                ended = _now()
                meter.sample()
                replay_s, scaled_replay_s, _scales = _group_times(meter, first_sample, started, ended)
                result.latencies_s.extend([replay_s] * len(trace.events))
                result.scaled_s.extend([scaled_replay_s] * len(trace.events))
                result.ok.extend([False] * len(trace.events))
                result.problems.append(f"replay {result.ops}: {error!r}")
            else:
                ended = _now()
                meter.sample()
                replay_s, scaled_replay_s, scales = _group_times(meter, first_sample, started, ended)
                own = [record.reschedule_time_s for record in report.records]
                if sum(own) > replay_s:
                    result.problems.append(
                        f"replay {result.ops}: per-event times sum to {sum(own):.3f} s, "
                        f"more than the caller-timed {replay_s:.3f} s"
                    )
                if sum(group_sizes) != len(report.records):
                    result.problems.append(
                        f"replay {result.ops}: {sum(group_sizes)} journaled records, "
                        f"{len(report.records)} in the timeline"
                    )
                group_of = [group for group, size in enumerate(group_sizes) for _ in range(size)]
                # On a mismatch (reported above) unjournaled records take the last scale.
                group_of += [-1] * (len(report.records) - len(group_of))
                for record, group in zip(report.records, group_of):
                    result.latencies_s.append(record.reschedule_time_s)
                    result.scaled_s.append(record.reschedule_time_s * scales[group])
                    result.ok.append(True)
                    records.append(record)
                    _check_record(cluster, record, result)
            content = b""
            if os.path.exists(journal):
                with open(journal, "rb") as handle:
                    content = handle.read()
            journal_lines += content.count(b'"kind": "group"')
            journal_bytes += len(content)
            result.elapsed_s += replay_s
            result.scaled_elapsed_s += scaled_replay_s
            result.ops += 1
    result.work_s = result.elapsed_s
    after = _fleet_counters(fleet, cluster)
    result.stats = {key: after[key] - before[key] for key in after}
    modes = [record.mode for record in records]
    result.layer.update(
        {
            "online.warm_replans": modes.count("warm"),
            "online.cold_replans": modes.count("cold"),
            "online.idle_events": modes.count("idle"),
            "online.iterations": sum(record.iterations for record in records),
            "online.stopped_early": sum(1 for record in records if record.stopped_early),
            "placement.evaluations": result.stats["placement_evaluations"],
            "fleet.migrations": result.stats["migrations"],
            "journal.groups": journal_lines,
            "journal.bytes": journal_bytes,
        }
    )
    result.properties = {
        "events": len(records),
        "traces": result.ops,
        "max_concurrent_tenants": max(peaks) if peaks else 0,
        "max_tenants_per_board": max((len(r.active_models) for r in records), default=0),
        "boards": dict(FLEET_BOARDS),
    }
    result.stats["records"] = len(records)
    return result


@contextmanager
def _sampled_forwards(meter: Speedometer) -> Iterator[None]:
    """Sample the reference kernel after every ``FORWARDS_PER_SAMPLE``-th
    estimator forward.

    A 500-query decision takes about a second, and the host's speed
    changes within one, so samples only around it do not track it.
    The samples run inside the decision's timed span; the caller
    subtracts their time.
    """
    inner = ThroughputEstimator.__dict__["predict_throughput_batch"]
    calls = [0]

    def predict_throughput_batch(estimator, *args, **kwargs):
        predictions = inner(estimator, *args, **kwargs)
        calls[0] += 1
        if calls[0] % FORWARDS_PER_SAMPLE == 0:
            meter.sample()
        return predictions

    ThroughputEstimator.predict_throughput_batch = predict_throughput_batch
    try:
        yield
    finally:
        ThroughputEstimator.predict_throughput_batch = inner


@contextmanager
def _sampled_groups(meter: Speedometer, sizes: List[int]) -> Iterator[None]:
    """Sample the reference kernel after each journaled event group.

    ``FleetService.run_trace`` calls ``TraceJournal.append_group`` once
    per committed group, after the group's records and their
    ``reschedule_time_s`` are final, so a sample taken there falls
    between two groups' work, never inside an event's time.  A replay
    takes seconds and the host's speed changes within one, so samples
    around the whole replay would not track it.  ``sizes`` gets the
    number of records each group committed.
    """
    inner = TraceJournal.__dict__["append_group"]

    def append_group(journal, position, events, records, state):
        inner(journal, position, events, records, state)
        sizes.append(len(records))
        meter.sample()

    TraceJournal.append_group = append_group
    try:
        yield
    finally:
        TraceJournal.append_group = inner


def _group_times(meter: Speedometer, first: int, started: float, ended: float):
    """A replay's host seconds without its reference samples, the same
    scaled group by group, and each group's scale.

    ``meter.samples[first:]`` are the samples taken during the replay
    (one after each group) and the one taken after it.
    """
    host_s = scaled_s = 0.0
    scales = []
    previous = started
    for at, seconds in meter.samples[first:]:
        span_s = min(at - seconds, ended) - previous
        scale = meter.scale(previous, at)
        scales.append(scale)
        host_s += span_s
        scaled_s += span_s * scale
        previous = at
    return host_s, scaled_s, scales


def _check_record(cluster: Cluster, record, result: Pass) -> None:
    key = f"{result.ops}:{record.index}"
    if record.mapping_rows is None:
        result.mappings[key] = {"mode": record.mode, "board": record.board}
        return
    board = cluster.board(record.board)
    platform = board.platform
    models = Workload.from_names(record.active_models).models
    mapping = Mapping(record.mapping_rows)
    problem = check_mapping(models, mapping, platform.num_devices)
    if problem is None and len(models) > board.max_residency:
        problem = f"{len(models)} tenants exceed {record.board}'s residency cap"
    if problem is not None:
        result.fail(f"event {key} on {record.board}: {problem}")
        return
    result.mappings[key] = {
        "board": record.board,
        "mode": record.mode,
        "evaluations": record.evaluations,
        "iterations": record.iterations,
        **{name: list(row) for name, row in zip(record.active_models, record.mapping_rows)},
    }
    result.chosen.append((models, mapping, platform))


DRIVERS: Dict[str, Callable[..., Pass]] = {
    "cold-mix": cold_mix,
    "dup-burst": dup_burst,
    "fleet-churn": fleet_churn,
}
