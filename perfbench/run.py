"""Repo benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload cold-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
timings are host seconds scaled to a nominal host speed by a reference
kernel timed between operations (``speed.py``); the unscaled figures
are printed too.
``--trace 1`` serves the first half of the run's inputs untraced, then
replays exactly the same inputs with every public layer function
wrapped in a span, and reports the per-layer metrics, the tracing
overhead and whether both passes chose identical mappings.  The
traced pass's spans are written as Chrome trace-event JSON under
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one failed, and 2 (with no
result line) when the program or its checkpoint cannot be found.  See
``NOTES.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # repro: lint-ignore[RPR002] -- setup_s starts at process start

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys

#: BLAS threads are pinned before numpy loads, so a run never depends on
#: how many cores the BLAS pool would grab by itself.
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5
WORKLOADS = ("cold-mix", "dup-burst", "fleet-churn")
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "goodput_ratio": "ratio",
    "throughput_boost": "ratio",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics timed in host seconds; reported scaled to the
#: nominal host speed, and also printed unscaled (``speed.py``).
HOST_TIME_METRICS = ("setup_s", "latency_p50_s", "latency_p90_s", "ops_per_s")
ENV_METHODS = ("step", "legal_actions", "is_terminal", "is_losing", "current_dnn")
#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    **{f"environment.calls.{name}": "count" for name in ENV_METHODS},
    "environment.calls_per_decision": "count",
    "environment.self_s": "s",
    "mcts.iterations": "count",
    "mcts.transposition_hits": "count",
    "mcts.losing_rollouts": "count",
    "mcts.self_s": "s",
    "embedding.calls": "count",
    "embedding.rows": "count",
    "embedding.self_s": "s",
    "estimator.forward_calls": "count",
    "estimator.forward_rows": "count",
    "estimator.self_s": "s",
    "estimator.mode_toggles": "count",
    "estimator.plan_compiles": "count",
    "engine.busy_s": "s",
    "engine.pooled_batches": "count",
    "engine.pooled_batch_mean": "count",
    "engine.queries_actual": "count",
    "engine.queries_budget": "count",
    "frontdoor.windows": "count",
    "frontdoor.window_size_mean": "count",
    "frontdoor.full_flush_share": "ratio",
    "frontdoor.queue_wait_p50_s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_s": "s",
    "cache.entries_persisted": "count",
    "cache.snapshot_bytes": "bytes",
    "cache.evictions": "count",
    "online.warm_replans": "count",
    "online.cold_replans": "count",
    "online.idle_events": "count",
    "online.iterations": "count",
    "online.stopped_early": "count",
    "online.busy_s": "s",
    "placement.calls": "count",
    "placement.evaluations": "count",
    "placement.busy_s": "s",
    "fleet.migrations": "count",
    "journal.appends": "count",
    "journal.bytes": "bytes",
    "journal.busy_s": "s",
    "builder.assemble_s": "s",
    "builder.load_s": "s",
    "builder.train_s": "s",
    "builder.warmup_s": "s",
    "generator.late_p90_s": "s",
    "generator.backlog_end": "count",
    "trace.overhead_ratio": "ratio",
    "trace.search_self_share": "ratio",
    "trace.decisions": "count",
    "trace.spans": "count",
}


def _now() -> float:
    return time.perf_counter()  # repro: lint-ignore[RPR002] -- set-up is host time by definition


def host_facts(checkpoint: str) -> dict:
    """Facts that make runs from different hosts never compared."""
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    with open(checkpoint, "rb") as handle:
        checkpoint_sha = hashlib.sha256(handle.read()).hexdigest()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "checkpoint_sha256": checkpoint_sha,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> str:
    """HEAD's commit when run from a git checkout, else ``unavailable``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unavailable"


def _source_digest() -> str:
    """sha256 over the program's sources: identifies the code without git."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(source):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def end_to_end(workload, result, setup_totals, import_s, scaled=True) -> dict:
    """The end-to-end metrics of one untraced run, in scaled seconds
    (or, with ``scaled=False``, in raw host seconds)."""
    import drivers
    from inputs import quantile

    limit = drivers.LATENCY_LIMIT_S[workload]
    latencies = result.scaled_s if scaled else result.latencies_s
    elapsed = result.scaled_elapsed_s if scaled else result.elapsed_s
    good = [latency for latency, ok in zip(latencies, result.ok) if ok]
    attempted = len(latencies)
    within = sum(1 for latency, ok in zip(latencies, result.ok) if ok and latency <= limit)
    return {
        "setup_s": import_s + statistics.median(setup_totals),
        "latency_p50_s": quantile(good, 0.5),
        "latency_p90_s": quantile(good, 0.9),
        "ops_per_s": len(good) / elapsed if elapsed > 0 else 0.0,
        "goodput_ratio": within / attempted if attempted else 0.0,
        "throughput_boost": drivers.throughput_boost(result.chosen),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, tracer) -> dict:
    """The per-layer metrics of a traced pass (set-up and load generator
    figures come from the untraced pass, which is not slowed by spans)."""
    stats = traced.stats
    layer = traced.layer
    results = tracer.search_results
    env_calls = {name: tracer.calls(f"environment.{name}") for name in ENV_METHODS}
    lookups = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
    batches = stats.get("pooled_eval_batches", 0)
    op_s = tracer.total_s("op")
    search_self = (
        sum(tracer.self_s(f"environment.{name}") for name in ENV_METHODS)
        + tracer.self_s("mcts.search_steps")
        + tracer.self_s("estimator.forward")
    )
    metrics = {
        **{f"environment.calls.{name}": count for name, count in env_calls.items()},
        "environment.calls_per_decision": sum(env_calls.values()) / len(results) if results else 0.0,
        "environment.self_s": sum(tracer.self_s(f"environment.{name}") for name in ENV_METHODS),
        "mcts.iterations": sum(result.iterations for result in results),
        "mcts.transposition_hits": sum(result.cache_hits for result in results),
        "mcts.losing_rollouts": sum(result.losing_rollouts for result in results),
        "mcts.self_s": tracer.self_s("mcts.search_steps"),
        "embedding.calls": tracer.calls("embedding.encode_batch"),
        "embedding.rows": tracer.counts.get("embedding.encode_batch.rows", 0),
        "embedding.self_s": tracer.self_s("embedding.encode_batch"),
        "estimator.forward_calls": tracer.calls("estimator.forward"),
        "estimator.forward_rows": tracer.counts.get("estimator.forward.rows", 0),
        "estimator.self_s": tracer.self_s("estimator.forward"),
        "estimator.mode_toggles": tracer.mode_toggles,
        "estimator.plan_compiles": layer.get("estimator.plan_compiles", 0),
        "engine.busy_s": tracer.total_s("engine.schedule_many") + tracer.total_s("engine.replay_group"),
        "engine.pooled_batches": batches,
        "engine.pooled_batch_mean": stats.get("pooled_evaluations", 0) / batches if batches else 0.0,
        "engine.queries_actual": stats.get("estimator_queries_actual", 0),
        "engine.queries_budget": stats.get("estimator_queries", 0),
        "frontdoor.windows": layer.get("frontdoor.windows", 0),
        "frontdoor.window_size_mean": layer.get("frontdoor.window_size_mean", 0.0),
        "frontdoor.full_flush_share": layer.get("frontdoor.full_flush_share", 0.0),
        "frontdoor.queue_wait_p50_s": layer.get("frontdoor.queue_wait_p50_s", 0.0),
        "cache.lookups": tracer.calls("cache.get"),
        "cache.hit_ratio": stats.get("cache_hits", 0) / lookups if lookups else 0.0,
        "cache.put_s": tracer.total_s("cache.put"),
        "cache.entries_persisted": layer.get("cache.entries_persisted", 0),
        "cache.snapshot_bytes": layer.get("cache.snapshot_bytes", 0),
        "cache.evictions": layer.get("cache.evictions", 0),
        "online.warm_replans": layer.get("online.warm_replans", 0),
        "online.cold_replans": layer.get("online.cold_replans", 0),
        "online.idle_events": layer.get("online.idle_events", 0),
        "online.iterations": layer.get("online.iterations", 0),
        "online.stopped_early": layer.get("online.stopped_early", 0),
        "online.busy_s": tracer.total_s("online.plan_steps"),
        "placement.calls": tracer.calls("placement.place"),
        "placement.evaluations": layer.get("placement.evaluations", 0),
        "placement.busy_s": tracer.total_s("placement.place"),
        "fleet.migrations": layer.get("fleet.migrations", 0),
        "journal.appends": tracer.calls("journal.append_group"),
        "journal.bytes": layer.get("journal.bytes", 0),
        "journal.busy_s": tracer.total_s("journal.append_group"),
        **{f"builder.{phase}": value for phase, value in plain.phases.items()},
        "generator.late_p90_s": plain.layer.get("generator.late_p90_s", 0.0),
        "generator.backlog_end": plain.layer.get("generator.backlog_end", 0),
        "trace.overhead_ratio": traced.work_s / plain.work_s if plain.work_s > 0 else 0.0,
        "trace.search_self_share": search_self / op_s if op_s > 0 else 0.0,
        "trace.decisions": len(results),
        "trace.spans": len(tracer.spans),
    }
    return metrics


def count_checks(workload, traced, tracer) -> list:
    """Benchmark-side counts against the program's own ServiceStats/FleetStats."""
    stats = traced.stats
    rows = tracer.counts.get("estimator.forward.rows", 0)
    results = tracer.search_results
    checks = [
        ("estimator rows == estimator query_count", rows, stats["query_count"]),
    ]
    if workload == "fleet-churn":
        checks += [
            ("placement.place calls == FleetStats.placements", tracer.calls("placement.place"), stats["placements"]),
            ("journal appends == journaled groups", tracer.calls("journal.append_group"), traced.layer["journal.groups"]),
            ("warm re-plans == trace_warm_reschedules", traced.layer["online.warm_replans"], stats["trace_warm_reschedules"]),
            ("timeline records == trace_events", stats["records"], stats["trace_events"]),
        ]
    else:
        hits_misses = stats["cache_hits"] + stats["cache_misses"]
        checks += [
            ("estimator rows == ServiceStats.estimator_queries_actual", rows, stats["estimator_queries_actual"]),
            ("estimator forward calls == ServiceStats.pooled_eval_batches", tracer.calls("estimator.forward"), stats["pooled_eval_batches"]),
            ("cache lookups == cache hits + misses", tracer.calls("cache.get"), hits_misses),
            ("cache puts == cache misses", tracer.calls("cache.put"), stats["cache_misses"]),
            ("searches == cache misses", len(results), stats["cache_misses"]),
            ("search evaluations == ServiceStats.estimator_queries", sum(r.evaluations for r in results), stats["estimator_queries"]),
            ("search cache misses == ServiceStats.estimator_queries_actual", sum(r.cache_misses for r in results), stats["estimator_queries_actual"]),
        ]
    return [(name, float(ours), float(theirs)) for name, ours, theirs in checks]


def extra_setup(drivers, workload: str, workdir: str, meter) -> tuple:
    """One more full set-up, discarded once timed (for the setup_s median).

    Returns its host seconds and its scaled seconds.
    """
    if workload == "fleet-churn":
        built, scaled = drivers.timed_setup(drivers.setup_fleet, meter)
    else:
        built, scaled = drivers.timed_setup(lambda: drivers.setup_service(workdir), meter)
    return sum(built[-1].values()), scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    import drivers  # imports the program
    from speed import Speedometer
    from tracer import Tracer

    if not os.path.isfile(drivers.CHECKPOINT):
        print(f"perfbench: checkpoint {drivers.CHECKPOINT} is missing", file=sys.stderr)
        return 2

    import_s = _now() - PROCESS_START
    meter = Speedometer()
    meter.sample()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    driver = drivers.DRIVERS[args.workload]
    problems = []
    try:
        if args.trace == 0:
            setups = [
                extra_setup(drivers, args.workload, os.path.join(workdir, f"setup-{repeat}"), meter)
                for repeat in range(SETUP_REPEATS - 1)
            ]
            result = driver(args.seed, args.seconds, os.path.join(workdir, "run"), meter)
            setups.append((sum(result.phases.values()), result.setup_scaled_s))
            # The imports are scaled by the first samples of the run: the one
            # taken right after them and those after the first set-ups.
            import_scaled_s = meter.scaled(import_s, PROCESS_START, PROCESS_START, around=SETUP_REPEATS)
            metrics = end_to_end(args.workload, result, [scaled for _raw, scaled in setups], import_scaled_s)
            host_metrics = end_to_end(args.workload, result, [raw for raw, _scaled in setups], import_s, scaled=False)
            units = END_TO_END_UNITS
            attempted, failed = len(result.latencies_s), result.failed
            problems += result.problems
            shown = result
        else:
            plain = driver(args.seed, args.seconds / 2, os.path.join(workdir, "plain"), meter)
            tracer = Tracer()
            traced = driver(args.seed, args.seconds / 2, os.path.join(workdir, "traced"), meter, replay_ops=plain.ops, tracer=tracer)
            metrics = per_layer(plain, traced, tracer)
            units = PER_LAYER_UNITS
            attempted = len(plain.latencies_s) + len(traced.latencies_s)
            failed = plain.failed + traced.failed
            problems += plain.problems + traced.problems
            if plain.mappings != traced.mappings:
                differing = sorted(k for k in plain.mappings.keys() | traced.mappings.keys() if plain.mappings.get(k) != traced.mappings.get(k))
                problems.append(f"traced and untraced passes chose different mappings for ops {differing[:5]}")
            for key in drivers.STABLE_COUNTERS:
                if key in plain.stats and plain.stats[key] != traced.stats.get(key):
                    problems.append(f"{key}: untraced {plain.stats[key]} != traced {traced.stats.get(key)}")
            for name, ours, theirs in count_checks(args.workload, traced, tracer):
                print(f"count-check {'ok ' if ours == theirs else 'BAD'} {name}: {ours:g} vs {theirs:g}")
                if ours != theirs:
                    problems.append(f"count check failed: {name}: {ours:g} != {theirs:g}")
            trace_path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path)
            print(f"trace {os.path.relpath(trace_path, ROOT)}: {len(tracer.spans)} spans")
            shown = plain
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    facts = host_facts(drivers.CHECKPOINT)
    facts["reference_median_s"] = round(meter.median_s(), 6)
    facts["reference_samples"] = len(meter.samples)
    print("host " + json.dumps(facts, sort_keys=True))
    properties = dict(shown.properties)
    properties["cache_capacity"] = "4 x 128"
    properties["operations"] = shown.ops
    print("workload " + json.dumps(properties, sort_keys=True))
    if args.trace == 0:
        count = sum(shown.ok)
        note = "" if count >= 100 else f" (from {count} samples, fewer than 100)"
        print(f"samples {count} ok of {len(shown.latencies_s)} attempted{note}")
        print(f"metric failed_ratio {failed / attempted if attempted else 0.0:.6g} ratio")
    if args.trace == 0:
        for name in HOST_TIME_METRICS:
            print(f"host-metric {name} {host_metrics[name]:.6g} {units[name]} (unscaled host time)")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for problem in problems:
        print(f"check FAILED: {problem}")
    correct = not problems and failed == 0
    print(f"checks {'passed' if correct else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
