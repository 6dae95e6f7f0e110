"""One run of one workload, in its own process (started by ``run.py``).

    python3 perfbench/workload.py --workload lubm-warm --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object; the line before it
is the run's record (environment, resolved engine configuration, dataset
sizes, seeds, sample counts).  Both are also written under
``.perfbench/`` in the checkout, with the raw spans of traced runs.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import hostspeed  # noqa: E402
import loadgen  # noqa: E402
import queries  # noqa: E402
from hostspeed import HostSpeed, to_reference_rate, to_reference_time  # noqa: E402
from tracing import KERNELS, ROOT, Instrumentation, Tracer  # noqa: E402

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    mix: str
    #: p99 limit of max_qps_under_slo (also stated in BENCHMARK.json).
    slo_ms: float
    serving: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lubm-warm", 8, "warm", 250.0),
        Workload("lubm-varied", 60, "varied", 250.0),
        Workload("lubm-analytic", 8, "analytic", 1000.0),
        Workload("serve-shards", 8, "serve", 250.0, serving=True),
    )
}

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Host-speed samples: one after each HOST_SAMPLE_INTERVAL_S of request
#: time in the closed loop, and bursts of HOST_BURST_S outside it.
HOST_SAMPLE_INTERVAL_S = 0.25
HOST_BURST_S = 0.25
#: serve-shards sends each server's share of the latency phase in this many
#: segments, with a host-speed burst before each while the server is idle.
SERVE_SEGMENTS = 2
#: Every timed phase completes at least this many requests (p99 rule).
MIN_REQUESTS = benchstats.required_samples(0.99)
#: Most windows the FIFO replay of max_qps_under_slo cuts a run into.  A
#: lubm-varied run holds two or three garbage-collector pauses of 250-375 ms
#: (its LUBM(60) heap); each sinks the capacity of its window, so the
#: median needs more windows than pauses (five were not enough).
REPLAY_WINDOWS = 9
#: Wall-clock cap of one closed-loop phase (answer checks included), so a
#: traced run's two phases fit the 180 s a run may take.
MAX_PHASE_WALL_S = 60.0
#: Query answered during set-up (lazy solver, pool and index builds).
FIRST_QUERY_ID = "Q1"
#: serve-shards offered rate of the latency phase, requests/s: a quarter of
#: the mix's capacity on the 2-CPU development box (max_qps_under_slo of
#: 214, 214 and 236/s unscaled in three runs), so that the latency figures
#: measure service and not a queue that is building up.
SERVE_RATE = 54.0
#: Untimed passes over the warm queries before serve-shards measures.
SERVE_WARMUP_PASSES = 3
#: Wall-clock budget of the serve-shards capacity search, and where it
#: starts: this multiple of 1 / mean service time of the latency phase
#: (capacity sat at 0.9-1.8x that on the 2-CPU development box).
SEARCH_BUDGET_S = 30.0
SEARCH_START = 1.3
#: Generator lag p99 beyond which a serve-shards run is flagged.
LOADGEN_LAG_LIMIT_MS = 5.0
#: Engine constructor arguments, pinned (the package defaults today) so no
#: ``REPRO_*`` variable can change the configuration under test.
ENGINE_ARGS = {
    "result_pipeline": "batch",
    "plan_cache_size": 128,
    "region_cache_bytes": 64 << 20,
    "join_memory_bytes": 64 << 20,
    "join_partitions": 16,
    "path_index_bytes": 64 << 20,
    "cache_admission": "tinylfu",
    "cache_sketch_bytes": 64 << 10,
    "region_cache_plan_share": 1.0,
}

END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms", "ttfb_p50_ms": "ms",
    "throughput_qps": "1/s", "success_rate": "share", "peak_rss_mb": "MB",
    "max_qps_under_slo": "1/s",
}

PER_LAYER_UNITS: Dict[str, str] = {
    "parser.self_ms": "ms/req",
    "parser.share": "share",
    "plan_cache.lookup_self_ms": "ms/req",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.evictions": "count",
    "plan.compile_calls": "calls/req",
    "plan.compile_self_ms": "ms/req",
    "solve.self_ms": "ms/req",
    "explore.calls": "calls/req",
    "explore.self_ms": "ms/req",
    "region_cache.hit_ratio": "ratio",
    "region_cache.evictions": "count",
    "region_cache.rejected": "count",
    "admission.calls": "calls/req",
    "admission.self_ms": "ms/req",
    "search.self_ms": "ms/req",
    "search.rows": "rows/req",
    "search.rows_per_region": "rows/region",
    **{
        f"operators.{kernel}.{suffix}": unit
        for kernel, _ in KERNELS
        for suffix, unit in (("self_ms", "ms/req"), ("rows_in", "rows/req"), ("rows_out", "rows/req"))
    },
    "operators.spilled_bytes": "B",
    "decode.self_ms": "ms/req",
    "decode.rows": "rows/req",
    "serialize.self_ms": "ms/req",
    "serialize.bytes": "B/req",
    "shards.wait_ms": "ms/req",
    "shards.calls": "calls/req",
    "transport.ring_batches": "count",
    "transport.queue_batches": "count",
    "transport.shm_bytes": "B",
    "scheduler.self_ms": "ms/req",
    "scheduler.queue_wait_p50_ms": "ms",
    "scheduler.queue_wait_p99_ms": "ms",
    "scheduler.rejected": "count",
    "scheduler.timed_out": "count",
    "server.unattributed_p50_ms": "ms",
    "unattributed.self_ms": "ms/req",
    "request.wall_ms": "ms/req",
    "setup.dataset_s": "s",
    "setup.load_s": "s",
    "setup.first_query_s": "s",
    "trace.overhead_ratio": "ratio",
    "host.sample_ms": "ms",
    "leaked_resources": "count",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.behind": "flag",
    "mix.first_seen_share": "share",
    "error_rate": "share",
}

#: Layer whose self time each ``*.self_ms`` / ``*_ms`` per-request metric reports.
SELF_TIME_METRICS = {
    "parser.self_ms": "parser",
    "plan_cache.lookup_self_ms": "plan_cache",
    "plan.compile_self_ms": "plan",
    "solve.self_ms": "solve",
    "explore.self_ms": "explore",
    "admission.self_ms": "admission",
    "search.self_ms": "search",
    "decode.self_ms": "decode",
    "serialize.self_ms": "serialize",
    "shards.wait_ms": "shards",
    "scheduler.self_ms": "scheduler",
    **{f"operators.{kernel}.self_ms": f"operators.{kernel}" for kernel, _ in KERNELS},
}
#: Per-request counter metrics: metric -> tracer counter.
COUNT_METRICS = {
    "plan.compile_calls": "plan.calls",
    "explore.calls": "explore.calls",
    "admission.calls": "admission.calls",
    "search.rows": "search.rows",
    "decode.rows": "decode.rows",
    "serialize.bytes": "serialize.bytes",
    "shards.calls": "shards.calls",
    **{
        f"operators.{kernel}.{suffix}": f"operators.{kernel}.{suffix}"
        for kernel, _ in KERNELS
        for suffix in ("rows_in", "rows_out")
    },
}


# --------------------------------------------------------------- environment
def checkout_root() -> Path:
    return HERE.parent


def peak_rss() -> float:
    """Peak resident set of this process in MB.

    Read from ``VmHWM``, which a freshly executed process starts afresh;
    ``ru_maxrss`` would carry over the peak of the parent it was forked
    from.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_segments() -> set:
    """Names of the anonymous shared-memory segments now in /dev/shm."""
    return {os.path.basename(path) for path in glob.glob("/dev/shm/psm_*")}


def spill_dirs() -> List[str]:
    """Spill directories left in this run's temporary directory."""
    return sorted(glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*")))


def make_engine(execution_mode: str, workers: int):
    """TurboHOM++ with every constructor argument pinned (an unknown one raises)."""
    from repro.engine.turbo_engine import TurboHomPPEngine
    from repro.matching.config import MatchConfig

    return TurboHomPPEngine(
        config=MatchConfig.turbo_hom_pp(),
        workers=workers,
        execution_mode=execution_mode,
        **ENGINE_ARGS,
    )


def engine_mode(workload: Workload):
    return ("processes", 2) if workload.serving else ("threads", 1)


def execute(engine, text: str):
    """Run one request: ``(seconds to first chunk, seconds to last byte, chunks)``."""
    from repro.sparql import serializers

    start = clock()
    result = engine.query_batches(text)
    with result:
        chunks = serializers.serialize_json(result.variables, result)
        first = next(chunks)
        first_at = clock()
        parts = [first]
        parts.extend(chunks)
    end = clock()
    return first_at - start, end - start, parts


def timed_setup(workload: Workload, first_query_id: str):
    """Build dataset and engine and answer one query; returns the timings."""
    from repro.datasets import load_lubm

    started = clock()
    dataset = load_lubm(workload.scale, seed=queries.DATASET_SEED)
    generated = clock()
    engine = make_engine(*engine_mode(workload))
    engine.load(dataset.store)
    loaded = clock()
    execute(engine, dataset.queries[first_query_id])
    answered = clock()
    return dataset, engine, {
        "dataset_s": generated - started,
        "load_s": loaded - generated,
        "first_query_s": answered - loaded,
    }


def config_record(engine, dataset) -> dict:
    return {
        "engine": type(engine).__name__,
        "engine_stats": engine.stats(),
        "engine_args": ENGINE_ARGS,
        "dataset": dataset.name,
        "original_triples": dataset.original_triples,
        "total_triples": dataset.total_triples,
    }


def environment_record(workload: Workload, seed: int) -> dict:
    return {
        "workload": workload.name,
        "workload_seed": seed,
        "dataset_seed": queries.DATASET_SEED,
        "scale": workload.scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "slo_p99_ms": workload.slo_ms,
    }


# ------------------------------------------------------------ in-process loop
@dataclass
class Phase:
    latencies: List[float] = field(default_factory=list)
    ttfbs: List[float] = field(default_factory=list)
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    first_seen: int = 0
    errors: List[str] = field(default_factory=list)
    answers: queries.AnswerLog = field(default_factory=queries.AnswerLog)
    host_ms: List[float] = field(default_factory=list)
    #: The mix ran out (lubm-varied's walk never repeats an instance).
    mix_spent: bool = False


def closed_loop(engine, mix: Iterator, seconds: float, seen: set, host: HostSpeed,
                tracer: Optional[Tracer] = None) -> Phase:
    """One client, one request at a time, until ``seconds`` of request time
    and at least MIN_REQUESTS completions, or until a finite mix runs out.
    Between requests, outside the timed window, each response is reduced
    to its row digest and the host's speed is sampled."""
    phase = Phase()
    sampled_at = 0.0
    wall_start = clock()
    while (phase.busy < seconds or len(phase.latencies) < MIN_REQUESTS) and (
        clock() - wall_start < MAX_PHASE_WALL_S
    ):
        request = next(mix, None)
        if request is None:
            phase.mix_spent = True
            break
        phase.attempted += 1
        phase.first_seen += first_seen(seen, request.text)
        try:
            if tracer is not None:
                with tracer.request(phase.attempted):
                    ttfb, latency, parts = execute(engine, request.text)
            else:
                ttfb, latency, parts = execute(engine, request.text)
        except Exception as error:  # a failed request is counted, not fatal
            phase.failed += 1
            if len(phase.errors) < 5:
                phase.errors.append(f"{type(error).__name__}: {error}")
            continue
        phase.busy += latency
        phase.latencies.append(latency)
        phase.ttfbs.append(ttfb)
        phase.answers.record(request.ref, b"".join(parts))
        if phase.busy - sampled_at >= HOST_SAMPLE_INTERVAL_S:
            sampled_at = phase.busy
            phase.host_ms.append(host.sample())
    if not phase.host_ms:
        phase.host_ms.append(host.sample())
    return phase


def replay_capacity(service: Sequence[float], failed: int, slo: float) -> float:
    """Highest 1%-grid rate at which a FIFO replay of ``service`` meets the SLO.

    A rate at which the engine is busy all the time (utilisation >= 1) has
    a growing backlog and never passes, however short the replay.  The run
    is cut into windows of at least MIN_REQUESTS consecutive requests (at
    most REPLAY_WINDOWS) and each is replayed on its own; the median window
    is reported, so a few stalls do not decide the run.
    """
    def capacity(window: Sequence[float], window_failed: int) -> float:
        busy = statistics.fmean(window)

        def passes(index: int) -> bool:
            rate = benchstats.rate_grid(index, 1.0, 0.01)
            return rate * busy < 1.0 and benchstats.slo_met(
                benchstats.replay_fifo(window, rate), window_failed, slo
            )

        top = math.ceil(math.log(1e6) / math.log1p(0.01))
        best = benchstats.highest_passing(passes, 0, top)
        return 0.0 if best is None else benchstats.rate_grid(best, 1.0, 0.01)

    windows = max(1, min(REPLAY_WINDOWS, len(service) // MIN_REQUESTS))
    size = len(service) // windows
    return statistics.median(
        capacity(service[i * size:(i + 1) * size], failed // windows) for i in range(windows)
    )


def latency_metrics(latencies: Sequence[float], ttfbs: Sequence[float]) -> dict:
    """Raw latency percentiles in ms."""
    return {
        "latency_p50_ms": benchstats.percentile(latencies, 0.50) * 1e3,
        "latency_p99_ms": benchstats.percentile(latencies, 0.99) * 1e3,
        "ttfb_p50_ms": benchstats.percentile(ttfbs, 0.50) * 1e3,
    }


#: Metrics converted to the reference host (see hostspeed.py): durations
#: and rates.  Generator lag and the host samples themselves stay raw.
RATE_METRICS = ("throughput_qps", "max_qps_under_slo")
TIME_METRICS = frozenset(
    name
    for units in (END_TO_END_UNITS, PER_LAYER_UNITS)
    for name, unit in units.items()
    if unit in ("ms", "ms/req", "s") and not name.startswith(("loadgen.", "host."))
)


def stat_delta(before: dict, after: dict) -> dict:
    """Counter deltas of the engine stats sections the per-layer metrics use."""
    def section(stats, name):
        return stats.get(name) or {}

    def diff(name, key):
        value = section(after, name).get(key, 0) - section(before, name).get(key, 0)
        return value if isinstance(value, (int, float)) else 0

    return {
        "plan_hits": diff("plan_cache", "hits"),
        "plan_misses": diff("plan_cache", "misses"),
        "plan_evictions": diff("plan_cache", "evictions"),
        "region_hits": diff("region_cache", "hits"),
        "region_misses": diff("region_cache", "misses"),
        "region_evictions": diff("region_cache", "evictions") + diff("region_cache", "plan_evictions"),
        "region_rejected": diff("region_cache", "admission_rejects"),
        "spilled_bytes": diff("operators", "spilled_bytes"),
        "ring_batches": diff("transport", "ring_batches"),
        "queue_batches": diff("transport", "queue_batches"),
        "shm_bytes": diff("transport", "shm_bytes"),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records: Sequence[dict], walls: Sequence[float], delta: dict) -> dict:
    """Per-layer metrics of a traced phase.

    ``records`` are per-request summaries (``self_s``, ``counts``,
    ``covered_s``); ``walls`` the matching request wall times.  The
    unattributed remainder of a request is its wall time minus the time its
    layer spans cover, so the per-request layer self times plus
    ``unattributed.self_ms`` add up to ``request.wall_ms``.
    """
    n = len(records)

    def total(layer: str) -> float:
        return sum(r["self_s"].get(layer, 0.0) for r in records)

    def count(name: str) -> float:
        return sum(r["counts"].get(name, 0.0) for r in records)

    wall_total = sum(walls)
    unattributed = [w - r["covered_s"] for r, w in zip(records, walls)]
    metrics = {name: total(layer) / n * 1e3 for name, layer in SELF_TIME_METRICS.items()}
    metrics.update({name: count(counter) / n for name, counter in COUNT_METRICS.items()})
    metrics["parser.share"] = ratio(total("parser"), wall_total)
    metrics["search.rows_per_region"] = ratio(count("search.rows"), count("search.regions"))
    metrics["unattributed.self_ms"] = (sum(unattributed) + total(ROOT)) / n * 1e3
    metrics["request.wall_ms"] = wall_total / n * 1e3
    metrics["plan_cache.hit_ratio"] = ratio(delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"])
    metrics["plan_cache.evictions"] = delta["plan_evictions"]
    metrics["region_cache.hit_ratio"] = ratio(
        delta["region_hits"], delta["region_hits"] + delta["region_misses"]
    )
    metrics["region_cache.evictions"] = delta["region_evictions"]
    metrics["region_cache.rejected"] = delta["region_rejected"]
    metrics["operators.spilled_bytes"] = delta["spilled_bytes"]
    metrics["transport.ring_batches"] = delta["ring_batches"]
    metrics["transport.queue_batches"] = delta["queue_batches"]
    metrics["transport.shm_bytes"] = delta["shm_bytes"]
    queue_waits = [r["self_s"].get("scheduler", 0.0) for r in records]
    metrics["scheduler.queue_wait_p50_ms"] = benchstats.percentile(queue_waits, 0.5) * 1e3
    metrics["scheduler.queue_wait_p99_ms"] = benchstats.percentile(queue_waits, 0.99) * 1e3
    metrics["server.unattributed_p50_ms"] = benchstats.percentile(unattributed, 0.5) * 1e3
    # Scheduler outcomes come from the server's /stats (serve-shards only).
    metrics["scheduler.rejected"] = 0.0
    metrics["scheduler.timed_out"] = 0.0
    return metrics


def warmup_requests(workload: Workload, texts: Dict[str, str], mix: Iterator) -> List[queries.Request]:
    """Untimed requests that let caches fill and lazy builds finish."""
    if workload.mix == "varied":
        # The walk's first instance of each template; taken from the walk,
        # so the timed phases never send them again.
        picked: Dict[str, queries.Request] = {}
        while len(picked) < len(queries.TEMPLATES):
            request = next(mix)
            picked.setdefault(request.ref[1], request)
        return list(picked.values())
    return [queries.Request(text, ("query", text)) for text in texts.values()]


def mix_record(phases: Sequence[Phase], pool_size: int) -> dict:
    """How the timed phases used the mix (in every run's record)."""
    attempted = sum(p.attempted for p in phases)
    return {
        "pool": pool_size,
        "requests": attempted,
        "first_seen_share": sum(p.first_seen for p in phases) / attempted,
        "mix_spent": any(p.mix_spent for p in phases),
        "request_time_s": [p.busy for p in phases],
    }


def run_in_process(workload: Workload, seed: int, seconds: float, trace: bool,
                   host: HostSpeed) -> dict:
    shm_before = shm_segments()
    setups: List[dict] = []
    setup_host_ms: List[float] = []
    dataset = engine = None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
            dataset = engine = None
            gc.collect()
        setup_host_ms += host.burst(HOST_BURST_S)
        dataset, engine, setup = timed_setup(workload, FIRST_QUERY_ID)
        setups.append(setup)
    if workload.mix == "varied":
        texts: Dict[str, str] = {}
        pool = queries.template_pool(dataset.store)
        mix = queries.varied_mix(pool, seed)
    else:
        texts = queries.fixed_queries(workload.mix, dataset.queries)
        pool = []
        mix = queries.fixed_mix(texts, seed)
    seen: set = set()
    for request in warmup_requests(workload, texts, mix):
        execute(engine, request.text)

    # A traced run splits its time between an untraced and a traced phase,
    # so lubm-varied's walk stays first-seen through both.
    phase_seconds = seconds / 2 if trace else seconds
    baseline = closed_loop(engine, mix, phase_seconds, seen, host)
    peak_rss_mb = peak_rss()
    phases = [baseline]
    record = {"samples": len(baseline.latencies), "setups": setups}
    raw: Dict[str, float] = setup_metrics(setups, trace)
    spans = None
    if trace:
        tracer = Tracer()
        stats_before = engine.stats()
        instrumentation = Instrumentation(tracer).install()
        try:
            traced = closed_loop(engine, mix, phase_seconds, seen, host, tracer)
        finally:
            instrumentation.uninstall()
        phases.append(traced)
        records = [r.summary() for r in tracer.requests]
        walls = [r["wall_s"] for r in records]
        raw.update(layer_metrics(records, walls, stat_delta(stats_before, engine.stats())))
        raw["trace.overhead_ratio"] = (
            to_reference_time(statistics.fmean(walls), traced.host_ms)
            / to_reference_time(statistics.fmean(baseline.latencies), baseline.host_ms)
        )
        raw["mix.first_seen_share"] = traced.first_seen / traced.attempted
        raw["loadgen.lag_p99_ms"] = 0.0
        raw["loadgen.behind"] = 0.0
        record["traced_samples"] = len(traced.latencies)
        spans = tracer.raw_spans()
        layer_host_ms = traced.host_ms
    else:
        raw.update(latency_metrics(baseline.latencies, baseline.ttfbs))
        raw["throughput_qps"] = len(baseline.latencies) / baseline.busy
        record["latency_max_ms"] = max(baseline.latencies) * 1e3
        raw["peak_rss_mb"] = peak_rss_mb
        raw["max_qps_under_slo"] = replay_capacity(
            baseline.latencies, baseline.failed, workload.slo_ms / 1e3
        )
        layer_host_ms = baseline.host_ms
    record["mix"] = mix_record(phases, len(pool))
    record["config"] = config_record(engine, dataset)
    engine.close()
    leaked = len(shm_segments() - shm_before) + len(spill_dirs())

    reference = queries.references_for(dataset.store, [p.answers for p in phases])
    for phase in phases:
        phase.failed += phase.answers.wrong(reference)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if trace:
        raw["leaked_resources"] = float(leaked)
        raw["error_rate"] = failed / attempted
    else:
        raw["success_rate"] = 1.0 - baseline.failed / baseline.attempted
    record["errors"] = [e for p in phases for e in p.errors]
    record["reference_engines"] = reference["engines"]
    record["leaked_resources"] = leaked
    return finish(raw, record, setup_host_ms, layer_host_ms, attempted, failed, spans)


def setup_metrics(setups: List[dict], trace: bool) -> Dict[str, float]:
    """Raw set-up metrics: the median total, or the median of each part."""
    if not trace:
        return {"setup_s": statistics.median(sum(s.values()) for s in setups)}
    return {
        f"setup.{part}": statistics.median(s[part] for s in setups)
        for part in ("dataset_s", "load_s", "first_query_s")
    }


def finish(raw: Dict[str, float], record: dict, setup_host_ms: List[float],
           run_host_ms: List[float], attempted: int, failed: int, spans,
           unscaled: Sequence[str] = ()) -> dict:
    """Convert durations and rates to the reference host; keep the raw figures.

    Set-up figures use the samples taken around the set-ups; everything
    else uses the samples taken during the measured phase.  ``unscaled``
    names figures the host's speed does not set (an open loop's achieved
    rate follows its offered rate).
    """
    metrics = dict(raw)
    for name, value in raw.items():
        samples = setup_host_ms if name.startswith("setup") else run_host_ms
        if name in unscaled:
            continue
        if name in TIME_METRICS:
            metrics[name] = to_reference_time(value, samples)
        elif name in RATE_METRICS:
            metrics[name] = to_reference_rate(value, samples)
    metrics["host.sample_ms"] = statistics.median(run_host_ms)
    record["raw_metrics"] = raw
    record["host_sample_ms"] = {
        "setup": statistics.median(setup_host_ms),
        "run": statistics.median(run_host_ms),
        "reference": hostspeed.REFERENCE_MS,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "record": record, "spans": spans}


# ---------------------------------------------------------------- serving
class ServerProcess:
    """A serve.py child: started on construction, stopped by :meth:`stop`."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=60)
            raise RuntimeError(f"server exited during set-up (code {self.proc.returncode})")
        self.ready = json.loads(line)
        self.port = self.ready["port"]
        self.setup = dict(self.ready["setup"])

    def stats(self) -> dict:
        return loadgen.get_json("127.0.0.1", self.port, "/stats")

    def stop(self) -> dict:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        output = self.proc.stdout.read()
        self.proc.wait(timeout=60)
        lines = [line for line in output.splitlines() if line.strip()]
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"server exited with code {self.proc.returncode}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def serve_requests(mix: Iterator, count: int, prefix: str) -> List[tuple]:
    """(key, path, request) triples for ``count`` requests of the mix."""
    out = []
    for index in range(count):
        request = next(mix)
        out.append((f"{prefix}-{index}", loadgen.sparql_path(request.text), request))
    return out


def send(server: ServerProcess, batch: List[tuple], rate: float, **limits):
    """Open loop over ``batch``; returns ([(request, outcome)], aborted)."""
    outcomes, aborted = loadgen.open_loop(
        "127.0.0.1", server.port, [(key, path) for key, path, _ in batch], rate, **limits
    )
    return [(batch[o.index][2], o) for o in outcomes], aborted


def warm_server(server: ServerProcess, texts: Dict[str, str]) -> None:
    """Send each warm query a few times, untimed, so that plan and region
    caches fill (in every shard worker) before timing."""
    paths = [
        (f"warmup-{i}", loadgen.sparql_path(text))
        for i, text in enumerate(list(texts.values()) * SERVE_WARMUP_PASSES)
    ]
    outcomes, _ = loadgen.open_loop("127.0.0.1", server.port, paths, SERVE_RATE, connections=1)
    if not all(o.ok for o in outcomes):
        raise RuntimeError("warm-up request failed")


def split(total: int, parts: int) -> List[int]:
    """``total`` in ``parts`` sizes that differ by at most one."""
    return [total // parts + (1 if part < total % parts else 0) for part in range(parts)]


def latency_phase(server: ServerProcess, mix: Iterator, count: int, prefix: str,
                  host: HostSpeed):
    """``count`` requests at the fixed rate, in segments with a host-speed
    burst before each.

    Returns ``(pairs, spans_s, host_ms)``: the (request, outcome) pairs,
    the wall time of each segment from first due time to last byte, and
    the host samples.
    """
    pairs: List[tuple] = []
    spans_s: List[float] = []
    host_ms: List[float] = []
    for segment, size in enumerate(split(count, SERVE_SEGMENTS)):
        host_ms += host.burst(HOST_BURST_S)
        done, _ = send(server, serve_requests(mix, size, f"{prefix}{segment}"), SERVE_RATE)
        pairs += done
        answered = [o for _, o in done if o.ok]
        if answered:
            spans_s.append(max(o.end for o in answered) - min(o.due for _, o in done))
    host_ms += host.burst(HOST_BURST_S)
    return pairs, spans_s, host_ms


def log_outcomes(pairs, answers: queries.AnswerLog) -> int:
    """Record the bodies of answered requests; returns errors and non-200s."""
    failed = 0
    for request, outcome in pairs:
        if outcome.ok:
            answers.record(request.ref, outcome.body)
        else:
            failed += 1
        outcome.body = None
    return failed


def open_loop_metrics(pairs, spans_s: List[float]) -> dict:
    done = [o for _, o in pairs if o.ok]
    metrics = latency_metrics([o.latency for o in done], [o.first - o.due for o in done])
    metrics["throughput_qps"] = len(done) / sum(spans_s)
    return metrics


def run_serving(workload: Workload, seed: int, seconds: float, trace: bool,
                host: HostSpeed) -> dict:
    from repro.datasets import load_lubm

    shm_before = shm_segments()
    dataset = load_lubm(workload.scale, seed=queries.DATASET_SEED)
    texts = queries.fixed_queries("warm", dataset.queries)
    pool = queries.template_pool(dataset.store)
    mix = queries.serve_mix(dataset.queries, pool, seed)
    setups: List[dict] = []
    setup_host_ms: List[float] = []
    finals: List[dict] = []
    record: dict = {"pool": len(pool), "serve_rate": SERVE_RATE}
    raw: Dict[str, float] = {}
    # Per phase: [requests attempted, errors and non-200s, answer log].
    phases: List[list] = []
    spans = None
    servers: List[ServerProcess] = []

    def start(traced: bool) -> ServerProcess:
        nonlocal setup_host_ms
        setup_host_ms += host.burst(HOST_BURST_S)
        server = ServerProcess(traced)
        servers.append(server)
        setups.append(server.setup)
        return server

    def stop(server: ServerProcess) -> dict:
        final = server.stop()
        finals.append(final)
        return final

    def account(pairs) -> list:
        answers = queries.AnswerLog()
        phase = [len(pairs), log_outcomes(pairs, answers), answers]
        phases.append(phase)
        return phase

    try:
        seen = {hash(text) for text in texts.values()}
        total = max(MIN_REQUESTS, int(SERVE_RATE * seconds))
        # The untraced latency phase is shared out over every server the run
        # starts (one per set-up): a server process, with its shard workers,
        # keeps its own speed for its whole life (warm Q9 took 51-97 ms in
        # different processes), so one process would make p99 a draw of one.
        shares = [total] if trace else split(total, SETUP_REPEATS)
        for _ in range(SETUP_REPEATS - len(shares) - (1 if trace else 0)):
            stop(start(False))
        pairs, spans_s, run_host_ms = [], [], []
        for index, share in enumerate(shares):
            if index:
                stop(server)
            server = start(False)
            warm_server(server, texts)
            part = latency_phase(server, mix, share, f"fixed{index}-", host)
            pairs += part[0]
            spans_s += part[1]
            run_host_ms += part[2]
        record["config"] = server.ready["config"]
        record["scheduler"] = server.ready["scheduler"]
        record["first_seen_share"] = first_seen_share(pairs, seen)
        fixed = account(pairs)
        record["samples"] = sum(1 for _, o in pairs if o.ok)
        record["loadgen_lag_p99_ms"] = benchstats.percentile([o.lag for _, o in pairs], 0.99) * 1e3
        if not trace:
            raw.update(open_loop_metrics(pairs, spans_s))
            service = [o.end - o.send for _, o in pairs if o.ok]
            estimate = SEARCH_START * len(service) / sum(service)

            def run_probe(rate: float) -> loadgen.Probe:
                run_host_ms.extend(host.burst(HOST_BURST_S))
                probe, aborted = send(
                    server, serve_requests(mix, loadgen.PROBE_REQUESTS, "probe"), rate,
                    miss_limit=loadgen.PROBE_REQUESTS // 100, slo=workload.slo_ms / 1e3,
                )
                account(probe)
                outcomes = [o for _, o in probe]
                passed, p99_ms, backlog = loadgen.probe_verdict(
                    outcomes, loadgen.PROBE_REQUESTS, workload.slo_ms / 1e3, aborted
                )
                return loadgen.Probe(rate, passed, len(outcomes), p99_ms, backlog, aborted)

            capacity, probes = loadgen.capacity_search(run_probe, estimate, clock() + SEARCH_BUDGET_S)
            raw["max_qps_under_slo"] = capacity if capacity is not None else 0.0
            record["capacity_estimate"] = estimate
            record["probes"] = [p.__dict__ for p in probes]
            raw["peak_rss_mb"] = stop(server)["peak_rss_mb"]
        else:
            stop(server)
            baseline_mean = to_reference_time(
                statistics.fmean(o.latency for _, o in pairs if o.ok), run_host_ms
            )
            server = start(True)
            warm_server(server, texts)
            stats_before = server.stats()
            pairs, spans_s, run_host_ms = latency_phase(server, mix, total, "traced", host)
            stats_after = server.stats()
            account(pairs)
            final = stop(server)
            by_key = {o.key: o for _, o in pairs if o.ok}
            records = [r for r in final["requests"] if r["key"] in by_key]
            walls = [by_key[r["key"]].end - by_key[r["key"]].send for r in records]
            delta = stat_delta(stats_before.get("engine", {}), stats_after.get("engine", {}))
            raw.update(layer_metrics(records, walls, delta))
            for outcome in ("rejected", "timed_out"):
                raw[f"scheduler.{outcome}"] = (
                    stats_after["scheduler"][outcome] - stats_before["scheduler"][outcome]
                )
            raw["trace.overhead_ratio"] = to_reference_time(
                statistics.fmean(o.latency for _, o in pairs if o.ok), run_host_ms
            ) / baseline_mean
            lag_p99 = benchstats.percentile([o.lag for _, o in pairs], 0.99) * 1e3
            raw["loadgen.lag_p99_ms"] = lag_p99
            raw["loadgen.behind"] = float(lag_p99 > LOADGEN_LAG_LIMIT_MS)
            raw["mix.first_seen_share"] = first_seen_share(pairs, seen)
            record["traced_samples"] = len(records)
            spans = final["raw_spans"]
    finally:
        for server in servers:
            server.kill()
    reference = queries.references_for(dataset.store, [phase[2] for phase in phases])
    for phase in phases:
        phase[1] += phase[2].wrong(reference)
    attempted = sum(phase[0] for phase in phases)
    failed = sum(phase[1] for phase in phases)
    leaked = sum(len(f["leaked_shm"]) + len(f["leaked_spill_dirs"]) for f in finals)
    record["leaked_shm_after_exit"] = sorted(shm_segments() - shm_before)
    record["leaked_resources"] = leaked
    record["setups"] = setups
    record["reference_engines"] = reference["engines"]
    record["loadgen_behind"] = record["loadgen_lag_p99_ms"] > LOADGEN_LAG_LIMIT_MS
    raw.update(setup_metrics(setups, trace))
    if trace:
        raw["leaked_resources"] = float(leaked)
        raw["error_rate"] = failed / attempted
    else:
        raw["success_rate"] = 1.0 - fixed[1] / fixed[0]
    return finish(raw, record, setup_host_ms, run_host_ms, attempted, failed, spans,
                  unscaled=("throughput_qps",))


def first_seen(seen: set, text: str) -> bool:
    """Whether ``text`` was not sent before in the run (and remember it)."""
    text_hash = hash(text)
    if text_hash in seen:
        return False
    seen.add(text_hash)
    return True


def first_seen_share(pairs, seen: set) -> float:
    """Share of the requests whose text was not sent before in the run."""
    return sum(first_seen(seen, request.text) for request, _ in pairs) / len(pairs)


# ---------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    runner = run_serving if workload.serving else run_in_process
    with HostSpeed() as host:
        outcome = runner(workload, args.seed, args.seconds, bool(args.trace), host)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(outcome["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(outcome["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {"environment": environment_record(workload, args.seed), **outcome["record"]}
    out_dir = checkout_root() / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, default=str)
    )
    if outcome["spans"] is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(outcome["spans"]))
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
