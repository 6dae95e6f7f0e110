"""The serve-shards server process: one SparqlServer over process shards.

Started by the serve-shards workload.  It builds its own dataset and
engine, answers one query, starts the server, and prints one JSON line
``{"port": ..., "setup": {...}}``.  It then serves until a line arrives on
standard input (or the input closes), shuts the server down, calls
``engine.close()``, and prints a final JSON line with its peak RSS, the
shared-memory segments and spill directories left behind, and — when
traced — the per-request layer records.

    python3 perfbench/serve.py --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workload  # noqa: E402  (needs the path above)
from tracing import Instrumentation, Tracer  # noqa: E402

#: Scheduler limits: as many executing queries as CPUs the benchmark
#: assumes, explicit so no environment override applies.
MAX_INFLIGHT = 2
QUEUE_DEPTH = 16
TIMEOUT_MS = 30_000
WARM_PLANS = 8


async def serve(server, ready: dict) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    started = time.perf_counter()
    await server.start()
    ready["setup"]["server_start_s"] = time.perf_counter() - started
    ready["port"] = server.port
    print(json.dumps(ready), flush=True)

    def wait_for_stop() -> None:
        sys.stdin.readline()
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=wait_for_stop, name="perfbench-stop", daemon=True).start()
    await stop.wait()
    await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.serving import SparqlServer

    shm_before = workload.shm_segments()
    dataset, engine, setup = workload.timed_setup(
        workload.WORKLOADS["serve-shards"], workload.FIRST_QUERY_ID
    )
    tracer = Tracer() if args.trace else None
    instrumentation = None
    if tracer is not None:
        # After set-up: the shard workers are already running, so they never
        # inherit the wrappers, and set-up is timed untraced.
        instrumentation = Instrumentation(tracer).install(serving=True)
    server = SparqlServer(
        engine,
        host="127.0.0.1",
        port=0,
        max_inflight=MAX_INFLIGHT,
        queue_depth=QUEUE_DEPTH,
        timeout_ms=TIMEOUT_MS,
        warm_plans=WARM_PLANS,
    )
    ready = {
        "setup": setup,
        "config": workload.config_record(engine, dataset),
        "scheduler": {
            "max_inflight": MAX_INFLIGHT,
            "queue_depth": QUEUE_DEPTH,
            "timeout_ms": TIMEOUT_MS,
            "warm_plans": WARM_PLANS,
        },
    }
    try:
        asyncio.run(serve(server, ready))
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
        engine.close()
    leaked_shm = sorted(workload.shm_segments() - shm_before)
    final = {
        "peak_rss_mb": workload.peak_rss(),
        "leaked_shm": leaked_shm,
        "leaked_spill_dirs": workload.spill_dirs(),
        "requests": [record.summary() for record in tracer.requests] if tracer else [],
        "raw_spans": tracer.raw_spans() if tracer else [],
    }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
