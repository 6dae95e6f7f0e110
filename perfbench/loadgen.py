"""Open-loop HTTP load generator and the capacity search of serve-shards.

Requests are due on a fixed schedule (``i / rate`` after the start) no
matter how the server responds.  At most ``connections`` requests are in
flight, one per keep-alive connection; a request whose due time passes
while every connection is busy waits, and that wait is part of its
latency, which runs from the due time to the last body byte.

The generator also times itself: ``lag`` is how late a request was sent
after both its due time and a free connection, i.e. time lost in the
generator (sleep overshoot, interpreter scheduling), not in the server.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchstats import (
    due_latency,
    end_backlog,
    generator_lag,
    highest_passing,
    percentile,
    rate_grid,
    slo_met,
)
from tracing import REQUEST_HEADER

#: Per-request socket timeout; the server's own deadline is shorter.
SOCKET_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """One request as the generator saw it (perf_counter seconds)."""

    index: int
    key: str
    due: float
    free: float
    send: float
    first: float = math.nan
    end: float = math.nan
    status: int = 0
    body: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency(self) -> float:
        return due_latency(self.due, self.end)

    @property
    def lag(self) -> float:
        return generator_lag(self.due, self.free, self.send)


def sparql_path(text: str) -> str:
    return "/sparql?query=" + urllib.parse.quote(text)


def open_loop(
    host: str,
    port: int,
    requests: Sequence[Tuple[str, str]],
    rate: float,
    connections: int = 2,
    miss_limit: Optional[int] = None,
    slo: Optional[float] = None,
) -> Tuple[List[Outcome], bool]:
    """Send ``(key, path)`` requests at ``rate`` per second; returns outcomes.

    With ``miss_limit`` and ``slo``, the run stops scheduling once more than
    ``miss_limit`` requests failed or exceeded ``slo`` seconds (the probe
    has already failed); the second value reports whether that happened.
    """
    lock = threading.Lock()
    state = {"next": 0, "misses": 0, "aborted": False}
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    start = time.perf_counter() + 0.05

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=SOCKET_TIMEOUT_S)
        try:
            while True:
                with lock:
                    if state["aborted"] or state["next"] >= len(requests):
                        return
                    index = state["next"]
                    state["next"] += 1
                free = time.perf_counter()
                due = start + index / rate
                delay = due - free
                if delay > 0:
                    time.sleep(delay)
                key, path = requests[index]
                outcome = Outcome(index, key, due, free, time.perf_counter())
                try:
                    conn.request("GET", path, headers={REQUEST_HEADER: key})
                    response = conn.getresponse()
                    outcome.first = time.perf_counter()
                    outcome.body = response.read()
                    outcome.end = time.perf_counter()
                    outcome.status = response.status
                except (OSError, http.client.HTTPException) as error:
                    outcome.end = time.perf_counter()
                    outcome.error = f"{type(error).__name__}: {error}"
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=SOCKET_TIMEOUT_S)
                outcomes[index] = outcome
                if miss_limit is not None:
                    missed = not outcome.ok or (slo is not None and outcome.latency > slo)
                    if missed:
                        with lock:
                            state["misses"] += 1
                            if state["misses"] > miss_limit:
                                state["aborted"] = True
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(SOCKET_TIMEOUT_S * (1 + len(requests)))
    return [o for o in outcomes if o is not None], state["aborted"]


def get_json(host: str, port: int, path: str) -> dict:
    """GET a JSON document (the server's ``/stats``) on a fresh connection."""
    import json

    conn = http.client.HTTPConnection(host, port, timeout=SOCKET_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)
    finally:
        conn.close()


# ------------------------------------------------------------ capacity search
#: The offered-rate grid: GRID_BASE * (1 + GRID_STEP) ** k requests/s.
GRID_BASE = 1.0
GRID_STEP = 0.05
#: Requests per probe: enough for p99 to have ten samples beyond it.
PROBE_REQUESTS = 1000
#: Grid steps of the initial bracket around the estimate (~1.22x).
BRACKET = 4


@dataclass
class Probe:
    rate: float
    passed: bool
    sent: int
    p99_ms: float
    backlog: int
    aborted: bool


def probe_verdict(outcomes: Sequence[Outcome], scheduled: int, slo: float, aborted: bool) -> Tuple[bool, float, int]:
    """(passed, p99 ms, end backlog) of one probe at a fixed offered rate.

    Passing needs every scheduled request sent, p99 within ``slo`` over the
    whole probe and over its second half (failures count as misses), and a
    backlog at the last due time of at most 5% of the requests: a rate
    beyond capacity leaves a queue that grows through the probe, while
    below it the queue stays short.
    """
    latencies = [o.latency for o in outcomes if o.ok]
    failed = sum(1 for o in outcomes if not o.ok)
    backlog = end_backlog([o.due for o in outcomes], [o.send for o in outcomes])
    if not latencies:
        return False, math.inf, backlog
    p99 = percentile(latencies + [math.inf] * failed, 0.99)
    passed = (
        not aborted
        and len(outcomes) == scheduled
        and slo_met(latencies, failed, slo)
        and backlog <= max(2, scheduled // 20)
    )
    return passed, p99 * 1000.0, backlog


class _OutOfTime(Exception):
    """The search budget ran out before the next probe."""


def capacity_search(
    run_probe: Callable[[float], Probe],
    estimate: float,
    deadline: float,
) -> Tuple[Optional[float], List[Probe]]:
    """Highest grid rate whose probe passes, searched the same way every run.

    Starts at the grid point nearest ``estimate``, walks by :data:`BRACKET`
    steps until the verdict flips, then bisects the bracket.  No probe
    starts after ``deadline`` (perf_counter); the search then keeps the
    highest rate that passed so far.
    """
    probes: List[Probe] = []
    verdicts: Dict[int, bool] = {}

    def passes(index: int) -> bool:
        if index not in verdicts:
            if time.perf_counter() > deadline:
                raise _OutOfTime
            probe = run_probe(rate_grid(index, GRID_BASE, GRID_STEP))
            probes.append(probe)
            verdicts[index] = probe.passed
        return verdicts[index]

    start = max(0, round(math.log(max(estimate, GRID_BASE) / GRID_BASE) / math.log1p(GRID_STEP)))
    try:
        if passes(start):
            low, high = start, start + BRACKET
            while passes(high):
                low, high = high, high + BRACKET
        else:
            high, low = start, max(0, start - BRACKET)
            while not passes(low):
                if low == 0:
                    return None, probes
                high, low = low, max(0, low - BRACKET)
        highest_passing(passes, low + 1, high - 1)
    except _OutOfTime:
        pass
    passing = [index for index, passed in verdicts.items() if passed]
    if not passing:
        return None, probes
    return rate_grid(max(passing), GRID_BASE, GRID_STEP), probes
