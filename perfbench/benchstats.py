"""Order statistics, open-loop latency and the capacity search rules.

Every timing the benchmark reports goes through :func:`percentile` (nearest
rank, so a reported value is always one that was measured), and every timed
phase collects :func:`required_samples` of them: a percentile is reported
only when at least ten samples lie beyond it, which for p99 means at least
1000 samples.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1]) of unsorted samples."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def required_samples(fraction: float) -> int:
    """Smallest sample count for which the ``fraction`` percentile is reportable."""
    return math.ceil(TAIL_SAMPLES / (1.0 - fraction) - 1e-9)


def due_latency(due: float, end: float) -> float:
    """Open-loop latency: from the moment the request was due, not sent.

    A request the generator could not send on time (both connections busy
    with a stalled server) still counts the wait the stall imposed on it.
    """
    return end - due


def generator_lag(due: float, free: float, send: float) -> float:
    """How late the generator itself sent a request.

    ``free`` is when a connection became available to the request.  Waiting
    for a connection is the server's fault and is excluded; lateness after
    both the due time and a free connection is the generator's.
    """
    return max(0.0, send - max(due, free))


def end_backlog(dues: Sequence[float], sends: Sequence[float]) -> int:
    """Requests due but not yet sent at the due time of the last request."""
    if not dues:
        return 0
    last_due = max(dues)
    return sum(1 for send in sends if send > last_due + 1e-9)


def slo_met(
    latencies: Sequence[float],
    failed: int,
    limit: float,
    fraction: float = 0.99,
) -> bool:
    """Whether the ``fraction`` percentile meets ``limit`` over the sample.

    Failed or refused requests count as missing the limit (infinite
    latency).  The check runs over the whole sample and over its second
    half, so a backlog that grows through the probe fails it even when the
    early requests hide the tail.
    """
    values = list(latencies) + [math.inf] * failed
    if not values:
        return False
    half = values[len(values) // 2:]
    return percentile(values, fraction) <= limit and percentile(half, fraction) <= limit


def rate_grid(index: int, base: float, step: float) -> float:
    """The ``index``-th offered rate of the geometric search grid."""
    return base * (1.0 + step) ** index


def highest_passing(
    passes: Callable[[int], bool], low: int, high: int
) -> Optional[int]:
    """Largest index in [low, high] for which ``passes`` holds (monotone).

    ``passes`` must be monotone (true up to some index, false after); the
    search then probes O(log(high - low)) indexes.  Returns None when even
    ``low`` fails.
    """
    best: Optional[int] = None
    lo, hi = low, high
    while lo <= hi:
        mid = (lo + hi) // 2
        if passes(mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def replay_fifo(service: Sequence[float], rate: float) -> List[float]:
    """Latencies of a single FIFO server fed at a fixed rate (Lindley).

    ``service[i]`` is the measured service time of request ``i``; requests
    arrive every ``1 / rate`` seconds.  For an engine that serves one
    request at a time and whose service times do not depend on arrival
    times (the in-process sequential engine), this is exactly the latency
    an open loop at ``rate`` would observe.
    """
    gap = 1.0 / rate
    latencies: List[float] = []
    wait = 0.0
    previous = 0.0
    for index, duration in enumerate(service):
        if index:
            wait = max(0.0, wait + previous - gap)
        latencies.append(wait + duration)
        previous = duration
    return latencies
