"""Admission control and the sync→async bridge behind the SPARQL server.

The engines are synchronous: a query occupies a thread from ``query_batches``
until its stream is drained or closed, and the process shard pool underneath
serializes concurrent streams (see ``StreamGate``).  The HTTP front-end is a
single asyncio event loop.  The :class:`QueryScheduler` joins the two worlds:

* **Admission** — at most ``max_inflight`` queries execute at once; up to
  ``queue_depth`` more may wait for a slot.  Anything beyond that is
  rejected immediately (the server's 503), so a burst degrades into fast
  failures instead of an unbounded backlog of open sockets.
* **Deadline** — one per-query timeout covers the whole lifetime: waiting
  for a slot, evaluation, and streaming.  When it expires the query's stop
  event is set, the producer abandons its batch stream at the next batch
  boundary (which cancels matching in the pools), and the waiting
  coroutine gets :class:`QueryTimeout` (the server's 504).
* **Bridge** — each admitted query runs on a dedicated executor thread
  (``engine.query_batches`` + a wire serializer), pushing encoded chunks
  into a bounded :class:`asyncio.Queue` via ``run_coroutine_threadsafe``.
  The bounded queue is the backpressure: a slow client stalls its producer
  thread, not the event loop, and the producer polls its stop event while
  stalled so cancellation still lands.

A :class:`RunningQuery` is driven *explicitly* by the handler coroutine
(``await next_chunk()`` until ``None``, then ``await finish()`` in a
``finally``) rather than wrapped in an async generator — generator
finalization cannot await, and the slot release and producer join must.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.exceptions import EngineError
from repro.utils.stats import CounterBundle

#: Environment override for the server's concurrent-query ceiling
#: (engines/servers constructed without an explicit ``max_inflight``).
SERVE_MAX_INFLIGHT_ENV = "REPRO_SERVE_MAX_INFLIGHT"

#: Environment override for the per-query deadline in milliseconds,
#: covering queue wait + evaluation + streaming.  ``0`` disables timeouts.
SERVE_TIMEOUT_MS_ENV = "REPRO_SERVE_TIMEOUT_MS"

#: Environment override for the admission queue depth (queries allowed to
#: wait for a slot before new arrivals are rejected with 503).
SERVE_QUEUE_DEPTH_ENV = "REPRO_SERVE_QUEUE_DEPTH"

#: Environment override for scheduler-driven cache warming: how many of the
#: hottest plan fingerprints to re-warm after a shard-pool (re)start.
#: ``0`` disables warming.
SERVE_WARM_PLANS_ENV = "REPRO_SERVE_WARM_PLANS"

DEFAULT_MAX_INFLIGHT = 4
DEFAULT_TIMEOUT_MS = 30_000
DEFAULT_QUEUE_DEPTH = 16
DEFAULT_WARM_PLANS = 8

#: Distinct fingerprints the plan-mix tracker holds before compacting away
#: the cold tail (bounds memory under adversarial query streams).
_PLAN_MIX_CAPACITY = 1024

#: Chunks a producer may buffer ahead of the slowest-reading client.
_CHUNK_QUEUE_DEPTH = 8

#: How often a stalled producer re-checks its stop event (seconds).
_STALL_POLL_S = 0.05


def resolve_serve_max_inflight(value: Optional[int] = None) -> int:
    """Validate the concurrent-query ceiling (>= 1), env fallback."""
    if value is None:
        env = os.environ.get(SERVE_MAX_INFLIGHT_ENV, "").strip()
        if not env:
            return DEFAULT_MAX_INFLIGHT
        try:
            value = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {SERVE_MAX_INFLIGHT_ENV}={env!r}") from error
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise EngineError(
            f"serve max_inflight must be a positive integer, got {value!r}"
        )
    return value


def resolve_serve_timeout_ms(value: Optional[int] = None) -> int:
    """Validate the per-query deadline (ms, 0 = none), env fallback."""
    if value is None:
        env = os.environ.get(SERVE_TIMEOUT_MS_ENV, "").strip()
        if not env:
            return DEFAULT_TIMEOUT_MS
        try:
            value = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {SERVE_TIMEOUT_MS_ENV}={env!r}") from error
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise EngineError(
            f"serve timeout_ms must be a non-negative integer, got {value!r}"
        )
    return value


def resolve_serve_queue_depth(value: Optional[int] = None) -> int:
    """Validate the admission queue depth (>= 0), env fallback."""
    if value is None:
        env = os.environ.get(SERVE_QUEUE_DEPTH_ENV, "").strip()
        if not env:
            return DEFAULT_QUEUE_DEPTH
        try:
            value = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {SERVE_QUEUE_DEPTH_ENV}={env!r}") from error
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise EngineError(
            f"serve queue_depth must be a non-negative integer, got {value!r}"
        )
    return value


def resolve_serve_warm_plans(value: Optional[int] = None) -> int:
    """Validate the warm-plan count (>= 0, 0 = no warming), env fallback."""
    if value is None:
        env = os.environ.get(SERVE_WARM_PLANS_ENV, "").strip()
        if not env:
            return DEFAULT_WARM_PLANS
        try:
            value = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {SERVE_WARM_PLANS_ENV}={env!r}") from error
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise EngineError(
            f"serve warm_plans must be a non-negative integer, got {value!r}"
        )
    return value


class PlanMixTracker:
    """Thread-safe frequency tracking of the served plan-fingerprint mix.

    Fed by the engine's plan listener (one ``record`` per solved BGP), read
    by :meth:`QueryScheduler.maybe_warm` to pick the top-K plans worth
    re-warming after a shard-pool restart.  Bounded: when the tracker holds
    more than ``capacity`` distinct fingerprints it compacts to the hottest
    half, so an adversarial stream of one-off queries cannot grow it
    without limit (the hot plans warming cares about survive compaction by
    construction).
    """

    def __init__(self, capacity: int = _PLAN_MIX_CAPACITY):
        self.capacity = max(2, capacity)
        self._lock = threading.Lock()
        self._counts: "Counter[Hashable]" = Counter()

    def record(self, fingerprint: Hashable) -> None:
        """Count one execution of a plan (the engine plan-listener hook)."""
        with self._lock:
            self._counts[fingerprint] += 1
            if len(self._counts) > self.capacity:
                self._counts = Counter(
                    dict(self._counts.most_common(self.capacity // 2))
                )

    def top(self, count: int) -> List[Hashable]:
        """The ``count`` hottest fingerprints, most frequent first."""
        with self._lock:
            return [key for key, _ in self._counts.most_common(count)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


class ServerOverloaded(RuntimeError):
    """Raised when admission rejects a query (queue full) — the 503."""


class QueryTimeout(RuntimeError):
    """Raised when a query's deadline expires (queued or running) — the 504."""


@dataclass
class SchedulerCounters(CounterBundle):
    """Lifetime admission/outcome counters (the /stats surface)."""

    admitted: int = 0
    completed: int = 0
    rejected: int = 0
    timed_out: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Cache-warming passes triggered after shard-pool restarts, and how
    #: many hot plans those passes re-warmed in total.
    warm_runs: int = 0
    plans_warmed: int = 0

    def snapshot(self) -> dict:
        return self.as_dict()


#: Queue sentinel: the producer finished cleanly.
_DONE = object()


class RunningQuery:
    """One admitted query: a producer thread feeding an async chunk queue.

    The handler drives it explicitly::

        run = await scheduler.submit(produce_chunks)
        try:
            while (chunk := await run.next_chunk()) is not None:
                ...write chunk...
        finally:
            await run.finish()

    ``next_chunk`` raises :class:`QueryTimeout` at the deadline and
    re-raises any producer exception; ``finish`` is idempotent — it stops
    the producer (stop event + queue drain), joins its thread, and releases
    the scheduler slot.
    """

    __slots__ = (
        "_scheduler",
        "_loop",
        "_deadline",
        "_queue",
        "_stop",
        "_future",
        "_finished",
        "_outcome",
    )

    def __init__(self, scheduler: "QueryScheduler", loop, deadline: Optional[float]):
        self._scheduler = scheduler
        self._loop = loop
        self._deadline = deadline
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=_CHUNK_QUEUE_DEPTH)
        self._stop = threading.Event()
        self._future: Optional[concurrent.futures.Future] = None
        self._finished = False
        self._outcome = "cancelled"  # overwritten on completion/timeout/error

    @property
    def stop_event(self) -> threading.Event:
        """Set when the query should abandon work (timeout or disconnect)."""
        return self._stop

    # ------------------------------------------------------- producer side
    def _run_producer(self, produce) -> None:
        """Executor-thread body: stream chunks into the async queue."""
        try:
            for chunk in produce(self._stop):
                if not self._put(chunk):
                    return
            self._put(_DONE)
        except BaseException as error:  # delivered to the consumer, not lost
            self._put(error)

    def _put(self, item) -> bool:
        """Push one item loop-side; False when the query was stopped."""
        put = self._queue.put(item)
        try:
            future = asyncio.run_coroutine_threadsafe(put, self._loop)
        except RuntimeError:  # event loop already closed (server shutdown)
            put.close()
            return False
        while True:
            try:
                future.result(_STALL_POLL_S)
                return True
            except concurrent.futures.TimeoutError:
                # Queue full: the client is slow.  Keep waiting, but notice
                # cancellation so a stopped query never deadlocks here.
                if self._stop.is_set():
                    future.cancel()
                    return False
            except concurrent.futures.CancelledError:
                return False

    # ------------------------------------------------------- consumer side
    async def next_chunk(self) -> Optional[bytes]:
        """The next encoded chunk, or ``None`` when the stream is done."""
        while True:
            remaining = None
            if self._deadline is not None:
                remaining = self._deadline - self._loop.time()
                if remaining <= 0:
                    self._stop.set()
                    self._outcome = "timed_out"
                    raise QueryTimeout("query deadline expired while streaming")
            try:
                item = await asyncio.wait_for(self._queue.get(), remaining)
            except asyncio.TimeoutError:
                continue  # loop re-checks the deadline and raises
            if item is _DONE:
                self._outcome = "completed"
                return None
            if isinstance(item, BaseException):
                self._outcome = "failed"
                raise item
            return item

    async def finish(self) -> None:
        """Stop the producer, join it, release the slot (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self._stop.set()
        # Unblock a producer stalled on the bounded queue.
        while True:
            try:
                self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
        if self._future is not None:
            await asyncio.wrap_future(self._future)
        self._scheduler._release(self._outcome)


class QueryScheduler:
    """Admission control + executor for queries against one engine."""

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        queue_depth: Optional[int] = None,
        timeout_ms: Optional[int] = None,
        warm_plans: Optional[int] = None,
    ):
        self.max_inflight = resolve_serve_max_inflight(max_inflight)
        self.queue_depth = resolve_serve_queue_depth(queue_depth)
        self.timeout_ms = resolve_serve_timeout_ms(timeout_ms)
        self.warm_plans = resolve_serve_warm_plans(warm_plans)
        self.counters = SchedulerCounters()
        #: Hot-plan mix of everything served, fed by the engine's plan
        #: listener (see :meth:`attach_engine`); drives cache warming.
        self.plan_mix = PlanMixTracker()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-serve"
        )
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._waiting = 0
        self._inflight = 0
        self._closed = False
        #: Pool generation the last warming pass covered, and the one-at-a-
        #: time latch for the background warm thread.
        self._warm_seen = 0
        self._warm_lock = threading.Lock()

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Refuse new queries and release the executor threads."""
        self._closed = True
        self._executor.shutdown(wait=False)

    # ---------------------------------------------------------- cache warming
    def attach_engine(self, engine) -> None:
        """Start tracking the engine's served plan mix (when supported).

        Installs :meth:`PlanMixTracker.record` as the engine's plan
        listener so every solved BGP feeds the hot-plan ranking behind
        :meth:`maybe_warm`.  Engines without ``set_plan_listener`` are left
        alone (warming simply never finds candidates).
        """
        installer = getattr(engine, "set_plan_listener", None)
        if self.warm_plans > 0 and callable(installer):
            installer(self.plan_mix.record)

    def maybe_warm(self, engine) -> bool:
        """Re-warm worker caches once per shard-pool generation.

        Called after each served query: when the engine's pool generation
        advanced past the last warmed one (worker processes restarted with
        cold caches), ships the top-``warm_plans`` fingerprints to
        ``engine.warm_cached_plans`` on a daemon thread — serving latency
        never waits on warming, and a single latch keeps concurrent
        completions from stacking warm passes.  Returns True when a pass
        was started.
        """
        if self.warm_plans <= 0 or self._closed:
            return False
        generation_of = getattr(engine, "pool_generation", None)
        warm = getattr(engine, "warm_cached_plans", None)
        if not callable(generation_of) or not callable(warm):
            return False
        generation = generation_of()
        if generation == 0 or generation == self._warm_seen:
            return False
        fingerprints = self.plan_mix.top(self.warm_plans)
        if not fingerprints:
            return False
        if not self._warm_lock.acquire(blocking=False):
            return False
        self._warm_seen = generation

        def _warm_pass() -> None:
            try:
                self.counters.plans_warmed += warm(fingerprints)
                self.counters.warm_runs += 1
            except Exception:
                pass  # warming is best-effort; the next query pays the miss
            finally:
                # Warming itself may have rebuilt the pool (close() →
                # lazy restart): cover the generation it produced so the
                # next completion does not immediately re-warm.
                try:
                    self._warm_seen = max(self._warm_seen, generation_of())
                finally:
                    self._warm_lock.release()

        threading.Thread(
            target=_warm_pass, name="repro-serve-warm", daemon=True
        ).start()
        return True

    # ------------------------------------------------------------ admission
    async def submit(self, produce) -> RunningQuery:
        """Admit one query and start its producer.

        ``produce(stop_event)`` is called on an executor thread and must
        return an iterator of byte chunks; it should stop at the next batch
        boundary once ``stop_event`` is set.  Raises
        :class:`ServerOverloaded` when the wait queue is full and
        :class:`QueryTimeout` when the deadline expires before a slot
        frees up.
        """
        if self._closed:
            raise ServerOverloaded("server is shutting down")
        loop = asyncio.get_running_loop()
        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_inflight)
        if self._waiting >= self.queue_depth and self._semaphore.locked():
            self.counters.rejected += 1
            raise ServerOverloaded(
                f"{self._inflight} queries in flight, {self._waiting} waiting"
            )
        deadline = (
            None if self.timeout_ms == 0 else loop.time() + self.timeout_ms / 1000.0
        )
        self._waiting += 1
        try:
            if deadline is None:
                await self._semaphore.acquire()
            else:
                try:
                    await asyncio.wait_for(
                        self._semaphore.acquire(), deadline - loop.time()
                    )
                except asyncio.TimeoutError:
                    self.counters.timed_out += 1
                    raise QueryTimeout(
                        "query deadline expired while waiting for a slot"
                    ) from None
        finally:
            self._waiting -= 1
        self.counters.admitted += 1
        self._inflight += 1
        run = RunningQuery(self, loop, deadline)
        try:
            run._future = self._executor.submit(run._run_producer, produce)
        except RuntimeError:  # executor shut down between admit and submit
            self._release("cancelled")
            raise ServerOverloaded("server is shutting down") from None
        return run

    def _release(self, outcome: str) -> None:
        self._inflight -= 1
        setattr(self.counters, outcome, getattr(self.counters, outcome) + 1)
        if self._semaphore is not None:
            self._semaphore.release()

    def snapshot(self) -> dict:
        """Point-in-time scheduler state for the /stats endpoint."""
        return {
            "max_inflight": self.max_inflight,
            "queue_depth": self.queue_depth,
            "timeout_ms": self.timeout_ms,
            "warm_plans": self.warm_plans,
            "inflight": self._inflight,
            "waiting": self._waiting,
            "tracked_plans": len(self.plan_mix),
            **self.counters.snapshot(),
        }
