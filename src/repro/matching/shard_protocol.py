"""The job/merge protocol behind the process shard pool.

:class:`~repro.matching.process_shard.ProcessShardPool` parallelizes
following Section 5.2 of the paper: the start data vertices of a prepared
query are split into small dynamic chunks, workers repeatedly claim a chunk
and run candidate-region exploration + subgraph search on it, and the
consumer merges streamed solution batches.  This module holds the
transport-independent pieces, so the matching semantics of a shard cannot
drift from the sequential matcher's:

* :func:`run_chunk` — the per-chunk matching core (regions, matching order,
  columnar batch emission, work accounting).  Shard workers and the
  engine's in-process cache warming both run it.
* :func:`chunk_ranges` — the dynamic-chunk partition of the start-candidate
  list.
* :func:`merge_solution_batches` — the consumer-side merge loop: poll for
  batches, honour the result limit, drain after all workers finished.
* :class:`ParallelStats` — the per-match work accounting behind the
  Figure 16 load-balance numbers.

Results move as columnar :class:`~repro.matching.solution_batch.
SolutionBatch` objects end-to-end: workers pack solutions into flat
per-vertex arrays as the search produces them, the merge loop slices whole
batches against the result limit, and the pool's scalar ``iter_match``
surface is a thin row-iterating adapter.  The transport (a shared-memory
ring + ``multiprocessing`` queues + a shared cancel counter) is supplied
through the ``emit`` / ``stopped`` / ``poll`` / ``finished`` callables.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.graph.labeled_graph import LabeledGraph
from repro.graph.query_graph import QueryGraph
from repro.matching.candidate_region import VertexPredicate, explore_candidate_region
from repro.matching.config import MatchConfig
from repro.matching.matching_order import determine_matching_order
from repro.matching.region_arena import EMPTY_REGION, acquire_arena, release_arena
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE, SolutionBatch
from repro.matching.subgraph_search import (
    SearchStatistics,
    acquire_searcher,
    release_searcher,
)
from repro.matching.turbo import PreparedQuery, TurboMatcher

#: How long the consumer waits for one batch before re-checking liveness.
POLL_INTERVAL = 0.05


@dataclass
class ParallelStats:
    """Outcome of a parallel match."""

    workers: int
    chunk_size: int
    elapsed_ms: float
    solutions: int
    per_worker_work: List[int] = field(default_factory=list)
    per_chunk_work: List[int] = field(default_factory=list)

    @property
    def total_work(self) -> int:
        """Sum of per-worker work units."""
        return sum(self.per_worker_work)

    @property
    def work_speedup(self) -> float:
        """Idealized speedup assuming perfectly parallel workers.

        ``total work / max per-worker work`` — the dynamic-chunking load
        balance the paper's Figure 16 measures on NUMA hardware.
        """
        busiest = max(self.per_worker_work, default=0)
        if busiest == 0:
            return float(len(self.per_worker_work) or 1)
        return self.total_work / busiest

    def simulated_speedup(self, workers: Optional[int] = None) -> float:
        """Speed-up of a simulated dynamic schedule over ``workers`` workers.

        Measured wall clock only shows load balance when the host has a
        free core per worker.  This helper replays the recorded per-chunk
        work through a greedy longest-processing-time schedule, which is
        what the paper's dynamic chunking achieves on real hardware.
        """
        worker_count = workers if workers is not None else self.workers
        if worker_count <= 1 or not self.per_chunk_work:
            return 1.0
        loads = [0] * worker_count
        for work in sorted(self.per_chunk_work, reverse=True):
            loads[loads.index(min(loads))] += work
        busiest = max(loads)
        total = sum(self.per_chunk_work)
        if busiest == 0:
            return float(worker_count)
        return total / busiest


class StreamGate:
    """Cross-thread serialization of one pool's solution streams.

    The shard pool runs jobs strictly serialized over shared queues, and a
    new match historically *superseded* a still-open stream.  That is the
    right call within one thread — the thread driving the old generator is
    the one asking for a new stream, so blocking it would deadlock — but
    across threads it silently truncated the first consumer's results.

    The gate keeps both behaviours apart: the thread that owns the open
    stream may start a new one immediately (it inherits the lease and the
    pool supersedes the predecessor as before), while any *other* thread
    blocks in :meth:`acquire` until the open stream finishes.  Leases make
    hand-off safe: a superseded generator's cleanup finds its lease revoked
    and leaves the lock alone.

    ``force_release`` unblocks waiters during pool shutdown; the pool
    retires the active job first, so a revoked stream ends instead of
    yielding more data.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Protects the (owner thread, lease) pair; never held while
        #: blocking on ``_lock``.
        self._guard = threading.Lock()
        self._owner: Optional[int] = None
        self._lease: Optional[object] = None

    def acquire(self) -> object:
        """Take (or inherit) the stream lock; returns the new lease token."""
        me = threading.get_ident()
        lease = object()
        with self._guard:
            if self._lease is not None and self._owner == me:
                # Same-thread overlap: hand the lease to the new stream so
                # the superseded predecessor's cleanup becomes a no-op.
                self._lease = lease
                return lease
        self._lock.acquire()
        with self._guard:
            self._owner = me
            self._lease = lease
        return lease

    def release(self, lease: object) -> None:
        """Release the lock if ``lease`` still owns it (else: superseded)."""
        with self._guard:
            if self._lease is not lease:
                return
            self._lease = None
            self._owner = None
            self._lock.release()

    def force_release(self) -> None:
        """Revoke any outstanding lease (pool shutdown): waiters proceed."""
        with self._guard:
            if self._lease is None:
                return
            self._lease = None
            self._owner = None
            self._lock.release()


def chunk_ranges(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Half-open index ranges partitioning ``range(total)`` into dynamic chunks.

    Chunks are deliberately small (the paper's dynamic chunking): workers
    claim them one at a time, which evens out skewed candidate-region sizes.
    """
    size = max(1, chunk_size)
    return [(begin, min(begin + size, total)) for begin in range(0, total, size)]


def run_chunk(
    graph: LabeledGraph,
    config: MatchConfig,
    query: QueryGraph,
    prepared: PreparedQuery,
    predicates: Dict[int, VertexPredicate],
    root_predicate: Optional[VertexPredicate],
    chunk: Sequence[int],
    emit: Callable[[SolutionBatch], bool],
    stopped: Callable[[], bool],
    region_cache=None,
    region_key=None,
    warm_only: bool = False,
) -> int:
    """Match every start data vertex of one chunk, emitting solution batches.

    This is the worker-side matching core of Algorithm 1's start-vertex loop
    (lines 9–15): every shard worker runs it, and so does the engine's
    in-process cache warming.
    One pooled region arena and one explicit-stack searcher serve the whole
    chunk: exploration writes into the arena, the searcher packs solutions
    straight into the columnar batch under construction (no per-solution
    lists), and both buffers are reused region after region.  ``emit``
    delivers one batch to the consumer and returns False once the consumer
    stopped (result limit reached / generator abandoned); ``stopped`` is
    polled between candidate regions so cancellation takes effect promptly.
    ``region_cache``/``region_key`` enable cross-query region reuse exactly
    as in :meth:`TurboMatcher.iter_match_batches` — in-process warming
    fills the engine's cache, each process-shard worker holds its own.
    ``warm_only`` turns the chunk into a cache-warming pass: regions are
    explored (and stored) exactly as usual, but the subgraph search is
    skipped and nothing is emitted — the scheduler-driven warm-up uses this
    to pre-populate worker caches after a pool (re)start.  Returns the
    chunk's work units (candidate-region vertices explored plus search
    recursions), the load-balance quantity the Figure 16 benchmark reports.
    """
    work = 0
    order_cache = prepared.order_cache if config.reuse_matching_order else None
    tree = prepared.tree
    width = query.vertex_count()
    caching = region_cache is not None and region_key is not None
    arena = acquire_arena()
    searcher = acquire_searcher()
    try:
        for start_data_vertex in chunk:
            # Per-region stop check: cancellation takes effect between
            # regions (and, below, between batches).
            if stopped():
                break
            if root_predicate is not None and not root_predicate(start_data_vertex):
                continue
            if caching:
                region = region_cache.lookup((region_key, start_data_vertex))
                if region is None:
                    region = explore_candidate_region(
                        graph, query, tree, config, start_data_vertex, predicates,
                        prepared.requirements, arena,
                    )
                    region_cache.store(
                        (region_key, start_data_vertex),
                        EMPTY_REGION if region is None else region.snapshot(),
                    )
                elif region is EMPTY_REGION:
                    region = None
            else:
                region = explore_candidate_region(
                    graph, query, tree, config, start_data_vertex, predicates,
                    prepared.requirements, arena,
                )
            if region is None:
                continue
            work += region.size()
            if warm_only:
                continue
            order = determine_matching_order(tree, region, order_cache)
            search_stats = SearchStatistics()
            searcher.reset(graph, query, tree, region, order, config, search_stats)
            # Stream the region's solutions out in fixed-size columnar
            # batches rather than materializing the whole region: bounds
            # worker memory on combinatorial regions and lets the stop
            # signal interrupt mid-region.
            columns = SolutionBatch.collector(width)
            rows = 0
            while not searcher.exhausted:
                rows += searcher.fill(columns, SOLUTION_BATCH_SIZE - rows)
                if rows >= SOLUTION_BATCH_SIZE:
                    if not emit(SolutionBatch(columns, rows)):
                        rows = 0
                        break
                    columns = SolutionBatch.collector(width)
                    rows = 0
            if rows:
                emit(SolutionBatch(columns, rows))
            work += search_stats.recursions
    finally:
        release_arena(arena)
        release_searcher(searcher)
    return work


def run_sequential_batches(
    graph: LabeledGraph,
    config: MatchConfig,
    query: QueryGraph,
    predicates: Dict[int, VertexPredicate],
    limit: Optional[int],
    prepared: Optional[PreparedQuery],
    on_finish: Callable[[int, int, float], None],
    region_cache=None,
    region_key=None,
) -> Iterator[SolutionBatch]:
    """The pool's single-worker / single-vertex fallback.

    Streams columnar batches straight from the in-process
    :class:`TurboMatcher` (identical semantics, simpler bookkeeping than a
    one-shard job); on exhaustion calls ``on_finish(solutions, work,
    elapsed_ms)`` so the pool can publish its statistics object.
    """
    start_time = time.perf_counter()
    matcher = TurboMatcher(graph, config)
    solutions_count = 0
    for batch in matcher.iter_match_batches(
        query, vertex_predicates=predicates, max_results=limit, prepared=prepared,
        region_cache=region_cache, region_key=region_key,
    ):
        solutions_count += batch.rows
        yield batch
    elapsed = (time.perf_counter() - start_time) * 1000.0
    sequential = matcher.last_statistics
    work = sequential.region_vertices + sequential.search.recursions
    on_finish(solutions_count, work, elapsed)


@dataclass
class StreamOutcome:
    """How a merged solution stream ended (filled by the merge loop)."""

    delivered: int = 0
    #: True when the stream stopped because the result limit was reached (as
    #: opposed to running to exhaustion).  Worker errors are only surfaced
    #: after an exhaustive run — after an intentional early stop the
    #: delivered solutions are complete and the sequential path would never
    #: have touched the failing region either.
    stopped_early: bool = False


def merge_solution_batches(
    poll: Callable[[float], Optional[SolutionBatch]],
    finished: Callable[[], bool],
    limit: Optional[int],
    outcome: StreamOutcome,
) -> Iterator[SolutionBatch]:
    """Merge worker batches into one stream, honouring ``limit`` by slicing.

    ``poll(timeout)`` returns the next batch, a zero-row batch for a wake
    token or consumed control message, or ``None`` when nothing arrived
    within the timeout (it may also raise to propagate a worker failure).
    ``finished`` turns True once every worker has left the job; batches
    already queued at that point are drained before the stream ends (workers
    enqueue all output before reporting completion, in FIFO order).
    """
    draining = False
    while True:
        batch = poll(0.0 if draining else POLL_INTERVAL)
        if batch is None:
            if draining:
                return
            if finished():
                draining = True
            continue
        if batch.rows == 0:
            # A wake token usually means a worker left the job: re-check
            # completion now instead of sleeping out the next poll timeout
            # (the last token used to cost every query one POLL_INTERVAL
            # of idle latency before the stream noticed it was done).
            if not draining and finished():
                draining = True
            continue
        if limit is not None and outcome.delivered + batch.rows >= limit:
            take = limit - outcome.delivered
            outcome.delivered = limit
            outcome.stopped_early = True
            yield batch.head(take)
            return
        outcome.delivered += batch.rows
        yield batch
