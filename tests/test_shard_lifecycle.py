"""Lifecycle guarantees of the process shard pool.

Covers the failure modes that only show up around pool shutdown and
cancellation: worker exceptions and crashes propagating to the consumer,
``limit_hint`` fanning a prompt stop out to every shard, shared-memory
segments being unlinked on engine close *and* on interpreter exit, and the
regression where closing the engine mid-iteration deadlocked on the
bounded result queue.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.engine.turbo_engine import TurboHomPPEngine
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.query_graph import QueryGraph
from repro.matching.config import MatchConfig
from repro.matching.process_shard import ProcessShardPool, ShardWorkerError

HUB, SPOKE = 0, 1
LINK = 0

PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)


def star_graph(spokes: int, hubs: int = 1):
    """``hubs`` star centres, each linked to its own ``spokes`` leaves."""
    builder = GraphBuilder()
    vertex = 0
    for _ in range(hubs):
        hub = vertex
        builder.add_vertex(hub, (HUB,))
        vertex += 1
        for _ in range(spokes):
            builder.add_vertex(vertex, (SPOKE,))
            builder.add_edge(hub, LINK, vertex)
            vertex += 1
    return builder.build()


def star_query() -> QueryGraph:
    query = QueryGraph()
    hub = query.add_vertex("hub", frozenset((HUB,)))
    leaf = query.add_vertex("leaf", frozenset((SPOKE,)))
    query.add_edge(hub, leaf, LINK)
    return query


def segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def exploding_predicate(_data_vertex: int) -> bool:
    """Module-level so it pickles into shard worker processes."""
    raise RuntimeError("predicate boom")


# ---------------------------------------------------------- process lifecycle
class TestProcessPoolLifecycle:
    def test_worker_exception_propagates(self):
        graph = star_graph(spokes=30)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=4)
        try:
            # Predicate on the non-root query vertex, so it raises inside
            # the shard workers, not during parent-side start filtering.
            with pytest.raises(RuntimeError, match="predicate boom"):
                pool.match(star_query(), vertex_predicates={1: exploding_predicate})
        finally:
            pool.close()

    def test_worker_crash_raises_instead_of_hanging(self):
        graph = star_graph(spokes=200, hubs=40)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            stream = pool.iter_match(star_query())
            next(stream)
            pool._processes[0].kill()
            with pytest.raises(ShardWorkerError, match="died"):
                for _ in stream:
                    pass
            # The pool retires itself and transparently restarts.
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 40 * 200
        finally:
            pool.close()

    def test_limit_cancels_all_shards_promptly(self):
        graph = star_graph(spokes=400, hubs=30)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            begin = time.monotonic()
            capped = list(pool.iter_match(star_query(), max_results=5))
            elapsed = time.monotonic() - begin
            assert len(capped) == 5
            assert pool.last_stats is not None
            assert pool.last_stats.solutions == 5
            # The cancel counter fans out between regions/batches: ending the
            # stream must not wait for the full 12000-solution enumeration.
            assert elapsed < 10.0
            # Workers all acknowledged the cancel and accept the next job.
            solutions, _ = pool.match(star_query(), max_results=7)
            assert len(solutions) == 7
        finally:
            pool.close()

    def test_unpicklable_predicate_raises_without_poisoning_the_pool(self):
        graph = star_graph(spokes=30)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=4)
        try:
            with pytest.raises(Exception):  # lambdas cannot cross the boundary
                list(pool.iter_match(star_query(), vertex_predicates={1: lambda v: True}))
            # No phantom active job: the next match must run, not hang.
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 30
        finally:
            pool.close()

    def test_new_job_supersedes_open_stream(self):
        """A match() while an earlier stream is still open must not deadlock.

        The earlier stream is superseded: it keeps what it delivered and
        ends quietly; the new job gets complete results.
        """
        graph = star_graph(spokes=5000)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            stale = pool.iter_match(star_query())
            first = next(stale)
            assert first is not None
            solutions, _ = pool.match(star_query())  # would deadlock before
            assert len(solutions) == 5000
            leftovers = list(stale)  # superseded stream ends instead of stealing
            assert len(leftovers) < 5000
        finally:
            pool.close()

    def test_stream_open_across_pool_close_ends_quietly(self):
        graph = star_graph(spokes=3000)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        stream = pool.iter_match(star_query())
        next(stream)
        pool.close()
        assert len(list(stream)) < 3000  # ends, no hang, no queue access
        pool.close()

    def test_abandoned_generator_stops_shards(self):
        graph = star_graph(spokes=300, hubs=10)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            stream = pool.iter_match(star_query())
            next(stream)
            stream.close()  # abandon: must cancel the job, not hang in GC
            solutions, _ = pool.match(star_query(), max_results=3)
            assert len(solutions) == 3
        finally:
            pool.close()


    def test_close_from_another_thread_mid_iteration_does_not_deadlock(self):
        # Far more solutions than the bounded result queue and rings hold,
        # so the shards are parked on back-pressure when close() arrives.
        graph = star_graph(spokes=4000)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        stream = pool.iter_match(star_query())
        assert next(stream) is not None

        closed = threading.Event()

        def closer():
            pool.close()
            closed.set()

        thread = threading.Thread(target=closer, daemon=True)
        thread.start()
        thread.join(timeout=20)
        assert closed.is_set(), "close() deadlocked on the bounded result queue"
        assert len(list(stream)) < 4000  # retired stream ends quietly
        pool.close()

    def test_pool_restarts_after_mid_iteration_close(self):
        graph = star_graph(spokes=50)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            stream = pool.iter_match(star_query())
            next(stream)
            pool.close()
            stream.close()
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 50
            assert pool.generation == 2
        finally:
            pool.close()


# ----------------------------------------------------------- segment hygiene
class TestSharedSegmentCleanup:
    def test_segments_unlinked_on_pool_close(self):
        graph = star_graph(spokes=20)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2)
        try:
            pool.match(star_query())
            name = pool._handle.name
            assert segment_exists(name)
        finally:
            pool.close()
        assert not segment_exists(name)

    def test_segments_unlinked_on_engine_close(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=2, execution_mode="processes")
        engine.load(small_rdf_store)
        try:
            result = engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
            assert len(result) == 3
            name = engine._executor.pool._handle.name
            assert segment_exists(name)
        finally:
            engine.close()
        assert not segment_exists(name)

    def test_engine_close_query_close_does_not_leak(self, small_rdf_store):
        """A query after close() rebuilds tracked state the next close() finds."""
        engine = TurboHomPPEngine(workers=2, execution_mode="processes")
        engine.load(small_rdf_store)
        query = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        assert len(engine.query(query)) == 3
        engine.close()
        assert len(engine.query(query)) == 3  # transparently restarts
        name = engine._executor.pool._handle.name
        assert segment_exists(name)
        engine.close()
        assert not segment_exists(name)

    def test_process_mode_with_default_workers_actually_shards(self, small_rdf_store):
        """execution_mode='processes' alone must not silently run sequential."""
        engine = TurboHomPPEngine(execution_mode="processes")
        assert engine.workers > 1
        engine.load(small_rdf_store)
        try:
            assert len(engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")) == 3
            assert engine._executor is not None
        finally:
            engine.close()

    def test_segments_unlinked_on_interpreter_exit(self, tmp_path):
        """An engine abandoned without close() must not leak /dev/shm entries."""
        script = tmp_path / "leaky.py"
        script.write_text(
            "import sys\n"
            "from repro.graph.labeled_graph import GraphBuilder\n"
            "from repro.graph.query_graph import QueryGraph\n"
            "from repro.matching.config import MatchConfig\n"
            "from repro.matching.process_shard import ProcessShardPool\n"
            "builder = GraphBuilder()\n"
            "builder.add_vertex(0, (0,))\n"
            "for v in range(1, 30):\n"
            "    builder.add_vertex(v, (1,))\n"
            "    builder.add_edge(0, 0, v)\n"
            "query = QueryGraph()\n"
            "hub = query.add_vertex('hub', frozenset((0,)))\n"
            "leaf = query.add_vertex('leaf', frozenset((1,)))\n"
            "query.add_edge(hub, leaf, 0)\n"
            "pool = ProcessShardPool(builder.build(), MatchConfig.turbo_hom_pp(), workers=2)\n"
            "solutions, _ = pool.match(query)\n"
            "assert len(solutions) == 29\n"
            "print(pool._handle.name)\n"
            "sys.exit(0)  # deliberately no close()\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        name = completed.stdout.strip().splitlines()[-1]
        assert name
        assert not segment_exists(name), "segment outlived the interpreter"
