"""The arena-backed matching core and the cross-query region cache.

Four families of guarantees:

* **Arena ≡ oracle** — the ROADMAP-mandated check for any matching-core
  change: Hypothesis multigraph workloads (duplicate query edges, predicate
  variables, multi-labelled vertices) must enumerate exactly the
  :class:`GenericMatcher` multiset in both isomorphism and homomorphism
  modes, through the sequential matcher and the process shard pool, on
  the batch and the scalar result pipeline, and with the
  region cache cold *and* warm.
* **Zero per-solution allocations on the batch path** — the batch pipeline
  must write matched vertices straight into the columnar collectors; the
  row-building adapters are poisoned and must never run.
* **Arena / cache mechanics** — CSR layout, reuse across regions, frozen
  snapshots, byte-bounded LRU eviction, empty-region memoization.
* **Observability** — region-cache counters in :meth:`TurboEngine.stats`
  and ``regions_reused`` in :class:`MatchStatistics`, in every execution
  mode.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.region_cache import RegionCache
from repro.engine.turbo_engine import TurboHomPPEngine
from repro.graph.labeled_graph import GraphBuilder
from repro.graph.query_graph import QueryGraph
from repro.matching.config import MatchConfig
from repro.matching.generic import GenericMatcher
from repro.matching.process_shard import ProcessShardPool
from repro.matching.region_arena import EMPTY_REGION, RegionArena
from repro.matching.turbo import TurboMatcher
from repro.matching import subgraph_search
from repro.matching.solution_batch import SolutionBatch
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import Triple

from test_shard_parity import (
    random_multigraph,
    random_multigraph_query,
    solution_multiset,
)

MODES = {
    "isomorphism": MatchConfig.isomorphism,
    "homomorphism": MatchConfig.turbo_hom_pp,
}

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)


# ------------------------------------------------------------ oracle parity
def assert_arena_matches_oracle(seed: int, mode_name: str) -> None:
    """Sequential arena core ≡ GenericMatcher, cold cache ≡ warm cache."""
    rng = random.Random(seed)
    graph = random_multigraph(rng)
    query = random_multigraph_query(rng)
    config = MODES[mode_name]()
    oracle = solution_multiset(GenericMatcher(graph, config).match(query))

    matcher = TurboMatcher(graph, config)
    assert solution_multiset(matcher.match(query)) == oracle, f"arena != oracle (seed {seed})"

    # Same matcher with a region cache: the first run fills it (all misses),
    # the second is served from snapshots and must not change the multiset.
    cache = RegionCache(8 << 20)
    key = ("parity", seed, mode_name)
    cold = solution_multiset(
        matcher.iter_match(query, region_cache=cache, region_key=key)
    )
    assert cold == oracle, f"cold cached run != oracle (seed {seed})"
    warm = solution_multiset(
        matcher.iter_match(query, region_cache=cache, region_key=key)
    )
    assert warm == oracle, f"warm cached run != oracle (seed {seed})"
    if matcher.last_statistics.start_vertices:
        assert cache.hits > 0
        assert matcher.last_statistics.regions_reused > 0


class TestArenaOracleParity:
    @pytest.mark.parametrize("mode_name", sorted(MODES))
    @pytest.mark.parametrize("seed", (1597, 5, 977, 4242))
    def test_pinned_regression_seeds(self, seed, mode_name):
        assert_arena_matches_oracle(seed, mode_name)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_homomorphism_sweep(self, seed):
        assert_arena_matches_oracle(seed, "homomorphism")

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_isomorphism_sweep(self, seed):
        assert_arena_matches_oracle(seed, "isomorphism")

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pools_with_warm_cache_match_oracle(self, seed):
        """Sequential matcher (shared cache) and process pool (per-worker
        caches) must agree with the oracle on cold and warm runs alike."""
        rng = random.Random(seed)
        graph = random_multigraph(rng)
        query = random_multigraph_query(rng)
        config = MatchConfig.turbo_hom_pp()
        oracle = solution_multiset(GenericMatcher(graph, config).match(query))

        cache = RegionCache(8 << 20)
        key = ("pool-parity", seed)
        sequential = TurboMatcher(graph, config)
        processes = ProcessShardPool(
            graph, config, workers=2, chunk_size=2, region_cache_bytes=8 << 20
        )
        try:
            for attempt in range(2):
                sequential_solutions = list(
                    sequential.iter_match(
                        query, region_cache=cache, region_key=key
                    )
                )
                assert solution_multiset(sequential_solutions) == oracle, (
                    f"sequential != oracle (seed {seed}, attempt {attempt})"
                )
                process_solutions, _ = processes.match(
                    query, plan_key=key
                )
                assert solution_multiset(process_solutions) == oracle, (
                    f"processes != oracle (seed {seed}, attempt {attempt})"
                )
        finally:
            processes.close()


class TestEnginePipelineParity:
    """batch ≡ scalar ≡ each other, with the region cache warm and cold."""

    @pytest.fixture(scope="class")
    def store(self):
        store = TripleStore()
        triples = []
        for i in range(12):
            for j in range(6):
                triples.append(Triple(EX[f"p{i}"], EX.knows, EX[f"q{(i + j) % 9}"]))
            triples.append(Triple(EX[f"p{i}"], RDF.type, EX.Person))
        store.load(triples)
        store.freeze()
        return store

    QUERIES = [
        "SELECT ?x ?y WHERE { ?x ex:knows ?y . ?x rdf:type ex:Person . }",
        "SELECT ?x ?y ?z WHERE { ?x ex:knows ?y . ?z ex:knows ?y . }",
        "SELECT ?p ?o WHERE { ex:p0 ?p ?o . }",
    ]

    @pytest.mark.parametrize("sparql", QUERIES)
    @pytest.mark.parametrize("pipeline", ["batch", "scalar"])
    def test_pipelines_agree_warm_and_cold(self, store, sparql, pipeline):
        reference = TurboHomPPEngine(region_cache_bytes=0)
        reference.load(store)
        expected = reference.query(PREFIX + sparql)

        # Pinned to thread mode: the counter assertion below reads the
        # engine-held cache (the REPRO_EXECUTION_MODE sweep must not flip it).
        engine = TurboHomPPEngine(result_pipeline=pipeline, execution_mode="threads")
        engine.load(store)
        cold = engine.query(PREFIX + sparql)
        warm = engine.query(PREFIX + sparql)
        assert cold.same_solutions(expected)
        assert warm.same_solutions(expected)
        stats = engine.stats()
        assert stats["region_cache"]["hits"] > 0

    @pytest.mark.parametrize("mode", ["threads", "processes"])
    def test_execution_modes_agree_warm_and_cold(self, store, mode):
        reference = TurboHomPPEngine(region_cache_bytes=0)
        reference.load(store)
        engine = TurboHomPPEngine(execution_mode=mode)
        engine.load(store)
        try:
            for sparql in self.QUERIES:
                expected = reference.query(PREFIX + sparql)
                for _ in range(3):  # repeated runs warm the (per-worker) caches
                    assert engine.query(PREFIX + sparql).same_solutions(expected)
        finally:
            engine.close()


# ---------------------------------------------- allocation-free batch path
class TestBatchPathAllocations:
    def test_batch_path_never_builds_solution_rows(self, monkeypatch):
        """The batch pipeline writes straight into columnar collectors: the
        per-solution row adapters must never run under it."""

        def poisoned_iter(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("subgraph_search_iter ran on the batch path")
            yield  # noqa: unreachable - keeps this a generator function

        def poisoned_rows(self):  # pragma: no cover - must not run
            raise AssertionError("SolutionBatch.iter_rows ran on the batch path")

        monkeypatch.setattr(subgraph_search, "subgraph_search_iter", poisoned_iter)
        monkeypatch.setattr(SolutionBatch, "iter_rows", poisoned_rows)

        builder = GraphBuilder()
        builder.add_vertex(0, (0,))
        for spoke in range(1, 9):
            builder.add_vertex(spoke, (1,))
            builder.add_edge(0, 0, spoke)
        for spoke in range(1, 8):
            builder.add_edge(spoke, 1, spoke + 1)
        graph = builder.build()
        query = QueryGraph()
        hub = query.add_vertex("hub", frozenset((0,)))
        a = query.add_vertex("a", frozenset((1,)))
        b = query.add_vertex("b", frozenset((1,)))
        query.add_edge(hub, a, 0)
        query.add_edge(hub, b, 0)
        query.add_edge(a, b, 1)

        matcher = TurboMatcher(graph, MatchConfig.turbo_hom_pp())
        rows = 0
        for batch in matcher.iter_match_batches(query):
            rows += batch.rows
        assert rows == 7

    def test_scalar_adapter_still_works(self):
        """iter_match (the row adapter) stays correct — it is the only place
        per-solution lists are allowed to exist."""
        builder = GraphBuilder()
        builder.add_vertex(0, (0,))
        builder.add_vertex(1, (1,))
        builder.add_edge(0, 0, 1)
        graph = builder.build()
        query = QueryGraph()
        x = query.add_vertex("x", frozenset((0,)))
        y = query.add_vertex("y", frozenset((1,)))
        query.add_edge(x, y, 0)
        matcher = TurboMatcher(graph, MatchConfig.turbo_hom_pp())
        assert list(matcher.iter_match(query)) == [[0, 1]]


# ------------------------------------------------------- arena mechanics
class TestRegionArenaMechanics:
    def test_push_commit_get_slice(self):
        arena = RegionArena()
        arena.begin(0, 7, width=3, stride=100)
        for value in (3, 5, 9):
            arena.push(value)
        arena.commit(1, 1 * 100 + 7, 0, 3)
        assert arena.get_slice(1, 7) == (0, 3)
        assert arena.get(1, 7) == [3, 5, 9]
        assert arena.get(2, 7) == []
        assert arena.count(1) == 3 and arena.count(2) == 0
        assert arena.size() == 3

    def test_begin_reuses_buffers(self):
        arena = RegionArena()
        arena.begin(0, 1, width=2, stride=10)
        for value in range(50):
            arena.push(value)
        arena.commit(1, 1 * 10 + 1, 0, 50)
        pool_before = arena.pool
        arena.begin(0, 2, width=2, stride=10)
        assert arena.pool is pool_before  # grow-only, never reallocated
        assert arena.size() == 0
        assert arena.get(1, 1) == []  # previous region's keys are gone

    def test_snapshot_is_frozen_and_detached(self):
        arena = RegionArena()
        arena.begin(0, 1, width=2, stride=10)
        arena.push(4)
        arena.push(8)
        arena.commit(1, 1 * 10 + 1, 0, 2)
        frozen = arena.snapshot()
        arena.begin(0, 2, width=2, stride=10)  # clobber the working arena
        assert frozen.get(1, 1) == [4, 8]
        assert frozen.frozen
        with pytest.raises(RuntimeError):
            frozen.begin(0, 3, width=2, stride=10)


class TestRegionCacheMechanics:
    def _arena(self, values):
        arena = RegionArena()
        arena.begin(0, 1, width=2, stride=10)
        for value in values:
            arena.push(value)
        arena.commit(1, 1 * 10 + 1, 0, len(values))
        return arena.snapshot()

    def test_byte_bounded_eviction_is_lru(self):
        sample = self._arena([1, 2, 3])
        capacity = 3 * sample.nbytes // 2  # room for one, not two
        cache = RegionCache(capacity)
        cache.store("a", self._arena([1, 2, 3]))
        cache.store("b", self._arena([4, 5, 6]))
        assert cache.evictions == 1
        assert cache.lookup("a") is None  # evicted as least recently used
        assert cache.lookup("b") is not None
        assert cache.current_bytes <= capacity

    def test_oversized_region_is_not_cached(self):
        cache = RegionCache(64)  # smaller than any snapshot
        cache.store("big", self._arena(list(range(100))))
        assert len(cache) == 0 and cache.evictions == 0

    def test_empty_region_marker_roundtrip(self):
        cache = RegionCache(1 << 20)
        cache.store("empty", EMPTY_REGION)
        assert cache.lookup("empty") is EMPTY_REGION
        assert cache.hits == 1

    def test_clear_resets_counters(self):
        cache = RegionCache(1 << 20)
        cache.store("x", EMPTY_REGION)
        cache.lookup("x")
        cache.lookup("y")
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert cache.current_bytes == 0

    def test_empty_regions_are_memoized_end_to_end(self):
        """A start vertex with an empty region must not be re-explored."""
        builder = GraphBuilder()
        builder.add_vertex(0, (0,))
        builder.add_vertex(1, (1,))   # reachable but loop-less
        builder.add_vertex(2, (0,))
        builder.add_vertex(3, (1,))
        builder.add_vertex(4, (0,))   # x-labelled, no out edges: empty region
        builder.add_vertex(5, (1,))   # y-labelled, no in edges: empty region
        builder.add_edge(0, 0, 1)
        builder.add_edge(2, 0, 3)
        builder.add_edge(3, 1, 3)     # only vertex 3 carries the loop
        graph = builder.build()
        query = QueryGraph()
        x = query.add_vertex("x", frozenset((0,)))
        y = query.add_vertex("y", frozenset((1,)))
        query.add_edge(x, y, 0)
        query.add_edge(y, y, 1)

        cache = RegionCache(1 << 20)
        matcher = TurboMatcher(graph, MatchConfig.turbo_hom_pp())
        first = list(
            matcher.iter_match(query, region_cache=cache, region_key="empties")
        )
        stats_cold = matcher.last_statistics
        # Whichever endpoint was chosen as the start vertex, one of its three
        # candidates (vertex 4 or 5) explores to an empty region.
        assert stats_cold.start_vertices == 3
        assert stats_cold.candidate_regions == 2
        assert cache.misses == 3 and len(cache) == 3
        second = list(
            matcher.iter_match(query, region_cache=cache, region_key="empties")
        )
        assert first == second == [[2, 3]]
        # Every start candidate was served from the cache — including the
        # empty region, which would otherwise be re-explored for nothing.
        assert cache.hits == 3
        assert matcher.last_statistics.regions_reused == 3
        assert matcher.last_statistics.candidate_regions == 2


# ------------------------------------------------------------ observability
class TestEngineObservability:
    @pytest.fixture(scope="class")
    def store(self):
        store = TripleStore()
        store.load(
            [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i % 4}"]) for i in range(16)]
        )
        store.freeze()
        return store

    def test_stats_expose_region_cache_counters(self, store):
        # Thread mode pinned: the assertions read the engine-held cache.
        engine = TurboHomPPEngine(execution_mode="threads")
        engine.load(store)
        sparql = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        engine.query(sparql)
        engine.query(sparql)
        counters = engine.stats()["region_cache"]
        assert counters is not None
        assert set(counters) == {
            "capacity_bytes", "bytes", "entries", "hits", "misses", "evictions",
            "plan_evictions", "admission_accepts", "admission_rejects",
            "sketch_resets",
        }
        assert counters["hits"] > 0 and counters["misses"] > 0
        assert counters["entries"] > 0 and counters["bytes"] > 0

    def test_stats_report_none_when_disabled(self, store):
        engine = TurboHomPPEngine(region_cache_bytes=0)
        engine.load(store)
        engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
        assert engine.stats()["region_cache"] is None

    def test_env_override_disables_cache(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_REGION_CACHE_BYTES", "0")
        engine = TurboHomPPEngine()
        engine.load(store)
        assert engine.region_cache is None
        assert engine.stats()["region_cache"] is None

    def test_env_override_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGION_CACHE_BYTES", "lots")
        with pytest.raises(ValueError):
            TurboHomPPEngine()
        monkeypatch.setenv("REPRO_REGION_CACHE_BYTES", "-5")
        with pytest.raises(ValueError):
            TurboHomPPEngine()

    def test_load_invalidates_region_cache_with_plan_cache(self, store):
        engine = TurboHomPPEngine(execution_mode="threads")
        engine.load(store)
        sparql = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        engine.query(sparql)
        engine.query(sparql)
        assert engine.region_cache.hits > 0
        engine.load(store)  # reload: both caches must restart cold
        assert engine.plan_cache.hits == 0
        assert engine.region_cache.counters()["hits"] == 0
        assert len(engine.region_cache) == 0

    def test_process_mode_aggregates_worker_counters(self, store):
        engine = TurboHomPPEngine(workers=2, execution_mode="processes")
        engine.load(store)
        sparql = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        try:
            for _ in range(6):  # dynamic chunking: workers warm up over runs
                engine.query(sparql)
            counters = engine.stats()["region_cache"]
            assert counters is not None
            assert counters["misses"] > 0
            assert counters["hits"] > 0
        finally:
            engine.close()
