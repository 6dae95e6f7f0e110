"""The columnar batch result pipeline: parity, ring transport, validation.

* **Parity** — the batch pipeline must be indistinguishable (as solution
  multisets) from the scalar pipeline and from independent oracles
  (:class:`GenericMatcher` at the matcher level, the RDF-3X-style baseline
  at the engine level), across isomorphism + homomorphism configs, the
  DISTINCT / ORDER BY / LIMIT / OFFSET / OPTIONAL / UNION feature surface,
  and both execution modes.
* **Ring transport** — in process mode, id-only solutions must cross the
  worker boundary through the per-worker shared-memory rings with zero
  per-solution pickling (pinned by poisoning ``SolutionBatch`` pickling and
  by counting queue payloads), and a ring too small for a batch must fall
  back to the queue path without losing solutions.
* **Validation** — execution-mode / worker-count / result-pipeline knobs
  (arguments and environment overrides) must raise a clear ``ValueError``
  at engine construction, not deep inside a pool.
* **Stats** — ``TurboEngine.stats()`` must report plan-cache
  hits/misses/evictions and pipeline/transport counters.
* **Late materialization** — ids must decode to RDF terms only for rows
  that reach the ``ResultSet`` boundary.
"""

from __future__ import annotations

import multiprocessing
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rdf3x import RDF3XEngine
from repro.engine.turbo_engine import TurboEngine, TurboHomPPEngine
from repro.exceptions import EngineError
from repro.matching.config import MatchConfig
from repro.matching.generic import GenericMatcher
from repro.matching.process_shard import ProcessShardPool
from repro.matching.solution_batch import SolutionBatch
from repro.matching.turbo import TurboMatcher
from repro.rdf.dictionary import Dictionary
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, Triple
from repro.sparql.binding_batch import KIND_ID
from repro.sparql.parser import parse_sparql

from test_shard_parity import (
    random_multigraph,
    random_multigraph_query,
    solution_multiset,
)
from test_shard_lifecycle import star_graph, star_query

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)

MODES = {
    "isomorphism": MatchConfig.isomorphism,
    "homomorphism": MatchConfig.turbo_hom_pp,
}

#: The engine-level feature surface both pipelines must agree on.
FEATURE_QUERIES = [
    "SELECT ?p WHERE { ?p rdf:type ex:Person . }",
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?a ex:worksFor ex:acme . }",
    "SELECT ?x ?y ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:knows ?x . }",
    "SELECT ?p ?o WHERE { ex:alice ?p ?o . }",
    "SELECT ?x ?t WHERE { ?x rdf:type ?t . ?x ex:worksFor ex:acme . }",
    "SELECT ?x ?y WHERE { ?x rdf:type ex:Person . ?y rdf:type ex:Company . }",
    "SELECT ?x WHERE { ?x ex:age ?a . FILTER (?a > 30) }",
    "SELECT ?x ?y WHERE { ?x ex:age ?a . ?y ex:age ?b . FILTER (?a > ?b) }",
    "SELECT ?p ?a WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:age ?a } }",
    "SELECT ?p WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:worksFor ?c } FILTER (!BOUND(?c)) }",
    "SELECT ?x WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:age ?a . FILTER (?a < 30) } }",
    "SELECT ?x ?n WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:knows ex:alice } OPTIONAL { ?x ex:name ?n } }",
    "SELECT DISTINCT ?c WHERE { ?a ex:worksFor ?c . }",
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . } ORDER BY ?a LIMIT 2",
    "SELECT ?a ?b WHERE { ?a ex:knows ?b . } LIMIT 2 OFFSET 1",
    "SELECT DISTINCT ?a WHERE { ?a ex:knows ?b . } ORDER BY ?a LIMIT 2 OFFSET 1",
]


def rows_multiset(result) -> Counter:
    variables = sorted(result.variables)
    return Counter(
        tuple(str(row.get(var)) for var in variables) for row in result
    )


def rows_ordered(result):
    variables = sorted(result.variables)
    return [tuple(str(row.get(var)) for var in variables) for row in result]


def random_store(rng: random.Random) -> TripleStore:
    """A small random RDF store exercising types, literals and relations."""
    store = TripleStore()
    entities = [EX[f"e{i}"] for i in range(8)]
    integer = "http://www.w3.org/2001/XMLSchema#integer"
    triples = [
        Triple(EX.acme, RDF.type, EX.Company),
        Triple(EX.alice, EX.name, Literal("Alice")),
    ]
    for _ in range(22):
        triples.append(
            Triple(
                rng.choice(entities),
                rng.choice((EX.knows, EX.worksFor)),
                rng.choice(entities + [EX.acme, EX.alice]),
            )
        )
    for entity in entities:
        if rng.random() < 0.7:
            triples.append(
                Triple(entity, RDF.type, rng.choice((EX.Person, EX.Robot)))
            )
        if rng.random() < 0.6:
            triples.append(
                Triple(entity, EX.age, Literal(str(rng.randint(10, 60)), integer))
            )
    store.load(triples)
    store.freeze()
    return store


# ---------------------------------------------------------- matcher-level parity
class TestMatcherBatchParity:
    """Flattened batch streams ≡ the GenericMatcher oracle, iso + hom."""

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    @pytest.mark.parametrize("seed", (1597, 5, 977))
    def test_sequential_batches_match_oracle(self, seed, mode_name):
        rng = random.Random(seed)
        graph = random_multigraph(rng)
        query = random_multigraph_query(rng)
        config = MODES[mode_name]()
        oracle = solution_multiset(GenericMatcher(graph, config).match(query))
        matcher = TurboMatcher(graph, config)
        flattened = [
            row
            for batch in matcher.iter_match_batches(query)
            for row in batch.iter_rows()
        ]
        assert solution_multiset(flattened) == oracle
        # The batch adapter and the scalar stream are the same enumeration.
        assert flattened == matcher.match(query)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_pool_batches_match_oracle(self, seed):
        rng = random.Random(seed)
        graph = random_multigraph(rng)
        query = random_multigraph_query(rng)
        config = MatchConfig.turbo_hom_pp()
        oracle = solution_multiset(GenericMatcher(graph, config).match(query))
        sequential = TurboMatcher(graph, config)
        processes = ProcessShardPool(graph, config, workers=2, chunk_size=2)
        try:
            sequential_rows = [
                row
                for batch in sequential.iter_match_batches(query)
                for row in batch.iter_rows()
            ]
            process_rows = [
                row
                for batch in processes.iter_match_batches(query)
                for row in batch.iter_rows()
            ]
            assert solution_multiset(sequential_rows) == oracle
            assert solution_multiset(process_rows) == oracle
        finally:
            processes.close()

    def test_batch_limit_slices_exactly(self):
        graph = star_graph(spokes=100, hubs=3)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            rows = [
                row
                for batch in pool.iter_match_batches(star_query(), max_results=7)
                for row in batch.iter_rows()
            ]
            assert len(rows) == 7
            assert pool.last_stats is not None and pool.last_stats.solutions == 7
        finally:
            pool.close()


# ----------------------------------------------------------- engine-level parity
class TestEnginePipelineParity:
    """batch ≡ scalar ≡ independent baseline, across the feature surface."""

    @pytest.fixture
    def engines(self, small_rdf_store):
        batch = TurboHomPPEngine(execution_mode="threads", result_pipeline="batch")
        scalar = TurboHomPPEngine(execution_mode="threads", result_pipeline="scalar")
        batch.load(small_rdf_store)
        scalar.load(small_rdf_store)
        yield batch, scalar

    @pytest.mark.parametrize("sparql", FEATURE_QUERIES)
    def test_batch_equals_scalar_sequential(self, engines, sparql):
        batch, scalar = engines
        # Sequential enumeration is deterministic and both pipelines run the
        # identical operator order, so even the row *order* must agree.
        assert rows_ordered(batch.query(PREFIX + sparql)) == rows_ordered(
            scalar.query(PREFIX + sparql)
        ), sparql

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_batch_equals_scalar_random_stores(self, seed, mode_name):
        store = random_store(random.Random(seed))
        config = MODES[mode_name]()
        batch = TurboEngine(
            type_aware=True, config=config, execution_mode="threads",
            result_pipeline="batch",
        )
        scalar = TurboEngine(
            type_aware=True, config=config, execution_mode="threads",
            result_pipeline="scalar",
        )
        batch.load(store)
        scalar.load(store)
        for sparql in FEATURE_QUERIES:
            left = batch.query(PREFIX + sparql)
            right = scalar.query(PREFIX + sparql)
            assert rows_multiset(left) == rows_multiset(right), f"{sparql} (seed {seed})"

    @pytest.mark.parametrize("execution_mode", ["threads", "processes"])
    def test_parallel_batch_equals_sequential_scalar(self, small_rdf_store, execution_mode):
        parallel = TurboHomPPEngine(
            execution_mode=execution_mode, result_pipeline="batch"
        )
        scalar = TurboHomPPEngine(execution_mode="threads", result_pipeline="scalar")
        parallel.load(small_rdf_store)
        scalar.load(small_rdf_store)
        try:
            for sparql in FEATURE_QUERIES:
                assert rows_multiset(parallel.query(PREFIX + sparql)) == rows_multiset(
                    scalar.query(PREFIX + sparql)
                ), f"{sparql} [{execution_mode}]"
        finally:
            parallel.close()

    def test_batch_equals_independent_baseline(self, small_rdf_store):
        """Cross-implementation oracle: the RDF-3X-style baseline engine."""
        batch = TurboHomPPEngine(result_pipeline="batch", execution_mode="threads")
        baseline = RDF3XEngine()
        batch.load(small_rdf_store)
        baseline.load(small_rdf_store)
        for sparql in FEATURE_QUERIES:
            if "OPTIONAL" in sparql:
                continue  # the baselines mirror the paper's no-OPTIONAL footnote
            assert batch.query(PREFIX + sparql).same_solutions(
                baseline.query(PREFIX + sparql)
            ), sparql


# ------------------------------------------------------------- ring transport
class TestRingTransport:
    def test_id_batches_move_through_the_ring(self):
        graph = star_graph(spokes=500, hubs=4)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1)
        try:
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 4 * 500
            assert pool.transport.ring_batches > 0
            # Zero queue payloads: no batch was ever pickled.
            assert pool.transport.queue_batches == 0
            assert pool.transport.shm_bytes >= pool.transport.solutions * 2 * 8
        finally:
            pool.close()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="pickle-poisoning requires fork inheritance",
    )
    def test_zero_per_solution_pickling(self, monkeypatch):
        """Poison SolutionBatch pickling: the query must still succeed.

        Forked workers inherit the poisoned class, so *any* attempt to move
        a batch through a queue (parent or worker side) raises — passing
        proves every solution crossed via the shared-memory ring.
        """

        def poisoned(self):  # pragma: no cover - raising is the assertion
            raise AssertionError("solution batch crossed the boundary via pickle")

        monkeypatch.setattr(SolutionBatch, "__reduce__", poisoned)
        graph = star_graph(spokes=400, hubs=3)
        pool = ProcessShardPool(
            graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1,
            start_method="fork",
        )
        try:
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 3 * 400
            assert pool.transport.ring_batches > 0
            assert pool.transport.queue_batches == 0
        finally:
            pool.close()

    def test_ring_overflow_falls_back_to_queue(self):
        """Batches larger than the whole ring must take the queue path."""
        graph = star_graph(spokes=600, hubs=2)
        config = MatchConfig.turbo_hom_pp()
        oracle = solution_multiset(GenericMatcher(graph, config).match(star_query()))
        # Width-2 query, 256-row batches = 512 slots; an 8-slot ring only
        # fits sub-4-row remainders, so full batches must overflow.
        pool = ProcessShardPool(
            graph, config, workers=2, chunk_size=1, ring_slots=8
        )
        try:
            solutions, _ = pool.match(star_query())
            assert solution_multiset(solutions) == oracle
            assert pool.transport.queue_batches > 0
        finally:
            pool.close()

    def test_disabled_ring_still_answers(self):
        graph = star_graph(spokes=40, hubs=2)
        pool = ProcessShardPool(
            graph, MatchConfig.turbo_hom_pp(), workers=2, chunk_size=1, ring_slots=0
        )
        try:
            solutions, _ = pool.match(star_query())
            assert len(solutions) == 80
            assert pool.transport.ring_batches == 0
            assert pool.transport.queue_batches > 0
        finally:
            pool.close()

    def test_ring_segments_unlinked_on_close(self):
        graph = star_graph(spokes=30)
        pool = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=2)
        try:
            pool.match(star_query())
            names = [ring.segment.name for ring in pool._rings]
            assert names
            import os

            assert all(os.path.exists(f"/dev/shm/{name}") for name in names)
        finally:
            pool.close()
        import os

        assert not any(os.path.exists(f"/dev/shm/{name}") for name in names)


# ---------------------------------------------------------------- validation
class TestConfigValidation:
    def test_unknown_execution_mode_argument(self):
        with pytest.raises(ValueError, match="execution mode"):
            TurboHomPPEngine(execution_mode="thread")

    def test_unknown_execution_mode_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "procceses")
        with pytest.raises(ValueError, match="execution mode"):
            TurboHomPPEngine()

    def test_unknown_result_pipeline_argument(self):
        with pytest.raises(ValueError, match="result pipeline"):
            TurboHomPPEngine(result_pipeline="columnar")

    def test_unknown_result_pipeline_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_PIPELINE", "vectorized")
        with pytest.raises(ValueError, match="result pipeline"):
            TurboHomPPEngine()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_non_positive_worker_argument(self, workers):
        with pytest.raises(ValueError, match="positive"):
            TurboHomPPEngine(workers=workers)

    def test_valid_envs_still_resolve(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "threads")
        monkeypatch.setenv("REPRO_RESULT_PIPELINE", "scalar")
        engine = TurboHomPPEngine()
        assert engine.execution_mode == "threads"
        assert engine.result_pipeline == "scalar"

    def test_thread_mode_rejects_multiple_workers(self):
        with pytest.raises(EngineError, match='execution_mode="processes"'):
            TurboEngine(execution_mode="threads", workers=2)

    def test_process_mode_env_gives_default_engine_two_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "processes")
        engine = TurboEngine()
        assert engine.execution_mode == "processes"
        assert engine.workers == 2


# --------------------------------------------------------------------- stats
class TestEngineStats:
    def test_plan_cache_and_pipeline_counters(self, small_rdf_store):
        engine = TurboHomPPEngine(
            plan_cache_size=2, execution_mode="threads", result_pipeline="batch"
        )
        engine.load(small_rdf_store)
        queries = [
            "SELECT ?a ?b WHERE { ?a ex:knows ?b . }",
            "SELECT ?a WHERE { ?a ex:worksFor ex:acme . }",
            "SELECT ?p WHERE { ?p rdf:type ex:Person . }",
        ]
        for sparql in queries:
            engine.query(PREFIX + sparql)
        engine.query(PREFIX + queries[-1])  # warm repeat → hit
        stats = engine.stats()
        assert stats["execution_mode"] == "threads"
        assert stats["pipeline"]["mode"] == "batch"
        assert stats["pipeline"]["solutions"] > 0
        assert stats["pipeline"]["batches"] > 0
        cache = stats["plan_cache"]
        assert cache["misses"] == 3
        assert cache["hits"] == 1
        assert cache["evictions"] == 1  # capacity 2, three distinct plans
        assert cache["size"] == 2
        assert stats["transport"] is None  # threads: nothing crosses processes

    def test_transport_counters_in_process_mode(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=2, execution_mode="processes")
        engine.load(small_rdf_store)
        try:
            engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
            transport = engine.stats()["transport"]
            assert transport is not None
            assert transport["ring_batches"] + transport["queue_batches"] > 0
            assert transport["queue_batches"] == 0  # id batches never pickle
            assert transport["shm_bytes"] > 0
        finally:
            engine.close()


# ------------------------------------------------------- late materialization
class TestLateMaterialization:
    @pytest.fixture
    def fanout_store(self):
        store = TripleStore()
        triples = [
            Triple(EX[f"p{i}"], EX.knows, EX[f"q{j}"])
            for i in range(40)
            for j in range(30)
        ]
        store.load(triples)
        store.freeze()
        return store

    def test_solver_batches_carry_raw_id_columns(self, small_rdf_store):
        engine = TurboHomPPEngine(execution_mode="threads")
        engine.load(small_rdf_store)
        solver = engine.bgp_solver()
        patterns = parse_sparql(
            PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        ).where.triples
        batches = list(solver.solve_batches(patterns))
        assert batches
        for batch in batches:
            assert set(batch.variables) == {"a", "b"}
            assert all(batch.kinds[var] == KIND_ID for var in batch.variables)

    def test_distinct_limit_decodes_only_delivered_rows(self, fanout_store, monkeypatch):
        """1200 embeddings, DISTINCT → 40, LIMIT 2 → exactly 2 decodes."""
        engine = TurboHomPPEngine(execution_mode="threads", result_pipeline="batch")
        engine.load(fanout_store)
        decoded = Counter()
        original_node = Dictionary.decode_node
        original_nodes = Dictionary.decode_nodes

        def counting_node(self, node_id):
            decoded["cells"] += 1
            return original_node(self, node_id)

        def counting_nodes(self, node_ids):
            result = original_nodes(self, node_ids)
            decoded["cells"] += len(result)
            return result

        monkeypatch.setattr(Dictionary, "decode_node", counting_node)
        monkeypatch.setattr(Dictionary, "decode_nodes", counting_nodes)
        result = engine.query(
            PREFIX + "SELECT DISTINCT ?x WHERE { ?x ex:knows ?y . } LIMIT 2"
        )
        assert len(result) == 2
        # DISTINCT deduplicated and LIMIT sliced on raw ids; only the two
        # delivered rows (one projected variable each) were materialized.
        assert decoded["cells"] <= 4
