"""Columnar aggregation and the spill-capable hybrid hash join.

* **Parsing** — the COUNT / GROUP BY fragment: bare and aliased
  aggregates, DISTINCT arguments, and the grouping validity rules
  (projected plain variables must be grouped; ``SELECT *`` cannot mix with
  aggregation; HAVING and ``COUNT(DISTINCT *)`` are rejected).
* **Parity** — aggregate queries must agree between the batch and scalar
  pipelines, across isomorphism + homomorphism configs and both execution
  modes, and must match a brute-force reference computed straight from the
  store's triples (Hypothesis-swept random stores).
* **Plan-shape fingerprints** — a cached plan is only reused by queries
  with the identical aggregate shape, pinned through plan-cache counters.
* **Hybrid join spill** — kernel-level: a byte-budgeted join must spill,
  optionally repartition recursively, and still produce exactly the
  unbounded join's multiset (wildcard/OPTIONAL rows included); the engine
  must clean every temp spill file up on ``close()``.
* **Validation** — the ``join_memory_bytes`` / ``join_partitions`` knobs
  (arguments and environment overrides) raise at engine construction.
* **Late materialization** — grouping and ORDER BY decode only what they
  emit (group rows, sort keys), pinned by counting dictionary decodes.
"""

from __future__ import annotations

import glob
import os
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.base import EngineError, resolve_join_memory_bytes, resolve_join_partitions
from repro.engine.operators.context import OperatorContext
from repro.engine.operators.join import batch_hash_join, batch_left_outer_join
from repro.engine.operators.spill import SpillFile, batch_bytes
from repro.engine.plan_cache import bgp_fingerprint
from repro.engine.turbo_engine import TurboEngine, TurboHomPPEngine
from repro.exceptions import SPARQLSyntaxError
from repro.matching.config import MatchConfig
from repro.rdf.dictionary import Dictionary
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.binding_batch import KIND_ID, KIND_TERM, BatchBuilder
from repro.sparql.parser import parse_sparql

from test_result_pipeline import MODES, random_store, rows_multiset

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ex: <http://example.org/> "
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
)

#: The aggregate feature surface both pipelines must agree on.
AGGREGATE_QUERIES = [
    "SELECT (COUNT(*) AS ?n) WHERE { ?a ex:knows ?b . }",
    "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:knows ?b . } GROUP BY ?a",
    "SELECT ?a (COUNT(DISTINCT ?b) AS ?n) WHERE { ?a ex:knows ?b . } GROUP BY ?a",
    "SELECT ?t (COUNT(*) AS ?n) WHERE { ?x rdf:type ?t . } GROUP BY ?t",
    "SELECT ?t (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x rdf:type ?t . ?x ex:knows ?y . } GROUP BY ?t",
    "SELECT ?p (COUNT(?a) AS ?n) (COUNT(DISTINCT ?a) AS ?d) WHERE "
    "{ ?p rdf:type ex:Person . OPTIONAL { ?p ex:age ?a } } GROUP BY ?p",
    "SELECT (COUNT(?c) AS ?n) WHERE { ?x rdf:type ex:Person . OPTIONAL { ?x ex:worksFor ?c } }",
    "SELECT (COUNT(?b) AS ?n) (COUNT(DISTINCT ?b) AS ?d) (COUNT(*) AS ?all) "
    "WHERE { ?a ex:knows ?b . }",
    "SELECT ?a (COUNT(*) AS ?n) WHERE { ?a ex:knows ?b . } GROUP BY ?a ORDER BY ?a LIMIT 3",
    "SELECT ?a ?b (COUNT(*) AS ?n) WHERE { ?a ex:knows ?b . } GROUP BY ?a ?b",
]


# ---------------------------------------------------------------- parsing
class TestAggregateParsing:
    def test_count_star_with_alias(self):
        query = parse_sparql("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }")
        assert query.is_aggregate()
        (aggregate,) = query.aggregates
        assert aggregate.variable is None
        assert not aggregate.distinct
        assert str(aggregate.alias) == "n"
        assert [str(v) for v in query.projection()] == ["n"]

    def test_count_variable_and_distinct(self):
        query = parse_sparql(
            "SELECT ?g (COUNT(?v) AS ?n) (COUNT(DISTINCT ?v) AS ?d) "
            "WHERE { ?g <http://e/p> ?v . } GROUP BY ?g"
        )
        first, second = query.aggregates
        assert str(first.variable) == "v" and not first.distinct
        assert str(second.variable) == "v" and second.distinct
        assert [str(v) for v in query.group_by] == ["g"]
        assert [str(v) for v in query.projection()] == ["g", "n", "d"]

    def test_bare_count_gets_generated_alias(self):
        query = parse_sparql("SELECT COUNT(*) WHERE { ?s ?p ?o . }")
        (aggregate,) = query.aggregates
        assert str(aggregate.alias) == "count"

    def test_aggregate_shape_is_canonical(self):
        query = parse_sparql(
            "SELECT ?g (COUNT(DISTINCT ?v) AS ?n) "
            "WHERE { ?g <http://e/p> ?v . } GROUP BY ?g"
        )
        assert query.aggregate_shape() == "group[?g]|COUNT(DISTINCT ?v) AS ?n"
        plain = parse_sparql("SELECT ?s WHERE { ?s ?p ?o . }")
        assert plain.aggregate_shape() is None

    def test_projected_variable_must_be_grouped(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql(
                "SELECT ?a (COUNT(*) AS ?n) WHERE { ?a <http://e/p> ?b . }"
            )

    def test_select_star_rejects_aggregates(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql("SELECT * WHERE { ?s ?p ?o . } GROUP BY ?s")

    def test_count_distinct_star_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql("SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?s ?p ?o . }")

    def test_having_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql(
                "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } "
                "GROUP BY ?s HAVING (?n > 1)"
            )

    def test_duplicate_projected_names_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_sparql(
                "SELECT ?n (COUNT(*) AS ?n) WHERE { ?n <http://e/p> ?o . } GROUP BY ?n"
            )


# ----------------------------------------------------------------- parity
def brute_force_group_counts(store, predicate, injective=False):
    """Group counts computed straight from the decoded triples.

    For ``SELECT ?a (COUNT(?b) AS ?n) (COUNT(DISTINCT ?b) AS ?d)
    WHERE { ?a <predicate> ?b } GROUP BY ?a`` — independent of any engine.
    ``injective`` replicates isomorphism semantics (``?a`` and ``?b`` must
    bind distinct vertices, so self-loops drop out).
    """
    total = Counter()
    distinct = {}
    for triple in store.decode_all():
        if triple.predicate == predicate:
            if injective and triple.subject == triple.object:
                continue
            total[(triple.subject,)] += 1
            distinct.setdefault((triple.subject,), set()).add(triple.object)
    return {
        key: (total[key], len(distinct[key])) for key in total
    }


class TestAggregationParity:
    @pytest.fixture
    def engines(self, small_rdf_store):
        batch = TurboHomPPEngine(execution_mode="threads", result_pipeline="batch")
        scalar = TurboHomPPEngine(execution_mode="threads", result_pipeline="scalar")
        batch.load(small_rdf_store)
        scalar.load(small_rdf_store)
        yield batch, scalar

    @pytest.mark.parametrize("sparql", AGGREGATE_QUERIES)
    def test_batch_equals_scalar(self, engines, sparql):
        batch, scalar = engines
        assert rows_multiset(batch.query(PREFIX + sparql)) == rows_multiset(
            scalar.query(PREFIX + sparql)
        ), sparql

    def test_batch_matches_brute_force(self, small_rdf_store):
        engine = TurboHomPPEngine(execution_mode="threads")
        engine.load(small_rdf_store)
        result = engine.query(
            PREFIX + "SELECT ?a (COUNT(?b) AS ?n) (COUNT(DISTINCT ?b) AS ?d) "
            "WHERE { ?a ex:knows ?b . } GROUP BY ?a"
        )
        expected = brute_force_group_counts(small_rdf_store, EX.knows)
        assert result.grouped_counts(["a"], ["n", "d"]) == expected

    @pytest.mark.parametrize("mode_name", sorted(MODES))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_stores_both_pipelines(self, seed, mode_name):
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
        for sparql in AGGREGATE_QUERIES:
            left = batch.query(PREFIX + sparql)
            right = scalar.query(PREFIX + sparql)
            assert rows_multiset(left) == rows_multiset(right), f"{sparql} (seed {seed})"
        expected = brute_force_group_counts(
            store, EX.knows, injective=(mode_name == "isomorphism")
        )
        result = batch.query(
            PREFIX + "SELECT ?a (COUNT(?b) AS ?n) (COUNT(DISTINCT ?b) AS ?d) "
            "WHERE { ?a ex:knows ?b . } GROUP BY ?a"
        )
        assert result.grouped_counts(["a"], ["n", "d"]) == expected

    @pytest.mark.parametrize("execution_mode", ["threads", "processes"])
    def test_parallel_modes_agree(self, small_rdf_store, execution_mode):
        parallel = TurboHomPPEngine(
            execution_mode=execution_mode, result_pipeline="batch"
        )
        scalar = TurboHomPPEngine(execution_mode="threads", result_pipeline="scalar")
        parallel.load(small_rdf_store)
        scalar.load(small_rdf_store)
        try:
            for sparql in AGGREGATE_QUERIES:
                assert rows_multiset(parallel.query(PREFIX + sparql)) == rows_multiset(
                    scalar.query(PREFIX + sparql)
                ), f"{sparql} [{execution_mode}]"
        finally:
            parallel.close()

    def test_empty_input_global_count_emits_zero_row(self, small_rdf_store):
        for pipeline in ("batch", "scalar"):
            engine = TurboHomPPEngine(execution_mode="threads", result_pipeline=pipeline)
            engine.load(small_rdf_store)
            result = engine.query(
                PREFIX + "SELECT (COUNT(?x) AS ?n) WHERE { ?x ex:worksFor ex:nowhere . }"
            )
            assert result.grouped_counts([], ["n"]) == {(): (0,)}
            # With GROUP BY, an empty input emits no groups at all.
            grouped = engine.query(
                PREFIX + "SELECT ?x (COUNT(*) AS ?n) "
                "WHERE { ?x ex:worksFor ex:nowhere . } GROUP BY ?x"
            )
            assert len(grouped) == 0


# ------------------------------------------------------ plan-shape caching
class TestPlanShapeFingerprint:
    def test_fingerprint_folds_shape(self):
        patterns = parse_sparql(
            PREFIX + "SELECT ?s ?t WHERE { ?s rdf:type ?t . }"
        ).where.triples
        plain = bgp_fingerprint(patterns)
        shaped = bgp_fingerprint(patterns, shape="group[?t]|COUNT(*) AS ?n")
        other = bgp_fingerprint(patterns, shape="group[?s]|COUNT(*) AS ?n")
        assert plain != shaped
        assert shaped != other
        assert shaped == bgp_fingerprint(patterns, shape="group[?t]|COUNT(*) AS ?n")

    def test_aggregate_and_plain_queries_use_separate_plan_slots(self, small_rdf_store):
        engine = TurboHomPPEngine(execution_mode="threads")
        engine.load(small_rdf_store)
        plain = PREFIX + "SELECT ?s ?t WHERE { ?s rdf:type ?t . }"
        aggregate = (
            PREFIX + "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s rdf:type ?t . } GROUP BY ?t"
        )
        engine.query(plain)
        engine.query(aggregate)
        stats = engine.stats()["plan_cache"]
        # Same BGP, different shapes: two compilations, no false sharing.
        assert stats["misses"] == 2 and stats["hits"] == 0
        engine.query(aggregate)
        engine.query(plain)
        stats = engine.stats()["plan_cache"]
        # Identical shapes re-hit their own slots.
        assert stats["misses"] == 2 and stats["hits"] == 2


# ------------------------------------------------------------ kernel spill
def id_batches(rows, variables=("a", "b"), chunk=256, decoder=None):
    """Pack ``rows`` (tuples of ints/None) into id-column batches."""
    decode = decoder if decoder is not None else (lambda i: EX[f"v{i}"])
    kinds = {var: KIND_ID for var in variables}
    batches = []
    builder = BatchBuilder(list(variables), kinds, decode)
    for row in rows:
        builder.append(list(row))
        if builder.rows >= chunk:
            batches.append(builder.batch())
            builder = BatchBuilder(list(variables), kinds, decode)
    if builder.rows:
        batches.append(builder.batch())
    return batches


def join_multiset(batches):
    counts = Counter()
    for batch in batches:
        for row in batch.iter_bindings():
            counts[tuple(sorted((var, str(value)) for var, value in row.items()))] += 1
    return counts


class TestHybridJoinSpill:
    def run_join(self, left_rows, right_rows, shared, outer, context,
                 left_vars=("a", "b"), right_vars=("b", "c")):
        left = iter(id_batches(left_rows, left_vars))
        right = id_batches(right_rows, right_vars)
        join = batch_left_outer_join if outer else batch_hash_join
        args = (left, right, shared) if not outer else (
            left, right, shared, list(right_vars)
        )
        return join_multiset(join(*args, context=context))

    @pytest.mark.parametrize("outer", [False, True])
    def test_spilled_join_equals_unbounded(self, outer):
        rng = random.Random(7)
        left_rows = [(i, rng.randrange(50)) for i in range(600)]
        right_rows = [(rng.randrange(50), 1000 + i) for i in range(600)]
        oracle = self.run_join(
            left_rows, right_rows, ["b"], outer, OperatorContext(join_memory_bytes=0)
        )
        tight = OperatorContext(join_memory_bytes=512, join_partitions=4)
        spilled = self.run_join(left_rows, right_rows, ["b"], outer, tight)
        assert tight.counters.spilled_partitions > 0
        assert tight.counters.spilled_bytes > 0
        assert spilled == oracle
        tight.cleanup()

    @pytest.mark.parametrize("outer", [False, True])
    def test_wildcard_rows_survive_spilling(self, outer):
        # None join keys on both sides: wildcard build rows must match every
        # probe row; wildcard probe rows must scan spilled partitions too.
        rng = random.Random(11)
        left_rows = [(i, rng.randrange(40) if i % 7 else None) for i in range(400)]
        right_rows = [(rng.randrange(40) if i % 5 else None, 1000 + i) for i in range(400)]
        oracle = self.run_join(
            left_rows, right_rows, ["b"], outer, OperatorContext(join_memory_bytes=0)
        )
        tight = OperatorContext(join_memory_bytes=512, join_partitions=4)
        spilled = self.run_join(left_rows, right_rows, ["b"], outer, tight)
        assert tight.counters.spilled_partitions > 0
        assert spilled == oracle
        tight.cleanup()

    def test_recursive_repartitioning_is_bounded(self):
        # Every build row shares one join key: repartitioning can never
        # split the partition, so the join must recurse to the depth bound,
        # count a fallback, and still produce the right result.
        left_rows = [(i, 1) for i in range(64)]
        right_rows = [(1, 1000 + i) for i in range(512)]
        oracle = self.run_join(
            left_rows, right_rows, ["b"], False, OperatorContext(join_memory_bytes=0)
        )
        tight = OperatorContext(join_memory_bytes=256, join_partitions=4)
        result = self.run_join(left_rows, right_rows, ["b"], False, tight)
        assert result == oracle
        assert len(oracle) == 64 * 512
        assert tight.counters.repartitions > 0
        assert tight.counters.join_fallbacks > 0
        tight.cleanup()

    def test_no_shared_variables_never_spills(self):
        # Cross products key on the empty tuple; budgeting is meaningless,
        # so the kernel must stay resident regardless of the budget.
        context = OperatorContext(join_memory_bytes=64, join_partitions=4)
        left_rows = [(i,) for i in range(50)]
        right_rows = [(1000 + i,) for i in range(50)]
        result = join_multiset(
            batch_hash_join(
                iter(id_batches(left_rows, ("a",))),
                id_batches(right_rows, ("c",)),
                [],
                context=context,
            )
        )
        assert sum(result.values()) == 50 * 50
        assert context.counters.spilled_partitions == 0

    def test_spill_file_round_trip(self, tmp_path):
        decode = lambda i: EX[f"v{i}"]
        (batch,) = id_batches([(1, 2), (3, None)], ("a", "b"), decoder=decode)
        spill = SpillFile(str(tmp_path / "span.spill"))
        written = spill.write(batch, [1, 0])
        assert written > 0 and spill.bytes_written == written
        ((restored, flags),) = list(spill.read(decode))
        assert flags == [1, 0]
        assert restored.rows == 2
        assert restored.raw("a", 0) == 1 and restored.raw("b", 1) is None
        assert str(restored.term("a", 0)) == str(EX.v1)  # decoder reattached
        spill.delete()
        assert not os.path.exists(spill.path)

    def test_batch_bytes_estimates_by_kind(self):
        (ids,) = id_batches([(1, 2)] * 10, ("a", "b"))
        assert batch_bytes(ids) == 10 * 2 * 8
        builder = BatchBuilder(["t"], {"t": KIND_TERM}, None)
        for i in range(10):
            builder.append([Literal(str(i))])
        assert batch_bytes(builder.batch()) == 10 * 64


# --------------------------------------------------- engine-level lifecycle
def spill_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*")))


class TestEngineSpillLifecycle:
    @pytest.fixture
    def fanout_store(self):
        store = TripleStore()
        triples = [
            Triple(EX[f"s{i}"], EX.link, EX[f"s{(i + j + 1) % 150}"])
            for i in range(150)
            for j in range(3)
        ]
        triples.extend(Triple(EX[f"s{i}"], EX.val, Literal(str(i))) for i in range(150))
        store.load(triples)
        store.freeze()
        return store

    def test_spilling_query_equals_unbounded_and_cleans_up(self, fanout_store):
        before = spill_dirs()
        sparql = (
            PREFIX + "SELECT ?a ?b ?v WHERE { ?a ex:link ?b . "
            "OPTIONAL { ?b ex:val ?v } }"
        )
        unbounded = TurboHomPPEngine(execution_mode="threads", join_memory_bytes=0)
        unbounded.load(fanout_store)
        oracle = unbounded.query(sparql)
        unbounded.close()

        # Spill counters are batch-join internals: pin the pipeline so the
        # REPRO_RESULT_PIPELINE=scalar CI pass keeps asserting them.
        engine = TurboHomPPEngine(
            execution_mode="threads",
            result_pipeline="batch",
            join_memory_bytes=2048,
            join_partitions=4,
        )
        engine.load(fanout_store)
        result = engine.query(sparql)
        operators = engine.stats()["operators"]
        assert operators["spilled_partitions"] > 0
        assert operators["spilled_bytes"] > 0
        assert result.same_solutions(oracle)
        engine.close()
        # close() swept the spill directory; nothing leaked.
        assert spill_dirs() <= before

    def test_engine_survives_close_and_requery(self, fanout_store):
        engine = TurboHomPPEngine(
            execution_mode="threads", join_memory_bytes=2048, join_partitions=4
        )
        engine.load(fanout_store)
        sparql = PREFIX + "SELECT ?a ?v WHERE { ?a ex:link ?b . ?b ex:val ?v }"
        first = engine.query(sparql)
        engine.close()
        # The context recreates its spill directory lazily after cleanup.
        second = engine.query(sparql)
        assert first.same_solutions(second)
        engine.close()

    def test_stats_surface_operator_counters(self, fanout_store):
        # groups_emitted/rows_decoded meter the batch kernels: pin the
        # pipeline so the scalar CI pass keeps asserting the exact counts.
        engine = TurboHomPPEngine(execution_mode="threads", result_pipeline="batch")
        engine.load(fanout_store)
        engine.query(
            PREFIX + "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:link ?b . } GROUP BY ?a"
        )
        operators = engine.stats()["operators"]
        assert operators["join_memory_bytes"] == engine.join_memory_bytes
        assert operators["join_partitions"] == engine.join_partitions
        assert operators["groups_emitted"] == 150
        assert operators["rows_decoded"] == 150
        engine.close()


# -------------------------------------------------------------- validation
class TestKnobValidation:
    @pytest.mark.parametrize("value", [-1, "lots", 3.5, True])
    def test_bad_join_memory_bytes_argument(self, value):
        with pytest.raises(EngineError):
            TurboHomPPEngine(join_memory_bytes=value)

    @pytest.mark.parametrize("value", [-2, 0, 1, "four", False])
    def test_bad_join_partitions_argument(self, value):
        with pytest.raises(EngineError):
            TurboHomPPEngine(join_partitions=value)

    @pytest.mark.parametrize("value", ["-1", "lots", "3.5"])
    def test_bad_join_memory_bytes_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOIN_MEMORY_BYTES", value)
        with pytest.raises(EngineError):
            TurboHomPPEngine()

    def test_bad_join_partitions_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOIN_PARTITIONS", "1")
        with pytest.raises(EngineError):
            TurboHomPPEngine()

    def test_valid_envs_resolve(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOIN_MEMORY_BYTES", "4096")
        monkeypatch.setenv("REPRO_JOIN_PARTITIONS", "8")
        engine = TurboHomPPEngine()
        assert engine.join_memory_bytes == 4096
        assert engine.join_partitions == 8

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOIN_MEMORY_BYTES", "4096")
        engine = TurboHomPPEngine(join_memory_bytes=0)
        assert engine.join_memory_bytes == 0

    def test_resolvers_defaults(self):
        assert resolve_join_memory_bytes(0) == 0
        assert resolve_join_memory_bytes(1 << 20) == 1 << 20
        assert resolve_join_partitions(2) == 2


# ------------------------------------------------------ late materialization
class TestAggregateLateMaterialization:
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

    def count_decodes(self, monkeypatch):
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
        return decoded

    def test_grouping_decodes_only_emitted_groups(self, fanout_store, monkeypatch):
        """1200 embeddings → 40 groups → at most 40 decoded group keys."""
        engine = TurboHomPPEngine(execution_mode="threads", result_pipeline="batch")
        engine.load(fanout_store)
        decoded = self.count_decodes(monkeypatch)
        result = engine.query(
            PREFIX + "SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x ex:knows ?y . } GROUP BY ?x"
        )
        assert len(result) == 40
        assert result.grouped_counts(["x"], ["n"]) == {
            (EX[f"p{i}"],): (30,) for i in range(40)
        }
        # Only the 40 emitted group keys decode; counts are born as terms.
        assert decoded["cells"] <= 40

    def test_order_by_decodes_keys_then_slice(self, fanout_store, monkeypatch):
        """ORDER BY decodes one term per distinct sort key, plus the slice."""
        engine = TurboHomPPEngine(execution_mode="threads", result_pipeline="batch")
        engine.load(fanout_store)
        decoded = self.count_decodes(monkeypatch)
        result = engine.query(
            PREFIX + "SELECT ?x ?y WHERE { ?x ex:knows ?y . } ORDER BY ?x LIMIT 5"
        )
        assert len(result) == 5
        # Key decode: ≤40 distinct ?x terms via the memo (not 1200 rows);
        # output decode: 5 rows × 2 columns, with ?x cells memo-free.
        assert decoded["cells"] <= 40 + 10
