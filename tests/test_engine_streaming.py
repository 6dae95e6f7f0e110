"""The streaming algebra pipeline.

* **Oracle parity** — the lazy generator operators (hash join, hash left
  outer join, lazy UNION, stream filters, streaming DISTINCT/LIMIT) must
  return exactly the solutions of the seed's materializing semantics, which
  is reimplemented here as a compact nested-loop reference evaluator.
* **Modifier parity** — DISTINCT / ORDER BY / LIMIT / OFFSET combinations
  must equal applying the modifiers to the engine's own unbounded stream.
* **Early termination** — ``LIMIT k`` must stop the matcher after ``k``
  solutions instead of enumerating every embedding.
* **No side channels** — predicate-variable bookkeeping must never leak
  into a binding.
* **Pool reuse** — a process-sharded engine must reuse one worker pool
  across queries.
"""

import pytest

from repro.engine.evaluator import _compatible, _merge, evaluate_query
from repro.engine.turbo_engine import TurboHomEngine, TurboHomPPEngine
from repro.rdf.namespaces import Namespace, RDF
from repro.rdf.store import TripleStore
from repro.rdf.terms import Triple
from repro.sparql import expressions as expr
from repro.sparql.ast import SelectQuery
from repro.sparql.parser import parse_sparql
from repro.sparql.results import ResultSet

EX = Namespace("http://example.org/")
PREFIX = "PREFIX ex: <http://example.org/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "


# --------------------------------------------------- seed-semantics reference
def _reference_group(group, solver):
    """The seed's materializing algebra (nested-loop joins over full lists)."""
    cheap, expensive = expr.split_filters(group.filters)
    if group.triples:
        solutions = list(solver.solve(group.triples, cheap))
    else:
        solutions = [{}]
    for union in group.unions:
        union_solutions = []
        for alternative in union.alternatives:
            union_solutions.extend(_reference_group(alternative, solver))
        solutions = _reference_join(solutions, union_solutions)
    for optional in group.optionals:
        optional_solutions = _reference_group(optional, solver)
        solutions = _reference_left_join(
            solutions, optional_solutions, [str(v) for v in optional.variables()]
        )
    for condition in list(cheap) + list(expensive):
        solutions = [s for s in solutions if expr.evaluate_filter(condition, s)]
    return solutions


def _actual_shared(left, right):
    """Join attributes from the *data* (how the seed derived them)."""
    left_vars = set()
    for binding in left:
        left_vars.update(binding.keys())
    right_vars = set()
    for binding in right:
        right_vars.update(binding.keys())
    return sorted(left_vars & right_vars)


def _reference_join(left, right):
    shared = _actual_shared(left, right)
    return [
        _merge(l, r)
        for l in left
        for r in right
        if _compatible(l, r, shared)
    ]


def _reference_left_join(left, right, right_vars):
    shared = _actual_shared(left, right) if right else []
    result = []
    for binding in left:
        matched = False
        for candidate in right:
            if _compatible(binding, candidate, shared):
                result.append(_merge(binding, candidate))
                matched = True
        if not matched:
            extended = dict(binding)
            for var in right_vars:
                extended.setdefault(var, None)
            result.append(extended)
    return result


def _reference_query(query: SelectQuery, solver) -> ResultSet:
    solutions = _reference_group(query.where, solver)
    projection = [str(v) for v in query.projection()]
    result = ResultSet(projection)
    for binding in solutions:
        result.append({var: binding.get(var) for var in projection})
    if query.distinct:
        result = result.distinct()
    if query.order_by:
        result = result.order_by([(str(v), asc) for v, asc in query.order_by])
    if query.limit is not None or query.offset:
        result = result.slice(query.limit, query.offset)
    return result


def _assert_parity(engine, sparql):
    parsed = parse_sparql(sparql) if isinstance(sparql, str) else sparql
    streamed = evaluate_query(parsed, engine.bgp_solver())
    reference = _reference_query(parsed, engine.bgp_solver())
    assert streamed.same_solutions(reference), f"streaming != seed semantics for {sparql}"


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
    "SELECT ?p ?a WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:age ?a . FILTER (?a > 30) } }",
    "SELECT ?p WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:worksFor ?c } FILTER (!BOUND(?c)) }",
    "SELECT ?x WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:age ?a . FILTER (?a < 30) } }",
    "SELECT ?x WHERE { ?x rdf:type ex:Person . { ?x ex:worksFor ex:acme } UNION { ?x ex:knows ex:alice } }",
    "SELECT ?x ?n WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:knows ex:alice } OPTIONAL { ?x ex:name ?n } }",
]


class TestSeedSemanticsParity:
    """Streaming pipeline vs the seed's materializing algebra."""

    @pytest.fixture
    def engine(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        return engine

    @pytest.mark.parametrize("sparql", FEATURE_QUERIES)
    def test_feature_queries(self, engine, sparql):
        _assert_parity(engine, PREFIX + sparql)

    @pytest.mark.parametrize("sparql", FEATURE_QUERIES)
    def test_feature_queries_direct_transform(self, small_rdf_store, sparql):
        engine = TurboHomEngine()
        engine.load(small_rdf_store)
        _assert_parity(engine, PREFIX + sparql)

    @pytest.mark.parametrize("query_id", [f"Q{i}" for i in range(1, 15)])
    def test_lubm_queries(self, lubm1, query_id):
        engine = TurboHomPPEngine()
        engine.load(lubm1.store)
        _assert_parity(engine, parse_sparql(lubm1.queries[query_id]).strip_modifiers())

    @pytest.mark.parametrize("query_id", [f"Q{i}" for i in range(1, 13)])
    def test_bsbm_queries(self, bsbm_small, query_id):
        engine = TurboHomPPEngine()
        engine.load(bsbm_small.store)
        _assert_parity(engine, parse_sparql(bsbm_small.queries[query_id]).strip_modifiers())


class TestModifierParity:
    """DISTINCT / ORDER BY / LIMIT / OFFSET streaming vs materialized."""

    @pytest.fixture
    def engine(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        return engine

    BASE_QUERIES = [
        "SELECT ?a ?c WHERE { ?a ex:worksFor ?c . }",
        "SELECT ?a ?b WHERE { ?a ex:knows ?b . }",
        "SELECT ?p ?a WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:age ?a } }",
        "SELECT ?x WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:knows ex:alice } }",
    ]

    @pytest.mark.parametrize("base", BASE_QUERIES)
    @pytest.mark.parametrize("distinct", [False, True])
    @pytest.mark.parametrize("order", [False, True])
    @pytest.mark.parametrize("limit,offset", [(None, 0), (2, 0), (2, 1), (None, 2), (0, 0)])
    def test_modifier_combinations(self, engine, base, distinct, order, limit, offset):
        parsed = parse_sparql(PREFIX + base)
        projection = parsed.projection()
        modified = SelectQuery(
            variables=parsed.variables,
            where=parsed.where,
            distinct=distinct,
            order_by=[(projection[0], True)] if order else [],
            limit=limit,
            offset=offset,
        )
        streamed = engine.query(modified)

        # Oracle: the engine's own unbounded stream with the modifiers
        # applied afterwards via the (materializing) ResultSet helpers.
        unbounded = engine.query(
            SelectQuery(variables=parsed.variables, where=parsed.where)
        )
        expected = unbounded
        if distinct:
            expected = expected.distinct()
        if order:
            expected = expected.order_by([(str(projection[0]), True)])
        if limit is not None or offset:
            expected = expected.slice(limit, offset)
        assert [tuple(row.get(v) for v in streamed.variables) for row in streamed] == [
            tuple(row.get(v) for v in expected.variables) for row in expected
        ]


class TestEarlyTermination:
    """LIMIT k must terminate matching, not trim a materialized list."""

    @pytest.fixture
    def fanout_store(self):
        """A store with ~1200 ex:knows embeddings."""
        store = TripleStore()
        triples = []
        for i in range(40):
            for j in range(30):
                triples.append(Triple(EX[f"p{i}"], EX.knows, EX[f"q{j}"]))
        for i in range(40):
            triples.append(Triple(EX[f"p{i}"], RDF.type, EX.Person))
        store.load(triples)
        store.freeze()
        return store

    def test_limit_stops_the_matcher(self, fanout_store):
        engine = TurboHomPPEngine()
        engine.load(fanout_store)
        total = len(engine.query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:knows ?y . }"))
        assert total == 1200
        limited = engine.query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:knows ?y . } LIMIT 5")
        assert len(limited) == 5
        stats = engine.bgp_solver()._matcher.last_statistics
        # ≥10× more embeddings exist than the limit; the matcher must have
        # stopped after the limit instead of enumerating all 1200.
        assert stats.solutions <= 5

    def test_limit_with_offset_stops_early(self, fanout_store):
        engine = TurboHomPPEngine()
        engine.load(fanout_store)
        result = engine.query(
            PREFIX + "SELECT ?x ?y WHERE { ?x ex:knows ?y . } LIMIT 5 OFFSET 3"
        )
        assert len(result) == 5
        assert engine.bgp_solver()._matcher.last_statistics.solutions <= 8

    def test_limit_stops_parallel_matching(self, fanout_store):
        engine = TurboHomPPEngine(workers=3, execution_mode="processes")
        engine.load(fanout_store)
        try:
            limited = engine.query(
                PREFIX + "SELECT ?x ?y WHERE { ?x ex:knows ?y . } LIMIT 5"
            )
            assert len(limited) == 5
            executor = engine.bgp_solver()._executor
            assert executor is not None and executor.last_stats is not None
            assert executor.last_stats.solutions == 5
        finally:
            engine.close()

    def test_limit_parity_with_unbounded_prefix(self, fanout_store):
        # Prefix parity presumes a deterministic enumeration order, which
        # only sequential execution guarantees — pin it.
        engine = TurboHomPPEngine(execution_mode="threads")
        engine.load(fanout_store)
        unbounded = engine.query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:knows ?y . }")
        limited = engine.query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:knows ?y . } LIMIT 7")
        expected = [tuple(row.get(v) for v in unbounded.variables) for row in unbounded][:7]
        assert [tuple(row.get(v) for v in limited.variables) for row in limited] == expected

    def test_distinct_limit_stops_early(self, fanout_store):
        engine = TurboHomPPEngine()
        engine.load(fanout_store)
        result = engine.query(
            PREFIX + "SELECT DISTINCT ?x WHERE { ?x ex:knows ?y . } LIMIT 3"
        )
        assert len(result) == 3
        # 3 distinct subjects need at most 3*30 embeddings under the
        # engine's enumeration order — far fewer than all 1200.
        assert engine.bgp_solver()._matcher.last_statistics.solutions < 1200


class TestNoSideChannels:
    """Predicate-variable bookkeeping must stay inside the solver."""

    def test_no_private_keys_in_engine_results(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        result = engine.query(PREFIX + "SELECT ?p ?o WHERE { ex:alice ?p ?o . }")
        assert len(result) == 5
        for row in result:
            assert set(row.keys()) == {"p", "o"}

    def test_no_private_keys_in_raw_solver_stream(self, small_rdf_store):
        engine = TurboHomPPEngine()
        engine.load(small_rdf_store)
        patterns = parse_sparql(
            PREFIX + "SELECT ?a ?p ?b WHERE { ?a ?p ?b . ?a rdf:type ex:Person . }"
        ).where.triples
        bindings = list(engine.bgp_solver().solve(patterns))
        assert bindings
        for binding in bindings:
            assert all(not key.startswith("__") for key in binding)
            assert set(binding.keys()) <= {"a", "p", "b"}


class TestCrossComponentPredicateVariables:
    """A predicate variable shared by disconnected components must be
    consistent across *all* the edges it labels (choices intersect)."""

    @pytest.fixture
    def two_pair_store(self):
        store = TripleStore()
        store.load(
            [
                Triple(EX.alice, EX.knows, EX.bob),
                Triple(EX.alice, EX.likes, EX.bob),
                Triple(EX.carol, EX.likes, EX.dave),
                Triple(EX.carol, EX.hates, EX.dave),
            ]
        )
        store.freeze()
        return store

    @pytest.mark.parametrize("engine_class", [TurboHomPPEngine, TurboHomEngine])
    def test_shared_predicate_variable_intersects(self, two_pair_store, engine_class):
        engine = engine_class()
        engine.load(two_pair_store)
        result = engine.query(
            PREFIX + "SELECT ?p WHERE { ex:alice ?p ex:bob . ex:carol ?p ex:dave . }"
        )
        # Only ex:likes labels both edges; ex:knows / ex:hates fit one only.
        assert {str(row["p"]) for row in result} == {str(EX.likes)}


class TestPoolReuse:
    """One engine-held worker pool must span queries."""

    def test_pool_instance_is_stable_across_queries(self, small_rdf_store):
        engine = TurboHomPPEngine(workers=3, execution_mode="processes")
        engine.load(small_rdf_store)
        try:
            solver = engine.bgp_solver()
            executor_before = solver._executor
            assert executor_before is not None
            first = engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
            pids_after_first = {p.pid for p in executor_before.pool._processes}
            second = engine.query(PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }")
            pids_after_second = {p.pid for p in executor_before.pool._processes}
            assert engine.bgp_solver() is solver
            assert solver._executor is executor_before
            # Same worker processes, not a fresh pool per query.
            assert pids_after_first == pids_after_second
            assert len(pids_after_first) == 3
            assert executor_before.pool.generation == 1
            assert first.same_solutions(second)
        finally:
            engine.close()

    def test_parallel_engine_matches_sequential_streaming(self, small_rdf_store):
        sequential = TurboHomPPEngine()
        parallel = TurboHomPPEngine(workers=3, execution_mode="processes")
        sequential.load(small_rdf_store)
        parallel.load(small_rdf_store)
        try:
            for sparql in FEATURE_QUERIES:
                assert sequential.query(PREFIX + sparql).same_solutions(
                    parallel.query(PREFIX + sparql)
                ), sparql
        finally:
            parallel.close()
