"""The TurboHOM++ SPARQL engine: BGP answering, OPTIONAL, FILTER, UNION,
solution modifiers, predicate variables, and filter push-down."""

import pytest

from repro.engine.turbo_engine import TurboEngine, TurboHomEngine, TurboHomPPEngine
from repro.exceptions import EngineError
from repro.matching.config import MatchConfig
from repro.rdf.namespaces import Namespace
from repro.rdf.terms import IRI, Literal

EX = Namespace("http://example.org/")
PREFIX = "PREFIX ex: <http://example.org/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "


@pytest.fixture
def engine(small_rdf_store):
    engine = TurboHomPPEngine()
    engine.load(small_rdf_store)
    return engine


class TestBasicGraphPatterns:
    def test_type_query(self, engine):
        result = engine.query(PREFIX + "SELECT ?p WHERE { ?p rdf:type ex:Person . }")
        assert {str(row["p"]) for row in result} == {str(EX.alice), str(EX.bob), str(EX.carol)}

    def test_join_across_patterns(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?a ex:worksFor ex:acme . }"
        )
        assert len(result) == 2

    def test_constant_subject_and_object(self, engine):
        result = engine.query(PREFIX + "SELECT * WHERE { ex:alice ex:knows ex:bob . }")
        assert len(result) == 1

    def test_no_match_returns_empty(self, engine):
        result = engine.query(PREFIX + "SELECT ?x WHERE { ?x ex:knows ex:nobody . }")
        assert len(result) == 0

    def test_unknown_predicate_returns_empty(self, engine):
        result = engine.query(PREFIX + "SELECT ?x WHERE { ?x ex:hates ?y . }")
        assert len(result) == 0

    def test_cyclic_pattern(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?x ?y ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?z ex:knows ?x . }"
        )
        assert len(result) == 3

    def test_literal_object_pattern(self, engine):
        result = engine.query(PREFIX + 'SELECT ?x WHERE { ?x ex:name "Alice" . }')
        assert [str(row["x"]) for row in result] == [str(EX.alice)]

    def test_predicate_variable(self, engine):
        result = engine.query(PREFIX + "SELECT ?p WHERE { ex:alice ?p ex:bob . }")
        assert {str(row["p"]) for row in result} == {str(EX.knows)}

    def test_predicate_variable_includes_rdf_type(self, engine):
        result = engine.query(PREFIX + "SELECT ?p ?o WHERE { ex:alice ?p ?o . }")
        predicates = {str(row["p"]) for row in result}
        assert "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" in predicates
        assert len(result) == 5  # rdf:type, knows, worksFor, age, name

    def test_type_variable(self, engine):
        result = engine.query(PREFIX + "SELECT ?t WHERE { ex:alice rdf:type ?t . }")
        assert {str(row["t"]) for row in result} == {str(EX.Person)}

    def test_type_variable_joined_with_structure(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?x ?t WHERE { ?x rdf:type ?t . ?x ex:worksFor ex:acme . }"
        )
        assert {(str(r["x"]), str(r["t"])) for r in result} == {
            (str(EX.alice), str(EX.Person)),
            (str(EX.bob), str(EX.Person)),
        }

    def test_disconnected_pattern_cross_product(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?x ?y WHERE { ?x rdf:type ex:Person . ?y rdf:type ex:Company . }"
        )
        assert len(result) == 3  # 3 persons x 1 company

    def test_count_helper(self, engine):
        assert engine.count(PREFIX + "SELECT ?p WHERE { ?p rdf:type ex:Person . }") == 3

    def test_query_before_load_raises(self):
        with pytest.raises((EngineError, RuntimeError)):
            TurboHomPPEngine().query("SELECT ?x WHERE { ?x ?p ?o }")


class TestFilters:
    def test_cheap_numeric_filter(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?x WHERE { ?x ex:age ?a . FILTER (?a > 30) }"
        )
        assert [str(row["x"]) for row in result] == [str(EX.alice)]

    def test_expensive_join_filter(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?x ?y WHERE { ?x ex:age ?a . ?y ex:age ?b . FILTER (?a > ?b) }"
        )
        assert [(str(r["x"]), str(r["y"])) for r in result] == [(str(EX.alice), str(EX.bob))]

    def test_regex_filter(self, engine):
        result = engine.query(
            PREFIX + 'SELECT ?x WHERE { ?x ex:name ?n . FILTER REGEX(?n, "^Ali") }'
        )
        assert len(result) == 1

    def test_filter_on_unbound_variable_removes_all(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?x WHERE { ?x rdf:type ex:Person . FILTER (?missing > 1) }"
        )
        assert len(result) == 0

    def test_boolean_combination(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?x WHERE { ?x ex:age ?a . FILTER (?a > 20 && ?a < 30) }"
        )
        assert [str(row["x"]) for row in result] == [str(EX.bob)]


class TestOptionalAndUnion:
    def test_optional_keeps_unmatched_rows(self, engine):
        result = engine.query(
            PREFIX + "SELECT ?p ?a WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:age ?a } }"
        )
        by_person = {str(row["p"]): row["a"] for row in result}
        assert by_person[str(EX.carol)] is None
        assert by_person[str(EX.alice)] == Literal("31", IRI("http://www.w3.org/2001/XMLSchema#integer"))

    def test_optional_with_filter_inside(self, engine):
        result = engine.query(
            PREFIX
            + "SELECT ?p ?a WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:age ?a . FILTER (?a > 30) } }"
        )
        by_person = {str(row["p"]): row["a"] for row in result}
        assert by_person[str(EX.bob)] is None
        assert by_person[str(EX.alice)] is not None

    def test_negation_by_unbound(self, engine):
        result = engine.query(
            PREFIX
            + "SELECT ?p WHERE { ?p rdf:type ex:Person . OPTIONAL { ?p ex:worksFor ?c } FILTER (!BOUND(?c)) }"
        )
        assert [str(row["p"]) for row in result] == [str(EX.carol)]

    def test_union_concatenates(self, engine):
        result = engine.query(
            PREFIX
            + "SELECT ?x WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:age ?a . FILTER (?a < 30) } }"
        )
        assert len(result) == 3  # alice, bob (worksFor) + bob (age)

    def test_union_joined_with_outer_pattern(self, engine):
        result = engine.query(
            PREFIX
            + "SELECT ?x WHERE { ?x rdf:type ex:Person . { ?x ex:worksFor ex:acme } UNION { ?x ex:knows ex:alice } }"
        )
        assert {str(row["x"]) for row in result} == {str(EX.alice), str(EX.bob), str(EX.carol)}

    def test_optional_after_union(self, engine):
        result = engine.query(
            PREFIX
            + "SELECT ?x ?n WHERE { { ?x ex:worksFor ex:acme } UNION { ?x ex:knows ex:alice } OPTIONAL { ?x ex:name ?n } }"
        )
        names = {str(row["x"]): row["n"] for row in result}
        assert names[str(EX.alice)] == Literal("Alice")
        assert names[str(EX.carol)] is None


class TestModifiers:
    def test_distinct(self, engine):
        query = PREFIX + "SELECT DISTINCT ?c WHERE { ?x ex:worksFor ?c . }"
        assert len(engine.query(query)) == 1

    def test_order_by_and_limit(self, engine):
        query = PREFIX + "SELECT ?x ?a WHERE { ?x ex:age ?a . } ORDER BY DESC(?a) LIMIT 1"
        result = engine.query(query)
        assert len(result) == 1
        assert str(result.rows[0]["x"]) == str(EX.alice)

    def test_offset(self, engine):
        query = PREFIX + "SELECT ?x WHERE { ?x rdf:type ex:Person . } ORDER BY ?x LIMIT 10 OFFSET 1"
        assert len(engine.query(query)) == 2


class TestEngineVariants:
    def test_direct_and_type_aware_engines_agree(self, small_rdf_store):
        direct = TurboHomEngine()
        typed = TurboHomPPEngine()
        direct.load(small_rdf_store)
        typed.load(small_rdf_store)
        query = PREFIX + "SELECT ?a ?b WHERE { ?a rdf:type ex:Person . ?a ex:knows ?b . }"
        assert direct.query(query).same_solutions(typed.query(query))

    def test_custom_config_engine(self, small_rdf_store):
        engine = TurboEngine(type_aware=True, config=MatchConfig.no_optimizations())
        engine.load(small_rdf_store)
        result = engine.query(PREFIX + "SELECT ?p WHERE { ?p rdf:type ex:Person . }")
        assert len(result) == 3

    def test_parallel_engine_matches_sequential(self, small_rdf_store):
        sequential = TurboHomPPEngine()
        parallel = TurboHomPPEngine(workers=3, execution_mode="processes")
        sequential.load(small_rdf_store)
        parallel.load(small_rdf_store)
        query = PREFIX + "SELECT ?a ?b WHERE { ?a ex:knows ?b . }"
        assert sequential.query(query).same_solutions(parallel.query(query))
