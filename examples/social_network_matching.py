#!/usr/bin/env python
"""Using the matcher directly on a labeled graph (no SPARQL involved).

The TurboHOM++ core is a general labeled-graph pattern matcher; this example
builds a small social-network graph by hand with :class:`GraphBuilder`,
defines query graphs programmatically, and compares

* subgraph isomorphism vs graph homomorphism semantics,
* the TurboISO-style candidate-region matcher vs the naive generic matcher,
* sequential vs parallel (work-partitioned over process shards) matching.

Run with:  python examples/social_network_matching.py
"""

import random

from repro import GraphBuilder, MatchConfig, QueryGraph
from repro.matching import GenericMatcher, ProcessShardPool, TurboMatcher

# Vertex labels.
PERSON, COMPANY, CITY = 0, 1, 2
# Edge labels.
FOLLOWS, WORKS_AT, LIVES_IN = 0, 1, 2


def build_social_graph(people: int = 300, seed: int = 3):
    """Random social network: people follow each other, work somewhere, live somewhere."""
    rng = random.Random(seed)
    builder = GraphBuilder()
    companies = list(range(people, people + 10))
    cities = list(range(people + 10, people + 20))
    for person in range(people):
        builder.add_vertex(person, (PERSON,))
    for company in companies:
        builder.add_vertex(company, (COMPANY,))
    for city in cities:
        builder.add_vertex(city, (CITY,))
    for person in range(people):
        for _ in range(rng.randint(1, 5)):
            builder.add_edge(person, FOLLOWS, rng.randrange(people))
        builder.add_edge(person, WORKS_AT, rng.choice(companies))
        builder.add_edge(person, LIVES_IN, rng.choice(cities))
    return builder.build()


def coworker_triangle() -> QueryGraph:
    """?a follows ?b, both work at ?c — a 'colleague recommendation' pattern."""
    query = QueryGraph()
    a = query.add_vertex("a", frozenset((PERSON,)))
    b = query.add_vertex("b", frozenset((PERSON,)))
    c = query.add_vertex("c", frozenset((COMPANY,)))
    query.add_edge(a, b, FOLLOWS)
    query.add_edge(a, c, WORKS_AT)
    query.add_edge(b, c, WORKS_AT)
    return query


def mutual_follow() -> QueryGraph:
    """?a follows ?b and ?b follows ?a."""
    query = QueryGraph()
    a = query.add_vertex("a", frozenset((PERSON,)))
    b = query.add_vertex("b", frozenset((PERSON,)))
    query.add_edge(a, b, FOLLOWS)
    query.add_edge(b, a, FOLLOWS)
    return query


def main() -> None:
    graph = build_social_graph()
    print(f"social graph: {graph.vertex_count} vertices, {graph.edge_count} edges")

    # One persistent pool of worker processes serves every query below.
    parallel = ProcessShardPool(graph, MatchConfig.turbo_hom_pp(), workers=4, chunk_size=8)
    try:
        for name, query in (("coworker triangle", coworker_triangle()), ("mutual follow", mutual_follow())):
            hom = TurboMatcher(graph, MatchConfig.turbo_hom_pp()).match(query)
            iso = TurboMatcher(graph, MatchConfig.isomorphism()).match(query)
            oracle = GenericMatcher(graph, MatchConfig.turbo_hom_pp()).match(query)
            print(f"\n{name}: {len(hom)} homomorphisms, {len(iso)} isomorphisms "
                  f"(naive matcher agrees: {len(oracle) == len(hom)})")

            solutions, stats = parallel.match(query)
            print(f"  parallel: {len(solutions)} solutions across {stats.workers} workers, "
                  f"simulated dynamic-chunk speedup {stats.simulated_speedup():.2f}x")
    finally:
        parallel.close()


if __name__ == "__main__":
    main()
