"""Query mixes of the workloads and their independent reference answers.

A mix is an endless, seeded stream of :class:`Request` objects.  Each
request carries the SPARQL text the engine receives and a ``ref`` key that
names its reference answer:

* ``("query", text)`` — a fixed query, answered once by the reference;
* ``("template", name, slots)`` — a constant-bearing template instance.
  The reference evaluates the template once with every constant replaced
  by a variable and indexes its rows by the constants' values, so the
  answer of any of the thousands of instances is exact without evaluating
  each instance.

References come from :class:`~repro.baselines.RDF3XEngine`; where it
refuses a feature (OPTIONAL, transitive paths) the query goes to
:class:`~repro.engine.turbo_engine.TurboHomEngine` with its plan and region
caches off and the scalar (per-binding) result pipeline, so that none of the
``engine.operators`` batch kernels under test computes its own reference.  Rows are compared as multisets of :func:`term_key` tuples.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Generator seed of every dataset (the workload seed only drives the mix).
DATASET_SEED = 42

PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
)
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

WARM_IDS = tuple(f"Q{index}" for index in range(1, 15))

#: lubm-analytic: the heavy official queries plus one query per algebra
#: operator.  ORDER BY sorts on the e-mail address, unique per student, so
#: the expected LIMIT multiset is well defined.
ANALYTIC_EXTRA = {
    "group-count": "SELECT ?y (COUNT(?x) AS ?n) WHERE { ?x ub:advisor ?y . } GROUP BY ?y",
    "path-plus": "SELECT ?x ?y WHERE { ?x ub:subOrganizationOf+ ?y . }",
    "optional": (
        "SELECT ?x ?e WHERE { ?x rdf:type ub:Professor . "
        "OPTIONAL { ?x ub:emailAddress ?e . } }"
    ),
    "distinct": "SELECT DISTINCT ?c WHERE { ?x ub:takesCourse ?c . }",
    "regex": (
        "SELECT ?x ?e WHERE { ?x rdf:type ub:Student . ?x ub:emailAddress ?e . "
        'FILTER regex(?e, "Student1[0-9]*@Department0") }'
    ),
    "order-limit": (
        "SELECT ?x ?e WHERE { ?x rdf:type ub:GraduateStudent . "
        "?x ub:emailAddress ?e . } ORDER BY ?e LIMIT 200"
    ),
}
ANALYTIC_IDS = ("Q2", "Q6", "Q9", "Q14") + tuple(ANALYTIC_EXTRA)

PERSON_CLASSES = (
    "Person", "Employee", "Faculty", "Professor", "FullProfessor",
    "AssociateProfessor", "AssistantProfessor", "Chair", "Lecturer",
    "Student", "UndergraduateStudent", "GraduateStudent", "TeachingAssistant",
)
STUDENT_CLASSES = (
    "Student", "GraduateStudent", "UndergraduateStudent", "TeachingAssistant", "Person",
)


@dataclass(frozen=True)
class Template:
    """A constant-bearing LUBM query; ``{slot}`` marks a sampled constant.

    ``slots`` maps each slot to ``("class", names)`` — a class constant
    drawn from ``names`` — or ``("instance", name)`` — an individual drawn
    from the instances of class ``name`` in the dataset.
    """

    name: str
    projection: Tuple[str, ...]
    body: str
    slots: Tuple[Tuple[str, tuple], ...]

    def text(self, values: Dict[str, str]) -> str:
        filled = self.body.format(**{slot: f"<{iri}>" for slot, iri in values.items()})
        return PREFIXES + f"SELECT {' '.join('?' + v for v in self.projection)} WHERE {{ {filled} }}"

    def generalized(self) -> str:
        variables = {slot: f"?slot_{slot}" for slot, _ in self.slots}
        projection = [f"?{v}" for v in self.projection] + list(variables.values())
        return PREFIXES + f"SELECT {' '.join(projection)} WHERE {{ {self.body.format(**variables)} }}"


#: lubm-varied: the constant-bearing official queries (Q1, Q3, Q4, Q5, Q7,
#: Q8, Q10–Q13) with their entity constants and the class constants of
#: their type patterns sampled from the dataset.
TEMPLATES = (
    Template("Q1", ("x",), "?x rdf:type {cls} . ?x ub:takesCourse {course} .",
             (("cls", ("class", ("GraduateStudent", "TeachingAssistant"))),
              ("course", ("instance", "GraduateCourse")))),
    Template("Q3", ("x",), "?x rdf:type ub:Publication . ?x ub:publicationAuthor {author} .",
             (("author", ("instance", "Faculty")),)),
    Template("Q4", ("x", "y1", "y2", "y3"),
             "?x rdf:type {cls} . ?x ub:worksFor {dept} . ?x ub:name ?y1 . "
             "?x ub:emailAddress ?y2 . ?x ub:telephone ?y3 .",
             (("cls", ("class", ("Professor", "FullProfessor", "AssociateProfessor",
                                 "AssistantProfessor", "Chair", "Faculty", "Lecturer",
                                 "Employee"))),
              ("dept", ("instance", "Department")))),
    Template("Q5", ("x",), "?x rdf:type {cls} . ?x ub:memberOf {dept} .",
             (("cls", ("class", PERSON_CLASSES)), ("dept", ("instance", "Department")))),
    Template("Q7", ("x", "y"),
             "?x rdf:type {cls} . ?y rdf:type {course_cls} . ?x ub:takesCourse ?y . "
             "{teacher} ub:teacherOf ?y .",
             (("cls", ("class", STUDENT_CLASSES)),
              ("course_cls", ("class", ("Course", "GraduateCourse"))),
              ("teacher", ("instance", "Faculty")))),
    Template("Q8", ("x", "y", "z"),
             "?x rdf:type {cls} . ?y rdf:type ub:Department . ?x ub:memberOf ?y . "
             "?y ub:subOrganizationOf {univ} . ?x ub:emailAddress ?z .",
             (("cls", ("class", STUDENT_CLASSES)), ("univ", ("instance", "University")))),
    Template("Q10", ("x",), "?x rdf:type {cls} . ?x ub:takesCourse {course} .",
             (("cls", ("class", ("Student", "UndergraduateStudent", "Person"))),
              ("course", ("instance", "Course")))),
    Template("Q11", ("x",), "?x rdf:type {cls} . ?x ub:subOrganizationOf {org} .",
             (("cls", ("class", ("ResearchGroup", "Department", "Organization"))),
              ("org", ("instance", "Organization")))),
    Template("Q12", ("x", "y"),
             "?x rdf:type {cls} . ?y rdf:type ub:Department . ?x ub:worksFor ?y . "
             "?y ub:subOrganizationOf {univ} .",
             (("cls", ("class", ("Chair", "Professor", "FullProfessor", "Faculty"))),
              ("univ", ("instance", "University")))),
    Template("Q13", ("x",), "?x rdf:type {cls} . {univ} ub:hasAlumnus ?x .",
             (("cls", ("class", PERSON_CLASSES)), ("univ", ("instance", "University")))),
)
TEMPLATES_BY_NAME = {template.name: template for template in TEMPLATES}


@dataclass(frozen=True)
class Request:
    """One request of a mix: the text sent and the key of its reference."""

    text: str
    ref: tuple


# ---------------------------------------------------------------- term keys
def term_key(term) -> Optional[tuple]:
    """A hashable wire-level identity of an RDF term (None when unbound)."""
    if term is None:
        return None
    from repro.rdf.terms import BlankNode, Literal

    if isinstance(term, Literal):
        if term.language:
            return ("literal", term.lexical, "@" + term.language)
        return ("literal", term.lexical, str(term.datatype) if term.datatype else "")
    if isinstance(term, BlankNode):
        return ("bnode", str(term))
    return ("uri", str(term))


def json_term_key(cell: Optional[dict]) -> Optional[tuple]:
    """:func:`term_key` of one SPARQL JSON results cell."""
    if cell is None:
        return None
    if cell["type"] == "literal":
        if "xml:lang" in cell:
            return ("literal", cell["value"], "@" + cell["xml:lang"])
        return ("literal", cell["value"], cell.get("datatype", ""))
    return (cell["type"], cell["value"])


def rows_digest(rows) -> bytes:
    """Order-free digest of a row multiset (rows are tuples of term keys)."""
    import hashlib

    canonical = "\n".join(sorted(repr(row) for row in rows))
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).digest()


def response_digest(body: bytes) -> bytes:
    """:func:`rows_digest` of a SPARQL JSON results document."""
    document = json.loads(body)
    variables = document["head"]["vars"]
    return rows_digest(
        tuple(json_term_key(row.get(var)) for var in variables)
        for row in document["results"]["bindings"]
    )


# --------------------------------------------------------------------- pools
def class_instances(store, class_name: str) -> List[str]:
    """Sorted IRIs of the instances of ``UB:class_name`` (inferred types included)."""
    from repro.rdf.terms import IRI

    dictionary = store.dictionary
    predicate = dictionary.lookup_predicate(IRI(RDF_TYPE))
    cls = dictionary.lookup_node(IRI(UB + class_name))
    if predicate is None or cls is None:
        return []
    return sorted(
        str(dictionary.decode_node(subject))
        for subject, _, _ in store.match(None, predicate, cls)
    )


def template_pool(store, templates: Sequence[Template] = TEMPLATES) -> List[Tuple[str, Tuple[str, ...]]]:
    """Every (template, slot IRIs) instance, in a deterministic order."""
    instances: Dict[str, List[str]] = {}
    pool: List[Tuple[str, Tuple[str, ...]]] = []
    for template in templates:
        choices = []
        for _, (kind, spec) in template.slots:
            if kind == "class":
                choices.append([UB + name for name in spec])
            else:
                if spec not in instances:
                    instances[spec] = class_instances(store, spec)
                choices.append(instances[spec])
        combos: List[Tuple[str, ...]] = [()]
        for options in choices:
            combos = [combo + (option,) for combo in combos for option in options]
        pool.extend((template.name, combo) for combo in combos)
    return pool


def template_request(name: str, values: Tuple[str, ...]) -> Request:
    template = TEMPLATES_BY_NAME[name]
    slots = dict(zip((slot for slot, _ in template.slots), values))
    return Request(template.text(slots), ("template", name, tuple(("uri", v) for v in values)))


# ---------------------------------------------------------------------- mixes
def fixed_queries(mix: str, queries: Dict[str, str]) -> Dict[str, str]:
    """Query id -> text of a fixed mix (``warm`` or ``analytic``)."""
    if mix == "warm":
        return {qid: queries[qid] for qid in WARM_IDS}
    if mix == "analytic":
        extra = {qid: PREFIXES + text for qid, text in ANALYTIC_EXTRA.items()}
        return {qid: queries.get(qid) or extra[qid] for qid in ANALYTIC_IDS}
    raise ValueError(f"no fixed query set for mix {mix!r}")


def shuffled_cycles(items: Sequence, rng: random.Random) -> Iterator:
    """Endless passes over ``items``, each pass in a fresh seeded order."""
    items = list(items)
    while True:
        order = items[:]
        rng.shuffle(order)
        yield from order


def fixed_mix(texts: Dict[str, str], seed: int) -> Iterator[Request]:
    """Closed-loop mix: every query once per pass, passes shuffled by seed."""
    requests = [Request(text, ("query", text)) for text in texts.values()]
    return shuffled_cycles(requests, random.Random(seed))


def varied_mix(pool: Sequence[Tuple[str, Tuple[str, ...]]], seed: int) -> Iterator[Request]:
    """Template instances without replacement: one seeded walk over the pool.

    The walk ends when the pool is spent instead of starting over, so no
    instance is ever sent twice and every request is first-seen.
    """
    order = list(range(len(pool)))
    random.Random(seed).shuffle(order)
    for index in order:
        yield template_request(*pool[index])


#: serve-shards: Zipf weights over Q1..Q14.  The exponent is that of the
#: repository's skewed serving mix (``benchmarks/bench_serving.py``).  The
#: ranks follow the official numbering: a fixed ranking, so neither the
#: seed nor a change in the engine's speed moves which query is hot (a
#: ranking by measured cost would).
SERVE_ZIPF_EXPONENT = 1.2
#: serve-shards cycles: every SERVE_BLOCK requests hold SERVE_TAIL_SLOTS
#: instances from the lubm-varied walk and the warm queries apportioned by
#: the Zipf weights.  One request in ten is first-seen, so the shards'
#: compile and region-exploration path shows in the serving tail while the
#: cached path still carries most requests.  Within the cycle each kind of request is spread
#: evenly (smooth weighted round robin), so a query's repeats never bunch
#: up by chance and the tail latency does not swing with the seed.
SERVE_BLOCK = 100
SERVE_TAIL_SLOTS = 10


def apportion(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder integer split of ``total`` in proportion to ``weights``."""
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return counts


def smooth_cycle(counts: Sequence[int]) -> List[int]:
    """One cycle of smooth weighted round robin: kind ``i`` appears
    ``counts[i]`` times, as evenly spaced as the other kinds allow."""
    total = sum(counts)
    current = [0] * len(counts)
    order = []
    for _ in range(total):
        for kind, count in enumerate(counts):
            current[kind] += count
        chosen = max(range(len(counts)), key=lambda kind: current[kind])
        current[chosen] -= total
        order.append(chosen)
    return order


def serve_mix(
    queries: Dict[str, str], pool: Sequence[Tuple[str, Tuple[str, ...]]], seed: int
) -> Iterator[Request]:
    """Skewed warm queries with a first-seen tail of template instances.

    The seed picks where in the cycle the stream starts and which
    lubm-varied instances fill the tail slots.
    """
    warm = [Request(queries[qid], ("query", queries[qid])) for qid in WARM_IDS]
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_EXPONENT for rank in range(len(warm))]
    counts = apportion(weights, SERVE_BLOCK - SERVE_TAIL_SLOTS) + [SERVE_TAIL_SLOTS]
    cycle = smooth_cycle(counts)
    tail = varied_mix(pool, seed + 1)
    position = random.Random(seed).randrange(len(cycle))
    while True:
        kind = cycle[position]
        yield next(tail) if kind == len(warm) else warm[kind]
        position = (position + 1) % len(cycle)


# ----------------------------------------------------------------- references
class _References:
    """RDF-3X, and TurboHOM built on first need for what RDF-3X refuses."""

    def __init__(self, store):
        from repro.baselines import RDF3XEngine

        self.store = store
        self.primary = RDF3XEngine()
        self.primary.load(store)
        self.fallback = None

    def evaluate(self, text: str):
        """(result, name of the engine that answered)."""
        from repro.exceptions import EngineError

        try:
            return self.primary.query(text), self.primary.name
        except EngineError:
            pass
        if self.fallback is None:
            from repro.engine.turbo_engine import TurboHomEngine

            # The scalar pipeline shares no kernel with the batch pipeline measured.
            self.fallback = TurboHomEngine(
                plan_cache_size=0, region_cache_bytes=0, result_pipeline="scalar"
            )
            self.fallback.load(self.store)
        return self.fallback.query(text), self.fallback.name

    def close(self) -> None:
        if self.fallback is not None:
            self.fallback.close()


def compute_references(store, texts: Sequence[str], template_names: Sequence[str]) -> dict:
    """Reference answers for fixed texts and templates over ``store``.

    Returns ``{"queries": {text: digest}, "templates": {name: {slot keys:
    digest}}, "engines": {name: count}}``, with row multisets reduced to
    :func:`rows_digest` digests.  Runs after the timed phases, so neither
    set-up time nor peak RSS includes the reference engines.
    """
    references = _References(store)
    engines: Counter = Counter()
    queries = {}
    for text in texts:
        result, engine = references.evaluate(text)
        engines[engine] += 1
        queries[text] = rows_digest(
            tuple(term_key(row.get(var)) for var in result.variables) for row in result.rows
        )
    templates = {}
    for name in template_names:
        template = TEMPLATES_BY_NAME[name]
        result, engine = references.evaluate(template.generalized())
        engines[engine] += 1
        slot_vars = [f"slot_{slot}" for slot, _ in template.slots]
        grouped: Dict[tuple, list] = {}
        for row in result.rows:
            key = tuple(term_key(row.get(var)) for var in slot_vars)
            grouped.setdefault(key, []).append(
                tuple(term_key(row.get(var)) for var in template.projection)
            )
        templates[name] = {key: rows_digest(rows) for key, rows in grouped.items()}
    references.close()
    return {"queries": queries, "templates": templates, "engines": dict(engines)}


class AnswerLog:
    """Row-multiset digests of the responses of one phase, checked later.

    Each response is reduced to its :func:`response_digest` between
    requests, outside the timed window.  A fixed query's digest is
    remembered per distinct body, so a warm mix parses each distinct
    response once.
    """

    def __init__(self):
        self._canonical: Dict[bytes, bytes] = {}
        #: (ref, row digest) -> number of responses.
        self.responses: Counter = Counter()
        #: Responses that were not a SPARQL JSON results document.
        self.malformed = 0

    def record(self, ref: tuple, body: bytes) -> None:
        import hashlib

        key = None
        if ref[0] == "query":
            key = (
                hashlib.blake2b(ref[1].encode("utf-8"), digest_size=16).digest()
                + hashlib.blake2b(body, digest_size=16).digest()
            )
        digest = self._canonical.get(key) if key is not None else None
        if digest is None:
            try:
                digest = response_digest(body)
            except (ValueError, KeyError, TypeError):
                self.malformed += 1
                return
            if key is not None:
                self._canonical[key] = digest
        self.responses[(ref, digest)] += 1

    def needed(self) -> Tuple[List[str], List[str]]:
        """(fixed query texts, template names) the log's references need."""
        texts = sorted({ref[1] for ref, _ in self.responses if ref[0] == "query"})
        names = sorted({ref[1] for ref, _ in self.responses if ref[0] == "template"})
        return texts, names

    def wrong(self, references: dict) -> int:
        """Responses whose rows differ from the reference, malformed ones included."""
        empty = rows_digest(())
        wrong = self.malformed
        for (ref, digest), count in self.responses.items():
            if ref[0] == "query":
                expected = references["queries"][ref[1]]
            else:
                expected = references["templates"][ref[1]].get(ref[2], empty)
            if digest != expected:
                wrong += count
        return wrong


def references_for(store, logs: Sequence[AnswerLog]) -> dict:
    """Reference answers for everything the given logs recorded."""
    texts: set = set()
    names: set = set()
    for log in logs:
        log_texts, log_names = log.needed()
        texts.update(log_texts)
        names.update(log_names)
    return compute_references(store, sorted(texts), sorted(names))
