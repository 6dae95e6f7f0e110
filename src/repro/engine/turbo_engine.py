"""SPARQL engines backed by the TurboHOM / TurboHOM++ matcher.

:class:`TurboEngine` loads a :class:`~repro.rdf.store.TripleStore`, applies
either the direct or the type-aware transformation, and answers basic graph
patterns with a :class:`~repro.matching.turbo.TurboMatcher`.  The two paper
systems are thin subclasses:

* :class:`TurboHomEngine` — direct transformation, no TurboHOM++
  optimizations (the system of Figure 6),
* :class:`TurboHomPPEngine` — type-aware transformation plus +INT / -NLF /
  -DEG / +REUSE (the system of Tables 3–7).

Query answering follows a compile-once / stream-everywhere split:

* **compile** — :meth:`TurboBGPSolver.solve` looks the BGP up in the
  engine-held :class:`~repro.engine.plan_cache.PlanCache` (keyed on a
  canonical BGP/filter fingerprint) and only on a miss runs
  :func:`~repro.engine.plan.compile_query`, which performs the query
  transformation, component split, start-vertex selection, query-tree
  construction, filter-requirement derivation and push-down compilation;
* **stream** — execution is a chain of generators: the matcher streams raw
  vertex mappings, decoding, predicate-variable expansion (the ``Me``
  mapping of Definition 2), ``rdf:type ?t`` type-variable expansion and the
  cross product between connected components are all lazy decorators on that
  stream, and a ``limit_hint`` from the evaluator terminates matching early
  instead of trimming a materialized list.

Predicate-variable choices travel in a typed :class:`MatchedSolution`
wrapper internal to the solver, so algebra operators and projections only
ever see plain variable→term bindings.

The ``execution_mode`` knob (or the ``REPRO_EXECUTION_MODE`` environment
override) picks where BGPs are matched: ``"threads"`` matches in the
calling thread with the sequential matcher; ``"processes"`` runs an
engine-held :class:`~repro.engine.shard_executor.ShardExecutor` whose
``workers`` processes attach the graph's shared-memory CSR export and cache
rehydrated plans by fingerprint (see ``docs/execution_modes.md``).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.base import (
    BGPSolver,
    Engine,
    resolve_execution_mode,
    resolve_join_memory_bytes,
    resolve_join_partitions,
    resolve_path_index_bytes,
    resolve_region_cache_bytes,
    resolve_result_pipeline,
    validate_worker_count,
)
from repro.engine.cache_admission import (
    make_admission_policy,
    resolve_cache_admission,
    resolve_cache_sketch_bytes,
    resolve_region_plan_share,
)
from repro.engine.operators.context import OperatorContext
from repro.engine.operators.path import PathResolver
from repro.engine.plan import AlternativePlan, ComponentPlan, QueryPlan, TypeVariableBinder, compile_query
from repro.engine.plan_cache import PlanCache, bgp_fingerprint
from repro.engine.region_cache import (
    DEFAULT_REGION_CACHE_BYTES,
    RegionCache,
    make_region_cache,
)
from repro.engine.shard_executor import ShardExecutor
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.reachability import PathIndexCounters, PathIndexManager
from repro.graph.transform import (
    GraphMapping,
    direct_transform,
    type_aware_transform,
)
from repro.matching.config import MatchConfig
from repro.matching.shard_protocol import run_chunk
from repro.matching.solution_batch import SolutionBatch
from repro.matching.turbo import Solution, TurboMatcher
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term
from repro.sparql import expressions as expr
from repro.sparql.ast import TriplePattern
from repro.exceptions import EngineError
from repro.sparql.binding_batch import (
    KIND_ID,
    KIND_TERM,
    BatchBuilder,
    BatchResult,
    BindingBatch,
    slice_batches,
)
from repro.sparql.results import Binding


@dataclass
class PipelineCounters:
    """Cumulative result-pipeline counters, surfaced by :meth:`TurboEngine.stats`.

    ``batches``/``solutions`` count what the solver pulled out of the
    matcher layer (either pipeline); the shared-memory transport counters
    live on the process pool and are merged in by the engine.
    """

    batches: int = 0
    solutions: int = 0


@dataclass
class MatchedSolution:
    """A decoded solution plus its pending predicate-variable choices.

    The ``choices`` side channel stays inside the solver: it is consumed by
    :meth:`TurboBGPSolver._expand_predicate_choices` before bindings are
    yielded, so no algebra operator or projection ever sees a non-variable
    key in a :class:`~repro.sparql.results.Binding`.
    """

    binding: Binding
    #: For each predicate variable: its possible edge-label terms (None when
    #: the component has no predicate variables).
    choices: Optional[Dict[str, List[Term]]] = None


def _merge_choices(
    left: Optional[Dict[str, List[Term]]],
    right: Dict[str, List[Term]],
) -> Dict[str, List[Term]]:
    """Combine predicate-variable choices from two query components.

    A predicate variable shared by both components must label an edge in
    each, so its candidate terms are *intersected* — overwriting would let a
    label that only fits one component leak into the result.  Fresh dicts
    and lists are built so cached plan/solution state is never mutated.
    """
    if left is None:
        return dict(right)
    merged = dict(left)
    for name, terms in right.items():
        if name in merged:
            allowed = set(terms)
            merged[name] = [term for term in merged[name] if term in allowed]
        else:
            merged[name] = terms
    return merged


class TurboBGPSolver(BGPSolver):
    """BGP solver running the TurboMatcher over a transformed graph."""

    def __init__(
        self,
        graph: LabeledGraph,
        mapping: GraphMapping,
        config: MatchConfig,
        type_aware: bool,
        plan_cache: Optional[PlanCache] = None,
        executor: Optional[ShardExecutor] = None,
        result_pipeline: str = "batch",
        counters: Optional[PipelineCounters] = None,
        region_cache: Optional[RegionCache] = None,
        operator_context: Optional[OperatorContext] = None,
        path_manager: Optional[PathIndexManager] = None,
    ):
        self.graph = graph
        self.mapping = mapping
        self.config = config
        self.type_aware = type_aware
        self.plan_cache = plan_cache
        self.result_pipeline = result_pipeline
        #: Cross-query candidate-region cache of the sequential matcher
        #: (process shards hold per-worker caches instead); keyed below by
        #: plan fingerprint + component coordinates, so it is only
        #: consulted for fingerprinted plans.
        self.region_cache = region_cache
        self.counters = counters if counters is not None else PipelineCounters()
        #: Shared operator-kernel context (join budgets, spill lifecycle,
        #: operator counters); engine-held when the engine built this
        #: solver, lazily env-configured otherwise (see the base class).
        self._operator_context = operator_context
        #: Per-predicate reachability-index manager backing transitive
        #: property paths (engine-held; None means this solver cannot
        #: evaluate PathPattern leaves).
        self.path_manager = path_manager
        self._path_resolver: Optional[PathResolver] = None
        #: Optional observer called with each solved BGP's fingerprint (the
        #: plan-cache key).  The serving scheduler installs one to track the
        #: hot-plan mix that drives cache warming; it must never raise.
        self.plan_listener = None
        # The sequential matcher is stateless between calls and shared by
        # every component stream; the shard executor (persistent worker
        # processes) is engine-held so it spans queries.
        self._matcher = TurboMatcher(graph, config)
        self._executor = executor

    def supports_filter_pushdown(self) -> bool:
        return True

    def supports_batches(self) -> bool:
        return self.result_pipeline == "batch"

    def supports_plan_shapes(self) -> bool:
        return True

    def path_resolver(self) -> Optional[PathResolver]:
        """Resolver for property-path evaluation (None without a manager)."""
        if self.path_manager is None:
            return None
        if (
            self._path_resolver is None
            or self._path_resolver.manager is not self.path_manager
        ):
            self._path_resolver = PathResolver(
                self.graph, self.mapping, self.path_manager
            )
        return self._path_resolver

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        limit_hint: Optional[int] = None,
        plan_shape: Optional[str] = None,
    ) -> Iterator[Binding]:
        """Stream the bindings of a basic graph pattern.

        ``limit_hint`` promises the caller needs at most that many bindings:
        it is always enforced at the top of the stream, and — when the plan
        is a single component without expansion decorators — pushed all the
        way into the matcher so candidate regions stop being explored.
        ``plan_shape`` (the query's aggregate shape) is folded into the
        plan-cache key so aggregate and plain queries never share a cached
        plan slot.
        """
        plan = self.plan(patterns, cheap_filters, plan_shape)
        deep_limit = limit_hint if plan.supports_direct_limit() else None
        stream = self._execute(plan, deep_limit)
        if limit_hint is not None:
            stream = itertools.islice(stream, limit_hint)
        return stream

    def plan(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        plan_shape: Optional[str] = None,
    ) -> QueryPlan:
        """The compiled plan for a BGP, from the cache when possible."""
        if self.plan_cache is None:
            plan = self._compile(patterns, cheap_filters)
            if self._executor is not None:
                # Shard workers address their plan caches by fingerprint, so
                # plans are fingerprinted even when the engine cache is off.
                plan.fingerprint = bgp_fingerprint(
                    patterns, cheap_filters, shape=plan_shape
                )
            if self.plan_listener is not None and plan.fingerprint is not None:
                self.plan_listener(plan.fingerprint)
            return plan
        key = bgp_fingerprint(patterns, cheap_filters, shape=plan_shape)
        if self.plan_listener is not None:
            self.plan_listener(key)
        plan = self.plan_cache.get(key)
        if plan is None:
            plan = self._compile(patterns, cheap_filters)
            plan.fingerprint = key
            self.plan_cache.put(key, plan)
        return plan

    def _compile(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression],
    ) -> QueryPlan:
        return compile_query(
            patterns, cheap_filters, self.graph, self.mapping, self.config, self.type_aware
        )

    # -------------------------------------------------------------- execution
    def _execute(self, plan: QueryPlan, deep_limit: Optional[int]) -> Iterator[Binding]:
        """Stream the plan's alternatives (lazy concatenation)."""
        for alternative_index, alternative in enumerate(plan.alternatives):
            stream = self._stream_components(plan, alternative_index, deep_limit)
            bindings = self._expand_predicate_choices(stream)
            if alternative.type_binders:
                bindings = self._expand_type_variables(bindings, alternative.type_binders)
            if alternative.forced:
                bindings = self._apply_forced(bindings, alternative.forced)
            yield from bindings

    def _stream_components(
        self, plan: QueryPlan, alternative_index: int, deep_limit: Optional[int]
    ) -> Iterator[MatchedSolution]:
        """Lazy cross product of the alternative's connected components.

        The first component streams; the others are materialized once (they
        must be re-iterated per outer solution) and checked for emptiness
        before the outer stream is ever pulled, so an empty component costs
        nothing on the expensive side.
        """
        components = plan.alternatives[alternative_index].components
        if not components:
            yield MatchedSolution({})
            return
        if len(components) == 1:
            yield from self._stream_component(plan, alternative_index, 0, deep_limit)
            return
        rest: List[List[MatchedSolution]] = []
        for component_index in range(1, len(components)):
            materialized = list(
                self._stream_component(plan, alternative_index, component_index, None)
            )
            if not materialized:
                return
            rest.append(materialized)
        for first in self._stream_component(plan, alternative_index, 0, None):
            for parts in itertools.product(*rest):
                binding = dict(first.binding)
                choices = dict(first.choices) if first.choices else None
                for part in parts:
                    binding.update(part.binding)
                    if part.choices:
                        choices = _merge_choices(choices, part.choices)
                yield MatchedSolution(binding, choices)

    def _region_key(
        self, plan: QueryPlan, alternative_index: int, component_index: int
    ):
        """Stable region-cache key prefix for one plan component.

        None (cache bypass) for unfingerprinted plans — without the
        canonical fingerprint a key could not distinguish two different
        BGPs, so only cacheable plans get region caching.
        """
        if self.region_cache is None or plan.fingerprint is None:
            return None
        return (plan.fingerprint, alternative_index, component_index)

    def _stream_component(
        self,
        plan: QueryPlan,
        alternative_index: int,
        component_index: int,
        deep_limit: Optional[int],
    ) -> Iterator[MatchedSolution]:
        """Stream one component's solutions straight out of the matcher."""
        component = plan.alternatives[alternative_index].components[component_index]
        query = component.query
        region_key = self._region_key(plan, alternative_index, component_index)
        region_cache = self.region_cache if region_key is not None else None
        if self._executor is not None and query.vertex_count() > 1:
            solutions: Iterable[Solution] = self._executor.iter_component(
                plan, alternative_index, component_index, deep_limit
            )
        else:
            solutions = self._matcher.iter_match(
                query,
                vertex_predicates=component.pushdown,
                max_results=deep_limit,
                prepared=component.prepared,
                region_cache=region_cache,
                region_key=region_key,
            )
        for solution in solutions:
            self.counters.solutions += 1
            yield self._decode_solution(component, solution)

    # ------------------------------------------------------- batch execution
    def solve_batches(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        limit_hint: Optional[int] = None,
        plan_shape: Optional[str] = None,
    ) -> Iterator[BindingBatch]:
        """Stream the bindings of a basic graph pattern as columnar batches.

        The batch twin of :meth:`solve` (identical multiset semantics): the
        matcher's :class:`~repro.matching.solution_batch.SolutionBatch`
        columns are adopted as id columns of the emitted
        :class:`~repro.sparql.binding_batch.BindingBatch` objects, so on the
        hot path (one component, no predicate/type-variable expansion) no
        per-solution object is ever built and no id is decoded — terms
        materialize at the :class:`~repro.sparql.results.ResultSet`
        boundary.
        """
        plan = self.plan(patterns, cheap_filters, plan_shape)
        deep_limit = limit_hint if plan.supports_direct_limit() else None
        stream = self._execute_batches(plan, deep_limit)
        if limit_hint is not None:
            stream = slice_batches(stream, 0, limit_hint)
        return stream

    @staticmethod
    def _term_variables(plan: QueryPlan) -> Set[str]:
        """Variables that any alternative binds in the *term* domain.

        Predicate variables, ``rdf:type ?t`` type variables and forced
        bindings produce RDF terms, not vertex ids.  A variable that is
        term-bound in one alternative but vertex-bound in another must be
        decoded everywhere, so the whole solve stream stays kind-consistent
        per variable (what lets the evaluator compare raw columns).
        """
        names: Set[str] = set()
        for alternative in plan.alternatives:
            names.update(alternative.forced)
            for binder in alternative.type_binders:
                names.add(binder.type_variable)
            for component in alternative.components:
                names.update(component.predicate_variable_edges)
        return names

    def _execute_batches(
        self, plan: QueryPlan, deep_limit: Optional[int]
    ) -> Iterator[BindingBatch]:
        """Stream the plan's alternatives as batches (lazy concatenation)."""
        term_variables = self._term_variables(plan)
        for alternative_index, alternative in enumerate(plan.alternatives):
            expansion_free = (
                not alternative.forced
                and not alternative.type_binders
                and all(
                    not component.predicate_variable_edges
                    for component in alternative.components
                )
            )
            if expansion_free and len(alternative.components) == 1:
                # Hot path: id columns flow straight through.
                for batch, _ in self._component_batches(
                    plan, alternative_index, 0, deep_limit, term_variables
                ):
                    yield batch
                continue
            stream = self._stream_component_batches(
                plan, alternative_index, term_variables
            )
            if expansion_free:
                for batch, _ in stream:
                    yield batch
            else:
                yield from self._expand_batches(stream, alternative, term_variables)

    def _component_batches(
        self,
        plan: QueryPlan,
        alternative_index: int,
        component_index: int,
        deep_limit: Optional[int],
        term_variables: Set[str],
    ) -> Iterator[Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]]:
        """One component's matcher batches, adopted into binding batches.

        Yields ``(batch, choices)`` where ``choices`` carries the pending
        predicate-variable candidate terms per row (None when the component
        has none) — the batch analogue of :class:`MatchedSolution`.
        """
        component = plan.alternatives[alternative_index].components[component_index]
        query = component.query
        region_key = self._region_key(plan, alternative_index, component_index)
        region_cache = self.region_cache if region_key is not None else None
        if self._executor is not None and query.vertex_count() > 1:
            solution_batches: Iterable[SolutionBatch] = (
                self._executor.iter_component_batches(
                    plan, alternative_index, component_index, deep_limit
                )
            )
        else:
            solution_batches = self._matcher.iter_match_batches(
                query,
                vertex_predicates=component.pushdown,
                max_results=deep_limit,
                prepared=component.prepared,
                region_cache=region_cache,
                region_key=region_key,
            )
        for solution_batch in solution_batches:
            self.counters.batches += 1
            self.counters.solutions += solution_batch.rows
            yield self._adopt_solution_batch(component, solution_batch, term_variables)

    def _adopt_solution_batch(
        self,
        component: ComponentPlan,
        solution_batch: SolutionBatch,
        term_variables: Set[str],
    ) -> Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]:
        """Wrap matcher columns as binding columns (zero-copy for id columns)."""
        variables: List[str] = []
        columns: Dict[str, object] = {}
        kinds: Dict[str, str] = {}
        for vertex in component.query.vertices:
            if not vertex.is_variable:
                continue
            name = vertex.name
            column = solution_batch.columns[vertex.index]
            variables.append(name)
            if name in term_variables:
                # Term-bound elsewhere in the plan: decode the whole column
                # once so the stream stays kind-consistent for this name.
                columns[name] = self.mapping.terms_for_vertices(column)
                kinds[name] = KIND_TERM
            else:
                columns[name] = column
                kinds[name] = KIND_ID
        batch = BindingBatch(
            variables, columns, kinds, solution_batch.rows, self.mapping.term_for_vertex
        )
        if not component.predicate_variable_edges:
            return batch, None
        choices = [
            self._solution_choices(component, solution_batch, row)
            for row in range(solution_batch.rows)
        ]
        return batch, choices

    def _solution_choices(
        self, component: ComponentPlan, solution_batch: SolutionBatch, row: int
    ) -> Dict[str, List[Term]]:
        """Predicate-variable candidate terms of one solution row.

        Mirrors the choice computation of :meth:`_decode_solution`, reading
        the matched endpoints out of the columnar batch.
        """
        columns = solution_batch.columns
        choices: Dict[str, List[Term]] = {}
        for name, endpoints in component.predicate_variable_edges.items():
            allowed: Optional[set] = None
            for source, target in endpoints:
                labels = set(
                    self.graph.edge_labels_between(columns[source][row], columns[target][row])
                )
                allowed = labels if allowed is None else (allowed & labels)
            choices[name] = sorted(
                (self.mapping.term_for_edge_label(label) for label in (allowed or set())),
                key=str,
            )
        return choices

    def _stream_component_batches(
        self, plan: QueryPlan, alternative_index: int, term_variables: Set[str]
    ) -> Iterator[Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]]:
        """Batch cross product of the alternative's connected components.

        Mirrors :meth:`_stream_components`: the first component streams, the
        rest are materialized once and checked for emptiness up front.
        Components bind disjoint variables, so merged rows are plain column
        concatenation; shared predicate-variable *choices* intersect via
        :func:`_merge_choices`.
        """
        components = plan.alternatives[alternative_index].components
        if not components:
            yield BindingBatch.unit(self.mapping.term_for_vertex), None
            return
        if len(components) == 1:
            yield from self._component_batches(
                plan, alternative_index, 0, None, term_variables
            )
            return
        rest: List[List[Tuple[BindingBatch, int, Optional[Dict[str, List[Term]]]]]] = []
        for component_index in range(1, len(components)):
            rows: List[Tuple[BindingBatch, int, Optional[Dict[str, List[Term]]]]] = []
            for batch, choices in self._component_batches(
                plan, alternative_index, component_index, None, term_variables
            ):
                for row in range(batch.rows):
                    rows.append((batch, row, choices[row] if choices else None))
            if not rows:
                return
            rest.append(rows)
        for first_batch, first_choices in self._component_batches(
            plan, alternative_index, 0, None, term_variables
        ):
            variables = list(first_batch.variables)
            kinds = dict(first_batch.kinds)
            for rows in rest:
                part = rows[0][0]
                for var in part.variables:
                    if var not in kinds:
                        variables.append(var)
                        kinds[var] = part.kinds[var]
            builder = BatchBuilder(variables, kinds, self.mapping.term_for_vertex)
            merged_choices: Optional[List[Dict[str, List[Term]]]] = (
                []
                if first_choices is not None or any(
                    rows[0][2] is not None for rows in rest
                )
                else None
            )
            for row in range(first_batch.rows):
                base = [first_batch.raw(var, row) for var in first_batch.variables]
                base_choice = first_choices[row] if first_choices else None
                for parts in itertools.product(*rest):
                    values = list(base)
                    choices = dict(base_choice) if base_choice else None
                    for part_batch, part_row, part_choice in parts:
                        values.extend(
                            part_batch.raw(var, part_row)
                            for var in part_batch.variables
                        )
                        if part_choice:
                            choices = _merge_choices(choices, part_choice)
                    builder.append(values)
                    if merged_choices is not None:
                        merged_choices.append(choices or {})
            if builder.rows:
                yield builder.batch(), merged_choices

    def _expand_batches(
        self,
        stream: Iterator[Tuple[BindingBatch, Optional[List[Dict[str, List[Term]]]]]],
        alternative: AlternativePlan,
        term_variables: Set[str],
    ) -> Iterator[BindingBatch]:
        """Row-multiplying decorators of one alternative, batch-wise.

        Ports predicate-choice expansion, type-variable expansion and forced
        bindings onto columnar rows: vertex variables stay raw ids, the
        expansion variables (all in ``term_variables``) append term columns.
        """
        choice_names: Set[str] = set()
        for component in alternative.components:
            choice_names.update(component.predicate_variable_edges)
        extra = sorted(
            set(itertools.chain(
                choice_names,
                (binder.type_variable for binder in alternative.type_binders),
                alternative.forced,
            ))
        )
        for batch, choices in stream:
            variables = list(batch.variables)
            kinds = dict(batch.kinds)
            for name in extra:
                if name not in kinds:
                    variables.append(name)
                    kinds[name] = KIND_TERM
            builder = BatchBuilder(variables, kinds, self.mapping.term_for_vertex)
            for row in range(batch.rows):
                base = {var: batch.raw(var, row) for var in batch.variables}
                rows = [base]
                if choices is not None:
                    rows = self._expand_row_choices(base, choices[row])
                if alternative.type_binders:
                    rows = [
                        expanded
                        for current in rows
                        for expanded in self._expand_row_types(
                            current, alternative.type_binders
                        )
                    ]
                for current in rows:
                    if alternative.forced:
                        conflict = any(
                            current.get(name) not in (None, value)
                            for name, value in alternative.forced.items()
                        )
                        if conflict:
                            continue
                        current = dict(current)
                        current.update(alternative.forced)
                    builder.append([current.get(var) for var in variables])
            if builder.rows:
                yield builder.batch()

    @staticmethod
    def _expand_row_choices(
        base: Dict[str, Any], choices: Dict[str, List[Term]]
    ) -> List[Dict[str, Any]]:
        """Expand one row's pending predicate-variable choices.

        The row analogue of :meth:`_expand_predicate_choices`; existing
        bindings constrain the expansion (choice variables are always in the
        term domain, see :meth:`_term_variables`).
        """
        if not choices:
            return [base]
        names = sorted(choices)
        pools = []
        for name in names:
            existing = base.get(name)
            terms = choices[name]
            if existing is not None:
                terms = [term for term in terms if term == existing]
            pools.append(terms)
        expanded = []
        for combo in itertools.product(*pools):
            row = dict(base)
            row.update(zip(names, combo))
            expanded.append(row)
        return expanded

    def _expand_row_types(
        self, row: Dict[str, Any], binders: Sequence[TypeVariableBinder]
    ) -> List[Dict[str, Any]]:
        """Bind one row's type variables from vertex label sets.

        The row analogue of :meth:`_expand_type_variables`, with one batch
        bonus: an id-domain subject *is* its data vertex, so no term →
        dictionary → vertex round trip is needed.
        """
        results = [row]
        for binder in binders:
            next_results: List[Dict[str, Any]] = []
            for current in results:
                data_vertex = self._row_data_vertex(binder, current)
                if data_vertex is None or data_vertex < 0:
                    continue
                labels = self.graph.vertex_labels(data_vertex)
                existing = current.get(binder.type_variable)
                for label in sorted(labels):
                    type_term = self.mapping.term_for_label(label)
                    if existing is not None and existing != type_term:
                        continue
                    extended = dict(current)
                    extended[binder.type_variable] = type_term
                    next_results.append(extended)
            results = next_results
        return results

    def _row_data_vertex(
        self, binder: TypeVariableBinder, row: Dict[str, Any]
    ) -> Optional[int]:
        """The data vertex answering a type binder for one columnar row."""
        if not binder.subject_is_variable:
            return binder.subject_vertex_id
        value = row.get(binder.subject_name)
        if value is None:
            return None
        if isinstance(value, int):
            return value  # id-domain column: already the data vertex
        node_id = self.mapping.dictionary.lookup_node(value)
        if node_id is None:
            return None
        return self.mapping.vertex_for_node(node_id)

    # -------------------------------------------------------------- decoding
    def _decode_solution(self, component: ComponentPlan, solution: Solution) -> MatchedSolution:
        """Decode a vertex mapping into variable bindings.

        Predicate variables are enumerated lazily afterwards; here we record
        the allowed edge labels between the matched endpoints so
        :meth:`_expand_predicate_choices` can bind them.
        """
        binding: Binding = {}
        for vertex in component.query.vertices:
            if vertex.is_variable:
                binding[vertex.name] = self.mapping.term_for_vertex(solution[vertex.index])
        if not component.predicate_variable_edges:
            return MatchedSolution(binding)
        choices: Dict[str, List[Term]] = {}
        for name, endpoints in component.predicate_variable_edges.items():
            allowed: Optional[set] = None
            for source, target in endpoints:
                labels = set(
                    self.graph.edge_labels_between(solution[source], solution[target])
                )
                allowed = labels if allowed is None else (allowed & labels)
            choices[name] = sorted(
                (self.mapping.term_for_edge_label(label) for label in (allowed or set())),
                key=str,
            )
        return MatchedSolution(binding, choices)

    # ------------------------------------------------------------- decorators
    @staticmethod
    def _expand_predicate_choices(stream: Iterator[MatchedSolution]) -> Iterator[Binding]:
        """Expand pending predicate-variable choices into plain bindings.

        A choice variable that is already bound in the solution (e.g. the
        same name also matched a query vertex) constrains the expansion to
        that value instead of being overwritten.
        """
        for matched in stream:
            choices = matched.choices
            if not choices:
                yield matched.binding
                continue
            binding = matched.binding
            names = sorted(choices)
            pools = []
            for name in names:
                existing = binding.get(name)
                terms = choices[name]
                if existing is not None:
                    terms = [term for term in terms if term == existing]
                pools.append(terms)
            for combo in itertools.product(*pools):
                extended = dict(binding)
                extended.update(zip(names, combo))
                yield extended

    def _expand_type_variables(
        self,
        stream: Iterator[Binding],
        binders: Sequence[TypeVariableBinder],
    ) -> Iterator[Binding]:
        """Bind type variables from vertex label sets (type-aware graphs only)."""
        for binding in stream:
            results = [binding]
            for binder in binders:
                next_results: List[Binding] = []
                for current in results:
                    data_vertex = self._binder_data_vertex(binder, current)
                    if data_vertex is None or data_vertex < 0:
                        continue
                    labels = self.graph.vertex_labels(data_vertex)
                    existing = current.get(binder.type_variable)
                    for label in sorted(labels):
                        type_term = self.mapping.term_for_label(label)
                        if existing is not None and existing != type_term:
                            continue
                        extended = dict(current)
                        extended[binder.type_variable] = type_term
                        next_results.append(extended)
                results = next_results
            yield from results

    def _binder_data_vertex(
        self, binder: TypeVariableBinder, binding: Binding
    ) -> Optional[int]:
        """The data vertex whose label set answers a type-variable binder."""
        if binder.subject_is_variable:
            term = binding.get(binder.subject_name)
            if term is None:
                return None
            node_id = self.mapping.dictionary.lookup_node(term)
            if node_id is None:
                return None
            return self.mapping.vertex_for_node(node_id)
        return binder.subject_vertex_id

    @staticmethod
    def _apply_forced(stream: Iterator[Binding], forced: Dict[str, Term]) -> Iterator[Binding]:
        """Bind predicate variables forced to rdf:type, dropping conflicts."""
        for binding in stream:
            conflict = any(
                binding.get(name) not in (None, value) for name, value in forced.items()
            )
            if conflict:
                continue
            extended = dict(binding)
            extended.update(forced)
            yield extended


# --------------------------------------------------------------------- engine
class TurboEngine(Engine):
    """Engine front-end over the TurboMatcher (direct or type-aware)."""

    name = "TurboEngine"
    supports_optional = True
    supports_paths = True

    def __init__(
        self,
        type_aware: bool = True,
        config: Optional[MatchConfig] = None,
        workers: int = 1,
        plan_cache_size: int = 128,
        execution_mode: Optional[str] = None,
        result_pipeline: Optional[str] = None,
        region_cache_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        join_partitions: Optional[int] = None,
        path_index_bytes: Optional[int] = None,
        cache_admission: Optional[str] = None,
        cache_sketch_bytes: Optional[int] = None,
        region_cache_plan_share: Optional[float] = None,
    ):
        super().__init__()
        self.type_aware = type_aware
        self.config = config if config is not None else MatchConfig.turbo_hom_pp()
        #: Where BGPs are matched: ``"threads"`` (the calling thread, one
        #: worker) or ``"processes"`` (``workers`` shard processes over a
        #: shared-memory graph export).  ``None`` defers to
        #: ``REPRO_EXECUTION_MODE``.  Mode and worker count are validated
        #: here, at construction — a typo, a non-positive worker count or
        #: ``workers > 1`` in thread mode raises a ValueError immediately
        #: instead of failing deep inside a worker pool.
        self.execution_mode = resolve_execution_mode(execution_mode)
        #: How results move above the matcher: ``"batch"`` (columnar
        #: BindingBatch pipeline, the default) or ``"scalar"`` (per-Binding
        #: compatibility path).  ``None`` defers to ``REPRO_RESULT_PIPELINE``.
        self.result_pipeline = resolve_result_pipeline(result_pipeline)
        validate_worker_count(workers)
        if self.execution_mode == "threads" and workers > 1:
            # Under CPython's GIL a thread pool cannot beat the sequential
            # matcher, so processes are the one parallel path.
            raise EngineError(
                f"workers={workers} needs execution_mode=\"processes\"; "
                "thread mode matches in the calling thread"
            )
        if self.execution_mode == "processes" and workers == 1:
            # Process mode with one worker would silently fall back to the
            # sequential matcher on every query; requesting it means
            # parallelism was wanted, so give it a minimal shard pool.
            workers = 2
        self.workers = workers
        self.graph: Optional[LabeledGraph] = None
        self.mapping: Optional[GraphMapping] = None
        #: Compiled-plan cache shared by every query of this engine
        #: (``plan_cache_size=0`` disables caching).
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(plan_cache_size) if plan_cache_size else None
        )
        #: Byte budget of the cross-query candidate-region cache.  ``None``
        #: defers to ``REPRO_REGION_CACHE_BYTES`` and then the default;
        #: ``0`` disables region caching.  Validated here, at construction.
        self.region_cache_bytes = resolve_region_cache_bytes(
            region_cache_bytes, DEFAULT_REGION_CACHE_BYTES
        )
        #: Workload-aware cache admission (``"tinylfu"`` via a Count-Min
        #: sketch, or ``"lru"`` for plain recency eviction), the sketch byte
        #: budget, and the per-plan share of the region-cache budget.
        #: ``None`` defers to ``REPRO_CACHE_ADMISSION`` /
        #: ``REPRO_CACHE_SKETCH_BYTES`` / ``REPRO_REGION_CACHE_PLAN_SHARE``
        #: and then the defaults.  All validated here, at construction.
        self.cache_admission = resolve_cache_admission(cache_admission)
        self.cache_sketch_bytes = resolve_cache_sketch_bytes(cache_sketch_bytes)
        self.region_cache_plan_share = resolve_region_plan_share(
            region_cache_plan_share
        )
        #: Engine-held region cache of the sequential matcher.  In process
        #: mode each shard worker holds its own cache of the same budget;
        #: region keys are plan fingerprints, so the cache is invalidated
        #: together with the plan cache (and on load()).
        self.region_cache: Optional[RegionCache] = make_region_cache(
            self.region_cache_bytes,
            admission=make_admission_policy(
                self.cache_admission, self.cache_sketch_bytes
            ),
            plan_share=self.region_cache_plan_share,
        )
        #: Build-side byte budget of one hybrid hash join (``0`` = unbounded,
        #: no spilling) and its partition fan-out.  ``None`` defers to
        #: ``REPRO_JOIN_MEMORY_BYTES`` / ``REPRO_JOIN_PARTITIONS`` and then
        #: the defaults.  Validated here, at construction.
        self.join_memory_bytes = resolve_join_memory_bytes(join_memory_bytes)
        self.join_partitions = resolve_join_partitions(join_partitions)
        #: Byte budget of the per-predicate reachability-index LRU backing
        #: transitive property paths (``0`` = no indexes, BFS fallback on
        #: every probe).  ``None`` defers to ``REPRO_PATH_INDEX_BYTES`` and
        #: then the default.  Validated here, at construction.
        self.path_index_bytes = resolve_path_index_bytes(path_index_bytes)
        #: Engine-held operator context: join budgets, the spill-file
        #: lifecycle (temp files removed by :meth:`close`, plus a finalizer
        #: safety net for crashed workers) and the operator counters behind
        #: ``stats()["operators"]``.
        self.operator_context = OperatorContext(
            join_memory_bytes=self.join_memory_bytes,
            join_partitions=self.join_partitions,
        )
        #: Result-pipeline counters (batches/solutions moved), shared with
        #: the solver and reported by :meth:`stats`.
        self.pipeline_counters = PipelineCounters()
        self._solver: Optional[TurboBGPSolver] = None
        self._executor: Optional[ShardExecutor] = None
        self._path_manager: Optional[PathIndexManager] = None
        #: Plan listener installed before the solver exists (see
        #: :meth:`set_plan_listener`); re-applied on every solver (re)build.
        self._plan_listener = None
        #: Shard-pool generations retired by close(); added to the live
        #: pool's generation so :meth:`pool_generation` stays monotonic
        #: across engine close/rebuild cycles.
        self._pool_generation_base = 0
        #: Serializes lazy solver/pool construction so two threads firing
        #: their first query cannot race two worker pools into existence
        #: (one of which would leak unjoined processes).
        self._solver_lock = threading.Lock()
        #: Close-cycle marker captured by every open result stream: close()
        #: sets it (and installs a fresh one), making in-flight streams end
        #: with a clear EngineError at their next batch boundary instead of
        #: silently truncating or deadlocking.
        self._close_event = threading.Event()

    def load(self, store: TripleStore) -> None:
        """Transform the store into the engine's labeled graph."""
        self._store = store
        if self.type_aware:
            self.graph, self.mapping = type_aware_transform(store)
        else:
            self.graph, self.mapping = direct_transform(store)
        # New graph: compiled plans, cached regions and the worker pool are
        # stale (shard workers restart with empty caches when the pool is
        # rebuilt, so process mode needs no extra fan-out).
        if self.plan_cache is not None:
            self.plan_cache.clear()
        if self.region_cache is not None:
            self.region_cache.clear()
        self.close()
        self._solver = None

    def bgp_solver(self) -> TurboBGPSolver:
        if self.graph is None or self.mapping is None:
            raise RuntimeError(f"{self.name}: load() must be called before querying")
        with self._solver_lock:
            return self._bgp_solver_locked()

    def _bgp_solver_locked(self) -> TurboBGPSolver:
        if self._solver is None:
            if self.execution_mode == "processes" and self._executor is None:
                self._executor = ShardExecutor(
                    self.graph, self.mapping, self.config, workers=self.workers,
                    region_cache_bytes=self.region_cache_bytes,
                    cache_admission=self.cache_admission,
                    cache_sketch_bytes=self.cache_sketch_bytes,
                    region_plan_share=self.region_cache_plan_share,
                )
            if self._path_manager is None:
                # Reachability indexes build lazily per predicate inside the
                # manager; in process mode every index is additionally
                # exported as a shared-memory manifest workers can attach.
                self._path_manager = PathIndexManager(
                    self.graph,
                    self.path_index_bytes,
                    shared=(self.execution_mode == "processes"),
                    admission=make_admission_policy(
                        self.cache_admission, self.cache_sketch_bytes
                    ),
                )
            self._solver = TurboBGPSolver(
                self.graph,
                self.mapping,
                self.config,
                self.type_aware,
                plan_cache=self.plan_cache,
                executor=self._executor,
                result_pipeline=self.result_pipeline,
                counters=self.pipeline_counters,
                region_cache=self.region_cache,
                operator_context=self.operator_context,
                path_manager=self._path_manager,
            )
        # Keep the memoized solver honest if the engine's caches were
        # swapped or disabled after the first query.
        self._solver.plan_cache = self.plan_cache
        self._solver.result_pipeline = self.result_pipeline
        self._solver.region_cache = self.region_cache
        self._solver.path_manager = self._path_manager
        self._solver.plan_listener = self._plan_listener
        return self._solver

    # ---------------------------------------------------------- cache warming
    def set_plan_listener(self, listener) -> None:
        """Install a callback observing each solved BGP's fingerprint.

        The serving scheduler uses this to track the hot-plan mix behind
        scheduler-driven cache warming; ``None`` uninstalls.  The callback
        runs on the query thread under no lock and must never raise.
        """
        self._plan_listener = listener
        with self._solver_lock:
            if self._solver is not None:
                self._solver.plan_listener = listener

    def pool_generation(self) -> int:
        """Monotonic generation counter of the process shard pool.

        Increments every time a fresh set of worker processes starts (first
        lazy build and every rebuild after :meth:`close`), i.e. every time
        the per-worker region caches start cold.  Stays 0 in thread mode,
        where the engine-held region cache survives close() and warming has
        nothing to repair.
        """
        live = self._executor.pool.generation if self._executor is not None else 0
        return self._pool_generation_base + live

    def warm_cached_plans(self, fingerprints: Iterable[Any]) -> int:
        """Pre-populate region caches for already-compiled plans.

        For every fingerprint still resident in the plan cache, runs a
        warm-only exploration pass (see
        :func:`~repro.matching.shard_protocol.run_chunk`) over each
        component: candidate regions are explored and stored under their
        usual plan keys but no search or result emission happens.  In
        process mode multi-vertex components warm every shard worker's
        private cache through the pool's broadcast warming job; everything
        else warms the engine-held cache in-process.  Returns the number of
        plans warmed.  Lookups go through :meth:`PlanCache.peek`, so
        warming never skews the hit/miss counters benchmarks report.
        """
        if self.graph is None or self.plan_cache is None:
            return 0
        if self.region_cache is None and self._executor is None:
            return 0
        # Materialize the shard pool (process mode: ensures there are worker
        # caches to warm) exactly as the first query would.
        self.bgp_solver()
        warmed = 0
        for fingerprint in fingerprints:
            plan = self.plan_cache.peek(fingerprint)
            if plan is None or plan.fingerprint is None:
                continue
            touched = False
            for alternative_index, alternative in enumerate(plan.alternatives):
                for component_index, component in enumerate(alternative.components):
                    if (
                        self._executor is not None
                        and component.query.vertex_count() > 1
                    ):
                        touched |= self._executor.warm_component(
                            plan, alternative_index, component_index
                        )
                        continue
                    if self.region_cache is None:
                        continue
                    prepared = component.prepared
                    predicates = component.pushdown or {}
                    run_chunk(
                        self.graph, self.config, component.query, prepared,
                        predicates, predicates.get(prepared.start_vertex),
                        prepared.start_candidates,
                        emit=lambda batch: True,
                        stopped=self._close_event.is_set,
                        region_cache=self.region_cache,
                        region_key=(
                            plan.fingerprint, alternative_index, component_index
                        ),
                        warm_only=True,
                    )
                    touched = True
            if touched:
                warmed += 1
        return warmed

    # ------------------------------------------------------------- streaming
    def query_batches(self, query) -> BatchResult:
        """Streaming query surface with deterministic close semantics.

        Wraps the base implementation so a concurrent :meth:`close` makes
        an open stream raise a clear :class:`EngineError` at its next batch
        boundary (the shard pool retires its job, so that boundary arrives
        promptly) instead of silently truncating the result.
        """
        result = super().query_batches(query)
        return BatchResult(
            result.variables, self._guard_stream(result, self._close_event)
        )

    def _guard_stream(
        self, batches: BatchResult, closed: threading.Event
    ) -> Iterator[BindingBatch]:
        try:
            while True:
                if closed.is_set():
                    raise EngineError(
                        f"{self.name}: engine closed while a result stream was open"
                    )
                try:
                    batch = next(batches)
                except StopIteration:
                    if closed.is_set():
                        # The pool retired our job mid-stream: this is a
                        # truncation, not a completed result.
                        raise EngineError(
                            f"{self.name}: engine closed while a result stream "
                            "was open"
                        ) from None
                    return
                yield batch
        finally:
            batches.close()

    def stats(self) -> Dict[str, object]:
        """Operational counters: plan cache, result pipeline, shard transport.

        One call answers what benchmarks used to re-derive by hand:

        * ``plan_cache`` — hits / misses / evictions / current size (None
          when caching is disabled),
        * ``region_cache`` — cross-query candidate-region cache counters
          (bytes held, entries, hits / misses / evictions, per-plan budget
          evictions, and the TinyLFU admission decisions: accepts, rejects,
          sketch resets; None when disabled).  In process mode these are
          the *summed* per-worker caches, refreshed by each worker's
          job-completion report,
        * ``pipeline`` — the active result pipeline plus batches/solutions
          pulled out of the matcher layer,
        * ``transport`` — in process mode, how results crossed the worker
          boundary: ring batches vs pickled queue fallbacks and the bytes
          moved through shared memory (None in threads mode, where results
          never leave the address space),
        * ``operators`` — batch operator-kernel counters (hybrid-join
          spill volume, repartition passes, budget fallbacks, groups
          emitted by aggregation, rows decoded at the ResultSet boundary,
          property-path rows emitted) plus the configured join budget and
          fan-out,
        * ``path_index`` — the per-predicate reachability-index LRU behind
          transitive property paths: the configured byte budget, resident
          entries/bytes, build / hit / miss / eviction counts, oversized
          predicates pinned to BFS, BFS fallback probes, and the probe-level
          split between closure postings, O(1) interval rejects and pruned
          DFS walks.
        """
        plan_cache: Optional[Dict[str, int]] = None
        if self.plan_cache is not None:
            plan_cache = self.plan_cache.counters()
        transport: Optional[Dict[str, int]] = None
        if self._executor is not None:
            shard = self._executor.pool.transport
            transport = {
                "ring_batches": shard.ring_batches,
                "queue_batches": shard.queue_batches,
                "shm_bytes": shard.shm_bytes,
                "solutions": shard.solutions,
            }
        region_cache: Optional[Dict[str, int]] = None
        if self._executor is not None:
            region_cache = self._executor.pool.region_cache_counters()
        elif self.region_cache is not None:
            region_cache = self.region_cache.counters()
        if self._path_manager is not None:
            path_index = self._path_manager.stats()
        else:
            path_index = {
                "budget_bytes": self.path_index_bytes,
                "entries": 0,
                "bytes": 0,
                "shared": self.execution_mode == "processes",
                **PathIndexCounters().snapshot(),
            }
        return {
            "execution_mode": self.execution_mode,
            "workers": self.workers,
            "plan_cache": plan_cache,
            "region_cache": region_cache,
            "pipeline": {
                "mode": self.result_pipeline,
                "batches": self.pipeline_counters.batches,
                "solutions": self.pipeline_counters.solutions,
            },
            "transport": transport,
            "operators": {
                "join_memory_bytes": self.join_memory_bytes,
                "join_partitions": self.join_partitions,
                **self.operator_context.counters.snapshot(),
            },
            "path_index": path_index,
        }

    def close(self) -> None:
        """Shut down the shard executor and spill storage.

        Safe to call repeatedly and safe to call while result streams are
        open: in-flight :meth:`query_batches` streams observe the close
        marker and raise a clear :class:`EngineError` at their next batch
        boundary (the shard pool retires its job first, so that boundary
        arrives instead of deadlocking on a torn-down pool).  The engine
        stays usable — a later query lazily rebuilds the solver and pool.
        """
        # Flip the close marker first (and install a fresh one for streams
        # opened after this close), so a stream racing the teardown below
        # errors out instead of reading from a half-closed pool.
        closed, self._close_event = self._close_event, threading.Event()
        closed.set()
        # Spill files are query-scoped; any that survive here were leaked
        # by an interrupted query (or a crashed worker), so sweep the
        # context's temp directory.  The context stays usable: the next
        # spill recreates its directory lazily.
        self.operator_context.cleanup()
        if self._executor is not None:
            # Bank the retired pool's generations so pool_generation() keeps
            # climbing when a later query rebuilds the executor from scratch.
            self._pool_generation_base += self._executor.pool.generation
            self._executor.close()
            self._executor = None
        # Reachability indexes are graph-scoped: drop them (unlinking any
        # shared-memory exports) so a reload never serves stale closures.
        if self._path_manager is not None:
            self._path_manager.close()
            self._path_manager = None
        # Drop the memoized solver too: it holds the closed executor,
        # and a later query must build (and the next close() must find) a
        # fresh engine-tracked one instead of resurrecting the old.
        self._solver = None


class TurboHomEngine(TurboEngine):
    """TurboHOM: direct transformation, unoptimized homomorphism matching."""

    name = "TurboHOM"

    def __init__(
        self,
        workers: int = 1,
        execution_mode: Optional[str] = None,
        result_pipeline: Optional[str] = None,
        plan_cache_size: int = 128,
        region_cache_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        join_partitions: Optional[int] = None,
        path_index_bytes: Optional[int] = None,
        cache_admission: Optional[str] = None,
        cache_sketch_bytes: Optional[int] = None,
        region_cache_plan_share: Optional[float] = None,
    ):
        super().__init__(
            type_aware=False,
            config=MatchConfig.homomorphism_baseline(),
            workers=workers,
            execution_mode=execution_mode,
            result_pipeline=result_pipeline,
            plan_cache_size=plan_cache_size,
            region_cache_bytes=region_cache_bytes,
            join_memory_bytes=join_memory_bytes,
            join_partitions=join_partitions,
            path_index_bytes=path_index_bytes,
            cache_admission=cache_admission,
            cache_sketch_bytes=cache_sketch_bytes,
            region_cache_plan_share=region_cache_plan_share,
        )


class TurboHomPPEngine(TurboEngine):
    """TurboHOM++: type-aware transformation with all optimizations."""

    name = "TurboHOM++"

    def __init__(
        self,
        config: Optional[MatchConfig] = None,
        workers: int = 1,
        execution_mode: Optional[str] = None,
        result_pipeline: Optional[str] = None,
        plan_cache_size: int = 128,
        region_cache_bytes: Optional[int] = None,
        join_memory_bytes: Optional[int] = None,
        join_partitions: Optional[int] = None,
        path_index_bytes: Optional[int] = None,
        cache_admission: Optional[str] = None,
        cache_sketch_bytes: Optional[int] = None,
        region_cache_plan_share: Optional[float] = None,
    ):
        super().__init__(
            type_aware=True,
            config=config if config is not None else MatchConfig.turbo_hom_pp(),
            workers=workers,
            execution_mode=execution_mode,
            result_pipeline=result_pipeline,
            plan_cache_size=plan_cache_size,
            region_cache_bytes=region_cache_bytes,
            join_memory_bytes=join_memory_bytes,
            join_partitions=join_partitions,
            path_index_bytes=path_index_bytes,
            cache_admission=cache_admission,
            cache_sketch_bytes=cache_sketch_bytes,
            region_cache_plan_share=region_cache_plan_share,
        )
