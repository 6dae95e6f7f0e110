"""Engine and BGP-solver interfaces shared by TurboHOM++ and the baselines.

An :class:`Engine` owns a loaded dataset and answers SPARQL queries; the
query-shape handling (FILTER / OPTIONAL / UNION / solution modifiers) lives
in :mod:`repro.engine.evaluator` and is shared, so a concrete engine only
has to provide

* :meth:`Engine.load` — build its index structures from a
  :class:`~repro.rdf.store.TripleStore`, and
* a :class:`BGPSolver` — enumerate the solutions of a basic graph pattern.

This mirrors the paper's experimental setup: all systems answer the same
SPARQL text, but each has its own storage and BGP evaluation strategy.
"""

from __future__ import annotations

import abc
import os
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.exceptions import EngineError
from repro.rdf.store import TripleStore
from repro.sparql import expressions as expr
from repro.sparql.ast import GraphPattern, SelectQuery, TriplePattern
from repro.sparql.parser import parse_sparql
from repro.sparql.results import Binding, ResultSet


#: Supported execution modes: match in the calling thread vs on shard worker
#: processes attached to a shared-memory graph export.
EXECUTION_MODES = ("threads", "processes")

#: Environment override for engines constructed without an explicit mode —
#: lets a CI job (or an operator) re-run an unmodified workload under
#: process sharding: ``REPRO_EXECUTION_MODE=processes``.
EXECUTION_MODE_ENV = "REPRO_EXECUTION_MODE"

#: Supported result pipelines: ``"batch"`` moves columnar
#: :class:`~repro.sparql.binding_batch.BindingBatch` objects end-to-end
#: (late materialization, vectorized operators); ``"scalar"`` is the
#: per-``Binding`` compatibility path every engine shares.
RESULT_PIPELINES = ("batch", "scalar")

#: Environment override for engines constructed without an explicit result
#: pipeline — lets CI re-run an unmodified workload on the scalar
#: compatibility path: ``REPRO_RESULT_PIPELINE=scalar``.
RESULT_PIPELINE_ENV = "REPRO_RESULT_PIPELINE"

#: Environment override for the cross-query candidate-region cache budget
#: (bytes) of engines constructed without an explicit ``region_cache_bytes``.
#: ``0`` disables region caching entirely; unset keeps the default budget
#: (see :data:`repro.engine.region_cache.DEFAULT_REGION_CACHE_BYTES`).
REGION_CACHE_BYTES_ENV = "REPRO_REGION_CACHE_BYTES"

#: Environment override for the hybrid hash join's build-side byte budget
#: of engines constructed without an explicit ``join_memory_bytes``.  ``0``
#: disables spilling (unbounded in-memory build sides); unset keeps the
#: default (see
#: :data:`repro.engine.operators.context.DEFAULT_JOIN_MEMORY_BYTES`).
JOIN_MEMORY_BYTES_ENV = "REPRO_JOIN_MEMORY_BYTES"

#: Environment override for the hybrid hash join's partition fan-out of
#: engines constructed without an explicit ``join_partitions``.
JOIN_PARTITIONS_ENV = "REPRO_JOIN_PARTITIONS"

#: Environment override for the per-predicate reachability-index byte budget
#: of engines constructed without an explicit ``path_index_bytes``.  ``0``
#: disables path indexing entirely (every transitive probe takes the BFS
#: fallback kernels); unset keeps the default budget (see
#: :data:`repro.graph.reachability.DEFAULT_PATH_INDEX_BYTES`).
PATH_INDEX_BYTES_ENV = "REPRO_PATH_INDEX_BYTES"


def resolve_execution_mode(mode: Optional[str] = None) -> str:
    """Validate an execution mode, falling back to the environment override.

    An explicit ``mode`` argument always wins; ``None`` consults
    ``REPRO_EXECUTION_MODE`` and finally defaults to ``"threads"``.
    A typo raises :class:`~repro.exceptions.EngineError` (a ``ValueError``)
    at engine construction, never deep inside a pool.
    """
    if mode is None:
        mode = os.environ.get(EXECUTION_MODE_ENV, "").strip().lower() or "threads"
    if mode not in EXECUTION_MODES:
        raise EngineError(
            f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
        )
    return mode


def resolve_result_pipeline(pipeline: Optional[str] = None) -> str:
    """Validate a result pipeline, falling back to the environment override.

    An explicit ``pipeline`` argument always wins; ``None`` consults
    ``REPRO_RESULT_PIPELINE`` and finally defaults to ``"batch"``.
    """
    if pipeline is None:
        pipeline = os.environ.get(RESULT_PIPELINE_ENV, "").strip().lower() or "batch"
    if pipeline not in RESULT_PIPELINES:
        raise EngineError(
            f"unknown result pipeline {pipeline!r}; expected one of {RESULT_PIPELINES}"
        )
    return pipeline


def resolve_region_cache_bytes(capacity: Optional[int], default: int) -> int:
    """Validate a region-cache byte budget, falling back to the environment.

    An explicit non-None ``capacity`` always wins; ``None`` consults
    ``REPRO_REGION_CACHE_BYTES`` and finally ``default``.  ``0`` disables
    region caching; negative or malformed values raise at construction.
    """
    if capacity is None:
        env = os.environ.get(REGION_CACHE_BYTES_ENV, "").strip()
        if not env:
            return default
        try:
            capacity = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {REGION_CACHE_BYTES_ENV}={env!r}") from error
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 0:
        raise EngineError(
            f"region_cache_bytes must be a non-negative integer, got {capacity!r}"
        )
    return capacity


def resolve_join_memory_bytes(budget: Optional[int] = None) -> int:
    """Validate a join-memory byte budget, falling back to the environment.

    An explicit non-None ``budget`` always wins; ``None`` consults
    ``REPRO_JOIN_MEMORY_BYTES`` and finally the package default.  ``0``
    disables spilling (unbounded in-memory build sides); negative or
    malformed values raise at construction, never inside a join.
    """
    from repro.engine.operators.context import DEFAULT_JOIN_MEMORY_BYTES

    if budget is None:
        env = os.environ.get(JOIN_MEMORY_BYTES_ENV, "").strip()
        if not env:
            return DEFAULT_JOIN_MEMORY_BYTES
        try:
            budget = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {JOIN_MEMORY_BYTES_ENV}={env!r}") from error
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
        raise EngineError(
            f"join_memory_bytes must be a non-negative integer, got {budget!r}"
        )
    return budget


def resolve_join_partitions(partitions: Optional[int] = None) -> int:
    """Validate the hybrid hash join's partition fan-out (at least 2)."""
    from repro.engine.operators.context import DEFAULT_JOIN_PARTITIONS

    if partitions is None:
        env = os.environ.get(JOIN_PARTITIONS_ENV, "").strip()
        if not env:
            return DEFAULT_JOIN_PARTITIONS
        try:
            partitions = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {JOIN_PARTITIONS_ENV}={env!r}") from error
    if not isinstance(partitions, int) or isinstance(partitions, bool) or partitions < 2:
        raise EngineError(
            f"join_partitions must be an integer >= 2, got {partitions!r}"
        )
    return partitions


def resolve_path_index_bytes(budget: Optional[int] = None) -> int:
    """Validate a path-index byte budget, falling back to the environment.

    An explicit non-None ``budget`` always wins; ``None`` consults
    ``REPRO_PATH_INDEX_BYTES`` and finally the package default.  ``0``
    disables path indexing (transitive steps fall back to the BFS
    kernels); negative or malformed values raise at construction, never
    inside a query.
    """
    from repro.graph.reachability import DEFAULT_PATH_INDEX_BYTES

    if budget is None:
        env = os.environ.get(PATH_INDEX_BYTES_ENV, "").strip()
        if not env:
            return DEFAULT_PATH_INDEX_BYTES
        try:
            budget = int(env)
        except ValueError as error:
            raise EngineError(f"invalid {PATH_INDEX_BYTES_ENV}={env!r}") from error
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 0:
        raise EngineError(
            f"path_index_bytes must be a non-negative integer, got {budget!r}"
        )
    return budget


def validate_worker_count(workers: int) -> int:
    """Reject non-positive / non-integral worker counts with a clear error."""
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise EngineError(
            f"workers must be a positive integer, got {workers!r}"
        )
    return workers


class BGPSolver(abc.ABC):
    """Evaluates one basic graph pattern (a list of triple patterns)."""

    @abc.abstractmethod
    def solve(
        self,
        patterns: Sequence[TriplePattern],
        cheap_filters: Sequence[expr.Expression] = (),
        limit_hint: Optional[int] = None,
    ) -> Iterable[Binding]:
        """Yield bindings (variable name → decoded RDF term) for the BGP.

        ``cheap_filters`` are single-variable filters the solver *may* push
        into its evaluation; the caller re-applies every filter afterwards,
        so pushing is purely an optimization.

        ``limit_hint`` is the evaluator's promise that it will consume at
        most that many bindings (it only passes one when no downstream
        operator can drop rows): solvers may stop evaluation after that many
        solutions instead of enumerating the full result.
        """

    def supports_filter_pushdown(self) -> bool:
        """True when the solver makes use of ``cheap_filters``."""
        return False

    def supports_plan_shapes(self) -> bool:
        """True when ``solve``/``solve_batches`` accept a ``plan_shape``.

        A plan shape is an opaque string folded into the solver's plan-cache
        key (see :func:`repro.engine.plan_cache.bgp_fingerprint`); the
        evaluator passes the query's aggregate shape so cached plans are
        only reused by queries with an identical aggregation structure.
        """
        return False

    def path_resolver(self):
        """The solver's :class:`~repro.engine.operators.path.PathResolver`.

        ``None`` (the default) means the solver cannot evaluate
        :class:`~repro.sparql.ast.PathPattern` leaves; the evaluator raises
        a clear :class:`~repro.exceptions.EngineError` when a query's paths
        reach such a solver (engine front-ends gate earlier via
        :attr:`Engine.supports_paths`).
        """
        return None

    def operator_context(self):
        """The :class:`~repro.engine.operators.context.OperatorContext`
        shared by this solver's batch operator kernels.

        The default lazily builds one from the environment knobs; engines
        that own configuration (``TurboEngine``) override this to return
        the engine-held context so ``stats()`` and ``close()`` see it.
        """
        context = getattr(self, "_operator_context", None)
        if context is None:
            from repro.engine.operators.context import OperatorContext

            context = OperatorContext(
                join_memory_bytes=resolve_join_memory_bytes(None),
                join_partitions=resolve_join_partitions(None),
            )
            self._operator_context = context
        return context

    # ----------------------------------------------------------- batch surface
    def supports_batches(self) -> bool:
        """True when :meth:`solve_batches` streams columnar batches.

        Solvers that return True must implement ``solve_batches(patterns,
        cheap_filters, limit_hint)`` yielding
        :class:`~repro.sparql.binding_batch.BindingBatch` objects with the
        exact multiset semantics of :meth:`solve`; the evaluator then runs
        its batch-aware operators and materializes terms only at the
        :class:`~repro.sparql.results.ResultSet` boundary.  The default is
        the scalar path, which keeps every baseline engine (and the
        ``REPRO_RESULT_PIPELINE=scalar`` escape hatch) oracle-comparable.
        """
        return False


class Engine(abc.ABC):
    """A loaded RDF query engine."""

    #: Human-readable engine name used in benchmark tables.
    name: str = "engine"
    #: Whether the engine supports OPTIONAL (the open-source baselines do not,
    #: mirroring the paper's Table 6 footnote).
    supports_optional: bool = True
    #: Whether the engine supports SPARQL 1.1 property paths whose
    #: transitive steps need a reachability index (``p+`` / ``p*`` / ``p?``).
    #: Non-transitive path shapes rewrite into plain BGP/UNION algebra at
    #: parse time and work everywhere.
    supports_paths: bool = False

    def __init__(self) -> None:
        self._store: Optional[TripleStore] = None

    # ---------------------------------------------------------------- loading
    @abc.abstractmethod
    def load(self, store: TripleStore) -> None:
        """Build the engine's internal structures from a triple store."""

    @property
    def store(self) -> TripleStore:
        """The loaded triple store."""
        if self._store is None:
            raise EngineError(f"{self.name}: no dataset loaded")
        return self._store

    @abc.abstractmethod
    def bgp_solver(self) -> BGPSolver:
        """The engine's basic-graph-pattern solver."""

    # ---------------------------------------------------------------- queries
    def _parse_checked(self, query: Union[str, SelectQuery]) -> SelectQuery:
        """Parse a query and reject feature surface this engine lacks."""
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if not self.supports_optional and _any_group(
            parsed, lambda group: bool(group.optionals)
        ):
            raise EngineError(f"{self.name} does not support OPTIONAL")
        if not self.supports_paths and _any_group(
            parsed, lambda group: bool(group.paths)
        ):
            raise EngineError(
                f"{self.name} does not support transitive property paths"
            )
        return parsed

    def query(self, query: Union[str, SelectQuery]) -> ResultSet:
        """Answer a SPARQL SELECT query."""
        from repro.engine.evaluator import evaluate_query

        return evaluate_query(self._parse_checked(query), self.bgp_solver())

    def query_batches(self, query: Union[str, SelectQuery]):
        """Answer a SELECT query as a stream of columnar batches.

        The streaming twin of :meth:`query`: returns a
        :class:`~repro.sparql.binding_batch.BatchResult` whose batches are
        final (joined, deduplicated, sorted, sliced) and decode
        incrementally — the entry point the wire serializers and the
        serving front-end consume, never materializing a row-dict
        :class:`~repro.sparql.results.ResultSet`.  Solvers without a batch
        surface stream scalar rows through a term-column adapter with
        identical semantics.  Closing the result (or abandoning it
        mid-iteration) cancels the evaluation.
        """
        from repro.engine.evaluator import stream_query_rows
        from repro.engine.operators.pipeline import stream_query_batches
        from repro.sparql.binding_batch import BatchResult, batches_from_bindings

        parsed = self._parse_checked(query)
        solver = self.bgp_solver()
        if solver.supports_batches():
            projection, batches = stream_query_batches(parsed, solver)
        else:
            projection, rows = stream_query_rows(parsed, solver)
            batches = batches_from_bindings(projection, rows)
        return BatchResult(projection, batches)

    def count(self, query: Union[str, SelectQuery]) -> int:
        """Number of solutions of a query."""
        return len(self.query(query))

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<{type(self).__name__} name={self.name!r}>"


def _any_group(query: SelectQuery, test: Callable[[GraphPattern], bool]) -> bool:
    """True when ``test`` holds for some group anywhere in the query.

    Walks the WHERE group and every group nested in it through UNION
    alternatives and OPTIONAL clauses.
    """

    def walk(group: GraphPattern) -> bool:
        if test(group):
            return True
        for union in group.unions:
            if any(walk(alt) for alt in union.alternatives):
                return True
        return any(walk(opt) for opt in group.optionals)

    return walk(query.where)

