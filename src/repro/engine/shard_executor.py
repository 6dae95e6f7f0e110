"""Engine-side adapter running compiled plan components on process shards.

:class:`ShardExecutor` is what ``execution_mode="processes"`` plugs into the
:class:`~repro.engine.turbo_engine.TurboBGPSolver`: it owns one persistent
:class:`~repro.matching.process_shard.ProcessShardPool` (workers attached to
the engine graph's shared-memory CSR export, holding the engine's
:class:`~repro.graph.transform.GraphMapping` as their predicate-binding
context) and streams one :class:`~repro.engine.plan.ComponentPlan` at a
time through it.

Plan addressing: each component job is keyed by the plan's canonical
fingerprint plus its ``(alternative, component)`` coordinates, so workers
rehydrate a given compiled component exactly once and serve every repeated
execution from their per-worker plan caches — the process analogue of the
engine's :class:`~repro.engine.plan_cache.PlanCache`.  Plans compiled while
the cache is disabled carry no fingerprint and fall back to a per-executor
serial (shipped every time, never cached worker-side).  The same plan keys
address each worker's private cross-query **region cache**
(``region_cache_bytes`` > 0): explored candidate regions are snapshotted
per start vertex and repeated executions of a fingerprinted component skip
exploration entirely (see :mod:`repro.engine.region_cache`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.engine.plan import QueryPlan
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.transform import GraphMapping
from repro.matching.config import MatchConfig
from repro.matching.process_shard import ProcessShardPool
from repro.matching.shard_protocol import ParallelStats
from repro.matching.solution_batch import SolutionBatch
from repro.matching.turbo import Solution


class ShardExecutor:
    """Streams compiled plan components through a process shard pool."""

    def __init__(
        self,
        graph: LabeledGraph,
        mapping: GraphMapping,
        config: MatchConfig,
        workers: int,
        chunk_size: int = 8,
        start_method: Optional[str] = None,
        region_cache_bytes: int = 0,
        cache_admission: str = "lru",
        cache_sketch_bytes: int = 0,
        region_plan_share: float = 1.0,
    ):
        self.pool = ProcessShardPool(
            graph,
            config,
            workers=workers,
            chunk_size=chunk_size,
            start_method=start_method,
            worker_context=mapping,
            # Each worker holds its own region cache of this budget, keyed
            # by the same (fingerprint, alternative, component) plan keys
            # the per-worker plan caches use (0 disables); the admission
            # knobs configure each worker's private TinyLFU filter and
            # per-plan share (see repro.engine.cache_admission).
            region_cache_bytes=region_cache_bytes,
            cache_admission=cache_admission,
            cache_sketch_bytes=cache_sketch_bytes,
            region_plan_share=region_plan_share,
        )

    @property
    def last_stats(self) -> Optional[ParallelStats]:
        """Statistics of the most recently completed component stream."""
        return self.pool.last_stats

    def _plan_key(self, plan: QueryPlan, alternative_index: int, component_index: int):
        if plan.fingerprint is None:
            # Uncacheable plan: a fresh serial keeps worker caches untouched.
            return None
        return (plan.fingerprint, alternative_index, component_index)

    def iter_component(
        self,
        plan: QueryPlan,
        alternative_index: int,
        component_index: int,
        deep_limit: Optional[int] = None,
    ) -> Iterator[Solution]:
        """Stream one component's raw solutions from the shard workers.

        ``deep_limit`` is the solver's pushed-down result limit; reaching it
        fans a cancel out to every shard.
        """
        component = plan.alternatives[alternative_index].components[component_index]
        return self.pool.iter_match(
            component.query,
            vertex_predicates=component.pushdown,
            max_results=deep_limit,
            prepared=component.prepared,
            plan_key=self._plan_key(plan, alternative_index, component_index),
        )

    def iter_component_batches(
        self,
        plan: QueryPlan,
        alternative_index: int,
        component_index: int,
        deep_limit: Optional[int] = None,
    ) -> Iterator[SolutionBatch]:
        """Stream one component's columnar batches from the shard workers.

        The batch-pipeline twin of :meth:`iter_component`: batches arrive
        through the per-worker shared-memory rings exactly as the workers
        packed them, so the solver adopts whole columns without re-batching.
        """
        component = plan.alternatives[alternative_index].components[component_index]
        return self.pool.iter_match_batches(
            component.query,
            vertex_predicates=component.pushdown,
            max_results=deep_limit,
            prepared=component.prepared,
            plan_key=self._plan_key(plan, alternative_index, component_index),
        )

    def warm_component(
        self,
        plan: QueryPlan,
        alternative_index: int,
        component_index: int,
    ) -> bool:
        """Warm every worker's region cache for one plan component.

        Dispatches a warming job (see :meth:`ProcessShardPool.warm_plan`)
        under the component's usual plan key, so the very next real
        execution of the plan hits the freshly cached regions.
        """
        component = plan.alternatives[alternative_index].components[component_index]
        return self.pool.warm_plan(
            component.query,
            prepared=component.prepared,
            vertex_predicates=component.pushdown,
            plan_key=self._plan_key(plan, alternative_index, component_index),
        )

    def close(self) -> None:
        """Shut the worker processes down and unlink the graph segment."""
        self.pool.close()
