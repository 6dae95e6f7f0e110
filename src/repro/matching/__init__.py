"""Subgraph isomorphism / e-graph homomorphism matching engines.

The package implements the paper's algorithm family:

* :class:`~repro.matching.turbo.TurboMatcher` — the TurboISO-style candidate
  region matcher, parameterized by :class:`~repro.matching.config.MatchConfig`
  (isomorphism vs homomorphism, and the four TurboHOM++ optimizations).
* :func:`~repro.matching.turbo.turbo_iso` / :func:`turbo_hom` /
  :func:`turbo_hom_pp` — convenience constructors with the paper's settings.
* :mod:`~repro.matching.generic` — a simple backtracking matcher used as a
  correctness oracle and as the "generic framework" baseline of Section 2.2.
* :mod:`~repro.matching.process_shard` — work partitioning of starting
  vertices over worker processes attached to a shared-memory CSR export
  (multi-core matching).
* :mod:`~repro.matching.shard_protocol` — the pool's job/merge protocol and
  its :class:`~repro.matching.shard_protocol.ParallelStats`.
* :mod:`~repro.matching.solution_batch` — the columnar batch the whole
  result pipeline moves, and :mod:`~repro.matching.result_ring` — the
  shared-memory ring transporting it across process shards without
  pickling.
* :mod:`~repro.matching.region_arena` — the flat, pooled candidate-region
  storage the exploration pass writes and the explicit-stack
  :class:`~repro.matching.subgraph_search.SubgraphSearcher` enumerates
  (see ``docs/matching_core.md``).
"""

from repro.matching.config import MatchConfig
from repro.matching.region_arena import RegionArena
from repro.matching.solution_batch import SOLUTION_BATCH_SIZE, SolutionBatch
from repro.matching.turbo import (
    PreparedQuery,
    TurboMatcher,
    prepare_query,
    turbo_hom,
    turbo_hom_pp,
    turbo_iso,
)
from repro.matching.generic import GenericMatcher
from repro.matching.process_shard import (
    ProcessShardPool,
    ShardTransportStats,
    ShardWorkerError,
)
from repro.matching.shard_protocol import ParallelStats

__all__ = [
    "MatchConfig",
    "RegionArena",
    "SolutionBatch",
    "SOLUTION_BATCH_SIZE",
    "ShardTransportStats",
    "PreparedQuery",
    "TurboMatcher",
    "prepare_query",
    "turbo_iso",
    "turbo_hom",
    "turbo_hom_pp",
    "GenericMatcher",
    "ParallelStats",
    "ProcessShardPool",
    "ShardWorkerError",
]
