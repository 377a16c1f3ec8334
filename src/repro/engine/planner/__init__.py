"""Cost-based adaptive query planning.

The planner package closes the loop the engine's ``explain()`` output left
open: the session already *measured* selectivities, rewrite-group sizes and
per-plan latencies — this package accumulates them
(:mod:`~repro.engine.planner.statistics`), prices execution strategies with
them (:mod:`~repro.engine.planner.cost`) and keys everything by a canonical
query rendering (:mod:`~repro.engine.planner.normalize`) so equivalent query
spellings share one prepared plan and one statistics record.

:class:`QueryPlanner` is the facade a :class:`~repro.engine.dataspace.Dataspace`
owns: one statistics collector, one cost model, and a bounded decision cache
keyed by ``(query, that query's statistics version)`` — steady-state
decisions are dictionary lookups, and a structural change of one query's
statistics retires that query's decision alone.  The cost model reads
nothing but the query's latency records, so neither the session state nor
``k`` is part of the key: a delta batch keeps every decision.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Optional

from repro.engine.planner.cost import (
    COST_MARGIN,
    CostModel,
    PlanDecision,
    PlanEstimate,
)
from repro.engine.planner.normalize import canonical_text, normalize_query_text
from repro.engine.planner.statistics import (
    PlanLatency,
    QueryStatistics,
    StatisticsCollector,
)

__all__ = [
    "COST_MARGIN",
    "CostModel",
    "PlanDecision",
    "PlanEstimate",
    "PlanLatency",
    "QueryPlanner",
    "QueryStatistics",
    "StatisticsCollector",
    "canonical_text",
    "normalize_query_text",
]

#: Bound on cached plan decisions (mirrors the statistics record bound).
_MAX_DECISIONS = 512


class QueryPlanner:
    """Statistics collector + cost model + bounded decision cache."""

    def __init__(self, margin: float = COST_MARGIN) -> None:
        self.collector = StatisticsCollector()
        self.model = CostModel(margin=margin)
        self._lock = threading.Lock()
        self._decisions: "OrderedDict[tuple[str, Optional[int]], PlanDecision]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def decide(self, key: str, *, collect_statistics: bool = False) -> PlanDecision:
        """The cost model's strategy for ``key`` (cached).

        The cache key embeds the query's statistics version
        (:meth:`StatisticsCollector.version_of`): a structural update of the
        query's statistics (first measurement of a strategy, large EWMA
        move, adopted persisted record) changes it and the stale decision
        misses naturally — no invalidation walk.

        Cached decisions carry no serialized statistics snapshot (the hot
        execute path never reads it); ``collect_statistics=True`` — the
        ``explain()`` path — attaches the query's current one.
        """
        cache_key = (key, self.collector.version_of(key))
        with self._lock:
            decision = self._decisions.get(cache_key)
            if decision is not None:
                self._decisions.move_to_end(cache_key)
        if decision is None:
            decision = self.model.decide(
                self.collector.get(key), collect_statistics=collect_statistics
            )
            # The stored variant is pre-built, so steady-state decisions stay
            # allocation-free — this path runs on every executed query.
            with self._lock:
                self._decisions[cache_key] = decision.as_cached()
                self._decisions.move_to_end(cache_key)
                while len(self._decisions) > _MAX_DECISIONS:
                    self._decisions.popitem(last=False)
        elif collect_statistics:
            decision = replace(decision, statistics=self.collector.snapshot(key))
        return decision

    # ------------------------------------------------------------------ #
    # Observation passthroughs
    # ------------------------------------------------------------------ #
    def observe_execution(self, key: str, plan: str, latency_ms: float, **kw) -> None:
        self.collector.observe_execution(key, plan, latency_ms, **kw)

    def observe_cache_hit(self, key: str) -> None:
        self.collector.observe_cache_hit(key)

    def observe_rewrites(self, key: str, distinct_rewrites: int) -> None:
        self.collector.observe_rewrites(key, distinct_rewrites)

    def record_topk_threshold(
        self, key: str, k: int, state_token: str, probability: float
    ) -> None:
        self.collector.record_topk_threshold(key, k, state_token, probability)

    def topk_seed(self, key: str, k: int, state_token: str) -> Optional[float]:
        return self.collector.topk_seed(key, k, state_token)

    # ------------------------------------------------------------------ #
    # Introspection and persistence
    # ------------------------------------------------------------------ #
    def statistics(self, key: str) -> Optional[QueryStatistics]:
        return self.collector.get(key)

    def snapshot(self, key: str) -> Optional[dict]:
        return self.collector.snapshot(key)

    def statistics_payload(self, signature: Optional[dict] = None) -> Optional[dict]:
        return self.collector.to_payload(signature)

    def adopt_payload(self, payload: Optional[dict]) -> int:
        return self.collector.adopt_payload(payload)

    def report(self) -> dict:
        """Summary for ``Dataspace.describe()``."""
        with self._lock:
            cached_decisions = len(self._decisions)
        return {
            "tracked_queries": len(self.collector),
            "cached_decisions": cached_decisions,
            "margin": self.model.margin,
        }
