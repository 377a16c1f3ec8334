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
keyed by ``(query, collector version, session state, k)`` —
steady-state decisions are dictionary lookups, and any structural statistics
change retires them wholesale by bumping the collector version.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
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
        self._decisions: "OrderedDict[tuple, tuple[PlanDecision, PlanDecision]]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def decide(
        self,
        key: str,
        *,
        state: Optional[tuple[int, int]] = None,
        k: Optional[int] = None,
        collect_statistics: bool = False,
    ) -> PlanDecision:
        """The cost model's strategy for ``key`` at ``state`` (cached).

        The cache key embeds the collector version: any structural
        statistics update (first measurement of a strategy, large EWMA move,
        adopted persisted payload) bumps it and every stale decision misses
        naturally — no invalidation walk.

        By default decisions carry no serialized statistics snapshot (the
        hot execute path never reads it); ``collect_statistics=True`` —
        the ``explain()`` path — upgrades the cached entry in place.
        """
        version = self.collector.version
        cache_key = (key, version, state, k)
        with self._lock:
            entry = self._decisions.get(cache_key)
            if entry is not None and not (
                collect_statistics and entry[0].statistics is None
            ):
                self._decisions.move_to_end(cache_key)
                # The pre-built cached variant keeps steady-state decisions
                # allocation-free — this path runs on every executed query.
                return entry[1]
        decision = self.model.decide(
            self.collector.get(key),
            k=k,
            collect_statistics=collect_statistics,
        )
        with self._lock:
            self._decisions[cache_key] = (decision, decision.as_cached())
            self._decisions.move_to_end(cache_key)
            while len(self._decisions) > _MAX_DECISIONS:
                self._decisions.popitem(last=False)
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
        adopted = self.collector.adopt_payload(payload)
        if adopted:
            with self._lock:
                self._decisions.clear()
        return adopted

    def report(self) -> dict:
        """Summary for ``Dataspace.describe()``."""
        with self._lock:
            cached_decisions = len(self._decisions)
        return {
            "tracked_queries": len(self.collector),
            "cached_decisions": cached_decisions,
            "version": self.collector.version,
            "margin": self.model.margin,
        }
