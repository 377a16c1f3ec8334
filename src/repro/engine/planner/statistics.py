"""The planner's statistics collector.

Every query execution the engine carries out yields observations — how many
mappings survived the filter step, how many distinct rewrites the compiled
core grouped them into, how the result cache participated, and above all how
long each plan actually took.  :class:`StatisticsCollector` accumulates those
observations per prepared-query cache key (the *canonical* query text, so
equivalent query spellings feed one statistics record), and the cost model
(:mod:`repro.engine.planner.cost`) turns them into plan decisions.

Latencies are tracked per plan name (``"basic"``/``"blocktree"``/
``"compiled"``).  Each record keeps a count, best,
last and an exponentially weighted moving average — the EWMA is what the cost
model compares, so one outlier measurement cannot flip a plan choice.

The collector serializes to a canonical JSON payload
(:meth:`StatisticsCollector.to_payload`) that the artifact store persists
alongside the session manifest, keyed by the session's
``(generation, delta_epoch, document_version)`` signature; a reopened session
adopts the payload and starts serving with its learned plan choices intact.

Everything is thread-safe under one collector lock; observations are a few
dict operations, negligible next to any evaluation they describe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import count
from typing import Optional

from repro.engine.plans import available_plans

__all__ = ["PlanLatency", "QueryStatistics", "StatisticsCollector"]

#: Payload format version (bumped on incompatible layout changes).
STATS_FORMAT = 1

#: Bound on per-query statistics records kept by one collector — mirrors the
#: engine's bounded prepared-query cache, and for the same reason: a serving
#: session fed arbitrary ad-hoc queries must not grow without limit.
_MAX_QUERY_RECORDS = 512

#: Bound on remembered exact top-k thresholds per query (see
#: :meth:`QueryStatistics.record_topk_threshold`).
_MAX_TOPK_THRESHOLDS = 32

#: EWMA smoothing weight of the newest latency sample.
_EWMA_ALPHA = 0.3

#: Relative EWMA change that counts as a *structural* update (restamps the
#: query's statistics version, retiring its cached plan decision).
_STRUCTURAL_DELTA = 0.25


@dataclass
class PlanLatency:
    """Measured latencies of one (query, execution strategy) pair."""

    count: int = 0
    total_ms: float = 0.0
    best_ms: float = 0.0
    last_ms: float = 0.0
    ewma_ms: float = 0.0

    def observe(self, latency_ms: float) -> bool:
        """Fold one measurement in; ``True`` when the EWMA moved structurally."""
        latency_ms = float(latency_ms)
        self.count += 1
        self.total_ms += latency_ms
        self.last_ms = latency_ms
        if self.count == 1:
            self.best_ms = latency_ms
            self.ewma_ms = latency_ms
            return True
        self.best_ms = min(self.best_ms, latency_ms)
        previous = self.ewma_ms
        self.ewma_ms = _EWMA_ALPHA * latency_ms + (1.0 - _EWMA_ALPHA) * self.ewma_ms
        reference = max(previous, 1e-9)
        return abs(self.ewma_ms - previous) / reference >= _STRUCTURAL_DELTA

    def to_payload(self) -> dict:
        """JSON-serialisable view (floats round-trip exactly through the store)."""
        return {
            "count": self.count,
            "total_ms": self.total_ms,
            "best_ms": self.best_ms,
            "last_ms": self.last_ms,
            "ewma_ms": self.ewma_ms,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PlanLatency":
        """Rebuild a record from :meth:`to_payload` output."""
        return cls(
            count=int(payload.get("count", 0)),
            total_ms=float(payload.get("total_ms", 0.0)),
            best_ms=float(payload.get("best_ms", 0.0)),
            last_ms=float(payload.get("last_ms", 0.0)),
            ewma_ms=float(payload.get("ewma_ms", 0.0)),
        )


@dataclass
class QueryStatistics:
    """Accumulated observations of one prepared query (by canonical key).

    ``plans`` maps execution-strategy keys to :class:`PlanLatency` records;
    ``num_relevant`` / ``num_embeddings`` / ``distinct_rewrites`` hold the
    latest observed cardinalities together with the ``state``
    (generation, delta epoch) they were observed at — a delta can change
    which mappings are relevant, so estimates are state-tagged.
    ``topk_thresholds`` remembers
    the *exact* k-th best probability of finished top-k selections per
    session state (see :meth:`record_topk_threshold`).
    ``version`` is the stamp of the record's last structural update, drawn
    by the collector; it is not persisted.
    """

    key: str
    executions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    num_relevant: Optional[int] = None
    num_embeddings: Optional[int] = None
    distinct_rewrites: Optional[int] = None
    state: Optional[tuple[int, int]] = None
    plans: dict[str, PlanLatency] = field(default_factory=dict)
    topk_thresholds: "OrderedDict[str, float]" = field(default_factory=OrderedDict)
    version: int = 0

    def cache_hit_rate(self) -> Optional[float]:
        """Result-cache hit ratio over every observed lookup, or ``None``."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return None
        return self.cache_hits / lookups

    def to_payload(self) -> dict:
        """Canonical JSON-serialisable view of this record."""
        return {
            "key": self.key,
            "executions": self.executions,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "num_relevant": self.num_relevant,
            "num_embeddings": self.num_embeddings,
            "distinct_rewrites": self.distinct_rewrites,
            "state": list(self.state) if self.state is not None else None,
            "plans": {
                name: record.to_payload() for name, record in sorted(self.plans.items())
            },
            "topk_thresholds": dict(self.topk_thresholds),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryStatistics":
        """Rebuild a record from :meth:`to_payload` output."""
        state = payload.get("state")
        record = cls(
            key=str(payload["key"]),
            executions=int(payload.get("executions", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            num_relevant=payload.get("num_relevant"),
            num_embeddings=payload.get("num_embeddings"),
            distinct_rewrites=payload.get("distinct_rewrites"),
            state=(int(state[0]), int(state[1])) if state else None,
        )
        # Records of plans not registered at adoption (e.g. ``scatter:<n>``
        # from before the scatter route was deleted) are dropped: the cost
        # model never reads them, and keeping them would re-persist them
        # forever.  A plugin plan must therefore be registered before a
        # session adopts persisted statistics, or its latencies re-learn.
        registered = available_plans()
        for name, latency in payload.get("plans", {}).items():
            if name in registered:
                record.plans[name] = PlanLatency.from_payload(latency)
        for token, probability in payload.get("topk_thresholds", {}).items():
            record.topk_thresholds[str(token)] = float(probability)
        return record


class StatisticsCollector:
    """Thread-safe accumulation of per-query observations (see module docs)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stats: "OrderedDict[str, QueryStatistics]" = OrderedDict()
        # One sequence for every record's version, so a record created anew
        # (after eviction or adoption) never repeats a retired stamp.
        self._stamps = count(1)

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)

    def version_of(self, key: str) -> Optional[int]:
        """The statistics version of ``key``, or ``None`` without a record.

        It changes on every structural update of that query alone: its
        record's creation, a first measurement of a strategy or a large EWMA
        move, and adoption of a persisted record.  Cached plan decisions are
        keyed by it.  Read without the lock: a dict read is atomic, and a
        momentarily stale version only replays a decision the racing update
        is about to retire anyway — the execute hot path reads this once
        per query.
        """
        record = self._stats.get(key)
        return None if record is None else record.version

    def _insert(self, record: QueryStatistics) -> None:
        """Store ``record`` with a fresh version, LRU-last and bounded (lock held)."""
        record.version = next(self._stamps)
        self._stats[record.key] = record
        self._stats.move_to_end(record.key)
        while len(self._stats) > _MAX_QUERY_RECORDS:
            self._stats.popitem(last=False)

    def _record(self, key: str) -> QueryStatistics:
        """The stats record for ``key``, LRU-bumped and bounded (lock held)."""
        record = self._stats.get(key)
        if record is None:
            record = QueryStatistics(key=key)
            self._insert(record)
        else:
            self._stats.move_to_end(key)
        return record

    # ------------------------------------------------------------------ #
    # Observation entry points
    # ------------------------------------------------------------------ #
    def observe_execution(
        self,
        key: str,
        plan: str,
        latency_ms: float,
        *,
        state: Optional[tuple[int, int]] = None,
        num_relevant: Optional[int] = None,
        num_embeddings: Optional[int] = None,
        distinct_rewrites: Optional[int] = None,
    ) -> None:
        """Record one evaluated (cache-missing) execution of ``key``."""
        with self._lock:
            record = self._record(key)
            record.executions += 1
            record.cache_misses += 1
            if state is not None:
                record.state = state
            if num_relevant is not None:
                record.num_relevant = num_relevant
            if num_embeddings is not None:
                record.num_embeddings = num_embeddings
            if distinct_rewrites is not None:
                record.distinct_rewrites = distinct_rewrites
            latency = record.plans.get(plan)
            if latency is None:
                latency = record.plans.setdefault(plan, PlanLatency())
            if latency.observe(latency_ms):
                record.version = next(self._stamps)

    def observe_cache_hit(self, key: str) -> None:
        """Record a result-cache hit (or a retained pre-delta entry) for ``key``."""
        with self._lock:
            record = self._record(key)
            record.cache_hits += 1

    def observe_rewrites(self, key: str, distinct_rewrites: int) -> None:
        """Record the distinct-rewrite count the compiled core measured."""
        with self._lock:
            record = self._record(key)
            record.distinct_rewrites = distinct_rewrites

    def record_topk_threshold(
        self, key: str, k: int, state_token: str, probability: float
    ) -> None:
        """Remember the exact k-th best probability of a finished selection.

        The token encodes ``k`` and the full session state the selection ran
        against, so a remembered threshold is only ever replayed against
        byte-identical probabilities — seeding with it skips exactly the
        sessions the unseeded selection would have contributed nothing from.
        """
        token = f"k={k}@{state_token}"
        with self._lock:
            record = self._record(key)
            record.topk_thresholds[token] = probability
            record.topk_thresholds.move_to_end(token)
            while len(record.topk_thresholds) > _MAX_TOPK_THRESHOLDS:
                record.topk_thresholds.popitem(last=False)

    def topk_seed(self, key: str, k: int, state_token: str) -> Optional[float]:
        """The remembered exact threshold for ``(key, k, state)``, or ``None``."""
        token = f"k={k}@{state_token}"
        with self._lock:
            record = self._stats.get(key)
            if record is None:
                return None
            return record.topk_thresholds.get(token)

    # ------------------------------------------------------------------ #
    # Introspection and serialization
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[QueryStatistics]:
        """The live statistics record for ``key``, or ``None``."""
        with self._lock:
            return self._stats.get(key)

    def snapshot(self, key: str) -> Optional[dict]:
        """A JSON-ready copy of ``key``'s record (for ``explain()``), or ``None``."""
        with self._lock:
            record = self._stats.get(key)
            return record.to_payload() if record is not None else None

    def to_payload(self, signature: Optional[dict] = None) -> Optional[dict]:
        """The canonical persistence payload, or ``None`` when empty."""
        with self._lock:
            if not self._stats:
                return None
            return {
                "kind": "planner_stats",
                "format": STATS_FORMAT,
                "signature": dict(signature or {}),
                "queries": [
                    record.to_payload()
                    for _, record in sorted(self._stats.items())
                ],
            }

    def adopt_payload(self, payload: Optional[dict]) -> int:
        """Merge a persisted payload back in; returns the records adopted.

        Unknown formats are ignored (a session reopened by older code keeps
        working, it just re-learns).  Adopted records *replace* same-key
        records — the persisted state is the most recent complete view.
        Latencies of plans that are not registered at this point are
        dropped (see :func:`~repro.engine.plans.register_plan`).
        """
        if not payload or payload.get("format") != STATS_FORMAT:
            return 0
        adopted = 0
        for row in payload.get("queries", []):
            try:
                record = QueryStatistics.from_payload(row)
            except (KeyError, TypeError, ValueError):
                continue
            with self._lock:
                self._insert(record)
            adopted += 1
        return adopted
