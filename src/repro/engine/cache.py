"""Bounded, thread-safe LRU result cache with hit/miss statistics.

This module lives in the engine (the service layer re-exports it as
:mod:`repro.service`'s ``ResultCache``) because the session itself owns the
caches, while the service package sits above the engine.

:class:`ResultCache` is deliberately generic — the engine uses one instance
for evaluated :class:`~repro.query.results.PTQResult` objects and a second,
smaller one for shared ``filter_mappings`` prefixes — but the *keying*
discipline is what makes it safe: the engine always includes the session's
mapping-set generation (and document version) in the key, so entries written
against a superseded configuration are simply never looked up again and age
out through normal LRU eviction.  The cache itself never has to be flushed on
reconfiguration, which keeps ``configure()`` cheap under concurrency.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, NamedTuple, Optional

__all__ = ["CacheKey", "CacheStats", "ResultCache"]

#: Bound on remembered delta transitions; retention across more than this
#: many epochs conservatively fails (the entry is simply recomputed).
_MAX_DELTA_LOG = 64
#: Bound on how many epochs one lookup() call walks back.
_MAX_RETAIN_SCAN = 16


class CacheKey(NamedTuple):
    """Explicit, collision-proof result-cache key.

    One evaluated result is identified by the query, the plan, ``k``,
    ``tau`` and the session state it was computed against:

    * ``generation`` and ``document_version`` pin the session
      configuration and source document;
    * ``delta_epoch`` is the fine-grained counter bumped by
      :meth:`Dataspace.apply_delta <repro.engine.dataspace.Dataspace.apply_delta>`
      *within* one generation.  It is what makes delta-aware retention
      possible: on a miss at the current epoch, :meth:`ResultCache.lookup`
      looks for the same key at earlier epochs and promotes the entry when
      the intervening deltas provably cannot have affected it.

    Implemented as a :class:`~typing.NamedTuple` rather than a dataclass:
    a key is built on every cache consultation, and tuple construction and
    hashing are ~2.5x cheaper than a frozen dataclass's — measurable on the
    warm-request path, where the key is most of the remaining work.  The
    field layout is identical for every instance, so tuple equality is
    exactly field-wise equality.
    """

    query: str
    plan: str
    k: Optional[int]
    tau: Optional[float]
    generation: int
    document_version: int
    delta_epoch: Optional[int] = None


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's counters.

    ``hits``/``misses`` count lookups, ``evictions`` counts LRU removals
    caused by capacity pressure, and ``size``/``capacity`` describe the
    current occupancy.  ``retained`` counts entries that survived a mapping
    delta: served by :meth:`ResultCache.lookup` after the key at the new
    ``delta_epoch`` itself missed.  A retained serve is *not* also counted
    as a hit, so ``hit_rate`` keeps its pre-delta meaning.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    retained: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable view of the snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "retained": self.retained,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }


class ResultCache:
    """A bounded LRU cache safe for concurrent readers and writers.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is evicted
        when a put would exceed it.  A capacity of ``0`` disables the cache
        (every lookup misses, every put is dropped) while keeping the
        call-sites oblivious.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._retained = 0
        #: delta_epoch -> (probability-dirty mapping mask, dirty target
        #: mask), recorded by the session on every applied delta; consulted
        #: by :meth:`lookup` to prove an older-epoch entry still valid.
        self._deltas: "OrderedDict[int, tuple[int, int]]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of entries the cache holds."""
        return self._capacity

    @property
    def enabled(self) -> bool:
        """``False`` when the cache was built with capacity 0."""
        return self._capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value for ``key`` (marking it recently used), or ``None``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable) -> Optional[Any]:
        """Like :meth:`get` but without touching recency or counters."""
        with self._lock:
            return self._entries.get(key)

    def items(self) -> list[tuple[Hashable, Any]]:
        """Consistent snapshot of all entries, least recently used first.

        Used by the persistence layer to capture result-cache warmth without
        touching recency or the hit/miss counters.
        """
        with self._lock:
            return list(self._entries.items())

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert ``value`` under ``key``, evicting the LRU entry when full.

        Returns the value actually stored: under a racing double-compute the
        first writer wins, so every caller ends up holding the same object.
        """
        if self._capacity == 0:
            return value
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = value
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    # ------------------------------------------------------------------ #
    # Delta-aware retention
    # ------------------------------------------------------------------ #
    def record_delta(
        self, delta_epoch: int, probability_mask: int, target_mask: int
    ) -> None:
        """Record the dirt of one applied mapping delta.

        Called by the owning session when ``apply_delta`` commits epoch
        ``delta_epoch``, before it publishes that epoch.  ``probability_mask``
        flags the mappings whose probability value changed and
        ``target_mask`` the target elements whose correspondences changed —
        together they bound every way the delta can influence a query result
        (see :class:`repro.engine.delta.DeltaEffect`).  The log is bounded
        at :data:`_MAX_DELTA_LOG` entries; a lookup that would need an
        evicted-from-log transition simply fails to retain (conservative, so
        correctness never depends on the bound).
        """
        with self._lock:
            self._deltas[delta_epoch] = (probability_mask, target_mask)
            while len(self._deltas) > _MAX_DELTA_LOG:
                self._deltas.popitem(last=False)

    def lookup(
        self,
        key: Any,
        mapping_mask: int,
        target_mask: int,
        *,
        probability_sensitive: bool = True,
        transform: Optional[Callable[[Any], Any]] = None,
        count_miss: bool = True,
    ) -> tuple[Optional[Any], str]:
        """Retain-on-miss lookup: ``(value or None, state)`` under one lock.

        ``state`` is ``"hit"`` when ``key`` itself is cached, ``"retained"``
        when a pre-delta entry provably survived and was promoted, and
        ``"miss"`` when the caller must evaluate.  A retained serve counts
        one miss *and* one retained (never a hit), so ``hit_rate`` keeps its
        pre-delta meaning.

        ``key`` is any named-tuple key with a ``delta_epoch`` field holding
        the current epoch (the result cache's :class:`CacheKey`, the session
        filter cache's signature key).  On a miss the lookup walks back
        through earlier epochs of the *same* key, accumulating the recorded
        dirt of every intervening delta, and stops as soon as the
        accumulated dirt intersects the caller's masks — one bitwise AND per
        mask:

        * ``mapping_mask`` — the mappings the cached entry depends on
          (typically the query's relevant-mapping mask), checked against the
          accumulated *probability* dirt: a reweighted relevant mapping may
          have changed the answer's probabilities or its top-k selection;
        * ``target_mask`` — the target elements the query requires, checked
          against the accumulated *target* dirt: a structural edit can
          influence a result only through the edited target elements
          (coverage, relevance and rewrites at every other target are
          untouched), so this single check covers all structural dirt.

        ``probability_sensitive=False`` skips the mapping-mask check —
        correct for values that do not encode probabilities or
        probability-driven selections, such as the filter cache's
        relevant-mapping prefixes, which a pure reweight delta cannot change.

        ``transform``, when given, is applied to the surviving value before
        it is re-inserted under the current-epoch key; the transformed value
        is what gets stored and returned.  This lets callers whose cached
        values hold epoch-bound objects (e.g. the filter cache's
        :class:`Mapping` lists, which must come from the *current* mapping
        set) promote entries across epochs by re-anchoring them instead of
        recomputing from scratch.  The callable runs under the cache lock
        and must be cheap and non-reentrant (it must not call back into the
        cache).

        A surviving entry is re-keyed to the current epoch (the old key is
        removed).  Entries can never be retained across a generation bump or
        a full ``invalidate()``: only ``delta_epoch`` varies in the probed
        keys, every other field (including ``generation``) must match
        exactly.

        ``count_miss=False`` makes the lookup a probe: a miss leaves the
        counters as they were, so a caller that falls back to a counted
        lookup (the server's event-loop step, then the executor) counts the
        request once.  Hits and retained serves are counted either way.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                if count_miss:
                    self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                return value, "hit"
            epoch = getattr(key, "delta_epoch", None)
            if self._capacity == 0 or not isinstance(epoch, int) or epoch <= 0:
                return None, "miss"
            accumulated_mappings = 0
            accumulated_targets = 0
            lowest = max(0, epoch - _MAX_RETAIN_SCAN)
            for earlier in range(epoch - 1, lowest - 1, -1):
                recorded = self._deltas.get(earlier + 1)
                if recorded is None:
                    # Unknown transition (log evicted or epoch from another
                    # cache): nothing can be proven about it.
                    return None, "miss"
                probability_dirt, dirty_targets = recorded
                if probability_sensitive:
                    accumulated_mappings |= probability_dirt
                accumulated_targets |= dirty_targets
                if (accumulated_mappings & mapping_mask) or (
                    accumulated_targets & target_mask
                ):
                    # Dirty already; older entries carry at least this dirt.
                    return None, "miss"
                old_key = key._replace(delta_epoch=earlier)
                value = self._entries.get(old_key)
                if value is not None:
                    del self._entries[old_key]
                    if transform is not None:
                        value = transform(value)
                    self._entries[key] = value
                    self._retained += 1
                    if not count_miss:
                        self._misses += 1
                    return value, "retained"
            return None, "miss"

    def clear(self) -> None:
        """Drop every entry and the delta log (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._deltas.clear()

    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
                retained=self._retained,
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ResultCache(size={stats.size}/{stats.capacity}, "
            f"hits={stats.hits}, misses={stats.misses})"
        )
