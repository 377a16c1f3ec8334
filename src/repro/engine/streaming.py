"""Standing queries over delta batches: the engine's streaming write path.

The delta engine (:mod:`repro.engine.delta`) made mapping evolution cheap for
*readers* — caches retain provably-untouched entries across epochs — but each
write still answered "what changed?" by making every reader re-execute.  This
module turns ``apply_delta`` into a production write path with two pieces:

* :class:`DeltaBatch` / :func:`apply_delta_batch` coalesce a *sequence* of
  :class:`~repro.engine.delta.MappingDelta` edits into **one** patched compile
  and a single ``delta_epoch`` bump.  Each delta is validated against the
  intermediate state it applies to (exactly as if applied one by one), but
  the compiled bitset artifact is patched once, from the *net* difference
  between the first and last state — an add that a later delta removes never
  touches a posting list.  A batch of one delta is bit-identical (compiled
  columns and bookkeeping) to :func:`~repro.engine.delta.apply_mapping_delta`,
  which is what lets the session route its single-delta path through here.

* :class:`SubscriptionRegistry` inverts the cache-retention machinery: where
  :meth:`~repro.engine.cache.ResultCache.lookup` proves which cached results
  a delta *cannot* touch, the registry proves which standing queries it
  *must* notify.  A subscription registers a PTQ/top-k once (keyed by the
  canonical query text, so equivalent spellings share one standing
  query) and each committed batch partitions the standing queries three ways:

  ========================  ================================================
  class                     condition / work
  ========================  ================================================
  **unaffected**            masks AND dirt == 0 — two integer ANDs, no work
  **reweight-only**         probability column dirty, structure clean at the
                            query's required targets — compare the dirty
                            members against the last delivered probability
                            column (and build top-k entrants from the cells)
                            and emit changed entries only, no re-execution
  **structural**            required-target structure dirty — re-execute via
                            the normal execute path and diff
  ========================  ================================================

  Notifications are :class:`SubscriptionUpdate` diffs (added / removed /
  rescored rows) with the guarantee that replaying the stream onto the
  initial result set (:func:`apply_update`) reproduces, byte for byte, what
  re-executing the standing query from scratch at the new epoch returns —
  the differential property the streaming test harness pins across plans.

Shared evaluation and cells
---------------------------
A top-k result is a slice of the full PTQ result: its rows are the first k
answers of the full result, which is already ordered by (-probability,
mapping id) exactly as top-k selection orders the relevant mappings.  So
every standing query of one prepared query takes its rows from **one**
full (``k=None``) evaluation per notice, shared through the notice-scoped
memo.  A standing query keeps that result's cells, the bitmask of the
members its subscribers hold and the probability column it last delivered,
and no per-mapping row.  A probability-only change cannot change any match
set, so a reweight compares the dirty members with the delivered column, and
a mapping entering a top k gets its row from the new column and its cell —
no plan run and no twig matching.

Lifecycle and delivery contract
-------------------------------
``subscribe()`` executes the query once (the *baseline*) and delivers an
``initial`` update carrying the full current result; every later update is a
diff against the previous state the subscriber saw.  Updates are delivered
in epoch order, at most once per committed epoch, and never for an epoch
from before the subscription's baseline.  Consecutive epochs may be coalesced
into one update (the diff then spans all of them — the replay contract is
unaffected).  An update whose diff is empty is suppressed.  Callbacks run on
the committing (or draining) thread and must be fast and non-blocking;
exceptions are counted, never propagated.  ``configure()`` does not notify
by itself — a reconfiguration surfaces as a ``structural`` update at the
next committed delta batch.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.engine.delta import (
    DeltaReport,
    MappingDelta,
    apply_mapping_delta,
    target_mask_of,
)
from repro.exceptions import MappingError, QueryError
from repro.mapping.mapping_set import MappingSet, iter_mapping_ids, mapping_mask
from repro.query.results import PTQAnswer, PTQResult, rank_by_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.dataspace import Dataspace, EngineSnapshot
    from repro.engine.delta import DeltaEffect
    from repro.engine.prepared import PreparedQuery
    from repro.query.twig import TwigQuery

__all__ = [
    "DeltaBatch",
    "BatchEffect",
    "DeltaBatchReport",
    "apply_delta_batch",
    "SubscriptionUpdate",
    "apply_update",
    "Subscription",
    "SubscriptionRegistry",
]

#: Bound on the registry's remembered per-epoch dirt entries; a standing
#: query lagging further behind is conservatively re-executed (structural).
_MAX_NOTIFY_LOG = 64


# --------------------------------------------------------------------------- #
# Delta batches
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DeltaBatch:
    """An ordered sequence of deltas applied as one atomic epoch bump.

    Each member delta is validated against the state left by its
    predecessors — a batch behaves exactly like applying its deltas one by
    one — but the whole batch commits as a *single* ``delta_epoch`` bump
    with one incremental recompile of the net difference.

    >>> batch = DeltaBatch.of(MappingDelta.build(reweight={0: 0.5, 1: 0.5}))
    >>> len(batch)
    1
    """

    deltas: tuple[MappingDelta, ...] = ()

    @classmethod
    def of(cls, *deltas: MappingDelta) -> "DeltaBatch":
        """Build a batch from deltas given as positional arguments."""
        return cls(deltas=tuple(deltas))

    @classmethod
    def build(cls, deltas: Iterable[MappingDelta]) -> "DeltaBatch":
        """Build a batch from any iterable of deltas."""
        return cls(deltas=tuple(deltas))

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[MappingDelta]:
        return iter(self.deltas)

    def is_empty(self) -> bool:
        """``True`` when the batch holds no deltas (or only empty ones)."""
        return all(delta.is_empty() for delta in self.deltas)

    def touched_ids(self) -> frozenset[int]:
        """Ids of every mapping any member delta touches in any way."""
        ids: set[int] = set()
        for delta in self.deltas:
            ids |= delta.touched_ids()
        return frozenset(ids)

    def to_payload(self) -> dict:
        """JSON-serialisable form (see :meth:`from_payload`).

        Member deltas keep their order — a batch is a *sequence*, so unlike
        a single delta's canonical payload the list is not sorted.
        """
        return {"deltas": [delta.to_payload() for delta in self.deltas]}

    @classmethod
    def from_payload(cls, payload: dict) -> "DeltaBatch":
        """Rebuild a batch from :meth:`to_payload` output."""
        return cls(
            deltas=tuple(
                MappingDelta.from_payload(item) for item in payload.get("deltas", ())
            )
        )


@dataclass(frozen=True)
class BatchEffect:
    """Coalesced bitmask summary of one applied delta batch.

    The mask fields mirror :class:`~repro.engine.delta.DeltaEffect` but
    describe the *net* first-to-last difference: an edit a later delta of
    the same batch reverts contributes no dirt.
    """

    num_deltas: int
    reweight_edits: int
    replace_edits: int
    dirty_mask: int
    structural_mask: int
    probability_mask: int
    dirty_target_mask: int
    dirty_targets: frozenset[int]
    posting_lists_touched: int
    posting_lists_total: int
    compiled_incrementally: bool


@dataclass(frozen=True)
class DeltaBatchReport(DeltaReport):
    """A :class:`~repro.engine.delta.DeltaReport` for a whole batch.

    Identical to the single-delta report — one epoch, one compile, the same
    reuse accounting — plus ``num_deltas``, the number of member deltas the
    epoch coalesced.  ``isinstance(report, DeltaReport)`` holds, so every
    existing report consumer keeps working.
    """

    num_deltas: int = 1

    def to_dict(self) -> dict:
        """JSON-serialisable view of the report (adds ``num_deltas``)."""
        payload = super().to_dict()
        payload["num_deltas"] = self.num_deltas
        return payload

    def format(self) -> str:
        """Human-readable rendering (adds the coalesced-delta count)."""
        return super().format() + f"\ncoalesced:  {self.num_deltas} deltas"


def apply_delta_batch(
    mapping_set: MappingSet, batch: Union[DeltaBatch, Iterable[MappingDelta]]
) -> tuple[MappingSet, BatchEffect]:
    """Apply a batch of deltas to ``mapping_set``; one compile, net-diff masks.

    Each delta is applied (and fully validated) against the intermediate
    state left by its predecessors, on an *uncompiled* shadow of the input
    set — so no intermediate compile work happens.  The compiled artifact is
    then patched exactly once from the net first-to-last difference, and the
    returned :class:`BatchEffect` masks describe that net difference.

    A batch of one delta is bit-identical to
    :func:`~repro.engine.delta.apply_mapping_delta`: the same patched
    :class:`Mapping` objects, the same ``changed_pairs``, the same single
    :meth:`CompiledMappingSet.patched
    <repro.engine.compiled.CompiledMappingSet.patched>` call.

    Raises
    ------
    MappingError
        On an empty batch, or when any member delta is invalid against the
        state it applies to (the input set is never mutated either way).

    >>> # patched, effect = apply_delta_batch(ms, DeltaBatch.of(d1, d2))
    """
    deltas = list(batch.deltas) if isinstance(batch, DeltaBatch) else list(batch)
    if not deltas:
        raise MappingError("a delta batch must contain at least one delta")
    original = list(mapping_set)
    # Uncompiled shadow: apply_mapping_delta sees is_compiled == False and
    # skips per-step compile patching; validation is per intermediate state.
    shadow = MappingSet._patched(mapping_set.matching, original)
    touched: set[int] = set()
    structural: set[int] = set()
    reweight_edits = 0
    replace_edits = 0
    for delta in deltas:
        shadow, _ = apply_mapping_delta(shadow, delta)
        touched |= delta.touched_ids()
        structural |= delta.structural_ids()
        reweight_edits += len(delta.reweight)
        replace_edits += len(delta.replace)
    final = list(shadow)

    # Net first-to-last diff: exactly what apply_mapping_delta computes for
    # a single delta, so the one-compile patch below is call-identical.
    changed_pairs: dict[int, tuple[frozenset, frozenset]] = {}
    probability_ids: list[int] = []
    for mapping_id in sorted(touched):
        old, new = original[mapping_id], final[mapping_id]
        if new.correspondences != old.correspondences:
            changed_pairs[mapping_id] = (old.correspondences, new.correspondences)
        if new.probability != old.probability:
            probability_ids.append(mapping_id)

    dirty_targets: set[int] = set()
    edited_pairs: set = set()
    for old_pairs, new_pairs in changed_pairs.values():
        for pair in old_pairs ^ new_pairs:
            edited_pairs.add(pair)
            dirty_targets.add(pair[1])

    if mapping_set.is_compiled:
        from repro.engine.compiled import CompiledMappingSet

        compiled = CompiledMappingSet.patched(mapping_set.compile(), shadow, changed_pairs)
        shadow._compiled = compiled
        posting_total = len(compiled._pair_masks)
    else:
        posting_total = 0

    effect = BatchEffect(
        num_deltas=len(deltas),
        reweight_edits=reweight_edits,
        replace_edits=replace_edits,
        dirty_mask=mapping_mask(sorted(touched)),
        structural_mask=mapping_mask(sorted(structural)),
        probability_mask=mapping_mask(probability_ids),
        dirty_target_mask=target_mask_of(dirty_targets),
        dirty_targets=frozenset(dirty_targets),
        posting_lists_touched=len(edited_pairs),
        posting_lists_total=posting_total,
        compiled_incrementally=mapping_set.is_compiled,
    )
    return shadow, effect


# --------------------------------------------------------------------------- #
# Subscription updates and the replay contract
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SubscriptionUpdate:
    """One incremental notification of a standing query.

    ``kind`` is ``"initial"`` (the full baseline at registration),
    ``"reweight"`` (probabilities moved, structure provably clean — only
    ``rescored`` and, for top-k queries, membership churn) or
    ``"structural"`` (the query was re-executed and diffed).  The diff
    semantics (see :func:`apply_update`):

    * ``removed`` — mapping ids whose row leaves the result;
    * ``rescored`` — ``(mapping_id, probability)`` for rows whose matches
      are unchanged but whose probability moved;
    * ``added`` — full rows to upsert: genuinely new rows *and* rows whose
      match set changed.

    ``added`` rows are ordered like result answers (most probable first);
    ``removed`` and ``rescored`` ascend by mapping id.
    """

    subscription_id: int
    query: str
    k: Optional[int]
    kind: str
    generation: int
    delta_epoch: int
    added: tuple[PTQAnswer, ...] = ()
    removed: tuple[int, ...] = ()
    rescored: tuple[tuple[int, float], ...] = ()

    def is_empty_diff(self) -> bool:
        """``True`` when the update changes nothing (candidate for suppression)."""
        return not (self.added or self.removed or self.rescored)


def apply_update(
    rows: Iterable[PTQAnswer], update: SubscriptionUpdate
) -> list[PTQAnswer]:
    """Replay one update onto a row list; returns the new result rows.

    This is the subscriber-side half of the differential contract: starting
    from the ``initial`` update's rows and folding every subsequent update
    through this function yields, byte for byte (``float.hex()`` on
    probabilities), the rows a from-scratch execution of the standing query
    returns at the update's epoch.

    >>> # rows = apply_update(rows, update)
    """
    by_id = {row.mapping_id: row for row in rows}
    for mapping_id in update.removed:
        by_id.pop(mapping_id, None)
    for mapping_id, probability in update.rescored:
        old = by_id.get(mapping_id)
        if old is not None:
            by_id[mapping_id] = PTQAnswer(
                mapping_id=mapping_id, probability=probability, matches=old.matches
            )
    for row in update.added:
        by_id[row.mapping_id] = row
    return rank_by_probability(by_id.values())


# --------------------------------------------------------------------------- #
# Standing queries and subscriptions
# --------------------------------------------------------------------------- #
class _StandingQuery:
    """Registry-internal state of one registered (query, k) pair.

    All mutable fields are guarded by the registry's table lock.
    ``result`` is the full (``k=None``) result at the last structural state;
    its cells hold every relevant mapping's match set and its mask (the
    relevant mask) and ``required_mask`` are what the unaffected check ANDs.
    ``members`` masks the rows the subscribers hold (all, or the top k), and
    ``probabilities`` is the column their probabilities were read from.
    """

    __slots__ = (
        "prepared",
        "k",
        "key",
        "required_mask",
        "result",
        "members",
        "probabilities",
        "last_epoch",
        "generation",
        "document_version",
        "subscribers",
    )

    def __init__(
        self,
        prepared: "PreparedQuery",
        k: Optional[int],
        key: tuple[str, Optional[int]],
        required_mask: int,
        result: PTQResult,
        last_epoch: int,
        generation: int,
        document_version: int,
    ) -> None:
        self.prepared = prepared
        self.k = k
        self.key = key
        self.required_mask = required_mask
        self.result = result
        self.members = _top(result, k)[1]
        self.probabilities = result._probabilities
        self.last_epoch = last_epoch
        self.generation = generation
        self.document_version = document_version
        self.subscribers: dict[int, "Subscription"] = {}

    def rows(self) -> list[PTQAnswer]:
        """The rows the subscribers hold, ordered like result answers."""
        probabilities = self.probabilities
        matches_of = self.result._matches_of
        return rank_by_probability(
            PTQAnswer(mapping_id, probabilities[mapping_id], matches_of(mapping_id))
            for mapping_id in iter_mapping_ids(self.members)
        )


def _top(result: PTQResult, k: Optional[int]) -> tuple[list[int], int]:
    """Ids (in row order) and bitmask of the first ``k`` answers of a full result: the top k."""
    ids = result._row_ids()
    return (ids, result._mask) if k is None else (ids[:k], mapping_mask(ids[:k]))


class Subscription:
    """A live subscriber handle returned by ``subscribe()``.

    Holds the subscriber's id, the standing query's canonical text and
    ``k``, the ``initial`` update delivered at registration, and the most
    recent update seen.  :meth:`cancel` detaches the subscriber; cancelling
    from inside a notification callback is safe.
    """

    def __init__(
        self,
        registry: "SubscriptionRegistry",
        standing: _StandingQuery,
        subscription_id: int,
        callback: Callable[[SubscriptionUpdate], None],
    ) -> None:
        self._registry = registry
        self._standing = standing
        self._id = subscription_id
        self._callback = callback
        self._active = True
        self.initial: Optional[SubscriptionUpdate] = None
        self.last_update: Optional[SubscriptionUpdate] = None
        self.updates_delivered = 0

    @property
    def subscription_id(self) -> int:
        """Registry-unique id of this subscriber."""
        return self._id

    @property
    def query(self) -> str:
        """Canonical text of the standing query."""
        return self._standing.prepared.cache_key

    @property
    def k(self) -> Optional[int]:
        """The standing query's top-k restriction (``None`` for full results)."""
        return self._standing.k

    @property
    def active(self) -> bool:
        """``False`` once :meth:`cancel` has detached the subscriber."""
        return self._active

    def cancel(self) -> bool:
        """Detach this subscriber; returns whether it was still attached.

        After cancellation no further updates are delivered.  The standing
        query itself is dropped when its last subscriber cancels.
        """
        was_active = self._registry._cancel(self._standing, self._id)
        self._active = False
        return was_active

    def _record(self, update: SubscriptionUpdate) -> None:
        """Remember a delivered update on the handle (registry-internal)."""
        if update.kind == "initial":
            self.initial = update
        self.last_update = update
        self.updates_delivered += 1

    def __repr__(self) -> str:
        return (
            f"Subscription(id={self._id}, query={self.query!r}, k={self.k}, "
            f"active={self._active})"
        )


@dataclass(frozen=True)
class _Notice:
    """A committed state the registry must advance standing queries to."""

    epoch: int
    generation: int
    document_version: int
    snapshot: "EngineSnapshot"


class SubscriptionRegistry:
    """Standing queries of one session, notified from delta dirty masks.

    Owned by a :class:`~repro.engine.dataspace.Dataspace`; the session calls
    :meth:`on_commit` under its write lock when a delta batch commits and
    :meth:`drain` after releasing it.  See the module docstring for the
    three-way classification and the delivery contract.

    Locking: the table lock (reentrant) guards the standing-query table and
    all delivery, so each subscriber observes a total order of updates; the
    pending queue and the per-epoch dirt log have their own leaf locks so
    :meth:`on_commit` — which runs under the session's write lock — never
    touches the table lock.  :meth:`drain` is single-flight: a drain
    triggered from inside a notification callback (e.g. a callback that
    applies another delta) returns immediately and the outer drain picks
    the new notice up.
    """

    def __init__(self, dataspace: "Dataspace") -> None:
        self._dataspace = dataspace
        self._table: dict[tuple[str, Optional[int]], _StandingQuery] = {}
        self._table_lock = threading.RLock()
        self._pending: "deque[_Notice]" = deque()
        self._pending_lock = threading.Lock()
        self._log: "OrderedDict[int, tuple[int, int]]" = OrderedDict()
        self._log_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._subscribed = 0
        self._cancelled = 0
        self._batches = 0
        self._unaffected = 0
        self._reweight_only = 0
        self._structural = 0
        self._notifications = 0
        self._suppressed = 0
        self._callback_errors = 0
        self._update_errors = 0

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        query: Union[str, "TwigQuery"],
        *,
        k: Optional[int] = None,
        callback: Callable[[SubscriptionUpdate], None],
    ) -> Subscription:
        """Register a standing query; returns the live :class:`Subscription`.

        The query is prepared (and keyed) by its canonical text and
        executed in full (``k=None``, through the result cache); a top-k
        baseline is the first ``k`` rows of that result.  The ``initial``
        update is delivered to ``callback`` before this method returns.  A
        second subscriber to an already-standing (query, k) pair shares the
        standing query's state and receives an ``initial`` built from it.

        Raises
        ------
        QueryError
            On a non-positive ``k``.
        """
        if k is not None and k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        ds = self._dataspace
        prepared = ds.prepare(query)
        snap = ds.snapshot(need_tree=False)
        result = prepared.execute(k=None, snapshot=snap, use_cache=True)
        key = (prepared.cache_key, k)
        with self._table_lock:
            standing = self._table.get(key)
            created = standing is None
            if standing is None:
                standing = _StandingQuery(
                    prepared=prepared,
                    k=k,
                    key=key,
                    required_mask=prepared.required_target_mask(),
                    result=result,
                    last_epoch=snap.delta_epoch,
                    generation=snap.generation,
                    document_version=snap.document_version,
                )
                self._table[key] = standing
            subscription_id = next(self._ids)
            handle = Subscription(self, standing, subscription_id, callback)
            standing.subscribers[subscription_id] = handle
            initial = SubscriptionUpdate(
                subscription_id=subscription_id,
                query=prepared.cache_key,
                k=k,
                kind="initial",
                generation=standing.generation,
                delta_epoch=standing.last_epoch,
                added=tuple(standing.rows()),
            )
            handle._record(initial)
            counts = {"notifications": 0, "callback_errors": 0}
            self._deliver_one(handle, initial, counts)
            with self._stats_lock:
                self._subscribed += 1
                self._notifications += counts["notifications"]
                self._callback_errors += counts["callback_errors"]
        if created:
            # Close the registration race: a batch that committed between the
            # baseline snapshot and the table insert drained before this
            # standing query existed.  A synthetic notice at the *current*
            # state catches it up; the epoch guard in _advance makes any
            # overlap with real pending notices harmless.
            current = ds.snapshot(need_tree=False)
            if (
                current.delta_epoch > snap.delta_epoch
                or current.generation != snap.generation
                or current.document_version != snap.document_version
            ):
                with self._pending_lock:
                    self._pending.append(
                        _Notice(
                            epoch=current.delta_epoch,
                            generation=current.generation,
                            document_version=current.document_version,
                            snapshot=current,
                        )
                    )
        self.drain()
        return handle

    def _evaluate(
        self, prepared: "PreparedQuery", snapshot: "EngineSnapshot", memo: dict
    ) -> PTQResult:
        """The full result of ``prepared`` at ``snapshot``.

        Runs the normal result-cached ``execute`` at ``k=None``
        once per notice: every standing query of ``prepared`` processed
        under the same notice-scoped ``memo`` shares the result.
        """
        memo_key = ("evaluation", prepared.cache_key)
        result = memo.get(memo_key)
        if result is None:
            result = memo[memo_key] = prepared.execute(k=None, snapshot=snapshot, use_cache=True)
        return result

    def _cancel(self, standing: _StandingQuery, subscription_id: int) -> bool:
        """Detach one subscriber; drop the standing query when it empties."""
        with self._table_lock:
            handle = standing.subscribers.pop(subscription_id, None)
            if handle is not None:
                with self._stats_lock:
                    self._cancelled += 1
            if not standing.subscribers and self._table.get(standing.key) is standing:
                del self._table[standing.key]
        return handle is not None

    # ------------------------------------------------------------------ #
    # Commit plumbing (called by the session)
    # ------------------------------------------------------------------ #
    def on_commit(
        self,
        epoch: int,
        generation: int,
        document_version: int,
        effect: Union[BatchEffect, "DeltaEffect"],
        snapshot: Optional["EngineSnapshot"],
    ) -> None:
        """Record one committed batch; runs under the session's write lock.

        Appends the epoch's dirt masks to the bounded log and enqueues a
        notice carrying the committed snapshot.  Only leaf locks are taken
        here — never the table lock — so commit latency stays independent of
        subscriber count and no lock cycle with delivery is possible.
        ``snapshot`` is ``None`` only when the session's document is not
        built, in which case no standing query can exist yet.
        """
        with self._log_lock:
            self._log[epoch] = (effect.probability_mask, effect.dirty_target_mask)
            while len(self._log) > _MAX_NOTIFY_LOG:
                self._log.popitem(last=False)
        if snapshot is None:
            return
        with self._pending_lock:
            self._pending.append(
                _Notice(
                    epoch=epoch,
                    generation=generation,
                    document_version=document_version,
                    snapshot=snapshot,
                )
            )

    def drain(self) -> int:
        """Deliver every pending notice; returns how many were processed.

        Single-flight and non-blocking: when another thread (or an enclosing
        callback on this thread) is already draining, this returns ``0``
        immediately — the active drain's re-check loop picks up any notice
        enqueued meanwhile, so no notice is ever stranded.
        """
        processed = 0
        while True:
            with self._pending_lock:
                if not self._pending:
                    return processed
            if not self._drain_lock.acquire(blocking=False):
                return processed
            try:
                while True:
                    with self._pending_lock:
                        if not self._pending:
                            break
                        notice = self._pending.popleft()
                    self._process(notice)
                    processed += 1
            finally:
                self._drain_lock.release()

    def _process(self, notice: _Notice) -> None:
        """Advance every standing query to ``notice`` (under the table lock).

        Per-standing-query statistics are accumulated in a notice-local
        ``counts`` dict and flushed under the stats lock once, so a large
        subscriber population costs one lock round-trip per notice instead
        of several per standing query.
        """
        counts = {
            "unaffected": 0,
            "reweight_only": 0,
            "structural": 0,
            "suppressed": 0,
            "notifications": 0,
            "callback_errors": 0,
            "update_errors": 0,
        }
        # Standing queries of the same query share one full evaluation, and
        # those over the same relevant set and k one top-k reselection, per
        # notice (see _evaluate and _reweight_update).
        memo: dict = {}
        with self._table_lock:
            for standing in list(self._table.values()):
                try:
                    self._advance(standing, notice, memo, counts)
                except Exception:
                    # One failing standing query never blocks the others;
                    # the failure is counted and the query retries (from its
                    # unchanged last_epoch) at the next notice.
                    counts["update_errors"] += 1
        with self._stats_lock:
            self._batches += 1
            self._unaffected += counts["unaffected"]
            self._reweight_only += counts["reweight_only"]
            self._structural += counts["structural"]
            self._suppressed += counts["suppressed"]
            self._notifications += counts["notifications"]
            self._callback_errors += counts["callback_errors"]
            self._update_errors += counts["update_errors"]

    # ------------------------------------------------------------------ #
    # Classification and incremental updates
    # ------------------------------------------------------------------ #
    def _accumulated_dirt(self, last_epoch: int, epoch: int) -> Optional[tuple[int, int]]:
        """OR of the logged dirt over ``(last_epoch, epoch]``; ``None`` on a gap."""
        probability_dirt = 0
        target_dirt = 0
        with self._log_lock:
            for step in range(last_epoch + 1, epoch + 1):
                entry = self._log.get(step)
                if entry is None:
                    return None
                probability_dirt |= entry[0]
                target_dirt |= entry[1]
        return probability_dirt, target_dirt

    def _classify(
        self, standing: _StandingQuery, notice: _Notice, memo: dict
    ) -> tuple[str, int]:
        """Partition one standing query for one notice (see module docstring).

        Returns ``(kind, probability_dirt)`` — the accumulated probability
        dirt is handed to the reweight path so the rescore touches exactly
        the dirty rows (``0`` for the other kinds, which don't consume it).
        The dirt is accumulated once per ``last_epoch`` for the notice.
        """
        if (
            notice.generation != standing.generation
            or notice.document_version != standing.document_version
        ):
            return "structural", 0
        memo_key = ("dirt", standing.last_epoch)
        if memo_key in memo:
            dirt = memo[memo_key]
        else:
            dirt = memo[memo_key] = self._accumulated_dirt(standing.last_epoch, notice.epoch)
        if dirt is None:
            return "structural", 0
        probability_dirt, target_dirt = dirt
        if target_dirt & standing.required_mask:
            return "structural", 0
        if probability_dirt & standing.result._mask:
            return "reweight", probability_dirt
        return "unaffected", 0

    def _advance(
        self, standing: _StandingQuery, notice: _Notice, memo: dict, counts: dict
    ) -> None:
        """Move one standing query to ``notice``'s state, delivering its diff.

        ``memo`` is the notice-scoped cache of full evaluations and top-k
        reselections shared by every standing query processed for the same
        notice; ``counts`` is the notice-local statistics accumulator (see
        :meth:`_process`).
        """
        if notice.epoch <= standing.last_epoch:
            return
        kind, probability_dirt = self._classify(standing, notice, memo)
        if kind == "unaffected":
            standing.last_epoch = notice.epoch
            counts["unaffected"] += 1
            return
        # With one subscriber (the common case) the update is built carrying
        # its id directly, skipping the per-subscriber copy below; ids start
        # at 1, so the 0 placeholder never matches a real subscriber.
        subscribers = list(standing.subscribers.items())
        sole_id = subscribers[0][0] if len(subscribers) == 1 else 0
        if kind == "reweight":
            update = self._reweight_update(standing, notice, probability_dirt, sole_id, memo)
            counts["reweight_only"] += 1
        else:
            update = self._structural_update(standing, notice, sole_id, memo)
            counts["structural"] += 1
        standing.last_epoch = notice.epoch
        standing.generation = notice.generation
        standing.document_version = notice.document_version
        if update.is_empty_diff():
            counts["suppressed"] += 1
            return
        for subscription_id, handle in subscribers:
            delivered = (
                update
                if subscription_id == update.subscription_id
                else replace(update, subscription_id=subscription_id)
            )
            handle._record(delivered)
            self._deliver_one(handle, delivered, counts)

    @staticmethod
    def _deliver_one(handle: Subscription, update: SubscriptionUpdate, counts: dict) -> None:
        """Invoke one subscriber callback, counting (never raising) errors into ``counts``."""
        counts["notifications"] += 1
        try:
            handle._callback(update)
        except Exception:
            counts["callback_errors"] += 1

    @staticmethod
    def _rescored(
        mask: int, delivered: Sequence[float], probabilities: Sequence[float], memo: dict
    ) -> tuple[tuple[int, float], ...]:
        """``(id, new probability)`` for the members of ``mask`` whose value moved.

        Shared for the notice by the standing queries that compare the same
        members against the same delivered column.
        """
        memo_key = ("rescored", mask, id(delivered))
        rescored = memo.get(memo_key)
        if rescored is None:
            rescored = memo[memo_key] = tuple(
                (mapping_id, probabilities[mapping_id])
                for mapping_id in iter_mapping_ids(mask)
                if probabilities[mapping_id] != delivered[mapping_id]
            )
        return rescored

    def _reweight_update(
        self,
        standing: _StandingQuery,
        notice: _Notice,
        probability_dirt: int,
        subscription_id: int,
        memo: dict,
    ) -> SubscriptionUpdate:
        """Rescore from the new probability column; no re-execution.

        Structure at the query's required targets is provably clean, so
        every match set is still exact and the relevant-mapping set is
        unchanged; only probabilities (and, under a top-k restriction, the
        top-k membership) can move.  Every probability that moved since the
        last delivery is flagged in ``probability_dirt``, so ``rescored``
        compares exactly the dirty members with the delivered column.  Top-k
        entrants are rows built from the new column and the cells; the new
        top k is cut from the compiled ranking, once per relevant set and k
        for the notice.
        """
        compiled = notice.snapshot.mapping_set.compile()
        probabilities = compiled.probabilities
        delivered = standing.probabilities
        members = standing.members
        top, selected = (), members
        if standing.k is not None:
            relevant = standing.result._mask
            memo_key = ("top", relevant, standing.k)
            cut = memo.get(memo_key)
            if cut is None:
                ids = compiled.top_k(relevant, standing.k)
                cut = memo[memo_key] = (ids, mapping_mask(ids))
            top, selected = cut
        rescored = self._rescored(
            probability_dirt & members & selected, delivered, probabilities, memo
        )
        added: tuple[PTQAnswer, ...] = ()
        removed: tuple[int, ...] = ()
        if selected != members:
            matches_of = standing.result._matches_of
            added = tuple(
                PTQAnswer(mapping_id, probabilities[mapping_id], matches_of(mapping_id))
                for mapping_id in top
                if not members >> mapping_id & 1
            )
            removed = tuple(iter_mapping_ids(members & ~selected))
            standing.members = selected
        standing.probabilities = probabilities
        # Positional: this runs once per standing query and notice.
        return SubscriptionUpdate(
            subscription_id, standing.prepared.cache_key, standing.k, "reweight",
            notice.generation, notice.epoch, added, removed, rescored,
        )

    def _structural_update(
        self,
        standing: _StandingQuery,
        notice: _Notice,
        subscription_id: int,
        memo: dict,
    ) -> SubscriptionUpdate:
        """Take the members from the shared full re-execution and diff them.

        The diff runs per pair of overlapping old and new cells: members
        whose match set is unchanged can only be rescored, the others are
        sent as full rows.
        """
        result = self._evaluate(standing.prepared, notice.snapshot, memo)
        probabilities = result._probabilities
        delivered = standing.probabilities
        top, members = _top(result, standing.k)
        kept = members & standing.members
        changed = members & ~standing.members
        unchanged = 0
        for new_mask, new_set in result._cells:
            for old_mask, old_set in standing.result._cells:
                shared = new_mask & old_mask & kept
                if not shared:
                    continue
                if new_set is old_set or new_set == old_set:
                    unchanged |= shared
                else:
                    changed |= shared
        rescored = self._rescored(unchanged, delivered, probabilities, memo)
        matches_of = result._matches_of
        added = tuple(
            PTQAnswer(mapping_id, probabilities[mapping_id], matches_of(mapping_id))
            for mapping_id in (top if changed else ())
            if changed >> mapping_id & 1
        )
        removed = tuple(iter_mapping_ids(standing.members & ~members))
        standing.result = result
        standing.members = members
        standing.probabilities = probabilities
        return SubscriptionUpdate(
            subscription_id=subscription_id,
            query=standing.prepared.cache_key,
            k=standing.k,
            kind="structural",
            generation=notice.generation,
            delta_epoch=notice.epoch,
            added=added,
            removed=removed,
            rescored=rescored,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Counters of the registry: registrations, classification, delivery."""
        with self._table_lock:
            standing_queries = len(self._table)
            subscribers = sum(len(sq.subscribers) for sq in self._table.values())
        with self._stats_lock:
            return {
                "standing_queries": standing_queries,
                "subscribers": subscribers,
                "subscribed": self._subscribed,
                "cancelled": self._cancelled,
                "batches": self._batches,
                "unaffected": self._unaffected,
                "reweight_only": self._reweight_only,
                "structural": self._structural,
                "notifications": self._notifications,
                "suppressed": self._suppressed,
                "callback_errors": self._callback_errors,
                "update_errors": self._update_errors,
            }

    def __len__(self) -> int:
        with self._table_lock:
            return len(self._table)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SubscriptionRegistry(standing={stats['standing_queries']}, "
            f"subscribers={stats['subscribers']}, "
            f"notifications={stats['notifications']})"
        )
