"""Prepared queries and the fluent query builder.

A :class:`PreparedQuery` is a twig query compiled against one
:class:`~repro.engine.dataspace.Dataspace` session.  The resolve step (query →
target-schema embeddings) runs once per prepared query, together with the two
values derived from it: the filter signature (the target-element sets the
embeddings require) and the required-target bitmask.  The filter step
(relevant mappings) is memoised in one place, the session's shared filter
cache, keyed by ``(generation, signature, delta_epoch)``: distinct queries
that require the same target elements share one ``filter_mappings`` pass, and
a reconfigured or delta-patched session refreshes exactly the work that went
stale.

Execution is snapshot-based and thread-safe: each :meth:`PreparedQuery.execute`
captures (or receives) a consistent :class:`~repro.engine.dataspace.EngineSnapshot`
and consults the session's result cache under a key that includes the
snapshot's generation, so concurrent reconfiguration can neither tear an
evaluation nor let a stale cached answer escape.  ``execute()`` and
``explain()`` share one read step in two halves: the lookup (a
retain-on-miss cache lookup) and, on a miss, the run (the plan run and the
cache put).
:meth:`PreparedQuery.cached` is the lookup half alone, for callers that must
never evaluate or block.

:class:`QueryBuilder` is the immutable fluent front-end::

    result = ds.query("Order/DeliverTo/Contact/EMail").top_k(10).execute()
    report = ds.query("Q7").plan("basic").explain()

Each builder method returns a new builder, so partially-configured builders
can be shared and specialised without aliasing surprises.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional, Union

from repro.engine.cache import CacheKey
from repro.engine.delta import embeddings_target_mask
from repro.engine.plans import (
    ExplainReport,
    QueryPlan,
    anchored_subtree_paths,
    plan_for,
    select_top_k,
)
from repro.mapping.mapping_set import MappingSubset
from repro.query.ptq import derive_rewrites
from repro.query.resolve import Embedding, resolve_query
from repro.query.results import PTQResult
from repro.query.twig import TwigQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.dataspace import Dataspace, EngineSnapshot

__all__ = ["PreparedQuery", "QueryBuilder"]

PlanSpec = Union[str, QueryPlan, None]


class PreparedQuery:
    """A twig query compiled against a session (see module docstring).

    Obtain instances through :meth:`Dataspace.prepare` (or the fluent
    :meth:`Dataspace.query`); the session caches them per query text.
    ``resolve_count`` records how often the resolve stage ran (never more
    than once); how often the filter stage ran is counted by the session's
    filter cache (``Dataspace.cache_stats()["filter_cache"]``).
    """

    def __init__(
        self, dataspace: "Dataspace", query: TwigQuery, cache_key: Optional[str] = None
    ) -> None:
        self._dataspace = dataspace
        self._query = query
        self._cache_key = cache_key if cache_key is not None else (
            query.text or f"<twig:{id(query)}>"
        )
        self._memo_lock = threading.Lock()
        self._resolved: Optional[tuple[list[Embedding], frozenset, int]] = None
        #: Number of times the resolve stage ran (never more than once).
        self.resolve_count = 0

    # ------------------------------------------------------------------ #
    # Cached pipeline stages
    # ------------------------------------------------------------------ #
    @property
    def dataspace(self) -> "Dataspace":
        """The session this query was prepared against."""
        return self._dataspace

    @property
    def query(self) -> TwigQuery:
        """The compiled twig query."""
        return self._query

    @property
    def text(self) -> str:
        """The query's text form."""
        return self._query.text

    @property
    def cache_key(self) -> str:
        """Stable key identifying this query in the session's caches."""
        return self._cache_key

    def _resolve(self) -> tuple[list[Embedding], frozenset, int]:
        """``(embeddings, filter signature, required-target mask)``, resolved once.

        The filter signature — the target-element sets the embeddings
        require — keys the session's filter cache: queries with equal
        signatures have, by construction of
        :func:`~repro.query.ptq.filter_mappings`, the same relevant mappings.
        """
        resolved = self._resolved
        if resolved is None:  # read without the lock: set once, never changed
            with self._memo_lock:
                if self._resolved is None:
                    embeddings = resolve_query(self._query, self._dataspace.target_schema)
                    signature = frozenset(frozenset(e.values()) for e in embeddings)
                    self._resolved = (
                        embeddings, signature, embeddings_target_mask(embeddings)
                    )
                    self.resolve_count += 1
                resolved = self._resolved
        return resolved

    @property
    def embeddings(self) -> list[Embedding]:
        """Embeddings of the query into the target schema (resolved once)."""
        return self._resolve()[0]

    def required_target_mask(self) -> int:
        """Bitmask of every target element the query's embeddings require.

        The query side of the delta retention check (see
        :meth:`~repro.engine.cache.ResultCache.lookup`); computed once per
        prepared query from the resolved embeddings.
        """
        return self._resolve()[2]

    def relevant_mappings(
        self, snapshot: Optional["EngineSnapshot"] = None
    ) -> MappingSubset:
        """Relevant mappings (with their bitmask) at ``snapshot``'s state.

        Served by :meth:`~repro.engine.dataspace.Dataspace.relevant_for`,
        which memoises the filter step in the session's filter cache per
        ``(generation, signature, delta_epoch)``.
        """
        return self._dataspace.relevant_for(self, snapshot)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _result_key(
        self, plan: QueryPlan, k: Optional[int], snapshot: "EngineSnapshot"
    ) -> CacheKey:
        """Result-cache key: query, plan, k, tau and snapshot identity."""
        return CacheKey(
            query=self._cache_key,
            plan=plan.name,
            k=k,
            tau=snapshot.tau,
            generation=snapshot.generation,
            document_version=snapshot.document_version,
            delta_epoch=snapshot.delta_epoch,
        )

    def _plan_and_snapshot(
        self, plan: PlanSpec, snapshot: Optional["EngineSnapshot"]
    ) -> tuple[QueryPlan, "EngineSnapshot"]:
        """The plan to run and a snapshot that can run it.

        A forced ``plan`` goes through :func:`plan_for`; otherwise the plan
        comes from :meth:`Dataspace.plan_decision
        <repro.engine.dataspace.Dataspace.plan_decision>`, so ``execute()``
        and ``explain()`` always agree on it.
        """
        ds = self._dataspace
        chosen = plan_for(plan if plan is not None else ds.plan_decision(self))
        if snapshot is None:
            return chosen, ds.snapshot(need_tree=chosen.uses_block_tree)
        if chosen.uses_block_tree and snapshot.block_tree is None:
            # A shared batch snapshot taken without the tree cannot run the
            # tree plan; the default needs no tree.
            chosen = plan_for("compiled")
        return chosen, snapshot

    def execute(
        self,
        *,
        k: Optional[int] = None,
        plan: PlanSpec = None,
        snapshot: Optional["EngineSnapshot"] = None,
        use_cache: bool = True,
    ) -> PTQResult:
        """Evaluate the query against one consistent session snapshot.

        Parameters
        ----------
        k:
            Optional top-k restriction (Definition 5).
        plan:
            Optional plan override (name or :class:`QueryPlan`); when
            omitted the ``compiled`` plan runs.  All plans are
            byte-identical, so the choice only affects time.
        snapshot:
            Evaluate against this pre-captured snapshot instead of taking a
            fresh one (batch executors pass the batch's shared snapshot).
        use_cache:
            Consult/populate the session's result cache (default ``True``).
            Cached results are shared objects — treat them as read-only.
        """
        chosen, snap = self._plan_and_snapshot(plan, snapshot)
        result, _ = self._evaluate(chosen, snap, k, self.relevant_mappings(snap), use_cache)
        return result

    def cached(self, *, k: Optional[int] = None, plan: PlanSpec = None) -> Optional[PTQResult]:
        """The result ``execute(k=k, plan=plan)`` would serve from the cache, or ``None``.

        The lookup half of :meth:`execute` alone, for a caller that must not
        block (the server's event loop).  It reads the session's published
        state without a lock, so a writer in progress never delays it: the
        answer comes from the last published state.  It builds no artifact,
        resolves nothing and runs no plan: it returns ``None`` while the
        query is unresolved or an artifact the plan needs is unbuilt.
        Without the filter step it has no relevant-mapping mask, so any
        reweight since an entry's epoch counts as touching the query
        (retention stays sound, only more conservative than in
        :meth:`execute`).  A miss is not counted — the caller falls back to
        :meth:`execute`, which counts it — while a hit counts exactly as an
        ``execute()`` hit would.
        """
        if self._resolved is None:
            return None
        ds = self._dataspace
        chosen = plan_for(plan if plan is not None else ds.plan_decision(self))
        snap = ds._state
        if not snap.ready(chosen.uses_block_tree):
            return None
        return self._lookup(self._result_key(chosen, k, snap), -1, count_miss=False)[0]

    def _lookup(
        self, key: CacheKey, mapping_mask: int, count_miss: bool = True
    ) -> tuple[Optional[PTQResult], str]:
        """The lookup half of the read step: ``(cached result or None, state)``.

        Retain-on-miss: after an applied delta, an entry written at an
        earlier ``delta_epoch`` survives when the delta provably did not
        touch ``mapping_mask`` (the query's relevant mappings) or the
        query's required target elements.  ``state`` is ``"hit"``,
        ``"retained"`` or ``"miss"``.
        """
        return self._dataspace.result_cache.lookup(
            key, mapping_mask, self.required_target_mask(), count_miss=count_miss
        )

    def _evaluate(
        self,
        chosen: QueryPlan,
        snap: "EngineSnapshot",
        k: Optional[int],
        relevant: MappingSubset,
        use_cache: bool,
    ) -> tuple[PTQResult, str]:
        """The one read step of ``execute()`` and ``explain()``: lookup, then run.

        Returns the result and the cache state: ``"hit"``, ``"retained"``,
        ``"miss"`` or ``"bypass"``.
        """
        if not use_cache:
            return self._run(chosen, snap, k, relevant), "bypass"
        key = self._result_key(chosen, k, snap)
        cached, state = self._lookup(key, relevant.mask)
        if cached is not None:
            return cached, state
        return self._dataspace.result_cache.put(key, self._run(chosen, snap, k, relevant)), state

    def _run(
        self,
        chosen: QueryPlan,
        snap: "EngineSnapshot",
        k: Optional[int],
        relevant: MappingSubset,
    ) -> PTQResult:
        """The run half of the read step: run ``chosen`` on ``snap``."""
        return chosen.run(
            self._query,
            snap.mapping_set,
            snap.document,
            block_tree=snap.block_tree if chosen.uses_block_tree else None,
            embeddings=self.embeddings,
            relevant=relevant,
            k=k,
        )

    def explain(
        self,
        *,
        k: Optional[int] = None,
        plan: PlanSpec = None,
        snapshot: Optional["EngineSnapshot"] = None,
        use_cache: bool = True,
    ) -> ExplainReport:
        """Execute the query and report plan choice, inputs and stage timings."""
        ds = self._dataspace
        chosen, snap = self._plan_and_snapshot(plan, snapshot)
        reason = "default plan" if plan is None else "forced by caller"
        timings: dict[str, float] = {}

        started = time.perf_counter()
        embeddings = self.embeddings
        timings["resolve"] = (time.perf_counter() - started) * 1000.0

        mapping_set = snap.mapping_set
        started = time.perf_counter()
        relevant = self.relevant_mappings(snap)
        timings["filter"] = (time.perf_counter() - started) * 1000.0

        block_tree = snap.block_tree if chosen.uses_block_tree else None
        started = time.perf_counter()
        result, cache_state = self._evaluate(chosen, snap, k, relevant, use_cache)
        timings["evaluate"] = (time.perf_counter() - started) * 1000.0

        num_selected = len(relevant) if k is None else min(k, len(relevant))
        anchored = (
            anchored_subtree_paths(self._query, embeddings, block_tree)
            if block_tree is not None
            else ()
        )
        compiled_stats = None
        if chosen.uses_compiled:
            compiled = mapping_set.compile()
            selected = relevant if k is None else select_top_k(relevant, k, compiled)
            selected_mask = compiled.mask_for(selected)
            compiled_stats = compiled.rewrite_stats(
                derive_rewrites(self._query, compiled, embeddings, selected_mask),
                selected_mask,
            )
        return ExplainReport(
            query=self.text,
            plan=chosen.name,
            reason=reason,
            num_mappings=len(mapping_set),
            num_embeddings=len(embeddings),
            num_relevant=len(relevant),
            relevant_mapping_ids=tuple(mapping.mapping_id for mapping in relevant),
            k=k,
            num_selected=num_selected,
            num_blocks=block_tree.num_blocks if block_tree is not None else None,
            anchored_paths=anchored,
            timings_ms=timings,
            num_answers=len(result),
            num_non_empty=len(result.non_empty()),
            cache=cache_state,
            cache_stats=ds.result_cache.stats().to_dict() if use_cache else None,
            compiled_stats=compiled_stats,
            artifacts=ds.artifact_provenance() or None,
        )

    def __repr__(self) -> str:
        return f"PreparedQuery({self.text!r}, dataspace={self._dataspace.name!r})"


class QueryBuilder:
    """Immutable fluent builder over a :class:`PreparedQuery` (see module docs)."""

    __slots__ = ("_prepared", "_k", "_plan", "_use_cache")

    def __init__(
        self,
        prepared: PreparedQuery,
        k: Optional[int] = None,
        plan: PlanSpec = None,
        use_cache: bool = True,
    ) -> None:
        self._prepared = prepared
        self._k = k
        self._plan = plan
        self._use_cache = use_cache

    @property
    def prepared(self) -> PreparedQuery:
        """The underlying prepared query (shared across derived builders)."""
        return self._prepared

    def top_k(self, k: int) -> "QueryBuilder":
        """Return a builder restricted to the ``k`` most probable answers."""
        return QueryBuilder(self._prepared, k, self._plan, self._use_cache)

    def plan(self, plan: Union[str, QueryPlan]) -> "QueryBuilder":
        """Return a builder forced onto a specific evaluation plan."""
        return QueryBuilder(self._prepared, self._k, plan, self._use_cache)

    def no_cache(self) -> "QueryBuilder":
        """Return a builder that bypasses the session's result cache."""
        return QueryBuilder(self._prepared, self._k, self._plan, use_cache=False)

    def execute(self) -> PTQResult:
        """Evaluate with the builder's settings."""
        return self._prepared.execute(k=self._k, plan=self._plan, use_cache=self._use_cache)

    def explain(self) -> ExplainReport:
        """Evaluate and report how (plan, inputs, timings)."""
        return self._prepared.explain(k=self._k, plan=self._plan, use_cache=self._use_cache)

    def __repr__(self) -> str:
        plan = self._plan.name if isinstance(self._plan, QueryPlan) else self._plan
        return f"QueryBuilder({self._prepared.text!r}, k={self._k}, plan={plan})"
