"""The :class:`Dataspace` engine facade — a stateful session over one schema pair.

The paper's system is meant to live inside a dataspace: the uncertain schema
matching is derived once, its top-h possible mappings and block tree are kept
cached, and probabilistic twig queries are answered continuously against that
representation.  :class:`Dataspace` is that session object.  It owns the
pipeline artifacts (matching → mapping set → block tree → source document),
builds each lazily on first use, memoizes it, and invalidates exactly the
affected suffix of the pipeline when configuration changes:

========================  =============================================
change                    invalidates
========================  =============================================
``matcher_config``        matching, mapping set, block tree (generation bump)
``h`` / ``method``        mapping set, block tree (generation bump)
``tau`` / block budgets   block tree only
``apply_delta(...)``      nothing wholesale — delta-epoch bump only
``apply_delta_batch(…)``  same — one epoch bump for the whole batch
========================  =============================================

Mapping evolution does **not** go through invalidation at all:
:meth:`Dataspace.apply_delta` patches the mapping set structurally, reuses
the untouched columns of the compiled artifact, and bumps only the
fine-grained ``delta_epoch`` counter — cached results whose inputs the delta
provably did not touch keep serving (see :mod:`repro.engine.delta`).

The *generation* and *delta_epoch* counters key the session's filter cache,
so a reconfigured session transparently refreshes exactly the work that went
stale.  The compiled bitset view of the mapping set
(:mod:`repro.engine.compiled`, the default plan's substrate) is memoized on
the mapping set itself, so whatever invalidates the mapping set retires the
compiled artifact with it.

Concurrency
-----------
A session is safe to share between threads.  Its mapping-set state —
generation, document version, delta epoch, tau, and the built matching,
mapping set, document and block tree — is one immutable
:class:`EngineSnapshot` held in one attribute.  Readers take no lock: each
reads that attribute once and works off the object it got, so a result is
computed entirely against one state and a mid-flight write can never tear
it.  Writers (``configure()``, ``invalidate()``, ``set_document()``, delta
commits and the lazy artifact builds) serialise on one plain mutex, build
the next state and publish it with one reference assignment — each write
yields a new root, as in a copy-on-write tree.

Two bounded LRU caches ride on the session (see
:class:`~repro.engine.cache.ResultCache`):

* the **result cache** memoizes evaluated :class:`PTQResult` objects under
  ``(query, plan, k, tau, generation, document version)`` — stale entries
  are unreachable by construction, never served;
* the **filter cache** shares the ``filter_mappings`` prefix across queries
  whose embeddings require the same target-element sets (the cross-query
  extension of the paper's amortisation argument for Algorithm 4).

Typical usage::

    ds = Dataspace.from_dataset("D7", h=100)
    result = ds.query("Order/DeliverTo/Contact/EMail").top_k(10).execute()
    report = ds.query("Q7").explain()          # which plan ran, and why
    results = ds.query_batch(["Q1", "Q2", "Q3"])   # one shared snapshot
"""

from __future__ import annotations

import itertools
import threading
import time
import warnings
import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Union

from repro.core.blocktree import BlockTree, BlockTreeConfig, build_block_tree
from repro.document.document import XMLDocument
from repro.document.generator import generate_document
from repro.engine.cache import CacheKey, ResultCache
from repro.engine.delta import DeltaReport, MappingDelta
from repro.engine.plans import plan_for
from repro.engine.prepared import PlanSpec, PreparedQuery, QueryBuilder
from repro.engine.streaming import (
    DeltaBatch,
    DeltaBatchReport,
    Subscription,
    SubscriptionRegistry,
    SubscriptionUpdate,
    apply_delta_batch,
)
from repro.exceptions import (
    DataspaceError,
    PersistFailedWarning,
    StoreError,
    StoreFallbackWarning,
)
from repro.mapping.generator import GenerationMethod, generate_top_h_mappings
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import MappingSet, MappingSubset
from repro.matching.matcher import MatcherConfig, SchemaMatcher
from repro.matching.matching import SchemaMatching
from repro.query.normalize import canonical_text
from repro.query.parser import parse_twig
from repro.query.ptq import filter_mappings
from repro.query.results import PTQAnswer, PTQResult
from repro.query.twig import TwigQuery
from repro.schema.schema import Schema
from repro.store.artifacts import ArtifactStore, SessionBundle
from repro.workloads.datasets import DATASET_SPECS, build_mapping_set, load_dataset, load_source_document
from repro.workloads.queries import QUERY_ALIASES, QUERY_STRINGS, load_query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Executor

    from repro.engine.compiled import CompiledMappingSet

__all__ = ["Dataspace", "EngineSnapshot"]

_UNSET = object()

#: Bound on cached PreparedQuery objects per session: a long-lived serving
#: session receiving ad-hoc query texts must not grow without limit.  An
#: evicted query is simply re-prepared (and re-resolves) on next use.
_PREPARED_CACHE_CAPACITY = 512


class _FilterKey(NamedTuple):
    """Filter-cache key: the shared ``filter_mappings`` prefix of one epoch.

    A :class:`~typing.NamedTuple` with a ``delta_epoch`` field (like
    :class:`~repro.engine.cache.CacheKey`) so
    :meth:`~repro.engine.cache.ResultCache.lookup` can probe earlier epochs
    of the same signature and promote a surviving prefix instead of
    recomputing it — closing the per-epoch filter recompute.
    """

    generation: int
    signature: frozenset
    delta_epoch: int


@dataclass(frozen=True)
class EngineSnapshot:
    """One immutable state of a session, published whole.

    The session holds its current state in one attribute and replaces it
    with one reference assignment per write, so a reader that holds a
    snapshot sees one consistent state however the session moves on.  An
    artifact is ``None`` until built; :meth:`Dataspace.snapshot` returns a
    state whose mapping set and document are built (and its block tree,
    unless ``need_tree=False``).  ``provenance`` is copied on every change,
    never mutated once published.
    """

    generation: int
    document_version: int
    delta_epoch: int
    tau: float
    mapping_set: Optional[MappingSet] = None
    document: Optional[XMLDocument] = None
    block_tree: Optional[BlockTree] = None
    matching: Optional[SchemaMatching] = None
    provenance: dict = field(default_factory=dict)

    def ready(self, need_tree: bool) -> bool:
        """Whether the artifacts a query evaluation needs are built."""
        return (
            self.mapping_set is not None
            and self.document is not None
            and (self.block_tree is not None or not need_tree)
        )


def _noting(
    state: EngineSnapshot, artifact: str, started: float, **changes
) -> EngineSnapshot:
    """``state`` with ``changes``, recording ``artifact`` as built since ``started``."""
    provenance = {
        **state.provenance,
        artifact: {"source": "built", "ms": round((time.perf_counter() - started) * 1000.0, 3)},
    }
    return replace(state, provenance=provenance, **changes)


class Dataspace:
    """A stateful, thread-safe engine session over one source/target schema pair.

    Construct directly from two schemas, or with :meth:`from_dataset` (one of
    the paper's Table II datasets), :meth:`from_matching` (a pre-computed
    schema matching) or :meth:`from_mapping_set` (a pre-computed mapping
    set).  See the module docstring for the caching/invalidation contract and
    the concurrency guarantees.

    Parameters
    ----------
    source_schema, target_schema:
        The schema pair the session manages.
    h:
        Size of the possible-mapping set (the paper's default is 100).
    method:
        Mapping-generation method, ``"partition"`` or ``"murty"``.
    matcher_config:
        Optional :class:`MatcherConfig` override; when ``None`` the session
        uses the dataset's configured matcher (dataset sessions) or the
        default matcher.
    tau, max_blocks, max_failures:
        Block-tree construction parameters (Definition 2 / Algorithm 2).
    document:
        Optional source document; when omitted, dataset sessions load the
        workload document and schema-pair sessions generate one from the
        source schema on first use.
    document_nodes:
        Approximate node budget for a generated document.
    seed:
        Base seed for matcher noise and document generation.
    name:
        Session name; defaults to ``"<source>-><target>"``.
    cache_size:
        Capacity of the session's result cache (``0`` disables caching).
    """

    def __init__(
        self,
        source_schema: Schema,
        target_schema: Schema,
        *,
        h: int = 100,
        method: Union[str, GenerationMethod] = GenerationMethod.PARTITION,
        matcher_config: Optional[MatcherConfig] = None,
        tau: float = 0.2,
        max_blocks: int = 500,
        max_failures: int = 500,
        document: Optional[XMLDocument] = None,
        document_nodes: Optional[int] = None,
        seed: Optional[int] = None,
        name: Optional[str] = None,
        cache_size: int = 128,
    ) -> None:
        if h < 1:
            raise DataspaceError(f"h must be at least 1, got {h}")
        self.source_schema = source_schema
        self.target_schema = target_schema
        self.name = name or f"{source_schema.name}->{target_schema.name}"
        self._h = h
        self._method = GenerationMethod(method).value
        self._matcher_config = matcher_config
        # Validate the block-tree parameters eagerly, not on first build.
        BlockTreeConfig(tau=tau, max_blocks=max_blocks, max_failures=max_failures)
        self._max_blocks = max_blocks
        self._max_failures = max_failures
        self._seed = seed
        self._dataset_id: Optional[str] = None
        if document is not None:
            self._check_document(document)
        self._document_nodes = document_nodes
        self._pinned_matching = False
        self._pinned_mapping_set = False
        # The published state (see the module docstring): read without a
        # lock, replaced whole under _write_lock.
        self._state = EngineSnapshot(
            generation=0, document_version=0, delta_epoch=0, tau=tau, document=document
        )
        self._write_lock = threading.Lock()
        self._prepared: ResultCache = ResultCache(_PREPARED_CACHE_CAPACITY)
        # Query text as given -> canonical key, so a repeated text skips the
        # parse and normalization that dominate a result-cache hit.
        self._canonical_keys: ResultCache = ResultCache(_PREPARED_CACHE_CAPACITY)
        # Caller-supplied twigs get a session-unique key from a monotonic
        # counter, remembered per live twig object: unlike a raw id(), a key
        # can never be reissued to a different twig after garbage collection,
        # so cached results can never alias across twig objects.
        self._twig_keys: "weakref.WeakKeyDictionary[TwigQuery, str]" = (
            weakref.WeakKeyDictionary()
        )
        self._twig_key_counter = itertools.count()
        self._twig_key_lock = threading.Lock()
        self._result_cache = ResultCache(cache_size)
        # cache_size=0 disables *all* caching, including filter sharing.
        # Otherwise the filter cache holds one signature per prepared query
        # the session can keep, so no prepared query refilters while hot.
        self._filter_cache = ResultCache(0 if cache_size == 0 else _PREPARED_CACHE_CAPACITY)
        self._cache_size = cache_size
        # Persistence state: the attached artifact store (None until a store
        # is attached via from_dataset(store=...) / from_store / persist) and
        # the ref the session persists under.
        self._store: Optional[ArtifactStore] = None
        self._store_ref: Optional[str] = None
        # Delta write-through failures (see apply_delta): persistence stays
        # best-effort, but every failure is counted and the first one warns.
        self._persist_failures = 0
        self._persist_failure_warned = False
        # Standing queries: registered once, notified incrementally from the
        # dirty masks of every committed delta batch (see engine.streaming).
        self._subscriptions = SubscriptionRegistry(self)

    # ------------------------------------------------------------------ #
    # Alternative constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataset(
        cls,
        dataset_id: str,
        *,
        h: int = 100,
        method: Union[str, GenerationMethod] = GenerationMethod.PARTITION,
        tau: float = 0.2,
        max_blocks: int = 500,
        max_failures: int = 500,
        document: Optional[XMLDocument] = None,
        seed: Optional[int] = None,
        cache_size: int = 128,
        store=None,
        matching: Optional[SchemaMatching] = None,
    ) -> "Dataspace":
        """Open a session on one of the paper's Table II datasets (``"D1"``…``"D10"``).

        Dataset sessions share the workload layer's caches (matching, mapping
        set, source document), accept query ids (``"Q1"``…``"Q10"``) and
        expand the paper's label abbreviations (``UP``, ``BPID``, …) when
        parsing query strings.

        ``store`` attaches a persistent artifact store (a
        :class:`~repro.store.BlockStore` or
        :class:`~repro.store.ArtifactStore`): when it holds a session
        persisted under the same ``(dataset, h, method, seed)``
        configuration, the matching, mapping set, compiled columns and
        document are *loaded* instead of derived — skipping the matcher run
        entirely — and any corruption or configuration mismatch degrades to
        the normal cold build.  On a miss the store stays attached, so a
        later :meth:`persist` (and every :meth:`apply_delta` write-through)
        targets it.  ``matching`` supplies a pre-computed schema matching,
        short-circuiting the eager dataset load the same way.
        """
        key = dataset_id.strip().upper()
        if store is not None and document is None and key in DATASET_SPECS:
            session = cls._from_dataset_store(
                store,
                key,
                h=h,
                method=method,
                tau=tau,
                max_blocks=max_blocks,
                max_failures=max_failures,
                seed=seed,
                cache_size=cache_size,
            )
            if session is not None:
                return session
        if matching is not None:
            session = cls(
                matching.source,
                matching.target,
                h=h,
                method=method,
                tau=tau,
                max_blocks=max_blocks,
                max_failures=max_failures,
                document=document,
                seed=seed,
                name=key,
                cache_size=cache_size,
            )
            session._dataset_id = key
            session._publish(matching=matching)
        else:
            started = time.perf_counter()
            dataset = load_dataset(dataset_id, seed=seed)
            elapsed = (time.perf_counter() - started) * 1000.0
            session = cls(
                dataset.source_schema,
                dataset.target_schema,
                h=h,
                method=method,
                tau=tau,
                max_blocks=max_blocks,
                max_failures=max_failures,
                document=document,
                seed=seed,
                name=dataset.dataset_id,
                cache_size=cache_size,
            )
            session._dataset_id = dataset.dataset_id
            session._publish(
                matching=dataset.matching,
                provenance={"matching": {"source": "built", "ms": round(elapsed, 3)}},
            )
        if store is not None:
            session._store = ArtifactStore.wrap(store)
            session._store_ref = cls._dataset_ref(key, h=h, method=method, seed=seed)
        return session

    @staticmethod
    def _dataset_ref(
        dataset_id: str, *, h: int, method: Union[str, GenerationMethod], seed: Optional[int]
    ) -> str:
        """The store ref a dataset session persists under (config-qualified)."""
        normalized = GenerationMethod(method).value
        return f"dataspace/{dataset_id}?h={h}&method={normalized}&seed={seed}"

    @classmethod
    def _from_dataset_store(
        cls,
        store,
        dataset_id: str,
        *,
        h: int,
        method: Union[str, GenerationMethod],
        tau: float,
        max_blocks: int,
        max_failures: int,
        seed: Optional[int],
        cache_size: int,
    ) -> Optional["Dataspace"]:
        """Try reopening a dataset session from ``store``; ``None`` on a miss.

        An absent ref or a configuration mismatch (stale signature) is a
        silent miss — that is the normal cold-start path.  A *corrupted*
        store — checksum failure, truncated or malformed payload, i.e. any
        :class:`StoreError` raised mid-load — also degrades to the cold
        build, but emits a :class:`~repro.exceptions.StoreFallbackWarning`
        naming the ref and the
        failure so operators can see their persisted artifacts are being
        ignored rather than served.  Any other exception type is a bug, not
        a store miss, and propagates.
        """
        ref = cls._dataset_ref(dataset_id, h=h, method=method, seed=seed)
        try:
            artifact_store = ArtifactStore.wrap(store)
            bundle = artifact_store.load_session(
                ref,
                expect={
                    "dataset_id": dataset_id,
                    "h": h,
                    "method": GenerationMethod(method).value,
                    "seed": seed,
                },
            )
        except StoreError as exc:
            warnings.warn(
                f"artifact store failed loading session {ref!r} "
                f"({exc}); falling back to a cold build",
                StoreFallbackWarning,
                stacklevel=3,
            )
            return None
        if bundle is None:
            return None
        session = cls(
            bundle.source_schema,
            bundle.target_schema,
            h=h,
            method=method,
            tau=tau,
            max_blocks=max_blocks,
            max_failures=max_failures,
            document=bundle.document,
            seed=seed,
            name=dataset_id,
            cache_size=cache_size,
        )
        session._dataset_id = dataset_id
        session._adopt_bundle(artifact_store, bundle)
        return session

    @classmethod
    def from_store(cls, store, ref: str) -> "Dataspace":
        """Reopen a session persisted under ``ref`` — whatever its pedigree.

        Unlike the ``store=`` fast path of :meth:`from_dataset` (which falls
        back to a cold build), this constructor has nothing to fall back to,
        so a missing ref or corrupt artifact raises :class:`StoreError`.
        The persisted configuration (``h``, ``method``, ``tau``, block-tree
        budgets, pinned-artifact flags) is restored verbatim.
        """
        artifact_store = ArtifactStore.wrap(store)
        bundle = artifact_store.load_session(ref)
        if bundle is None:
            raise StoreError(f"no session persisted under ref {ref!r}")
        config = bundle.config
        session = cls(
            bundle.source_schema,
            bundle.target_schema,
            h=int(config.get("h", 100)),
            method=config.get("method", GenerationMethod.PARTITION),
            tau=float(config.get("tau", 0.2)),
            max_blocks=int(config.get("max_blocks", 500)),
            max_failures=int(config.get("max_failures", 500)),
            document=bundle.document,
            seed=config.get("seed"),
            name=config.get("name"),
            cache_size=int(config.get("cache_size", 128)),
        )
        session._dataset_id = config.get("dataset_id")
        session._pinned_matching = bool(config.get("pinned_matching"))
        session._pinned_mapping_set = bool(config.get("pinned_mapping_set"))
        session._adopt_bundle(artifact_store, bundle)
        return session

    def _adopt_bundle(self, store: ArtifactStore, bundle: SessionBundle) -> None:
        """Install a loaded :class:`~repro.store.SessionBundle` into this session."""
        signature = bundle.signature
        state = self._publish(
            matching=bundle.matching,
            mapping_set=bundle.mapping_set,
            generation=int(signature.get("generation", 0)),
            document_version=int(signature.get("document_version", 0)),
            delta_epoch=int(signature.get("delta_epoch", 0)),
            provenance={
                name: {"source": "loaded", "ms": round(ms, 3)}
                for name, ms in bundle.load_ms.items()
            },
        )
        self._store = store
        self._store_ref = bundle.ref
        self._restore_results(state, bundle.results)

    def _publish(self, **changes) -> EngineSnapshot:
        """Publish the current state with ``changes``; returns the new state."""
        with self._write_lock:
            state = self._state = replace(self._state, **changes)
        return state

    def _restore_results(self, state: EngineSnapshot, rows: list[dict]) -> None:
        """Repopulate the result cache from persisted entries (best effort)."""
        for row in rows:
            try:
                key_fields = row["key"]
                twig = self._as_twig(key_fields["query"])
                answers = [
                    PTQAnswer(
                        mapping_id=mapping_id,
                        probability=probability,
                        matches=frozenset(
                            tuple((q, n) for q, n in match) for match in matches
                        ),
                    )
                    for mapping_id, probability, matches in row["answers"]
                ]
                key = CacheKey(
                    query=canonical_text(twig),
                    plan=key_fields["plan"],
                    k=key_fields["k"],
                    tau=key_fields["tau"],
                    generation=state.generation,
                    document_version=state.document_version,
                    delta_epoch=state.delta_epoch,
                )
                self._result_cache.put(
                    key, PTQResult(twig, answers, document=state.document)
                )
            except Exception:
                # One malformed entry never poisons the reopen: the result
                # is simply recomputed on first use.
                continue

    @classmethod
    def from_matching(
        cls,
        matching: SchemaMatching,
        *,
        h: int = 100,
        method: Union[str, GenerationMethod] = GenerationMethod.PARTITION,
        tau: float = 0.2,
        max_blocks: int = 500,
        max_failures: int = 500,
        document: Optional[XMLDocument] = None,
        document_nodes: Optional[int] = None,
        seed: Optional[int] = None,
        name: Optional[str] = None,
        cache_size: int = 128,
    ) -> "Dataspace":
        """Open a session over a pre-computed schema matching.

        The matching is pinned: reconfiguring ``matcher_config`` on such a
        session raises :class:`DataspaceError` because the session cannot
        rebuild what it did not derive.
        """
        session = cls(
            matching.source,
            matching.target,
            h=h,
            method=method,
            tau=tau,
            max_blocks=max_blocks,
            max_failures=max_failures,
            document=document,
            document_nodes=document_nodes,
            seed=seed,
            name=name or matching.name,
            cache_size=cache_size,
        )
        session._publish(matching=matching)
        session._pinned_matching = True
        return session

    @classmethod
    def from_mapping_set(
        cls,
        mapping_set: MappingSet,
        *,
        tau: float = 0.2,
        max_blocks: int = 500,
        max_failures: int = 500,
        document: Optional[XMLDocument] = None,
        document_nodes: Optional[int] = None,
        name: Optional[str] = None,
        cache_size: int = 128,
    ) -> "Dataspace":
        """Open a session over a pre-computed mapping set.

        Both the matching and the mapping set are pinned; ``h``, ``method``
        and ``matcher_config`` cannot be reconfigured on such a session.
        """
        session = cls.from_matching(
            mapping_set.matching,
            h=len(mapping_set),
            tau=tau,
            max_blocks=max_blocks,
            max_failures=max_failures,
            document=document,
            document_nodes=document_nodes,
            name=name,
            cache_size=cache_size,
        )
        session._publish(mapping_set=mapping_set)
        session._pinned_mapping_set = True
        return session

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def h(self) -> int:
        """Size of the possible-mapping set."""
        return self._h

    @property
    def method(self) -> str:
        """Mapping-generation method (``"partition"`` or ``"murty"``)."""
        return self._method

    @property
    def tau(self) -> float:
        """Block-tree confidence threshold τ."""
        return self._state.tau

    @property
    def matcher_config(self) -> Optional[MatcherConfig]:
        """Matcher override, or ``None`` for the session default."""
        return self._matcher_config

    @property
    def dataset_id(self) -> Optional[str]:
        """Table II dataset id for dataset sessions, else ``None``."""
        return self._dataset_id

    @property
    def generation(self) -> int:
        """Mapping-set generation; bumped whenever the mapping set is invalidated."""
        return self._state.generation

    @property
    def document_version(self) -> int:
        """Source-document version; bumped by :meth:`set_document`."""
        return self._state.document_version

    @property
    def delta_epoch(self) -> int:
        """Fine-grained delta counter; bumped by :meth:`apply_delta`.

        Monotonic for the session's lifetime (it does *not* reset when the
        generation bumps), so a ``(generation, delta_epoch)`` pair uniquely
        identifies one mapping-set state of the session.
        """
        return self._state.delta_epoch

    def configure(
        self,
        *,
        h: Optional[int] = None,
        method: Optional[Union[str, GenerationMethod]] = None,
        matcher_config=_UNSET,
        tau: Optional[float] = None,
        max_blocks: Optional[int] = None,
        max_failures: Optional[int] = None,
    ) -> "Dataspace":
        """Reconfigure the session, invalidating only the affected artifacts.

        Returns ``self`` so calls chain fluently.  See the module docstring
        for the invalidation table.  Safe to call while other threads are
        querying: the whole reconfiguration is validated first and published
        as one new state, so readers observe either the old or the new
        generation, never a mix, and a rejected call changes nothing.

        Raises
        ------
        DataspaceError
            When changing a parameter that a pinned artifact depends on
            (e.g. ``h`` on a session built with :meth:`from_mapping_set`).
        """
        with self._write_lock:
            state = self._state
            new_matcher = matcher_config is not _UNSET and matcher_config != self._matcher_config
            if new_matcher and self._pinned_matching:
                raise DataspaceError(
                    "cannot change matcher_config: this session was built from a "
                    "pre-computed matching or mapping set"
                )
            new_h = h is not None and h != self._h
            if new_h:
                if h < 1:
                    raise DataspaceError(f"h must be at least 1, got {h}")
                self._require_unpinned_mapping_set("h")
            normalized = self._method if method is None else GenerationMethod(method).value
            new_method = normalized != self._method
            if new_method:
                self._require_unpinned_mapping_set("method")
            new_tau = state.tau if tau is None else tau
            new_max_blocks = self._max_blocks if max_blocks is None else max_blocks
            new_max_failures = self._max_failures if max_failures is None else max_failures
            new_tree = (new_tau, new_max_blocks, new_max_failures) != (
                state.tau,
                self._max_blocks,
                self._max_failures,
            )
            if new_tree:
                BlockTreeConfig(
                    tau=new_tau, max_blocks=new_max_blocks, max_failures=new_max_failures
                )
            # Everything is validated: the write below cannot fail halfway.
            if new_matcher:
                self._matcher_config = matcher_config
                state = replace(state, matching=None)
            if new_h:
                self._h = h
            self._method = normalized
            self._max_blocks, self._max_failures = new_max_blocks, new_max_failures
            bumps = new_matcher + new_h + new_method
            if bumps:
                state = replace(
                    state,
                    mapping_set=None,
                    block_tree=None,
                    generation=state.generation + bumps,
                )
            if new_tree:
                state = replace(state, tau=new_tau, block_tree=None)
            self._state = state
        return self

    def _require_unpinned_mapping_set(self, parameter: str) -> None:
        if self._pinned_mapping_set:
            raise DataspaceError(
                f"cannot change {parameter}: this session was built from a "
                "pre-computed mapping set"
            )

    def invalidate(self) -> "Dataspace":
        """Drop every rebuildable cached artifact and bump the generation.

        Pinned artifacts (from :meth:`from_matching` / :meth:`from_mapping_set`)
        are kept; prepared queries survive but refresh their filter caches,
        and cached results keyed on the old generation become unreachable.
        """
        with self._write_lock:
            state = self._state
            self._state = replace(
                state,
                matching=state.matching if self._pinned_matching else None,
                mapping_set=state.mapping_set if self._pinned_mapping_set else None,
                block_tree=None,
                generation=state.generation + 1,
            )
        return self

    def apply_delta(self, delta: MappingDelta) -> DeltaReport:
        """Evolve the mapping set incrementally instead of rebuilding it.

        Applies a :class:`~repro.engine.delta.MappingDelta` — correspondence
        adds/removes, mass-preserving probability reweights, top-h membership
        replacements — as one atomic write: the patched
        :class:`~repro.mapping.mapping_set.MappingSet` (structure-sharing,
        with an incrementally recompiled
        :class:`~repro.engine.compiled.CompiledMappingSet`) is published in
        one new session state with the ``delta_epoch`` bumped.
        The *generation* is **not** bumped: result-cache entries whose
        relevant mappings and required target elements do not intersect the
        delta's dirty masks keep serving across the epoch boundary (see
        :meth:`~repro.engine.cache.ResultCache.lookup`).

        In-flight queries are unaffected — they evaluate against the
        immutable state they read before the publish.  The block tree is
        dropped and rebuilt lazily (only the explicit ``blocktree`` plan
        needs it).

        Returns a :class:`~repro.engine.delta.DeltaReport` describing the
        touched mappings and the reuse achieved by the incremental
        recompilation.

        Raises
        ------
        MappingError
            When the delta is invalid for the current set (see
            :func:`~repro.engine.delta.apply_mapping_delta`).

        >>> # ds.apply_delta(MappingDelta.build(reweight={0: 0.2, 1: 0.3}))
        """
        return self._commit_batch(DeltaBatch.of(delta), as_batch=False)

    def apply_delta_batch(
        self, batch: Union[DeltaBatch, Iterable[MappingDelta]]
    ) -> DeltaBatchReport:
        """Apply a whole :class:`~repro.engine.streaming.DeltaBatch` as one epoch.

        Every member delta is validated against the intermediate state its
        predecessors left (exactly as if applied one by one via
        :meth:`apply_delta`), but the session commits a *single*
        ``delta_epoch`` bump with one incremental recompile of the net
        difference — an edit a later delta of the batch reverts never
        touches a posting list, and readers, cache retention and standing
        queries observe one transition instead of ``len(batch)``.

        Returns a :class:`~repro.engine.streaming.DeltaBatchReport` (a
        :class:`~repro.engine.delta.DeltaReport` plus the coalesced-delta
        count).

        Raises
        ------
        MappingError
            On an empty batch, or when any member delta is invalid for the
            state it applies to; the session is left untouched either way.
        """
        normalized = batch if isinstance(batch, DeltaBatch) else DeltaBatch.build(batch)
        report = self._commit_batch(normalized, as_batch=True)
        assert isinstance(report, DeltaBatchReport)
        return report

    def _commit_batch(self, batch: DeltaBatch, *, as_batch: bool) -> DeltaReport:
        """Shared commit path of :meth:`apply_delta` / :meth:`apply_delta_batch`.

        ``as_batch`` only selects the report type: the single-delta path is
        the batch path — a batch of one delta is bit-identical to the old
        direct ``apply_mapping_delta`` call by construction (see
        :func:`repro.engine.streaming.apply_delta_batch`).
        """
        started = time.perf_counter()
        with self._write_lock:
            base = self._state = self._with_mapping_set(self._state)
            patched, effect = apply_delta_batch(base.mapping_set, batch)
            state = replace(
                base, mapping_set=patched, block_tree=None, delta_epoch=base.delta_epoch + 1
            )
            # The epoch's dirt is logged before the epoch is published, so a
            # reader at the new epoch always finds its log entry.
            for cache in (self._result_cache, self._filter_cache):
                cache.record_delta(
                    state.delta_epoch, effect.probability_mask, effect.dirty_target_mask
                )
            self._subscriptions.on_commit(effect, state)
            self._state = state
        persist_failed = False
        persist_error: Optional[str] = None
        if self._store is not None and state.document is not None:
            # Write the patched artifacts through to the attached store so a
            # restart reopens at this exact epoch.  Best effort by design —
            # a store failure must never fail the delta itself — but never
            # silent: the failure is recorded on the report, counted in the
            # session's stats, and the first occurrence warns.
            try:
                self.persist()
            except Exception as exc:
                persist_failed = True
                persist_error = f"{type(exc).__name__}: {exc}"
                self._persist_failures += 1
                if not self._persist_failure_warned:
                    self._persist_failure_warned = True
                    warnings.warn(
                        f"delta write-through to store ref {self._store_ref!r} "
                        f"failed ({persist_error}); the in-memory session is "
                        "current but the store is stale",
                        PersistFailedWarning,
                        stacklevel=2,
                    )
        # Standing queries advance after the writer mutex is released: the
        # registry re-executes structural subscribers against the committed
        # state, which must not hold up the session's other writers.
        self._subscriptions.drain()
        fields = dict(
            delta_epoch=state.delta_epoch,
            generation=state.generation,
            num_mappings=len(patched),
            touched_mappings=effect.dirty_mask.bit_count(),
            structural_mappings=effect.structural_mask.bit_count(),
            reweighted_mappings=effect.reweight_edits,
            replaced_mappings=effect.replace_edits,
            touched_targets=len(effect.dirty_targets),
            posting_lists_touched=effect.posting_lists_touched,
            posting_lists_total=effect.posting_lists_total,
            compiled_incrementally=effect.compiled_incrementally,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            persist_failed=persist_failed,
            persist_error=persist_error,
        )
        if as_batch:
            return DeltaBatchReport(num_deltas=effect.num_deltas, **fields)
        return DeltaReport(**fields)

    def _check_document(self, document: XMLDocument) -> None:
        if document.schema is not self.source_schema:
            raise DataspaceError(
                "the document does not conform to this session's source schema"
            )

    def set_document(self, document: XMLDocument) -> "Dataspace":
        """Swap the source document the session evaluates queries over."""
        self._check_document(document)
        with self._write_lock:
            state = self._state
            self._state = replace(
                state, document=document, document_version=state.document_version + 1
            )
        return self

    # ------------------------------------------------------------------ #
    # Lazily built artifacts
    # ------------------------------------------------------------------ #
    # The public properties read the published state and return a built
    # artifact at once.  A missing one is built by _build, which runs the
    # _with_* steps under the writer mutex.  Each step takes a state and
    # returns it with one more artifact built, or unchanged when the
    # artifact is already there, so a thread that lost the race to the
    # mutex builds nothing.

    def _build(self, *steps: Callable[[EngineSnapshot], EngineSnapshot]) -> EngineSnapshot:
        """Publish the current state with ``steps`` applied in order."""
        with self._write_lock:
            state = self._state
            for step in steps:
                state = step(state)
            self._state = state
        return state

    def _with_matching(self, state: EngineSnapshot) -> EngineSnapshot:
        if state.matching is not None:
            return state
        started = time.perf_counter()
        if self._matcher_config is None and self._dataset_id is not None:
            matching = load_dataset(self._dataset_id, seed=self._seed).matching
        else:
            config = self._matcher_config or MatcherConfig(seed=self._seed)
            matching = SchemaMatcher(config).match(
                self.source_schema, self.target_schema, name=self.name
            )
        return _noting(state, "matching", started, matching=matching)

    def _with_mapping_set(self, state: EngineSnapshot) -> EngineSnapshot:
        if state.mapping_set is not None:
            return state
        started = time.perf_counter()
        if self._dataset_id is not None and self._matcher_config is None:
            # Share the workload layer's cache with benchmarks and tests.
            mapping_set = build_mapping_set(
                self._dataset_id, self._h, seed=self._seed, method=self._method
            )
        else:
            state = self._with_matching(state)
            mapping_set = generate_top_h_mappings(state.matching, self._h, method=self._method)
        return _noting(state, "mapping_set", started, mapping_set=mapping_set)

    def _with_block_tree(self, state: EngineSnapshot) -> EngineSnapshot:
        if state.block_tree is not None:
            return state
        started = time.perf_counter()
        state = self._with_mapping_set(state)
        config = BlockTreeConfig(
            tau=state.tau, max_blocks=self._max_blocks, max_failures=self._max_failures
        )
        tree = build_block_tree(state.mapping_set, config)
        return _noting(state, "block_tree", started, block_tree=tree)

    def _with_document(self, state: EngineSnapshot) -> EngineSnapshot:
        if state.document is not None:
            return state
        started = time.perf_counter()
        if self._dataset_id is not None:
            document = load_source_document(
                self._dataset_id, seed=self._seed, target_nodes=self._document_nodes
            )
        else:
            document = generate_document(
                self.source_schema, target_nodes=self._document_nodes, seed=self._seed
            )
        return _noting(state, "document", started, document=document)

    @property
    def matching(self) -> SchemaMatching:
        """The schema matching (built and memoized on first access)."""
        matching = self._state.matching
        return matching if matching is not None else self._build(self._with_matching).matching

    @property
    def mapping_set(self) -> MappingSet:
        """The top-h possible mappings (built and memoized on first access)."""
        mapping_set = self._state.mapping_set
        if mapping_set is not None:
            return mapping_set
        return self._build(self._with_mapping_set).mapping_set

    @property
    def block_tree(self) -> BlockTree:
        """The block tree over the mapping set (built and memoized on first access)."""
        tree = self._state.block_tree
        return tree if tree is not None else self._build(self._with_block_tree).block_tree

    @property
    def document(self) -> XMLDocument:
        """The source document (loaded or generated on first access)."""
        document = self._state.document
        return document if document is not None else self._build(self._with_document).document

    @property
    def compiled(self) -> "CompiledMappingSet":
        """The compiled bitset view of the mapping set (built and memoized on first use).

        The artifact is cached on the (immutable) mapping set itself, so it
        rides the session's existing generation machinery: any invalidation
        that replaces the mapping set also retires its compiled view, and a
        snapshot's ``mapping_set.compile()`` always matches that snapshot's
        generation.
        """
        mapping_set = self.mapping_set
        if not mapping_set.is_compiled:
            started = time.perf_counter()
            compiled = mapping_set.compile()
            with self._write_lock:
                self._state = _noting(self._state, "compiled", started)
            return compiled
        return mapping_set.compile()

    # ------------------------------------------------------------------ #
    # Snapshots and shared caches
    # ------------------------------------------------------------------ #
    def snapshot(self, *, need_tree: bool = True) -> EngineSnapshot:
        """The session's published :class:`EngineSnapshot`, built as far as needed.

        When the mapping set and document — plus the block tree unless
        ``need_tree=False`` — are built, this returns the published state
        itself, taking no lock.  Otherwise it builds what is missing under
        the writer mutex and publishes the result.  The tree is present
        with ``need_tree=False`` only when it was already built.  Execution
        paths evaluate against a snapshot, never against the live session,
        which is what makes concurrent ``configure()`` calls safe.
        """
        state = self._state
        if state.ready(need_tree):
            return state
        steps = [self._with_mapping_set, self._with_document]
        if need_tree:
            steps.append(self._with_block_tree)
        return self._build(*steps)

    @property
    def result_cache(self) -> ResultCache:
        """The session's LRU cache of evaluated :class:`PTQResult` objects."""
        return self._result_cache

    def cache_stats(self) -> dict:
        """Hit/miss statistics of the result and filter caches.

        When a persistent artifact store is attached, its counters (hits,
        misses, writes, block occupancy) appear under ``"store"``, together
        with ``persist_failures`` — the number of :meth:`apply_delta`
        write-throughs that failed; the key is absent on store-less
        sessions, so existing consumers see exactly the shape they always
        did.
        """
        stats = {
            "result_cache": self._result_cache.stats().to_dict(),
            "filter_cache": self._filter_cache.stats().to_dict(),
        }
        if self._store is not None:
            store_stats = dict(self._store.stats())
            store_stats["persist_failures"] = self._persist_failures
            stats["store"] = store_stats
        return stats

    def artifact_provenance(self) -> dict:
        """Per-artifact provenance: ``loaded`` (store hit) vs ``built`` (cold).

        Each entry is ``{"source": "loaded" | "built", "ms": float}`` where
        ``ms`` is the deserialization time for loaded artifacts and the
        derivation time for built ones.  Only artifacts whose construction
        this session observed are reported (a compiled view produced outside
        the session property appears as ``built`` without a time).
        """
        state = self._state
        provenance = {name: dict(info) for name, info in state.provenance.items()}
        if (
            state.mapping_set is not None
            and state.mapping_set.is_compiled
            and "compiled" not in provenance
        ):
            provenance["compiled"] = {"source": "built"}
        return provenance

    def clear_caches(self) -> "Dataspace":
        """Drop all cached results and shared filter prefixes."""
        self._result_cache.clear()
        self._filter_cache.clear()
        return self

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[ArtifactStore]:
        """The attached persistent artifact store, or ``None``."""
        return self._store

    def _store_config(self) -> dict:
        """The configuration persisted alongside the artifacts.

        Compared on reopen: a reopen requesting a different configuration
        treats the stored session as a stale signature and rebuilds cold.
        """
        return {
            "name": self.name,
            "dataset_id": self._dataset_id,
            "h": self._h,
            "method": self._method,
            "tau": self.tau,
            "max_blocks": self._max_blocks,
            "max_failures": self._max_failures,
            "seed": self._seed,
            "cache_size": self._cache_size,
            "pinned_matching": self._pinned_matching,
            "pinned_mapping_set": self._pinned_mapping_set,
        }

    def _default_store_ref(self) -> str:
        if self._dataset_id is not None:
            return self._dataset_ref(
                self._dataset_id, h=self._h, method=self._method, seed=self._seed
            )
        return f"dataspace/{self.name}?h={self._h}&method={self._method}&seed={self._seed}"

    def _result_entries(self, snap: EngineSnapshot) -> list[tuple]:
        """Result-cache entries belonging to the snapshot's exact signature.

        Only entries of named queries qualify: identity-keyed twig entries
        (``<twig:N>``) cannot be re-associated after a reopen.
        """
        entries = []
        for key, value in self._result_cache.items():
            if not isinstance(key, CacheKey) or not isinstance(value, PTQResult):
                continue
            if key.query.startswith("<twig:"):
                continue
            if (
                key.generation != snap.generation
                or key.document_version != snap.document_version
                or key.delta_epoch != snap.delta_epoch
            ):
                continue
            entries.append((key, value))
        return entries

    def persist(self, store=None, *, ref: Optional[str] = None) -> dict:
        """Write every session artifact through to a persistent store.

        Persists the schemas, matching, mapping set, compiled bitset
        columns, source document and the current result-cache warmth as
        content-addressed blocks under one manifest, keyed by the session's ``(generation, delta_epoch,
        document_version)`` signature.  Unchanged artifacts dedupe to their
        existing blocks, so repeated persists are cheap.

        ``store`` (a :class:`~repro.store.BlockStore` or
        :class:`~repro.store.ArtifactStore`) defaults to the attached store;
        the first successful persist attaches the store for the
        :meth:`apply_delta` write-through.  Returns the save report
        (``ref``, manifest key, artifact counts, elapsed time).

        Raises
        ------
        DataspaceError
            When no store is given and none is attached.
        """
        artifact_store = ArtifactStore.wrap(store) if store is not None else self._store
        if artifact_store is None:
            raise DataspaceError(
                "no artifact store: pass one to persist(store) or open the "
                "session with store=..."
            )
        snap = self.snapshot(need_tree=False)
        compiled = snap.mapping_set.compile()
        signature = {
            "generation": snap.generation,
            "delta_epoch": snap.delta_epoch,
            "document_version": snap.document_version,
        }
        report = artifact_store.save_session(
            ref=ref or self._store_ref or self._default_store_ref(),
            config=self._store_config(),
            signature=signature,
            source_schema=self.source_schema,
            target_schema=self.target_schema,
            matching=snap.mapping_set.matching,
            mapping_set=snap.mapping_set,
            document=snap.document,
            compiled=compiled,
            results=self._result_entries(snap),
        )
        self._store = artifact_store
        self._store_ref = report["ref"]
        return report

    def relevant_for(
        self, prepared: PreparedQuery, snapshot: Optional[EngineSnapshot] = None
    ) -> MappingSubset:
        """Relevant mappings for ``prepared``, via the shared filter cache.

        The one memo of the filter step.  Queries whose embeddings require
        the same target-element sets have — by construction of
        :func:`~repro.query.ptq.filter_mappings` — the same relevant-mapping
        list, so the filter prefix is cached per ``(generation,
        required-target signature, delta_epoch)`` and shared across every
        query and caller that hits those schema elements.

        The prefix is also retained *across delta epochs*: on a miss at the
        current epoch, an earlier epoch's entry for the same signature is
        promoted when no intervening delta structurally touched the
        signature's target elements — relevance depends only on coverage at
        those elements, so the relevant-mapping *id list* is provably
        unchanged.  The promoted list is re-anchored to the current mapping
        set (same ids, current :class:`Mapping` objects), so reweighted
        probabilities are always fresh; its bitmask carries over unchanged.

        The result is a :class:`~repro.mapping.mapping_set.MappingSubset`:
        its ``mask`` is the relevant-mapping bitmask the retain check and
        the compiled evaluator consume.
        """
        snap = snapshot if snapshot is not None else self.snapshot(need_tree=False)
        embeddings, signature, required_mask = prepared._resolve()
        key = _FilterKey(snap.generation, signature, snap.delta_epoch)
        mapping_set = snap.mapping_set
        relevant, _ = self._filter_cache.lookup(
            key,
            0,
            required_mask,
            probability_sensitive=False,
            transform=lambda rows: mapping_set.subset(rows.mask),
        )
        if relevant is None:
            relevant = self._filter_cache.put(
                key, filter_mappings(mapping_set, embeddings)
            )
        return relevant

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _as_twig(self, query: Union[str, TwigQuery]) -> TwigQuery:
        if isinstance(query, TwigQuery):
            return query
        text = str(query).strip()
        if self._dataset_id is not None:
            if text.upper() in QUERY_STRINGS:
                return load_query(text)
            return parse_twig(text, aliases=QUERY_ALIASES)
        return parse_twig(text)

    def prepare(self, query: Union[str, TwigQuery]) -> PreparedQuery:
        """Compile ``query`` into a (cached) :class:`PreparedQuery`.

        Accepts a :class:`TwigQuery`, a twig pattern string, or — on dataset
        sessions — one of the paper's query ids (``"Q1"``…``"Q10"``).
        Query texts are keyed by their *canonical* rendering (see
        :mod:`repro.query.normalize`), so equivalent spellings —
        whitespace, predicate order, label aliases — share one prepared
        query and its resolve/filter caches;
        distinct twig objects are never conflated, even when their text
        coincides.  The per-session prepared-query cache is a bounded LRU,
        so serving arbitrary ad-hoc query texts cannot grow session memory
        without limit; a bounded map from each text as given to its
        canonical key lets a repeated text skip parsing.
        """
        if isinstance(query, TwigQuery):
            # A caller-supplied twig is keyed by identity: its structure may
            # differ from what the session would parse from the same text
            # (aliases, hand-built trees).  The key comes from a per-session
            # counter (see __init__), not id(), so it stays unique for the
            # session's whole lifetime.
            twig = query
            with self._twig_key_lock:
                key = self._twig_keys.get(twig)
                if key is None:
                    key = f"<twig:{next(self._twig_key_counter)}>"
                    self._twig_keys[twig] = key
        else:
            key = self._canonical_keys.get(query)
            prepared = self._prepared.get(key) if key is not None else None
            if prepared is not None:
                return prepared
            twig = self._as_twig(query)
            key = self._canonical_keys.put(query, canonical_text(twig))
        prepared = self._prepared.get(key)
        if prepared is None:
            # First-writer-wins put: racing preparers all end up sharing the
            # one instance that actually landed in the cache.
            prepared = self._prepared.put(key, PreparedQuery(self, twig, cache_key=key))
        return prepared

    def query(self, query: Union[str, TwigQuery]) -> QueryBuilder:
        """Start a fluent query: ``ds.query("...").top_k(10).execute()``."""
        return QueryBuilder(self.prepare(query))

    def subscribe(
        self,
        query: Union[str, TwigQuery],
        *,
        k: Optional[int] = None,
        callback: Callable[[SubscriptionUpdate], None],
    ) -> Subscription:
        """Register ``query`` as a standing query; updates flow to ``callback``.

        The query is executed once and an ``initial``
        :class:`~repro.engine.streaming.SubscriptionUpdate` carrying the
        full current result is delivered before this returns; every
        subsequent :meth:`apply_delta` / :meth:`apply_delta_batch` commit
        delivers an incremental diff (or nothing, when the batch provably
        cannot have changed the result).  See
        :class:`~repro.engine.streaming.SubscriptionRegistry` for the
        classification rules and the delivery contract; cancel via the
        returned handle.
        """
        return self._subscriptions.subscribe(query, k=k, callback=callback)

    @property
    def subscriptions(self) -> SubscriptionRegistry:
        """The session's standing-query registry (see :meth:`subscribe`)."""
        return self._subscriptions

    def execute(
        self,
        query: Union[str, TwigQuery],
        *,
        k: Optional[int] = None,
        plan: PlanSpec = None,
        use_cache: bool = True,
    ) -> PTQResult:
        """Prepare (or reuse) and evaluate ``query`` in one call."""
        return self.prepare(query).execute(k=k, plan=plan, use_cache=use_cache)

    def cached(
        self, query: str, *, k: Optional[int] = None, plan: PlanSpec = None
    ) -> Optional[PTQResult]:
        """The cached answer to ``execute(query, k=k, plan=plan)``, or ``None``.

        Never parses or prepares: a text the prepared-query cache does not
        hold returns ``None``.  See :meth:`PreparedQuery.cached`.
        """
        key = self._canonical_keys.get(query)
        prepared = self._prepared.get(key) if key is not None else None
        return prepared.cached(k=k, plan=plan) if prepared is not None else None

    def explain(
        self,
        query: Union[str, TwigQuery],
        *,
        k: Optional[int] = None,
        plan: PlanSpec = None,
        use_cache: bool = True,
    ):
        """Evaluate ``query`` and report plan choice, inputs and timings."""
        return self.prepare(query).explain(k=k, plan=plan, use_cache=use_cache)

    def query_batch(
        self,
        queries: Iterable[Union[str, TwigQuery]],
        *,
        k: Optional[int] = None,
        plan: PlanSpec = None,
        executor: Optional["Executor"] = None,
        use_cache: bool = True,
        timings_ms: Optional[list[float]] = None,
    ) -> list[PTQResult]:
        """Evaluate many queries as one batch, sharing prefix work.

        All queries are prepared up front and evaluated against a *single*
        snapshot, so the session's artifacts are built once and every result
        belongs to the same generation.  The resolve and ``filter_mappings``
        prefix is shared: duplicate queries collapse onto one
        :class:`PreparedQuery`, and distinct queries hitting the same target
        elements share one filter pass through the session filter cache.
        Duplicate queries are evaluated once and the result object reused.

        Parameters
        ----------
        queries:
            Query strings, ids or :class:`TwigQuery` objects.
        k, plan:
            Per-batch top-k restriction and plan override.
        executor:
            Fan evaluation out over this caller-owned executor (the service
            layer shares one pool across batches); ``None`` (default)
            evaluates sequentially in the calling thread.
        use_cache:
            Consult/populate the session result cache (default ``True``).
        timings_ms:
            When given, extended with each query's own evaluation time in
            milliseconds, measured in the thread that ran it — one entry per
            input query, in input order (duplicates report the evaluation
            they shared).
        """
        prepared = [self.prepare(query) for query in queries]
        if not prepared:
            return []
        need_tree = plan is not None and plan_for(plan).uses_block_tree
        snap = self.snapshot(need_tree=need_tree)
        # Dedupe: the same prepared query is evaluated once per batch.
        unique: dict[int, PreparedQuery] = {}
        for item in prepared:
            unique.setdefault(id(item), item)
        items = list(unique.values())
        fan_out = executor is not None and len(items) > 1
        if fan_out and self._filter_cache.enabled:
            # Warm the shared filter prefix before fanning out, so concurrent
            # workers hit the filter cache instead of racing on it.
            for item in items:
                item.relevant_mappings(snapshot=snap)

        def run_one(item: PreparedQuery) -> tuple[PTQResult, float]:
            started = time.perf_counter()
            result = item.execute(k=k, plan=plan, snapshot=snap, use_cache=use_cache)
            return result, (time.perf_counter() - started) * 1000.0

        results: dict[int, tuple[PTQResult, float]]
        if fan_out:
            futures = [(id(item), executor.submit(run_one, item)) for item in items]
            results = {key: future.result() for key, future in futures}
        else:
            results = {id(item): run_one(item) for item in items}
        if timings_ms is not None:
            timings_ms.extend(results[id(item)][1] for item in prepared)
        return [results[id(item)][0] for item in prepared]

    # ------------------------------------------------------------------ #
    # Plan selection
    # ------------------------------------------------------------------ #
    def plan_decision(self, prepared: PreparedQuery) -> str:
        """The plan an un-forced ``prepared`` runs: always ``compiled``.

        The one place a plan is picked, so ``execute()``, ``cached()`` and
        ``explain()`` always agree.  A caller that wants Algorithm 3 or 4
        forces it with ``plan="basic"`` or ``plan="blocktree"``.
        """
        return "compiled"

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Summary of the session: configuration, build state, statistics.

        Only reports statistics of artifacts that are already built — calling
        this never triggers a build.
        """
        state = self._state
        mapping_set = state.mapping_set
        info: dict = {
            "name": self.name,
            "dataset": self._dataset_id,
            "source": self.source_schema.name,
            "|S|": len(self.source_schema),
            "target": self.target_schema.name,
            "|T|": len(self.target_schema),
            "h": self._h,
            "method": self._method,
            "tau": state.tau,
            "generation": state.generation,
            "document_version": state.document_version,
            "delta_epoch": state.delta_epoch,
            "prepared_queries": len(self._prepared),
            "matching_built": state.matching is not None,
            "mapping_set_built": mapping_set is not None,
            "compiled_built": mapping_set is not None and mapping_set.is_compiled,
            "block_tree_built": state.block_tree is not None,
            "document_loaded": state.document is not None,
        }
        if state.matching is not None:
            info["capacity"] = state.matching.capacity
        if mapping_set is not None:
            info["o_ratio"] = round(mapping_set.o_ratio(), 4)
        if state.block_tree is not None:
            info["num_blocks"] = state.block_tree.num_blocks
        if state.document is not None:
            info["document_nodes"] = len(state.document)
        info["subscriptions"] = self._subscriptions.stats()
        info.update(self.cache_stats())
        return info

    def __repr__(self) -> str:
        state = self._state
        return (
            f"Dataspace({self.name!r}, h={self._h}, tau={state.tau}, "
            f"generation={state.generation})"
        )
