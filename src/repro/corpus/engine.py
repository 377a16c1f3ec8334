"""The sharded corpus engine: scatter-gather PTQ evaluation over shards.

:class:`ShardedCorpus` generalises a single :class:`~repro.engine.Dataspace`
session to a partitioned corpus.  Shards arise along two axes:

* **by subtree** — one session's document is cut into ``shards_per_session``
  :class:`~repro.corpus.sharding.ShardDocument` views (spine replicated,
  frontier subtrees distributed; see :mod:`repro.corpus.sharding`);
* **by dataset** — several sessions, each over its own schema pair, mapping
  set and document, contribute their shards to one corpus.

Every shard evaluates on the compiled
:class:`~repro.engine.compiled.CompiledMappingSet` of *its own session's*
mapping set — shards of one session share that session's artifact (the
compilation depends only on the mapping set, never on a document), while
by-dataset shards compile genuinely independent sets — so per-shard
evaluation runs the engine's ``compiled`` plan's own rewrite derivation and
matching (:func:`~repro.query.ptq.derive_rewrites`,
:func:`~repro.query.ptq.match_rewrites`).  A query is answered scatter-gather:

1. **resolve + select** — the query is prepared once per session; for top-k,
   candidate mappings are drawn session by session in descending order of
   each session's *probability upper bound* (its best mapping probability),
   and a session whose bound cannot beat the current k-th best is skipped
   outright — its shards are never evaluated;
2. **scatter** — the selected mappings are partitioned into rewrite groups
   once per session; each remaining shard filters that plan against its own
   view (pruning rewrites touching elements absent from the shard) and
   matches each distinct rewrite once; *crossing-capable* rewrites (a
   branchy query whose root element instantiates a spine node) are instead
   evaluated once per session in a spine pass over the base document;
3. **gather** — per-mapping canonical match sets are unioned; shards share
   node ids with the base document, so duplicated matches (spine nodes are
   replicated) deduplicate exactly and the merged result is byte-identical
   to the unsharded compiled plan.

Results ride the owning sessions' generation-keyed
:class:`~repro.engine.cache.ResultCache` under corpus-scoped
:class:`~repro.engine.cache.CacheKey` entries (``scope="corpus"`` for merged
results, ``scope="shard"``/``"spine"`` for partials), so sharded and
unsharded executions can never collide in the cache and a reconfigured
session transparently retires its shard state.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.corpus.sharding import DocumentPartition, partition_document
from repro.engine.cache import CacheKey
from repro.engine.compiled import CompiledMappingSet
from repro.engine.dataspace import Dataspace, EngineSnapshot
from repro.engine.delta import MappingDelta
from repro.engine.streaming import DeltaBatch
from repro.exceptions import CorpusError, QueryError
from repro.mapping.mapping_set import iter_mapping_ids
from repro.query.ptq import Rewrite, derive_rewrites, match_rewrites
from repro.query.results import CanonicalMatch, PTQAnswer, PTQResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.prepared import PreparedQuery
    from repro.mapping.mapping import Mapping
    from repro.mapping.mapping_set import MappingSubset
    from repro.query.resolve import Embedding

__all__ = [
    "CorpusShard",
    "CorpusAnswer",
    "ShardReport",
    "CorpusExecution",
    "ShardedCorpus",
]

#: Plan name recorded in cache keys and reports for scatter-gather runs.
SCATTER_GATHER = "scatter-gather"

#: Per-corpus floor on memoized (generation, document version) shard states;
#: the actual bound scales with the session count (see ShardedCorpus) so a
#: many-dataset corpus can hold every member's current state at once.
_MIN_STATES = 8

#: ShardReport status of a partial the result cache served, by lookup state;
#: any other state means the partial was evaluated.
_PARTIAL_STATUS = {"hit": "cached", "retained": "retained"}


# --------------------------------------------------------------------------- #
# Shards and per-generation state
# --------------------------------------------------------------------------- #
class CorpusShard:
    """One shard: a document view plus its session's compiled mapping set.

    Shards of one session share that session's (memoized) compiled artifact —
    the compilation depends only on the mapping set, never on the document,
    so per-shard copies would be byte-identical duplicates.  Across sessions
    (by-dataset corpora) the artifacts are genuinely independent.
    """

    __slots__ = ("shard_id", "dataset", "document", "compiled")

    def __init__(
        self, shard_id: int, dataset: str, document, compiled: CompiledMappingSet
    ) -> None:
        self.shard_id = shard_id
        self.dataset = dataset
        self.document = document
        self.compiled = compiled

    def __repr__(self) -> str:
        return (
            f"CorpusShard(id={self.shard_id}, dataset={self.dataset!r}, "
            f"nodes={len(self.document)})"
        )


class _SessionState:
    """Immutable shard state of one session at one (generation, document version)."""

    __slots__ = ("session", "snapshot", "partition", "shards", "compiled", "max_probability")

    def __init__(
        self,
        session: Dataspace,
        snapshot: EngineSnapshot,
        partition: DocumentPartition,
        shards: tuple[CorpusShard, ...],
        compiled: CompiledMappingSet,
    ) -> None:
        self.session = session
        self.snapshot = snapshot
        self.partition = partition
        self.shards = shards
        # One compiled view per session generation, shared by selection, the
        # rewrite plan, the spine pass and every shard of this session.
        self.compiled = compiled
        #: Static probability upper bound for bound-based shard skipping.
        self.max_probability = compiled.max_probability()


def recommend_scatter_workers(num_shards: int) -> int:
    """Thread-pool size for a scatter over ``num_shards`` shard tasks.

    The bitset loops hold the GIL, so extra threads beyond the task count
    would only add contention: the pool stays between 2 and 8 workers.
    """
    return min(8, max(2, num_shards))


def _matches_found(
    rewrites: Sequence[Rewrite], by_signature: dict[tuple[int, ...], frozenset[CanonicalMatch]]
) -> int:
    """Matches a pass produced, counted once per rewrite group."""
    return sum(len(by_signature[signature]) for _, signature in rewrites)


# --------------------------------------------------------------------------- #
# Reports
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardReport:
    """How one shard (or the spine pass) participated in a scatter-gather run.

    ``status`` is one of ``"evaluated"``, ``"cached"`` (partial served from
    the result cache), ``"retained"`` (clean shard after a mapping delta:
    the pre-delta partial provably survived and was promoted, see
    :meth:`repro.engine.cache.ResultCache.lookup`), ``"spine"`` (the
    per-session spine pass), ``"skipped-bound"`` (session bound below the
    global top-k threshold), ``"skipped-empty"`` (no selected mappings for
    the session) or ``"skipped-local"`` (every rewrite touches an element
    absent from the shard).
    """

    shard_id: int
    dataset: str
    status: str
    num_nodes: int
    num_subtrees: int
    groups: int
    pruned: int
    deferred: int
    matches: int
    elapsed_ms: float

    def to_dict(self) -> dict:
        """JSON-serialisable view of the report."""
        return {
            "shard_id": self.shard_id,
            "dataset": self.dataset,
            "status": self.status,
            "num_nodes": self.num_nodes,
            "num_subtrees": self.num_subtrees,
            "groups": self.groups,
            "pruned": self.pruned,
            "deferred": self.deferred,
            "matches": self.matches,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


@dataclass(frozen=True)
class CorpusAnswer:
    """One globally ranked answer: a mapping of one corpus dataset."""

    dataset: str
    mapping_id: int
    probability: float
    matches: frozenset[CanonicalMatch]

    def to_dict(self) -> dict:
        """JSON-serialisable view (matches summarised by count)."""
        return {
            "dataset": self.dataset,
            "mapping_id": self.mapping_id,
            "probability": self.probability,
            "num_matches": len(self.matches),
        }


@dataclass(frozen=True)
class CorpusExecution:
    """Outcome and account of one scatter-gather execution.

    This doubles as the corpus' ``explain()`` report: per-shard fan-out,
    skipped-shard counts (and why), spine-pass routing and merge statistics
    all land here alongside the merged results.
    """

    query: str
    k: Optional[int]
    num_shards: int
    fan_out: int
    skipped_bound: int
    skipped_empty: int
    skipped_local: int
    spine_rewrites: int
    merged_answers: int
    duplicate_matches: int
    cache: str
    generations: tuple[tuple[str, int, int, int], ...]
    elapsed_ms: float
    shard_reports: tuple[ShardReport, ...]
    results: dict[str, PTQResult] = field(repr=False)
    answers: tuple[CorpusAnswer, ...] = field(repr=False, default=())

    @property
    def skipped_shards(self) -> int:
        """Total shards not evaluated (bound + empty + locally prunable)."""
        return self.skipped_bound + self.skipped_empty + self.skipped_local

    @property
    def retained_shards(self) -> int:
        """Clean shards after a delta: partials promoted across the epoch."""
        return sum(1 for report in self.shard_reports if report.status == "retained")

    @property
    def cached_shards(self) -> int:
        """Shards served verbatim from the partial cache (same epoch)."""
        return sum(1 for report in self.shard_reports if report.status == "cached")

    @property
    def result(self) -> PTQResult:
        """The merged result of a single-session corpus.

        Raises
        ------
        CorpusError
            On a multi-dataset corpus (use :attr:`results` or :attr:`answers`).
        """
        if len(self.results) != 1:
            raise CorpusError(
                "this corpus spans multiple datasets; use .results or .answers"
            )
        return next(iter(self.results.values()))

    def to_dict(self) -> dict:
        """JSON-serialisable view of the execution account."""
        return {
            "query": self.query,
            "k": self.k,
            "num_shards": self.num_shards,
            "fan_out": self.fan_out,
            "skipped_shards": self.skipped_shards,
            "skipped_bound": self.skipped_bound,
            "skipped_empty": self.skipped_empty,
            "skipped_local": self.skipped_local,
            "retained_shards": self.retained_shards,
            "cached_shards": self.cached_shards,
            "spine_rewrites": self.spine_rewrites,
            "merged_answers": self.merged_answers,
            "duplicate_matches": self.duplicate_matches,
            "cache": self.cache,
            "generations": [list(item) for item in self.generations],
            "elapsed_ms": round(self.elapsed_ms, 3),
            "shards": [report.to_dict() for report in self.shard_reports],
            "answers": [answer.to_dict() for answer in self.answers],
        }

    def format(self) -> str:
        """Human-readable multi-line rendering (used by the CLI)."""
        lines = [
            f"query:      {self.query}",
            f"plan:       {SCATTER_GATHER} over {self.num_shards} shards"
            + (f"  (top-k, k={self.k})" if self.k is not None else ""),
            f"fan-out:    {self.fan_out} evaluated, {self.skipped_shards} skipped "
            f"(bound={self.skipped_bound} empty={self.skipped_empty} "
            f"local={self.skipped_local}), {self.retained_shards} retained clean "
            f"across delta",
            f"merge:      {self.merged_answers} answers, "
            f"{self.duplicate_matches} duplicate matches deduped, "
            f"{self.spine_rewrites} spine rewrites",
            f"cache:      {self.cache}",
            f"elapsed:    {self.elapsed_ms:.2f} ms",
        ]
        for report in self.shard_reports:
            lines.append(
                f"  shard {report.shard_id:<3} [{report.dataset}] {report.status:<14} "
                f"nodes={report.num_nodes:<6} groups={report.groups:<4} "
                f"pruned={report.pruned:<3} matches={report.matches}"
            )
        return "\n".join(lines)


class _Gather:
    """Mutable per-call working state of one scatter-gather execution."""

    __slots__ = (
        "entry_index", "prepared", "state", "embeddings", "selected", "skipped", "_relevant",
    )

    def __init__(self, entry_index: int, prepared: "PreparedQuery", state: _SessionState):
        self.entry_index = entry_index
        self.prepared = prepared
        self.state = state
        self.embeddings: list["Embedding"] = prepared.embeddings
        self.selected: list["Mapping"] = []
        self.skipped = False  # skipped by probability bound
        self._relevant: Optional["MappingSubset"] = None

    def relevant_mappings(self) -> "MappingSubset":
        """This query's relevant mappings, filtered once per gather.

        The merged-result lookup, candidate selection and every shard and
        spine partial read this one subset, so a sharded execution makes one
        filter-cache request per session (one ``filter_mappings`` pass when
        the session caches nothing).  Selection fills it before shard tasks
        fan out, so worker threads only read it.
        """
        if self._relevant is None:
            self._relevant = self.prepared.relevant_mappings(snapshot=self.state.snapshot)
        return self._relevant

    def relevant_mask(self) -> int:
        """Bitmask of this query's relevant mappings."""
        return self.relevant_mappings().mask


# --------------------------------------------------------------------------- #
# The corpus engine
# --------------------------------------------------------------------------- #
class ShardedCorpus:
    """Scatter-gather query engine over shards of one or many sessions.

    Construct with :meth:`from_dataspace` (or :meth:`Dataspace.shard
    <repro.engine.dataspace.Dataspace.shard>`) for subtree sharding of one
    session, or :meth:`from_datasets` for a multi-dataset corpus.  Single-
    session corpora answer :meth:`execute` with a :class:`PTQResult` that is
    byte-identical to the unsharded compiled plan; multi-dataset corpora
    answer :meth:`top_k` with globally ranked :class:`CorpusAnswer` rows.

    The corpus is thread-safe: shard state is derived from atomic session
    snapshots, memoized per (generation, document version), and rebuilt
    automatically after ``configure()`` / ``invalidate()`` /
    ``set_document()`` on an underlying session.
    """

    def __init__(
        self,
        sessions: Sequence[Dataspace],
        *,
        shards_per_session: int = 1,
        name: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if not sessions:
            raise CorpusError("a sharded corpus needs at least one session")
        if shards_per_session < 1:
            raise CorpusError(
                f"shards_per_session must be at least 1, got {shards_per_session}"
            )
        names = [session.name for session in sessions]
        if len(set(names)) != len(names):
            raise CorpusError(f"corpus sessions must have unique names, got {names}")
        self._sessions = list(sessions)
        self._shards_per_session = shards_per_session
        self.name = name or "+".join(names)
        self._max_workers = max_workers or recommend_scatter_workers(self.num_shards)
        self._lock = threading.Lock()
        # Every session's current state must fit simultaneously (plus slack
        # for one superseded generation), or a many-session corpus would
        # evict and re-partition on every gather.
        self._max_states = max(_MIN_STATES, 2 * len(self._sessions))
        self._states: "OrderedDict[tuple[int, int, int, int], _SessionState]" = (
            OrderedDict()
        )
        self._partitions_reused = 0
        self._partitions_restored = 0
        self._pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataspace(
        cls,
        dataspace: Dataspace,
        num_shards: int,
        *,
        max_workers: Optional[int] = None,
    ) -> "ShardedCorpus":
        """Subtree-shard one session's document into ``num_shards`` shards."""
        return cls(
            [dataspace],
            shards_per_session=num_shards,
            name=f"{dataspace.name}x{num_shards}",
            max_workers=max_workers,
        )

    @classmethod
    def from_datasets(
        cls,
        dataset_ids: Sequence[str],
        *,
        shards_per_dataset: int = 1,
        h: int = 100,
        seed: Optional[int] = None,
        cache_size: int = 128,
        max_workers: Optional[int] = None,
        store=None,
    ) -> "ShardedCorpus":
        """Open a corpus over several Table II datasets (one session each).

        ``store`` passes a persistent artifact store through to every member
        session (each persists under its own dataset-qualified ref), so a
        populated store reopens the whole corpus without re-running any
        matcher and with each session's remembered partition layout intact.
        """
        sessions = [
            Dataspace.from_dataset(
                dataset_id, h=h, seed=seed, cache_size=cache_size, store=store
            )
            for dataset_id in dataset_ids
        ]
        return cls(sessions, shards_per_session=shards_per_dataset, max_workers=max_workers)

    # ------------------------------------------------------------------ #
    # Lifecycle and introspection
    # ------------------------------------------------------------------ #
    @property
    def sessions(self) -> list[Dataspace]:
        """The underlying engine sessions, in corpus order."""
        return list(self._sessions)

    @property
    def num_shards(self) -> int:
        """Total number of shards across all sessions."""
        return len(self._sessions) * self._shards_per_session

    @property
    def shards_per_session(self) -> int:
        """Shards each session's document is partitioned into."""
        return self._shards_per_session

    @property
    def is_homogeneous(self) -> bool:
        """``True`` for a single-session (subtree-sharded) corpus."""
        return len(self._sessions) == 1

    def generation_signature(self) -> tuple[tuple[str, int, int, int], ...]:
        """Per-session ``(name, generation, document version, delta epoch)`` rows.

        Cheap (no snapshot is taken); used by the service layer to scope
        single-flight keys to the corpus' current configuration — including
        the fine-grained delta epoch, so a submit issued after an
        ``apply_delta`` never joins a pre-delta flight.
        """
        return tuple(
            (
                session.name,
                session.generation,
                session.document_version,
                session.delta_epoch,
            )
            for session in self._sessions
        )

    def invalidate(self) -> "ShardedCorpus":
        """Invalidate every underlying session (shard state follows lazily)."""
        for session in self._sessions:
            session.invalidate()
        return self

    def apply_delta(self, delta: MappingDelta, *, dataset: Optional[str] = None):
        """Apply a mapping delta to one underlying session.

        ``dataset`` selects the session by name and may be omitted on a
        single-session corpus.  The document partition is *reused* across
        the delta (a delta never touches the document), and per-shard cached
        partials whose rewrites the delta provably did not change keep
        serving — ``explain()`` reports those shards as ``"retained"``.

        Returns the session's :class:`~repro.engine.delta.DeltaReport`.

        Raises
        ------
        CorpusError
            When ``dataset`` is omitted on a multi-dataset corpus or names
            no member session.
        """
        if dataset is None:
            if not self.is_homogeneous:
                raise CorpusError(
                    "this corpus spans multiple datasets; pass dataset=... to "
                    "apply_delta"
                )
            return self._sessions[0].apply_delta(delta)
        for session in self._sessions:
            if session.name == dataset:
                return session.apply_delta(delta)
        raise CorpusError(
            f"no corpus session named {dataset!r}; datasets: "
            f"{[session.name for session in self._sessions]}"
        )

    def apply_delta_batch(self, batch, *, dataset: Optional[str] = None):
        """Apply a whole delta batch to one underlying session, as one epoch.

        Batch companion of :meth:`apply_delta`: the selected session commits
        a single ``delta_epoch`` bump for every member delta (see
        :meth:`Dataspace.apply_delta_batch
        <repro.engine.dataspace.Dataspace.apply_delta_batch>`), the document
        partition is reused, and per-shard cached partials the batch's *net*
        difference provably did not change keep serving.  Returns the
        session's :class:`~repro.engine.streaming.DeltaBatchReport`.

        Raises
        ------
        CorpusError
            When ``dataset`` is omitted on a multi-dataset corpus or names
            no member session.
        """
        session = self._session_for_write(dataset, "apply_delta_batch")
        return session.apply_delta_batch(batch)

    def _session_for_write(self, dataset: Optional[str], operation: str) -> Dataspace:
        """Resolve the session a write targets (homogeneous default, by name)."""
        if dataset is None:
            if not self.is_homogeneous:
                raise CorpusError(
                    "this corpus spans multiple datasets; pass dataset=... to "
                    f"{operation}"
                )
            return self._sessions[0]
        for session in self._sessions:
            if session.name == dataset:
                return session
        raise CorpusError(
            f"no corpus session named {dataset!r}; datasets: "
            f"{[session.name for session in self._sessions]}"
        )

    def dirty_shards(
        self, batch, *, dataset: Optional[str] = None
    ) -> dict[int, frozenset[int]]:
        """Shard-level dirty routing: which shards can a batch touch, and where.

        Maps shard id → the batch's edited *source* elements present in that
        shard's document view, for the session the batch targets; shards
        absent from the map provably cannot observe the batch structurally
        (an edited correspondence influences a shard only through source
        nodes the shard actually holds — the same containment the scatter
        path uses to prune rewrites).  Reweight-only batches touch no source
        element and route to no shard.  Accepts a
        :class:`~repro.engine.streaming.DeltaBatch`, an iterable of deltas
        or a single delta; purely informational — nothing is applied.
        """
        session = self._session_for_write(dataset, "dirty_shards")
        if isinstance(batch, MappingDelta):
            deltas: list[MappingDelta] = [batch]
        elif isinstance(batch, DeltaBatch):
            deltas = list(batch)
        else:
            deltas = list(batch)
        mapping_set = session.mapping_set
        sources: set[int] = set()
        for delta in deltas:
            for _mapping_id, key in delta.add:
                sources.add(key[0])
            for _mapping_id, key in delta.remove:
                sources.add(key[0])
            for mapping_id, pairs, _score in delta.replace:
                for pair in mapping_set[mapping_id].correspondences:
                    sources.add(pair[0])
                for pair in pairs:
                    sources.add(pair[0])
        if not sources:
            return {}
        index = self._sessions.index(session)
        state = self._session_state(index)
        routing: dict[int, frozenset[int]] = {}
        for shard in state.shards:
            present = frozenset(sources & shard.document.present_elements)
            if present:
                routing[shard.shard_id] = present
        return routing

    def close(self) -> None:
        """Shut down the corpus' scatter pool (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedCorpus":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def describe(self) -> dict:
        """Corpus summary: sessions, shard layout, current partitions."""
        info: dict = {
            "name": self.name,
            "num_sessions": len(self._sessions),
            "shards_per_session": self._shards_per_session,
            "num_shards": self.num_shards,
            "homogeneous": self.is_homogeneous,
            "datasets": [session.name for session in self._sessions],
        }
        info["partitions"] = [
            self._session_state(index).partition.describe()
            for index in range(len(self._sessions))
        ]
        info["partitions_reused"] = self._partitions_reused
        info["partitions_restored"] = self._partitions_restored
        return info

    def executor_config(self) -> dict:
        """The scatter executor's chosen configuration (for benchmarks/ops)."""
        return {
            "num_shards": self.num_shards,
            "max_workers": self._max_workers,
        }

    # ------------------------------------------------------------------ #
    # Shard state
    # ------------------------------------------------------------------ #
    def _session_state(self, index: int) -> _SessionState:
        """Shard state of session ``index`` for its *current* mapping-set state.

        The session snapshot is captured atomically, so the partition and
        every shard's compiled artifact always describe one consistent
        generation — concurrent ``configure()`` calls can only flip the
        corpus between complete states, never expose a mix.  After an
        ``apply_delta`` (same document, new delta epoch) the previous
        state's document partition is *reused* — a delta never touches the
        document, so re-cutting it would be pure waste; only the shard
        objects are re-pointed at the patched compiled artifact.
        """
        session = self._sessions[index]
        snapshot = session.snapshot(need_tree=False)
        key = (
            index,
            snapshot.generation,
            snapshot.document_version,
            snapshot.delta_epoch,
        )
        partition: Optional[DocumentPartition] = None
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                return state
            for previous in reversed(self._states.values()):
                if (
                    previous.session is session
                    and previous.snapshot.document is snapshot.document
                ):
                    partition = previous.partition
                    self._partitions_reused += 1
                    break
        if partition is None:
            # A session layout remembered from an earlier cut — possibly
            # reopened from a persistent store — beats re-cutting.
            partition = session.restore_partition(snapshot, self._shards_per_session)
            if partition is not None:
                with self._lock:
                    self._partitions_restored += 1
        if partition is None:
            partition = partition_document(snapshot.document, self._shards_per_session)
            session.remember_partition(partition)
        compiled = snapshot.mapping_set.compile()
        base = index * self._shards_per_session
        shards = tuple(
            CorpusShard(base + local_id, session.name, shard_document, compiled)
            for local_id, shard_document in enumerate(partition.shards)
        )
        state = _SessionState(session, snapshot, partition, shards, compiled)
        with self._lock:
            existing = self._states.get(key)
            if existing is not None:
                return existing
            self._states[key] = state
            while len(self._states) > self._max_states:
                self._states.popitem(last=False)
        return state

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix=f"corpus-{self.name}",
                )
                # A dropped corpus must not strand its worker threads until
                # process exit: shut the pool down when the corpus is
                # garbage collected (close() remains the explicit path).
                weakref.finalize(self, pool.shutdown, wait=False)
                self._pool = pool
            return self._pool

    # ------------------------------------------------------------------ #
    # Scatter-gather execution
    # ------------------------------------------------------------------ #
    def gather(
        self,
        query,
        *,
        k: Optional[int] = None,
        use_cache: bool = True,
        parallel: Optional[bool] = None,
    ) -> CorpusExecution:
        """Run one scatter-gather execution and return the full account.

        Parameters
        ----------
        query:
            A twig string, query id (on dataset sessions) or
            :class:`~repro.query.twig.TwigQuery`.
        k:
            Optional global top-k restriction; candidate selection uses
            per-session probability upper bounds to skip sessions (and all
            their shards) that cannot reach the current k-th best.
        use_cache:
            Consult/populate the sessions' result caches under corpus-scoped
            keys (merged results and per-shard partials).
        parallel:
            Fan shard evaluation over the corpus thread pool; defaults to
            parallel whenever more than one task is dispatched.  Pass
            ``False`` to evaluate inline (batch executors do this so
            batch-level parallelism is not nested).
        """
        if k is not None and k < 1:
            raise QueryError(f"k must be positive, got {k}")
        started = time.perf_counter()
        gathers = [
            _Gather(index, self._sessions[index].prepare(query), self._session_state(index))
            for index in range(len(self._sessions))
        ]
        signature = tuple(
            (
                g.state.session.name,
                g.state.snapshot.generation,
                g.state.snapshot.document_version,
                g.state.snapshot.delta_epoch,
            )
            for g in gathers
        )
        # Cache keys separate the coarse state (generation rows) from the
        # fine-grained delta epoch, which lives in CacheKey.delta_epoch so
        # the cache's retain-on-miss machinery can walk epochs backwards.
        base_signature = tuple(row[:3] for row in signature)
        epochs = tuple(row[3] for row in signature)
        query_text = gathers[0].prepared.text or str(query)

        # Warm path: a single-session corpus caches its merged result.
        # Multi-dataset corpora cache per-shard partials only (the merged
        # ranking depends on every session's generation at once).
        merged_key: Optional[CacheKey] = None
        cache_state = "partial" if use_cache else "bypass"
        if use_cache and self.is_homogeneous:
            merged_key = CacheKey(
                query=gathers[0].prepared.cache_key,
                plan=SCATTER_GATHER,
                k=k,
                tau=None,
                generation=base_signature,
                document_version=None,
                scope="corpus",
                shards=self.num_shards,
                delta_epoch=signature[0][3],
            )
            # Retain-on-miss across a delta: merged results carry
            # probabilities, so the guard is the full dirty-mapping mask
            # against this query's relevant mappings plus its target set.
            cached, state = gathers[0].state.session.result_cache.lookup(
                merged_key,
                gathers[0].relevant_mask(),
                gathers[0].prepared.required_target_mask(),
            )
            if cached is not None:
                gathers[0].state.session.planner.observe_cache_hit(
                    gathers[0].prepared.cache_key
                )
                return self._from_cached(
                    cached, gathers[0], k, signature, started, cache=state
                )
            cache_state = "miss"

        # Exact top-k seeding: a completed selection at this very signature
        # recorded its k-th best probability; replaying it as the starting
        # threshold skips sessions whose bound cannot reach it — they could
        # not have contributed anyway, so answers are unchanged (strict <
        # preserves tie handling exactly).
        planner = gathers[0].state.session.planner
        seed_token: Optional[str] = None
        seed: Optional[float] = None
        if k is not None:
            seed_token = repr(signature)
            seed = planner.topk_seed(gathers[0].prepared.cache_key, k, seed_token)
        threshold = self._select(gathers, k, seed=seed)
        if seed_token is not None and threshold is not None:
            planner.record_topk_threshold(
                gathers[0].prepared.cache_key, k, seed_token, threshold
            )

        reports: list[ShardReport] = []
        tasks: list[Callable[[], tuple[int, ShardReport, dict]]] = []
        seeds: dict[int, dict[int, frozenset[CanonicalMatch]]] = {}
        skipped_bound = skipped_empty = skipped_local = 0
        spine_rewrites = 0
        for g in gathers:
            state = g.state
            if g.skipped:
                skipped_bound += len(state.shards)
                reports.extend(
                    self._static_report(shard, "skipped-bound") for shard in state.shards
                )
                seeds[g.entry_index] = {}
                continue
            if not g.selected:
                skipped_empty += len(state.shards)
                reports.extend(
                    self._static_report(shard, "skipped-empty") for shard in state.shards
                )
                seeds[g.entry_index] = {}
                continue
            # The rewrites are derived once per session from the shared
            # compiled artifact (they depend only on the mapping set, never on
            # a document); each shard just filters them against its own view.
            rewrites = derive_rewrites(
                g.prepared.query, state.compiled, g.embeddings,
                state.compiled.mask_for(g.selected),
            )
            # Seed every selected-and-covering mapping with an empty match
            # set: merging only ever adds matches, so mappings whose matches
            # live in skipped shards (they would be empty there) still appear
            # in the merged result, exactly as in the unsharded plan.
            seed: dict[int, frozenset[CanonicalMatch]] = {}
            for group_mask, _ in rewrites:
                for mapping_id in iter_mapping_ids(group_mask):
                    seed.setdefault(mapping_id, frozenset())
            seeds[g.entry_index] = seed
            # A branchy query whose root is rewritten to an element a spine
            # node instantiates is the one shape whose matches can cross
            # shard boundaries: such rewrites run once on the base document.
            # A signature starts with the root's element (ids are pre-order).
            shard_plan: list[Rewrite] = rewrites
            spine_plan: list[Rewrite] = []
            if any(len(node.children) > 1 for node in g.prepared.query.nodes):
                spine_elements = state.partition.spine_element_ids
                shard_plan = []
                for rewrite in rewrites:
                    if rewrite[1][0] in spine_elements:
                        spine_plan.append(rewrite)
                    else:
                        shard_plan.append(rewrite)
            spine_rewrites += len(spine_plan)
            if spine_plan:
                tasks.append(
                    self._spine_task(g, spine_plan, k, base_signature, epochs, use_cache)
                )
            for shard in state.shards:
                present = shard.document.present_elements
                if not any(present.issuperset(signature) for _, signature in shard_plan):
                    skipped_local += 1
                    reports.append(self._static_report(shard, "skipped-local"))
                    continue
                tasks.append(
                    self._shard_task(
                        g, shard, shard_plan, len(spine_plan), k,
                        base_signature, epochs, use_cache,
                    )
                )

        run_parallel = parallel if parallel is not None else len(tasks) > 1
        if run_parallel and len(tasks) > 1:
            outcomes = list(self._executor().map(lambda task: task(), tasks))
        else:
            outcomes = [task() for task in tasks]

        merged = seeds
        raw_matches = 0
        fan_out = 0
        for entry_index, report, per_mapping in outcomes:
            reports.append(report)
            fan_out += 1
            target = merged[entry_index]
            for mapping_id, canonical in per_mapping.items():
                raw_matches += len(canonical)
                target[mapping_id] = target.get(mapping_id, frozenset()) | canonical

        results: dict[str, PTQResult] = {}
        answers: list[tuple[float, int, int, CorpusAnswer]] = []
        merged_answers = 0
        merged_matches = 0
        for g in gathers:
            mapping_set = g.state.snapshot.mapping_set
            per_mapping = merged.get(g.entry_index, {})
            session_answers = [
                PTQAnswer(
                    mapping_id=mapping_id,
                    probability=mapping_set[mapping_id].probability,
                    matches=matches,
                )
                for mapping_id, matches in per_mapping.items()
            ]
            merged_answers += len(session_answers)
            merged_matches += sum(len(matches) for matches in per_mapping.values())
            result = PTQResult(
                g.prepared.query, session_answers, document=g.state.snapshot.document
            )
            results[g.state.session.name] = result
            for answer in session_answers:
                answers.append(
                    (
                        answer.probability,
                        g.entry_index,
                        answer.mapping_id,
                        CorpusAnswer(
                            dataset=g.state.session.name,
                            mapping_id=answer.mapping_id,
                            probability=answer.probability,
                            matches=answer.matches,
                        ),
                    )
                )
        answers.sort(key=lambda item: (-item[0], item[1], item[2]))

        if merged_key is not None:
            cached_result = gathers[0].state.session.result_cache.put(
                merged_key, results[gathers[0].state.session.name]
            )
            results[gathers[0].state.session.name] = cached_result

        reports.sort(key=lambda report: report.shard_id)
        return CorpusExecution(
            query=query_text,
            k=k,
            num_shards=self.num_shards,
            fan_out=fan_out,
            skipped_bound=skipped_bound,
            skipped_empty=skipped_empty,
            skipped_local=skipped_local,
            spine_rewrites=spine_rewrites,
            merged_answers=merged_answers,
            duplicate_matches=raw_matches - merged_matches,
            cache=cache_state,
            generations=signature,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            shard_reports=tuple(reports),
            results=results,
            answers=tuple(item[3] for item in answers),
        )

    # ------------------------------------------------------------------ #
    # Gather internals
    # ------------------------------------------------------------------ #
    def _select(
        self, gathers: list[_Gather], k: Optional[int], seed: Optional[float] = None
    ) -> Optional[float]:
        """Fill each gather's ``selected`` mappings (global top-k when ``k``).

        Sessions are visited in descending order of their probability upper
        bound; once the candidate pool holds ``k`` entries, any session whose
        bound is strictly below the k-th best probability is skipped without
        even computing its relevant mappings — the exact early-termination
        step of the scatter-gather merge.  Ties rank by (corpus position,
        mapping id), which for a single session reproduces the engine's
        ``select_top_k`` ordering exactly.

        ``seed`` pre-loads the threshold with the *exact* k-th best
        probability a completed selection recorded at the identical corpus
        state (see :meth:`gather`): a session skipped by the seed has every
        probability strictly below the final k-th best, so it could never
        place an answer in the pool — selection output is unchanged, only
        the work of proving it is saved.  Returns the final k-th best
        probability when the pool filled, else ``None``.
        """
        ordered = sorted(
            gathers, key=lambda g: (-g.state.max_probability, g.entry_index)
        )
        pool: list[tuple[float, int, int]] = []
        threshold: Optional[float] = seed if k is not None else None
        for g in ordered:
            if (
                k is not None
                and threshold is not None
                and g.state.max_probability < threshold
            ):
                g.skipped = True
                continue
            relevant = g.relevant_mappings()
            if k is None:
                g.selected = relevant
                continue
            pool.extend(
                (mapping.probability, g.entry_index, mapping.mapping_id)
                for mapping in relevant
            )
            pool.sort(key=lambda item: (-item[0], item[1], item[2]))
            del pool[k:]
            if len(pool) == k:
                threshold = pool[-1][0]
        if k is None:
            return None
        by_entry: dict[int, list[int]] = {}
        for _, entry_index, mapping_id in pool:
            by_entry.setdefault(entry_index, []).append(mapping_id)
        for g in gathers:
            if g.skipped:
                continue
            mapping_set = g.state.snapshot.mapping_set
            g.selected = [
                mapping_set[mapping_id]
                for mapping_id in sorted(by_entry.get(g.entry_index, []))
            ]
        return pool[-1][0] if len(pool) == k else None

    def _static_report(self, shard: CorpusShard, status: str) -> ShardReport:
        return ShardReport(
            shard_id=shard.shard_id,
            dataset=shard.dataset,
            status=status,
            num_nodes=len(shard.document),
            num_subtrees=getattr(shard.document, "num_subtrees", 0),
            groups=0,
            pruned=0,
            deferred=0,
            matches=0,
            elapsed_ms=0.0,
        )

    def _partial_key(
        self,
        gather: _Gather,
        scope: str,
        shard: Optional[int],
        k: Optional[int],
        base_signature: tuple,
        epochs: tuple,
    ) -> CacheKey:
        """Cache key of one per-shard (or spine) partial.

        A *full* (``k=None``) partial depends only on the owning session's
        mapping-set state and document (selection is per-session relevant
        mappings), so its key is scoped to that session's ``(name,
        generation, document version)`` with the session's delta epoch in
        ``delta_epoch`` — which is what lets it survive a delta applied to a
        *different* session outright, and survive a delta to its own session
        through the retain check.

        A *top-k* partial additionally depends on the **global** candidate
        selection — ``_select()`` pools and thresholds probabilities across
        every session — so its key must carry the full cross-session
        signature: a delta (or ``configure``) on any member session retires
        it.  On a single-session corpus the signature is that session, so
        epoch retention still applies; on a multi-session corpus the epoch
        field is the tuple of member epochs, which the retain check
        conservatively refuses to walk.
        """
        snapshot = gather.state.snapshot
        if k is None:
            generation: tuple = (
                gather.state.session.name,
                snapshot.generation,
                snapshot.document_version,
            )
            epoch = snapshot.delta_epoch
        else:
            generation = base_signature
            epoch = epochs[0] if len(epochs) == 1 else epochs
        return CacheKey(
            query=gather.prepared.cache_key,
            plan=SCATTER_GATHER,
            k=k,
            tau=None,
            generation=generation,
            document_version=None,
            scope=scope,
            shard=shard,
            shards=self.num_shards,
            delta_epoch=epoch,
        )

    def _cached_partial(
        self,
        gather: _Gather,
        scope: str,
        shard: Optional[int],
        k: Optional[int],
        base_signature: tuple,
        epochs: tuple,
        use_cache: bool,
        evaluate: Callable[[], Any],
    ) -> tuple[Any, str]:
        """One shard (or spine) partial through the session result cache.

        Returns the partial and its cache state (``"hit"``, ``"retained"``,
        ``"miss"`` or ``"bypass"``).  Clean-shard skip after a delta: a
        partial stores match sets (no probabilities), so for full
        evaluations only *structural* dirt can invalidate it; a top-k
        partial also depends on the probability-driven selection, so it
        checks the full dirty mask.
        """
        if not use_cache:
            return evaluate(), "bypass"
        cache = gather.state.session.result_cache
        key = self._partial_key(gather, scope, shard, k, base_signature, epochs)
        cached, state = cache.lookup(
            key,
            gather.relevant_mask(),
            gather.prepared.required_target_mask(),
            probability_sensitive=k is not None,
        )
        if cached is None:
            cached = cache.put(key, evaluate())
        return cached, state

    def _shard_task(
        self,
        gather: _Gather,
        shard: CorpusShard,
        plan: list[Rewrite],
        num_deferred: int,
        k: Optional[int],
        base_signature: tuple,
        epochs: tuple,
        use_cache: bool,
    ) -> Callable[[], tuple[int, ShardReport, dict]]:
        def evaluate() -> tuple[dict, int, int, int, int]:
            # Rewrites touching an element absent from the shard are pruned.
            present = shard.document.present_elements
            usable = [rewrite for rewrite in plan if present.issuperset(rewrite[1])]
            per_mapping, by_signature = match_rewrites(
                shard.document, gather.prepared.query, usable
            )
            matches = _matches_found(usable, by_signature)
            return per_mapping, len(usable), len(plan) - len(usable), num_deferred, matches

        def run() -> tuple[int, ShardReport, dict]:
            started = time.perf_counter()
            partial, state = self._cached_partial(
                gather, "shard", shard.shard_id, k, base_signature, epochs, use_cache,
                evaluate,
            )
            per_mapping, groups, pruned, deferred, matches = partial
            report = ShardReport(
                shard_id=shard.shard_id,
                dataset=shard.dataset,
                status=_PARTIAL_STATUS.get(state, "evaluated"),
                num_nodes=len(shard.document),
                num_subtrees=shard.document.num_subtrees,
                groups=groups,
                pruned=pruned,
                deferred=deferred,
                matches=matches,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
            )
            return gather.entry_index, report, per_mapping

        return run

    def _spine_task(
        self,
        gather: _Gather,
        spine_plan: list[Rewrite],
        k: Optional[int],
        base_signature: tuple,
        epochs: tuple,
        use_cache: bool,
    ) -> Callable[[], tuple[int, ShardReport, dict]]:
        document = gather.state.snapshot.document

        def evaluate() -> tuple[dict, int]:
            per_mapping, by_signature = match_rewrites(
                document, gather.prepared.query, spine_plan
            )
            return per_mapping, _matches_found(spine_plan, by_signature)

        def run() -> tuple[int, ShardReport, dict]:
            started = time.perf_counter()
            (per_mapping, matches), state = self._cached_partial(
                gather, "spine", None, k, base_signature, epochs, use_cache, evaluate
            )
            report = ShardReport(
                shard_id=-1,
                dataset=gather.state.session.name,
                status=_PARTIAL_STATUS.get(state, "spine"),
                num_nodes=len(document),
                num_subtrees=0,
                groups=len(spine_plan),
                pruned=0,
                deferred=0,
                matches=matches,
                elapsed_ms=(time.perf_counter() - started) * 1000.0,
            )
            return gather.entry_index, report, per_mapping

        return run

    def _from_cached(
        self,
        result: PTQResult,
        gather: _Gather,
        k: Optional[int],
        signature: tuple,
        started: float,
        cache: str,
    ) -> CorpusExecution:
        name = gather.state.session.name
        answers = tuple(
            CorpusAnswer(
                dataset=name,
                mapping_id=answer.mapping_id,
                probability=answer.probability,
                matches=answer.matches,
            )
            for answer in result
        )
        return CorpusExecution(
            query=gather.prepared.text,
            k=k,
            num_shards=self.num_shards,
            fan_out=0,
            skipped_bound=0,
            skipped_empty=0,
            skipped_local=0,
            spine_rewrites=0,
            merged_answers=len(result),
            duplicate_matches=0,
            cache=cache,
            generations=signature,
            elapsed_ms=(time.perf_counter() - started) * 1000.0,
            shard_reports=(),
            results={name: result},
            answers=answers,
        )

    # ------------------------------------------------------------------ #
    # Public query paths
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query,
        *,
        k: Optional[int] = None,
        use_cache: bool = True,
        parallel: Optional[bool] = None,
    ) -> PTQResult:
        """Evaluate ``query`` on a single-session corpus (merged result).

        Byte-identical to the session's unsharded ``compiled`` plan.

        Raises
        ------
        CorpusError
            On a multi-dataset corpus (use :meth:`gather` / :meth:`top_k`).
        """
        return self.gather(query, k=k, use_cache=use_cache, parallel=parallel).result

    def top_k(
        self,
        query,
        k: int,
        *,
        use_cache: bool = True,
        parallel: Optional[bool] = None,
    ) -> tuple[CorpusAnswer, ...]:
        """The ``k`` globally most probable answers across every shard."""
        return self.gather(query, k=k, use_cache=use_cache, parallel=parallel).answers

    def explain(
        self,
        query,
        *,
        k: Optional[int] = None,
        use_cache: bool = True,
        parallel: Optional[bool] = None,
    ) -> CorpusExecution:
        """Execute and report fan-out, skipped shards and merge statistics."""
        return self.gather(query, k=k, use_cache=use_cache, parallel=parallel)

    def execute_batch(
        self,
        queries,
        *,
        k: Optional[int] = None,
        use_cache: bool = True,
        executor=None,
        timings_ms: Optional[list[float]] = None,
    ) -> list[PTQResult]:
        """Evaluate many queries; with an executor, one worker per query.

        Each query's scatter then runs inline in its worker (shard-level and
        batch-level parallelism are not nested), which is how the service
        layer routes batches across shards.  ``timings_ms``, when given, is
        extended with each query's own evaluation time in milliseconds,
        measured in the thread that ran it, in input order.
        """

        def run_one(query) -> tuple[PTQResult, float]:
            started = time.perf_counter()
            result = self.execute(query, k=k, use_cache=use_cache, parallel=False)
            return result, (time.perf_counter() - started) * 1000.0

        queries = list(queries)
        if executor is not None and len(queries) > 1:
            futures = [executor.submit(run_one, query) for query in queries]
            timed = [future.result() for future in futures]
        else:
            timed = [run_one(query) for query in queries]
        if timings_ms is not None:
            timings_ms.extend(ms for _, ms in timed)
        return [result for result, _ in timed]

    def __repr__(self) -> str:
        return (
            f"ShardedCorpus({self.name!r}, sessions={len(self._sessions)}, "
            f"shards={self.num_shards})"
        )
