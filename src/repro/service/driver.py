"""Workload replay driver: mixed multi-dataset query traffic, measured.

The driver turns the paper's D1–D10 datasets into serving workloads: it
derives a deterministic query set for any dataset's target schema
(:func:`workload_queries`), interleaves datasets into a mixed operation
stream (:func:`build_workload`, or :func:`build_mixed_workload` for a
read/write mix that interleaves :meth:`~repro.engine.dataspace.Dataspace.apply_delta`
writes), and replays that stream against per-dataset
:class:`~repro.service.service.QueryService` instances at a configurable
concurrency (:func:`replay_workload`), reporting throughput, p50/p95/p99
latency and cache statistics as a :class:`ReplayReport`.

Used by ``benchmarks/test_bench_service_throughput.py`` and the
``examples/service_throughput.py`` walkthrough; everything is deterministic
(no randomness beyond the corpus' seeded generators) so replay reports are
comparable across runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.engine.delta import MappingDelta
from repro.exceptions import ReproError
from repro.service.service import QueryService, percentile_summary

__all__ = [
    "ReplayOp",
    "ReplayReport",
    "workload_queries",
    "build_workload",
    "build_mixed_workload",
    "swap_reweight_delta",
    "replay_workload",
]

#: Default number of leaf-derived queries per dataset.
_DEFAULT_QUERIES_PER_DATASET = 6


@dataclass(frozen=True)
class ReplayOp:
    """One operation of a replay stream.

    A *read* op (``delta is None``) executes ``query`` against the dataset's
    service; a *write* op carries a
    :class:`~repro.engine.delta.MappingDelta` and is applied through
    :meth:`~repro.service.service.QueryService.apply_delta` (the ``query``
    field is then just a display label).
    """

    dataset_id: str
    query: str
    k: Optional[int] = None
    delta: Optional[MappingDelta] = None

    @property
    def is_write(self) -> bool:
        """``True`` when this op applies a mapping delta instead of reading."""
        return self.delta is not None


@dataclass(frozen=True)
class ReplayReport:
    """Measured outcome of one workload replay.

    ``latency_ms`` holds the p50/p95/p99 per-operation latencies in
    milliseconds; ``cache`` aggregates the result-cache counters of every
    session that served the replay.
    """

    num_ops: int
    concurrency: int
    warmed: bool
    elapsed_seconds: float
    throughput_qps: float
    errors: int
    reads: int = 0
    writes: int = 0
    latency_ms: dict[str, float] = field(default_factory=dict)
    per_dataset: dict[str, int] = field(default_factory=dict)
    cache: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable view of the report."""
        return {
            "num_ops": self.num_ops,
            "concurrency": self.concurrency,
            "warmed": self.warmed,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "throughput_qps": round(self.throughput_qps, 2),
            "errors": self.errors,
            "reads": self.reads,
            "writes": self.writes,
            "latency_ms": dict(self.latency_ms),
            "per_dataset": dict(self.per_dataset),
            "cache": dict(self.cache),
        }

    def format(self) -> str:
        """Human-readable multi-line rendering."""
        datasets = "  ".join(f"{d}={n}" for d, n in sorted(self.per_dataset.items()))
        latency = "  ".join(f"{name}={ms:.2f} ms" for name, ms in self.latency_ms.items())
        mix = f" reads={self.reads} writes={self.writes}" if self.writes else ""
        lines = [
            f"ops:         {self.num_ops} ({datasets}){mix}",
            f"concurrency: {self.concurrency} (cache {'warm' if self.warmed else 'cold'})",
            f"elapsed:     {self.elapsed_seconds:.3f} s",
            f"throughput:  {self.throughput_qps:.1f} queries/s",
            f"latency:     {latency}" if latency else "latency:     (no samples)",
            f"errors:      {self.errors}",
        ]
        if self.cache:
            lines.append(
                f"cache:       hits={self.cache.get('hits', 0)} "
                f"misses={self.cache.get('misses', 0)} "
                f"evictions={self.cache.get('evictions', 0)}"
            )
        return "\n".join(lines)


def workload_queries(dataset_id: str, limit: Optional[int] = None) -> list[str]:
    """Deterministic query strings for ``dataset_id``'s target schema.

    D7 — the paper's query dataset — contributes the Table III query ids
    (``"Q1"``…``"Q10"``) first.  Every dataset then contributes twig patterns
    derived from its target schema: evenly spaced leaf elements (in schema
    pre-order) become alternating root-anchored path queries and
    descendant-axis single-label queries, so the workload mixes cheap and
    expensive shapes.  The derivation uses only the schema structure, so the
    same dataset always yields the same workload.
    """
    from repro.workloads.datasets import load_dataset
    from repro.workloads.queries import QUERY_IDS

    dataset = load_dataset(dataset_id)
    queries: list[str] = []
    if dataset.dataset_id == "D7":
        queries.extend(QUERY_IDS)
    leaves = [element for element in dataset.target_schema.iter_preorder() if element.is_leaf]
    count = min(len(leaves), _DEFAULT_QUERIES_PER_DATASET)
    if count:
        # Truly even spacing across the pre-order leaf list, first through
        # last, so deep/late leaves are sampled too.
        if count == 1:
            positions = [0]
        else:
            positions = [
                round(index * (len(leaves) - 1) / (count - 1)) for index in range(count)
            ]
        for index, position in enumerate(dict.fromkeys(positions)):
            labels = leaves[position].path.split(".")
            if index % 2:
                queries.append(f"//{labels[-1]}")
            else:
                queries.append("/".join(labels))
    unique = list(dict.fromkeys(queries))
    return unique[:limit] if limit is not None else unique


def build_workload(
    dataset_ids: Sequence[str],
    *,
    queries_per_dataset: int = _DEFAULT_QUERIES_PER_DATASET,
    repeats: int = 2,
    k: Optional[int] = None,
) -> list[ReplayOp]:
    """Interleave the datasets' query sets into one mixed operation stream.

    Operations are emitted round-robin over datasets (query 1 of every
    dataset, then query 2 of every dataset, …), ``repeats`` times over — the
    shape of traffic where a shared result cache pays off.
    """
    per_dataset = {
        dataset_id: workload_queries(dataset_id, limit=queries_per_dataset)
        for dataset_id in dataset_ids
    }
    ops: list[ReplayOp] = []
    for _ in range(max(1, repeats)):
        for index in range(queries_per_dataset):
            for dataset_id in dataset_ids:
                queries = per_dataset[dataset_id]
                if index < len(queries):
                    ops.append(ReplayOp(dataset_id, queries[index], k))
    return ops


def swap_reweight_delta(service_or_session) -> MappingDelta:
    """A deterministic, always-valid write: swap the two top probabilities.

    Builds a :class:`~repro.engine.delta.MappingDelta` that reweights
    mappings ``0`` and ``1`` to each other's *current* probabilities.  The
    swap is mass-preserving by construction, and applying the same delta
    twice is valid too (the pair's probability sum never changes), so the
    delta can be replayed blindly — including during a warm-up pass.
    """
    session = getattr(service_or_session, "dataspace", service_or_session)
    mapping_set = session.mapping_set
    if len(mapping_set) < 2:
        raise ValueError("swap_reweight_delta needs at least two mappings")
    return MappingDelta.build(
        reweight={0: mapping_set[1].probability, 1: mapping_set[0].probability}
    )


def build_mixed_workload(
    dataset_ids: Sequence[str],
    *,
    queries_per_dataset: int = _DEFAULT_QUERIES_PER_DATASET,
    repeats: int = 2,
    k: Optional[int] = None,
    deltas: Optional[dict[str, Sequence[MappingDelta]]] = None,
) -> list[ReplayOp]:
    """A read/write operation stream: queries with interleaved deltas.

    Emits the same round-robin read stream as :func:`build_workload`, but
    after each repeat pass appends one write op per dataset listed in
    ``deltas`` (cycling through that dataset's delta sequence), so each
    subsequent pass queries a mutated mapping set — the workload shape where
    delta-epoch cache retention and planner decision invalidation are
    exercised together.
    """
    deltas = deltas or {}
    cursors = {dataset_id: 0 for dataset_id in deltas}
    per_dataset = {
        dataset_id: workload_queries(dataset_id, limit=queries_per_dataset)
        for dataset_id in dataset_ids
    }
    ops: list[ReplayOp] = []
    for _ in range(max(1, repeats)):
        for index in range(queries_per_dataset):
            for dataset_id in dataset_ids:
                queries = per_dataset[dataset_id]
                if index < len(queries):
                    ops.append(ReplayOp(dataset_id, queries[index], k))
        for dataset_id in dataset_ids:
            sequence = deltas.get(dataset_id)
            if sequence:
                delta = sequence[cursors[dataset_id] % len(sequence)]
                cursors[dataset_id] += 1
                ops.append(ReplayOp(dataset_id, "<apply_delta>", delta=delta))
    return ops


def _run_ops(
    ops: Sequence[ReplayOp],
    services: dict[str, QueryService],
    concurrency: int,
    latencies: Optional[list] = None,
) -> int:
    """Execute every op at the given concurrency; returns the error count."""
    errors = 0

    def run_one(op: ReplayOp) -> Optional[float]:
        started = time.perf_counter()
        try:
            if op.delta is not None:
                services[op.dataset_id].apply_delta(op.delta)
            else:
                services[op.dataset_id].execute(op.query, k=op.k)
        except ReproError:
            return None
        return (time.perf_counter() - started) * 1000.0

    if concurrency > 1:
        # Closed-loop workers, each taking the next op from one shared
        # iterator, not a pool future per op: a future costs ~25 us, as much
        # as a cached read, and would be measured as serving time.
        pending = iter(ops)
        measured: list[Optional[float]] = []
        failures: list[Exception] = []

        def work() -> None:
            try:
                for op in pending:
                    measured.append(run_one(op))
            except Exception as error:  # raised below, in the caller's thread
                failures.append(error)

        workers = [threading.Thread(target=work) for _ in range(concurrency)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        if failures:
            raise failures[0]
    else:
        measured = [run_one(op) for op in ops]
    for sample in measured:
        if sample is None:
            errors += 1
        elif latencies is not None:
            latencies.append(sample)
    return errors


def replay_workload(
    ops: Sequence[ReplayOp],
    *,
    concurrency: int = 8,
    h: int = 25,
    seed: Optional[int] = None,
    services: Optional[dict[str, QueryService]] = None,
    use_cache: bool = True,
    warm: bool = False,
) -> ReplayReport:
    """Replay ``ops`` and measure throughput and latency percentiles.

    Parameters
    ----------
    ops:
        The operation stream (see :func:`build_workload`).
    concurrency:
        Number of replay worker threads issuing operations.
    h:
        Mapping-set size for sessions the driver opens itself.
    seed:
        Seed passed to driver-opened sessions.
    services:
        Pre-built ``dataset_id -> QueryService`` map; when omitted the
        driver opens one session + service per dataset and closes them
        afterwards.
    use_cache:
        Whether driver-opened services consult the session result cache.
    warm:
        Run the whole stream once, untimed, before the measured pass — the
        measured pass then serves from a warm result cache.
    """
    from repro.engine import Dataspace

    owned: list[QueryService] = []
    if services is None:
        services = {}
        for dataset_id in sorted({op.dataset_id for op in ops}):
            session = Dataspace.from_dataset(dataset_id, h=h, seed=seed)
            service = QueryService(session, max_workers=concurrency, use_cache=use_cache)
            services[dataset_id] = service
            owned.append(service)
    try:
        if warm:
            _run_ops(ops, services, concurrency)
        latencies: list[float] = []
        started = time.perf_counter()
        errors = _run_ops(ops, services, concurrency, latencies)
        elapsed = time.perf_counter() - started

        per_dataset: dict[str, int] = {}
        for op in ops:
            per_dataset[op.dataset_id] = per_dataset.get(op.dataset_id, 0) + 1
        cache_totals = {"hits": 0, "misses": 0, "evictions": 0}
        for service in services.values():
            stats = service.dataspace.result_cache.stats()
            cache_totals["hits"] += stats.hits
            cache_totals["misses"] += stats.misses
            cache_totals["evictions"] += stats.evictions
        latency_ms = percentile_summary(latencies) if latencies else {}
        writes = sum(1 for op in ops if op.is_write)
        return ReplayReport(
            num_ops=len(ops),
            concurrency=concurrency,
            warmed=warm,
            elapsed_seconds=elapsed,
            throughput_qps=len(ops) / elapsed if elapsed > 0 else 0.0,
            errors=errors,
            reads=len(ops) - writes,
            writes=writes,
            latency_ms=latency_ms,
            per_dataset=per_dataset,
            cache=cache_totals,
        )
    finally:
        for service in owned:
            service.close()
