"""The concurrent query service: a thread-pooled front-end over one session.

:class:`QueryService` turns a (thread-safe) engine session into a serving
component: callers submit queries and receive futures, identical in-flight
queries are de-duplicated onto one evaluation (*single-flight*), batches
share their resolve/filter prefix and snapshot through
:meth:`~repro.engine.dataspace.Dataspace.query_batch`, and every request is
timed so the service can report throughput and latency percentiles alongside
the session's cache statistics.

The service adds no caching of its own — the session's generation-keyed
result cache is the single source of truth, which is what guarantees that a
``configure()`` racing with in-flight queries can never surface a stale
answer through the service either.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from repro.exceptions import DataspaceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.dataspace import Dataspace
    from repro.engine.prepared import PlanSpec
    from repro.query.results import PTQResult
    from repro.query.twig import TwigQuery

__all__ = ["QueryService", "percentile", "percentile_summary"]

QueryLike = Union[str, "TwigQuery"]

#: Ring-buffer size for per-request latency samples: percentiles reflect the
#: most recent window, and a long-lived service cannot grow without bound
#: (same rationale as the engine's bounded prepared-query cache).
_LATENCY_SAMPLE_CAPACITY = 4096


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1]).

    Raises
    ------
    ValueError
        On an empty sequence or a fraction outside [0, 1].
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def percentile_summary(values: Sequence[float], ndigits: int = 3) -> dict[str, float]:
    """The p50/p95/p99 summary reported by services and replay drivers.

    Raises
    ------
    ValueError
        On an empty sequence (callers guard and report "no samples").
    """
    return {
        "p50": round(percentile(values, 0.50), ndigits),
        "p95": round(percentile(values, 0.95), ndigits),
        "p99": round(percentile(values, 0.99), ndigits),
    }


def default_service_workers() -> int:
    """Default :class:`QueryService` pool size: one thread.

    Evaluation is pure Python and holds the GIL, so more threads add
    hand-offs and thread start-ups, not throughput.  A warm 90-op D1–D10
    replay took 1.15 ms on one thread against 2.4–2.9 ms on 2, 4 or 8
    (2-vCPU host, paired rounds), and an uncached one 3.4 ms against
    5.0–5.4 ms.
    """
    return 1


class QueryService:
    """A concurrent query front-end over one :class:`Dataspace` session.

    Parameters
    ----------
    dataspace:
        The session to serve.  It may be shared with other services and with
        direct callers (it is thread-safe).
    max_workers:
        Size of the service's thread pool (used by :meth:`submit`,
        :meth:`submit_many` and :meth:`execute_many`).  ``None`` (default)
        uses :func:`default_service_workers`.
    use_cache:
        Whether served queries consult the session's result cache
        (default ``True``).

    The service is a context manager; leaving the ``with`` block shuts the
    pool down.  Statistics (request counts, latency percentiles, cache
    counters) are available through :meth:`stats` at any time.
    """

    def __init__(
        self,
        dataspace: "Dataspace",
        *,
        max_workers: Optional[int] = None,
        use_cache: bool = True,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise DataspaceError(f"max_workers must be at least 1, got {max_workers}")
        self._dataspace = dataspace
        if max_workers is None:
            max_workers = default_service_workers()
        self._use_cache = use_cache
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=f"ptq-{dataspace.name}"
        )
        self._max_workers = max_workers
        self._lock = threading.Lock()
        self._inflight: dict = {}
        self._submitted = 0
        self._completed = 0
        self._deduped = 0
        self._errors = 0
        self._latencies_ms: "deque[float]" = deque(maxlen=_LATENCY_SAMPLE_CAPACITY)
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def dataspace(self) -> "Dataspace":
        """The session this service fronts."""
        return self._dataspace

    def _flight_scope(self) -> tuple:
        """Configuration scope of single-flight keys.

        Includes the fine-grained ``delta_epoch``, so a submit issued after
        an :meth:`apply_delta` committed never joins a pre-delta flight.
        """
        return (
            self._dataspace.generation,
            self._dataspace.document_version,
            self._dataspace.delta_epoch,
        )

    @property
    def max_workers(self) -> int:
        """Thread-pool size."""
        return self._max_workers

    def executor_config(self) -> dict:
        """The service's chosen executor configuration (for benchmarks/ops)."""
        return {"max_workers": self._max_workers}

    def close(self, *, wait: bool = True) -> None:
        """Shut the pool down; queued work finishes when ``wait`` is true.

        ``_closed`` flips under the service lock *before* the pool shuts
        down, and :meth:`submit` checks it in the same critical section that
        reserves pool work — so a submit either lands before the shutdown or
        fails cleanly with :class:`DataspaceError`, never with the pool's
        RuntimeError.
        """
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DataspaceError("the query service has been closed")

    # ------------------------------------------------------------------ #
    # Writer side
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta):
        """Apply a mapping delta to the served session, atomically.

        Writer-side companion of the read paths: the update commits as one
        newly published session state, so in-flight queries (which
        evaluate against immutable snapshots) are unaffected, and every
        request submitted afterwards sees the new ``delta_epoch`` — the
        single-flight key includes it, so post-delta submits never join a
        pre-delta flight.  Cached results the delta provably did not touch
        keep serving (see :meth:`repro.engine.cache.ResultCache.lookup`).

        Returns the session's :class:`~repro.engine.delta.DeltaReport`.

        >>> # with QueryService(ds) as service:
        >>> #     service.apply_delta(MappingDelta.build(reweight={0: 0.2, 1: 0.3}))
        """
        return self._dataspace.apply_delta(delta)

    def apply_delta_batch(self, batch):
        """Apply a whole delta batch as one atomic epoch bump.

        Batch companion of :meth:`apply_delta`: every member delta is
        validated in sequence but the session commits one ``delta_epoch``
        bump with one incremental recompile of the net difference, and
        standing queries are notified once for the whole batch.  Accepts a
        :class:`~repro.engine.streaming.DeltaBatch` or any iterable of
        deltas; returns the session's
        :class:`~repro.engine.streaming.DeltaBatchReport`.
        """
        return self._dataspace.apply_delta_batch(batch)

    # ------------------------------------------------------------------ #
    # Standing queries
    # ------------------------------------------------------------------ #
    def subscribe(self, query: QueryLike, *, k: Optional[int] = None, callback):
        """Register ``query`` as a standing query on the served session.

        Delegates to :meth:`Dataspace.subscribe
        <repro.engine.dataspace.Dataspace.subscribe>`: the query executes
        once, ``callback`` receives the ``initial``
        :class:`~repro.engine.streaming.SubscriptionUpdate` before this
        returns, and every delta batch applied through this service (or
        directly on the session) delivers incremental diffs.  Returns the
        :class:`~repro.engine.streaming.Subscription` handle.  Callbacks run
        on the committing thread and must not block.
        """
        return self._dataspace.subscribe(query, k=k, callback=callback)

    # ------------------------------------------------------------------ #
    # Execution paths
    # ------------------------------------------------------------------ #
    def _record(self, started: float, failed: bool) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._lock:
            self._completed += 1
            if failed:
                self._errors += 1
            else:
                self._latencies_ms.append(elapsed_ms)

    def execute(
        self, query: QueryLike, *, k: Optional[int] = None, plan: "PlanSpec" = None
    ) -> "PTQResult":
        """Evaluate ``query`` synchronously in the calling thread (timed).

        This is the path replay drivers use: the driver owns the
        concurrency, the service contributes caching and accounting.
        """
        with self._lock:
            self._submitted += 1
        started = time.perf_counter()
        try:
            result = self._dataspace.execute(
                query, k=k, plan=plan, use_cache=self._use_cache
            )
        except Exception:
            self._record(started, failed=True)
            raise
        self._record(started, failed=False)
        return result

    def cached(
        self, query: str, *, k: Optional[int] = None, plan: "PlanSpec" = None
    ) -> Optional["PTQResult"]:
        """The cached answer to :meth:`execute`, or ``None`` — never evaluating.

        A hit counts (and is timed) as one completed request; ``None``
        counts nothing, so the caller's fallback to :meth:`execute` or
        :meth:`submit` counts the request once.  Always ``None`` on a
        cache-less or closed service.  See
        :meth:`PreparedQuery.cached <repro.engine.prepared.PreparedQuery.cached>`.
        """
        if not self._use_cache or self._closed:
            return None
        started = time.perf_counter()
        result = self._dataspace.cached(query, k=k, plan=plan)
        if result is not None:
            with self._lock:
                self._submitted += 1
            self._record(started, failed=False)
        return result

    def submit(
        self, query: QueryLike, *, k: Optional[int] = None, plan: "PlanSpec" = None
    ) -> "Future[PTQResult]":
        """Submit ``query`` to the pool; returns a future.

        Identical requests — same prepared query, ``k``, ``plan`` *and
        session generation/document version* — that are concurrently in
        flight share one future (single-flight), so a thundering herd on a
        cold cache evaluates once.  A submit issued after a ``configure()``
        committed never joins a pre-reconfiguration flight: the generation
        is part of the flight key.
        """
        self._check_open()
        prepared = self._dataspace.prepare(query)
        plan_name = plan if isinstance(plan, str) or plan is None else plan.name
        flight_key = (prepared.cache_key, plan_name, k, self._flight_scope())
        started = time.perf_counter()

        def run() -> "PTQResult":
            return prepared.execute(k=k, plan=plan, use_cache=self._use_cache)

        def done(f: "Future[PTQResult]") -> None:
            with self._lock:
                self._inflight.pop(flight_key, None)
            self._record(started, failed=f.exception() is not None)

        # Check-and-reserve atomically: concurrent identical submits must
        # observe either the shared in-flight future or insert exactly one,
        # and a racing close() must be seen before the pool shuts down.
        with self._lock:
            if self._closed:
                raise DataspaceError("the query service has been closed")
            self._submitted += 1
            existing = self._inflight.get(flight_key)
            if existing is None:
                future = self._pool.submit(run)
                self._inflight[flight_key] = future
            else:
                self._deduped += 1
        # Callbacks are registered outside the lock: on an already-finished
        # future they fire inline, and _record/done re-acquire it.
        if existing is not None:
            # A deduped join is still a request that completes — record it so
            # submitted == completed converges for every caller.
            existing.add_done_callback(
                lambda f: self._record(started, failed=f.exception() is not None)
            )
            return existing
        # If the worker already finished, add_done_callback fires inline and
        # pops the reservation, so completed futures never linger.
        future.add_done_callback(done)
        return future

    def submit_many(
        self,
        queries: Iterable[QueryLike],
        *,
        k: Optional[int] = None,
        plan: "PlanSpec" = None,
    ) -> list["Future[PTQResult]"]:
        """Submit every query; duplicates share futures via single-flight."""
        return [self.submit(query, k=k, plan=plan) for query in queries]

    def execute_many(
        self,
        queries: Iterable[QueryLike],
        *,
        k: Optional[int] = None,
        plan: "PlanSpec" = None,
    ) -> list["PTQResult"]:
        """Evaluate a batch with shared prefix work, fanned over the pool.

        Delegates to :meth:`Dataspace.query_batch` with the service's
        executor: one snapshot for the whole batch, duplicate queries
        collapsed, resolve/filter shared, evaluation parallel.
        """
        queries = list(queries)
        with self._lock:
            if self._closed:
                raise DataspaceError("the query service has been closed")
            self._submitted += len(queries)
        timings_ms: list[float] = []
        try:
            results = self._dataspace.query_batch(
                queries,
                k=k,
                plan=plan,
                executor=self._pool,
                use_cache=self._use_cache,
                timings_ms=timings_ms,
            )
        except Exception as error:
            # The batch fails as a unit: account every submitted slot as
            # completed-with-error so submitted == completed always converges
            # and stats() never reports phantom in-flight work.
            with self._lock:
                self._completed += len(queries)
                self._errors += len(queries)
            # A close() racing the batch surfaces as the pool's shutdown
            # RuntimeError; translate it to the documented error type.
            if isinstance(error, RuntimeError) and "shutdown" in str(error):
                raise DataspaceError("the query service has been closed") from error
            raise
        with self._lock:
            self._completed += len(queries)
            # Each query slot records its own evaluation time, measured where
            # it ran, so one slow query in a batch shows up in the tail.
            self._latencies_ms.extend(timings_ms)
        return results

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def latency_percentiles(self) -> Optional[dict[str, float]]:
        """p50/p95/p99 over the most recent latency samples (ms), or ``None``.

        Samples live in a bounded ring buffer, so the percentiles describe
        the recent window (up to ``_LATENCY_SAMPLE_CAPACITY`` requests), not
        the service's whole lifetime.
        """
        with self._lock:
            samples = list(self._latencies_ms)
        if not samples:
            return None
        return percentile_summary(samples)

    def stats(self) -> dict:
        """Counters, latency percentiles and the session's cache statistics."""
        with self._lock:
            info = {
                "submitted": self._submitted,
                "completed": self._completed,
                "deduped": self._deduped,
                "errors": self._errors,
                "inflight": len(self._inflight),
                "max_workers": self._max_workers,
            }
        info["latency_ms"] = self.latency_percentiles()
        info["subscriptions"] = self._dataspace.subscriptions.stats()
        info.update(self._dataspace.cache_stats())
        return info

    def __repr__(self) -> str:
        return (
            f"QueryService({self._dataspace.name!r}, max_workers={self._max_workers}, "
            f"submitted={self._submitted})"
        )
