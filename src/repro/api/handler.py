"""Transport-neutral dispatch of typed requests onto the engine.

:class:`ApiHandler` is the single place where a wire request becomes engine
work.  The asyncio server (:mod:`repro.net.server`) calls
:meth:`ApiHandler.handle` from executor threads and :meth:`ApiHandler.cached`
on its event loop; tests call it directly to pin the in-process reference
responses that server responses must match byte for byte.  Keeping dispatch
out of the server means the differential property — *same request, same
bytes, with or without the network* — is a statement about one shared code
path, not about two implementations agreeing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from repro.api.errors import BadRequestError
from repro.api.messages import (
    BatchRequest,
    BatchResponse,
    DeltaBatchRequest,
    DeltaBatchResponse,
    DeltaRequest,
    DeltaResponse,
    ExplainRequest,
    ExplainResponse,
    PingRequest,
    PingResponse,
    QueryRequest,
    QueryResponse,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    SubscribeRequest,
)
from repro.api.serialize import (
    delta_batch_report_to_json,
    delta_report_to_json,
    explain_to_json,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service import QueryService

__all__ = ["ApiHandler"]


class ApiHandler:
    """Map typed API requests onto a :class:`~repro.service.QueryService`.

    The handler is stateless beyond the service it wraps, and thread-safe to
    the exact extent the service is — which is what lets the server dispatch
    concurrent requests to it from a thread pool without coordination.

    ``extra_stats`` (an optional zero-argument callable returning a dict) is
    merged into :class:`~repro.api.messages.StatsResponse` payloads under the
    ``"server"`` key; the network server uses it to surface admission-control
    and connection counters through the same operation.
    """

    def __init__(self, service: "QueryService", *, extra_stats=None) -> None:
        self._service = service
        self._extra_stats = extra_stats

    @property
    def service(self) -> "QueryService":
        """The query service requests are dispatched to."""
        return self._service

    def handle(self, request: Request) -> Response:
        """Execute ``request`` and return its typed response.

        Engine errors propagate as their :class:`~repro.exceptions.ReproError`
        subclasses — the transport layer (or direct caller) decides whether
        to raise them or encode them as
        :class:`~repro.api.messages.ErrorResponse`.
        """
        if isinstance(request, QueryRequest):
            return self.query(request)
        if isinstance(request, BatchRequest):
            return self.batch(request)
        if isinstance(request, DeltaRequest):
            return self.apply_delta(request)
        if isinstance(request, DeltaBatchRequest):
            return self.apply_delta_batch(request)
        if isinstance(request, SubscribeRequest):
            raise BadRequestError(
                "'subscribe' is a streaming operation; it is only served by "
                "the binary protocol's subscription stream"
            )
        if isinstance(request, ExplainRequest):
            return self.explain(request)
        if isinstance(request, StatsRequest):
            return self.stats(request)
        if isinstance(request, PingRequest):
            return PingResponse()
        raise BadRequestError(f"unhandled request type {type(request).__name__}")

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def _execute(
        self, query: str, *, k: Optional[int], plan: Optional[str], use_cache: bool
    ):
        if not query:
            raise BadRequestError("'query' must be a non-empty string")
        if use_cache:
            return self._service.execute(query, k=k, plan=plan)
        # A per-request cache bypass steps around the service (whose cache
        # policy is fixed at construction) straight onto the session;
        # results are byte-identical either way, only timing stats differ.
        return self._service.dataspace.execute(query, k=k, plan=plan, use_cache=False)

    def query(self, request: QueryRequest) -> QueryResponse:
        """Evaluate one query; the response carries the engine's result,
        whose canonical bytes are encoded once per result object."""
        result = self._execute(
            request.query, k=request.k, plan=request.plan, use_cache=request.use_cache
        )
        return QueryResponse(query=request.query, result=result)

    def cached(self, request: QueryRequest) -> Optional[QueryResponse]:
        """The response to ``request`` when its answer is cached, else ``None``.

        Never evaluates or blocks (see :meth:`QueryService.cached
        <repro.service.QueryService.cached>`), so the server can call it on
        its event loop; ``None`` means the request goes to :meth:`handle`.
        """
        if not request.query or not request.use_cache:
            return None
        result = self._service.cached(request.query, k=request.k, plan=request.plan)
        return None if result is None else QueryResponse(query=request.query, result=result)

    def batch(self, request: BatchRequest) -> BatchResponse:
        """Evaluate a batch with shared prefix work and one snapshot."""
        queries = list(request.queries)
        if not queries:
            raise BadRequestError("'queries' must list at least one query")
        if request.use_cache:
            results = self._service.execute_many(queries, k=request.k, plan=request.plan)
        else:
            results = self._service.dataspace.query_batch(
                queries, k=request.k, plan=request.plan, use_cache=False
            )
        return BatchResponse(queries=tuple(queries), results=tuple(results))

    def apply_delta(self, request: DeltaRequest) -> DeltaResponse:
        """Apply a mapping delta; returns the canonical delta report."""
        from repro.engine.delta import MappingDelta

        if not request.delta:
            raise BadRequestError("'delta' must be a non-empty delta payload")
        delta = MappingDelta.from_payload(request.delta)
        report = self._service.apply_delta(delta)
        return DeltaResponse(report=delta_report_to_json(report))

    def apply_delta_batch(self, request: DeltaBatchRequest) -> DeltaBatchResponse:
        """Apply a coalesced delta batch; returns the canonical batch report."""
        from repro.engine.delta import MappingDelta
        from repro.engine.streaming import DeltaBatch

        if not request.deltas:
            raise BadRequestError("'deltas' must list at least one delta payload")
        try:
            batch = DeltaBatch.build(
                MappingDelta.from_payload(item) for item in request.deltas
            )
        except (TypeError, AttributeError) as exc:
            raise BadRequestError(f"malformed delta payload: {exc}") from exc
        report = self._service.apply_delta_batch(batch)
        return DeltaBatchResponse(report=delta_batch_report_to_json(report))

    def explain(self, request: ExplainRequest) -> ExplainResponse:
        """Explain one query against the session."""
        if not request.query:
            raise BadRequestError("'query' must be a non-empty string")
        report = self._service.dataspace.explain(request.query, k=request.k, plan=request.plan)
        return ExplainResponse(report=explain_to_json(report))

    def stats(self, request: StatsRequest) -> StatsResponse:
        """Service counters plus (when attached) the server's own counters."""
        stats: dict = dict(self._service.stats())
        if self._extra_stats is not None:
            stats["server"] = self._extra_stats()
        return StatsResponse(stats=stats)


def _coerce_service(
    target: Union["QueryService", object], *, use_cache: bool = True
) -> tuple["QueryService", bool]:
    """Wrap a Dataspace in a service; pass services through.

    Returns ``(service, owned)`` — ``owned`` tells the caller whether it is
    responsible for closing the service it received.
    """
    from repro.service import QueryService

    if isinstance(target, QueryService):
        return target, False
    return QueryService(target, use_cache=use_cache), True
