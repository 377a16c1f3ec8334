"""Wire encoding of query results: byte identity and the per-result memo.

:func:`repro.api.encode_message` splices each result's canonical bytes,
encoded once per ``PTQResult`` object, into query and batch responses.  The
server differential suite compares the server with
:class:`~repro.api.handler.ApiHandler`, and both encode through the memo, so
these tests pin the encoding itself against the envelope built the old way:
``canonical_json`` of a dict holding ``result_to_json`` payloads.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.api import (
    PROTOCOL_VERSION,
    BatchRequest,
    QueryRequest,
    decode_response,
    encode_message,
)
from repro.api import messages, serialize
from repro.api.handler import ApiHandler
from repro.api.serialize import canonical_json, result_to_json
from repro.engine import Dataspace
from repro.engine.delta import MappingDelta
from repro.service import QueryService, workload_queries
from repro.workloads.datasets import DATASET_IDS

#: Mapping-set size (the golden fixtures' size: cheap for all ten datasets).
H = 25
KS = (None, 10)
#: A D7 query whose echoed text needs JSON escaping (quote, non-ASCII).
ESCAPED_QUERY = "Order/DeliverTo/Address[./City = 'Zoë \"Z\"']/Street"


def reference_query_bytes(query: str, result) -> bytes:
    """The query response encoded the old way: the whole envelope as dicts."""
    return canonical_json(
        {
            "v": PROTOCOL_VERSION,
            "op": "query",
            "body": {"query": query, "result": result_to_json(result)},
        }
    )


def reference_batch_bytes(queries, results) -> bytes:
    return canonical_json(
        {
            "v": PROTOCOL_VERSION,
            "op": "batch",
            "body": {
                "queries": list(queries),
                "results": [result_to_json(result) for result in results],
            },
        }
    )


@pytest.fixture(scope="module")
def d7_service():
    with QueryService(Dataspace.from_dataset("D7", h=H), max_workers=2) as svc:
        yield svc


# --------------------------------------------------------------------------- #
# Byte identity against the old encoder
# --------------------------------------------------------------------------- #
class TestByteIdentity:
    @pytest.mark.parametrize("dataset_id", DATASET_IDS)
    def test_query_responses_match_the_dict_encoding(self, dataset_id):
        with QueryService(Dataspace.from_dataset(dataset_id, h=H), max_workers=2) as svc:
            handler = ApiHandler(svc)
            for query in workload_queries(dataset_id):
                for k in KS:
                    # Twice: the miss that fills the result cache, then the hit.
                    for _ in range(2):
                        response = handler.handle(QueryRequest(query=query, k=k))
                        expected = reference_query_bytes(query, svc.execute(query, k=k))
                        assert encode_message(response) == expected, (query, k)
                        assert canonical_json(response.to_json()) == expected
                        assert decode_response(expected) == response

    def test_batch_response_matches_the_dict_encoding(self, d7_service):
        queries = tuple(workload_queries("D7"))
        handler = ApiHandler(d7_service)
        for k in KS:
            response = handler.handle(BatchRequest(queries=queries, k=k))
            results = [d7_service.execute(query, k=k) for query in queries]
            expected = reference_batch_bytes(queries, results)
            assert encode_message(response) == expected
            assert canonical_json(response.to_json()) == expected
            assert decode_response(expected) == response

    @pytest.mark.parametrize("k", KS)
    def test_query_text_needing_escapes(self, d7_service, k):
        response = ApiHandler(d7_service).handle(QueryRequest(query=ESCAPED_QUERY, k=k))
        expected = reference_query_bytes(ESCAPED_QUERY, d7_service.execute(ESCAPED_QUERY, k=k))
        data = encode_message(response)
        assert data == expected
        assert b"\\u00eb" in data and b'\\"Z\\"' in data
        assert decode_response(data).query == ESCAPED_QUERY

    def test_batch_with_escaped_query(self, d7_service):
        queries = ("Q1", ESCAPED_QUERY)
        response = ApiHandler(d7_service).handle(BatchRequest(queries=queries))
        results = [d7_service.execute(query) for query in queries]
        assert encode_message(response) == reference_batch_bytes(queries, results)


# --------------------------------------------------------------------------- #
# Memo lifecycle
# --------------------------------------------------------------------------- #
class TestResultBytesMemo:
    def test_second_hit_reuses_the_encoded_bytes(self, monkeypatch):
        calls = []
        original = serialize.result_to_json

        def counting_result_to_json(result):
            calls.append(result)
            return original(result)

        # Both names: the memo's, and the one ``to_json()`` falls back to.
        monkeypatch.setattr(serialize, "result_to_json", counting_result_to_json)
        monkeypatch.setattr(messages, "result_to_json", counting_result_to_json)
        with QueryService(Dataspace.from_dataset("D7", h=H), max_workers=2) as svc:
            handler = ApiHandler(svc)
            request = QueryRequest(query="Q7", k=10)
            first = encode_message(handler.handle(request))
            memo = serialize._RESULT_BYTES[svc.execute("Q7", k=10)]
            assert len(calls) == 1
            second = encode_message(handler.handle(request))
            assert second == first
            assert serialize._RESULT_BYTES[svc.execute("Q7", k=10)] is memo
            assert len(calls) == 1

    def test_delta_changing_the_answer_serves_fresh_bytes(self):
        with QueryService(Dataspace.from_dataset("D7", h=H), max_workers=2) as svc:
            handler = ApiHandler(svc)
            request = QueryRequest(query="Q1")
            before = encode_message(handler.handle(request))
            # Swap the probabilities of two answering mappings: mass-preserving,
            # and both answers change.
            first, second = next(
                (a, b)
                for a in svc.execute("Q1")
                for b in svc.execute("Q1")
                if a.probability != b.probability
            )
            svc.apply_delta(
                MappingDelta.build(
                    reweight={
                        first.mapping_id: second.probability,
                        second.mapping_id: first.probability,
                    }
                )
            )
            after = encode_message(handler.handle(request))
            assert after != before
            assert after == reference_query_bytes("Q1", svc.execute("Q1"))

    def test_memo_is_collected_with_the_evicted_result(self):
        session = Dataspace.from_dataset("D7", h=H, cache_size=1)
        with QueryService(session, max_workers=2) as svc:
            handler = ApiHandler(svc)
            encode_message(handler.handle(QueryRequest(query="Q1")))
            evicted = weakref.ref(svc.execute("Q1"))
            assert evicted() in serialize._RESULT_BYTES
            gc.collect()
            entries = len(serialize._RESULT_BYTES)
            # Q2 evicts Q1 from the one-entry result cache.
            encode_message(handler.handle(QueryRequest(query="Q2")))
            gc.collect()
            assert evicted() is None
            # Q1's entry left with its result; Q2's took its place.
            assert svc.execute("Q2") in serialize._RESULT_BYTES
            assert len(serialize._RESULT_BYTES) == entries

    def test_concurrent_encodes_under_eviction(self):
        """Threads racing on first encodes and on evicted results' memo
        removal still get the reference bytes for every response."""
        queries = workload_queries("D7")[:6]
        session = Dataspace.from_dataset("D7", h=H, cache_size=2)
        with QueryService(session, max_workers=4) as svc:
            handler = ApiHandler(svc)
            expected = {
                query: reference_query_bytes(query, session.execute(query, use_cache=False))
                for query in queries
            }
            mismatches = []

            def worker(offset: int) -> None:
                for i in range(60):
                    query = queries[(offset + i) % len(queries)]
                    data = encode_message(handler.handle(QueryRequest(query=query)))
                    if data != expected[query]:
                        mismatches.append(query)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert mismatches == []
