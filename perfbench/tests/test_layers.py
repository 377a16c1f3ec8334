import pytest

import layers
from tracing import Span


def span(op, span_id, parent, name, start, end, tag=None):
    return Span(op, span_id, parent, name, start, end, tag)


CLIENT = [
    span(1, 1, None, "op.read", 0.0, 10.0, ("Q1", None)),
    span(1, 2, 1, "net.client_query", 0.1, 9.9),
    span(1, 3, 2, "api.encode_request", 0.2, 0.3),
    span(1, 4, 2, "api.decode_response", 8.0, 9.0),
    span(5, 5, None, "op.read", 1.0, 12.0, ("Q2", 10)),
    span(5, 6, 5, "net.client_query", 1.1, 11.9),
]
# Two concurrent requests: each server op lies inside both client calls,
# and only the (query, k) tag tells them apart.
SERVER = [
    span(100, 101, None, "api.handle", 2.0, 3.0, ("Q2", 10)),
    span(100, 102, 101, "service.execute", 2.1, 2.9),
    span(100, 103, None, "api.encode", 3.0, 4.0, 1000),
    span(200, 201, None, "api.handle", 2.5, 3.5, ("Q1", None)),
    span(200, 202, None, "api.encode", 3.5, 5.0, 3000),
]


def metrics(spans, server_spans=None, **overrides):
    arguments = dict(
        spans=spans,
        server_spans=server_spans,
        counts={name: 0 for name in layers.COUNTERS},
        reads=sum(1 for s in spans if s.name == "op.read"),
        writes=sum(1 for s in spans if s.name == "op.write"),
        write_latencies=[],
        failed=0,
        attempted=1,
        setup={},
        traced_rate=90.0,
        untraced_rate=100.0,
    )
    arguments.update(overrides)
    return layers.layer_metrics(**arguments)


def test_server_ops_pair_with_the_client_call_that_sent_them():
    ops = {1: CLIENT[:4], 5: CLIENT[4:]}
    matched = layers.match_server_ops(ops, SERVER)
    assert {client: spans[0].op for client, spans in matched.items()} == {1: 200, 5: 100}


def test_transport_is_the_client_call_minus_codecs_and_server_time():
    result = metrics(CLIENT, SERVER)
    # op 1: 9.8 - 1.0 decode - 0.1 request encode - 1.0 handle - 1.5 encode
    # op 5: 10.8 - 1.0 handle - 1.0 encode; the nearest-rank p50 of two is the lower.
    assert result["net.transport_ms"] == pytest.approx(6200.0)
    assert result["api.response_bytes"] == pytest.approx(2000.0)
    assert result["service.execute_ms"] == pytest.approx(800.0)
    assert result["trace.overhead_frac"] == pytest.approx(0.1)


def test_unattributed_time_excludes_entry_points_and_counts_server_spans():
    result = metrics(CLIENT, SERVER)
    # op 1 (0-10): request encode 0.1, decode 1.0, server encode 1.5 are cover;
    # op 5 (1-12): only the server encode (1.0).  The client call, the server
    # handler and service.execute are entry points, not cover.
    assert result["trace.unattributed_frac"] == pytest.approx((21.0 - 3.6) / 21.0)


def test_write_spans_split_into_commit_drain_and_patch():
    spans = [
        span(1, 1, None, "op.write", 0.0, 10.0, "rotate"),
        span(1, 2, 1, "delta.apply_batch", 1.0, 9.0),
        span(1, 3, 2, "compiled.patch", 2.0, 3.0),
        span(1, 4, 2, "streaming.drain", 6.0, 8.5),
    ]
    result = metrics(spans, write_latencies=[0.010, 0.020, 0.030])
    assert result["delta.commit_ms"] == pytest.approx(5000.0)
    assert result["streaming.drain_ms"] == pytest.approx(2500.0)
    assert result["compiled.patch_ms"] == pytest.approx(1000.0)
    assert result["write_p50_ms"] == pytest.approx(20.0)
    # 8 of the op's 10 seconds are under a layer span.
    assert result["trace.unattributed_frac"] == pytest.approx(0.2)


def test_match_twig_time_per_read_is_self_time():
    spans = [
        span(1, 1, None, "op.read", 0.0, 4.0, ("q", None)),
        span(1, 2, 1, "query.match_twig", 1.0, 2.0),
        span(1, 3, 1, "query.match_twig", 2.0, 2.5),
        span(7, 7, None, "op.read", 5.0, 6.0, ("q", None)),
    ]
    result = metrics(spans)
    assert result["query.match_twig_calls"] == 2
    assert result["query.match_twig_calls_per_read"] == pytest.approx(1.0)
    assert result["query.match_twig_ms"] == pytest.approx(750.0)


def test_cache_ratios_count_retained_serves_as_served():
    counts = {name: 0 for name in layers.COUNTERS}
    counts.update({"result.hits": 6, "result.misses": 4, "result.retained": 2})
    result = metrics([span(1, 1, None, "op.write", 0.0, 1.0, "rotate")], counts=counts)
    # A retained serve first missed at the new epoch: 8 of 10 lookups served.
    assert result["cache.result_hit_ratio"] == pytest.approx(0.8)
    assert result["cache.retained_per_write"] == pytest.approx(2.0)


def test_paused_read_share_counts_reads_overlapping_a_server_full_collection():
    pause = span(0, 900, None, "gc.full", 9.5, 11.5)
    result = metrics(CLIENT, SERVER + [pause])
    # Both reads (0-10 and 1-12) overlap the pause; a pause is not an op.
    assert result["gc.paused_read_share"] == pytest.approx(1.0)
    assert result["gc.full_pause_ms"] == pytest.approx(2000.0)
    assert result["net.transport_ms"] == pytest.approx(6200.0)
    early = span(0, 901, None, "gc.full", 0.0, 0.5)
    assert layers.paused_share([CLIENT[0], CLIENT[4]], [early]) == pytest.approx(0.5)
