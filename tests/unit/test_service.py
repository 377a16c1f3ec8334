"""Tests for the concurrent service layer: cache, locks, batches, service.

The figure fixtures (paper Figures 1-3) keep these fast; everything here is
about the *serving* semantics — LRU behaviour, generation-keyed staleness,
shared filter prefixes, single-flight de-duplication — not about query
answers, which the differential/golden suites own.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Dataspace, ReadWriteLock, ResultCache
from repro.exceptions import DataspaceError
from repro.service import QueryService
from repro.service.service import default_service_workers, percentile

ICN_QUERY = "//INVOICE_PARTY//CONTACT_NAME"
SCN_QUERY = "//SUPPLIER_PARTY//CONTACT_NAME"


def answers_of(result):
    return {(answer.mapping_id, answer.matches) for answer in result}


@pytest.fixture()
def figure_dataspace(figure_mappings, figure_document):
    """A session over the Figure 3 mapping set and Figure 2 document."""
    return Dataspace.from_mapping_set(
        figure_mappings, document=figure_document, tau=0.4, name="figure1"
    )


# --------------------------------------------------------------------------- #
# ResultCache
# --------------------------------------------------------------------------- #
class TestResultCache:
    def test_get_put_roundtrip(self):
        cache = ResultCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache and len(cache) == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_put_first_writer_wins(self):
        cache = ResultCache(capacity=2)
        first = cache.put("a", object())
        second = cache.put("a", object())
        assert second is first

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        assert not cache.enabled
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_stats_snapshot(self):
        cache = ResultCache(capacity=2)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.to_dict()["hit_rate"] == 0.5

    def test_clear_keeps_stats(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_peek_does_not_touch_counters(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("b") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0


# --------------------------------------------------------------------------- #
# ReadWriteLock
# --------------------------------------------------------------------------- #
class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # both readers are inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        writer_in = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                order.append("write")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read_locked():
                order.append("read")

        lock.acquire_read()  # hold the lock so the writer must wait
        write_thread = threading.Thread(target=writer)
        write_thread.start()
        read_thread = threading.Thread(target=reader)
        read_thread.start()
        lock.release_read()
        write_thread.join(timeout=5)
        read_thread.join(timeout=5)
        assert order == ["write", "read"]

    def test_writer_preference_blocks_new_readers(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        waiting = threading.Thread(target=lock.acquire_write)
        waiting.start()
        # Give the writer time to register as waiting; a fresh reader must
        # now block rather than overtake it.
        import time

        time.sleep(0.05)
        blocked = threading.Thread(target=lock.acquire_read)
        blocked.start()
        blocked.join(timeout=0.1)
        assert blocked.is_alive()  # reader is parked behind the waiting writer
        lock.release_read()
        waiting.join(timeout=5)
        lock.release_write()
        blocked.join(timeout=5)
        assert not blocked.is_alive()
        lock.release_read()


# --------------------------------------------------------------------------- #
# Session result cache semantics
# --------------------------------------------------------------------------- #
class TestSessionResultCache:
    def test_repeat_execute_hits_cache(self, figure_dataspace):
        ds = figure_dataspace
        first = ds.execute(ICN_QUERY)
        second = ds.execute(ICN_QUERY)
        assert second is first  # same object, served from the cache
        stats = ds.result_cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_distinct_plans_cached_separately(self, figure_dataspace):
        ds = figure_dataspace
        tree = ds.execute(ICN_QUERY, plan="blocktree")
        basic = ds.execute(ICN_QUERY, plan="basic")
        assert tree is not basic
        assert answers_of(tree) == answers_of(basic)

    def test_topk_cached_separately_from_full(self, figure_dataspace):
        ds = figure_dataspace
        full = ds.execute(ICN_QUERY)
        top = ds.execute(ICN_QUERY, k=2)
        assert len(full) == 5 and len(top) == 2
        assert ds.execute(ICN_QUERY, k=2) is top

    def test_generation_bump_prevents_stale_hits(self, figure_dataspace):
        ds = figure_dataspace
        before = ds.execute(ICN_QUERY)
        ds.invalidate()
        after = ds.execute(ICN_QUERY)
        assert after is not before  # old generation's entry is unreachable
        assert answers_of(after) == answers_of(before)

    def test_tau_change_separates_entries(self, figure_dataspace):
        ds = figure_dataspace
        before = ds.execute(ICN_QUERY)
        ds.configure(tau=0.9)
        after = ds.execute(ICN_QUERY)
        assert after is not before
        assert answers_of(after) == answers_of(before)

    def test_document_swap_prevents_stale_hits(self, figure_dataspace, figure_elements):
        from repro.document.document import XMLDocument

        ds = figure_dataspace
        populated = ds.execute(ICN_QUERY)
        assert any(not answer.is_empty for answer in populated)
        empty = XMLDocument(ds.source_schema, name="empty.xml")
        empty.add_root(figure_elements["Order"])
        ds.set_document(empty.finalize())
        swapped = ds.execute(ICN_QUERY)
        assert all(answer.is_empty for answer in swapped)

    def test_use_cache_false_bypasses(self, figure_dataspace):
        ds = figure_dataspace
        first = ds.execute(ICN_QUERY, use_cache=False)
        second = ds.execute(ICN_QUERY, use_cache=False)
        assert first is not second
        stats = ds.result_cache.stats()
        assert stats.lookups == 0

    def test_cache_size_zero_disables(self, figure_mappings, figure_document):
        ds = Dataspace.from_mapping_set(
            figure_mappings, document=figure_document, tau=0.4, cache_size=0
        )
        assert ds.execute(ICN_QUERY) is not ds.execute(ICN_QUERY)

    def test_cache_size_zero_disables_filter_cache_too(
        self, figure_mappings, figure_document
    ):
        ds = Dataspace.from_mapping_set(
            figure_mappings, document=figure_document, tau=0.4, cache_size=0
        )
        ds.execute(ICN_QUERY)
        stats = ds.cache_stats()["filter_cache"]
        assert stats["capacity"] == 0 and stats["size"] == 0

    def test_prepared_cache_is_bounded(self, figure_mappings, figure_document, monkeypatch):
        import repro.engine.dataspace as dataspace_module

        monkeypatch.setattr(dataspace_module, "_PREPARED_CACHE_CAPACITY", 2)
        ds = Dataspace.from_mapping_set(
            figure_mappings, document=figure_document, tau=0.4
        )
        oldest = ds.prepare(ICN_QUERY)
        ds.prepare(SCN_QUERY)
        ds.prepare("ORDER")  # capacity 2: evicts the LRU entry (ICN)
        assert ds.prepare(ICN_QUERY) is not oldest  # re-prepared after eviction
        assert ds.prepare("ORDER") is ds.prepare("ORDER")

    def test_twig_keys_never_reused_after_gc(self, figure_dataspace, monkeypatch):
        # Twig-object keys come from a monotonic counter, so a new twig
        # allocated after an old one was evicted and garbage-collected can
        # never inherit its result-cache entries (as a raw id()-based key
        # could, once the bounded prepared cache no longer pins the twig).
        import gc

        from repro.query.parser import parse_twig

        ds = figure_dataspace
        old = parse_twig(ICN_QUERY)
        old_key = ds.prepare(old).cache_key
        del old
        gc.collect()
        new = parse_twig("//SUPPLIER_PARTY//CONTACT_NAME")
        new_key = ds.prepare(new).cache_key
        assert old_key != new_key
        # And the same live twig keeps one stable key across prepares.
        assert ds.prepare(new).cache_key == new_key

    def test_builder_no_cache(self, figure_dataspace):
        ds = figure_dataspace
        builder = ds.query(ICN_QUERY).no_cache()
        assert builder.execute() is not builder.execute()

    def test_explain_reports_cache_participation(self, figure_dataspace):
        ds = figure_dataspace
        first = ds.explain(ICN_QUERY)
        second = ds.explain(ICN_QUERY)
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert second.cache_stats["hits"] >= 1
        assert "cache:" in second.format()
        assert second.to_dict()["cache"] == "hit"
        bypass = ds.explain(ICN_QUERY, use_cache=False)
        assert bypass.cache == "bypass"
        assert bypass.cache_stats is None

    def test_describe_includes_cache_stats(self, figure_dataspace):
        ds = figure_dataspace
        ds.execute(ICN_QUERY)
        info = ds.describe()
        assert info["result_cache"]["misses"] == 1
        assert "filter_cache" in info

    def test_clear_caches(self, figure_dataspace):
        ds = figure_dataspace
        ds.execute(ICN_QUERY)
        ds.clear_caches()
        assert len(ds.result_cache) == 0
        again = ds.execute(ICN_QUERY)
        assert ds.result_cache.stats().misses == 2
        assert len(again) == 5


# --------------------------------------------------------------------------- #
# Shared filter prefix
# --------------------------------------------------------------------------- #
class TestSharedFilterPrefix:
    def test_same_signature_queries_share_filter_pass(self, figure_dataspace):
        ds = figure_dataspace
        # Distinct query texts whose embeddings require the same target
        # elements ({INVOICE_PARTY, CONTACT_NAME}) share one filter pass.
        ds.execute("//INVOICE_PARTY/CONTACT_NAME")
        misses_before = ds.cache_stats()["filter_cache"]["misses"]
        ds.execute("//INVOICE_PARTY//CONTACT_NAME")
        stats = ds.cache_stats()["filter_cache"]
        # The second query's signature matches the first's, so no new miss.
        assert stats["misses"] == misses_before
        assert stats["hits"] >= 1

    def test_relevant_for_is_generation_keyed(self, figure_dataspace):
        ds = figure_dataspace
        prepared = ds.prepare(ICN_QUERY)

        def passes():
            stats = ds.cache_stats()["filter_cache"]
            return stats["misses"], stats["retained"]

        first = prepared.relevant_mappings()
        assert passes() == (1, 0)
        assert prepared.relevant_mappings() is first
        assert passes() == (1, 0)
        ds.invalidate()
        second = prepared.relevant_mappings()
        assert passes() == (2, 0)
        assert [m.mapping_id for m in first] == [m.mapping_id for m in second]


# --------------------------------------------------------------------------- #
# Batched execution
# --------------------------------------------------------------------------- #
class TestQueryBatch:
    def test_batch_parallel_matches_sequential(self, figure_dataspace):
        ds = figure_dataspace
        queries = [ICN_QUERY, SCN_QUERY, "ORDER", ICN_QUERY]
        sequential = ds.query_batch(queries, use_cache=False)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = ds.query_batch(queries, executor=pool, use_cache=False)
        assert [answers_of(r) for r in sequential] == [answers_of(r) for r in parallel]

    def test_batch_deduplicates_identical_queries(self, figure_dataspace):
        ds = figure_dataspace
        results = ds.query_batch([ICN_QUERY, ICN_QUERY, ICN_QUERY], use_cache=False)
        assert results[0] is results[1] is results[2]

    def test_batch_empty(self, figure_dataspace):
        assert figure_dataspace.query_batch([]) == []

    def test_batch_respects_k_and_plan(self, figure_dataspace):
        ds = figure_dataspace
        results = ds.query_batch([ICN_QUERY, SCN_QUERY], k=2, plan="basic")
        assert len(results[0]) == 2  # five relevant mappings, top-2 kept
        assert len(results[1]) == 1  # only one mapping covers SUPPLIER_PARTY
        for query, result in zip([ICN_QUERY, SCN_QUERY], results):
            expected = ds.execute(query, k=2, plan="basic", use_cache=False)
            assert answers_of(result) == answers_of(expected)


# --------------------------------------------------------------------------- #
# QueryService
# --------------------------------------------------------------------------- #
class TestQueryService:
    def test_default_pool_keeps_gil_bound_sizing(self, figure_dataspace):
        # Evaluation holds the GIL: the default pool is one thread.
        assert default_service_workers() == 1
        with QueryService(figure_dataspace) as service:
            assert service.max_workers == 1

    def test_submit_returns_future_with_result(self, figure_dataspace):
        with QueryService(figure_dataspace, max_workers=2) as service:
            future = service.submit(ICN_QUERY)
            result = future.result(timeout=10)
        assert len(result) == 5

    def test_submit_many_order_preserved(self, figure_dataspace):
        with QueryService(figure_dataspace, max_workers=2) as service:
            futures = service.submit_many([ICN_QUERY, "ORDER"], k=2)
            results = [future.result(timeout=10) for future in futures]
        assert all(len(result) == 2 for result in results)

    def test_execute_many_matches_individual_execution(self, figure_dataspace):
        queries = [ICN_QUERY, SCN_QUERY, "ORDER"]
        with QueryService(figure_dataspace, max_workers=4) as service:
            batched = service.execute_many(queries, k=3)
        for query, result in zip(queries, batched):
            assert answers_of(result) == answers_of(figure_dataspace.execute(query, k=3))

    def test_execute_records_latency_and_counts(self, figure_dataspace):
        with QueryService(figure_dataspace, max_workers=2) as service:
            service.execute(ICN_QUERY)
            service.execute(ICN_QUERY)
            stats = service.stats()
        assert stats["submitted"] == 2 and stats["completed"] == 2
        assert stats["errors"] == 0
        assert stats["latency_ms"] is not None
        assert stats["result_cache"]["hits"] >= 1

    def test_error_accounted_and_raised(self, figure_dataspace):
        from repro.exceptions import QueryError

        with QueryService(figure_dataspace, max_workers=2) as service:
            with pytest.raises(QueryError):
                service.execute(ICN_QUERY, k=0)
            stats = service.stats()
        assert stats["errors"] == 1

    def test_closed_service_rejects_submissions(self, figure_dataspace):
        service = QueryService(figure_dataspace, max_workers=1)
        service.close()
        with pytest.raises(DataspaceError):
            service.submit(ICN_QUERY)
        with pytest.raises(DataspaceError):
            service.execute_many([ICN_QUERY])

    def test_invalid_worker_count_rejected(self, figure_dataspace):
        with pytest.raises(DataspaceError):
            QueryService(figure_dataspace, max_workers=0)

    def test_single_flight_shares_inflight_future(self, figure_dataspace):
        # Park the pool's only worker so submissions stay queued, then check
        # that identical queued requests share one future.
        gate = threading.Event()
        with QueryService(figure_dataspace, max_workers=1, use_cache=False) as service:
            service._pool.submit(gate.wait, 10)
            first = service.submit(ICN_QUERY)
            second = service.submit(ICN_QUERY)
            distinct = service.submit(SCN_QUERY)
            gate.set()
            assert second is first
            assert distinct is not first
            first.result(timeout=10)
            distinct.result(timeout=10)
            # Done-callbacks run asynchronously; wait for the counters to
            # converge: every submit (including the deduped join) completes.
            import time

            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                stats = service.stats()
                if stats["completed"] == stats["submitted"]:
                    break
                time.sleep(0.01)
            assert stats["deduped"] == 1
            assert stats["submitted"] == 3
            assert stats["completed"] == 3  # no phantom in-flight work

    def test_single_flight_does_not_cross_generations(self, figure_dataspace):
        # A submit issued after a committed reconfiguration must not join a
        # pre-reconfiguration flight: generation is part of the flight key.
        gate = threading.Event()
        with QueryService(figure_dataspace, max_workers=1, use_cache=False) as service:
            service._pool.submit(gate.wait, 10)
            before = service.submit(ICN_QUERY)
            figure_dataspace.invalidate()
            after = service.submit(ICN_QUERY)
            gate.set()
            assert after is not before
            assert answers_of(after.result(timeout=10)) == answers_of(
                before.result(timeout=10)
            )
            assert service.stats()["deduped"] == 0

    def test_failed_batch_accounting_converges(self, figure_dataspace):
        from repro.exceptions import ReproError

        with QueryService(figure_dataspace, max_workers=2) as service:
            with pytest.raises(ReproError):
                service.execute_many([ICN_QUERY, "ORDER/["])
            stats = service.stats()
        assert stats["submitted"] == 2
        assert stats["completed"] == 2  # no phantom in-flight work
        assert stats["errors"] == 2

    def test_batch_records_each_query_own_latency(self, figure_dataspace, monkeypatch):
        # One slow query among fast ones must surface in the tail: each slot
        # records its own evaluation time, not the batch wall time / size.
        from repro.engine.prepared import PreparedQuery

        queries = [ICN_QUERY, SCN_QUERY, "ORDER", "//CONTACT_NAME", "ORDER/SUPPLIER_PARTY"]
        slow = figure_dataspace.prepare("ORDER")
        original = PreparedQuery.execute

        def execute(self, **kwargs):
            if self is slow:
                import time

                time.sleep(0.2)
            return original(self, **kwargs)

        monkeypatch.setattr(PreparedQuery, "execute", execute)
        with QueryService(figure_dataspace, max_workers=4, use_cache=False) as service:
            service.execute_many(queries)
            latency = service.stats()["latency_ms"]
        assert latency["p99"] >= 150.0
        assert latency["p50"] < 50.0

    def test_stats_expose_worker_count(self, figure_dataspace):
        with QueryService(figure_dataspace, max_workers=3) as service:
            assert service.max_workers == 3
            assert service.stats()["max_workers"] == 3
            assert repr(service).startswith("QueryService(")


class TestPercentile:
    def test_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 1.0) == 40.0
        assert percentile(values, 0.5) == 25.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


# --------------------------------------------------------------------------- #
# Replay driver: mixed read/write streams
# --------------------------------------------------------------------------- #
class TestReplayDriver:
    def test_mixed_workload_interleaves_deltas(self, figure_dataspace):
        from repro.service import ReplayOp, replay_workload, swap_reweight_delta

        delta = swap_reweight_delta(figure_dataspace)
        before = figure_dataspace.delta_epoch
        with QueryService(figure_dataspace, max_workers=2) as service:
            ops = [
                ReplayOp("fig", ICN_QUERY),
                ReplayOp("fig", "<apply_delta>", delta=delta),
                ReplayOp("fig", ICN_QUERY),
                ReplayOp("fig", SCN_QUERY, k=2),
            ]
            assert [op.is_write for op in ops] == [False, True, False, False]
            report = replay_workload(ops, concurrency=1, services={"fig": service})
        assert report.errors == 0
        assert report.reads == 3
        assert report.writes == 1
        assert report.to_dict()["writes"] == 1
        assert "writes=1" in report.format()
        assert figure_dataspace.delta_epoch == before + 1

    def test_concurrent_replay_runs_every_op_once(self, figure_dataspace):
        import sys

        from repro.service import ReplayOp, replay_workload

        ops = [ReplayOp("fig", (ICN_QUERY, SCN_QUERY)[i % 2]) for i in range(400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(figure_dataspace, max_workers=1) as service:
                report = replay_workload(ops, concurrency=8, services={"fig": service})
                stats = service.stats()
        finally:
            sys.setswitchinterval(interval)
        assert report.errors == 0
        assert stats["submitted"] == stats["completed"] == len(ops)
        assert stats["errors"] == 0

    def test_concurrent_replay_raises_a_worker_failure(self):
        from repro.service import ReplayOp, replay_workload

        class Broken:
            def execute(self, query, k=None):
                raise RuntimeError("broken service")

        ops = [ReplayOp("fig", ICN_QUERY)] * 20
        with pytest.raises(RuntimeError, match="broken service"):
            replay_workload(ops, concurrency=4, services={"fig": Broken()})

    def test_swap_reweight_delta_is_mass_preserving_and_replayable(
        self, figure_dataspace
    ):
        from repro.service import swap_reweight_delta

        delta = swap_reweight_delta(figure_dataspace)
        p0 = figure_dataspace.mapping_set[0].probability
        p1 = figure_dataspace.mapping_set[1].probability
        figure_dataspace.apply_delta(delta)
        assert figure_dataspace.mapping_set[0].probability == p1
        assert figure_dataspace.mapping_set[1].probability == p0
        # The same delta applies again without violating mass preservation.
        figure_dataspace.apply_delta(delta)
        assert figure_dataspace.mapping_set[0].probability == p1

    def test_build_mixed_workload_cycles_deltas(self):
        from repro.engine import MappingDelta
        from repro.service import build_mixed_workload

        deltas = [
            MappingDelta.build(reweight={0: 0.5, 1: 0.5}),
            MappingDelta.build(reweight={0: 0.6, 1: 0.4}),
        ]
        ops = build_mixed_workload(
            ["D1"], queries_per_dataset=2, repeats=3, deltas={"D1": deltas}
        )
        writes = [op for op in ops if op.is_write]
        assert len(writes) == 3
        assert [op.delta for op in writes] == [deltas[0], deltas[1], deltas[0]]
        assert all(not op.is_write or op.query == "<apply_delta>" for op in ops)
