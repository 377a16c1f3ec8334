"""Differential properties: every execution path returns identical answers.

The paper's correctness claim (Algorithm 3 ≡ Algorithm 4) is extended here to
the whole serving stack: on hypothesis-generated scenarios, the engine's
``basic``, ``blocktree`` and ``compiled`` plans, the cached and uncached
paths, the batch executor (sequential and thread-pooled) and the concurrent
:class:`~repro.service.QueryService` must all return exactly the same
:class:`~repro.query.results.PTQResult` contents.  This is the safety net
that lets future perf PRs refactor hot paths without changing answers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import query_scenarios
from repro.engine import Dataspace
from repro.service import QueryService

#: Bitset kernels the compiled plan runs on.  Python ints are the only
#: implementation; the axis keeps the case id naming them.
KERNELS = ("python",)


def answer_set(result):
    return {(answer.mapping_id, answer.matches, answer.probability) for answer in result}


def canonical_answers(result):
    """Byte-exact serialisation: probabilities via ``float.hex()``."""
    return sorted(
        (answer.mapping_id, sorted(map(sorted, answer.matches)), answer.probability.hex())
        for answer in result
    )


def open_session(scenario, cache_size=128):
    mapping_set, document, query, tau = scenario
    session = Dataspace.from_mapping_set(
        mapping_set, document=document, tau=tau, cache_size=cache_size
    )
    return session, query


class TestPlanEquivalence:
    @pytest.mark.parametrize("kernels", KERNELS)
    @settings(max_examples=30, deadline=None)
    @given(scenario=query_scenarios())
    def test_all_plans_identical(self, kernels, scenario):
        session, query = open_session(scenario)
        assert kernels == "python" and type(session.compiled.all_mask) is int
        basic = session.execute(query, plan="basic", use_cache=False)
        tree = session.execute(query, plan="blocktree", use_cache=False)
        compiled = session.execute(query, plan="compiled", use_cache=False)
        auto = session.execute(query, use_cache=False)  # auto == compiled default
        assert (
            canonical_answers(basic)
            == canonical_answers(tree)
            == canonical_answers(compiled)
            == canonical_answers(auto)
        )

    @settings(max_examples=30, deadline=None)
    @given(query_scenarios(), st.integers(1, 6))
    def test_topk_identical_across_plans(self, scenario, k):
        session, query = open_session(scenario)
        basic = session.execute(query, k=k, plan="basic", use_cache=False)
        tree = session.execute(query, k=k, plan="blocktree", use_cache=False)
        compiled = session.execute(query, k=k, plan="compiled", use_cache=False)
        assert canonical_answers(basic) == canonical_answers(tree) == canonical_answers(compiled)

    @settings(max_examples=20, deadline=None)
    @given(query_scenarios())
    def test_compiled_filter_matches_plain_scan(self, scenario):
        # The compiled bitset filter must select exactly the mappings the
        # seed per-mapping scan would, in the same order.
        from repro.query.ptq import filter_mappings
        from repro.query.resolve import resolve_query

        mapping_set, _, query, _ = scenario
        embeddings = resolve_query(query, mapping_set.matching.target)
        via_bitsets = filter_mappings(mapping_set, embeddings)
        via_scan = filter_mappings(list(mapping_set), embeddings)
        assert via_bitsets == via_scan


class TestCacheEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(query_scenarios())
    def test_cached_equals_uncached(self, scenario):
        session, query = open_session(scenario)
        uncached = session.execute(query, use_cache=False)
        miss = session.execute(query)  # populates the cache
        hit = session.execute(query)  # must be served from it
        assert hit is miss
        assert answer_set(uncached) == answer_set(hit)
        assert session.result_cache.stats().hits >= 1

    @settings(max_examples=20, deadline=None)
    @given(query_scenarios())
    def test_cache_disabled_session_identical(self, scenario):
        cached_session, query = open_session(scenario)
        uncached_session, _ = open_session(scenario, cache_size=0)
        assert answer_set(cached_session.execute(query)) == answer_set(
            uncached_session.execute(query)
        )


class TestBatchAndServiceEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(query_scenarios())
    def test_batch_equals_one_at_a_time(self, scenario):
        session, query = open_session(scenario)
        one_at_a_time = [
            session.execute(query, use_cache=False) for _ in range(3)
        ]
        sequential = session.query_batch([query, query, query], use_cache=False)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = session.query_batch([query, query, query], executor=pool)
        compiled_batch = session.query_batch(
            [query, query, query], plan="compiled", use_cache=False
        )
        for single, batch_seq, batch_pool, batch_compiled in zip(
            one_at_a_time, sequential, pooled, compiled_batch
        ):
            assert (
                answer_set(single)
                == answer_set(batch_seq)
                == answer_set(batch_pool)
                == answer_set(batch_compiled)
            )

    @settings(max_examples=15, deadline=None)
    @given(query_scenarios(), st.integers(1, 4))
    def test_service_equals_direct_execution(self, scenario, k):
        session, query = open_session(scenario)
        direct = session.execute(query, k=k, use_cache=False)
        basic = session.execute(query, k=k, plan="basic", use_cache=False)
        with QueryService(session, max_workers=2) as service:
            submitted = service.submit(query, k=k).result(timeout=30)
            batched = service.execute_many([query], k=k)[0]
            compiled = service.execute_many([query], k=k, plan="compiled")[0]
        assert (
            answer_set(direct)
            == answer_set(basic)
            == answer_set(submitted)
            == answer_set(batched)
            == answer_set(compiled)
        )
