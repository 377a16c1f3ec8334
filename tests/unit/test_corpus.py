"""Unit tests for the sharded corpus engine (partitioning + scatter-gather)."""

from __future__ import annotations

import pytest

from repro.corpus import (
    CorpusAnswer,
    ShardedCorpus,
    partition_document,
    subtree_size,
)
from repro.corpus.engine import recommend_scatter_workers
from repro.engine import Dataspace
from repro.exceptions import CorpusError, QueryError
from repro.workloads import open_corpus


def answer_set(result):
    return {(answer.mapping_id, answer.probability, answer.matches) for answer in result}


@pytest.fixture()
def figure_dataspace(figure_mappings, figure_document):
    return Dataspace.from_mapping_set(
        figure_mappings, document=figure_document, name="figure"
    )


QUERIES = (
    "//INVOICE_PARTY//CONTACT_NAME",
    "//SUPPLIER_PARTY//CONTACT_NAME",
    "//CONTACT_NAME",
    "ORDER",
    "ORDER[./INVOICE_PARTY/CONTACT_NAME]/SUPPLIER_PARTY",  # branchy at the root
)


class TestPartitionDocument:
    def test_every_node_in_exactly_one_subtree_or_spine(self, figure_document):
        partition = partition_document(figure_document, 3)
        spine = partition.spine_node_ids
        owned: list[int] = []
        for shard in partition.shards:
            for element_id in shard.present_elements:
                for node in shard.nodes_of_element(element_id):
                    if node.node_id not in spine:
                        owned.append(node.node_id)
        assert sorted(owned + sorted(spine)) == sorted(
            node.node_id for node in figure_document
        )

    def test_spine_replicated_into_every_shard(self, figure_document):
        partition = partition_document(figure_document, 4)
        root = figure_document.root
        for shard in partition.shards:
            assert root in shard.nodes_of_element(root.element_id)

    def test_shard_nodes_are_shared_objects(self, figure_document):
        partition = partition_document(figure_document, 2)
        for shard in partition.shards:
            for element_id in shard.present_elements:
                for node in shard.nodes_of_element(element_id):
                    assert figure_document.get(node.node_id) is node

    def test_partition_is_deterministic(self, figure_document):
        first = partition_document(figure_document, 3)
        second = partition_document(figure_document, 3)
        assert first.describe() == second.describe()
        for shard_a, shard_b in zip(first.shards, second.shards):
            assert shard_a.present_elements == shard_b.present_elements

    def test_more_shards_than_subtrees(self, figure_document):
        partition = partition_document(figure_document, 16)
        assert partition.num_shards == 16
        # Trailing shards are spine-only but still valid views.
        assert all(len(shard) >= len(partition.spine_node_ids) for shard in partition.shards)

    def test_subtree_size_matches_region_encoding(self, figure_document):
        assert subtree_size(figure_document.root) == len(figure_document)

    def test_invalid_inputs(self, figure_document, source_schema):
        from repro.document.document import XMLDocument

        with pytest.raises(CorpusError):
            partition_document(figure_document, 0)
        unfinalized = XMLDocument(source_schema, "raw.xml")
        with pytest.raises(CorpusError):
            partition_document(unfinalized, 2)

    def test_describe_reports_balance(self, figure_document):
        info = partition_document(figure_document, 2).describe()
        assert info["num_shards"] == 2
        assert sum(info["shard_subtrees"]) >= 1
        assert info["largest_shard"] <= info["num_nodes"]


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_execute_identical_to_unsharded(self, figure_dataspace, num_shards):
        corpus = figure_dataspace.shard(num_shards)
        for query in QUERIES:
            sharded = corpus.execute(query, use_cache=False)
            unsharded = figure_dataspace.execute(query, use_cache=False)
            assert answer_set(sharded) == answer_set(unsharded), query

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_topk_identical_to_unsharded(self, figure_dataspace, num_shards, k):
        corpus = figure_dataspace.shard(num_shards)
        for query in QUERIES:
            sharded = corpus.execute(query, k=k, use_cache=False)
            unsharded = figure_dataspace.execute(query, k=k, use_cache=False)
            assert answer_set(sharded) == answer_set(unsharded), query

    def test_dataset_session_corpus(self):
        session = Dataspace.from_dataset("D1", h=10)
        corpus = session.shard(3)
        from repro.service import workload_queries

        for query in workload_queries("D1", limit=4):
            assert answer_set(corpus.execute(query, use_cache=False)) == answer_set(
                session.execute(query, use_cache=False)
            )

    def test_invalid_k_rejected(self, figure_dataspace):
        corpus = figure_dataspace.shard(2)
        with pytest.raises(QueryError):
            corpus.execute("ORDER", k=0)


class TestCorpusCaching:
    def test_merged_result_cached_and_scoped(self, figure_dataspace):
        corpus = figure_dataspace.shard(2)
        query = QUERIES[0]
        unsharded = figure_dataspace.execute(query)  # session-scoped entry
        first = corpus.gather(query)
        second = corpus.gather(query)
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert second.result is first.result
        # The sharded entry must not have displaced or served the session entry.
        assert figure_dataspace.execute(query) is unsharded
        assert answer_set(first.result) == answer_set(unsharded)

    def test_cache_invalidated_by_generation_bump(self):
        session = Dataspace.from_dataset("D1", h=8)
        corpus = session.shard(2)
        query = "//ContactName"
        corpus.gather(query)
        assert corpus.gather(query).cache == "hit"
        session.invalidate()
        assert corpus.gather(query).cache == "miss"

    def test_use_cache_false_bypasses(self, figure_dataspace):
        corpus = figure_dataspace.shard(2)
        assert corpus.gather(QUERIES[0], use_cache=False).cache == "bypass"
        assert corpus.gather(QUERIES[0], use_cache=False).cache == "bypass"

    def test_one_filter_pass_per_sharded_execute(self, figure_mappings, figure_document):
        # With caching off every filter-cache request is a full filter pass:
        # the merged lookup, selection and every shard and spine partial of
        # one execution must share a single one.
        session = Dataspace.from_mapping_set(
            figure_mappings, document=figure_document, name="figure", cache_size=0
        )
        corpus = session.shard(3)
        fan_outs = []
        for query in (QUERIES[0], QUERIES[4]):
            for k in (None, 2):
                before = session.cache_stats()["filter_cache"]["misses"]
                execution = corpus.gather(query, k=k)
                after = session.cache_stats()["filter_cache"]["misses"]
                assert after - before == 1, (query, k)
                fan_outs.append(execution.fan_out + execution.spine_rewrites)
        assert max(fan_outs) >= 2


class TestExplainReport:
    def test_fan_out_and_skips_accounted(self):
        session = Dataspace.from_dataset("D7", h=10)
        corpus = session.shard(4)
        execution = corpus.explain("Q2", use_cache=False)
        assert execution.num_shards == 4
        assert execution.fan_out + execution.skipped_shards >= 4
        assert execution.fan_out >= 1
        statuses = {report.status for report in execution.shard_reports}
        assert "evaluated" in statuses or "spine" in statuses
        payload = execution.to_dict()
        assert payload["query"] == "Order/DeliverTo/Contact/EMail"
        assert len(payload["shards"]) >= 4
        assert "skipped" in execution.format()

    def test_branchy_root_query_routes_spine_pass(self):
        session = Dataspace.from_dataset("D7", h=10)
        corpus = session.shard(4)
        execution = corpus.explain("Q7", use_cache=False)
        assert execution.spine_rewrites >= 1
        assert any(report.status == "spine" for report in execution.shard_reports)

    def test_merge_statistics_count_duplicates(self, figure_dataspace):
        corpus = figure_dataspace.shard(3)
        # "ORDER" matches only the (replicated) spine root, so every shard
        # reports the same match and the merge deduplicates the copies.
        execution = corpus.explain("ORDER", use_cache=False)
        assert execution.duplicate_matches >= 1
        assert execution.merged_answers == len(execution.result)


def _session(matching_fixture, mappings, document, name):
    return Dataspace.from_mapping_set(mappings, document=document, name=name)


class TestMultiDatasetCorpus:
    def build_corpus(self, figure_matching, figure_elements, figure_document):
        from repro.mapping.mapping import Mapping
        from repro.mapping.mapping_set import MappingSet

        e = figure_elements

        def mapping(mapping_id, pairs, score):
            keys = frozenset((e[s], e[t]) for s, t in pairs)
            return Mapping(mapping_id, keys, score=score)

        shared = [("Order", "ORDER"), ("BP", "T_IP")]
        # Session A: skewed probabilities (0.6 / 0.4) — a high upper bound.
        a_set = MappingSet(
            figure_matching,
            [
                mapping(0, shared + [("BCN", "ICN"), ("RCN", "SCN")], 6.0),
                mapping(1, shared + [("BCN", "ICN"), ("OCN", "SCN")], 4.0),
            ],
        )
        # Session B: four uniform mappings (0.25 each) — a low upper bound.
        b_set = MappingSet(
            figure_matching,
            [
                mapping(0, shared + [("BCN", "ICN"), ("RCN", "SCN")], 1.0),
                mapping(1, shared + [("BCN", "ICN"), ("OCN", "SCN")], 1.0),
                mapping(2, shared + [("RCN", "ICN"), ("BCN", "SCN")], 1.0),
                mapping(3, shared + [("OCN", "ICN"), ("BCN", "SCN")], 1.0),
            ],
        )
        session_a = _session(figure_matching, a_set, figure_document, "A")
        session_b = _session(figure_matching, b_set, figure_document, "B")
        return ShardedCorpus([session_a, session_b], shards_per_session=2)

    def test_global_topk_matches_brute_force(
        self, figure_matching, figure_elements, figure_document
    ):
        corpus = self.build_corpus(figure_matching, figure_elements, figure_document)
        query = "//CONTACT_NAME"
        k = 3
        answers = corpus.top_k(query, k, use_cache=False)
        assert len(answers) <= k
        brute: list[tuple[float, int, int, frozenset]] = []
        for index, session in enumerate(corpus.sessions):
            for answer in session.execute(query, use_cache=False):
                brute.append((answer.probability, index, answer.mapping_id, answer.matches))
        brute.sort(key=lambda item: (-item[0], item[1], item[2]))
        expected = [
            CorpusAnswer(
                dataset=corpus.sessions[index].name,
                mapping_id=mapping_id,
                probability=probability,
                matches=matches,
            )
            for probability, index, mapping_id, matches in brute[:k]
        ]
        assert list(answers) == expected

    def test_bound_skips_low_probability_session(
        self, figure_matching, figure_elements, figure_document
    ):
        corpus = self.build_corpus(figure_matching, figure_elements, figure_document)
        # A's probabilities are 0.6/0.4; B's are 0.25 each.  With k=2 the
        # threshold settles at 0.4 > 0.25, so B's shards are never touched.
        execution = corpus.gather("//CONTACT_NAME", k=2, use_cache=False)
        assert execution.skipped_bound == 2
        assert all(answer.dataset == "A" for answer in execution.answers)
        statuses = {
            report.status
            for report in execution.shard_reports
            if report.dataset == "B"
        }
        assert statuses == {"skipped-bound"}

    def test_execute_requires_single_session(
        self, figure_matching, figure_elements, figure_document
    ):
        corpus = self.build_corpus(figure_matching, figure_elements, figure_document)
        with pytest.raises(CorpusError):
            corpus.execute("//CONTACT_NAME")
        # gather still works and exposes per-dataset results.
        execution = corpus.gather("//CONTACT_NAME", use_cache=False)
        assert set(execution.results) == {"A", "B"}

    def test_partial_cache_serves_second_gather(
        self, figure_matching, figure_elements, figure_document
    ):
        corpus = self.build_corpus(figure_matching, figure_elements, figure_document)
        corpus.gather("//CONTACT_NAME")
        execution = corpus.gather("//CONTACT_NAME")
        assert execution.cache == "partial"
        assert any(report.status == "cached" for report in execution.shard_reports)


class TestCorpusConstruction:
    def test_requires_sessions(self):
        with pytest.raises(CorpusError):
            ShardedCorpus([])

    def test_requires_positive_shards(self, figure_dataspace):
        with pytest.raises(CorpusError):
            ShardedCorpus([figure_dataspace], shards_per_session=0)

    def test_requires_unique_names(self, figure_mappings, figure_document):
        first = Dataspace.from_mapping_set(figure_mappings, document=figure_document, name="X")
        second = Dataspace.from_mapping_set(figure_mappings, document=figure_document, name="X")
        with pytest.raises(CorpusError):
            ShardedCorpus([first, second])

    def test_describe_and_repr(self, figure_dataspace):
        corpus = figure_dataspace.shard(2)
        info = corpus.describe()
        assert info["num_shards"] == 2
        assert info["homogeneous"] is True
        assert len(info["partitions"]) == 1
        assert "ShardedCorpus" in repr(corpus)

    def test_context_manager_closes_pool(self, figure_dataspace):
        with figure_dataspace.shard(2) as corpus:
            corpus.execute("ORDER", use_cache=False)
        corpus.close()  # idempotent

    def test_open_corpus_single_dataset(self):
        corpus = open_corpus("D1", shards=3, h=8)
        assert corpus.is_homogeneous
        assert corpus.num_shards == 3
        session = corpus.sessions[0]
        query = "//ContactName"
        assert answer_set(corpus.execute(query, use_cache=False)) == answer_set(
            session.execute(query, use_cache=False)
        )

    def test_open_corpus_multi_dataset(self):
        corpus = open_corpus(["D1", "D2"], shards=2, h=8)
        assert not corpus.is_homogeneous
        assert corpus.num_shards == 4
        assert [session.name for session in corpus.sessions] == ["D1", "D2"]

    def test_invalidate_passthrough(self, figure_dataspace):
        corpus = figure_dataspace.shard(2)
        generation = figure_dataspace.generation
        corpus.invalidate()
        assert figure_dataspace.generation == generation + 1


class TestShardDocumentView:
    def test_covers_elements(self, figure_document):
        partition = partition_document(figure_document, 2)
        shard = partition.shards[0]
        present = sorted(shard.present_elements)
        assert shard.covers_elements(present)
        absent = max(e.element_id for e in figure_document.schema.iter_preorder()) + 1
        assert not shard.covers_elements([present[0], absent])
        assert "ShardDocument" in repr(shard)

    def test_execute_batch_inline(self, figure_dataspace):
        corpus = figure_dataspace.shard(2)
        queries = [QUERIES[0], QUERIES[1], QUERIES[0]]
        batched = corpus.execute_batch(queries, use_cache=False)
        assert len(batched) == 3
        for query, result in zip(queries, batched):
            assert answer_set(result) == answer_set(
                figure_dataspace.execute(query, use_cache=False)
            )


class TestStateMemoScaling:
    def test_many_session_corpus_keeps_every_state(
        self, figure_mappings, figure_document
    ):
        sessions = [
            Dataspace.from_mapping_set(
                figure_mappings, document=figure_document, name=f"S{i}"
            )
            for i in range(10)
        ]
        corpus = ShardedCorpus(sessions, shards_per_session=1)
        corpus.gather("//CONTACT_NAME", use_cache=False)
        first = dict(corpus._states)
        assert len(first) == 10  # one state per session survives the bound
        corpus.gather("//CONTACT_NAME", use_cache=False)
        # The second gather reuses every memoized state instead of
        # re-partitioning (state objects are identical, not rebuilt).
        assert dict(corpus._states) == first


class TestWorkerSizing:
    def test_scatter_pool_keeps_gil_bound_sizing(self, figure_dataspace):
        # The bitset loops hold the GIL: the pool stays between 2 and 8.
        assert recommend_scatter_workers(4) == 4
        assert recommend_scatter_workers(1) == 2
        assert recommend_scatter_workers(100) == 8
        assert figure_dataspace.shard(3).executor_config()["max_workers"] == 3
