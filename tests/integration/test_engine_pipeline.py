"""Integration: the engine facade reproduces the seed free-function pipeline.

The acceptance bar for the engine is exactness: on the paper's query dataset
(D7) every result produced through :class:`repro.engine.Dataspace` — full
PTQ, both plans, top-k, batched — must be identical to hand-threading the
artifacts through the seed free functions.
"""

from __future__ import annotations

import pytest

from repro.engine import Dataspace
from repro.query import ptq
from repro.query.ptq import evaluate_ptq_basic, evaluate_ptq_blocktree
from repro.query.topk import evaluate_topk_ptq
from repro.service import workload_queries
from repro.workloads.datasets import DATASET_IDS
from repro.workloads.queries import load_query


def answers_of(result):
    return {(answer.mapping_id, answer.matches) for answer in result}


@pytest.fixture(scope="module")
def d7_session():
    """One engine session over D7 with the paper's |M| = 100."""
    return Dataspace.from_dataset("D7", h=100)


class TestEngineMatchesSeedPipeline:
    def test_session_shares_workload_artifacts(self, d7_session, d7_mappings, d7_document):
        # The engine goes through the same cached workload builders, so the
        # artifacts are literally the same objects.
        assert d7_session.mapping_set is d7_mappings
        assert d7_session.document is d7_document

    def test_q7_blocktree_identical(self, d7_session, d7_mappings, d7_document, d7_block_tree):
        engine = d7_session.query("Q7").execute()
        seed = evaluate_ptq_blocktree(load_query("Q7"), d7_mappings, d7_document, d7_block_tree)
        assert answers_of(engine) == answers_of(seed)

    def test_q7_basic_identical(self, d7_session, d7_mappings, d7_document):
        engine = d7_session.query("Q7").plan("basic").execute()
        seed = evaluate_ptq_basic(load_query("Q7"), d7_mappings, d7_document)
        assert answers_of(engine) == answers_of(seed)

    def test_q7_compiled_identical_to_seed_basic(self, d7_session, d7_mappings, d7_document):
        engine = d7_session.query("Q7").plan("compiled").execute()
        seed = evaluate_ptq_basic(load_query("Q7"), d7_mappings, d7_document)
        assert answers_of(engine) == answers_of(seed)

    def test_q7_topk_identical(self, d7_session, d7_mappings, d7_document, d7_block_tree):
        engine = d7_session.query("Q7").top_k(10).execute()
        seed = evaluate_topk_ptq(
            load_query("Q7"), d7_mappings, d7_document, k=10, block_tree=d7_block_tree
        )
        assert answers_of(engine) == answers_of(seed)

    def test_batch_identical_to_seed_loop(
        self, d7_session, d7_mappings, d7_document, d7_block_tree
    ):
        query_ids = ["Q1", "Q2", "Q3"]
        batch = d7_session.query_batch(query_ids)
        for query_id, engine in zip(query_ids, batch):
            seed = evaluate_ptq_blocktree(
                load_query(query_id), d7_mappings, d7_document, d7_block_tree
            )
            assert answers_of(engine) == answers_of(seed)

    def test_explain_reports_compiled_default_plan(self, d7_session):
        report = d7_session.query("Q7").explain()
        assert report.plan == "compiled"
        assert report.num_mappings == 100
        assert report.num_relevant > 0
        assert report.num_answers == report.num_relevant
        stats = report.compiled_stats
        assert stats is not None
        # The whole point of the compiled plan: far fewer distinct rewrites
        # than relevant mappings on the paper's workload.
        assert stats["num_distinct_rewrites"] < report.num_relevant
        assert stats["evaluations_saved"] > 0

    def test_explain_forced_blocktree_reports_blocks(self, d7_session):
        report = d7_session.query("Q7").plan("blocktree").explain()
        assert report.plan == "blocktree"
        assert report.num_blocks == d7_session.block_tree.num_blocks

    def test_query_string_and_id_agree(self, d7_session):
        from repro.workloads.queries import QUERY_STRINGS

        by_id = d7_session.query("Q2").execute()
        by_text = d7_session.query(QUERY_STRINGS["Q2"]).execute()
        assert answers_of(by_id) == answers_of(by_text)


@pytest.mark.parametrize("dataset_id", DATASET_IDS)
def test_explain_distinct_rewrites_count_twig_matches(dataset_id, monkeypatch):
    """explain()'s distinct-rewrite count is the compiled plan's match count.

    Both come from the one rewrite derivation, so the number explain reports
    is exactly the number of ``match_twig`` calls an uncached compiled
    evaluation makes.
    """
    session = Dataspace.from_dataset(dataset_id, h=25)
    real_match_twig = ptq.match_twig
    calls = []

    def counting_match_twig(*args, **kwargs):
        calls.append(args)
        return real_match_twig(*args, **kwargs)

    total = 0
    for query in workload_queries(dataset_id):
        report = session.explain(query, plan="compiled", use_cache=False)
        distinct = report.compiled_stats["num_distinct_rewrites"]
        calls.clear()
        monkeypatch.setattr(ptq, "match_twig", counting_match_twig)
        session.execute(query, plan="compiled", use_cache=False)
        monkeypatch.undo()
        assert len(calls) == distinct, query
        total += distinct
    assert total > 0
