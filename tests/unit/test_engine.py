"""Tests for the engine facade: Dataspace sessions, prepared queries, plans."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro.engine import (
    BasicPlan,
    BlockTreePlan,
    CompiledPlan,
    Dataspace,
    MappingDelta,
    PreparedQuery,
    QueryBuilder,
    QueryPlan,
    available_plans,
    plan_for,
)
from repro.exceptions import DataspaceError, QueryError
from repro.matching.matcher import MatcherConfig
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import MappingSet
from repro.matching.matching import SchemaMatching
from repro.query.parser import parse_twig
from repro.query.ptq import evaluate_ptq_basic, evaluate_ptq_blocktree
from repro.query.topk import evaluate_topk_ptq
from repro.schema.parser import parse_schema

ICN_QUERY = "//INVOICE_PARTY//CONTACT_NAME"
SCN_QUERY = "ORDER/SUPPLIER_PARTY"


def answers_of(result):
    return {(answer.mapping_id, answer.matches) for answer in result}


def filter_passes(session):
    """(misses, retained) of the session filter cache: one miss per filter pass."""
    stats = session.cache_stats()["filter_cache"]
    return stats["misses"], stats["retained"]


@pytest.fixture()
def figure_dataspace(figure_mappings, figure_document):
    """A session over the Figure 3 mapping set and Figure 2 document."""
    return Dataspace.from_mapping_set(
        figure_mappings, document=figure_document, tau=0.4, name="figure1"
    )


# --------------------------------------------------------------------------- #
# Lazy build + memoization + invalidation
# --------------------------------------------------------------------------- #
class TestLazyBuild:
    def test_nothing_built_up_front(self, source_schema, target_schema):
        ds = Dataspace(source_schema, target_schema, h=5)
        info = ds.describe()
        assert not info["matching_built"]
        assert not info["mapping_set_built"]
        assert not info["block_tree_built"]
        assert not info["document_loaded"]

    def test_artifacts_built_on_demand_and_memoized(self, source_schema, target_schema):
        ds = Dataspace(source_schema, target_schema, h=5, seed=1)
        tree = ds.block_tree  # forces matching -> mapping set -> tree
        info = ds.describe()
        assert info["matching_built"] and info["mapping_set_built"] and info["block_tree_built"]
        assert ds.matching is ds.matching
        assert ds.mapping_set is ds.mapping_set
        assert ds.block_tree is tree

    def test_document_generated_for_schema_sessions(self, source_schema, target_schema):
        ds = Dataspace(source_schema, target_schema, h=5, seed=1)
        assert len(ds.document) > 0
        assert ds.document is ds.document

    def test_invalid_h_rejected(self, source_schema, target_schema):
        with pytest.raises(DataspaceError):
            Dataspace(source_schema, target_schema, h=0)

    def test_invalid_tau_rejected_eagerly(self, source_schema, target_schema):
        from repro.exceptions import BlockTreeError

        with pytest.raises(BlockTreeError):
            Dataspace(source_schema, target_schema, tau=3.0)


class TestInvalidation:
    def test_tau_change_rebuilds_block_tree_only(self, figure_dataspace):
        ds = figure_dataspace
        mapping_set = ds.mapping_set
        tree = ds.block_tree
        generation = ds.generation
        ds.configure(tau=0.9)
        assert ds.mapping_set is mapping_set
        assert ds.block_tree is not tree
        # Prepared-query resolve/filter caches stay valid: no generation bump.
        assert ds.generation == generation

    def test_h_change_invalidates_mapping_set_and_tree(self, source_schema, target_schema):
        ds = Dataspace(source_schema, target_schema, h=5, seed=1)
        matching = ds.matching
        mapping_set = ds.mapping_set
        tree = ds.block_tree
        generation = ds.generation
        ds.configure(h=3)
        assert ds.generation == generation + 1
        assert ds.matching is matching  # matcher output unaffected
        assert ds.mapping_set is not mapping_set
        assert len(ds.mapping_set) <= 3
        assert ds.block_tree is not tree

    def test_matcher_config_change_invalidates_everything(self, source_schema, target_schema):
        ds = Dataspace(source_schema, target_schema, h=5, seed=1)
        matching = ds.matching
        generation = ds.generation
        ds.configure(matcher_config=MatcherConfig(strategy="fragment", seed=1))
        assert ds.generation == generation + 1
        assert ds.matching is not matching

    def test_noop_configure_keeps_caches(self, figure_dataspace):
        ds = figure_dataspace
        tree = ds.block_tree
        generation = ds.generation
        ds.configure(tau=ds.tau)
        assert ds.block_tree is tree
        assert ds.generation == generation

    def test_explicit_invalidate_bumps_generation(self, figure_dataspace):
        ds = figure_dataspace
        ds.block_tree
        generation = ds.generation
        ds.invalidate()
        assert ds.generation == generation + 1
        assert not ds.describe()["block_tree_built"]
        # Pinned mapping set survives an explicit invalidate.
        assert ds.describe()["mapping_set_built"]

    def test_pinned_mapping_set_rejects_h_and_method(self, figure_dataspace):
        with pytest.raises(DataspaceError):
            figure_dataspace.configure(h=2)
        with pytest.raises(DataspaceError):
            figure_dataspace.configure(method="murty")

    def test_pinned_matching_rejects_matcher_config(self, figure_dataspace):
        with pytest.raises(DataspaceError):
            figure_dataspace.configure(matcher_config=MatcherConfig())

    def test_rejected_configure_changes_nothing(self, source_schema, target_schema):
        ds = Dataspace(source_schema, target_schema, h=5, seed=1, tau=0.3)
        state = ds.snapshot()
        with pytest.raises(DataspaceError):
            ds.configure(matcher_config=MatcherConfig(strategy="fragment", seed=1), h=0)
        assert ds.matcher_config is None
        assert ds.generation == state.generation
        assert ds.snapshot() is state


# --------------------------------------------------------------------------- #
# The published state: one immutable EngineSnapshot per write
# --------------------------------------------------------------------------- #
class TestPublishedState:
    def test_reads_without_a_write_share_one_object(self, figure_dataspace):
        ds = figure_dataspace
        state = ds.snapshot(need_tree=False)
        assert ds.snapshot(need_tree=False) is state
        tree_state = ds.snapshot()  # builds the tree once and publishes it
        assert ds.snapshot() is tree_state
        assert ds.snapshot(need_tree=False) is tree_state

    def test_writes_leave_earlier_states_unchanged(self, figure_dataspace, figure_mappings):
        ds = figure_dataspace
        old = ds.snapshot()
        before = {field.name: getattr(old, field.name) for field in dataclasses.fields(old)}
        provenance = {name: dict(info) for name, info in old.provenance.items()}
        ds.apply_delta_batch(
            [
                MappingDelta.build(
                    reweight={0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
                )
            ]
        )
        patched = ds.snapshot(need_tree=False)
        assert patched.delta_epoch == old.delta_epoch + 1
        assert patched.mapping_set is not old.mapping_set
        ds.configure(tau=0.5)
        assert ds.snapshot().tau == 0.5
        assert all(getattr(old, name) is value for name, value in before.items())
        assert old.provenance == provenance

    def test_commit_logs_its_epoch_before_publishing_it(
        self, figure_dataspace, figure_mappings, monkeypatch
    ):
        ds = figure_dataspace
        ds.snapshot(need_tree=False)
        seen = []
        record = ds.result_cache.record_delta

        def recording(epoch, *masks):
            seen.append((epoch, ds._state.delta_epoch))  # the published epoch
            record(epoch, *masks)

        monkeypatch.setattr(ds.result_cache, "record_delta", recording)
        ds.apply_delta(
            MappingDelta.build(
                reweight={0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
            )
        )
        assert seen == [(1, 0)]
        assert ds.delta_epoch == 1


# --------------------------------------------------------------------------- #
# Prepared queries
# --------------------------------------------------------------------------- #
class TestPreparedQueries:
    def test_prepare_returns_cached_instance(self, figure_dataspace):
        first = figure_dataspace.prepare(ICN_QUERY)
        second = figure_dataspace.prepare(ICN_QUERY)
        assert isinstance(first, PreparedQuery)
        assert first is second

    def test_prepare_accepts_twig_objects(self, figure_dataspace):
        twig = parse_twig(ICN_QUERY)
        prepared = figure_dataspace.prepare(twig)
        assert prepared.query is twig
        assert figure_dataspace.prepare(twig) is prepared

    def test_twig_objects_keyed_by_identity_not_text(self, figure_dataspace):
        # Two distinct objects with the same text must not share a prepared
        # query: a caller-supplied twig may differ structurally from what
        # the session would parse from the same text (aliases, hand-built
        # trees).
        first = parse_twig(ICN_QUERY)
        second = parse_twig(ICN_QUERY)
        assert first.text == second.text
        assert figure_dataspace.prepare(first).query is first
        assert figure_dataspace.prepare(second).query is second

    def test_textless_twigs_do_not_collide(self, figure_dataspace):
        from repro.query.twig import TwigNode, TwigQuery

        # Hand-built queries have no text; distinct objects must get
        # distinct prepared queries rather than colliding on a shared key.
        icn = TwigQuery(TwigNode("CONTACT_NAME", axis="descendant"))
        order = TwigQuery(TwigNode("ORDER", axis="descendant"))
        assert icn.text == order.text == ""
        prepared_icn = figure_dataspace.prepare(icn)
        prepared_order = figure_dataspace.prepare(order)
        assert prepared_icn is not prepared_order
        assert prepared_icn.query is icn
        assert prepared_order.query is order
        assert figure_dataspace.prepare(icn) is prepared_icn

    def test_resolve_and_filter_run_once_across_executions(self, figure_dataspace):
        prepared = figure_dataspace.prepare(ICN_QUERY)
        prepared.execute()
        prepared.execute(k=2)
        prepared.execute(plan="basic")
        assert prepared.resolve_count == 1
        assert filter_passes(figure_dataspace) == (1, 0)

    def test_every_kept_prepared_query_keeps_its_filter_entry(
        self, d7_dataset, d7_mappings, d7_document
    ):
        # The filter cache is the filter step's only memo: it must hold one
        # signature per prepared query the session keeps, so a working set
        # of more than 64 distinct signatures (the old fixed capacity, which
        # a cyclic sweep thrashed into 0 hits) refilters nothing once warm.
        session = Dataspace.from_mapping_set(d7_mappings, document=d7_document, name="d7")
        labels = sorted({element.label for element in d7_dataset.target_schema.iter_preorder()})
        queries = [f"//{label}" for label in labels]
        for query in queries:
            session.query(query).execute()
        warm = session.cache_stats()["filter_cache"]
        assert warm["size"] > 64
        for query in queries:
            session.query(query).execute()
        after = session.cache_stats()["filter_cache"]
        assert after["misses"] == warm["misses"]
        assert after["hits"] - warm["hits"] == len(queries)

    def test_filter_refreshes_after_generation_bump(self, figure_dataspace):
        prepared = figure_dataspace.prepare(ICN_QUERY)
        before = prepared.execute()
        figure_dataspace.invalidate()
        after = prepared.execute()
        assert prepared.resolve_count == 1  # target schema unchanged
        assert filter_passes(figure_dataspace) == (2, 0)
        assert answers_of(before) == answers_of(after)

    def test_block_tree_rebuild_does_not_refilter(self, figure_dataspace):
        prepared = figure_dataspace.prepare(ICN_QUERY)
        prepared.execute()
        figure_dataspace.configure(tau=0.9)
        prepared.execute()
        assert filter_passes(figure_dataspace) == (1, 0)

    def test_explain_and_execute_share_one_evaluation(self, figure_dataspace, monkeypatch):
        runs = []
        original = QueryPlan.run

        def counting_run(self, *args, **kwargs):
            runs.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(QueryPlan, "run", counting_run)
        ds = figure_dataspace
        ds.execute(ICN_QUERY)
        assert ds.explain(ICN_QUERY).cache == "hit"  # explain after execute
        assert ds.explain(SCN_QUERY).cache == "miss"
        hits = ds.result_cache.stats().hits
        ds.execute(SCN_QUERY)  # execute after explain
        assert ds.result_cache.stats().hits == hits + 1
        assert runs == ["compiled", "compiled"]  # one run per query across both

    def test_explain_reports_retained_after_missing_reweight(
        self, figure_dataspace, figure_mappings
    ):
        # explain() writes the entry here; relevant: mapping 2 only.
        assert figure_dataspace.explain(SCN_QUERY).cache == "miss"
        figure_dataspace.apply_delta(
            MappingDelta.build(
                reweight={
                    0: figure_mappings[3].probability,
                    3: figure_mappings[0].probability,
                }
            )
        )
        report = figure_dataspace.explain(SCN_QUERY)
        assert report.cache == "retained"
        assert report.cache_stats["retained"] == 1
        hits = figure_dataspace.result_cache.stats().hits
        figure_dataspace.execute(SCN_QUERY)  # the promoted entry serves execute()
        assert figure_dataspace.result_cache.stats().hits == hits + 1


# --------------------------------------------------------------------------- #
# The lookup half alone: PreparedQuery.cached
# --------------------------------------------------------------------------- #
class TestCachedLookup:
    def test_hit_counts_like_execute_and_miss_counts_nothing(self, figure_dataspace):
        ds = figure_dataspace
        prepared = ds.prepare(ICN_QUERY)
        assert prepared.cached() is None  # unresolved: no resolve on the lookup path
        assert prepared.resolve_count == 0
        result = prepared.execute()
        before = ds.result_cache.stats()
        assert prepared.cached(k=2) is None
        assert ds.result_cache.stats() == before
        assert prepared.cached() is result
        after = ds.result_cache.stats()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert ds.cached(ICN_QUERY) is result

    def test_unseen_text_is_never_parsed_or_prepared(self, figure_dataspace, monkeypatch):
        import repro.engine.dataspace as dataspace_module

        def no_parse(*args, **kwargs):
            raise AssertionError("the lookup path must not parse")

        monkeypatch.setattr(dataspace_module, "parse_twig", no_parse)
        prepared_before = len(figure_dataspace._prepared)
        assert figure_dataspace.cached(SCN_QUERY) is None
        assert len(figure_dataspace._prepared) == prepared_before

    def test_tree_plan_never_builds_the_tree(self, figure_dataspace):
        figure_dataspace.prepare(ICN_QUERY).execute()
        assert figure_dataspace.cached(ICN_QUERY, plan="blocktree") is None
        assert not figure_dataspace.describe()["block_tree_built"]

    @pytest.mark.parametrize("writer", ["holds", "awaits"])
    def test_writer_never_delays_the_lookup(self, figure_dataspace, writer):
        """A writer mid-write leaves the lookup on the last published state."""
        ds = figure_dataspace
        result = ds.execute(ICN_QUERY)
        ds._write_lock.acquire()  # a writer holds the mutex ...
        waiting = None
        try:
            if writer == "awaits":  # ... and another queues behind it
                waiting = threading.Thread(target=ds.configure, kwargs={"tau": 0.5})
                waiting.start()
            started = time.monotonic()
            assert ds.cached(ICN_QUERY) is result
            assert time.monotonic() - started < 0.5
            if waiting is not None:
                assert waiting.is_alive()
        finally:
            ds._write_lock.release()
        if waiting is None:
            assert ds.cached(ICN_QUERY) is result  # nothing was published
            return
        waiting.join(5)
        assert not waiting.is_alive()
        # The published tau is part of the key: the old entry is unreachable.
        assert ds.cached(ICN_QUERY) is None

    def test_reweight_defers_retention_to_execute(self, figure_dataspace, figure_mappings):
        ds = figure_dataspace
        ds.execute(SCN_QUERY)  # relevant: mapping 2 only
        ds.apply_delta(
            MappingDelta.build(
                reweight={0: figure_mappings[3].probability, 3: figure_mappings[0].probability}
            )
        )
        before = ds.result_cache.stats()
        # Without the relevant-mapping mask any reweight counts as touching
        # the query: the lookup step steps aside, uncounted ...
        assert ds.cached(SCN_QUERY) is None
        assert ds.result_cache.stats() == before
        # ... and execute() proves the entry still valid and retains it.
        retained = ds.execute(SCN_QUERY)
        assert ds.result_cache.stats().retained == before.retained + 1
        assert ds.cached(SCN_QUERY) is retained


# --------------------------------------------------------------------------- #
# Plans
# --------------------------------------------------------------------------- #
class TestPlans:
    def test_registry_contains_all_plans(self):
        assert "basic" in available_plans()
        assert "blocktree" in available_plans()
        assert "compiled" in available_plans()

    def test_plan_lookup_normalises_spelling(self):
        assert isinstance(plan_for("block-tree"), BlockTreePlan)
        assert isinstance(plan_for("BLOCKTREE"), BlockTreePlan)
        assert isinstance(plan_for("basic"), BasicPlan)
        assert isinstance(plan_for("Compiled"), CompiledPlan)

    def test_plan_instances_pass_through(self):
        plan = BasicPlan()
        assert plan_for(plan) is plan

    def test_unknown_plan_error_lists_registered_plans(self):
        with pytest.raises(QueryError) as excinfo:
            plan_for("quantum")
        message = str(excinfo.value)
        for name in ("basic", "blocktree", "compiled"):
            assert name in message

    def test_default_selection_is_compiled(self, figure_dataspace):
        assert figure_dataspace.plan_decision(figure_dataspace.prepare(ICN_QUERY)) == "compiled"
        assert figure_dataspace.explain(ICN_QUERY).reason == "default plan"
        # Automatic selection no longer forces a block-tree build.
        assert not figure_dataspace.describe()["block_tree_built"]

    def test_forced_override_reported_by_explain(self, figure_dataspace):
        report = figure_dataspace.query(ICN_QUERY).plan("basic").explain()
        assert report.plan == "basic"
        assert report.reason == "forced by caller"
        assert report.num_blocks is None
        assert report.compiled_stats is None

    def test_compiled_matches_basic_on_empty_block_tree(self):
        source = parse_schema("A\n  B\n  C\n", name="src")
        target = parse_schema("X\n  Y\n", name="tgt")
        matching = SchemaMatching(source, target, name="tiny")
        b = source.element_by_path("A.B").element_id
        c = source.element_by_path("A.C").element_id
        y = target.element_by_path("X.Y").element_id
        matching.add_pair(b, y, 0.9)
        matching.add_pair(c, y, 0.8)
        mappings = MappingSet(
            matching,
            [
                Mapping(0, frozenset([(b, y)]), score=0.9),
                Mapping(1, frozenset([(c, y)]), score=0.8),
            ],
        )
        ds = Dataspace.from_mapping_set(mappings, tau=1.0)
        assert ds.block_tree.num_blocks == 0
        assert ds.plan_decision(ds.prepare("//Y")) == "compiled"
        auto = ds.execute("//Y", use_cache=False)
        basic = ds.execute("//Y", plan="basic", use_cache=False)
        assert answers_of(auto) == answers_of(basic)

    def test_blocktree_plan_requires_tree(self, figure_mappings, figure_document):
        plan = plan_for("blocktree")
        query = parse_twig(ICN_QUERY)
        with pytest.raises(QueryError):
            plan.run(query, figure_mappings, figure_document, block_tree=None)


# --------------------------------------------------------------------------- #
# Builder, execution, batch
# --------------------------------------------------------------------------- #
class TestBuilderAndExecution:
    def test_builder_is_immutable(self, figure_dataspace):
        base = figure_dataspace.query(ICN_QUERY)
        restricted = base.top_k(2)
        assert isinstance(base, QueryBuilder)
        assert base is not restricted
        assert len(base.execute()) == 5
        assert len(restricted.execute()) == 2
        assert base.prepared is restricted.prepared

    def test_results_identical_to_free_functions(
        self, figure_dataspace, figure_mappings, figure_document, figure_block_tree
    ):
        query = parse_twig(ICN_QUERY)
        engine_tree = figure_dataspace.query(ICN_QUERY).plan("blocktree").execute()
        engine_basic = figure_dataspace.query(ICN_QUERY).plan("basic").execute()
        engine_compiled = figure_dataspace.query(ICN_QUERY).plan("compiled").execute()
        seed_tree = evaluate_ptq_blocktree(
            query, figure_mappings, figure_document, figure_block_tree
        )
        seed_basic = evaluate_ptq_basic(query, figure_mappings, figure_document)
        assert answers_of(engine_tree) == answers_of(seed_tree)
        assert answers_of(engine_basic) == answers_of(seed_basic)
        assert answers_of(engine_compiled) == answers_of(seed_basic)

    def test_top_k_identical_to_free_function(
        self, figure_dataspace, figure_mappings, figure_document, figure_block_tree
    ):
        query = parse_twig(ICN_QUERY)
        engine = figure_dataspace.query(ICN_QUERY).top_k(2).execute()
        seed = evaluate_topk_ptq(
            query, figure_mappings, figure_document, k=2, block_tree=figure_block_tree
        )
        assert answers_of(engine) == answers_of(seed)

    def test_invalid_k_rejected(self, figure_dataspace):
        with pytest.raises(QueryError):
            figure_dataspace.query(ICN_QUERY).top_k(0).execute()

    def test_batch_matches_individual_execution(self, figure_dataspace):
        queries = [ICN_QUERY, "//SUPPLIER_PARTY//CONTACT_NAME", "ORDER"]
        batch = figure_dataspace.query_batch(queries, k=3)
        assert len(batch) == 3
        for query, result in zip(queries, batch):
            assert answers_of(result) == answers_of(figure_dataspace.execute(query, k=3))

    def test_batch_reuses_prepared_queries(self, figure_dataspace):
        figure_dataspace.query_batch([ICN_QUERY, ICN_QUERY])
        prepared = figure_dataspace.prepare(ICN_QUERY)
        assert prepared.resolve_count == 1
        assert filter_passes(figure_dataspace) == (1, 0)

    def test_explain_counts_answers(self, figure_dataspace):
        report = figure_dataspace.query(ICN_QUERY).explain()
        assert report.plan == "compiled"
        assert report.num_mappings == 5
        assert report.num_relevant == 5
        assert report.num_answers == 5
        assert set(report.timings_ms) == {"resolve", "filter", "evaluate"}
        # The compiled plan needs no block tree; it reports rewrite sharing
        # and bitset statistics instead.
        assert report.num_blocks is None
        stats = report.compiled_stats
        assert stats is not None
        assert stats["num_distinct_rewrites"] >= 1
        assert stats["num_rewrite_groups"] >= stats["num_distinct_rewrites"]
        assert stats["num_posting_lists"] > 0
        as_dict = report.to_dict()
        assert as_dict["plan"] == "compiled"
        assert as_dict["compiled_stats"] == stats
        assert "plan:" in report.format()
        assert "compiled:" in report.format()

    def test_explain_blocktree_reports_blocks(self, figure_dataspace):
        report = figure_dataspace.query(ICN_QUERY).plan("blocktree").explain()
        assert report.plan == "blocktree"
        assert report.num_blocks is not None and report.num_blocks > 0
        assert report.compiled_stats is None

    def test_set_document_swaps_evaluation_target(
        self, figure_dataspace, source_schema, figure_elements
    ):
        from repro.document.document import XMLDocument

        # A session built over schemas can swap in a conforming document.
        schema = figure_dataspace.source_schema
        empty = XMLDocument(schema, name="empty.xml")
        empty.add_root(figure_elements["Order"])
        figure_dataspace.set_document(empty.finalize())
        result = figure_dataspace.query(ICN_QUERY).execute()
        assert all(answer.is_empty for answer in result)

    def test_set_document_rejects_foreign_schema(self, figure_dataspace, target_schema):
        from repro.document.document import XMLDocument

        foreign = XMLDocument(target_schema, name="foreign.xml")
        with pytest.raises(DataspaceError):
            figure_dataspace.set_document(foreign)

    def test_constructor_rejects_foreign_document(self, source_schema, target_schema):
        from repro.document.document import XMLDocument

        foreign = XMLDocument(target_schema, name="foreign.xml")
        with pytest.raises(DataspaceError):
            Dataspace(source_schema, target_schema, document=foreign)

    def test_from_mapping_set_rejects_foreign_document(
        self, figure_mappings, target_schema
    ):
        from repro.document.document import XMLDocument

        foreign = XMLDocument(target_schema, name="foreign.xml")
        with pytest.raises(DataspaceError):
            Dataspace.from_mapping_set(figure_mappings, document=foreign)
