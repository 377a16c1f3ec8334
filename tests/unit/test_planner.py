"""Tests for the cost-based planner: normalization, statistics, cost model.

Covers the planner package in isolation (canonical query rendering, the
statistics collector's accounting and serialization, the cost model's
conservative plan choice) and its integration with the engine (the normalized
prepared-query cache, decision caching and invalidation, persistence of
statistics through the artifact store, and ``explain(analyze=True)``).
"""

from __future__ import annotations

import json

import pytest

from repro.engine import Dataspace
from repro.engine import plans as plans_module
from repro.engine.planner import (
    COST_MARGIN,
    CostModel,
    PlanLatency,
    QueryPlanner,
    QueryStatistics,
    StatisticsCollector,
    canonical_text,
    normalize_query_text,
)
from repro.engine.plans import CompiledPlan, available_plans, register_plan
from repro.query.parser import parse_twig
from repro.store import ArtifactStore, MemoryBlockStore

ICN_QUERY = "//INVOICE_PARTY//CONTACT_NAME"


@pytest.fixture()
def figure_session(figure_mappings, figure_document):
    return Dataspace.from_mapping_set(
        figure_mappings, document=figure_document, tau=0.4, name="planner"
    )


# --------------------------------------------------------------------------- #
# Canonical query rendering
# --------------------------------------------------------------------------- #
class TestNormalization:
    @pytest.mark.parametrize(
        ("variant", "canonical"),
        [
            ("ORDER / INVOICE_PARTY", "ORDER/INVOICE_PARTY"),
            ("ORDER//  CONTACT_NAME", "ORDER//CONTACT_NAME"),
            ("//  CONTACT_NAME", "//CONTACT_NAME"),
            # Predicate order is sorted.
            (
                "ORDER[./SUPPLIER_PARTY][./INVOICE_PARTY]",
                "ORDER[./INVOICE_PARTY][./SUPPLIER_PARTY]",
            ),
            # A path continuation inside a predicate is the same tree as an
            # explicit nesting, so both render as the nested form.
            (
                "ORDER[./INVOICE_PARTY/CONTACT_NAME]",
                "ORDER[./INVOICE_PARTY[./CONTACT_NAME]]",
            ),
            ("//CONTACT_NAME[.='Bob']", '//CONTACT_NAME[.="Bob"]'),
        ],
    )
    def test_equivalent_spellings_share_canonical_text(self, variant, canonical):
        assert normalize_query_text(variant) == canonical

    @pytest.mark.parametrize(
        "text",
        [
            "ORDER/INVOICE_PARTY",
            "//CONTACT_NAME",
            "ORDER[./INVOICE_PARTY[./CONTACT_NAME]][./SUPPLIER_PARTY]",
            'ORDER[.//CONTACT_NAME[.="Bob"]]/INVOICE_PARTY',
        ],
    )
    def test_rendering_is_idempotent(self, text):
        once = normalize_query_text(text)
        assert normalize_query_text(once) == once

    def test_aliases_expand_before_rendering(self):
        assert (
            normalize_query_text("//ICN", aliases={"ICN": "CONTACT_NAME"})
            == "//CONTACT_NAME"
        )

    def test_canonical_text_matches_parse_then_render(self):
        twig = parse_twig("ORDER[./SUPPLIER_PARTY][./INVOICE_PARTY]")
        assert canonical_text(twig) == "ORDER[./INVOICE_PARTY][./SUPPLIER_PARTY]"

    def test_equivalent_texts_share_one_prepared_query(self, figure_session):
        a = figure_session.prepare("ORDER[./SUPPLIER_PARTY][./INVOICE_PARTY]")
        b = figure_session.prepare("ORDER[./INVOICE_PARTY][./SUPPLIER_PARTY]")
        c = figure_session.prepare("ORDER [./INVOICE_PARTY] [./SUPPLIER_PARTY]")
        assert a is b
        assert a is c
        assert a.cache_key == "ORDER[./INVOICE_PARTY][./SUPPLIER_PARTY]"

    def test_equivalent_texts_share_one_statistics_record(self, figure_session):
        figure_session.execute("ORDER[./SUPPLIER_PARTY][./INVOICE_PARTY]", use_cache=False)
        figure_session.execute("ORDER[./INVOICE_PARTY][./SUPPLIER_PARTY]", use_cache=False)
        stats = figure_session.planner.statistics(
            "ORDER[./INVOICE_PARTY][./SUPPLIER_PARTY]"
        )
        assert stats is not None
        assert stats.executions == 2


# --------------------------------------------------------------------------- #
# Statistics accounting and serialization
# --------------------------------------------------------------------------- #
class TestPlanLatency:
    def test_first_observation_is_structural(self):
        latency = PlanLatency()
        assert latency.observe(10.0) is True
        assert latency.count == 1
        assert latency.ewma_ms == latency.best_ms == latency.last_ms == 10.0

    def test_small_moves_are_not_structural(self):
        latency = PlanLatency()
        latency.observe(10.0)
        assert latency.observe(10.5) is False
        assert latency.observe(1000.0) is True  # large EWMA move

    def test_payload_round_trip(self):
        latency = PlanLatency()
        for sample in (3.0, 5.0, 4.0):
            latency.observe(sample)
        assert PlanLatency.from_payload(latency.to_payload()) == latency


class TestStatisticsCollector:
    def test_execution_observations_accumulate(self):
        collector = StatisticsCollector()
        collector.observe_execution(
            "q", "compiled", 2.0, state=(0, 0), num_relevant=5, num_embeddings=2
        )
        collector.observe_cache_hit("q")
        record = collector.get("q")
        assert record.executions == 1
        assert record.cache_misses == 1
        assert record.cache_hits == 1
        assert record.cache_hit_rate() == 0.5
        assert record.num_relevant == 5
        assert record.state == (0, 0)
        assert record.plans["compiled"].count == 1

    def test_structural_updates_bump_version(self):
        collector = StatisticsCollector()
        before = collector.version
        collector.observe_execution("q", "compiled", 2.0)
        assert collector.version > before
        stable = collector.version
        collector.observe_execution("q", "compiled", 2.0)  # EWMA unchanged
        assert collector.version == stable

    def test_topk_threshold_is_state_scoped(self):
        collector = StatisticsCollector()
        collector.record_topk_threshold("q", 3, "state-a", 0.25)
        assert collector.topk_seed("q", 3, "state-a") == 0.25
        assert collector.topk_seed("q", 3, "state-b") is None
        assert collector.topk_seed("q", 4, "state-a") is None
        assert collector.topk_seed("other", 3, "state-a") is None

    def test_payload_round_trip_preserves_records(self):
        collector = StatisticsCollector()
        collector.observe_execution(
            "q1", "compiled", 2.0, state=(1, 2), num_relevant=7, num_embeddings=3
        )
        collector.observe_execution("q1", "basic", 0.5)
        collector.record_topk_threshold("q1", 5, "s", 0.125)
        collector.observe_cache_hit("q2")
        payload = collector.to_payload({"generation": 1})
        assert payload["format"] == 1
        assert payload["signature"] == {"generation": 1}

        adopted = StatisticsCollector()
        assert adopted.adopt_payload(payload) == 2
        restored = adopted.get("q1")
        assert restored.to_payload() == collector.get("q1").to_payload()
        assert adopted.topk_seed("q1", 5, "s") == 0.125

    def test_empty_collector_serializes_to_none(self):
        assert StatisticsCollector().to_payload() is None

    def test_unknown_format_is_ignored(self):
        collector = StatisticsCollector()
        assert collector.adopt_payload({"format": 999, "queries": [{"key": "q"}]}) == 0
        assert collector.adopt_payload(None) == 0
        assert len(collector) == 0


# --------------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------------- #
def _stats_with(plans: dict, key: str = "q") -> QueryStatistics:
    record = QueryStatistics(key=key)
    for name, samples in plans.items():
        for sample in samples:
            record.plans.setdefault(name, PlanLatency()).observe(sample)
    return record


class TestCostModel:
    def test_margin_below_one_rejected(self):
        with pytest.raises(ValueError):
            CostModel(margin=0.9)

    def test_no_statistics_keeps_default(self):
        decision = CostModel().decide(None)
        assert decision.plan_name == "compiled"
        assert "no statistics" in decision.reason

    def test_unmeasured_default_is_never_deviated_from(self):
        stats = _stats_with({"basic": [0.1]})
        decision = CostModel().decide(stats)
        assert decision.plan_name == "compiled"
        assert "not yet measured" in decision.reason
        assert [est.plan for est in decision.candidates] == ["basic"]

    def test_measured_faster_challenger_wins(self):
        stats = _stats_with({"compiled": [10.0, 10.0], "basic": [1.0, 1.0]})
        decision = CostModel().decide(stats)
        assert decision.plan_name == "basic"
        assert "cost model" in decision.reason
        assert decision.statistics["plans"]["basic"]["count"] == 2

    def test_challenger_within_margin_keeps_default(self):
        stats = _stats_with({"compiled": [1.0], "basic": [1.0 / COST_MARGIN * 1.001]})
        decision = CostModel().decide(stats)
        assert decision.plan_name == "compiled"
        assert "margin" in decision.reason

    def test_default_fastest_stays_default(self):
        stats = _stats_with({"compiled": [1.0], "blocktree": [5.0]})
        decision = CostModel().decide(stats)
        assert decision.plan_name == "compiled"
        assert "fastest" in decision.reason

    def test_candidates_ranked_by_cost(self):
        stats = _stats_with(
            {"compiled": [2.0], "basic": [8.0], "blocktree": [4.0]}
        )
        decision = CostModel().decide(stats)
        assert [est.plan for est in decision.candidates] == [
            "compiled",
            "blocktree",
            "basic",
        ]


# --------------------------------------------------------------------------- #
# Planner facade: decision caching and invalidation
# --------------------------------------------------------------------------- #
class TestQueryPlanner:
    def test_decisions_are_cached_per_state(self):
        planner = QueryPlanner()
        first = planner.decide("q", state=(0, 0))
        again = planner.decide("q", state=(0, 0))
        assert not first.cached
        assert again.cached
        other_state = planner.decide("q", state=(0, 1))
        assert not other_state.cached

    def test_structural_observation_retires_cached_decisions(self):
        planner = QueryPlanner()
        planner.decide("q", state=(0, 0))
        planner.observe_execution("q", "compiled", 5.0)  # bumps collector version
        fresh = planner.decide("q", state=(0, 0))
        assert not fresh.cached

    def test_adopting_a_payload_clears_the_decision_cache(self):
        donor = QueryPlanner()
        donor.observe_execution("q", "compiled", 5.0)
        donor.observe_execution("q", "basic", 0.5)
        planner = QueryPlanner()
        planner.decide("q", state=(0, 0))
        assert planner.adopt_payload(donor.statistics_payload()) == 1
        decision = planner.decide("q", state=(0, 0))
        assert not decision.cached
        assert decision.plan_name == "basic"

    def test_report_shape(self):
        planner = QueryPlanner()
        planner.decide("q")
        report = planner.report()
        assert report["cached_decisions"] == 1
        assert report["margin"] == COST_MARGIN


# --------------------------------------------------------------------------- #
# Engine integration: persistence, calibration, explain(analyze=True)
# --------------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_statistics_persist_and_reopen(self, figure_session):
        for _ in range(3):
            figure_session.execute(ICN_QUERY, use_cache=False)
        store = ArtifactStore(MemoryBlockStore())
        ref = figure_session.persist(store)["ref"]

        reopened = Dataspace.from_store(store, ref)
        stats = reopened.planner.statistics(ICN_QUERY)
        assert stats is not None
        assert stats.executions == 3
        assert stats.plans["compiled"].count == 3
        assert (
            stats.to_payload()
            == figure_session.planner.statistics(ICN_QUERY).to_payload()
        )

    def test_calibrate_measures_every_plan(self, figure_session):
        timings = figure_session.calibrate(ICN_QUERY)
        assert set(timings) == {"basic", "blocktree", "compiled"}
        assert all(latency >= 0.0 for latency in timings.values())
        stats = figure_session.planner.statistics(ICN_QUERY)
        assert all(stats.plans[name].count >= 1 for name in timings)

    def test_cost_based_choice_is_byte_identical(self, figure_session):
        fixed = figure_session.execute(ICN_QUERY, plan="compiled", use_cache=False)
        figure_session.calibrate(ICN_QUERY)
        routed = figure_session.execute(ICN_QUERY, use_cache=False)
        assert [
            (a.mapping_id, a.matches, a.probability.hex()) for a in fixed
        ] == [(a.mapping_id, a.matches, a.probability.hex()) for a in routed]

    def test_statistics_with_scatter_records_still_load(self, figure_session):
        # A payload as persisted before the planner stopped routing through
        # scatter-gather: a "scatter" counter block and a "scatter:4" plan
        # record that beats every in-process plan.
        latency = {"count": 3, "total_ms": 3.0, "best_ms": 1.0, "last_ms": 1.0}
        payload = {
            "kind": "planner_stats",
            "format": 1,
            "signature": {},
            "queries": [
                {
                    "key": ICN_QUERY,
                    "executions": 9,
                    "cache_hits": 0,
                    "cache_misses": 6,
                    "num_relevant": 5,
                    "num_embeddings": 1,
                    "distinct_rewrites": 2,
                    "state": [0, 0],
                    "plans": {
                        "basic": dict(latency, ewma_ms=40.0),
                        "compiled": dict(latency, ewma_ms=50.0),
                        "scatter:4": dict(latency, ewma_ms=1.0),
                    },
                    "scatter": {"4": {"executions": 3, "fan_out": 12, "skipped": 0}},
                    "topk_thresholds": {},
                }
            ],
        }
        assert figure_session.planner.adopt_payload(payload) == 1
        prepared = figure_session.prepare(ICN_QUERY)
        decisions = [
            figure_session.plan_decision(prepared),
            figure_session.plan_decision(prepared, k=2),
            figure_session.explain(ICN_QUERY).to_dict()["planner"],
        ]
        winners = [decisions[0].plan_name, decisions[1].plan_name, decisions[2]["winner"]]
        assert winners == ["basic", "basic", "basic"]
        assert set(winners) <= set(available_plans())
        assert {est.plan for est in decisions[0].candidates} <= set(available_plans())
        for k in (None, 2):
            fixed = figure_session.execute(ICN_QUERY, k=k, plan="compiled", use_cache=False)
            routed = figure_session.execute(ICN_QUERY, k=k, use_cache=False)
            assert [
                (a.mapping_id, a.matches, a.probability.hex()) for a in fixed
            ] == [(a.mapping_id, a.matches, a.probability.hex()) for a in routed]
        # The unregistered record is dropped on adoption: it neither shows in
        # explain's statistics snapshot nor gets persisted again.
        assert set(decisions[2]["statistics"]["plans"]) == {"basic", "compiled"}
        persisted = figure_session.planner.statistics_payload()
        assert "scatter:4" not in json.dumps(persisted)
        assert all(set(row["plans"]) <= set(available_plans()) for row in persisted["queries"])

    def test_statistics_of_a_plugin_plan_registered_before_adoption_load(
        self, figure_session, monkeypatch
    ):
        # Adoption keeps the latencies of every plan registered at that
        # point, plugins included; only unregistered names are dropped.
        monkeypatch.setattr(plans_module, "_PLAN_REGISTRY", dict(plans_module._PLAN_REGISTRY))

        class PluginPlan(CompiledPlan):
            name = "plugin"

        register_plan(PluginPlan())
        latency = {"count": 2, "total_ms": 8.0, "best_ms": 4.0, "last_ms": 4.0}
        row = {
            "key": ICN_QUERY,
            "executions": 2,
            "state": [0, 0],
            "plans": {
                "compiled": dict(latency, ewma_ms=4.0),
                "plugin": dict(latency, ewma_ms=4.5),
                "unregistered": dict(latency, ewma_ms=1.0),
            },
        }
        payload = {"kind": "planner_stats", "format": 1, "signature": {}, "queries": [row]}
        assert figure_session.planner.adopt_payload(payload) == 1
        stats = figure_session.planner.statistics(ICN_QUERY)
        assert set(stats.plans) == {"compiled", "plugin"}
        assert stats.plans["plugin"].ewma_ms == 4.5
        persisted = figure_session.planner.statistics_payload()
        assert set(persisted["queries"][0]["plans"]) == {"compiled", "plugin"}

    def test_explain_reports_planner_decision(self, figure_session):
        report = figure_session.explain(ICN_QUERY)
        payload = report.to_dict()
        assert payload["planner"]["winner"] == "compiled"
        assert "no statistics" in payload["planner"]["reason"]
        assert "planner:" in report.format()

        figure_session.calibrate(ICN_QUERY)
        measured = figure_session.explain(ICN_QUERY).to_dict()["planner"]
        assert measured["candidates"], "calibrated query must surface estimates"
        assert {est["plan"] for est in measured["candidates"]} >= {
            "basic",
            "blocktree",
            "compiled",
        }

    def test_explain_analyze_reports_estimated_vs_actual(self, figure_session):
        figure_session.execute(ICN_QUERY, use_cache=False)
        report = figure_session.explain(ICN_QUERY, analyze=True)
        analyze = report.to_dict()["analyze"]
        assert analyze["actual"]["num_relevant"] == 5
        assert analyze["estimated"]["num_relevant"] == 5
        assert analyze["actual"]["evaluate_ms"] >= 0.0
        assert "analyze:" in report.format()
        assert figure_session.explain(ICN_QUERY).to_dict()["analyze"] is None

    def test_forced_plan_bypasses_the_cost_model(self, figure_session):
        report = figure_session.explain(ICN_QUERY, plan="basic")
        assert report.plan == "basic"
        assert report.reason == "forced by caller"

    def test_describe_includes_planner_summary(self, figure_session):
        figure_session.execute(ICN_QUERY, use_cache=False)
        info = figure_session.describe()
        assert info["planner"]["tracked_queries"] == 1
