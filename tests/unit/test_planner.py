"""Tests for plan selection and canonical query keys.

Covers canonical query rendering (equivalent spellings share one prepared
query) and the plan choice: an un-forced query always runs ``compiled``, and
a forced plan runs as forced.
"""

from __future__ import annotations

import pytest

from repro.engine import Dataspace
from repro.query.normalize import canonical_text, normalize_query_text
from repro.query.parser import parse_twig

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



# --------------------------------------------------------------------------- #
# Plan selection
# --------------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_explain_reports_planner_decision(self, figure_session):
        report = figure_session.explain(ICN_QUERY)
        assert report.plan == "compiled"
        assert report.reason == "default plan"
        assert "plan:       compiled (default plan)" in report.format()
        assert "planner" not in report.to_dict()

    def test_forced_plan_bypasses_the_cost_model(self, figure_session):
        report = figure_session.explain(ICN_QUERY, plan="basic")
        assert report.plan == "basic"
        assert report.reason == "forced by caller"

    def test_unforced_query_runs_compiled_after_forced_runs(self, figure_session):
        # Forced runs leave no trace on the plan choice: there are no
        # latency statistics to learn from.
        prepared = figure_session.prepare(ICN_QUERY)
        for plan in ("basic", "blocktree", "basic"):
            figure_session.execute(ICN_QUERY, plan=plan, use_cache=False)
        assert figure_session.plan_decision(prepared) == "compiled"
        assert figure_session.explain(ICN_QUERY).plan == "compiled"
        assert "planner" not in figure_session.describe()
