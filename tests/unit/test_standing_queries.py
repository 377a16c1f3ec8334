"""Unit tests for standing queries served from one shared evaluation.

Every standing query of a prepared query takes its rows from one full
(``k=None``) evaluation and keeps that evaluation's match table.  A
probability-only batch that moves new mappings into a top k must therefore
build the entrants' rows from the table: no plan runs and no twig matching
while the batch drains, and the delivered updates still replay to what a
from-scratch basic execution returns.
"""

from __future__ import annotations

import pytest

import repro.query.ptq as ptq
from repro.engine import Dataspace, MappingDelta
from repro.engine.plans import QueryPlan
from repro.engine.streaming import DeltaBatch, apply_update
from repro.mapping.mapping_set import MappingSet

QUERY = "//CONTACT_NAME"


def hex_rows(rows) -> list[tuple]:
    return sorted((row.mapping_id, row.probability.hex(), row.matches) for row in rows)


def replay(events) -> list:
    rows: list = []
    for update in events:
        rows = apply_update(rows, update)
    return rows


@pytest.fixture()
def session(figure_mappings, figure_document):
    return Dataspace.from_mapping_set(figure_mappings, document=figure_document)


@pytest.fixture()
def evaluation_calls(monkeypatch):
    """Count QueryPlan.run and match_twig calls while ``calls["on"]`` is set."""
    calls = {"on": False, "run": 0, "match_twig": 0}
    original_run = QueryPlan.run
    original_match = ptq.match_twig

    def counting_run(self, *args, **kwargs):
        if calls["on"]:
            calls["run"] += 1
        return original_run(self, *args, **kwargs)

    def counting_match(*args, **kwargs):
        if calls["on"]:
            calls["match_twig"] += 1
        return original_match(*args, **kwargs)

    monkeypatch.setattr(QueryPlan, "run", counting_run)
    monkeypatch.setattr(ptq, "match_twig", counting_match)
    return calls


def test_reweight_entrants_are_built_without_evaluation(
    session, figure_mappings, figure_document, evaluation_calls
):
    events: list = []
    full_events: list = []
    session.subscribe(QUERY, k=2, callback=events.append)
    session.subscribe(QUERY, callback=full_events.append)
    before = {row.mapping_id for row in events[0].added}
    assert before == {0, 1}

    # Swap mappings 1 (in the top 2) and 2 (outside it): mass-preserving and
    # probability-only, so mapping 2 enters the top 2 and mapping 1 leaves.
    probabilities = [mapping.probability for mapping in session.mapping_set]
    assert probabilities[1] > probabilities[2]
    swap = MappingDelta.build(reweight={1: probabilities[2], 2: probabilities[1]})
    evaluation_calls["on"] = True
    session.apply_delta_batch(DeltaBatch.of(swap))
    evaluation_calls["on"] = False

    assert evaluation_calls["run"] == 0
    assert evaluation_calls["match_twig"] == 0
    stats = session.subscriptions.stats()
    assert stats["reweight_only"] == 2 and stats["structural"] == 0
    update = events[-1]
    assert update.kind == "reweight"
    assert [row.mapping_id for row in update.added] == [2]
    assert update.removed == (1,)

    # The replayed streams equal a from-scratch basic execution.
    rebuilt = MappingSet(
        session.mapping_set.matching, session.mapping_set.mappings, normalize=False
    )
    reference = Dataspace.from_mapping_set(rebuilt, document=figure_document)
    assert hex_rows(replay(events)) == hex_rows(
        reference.execute(QUERY, k=2, plan="basic", use_cache=False)
    )
    assert hex_rows(replay(full_events)) == hex_rows(
        reference.execute(QUERY, plan="basic", use_cache=False)
    )


def test_standing_queries_of_one_query_share_a_result(session):
    session.subscribe(QUERY, k=2, callback=lambda update: None)
    session.subscribe(QUERY, k=3, callback=lambda update: None)
    session.subscribe(QUERY, callback=lambda update: None)
    results = {id(standing.result) for standing in session.subscriptions._table.values()}
    assert len(results) == 1
    (standing, *_) = session.subscriptions._table.values()
    # The result's cells cover exactly the relevant mappings, and holding it
    # built no answer row.
    relevant = session.prepare(QUERY).relevant_mappings()
    assert standing.result._mask == relevant.mask
    assert standing.result._rows is None
