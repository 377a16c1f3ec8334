"""Tests for the canonical result codecs (``repro.api.serialize``)."""

from __future__ import annotations

import json
import math

import pytest

from repro.api.errors import BadRequestError
from repro.api.serialize import (
    QueryAnswer,
    QueryResult,
    answer_to_json,
    canonical_json,
    delta_report_from_json,
    delta_report_to_json,
    execution_from_json,
    execution_to_json,
    explain_from_json,
    explain_to_json,
    result_from_json,
    result_to_json,
    value_distribution_to_json,
)
from repro.engine import Dataspace, MappingDelta


@pytest.fixture(scope="module")
def dataspace():
    return Dataspace.from_dataset("D1", h=20)


@pytest.fixture(scope="module")
def result(dataspace):
    return dataspace.execute("Q1")


class TestCanonicalJson:
    def test_compact_sorted(self):
        data = canonical_json({"b": 1, "a": [1, 2]})
        assert data == b'{"a":[1,2],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": math.nan})

    def test_deterministic(self):
        payload = {"z": 1, "a": {"y": 2, "b": 3}}
        assert canonical_json(payload) == canonical_json(
            json.loads(canonical_json(payload))
        )


class TestResultCodec:
    def test_shape(self, result):
        payload = result_to_json(result)
        assert payload["num_answers"] == len(payload["answers"])
        for answer in payload["answers"]:
            assert set(answer) == {"mapping_id", "probability", "matches"}
            # float.hex() round-trips exactly
            assert math.isfinite(float.fromhex(answer["probability"]))

    def test_answers_sorted_by_mapping_id(self, result):
        payload = result_to_json(result)
        ids = [a["mapping_id"] for a in payload["answers"]]
        assert ids == sorted(ids)

    def test_round_trip_preserves_bytes(self, result):
        payload = result_to_json(result)
        view = result_from_json(payload, query="Q1")
        assert view.query == "Q1"
        assert result_to_json(view) == payload
        assert canonical_json(result_to_json(view)) == canonical_json(payload)

    def test_view_matches_engine_result(self, result):
        view = result_from_json(result_to_json(result))
        engine = sorted(result, key=lambda a: a.mapping_id)
        assert len(view) == len(engine)
        for got, want in zip(view, engine):
            assert got.mapping_id == want.mapping_id
            assert got.probability == pytest.approx(float(want.probability))

    def test_value_distribution_serialises(self, result):
        payload = value_distribution_to_json(result)
        assert json.loads(canonical_json(payload)) == payload


class TestQueryAnswerView:
    def test_answer_round_trip(self):
        answer = QueryAnswer(
            mapping_id=3,
            probability_hex=(0.25).hex(),
            matches=((((0, 1), (2, 3)),)),
        )
        assert QueryAnswer.from_json(answer.to_json()) == answer
        assert answer.probability == 0.25

    def test_answer_decodes_pairs_as_int_tuples(self):
        matches = [[[0, 7], [2, 9]], [[1, 3]]]
        payload = {"mapping_id": 4, "probability": (0.5).hex(), "matches": matches}
        answer = QueryAnswer.from_json(payload)
        assert answer.matches == (((0, 7), (2, 9)), ((1, 3),))
        assert answer.to_json() == payload

    @pytest.mark.parametrize(
        "matches",
        [
            pytest.param([[[0, 1, 2]]], id="three-item-pair"),
            pytest.param([[[0]]], id="one-item-pair"),
            pytest.param([[[]]], id="empty-pair"),
            pytest.param([[["x", 1]]], id="non-integer-query-node"),
            pytest.param([[[0, None]]], id="null-doc-node"),
            pytest.param([[5]], id="non-list-pair"),
            pytest.param([7], id="non-list-match"),
            pytest.param({}, id="object-matches"),
            pytest.param("01", id="string-matches"),
            pytest.param(None, id="null-matches"),
        ],
    )
    def test_malformed_matches_are_bad_requests(self, matches):
        payload = {"mapping_id": 0, "probability": (0.5).hex(), "matches": matches}
        with pytest.raises(BadRequestError, match="malformed answer payload"):
            QueryAnswer.from_json(payload)

    def test_missing_fields_are_bad_requests(self):
        with pytest.raises(BadRequestError):
            QueryAnswer.from_json({"mapping_id": 0, "probability": (0.5).hex()})
        with pytest.raises(BadRequestError):
            QueryAnswer.from_json({"probability": (0.5).hex(), "matches": []})

    def test_result_view_iterates(self):
        result = QueryResult(
            query="Q1",
            answers=(
                QueryAnswer(mapping_id=0, probability_hex=(0.5).hex(), matches=()),
            ),
        )
        assert [a.mapping_id for a in result] == [0]
        assert len(result) == 1


class TestReportCodecs:
    def test_explain_round_trip(self, dataspace):
        report = dataspace.explain("Q1", k=5)
        payload = explain_to_json(report)
        assert canonical_json(explain_to_json(explain_from_json(payload))) == (
            canonical_json(payload)
        )

    def test_delta_report_round_trip(self, dataspace):
        mappings = dataspace.mapping_set.mappings
        delta = MappingDelta.build(
            reweight={
                mappings[0].mapping_id: mappings[1].probability,
                mappings[1].mapping_id: mappings[0].probability,
            },
        )
        session = Dataspace.from_dataset("D1", h=20)
        report = session.apply_delta(delta)
        payload = delta_report_to_json(report)
        assert canonical_json(
            delta_report_to_json(delta_report_from_json(payload))
        ) == canonical_json(payload)

    def test_execution_round_trip(self, dataspace):
        corpus = dataspace.shard(2)
        execution = corpus.explain("Q1", k=5)
        payload = execution_to_json(execution)
        assert canonical_json(
            execution_to_json(execution_from_json(payload))
        ) == canonical_json(payload)

    def test_execution_answers_are_canonical(self, dataspace):
        corpus = dataspace.shard(2)
        execution = corpus.explain("Q1")
        payload = execution_to_json(execution)
        assert len(payload["answers"]) == execution.merged_answers
        for answer in payload["answers"]:
            assert {"dataset", "mapping_id", "probability", "matches"} <= set(answer)
            assert math.isfinite(float.fromhex(answer["probability"]))
        # The whole payload is canonical-JSON clean (no NaN, JSON-native types).
        assert json.loads(canonical_json(payload)) == payload
