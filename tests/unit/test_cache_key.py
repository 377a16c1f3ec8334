"""Unit tests for the explicit result-cache key."""

from __future__ import annotations

from repro.engine import CacheKey, Dataspace, plan_for


def make_key(**overrides):
    fields = dict(
        query="Q7",
        plan="compiled",
        k=10,
        tau=0.2,
        generation=3,
        document_version=1,
    )
    fields.update(overrides)
    return CacheKey(**fields)


class TestCacheKeyIdentity:
    def test_equal_fields_equal_keys(self):
        assert make_key() == make_key()
        assert hash(make_key()) == hash(make_key())

    def test_every_field_participates(self):
        base = make_key()
        assert make_key(query="Q8") != base
        assert make_key(plan="basic") != base
        assert make_key(k=None) != base
        assert make_key(tau=0.3) != base
        assert make_key(generation=4) != base
        assert make_key(document_version=2) != base

    def test_key_names_the_query_plan_and_session_state_only(self):
        assert CacheKey._fields == (
            "query",
            "plan",
            "k",
            "tau",
            "generation",
            "document_version",
            "delta_epoch",
        )
        assert make_key(delta_epoch=1) != make_key(delta_epoch=2)


class TestCacheKeyInCache:
    def test_engine_result_keys_are_session_scoped(self, figure_mappings, figure_document):
        session = Dataspace.from_mapping_set(figure_mappings, document=figure_document)
        prepared = session.prepare("//CONTACT_NAME")
        snapshot = session.snapshot(need_tree=False)
        plan = plan_for(session.plan_decision(prepared))
        key = prepared._result_key(plan, 3, snapshot)
        assert isinstance(key, CacheKey)
        assert key.generation == snapshot.generation
        assert key.document_version == snapshot.document_version
        assert key.delta_epoch == snapshot.delta_epoch
        assert key.tau == snapshot.tau
