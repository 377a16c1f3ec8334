"""Unit tests for the explicit result-cache key (scope-discriminated)."""

from __future__ import annotations

from repro.engine import CacheKey, Dataspace, ResultCache, plan_for


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

    def test_scope_discriminates_session_corpus_shard(self):
        session = make_key()
        corpus = make_key(scope="corpus", shards=4)
        shard = make_key(scope="shard", shard=0, shards=4)
        spine = make_key(scope="spine", shards=4)
        keys = {session, corpus, shard, spine}
        assert len(keys) == 4

    def test_shard_scoped_keys_cannot_collide_with_whole_corpus_keys(self):
        corpus = make_key(scope="corpus", shards=4)
        for shard_id in range(4):
            assert make_key(scope="shard", shard=shard_id, shards=4) != corpus

    def test_distinct_shard_layouts_are_distinct(self):
        assert make_key(scope="corpus", shards=4) != make_key(scope="corpus", shards=7)
        assert make_key(scope="shard", shard=1, shards=4) != make_key(
            scope="shard", shard=1, shards=7
        )

    def test_generation_accepts_signature_tuples(self):
        signature = (("D1", 0, 0), ("D2", 2, 1))
        key = make_key(scope="corpus", generation=signature, document_version=None)
        assert key == make_key(
            scope="corpus", generation=signature, document_version=None
        )
        assert key != make_key(
            scope="corpus", generation=(("D1", 1, 0), ("D2", 2, 1)), document_version=None
        )


class TestCacheKeyInCache:
    def test_scoped_entries_coexist(self):
        cache = ResultCache(8)
        cache.put(make_key(), "session-result")
        cache.put(make_key(scope="corpus", shards=2), "corpus-result")
        cache.put(make_key(scope="shard", shard=0, shards=2), "shard-partial")
        assert cache.get(make_key()) == "session-result"
        assert cache.get(make_key(scope="corpus", shards=2)) == "corpus-result"
        assert cache.get(make_key(scope="shard", shard=0, shards=2)) == "shard-partial"
        assert cache.get(make_key(scope="shard", shard=1, shards=2)) is None

    def test_engine_result_keys_are_session_scoped(self, figure_mappings, figure_document):
        session = Dataspace.from_mapping_set(figure_mappings, document=figure_document)
        prepared = session.prepare("//CONTACT_NAME")
        snapshot = session.snapshot(need_tree=False)
        plan = plan_for(session.plan_decision(prepared).plan_name)
        key = prepared._result_key(plan, 3, snapshot)
        assert isinstance(key, CacheKey)
        assert key.scope == "session"
        assert key.shard is None and key.shards is None
        assert key.generation == snapshot.generation
        assert key.tau == snapshot.tau

    def test_sharded_and_session_execution_share_one_cache_safely(
        self, figure_mappings, figure_document
    ):
        session = Dataspace.from_mapping_set(figure_mappings, document=figure_document)
        corpus = session.shard(2)
        query = "//CONTACT_NAME"
        plain = session.execute(query)
        merged = corpus.execute(query)
        # Both entries live in the session cache under different scopes.
        assert session.execute(query) is plain
        assert corpus.execute(query) is merged
        assert plain is not merged
