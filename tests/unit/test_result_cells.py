"""Cell-shaped results on real sessions: no rows until read, and a store round trip."""

from __future__ import annotations

import gc

from repro.api.serialize import canonical_json, result_to_json
from repro.engine import Dataspace
from repro.query.results import PTQAnswer
from repro.store import ArtifactStore, MemoryBlockStore


def live_answers() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is PTQAnswer)


def hex_rows(result):
    return [(a.mapping_id, a.probability.hex(), a.matches) for a in result]


def test_uncached_miss_builds_no_rows_until_read():
    session = Dataspace.from_dataset("D7", h=400)
    session.compiled
    session.document
    before = live_answers()
    result = session.execute("Q4")
    assert session.result_cache.stats().misses == 1
    assert live_answers() == before
    assert len(result) > 0
    rows = list(result.answers)
    assert live_answers() == before + len(result) == before + len(rows)


def test_restored_results_equal_the_persisted_ones():
    keys = [("//contactName", None), ("//contactName", 2), ("purchaseOrder", None), ("//fax", 3)]
    blocks = MemoryBlockStore()
    session = Dataspace.from_dataset("D1", h=10, store=ArtifactStore(blocks))
    originals = {key: session.execute(key[0], k=key[1]) for key in keys}
    session.persist()

    reopened = Dataspace.from_dataset("D1", h=10, store=ArtifactStore(blocks))
    for (query, k), original in originals.items():
        prepared = reopened.prepare(query)
        prepared.embeddings  # resolve, so the lookup-only path can look
        restored = prepared.cached(k=k)
        assert restored is not None, (query, k)
        assert restored is not original
        assert hex_rows(restored) == hex_rows(original)
        assert canonical_json(result_to_json(restored)) == canonical_json(
            result_to_json(original)
        )
        assert restored.total_probability().hex() == original.total_probability().hex()
        assert restored.pattern_distribution() == original.pattern_distribution()
        assert restored.value_distribution() == original.value_distribution()
        # Rows are grouped back into one cell per distinct match set.
        assert len(restored._cells) == len({a.matches for a in original})
