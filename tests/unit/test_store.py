"""Unit tests for the persistent artifact store.

Covers the block-store substrate (memory, sqlite, overlay), the
``ArtifactStore`` wrapper, and — most importantly — the corruption matrix
from ISSUE 6: a truncated blob, a wrong checksum, a stale signature, and
concurrent writers on one sqlite store must each degrade to a clean rebuild
with no exception escaping to the query path.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import Dataspace
from repro.exceptions import StoreError
from repro.store import (
    ArtifactStore,
    MemoryBlockStore,
    OverlayBlockStore,
    SqliteBlockStore,
)
from repro.store.blocks import block_key


def answer_set(result):
    return {(a.mapping_id, a.matches, a.probability) for a in result}


@pytest.fixture(params=["memory", "sqlite"])
def blocks(request, tmp_path):
    """One of the two concrete block stores, freshly created."""
    if request.param == "memory":
        store = MemoryBlockStore()
    else:
        store = SqliteBlockStore(str(tmp_path / "blocks.db"))
    yield store
    store.close()


@pytest.fixture()
def figure_session(figure_mappings, figure_document):
    return Dataspace.from_mapping_set(figure_mappings, document=figure_document)


class TestBlockStores:
    def test_put_get_roundtrip_is_content_addressed(self, blocks):
        key = blocks.put_block(b"payload")
        assert key == block_key(b"payload")
        assert blocks.get_block(key) == b"payload"
        assert blocks.has_block(key)
        assert len(blocks) == 1
        assert blocks.total_bytes() == len(b"payload")

    def test_put_is_idempotent(self, blocks):
        first = blocks.put_block(b"same bytes")
        second = blocks.put_block(b"same bytes")
        assert first == second
        assert len(blocks) == 1

    def test_missing_block_reads_as_none(self, blocks):
        assert blocks.get_block(block_key(b"never stored")) is None
        assert not blocks.has_block(block_key(b"never stored"))

    def test_truncated_blob_fails_checksum(self, blocks):
        key = blocks.put_block(b"a block that will lose its tail")
        blocks._write(key, b"a block")  # simulate a torn write
        with pytest.raises(StoreError, match="checksum"):
            blocks.get_block(key)

    def test_tampered_blob_fails_checksum(self, blocks):
        key = blocks.put_block(b"original content")
        blocks._write(key, b"replaced content")
        with pytest.raises(StoreError, match="checksum"):
            blocks.get_block(key)

    def test_delete_block(self, blocks):
        key = blocks.put_block(b"ephemeral")
        assert blocks.delete_block(key)
        assert not blocks.delete_block(key)
        assert blocks.get_block(key) is None

    def test_refs_namespace(self, blocks):
        key = blocks.put_block(b"manifest")
        blocks.set_ref("sessions/a", key)
        assert blocks.get_ref("sessions/a") == key
        assert blocks.refs() == {"sessions/a": key}
        other = blocks.put_block(b"manifest v2")
        blocks.set_ref("sessions/a", other)  # overwrite
        assert blocks.get_ref("sessions/a") == other
        assert blocks.delete_ref("sessions/a")
        assert not blocks.delete_ref("sessions/a")
        assert blocks.get_ref("sessions/a") is None

    def test_iter_keys_enumerates_everything(self, blocks):
        keys = {blocks.put_block(bytes([i]) * 4) for i in range(5)}
        assert set(blocks.iter_keys()) == keys


class TestSqliteBlockStore:
    def test_blocks_survive_reopen(self, tmp_path):
        path = str(tmp_path / "persist.db")
        with SqliteBlockStore(path) as store:
            key = store.put_block(b"durable bytes")
            store.set_ref("root", key)
        with SqliteBlockStore(path) as store:
            assert store.get_block(key) == b"durable bytes"
            assert store.get_ref("root") == key

    def test_concurrent_writers_on_one_store(self, tmp_path):
        path = str(tmp_path / "shared.db")
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            try:
                with SqliteBlockStore(path) as store:
                    for i in range(25):
                        # Half the blocks collide across workers on purpose:
                        # idempotent content-addressed writes make that safe.
                        key = store.put_block(b"shared %d" % (i % 5))
                        store.put_block(b"worker %d block %d" % (worker, i))
                        store.set_ref("latest", key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with SqliteBlockStore(path) as store:
            assert len(store) == 5 + 4 * 25
            for key in store.iter_keys():
                assert store.get_block(key) is not None  # all checksums hold
            assert store.get_ref("latest") is not None


class TestOverlayBlockStore:
    def test_lower_is_required(self):
        with pytest.raises(StoreError):
            OverlayBlockStore()

    def test_reads_fall_through_writes_stay_upper(self):
        lower = MemoryBlockStore()
        base_key = lower.put_block(b"base block")
        overlay = OverlayBlockStore(lower=lower)
        assert overlay.get_block(base_key) == b"base block"
        staged_key = overlay.put_block(b"staged block")
        assert overlay.get_block(staged_key) == b"staged block"
        assert lower.get_block(staged_key) is None
        assert overlay.staged_blocks() == 1

    def test_refs_merge_with_staged_shadowing_base(self):
        lower = MemoryBlockStore()
        lower.set_ref("shared", lower.put_block(b"old"))
        lower.set_ref("base-only", lower.put_block(b"keep"))
        overlay = OverlayBlockStore(lower=lower)
        staged = overlay.put_block(b"new")
        overlay.set_ref("shared", staged)
        assert overlay.get_ref("shared") == staged
        assert overlay.get_ref("base-only") == lower.get_ref("base-only")
        assert set(overlay.refs()) == {"shared", "base-only"}
        assert lower.get_ref("shared") == block_key(b"old")  # base untouched

    def test_commit_flushes_and_clears(self):
        lower = MemoryBlockStore()
        overlay = OverlayBlockStore(lower=lower)
        key = overlay.put_block(b"to flush")
        overlay.set_ref("head", key)
        flushed = overlay.commit()
        assert flushed == 1
        assert overlay.staged_blocks() == 0
        assert lower.get_block(key) == b"to flush"
        assert lower.get_ref("head") == key
        # a second commit has nothing left to do
        assert overlay.commit() == 0

    def test_discard_drops_staged_state(self):
        lower = MemoryBlockStore()
        overlay = OverlayBlockStore(lower=lower)
        key = overlay.put_block(b"abandoned")
        overlay.set_ref("head", key)
        dropped = overlay.discard()
        assert dropped >= 1
        assert overlay.staged_blocks() == 0
        assert lower.get_block(key) is None
        assert lower.get_ref("head") is None


class TestArtifactStore:
    def test_wrap_is_idempotent(self):
        blocks = MemoryBlockStore()
        store = ArtifactStore.wrap(blocks)
        assert ArtifactStore.wrap(store) is store
        with pytest.raises(StoreError):
            ArtifactStore.wrap("not a store")

    def test_missing_payload_raises(self):
        store = ArtifactStore(MemoryBlockStore())
        with pytest.raises(StoreError):
            store.get_payload(block_key(b"absent"))

    def test_save_load_session_counts_hits(self, figure_session):
        store = ArtifactStore(MemoryBlockStore())
        report = figure_session.persist(store)
        assert report["artifacts"] >= 5
        bundle = store.load_session(report["ref"])
        assert bundle is not None
        assert bundle.signature == {
            "generation": 0,
            "delta_epoch": 0,
            "document_version": 0,
        }
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 0
        assert stats["writes"] >= report["artifacts"]

    def test_absent_ref_is_a_miss_not_an_error(self):
        store = ArtifactStore(MemoryBlockStore())
        assert store.load_session("dataspace/nowhere") is None
        assert store.stats()["misses"] == 1

    def test_stale_signature_is_a_miss(self, figure_session):
        store = ArtifactStore(MemoryBlockStore())
        ref = figure_session.persist(store)["ref"]
        config = store.load_session(ref).config
        stale = dict(config, tau=config["tau"] + 0.25)
        assert store.load_session(ref, expect=stale) is None
        assert store.stats()["misses"] == 1

    def test_corrupt_artifact_raises_store_error(self, figure_session):
        store = ArtifactStore(MemoryBlockStore())
        ref = figure_session.persist(store)["ref"]
        manifest_key = store.blocks.get_ref(ref)
        payload = store.blocks.get_block(manifest_key)
        store.blocks._write(manifest_key, payload[: len(payload) // 2])
        with pytest.raises(StoreError):
            store.load_session(ref)
        assert store.stats()["misses"] == 1

    def test_verify_reports_corruption_without_raising(self, figure_session):
        store = ArtifactStore(MemoryBlockStore())
        ref = figure_session.persist(store)["ref"]
        assert store.verify()["errors"] == 0
        victim = next(iter(store.blocks.iter_keys()))
        store.blocks._write(victim, b"rot")
        report = store.verify()
        assert report["errors"] >= 1
        assert any("error" in status for status in report["refs"].values())

    def test_gc_keeps_live_removes_unreachable(self, figure_session):
        store = ArtifactStore(MemoryBlockStore())
        figure_session.persist(store)
        assert store.gc()["removed"] == 0
        orphan = store.blocks.put_block(b"unreferenced scratch block")
        report = store.gc()
        assert report["removed"] == 1
        assert not store.blocks.has_block(orphan)

    def test_gc_after_ref_deletion_sweeps_the_session(self, figure_session):
        store = ArtifactStore(MemoryBlockStore())
        ref = figure_session.persist(store)["ref"]
        store.blocks.delete_ref(ref)
        report = store.gc()
        assert report["removed"] >= 5
        assert len(store.blocks) == 0


class TestCorruptionFallsBackToRebuild:
    """Every store failure mode must yield a cold build, never an exception."""

    H = 4
    D1_QUERY = "//contactName"

    def populated(self, tmp_path) -> tuple[str, str, set]:
        path = str(tmp_path / "datasets.db")
        with SqliteBlockStore(path) as blocks:
            session = Dataspace.from_dataset("D1", h=self.H, store=ArtifactStore(blocks))
            report = session.persist()
            baseline = answer_set(session.execute(self.D1_QUERY, use_cache=False))
        return path, report["ref"], baseline

    def reopen(self, path: str):
        blocks = SqliteBlockStore(path)
        store = ArtifactStore(blocks)
        session = Dataspace.from_dataset("D1", h=self.H, store=store)
        return session, store

    def test_warm_reopen_loads_instead_of_building(self, tmp_path):
        path, _, baseline = self.populated(tmp_path)
        session, store = self.reopen(path)
        provenance = session.artifact_provenance()
        assert provenance["matching"]["source"] == "loaded"
        assert provenance["mapping_set"]["source"] == "loaded"
        assert store.stats()["hits"] == 1
        assert answer_set(session.execute(self.D1_QUERY, use_cache=False)) == baseline
        store.blocks.close()

    def test_truncated_blob_degrades_to_clean_rebuild(self, tmp_path):
        path, ref, baseline = self.populated(tmp_path)
        with SqliteBlockStore(path) as blocks:
            manifest_key = blocks.get_ref(ref)
            payload = blocks.get_block(manifest_key)
            blocks._write(manifest_key, payload[:10])
        with pytest.warns(RuntimeWarning, match="cold build"):
            session, store = self.reopen(path)
        assert session.artifact_provenance()["matching"]["source"] == "built"
        assert store.stats()["misses"] == 1
        assert answer_set(session.execute(self.D1_QUERY, use_cache=False)) == baseline
        store.blocks.close()

    def test_wrong_checksum_degrades_to_clean_rebuild(self, tmp_path):
        path, ref, baseline = self.populated(tmp_path)
        with SqliteBlockStore(path) as blocks:
            # Corrupt every block: whatever load_session touches first trips.
            for key in list(blocks.iter_keys()):
                blocks._write(key, b"x" + blocks._read(key))
        with pytest.warns(RuntimeWarning, match="cold build"):
            session, store = self.reopen(path)
        assert session.artifact_provenance()["matching"]["source"] == "built"
        assert answer_set(session.execute(self.D1_QUERY, use_cache=False)) == baseline
        store.blocks.close()

    def test_corrupted_store_warns_naming_the_ref(self, tmp_path):
        """A corrupt store must not degrade *silently*: the fallback warns.

        Regression test for the bare ``except Exception: return None`` that
        used to swallow every store failure on reopen — corruption looked
        exactly like an empty store.
        """
        path, ref, baseline = self.populated(tmp_path)
        with SqliteBlockStore(path) as blocks:
            manifest_key = blocks.get_ref(ref)
            blocks._write(manifest_key, b"garbage that fails the checksum")
        with SqliteBlockStore(path) as blocks:
            with pytest.warns(RuntimeWarning, match="cold build") as caught:
                session = Dataspace.from_dataset(
                    "D1", h=self.H, store=ArtifactStore(blocks)
                )
            assert any(ref in str(w.message) for w in caught)
            assert session.artifact_provenance()["matching"]["source"] == "built"
            assert answer_set(session.execute(self.D1_QUERY, use_cache=False)) == baseline

    def test_plain_miss_does_not_warn(self, tmp_path, recwarn):
        """An absent ref is the normal cold-start path — no warning."""
        with SqliteBlockStore(str(tmp_path / "empty.db")) as blocks:
            session = Dataspace.from_dataset(
                "D1", h=self.H, store=ArtifactStore(blocks)
            )
            assert session.artifact_provenance()["matching"]["source"] == "built"
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_non_store_errors_propagate_from_reopen(self):
        """Only :class:`StoreError` is a store miss; anything else is a bug."""

        class ExplodingStore(MemoryBlockStore):
            def get_ref(self, name):
                raise ZeroDivisionError("not a store failure")

        with pytest.raises(ZeroDivisionError):
            Dataspace.from_dataset("D1", h=self.H, store=ExplodingStore())

    def test_stale_signature_degrades_to_clean_rebuild(self, tmp_path):
        path, _, _ = self.populated(tmp_path)
        with SqliteBlockStore(path) as blocks:
            store = ArtifactStore(blocks)
            session = Dataspace.from_dataset("D1", h=self.H + 1, store=store)
            assert session.artifact_provenance()["matching"]["source"] == "built"
            assert store.stats()["misses"] == 1
            assert len(session.execute(self.D1_QUERY, use_cache=False)) >= 0

    def test_concurrent_writers_then_reopen(self, tmp_path):
        path, _, baseline = self.populated(tmp_path)
        errors: list[Exception] = []

        def persist_again() -> None:
            try:
                with SqliteBlockStore(path) as blocks:
                    session = Dataspace.from_dataset(
                        "D1", h=self.H, store=ArtifactStore(blocks)
                    )
                    session.persist()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=persist_again) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        session, store = self.reopen(path)
        assert store.verify()["errors"] == 0
        assert answer_set(session.execute(self.D1_QUERY, use_cache=False)) == baseline
        store.blocks.close()


def hex_answers(result):
    """Answers with probabilities as ``float.hex()``: byte-exact comparison."""
    return sorted(
        (a.mapping_id, sorted(map(sorted, a.matches)), a.probability.hex()) for a in result
    )


class TestOldShapeManifests:
    """Stores written while the sharded corpus and the cost model existed.

    Such a manifest also names shard-partition layouts (``partitions``) and
    planner statistics (``statistics``).  Nothing reads those blocks now: the
    session must reopen with byte-identical answers, ``repro store verify``
    must pass before and after ``repro store gc``, and a new persist writes
    neither key.
    """

    H = 4
    QUERIES = ("//contactName", "//fax", "purchaseOrder")

    def old_store(self, tmp_path):
        path = str(tmp_path / "old.db")
        with SqliteBlockStore(path) as blocks:
            store = ArtifactStore(blocks)
            session = Dataspace.from_dataset("D1", h=self.H, store=store)
            expected = {
                query: hex_answers(session.execute(query)) for query in self.QUERIES
            }
            report = session.persist()
            manifest = store.get_payload(report["manifest"])
            assert "partitions" not in manifest and "statistics" not in manifest
            layout = {
                "kind": "partition",
                "num_shards": 2,
                "spine": [0],
                "shards": [[1], [2]],
            }
            statistics = {
                "format": 1,
                "signature": manifest["signature"],
                "queries": [
                    {
                        "key": "//contactName",
                        "executions": 3,
                        "plans": {"compiled": {"count": 3, "ewma_ms": 0.5}},
                        "topk_thresholds": {},
                    }
                ],
            }
            old = dict(
                manifest,
                partitions={"2": store.put_payload(layout)},
                statistics=store.put_payload(statistics),
            )
            blocks.set_ref(report["ref"], store.put_payload(old))
        return path, report["ref"], expected, old

    @staticmethod
    def cli(*argv) -> int:
        import io

        from repro.cli import main

        return main(list(argv), out=io.StringIO())

    def test_reopens_with_identical_answers_and_survives_gc(self, tmp_path):
        path, ref, expected, old = self.old_store(tmp_path)
        assert self.cli("store", "verify", "--path", path) == 0
        assert self.cli("store", "gc", "--path", path) == 0
        assert self.cli("store", "verify", "--path", path) == 0
        with SqliteBlockStore(path) as blocks:
            # gc keeps the old blocks live: the manifest never names a
            # missing block.
            assert blocks.has_block(old["partitions"]["2"])
            assert blocks.has_block(old["statistics"])
            store = ArtifactStore(blocks)
            for session in (
                Dataspace.from_dataset("D1", h=self.H, store=store),
                Dataspace.from_store(store, ref),
            ):
                assert session.artifact_provenance()["mapping_set"]["source"] == "loaded"
                for query in self.QUERIES:
                    assert hex_answers(session.execute(query)) == expected[query]
                    assert (
                        hex_answers(session.execute(query, use_cache=False))
                        == expected[query]
                    )

    def test_new_persist_drops_the_old_keys(self, tmp_path):
        path, ref, expected, _ = self.old_store(tmp_path)
        with SqliteBlockStore(path) as blocks:
            store = ArtifactStore(blocks)
            session = Dataspace.from_store(store, ref)
            report = session.persist()
            manifest = store.get_payload(report["manifest"])
            assert "partitions" not in manifest and "statistics" not in manifest
            assert store.gc()["removed"] >= 2
            assert store.verify()["errors"] == 0
            reopened = Dataspace.from_store(store, ref)
            for query in self.QUERIES:
                assert hex_answers(reopened.execute(query)) == expected[query]


class FailOnWriteStore(MemoryBlockStore):
    """A block store that starts failing writes when ``fail`` is flipped."""

    def __init__(self) -> None:
        super().__init__()
        self.fail = False

    def _write(self, key: str, data: bytes) -> None:
        if self.fail:
            raise StoreError("disk full")
        super()._write(key, data)

    def set_ref(self, name: str, key: str) -> None:
        if self.fail:
            raise StoreError("disk full")
        super().set_ref(name, key)


class TestDeltaWriteThroughFailureReporting:
    """The apply_delta write-through stays best-effort but never silent.

    Regression tests for the bare ``except Exception: pass`` around the
    delta write-through: a failed persist used to be indistinguishable from
    a successful one, leaving the store silently stale.
    """

    def delta(self, session):
        from repro.engine import MappingDelta

        mapping_set = session.mapping_set
        return MappingDelta.build(
            reweight={
                0: mapping_set[1].probability,
                1: mapping_set[0].probability,
            }
        )

    def attached_session(self, figure_mappings, figure_document):
        store = FailOnWriteStore()
        session = Dataspace.from_mapping_set(figure_mappings, document=figure_document)
        session.persist(store)
        return session, store

    def test_successful_write_through_reports_clean(
        self, figure_mappings, figure_document, recwarn
    ):
        session, store = self.attached_session(figure_mappings, figure_document)
        report = session.apply_delta(self.delta(session))
        assert not report.persist_failed
        assert report.persist_error is None
        assert session.cache_stats()["store"]["persist_failures"] == 0
        assert report.to_dict()["persist_failed"] is False
        assert "persist" not in report.format()
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_failed_write_through_is_recorded_and_warns_once(
        self, figure_mappings, figure_document
    ):
        session, store = self.attached_session(figure_mappings, figure_document)
        store.fail = True
        with pytest.warns(RuntimeWarning, match="write-through"):
            report = session.apply_delta(self.delta(session))
        assert report.persist_failed
        assert "disk full" in report.persist_error
        assert report.to_dict()["persist_error"] == report.persist_error
        assert "FAILED" in report.format()
        assert session.cache_stats()["store"]["persist_failures"] == 1

        # The delta itself was applied: the in-memory session moved on.
        assert session.delta_epoch == report.delta_epoch

        # Later failures are counted but do not warn again.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            second = session.apply_delta(self.delta(session))
        assert second.persist_failed
        assert session.cache_stats()["store"]["persist_failures"] == 2

    def test_failure_counter_flows_into_service_stats(
        self, figure_mappings, figure_document
    ):
        from repro.service import QueryService

        session, store = self.attached_session(figure_mappings, figure_document)
        store.fail = True
        with pytest.warns(RuntimeWarning):
            session.apply_delta(self.delta(session))
        with QueryService(session, max_workers=1) as service:
            assert service.stats()["store"]["persist_failures"] == 1

    def test_recovery_resumes_clean_reports(self, figure_mappings, figure_document):
        session, store = self.attached_session(figure_mappings, figure_document)
        store.fail = True
        with pytest.warns(RuntimeWarning):
            failed = session.apply_delta(self.delta(session))
        assert failed.persist_failed
        store.fail = False
        recovered = session.apply_delta(self.delta(session))
        assert not recovered.persist_failed
        assert recovered.persist_error is None
        # The counter keeps its history; only new failures increment it.
        assert session.cache_stats()["store"]["persist_failures"] == 1
