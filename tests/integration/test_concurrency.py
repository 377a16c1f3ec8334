"""Concurrency stress tests: many readers, interleaved reconfiguration.

These tests hammer one :class:`~repro.engine.Dataspace` from several threads
while the main thread keeps calling ``configure(h=..., tau=...)`` and
``invalidate()``, and assert the engine's serving guarantees:

* **no torn reads** — every result is computed against one atomic snapshot
  (the snapshot's block tree is always the one built over the snapshot's
  mapping set);
* **no stale-generation cache hits** — results are keyed by generation, so
  per generation the answer set is unique and deterministic (``tau`` changes
  may swap the plan mid-generation, but Algorithm 3 ≡ Algorithm 4 makes that
  invisible in the answers);
* **deterministic results per generation** — every thread that observed a
  generation observed the same answers.

The sessions here are built over the small Figure 1 schemas so hundreds of
executions stay fast.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import Dataspace

QUERIES = (
    "//INVOICE_PARTY//CONTACT_NAME",
    "//SUPPLIER_PARTY//CONTACT_NAME",
    "ORDER",
)


def canonical(result):
    return frozenset(
        (answer.mapping_id, float(answer.probability).hex(), answer.matches)
        for answer in result
    )


@pytest.fixture()
def session(source_schema, target_schema):
    """A rebuildable (unpinned) session over the Figure 1 schemas."""
    return Dataspace(source_schema, target_schema, h=5, seed=1, tau=0.3)


class TestConcurrentReaders:
    def test_many_threads_one_generation(self, session):
        """Readers without writers: identical answers, resolve/filter run once."""
        errors: list[BaseException] = []
        observed: list = []
        barrier = threading.Barrier(8, timeout=10)

        def worker():
            try:
                barrier.wait()
                for _ in range(10):
                    for query in QUERIES:
                        observed.append((query, canonical(session.execute(query))))
            except BaseException as error:  # noqa: BLE001 - collected for the assertion
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        by_query: dict[str, set] = {}
        for query, answers in observed:
            by_query.setdefault(query, set()).add(answers)
        assert all(len(distinct) == 1 for distinct in by_query.values())
        # One filter pass per signature (one filter-cache entry each), up to
        # the threads that raced on the first miss (first-writer-wins put:
        # every thread then shares the one stored subset), and none once the
        # entries are in.
        filter_cache = session.cache_stats()["filter_cache"]
        assert 1 <= filter_cache["size"] <= len(QUERIES)
        assert filter_cache["misses"] <= 8 * filter_cache["size"]
        assert filter_cache["retained"] == 0
        for query in QUERIES:
            prepared = session.prepare(query)
            assert prepared.resolve_count == 1
            assert prepared.relevant_mappings() is prepared.relevant_mappings()
        assert session.cache_stats()["filter_cache"]["misses"] == filter_cache["misses"]

    def test_concurrent_first_build_is_consistent(self, source_schema, target_schema):
        """Racing threads on a cold session must agree on the built artifacts."""
        ds = Dataspace(source_schema, target_schema, h=5, seed=1)
        snapshots = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(6, timeout=10)

        def worker():
            try:
                barrier.wait()
                snapshots.append(ds.snapshot())
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len({id(snap.mapping_set) for snap in snapshots}) == 1
        assert len({id(snap.block_tree) for snap in snapshots}) == 1


class TestConfigureInterleaving:
    def test_no_torn_reads_no_stale_hits(self, session):
        """Hammer executes while h/tau reconfigurations interleave."""
        stop = threading.Event()
        errors: list[BaseException] = []
        records: list[tuple[int, str, frozenset]] = []
        lock = threading.Lock()

        def worker():
            try:
                while not stop.is_set():
                    for query in QUERIES:
                        snap = session.snapshot()
                        # Torn-read check: the snapshot's tree was built over
                        # exactly the snapshot's mapping set.
                        assert snap.block_tree.mapping_set is snap.mapping_set
                        result = session.prepare(query).execute(snapshot=snap)
                        with lock:
                            records.append((snap.generation, query, canonical(result)))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)
                stop.set()

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        # Interleave reconfigurations: tau flips rebuild the tree in place
        # (no generation bump), h flips and invalidate() bump the generation.
        # The short sleeps give the reader threads real work between writes.
        import time

        for round_index in range(30):
            if stop.is_set():
                break
            if round_index % 3 == 0:
                session.configure(tau=0.2 + 0.3 * (round_index % 2))
            elif round_index % 3 == 1:
                session.configure(h=3 + (round_index // 3) % 3)
            else:
                session.invalidate()
            time.sleep(0.002)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        # The workers must have genuinely interleaved with the writers:
        # many records, spread over several generations.
        assert len(records) >= 50
        assert len({generation for generation, _, _ in records}) >= 3

        # Deterministic per generation: every thread that observed a
        # (generation, query) pair observed exactly one answer set — a stale
        # cache hit or a torn read would surface as a second distinct set.
        distinct: dict[tuple[int, str], set] = {}
        for generation, query, answers in records:
            distinct.setdefault((generation, query), set()).add(answers)
        conflicting = {key for key, values in distinct.items() if len(values) != 1}
        assert not conflicting

        # And the final cached state agrees with a fresh, cache-bypassing
        # evaluation of the current generation.
        for query in QUERIES:
            cached = session.execute(query)
            fresh = session.execute(query, use_cache=False)
            assert canonical(cached) == canonical(fresh)

    def test_batch_under_reconfiguration_is_single_generation(self, session):
        """query_batch pins one snapshot even while configure() races it."""
        stop = threading.Event()
        errors: list[BaseException] = []

        def reconfigure():
            try:
                index = 0
                while not stop.is_set():
                    session.configure(h=3 + index % 3)
                    index += 1
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        writer = threading.Thread(target=reconfigure)
        writer.start()
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(20):
                    results = session.query_batch(list(QUERIES) * 2, executor=pool)
                    # Duplicate queries inside one batch share one snapshot,
                    # so their answers must be identical objects or at least
                    # equal.
                    for left, right in zip(results[:3], results[3:]):
                        assert canonical(left) == canonical(right)
        finally:
            stop.set()
            writer.join(timeout=60)
        assert not errors

