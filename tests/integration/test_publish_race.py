"""Race test of the published session state: lock-free readers, one writer.

Eight readers alternate ``execute()``, ``cached()``, ``describe()`` and
``artifact_provenance()`` on one :class:`~repro.engine.Dataspace` while a
writer interleaves reweight and structural ``apply_delta_batch`` commits with
``configure(tau=...)`` and ``invalidate()``.  Readers take no lock, so the
thread switch interval is cut to a microsecond to interleave them with the
writer as finely as the interpreter allows.  The assertions:

* **no exception** in any thread;
* **one answer per state** — every answer read while the published state
  stayed the same object is attributed to that state's
  ``(generation, delta_epoch)``, and per ``(generation, delta_epoch, query,
  k)`` all of them are byte-identical (``float.hex``), whether computed or
  served from the cache;
* **consistent introspection** — no ``describe()`` reports a compiled view
  or a block tree without the mapping set beneath it.

Built over the small Figure 1 schemas, like ``test_concurrency.py``.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.engine import Dataspace
from repro.engine.delta import MappingDelta
from repro.engine.streaming import DeltaBatch

QUERIES = (
    "//INVOICE_PARTY//CONTACT_NAME",
    "//SUPPLIER_PARTY//CONTACT_NAME",
    "ORDER",
)
READERS = 8
WRITES = 60


def canonical(result):
    return frozenset(
        (answer.mapping_id, float(answer.probability).hex(), answer.matches)
        for answer in result
    )


@pytest.fixture()
def session(source_schema, target_schema):
    """A rebuildable (unpinned) session over the Figure 1 schemas."""
    return Dataspace(source_schema, target_schema, h=5, seed=1, tau=0.3)


@pytest.fixture()
def fine_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def rotation(mapping_set) -> MappingDelta:
    """A mass-preserving probability swap of mappings 0 and 1."""
    p0, p1 = mapping_set[0].probability, mapping_set[1].probability
    return MappingDelta.build(reweight={0: p1, 1: p0})


def structural(mapping_set, removed: list) -> MappingDelta:
    """Remove mapping 2's last correspondence, or put the removed one back."""
    correspondences = mapping_set[2].correspondences
    if removed and removed[-1] not in correspondences:
        return MappingDelta.build(add=[(2, removed.pop())])
    pair = sorted(correspondences)[-1]
    removed.append(pair)
    return MappingDelta.build(remove=[(2, pair)])


def test_lock_free_readers_see_one_answer_per_state(session, fine_switching):
    stop = threading.Event()
    errors: list[BaseException] = []
    records: list[tuple] = []
    inconsistent: list[dict] = []
    records_lock = threading.Lock()

    def reader(index: int) -> None:
        step = index
        while not stop.is_set():
            op = step % 4
            k = (None, 2)[step // 4 % 2]
            query = QUERIES[step // 8 % len(QUERIES)]
            # Uncached runs compute from the state's own artifacts, so a
            # state whose counters do not match its contents shows.
            use_cache = step // 24 % 2 == 0
            step += 1
            before = session.snapshot(need_tree=False)
            if op == 0:
                prepared = session.prepare(query)
                result = prepared.execute(k=k, snapshot=before, use_cache=use_cache)
            elif op == 1:
                result = session.cached(query, k=k)
            elif op == 2:
                info = session.describe()
                built = info["mapping_set_built"]
                if (info["compiled_built"] or info["block_tree_built"]) and not built:
                    inconsistent.append(info)
                continue
            else:
                provenance = session.artifact_provenance()
                assert all(entry["source"] in ("built", "loaded") for entry in provenance.values())
                continue
            # execute() ran on ``before``; cached() read the published state
            # itself, which was ``before`` only if no write was published
            # around the call (each write publishes a new object).
            if op == 0 or (result is not None and session.snapshot(need_tree=False) is before):
                key = (before.generation, before.delta_epoch, query, k)
                with records_lock:
                    records.append((key, op, canonical(result)))

    def writer() -> None:
        removed: list = []
        for index in range(WRITES):
            if stop.is_set():
                return
            op = index % 4
            if op == 0:
                session.apply_delta_batch(DeltaBatch.build([rotation(session.mapping_set)]))
            elif op == 1:
                mapping_set = session.mapping_set
                batch = [rotation(mapping_set), structural(mapping_set, removed)]
                session.apply_delta_batch(DeltaBatch.build(batch))
            elif op == 2:
                session.configure(tau=0.2 + 0.3 * (index % 8 == 2))
            else:
                session.invalidate()
                removed.clear()  # the rebuilt set has every correspondence back
            time.sleep(0.002)

    def run(target, *args):
        def wrapped():
            try:
                target(*args)
            except BaseException as error:  # noqa: BLE001 - collected for the assertion
                errors.append(error)
                stop.set()

        return threading.Thread(target=wrapped)

    session.execute(QUERIES[0])  # build the artifacts before the race
    readers = [run(reader, index) for index in range(READERS)]
    for thread in readers:
        thread.start()
    write_thread = run(writer)
    write_thread.start()
    write_thread.join(timeout=120)
    stop.set()
    for thread in readers:
        thread.join(timeout=60)
    assert not errors
    assert not any(thread.is_alive() for thread in readers + [write_thread])
    assert not inconsistent

    distinct: dict[tuple, set] = {}
    for key, _, answers in records:
        distinct.setdefault(key, set()).add(answers)
    assert not {key for key, seen in distinct.items() if len(seen) != 1}
    # The readers must have genuinely interleaved with the writer: answers
    # from several states, both computed and served by cached().
    assert len({key[:2] for key in distinct}) >= 5
    assert {op for _, op, _ in records} == {0, 1}

    # The final state's answers agree with a cache-bypassing evaluation.
    for query in QUERIES:
        assert canonical(session.execute(query)) == canonical(
            session.execute(query, use_cache=False)
        )
