"""Persistent artifact store: content-addressed blocks + session manifests.

Layering (bottom to top):

* :mod:`repro.store.blocks` — :class:`BlockStore` and its three
  implementations (:class:`MemoryBlockStore`, :class:`SqliteBlockStore`,
  :class:`OverlayBlockStore`): immutable blobs keyed by the SHA-256 of their
  content, plus a small mutable ref namespace used as gc roots.
* :mod:`repro.store.artifacts` — :class:`ArtifactStore`: canonical
  (de)serialization of the engine's expensive artifacts and the per-session
  manifest that ties them together under one ref.
* Engine integration — ``Dataspace.persist()`` / ``Dataspace.from_store()``
  and the ``store=`` parameters on ``Dataspace.from_dataset`` and
  ``workloads.open_dataspace`` (see :doc:`docs/persistence`).
"""

from repro.store.artifacts import ArtifactStore, SessionBundle, canonical_bytes
from repro.store.blocks import (
    BlockStore,
    MemoryBlockStore,
    OverlayBlockStore,
    SqliteBlockStore,
    block_key,
)

__all__ = [
    "ArtifactStore",
    "SessionBundle",
    "canonical_bytes",
    "BlockStore",
    "MemoryBlockStore",
    "SqliteBlockStore",
    "OverlayBlockStore",
    "block_key",
]
