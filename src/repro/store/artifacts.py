"""Artifact (de)serialization over a content-addressed block store.

This is the middle layer of the persistence stack: it turns the engine's
expensive artifacts — schemas, the schema matching, the mapping set, the
:class:`~repro.engine.compiled.CompiledMappingSet` bitset columns, the
finalized source document and result-cache snapshots — into *canonical* JSON payloads, stores
each as one block, and ties them together with a per-session **manifest**
pointed at by a mutable ref.

Canonical bytes are what make the store's guarantees cheap:

* payloads are serialized with sorted keys, no whitespace and no
  timestamps, so the same logical state always produces the same bytes and
  therefore the same SHA-256 block key — committing an overlay that staged a
  delta is *byte-identical* to applying the delta against the base directly;
* Python's ``json`` round-trips ``float`` values through ``repr``, which is
  exact for IEEE doubles, so mapping probabilities survive a round trip
  bit-for-bit and reopened query results compare equal to fresh ones;
* bitmask columns are hex-encoded strings (Python ints of arbitrary width).

The manifest records the session's ``(generation, delta_epoch,
document_version)`` signature and its configuration; a reopened session
verifies both before trusting the stored artifacts, and any checksum or
decode failure surfaces as :class:`StoreError`, which the engine treats as a
miss (cold rebuild) — corruption can never break the query path.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.document.document import XMLDocument
from repro.exceptions import StoreError
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import MappingSet
from repro.matching.matching import SchemaMatching
from repro.schema.schema import Schema
from repro.store.blocks import BlockStore

__all__ = [
    "canonical_bytes",
    "schema_payload",
    "schema_from_payload",
    "matching_payload",
    "matching_from_payload",
    "mapping_set_payload",
    "mapping_set_from_payload",
    "compiled_payload",
    "attach_compiled",
    "document_payload",
    "document_from_payload",
    "result_entries_payload",
    "manifest_block_keys",
    "SessionBundle",
    "ArtifactStore",
]

#: Manifest format version; bump on incompatible payload changes so older
#: stores read as misses instead of mis-decoding.
MANIFEST_FORMAT = 1


def canonical_bytes(payload: Any) -> bytes:
    """Serialize ``payload`` to canonical JSON bytes (sorted keys, compact).

    The same logical payload always produces the same bytes — the property
    the content-addressed layer builds on.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _mask_hex(mask: int) -> str:
    return format(mask, "x")


def _mask_int(text: str) -> int:
    return int(text, 16)


# --------------------------------------------------------------------------- #
# Schemas
# --------------------------------------------------------------------------- #
def schema_payload(schema: Schema) -> dict:
    """Canonical payload of a schema: element rows in id (creation) order."""
    return {
        "kind": "schema",
        "name": schema.name,
        "frozen": schema.frozen,
        "elements": [
            [
                element.label,
                element.parent.element_id if element.parent is not None else None,
                bool(element.repeatable),
                element.concept,
            ]
            for element in schema
        ],
    }


def schema_from_payload(payload: dict) -> Schema:
    """Rebuild a :class:`Schema` from :func:`schema_payload` output.

    Elements are re-added in id order, so the rebuilt schema assigns the
    same element ids, paths and child order as the original.
    """
    schema = Schema(payload["name"])
    for label, parent_id, repeatable, concept in payload["elements"]:
        if parent_id is None:
            schema.add_root(label, repeatable=repeatable, concept=concept)
        else:
            schema.add_child(
                schema.get(parent_id), label, repeatable=repeatable, concept=concept
            )
    if payload.get("frozen"):
        schema.freeze()
    return schema


# --------------------------------------------------------------------------- #
# Matching
# --------------------------------------------------------------------------- #
def matching_payload(matching: SchemaMatching) -> dict:
    """Canonical payload of a schema matching: sorted correspondence rows."""
    return {
        "kind": "matching",
        "name": matching.name,
        "pairs": sorted(
            [c.source_id, c.target_id, c.score] for c in matching
        ),
    }


def matching_from_payload(payload: dict, source: Schema, target: Schema) -> SchemaMatching:
    """Rebuild a :class:`SchemaMatching` between two (rebuilt) schemas."""
    matching = SchemaMatching(source, target, name=payload["name"])
    for source_id, target_id, score in payload["pairs"]:
        matching.add_pair(source_id, target_id, score)
    return matching


# --------------------------------------------------------------------------- #
# Mapping set
# --------------------------------------------------------------------------- #
def mapping_set_payload(mapping_set: MappingSet) -> dict:
    """Canonical payload of a mapping set: per-mapping rows in id order.

    Probabilities are stored verbatim (JSON round-trips doubles exactly), so
    a reopened set reproduces the original distribution bit-for-bit — even
    after chained deltas whose reweights never went through normalisation.
    """
    return {
        "kind": "mapping_set",
        "mappings": [
            [
                sorted([s, t] for s, t in mapping.correspondences),
                mapping.score,
                mapping.probability,
            ]
            for mapping in mapping_set
        ],
    }


def mapping_set_from_payload(payload: dict, matching: SchemaMatching) -> MappingSet:
    """Rebuild a :class:`MappingSet` (exact probabilities, no renormalisation)."""
    mappings = [
        Mapping(
            mapping_id=index,
            correspondences=frozenset((s, t) for s, t in pairs),
            score=score,
            probability=probability,
        )
        for index, (pairs, score, probability) in enumerate(payload["mappings"])
    ]
    return MappingSet(matching, mappings, normalize=False)


# --------------------------------------------------------------------------- #
# Compiled bitset columns
# --------------------------------------------------------------------------- #
def compiled_payload(compiled) -> dict:
    """Canonical payload of a compiled mapping set's bitmask columns.

    Posting lists, coverage masks and source partitions are hex-encoded;
    the probability column is derived from the mapping set on attach, so it
    is not duplicated here.
    """
    return {
        "kind": "compiled",
        "num_mappings": compiled.num_mappings,
        "pairs": sorted(
            [s, t, _mask_hex(mask)] for (s, t), mask in compiled._pair_masks.items()
        ),
        "covered": sorted(
            [t, _mask_hex(mask)] for t, mask in compiled._covered_masks.items()
        ),
        "sources": sorted(
            [t, [[s, _mask_hex(mask)] for s, mask in partitions]]
            for t, partitions in compiled._target_sources.items()
        ),
    }


def attach_compiled(payload: dict, mapping_set: MappingSet):
    """Rebuild a :class:`CompiledMappingSet` from its payload and memoize it.

    The artifact is installed as ``mapping_set._compiled`` (the same slot
    :meth:`MappingSet.compile` fills), so the engine's generation machinery
    treats it exactly like a freshly compiled view.

    Raises
    ------
    StoreError
        When the stored column dimensions do not match the mapping set.
    """
    from repro.engine.compiled import CompiledMappingSet

    if payload["num_mappings"] != len(mapping_set):
        raise StoreError(
            f"stored compiled artifact holds {payload['num_mappings']} mappings, "
            f"the mapping set holds {len(mapping_set)}"
        )
    compiled = object.__new__(CompiledMappingSet)
    compiled.mapping_set = mapping_set
    compiled.num_mappings = len(mapping_set)
    compiled.all_mask = (1 << len(mapping_set)) - 1
    compiled.probabilities = tuple(mapping.probability for mapping in mapping_set)
    compiled._pair_masks = {
        (s, t): _mask_int(mask) for s, t, mask in payload["pairs"]
    }
    compiled._covered_masks = {t: _mask_int(mask) for t, mask in payload["covered"]}
    compiled._target_sources = {
        t: tuple((s, _mask_int(mask)) for s, mask in partitions)
        for t, partitions in payload["sources"]
    }
    mapping_set._compiled = compiled
    return compiled


# --------------------------------------------------------------------------- #
# Document
# --------------------------------------------------------------------------- #
def document_payload(document: XMLDocument) -> dict:
    """Canonical payload of a finalized document: node rows in id order."""
    return {
        "kind": "document",
        "name": document.name,
        "nodes": [
            [
                node.element_id,
                node.parent.node_id if node.parent is not None else None,
                node.value,
            ]
            for node in document
        ],
    }


def document_from_payload(payload: dict, schema: Schema) -> XMLDocument:
    """Rebuild and finalize an :class:`XMLDocument` on a (rebuilt) schema.

    Nodes are re-added in node-id order, so ids, child order and the region
    encoding produced by finalisation all match the original document.
    """
    document = XMLDocument(schema, payload["name"])
    nodes = []
    for element_id, parent_id, value in payload["nodes"]:
        if parent_id is None:
            node = document.add_root(element_id, value=value)
        else:
            node = document.add_child(nodes[parent_id], element_id, value=value)
        nodes.append(node)
    return document.finalize()


# --------------------------------------------------------------------------- #
# Result-cache snapshots
# --------------------------------------------------------------------------- #
def result_entries_payload(entries: Iterable[tuple]) -> dict:
    """Canonical payload of result-cache entries.

    ``entries`` holds ``(CacheKey, PTQResult)`` pairs (the session filters
    down to plain-text keys of its current signature before calling this).  Matches are canonical ``(query_node, document_node)``
    pair tuples, serialized sorted so equal results produce equal bytes.
    """
    rows = []
    for key, result in entries:
        rows.append(
            {
                "key": {
                    "query": key.query,
                    "plan": key.plan,
                    "k": key.k,
                    "tau": key.tau,
                },
                "answers": [
                    [
                        answer.mapping_id,
                        answer.probability,
                        sorted([[q, n] for q, n in match] for match in answer.matches),
                    ]
                    for answer in result
                ],
            }
        )
    rows.sort(key=lambda row: (row["key"]["query"], row["key"]["plan"],
                               str(row["key"]["k"]), str(row["key"]["tau"])))
    return {"kind": "results", "entries": rows}


def manifest_block_keys(manifest: dict) -> list[str]:
    """Every block key a session manifest references (the gc live-set edge).

    Manifests written by older releases may also name shard-partition
    layouts (``partitions``) and planner statistics (``statistics``).  Nothing
    reads those blocks any more, but they stay live so such a manifest never
    names a missing block.
    """
    keys = list(manifest.get("artifacts", {}).values())
    keys.extend(manifest.get("partitions", {}).values())
    keys.extend(key for key in (manifest.get("results"), manifest.get("statistics")) if key)
    return keys


@dataclass
class SessionBundle:
    """Everything :meth:`ArtifactStore.load_session` recovered for one ref.

    ``results`` holds raw result-entry rows (the session re-parses query
    texts itself).  ``load_ms`` records the per-artifact deserialization cost,
    surfaced by ``explain()`` as artifact provenance.
    """

    ref: str
    manifest_key: str
    config: dict
    signature: dict
    source_schema: Schema
    target_schema: Schema
    matching: SchemaMatching
    mapping_set: MappingSet
    document: XMLDocument
    compiled_loaded: bool
    results: list[dict] = field(default_factory=list)
    load_ms: dict[str, float] = field(default_factory=dict)


class ArtifactStore:
    """Session-artifact persistence over a :class:`BlockStore` (see module docs).

    Thread-safe; the hit/miss/write counters are surfaced through
    :meth:`stats` and flow into ``Dataspace.describe()`` and the service
    stats.  Wrap a raw block store with :meth:`wrap` (idempotent), so every
    engine entry point accepts either flavour.
    """

    def __init__(self, blocks: BlockStore) -> None:
        self.blocks = blocks
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0

    @classmethod
    def wrap(cls, store) -> "ArtifactStore":
        """Return ``store`` as an :class:`ArtifactStore` (idempotent)."""
        if isinstance(store, ArtifactStore):
            return store
        if isinstance(store, BlockStore):
            return cls(store)
        raise StoreError(
            f"expected a BlockStore or ArtifactStore, got {type(store).__name__}"
        )

    # ------------------------------------------------------------------ #
    # Payload primitives
    # ------------------------------------------------------------------ #
    def put_payload(self, payload: Any) -> str:
        """Store one payload as a canonical block; return its key."""
        data = canonical_bytes(payload)
        key = self.blocks.put_block(data)
        with self._lock:
            self._writes += 1
        return key

    def get_payload(self, key: str) -> Any:
        """Load and decode the payload block at ``key``.

        Raises
        ------
        StoreError
            When the block is missing, fails its checksum, or does not
            decode as JSON.
        """
        data = self.blocks.get_block(key)
        if data is None:
            raise StoreError(f"missing block {key[:12]}...")
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise StoreError(f"block {key[:12]}... is not a valid payload: {error}")

    # ------------------------------------------------------------------ #
    # Whole-session save / load
    # ------------------------------------------------------------------ #
    def save_session(
        self,
        *,
        ref: str,
        config: dict,
        signature: dict,
        source_schema: Schema,
        target_schema: Schema,
        matching: SchemaMatching,
        mapping_set: MappingSet,
        document: XMLDocument,
        compiled=None,
        results: Optional[Iterable[tuple]] = None,
    ) -> dict:
        """Persist one session state under ``ref``; return a small report.

        Every artifact becomes one content-addressed block; unchanged
        artifacts (same canonical bytes) dedupe to the block already stored,
        so repeated persists after small deltas write only what changed.
        """
        started = time.perf_counter()
        artifacts = {
            "source_schema": self.put_payload(schema_payload(source_schema)),
            "target_schema": self.put_payload(schema_payload(target_schema)),
            "matching": self.put_payload(matching_payload(matching)),
            "mapping_set": self.put_payload(mapping_set_payload(mapping_set)),
            "document": self.put_payload(document_payload(document)),
        }
        if compiled is not None:
            artifacts["compiled"] = self.put_payload(compiled_payload(compiled))
        results_key = None
        result_rows = list(results) if results is not None else []
        if result_rows:
            results_key = self.put_payload(result_entries_payload(result_rows))
        manifest = {
            "kind": "dataspace",
            "format": MANIFEST_FORMAT,
            "config": config,
            "signature": signature,
            "artifacts": artifacts,
            "results": results_key,
        }
        manifest_key = self.put_payload(manifest)
        self.blocks.set_ref(ref, manifest_key)
        return {
            "ref": ref,
            "manifest": manifest_key,
            "artifacts": len(artifacts),
            "results": len(result_rows),
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }

    def load_session(
        self, ref: str, *, expect: Optional[dict] = None
    ) -> Optional[SessionBundle]:
        """Load the session persisted under ``ref``; ``None`` when the ref is absent.

        Every block read is checksum-verified; any corruption, missing block
        or malformed payload raises :class:`StoreError` (counted as a miss),
        which the engine turns into a cold rebuild.  ``expect`` compares the
        given keys against the persisted configuration *before* the
        expensive artifact loads — a mismatch (a stale signature: the store
        holds a session of a different configuration) counts as a miss and
        returns ``None``.
        """
        manifest_key = self.blocks.get_ref(ref)
        if manifest_key is None:
            with self._lock:
                self._misses += 1
            return None
        try:
            if expect is not None:
                manifest = self.get_payload(manifest_key)
                config = manifest.get("config", {}) if isinstance(manifest, dict) else {}
                if any(config.get(key) != value for key, value in expect.items()):
                    with self._lock:
                        self._misses += 1
                    return None
            bundle = self._load_bundle(ref, manifest_key)
        except Exception:
            with self._lock:
                self._misses += 1
            raise
        with self._lock:
            self._hits += 1
        return bundle

    def _load_bundle(self, ref: str, manifest_key: str) -> SessionBundle:
        manifest = self.get_payload(manifest_key)
        if manifest.get("kind") != "dataspace" or manifest.get("format") != MANIFEST_FORMAT:
            raise StoreError(
                f"ref {ref!r} does not point at a format-{MANIFEST_FORMAT} "
                "dataspace manifest"
            )
        artifacts = manifest["artifacts"]
        load_ms: dict[str, float] = {}

        def timed(name: str, build):
            started = time.perf_counter()
            value = build()
            load_ms[name] = (time.perf_counter() - started) * 1000.0
            return value

        source_schema = timed(
            "source_schema",
            lambda: schema_from_payload(self.get_payload(artifacts["source_schema"])),
        )
        target_schema = timed(
            "target_schema",
            lambda: schema_from_payload(self.get_payload(artifacts["target_schema"])),
        )
        matching = timed(
            "matching",
            lambda: matching_from_payload(
                self.get_payload(artifacts["matching"]), source_schema, target_schema
            ),
        )
        mapping_set = timed(
            "mapping_set",
            lambda: mapping_set_from_payload(
                self.get_payload(artifacts["mapping_set"]), matching
            ),
        )
        compiled_loaded = False
        if "compiled" in artifacts:
            timed(
                "compiled",
                lambda: attach_compiled(
                    self.get_payload(artifacts["compiled"]), mapping_set
                ),
            )
            compiled_loaded = True
        document = timed(
            "document",
            lambda: document_from_payload(
                self.get_payload(artifacts["document"]), source_schema
            ),
        )
        results: list[dict] = []
        if manifest.get("results"):
            results = self.get_payload(manifest["results"])["entries"]
        return SessionBundle(
            ref=ref,
            manifest_key=manifest_key,
            config=manifest.get("config", {}),
            signature=manifest.get("signature", {}),
            source_schema=source_schema,
            target_schema=target_schema,
            matching=matching,
            mapping_set=mapping_set,
            document=document,
            compiled_loaded=compiled_loaded,
            results=results,
            load_ms=load_ms,
        )

    # ------------------------------------------------------------------ #
    # Maintenance: verify and gc
    # ------------------------------------------------------------------ #
    def verify(self) -> dict:
        """Walk every ref and verify the checksum of every reachable block.

        Returns ``{"refs": {name: "ok" | "error: ..."}, "blocks_checked": n,
        "errors": n}``; never raises — the report *is* the outcome.
        """
        report: dict = {"refs": {}, "blocks_checked": 0, "errors": 0}
        for name, manifest_key in sorted(self.blocks.refs().items()):
            try:
                manifest = self.get_payload(manifest_key)
                report["blocks_checked"] += 1
                for child_key in manifest_block_keys(manifest):
                    if self.blocks.get_block(child_key) is None:
                        raise StoreError(f"missing block {child_key[:12]}...")
                    report["blocks_checked"] += 1
                report["refs"][name] = "ok"
            except Exception as error:
                report["refs"][name] = f"error: {error}"
                report["errors"] += 1
        return report

    def gc(self) -> dict:
        """Delete every block unreachable from the ref'd manifests.

        The live set is every ref target plus every block its manifest
        references; manifests that fail to decode keep only themselves live
        (conservative for the broken ref, aggressive for nothing).
        """
        live: set[str] = set()
        for manifest_key in self.blocks.refs().values():
            live.add(manifest_key)
            try:
                manifest = self.get_payload(manifest_key)
            except StoreError:
                continue
            live.update(manifest_block_keys(manifest))
        removed = 0
        for key in list(self.blocks.iter_keys()):
            if key not in live:
                if self.blocks.delete_block(key):
                    removed += 1
        return {"live": len(live), "removed": removed}

    def stats(self) -> dict:
        """Store counters plus block/ref occupancy (JSON-serialisable)."""
        with self._lock:
            counters = {
                "hits": self._hits,
                "misses": self._misses,
                "writes": self._writes,
            }
        counters.update(
            {
                "blocks": len(self.blocks),
                "total_bytes": self.blocks.total_bytes(),
                "refs": len(self.blocks.refs()),
            }
        )
        return counters

    def __repr__(self) -> str:
        return f"ArtifactStore(blocks={self.blocks!r})"
