"""Incremental mapping-set evolution: deltas instead of cold restarts.

The paper's setting is a dataspace whose uncertain mappings *evolve* as
evidence accrues: a correspondence is confirmed or retracted, probability
mass shifts between candidate mappings, a mapping drops out of the top-h and
another takes its slot.  Before this module, the engine could only react to
such a change by invalidating whole artifacts — a ``configure()`` that
touched probabilities rebuilt matching → mapping set → compiled bitsets from
scratch and retired every cache entry of the generation.  A
:class:`MappingDelta` makes mapping evolution a *cheap* operation instead:

* :func:`apply_mapping_delta` patches a
  :class:`~repro.mapping.mapping_set.MappingSet` structurally — untouched
  :class:`~repro.mapping.mapping.Mapping` objects are shared with the
  predecessor set, only dirty slots get fresh objects — and re-compiles the
  :class:`~repro.engine.compiled.CompiledMappingSet` *incrementally*
  (:meth:`~repro.engine.compiled.CompiledMappingSet.patched`): only the
  posting lists, coverage masks and source partitions of touched
  correspondences are edited, untouched bitmask columns are reused, and the
  probability column is the only full column rebuilt.
* The :class:`DeltaEffect` summarises what changed as three bitmasks — the
  *dirty-mapping mask* (any change), the *structural mask* (correspondence
  changes only) and the *dirty-target mask* (target elements whose posting
  lists changed) — which is exactly what the delta-aware
  :class:`~repro.engine.cache.ResultCache` needs for its retain-on-miss
  check: a cached entry survives the delta when one bitwise AND against each
  mask comes back empty (see :meth:`~repro.engine.cache.ResultCache.lookup`).

The session-level entry point is :meth:`Dataspace.apply_delta
<repro.engine.dataspace.Dataspace.apply_delta>` (and
:meth:`QueryService.apply_delta <repro.service.service.QueryService.apply_delta>`
on the serving layer), which publishes the patched set in a new session state,
bumps the fine-grained ``delta_epoch`` counter *without* bumping the
generation, and records the delta's masks in the result cache so
non-intersecting entries keep serving.  In-flight queries are unaffected:
they evaluate against an immutable :class:`EngineSnapshot` captured before
the swap, so a delta can never tear a running evaluation.

Delta semantics
---------------
A delta must preserve the probability model invariants:

* **reweight** edits move probability mass *within* the reweighted subset —
  the new probabilities of the reweighted mappings must sum to what the old
  ones summed to (±1e-6), so every untouched mapping keeps its exact
  probability and the distribution still sums to one;
* **replace** (top-h membership change) installs a new mapping in an
  existing slot and inherits the slot's probability unless the same delta
  also reweights it;
* **add**/**remove** edit single correspondences of one mapping; added pairs
  must exist in the schema matching, and the per-mapping constraint (each
  source and target element mapped at most once) is re-validated.

Deltas never change ``len(mapping_set)`` — the set stays "the top-h possible
mappings"; membership churn is expressed as replacement.

Typical usage::

    delta = MappingDelta.build(
        reweight={3: 0.25, 9: 0.05},                 # mass-preserving shift
        remove=[(7, (src_id, tgt_id))],              # retract a pair
        replace=[(42, new_pairs, new_score)],        # top-h membership change
    )
    report = ds.apply_delta(delta)
    print(report.format())                           # touched columns, epoch
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping as MappingType, Optional, Tuple, Union

from repro.exceptions import MappingError
from repro.mapping.mapping import Mapping
from repro.mapping.mapping_set import MappingSet, mapping_mask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matching.correspondence import CorrespondenceKey
    from repro.query.resolve import Embedding

__all__ = [
    "MappingDelta",
    "DeltaEffect",
    "DeltaReport",
    "apply_mapping_delta",
    "target_mask_of",
    "embeddings_target_mask",
]

#: One correspondence edit: (mapping_id, (source_id, target_id)).
PairEdit = Tuple[int, "CorrespondenceKey"]

#: Tolerance for the mass-preservation check on reweights.
_MASS_TOLERANCE = 1e-6


def target_mask_of(target_ids: Iterable[int]) -> int:
    """Encode a set of target element ids as a bitmask (bit ``t`` set iff present).

    The dirty-target side of the cache retention check uses the same integer
    bitmask encoding as mapping-id sets — this is :func:`mapping_mask` under
    a name that says what the bits mean here.

    >>> target_mask_of([0, 3])
    9
    """
    return mapping_mask(target_ids)


def embeddings_target_mask(embeddings: Iterable["Embedding"]) -> int:
    """Bitmask of every target element required by any of ``embeddings``.

    This is the query side of the retention check: a cached result can only
    be invalidated by a structural delta whose changed correspondences touch
    one of these target elements.
    """
    mask = 0
    for embedding in embeddings:
        for target_id in embedding.values():
            mask |= 1 << target_id
    return mask


@dataclass(frozen=True)
class MappingDelta:
    """A declarative, validated-on-apply edit of a mapping set.

    Build instances with :meth:`build` (which normalises dicts and lists) or
    directly with tuples.  A delta is immutable and reusable; validation
    against a concrete mapping set happens in :func:`apply_mapping_delta`.

    Parameters
    ----------
    add:
        ``(mapping_id, (source_id, target_id))`` correspondences to insert.
    remove:
        ``(mapping_id, (source_id, target_id))`` correspondences to delete.
    reweight:
        ``(mapping_id, new_probability)`` pairs; must be mass-preserving
        over the reweighted subset (see the module docstring).
    replace:
        ``(mapping_id, correspondences, score)`` top-h membership changes:
        the slot's mapping is replaced wholesale by a new mapping with the
        given correspondence set and score, inheriting the slot's
        probability unless also reweighted.

    >>> delta = MappingDelta.build(reweight={0: 0.5, 1: 0.25})
    >>> sorted(delta.touched_ids())
    [0, 1]
    """

    add: tuple[PairEdit, ...] = ()
    remove: tuple[PairEdit, ...] = ()
    reweight: tuple[tuple[int, float], ...] = ()
    replace: tuple[tuple[int, frozenset, float], ...] = ()

    @classmethod
    def build(
        cls,
        *,
        add: Optional[Iterable[PairEdit]] = None,
        remove: Optional[Iterable[PairEdit]] = None,
        reweight: Optional[Union[MappingType[int, float], Iterable[tuple[int, float]]]] = None,
        replace: Optional[Iterable[tuple[int, Iterable["CorrespondenceKey"], float]]] = None,
    ) -> "MappingDelta":
        """Normalise convenient inputs (dicts, lists, iterables) into a delta.

        >>> MappingDelta.build(remove=[(2, (5, 7))]).remove
        ((2, (5, 7)),)
        """
        if isinstance(reweight, MappingType):
            reweight_items: Iterable[tuple[int, float]] = reweight.items()
        else:
            reweight_items = reweight or ()
        return cls(
            add=tuple((int(mid), (int(key[0]), int(key[1]))) for mid, key in (add or ())),
            remove=tuple((int(mid), (int(key[0]), int(key[1]))) for mid, key in (remove or ())),
            reweight=tuple((int(mid), float(p)) for mid, p in reweight_items),
            replace=tuple(
                (int(mid), frozenset((int(s), int(t)) for s, t in pairs), float(score))
                for mid, pairs, score in (replace or ())
            ),
        )

    def is_empty(self) -> bool:
        """``True`` when the delta contains no edits at all."""
        return not (self.add or self.remove or self.reweight or self.replace)

    def to_payload(self) -> dict:
        """JSON-serialisable form of the delta (see :meth:`from_payload`).

        Edits are sorted so equal deltas always serialize to equal canonical
        bytes — the property the persistent store's content addressing
        relies on when an overlay-staged delta is compared against a
        directly applied one.
        """
        return {
            "add": sorted([mid, [s, t]] for mid, (s, t) in self.add),
            "remove": sorted([mid, [s, t]] for mid, (s, t) in self.remove),
            "reweight": sorted([mid, p] for mid, p in self.reweight),
            "replace": sorted(
                [mid, sorted([s, t] for s, t in pairs), score]
                for mid, pairs, score in self.replace
            ),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "MappingDelta":
        """Rebuild a delta from :meth:`to_payload` output."""
        return cls.build(
            add=[(mid, (s, t)) for mid, (s, t) in payload.get("add", ())],
            remove=[(mid, (s, t)) for mid, (s, t) in payload.get("remove", ())],
            reweight=[(mid, p) for mid, p in payload.get("reweight", ())],
            replace=[
                (mid, [(s, t) for s, t in pairs], score)
                for mid, pairs, score in payload.get("replace", ())
            ],
        )

    def touched_ids(self) -> frozenset[int]:
        """Ids of every mapping the delta touches in any way."""
        return frozenset(
            [mid for mid, _ in self.add]
            + [mid for mid, _ in self.remove]
            + [mid for mid, _ in self.reweight]
            + [mid for mid, _, _ in self.replace]
        )

    def structural_ids(self) -> frozenset[int]:
        """Ids of the mappings whose *correspondences* change (not just probability)."""
        return frozenset(
            [mid for mid, _ in self.add]
            + [mid for mid, _ in self.remove]
            + [mid for mid, _, _ in self.replace]
        )


@dataclass(frozen=True)
class DeltaEffect:
    """Bitmask summary of one applied delta — the cache-retention currency.

    ``dirty_mask`` flags every touched mapping, ``structural_mask`` the
    mappings whose correspondences changed, ``probability_mask`` the
    mappings whose probability *value* actually changed, and
    ``dirty_target_mask`` the target elements whose posting lists were
    edited.

    The retention check (:meth:`repro.engine.cache.ResultCache.lookup`)
    needs only ``probability_mask`` and ``dirty_target_mask``: a structural
    edit can influence a query result *only through the edited target
    elements* — coverage, relevance and rewrites at every other target are
    byte-identical — so structural dirt is fully covered by the target
    check, while probability dirt propagates through any relevant mapping
    and is checked against the entry's mapping mask.
    """

    dirty_mask: int
    structural_mask: int
    probability_mask: int
    dirty_target_mask: int
    dirty_targets: frozenset[int]
    posting_lists_touched: int
    posting_lists_total: int
    compiled_incrementally: bool


@dataclass(frozen=True)
class DeltaReport:
    """The account :meth:`Dataspace.apply_delta` returns to the caller.

    Carries the new ``delta_epoch``, the touched/reused column counts of the
    incremental recompilation, and the wall-clock cost of the whole apply.
    When the session has an attached store, ``persist_failed`` /
    ``persist_error`` report whether the best-effort write-through of the
    patched artifacts succeeded — the delta itself is applied either way,
    but a failed write-through means a restart would reopen at the previous
    epoch.

    >>> # report = ds.apply_delta(delta); report.delta_epoch, report.touched_mappings
    """

    delta_epoch: int
    generation: int
    num_mappings: int
    touched_mappings: int
    structural_mappings: int
    reweighted_mappings: int
    replaced_mappings: int
    touched_targets: int
    posting_lists_touched: int
    posting_lists_total: int
    compiled_incrementally: bool
    elapsed_ms: float
    persist_failed: bool = False
    persist_error: Optional[str] = None

    @property
    def posting_lists_reused(self) -> int:
        """Posting lists carried over unedited from the predecessor artifact."""
        return max(0, self.posting_lists_total - self.posting_lists_touched)

    def to_dict(self) -> dict:
        """JSON-serialisable view of the report."""
        return {
            "delta_epoch": self.delta_epoch,
            "generation": self.generation,
            "num_mappings": self.num_mappings,
            "touched_mappings": self.touched_mappings,
            "structural_mappings": self.structural_mappings,
            "reweighted_mappings": self.reweighted_mappings,
            "replaced_mappings": self.replaced_mappings,
            "touched_targets": self.touched_targets,
            "posting_lists_touched": self.posting_lists_touched,
            "posting_lists_total": self.posting_lists_total,
            "posting_lists_reused": self.posting_lists_reused,
            "compiled_incrementally": self.compiled_incrementally,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "persist_failed": self.persist_failed,
            "persist_error": self.persist_error,
        }

    def format(self) -> str:
        """Human-readable multi-line rendering (used by the CLI)."""
        how = "incrementally" if self.compiled_incrementally else "from scratch (lazy)"
        return "\n".join(
            [
                f"delta:      epoch {self.delta_epoch} (generation {self.generation})",
                f"touched:    {self.touched_mappings}/{self.num_mappings} mappings "
                f"(structural={self.structural_mappings} "
                f"reweighted={self.reweighted_mappings} "
                f"replaced={self.replaced_mappings})",
                f"compiled:   {how}; "
                f"{self.posting_lists_touched} posting lists touched, "
                f"{self.posting_lists_reused} reused, "
                f"{self.touched_targets} target columns rebuilt",
                f"elapsed:    {self.elapsed_ms:.2f} ms",
            ]
            + (
                [f"persist:    FAILED ({self.persist_error})"]
                if self.persist_failed
                else []
            )
        )


def _check_slot(mapping_set: MappingSet, mapping_id: int, kind: str) -> None:
    if not 0 <= mapping_id < len(mapping_set):
        raise MappingError(
            f"delta {kind} targets mapping {mapping_id}, but the set holds "
            f"mappings 0..{len(mapping_set) - 1}"
        )


def apply_mapping_delta(
    mapping_set: MappingSet, delta: MappingDelta
) -> tuple[MappingSet, DeltaEffect]:
    """Apply ``delta`` to ``mapping_set``; return the patched set and its effect.

    The returned set shares every untouched :class:`Mapping` object with the
    input (structure sharing) and — when the input set was already compiled —
    carries an incrementally patched
    :class:`~repro.engine.compiled.CompiledMappingSet` whose untouched
    bitmask columns are reused.  The input set is never mutated, so
    in-flight snapshots holding it stay consistent.

    Raises
    ------
    MappingError
        On out-of-range mapping ids, duplicate/conflicting edits, pairs
        absent from the matching, mass-violating reweights, or any edit that
        breaks the per-mapping one-source/one-target constraint.

    >>> # patched, effect = apply_mapping_delta(ms, MappingDelta.build(...))
    """
    matching = mapping_set.matching
    old_mappings = list(mapping_set)

    replaced: dict[int, tuple[frozenset, float]] = {}
    for mapping_id, pairs, score in delta.replace:
        _check_slot(mapping_set, mapping_id, "replace")
        if mapping_id in replaced:
            raise MappingError(f"delta replaces mapping {mapping_id} twice")
        for source_id, target_id in pairs:
            if matching.get(source_id, target_id) is None:
                raise MappingError(
                    f"replacement for mapping {mapping_id} uses pair "
                    f"({source_id}, {target_id}) which is not a correspondence of "
                    f"matching {matching.name!r}"
                )
        replaced[mapping_id] = (pairs, score)

    pair_edits: dict[int, set] = {}
    score_shift: dict[int, float] = {}
    for mapping_id, key in delta.add:
        _check_slot(mapping_set, mapping_id, "add")
        if mapping_id in replaced:
            raise MappingError(
                f"delta both replaces mapping {mapping_id} and edits its pairs"
            )
        correspondence = matching.get(*key)
        if correspondence is None:
            raise MappingError(
                f"cannot add pair {key} to mapping {mapping_id}: not a "
                f"correspondence of matching {matching.name!r}"
            )
        pairs = pair_edits.setdefault(mapping_id, set(old_mappings[mapping_id].correspondences))
        if key in pairs:
            raise MappingError(f"mapping {mapping_id} already contains pair {key}")
        pairs.add(key)
        score_shift[mapping_id] = score_shift.get(mapping_id, 0.0) + correspondence.score
    for mapping_id, key in delta.remove:
        _check_slot(mapping_set, mapping_id, "remove")
        if mapping_id in replaced:
            raise MappingError(
                f"delta both replaces mapping {mapping_id} and edits its pairs"
            )
        pairs = pair_edits.setdefault(mapping_id, set(old_mappings[mapping_id].correspondences))
        if key not in pairs:
            raise MappingError(f"mapping {mapping_id} does not contain pair {key}")
        pairs.remove(key)
        correspondence = matching.get(*key)
        score_shift[mapping_id] = score_shift.get(mapping_id, 0.0) - (
            correspondence.score if correspondence is not None else 0.0
        )

    reweights: dict[int, float] = {}
    for mapping_id, probability in delta.reweight:
        _check_slot(mapping_set, mapping_id, "reweight")
        if mapping_id in reweights:
            raise MappingError(f"delta reweights mapping {mapping_id} twice")
        if not 0.0 <= probability <= 1.0 + 1e-9:
            raise MappingError(
                f"reweighted probability for mapping {mapping_id} must be in "
                f"[0, 1], got {probability!r}"
            )
        reweights[mapping_id] = probability
    if reweights:
        old_mass = sum(old_mappings[mid].probability for mid in reweights)
        new_mass = sum(reweights.values())
        if abs(old_mass - new_mass) > _MASS_TOLERANCE:
            raise MappingError(
                "reweight must preserve probability mass within the reweighted "
                f"subset: old mass {old_mass:.6f}, new mass {new_mass:.6f}"
            )

    dirty_ids = sorted(set(replaced) | set(pair_edits) | set(reweights))
    structural_ids = sorted(set(replaced) | set(pair_edits))

    # Build the patched mapping objects; untouched slots share the old object.
    new_mappings = list(old_mappings)
    changed_pairs: dict[int, tuple[frozenset, frozenset]] = {}
    probability_ids: list[int] = []
    for mapping_id in dirty_ids:
        old = old_mappings[mapping_id]
        probability = reweights.get(mapping_id, old.probability)
        if mapping_id in replaced or mapping_id in pair_edits:
            if mapping_id in replaced:
                new_pairs, score = replaced[mapping_id]
            else:
                new_pairs = frozenset(pair_edits[mapping_id])
                score = max(0.0, old.score + score_shift.get(mapping_id, 0.0))
            # Mapping.__post_init__ re-validates the one-source/one-target rule.
            new_mappings[mapping_id] = Mapping(
                mapping_id=mapping_id,
                correspondences=new_pairs,
                score=score,
                probability=probability,
            )
        else:
            new_pairs = old.correspondences
            new_mappings[mapping_id] = old.with_probability(probability)
        if new_pairs != old.correspondences:
            changed_pairs[mapping_id] = (old.correspondences, new_pairs)
        if probability != old.probability:
            probability_ids.append(mapping_id)

    total = sum(mapping.probability for mapping in new_mappings)
    if abs(total - 1.0) > _MASS_TOLERANCE:
        raise MappingError(
            f"delta left probabilities summing to {total:.6f}; they must sum to 1"
        )

    dirty_targets = set()
    edited_pairs = set()
    for old_pairs, new_pairs in changed_pairs.values():
        for pair in old_pairs ^ new_pairs:
            edited_pairs.add(pair)
            dirty_targets.add(pair[1])

    compiled = None
    if mapping_set.is_compiled:
        from repro.engine.compiled import CompiledMappingSet

        old_compiled = mapping_set.compile()
        patched_set = MappingSet._patched(matching, new_mappings)
        compiled = CompiledMappingSet.patched(
            old_compiled, patched_set, changed_pairs, probability_ids
        )
        patched_set._compiled = compiled
        posting_total = len(compiled._pair_masks)
    else:
        patched_set = MappingSet._patched(matching, new_mappings)
        posting_total = 0

    effect = DeltaEffect(
        dirty_mask=mapping_mask(dirty_ids),
        structural_mask=mapping_mask(structural_ids),
        probability_mask=mapping_mask(probability_ids),
        dirty_target_mask=target_mask_of(dirty_targets),
        dirty_targets=frozenset(dirty_targets),
        posting_lists_touched=len(edited_pairs),
        posting_lists_total=posting_total,
        compiled_incrementally=compiled is not None,
    )
    return patched_set, effect
