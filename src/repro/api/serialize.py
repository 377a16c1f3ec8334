"""Canonical serialization for every result shape the system serves.

One codec per result type, used *everywhere* a result crosses a process
boundary: the CLI's ``--json`` output, the network server's response bodies,
the golden snapshot fixtures, and the sync client's decoded views.  Before
this module each of those surfaces built its own ad-hoc dicts, which is how
three subtly different JSON spellings of a PTQ answer came to exist; now
there is exactly one.

Canonical means **byte-stable**: serializing equal results always produces
equal bytes (through :func:`canonical_json`, compact + sorted keys), and
answer probabilities are encoded with ``float.hex()`` — exact,
platform-independent representations — so "byte-identical across the wire"
is a meaningful, testable property.  The golden D1–D10 fixtures and the
server differential suite both pin it.

The ``from_json`` side decodes payloads into light, typed views
(:class:`QueryAnswer` / :class:`QueryResult`) or reconstructed engine
dataclasses (:class:`~repro.engine.plans.ExplainReport`,
:class:`~repro.engine.delta.DeltaReport`,
:class:`~repro.corpus.engine.CorpusExecution`), so remote callers work with
the same shapes in-process callers do.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.api.errors import BadRequestError
from repro.store.artifacts import canonical_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.engine import CorpusExecution
    from repro.engine.delta import DeltaReport
    from repro.engine.plans import ExplainReport
    from repro.engine.streaming import DeltaBatchReport, SubscriptionUpdate
    from repro.query.results import PTQAnswer, PTQResult

__all__ = [
    "canonical_json",
    "QueryAnswer",
    "QueryResult",
    "SubscriptionEvent",
    "answer_to_json",
    "result_to_json",
    "result_from_json",
    "value_distribution_to_json",
    "explain_to_json",
    "explain_from_json",
    "delta_report_to_json",
    "delta_report_from_json",
    "delta_batch_report_to_json",
    "delta_batch_report_from_json",
    "subscription_update_to_json",
    "subscription_update_from_json",
    "execution_to_json",
    "execution_from_json",
]


def canonical_json(payload) -> bytes:
    """Canonical JSON bytes of ``payload``: compact, key-sorted, NaN-free.

    Equal logical payloads always produce equal bytes — the property the
    differential suite's byte-identity assertions and the artifact store's
    content addressing both build on.
    """
    return canonical_bytes(payload)


# --------------------------------------------------------------------------- #
# PTQ results
# --------------------------------------------------------------------------- #
def answer_to_json(answer: "PTQAnswer") -> dict:
    """Canonical payload of one PTQ answer.

    ``probability`` is ``float.hex()``-encoded (exact); ``matches`` are the
    canonical ``(query node, document node)`` pair lists, sorted.
    """
    return {
        "mapping_id": answer.mapping_id,
        "probability": float(answer.probability).hex(),
        "matches": sorted([list(pair) for pair in match] for match in answer.matches),
    }


def result_to_json(result: "PTQResult") -> dict:
    """Canonical payload of a full PTQ result (answers sorted by mapping id).

    This is the one serialization of a result: the CLI's ``--json``, the
    network server, and the golden snapshot fixtures all emit exactly this
    shape, so they can be compared byte for byte.
    """
    answers = [
        answer_to_json(answer)
        for answer in sorted(result, key=lambda a: a.mapping_id)
    ]
    return {"num_answers": len(answers), "answers": answers}


#: ``PTQResult`` -> its canonical payload bytes.  Weak-keyed, so an entry
#: lives exactly as long as its result and the memo is bounded by whatever
#: holds results (the result cache's capacity).
_RESULT_BYTES: "weakref.WeakKeyDictionary[PTQResult, bytes]" = weakref.WeakKeyDictionary()


def _result_bytes(result: "PTQResult") -> bytes:
    """``canonical_json(result_to_json(result))``, encoded once per result.

    Sound because a ``PTQResult`` is never mutated after construction and a
    result-cache hit returns the cached object itself, so every response
    serving the same cached result splices the same bytes.  Two threads
    encoding the same result at once may both build the bytes; they are
    equal and the map keeps one.
    """
    data = _RESULT_BYTES.get(result)
    if data is None:
        data = _RESULT_BYTES[result] = canonical_json(result_to_json(result))
    return data


def value_distribution_to_json(result: "PTQResult") -> list[dict]:
    """The output node's value distribution, most probable first.

    Requires the result's source document (in-process only; the wire result
    carries matches, not document values)."""
    distribution = sorted(
        result.value_distribution().items(), key=lambda kv: (-kv[1], str(kv[0]))
    )
    return [
        {"value": value, "probability": probability}
        for value, probability in distribution
    ]


@dataclass(frozen=True)
class QueryAnswer:
    """Typed client-side view of one PTQ answer decoded from the wire.

    The same information as :class:`repro.query.results.PTQAnswer` — mapping
    id, exact probability, canonical matches — without requiring the engine's
    mapping set in the client process.
    """

    mapping_id: int
    probability_hex: str
    matches: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def probability(self) -> float:
        """The exact probability decoded from its hex encoding."""
        return float.fromhex(self.probability_hex)

    @property
    def num_matches(self) -> int:
        """Number of matches this mapping produced."""
        return len(self.matches)

    @property
    def is_empty(self) -> bool:
        """``True`` when the mapping produced no match at all."""
        return not self.matches

    @classmethod
    def from_json(cls, payload: dict) -> "QueryAnswer":
        """Decode one canonical answer payload.

        Each match pair must unpack into exactly ``(query_node, doc_node)``.
        """
        try:
            matches = payload["matches"]
            if not isinstance(matches, list):
                raise TypeError(f"'matches' must be a list, got {type(matches).__name__}")
            return cls(
                mapping_id=int(payload["mapping_id"]),
                probability_hex=str(payload["probability"]),
                matches=tuple(
                    [tuple([(int(node), int(doc)) for node, doc in match]) for match in matches]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed answer payload: {exc}") from exc

    def to_json(self) -> dict:
        """Re-encode the canonical payload this view was decoded from."""
        return {
            "mapping_id": self.mapping_id,
            "probability": self.probability_hex,
            "matches": sorted([list(pair) for pair in match] for match in self.matches),
        }


@dataclass(frozen=True)
class QueryResult:
    """Typed client-side view of a full PTQ result decoded from the wire.

    ``query`` is the request's query text (echoed by the server); ``answers``
    are in canonical (mapping id) order.  Iteration and ``len()`` mirror
    :class:`~repro.query.results.PTQResult`.
    """

    query: str
    answers: tuple[QueryAnswer, ...]

    def __len__(self) -> int:
        return len(self.answers)

    def __iter__(self):
        return iter(self.answers)

    def total_probability(self) -> float:
        """Sum of the probabilities of the returned answers."""
        return sum(answer.probability for answer in self.answers)

    def non_empty(self) -> list[QueryAnswer]:
        """Answers whose mapping produced at least one match."""
        return [answer for answer in self.answers if not answer.is_empty]

    @classmethod
    def from_json(cls, payload: dict, *, query: str = "") -> "QueryResult":
        """Decode a canonical result payload (as produced by
        :func:`result_to_json`)."""
        try:
            answers = tuple(
                QueryAnswer.from_json(item) for item in payload["answers"]
            )
        except (KeyError, TypeError) as exc:
            raise BadRequestError(f"malformed result payload: {exc}") from exc
        return cls(query=query, answers=answers)

    def to_json(self) -> dict:
        """Re-encode the canonical payload this view was decoded from."""
        return {
            "num_answers": len(self.answers),
            "answers": [answer.to_json() for answer in self.answers],
        }


def result_from_json(payload: dict, *, query: str = "") -> QueryResult:
    """Decode a canonical result payload into a :class:`QueryResult` view."""
    return QueryResult.from_json(payload, query=query)


# --------------------------------------------------------------------------- #
# Explain reports
# --------------------------------------------------------------------------- #
def explain_to_json(report: "ExplainReport") -> dict:
    """Canonical payload of an explain report (delegates to ``to_dict``)."""
    return report.to_dict()


def explain_from_json(payload: dict) -> "ExplainReport":
    """Reconstruct an :class:`~repro.engine.plans.ExplainReport` from its
    canonical payload, so remote callers can use ``format()`` and the typed
    fields exactly as in-process callers do."""
    from repro.engine.plans import ExplainReport

    try:
        return ExplainReport(
            query=payload["query"],
            plan=payload["plan"],
            reason=payload["reason"],
            num_mappings=payload["num_mappings"],
            num_embeddings=payload["num_embeddings"],
            num_relevant=payload["num_relevant"],
            relevant_mapping_ids=tuple(payload["relevant_mapping_ids"]),
            k=payload["k"],
            num_selected=payload["num_selected"],
            num_blocks=payload["num_blocks"],
            anchored_paths=tuple(payload["anchored_paths"]),
            timings_ms=dict(payload["timings_ms"]),
            num_answers=payload["num_answers"],
            num_non_empty=payload["num_non_empty"],
            cache=payload.get("cache"),
            cache_stats=payload.get("cache_stats"),
            compiled_stats=payload.get("compiled_stats"),
            artifacts=payload.get("artifacts"),
            planner=payload.get("planner"),
            analyze=payload.get("analyze"),
        )
    except (KeyError, TypeError) as exc:
        raise BadRequestError(f"malformed explain payload: {exc}") from exc


# --------------------------------------------------------------------------- #
# Delta reports
# --------------------------------------------------------------------------- #
def delta_report_to_json(report: "DeltaReport") -> dict:
    """Canonical payload of a delta report (delegates to ``to_dict``)."""
    return report.to_dict()


def delta_report_from_json(payload: dict) -> "DeltaReport":
    """Reconstruct a :class:`~repro.engine.delta.DeltaReport` from its
    canonical payload (the derived ``posting_lists_reused`` field is
    recomputed, not read)."""
    from repro.engine.delta import DeltaReport

    try:
        return DeltaReport(
            delta_epoch=payload["delta_epoch"],
            generation=payload["generation"],
            num_mappings=payload["num_mappings"],
            touched_mappings=payload["touched_mappings"],
            structural_mappings=payload["structural_mappings"],
            reweighted_mappings=payload["reweighted_mappings"],
            replaced_mappings=payload["replaced_mappings"],
            touched_targets=payload["touched_targets"],
            posting_lists_touched=payload["posting_lists_touched"],
            posting_lists_total=payload["posting_lists_total"],
            compiled_incrementally=payload["compiled_incrementally"],
            elapsed_ms=payload["elapsed_ms"],
            persist_failed=payload.get("persist_failed", False),
            persist_error=payload.get("persist_error"),
        )
    except (KeyError, TypeError) as exc:
        raise BadRequestError(f"malformed delta report payload: {exc}") from exc


def delta_batch_report_to_json(report: "DeltaBatchReport") -> dict:
    """Canonical payload of a coalesced batch report (delegates to
    ``to_dict``, which extends the delta-report payload with
    ``num_deltas``)."""
    return report.to_dict()


def delta_batch_report_from_json(payload: dict) -> "DeltaBatchReport":
    """Reconstruct a :class:`~repro.engine.streaming.DeltaBatchReport` from
    its canonical payload."""
    from repro.engine.streaming import DeltaBatchReport

    try:
        return DeltaBatchReport(
            num_deltas=payload["num_deltas"],
            delta_epoch=payload["delta_epoch"],
            generation=payload["generation"],
            num_mappings=payload["num_mappings"],
            touched_mappings=payload["touched_mappings"],
            structural_mappings=payload["structural_mappings"],
            reweighted_mappings=payload["reweighted_mappings"],
            replaced_mappings=payload["replaced_mappings"],
            touched_targets=payload["touched_targets"],
            posting_lists_touched=payload["posting_lists_touched"],
            posting_lists_total=payload["posting_lists_total"],
            compiled_incrementally=payload["compiled_incrementally"],
            elapsed_ms=payload["elapsed_ms"],
            persist_failed=payload.get("persist_failed", False),
            persist_error=payload.get("persist_error"),
        )
    except (KeyError, TypeError) as exc:
        raise BadRequestError(f"malformed batch report payload: {exc}") from exc


# --------------------------------------------------------------------------- #
# Subscription updates
# --------------------------------------------------------------------------- #
def subscription_update_to_json(update: "SubscriptionUpdate") -> dict:
    """Canonical payload of one standing-query notification.

    ``added`` entries are full canonical answers (:func:`answer_to_json`,
    with ``float.hex()`` probabilities); ``rescored`` pairs carry the new
    probability in the same exact encoding; ``removed`` is the sorted list
    of dropped mapping ids.  Equal updates encode to equal bytes, so the
    golden fixtures and the differential replay suite can compare
    notification streams byte for byte.
    """
    return {
        "subscription_id": update.subscription_id,
        "query": update.query,
        "k": update.k,
        "kind": update.kind,
        "generation": update.generation,
        "delta_epoch": update.delta_epoch,
        "added": [answer_to_json(answer) for answer in update.added],
        "removed": list(update.removed),
        "rescored": [
            {"mapping_id": mapping_id, "probability": float(probability).hex()}
            for mapping_id, probability in update.rescored
        ],
    }


@dataclass(frozen=True)
class SubscriptionEvent:
    """Typed client-side view of one standing-query notification.

    Decoded from the :func:`subscription_update_to_json` payload; the client
    folds events into its local result view with :meth:`apply`, which
    mirrors :func:`repro.engine.streaming.apply_update` exactly — the replay
    contract (initial rows plus every event equals from-scratch execution)
    holds across the wire because both sides use ``float.hex()`` round-trips.
    """

    subscription_id: int
    query: str
    k: Optional[int]
    kind: str
    generation: int
    delta_epoch: int
    added: tuple[QueryAnswer, ...]
    removed: tuple[int, ...]
    rescored: tuple[tuple[int, str], ...]

    @property
    def is_initial(self) -> bool:
        """``True`` for the baseline event that opens every subscription."""
        return self.kind == "initial"

    def is_empty_diff(self) -> bool:
        """``True`` when the event carries no row changes at all."""
        return not (self.added or self.removed or self.rescored)

    @classmethod
    def from_json(cls, payload: dict) -> "SubscriptionEvent":
        """Decode one canonical notification payload."""
        try:
            return cls(
                subscription_id=int(payload["subscription_id"]),
                query=str(payload["query"]),
                k=payload["k"],
                kind=str(payload["kind"]),
                generation=int(payload["generation"]),
                delta_epoch=int(payload["delta_epoch"]),
                added=tuple(
                    QueryAnswer.from_json(item) for item in payload["added"]
                ),
                removed=tuple(int(item) for item in payload["removed"]),
                rescored=tuple(
                    (int(item["mapping_id"]), str(item["probability"]))
                    for item in payload["rescored"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequestError(f"malformed subscription payload: {exc}") from exc

    def to_json(self) -> dict:
        """Re-encode the canonical payload this view was decoded from."""
        return {
            "subscription_id": self.subscription_id,
            "query": self.query,
            "k": self.k,
            "kind": self.kind,
            "generation": self.generation,
            "delta_epoch": self.delta_epoch,
            "added": [answer.to_json() for answer in self.added],
            "removed": list(self.removed),
            "rescored": [
                {"mapping_id": mapping_id, "probability": probability}
                for mapping_id, probability in self.rescored
            ],
        }

    def apply(self, rows: list[QueryAnswer]) -> list[QueryAnswer]:
        """Fold this event into a client-side result view.

        Returns the updated rows sorted by descending probability then
        mapping id — the same order the engine's
        :func:`~repro.engine.streaming.apply_update` produces, so a client
        replaying the event stream holds exactly the rows a from-scratch
        re-execution would return.
        """
        by_id = {answer.mapping_id: answer for answer in rows}
        for mapping_id in self.removed:
            by_id.pop(mapping_id, None)
        for mapping_id, probability_hex in self.rescored:
            current = by_id.get(mapping_id)
            if current is not None:
                by_id[mapping_id] = QueryAnswer(
                    mapping_id=mapping_id,
                    probability_hex=probability_hex,
                    matches=current.matches,
                )
        for answer in self.added:
            by_id[answer.mapping_id] = answer
        from repro.query.results import rank_by_probability

        return rank_by_probability(by_id.values())


def subscription_update_from_json(payload: dict) -> SubscriptionEvent:
    """Decode a canonical notification payload into a
    :class:`SubscriptionEvent` view."""
    return SubscriptionEvent.from_json(payload)


# --------------------------------------------------------------------------- #
# Corpus executions
# --------------------------------------------------------------------------- #
def execution_to_json(execution: "CorpusExecution") -> dict:
    """Canonical payload of a scatter-gather execution account.

    Extends :meth:`~repro.corpus.engine.CorpusExecution.to_dict` with the
    full canonical matches of every globally ranked answer (``to_dict``
    summarises them by count), so the payload round-trips through
    :func:`execution_from_json` without loss.
    """
    payload = execution.to_dict()
    payload["answers"] = [
        {
            "dataset": answer.dataset,
            "mapping_id": answer.mapping_id,
            "probability": float(answer.probability).hex(),
            "matches": sorted(
                [list(pair) for pair in match] for match in answer.matches
            ),
        }
        for answer in execution.answers
    ]
    return payload


def execution_from_json(payload: dict) -> "CorpusExecution":
    """Reconstruct a :class:`~repro.corpus.engine.CorpusExecution` from its
    canonical payload.

    The wire view carries the execution account and the globally ranked
    answers; the per-dataset ``results`` mapping (full in-process
    :class:`~repro.query.results.PTQResult` objects) is not transmitted and
    comes back empty.
    """
    from repro.corpus.engine import CorpusAnswer, CorpusExecution, ShardReport

    try:
        shard_reports = tuple(
            ShardReport(
                shard_id=row["shard_id"],
                dataset=row["dataset"],
                status=row["status"],
                num_nodes=row["num_nodes"],
                num_subtrees=row["num_subtrees"],
                groups=row["groups"],
                pruned=row["pruned"],
                deferred=row["deferred"],
                matches=row["matches"],
                elapsed_ms=row["elapsed_ms"],
            )
            for row in payload["shards"]
        )
        answers = tuple(
            CorpusAnswer(
                dataset=row["dataset"],
                mapping_id=int(row["mapping_id"]),
                probability=float.fromhex(row["probability"]),
                matches=frozenset(
                    tuple((int(pair[0]), int(pair[1])) for pair in match)
                    for match in row["matches"]
                ),
            )
            for row in payload["answers"]
        )
        return CorpusExecution(
            query=payload["query"],
            k=payload["k"],
            num_shards=payload["num_shards"],
            fan_out=payload["fan_out"],
            skipped_bound=payload["skipped_bound"],
            skipped_empty=payload["skipped_empty"],
            skipped_local=payload["skipped_local"],
            spine_rewrites=payload["spine_rewrites"],
            merged_answers=payload["merged_answers"],
            duplicate_matches=payload["duplicate_matches"],
            cache=payload["cache"],
            generations=tuple(tuple(item) for item in payload["generations"]),
            elapsed_ms=payload["elapsed_ms"],
            shard_reports=shard_reports,
            results={},
            answers=answers,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequestError(f"malformed execution payload: {exc}") from exc
