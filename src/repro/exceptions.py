"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one base class at an integration boundary.  The subclasses
partition the failure modes along the package structure: schema construction,
document construction, matching, mapping generation, block-tree construction
and query processing.

Every class carries a **stable error code** (:attr:`ReproError.code`): a
short kebab-case string that identifies the failure mode independently of
the Python class name.  Codes are part of the wire protocol — the server
(:mod:`repro.net`) transmits them and the client reconstructs the matching
class from them (see :mod:`repro.api.errors`) — so they must never be
renamed or reused once released.

The module also defines the library's structured warning types.  They
subclass :class:`RuntimeWarning` (so existing ``filterwarnings`` /
``pytest.warns(RuntimeWarning)`` configurations keep matching) but carry the
same stable ``code`` attribute as the exceptions, giving operators a
greppable identifier for every degraded-mode path.
"""

from __future__ import annotations

from typing import ClassVar

__all__ = [
    "ReproError",
    "SchemaError",
    "SchemaParseError",
    "DocumentError",
    "DocumentConformanceError",
    "MatchingError",
    "MappingError",
    "AssignmentError",
    "BlockTreeError",
    "QueryError",
    "TwigParseError",
    "RewriteError",
    "DatasetError",
    "DataspaceError",
    "CorpusError",
    "StoreError",
    "KernelError",
    "ReproWarning",
    "StoreFallbackWarning",
    "PersistFailedWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``code`` is the stable wire identifier of the failure mode (see the
    module docstring); subclasses override it, and the base value
    ``"internal"`` is what an unclassified failure maps to at the network
    boundary.
    """

    code: ClassVar[str] = "internal"


class SchemaError(ReproError):
    """Raised when a schema is structurally invalid (cycles, duplicate ids...)."""

    code = "schema"


class SchemaParseError(SchemaError):
    """Raised when textual schema notation or XSD-like input cannot be parsed."""

    code = "schema-parse"


class DocumentError(ReproError):
    """Raised when an XML document is structurally invalid."""

    code = "document"


class DocumentConformanceError(DocumentError):
    """Raised when a document does not conform to the schema it claims to follow."""

    code = "document-conformance"


class MatchingError(ReproError):
    """Raised for invalid schema matchings (unknown elements, bad scores...)."""

    code = "matching"


class MappingError(ReproError):
    """Raised for invalid possible mappings or mapping sets."""

    code = "mapping"


class AssignmentError(MappingError):
    """Raised when the assignment substrate (Hungarian/Murty) receives bad input."""

    code = "assignment"


class BlockTreeError(ReproError):
    """Raised for invalid block-tree configurations or construction failures."""

    code = "blocktree"


class QueryError(ReproError):
    """Raised for invalid twig queries or query-evaluation failures."""

    code = "query"


class TwigParseError(QueryError):
    """Raised when a twig-pattern string cannot be parsed."""

    code = "twig-parse"


class RewriteError(QueryError):
    """Raised when a target query cannot be rewritten under a mapping."""

    code = "rewrite"


class DatasetError(ReproError):
    """Raised when a workload dataset identifier or configuration is invalid."""

    code = "dataset"


class DataspaceError(ReproError):
    """Raised when an engine session (:class:`repro.engine.Dataspace`) is misused."""

    code = "dataspace"


class CorpusError(ReproError):
    """Reserved: formerly raised when a sharded corpus was misused.

    The sharded corpus is gone (the linear twig matcher left it no speedup),
    so nothing raises this any more.  The class and its ``corpus`` wire code
    stay in the published error registry so existing clients keep decoding
    it.
    """

    code = "corpus"


class StoreError(ReproError):
    """Raised by the persistent artifact store (:mod:`repro.store`).

    Covers checksum mismatches on content-addressed blocks, missing blocks
    referenced by a manifest, and malformed artifact payloads.  The engine
    integration treats any :class:`StoreError` during a load as a cache miss
    and falls back to a cold rebuild (with a warning naming the ref) — a
    corrupt store never breaks the query path.  Any *other* exception type
    escaping a load is re-raised: it signals a programming error, not store
    rot."""

    code = "store"


class KernelError(ReproError):
    """Reserved: formerly raised for unknown or unavailable kernel backends.

    The compiled core now has a single built-in implementation, so nothing
    raises this any more.  The class and its ``kernel`` wire code stay in the
    published error registry so existing clients keep decoding it.
    """

    code = "kernel"


# --------------------------------------------------------------------------- #
# Structured warnings
# --------------------------------------------------------------------------- #
class ReproWarning(RuntimeWarning):
    """Base class for the library's degraded-mode warnings.

    Subclasses :class:`RuntimeWarning` for backward compatibility with
    existing warning filters, and carries the same stable ``code`` attribute
    as :class:`ReproError` so operators can grep and alert on specific
    degradation paths.
    """

    code: ClassVar[str] = "warning"


class StoreFallbackWarning(ReproWarning):
    """A corrupted artifact store was ignored and a cold build ran instead.

    Emitted by :meth:`repro.engine.Dataspace.from_dataset` when a
    :class:`StoreError` interrupts a warm reopen: the session still comes up
    (cold), but the persisted artifacts are being bypassed."""

    code = "store-fallback"


class PersistFailedWarning(ReproWarning):
    """A delta's write-through to the attached store failed.

    The in-memory session is current but the store is stale; the failure is
    also recorded on the :class:`~repro.engine.delta.DeltaReport` and in the
    session's stats."""

    code = "persist-failed"
