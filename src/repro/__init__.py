"""repro — a reproduction of "Managing Uncertainty of XML Schema Matching" (ICDE 2010).

The library manages the uncertainty of XML schema matching by representing a
schema matching as a set of *possible mappings* with probabilities, storing
them compactly in a *block tree*, and answering *probabilistic twig queries*
(PTQ) over that representation.  It also implements the paper's
divide-and-conquer (partition-based) generation of the top-h possible
mappings from a scored schema matching.

The primary API is the engine facade: a :class:`Dataspace` session owns the
pipeline artifacts (matching → top-h mapping set → block tree → document),
builds and caches them lazily, and answers queries through a fluent builder
that evaluates on the compiled plan unless another plan is forced::

    import repro

    ds = repro.Dataspace.from_dataset("D7", h=100)
    result = ds.query("Order/DeliverTo/Contact/EMail").top_k(10).execute()
    for answer in result:
        print(answer.mapping_id, answer.probability, len(answer.matches))
    print(ds.query("Q7").explain().format())   # plan, inputs, timings

Sessions are thread-safe, and the service layer turns one into a serving
component: :class:`QueryService` fans queries over a thread pool with
single-flight de-duplication, batches share their resolve/filter prefix, and
a generation-keyed :class:`ResultCache` memoizes answers without ever serving
a stale generation::

    with repro.QueryService(ds, max_workers=8) as service:
        results = service.execute_many(["Q1", "Q2", "Q7"], k=10)

The network layer serves a session over TCP with
admission control, and the typed client speaks the same API remotely with
the same result shapes and the same exceptions::

    server = repro.ReproServer(ds)          # await server.start() / .serve()
    with repro.connect("127.0.0.1", server.port) as client:
        result = client.query("Q7", k=10)   # QueryResult, typed errors

The pipeline stages also remain available as low-level free functions
(``SchemaMatcher``, :func:`generate_top_h_mappings`,
:func:`build_block_tree`, :func:`evaluate_ptq_blocktree`, ...) for callers
that want to hand-thread the artifacts themselves.
"""

from repro.exceptions import (
    AssignmentError,
    BlockTreeError,
    DatasetError,
    DataspaceError,
    DocumentConformanceError,
    DocumentError,
    KernelError,
    MappingError,
    MatchingError,
    CorpusError,
    PersistFailedWarning,
    QueryError,
    ReproError,
    ReproWarning,
    RewriteError,
    SchemaError,
    SchemaParseError,
    StoreError,
    StoreFallbackWarning,
    TwigParseError,
)
from repro.api import (
    PROTOCOL_VERSION,
    BadRequestError,
    OverloadedError,
    PayloadTooLargeError,
    ProtocolError,
    QueryAnswer,
    QueryResult,
    RequestTimeoutError,
    ShuttingDownError,
    SubscriptionEvent,
)
from repro.schema import (
    Schema,
    SchemaElement,
    available_schemas,
    load_corpus_schema,
    parse_schema,
    parse_schema_xml,
    schema_to_text,
    schema_to_xml,
)
from repro.document import (
    DocumentNode,
    XMLDocument,
    document_to_xml,
    generate_document,
    generate_order_document,
    parse_document_xml,
)
from repro.matching import (
    Correspondence,
    MatcherConfig,
    SchemaMatcher,
    SchemaMatching,
)
from repro.mapping import (
    BipartiteGraph,
    GenerationMethod,
    Mapping,
    MappingSet,
    generate_top_h_mappings,
    partition_matching,
    rank_mappings_murty,
    rank_mappings_partitioned,
    solve_max_weight_matching,
)
from repro.core import Block, BlockTree, BlockTreeConfig, BlockTreeNode, build_block_tree
from repro.query import (
    PTQAnswer,
    PTQResult,
    TwigNode,
    TwigQuery,
    filter_mappings,
    parse_twig,
    resolve_query,
)
from repro.stats import (
    cblock_size_distribution,
    compression_ratio,
    o_ratio,
    pairwise_o_ratios,
)
from repro.workloads import (
    DATASET_IDS,
    QUERY_IDS,
    QUERY_STRINGS,
    build_mapping_set,
    load_dataset,
    load_query,
    load_source_document,
    open_dataspace,
    standard_datasets,
    standard_queries,
)
from repro.engine import (
    BasicPlan,
    BlockTreePlan,
    CacheKey,
    CacheStats,
    CompiledMappingSet,
    CompiledPlan,
    Dataspace,
    DeltaBatch,
    DeltaBatchReport,
    DeltaReport,
    EngineSnapshot,
    ExplainReport,
    MappingDelta,
    PreparedQuery,
    QueryBuilder,
    QueryPlan,
    ResultCache,
    Subscription,
    SubscriptionUpdate,
    apply_mapping_delta,
    available_plans,
    compile_mapping_set,
    plan_for,
    register_plan,
)
from repro.service import (
    QueryService,
    ReplayOp,
    ReplayReport,
    build_workload,
    replay_workload,
    workload_queries,
)
from repro.store import (
    ArtifactStore,
    BlockStore,
    MemoryBlockStore,
    OverlayBlockStore,
    SqliteBlockStore,
)
from repro.net import ReproClient, ReproServer, connect

__version__ = "1.10.0"

#: Seed-era free functions still exported for compatibility; accessing them
#: through the top-level namespace warns and points at the session API.  The
#: underlying implementations remain available, silently, in ``repro.query``.
_DEPRECATED_QUERY_FUNCTIONS = {
    "evaluate_ptq_basic": 'Dataspace.execute(query, plan="basic")',
    "evaluate_ptq_blocktree": 'Dataspace.execute(query, plan="blocktree")',
    "evaluate_topk_ptq": "Dataspace.query(query).top_k(k).execute()",
}

_deprecated_cache: dict = {}


def __getattr__(name: str):
    """Serve deprecated seed functions with a :class:`DeprecationWarning`."""
    if name in _DEPRECATED_QUERY_FUNCTIONS:
        cached = _deprecated_cache.get(name)
        if cached is not None:
            return cached
        import functools
        import warnings

        import repro.query as _query

        func = getattr(_query, name)
        replacement = _DEPRECATED_QUERY_FUNCTIONS[name]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            warnings.warn(
                f"repro.{name} is deprecated; use the session API instead "
                f"(e.g. {replacement}). The low-level entry point remains "
                f"available as repro.query.{name}.",
                DeprecationWarning,
                stacklevel=2,
            )
            return func(*args, **kwargs)

        _deprecated_cache[name] = wrapper
        return wrapper
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "__version__",
    # exceptions
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
    "BadRequestError",
    "ProtocolError",
    "PayloadTooLargeError",
    "OverloadedError",
    "ShuttingDownError",
    "RequestTimeoutError",
    # structured warnings
    "ReproWarning",
    "StoreFallbackWarning",
    "PersistFailedWarning",
    # network front-end and typed client
    "ReproServer",
    "ReproClient",
    "connect",
    "PROTOCOL_VERSION",
    "QueryAnswer",
    "QueryResult",
    "SubscriptionEvent",
    # persistent artifact store
    "ArtifactStore",
    "BlockStore",
    "MemoryBlockStore",
    "SqliteBlockStore",
    "OverlayBlockStore",
    # engine facade
    "Dataspace",
    "EngineSnapshot",
    "MappingDelta",
    "DeltaReport",
    "apply_mapping_delta",
    "DeltaBatch",
    "DeltaBatchReport",
    "Subscription",
    "SubscriptionUpdate",
    "PreparedQuery",
    "QueryBuilder",
    "QueryPlan",
    "BasicPlan",
    "BlockTreePlan",
    "CompiledPlan",
    "CompiledMappingSet",
    "compile_mapping_set",
    "ExplainReport",
    "plan_for",
    "register_plan",
    "available_plans",
    # service layer
    "QueryService",
    "ResultCache",
    "CacheKey",
    "CacheStats",
    "ReplayOp",
    "ReplayReport",
    "workload_queries",
    "build_workload",
    "replay_workload",
    # schema substrate
    "Schema",
    "SchemaElement",
    "parse_schema",
    "parse_schema_xml",
    "schema_to_text",
    "schema_to_xml",
    "available_schemas",
    "load_corpus_schema",
    # documents
    "DocumentNode",
    "XMLDocument",
    "generate_document",
    "generate_order_document",
    "document_to_xml",
    "parse_document_xml",
    # matching
    "Correspondence",
    "SchemaMatching",
    "SchemaMatcher",
    "MatcherConfig",
    # mappings
    "Mapping",
    "MappingSet",
    "BipartiteGraph",
    "GenerationMethod",
    "generate_top_h_mappings",
    "rank_mappings_murty",
    "rank_mappings_partitioned",
    "partition_matching",
    "solve_max_weight_matching",
    # block tree
    "Block",
    "BlockTree",
    "BlockTreeConfig",
    "BlockTreeNode",
    "build_block_tree",
    # queries
    "TwigNode",
    "TwigQuery",
    "parse_twig",
    "resolve_query",
    "PTQAnswer",
    "PTQResult",
    "filter_mappings",
    "evaluate_ptq_basic",
    "evaluate_ptq_blocktree",
    "evaluate_topk_ptq",
    # statistics
    "o_ratio",
    "pairwise_o_ratios",
    "compression_ratio",
    "cblock_size_distribution",
    # workloads
    "DATASET_IDS",
    "QUERY_IDS",
    "QUERY_STRINGS",
    "load_dataset",
    "standard_datasets",
    "build_mapping_set",
    "load_source_document",
    "load_query",
    "standard_queries",
    "open_dataspace",
]
