"""The engine facade: stateful dataspace sessions over the paper's pipeline.

This package is the library's primary public API.  A
:class:`~repro.engine.dataspace.Dataspace` session owns the pipeline
artifacts (schema matching → top-h mapping set → block tree → source
document), builds them lazily, memoizes them, and invalidates exactly the
affected suffix when configuration changes.  Queries go through a fluent
builder that compiles twig strings into reusable
:class:`~repro.engine.prepared.PreparedQuery` objects and evaluates them
with a :class:`~repro.engine.plans.QueryPlan` — the ``compiled`` plan
unless another is forced, which runs on the mapping set's bitset view
(:mod:`repro.engine.compiled`) and evaluates each distinct query rewrite
exactly once; Algorithm 3 (``basic``) and Algorithm 4 (``blocktree``)
remain available as forced overrides::

    from repro.engine import Dataspace

    ds = Dataspace.from_dataset("D7", h=100)
    result = ds.query("Order/DeliverTo/Contact/EMail").top_k(10).execute()
    print(ds.query("Q7").explain().format())

The seed free functions (:func:`repro.evaluate_ptq_basic`,
:func:`repro.evaluate_ptq_blocktree`, :func:`repro.evaluate_topk_ptq`)
remain available as thin wrappers over the plan layer.
"""

from repro.engine.cache import CacheKey, CacheStats, ResultCache
from repro.engine.compiled import CompiledMappingSet, compile_mapping_set
from repro.engine.dataspace import Dataspace, EngineSnapshot
from repro.engine.delta import (
    DeltaReport,
    MappingDelta,
    apply_mapping_delta,
)
from repro.engine.plans import (
    BasicPlan,
    BlockTreePlan,
    CompiledPlan,
    ExplainReport,
    QueryPlan,
    available_plans,
    plan_for,
    register_plan,
)
from repro.engine.prepared import PreparedQuery, QueryBuilder
from repro.engine.streaming import (
    BatchEffect,
    DeltaBatch,
    DeltaBatchReport,
    Subscription,
    SubscriptionRegistry,
    SubscriptionUpdate,
    apply_delta_batch,
    apply_update,
)
from repro.query.normalize import canonical_text, normalize_query_text

__all__ = [
    "Dataspace",
    "EngineSnapshot",
    "MappingDelta",
    "DeltaReport",
    "apply_mapping_delta",
    "DeltaBatch",
    "DeltaBatchReport",
    "BatchEffect",
    "apply_delta_batch",
    "SubscriptionUpdate",
    "Subscription",
    "SubscriptionRegistry",
    "apply_update",
    "CacheKey",
    "CacheStats",
    "ResultCache",
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
    "canonical_text",
    "normalize_query_text",
]
