"""Evaluation workloads: the paper's datasets (Table II) and queries (Table III).

:func:`load_dataset` builds the schema matching for one of the dataset ids
``"D1"`` … ``"D10"`` over the synthetic corpus, with the same source/target
schema pairing and COMA++ option (fragment/context) as the paper;
:func:`standard_queries` parses the ten purchase-order queries posed against
D7's target schema; :func:`open_dataspace` opens an engine session
(:class:`repro.engine.Dataspace`) on a dataset, which is the preferred way to
evaluate queries over a workload.
"""

from repro.workloads.datasets import (
    DATASET_IDS,
    DATASET_SPECS,
    Dataset,
    build_mapping_set,
    load_dataset,
    load_source_document,
    standard_datasets,
)
from repro.workloads.queries import (
    QUERY_ALIASES,
    QUERY_IDS,
    QUERY_STRINGS,
    load_query,
    standard_queries,
)

__all__ = [
    "DATASET_IDS",
    "DATASET_SPECS",
    "Dataset",
    "load_dataset",
    "standard_datasets",
    "build_mapping_set",
    "load_source_document",
    "QUERY_IDS",
    "QUERY_STRINGS",
    "QUERY_ALIASES",
    "load_query",
    "standard_queries",
    "open_dataspace",
]


def open_dataspace(dataset_id: str, **kwargs):
    """Open an engine session (:class:`repro.engine.Dataspace`) on a dataset.

    Convenience wrapper around :meth:`repro.engine.Dataspace.from_dataset`;
    keyword arguments (``h``, ``tau``, ``method``, ``seed``, ``store``,
    ``matching``, ...) are passed through.  Imported lazily because the
    engine sits above the workload layer.

    When pre-built artifacts are supplied the normalised workload caches are
    *not* re-derived: passing ``matching=`` (or a ``store`` holding the
    session) short-circuits the eager dataset load — and with it the matcher
    run — entirely; the session only falls back to the workload caches for
    artifacts it was given neither directly nor via the store.
    """
    from repro.engine import Dataspace

    return Dataspace.from_dataset(dataset_id, **kwargs)
