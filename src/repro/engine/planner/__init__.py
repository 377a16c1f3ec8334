"""Canonical query keys.

:mod:`~repro.engine.planner.normalize` renders twigs canonically, so
equivalent query spellings share one prepared query, one result-cache key
and one standing query.
"""

from repro.engine.planner.normalize import canonical_text, normalize_query_text

__all__ = ["canonical_text", "normalize_query_text"]
