"""Canonical twig-query rendering for the prepared-query cache.

Two query texts that parse to the same twig structure should share one
:class:`~repro.engine.prepared.PreparedQuery` — and with it the resolved
embeddings, the filter signature and the cached results.  :func:`canonical_text` renders a parsed :class:`TwigQuery` back
into a single canonical string so that whitespace variants
(``"Order / DeliverTo"``), predicate-order variants
(``"Address[./City][./Country]"`` vs ``"Address[./Country][./City]"``) and
alias variants (``"//UP"`` vs ``"//UnitPrice"``, expanded at parse time) all
map onto one cache key.

Canonical form:

* no whitespace; ``/`` and ``//`` as the only separators;
* the root step carries no leading ``/`` on the child axis and ``//`` on the
  descendant axis;
* a value constraint renders as a leading ``[.="value"]`` predicate;
* every non-main-path child renders as a bracketed predicate with an explicit
  ``./`` (or ``.//``) prefix, and the predicates of one step are sorted by
  their rendered text;
* inside a predicate, *all* children render as nested predicates — the
  grammar's path continuation (``[./A/B]``) and an explicit nesting
  (``[./A[./B]]``) describe the same tree, so both normalize to the latter.

The rendering is idempotent: ``normalize_query_text(canonical) == canonical``
(pinned by the unit suite), which is what lets persisted cache keys round-trip
through the artifact store.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.query.parser import parse_twig
from repro.query.twig import AXIS_DESCENDANT, TwigNode, TwigQuery

__all__ = ["canonical_text", "normalize_query_text"]


def _quote(value: str) -> str:
    """Quote a value literal, preferring double quotes (no escape syntax)."""
    if '"' not in value:
        return f'"{value}"'
    return f"'{value}'"


def _branch(node: TwigNode) -> str:
    """Render a predicate (non-main-path) child as one bracketed rel-path."""
    axis = ".//" if node.axis == AXIS_DESCENDANT else "./"
    return f"[{axis}{_step(node, in_branch=True)}]"


def _step(node: TwigNode, *, in_branch: bool) -> str:
    """Render one step: label, value predicate, sorted branches, main path."""
    out = node.label
    if node.value is not None:
        out += f"[.={_quote(node.value)}]"
    main_child: Optional[TwigNode] = None
    if not in_branch:
        mains = [child for child in node.children if child.on_main_path]
        if mains:
            # The parser produces at most one main-path child; for hand-built
            # trees the output node is the *last* main-path node in pre-order,
            # so the last one continues the path and the rest are branches.
            main_child = mains[-1]
    out += "".join(
        sorted(_branch(child) for child in node.children if child is not main_child)
    )
    if main_child is not None:
        axis = "//" if main_child.axis == AXIS_DESCENDANT else "/"
        out += axis + _step(main_child, in_branch=False)
    return out


def canonical_text(twig: TwigQuery) -> str:
    """The canonical text form of a parsed twig query (see module docstring)."""
    prefix = "//" if twig.root.axis == AXIS_DESCENDANT else ""
    return prefix + _step(twig.root, in_branch=False)


def normalize_query_text(
    text: str, aliases: Optional[Mapping[str, str]] = None
) -> str:
    """Parse ``text`` (with optional label aliases) and render it canonically.

    Raises
    ------
    TwigParseError
        When ``text`` is not a valid twig query.
    """
    return canonical_text(parse_twig(text, aliases=aliases))
