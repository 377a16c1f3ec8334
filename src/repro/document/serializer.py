"""Serialising documents to XML text and parsing them back.

The serialiser exists so that generated documents can be inspected, exported
to other tools and round-tripped in tests; it is not on the query hot path.
"""

from __future__ import annotations

import re

from repro.document.document import XMLDocument
from repro.exceptions import DocumentError
from repro.schema.schema import Schema

__all__ = ["document_to_xml", "parse_document_xml"]

_INDENT = "  "


# The three character-data entities, as in ``xml.sax.saxutils``; that module
# pulls in ``urllib.request`` and ``http.client`` on import.
def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _unescape(text: str) -> str:
    return text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


def document_to_xml(document: XMLDocument) -> str:
    """Serialise ``document`` to indented XML text."""
    if document.root is None:
        raise DocumentError("cannot serialise a document with no root")
    lines: list[str] = []

    def emit(node, depth: int) -> None:
        indent = _INDENT * depth
        if node.is_leaf:
            if node.value is None:
                lines.append(f"{indent}<{node.label}/>")
            else:
                lines.append(f"{indent}<{node.label}>{_escape(node.value)}</{node.label}>")
        else:
            lines.append(f"{indent}<{node.label}>")
            for child in node.children:
                emit(child, depth + 1)
            lines.append(f"{indent}</{node.label}>")

    emit(document.root, 0)
    return "\n".join(lines) + "\n"


_TOKEN_RE = re.compile(
    r"<\s*(?P<close>/)?\s*(?P<name>[A-Za-z_][A-Za-z0-9_.\-]*)\s*(?P<selfclose>/)?\s*>"
    r"|(?P<text>[^<>]+)"
)


def parse_document_xml(text: str, schema: Schema, name: str = "document") -> XMLDocument:
    """Parse XML text produced by :func:`document_to_xml` against ``schema``.

    Element nesting is resolved against the schema: a start tag must name a
    child element (in the schema) of the currently open element.  Whitespace-
    only text is ignored; other text becomes the value of the enclosing node.

    Raises
    ------
    DocumentError
        On mismatched tags or elements that do not conform to the schema.
    """
    document = XMLDocument(schema, name)
    stack: list = []  # document nodes currently open
    for match in _TOKEN_RE.finditer(text):
        if match.group("text") is not None:
            content = _unescape(match.group("text"))
            if content.strip() and stack:
                stack[-1].value = content.strip()
            continue
        tag = match.group("name")
        if match.group("close"):
            if not stack:
                raise DocumentError(f"unexpected closing tag </{tag}>")
            node = stack.pop()
            if node.label != tag:
                raise DocumentError(f"closing tag </{tag}> does not match <{node.label}>")
            continue
        if not stack:
            root_element = schema.root
            if root_element is None or root_element.label != tag:
                raise DocumentError(
                    f"root tag <{tag}> does not match schema root "
                    f"{root_element.label if root_element else None!r}"
                )
            node = document.add_root(root_element.element_id)
        else:
            parent_node = stack[-1]
            parent_element = schema.get(parent_node.element_id)
            child_element = next(
                (child for child in parent_element.children if child.label == tag), None
            )
            if child_element is None:
                raise DocumentError(
                    f"element <{tag}> is not a child of {parent_element.path!r} in the schema"
                )
            node = document.add_child(parent_node, child_element.element_id)
        if not match.group("selfclose"):
            stack.append(node)
    if stack:
        raise DocumentError(f"unclosed element <{stack[-1].label}>")
    if document.root is None:
        raise DocumentError("document text contains no elements")
    return document.finalize()
