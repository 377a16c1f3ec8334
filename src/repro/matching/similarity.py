"""Element-name similarity measures used by the matcher.

The measures are deliberately classical — tokenisation, Levenshtein edit
distance, character trigrams and a soft token-set overlap — because the
matcher only needs to produce *plausible* correspondences with near-tied
scores, the way COMA++'s linguistic matchers do.  All functions are pure and
deterministic.
"""

from __future__ import annotations

import re
from functools import lru_cache

__all__ = [
    "tokenize",
    "normalize_tokens",
    "levenshtein",
    "edit_similarity",
    "trigram_similarity",
    "token_set_similarity",
    "name_similarity",
    "path_similarity",
]

# Split on underscores/hyphens/dots and on camel-case boundaries, including
# acronym boundaries ("POLine" -> ["PO", "Line"], "BuyerPartID" -> ["Buyer",
# "Part", "ID"]).
_SPLIT_RE = re.compile(
    r"[_\-.\s]+|(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])"
)

#: Small domain synonym/abbreviation dictionary, playing the role of the
#: auxiliary thesauri real matchers such as COMA++ ship with.  Tokens are
#: rewritten to a canonical representative before comparison.
_SYNONYMS: dict[str, str] = {
    "ship": "deliver",
    "shipping": "delivery",
    "bill": "invoice",
    "billing": "invoice",
    "vendor": "seller",
    "supplier": "seller",
    "purchaser": "buyer",
    "customer": "buyer",
    "po": "order",
    "qty": "quantity",
    "amt": "amount",
    "no": "number",
    "num": "number",
}


@lru_cache(maxsize=65536)
def tokenize(label: str) -> tuple[str, ...]:
    """Split an element label into lower-case word tokens.

    >>> tokenize("BuyerPartID")
    ('buyer', 'part', 'id')
    >>> tokenize("CONTACT_NAME")
    ('contact', 'name')
    """
    return tuple(token.lower() for token in _SPLIT_RE.split(label) if token)


@lru_cache(maxsize=65536)
def normalize_tokens(label: str) -> tuple[str, ...]:
    """Tokenise ``label`` and map every token through the synonym dictionary.

    >>> normalize_tokens("ShipToParty")
    ('deliver', 'to', 'party')
    """
    return tuple(_SYNONYMS.get(token, token) for token in tokenize(label))


def levenshtein(a: str, b: str) -> int:
    """Classic Levenshtein edit distance between two strings.

    Computed with Myers' bit-vector algorithm in Hyyrö's formulation for
    global edit distance: one column of the dynamic-programming matrix is
    held as vertical +1/-1 delta bit-vectors over the shorter string, so each
    character of the longer string costs a handful of integer operations
    instead of a row of ``min`` calls.  The distance is the same integer the
    textbook recurrence gives.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    # Bit i of match[c] is set when b[i] == c.
    match: dict[str, int] = {}
    bit = 1
    for char in b:
        match[char] = match.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    plus_v, minus_v = mask, 0  # vertical deltas: D[i][j] - D[i-1][j] is +1 / -1
    distance = len(b)
    for char in a:
        eq = match.get(char, 0)
        x_v = eq | minus_v
        x_h = (((eq & plus_v) + plus_v) ^ plus_v) | eq
        plus_h = minus_v | (~(x_h | plus_v) & mask)
        minus_h = plus_v & x_h
        if plus_h & last:
            distance += 1
        elif minus_h & last:
            distance -= 1
        # Row 0 grows by one per column (D[0][j] = j), so shift in a +1.
        plus_h = (plus_h << 1) | 1
        minus_h <<= 1
        plus_v = (minus_h | ~(x_v | plus_h)) & mask
        minus_v = plus_h & x_v
    return distance


@lru_cache(maxsize=262144)
def edit_similarity(a: str, b: str) -> float:
    """Normalised edit similarity in ``[0, 1]`` (1 means equal strings)."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def _trigrams(text: str) -> set[str]:
    padded = f"##{text.lower()}##"
    return {padded[i : i + 3] for i in range(len(padded) - 2)}


def trigram_similarity(a: str, b: str) -> float:
    """Dice coefficient over padded character trigrams, in ``[0, 1]``."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    grams_a = _trigrams(a)
    grams_b = _trigrams(b)
    return 2.0 * len(grams_a & grams_b) / (len(grams_a) + len(grams_b))


def token_set_similarity(tokens_a: tuple[str, ...], tokens_b: tuple[str, ...]) -> float:
    """Soft token-overlap similarity in ``[0, 1]``.

    Each token of the smaller set is greedily aligned to its most similar
    token (by edit similarity) in the other set; the result is the mean of
    the best alignments, scaled by a Jaccard-style length penalty.  Identical
    token sets score 1, disjoint and dissimilar sets score near 0.
    """
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    if len(tokens_a) > len(tokens_b):
        tokens_a, tokens_b = tokens_b, tokens_a
    total = 0.0
    for token in tokens_a:
        if token in tokens_b:
            total += 1.0
        else:
            total += max([edit_similarity(token, other) for other in tokens_b])
    coverage = total / len(tokens_a)
    length_penalty = len(tokens_a) / len(tokens_b)
    return coverage * (0.5 + 0.5 * length_penalty)


@lru_cache(maxsize=262144)
def name_similarity(a: str, b: str) -> float:
    """Combined linguistic similarity between two element labels, in ``[0, 1]``.

    Blends soft token overlap after synonym normalisation (dominant signal,
    robust to casing conventions and domain vocabulary), trigram similarity
    (robust to abbreviations) and whole-name edit similarity.
    """
    if a == b:
        return 1.0
    tokens_a = normalize_tokens(a)
    tokens_b = normalize_tokens(b)
    token_score = token_set_similarity(tokens_a, tokens_b)
    joined_a = "".join(tokens_a)
    joined_b = "".join(tokens_b)
    trigram_score = trigram_similarity(joined_a, joined_b)
    edit_score = edit_similarity(joined_a, joined_b)
    return 0.6 * token_score + 0.25 * trigram_score + 0.15 * edit_score


@lru_cache(maxsize=262144)
def path_similarity(path_a: str, path_b: str) -> float:
    """Similarity of two root-to-element label paths, in ``[0, 1]``.

    Paths are dot-separated label sequences (``"Order.ShipToParty.Address"``);
    all labels are tokenised, synonym-normalised and compared as token sets.
    This is the *context* signal that lets a matcher prefer the address of
    the delivery party over the (identically labelled) address of the billing
    party when matching a ``DeliverTo`` subtree.
    """
    if path_a == path_b:
        return 1.0
    return token_set_similarity(_path_tokens(path_a), _path_tokens(path_b))


@lru_cache(maxsize=65536)
def _path_tokens(path: str) -> tuple[str, ...]:
    """Sorted distinct normalised tokens of every label on a dotted path."""
    return tuple(sorted({token for label in path.split(".") for token in normalize_tokens(label)}))
