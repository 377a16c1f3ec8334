"""Tests for the similarity measures used by the matcher."""

from __future__ import annotations

import pytest

from repro.matching.similarity import (
    _path_tokens,
    edit_similarity,
    levenshtein,
    name_similarity,
    normalize_tokens,
    path_similarity,
    token_set_similarity,
    tokenize,
    trigram_similarity,
)
from repro.schema.corpus import load_corpus_schema
from repro.workloads.datasets import DATASET_IDS, DATASET_SPECS


def textbook_levenshtein(a: str, b: str) -> int:
    """The dynamic-programming recurrence, row by row."""
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


class TestTokenize:
    @pytest.mark.parametrize(
        "label, expected",
        [
            ("BuyerPartID", ("buyer", "part", "id")),
            ("CONTACT_NAME", ("contact", "name")),
            ("unitPrice", ("unit", "price")),
            ("POLine", ("po", "line")),
            ("Unit_Price", ("unit", "price")),
            ("order", ("order",)),
            ("EMail", ("e", "mail")),
        ],
    )
    def test_splitting(self, label, expected):
        assert tokenize(label) == expected

    def test_normalize_applies_synonyms(self):
        assert normalize_tokens("ShipToParty") == ("deliver", "to", "party")
        assert normalize_tokens("BillTo") == ("invoice", "to")
        assert normalize_tokens("POLine") == ("order", "line")

    def test_normalize_keeps_unknown_tokens(self):
        assert normalize_tokens("TaxRate") == ("tax", "rate")


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("order", "order") == 0

    def test_empty(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_substitution(self):
        assert levenshtein("cat", "car") == 1

    def test_insertion_deletion(self):
        assert levenshtein("order", "orders") == 1
        assert levenshtein("orders", "order") == 1

    def test_symmetry(self):
        assert levenshtein("street", "straat") == levenshtein("straat", "street")

    def test_triangle_like_bound(self):
        assert levenshtein("abc", "xyz") <= 3

    @pytest.mark.parametrize(
        "a, b",
        [
            ("kitten", "sitting"),
            ("a", "b"),
            ("ab", "ba"),
            ("aaaa", "aa"),
            ("abcdefgh", "hgfedcba"),
            # Longer than one 64-bit machine word on both sides.
            ("ab" * 40 + "c", "ba" * 45),
            ("x" * 70, "x" * 69 + "y" * 3),
        ],
    )
    def test_matches_textbook_recurrence(self, a, b):
        assert levenshtein(a, b) == textbook_levenshtein(a, b)
        assert levenshtein(b, a) == textbook_levenshtein(a, b)


class TestNormalizedSimilarities:
    def test_edit_similarity_bounds(self):
        assert edit_similarity("order", "order") == 1.0
        assert edit_similarity("", "") == 1.0
        assert 0.0 <= edit_similarity("abc", "xyz") <= 1.0

    def test_trigram_identical(self):
        assert trigram_similarity("quantity", "quantity") == 1.0

    def test_trigram_disjoint(self):
        assert trigram_similarity("abc", "xyz") == 0.0

    def test_trigram_empty(self):
        assert trigram_similarity("", "") == 1.0
        assert trigram_similarity("abc", "") == 0.0

    def test_token_set_identical(self):
        assert token_set_similarity(("unit", "price"), ("unit", "price")) == 1.0

    def test_token_set_empty(self):
        assert token_set_similarity((), ()) == 1.0
        assert token_set_similarity(("a",), ()) == 0.0

    def test_token_set_partial_overlap_ranked(self):
        close = token_set_similarity(("contact", "name"), ("contact", "name", "type"))
        far = token_set_similarity(("contact", "name"), ("tax", "rate"))
        assert close > far

    def test_token_set_symmetric_enough(self):
        a = token_set_similarity(("order", "line"), ("line", "item", "detail"))
        b = token_set_similarity(("line", "item", "detail"), ("order", "line"))
        assert a == pytest.approx(b)


class TestNameSimilarity:
    def test_identical_is_one(self):
        assert name_similarity("ContactName", "ContactName") == 1.0

    def test_cross_casing_high(self):
        assert name_similarity("CONTACT_NAME", "ContactName") > 0.9

    def test_synonyms_raise_similarity(self):
        assert name_similarity("ShipToParty", "DeliverTo") > name_similarity(
            "SellerParty", "DeliverTo"
        )

    def test_unrelated_low(self):
        assert name_similarity("TaxRate", "ContactName") < 0.4

    def test_bounded(self):
        for a, b in [("Order", "ORDER_ITEM"), ("UnitPrice", "Unit"), ("City", "Quantity")]:
            assert 0.0 <= name_similarity(a, b) <= 1.0

    def test_symmetric(self):
        assert name_similarity("UnitPrice", "UNIT_PRICE") == pytest.approx(
            name_similarity("UNIT_PRICE", "UnitPrice")
        )


def corpus_strings(schema_name: str) -> set[str]:
    """Every string the matcher edit-compares for one corpus schema."""
    strings: set[str] = set()
    for element in load_corpus_schema(schema_name):
        strings.update(tokenize(element.label))
        strings.update(normalize_tokens(element.label))
        strings.add("".join(normalize_tokens(element.label)))
    return strings


class TestEditSimilarityMemo:
    """``edit_similarity`` is memoised; the memo must not change a single bit."""

    def test_memo_is_bit_identical_over_the_corpus(self):
        pairs: set[tuple[str, str]] = set()
        for dataset_id in DATASET_IDS:
            spec = DATASET_SPECS[dataset_id]
            targets = corpus_strings(spec.target)
            pairs.update((a, b) for a in corpus_strings(spec.source) for b in targets)
        assert len(pairs) > 40_000
        for a, b in sorted(pairs):
            direct = edit_similarity.__wrapped__(a, b)
            assert edit_similarity(a, b).hex() == direct.hex(), (a, b)
            # Again, now served from the memo.
            assert edit_similarity(a, b).hex() == direct.hex(), (a, b)
            assert levenshtein(a, b) == textbook_levenshtein(a, b), (a, b)

    def test_memo_is_bounded(self):
        assert edit_similarity.cache_info().maxsize == 262144


class TestPathSimilarity:
    def test_identical(self):
        assert path_similarity("Order.Buyer.Address", "Order.Buyer.Address") == 1.0

    def test_context_discriminates_parties(self):
        deliver = path_similarity("Order.ShipToParty.Address.City", "Order.DeliverTo.Address.City")
        invoice = path_similarity("Order.BillToParty.Address.City", "Order.DeliverTo.Address.City")
        assert deliver > invoice

    def test_bounded(self):
        assert 0.0 <= path_similarity("Order.TaxSummary", "ORDER.CUSTOMS_INFO") <= 1.0

    def test_path_tokens_sorted_distinct_normalised(self):
        assert _path_tokens("Order.ShipToParty.Order") == ("deliver", "order", "party", "to")
