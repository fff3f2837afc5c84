import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.errors import ValidationError
from entropy_classifier.glossary import (
    Glossary,
    Matcher,
    load_glossary,
    make_glossary,
    match,
    match_document,
)
from entropy_classifier.text import Document

from conftest import random_glossary_and_doc
from oracles import naive_match


class TestMakeGlossary:
    def test_dedupe_and_id_order(self):
        g = make_glossary("x", [("b",), ("a", "c"), ("b",)])
        assert g.phrases == (("a", "c"), ("b",))

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValidationError, match="at least one token"):
            make_glossary("x", [()])

    def test_digest_ignores_category_and_input_order(self):
        g1 = make_glossary("a", [("x",), ("y", "z")])
        g2 = make_glossary("b", [("y", "z"), ("x",)])
        assert g1.digest() == g2.digest()

    def test_digest_sensitive_to_phrase_set(self):
        g1 = make_glossary("a", [("x",)])
        g2 = make_glossary("a", [("x",), ("y",)])
        g3 = make_glossary("a", [("x", "y")])
        assert len({g1.digest(), g2.digest(), g3.digest()}) == 3

    def test_phrase_text(self):
        g = make_glossary("x", [("tax", "return")])
        assert g.phrase_text(0) == "tax return"


class TestLoadGlossary:
    def write(self, tmp_path, text):
        p = tmp_path / "fin.txt"
        p.write_text(text, encoding="utf-8")
        return p

    def test_basic_load(self, tmp_path):
        p = self.write(tmp_path, "# header comment\n\nTax Return\naudit\n")
        g = load_glossary(p)
        assert g.category == "fin"
        assert g.phrases == (("audit",), ("tax", "return"))

    def test_category_override(self, tmp_path):
        p = self.write(tmp_path, "audit\n")
        assert load_glossary(p, category="money").category == "money"

    def test_normalization_dedupes(self, tmp_path):
        p = self.write(tmp_path, "Tax Return\ntax-return\nTAX   RETURN\n")
        assert load_glossary(p).phrases == (("tax", "return"),)

    def test_zero_token_line_names_line_number(self, tmp_path):
        p = self.write(tmp_path, "audit\n!!!\n")
        with pytest.raises(ValidationError, match="line 2 contains no alphanumeric tokens"):
            load_glossary(p)

    def test_empty_glossary_rejected(self, tmp_path):
        p = self.write(tmp_path, "# only a comment\n\n")
        with pytest.raises(ValidationError, match="no keyword phrases found"):
            load_glossary(p)

    def test_comment_marker_only_at_line_start(self, tmp_path):
        # an interior '#' is not a comment; it just separates tokens
        p = self.write(tmp_path, "audit # annual\n")
        assert load_glossary(p).phrases == (("audit", "annual"),)

    def test_invalid_utf8(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"\xff\xfe")
        with pytest.raises(ValidationError, match="not valid UTF-8"):
            load_glossary(p)


class TestMatching:
    def test_longest_phrase_wins_at_position(self):
        g = make_glossary("x", [("tax",), ("tax", "return")])
        profile = match(g, ["tax", "return", "due"])
        assert profile.tf == {g.phrases.index(("tax", "return")): 1}

    def test_prefix_counts_when_long_form_absent(self):
        g = make_glossary("x", [("tax",), ("tax", "return")])
        profile = match(g, ["tax", "refund"])
        assert profile.tf == {g.phrases.index(("tax",)): 1}

    def test_matches_do_not_overlap(self):
        g = make_glossary("x", [("a", "b"), ("b", "c")])
        # "a b" consumes the b, so "b c" cannot start inside it
        profile = match(g, ["a", "b", "c"])
        assert profile.tf == {g.phrases.index(("a", "b")): 1}
        assert profile.total_matches == 1

    def test_adjacent_matches_both_count(self):
        g = make_glossary("x", [("a", "b")])
        profile = match(g, ["a", "b", "a", "b"])
        assert profile.tf == {0: 2}

    def test_failed_long_attempt_does_not_eat_tokens(self):
        g = make_glossary("x", [("a", "b", "z"), ("b",)])
        profile = match(g, ["a", "b", "c"])
        assert profile.tf == {g.phrases.index(("b",)): 1}

    def test_empty_tokens(self):
        g = make_glossary("x", [("a",)])
        assert match(g, []).tf == {}
        assert match(g, []).total_matches == 0

    def test_total_matches_sums_counts(self):
        g = make_glossary("x", [("a",), ("b",)])
        assert match(g, ["a", "b", "a"]).total_matches == 3

    def test_matcher_profile_equals_module_match(self):
        g = make_glossary("x", [("a", "b"), ("a",)])
        toks = ["a", "b", "a", "c"]
        assert Matcher(g).profile(toks).tf == match(g, toks).tf

    def test_randomized_equivalence_with_naive_scan(self):
        rng = random.Random(4821)
        for _ in range(300):
            phrases, tokens = random_glossary_and_doc(rng, max_phrases=12, max_tokens=120)
            g = Glossary(category="r", phrases=tuple(phrases))
            assert match(g, tokens).tf == naive_match(phrases, tokens)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_property_equivalence_with_naive_scan(self, data):
        vocab = ["u", "v", "w", "x"]
        phrases = data.draw(st.sets(
            st.lists(st.sampled_from(vocab), min_size=1, max_size=3).map(tuple),
            min_size=1, max_size=8,
        ).map(sorted).map(tuple))
        tokens = data.draw(st.lists(st.sampled_from(vocab), max_size=40))
        g = Glossary(category="h", phrases=tuple(phrases))
        profile = match(g, tokens)
        naive = naive_match(phrases, tokens)
        assert profile.tf == naive
        assert profile.total_matches == sum(naive.values())
        doc = Document.from_text("d", " ".join(tokens))
        assert match_document(g, doc) == profile
        assert match_document(g, doc) is match_document(g, doc)

    def test_equal_documents_get_separate_memo_entries(self):
        # Documents compare by identity, so the memo never hashes tokens.
        g = make_glossary("x", [("a",)])
        d1, d2 = Document.from_text("d", "a a"), Document.from_text("d", "a a")
        assert d1 != d2
        p1, p2 = match_document(g, d1), match_document(g, d2)
        assert p1 is not p2
        assert p1 == p2
        assert len(g.matcher._memo) == 2
