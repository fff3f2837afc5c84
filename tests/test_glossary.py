import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.errors import ValidationError
from entropy_classifier.glossary import (
    _NO_MATCH,
    Glossary,
    Matcher,
    _match_corpora,
    load_glossary,
    make_glossary,
    match,
    match_corpus,
)
from entropy_classifier.text import Corpus, Document, corpus_from_texts

from conftest import count_match_calls, loads_or_refuses, random_glossary_and_doc
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

    @pytest.mark.parametrize("text", ["# finance terms\nTax Return\naudit\n",
                                      "\nTax Return\naudit\n"],
                             ids=["comment-first", "blank-first"])
    def test_leading_bom_is_dropped(self, tmp_path, text):
        # An editor's byte order mark must neither turn a first-line comment
        # into a phrase nor make a blank first line tokenless.
        plain = load_glossary(self.write(tmp_path, text))
        assert plain.phrases == (("audit",), ("tax", "return"))
        assert load_glossary(self.write(tmp_path, "\ufeff" + text)) == plain

    def test_invalid_utf8(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_bytes(b"\xff\xfe")
        with pytest.raises(ValidationError, match="not valid UTF-8"):
            load_glossary(p)

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_load_or_refuse(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        loads_or_refuses(load_glossary, fuzz_file)


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
        corpus = corpus_from_texts([" ".join(tokens)])
        assert match_corpus(g, corpus) == [(len(tokens), profile)]
        assert match_corpus(g, corpus) is match_corpus(g, corpus)


class TestMatchCorpus:
    def test_computed_once_per_corpus(self, monkeypatch):
        g = make_glossary("x", [("a",), ("a", "b")])
        corpus = corpus_from_texts(["a b a", "b", ""])
        calls = count_match_calls(monkeypatch)
        first = match_corpus(g, corpus)
        assert match_corpus(g, corpus) is first
        assert calls == [len(corpus)]
        assert first == [(len(doc.tokens), match(g, doc.tokens)) for doc in corpus]

    def test_stream_is_read_once_and_its_list_kept(self, monkeypatch):
        g = make_glossary("x", [("a",), ("a", "b")])
        corpus = corpus_from_texts(["a b a", "b", ""])
        read = []
        stream = (read.append(doc.id) or doc for doc in corpus)
        calls = count_match_calls(monkeypatch)
        first = match_corpus(g, stream)
        assert match_corpus(g, stream) is first
        assert read == ["000001", "000002", "000003"]
        assert calls == [len(corpus)]
        assert first == [(len(doc.tokens), match(g, doc.tokens)) for doc in corpus]

    def test_equal_corpora_get_separate_entries(self):
        # Corpora compare by identity, so a lookup never hashes the documents.
        g = make_glossary("x", [("a",)])
        docs = (Document.from_text("d", "a a"),)
        c1, c2 = Corpus(docs, "s"), Corpus(docs, "s")
        assert c1 != c2
        l1, l2 = match_corpus(g, c1), match_corpus(g, c2)
        assert l1 is not l2
        assert l1 == l2
        assert len(g.matcher._corpora) == 2

    def test_entry_goes_with_its_corpus(self):
        g = make_glossary("x", [("a",)])
        kept, dropped = corpus_from_texts(["a"]), corpus_from_texts(["a a"])
        match_corpus(g, kept), match_corpus(g, dropped)
        del dropped
        gc.collect()
        assert list(g.matcher._corpora.keys()) == [kept]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_shared_scan_equals_naive_scan_per_glossary(self, data):
        vocab = ["u", "v", "w", "x", "y"]
        phrase = st.lists(st.sampled_from(vocab), min_size=1, max_size=3).map(tuple)
        phrase_sets = data.draw(st.lists(st.sets(phrase, min_size=1, max_size=6),
                                         min_size=2, max_size=4))
        # The second glossary also holds the first's smallest phrase, that
        # phrase's first token and the phrase one token longer: a shared
        # phrase, a shared root key and a prefix across glossaries.
        shared = min(phrase_sets[0])
        phrase_sets[1] |= {shared, shared[:1], shared + (data.draw(st.sampled_from(vocab)),)}
        glossaries = [make_glossary(f"g{i}", p) for i, p in enumerate(phrase_sets)]
        corpus = corpus_from_texts(data.draw(st.lists(
            st.lists(st.sampled_from(vocab), max_size=30).map(" ".join), max_size=4)))
        if data.draw(st.booleans()):
            match_corpus(glossaries[-1], corpus)  # matched alone first, then skipped
        _match_corpora(glossaries + glossaries[:1], corpus)
        for g in glossaries:
            for doc, (word_count, profile) in zip(corpus, match_corpus(g, corpus), strict=True):
                naive = naive_match(g.phrases, doc.tokens)
                assert word_count == len(doc.tokens)
                assert profile.tf == naive
                assert list(profile.tf) == sorted(naive)
                assert profile.total_matches == sum(naive.values())

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_head_free_exit_equals_naive_scan(self, data):
        # Glossary i's phrases start with a token of heads[i] and each glossary
        # has a one-token phrase, so a head as a document's last token matches.
        filler, heads = ["x", "y", "z"], (["a", "b"], ["c", "d"])
        glossaries, singles = [], []
        for i, own in enumerate(heads):
            phrase = st.tuples(st.sampled_from(own),
                               st.lists(st.sampled_from(filler + own), max_size=2))
            phrases = data.draw(st.sets(phrase.map(lambda t: (t[0], *t[1])), max_size=5))
            single = data.draw(st.sampled_from(own))
            singles.append(single)
            glossaries.append(make_glossary(f"g{i}", phrases | {(single,)}))

        def words(vocab, min_size=0):
            return st.lists(st.sampled_from(vocab), min_size=min_size, max_size=20)

        kinds = st.one_of(
            words(filler),  # no head
            words(filler + heads[1]),  # heads of the second glossary only
            # one head, the last token
            st.tuples(words(filler), st.sampled_from(singles)).map(lambda t: t[0] + [t[1]]),
            words(heads[0] + heads[1] + ["x"], min_size=1),  # dense
        )
        docs = data.draw(st.lists(kinds, min_size=1, max_size=6))
        for tokens in docs:
            for g in glossaries:
                assert Matcher(g).profile(tuple(tokens)).tf == naive_match(g.phrases, tokens)
        corpus = corpus_from_texts([" ".join(tokens) for tokens in docs])
        _match_corpora(glossaries, corpus)
        for g in glossaries:
            got = [profile.tf for _, profile in match_corpus(g, corpus)]
            assert got == [naive_match(g.phrases, tokens) for tokens in docs]


def assert_oracle_profile(profile, naive):
    """The shared _NO_MATCH exactly when nothing matches, else the oracle's counts."""
    if naive:
        assert profile is not _NO_MATCH
        assert profile.tf == naive
        assert list(profile.tf) == sorted(naive)
        assert profile.total_matches == sum(naive.values())
    else:
        assert profile is _NO_MATCH


class TestNoMatchProfile:
    """Every document that matches no phrase gets the one shared profile."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_shared_exactly_when_the_oracle_finds_nothing(self, data):
        # Every phrase starts with a head; a phrase of two or more tokens goes
        # on with tails only, so a head followed by filler completes none of
        # them. A glossary may also hold a one-token phrase.
        filler, heads, tails = ["x", "y"], ["a", "b"], ["a", "c"]
        long_phrase = st.tuples(st.sampled_from(heads),
                                st.lists(st.sampled_from(tails), min_size=1, max_size=2))
        glossaries = [make_glossary(f"g{i}", data.draw(
            st.sets(long_phrase.map(lambda t: (t[0], *t[1])), min_size=1, max_size=5)
            | st.sets(st.sampled_from(heads).map(lambda h: (h,)), max_size=1)))
            for i in range(2)]
        kinds = st.one_of(
            st.lists(st.sampled_from(filler), max_size=20),  # head-free
            # heads, but no whole phrase of two or more tokens
            st.lists(st.tuples(st.sampled_from(heads), st.sampled_from(filler)),
                     min_size=1, max_size=10).map(lambda pairs: [t for p in pairs for t in p]),
            st.lists(st.sampled_from(filler + heads + tails), min_size=1, max_size=20),  # dense
        )
        docs = data.draw(st.lists(kinds, min_size=1, max_size=6))
        for tokens in docs:
            for g in glossaries:
                assert_oracle_profile(Matcher(g).profile(tuple(tokens)),
                                      naive_match(g.phrases, tokens))
        corpus = corpus_from_texts([" ".join(tokens) for tokens in docs])
        _match_corpora(glossaries, corpus)
        for g in glossaries:
            for tokens, (_, profile) in zip(docs, match_corpus(g, corpus), strict=True):
                assert_oracle_profile(profile, naive_match(g.phrases, tokens))

    def test_both_exits_return_it(self):
        g = make_glossary("x", [("a", "b")])
        assert match(g, ["x", "y"]) is _NO_MATCH  # no head: the isdisjoint exit
        assert match(g, ["a", "x"]) is _NO_MATCH  # a head, no phrase: the scan's exit
        assert match(g, ["a", "b"]) is not _NO_MATCH

    def test_is_read_only(self):
        with pytest.raises(TypeError):
            _NO_MATCH.tf[0] = 1
        assert _NO_MATCH.tf == {}
        assert _NO_MATCH.total_matches == 0

    def test_one_profile_call_per_document_and_glossary(self, monkeypatch):
        # Sharing the profile saves no call: the benchmark counts one per pair.
        glossaries = [make_glossary("g0", [("a", "b")]), make_glossary("g1", [("c",)])]
        corpus = corpus_from_texts(["x y", "a x", "a b c", ""])
        calls = count_match_calls(monkeypatch)
        _match_corpora(glossaries, corpus)
        assert calls == [len(corpus) * len(glossaries)]
        assert [p is _NO_MATCH for _, p in match_corpus(glossaries[0], corpus)] == [
            True, True, False, True]
