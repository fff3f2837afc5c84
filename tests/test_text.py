import os
import random
import string
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.errors import InputOutputError, ValidationError
from entropy_classifier.text import (
    _SEPARATORS,
    Document,
    corpus_from_texts,
    load_corpus,
    read_documents,
    tokenize,
)

from conftest import loads_or_refuses, refuse_scandir, write_corpus_dir, write_lines_file
from oracles import naive_tokenize


class TestTokenize:
    def test_basic_splitting(self):
        assert tokenize("Tax-Return 2023!") == ["tax", "return", "2023"]

    def test_punctuation_and_whitespace_separate(self):
        assert tokenize("a,b.c;d  e\tf\ng") == list("abcdefg")

    def test_underscore_separates(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_digits_kept(self):
        assert tokenize("401k plans") == ["401k", "plans"]

    def test_empty_and_symbol_only(self):
        assert tokenize("") == []
        assert tokenize("!!! --- ???") == []

    def test_unicode_letters(self):
        assert tokenize("Ünïcode Café") == ["ünïcode", "café"]

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_matches_character_scan_oracle(self, s):
        assert tokenize(s) == naive_tokenize(s)

    # Lowercased all-ASCII text returns before the per-word fix-up; the
    # property above rarely draws such text.
    @given(st.text(st.characters(max_codepoint=127), max_size=200))
    @settings(max_examples=300)
    def test_ascii_matches_character_scan_oracle(self, s):
        assert tokenize(s) == naive_tokenize(s)

    @pytest.mark.parametrize("text", [
        "a\x1cb\x1dc\x1ed\x1fe",  # str.split() also splits on these
        "foo_bar__baz_",
        "\u212aelvin 5\u212a",  # Kelvin sign: not ASCII, but lowercases to ASCII "k"
        "\u0130stanbul \u0130",  # lowercases to "i" plus a combining mark
        "a\ud800b",  # a lone surrogate separates, and must not fail to encode
        "ΟΔΟΣ.ΑΒ",  # Σ before "." and a letter lowers to σ
        "ΟΔΟΣ ΑΒ",  # final Σ lowers to ς
        "«»—",  # a word that is only separators
        "été",
        # The fix-up's branches: while every re-split word is one token it
        # takes the word's place; from the first that is not (none or two),
        # the tokens are rebuilt by slices.
        "«a» b c «d»",
        "a—b x y a—b",
        "x «a» «a» y",
        "x a—b a—b y",
        "a «» b",
        "«» «a»",
        "«a» b «c» a—b «a» c «c» a—b «»",
    ], ids=["file-separators", "underscores", "kelvin-sign", "dotted-capital-i", "lone-surrogate",
            "medial-sigma", "final-sigma", "only-separators", "accented",
            "one-token-first-and-last", "two-tokens-first-and-last", "equal-one-token-pair",
            "equal-two-token-pair", "separator-only", "separator-only-first",
            "one-token-around-first-two-token"])
    def test_fast_path_edge_cases_match_oracle(self, text):
        assert tokenize(text) == naive_tokenize(text)

    # Words of letters, combining marks and separators that only the regex
    # splits on, joined by spaces: the byte table leaves the non-ASCII
    # separators inside words, and the fix-up must split them there.
    @given(st.lists(st.text(string.ascii_letters + string.digits + "éßжΣς"
                            "«»—’\u00a0\u2028\u3000_\u0301\u0307",
                            min_size=1, max_size=12), max_size=30).map(" ".join))
    @settings(max_examples=300)
    def test_non_ascii_words_match_character_scan_oracle(self, s):
        assert tokenize(s) == naive_tokenize(s)

    # Long texts in which each separator-holding word repeats many times:
    # words.index must find every copy in turn, in both branches.
    @given(st.lists(st.sampled_from(["tax", "401k", "été", "ΟΔΟΣ", "déjà-vu", "a b",
                                     "«x»", "«été»", "x’s", "a—b", "«»", "—"]),
                    min_size=5, max_size=40),
           st.integers(60, 100), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_long_texts_with_repeated_bad_words_match_oracle(self, motif, reps, rnd):
        words = motif * reps
        rnd.shuffle(words)
        text = " ".join(words)
        assert tokenize(text) == naive_tokenize(text)

    # Linear in both branches: a fix-up that shifted the list's tail once per
    # word would take seconds here.
    @pytest.mark.parametrize("word, tokens", [("a—b", ["a", "b"]), ("«a»", ["a"])])
    def test_fix_up_is_linear(self, word, tokens):
        assert tokenize(" ".join([word] * 200_000)) == tokens * 200_000

    def test_ascii_words_need_no_fix_up(self):
        # Every ASCII byte the table keeps maps to itself, is [a-z0-9] and is
        # isalnum(), so an ASCII word after the table is one token.
        kept = [b for b in range(0x80) if _SEPARATORS[b] != 0x20]
        assert kept
        for b in kept:
            assert _SEPARATORS[b] == b
            assert chr(b) in string.ascii_lowercase + string.digits
            assert chr(b).isalnum()

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_idempotent_on_own_output(self, s):
        toks = tokenize(s)
        assert tokenize(" ".join(toks)) == toks


class TestDocument:
    def test_from_text(self):
        d = Document.from_text("d1", "Hello, World")
        assert d.id == "d1"
        assert d.raw_text == "Hello, World"
        assert d.tokens == ("hello", "world")


class TestCorpusFromTexts:
    def test_default_ids_and_order(self):
        c = corpus_from_texts(["b", "a"])
        assert [d.id for d in c] == ["000001", "000002"]
        assert [d.raw_text for d in c] == ["b", "a"]
        assert len(c) == 2


class TestLoadCorpusDirectory:
    def test_ids_are_relative_posix_paths(self, tmp_path):
        base = write_corpus_dir(tmp_path, {
            "b.txt": "beta doc",
            "sub/a.txt": "alpha doc",
        })
        c = load_corpus(base)
        assert [d.id for d in c] == ["b.txt", "sub/a.txt"]
        assert c.documents[1].tokens == ("alpha", "doc")

    def test_layout_and_order(self, tmp_path):
        base = write_corpus_dir(tmp_path, {
            "b.txt": "beta doc",
            ".hidden": "dot doc",
            "sub.txt": "sub doc",
            "sub/deep/c.txt": "gamma doc",
            "sub/a.txt": "alpha doc",
        })
        outside = write_corpus_dir(tmp_path / "elsewhere", {"x.txt": "outside doc"})
        (base / "link.txt").symlink_to(outside / "x.txt")
        (base / "linkdir").symlink_to(outside, target_is_directory=True)
        (base / "broken").symlink_to(tmp_path / "missing")
        os.mkfifo(base / "pipe")
        c = load_corpus(base)
        # A symlink to a file is a document; a symlinked directory is not
        # descended; a broken symlink and a FIFO are not regular files.
        assert [d.id for d in c] == [".hidden", "b.txt", "link.txt", "sub.txt",
                                     "sub/a.txt", "sub/deep/c.txt"]
        assert c.documents[2].tokens == ("outside", "doc")

    @pytest.mark.parametrize("refused", ["corpus", "corpus/sub"], ids=["root", "subdirectory"])
    def test_unreadable_directory_is_io_error(self, tmp_path, monkeypatch, refused):
        base = write_corpus_dir(tmp_path, {"a.txt": "alpha doc", "sub/b.txt": "beta doc"})
        refuse_scandir(monkeypatch, tmp_path / refused)
        with pytest.raises(InputOutputError, match="cannot read .*Permission denied") as info:
            load_corpus(base)
        assert str(tmp_path / refused) in str(info.value)

    def test_invalid_utf8_names_document(self, tmp_path):
        base = tmp_path / "corpus"
        base.mkdir()
        (base / "bad.txt").write_bytes(b"\xff\xfe broken")
        with pytest.raises(ValidationError, match="document bad.txt: not valid UTF-8"):
            load_corpus(base)

    @pytest.mark.parametrize("name", ["a\tb.txt", "line\nbreak.txt", "car\rriage.txt"],
                             ids=["tab", "newline", "carriage-return"])
    def test_id_with_tab_or_line_break_rejected(self, tmp_path, name):
        base = write_corpus_dir(tmp_path, {"fine.txt": "ok doc", name: "some doc"})
        with pytest.raises(ValidationError, match="tab or line break") as info:
            load_corpus(base)
        assert repr(name) in str(info.value)

    def test_id_that_is_not_utf8_rejected(self, tmp_path):
        # Byte 0xff in a file name decodes to the surrogate U+DCFF.
        try:
            base = write_corpus_dir(tmp_path, {"fine.txt": "ok doc", "\udcff.txt": "some doc"})
        except (OSError, UnicodeEncodeError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        with pytest.raises(ValidationError, match="not valid UTF-8") as info:
            load_corpus(base)
        assert repr("\udcff.txt") in str(info.value)
        str(info.value).encode("utf-8")

    def test_missing_path_is_io_error(self, tmp_path):
        with pytest.raises(InputOutputError, match="cannot read"):
            load_corpus(tmp_path / "nope")


class TestLoadCorpusLines:
    def test_ids_are_physical_line_numbers(self, tmp_path):
        f = write_lines_file(tmp_path / "c.txt", ["first doc", "", "third doc"])
        c = load_corpus(f)
        # the blank line consumes number 2 but yields no document
        assert [d.id for d in c] == ["000001", "000003"]

    def test_trailing_newline_no_phantom_doc(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("only\n", encoding="utf-8")
        assert len(load_corpus(f)) == 1

    def test_whitespace_only_line_skipped(self, tmp_path):
        f = write_lines_file(tmp_path / "c.txt", ["a", "   \t", "b"])
        assert [d.id for d in load_corpus(f)] == ["000001", "000003"]

    def test_invalid_utf8_names_line(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_bytes(b"fine\n\xff\xfe\n")
        with pytest.raises(ValidationError, match="document 000002: not valid UTF-8"):
            load_corpus(f)

    def test_auto_detection(self, tmp_path):
        base = write_corpus_dir(tmp_path, {"a.txt": "dir doc"})
        f = write_lines_file(tmp_path / "lines.txt", ["line doc"])
        assert load_corpus(base).documents[0].id == "a.txt"
        assert load_corpus(f).documents[0].id == "000001"

    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_load_or_refuse(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        loads_or_refuses(load_corpus, fuzz_file)


class TestReadDocuments:
    # A line file is split on "\n" only: "\r" and U+2028 stay inside a line.
    @given(st.lists(st.one_of(st.sampled_from(["", "  ", "\r", "tax return", "Audit\r",
                                               "x\u2028y z", "ΟΔΟΣ ΑΒ"]),
                              st.text(st.characters(blacklist_categories=("Cs",),
                                                    blacklist_characters="\n"), max_size=20)),
                    max_size=12),
           st.sampled_from(["\n", "\r\n"]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_line_file_streams_what_load_corpus_loads(self, fuzz_file, lines, sep, final):
        data = sep.join(lines) + (sep if final else "")
        fuzz_file.write_bytes(data.encode("utf-8"))
        streamed = [(d.id, d.raw_text, d.tokens) for d in read_documents(fuzz_file)]
        assert streamed == [(d.id, d.raw_text, d.tokens) for d in load_corpus(fuzz_file)]
        assert streamed == [(f"{i:06d}", text, tuple(tokenize(text)))
                            for i, text in enumerate(data.split("\n"), start=1) if text.strip()]

    def test_line_file_is_read_lazily(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_bytes(b"first doc\nsecond doc\n\xff\xfe third\nfourth doc\n")
        docs = read_documents(f)
        assert [next(docs).id, next(docs).id] == ["000001", "000002"]
        with pytest.raises(ValidationError, match="document 000003: not valid UTF-8"):
            next(docs)

    def test_directory_streams_what_load_corpus_loads(self, tmp_path):
        base = write_corpus_dir(tmp_path, {"b.txt": "beta doc\n", "sub/a.txt": "alpha\r\ndoc"})
        assert ([(d.id, d.raw_text, d.tokens) for d in read_documents(base)]
                == [(d.id, d.raw_text, d.tokens) for d in load_corpus(base)]
                == [("b.txt", "beta doc\n", ("beta", "doc")),
                    ("sub/a.txt", "alpha\r\ndoc", ("alpha", "doc"))])


def assert_equal_tokens_shared(corpus):
    """Equal tokens anywhere in the corpus are one object."""
    first = {}
    for doc in corpus:
        for token in doc.tokens:
            assert first.setdefault(token, token) is token, (doc.id, token)


class TestSharedTokens:
    TEXTS = ["Tax return filed", "the TAX return, audited", "return of the audit tax"]

    def test_line_file_shares_equal_tokens(self, tmp_path):
        corpus = load_corpus(write_lines_file(tmp_path / "c.txt", self.TEXTS))
        assert [d.tokens[:2] for d in corpus] == [("tax", "return"), ("the", "tax"),
                                                  ("return", "of")]
        assert_equal_tokens_shared(corpus)

    def test_directory_shares_equal_tokens(self, tmp_path):
        base = write_corpus_dir(tmp_path, {f"sub/d{i}.txt" if i else "d0.txt": text
                                           for i, text in enumerate(self.TEXTS)})
        corpus = load_corpus(base)
        assert len(corpus) == 3
        assert_equal_tokens_shared(corpus)

    def test_corpus_from_texts_shares_equal_tokens(self):
        corpus = corpus_from_texts(self.TEXTS)
        assert corpus.documents[2].tokens == ("return", "of", "the", "audit", "tax")
        assert_equal_tokens_shared(corpus)


def test_load_corpus_keeps_a_pointer_per_token(tmp_path):
    """A loaded corpus's tracemalloc peak, net of its raw text, grows by at
    most 16 bytes per added token over a 2000-word vocabulary: the token's
    slot in its document's tuple, not a str of its own (about 60 bytes)."""
    rng = random.Random(5)
    vocab = [f"word{i}" for i in range(2000)]
    net, tokens = {}, {}
    for n in (200, 800):
        path = write_lines_file(tmp_path / f"c{n}.txt", [
            " ".join(rng.choices(vocab, k=250)) for _ in range(n)])
        tracemalloc.start()
        try:
            corpus = load_corpus(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        net[n] = peak - sum(sys.getsizeof(d.raw_text) for d in corpus)
        tokens[n] = sum(len(d.tokens) for d in corpus)
        del corpus
    per_token = (net[800] - net[200]) / (tokens[800] - tokens[200])
    assert per_token <= 16, per_token
