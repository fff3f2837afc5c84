import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.errors import InputOutputError, ValidationError
from entropy_classifier.text import Document, corpus_from_texts, load_corpus, tokenize

from conftest import loads_or_refuses, write_corpus_dir, write_lines_file
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

    # Lowercased all-ASCII text takes the translate-table path; the property
    # above rarely draws such text.
    @given(st.text(st.characters(max_codepoint=127), max_size=200))
    @settings(max_examples=300)
    def test_ascii_matches_character_scan_oracle(self, s):
        assert tokenize(s) == naive_tokenize(s)

    @pytest.mark.parametrize("text", [
        "a\x1cb\x1dc\x1ed\x1fe",  # str.split() also splits on these
        "foo_bar__baz_",
        "\u212aelvin 5\u212a",  # Kelvin sign: not ASCII, but lowercases to ASCII "k"
        "\u0130stanbul \u0130",  # lowercases to "i" plus a combining mark: regex path
    ], ids=["file-separators", "underscores", "kelvin-sign", "dotted-capital-i"])
    def test_fast_path_edge_cases_match_oracle(self, text):
        assert tokenize(text) == naive_tokenize(text)

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
