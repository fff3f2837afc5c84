import math
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.background import compute_df, fit_standardization, idf_from_df, train
from entropy_classifier.errors import InputOutputError, ValidationError
from entropy_classifier.glossary import make_glossary
from entropy_classifier.model import (
    BackgroundModel,
    load_model,
    rewrite_bias_line,
    save_model,
)
from entropy_classifier.scoring import raw_score, score_document
from entropy_classifier.text import Document, corpus_from_texts

from conftest import (
    BACKGROUND_TEXTS,
    FINANCE_PHRASES,
    count_match_calls,
    loads_or_refuses,
    mutations,
)
from oracles import naive_idf, naive_mean_std


class TestComputeDf:
    def test_counts_documents_not_occurrences(self):
        g = make_glossary("x", [("a",), ("b",)])
        corpus = corpus_from_texts(["a a a", "a b", "c"])
        n, df = compute_df(g, corpus)
        assert n == 3
        assert df == {0: 2, 1: 1}

    def test_dense_zeros_included(self):
        g = make_glossary("x", [("a",), ("zz",)])
        _, df = compute_df(g, corpus_from_texts(["a"]))
        assert df == {0: 1, 1: 0}

    def test_multi_token_phrase_df(self):
        g = make_glossary("x", [("a", "b")])
        _, df = compute_df(g, corpus_from_texts(["a b here", "b a here", "a b a b"]))
        assert df == {0: 2}

    def test_empty_corpus_rejected(self):
        g = make_glossary("x", [("a",)])
        with pytest.raises(ValidationError, match="background corpus must be non-empty"):
            compute_df(g, corpus_from_texts([]))


class TestIdf:
    def test_formula(self):
        assert idf_from_df(0, 9) == pytest.approx(math.log(10.0) + 1.0, rel=1e-15)
        assert idf_from_df(9, 9) == pytest.approx(1.0, rel=1e-15)
        for df in range(0, 8):
            assert idf_from_df(df, 7) == naive_idf(df, 7)

    def test_monotone_decreasing_in_df(self):
        values = [idf_from_df(df, 50) for df in range(51)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_always_positive(self):
        assert idf_from_df(1000, 1000) > 0

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n_docs"):
            idf_from_df(0, 0)
        with pytest.raises(ValueError, match="df"):
            idf_from_df(5, 4)
        with pytest.raises(ValueError, match="df"):
            idf_from_df(-1, 4)


class TestFitStandardization:
    def test_matches_two_pass_mean_std(self, finance_glossary, small_background):
        n, df = compute_df(finance_glossary, small_background)
        idf = {kid: idf_from_df(df[kid], n) for kid in df}
        mu, sigma = fit_standardization(finance_glossary, idf, 100, small_background)
        scores = [
            raw_score(d, finance_glossary,
                      train(finance_glossary, small_background)).raw_score
            for d in small_background
        ]
        exp_mu, exp_sigma = naive_mean_std(scores)
        assert mu == pytest.approx(exp_mu, rel=1e-14)
        assert sigma == pytest.approx(exp_sigma, rel=1e-14)

    def test_population_not_sample_std(self):
        # two docs scoring s and 0: population std is |s|/2, sample std larger
        g = make_glossary("x", [("a",), ("b",)])
        corpus = corpus_from_texts(["a b", "c c"])
        n, df = compute_df(g, corpus)
        idf = {kid: idf_from_df(df[kid], n) for kid in df}
        mu, sigma = fit_standardization(g, idf, 100, corpus)
        s = raw_score(corpus.documents[0], g, train(g, corpus)).raw_score
        assert mu == pytest.approx(s / 2, rel=1e-14)
        assert sigma == pytest.approx(s / 2, rel=1e-14)

    def test_zero_variance_rejected(self):
        g = make_glossary("x", [("a",)])
        corpus = corpus_from_texts(["no keywords here", "none here either"])
        n, df = compute_df(g, corpus)
        idf = {kid: idf_from_df(df[kid], n) for kid in df}
        with pytest.raises(ValidationError,
                           match="degenerate background corpus: zero score variance"):
            fit_standardization(g, idf, 100, corpus)


class TestTrain:
    def test_model_fields(self, finance_glossary, small_background):
        m = train(finance_glossary, small_background, k=50)
        assert m.category == "finance"
        assert m.glossary_digest == finance_glossary.digest()
        assert m.n_docs == len(small_background)
        assert m.k == 50
        assert m.bias == 3.0
        assert m.entropy_weighted is True
        assert set(m.df) == set(range(len(finance_glossary.phrases)))
        for kid, df in m.df.items():
            assert m.idf[kid] == naive_idf(df, m.n_docs)

    def test_ablation_flag(self, finance_glossary, small_background):
        m = train(finance_glossary, small_background, entropy_weighted=False)
        assert m.entropy_weighted is False
        # ablation raw score is the abundance alone
        b = raw_score(small_background.documents[0], finance_glossary, m)
        assert b.raw_score == b.tfidf_over_L

    def test_ablation_refits_mu_sigma(self, finance_glossary, small_background):
        m1 = train(finance_glossary, small_background)
        m2 = train(finance_glossary, small_background, entropy_weighted=False)
        assert (m1.mu, m1.sigma) != (m2.mu, m2.sigma)

    def test_invalid_k(self, finance_glossary, small_background):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            train(finance_glossary, small_background, k=0)
        with pytest.raises(ValidationError, match="below 2\\*\\*63"):
            train(finance_glossary, small_background, k=2**63)
        assert train(finance_glossary, small_background, k=2**63 - 1).k == 2**63 - 1

    def test_matches_each_document_once(self, finance_glossary, small_background,
                                        monkeypatch):
        calls = count_match_calls(monkeypatch)
        train(finance_glossary, small_background)
        assert calls == [len(small_background)]
        # The ablation model of the same glossary reuses those matches.
        train(finance_glossary, small_background, entropy_weighted=False)
        assert calls == [len(small_background)]


def valid_fields(glossary):
    """Constructor arguments of a valid hand-built model for the glossary."""
    return dict(
        category=glossary.category,
        glossary_digest=glossary.digest(),
        phrases=glossary.phrases,
        n_docs=10,
        df={kid: 0 for kid in range(len(glossary.phrases))},
        idf={kid: 1.0 for kid in range(len(glossary.phrases))},
        mu=0.0,
        sigma=1.0,
    )


# Unset marks a keyword id left out of idf or df.
_UNSET = object()


class TestModelInvariant:
    @pytest.mark.parametrize("field,value,message", [
        ("k", 0, "k must be >= 1"),
        ("k", 2**63, "below 2\\*\\*63"),
        ("n_docs", 0, "n_docs must be >= 1"),
        ("mu", math.nan, "mu must be finite"),
        ("mu", -math.inf, "mu must be finite"),
        ("sigma", math.inf, "sigma must be finite"),
        ("sigma", 0.0, "sigma must be positive"),
        ("sigma", -1.0, "sigma must be positive"),
        ("bias", math.nan, "bias must be finite"),
        ("idf", {0: 1.0}, "keyword id 1 has no idf entry"),
        ("idf", {0: 1.0, 1: math.inf}, "keyword id 1 has no idf entry"),
        ("df", {0: 0}, "keyword id 1 has no df"),
        ("df", {0: 0, 1: 11}, "keyword id 1 has no df"),
        ("df", {0: -1, 1: 0}, "keyword id 0 has no df"),
        ("glossary_digest", "0" * 64, "glossary_digest does not match"),
        ("phrases", (("a",),), "glossary_digest does not match"),
    ])
    def test_invalid_field_rejected_on_build_and_replace(self, field, value, message):
        fields = valid_fields(make_glossary("x", [("a",), ("b",)]))
        with pytest.raises(ValidationError, match=message):
            BackgroundModel(**{**fields, field: value})
        with pytest.raises(ValidationError, match=message):
            replace(BackgroundModel(**fields), **{field: value})

    def test_replace_bias_must_be_finite(self, finance_glossary, small_background):
        m = train(finance_glossary, small_background)
        m2 = replace(m, bias=-1.25)
        assert m2.bias == -1.25
        assert m2.mu == m.mu
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="bias must be finite"):
                replace(m, bias=bad)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_built_models_score_and_round_trip(self, fuzz_file, data):
        # Each field in `broken` gets a stress value; the others stay valid.
        broken = data.draw(st.just(set()) | st.sets(st.sampled_from(
            ["mu", "sigma", "bias", "k", "n_docs", "df", "idf", "glossary_digest"]),
            min_size=1, max_size=2))

        def pick(name, valid, stress):
            return data.draw(st.sampled_from(stress) if name in broken else valid)

        phrases = data.draw(st.lists(st.lists(_TOKENS, min_size=1, max_size=2).map(tuple),
                                     min_size=1, max_size=4, unique=True))
        glossary = make_glossary("c", phrases)
        n = len(glossary.phrases)
        n_docs = pick("n_docs", st.integers(1, 50), [0, -1])
        df = {kid: data.draw(st.integers(0, max(n_docs, 0))) for kid in range(n)}
        idf = {kid: data.draw(st.floats(0.01, 10.0)) for kid in range(n)}
        kid = data.draw(st.integers(0, n - 1))
        for name, values, stress in (("df", df, [_UNSET, -1, max(n_docs, 0) + 1]),
                                     ("idf", idf, [_UNSET, math.nan, math.inf])):
            value = pick(name, st.just(values[kid]), stress)
            if value is _UNSET:
                del values[kid]
            else:
                values[kid] = value
        nonfinite = [math.nan, math.inf, -math.inf]
        fields = dict(
            valid_fields(glossary),
            glossary_digest=pick("glossary_digest", st.just(glossary.digest()), ["0" * 64]),
            n_docs=n_docs,
            df=df,
            idf=idf,
            mu=pick("mu", st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3), nonfinite),
            sigma=pick("sigma", st.floats(1e-3, 1e3), nonfinite + [0.0, -0.0, -1.0]),
            bias=pick("bias", st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3), nonfinite),
            k=pick("k", st.sampled_from([1, 2**63 - 1]) | st.integers(1, 10**6),
                   [0, -1, 2**63]),
            entropy_weighted=data.draw(st.booleans()),
        )
        if broken:
            with pytest.raises(ValidationError):
                BackgroundModel(**fields)
            return
        m = BackgroundModel(**fields)
        tokens = [t for phrase in glossary.phrases for t in phrase] + ["filler"]
        text = " ".join(data.draw(st.lists(st.sampled_from(tokens), max_size=30)))
        b = score_document(Document.from_text("d", text), glossary, m)
        for name in ("tfidf_over_L", "entropy", "raw_score", "standardized", "probability"):
            assert math.isfinite(getattr(b, name)), name
        if m.entropy_weighted:
            save_model(m, fuzz_file)
            want_idf = {kid: idf_from_df(count, m.n_docs) for kid, count in m.df.items()}
            assert load_model(fuzz_file) == replace(m, idf=want_idf)


class TestModelPersistence:
    def test_roundtrip_bitwise(self, tmp_path, finance_glossary, small_background):
        m = train(finance_glossary, small_background)
        path = tmp_path / "m.txt"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.category == m.category
        assert loaded.glossary_digest == m.glossary_digest
        assert loaded.phrases == m.phrases
        assert loaded.n_docs == m.n_docs
        assert loaded.k == m.k
        assert loaded.df == m.df
        # floats restored to the identical doubles
        assert loaded.mu.hex() == m.mu.hex()
        assert loaded.sigma.hex() == m.sigma.hex()
        assert loaded.bias.hex() == m.bias.hex()
        for kid in m.idf:
            assert loaded.idf[kid].hex() == m.idf[kid].hex()

    def test_save_is_deterministic(self, tmp_path, finance_glossary, small_background):
        m = train(finance_glossary, small_background)
        save_model(m, tmp_path / "a.txt")
        save_model(m, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_ablation_models_refuse_to_save(self, tmp_path, finance_glossary,
                                            small_background):
        m = train(finance_glossary, small_background, entropy_weighted=False)
        with pytest.raises(ValidationError, match="cannot be saved"):
            save_model(m, tmp_path / "m.txt")

    def test_newline_in_category_rejected_before_writing(self, tmp_path, finance_glossary,
                                                         small_background):
        m = replace(train(finance_glossary, small_background), category="a\nbias 9")
        with pytest.raises(ValidationError, match="newline"):
            save_model(m, tmp_path / "m.txt")
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("phrase", [("tax", ""), ("tax return",), ("tax\treturn",)])
    def test_phrase_token_with_whitespace_rejected_before_writing(self, tmp_path, phrase,
                                                                  small_background):
        # load_model would reject the empty token and split the others in two
        m = train(make_glossary("fin", FINANCE_PHRASES + [phrase]), small_background)
        with pytest.raises(ValidationError, match="empty or holds whitespace"):
            save_model(m, tmp_path / "m.txt")
        assert not (tmp_path / "m.txt").exists()

    def test_category_edge_spaces_round_trip(self, tmp_path, finance_glossary,
                                             small_background):
        m = replace(train(finance_glossary, small_background), category="  fin ")
        save_model(m, tmp_path / "m.txt")
        assert load_model(tmp_path / "m.txt").category == "  fin "

    def test_long_target_name(self, tmp_path, finance_glossary, small_background):
        # 250 bytes fits NAME_MAX (255); the temp file beside it must fit too.
        path = tmp_path / ("m" * 246 + ".txt")
        m = train(finance_glossary, small_background)
        save_model(m, path)
        assert load_model(path) == m
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def _saved(self, tmp_path, finance_glossary, small_background):
        path = tmp_path / "m.txt"
        save_model(train(finance_glossary, small_background), path)
        return path

    def test_rewrite_bias_line_touches_only_bias(self, tmp_path, finance_glossary,
                                                 small_background):
        path = self._saved(tmp_path, finance_glossary, small_background)
        before = path.read_text(encoding="utf-8").split("\n")
        rewrite_bias_line(path, 1.5)
        after = path.read_text(encoding="utf-8").split("\n")
        assert len(before) == len(after)
        diffs = [(a, b) for a, b in zip(before, after) if a != b]
        assert diffs == [(f"bias 3", "bias 1.5")]
        assert load_model(path).bias == 1.5

    def test_rewrite_requires_exactly_one_bias_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("mu 0\nsigma 1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="exactly one bias record"):
            rewrite_bias_line(p, 2.0)

    @pytest.mark.parametrize("mutation,message", [
        (("format_version 1", "format_version 9"), "unsupported format_version"),
        (("n_docs 14", "n_docs 0"), "n_docs must be >= 1"),
        (("k 100", "k 0"), "k must be >= 1"),
        (("sigma ", "sigma -"), "sigma must be positive"),
        (("mu ", "mu nan-"), "mu is not a number"),
        (("kw 1 ", "kw 7 "), "dense and ascending"),
        (("kw 0 13 audit", "kw 0 99 audit"), "outside"),
        (("kw 0 13 audit", "kw 0 13 audits"), "glossary_digest does not match"),
        # idf divides by n_docs + 1 as a float
        (("n_docs 14", "n_docs " + "9" * 400), "n_docs is not a 64-bit integer"),
        (("format_version 1\n", ""), "expected 'format_version' record, found 'category'"),
    ])
    def test_load_rejects_corruption(self, tmp_path, finance_glossary,
                                     small_background, mutation, message):
        path = self._saved(tmp_path, finance_glossary, small_background)
        old, new = mutation
        content = path.read_text(encoding="utf-8")
        assert old in content
        path.write_text(content.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            load_model(path)

    def test_load_rejects_reordered_header(self, tmp_path, finance_glossary,
                                           small_background):
        path = self._saved(tmp_path, finance_glossary, small_background)
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValidationError, match="expected 'category' record"):
            load_model(path)

    def test_load_rejects_truncation(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("format_version 1\ncategory x\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="truncated header"):
            load_model(p)

    def test_load_rejects_missing_keywords(self, tmp_path, finance_glossary,
                                           small_background):
        path = self._saved(tmp_path, finance_glossary, small_background)
        lines = [ln for ln in path.read_text(encoding="utf-8").split("\n")
                 if not ln.startswith("kw ")]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValidationError, match="no kw records"):
            load_model(path)

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, finance_glossary,
                                           small_background):
        path = self._saved(tmp_path, finance_glossary, small_background)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError(5, "injected failure")

        monkeypatch.setattr(os, "replace", fail)
        m = replace(train(finance_glossary, small_background), bias=1.5)
        with pytest.raises(InputOutputError, match="cannot write"):
            save_model(m, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]


# Keyword tokens as the tokenizer emits them: lowercase letters and digits.
_TOKENS = st.text(st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=6)


class TestModelFileProperties:
    @given(
        category=st.text(st.characters(blacklist_characters="\n",
                                       blacklist_categories=("Cs",)), max_size=12),
        extra=st.lists(st.lists(_TOKENS, min_size=1, max_size=3).map(tuple), max_size=5),
        k=st.integers(1, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_load_of_save_is_identity(self, fuzz_file, category, extra, k):
        glossary = make_glossary(category, FINANCE_PHRASES + extra)
        m = train(glossary, corpus_from_texts(BACKGROUND_TEXTS), k)
        save_model(m, fuzz_file)
        assert load_model(fuzz_file) == m

    @given(st.binary(max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_load_or_refuse(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        loads_or_refuses(load_model, fuzz_file)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_mutated_files_load_or_refuse(self, fuzz_file, data):
        glossary = make_glossary("finance", FINANCE_PHRASES)
        save_model(train(glossary, corpus_from_texts(BACKGROUND_TEXTS)), fuzz_file)
        fuzz_file.write_bytes(data.draw(mutations(fuzz_file.read_bytes())))
        loads_or_refuses(load_model, fuzz_file)
