import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.background import train
from entropy_classifier.errors import ValidationError
from entropy_classifier.glossary import (
    _NO_MATCH,
    Glossary,
    MatchProfile,
    make_glossary,
    match_corpus,
)
from entropy_classifier.model import BackgroundModel
from entropy_classifier.scoring import (
    ScoreBreakdown,
    _score_profile,
    predict,
    raw_score,
    score_corpus,
    score_document,
    shannon_entropy,
    sigmoid,
    standardized_scores,
)
from entropy_classifier.text import Document, corpus_from_texts

from conftest import BACKGROUND_TEXTS, FINANCE_PHRASES, random_glossary_and_doc
from oracles import naive_abundance, naive_entropy, naive_pipeline


def make_model(glossary, idf, mu=0.0, sigma=1.0, bias=3.0, k=100, n_docs=10):
    """Direct model construction so tests control idf/mu/sigma exactly."""
    return BackgroundModel(
        category=glossary.category,
        glossary_digest=glossary.digest(),
        phrases=glossary.phrases,
        n_docs=n_docs,
        df={kid: 0 for kid in range(len(glossary.phrases))},
        idf=idf,
        mu=mu,
        sigma=sigma,
        k=k,
        bias=bias,
    )


def score_text(text, phrases, idf, k=100):
    """raw_score of one document under a model with the given idf and k."""
    g = make_glossary("x", phrases)
    return raw_score(Document.from_text("d", text), g, make_model(g, idf, k=k))


class TestEffectiveLength:
    # L = max(k, word count), as raw_score reports and divides by it.
    def test_short_doc_floors_at_k(self):
        b = score_text("a w w w w", [("a",)], {0: 2.0})
        assert b.effective_length == 100
        assert b.tfidf_over_L == 2.0 / 100

    def test_long_doc_uses_word_count(self):
        b = score_text("a" + " w" * 499, [("a",)], {0: 2.0})
        assert b.effective_length == 500
        assert b.tfidf_over_L == 2.0 / 500

    def test_boundary(self):
        assert score_text("w " * 100, [("a",)], {0: 2.0}).effective_length == 100
        assert score_text("w " * 101, [("a",)], {0: 2.0}).effective_length == 101


class TestContributions:
    def test_values_and_order(self):
        # Matched out of id order (c before a); reported in ascending id order.
        b = score_text("c c a c", [("a",), ("b",), ("c",)], {0: 2.0, 1: 5.0, 2: 0.5}, k=10)
        assert list(b.per_keyword) == [0, 2]
        assert b.per_keyword[0] == pytest.approx(1 * 2.0 / 10)
        assert b.per_keyword[2] == pytest.approx(3 * 0.5 / 10)
        assert b.tfidf_over_L == pytest.approx(0.2 + 0.15)

    def test_missing_idf_entry(self):
        with pytest.raises(ValidationError, match="keyword id 1 has no idf entry"):
            score_text("a b", [("a",), ("b",)], {0: 1.0})


class TestMatchDistribution:
    # The entropy is taken over p_w = tf_w / total_matches.
    def test_normalizes(self):
        b = score_text("a b b b", [("a",), ("b",)], {0: 1.0, 1: 1.0})
        assert b.entropy == shannon_entropy({0: 0.25, 1: 0.75})

    def test_empty(self):
        b = score_text("nothing here", [("a",)], {0: 1.0})
        assert b.tf.total_matches == 0
        assert b.per_keyword == {}
        assert b.entropy == 0.0

    @given(st.lists(st.integers(min_value=1, max_value=50), max_size=12))
    @settings(max_examples=200)
    def test_kernel_entropy_bit_identical_to_checked_wrapper(self, counts):
        # repr tells -0.0 (one species) from 0.0 (no match), and shows every bit.
        tf = MatchProfile(tf=dict(enumerate(counts)), total_matches=sum(counts))
        idf = dict.fromkeys(range(len(counts)), 1.0)
        entropy = _score_profile(tf, 100, idf, 50)[3]
        p = {kid: n / tf.total_matches for kid, n in tf.tf.items()}
        assert repr(entropy) == repr(shannon_entropy(p))


class TestSameBitsOnEveryPython:
    # Since Python 3.12, sum() of floats is compensated. These inputs change
    # in their last bit under it, so both sums must stay plain left folds.
    @pytest.mark.parametrize("counts,idf", [
        ((1, 1, 1), (1.0, 1e-16, 1e-16)),  # a compensated tfidf_over_L is 1 + 2**-52
        ((1, 5, 1), (1.0, 1.0, 1.0)),  # a compensated entropy is one ulp off
    ])
    def test_kernel_sums_are_left_folds(self, counts, idf):
        tf = MatchProfile(dict(enumerate(counts)), sum(counts))
        idf = dict(enumerate(idf))
        _, _, tfidf_over_L, entropy, raw = _score_profile(tf, 1, idf, 1)
        assert tfidf_over_L.hex() == naive_abundance(tf.tf, idf, 1, 1).hex()
        assert entropy.hex() == naive_entropy(tf.tf).hex()
        assert raw.hex() == (entropy * tfidf_over_L).hex()

    @given(st.integers(min_value=1, max_value=2**62), st.integers(min_value=0, max_value=2**62),
           st.dictionaries(st.integers(min_value=0, max_value=20),
                           st.floats(min_value=0.0, max_value=50.0)))
    @settings(max_examples=200)
    def test_no_match_is_positive_zero(self, k, word_count, idf):
        # The kernel returns at once for the shared no-match profile, with the
        # +0.0 that the folds from 0.0 would give; math.copysign shows the sign.
        L, per_keyword, tfidf_over_L, entropy, raw = _score_profile(_NO_MATCH, word_count, idf, k)
        assert (L, per_keyword) == (max(k, word_count), {})
        assert per_keyword is not _score_profile(_NO_MATCH, word_count, idf, k)[1]
        for x in (tfidf_over_L, entropy, raw):
            assert x == 0.0 and math.copysign(1.0, x) == 1.0

    def test_signed_zero_entropies(self):
        # score prints a single species' entropy as -0 and no match's as 0.
        one, none = (_score_profile(MatchProfile(tf, sum(tf.values())), 5, {0: 1.0}, 1)
                     for tf in ({0: 4}, {}))
        assert (repr(one[3]), repr(none[3])) == ("-0.0", "0.0")


class TestShannonEntropy:
    def test_empty_is_zero(self):
        assert shannon_entropy({}) == 0.0

    def test_single_species_is_zero(self):
        assert shannon_entropy({0: 1.0}) == 0.0

    def test_uniform_is_log_n(self):
        for n in (2, 3, 5, 8, 64):
            p = {i: 1.0 / n for i in range(n)}
            assert shannon_entropy(p) == pytest.approx(math.log(n), abs=1e-12)

    def test_strictly_below_log_n_when_nonuniform(self):
        p = {0: 0.5, 1: 0.25, 2: 0.25}
        assert shannon_entropy(p) < math.log(3)

    def test_rejects_negative_and_non_distribution(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            shannon_entropy({0: -0.5, 1: 1.5})
        with pytest.raises(ValueError, match="sum to 1"):
            shannon_entropy({0: 0.3, 1: 0.3})

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12))
    @settings(max_examples=200)
    def test_bounds_property(self, counts):
        total = sum(counts)
        p = {i: c / total for i, c in enumerate(counts)}
        s = shannon_entropy(p)
        assert -1e-12 <= s <= math.log(len(counts)) + 1e-12
        if len(set(counts)) > 1:
            assert s < math.log(len(counts))

    def test_permutation_invariance(self):
        a = shannon_entropy({0: 0.2, 1: 0.3, 2: 0.5})
        b = shannon_entropy({0: 0.5, 1: 0.2, 2: 0.3})
        assert a == pytest.approx(b, abs=1e-15)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for z in (0.1, 1.0, 7.5, 30.0):
            assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-15)

    def test_extremes_do_not_overflow(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
        assert sigmoid(-1000.0) >= 0.0

    def test_monotone(self):
        zs = [-5.0, -1.0, 0.0, 0.5, 2.0, 9.0]
        ys = [sigmoid(z) for z in zs]
        assert ys == sorted(ys)


class TestRawScore:
    def test_no_matches_scores_zero(self):
        g = make_glossary("x", [("kw",)])
        m = make_model(g, {0: 2.0})
        b = raw_score(Document.from_text("d", "nothing to see"), g, m)
        assert b.raw_score == 0.0
        assert b.entropy == 0.0
        assert b.tfidf_over_L == 0.0

    def test_single_species_scores_zero_despite_repetition(self):
        g = make_glossary("x", [("spam",)])
        m = make_model(g, {0: 3.0})
        doc = Document.from_text("d", " ".join(["spam"] * 50))
        b = raw_score(doc, g, m)
        assert b.tfidf_over_L > 0
        assert b.entropy == 0.0
        assert b.raw_score == 0.0

    def test_two_species_beat_one(self):
        g = make_glossary("x", [("a",), ("b",)])
        m = make_model(g, {0: 1.0, 1: 1.0})
        one = raw_score(Document.from_text("d1", "a a a a"), g, m).raw_score
        two = raw_score(Document.from_text("d2", "a a b b"), g, m).raw_score
        assert one == 0.0
        assert two > 0.0

    def test_hand_computed_example(self):
        g = make_glossary("x", [("a",), ("b", "c")])
        m = make_model(g, {0: 2.0, 1: 4.0}, k=10)
        # tokens: a b c a x -> tf(a)=2, tf(bc)=1, word_count=5, L=10
        b = raw_score(Document.from_text("d", "a b c a x"), g, m)
        assert b.word_count == 5
        assert b.effective_length == 10
        assert b.tfidf_over_L == pytest.approx((2 * 2.0 + 1 * 4.0) / 10, rel=1e-15)
        p1, p2 = 2 / 3, 1 / 3
        expected_entropy = -(p1 * math.log(p1) + p2 * math.log(p2))
        assert b.entropy == pytest.approx(expected_entropy, rel=1e-15)
        assert b.raw_score == pytest.approx(expected_entropy * 0.8, rel=1e-15)

    def test_digest_mismatch_rejected(self):
        g1 = make_glossary("x", [("a",)])
        g2 = make_glossary("x", [("b",)])
        m = make_model(g1, {0: 1.0})
        with pytest.raises(ValidationError,
                           match="model was trained for a different glossary"):
            raw_score(Document.from_text("d", "a"), g2, m)

    def test_ablation_drops_entropy_factor(self):
        # Experiment 1's ablation score is the kernel's tfidf_over_L: the raw
        # score without its entropy factor.
        g = make_glossary("x", [("a",), ("b",)])
        b = raw_score(Document.from_text("d", "a b"), g, make_model(g, {0: 1.0, 1: 1.0}))
        ablation = _score_profile(b.tf, b.word_count, {0: 1.0, 1: 1.0}, 100)[2]
        assert ablation == b.tfidf_over_L == 2.0 / 100
        assert b.entropy == pytest.approx(math.log(2), rel=1e-15)
        assert b.raw_score == b.entropy * ablation


class TestCacheLifetime:
    def test_caches_die_with_the_glossary_and_the_documents(self):
        glossary = make_glossary("finance", FINANCE_PHRASES)
        corpus = corpus_from_texts(BACKGROUND_TEXTS)
        model = train(glossary, corpus)
        assert all(b.raw_score >= 0 for b in score_corpus(corpus, glossary, model))
        # Training cached the corpus's match list; it goes with the corpus. A
        # document that matches nothing shares glossary._NO_MATCH, which lives
        # as long as the module, so the profile watched is one that matched.
        profile = weakref.ref(next(p for _, p in match_corpus(glossary, corpus)
                                   if p.total_matches))
        del corpus
        gc.collect()
        assert profile() is None
        glossary_ref = weakref.ref(glossary)
        del glossary
        gc.collect()
        assert glossary_ref() is None


class TestPredict:
    def test_fills_decision_fields(self):
        g = make_glossary("x", [("a",)])
        m = make_model(g, {0: 1.0}, mu=0.1, sigma=0.2, bias=1.0)
        b = raw_score(Document.from_text("d", "nothing"), g, m)
        assert predict(b.raw_score, m) == (b.standardized, b.probability, b.positive)
        assert b.standardized == pytest.approx((0.0 - 0.1) / 0.2, rel=1e-15)
        assert b.probability == pytest.approx(sigmoid(b.standardized - 1.0), rel=1e-15)
        assert b.positive is (b.standardized >= 1.0)

    def test_boundary_is_positive(self):
        g = make_glossary("x", [("a",)])
        # raw score 0 -> standardized exactly equals bias
        m = make_model(g, {0: 1.0}, mu=0.5, sigma=0.25, bias=-2.0)
        b = score_document(Document.from_text("d", "no match"), g, m)
        assert b.standardized == -2.0
        assert b.positive is True
        assert b.probability == 0.5

    def test_no_field_is_none(self):
        g = make_glossary("x", [("a",), ("b",)])
        m = make_model(g, {0: 1.0, 1: 2.0})
        assert ScoreBreakdown._field_defaults == {}
        for text in ("", "nothing here", "a b a"):
            b = score_document(Document.from_text("d", text), g, m)
            assert [name for name in b._fields if getattr(b, name) is None] == []

    def test_nonpositive_sigma_rejected(self):
        # The model refuses to exist, so predict never sees sigma <= 0.
        g = make_glossary("x", [("a",)])
        for sigma in (0.0, -0.0, -1.0):
            with pytest.raises(ValidationError, match="sigma must be positive"):
                make_model(g, {0: 1.0}, sigma=sigma)


class TestStandardizedScores:
    def test_order_and_values(self, finance_glossary, small_background):
        m = train(finance_glossary, small_background)
        scores = standardized_scores(small_background, finance_glossary, m)
        assert len(scores) == len(small_background)
        breakdowns = list(score_corpus(small_background, finance_glossary, m))
        assert len(breakdowns) == len(small_background)
        for s_hat, b, doc in zip(scores, breakdowns, small_background):
            want = score_document(doc, finance_glossary, m)
            assert s_hat == want.standardized
            for name in want._fields:
                assert getattr(b, name) == getattr(want, name), name


    @given(docs=st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "x", "y"]), max_size=40),
                         max_size=12),
           idf=st.lists(st.floats(0.01, 8.0), min_size=4, max_size=4),
           mu=st.floats(-2.0, 2.0), sigma=st.floats(1e-3, 4.0),
           k=st.sampled_from([1, 5, 100]))
    @settings(max_examples=150)
    def test_bit_identical_to_breakdown_path(self, docs, idf, mu, sigma, k):
        g = make_glossary("x", [("a",), ("a", "b"), ("c",), ("d", "c")])
        m = make_model(g, dict(enumerate(idf)), mu=mu, sigma=sigma, k=k)
        corpus = corpus_from_texts([" ".join(d) for d in docs])
        want = [b.standardized.hex() for b in score_corpus(corpus, g, m)]
        assert [s.hex() for s in standardized_scores(corpus, g, m)] == want

    def test_empty_corpus_with_wrong_glossary_rejected(self):
        m = make_model(make_glossary("x", [("a",)]), {0: 1.0})
        with pytest.raises(ValidationError, match="model was trained for a different glossary"):
            standardized_scores(corpus_from_texts([]), make_glossary("x", [("b",)]), m)


class TestOracleEquivalence:
    def test_random_instances_match_naive_formulas(self):
        rng = random.Random(90125)
        for _ in range(250):
            phrases, tokens = random_glossary_and_doc(rng)
            g = Glossary(category="r", phrases=tuple(phrases))
            idf = {kid: rng.uniform(0.05, 6.0) for kid in range(len(phrases))}
            mu = rng.uniform(-0.5, 0.5)
            sigma = rng.uniform(0.01, 2.0)
            bias = rng.uniform(-4.0, 4.0)
            k = rng.choice([1, 10, 100, 250])
            m = make_model(g, idf, mu=mu, sigma=sigma, bias=bias, k=k)
            got = score_document(Document.from_text("d", " ".join(tokens)), g, m)
            want = naive_pipeline(tokens, phrases, idf, k, mu, sigma, bias)
            assert got.tf.tf == want["tf"]
            assert got.tfidf_over_L == pytest.approx(want["abundance"], rel=1e-12)
            assert got.entropy == pytest.approx(want["entropy"], rel=1e-12)
            assert got.raw_score == pytest.approx(want["raw_score"], rel=1e-12)
            assert got.probability == pytest.approx(want["probability"], rel=1e-12)
