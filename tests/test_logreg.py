import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from entropy_classifier.errors import ValidationError
from entropy_classifier.logreg import (
    LrModel,
    LrParams,
    _design_matrix,
    build_vocabulary,
    calibrate_lr_threshold,
    featurize,
    load_lr_model,
    logistic_gradient,
    logistic_loss,
    lr_decision,
    lr_logit,
    lr_measure_fpr,
    predict_lr,
    save_lr_model,
    train_lr,
)
from entropy_classifier.text import Document, corpus_from_texts

from conftest import loads_or_refuses, mutations
from oracles import numeric_gradient

# A small valid LR model file, the base of the corruption tests.
LR_FILE = "format_version 1\nl2 0\nthreshold_bias 0\nfeat 0 aa 0.5\nintercept 0\n"


def toy_problem(rng, n_samples=12, n_features=5):
    X = sparse.csr_matrix(np.array([
        [rng.uniform(-1, 1) if rng.random() < 0.6 else 0.0 for _ in range(n_features)]
        for _ in range(n_samples)
    ]))
    y = np.array([float(rng.random() < 0.5) for _ in range(n_samples)])
    w = np.array([rng.uniform(-2, 2) for _ in range(n_features)])
    intercept = rng.uniform(-2, 2)
    l2 = rng.choice([0.0, 1e-4, 1e-2, 0.5])
    return X, y, w, intercept, l2


def make_training_corpora():
    pos = corpus_from_texts([
        "good great fine excellent option",
        "good great choice with fine words",
        "excellent fine good pick",
        "great excellent good words",
    ], source="<pos>")
    neg = corpus_from_texts([
        "bad awful poor option",
        "bad poor thing with awful words",
        "awful poor bad pick",
        "poor bad awful words",
    ], source="<neg>")
    return pos, neg


class TestFeatures:
    def test_vocabulary_min_df_and_order(self):
        docs = corpus_from_texts(["b a a", "c a", "c d"]).documents
        vocab = build_vocabulary(docs)
        # a and c appear in 2 docs; b and d in only 1
        assert vocab == {"a": 0, "c": 1}

    def test_repeats_within_doc_count_once_for_df(self):
        docs = corpus_from_texts(["a a a", "b"]).documents
        assert build_vocabulary(docs) == {}

    def test_featurize_normalizes_by_word_count(self):
        vocab = {"a": 0, "b": 1}
        doc = Document.from_text("d", "a a b c")
        assert featurize(doc, vocab) == {0: 2 / 4, 1: 1 / 4}

    def test_featurize_empty_doc(self):
        assert featurize(Document.from_text("d", "!!!"), {"a": 0}) == {}

    def test_oov_tokens_dropped_but_still_normalize(self):
        vocab = {"a": 0}
        doc = Document.from_text("d", "a z z z")
        assert featurize(doc, vocab) == {0: 1 / 4}


class TestLossAndGradient:
    def test_gradient_matches_finite_differences(self):
        rng = random.Random(1234)
        for _ in range(25):
            X, y, w, intercept, l2 = toy_problem(rng)

            def f(full):
                return logistic_loss(np.array(full[:-1]), full[-1], X, y, l2)

            grad_w, grad_b = logistic_gradient(w, intercept, X, y, l2)
            numeric = numeric_gradient(f, list(w) + [intercept], h=1e-5)
            analytic = list(grad_w) + [grad_b]
            worst = max(abs(a - n) for a, n in zip(analytic, numeric))
            assert worst < 1e-6

    def test_intercept_not_penalized(self):
        X = sparse.csr_matrix(np.zeros((3, 2)))
        y = np.array([1.0, 0.0, 1.0])
        w = np.zeros(2)
        # with zero features and zero weights, loss must not depend on l2
        assert logistic_loss(w, 5.0, X, y, 1000.0) == logistic_loss(w, 5.0, X, y, 0.0)
        _, grad_b = logistic_gradient(w, 5.0, X, y, 1000.0)
        _, grad_b2 = logistic_gradient(w, 5.0, X, y, 0.0)
        assert grad_b == grad_b2

    def test_loss_at_zero_weights_is_log2(self):
        X = sparse.csr_matrix(np.zeros((4, 3)))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        assert logistic_loss(np.zeros(3), 0.0, X, y, 0.0) == pytest.approx(math.log(2), rel=1e-15)

    def test_extreme_logits_do_not_overflow(self):
        X = sparse.csr_matrix(np.array([[1.0], [-1.0]]))
        y = np.array([0.0, 1.0])
        loss = logistic_loss(np.array([2000.0]), 0.0, X, y, 0.0)
        assert math.isfinite(loss)
        assert loss == pytest.approx(2000.0, rel=1e-12)


class TestTrainLr:
    def test_learns_separable_toy(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg, LrParams(l2=1e-4, epochs=300, learning_rate=0.5))
        for doc in pos:
            assert lr_logit(model, doc) > 0
        for doc in neg:
            assert lr_logit(model, doc) < 0

    def test_loss_nonincreasing_along_trajectory(self):
        pos, neg = make_training_corpora()
        docs = list(pos) + list(neg)
        y = np.array([1.0] * len(pos) + [0.0] * len(neg))
        params = LrParams(l2=1e-3, epochs=0, learning_rate=0.2)
        losses = []
        for epochs in range(0, 60, 5):
            model = train_lr(pos, neg, LrParams(l2=params.l2, epochs=epochs,
                                                learning_rate=params.learning_rate))
            X = _design_matrix(docs, model.vocabulary)
            losses.append(logistic_loss(model.weights[:-1], model.intercept,
                                        X, y, params.l2))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        pos, neg = make_training_corpora()
        m1 = train_lr(pos, neg)
        m2 = train_lr(pos, neg)
        assert m1.vocabulary == m2.vocabulary
        assert np.array_equal(m1.weights, m2.weights)

    def test_divergence_reported(self):
        # rate * l2 >> 2 makes the weight-decay step oscillate with
        # exponentially growing amplitude until the penalty overflows
        pos, neg = make_training_corpora()
        with np.errstate(over="ignore"):
            with pytest.raises(ValidationError, match="LR training diverged at epoch"):
                train_lr(pos, neg, LrParams(l2=1.0, epochs=200, learning_rate=1e9))

    @pytest.mark.parametrize("name,value", [
        ("l2", -1e-4), ("l2", math.nan), ("l2", math.inf),
        ("learning_rate", -0.5), ("learning_rate", math.nan), ("learning_rate", math.inf),
    ])
    def test_invalid_hyperparameters_rejected(self, name, value):
        pos, neg = make_training_corpora()
        with pytest.raises(ValidationError, match=f"{name} must be finite and >= 0"):
            train_lr(pos, neg, replace(LrParams(), **{name: value}))

    def test_empty_corpora_rejected(self):
        pos, neg = make_training_corpora()
        empty = corpus_from_texts([])
        with pytest.raises(ValidationError, match="non-empty"):
            train_lr(empty, neg)
        with pytest.raises(ValidationError, match="non-empty"):
            train_lr(pos, empty)


class TestDecision:
    def test_probability_matches_logit(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg)
        doc = pos.documents[0]
        z = lr_logit(model, doc) - model.threshold_bias
        assert predict_lr(model, doc) == pytest.approx(1 / (1 + math.exp(-z)), rel=1e-12)

    def test_decision_boundary_inclusive(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg)
        doc = pos.documents[0]
        tuned = calibrate_lr_threshold(model, neg, 0.2)
        assert lr_decision(tuned, doc) is (lr_logit(tuned, doc) >= tuned.threshold_bias)

    def test_threshold_calibration_bounds_fpr(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg)
        tuned = calibrate_lr_threshold(model, neg, 0.25)
        assert lr_measure_fpr(tuned, neg) <= 0.25


class TestLrPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        pos, neg = make_training_corpora()
        model = calibrate_lr_threshold(train_lr(pos, neg), neg, 0.25)
        path = tmp_path / "lr.txt"
        save_lr_model(model, path)
        loaded = load_lr_model(path)
        assert loaded.vocabulary == model.vocabulary
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.l2 == model.l2
        assert loaded.threshold_bias == model.threshold_bias
        # logits reproduce exactly
        for doc in list(pos) + list(neg):
            assert lr_logit(loaded, doc) == lr_logit(model, doc)

    def test_load_rejects_sparse_feature_ids(self, tmp_path):
        p = tmp_path / "lr.txt"
        p.write_text(
            "format_version 1\nl2 0\nthreshold_bias 0\n"
            "feat 0 aa 0.5\nfeat 2 bb 0.25\nintercept 0\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="dense and ascending"):
            load_lr_model(p)

    def test_load_rejects_missing_intercept(self, tmp_path):
        p = tmp_path / "lr.txt"
        p.write_text(
            "format_version 1\nl2 0\nthreshold_bias 0\nfeat 0 aa 0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="missing intercept"):
            load_lr_model(p)

    def test_load_rejects_bad_version(self, tmp_path):
        p = tmp_path / "lr.txt"
        p.write_text("format_version 2\nl2 0\nthreshold_bias 0\nintercept 0\n",
                     encoding="utf-8")
        with pytest.raises(ValidationError, match="unsupported header"):
            load_lr_model(p)

    @pytest.mark.parametrize("old,new", [
        ("l2 0", "l2 nan"),
        ("threshold_bias 0", "threshold_bias inf"),
        ("feat 0 aa 0.5", "feat 0 aa nan"),
        ("intercept 0", "intercept -inf"),
    ])
    def test_load_rejects_non_finite(self, tmp_path, old, new):
        p = tmp_path / "lr.txt"
        p.write_text(LR_FILE.replace(old, new), encoding="utf-8")
        with pytest.raises(ValidationError, match="must be finite"):
            load_lr_model(p)

    @pytest.mark.parametrize("token", ["", "a\tb", "a\u2028b"])
    def test_load_rejects_token_that_save_refuses(self, tmp_path, token):
        p = tmp_path / "lr.txt"
        p.write_text(LR_FILE.replace("feat 0 aa", f"feat 0 {token}"), encoding="utf-8")
        with pytest.raises(ValidationError, match="expected feat record"):
            load_lr_model(p)

    @pytest.mark.parametrize("token,weight,l2,threshold", [
        ("a b", 0.5, 0.0, 0.0),
        ("", 0.5, 0.0, 0.0),
        ("a\tb", 0.5, 0.0, 0.0),
        ("aa", math.nan, 0.0, 0.0),
        ("aa", 0.5, math.inf, 0.0),
        ("aa", 0.5, 0.0, -math.inf),
    ])
    def test_save_refuses_what_load_rejects(self, tmp_path, token, weight, l2, threshold):
        model = LrModel(vocabulary={token: 0}, weights=np.array([weight, 0.0]),
                        l2=l2, threshold_bias=threshold)
        with pytest.raises(ValidationError, match="cannot be saved"):
            save_lr_model(model, tmp_path / "lr.txt")
        assert not (tmp_path / "lr.txt").exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Any text without whitespace that UTF-8 can encode.
_TOKENS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
                  min_size=1, max_size=8)


class TestLrFileProperties:
    @given(tokens=st.lists(_TOKENS, unique=True, max_size=8), l2=_FINITE,
           threshold=_FINITE, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_load_of_save_is_identity(self, fuzz_file, tokens, l2, threshold, data):
        weights = data.draw(st.lists(_FINITE, min_size=len(tokens) + 1,
                                     max_size=len(tokens) + 1))
        model = LrModel(vocabulary={t: i for i, t in enumerate(tokens)},
                        weights=np.array(weights, dtype=np.float64),
                        l2=l2, threshold_bias=threshold)
        save_lr_model(model, fuzz_file)
        loaded = load_lr_model(fuzz_file)
        assert loaded.vocabulary == model.vocabulary
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.l2.hex() == l2.hex()
        assert loaded.threshold_bias.hex() == threshold.hex()

    @given(st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes_load_or_refuse(self, fuzz_file, data):
        fuzz_file.write_bytes(data)
        loads_or_refuses(load_lr_model, fuzz_file)

    @given(mutations(LR_FILE.encode("utf-8")))
    @settings(max_examples=300, deadline=None)
    def test_mutated_files_load_or_refuse(self, fuzz_file, mutated):
        fuzz_file.write_bytes(mutated)
        loads_or_refuses(load_lr_model, fuzz_file)
