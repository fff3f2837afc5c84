import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from entropy_classifier.errors import ValidationError
from entropy_classifier.logreg import (
    LrParams,
    _design_matrix,
    build_vocabulary,
    calibrate_lr_threshold,
    featurize,
    logistic_gradient,
    logistic_loss,
    lr_decision,
    lr_logit,
    lr_measure_fpr,
    train_lr,
)
from entropy_classifier.text import Document, corpus_from_texts

from oracles import numeric_gradient


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
    def test_decision_boundary_inclusive(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg)
        doc = pos.documents[0]
        tuned, _ = calibrate_lr_threshold(model, neg, 0.2)
        assert lr_decision(tuned, doc) is (lr_logit(tuned, doc) >= tuned.threshold_bias)

    def test_threshold_calibration_bounds_fpr(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg)
        tuned, achieved = calibrate_lr_threshold(model, neg, 0.25)
        assert lr_measure_fpr(tuned, neg) == achieved
        assert achieved <= 0.25
