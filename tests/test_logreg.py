import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from entropy_classifier import logreg
from entropy_classifier.errors import ValidationError
from entropy_classifier.logreg import (
    LrModel,
    LrParams,
    _design_matrix,
    _EpochMatrix,
    _loss_surely_finite,
    _sigmoid_vec,
    build_vocabulary,
    calibrate_lr_threshold,
    logistic_gradient,
    logistic_loss,
    lr_decision,
    lr_logit,
    lr_measure_fpr,
    train_lr,
)
from entropy_classifier.text import Document, corpus_from_texts

from oracles import (
    naive_featurize,
    naive_logit,
    numeric_gradient,
    two_branch_sigmoid,
    two_term_logistic_loss,
)


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


def design_row(doc, vocab):
    """The package's features of one document, as {feature id: value}."""
    X = _design_matrix([doc], vocab)
    return dict(zip(X.indices.tolist(), X.data.tolist()))


def train_lr_reference(positives, negatives, params):
    """train_lr's descent written out: the public gradient on the bare CSR
    matrix, nothing kept between calls, and the two-term loss of the oracle
    deciding divergence. (weights, None), or (None, the epoch whose loss was
    first not finite)."""
    docs = list(positives) + list(negatives)
    y = np.array([1.0] * len(positives) + [0.0] * len(negatives))
    X = _design_matrix(docs, build_vocabulary(docs))
    w = np.zeros(X.shape[1])
    intercept = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            grad_w, grad_b = logistic_gradient(w, intercept, X, y, params.l2)
            w = w - params.learning_rate * grad_w
            intercept = intercept - params.learning_rate * grad_b
            if not math.isfinite(two_term_logistic_loss(X @ w + intercept, y, w, params.l2)):
                return None, epoch + 1
    return np.append(w, intercept), None


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


def make_tall_corpora():
    """40 documents over 6 features."""
    rng = random.Random(17)
    pos = corpus_from_texts([" ".join(rng.choices(["good", "great", "fine", "pick"], k=6))
                             for _ in range(20)], source="<pos>")
    neg = corpus_from_texts([" ".join(rng.choices(["bad", "awful", "fine", "pick"], k=6))
                             for _ in range(20)], source="<neg>")
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
        assert naive_featurize(doc.tokens, vocab) == {0: 2 / 4, 1: 1 / 4}
        assert design_row(doc, vocab) == {0: 2 / 4, 1: 1 / 4}

    def test_featurize_empty_doc(self):
        doc = Document.from_text("d", "!!!")
        assert naive_featurize(doc.tokens, {"a": 0}) == {}
        assert design_row(doc, {"a": 0}) == {}

    def test_oov_tokens_dropped_but_still_normalize(self):
        vocab = {"a": 0}
        doc = Document.from_text("d", "a z z z")
        assert naive_featurize(doc.tokens, vocab) == {0: 1 / 4}
        assert design_row(doc, vocab) == {0: 1 / 4}

    @settings(max_examples=200, deadline=None)
    @given(words=st.lists(st.sampled_from("abcdef"), unique=True),
           texts=st.lists(st.lists(st.sampled_from("abcdefz"), max_size=30), max_size=8))
    @example(words=[], texts=[])
    @example(words=["a"], texts=[])
    @example(words=[], texts=[["a", "b"], []])
    @example(words=["c", "a"], texts=[[], ["z", "z"], ["a", "c", "a", "z", "a"]])
    @example(words=["a"], texts=[["a"] * 300 + ["z"]])
    def test_design_matrix_equals_rows_of_the_oracle(self, words, texts):
        # Feature ids in arbitrary token order, so the rows must be sorted.
        vocab = {t: i for i, t in enumerate(words)}
        docs = [Document.from_text(f"d{i}", " ".join(t)) for i, t in enumerate(texts)]
        indptr, indices, data = [0], [], []
        for doc in docs:
            row = naive_featurize(doc.tokens, vocab)
            indices.extend(row)
            data.extend(row.values())
            indptr.append(len(indices))
        X = _design_matrix(docs, vocab)
        assert X.shape == (len(docs), len(vocab))
        assert X.indptr.tolist() == indptr
        assert X.indices.tolist() == indices
        assert [v.hex() for v in X.data.tolist()] == [v.hex() for v in data]


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


SCALES = [10.0 ** k for k in range(-300, 301, 15)]


class TestKernelsEqualTheirReferenceForms:
    def test_sigmoid_equals_the_two_branch_form(self):
        rng = np.random.default_rng(11)
        z = np.concatenate([
            [math.inf, -math.inf, math.nan, 0.0, -0.0],
            *(rng.standard_normal(50) * scale for scale in SCALES),
        ])
        got, want = _sigmoid_vec(z), two_branch_sigmoid(z)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        # Bit for bit wherever a number comes out (a nan's sign means nothing).
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e30, 1e150, 1e300])
    def test_loss_equals_the_two_term_form(self, scale):
        # Exact for 0/1 labels and finite logits: each row's other term is
        # 0 * (a finite logaddexp), which adds exactly zero.
        rng = np.random.default_rng(int(math.log10(scale)) + 400)
        for _ in range(20):
            n_rows, n_features = int(rng.integers(1, 40)), int(rng.integers(1, 8))
            X = sparse.random(n_rows, n_features, density=0.6, format="csr", rng=rng,
                              data_rvs=lambda n: rng.uniform(-1, 1, n))
            y = rng.permutation(np.arange(n_rows) % 2).astype(np.float64)
            w = rng.standard_normal(n_features) * scale
            intercept = float(rng.standard_normal() * scale)
            l2 = float(rng.choice([0.0, 1e-4, 0.5]))
            with np.errstate(over="ignore", invalid="ignore"):
                got = logistic_loss(w, intercept, X, y, l2)
                z = X @ w + intercept
                want = two_term_logistic_loss(z, y, w, l2)
            assert np.isfinite(z).all()
            assert got == want or (math.isnan(got) and math.isnan(want))


@st.composite
def transpose_cases(draw):
    """(matrix shape, {(row, column): non-zero value}, residual vector)."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(0, 12))
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
        st.floats(-1e3, 1e3, allow_nan=False).filter(bool),
        max_size=n_rows * n_cols)) if n_cols else {}
    residual = draw(st.lists(st.floats(-1e300, 1e300, allow_nan=False),
                             min_size=n_rows, max_size=n_rows))
    return (n_rows, n_cols), cells, residual


class TestEpochMatrixTranspose:
    @settings(max_examples=300, deadline=None)
    @given(transpose_cases())
    @example(((3, 7), {(0, 1): 0.5, (2, 6): 0.25}, [0.5, -1.5, 2.0]))
    @example(((7, 3), {(1, 0): 0.5, (6, 2): 0.25}, [0.5, -1.5, 2.0, 0.0, -0.0, 1e-310, 3.0]))
    @example(((4, 4), {(0, 0): 1.0, (3, 3): 0.5, (3, 0): 0.125}, [0.1, 0.2, 0.3, 0.4]))
    @example(((5, 0), {}, [1.0, 2.0, 3.0, 4.0, 5.0]))
    @example(((1, 6), {}, [-1.0]))
    def test_product_equals_the_csr_transpose(self, case):
        # Wide matrices take the CSC view, tall and square ones the CSR copy;
        # either must add each feature's terms in the order the CSR copy does.
        # A dense array's CSR is canonical: sorted, no duplicates or zeros.
        shape, cells, residual = case
        dense = np.zeros(shape)
        for (i, j), v in cells.items():
            dense[i, j] = v
        X, r = sparse.csr_matrix(dense), np.array(residual)
        T = _EpochMatrix(X).T
        assert (T.format == "csc") == (shape[1] > shape[0])
        assert (T @ r).tobytes() == (X.T.tocsr() @ r).tobytes()


def _magnitudes():
    """Every scale of float, the bound's 1e299 / n among them, +-inf and nan."""
    finite = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-320, 308))
    return st.one_of(finite, st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]))


@st.composite
def bound_cases(draw):
    """(design matrix, labels, weights, intercept, l2): the matrix comes from
    _design_matrix over drawn documents and a vocabulary that may be empty.
    An l2 of 1e10 lets the penalty overflow while the logits stay finite."""
    vocab = {t: i for i, t in enumerate(draw(st.lists(st.sampled_from("abcd"), unique=True)))}
    texts = draw(st.lists(st.lists(st.sampled_from("abcdz"), max_size=12), min_size=1,
                          max_size=6))
    X = _design_matrix([Document.from_text(f"d{i}", " ".join(t)) for i, t in enumerate(texts)],
                       vocab)
    n = X.shape[0]
    near_bound = st.floats(0.25, 1.5).map(lambda f: f * 1e299 / n)
    value = st.one_of(_magnitudes(), near_bound, near_bound.map(lambda v: -v))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(value, min_size=len(vocab), max_size=len(vocab))), dtype=float)
    return X, y, w, draw(value), draw(st.sampled_from([0.0, 1e-4, 1.0, 1e10]))


def one_word_case(w, intercept, l2):
    """A single document "a" over the vocabulary {a}: its row is [1.0], so
    its logit is w[0] + intercept exactly."""
    X = _design_matrix([Document.from_text("d", "a")], {"a": 0})
    return X, np.array([0.0]), np.array([w]), intercept, l2


class TestLossBound:
    @settings(max_examples=500, deadline=None)
    @given(bound_cases())
    # Just under the bound, in the intercept and in the penalty.
    @example(one_word_case(0.0, -math.nextafter(1e299, 0), 1.0))
    @example(one_word_case(math.sqrt(1.99e300), 0.0, 1.0))
    # A weight past about 1.3e154 overflows w . w, which fails the bound.
    @example(one_word_case(math.nextafter(1e299, 0), 0.0, 0.0))
    @example(one_word_case(0.5e299, 0.49e299, 0.0))
    # Only the penalty overflows.
    @example(one_word_case(1e150, 0.0, 1e10))
    @example(one_word_case(math.nan, 0.0, 0.0))
    @example(one_word_case(0.0, math.inf, 1e-4))
    def test_a_passing_bound_means_a_finite_loss(self, case):
        X, y, w, intercept, l2 = case
        with np.errstate(over="ignore", invalid="ignore"):
            if _loss_surely_finite(w, intercept, len(y), l2):
                assert math.isfinite(logistic_loss(w, intercept, X, y, l2))

    def test_a_failing_bound_leaves_the_decision_to_the_loss(self):
        # Past the bound but finite: the logit is 1e300 and the loss 1e300.
        X, y, w, intercept, l2 = one_word_case(0.0, 1e300, 0.0)
        assert not _loss_surely_finite(w, intercept, len(y), l2)
        assert logistic_loss(w, intercept, X, y, l2) == 1e300


def counting(monkeypatch, name):
    """Replace logreg.<name> with a wrapper that counts its calls."""
    calls = []
    inner = getattr(logreg, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(logreg, name, wrapper)
    return calls


class TestEpochCalls:
    """The benchmark tracer counts epochs by patching logreg.logistic_gradient
    and times the loss by patching logreg.logistic_loss."""

    def test_one_gradient_and_no_loss_per_converging_epoch(self, monkeypatch):
        gradients, losses = (counting(monkeypatch, n)
                             for n in ("logistic_gradient", "logistic_loss"))
        pos, neg = make_training_corpora()
        train_lr(pos, neg, LrParams(epochs=25))
        assert (len(gradients), len(losses)) == (25, 0)

    def test_a_diverging_run_computes_the_loss_and_stops_at_its_epoch(self, monkeypatch):
        pos, neg = make_training_corpora()
        params = LrParams(l2=1.0, epochs=200, learning_rate=1e9)
        _, epoch = train_lr_reference(pos, neg, params)
        gradients, losses = (counting(monkeypatch, n)
                             for n in ("logistic_gradient", "logistic_loss"))
        with pytest.raises(ValidationError, match=rf"diverged at epoch {epoch} \("):
            train_lr(pos, neg, params)
        assert len(gradients) == epoch
        assert 1 <= len(losses) <= epoch


class TestTrainLr:
    def test_learns_separable_toy(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg, LrParams(l2=1e-4, epochs=300, learning_rate=0.5))
        assert all(z > 0 for z in lr_logit(model, pos))
        assert all(z < 0 for z in lr_logit(model, neg))

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

    @pytest.mark.parametrize("params", [
        LrParams(),
        LrParams(epochs=0),
        LrParams(epochs=1),
        LrParams(l2=0.0, epochs=40, learning_rate=4.0),
        LrParams(l2=0.3, epochs=25, learning_rate=0.05),
    ])
    def test_weights_equal_the_plain_loop(self, params):
        # train_lr computes each X @ w afresh and decides divergence from a
        # bound that only reads the weights: a product reused across an
        # update, or a bound check that wrote into w, would change the
        # weights. Its X.T is a CSC view of a wide matrix (the toy) and a CSR
        # transpose of a tall one, while the reference always takes the bare
        # matrix's CSC view: both layouts must give the same bits.
        for make, shape in [(make_training_corpora, (8, 11)), (make_tall_corpora, (40, 6))]:
            pos, neg = make()
            docs = list(pos) + list(neg)
            assert _design_matrix(docs, build_vocabulary(docs)).shape == shape
            want, diverged = train_lr_reference(pos, neg, params)
            assert diverged is None
            assert np.array_equal(train_lr(pos, neg, params).weights, want), make.__name__

    def test_divergence_reported(self):
        # The one-logaddexp loss must stop being finite at the epoch where the
        # two-term form does.
        pos, neg = make_training_corpora()
        for params in [
            # rate * l2 >> 2 makes the weight-decay step oscillate with
            # exponentially growing amplitude until the penalty overflows
            LrParams(l2=1.0, epochs=200, learning_rate=1e9),
            # no penalty: the first step's weights overflow w @ w, and 0 * inf is nan
            LrParams(l2=0.0, epochs=200, learning_rate=1e160),
            LrParams(l2=0.0, epochs=200, learning_rate=1e300),
            LrParams(l2=1e-4, epochs=200, learning_rate=1e200),
        ]:
            _, epoch = train_lr_reference(pos, neg, params)
            assert epoch is not None
            with pytest.raises(ValidationError,
                               match=rf"LR training diverged at epoch {epoch} \("):
                train_lr(pos, neg, params)

    @pytest.mark.parametrize("name,value", [
        ("l2", -1e-4), ("l2", math.nan), ("l2", math.inf),
        ("learning_rate", -0.5), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("epochs", -1),
    ])
    def test_invalid_hyperparameters_rejected(self, name, value):
        pos, neg = make_training_corpora()
        message = "epochs must be >= 0" if name == "epochs" else f"{name} must be finite and >= 0"
        with pytest.raises(ValidationError, match=message):
            train_lr(pos, neg, replace(LrParams(), **{name: value}))

    def test_empty_corpora_rejected(self):
        pos, neg = make_training_corpora()
        empty = corpus_from_texts([])
        with pytest.raises(ValidationError, match="non-empty"):
            train_lr(empty, neg)
        with pytest.raises(ValidationError, match="non-empty"):
            train_lr(pos, empty)


class TestLogit:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_corpus_logits_equal_per_document_formula(self, data):
        # The one matrix product gives, bit for bit, each document's
        # left-to-right sum over its features plus the intercept.
        vocab = {t: i for i, t in enumerate(data.draw(
            st.lists(st.sampled_from("abcdef"), unique=True), label="vocabulary"))}
        weights = data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=len(vocab) + 1, max_size=len(vocab) + 1), label="weights")
        texts = data.draw(st.lists(
            st.lists(st.sampled_from("abcdefz"), max_size=30).map(" ".join), max_size=8),
            label="documents")
        model = LrModel(vocabulary=vocab, weights=np.array(weights))
        docs = [Document.from_text(f"d{i}", text) for i, text in enumerate(texts)]
        got = lr_logit(model, docs)
        want = [naive_logit(model.weights, model.intercept, naive_featurize(d.tokens, vocab))
                for d in docs]
        assert [z.hex() for z in got] == [z.hex() for z in want]


class TestDecision:
    def test_decision_boundary_inclusive(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg)
        doc = pos.documents[0]
        tuned, _ = calibrate_lr_threshold(model, neg, 0.2)
        [z] = lr_logit(tuned, [doc])
        assert lr_decision(tuned, doc) is (z >= tuned.threshold_bias)
        assert lr_decision(replace(tuned, threshold_bias=z), doc) is True
        assert lr_decision(replace(tuned, threshold_bias=math.nextafter(z, math.inf)),
                           doc) is False

    def test_threshold_calibration_bounds_fpr(self):
        pos, neg = make_training_corpora()
        model = train_lr(pos, neg)
        tuned, achieved = calibrate_lr_threshold(model, neg, 0.25)
        assert lr_measure_fpr(tuned, neg) == achieved
        assert achieved <= 0.25
