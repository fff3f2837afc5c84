"""From-scratch logistic regression baseline.

Features are length-normalized bag-of-words counts (token count divided by
the document word count) over a vocabulary of tokens appearing in at least
two training documents. One vectorized pass builds a corpus's design matrix:
featurize maps every token of the corpus to its feature id at once, and
_design_matrix lays the ids out as CSR rows, adds up repeats and divides each
row by its word count. Training is full-batch gradient descent on the mean
logistic loss plus (l2/2)||w||^2 with the intercept unregularized: no
shuffling, no adaptive rates, so identical inputs give identical weights bit
for bit. Each epoch calls logistic_gradient and logistic_loss once; the loss
at the new weights and the next epoch's gradient share one product X @ w
(_EpochMatrix).

A corpus is scored as one product, _design_matrix(docs) @ w + intercept, the
same product training takes (lr_logit). A document is positive when its
logit is at or above the model's threshold_bias; stats.recall counts that
rule over a corpus, for the recall and the FPR alike.

numpy and scipy are imported inside the functions that use them, so that
`import entropy_classifier.cli` (which reaches this module through
experiments) stays free of the numeric stack and only exp2 loads it; the
public names stay bound here and in experiments, where the benchmark tracer
(perfbench/tracer.py) patches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import TYPE_CHECKING

from .calibration import threshold_for_scores
from .errors import ValidationError
from .stats import recall
from .text import Corpus, Document

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse

MIN_DF = 2


@dataclass(frozen=True, eq=False)
class LrModel:
    """Weights indexed by feature id; the intercept rides at weights[-1]."""

    vocabulary: dict[str, int]
    weights: np.ndarray  # length |vocabulary| + 1
    threshold_bias: float = 0.0

    @property
    def intercept(self) -> float:
        return float(self.weights[-1])


@dataclass(frozen=True)
class LrParams:
    l2: float = 1e-4
    epochs: int = 500
    learning_rate: float = 0.5


def build_vocabulary(docs) -> dict[str, int]:
    """Tokens present in >= MIN_DF training documents, ids in sorted order."""
    df: dict[str, int] = {}
    for doc in docs:
        for tok in set(doc.tokens):
            df[tok] = df.get(tok, 0) + 1
    kept = sorted(t for t, c in df.items() if c >= MIN_DF)
    return {t: i for i, t in enumerate(kept)}


def featurize(docs, vocab: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """(feature id of every token of the corpus in order, -1 when out of
    vocabulary; each document's word count)."""
    import numpy as np

    docs = list(docs)
    word_counts = np.fromiter((len(doc.tokens) for doc in docs), dtype=np.int64,
                              count=len(docs))
    ids = np.fromiter(map(vocab.get, chain.from_iterable(doc.tokens for doc in docs),
                          repeat(-1)),
                      dtype=np.int32, count=int(word_counts.sum()))
    return ids, word_counts


def _design_matrix(docs, vocab: dict[str, int]) -> sparse.csr_matrix:
    """Row i holds document i's normalized term frequencies: each in-vocabulary
    token's count divided by the document's word count (out-of-vocabulary
    tokens still count toward it), column indices sorted."""
    import numpy as np
    from scipy import sparse

    ids, word_counts = featurize(docs, vocab)
    known = ids >= 0
    # known_before[t]: the in-vocabulary tokens among the corpus's first t.
    known_before = np.zeros(len(ids) + 1, dtype=np.int32)
    np.cumsum(known, out=known_before[1:])
    starts = np.zeros(len(word_counts) + 1, dtype=np.int64)
    np.cumsum(word_counts, out=starts[1:])
    X = sparse.csr_matrix(
        (np.ones(known_before[-1], dtype=np.int32), ids[known], known_before[starts]),
        shape=(len(word_counts), len(vocab)),
    )
    # Sorts each row's ids and adds up repeats, so data holds exact counts
    # and the division below is the division c / n.
    X.sum_duplicates()
    X.data = X.data / np.repeat(word_counts, np.diff(X.indptr))
    return X


def _sigmoid_vec(z: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(w: np.ndarray, intercept: float, X: sparse.csr_matrix,
                  y: np.ndarray, l2: float) -> float:
    """Mean logistic loss + (l2/2)||w||^2, intercept excluded from the penalty."""
    import numpy as np

    z = X @ w + intercept
    # log(1 + e^-z) and log(1 + e^z) via logaddexp for overflow safety
    per_sample = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    return float(np.mean(per_sample) + 0.5 * l2 * float(w @ w))


def logistic_gradient(w: np.ndarray, intercept: float, X: sparse.csr_matrix,
                      y: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
    """Gradient of logistic_loss wrt (w, intercept)."""
    import numpy as np

    z = X @ w + intercept
    residual = _sigmoid_vec(z) - y
    grad_w = (X.T @ residual) / len(y) + l2 * w
    grad_b = float(np.mean(residual))
    return grad_w, grad_b


class _EpochMatrix:
    """train_lr's design matrix as logistic_loss and logistic_gradient use it:
    X.T is transposed once, and the last product X @ w is kept for as long as
    w is the same array. The loop binds a new w every epoch and never writes
    into one, so the loss at w and the next epoch's gradient at w share one
    product."""

    def __init__(self, X: sparse.csr_matrix):
        self._X = X
        self.T = X.T.tocsr()
        self._w = None
        self._product = None

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        if w is not self._w:
            self._w, self._product = w, self._X @ w
        return self._product


def train_lr(positives: Corpus, negatives: Corpus, params: LrParams = LrParams()) -> LrModel:
    """Full-batch gradient descent from zero weights for a fixed epoch count.

    A diverging run overflows silently and is reported once, as a
    ValidationError, when its loss is no longer finite.
    """
    import numpy as np

    if len(positives) == 0 or len(negatives) == 0:
        raise ValidationError("LR training needs non-empty positive and negative corpora")
    if params.epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {params.epochs}")
    for name in ("l2", "learning_rate"):
        value = getattr(params, name)
        # A negative rate would climb the loss; nan/inf only diverge.
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    docs = list(positives) + list(negatives)
    y = np.concatenate([
        np.ones(len(positives), dtype=np.float64),
        np.zeros(len(negatives), dtype=np.float64),
    ])
    vocab = build_vocabulary(docs)
    X = _EpochMatrix(_design_matrix(docs, vocab))
    w = np.zeros(len(vocab), dtype=np.float64)
    intercept = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            grad_w, grad_b = logistic_gradient(w, intercept, X, y, params.l2)
            w = w - params.learning_rate * grad_w
            intercept = intercept - params.learning_rate * grad_b
            loss = logistic_loss(w, intercept, X, y, params.l2)
            if not math.isfinite(loss):
                raise ValidationError(
                    f"LR training diverged at epoch {epoch + 1} (loss is not finite); "
                    "try a smaller learning rate"
                )
    return LrModel(
        vocabulary=vocab,
        weights=np.append(w, intercept),
        threshold_bias=0.0,
    )


def lr_logit(model: LrModel, docs) -> list[float]:
    """Pre-threshold linear score w . x + intercept of each document, in order."""
    X = _design_matrix(docs, model.vocabulary)
    return (X @ model.weights[:-1] + model.intercept).tolist()


def lr_decision(model: LrModel, doc: Document) -> bool:
    return lr_logit(model, [doc])[0] >= model.threshold_bias


def calibrate_lr_threshold(model: LrModel, negatives: Corpus,
                           target_fpr: float) -> tuple[LrModel, float]:
    """Threshold the logits with the same tight FPR rule the knowledge-based
    bias uses: (thresholded model, achieved FPR on the negatives)."""
    bias, achieved = threshold_for_scores(lr_logit(model, negatives), target_fpr)
    return replace(model, threshold_bias=bias), achieved


def lr_measure_fpr(model: LrModel, negatives: Corpus) -> float:
    return recall(lr_logit(model, negatives), model.threshold_bias)
