"""From-scratch logistic regression baseline.

Features are length-normalized bag-of-words counts (token count divided by
the document word count) over a vocabulary of tokens appearing in at least
two training documents. A corpus is encoded once (_encode): the sorted table
of its distinct tokens and, through featurize, a CSR matrix of each
document's exact count of each table token, whose entries also give the df.
exp2 encodes its background and negatives once and passes them in; a plain
corpus is encoded on the way in. build_vocabulary adds up the dfs of its
corpora, and _design_matrix remaps the table ids to feature ids and divides
each row by its word count. Training is full-batch gradient descent on the
mean logistic loss plus (l2/2)||w||^2 with the intercept unregularized: no
shuffling, no adaptive rates, so identical inputs give identical weights bit
for bit. An epoch is one logistic_gradient call, two sparse products X @ w
and X.T @ r (_EpochMatrix): X.T is a CSC view of X when features outnumber
documents (as exp2's few positives make it on real text), else a CSR
transpose made once. logistic_loss runs only when a bound on the new weights
(_loss_surely_finite) cannot rule out divergence. The loss takes one
logaddexp per row, its sign set by the 0/1 label, the sigmoid one exp(-|z|).

A corpus is scored as one product, _design_matrix(docs) @ w + intercept, the
same product training takes (lr_logit), with the docs encoded straight over
the model's vocabulary: its ids already form a sorted table. A document is
positive when its logit is at or above the model's threshold_bias;
stats.recall counts that rule over a corpus, for the recall and the FPR alike.

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


@dataclass(frozen=True, eq=False)
class _Encoded:
    """A corpus encoded once: a sorted token table (its own distinct tokens,
    or a vocabulary's), row i's count of each (column = table id, sorted),
    and each row's word count."""

    table: list[str]
    counts: sparse.csr_matrix
    word_counts: np.ndarray

    def __len__(self) -> int:
        return len(self.word_counts)


def _encode(docs, vocab: dict[str, int] | None = None) -> _Encoded:
    """docs encoded over vocab, whose ids follow its order (by default over
    all of their tokens), or docs itself when it already is encoded."""
    import numpy as np
    from scipy import sparse

    if isinstance(docs, _Encoded):
        return docs
    docs = list(docs)
    if vocab is None:
        table = sorted(set(chain.from_iterable(doc.tokens for doc in docs)))
        vocab = dict(zip(table, range(len(table))))
    ids, word_counts = featurize(docs, vocab)
    # Out-of-vocabulary ids (-1) are dropped; row i keeps its word count.
    known = ids >= 0
    ends = np.concatenate([[0], np.cumsum(known)])[np.concatenate([[0], np.cumsum(word_counts)])]
    counts = sparse.csr_matrix((np.ones(ends[-1], dtype=np.int32), ids[known], ends),
                               shape=(len(word_counts), len(vocab)))
    # One sort of the (document, id) keys; adding up repeats gives exact counts,
    # kept in the smallest unsigned type that holds them.
    counts.sum_duplicates()
    counts.data = counts.data.astype(np.min_scalar_type(counts.data.max(initial=0)))
    return _Encoded(list(vocab), counts, word_counts)


def build_vocabulary(*corpora) -> dict[str, int]:
    """Tokens present in >= MIN_DF documents of the corpora together, ids in
    sorted order."""
    import numpy as np

    df: dict[str, int] = {}
    for corpus in map(_encode, corpora):
        # Each (document, token) pair is one entry of the count matrix.
        for tok, n in zip(corpus.table, np.bincount(corpus.counts.indices,
                                                    minlength=len(corpus.table)).tolist()):
            df[tok] = df.get(tok, 0) + n
    kept = sorted(t for t, n in df.items() if n >= MIN_DF)
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

    corpus = _encode(docs)
    # The table ids remapped to feature ids, -1 when out of vocabulary.
    columns = np.fromiter(map(vocab.get, corpus.table, repeat(-1)), dtype=np.int32,
                          count=len(corpus.table))[corpus.counts.indices]
    known = columns >= 0
    # Row i ends after the in-vocabulary entries among the counts' first indptr[i].
    indptr = np.concatenate([[0], np.cumsum(known)])[corpus.counts.indptr]
    # Exact counts, so this is the division c / n.
    data = corpus.counts.data[known] / np.repeat(corpus.word_counts, np.diff(indptr))
    X = sparse.csr_matrix((data, columns[known], indptr), shape=(len(corpus), len(vocab)))
    # A no-op check when the ids follow the sorted table, as build_vocabulary's do.
    X.sort_indices()
    return X


def _sigmoid_vec(z: np.ndarray) -> np.ndarray:
    import numpy as np

    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: e never overflows.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_loss(w: np.ndarray, intercept: float, X: sparse.csr_matrix,
                  y: np.ndarray, l2: float) -> float:
    """Mean logistic loss (0/1 labels y) + (l2/2)||w||^2, intercept unpenalized."""
    import numpy as np

    z = X @ w + intercept
    # log(1 + e^-z) where y = 1 and log(1 + e^z) where y = 0, overflow-safe
    per_sample = np.logaddexp(0.0, (1.0 - 2.0 * y) * z)
    # sum / n is np.mean's arithmetic without its per-call overhead.
    return float(per_sample.sum() / len(y) + 0.5 * l2 * float(w @ w))


def logistic_gradient(w: np.ndarray, intercept: float, X: sparse.csr_matrix,
                      y: np.ndarray, l2: float) -> tuple[np.ndarray, float]:
    """Gradient of logistic_loss wrt (w, intercept)."""
    import numpy as np

    z = X @ w + intercept
    residual = _sigmoid_vec(z) - y
    grad_w = (X.T @ residual) / len(y) + l2 * w
    grad_b = float(residual.sum() / len(y))
    return grad_w, grad_b


class _EpochMatrix:
    """train_lr's design matrix as logistic_gradient uses it. T is scipy's
    CSC view of X's own arrays when features outnumber documents (a scatter
    over documents), else one CSR copy of X.T (a sum per feature): each adds a
    feature's terms in document order from 0.0, so both give the same bits."""

    def __init__(self, X: sparse.csr_matrix):
        self._X = X
        self.T = X.T if X.shape[1] > X.shape[0] else X.T.tocsr()

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        return self._X @ w


def _loss_surely_finite(w: np.ndarray, intercept: float, n: int, l2: float) -> bool:
    """True when logistic_loss at (w, intercept) is finite on any n rows of _design_matrix
    (entries >= 0, each row's sum <= 1): |z| <= |intercept| + sqrt(w . w), a row's loss is
    at most |z| + ln 2, and a nan or inf fails both tests. False decides nothing."""
    ww = float(w @ w)
    return abs(intercept) + math.sqrt(ww) < 1e299 / n and 0.5 * l2 * ww < 1e300


def train_lr(positives: Corpus, negatives: Corpus, params: LrParams = LrParams()) -> LrModel:
    """Full-batch gradient descent from zero weights for a fixed epoch count.

    A diverging run overflows silently and is reported once, as a
    ValidationError, at the first epoch whose loss is not finite.
    """
    import numpy as np
    from scipy import sparse

    if len(positives) == 0 or len(negatives) == 0:
        raise ValidationError("LR training needs non-empty positive and negative corpora")
    if params.epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {params.epochs}")
    for name in ("l2", "learning_rate"):
        value = getattr(params, name)
        # A negative rate would climb the loss; nan/inf only diverge.
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    positives, negatives = _encode(positives), _encode(negatives)
    y = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    vocab = build_vocabulary(positives, negatives)
    X = _EpochMatrix(sparse.vstack([_design_matrix(positives, vocab),
                                    _design_matrix(negatives, vocab)], format="csr"))
    w = np.zeros(len(vocab), dtype=np.float64)
    intercept = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(params.epochs):
            grad_w, grad_b = logistic_gradient(w, intercept, X, y, params.l2)
            w = w - params.learning_rate * grad_w
            intercept = intercept - params.learning_rate * grad_b
            if (not _loss_surely_finite(w, intercept, len(y), params.l2)
                    and not math.isfinite(logistic_loss(w, intercept, X, y, params.l2))):
                raise ValidationError(
                    f"LR training diverged at epoch {epoch + 1} (loss is not finite); "
                    "try a smaller learning rate"
                )
    return LrModel(vocab, np.append(w, intercept))


def lr_logit(model: LrModel, docs) -> list[float]:
    """Pre-threshold linear score w . x + intercept of each document, in order."""
    X = _design_matrix(_encode(docs, model.vocabulary), model.vocabulary)
    return (X @ model.weights[:-1] + model.intercept).tolist()


def lr_decision(model: LrModel, doc: Document) -> bool:
    return lr_logit(model, [doc])[0] >= model.threshold_bias


def calibrate_lr_threshold(model: LrModel, negatives: Corpus,
                           target_fpr: float) -> tuple[LrModel, float]:
    """Threshold the logits with the same tight FPR rule the knowledge-based
    bias uses: (thresholded model, achieved FPR on the negatives)."""
    bias, achieved = threshold_for_scores(lr_logit(model, negatives), target_fpr)
    return replace(model, threshold_bias=bias), achieved


def lr_measure_fpr(model: LrModel, corpus: Corpus) -> float:
    """Fraction of the corpus the model classifies positive: the FPR of
    negatives, the recall of positives."""
    return recall(lr_logit(model, corpus), model.threshold_bias)
