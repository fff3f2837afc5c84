"""Document scoring: abundance, diversity, standardization, decision.

The raw score of a document is

    s = S * (sum_w tf_w * idf_w) / L

where L = max(k, word count) regularizes short documents, and S is the
Shannon entropy (nats) of the keyword match distribution p_w = tf_w / total.
S vanishes when zero or one keyword species matched, so repeating a single
keyword cannot push a document over the threshold no matter how often it
appears. The standardized score is shifted by the model bias and squashed
through a sigmoid; positive classification means y >= 0.5, equivalently
standardized >= bias.

This module is the only place a document is scored. The private kernel
_score_profile is the only code that computes the raw score: it reads one
match profile once, in ascending keyword id order, and returns L, the
per-keyword contributions, tfidf_over_L, the entropy (through _entropy, the
one entropy formula, which the checked public shannon_entropy also calls) and
the raw score. Its tfidf_over_L column is the abundance-only raw score of
experiment 1's ablation, which exists only inside that experiment
(experiments.run_experiment1). Both sums are explicit left folds from 0.0, so
a score has the same bits on every supported Python. _standardize is the one
(raw - mu) / sigma expression, so the bulk path, predict and experiment 1
cannot differ by an ulp at the calibrated bias.

standardized_scores is the bulk path (calibrate, evaluate and experiment 2's
recalls): it checks only the glossary (a model checks its own fields, see
model.py), once, then runs the kernel and _standardize per document and
builds no ScoreBreakdown. raw_score (public name score_document) serves the
score command and --explain: it runs the kernel and predict, which
standardizes a raw score and decides it, and builds one complete
ScoreBreakdown per document, an immutable named tuple (a frozen dataclass
costs several times as much to build); score_corpus checks the glossary once
and calls raw_score for each document as it is read. Both paths compare the
model against the glossary's cached digest (see glossary.py), and read a
corpus, which may be a one-pass stream, to its end before they report a
mismatch, so a read error in it comes first. The bulk path reads the corpus's
(word count, match profile) list from glossary.match_corpus, so a corpus that
training or calibration already matched costs no second match; raw_score
matches its one document with glossary.match.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .errors import ValidationError
from .glossary import Glossary, MatchProfile, match, match_corpus
from .model import BackgroundModel
from .text import Document, Documents


def _entropy(p) -> float:
    """The entropy formula, -sum p ln p in nats over a sequence of
    probabilities (0 ln 0 := 0), unchecked. A single p = 1 gives -0.0."""
    # A left fold, not sum(): since Python 3.12 sum() of floats is compensated,
    # which would change the last bits of a score between Python versions.
    total = 0.0
    for v in p:
        if v > 0.0:
            total += v * math.log(v)
    return -total if p else 0.0


def shannon_entropy(p: dict[int, float]) -> float:
    """-sum p ln p in nats over a probability map (0 ln 0 := 0)."""
    if not p:
        return 0.0
    total = 0.0
    for v in p.values():
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"probabilities must be finite and >= 0, got {v!r}")
        total += v
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
    return _entropy(p.values())


def sigmoid(z: float) -> float:
    # Split on sign so exp never overflows.
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class ScoreBreakdown(NamedTuple):
    """Full explainable trace of one document's score: raw_score is entropy
    times tfidf_over_L exactly. (tfidf_over_L alone is experiment 1's
    ablation score, which no model or breakdown carries.)"""

    doc_id: str
    word_count: int
    effective_length: int
    tf: MatchProfile
    per_keyword: dict[int, float]
    tfidf_over_L: float
    entropy: float
    raw_score: float
    standardized: float
    probability: float
    positive: bool


def _check_digest(glossary: Glossary, model: BackgroundModel, corpus=None) -> None:
    if glossary.cached_digest != model.glossary_digest:
        if corpus is not None:  # read to its end: a read error in it comes first
            match_corpus(glossary, corpus)
        raise ValidationError("model was trained for a different glossary")


def _score_profile(tf: MatchProfile, word_count: int, idf: dict[int, float], k: int):
    """The scoring kernel: (L, per_keyword, tfidf_over_L, entropy, raw score).

    The only code that computes the raw score. Plain values, no breakdown
    object. A profile with no match returns at once: an empty dict and +0.0
    for each sum, as the loop gives. Otherwise it reads tf once, in the
    ascending id order that MatchProfile guarantees, so every sum runs over
    ascending keyword ids. L >= k >= 1 and every matched id has an idf:
    model.py checks both; raw_score and standardized_scores check the
    glossary, and training derives idf from the glossary it matches with.
    """
    L = max(k, word_count)
    if not tf.total_matches:
        return L, {}, 0.0, 0.0, 0.0  # what the folds below give, +0.0 each
    contributions = {}
    tfidf_over_L = 0.0  # a left fold, as in _entropy
    for kid, n in tf.tf.items():
        contributions[kid] = c = n * idf[kid] / L
        tfidf_over_L += c
    total = tf.total_matches
    # Probabilities built from positive counts need none of shannon_entropy's checks.
    entropy = _entropy([n / total for n in tf.tf.values()])
    return L, contributions, tfidf_over_L, entropy, entropy * tfidf_over_L


def _standardize(raw: float, mu: float, sigma: float) -> float:
    return (raw - mu) / sigma


def predict(raw: float, model: BackgroundModel) -> tuple[float, float, bool]:
    """(standardized score, probability, decision) of a raw score."""
    s_hat = _standardize(raw, model.mu, model.sigma)
    return s_hat, sigmoid(s_hat - model.bias), s_hat >= model.bias


def raw_score(doc: Document, glossary: Glossary, model: BackgroundModel) -> ScoreBreakdown:
    """Score one document: the kernel's raw score, then predict."""
    _check_digest(glossary, model)
    tf = match(glossary, doc.tokens)
    L, contributions, tfidf_over_L, entropy, s = _score_profile(
        tf, len(doc.tokens), model.idf, model.k)
    # In field order; predict supplies the last three fields.
    return ScoreBreakdown(doc.id, len(doc.tokens), L, tf, contributions, tfidf_over_L,
                          entropy, s, *predict(s, model))


# raw_score under its public name. raw_score keeps its own name as well:
# tests/test_acceptance.py and the benchmark tracer (perfbench/tracer.py) use it.
score_document = raw_score


def score_corpus(corpus: Documents, glossary: Glossary,
                 model: BackgroundModel) -> Iterator[ScoreBreakdown]:
    """raw_score for every document, in corpus order, each as it is read.

    A glossary mismatch is reported after the corpus is read to its end, even
    for an empty corpus.
    """
    _check_digest(glossary, model, corpus)
    return (raw_score(doc, glossary, model) for doc in corpus)


def standardized_scores(corpus: Documents, glossary: Glossary,
                        model: BackgroundModel) -> list[float]:
    """Standardized score for every document, in corpus order.

    A glossary mismatch is reported after the corpus is read to its end, even
    for an empty corpus.
    """
    _check_digest(glossary, model, corpus)
    idf, k, mu, sigma = model.idf, model.k, model.mu, model.sigma
    return [_standardize(_score_profile(profile, word_count, idf, k)[-1], mu, sigma)
            for word_count, profile in match_corpus(glossary, corpus)]
