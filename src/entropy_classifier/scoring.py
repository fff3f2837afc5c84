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

For ablation models (entropy_weighted=False) the raw score is the abundance
alone; the breakdown still records the true entropy for inspection.

This module is the only place a document is scored. The private kernel
_score_profile is the only code that computes the raw score: it reads one
match profile once, in ascending keyword id order, and returns L, the
per-keyword contributions, tfidf_over_L, the entropy (through _entropy, the
one entropy formula, which the checked public shannon_entropy also calls) and
the raw score; raw_score, standardized_scores and
background.fit_standardization call it. _standardize is the one
(raw - mu) / sigma expression, so the bulk path and predict cannot differ by
an ulp at the calibrated bias.

standardized_scores is the bulk path (calibrate, evaluate and the experiment
recalls): it checks only the glossary (a model checks its own fields, see
model.py), once, before the first document, then runs the kernel and
_standardize per document and builds no ScoreBreakdown. raw_score (public
name score_document) serves the score command and --explain: it runs the
kernel and predict, which standardizes a raw score and decides it, and
builds one complete ScoreBreakdown per document; score_corpus checks the
glossary once and calls raw_score for each document. The caches live on the
glossary (see glossary.py) and die with it: both paths compare the model
against the glossary's cached digest and take the document's match profile
from glossary.match_document, so scoring a document that training,
calibration or an earlier score already matched costs no second match.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ValidationError
from .glossary import Glossary, MatchProfile, match_document
# Not called here: the benchmark tracer (perfbench/tracer.py) patches match
# under this module's name, so the name must stay bound.
from .glossary import match  # noqa: F401
from .model import BackgroundModel
from .text import Corpus, Document


def _entropy(p) -> float:
    """The entropy formula, -sum p ln p in nats over a sequence of
    probabilities (0 ln 0 := 0), unchecked. A single p = 1 gives -0.0."""
    return -sum(v * math.log(v) for v in p if v > 0.0) if p else 0.0


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


@dataclass(frozen=True)
class ScoreBreakdown:
    """Full explainable trace of one document's score.

    For entropy-weighted models raw_score is entropy times tfidf_over_L
    exactly; ablation models use raw_score = tfidf_over_L.
    """

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


def _check_digest(glossary: Glossary, model: BackgroundModel) -> None:
    if glossary.cached_digest != model.glossary_digest:
        raise ValidationError("model was trained for a different glossary")


def _score_profile(tf: MatchProfile, word_count: int, idf: dict[int, float], k: int,
                   entropy_weighted: bool):
    """The scoring kernel: (L, per_keyword, tfidf_over_L, entropy, raw score).

    The only code that computes the raw score. Plain values, no breakdown
    object, so bulk training allocates nothing extra per document. It reads
    tf once, in the ascending id order that MatchProfile guarantees, so every
    sum runs over ascending keyword ids. L >= k >= 1 and every matched id has
    an idf: model.py checks both; raw_score and standardized_scores check the
    glossary, and training derives idf from the glossary it matches with.
    """
    L = max(k, word_count)
    contributions = {kid: n * idf[kid] / L for kid, n in tf.tf.items()}
    tfidf_over_L = sum(contributions.values())
    total = tf.total_matches
    # Probabilities built from positive counts need none of shannon_entropy's checks.
    entropy = _entropy([n / total for n in tf.tf.values()])
    s = entropy * tfidf_over_L if entropy_weighted else tfidf_over_L
    return L, contributions, tfidf_over_L, entropy, s


def _standardize(raw: float, model: BackgroundModel) -> float:
    return (raw - model.mu) / model.sigma


def predict(raw: float, model: BackgroundModel) -> tuple[float, float, bool]:
    """(standardized score, probability, decision) of a raw score."""
    s_hat = _standardize(raw, model)
    return s_hat, sigmoid(s_hat - model.bias), s_hat >= model.bias


def raw_score(doc: Document, glossary: Glossary, model: BackgroundModel) -> ScoreBreakdown:
    """Score one document: the kernel's raw score, then predict."""
    _check_digest(glossary, model)
    tf = match_document(glossary, doc)
    L, contributions, tfidf_over_L, entropy, s = _score_profile(
        tf, len(doc.tokens), model.idf, model.k, model.entropy_weighted)
    # In field order; predict supplies the last three fields.
    return ScoreBreakdown(doc.id, len(doc.tokens), L, tf, contributions, tfidf_over_L,
                          entropy, s, *predict(s, model))


# raw_score under its public name. raw_score keeps its own name as well:
# tests/test_acceptance.py and the benchmark tracer (perfbench/tracer.py) use it.
score_document = raw_score


def score_corpus(corpus: Corpus, glossary: Glossary,
                 model: BackgroundModel) -> Iterator[ScoreBreakdown]:
    """raw_score for every document, in corpus order.

    The glossary is checked here, before the first document, so a mismatch
    is reported even for an empty corpus.
    """
    _check_digest(glossary, model)
    return (raw_score(doc, glossary, model) for doc in corpus)


def standardized_scores(corpus: Corpus, glossary: Glossary, model: BackgroundModel) -> list[float]:
    """Standardized score for every document, in corpus order.

    The glossary is checked once, before the first document, so a mismatch
    is reported even for an empty corpus.
    """
    _check_digest(glossary, model)
    idf, k, entropy_weighted = model.idf, model.k, model.entropy_weighted
    return [_standardize(_score_profile(match_document(glossary, doc), len(doc.tokens), idf, k,
                                        entropy_weighted)[-1], model)
            for doc in corpus]
