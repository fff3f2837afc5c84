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
_score_profile turns one match profile into L, the per-keyword contributions,
tfidf_over_L, the entropy and the raw score; raw_score and
background.fit_standardization call it. score_corpus is the bulk path: it
checks the glossary and sigma once before the first document and yields
score_document (raw_score, then predict) for each document, so every corpus
is standardized and thresholded by predict alone. The caches live on the
glossary (see glossary.py) and die with it: raw_score compares the model
against the glossary's cached digest and takes the document's match profile
from glossary.match_document, so scoring a document that training,
calibration or an earlier score already matched costs no second match.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .errors import ValidationError
from .glossary import Glossary, MatchProfile, match_document
# Not called here: the benchmark tracer (perfbench/tracer.py) patches match
# under this module's name, so the name must stay bound.
from .glossary import match  # noqa: F401
from .model import BackgroundModel
from .text import Corpus, Document


def effective_length(word_count: int, k: int) -> int:
    """Regularized length L = max(k, word_count)."""
    if word_count < 0:
        raise ValueError(f"word_count must be >= 0, got {word_count}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return max(k, word_count)


def per_keyword_contributions(tf: MatchProfile, idf: dict[int, float], L: int) -> dict[int, float]:
    """Contribution tf_w * idf_w / L per matched keyword, ascending id order."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    out: dict[int, float] = {}
    for kid in sorted(tf.tf):
        if kid not in idf:
            raise ValidationError(
                f"keyword id {kid} has no idf entry: model does not cover this glossary"
            )
        out[kid] = tf.tf[kid] * idf[kid] / L
    return out


def abundance(tf: MatchProfile, idf: dict[int, float], L: int) -> float:
    """Normalized tf-idf mass: sum_w tf_w * idf_w / L."""
    return sum(per_keyword_contributions(tf, idf, L).values())


def match_distribution(tf: MatchProfile) -> dict[int, float]:
    """p_w = tf_w / total_matches; empty when nothing matched."""
    if tf.total_matches == 0:
        return {}
    total = tf.total_matches
    return {kid: count / total for kid, count in sorted(tf.tf.items())}


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
    return -sum(v * math.log(v) for v in p.values() if v > 0.0)


def sigmoid(z: float) -> float:
    # Split on sign so exp never overflows.
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class ScoreBreakdown:
    """Full explainable trace of one document's score.

    standardized/probability/positive are None until predict() fills them.
    For entropy-weighted models raw_score is entropy times tfidf_over_L
    exactly; ablation models use raw_score = tfidf_over_L.
    """

    doc_id: str
    word_count: int
    effective_length: int
    tf: MatchProfile
    p: dict[int, float]
    per_keyword: dict[int, float]
    tfidf_over_L: float
    entropy: float
    raw_score: float
    standardized: float | None = None
    probability: float | None = None
    positive: bool | None = None


def _check_digest(glossary: Glossary, model: BackgroundModel) -> None:
    if glossary.cached_digest != model.glossary_digest:
        raise ValidationError("model was trained for a different glossary")


def _check_sigma(model: BackgroundModel) -> None:
    if model.sigma <= 0:
        raise ValidationError("model invalid: sigma must be positive")


def _score_profile(tf: MatchProfile, word_count: int, idf: dict[int, float], k: int,
                   entropy_weighted: bool):
    """The scoring kernel: (L, p, per_keyword, tfidf_over_L, entropy, raw score).

    Plain values, no breakdown object, so bulk training allocates nothing
    extra per document. Sums run over ascending keyword ids.
    """
    L = effective_length(word_count, k)
    contributions = per_keyword_contributions(tf, idf, L)
    tfidf_over_L = sum(contributions.values())
    p = match_distribution(tf)
    entropy = shannon_entropy(p)
    s = entropy * tfidf_over_L if entropy_weighted else tfidf_over_L
    return L, p, contributions, tfidf_over_L, entropy, s


def raw_score(doc: Document, glossary: Glossary, model: BackgroundModel) -> ScoreBreakdown:
    """Compute the breakdown through raw_score (no standardization yet)."""
    _check_digest(glossary, model)
    tf = match_document(glossary, doc)
    L, p, contributions, tfidf_over_L, entropy, s = _score_profile(
        tf, len(doc.tokens), model.idf, model.k, model.entropy_weighted)
    return ScoreBreakdown(
        doc_id=doc.id,
        word_count=len(doc.tokens),
        effective_length=L,
        tf=tf,
        p=p,
        per_keyword=contributions,
        tfidf_over_L=tfidf_over_L,
        entropy=entropy,
        raw_score=s,
    )


def predict(breakdown: ScoreBreakdown, model: BackgroundModel) -> ScoreBreakdown:
    """Fill standardized score, probability, and the decision."""
    _check_sigma(model)
    s_hat = (breakdown.raw_score - model.mu) / model.sigma
    y = sigmoid(s_hat - model.bias)
    return replace(breakdown, standardized=s_hat, probability=y,
                   positive=s_hat >= model.bias)


def score_document(doc: Document, glossary: Glossary, model: BackgroundModel) -> ScoreBreakdown:
    """raw_score + predict in one call."""
    return predict(raw_score(doc, glossary, model), model)


def score_corpus(corpus: Corpus, glossary: Glossary,
                 model: BackgroundModel) -> Iterator[ScoreBreakdown]:
    """score_document for every document, in corpus order.

    The glossary and sigma are checked here, before the first document, so a
    mismatch is reported even for an empty corpus.
    """
    _check_digest(glossary, model)
    _check_sigma(model)
    return (score_document(doc, glossary, model) for doc in corpus)


def standardized_scores(corpus: Corpus, glossary: Glossary, model: BackgroundModel) -> list[float]:
    """Standardized score for every document, in corpus order."""
    return [b.standardized for b in score_corpus(corpus, glossary, model)]
