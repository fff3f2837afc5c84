"""Unsupervised training on a background corpus.

No positive samples are needed: the background corpus supplies per-keyword
document frequencies (hence idf) and the distribution of the raw score, whose
mean and population standard deviation standardize scores at inference time.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .glossary import Glossary, match_document
from .model import BackgroundModel, check_k, idf_from_df
from .scoring import _score_profile
from .text import Corpus


def compute_df(glossary: Glossary, corpus: Corpus) -> tuple[int, dict[int, int]]:
    """Document frequency per keyword: in how many documents it matches at
    least once. Every keyword id is present in the result, zeros included."""
    if len(corpus) == 0:
        raise ValidationError("background corpus must be non-empty")
    df = {kid: 0 for kid in range(len(glossary.phrases))}
    for doc in corpus:
        for kid in match_document(glossary, doc).tf:
            df[kid] += 1
    return len(corpus), df


def fit_standardization(glossary: Glossary, idf: dict[int, float], k: int,
                        corpus: Corpus, entropy_weighted: bool = True) -> tuple[float, float]:
    """Mean and population standard deviation (divide by N) of the raw score
    over the background corpus, accumulated in corpus order."""
    if len(corpus) == 0:
        raise ValidationError("background corpus must be non-empty")
    scores = [_score_profile(match_document(glossary, doc), len(doc.tokens), idf, k,
                             entropy_weighted)[-1]
              for doc in corpus]
    n = len(scores)
    mu = math.fsum(scores) / n
    sigma = math.sqrt(math.fsum((s - mu) ** 2 for s in scores) / n)
    if sigma == 0.0:
        raise ValidationError("degenerate background corpus: zero score variance")
    return mu, sigma


def train(glossary: Glossary, corpus: Corpus, k: int = BackgroundModel.k,
          entropy_weighted: bool = True) -> BackgroundModel:
    """df -> idf -> (mu, sigma), assembled into a BackgroundModel (default bias)."""
    check_k(k)  # before the fit, which a huge k would overflow
    n_docs, df = compute_df(glossary, corpus)
    idf = {kid: idf_from_df(df[kid], n_docs) for kid in sorted(df)}
    mu, sigma = fit_standardization(glossary, idf, k, corpus, entropy_weighted)
    return BackgroundModel(
        category=glossary.category,
        glossary_digest=glossary.cached_digest,
        phrases=glossary.phrases,
        n_docs=n_docs,
        df=df,
        idf=idf,
        mu=mu,
        sigma=sigma,
        k=k,
        entropy_weighted=entropy_weighted,
    )
