"""Unsupervised training on a background corpus.

No positive samples are needed: the background corpus supplies per-keyword
document frequencies (hence idf) and the distribution of the raw score, whose
mean and population standard deviation standardize scores at inference time.
train and experiment 1 (which fits its ablation itself) share fit_idf, the
one df -> idf step, and fit_standardization, the one mean and std.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .glossary import Glossary, match_corpus
from .model import BackgroundModel, check_k, idf_from_df
from .scoring import _score_profile
from .text import Documents


def compute_df(glossary: Glossary, corpus: Documents) -> tuple[int, dict[int, int]]:
    """Document frequency per keyword: in how many documents it matches at
    least once. Every keyword id is present in the result, zeros included."""
    profiles = match_corpus(glossary, corpus)
    if not profiles:
        raise ValidationError("background corpus must be non-empty")
    df = {kid: 0 for kid in range(len(glossary.phrases))}
    for _, profile in profiles:
        for kid in profile.tf:
            df[kid] += 1
    return len(profiles), df


def fit_idf(glossary: Glossary, corpus: Documents,
            k: int) -> tuple[int, dict[int, int], dict[int, float]]:
    """(n_docs, df, idf) of the background corpus, after checking k."""
    match_corpus(glossary, corpus)  # read a stream to its end before any check
    check_k(k)  # before the fit, which a huge k would overflow
    n_docs, df = compute_df(glossary, corpus)
    return n_docs, df, {kid: idf_from_df(df[kid], n_docs) for kid in sorted(df)}


def fit_standardization(scores: list[float]) -> tuple[float, float]:
    """Mean and population standard deviation (divide by N) of the background
    corpus's raw scores, given in corpus order."""
    n = len(scores)
    if n == 0:
        raise ValidationError("background corpus must be non-empty")
    mu = math.fsum(scores) / n
    sigma = math.sqrt(math.fsum((s - mu) ** 2 for s in scores) / n)
    if sigma == 0.0:
        raise ValidationError("degenerate background corpus: zero score variance")
    return mu, sigma


def train(glossary: Glossary, corpus: Documents, k: int = BackgroundModel.k) -> BackgroundModel:
    """df -> idf -> (mu, sigma), assembled into a BackgroundModel (default bias)."""
    n_docs, df, idf = fit_idf(glossary, corpus, k)
    mu, sigma = fit_standardization([_score_profile(profile, word_count, idf, k)[-1]
                                     for word_count, profile in match_corpus(glossary, corpus)])
    return BackgroundModel(category=glossary.category, glossary_digest=glossary.cached_digest,
                           phrases=glossary.phrases, n_docs=n_docs, df=df, idf=idf, mu=mu,
                           sigma=sigma, k=k)
