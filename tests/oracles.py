"""Independent reference implementations used only by the test suite.

Everything here is written directly from the defining formulas with plain
loops, deliberately sharing no code with the package, so agreement between
the two is evidence rather than tautology.
"""

from __future__ import annotations

import math


def naive_tokenize(raw_text: str) -> list[str]:
    """Maximal runs of alphanumeric characters in the lowercased text."""
    out: list[str] = []
    current: list[str] = []
    for ch in raw_text.lower():
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def naive_match(phrases, tokens) -> dict[int, int]:
    """Leftmost-longest non-overlapping phrase counts, O(n * phrases)."""
    tokens = list(tokens)
    tf: dict[int, int] = {}
    i = 0
    while i < len(tokens):
        best_id = None
        best_len = 0
        for kid, phrase in enumerate(phrases):
            plen = len(phrase)
            if plen > best_len and tuple(tokens[i:i + plen]) == tuple(phrase):
                best_id = kid
                best_len = plen
        if best_id is None:
            i += 1
        else:
            tf[best_id] = tf.get(best_id, 0) + 1
            i += best_len
    return tf


def naive_idf(df: int, n_docs: int) -> float:
    return math.log((n_docs + 1) / (df + 1)) + 1.0


def naive_abundance(tf: dict[int, int], idf: dict[int, float], word_count: int, k: int) -> float:
    L = k if word_count < k else word_count
    total = 0.0
    for kid in sorted(tf):
        total += tf[kid] * idf[kid] / L
    return total


def naive_entropy(tf: dict[int, int]) -> float:
    total = sum(tf.values())
    if total == 0:
        return 0.0
    s = 0.0
    for kid in sorted(tf):
        p = tf[kid] / total
        if p > 0.0:
            s += p * math.log(p)
    return -s


def naive_pipeline(tokens, phrases, idf, k, mu, sigma, bias):
    """Raw score, standardized score, probability, and decision in one pass,
    straight from the formulas."""
    tf = naive_match(phrases, tokens)
    a = naive_abundance(tf, idf, len(tokens), k)
    s = naive_entropy(tf) * a
    s_hat = (s - mu) / sigma
    z = s_hat - bias
    if z >= 0:
        y = 1.0 / (1.0 + math.exp(-z))
    else:
        y = math.exp(z) / (1.0 + math.exp(z))
    return {
        "tf": tf,
        "abundance": a,
        "entropy": naive_entropy(tf),
        "raw_score": s,
        "standardized": s_hat,
        "probability": y,
        "positive": s_hat >= bias,
    }


def numeric_gradient(f, w, h: float = 1e-5):
    """Central finite differences of a scalar function of a float vector."""
    grad = [0.0] * len(w)
    for j in range(len(w)):
        up = list(w)
        down = list(w)
        up[j] += h
        down[j] -= h
        grad[j] = (f(up) - f(down)) / (2.0 * h)
    return grad


def naive_logit(weights, intercept: float, features: dict[int, float]) -> float:
    """w . x + intercept for one document's sparse features, summed left to
    right in ascending feature id order from 0.0."""
    total = 0.0
    for fid in sorted(features):
        total += float(weights[fid]) * features[fid]
    return total + intercept


def naive_mean_std(values) -> tuple[float, float]:
    """Mean and population standard deviation, two explicit passes."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)
