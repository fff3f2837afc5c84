"""Synthetic category suites for desk-scale experiments.

Each suite plants the failure mode the entropy factor is designed to resist:
positive documents carry several distinct keywords, while a slice of the
negative corpus is single-keyword spam (one keyword repeated many times).
An abundance-only model must push its bias above the spam scores and loses
the positives; the entropy-weighted model scores the spam near zero because
a one-species match distribution has zero entropy.

Each category also gets a shifted-domain positive corpus (different filler
vocabulary, weaker keyword signal) so the same suite can drive the
train-on-A, evaluate-on-B comparison. Domain-A positives additionally carry
category "topic tokens" that are absent from domain B: a bag-of-words learner
leans on them and degrades under the shift, while the glossary scorer never
sees them.

Generation is driven by random.Random(seed) only, so suites are fully
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .experiments import CategorySpec, ExperimentConfig
from .glossary import make_glossary
from .text import corpus_from_texts


# Each category's glossary holds N_UNIGRAMS one-token and N_BIGRAMS two-token
# phrases; its domain-A positives draw from N_TOPIC topic tokens. Each domain
# has FILLER_VOCAB filler words, and SPAM_FRACTION of the negatives are spam.
N_UNIGRAMS, N_BIGRAMS, N_TOPIC = 10, 2, 8
FILLER_VOCAB, SPAM_FRACTION = 300, 0.15


@dataclass(frozen=True)
class SuiteParams:
    seed: int
    n_categories: int = 3
    n_background: int = 240
    n_negatives: int = 200
    n_positives: int = 40
    target_fpr: float = 0.02


def _compose(rng: random.Random, filler: list[str], n_filler: int, phrases) -> str:
    # Keep multi-token phrases adjacent: shuffle at the unit level.
    units = [[rng.choice(filler)] for _ in range(n_filler)]
    units.extend(list(p) for p in phrases)
    rng.shuffle(units)
    return " ".join(tok for unit in units for tok in unit)


def build_suite(params: SuiteParams) -> ExperimentConfig:
    """One experiment-1 configuration with planted positives and spam negatives."""
    rng = random.Random(params.seed)
    filler = [f"w{j:03d}" for j in range(FILLER_VOCAB)]

    category_phrases = []
    for c in range(params.n_categories):
        phrases = [(f"kw{c}n{i:02d}",) for i in range(N_UNIGRAMS)]
        phrases += [(f"kw{c}b{i}", f"kw{c}c{i}") for i in range(N_BIGRAMS)]
        category_phrases.append(phrases)
    flat = [p for phrases in category_phrases for p in phrases]

    background = []
    for _ in range(params.n_background):
        inserts = [rng.choice(flat) for _ in range(rng.randint(0, 5))]
        background.append(_compose(rng, filler, rng.randint(80, 140), inserts))

    negatives = []
    for _ in range(params.n_negatives):
        if rng.random() < SPAM_FRACTION:
            spam = rng.choice(flat)
            inserts = [spam] * rng.randint(12, 25)
        else:
            inserts = [rng.choice(flat) for _ in range(rng.randint(0, 2))]
        negatives.append(_compose(rng, filler, rng.randint(80, 140), inserts))

    filler_b = [f"v{j:03d}" for j in range(FILLER_VOCAB)]
    categories = []
    for c, phrases in enumerate(category_phrases):
        topics = [(f"tp{c}x{i}",) for i in range(N_TOPIC)]
        docs = []
        for _ in range(params.n_positives):
            species = rng.sample(phrases, rng.randint(4, min(8, len(phrases))))
            inserts = [p for p in species for _ in range(rng.randint(1, 3))]
            inserts += [rng.choice(topics) for _ in range(rng.randint(6, 12))]
            docs.append(_compose(rng, filler, rng.randint(80, 140), inserts))
        docs_b = []
        for _ in range(params.n_positives):
            species = rng.sample(phrases, rng.randint(3, min(6, len(phrases))))
            inserts = [p for p in species for _ in range(rng.randint(1, 2))]
            docs_b.append(_compose(rng, filler_b, rng.randint(100, 180), inserts))
        categories.append(CategorySpec(
            name=f"synth{c}",
            glossary=make_glossary(f"synth{c}", phrases),
            positives=corpus_from_texts(docs, source=f"<synthetic:{params.seed}:{c}>"),
            positives_b=corpus_from_texts(docs_b, source=f"<synthetic:{params.seed}:{c}b>"),
        ))

    return ExperimentConfig(
        categories=tuple(categories),
        background=corpus_from_texts(background, source=f"<synthetic:{params.seed}:bg>"),
        negatives=corpus_from_texts(negatives, source=f"<synthetic:{params.seed}:neg>"),
        target_fpr=params.target_fpr,
    )
