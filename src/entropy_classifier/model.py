"""Trained background model: state, persistence, and the model file format.

A model file holds these line records (format in records.py), in this order,
after the `format_version 1` record that every record file starts with:

    category <string>
    glossary_digest <hex>
    n_docs <int>
    k <int>
    mu <decimal>
    sigma <decimal>
    bias <decimal>
    kw <id> <df> <phrase tokens joined by spaces>   (one per keyword, id order)

Floats are written with 17 significant digits, which round-trips binary64
exactly, so a saved model scores byte-for-byte like the in-memory one.

A BackgroundModel checks its invariants when it is built and on every
dataclasses.replace, so every model that exists can be scored: k >= 1 and
fits 64 bits (so L converts to a float), n_docs >= 1, mu, sigma and bias are
finite, sigma > 0, every keyword id 0..len(phrases)-1 has a finite idf and a
df in [0, n_docs], glossary_digest is the digest of the phrases, and sigma is
large enough that (raw - mu) / sigma is finite for every raw score the model
can produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import records
from .errors import ValidationError
from .glossary import Glossary


def check_k(k: int) -> None:
    if not 1 <= k < 2**63:
        raise ValidationError(f"k must be >= 1 and below 2**63, got {k}")


@dataclass(frozen=True)
class BackgroundModel:
    """Everything needed to score documents against one glossary.

    entropy_weighted=False is the ablation variant used by experiment 1
    (raw score = abundance alone, with its own refit mu/sigma). Ablation
    models are in-memory only; the file format has no field for the flag.
    """

    category: str
    glossary_digest: str
    phrases: tuple[tuple[str, ...], ...]
    n_docs: int
    df: dict[int, int]
    idf: dict[int, float]
    mu: float
    sigma: float
    k: int = 100
    bias: float = 3.0  # three standard deviations above the background mean
    entropy_weighted: bool = True

    def __post_init__(self) -> None:
        check_k(self.k)
        if self.n_docs < 1:
            raise ValidationError(f"n_docs must be >= 1, got {self.n_docs}")
        for name in ("mu", "sigma", "bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma <= 0:
            raise ValidationError(f"sigma must be positive, got {self.sigma!r}")
        max_idf = 0.0
        for kid in range(len(self.phrases)):
            if not math.isfinite(self.idf.get(kid, math.nan)):
                raise ValidationError(f"keyword id {kid} has no idf entry or a non-finite one")
            if not 0 <= self.df.get(kid, -1) <= self.n_docs:
                raise ValidationError(f"keyword id {kid} has no df in [0, n_docs]")
            max_idf = max(max_idf, abs(self.idf[kid]))
        # Matches never overlap, so total matches <= word count <= L: the raw
        # score is at most max idf, times at most ln |phrases| of entropy.
        bound = max_idf
        if self.entropy_weighted and len(self.phrases) > 1:
            bound *= max(1.0, math.log(len(self.phrases)))
        if not math.isfinite((abs(self.mu) + bound) / self.sigma):
            raise ValidationError(f"sigma {self.sigma!r} is too small: a standardized "
                                  "score of this model would not be finite")
        if Glossary(self.category, self.phrases).digest() != self.glossary_digest:
            raise ValidationError("glossary_digest does not match the phrases")


def idf_from_df(df: int, n_docs: int) -> float:
    """Smoothed idf: ln((n_docs+1)/(df+1)) + 1.

    Finite at df=0 and strictly positive, so abundance never degenerates.
    """
    if n_docs < 1:
        raise ValueError(f"n_docs must be >= 1, got {n_docs}")
    if not (0 <= df <= n_docs):
        raise ValueError(f"df must be in [0, n_docs], got df={df}, n_docs={n_docs}")
    return math.log((n_docs + 1) / (df + 1)) + 1.0


def save_model(model: BackgroundModel, path) -> None:
    if not model.entropy_weighted:
        raise ValidationError(
            "ablation models (entropy_weighted=False) cannot be saved: "
            "the model file format has no field for the variant"
        )
    if any(token.split() != [token] for phrase in model.phrases for token in phrase):
        raise ValidationError("model cannot be saved: a phrase token is empty "
                              "or holds whitespace")
    records.write_records(path, [
        ("category", model.category),
        ("glossary_digest", model.glossary_digest),
        ("n_docs", str(model.n_docs)),
        ("k", str(model.k)),
        ("mu", records.format_float(model.mu)),
        ("sigma", records.format_float(model.sigma)),
        ("bias", records.format_float(model.bias)),
    ] + [("kw", f"{kid} {model.df[kid]} {' '.join(phrase)}")
         for kid, phrase in enumerate(model.phrases)])


_HEAD = ("category", "glossary_digest", "n_docs", "k", "mu", "sigma", "bias")


def load_model(path) -> BackgroundModel:
    """Parse and validate a model file written by save_model."""
    label = f"model file {path}"

    def bad(what: str) -> ValidationError:
        return ValidationError(f"{label}: {what}")

    head, body = records.head(records.parse(records.read_text(path, label)), _HEAD, label)
    n_docs = records.to_int(label, "n_docs", head["n_docs"])
    k = records.to_int(label, "k", head["k"])
    mu = records.to_float(label, "mu", head["mu"])
    sigma = records.to_float(label, "sigma", head["sigma"])
    bias = records.to_float(label, "bias", head["bias"])
    if n_docs < 1:  # before idf_from_df divides by it
        raise bad(f"n_docs must be >= 1, got {n_docs}")

    phrases: list[tuple[str, ...]] = []
    df: dict[int, int] = {}
    for _, key, value in body:
        parts = value.split(" ", 2)
        if key != "kw" or len(parts) != 3:
            raise bad(f"expected kw record, found {key} {value!r}")
        kid = records.to_int(label, "kw id", parts[0])
        if kid != len(phrases):
            raise bad(f"kw ids must be dense and ascending, found {kid}")
        count = records.to_int(label, "kw df", parts[1])
        if not (0 <= count <= n_docs):
            raise bad(f"kw {kid} df {count} outside [0, n_docs]")
        toks = tuple(parts[2].split(" "))
        if any(t == "" for t in toks):
            raise bad(f"kw {kid} has a malformed phrase")
        phrases.append(toks)
        df[kid] = count
    if not phrases:
        raise bad("no kw records")

    idf = {kid: idf_from_df(count, n_docs) for kid, count in df.items()}
    try:
        return BackgroundModel(
            category=head["category"], glossary_digest=head["glossary_digest"],
            phrases=tuple(phrases), n_docs=n_docs, df=df, idf=idf, mu=mu, sigma=sigma,
            k=k, bias=bias)
    except ValidationError as exc:
        raise bad(str(exc)) from None


def rewrite_bias_line(path, new_bias: float) -> None:
    """Replace exactly the bias record in a model file, leaving all other
    bytes untouched. Used by the calibrate command."""
    label = f"model file {path}"
    content = records.read_text(path, label)
    hits = [lineno for lineno, key, _ in records.parse(content) if key == "bias"]
    if len(hits) != 1:
        raise ValidationError(f"{label}: expected exactly one bias record, found {len(hits)}")
    lines = content.split("\n")
    lines[hits[0] - 1] = f"bias {records.format_float(new_bias)}"
    records.write_text(path, "\n".join(lines))
