"""Trained background model: state, persistence, and the model file format.

A model file holds line records (format in records.py): the `format_version 1`
record that every record file starts with, the header records that _HEAD
declares, in its order, then `kw <id> <df> <phrase tokens joined by spaces>`,
one per keyword in id order. _HEAD is the header's one declaration: save_model
writes and load_model reads each value through its (writer, reader) pair.
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

    There is one kind of model: it scores entropy times abundance. Experiment
    1's abundance-only ablation is no model; it lives inside
    experiments.run_experiment1 as the kernel's tfidf_over_L column.
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
        bound = max_idf * max(1.0, math.log(len(self.phrases) or 1))
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


# Each header record's key, in file order, and the (writer, reader) of its value.
_TEXT = (str, lambda label, key, value: value)
_INT, _FLOAT = (str, records.to_int), (records.format_float, records.to_float)
_HEAD = {"category": _TEXT, "glossary_digest": _TEXT, "n_docs": _INT, "k": _INT,
         "mu": _FLOAT, "sigma": _FLOAT, "bias": _FLOAT}


def save_model(model: BackgroundModel, path) -> None:
    if any(token.split() != [token] for phrase in model.phrases for token in phrase):
        raise ValidationError("model cannot be saved: a phrase token is empty "
                              "or holds whitespace")
    records.write_records(path, [(key, write(getattr(model, key)))
                                 for key, (write, _) in _HEAD.items()]
                          + [("kw", f"{kid} {model.df[kid]} {' '.join(phrase)}")
                             for kid, phrase in enumerate(model.phrases)])


def load_model(path) -> BackgroundModel:
    """Parse and validate a model file written by save_model."""
    label = f"model file {path}"

    def bad(what: str) -> ValidationError:
        return ValidationError(f"{label}: {what}")

    values, body = records.head(records.parse(records.read_text(path, label)), _HEAD, label)
    head = {key: read(label, key, values[key]) for key, (_, read) in _HEAD.items()}
    n_docs = head["n_docs"]
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
        return BackgroundModel(**head, phrases=tuple(phrases), df=df, idf=idf)
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
    lines[hits[0] - 1] = records.render([("bias", records.format_float(new_bias))]).rstrip("\n")
    records.write_text(path, "\n".join(lines))
