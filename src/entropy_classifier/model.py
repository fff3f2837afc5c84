"""Trained background model: state, persistence, and the model file format.

The file format is line-oriented UTF-8 key-value text, one record per line:

    format_version 1
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import InputOutputError, ValidationError
from .glossary import Glossary

FORMAT_VERSION = 1


def format_float(x: float) -> str:
    """Shortest fixed-rule decimal that reparses to the identical double."""
    return format(x, ".17g")


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
    bias: float = 3.0
    entropy_weighted: bool = True

    def glossary(self) -> Glossary:
        """Rebuild the glossary this model was trained for."""
        return Glossary(category=self.category, phrases=self.phrases)


def idf_from_df(df: int, n_docs: int) -> float:
    """Smoothed idf: ln((n_docs+1)/(df+1)) + 1.

    Finite at df=0 and strictly positive, so abundance never degenerates.
    """
    if n_docs < 1:
        raise ValueError(f"n_docs must be >= 1, got {n_docs}")
    if not (0 <= df <= n_docs):
        raise ValueError(f"df must be in [0, n_docs], got df={df}, n_docs={n_docs}")
    return math.log((n_docs + 1) / (df + 1)) + 1.0


def set_bias_direct(model: BackgroundModel, b: float) -> BackgroundModel:
    """Return the model with bias set to b; every other field unchanged."""
    if not math.isfinite(b):
        raise ValidationError(f"bias must be finite, got {b!r}")
    return replace(model, bias=b)


def save_model(model: BackgroundModel, path) -> None:
    if not model.entropy_weighted:
        raise ValidationError(
            "ablation models (entropy_weighted=False) cannot be saved: "
            "the model file format has no field for the variant"
        )
    if "\n" in model.category:
        raise ValidationError(
            f"category {model.category!r} contains a newline: "
            "the model file stores it on one line"
        )
    lines = [
        f"format_version {FORMAT_VERSION}",
        f"category {model.category}",
        f"glossary_digest {model.glossary_digest}",
        f"n_docs {model.n_docs}",
        f"k {model.k}",
        f"mu {format_float(model.mu)}",
        f"sigma {format_float(model.sigma)}",
        f"bias {format_float(model.bias)}",
    ]
    for kid, phrase in enumerate(model.phrases):
        lines.append(f"kw {kid} {model.df[kid]} {' '.join(phrase)}")
    text = "\n".join(lines) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputOutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _bad(path, what: str) -> ValidationError:
    return ValidationError(f"model file {path}: {what}")


def _parse_float(path, key: str, value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise _bad(path, f"{key} is not a number: {value!r}") from None
    if not math.isfinite(x):
        raise _bad(path, f"{key} must be finite, got {value!r}")
    return x


def _parse_int(path, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _bad(path, f"{key} is not an integer: {value!r}") from None


def load_model(path) -> BackgroundModel:
    """Parse and validate a model file written by save_model."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise InputOutputError(f"cannot read {p}: {exc.strerror or exc}") from exc
    try:
        content = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _bad(p, f"not valid UTF-8 ({exc})") from exc

    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    expected_head = ["format_version", "category", "glossary_digest", "n_docs",
                     "k", "mu", "sigma", "bias"]
    if len(lines) < len(expected_head):
        raise _bad(p, "truncated header")
    head: dict[str, str] = {}
    for key, line in zip(expected_head, lines):
        parts = line.split(" ", 1)
        if parts[0] != key:
            raise _bad(p, f"expected {key!r} record, found {line!r}")
        head[key] = parts[1] if len(parts) > 1 else ""

    if head["format_version"] != str(FORMAT_VERSION):
        raise _bad(p, f"unsupported format_version {head['format_version']!r}")
    n_docs = _parse_int(p, "n_docs", head["n_docs"])
    k = _parse_int(p, "k", head["k"])
    mu = _parse_float(p, "mu", head["mu"])
    sigma = _parse_float(p, "sigma", head["sigma"])
    bias = _parse_float(p, "bias", head["bias"])
    if n_docs < 1:
        raise _bad(p, f"n_docs must be >= 1, got {n_docs}")
    if k < 1:
        raise _bad(p, f"k must be >= 1, got {k}")
    if sigma <= 0:
        raise _bad(p, f"sigma must be positive, got {head['sigma']}")

    phrases: list[tuple[str, ...]] = []
    df: dict[int, int] = {}
    for line in lines[len(expected_head):]:
        parts = line.split(" ", 3)
        if parts[0] != "kw" or len(parts) != 4:
            raise _bad(p, f"expected kw record, found {line!r}")
        kid = _parse_int(p, "kw id", parts[1])
        if kid != len(phrases):
            raise _bad(p, f"kw ids must be dense and ascending, found {kid}")
        count = _parse_int(p, "kw df", parts[2])
        if not (0 <= count <= n_docs):
            raise _bad(p, f"kw {kid} df {count} outside [0, n_docs]")
        toks = tuple(parts[3].split(" "))
        if any(t == "" for t in toks):
            raise _bad(p, f"kw {kid} has a malformed phrase")
        phrases.append(toks)
        df[kid] = count
    if not phrases:
        raise _bad(p, "no kw records")

    glossary = Glossary(category=head["category"], phrases=tuple(phrases))
    if glossary.digest() != head["glossary_digest"]:
        raise _bad(p, "glossary_digest does not match the kw records")

    idf = {kid: idf_from_df(count, n_docs) for kid, count in df.items()}
    return BackgroundModel(
        category=head["category"],
        glossary_digest=head["glossary_digest"],
        phrases=tuple(phrases),
        n_docs=n_docs,
        df=df,
        idf=idf,
        mu=mu,
        sigma=sigma,
        k=k,
        bias=bias,
    )


def rewrite_bias_line(path, new_bias: float) -> None:
    """Replace exactly the bias record in a model file, leaving all other
    bytes untouched. Used by the calibrate command."""
    p = Path(path)
    try:
        content = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputOutputError(f"cannot read {p}: {exc.strerror or exc}") from exc
    lines = content.split("\n")
    hits = [i for i, line in enumerate(lines) if line.startswith("bias ")]
    if len(hits) != 1:
        raise _bad(p, f"expected exactly one bias record, found {len(hits)}")
    lines[hits[0]] = f"bias {format_float(new_bias)}"
    try:
        p.write_text("\n".join(lines), encoding="utf-8")
    except OSError as exc:
        raise InputOutputError(f"cannot write {p}: {exc.strerror or exc}") from exc
