"""Tokenization and corpus ingestion.

A token is a maximal run of Unicode alphanumeric characters in the lowercased
text; everything else separates tokens. No stemming, no stop words, and digits
are kept so terms like "401k" survive. The token count of a document defines
its word count everywhere else in the package.

Corpora come from disk in two layouts, told apart by the path itself: a
directory (one document per regular file, id = path relative to the
directory) or any other path, read as a line-delimited file (one document per
non-empty line, id = zero-padded physical line number). A directory id that
holds a tab or line break is refused: an id is one field of a tab-separated,
line-oriented score record. Documents are always ordered ascending by id so
downstream statistics are reproducible. A Document is equal only to itself, so
two documents with the same fields are still two documents, each with its own
match memo entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from . import records
from .errors import InputOutputError, ValidationError

# Matches exactly the characters str.isalnum() accepts (\w minus underscore).
# Applied to lowercased text: lowering first is what makes tokenize idempotent
# on its own joined output even when lowercasing expands a character into a
# base letter plus combining marks.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(raw_text: str) -> list[str]:
    """Split text into lowercase alphanumeric-run tokens.

    >>> tokenize("Tax-Return 2023!")
    ['tax', 'return', '2023']
    >>> tokenize("")
    []
    """
    return _WORD_RE.findall(raw_text.lower())


# eq=False: a Document compares and hashes by identity, so a match memo keyed
# by it costs one pointer hash per lookup instead of hashing every token.
@dataclass(frozen=True, eq=False)
class Document:
    """One unit of classifiable text; tokens are tokenize(raw_text)."""

    id: str
    raw_text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, doc_id: str, raw_text: str) -> "Document":
        return cls(id=doc_id, raw_text=raw_text, tokens=tuple(tokenize(raw_text)))


@dataclass(frozen=True)
class Corpus:
    """Ordered document collection; order is ascending lexicographic by id."""

    documents: tuple[Document, ...]
    source: str

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def corpus_from_texts(texts, ids=None, source: str = "<memory>") -> Corpus:
    """Build an in-memory Corpus; ids default to zero-padded positions."""
    texts = list(texts)
    if ids is None:
        ids = [f"{i:06d}" for i in range(1, len(texts) + 1)]
    else:
        ids = list(ids)
        if len(ids) != len(texts):
            raise ValidationError("corpus ids and texts differ in length")
    if len(set(ids)) != len(ids):
        raise ValidationError("corpus ids must be unique")
    docs = [Document.from_text(i, t) for i, t in zip(ids, texts)]
    docs.sort(key=lambda d: d.id)
    return Corpus(documents=tuple(docs), source=source)


def load_corpus(source) -> Corpus:
    """Load a corpus from a directory or a line-delimited file.

    A directory holds one document per regular file; any other path is read
    as a line-delimited file. Blank lines in line-delimited files are skipped
    but still consume a line number, so ids always point back at the
    physical line.
    """
    path = Path(source)
    if not path.exists():
        raise InputOutputError(f"cannot read {path}: no such file or directory")

    if path.is_dir():
        try:
            files = [p for p in sorted(path.rglob("*")) if p.is_file()]
        except OSError as exc:
            raise InputOutputError(f"cannot read {path}: {exc.strerror or exc}") from exc
        docs = []
        for p in files:
            doc_id = p.relative_to(path).as_posix()
            if any(ch in doc_id for ch in "\t\n\r"):
                raise ValidationError(
                    f"document {doc_id!r}: a file name holds a tab or line break")
            text = records.read_text(p, f"document {doc_id}")
            docs.append(Document.from_text(doc_id, text))
        docs.sort(key=lambda d: d.id)
        return Corpus(documents=tuple(docs), source=str(path))

    # Decoded line by line, so a decode error names the document.
    docs = []
    for lineno, line in enumerate(records.read_bytes(path).split(b"\n"), start=1):
        doc_id = f"{lineno:06d}"
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"document {doc_id}: not valid UTF-8 ({exc})") from exc
        if text.strip() == "":
            continue
        docs.append(Document.from_text(doc_id, text))
    return Corpus(documents=tuple(docs), source=str(path))
