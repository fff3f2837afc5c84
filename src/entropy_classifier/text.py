"""Tokenization and corpus ingestion.

A token is a maximal run of Unicode alphanumeric characters in the lowercased
text; everything else separates tokens. No stemming, no stop words, and digits
are kept so terms like "401k" survive. The token count of a document defines
its word count everywhere else in the package. Lowercased text that is all
ASCII is split through a translate table that turns every character but
[a-z0-9] into a space, which is faster than the regex and yields the same
tokens; other text goes through the regex.

Corpora come from disk in two layouts, told apart by the path itself: a
directory (one document per regular file, id = path relative to the
directory) or any other path, read as a line-delimited file (one document per
non-empty line, id = zero-padded physical line number). A directory id that
holds a tab or line break, or is not valid UTF-8, is refused: an id is one
field of a tab-separated, line-oriented UTF-8 score record. A directory's
documents are ordered ascending by id, a line file's by line and an in-memory
corpus's by text, so downstream statistics are reproducible. A Document is
equal only to itself, so two documents with the same fields are still two
documents, each with its own match memo entry.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from pathlib import Path

from . import records
from .errors import InputOutputError, ValidationError

# Matches exactly the characters str.isalnum() accepts (\w minus underscore).
# Applied to lowercased text: lowering first is what makes tokenize idempotent
# on its own joined output even when lowercasing expands a character into a
# base letter plus combining marks.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every ASCII character but [a-z0-9] becomes a space, so str.split() yields
# exactly _WORD_RE's tokens of lowercased ASCII text.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128))
                                   if c not in string.ascii_lowercase + string.digits})
_BAD_ID = re.compile(r"[\t\n\r\ud800-\udfff]")  # a non-UTF-8 name byte decodes to a surrogate


def tokenize(raw_text: str) -> list[str]:
    """Split text into lowercase alphanumeric-run tokens.

    >>> tokenize("Tax-Return 2023!")
    ['tax', 'return', '2023']
    >>> tokenize("")
    []
    """
    lowered = raw_text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _WORD_RE.findall(lowered)


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
    """Ordered document collection, in the order its source gives (see the
    module docstring)."""

    documents: tuple[Document, ...]
    source: str

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def corpus_from_texts(texts, source: str = "<memory>") -> Corpus:
    """Build an in-memory Corpus in text order; ids are zero-padded positions."""
    return Corpus(documents=tuple(Document.from_text(f"{i:06d}", t)
                                  for i, t in enumerate(texts, start=1)),
                  source=source)


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
            if _BAD_ID.search(doc_id):
                raise ValidationError(f"document {doc_id!r}: a file name holds a tab or "
                                      "line break, or is not valid UTF-8")
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
