"""Tokenization and corpus ingestion.

A token is a maximal run of Unicode alphanumeric characters in the lowercased
text; everything else separates tokens. No stemming, no stop words, and digits
are kept so terms like "401k" survive. The token count of a document defines
its word count everywhere else in the package. The lowercased text's UTF-8
bytes go through one translate table that turns every ASCII byte but [a-z0-9]
into a space, then str.split(). Only the non-ASCII words are checked for a
separator left inside them, and only those that hold one go through the regex.
That is faster than the regex alone and yields the same tokens.

read_documents yields a corpus's documents one at a time, load_corpus keeps
them in a Corpus; matching and scoring accept either (Documents). A Corpus,
loaded or built by corpus_from_texts, keeps one str per distinct token: equal
tokens of its documents are the same object, so a token costs the Corpus a
pointer, not a string. The stream shares nothing, as it keeps nothing.

Corpora on disk come in two layouts, told apart by the path itself: a
directory (one document per regular file, id = path relative to the directory)
or any other path, read as a line-delimited file (one document per non-empty
line, id = zero-padded physical line number). A directory id that holds a tab
or line break, or is not valid UTF-8, is refused: an id is one field of a
tab-separated, line-oriented UTF-8 score record. A corpus path whose stat is
refused is read as a line file and fails as that read does. A directory that
cannot be listed, or an entry whose stat is refused, is an I/O error, not an
empty part of the corpus; a dangling symlink is passed over. Symlinks to files
are documents; symlinked directories are not descended. A directory's
documents are ordered ascending by id, a line file's by line and an in-memory
corpus's by text, so downstream statistics are reproducible. A Document or
Corpus is equal only to itself, so two with the same fields are still two.
"""

from __future__ import annotations

import os
import re
import string
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import filterfalse
from pathlib import Path
from stat import S_ISREG

from . import records
from .errors import InputOutputError, ValidationError

# Matches exactly the characters str.isalnum() accepts (\w minus underscore).
# Applied to lowercased text: lowering first is what makes tokenize idempotent
# on its own joined output even when lowercasing expands a character into a
# base letter plus combining marks.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# A bytes.translate table over UTF-8: every ASCII byte but [a-z0-9] becomes a
# space. Bytes >= 0x80 stay, so no multibyte character is ever split.
_SEPARATORS = bytes(b if b >= 0x80 or chr(b) in string.ascii_lowercase + string.digits else 0x20
                    for b in range(256))
_BAD_ID = re.compile(r"[\t\n\r\ud800-\udfff]")  # a non-UTF-8 name byte decodes to a surrogate


def tokenize(raw_text: str) -> list[str]:
    """Split text into lowercase alphanumeric-run tokens.

    >>> tokenize("Tax-Return 2023!")
    ['tax', 'return', '2023']
    >>> tokenize("«Déjà-vu»—ÇA")
    ['déjà', 'vu', 'ça']
    >>> tokenize("")
    []
    """
    # Lower the whole text first: final sigma and İ depend on their context.
    lowered = raw_text.lower()
    # surrogatepass: a lone surrogate survives the round trip as a character
    # that is not alphanumeric, so the fix-up below splits at it.
    words = (lowered.encode("utf-8", "surrogatepass").translate(_SEPARATORS)
             .decode("utf-8", "surrogatepass").split())
    if lowered.isascii():
        return words
    # str.split() cuts only at whitespace, which is never alphanumeric, and
    # str.isalnum() accepts exactly the characters [^\W_] does: a word that
    # isalnum() is one token. An ASCII word is [a-z0-9]+ after the table, so
    # only a non-ASCII word can still hold a separator, and only such a word
    # that is not isalnum() is re-split by the regex. words.index finds the
    # failing word itself: an equal word between i and it would have failed
    # before it. While each re-split word is one token, it takes the word's
    # place, behind the scan; the first that is not makes one list of slices
    # from there on, so no word shifts the list's tail.
    bad = filterfalse(str.isalnum, filterfalse(str.isascii, words))
    i = -1
    for word in bad:
        i = words.index(word, i + 1)
        tokens = _WORD_RE.findall(word)
        if len(tokens) != 1:
            break
        words[i] = tokens[0]
    else:
        return words
    tokens[:0] = words[:i]
    start = i + 1
    for word in bad:
        i = words.index(word, start)
        tokens += words[start:i]
        tokens += _WORD_RE.findall(word)
        start = i + 1
    tokens += words[start:]
    return tokens


@dataclass(frozen=True, eq=False)
class Document:
    """One unit of classifiable text; tokens are tokenize(raw_text)."""

    id: str
    raw_text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, doc_id: str, raw_text: str) -> "Document":
        return cls(id=doc_id, raw_text=raw_text, tokens=tuple(tokenize(raw_text)))


# eq=False: a Corpus hashes by identity, so the glossaries' match lists keyed
# by it (glossary.match_corpus) cost one pointer hash per lookup.
@dataclass(frozen=True, eq=False)
class Corpus:
    """Ordered document collection, in the order its source gives (see the
    module docstring)."""

    documents: tuple[Document, ...]
    source: str

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


Documents = Iterable[Document]  # a Corpus, or read_documents's one-pass stream


def _corpus(texts: Iterable[tuple[str, str]], source: str) -> Corpus:
    """The Corpus of (id, text) pairs, equal tokens sharing one str."""
    intern = {}.setdefault
    documents = []
    for doc_id, text in texts:
        tokens = tokenize(text)
        documents.append(Document(id=doc_id, raw_text=text,
                                  tokens=tuple(map(intern, tokens, tokens))))
    return Corpus(documents=tuple(documents), source=source)


def corpus_from_texts(texts, source: str = "<memory>") -> Corpus:
    """Build an in-memory Corpus in text order; ids are zero-padded positions."""
    return _corpus(((f"{i:06d}", t) for i, t in enumerate(texts, start=1)), source)


def _refuse(exc: OSError):
    """Stop the load: a directory cannot be listed or an entry's stat is refused."""
    raise InputOutputError(f"cannot read {exc.filename}: {exc.strerror or exc}") from exc


def _texts(source) -> Iterator[tuple[str, str]]:
    """Yield the (id, text) pairs of a directory or a line-delimited file.

    A directory holds one document per regular file, and is listed and sorted
    before the first is read; any other path is read as a line-delimited file.
    Blank lines in line-delimited files are skipped but still consume a line
    number, so ids always point back at the physical line.
    """
    path = Path(source)
    if os.path.isdir(path):
        root = os.fspath(path)
        files = {}  # id -> path
        for dirpath, _, names in os.walk(root, onerror=_refuse):
            rel = os.path.relpath(dirpath, root)
            prefix = "" if rel == os.curdir else rel.replace(os.sep, "/") + "/"
            for name in names:
                full = os.path.join(dirpath, name)
                try:
                    if S_ISREG(os.stat(full).st_mode):
                        files[prefix + name] = full
                except FileNotFoundError:  # a dangling symlink
                    pass
                except OSError as exc:
                    _refuse(exc)
        for doc_id in sorted(files):
            if _BAD_ID.search(doc_id):
                raise ValidationError(f"document {doc_id!r}: a file name holds a tab or "
                                      "line break, or is not valid UTF-8")
            yield doc_id, records.read_text(files[doc_id], f"document {doc_id}")
        return

    # Decoded line by line, so a decode error names the document.
    for lineno, line in enumerate(records.read_lines(path), start=1):
        doc_id = f"{lineno:06d}"
        try:
            text = line.removesuffix(b"\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"document {doc_id}: not valid UTF-8 ({exc})") from exc
        if text.strip():
            yield doc_id, text


def read_documents(source) -> Iterator[Document]:
    """Yield the documents of a directory or a line-delimited file, one at a time."""
    for doc_id, text in _texts(source):
        yield Document.from_text(doc_id, text)


def load_corpus(source) -> Corpus:
    """The Corpus of read_documents(source), one str per distinct token."""
    return _corpus(_texts(source), os.fspath(Path(source)))
