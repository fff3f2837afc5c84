"""Keyword glossaries and multi-pattern matching over token sequences.

A glossary is a category name plus a set of keyword phrases. Phrases are
normalized with the same tokenizer as documents, deduplicated, and given dense
integer ids in ascending lexicographic order, so ids are a pure function of
the phrase set.

Matching is leftmost-longest and non-overlapping: scanning left to right, the
longest phrase starting at the current position wins and consumes its tokens;
positions with no match advance by one token. This prevents a phrase and its
prefix (e.g. "tax return" and "tax") from both counting at the same spot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from . import records
from .errors import ValidationError
from .text import tokenize

# Terminal marker inside trie nodes. Token keys are strings, so None is free.
_TERM = None


@dataclass(frozen=True)
class Glossary:
    """Immutable compiled glossary; phrase index is the keyword id."""

    category: str
    phrases: tuple[tuple[str, ...], ...]

    def phrase_text(self, keyword_id: int) -> str:
        return " ".join(self.phrases[keyword_id])

    def digest(self) -> str:
        """sha256 over the normalized phrases in id order.

        The category name is deliberately excluded: the digest guards score
        validity, and renaming a category changes no score.
        """
        h = hashlib.sha256()
        for phrase in self.phrases:
            h.update(" ".join(phrase).encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()


@dataclass(frozen=True)
class MatchProfile:
    """Per-document keyword term frequencies; zero-count keys are omitted."""

    tf: dict[int, int]
    total_matches: int


def make_glossary(category: str, phrases) -> Glossary:
    """Normalize, deduplicate, and id-order a phrase collection."""
    unique = {tuple(p) for p in phrases}
    for p in unique:
        if len(p) == 0:
            raise ValidationError("glossary phrases must have at least one token")
    return Glossary(category=category, phrases=tuple(sorted(unique)))


def load_glossary(source, category: str | None = None) -> Glossary:
    """Load a glossary file: one phrase per line, '#' comments, blanks ignored.

    A line that normalizes to zero tokens is a validation error naming the
    line number; so is a file that yields no phrases at all. The category
    defaults to the file stem.
    """
    path = Path(source)
    content = records.read_text(path, f"glossary {path}")
    phrases = set()
    for lineno, line in enumerate(content.split("\n"), start=1):
        if line.startswith("#") or line.strip() == "":
            continue
        toks = tuple(tokenize(line))
        if not toks:
            raise ValidationError(
                f"glossary {path}: line {lineno} contains no alphanumeric tokens"
            )
        phrases.add(toks)
    if not phrases:
        raise ValidationError(f"glossary {path}: no keyword phrases found")
    return Glossary(
        category=category if category is not None else path.stem,
        phrases=tuple(sorted(phrases)),
    )


class Matcher:
    """Token trie compiled from a glossary, reusable across documents."""

    def __init__(self, glossary: Glossary):
        root: dict = {}
        for kid, phrase in enumerate(glossary.phrases):
            node = root
            for tok in phrase:
                node = node.setdefault(tok, {})
            node[_TERM] = kid
        self._root = root

    def profile(self, tokens) -> MatchProfile:
        tf: dict[int, int] = {}
        root = self._root
        i, n = 0, len(tokens)
        while i < n:
            node = root.get(tokens[i])
            best_id = None
            best_end = i
            j = i
            while node is not None:
                j += 1
                kid = node.get(_TERM)
                if kid is not None:
                    best_id, best_end = kid, j
                if j >= n:
                    break
                node = node.get(tokens[j])
            if best_id is None:
                i += 1
            else:
                tf[best_id] = tf.get(best_id, 0) + 1
                i = best_end
        return MatchProfile(tf=dict(sorted(tf.items())), total_matches=sum(tf.values()))


@lru_cache(maxsize=32)
def _cached_digest(glossary: Glossary) -> str:
    return glossary.digest()


@lru_cache(maxsize=32)
def _cached_matcher(glossary: Glossary) -> Matcher:
    return Matcher(glossary)


def match(glossary: Glossary, tokens) -> MatchProfile:
    """Leftmost-longest non-overlapping match counts for one token sequence."""
    return _cached_matcher(glossary).profile(tuple(tokens))
