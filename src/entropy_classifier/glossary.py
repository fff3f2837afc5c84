"""Keyword glossaries and multi-pattern matching over token sequences.

A glossary is a category name plus a set of keyword phrases. Phrases are
normalized with the same tokenizer as documents, deduplicated, and given dense
integer ids in ascending lexicographic order, so ids are a pure function of
the phrase set.

Matching is leftmost-longest and non-overlapping: scanning left to right, the
longest phrase starting at the current position wins and consumes its tokens;
positions with no match advance by one token. This prevents a phrase and its
prefix (e.g. "tax return" and "tax") from both counting at the same spot.
Since a position with no match only advances by one token, Matcher.profile
visits just the positions whose token begins some phrase (a key of the trie's
root) and that the previous match did not consume; skipping the others
changes no result.

A glossary owns its caches: its digest and its compiled Matcher are computed
on first use and stored on the instance, and the Matcher keeps a memo of match
profiles keyed weakly by Document. match_document reads that memo, so each
(glossary, document) pair is matched at most once while both objects live;
the memo entry goes when the document does, and all of it when the glossary
does. Nothing is cached at module level.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path

from . import records
from .errors import ValidationError
from .text import Document, tokenize

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

    # cached_property writes the instance __dict__ directly, so it works on a
    # frozen dataclass; the values live and die with this glossary.
    @cached_property
    def cached_digest(self) -> str:
        """digest(), computed on first use."""
        return self.digest()

    @cached_property
    def matcher(self) -> Matcher:
        """The compiled Matcher, built on first use."""
        return Matcher(self)


@dataclass(frozen=True)
class MatchProfile:
    """Per-document keyword term frequencies; zero-count keys are omitted.

    Invariant: tf iterates in ascending keyword id order, as Matcher.profile
    builds it, and total_matches is the sum of its counts. The scoring kernel
    reads tf once in that order and does not sort it, so the order fixes the
    summation order of every score.
    """

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
    phrases = []
    for lineno, line in enumerate(content.split("\n"), start=1):
        if line.startswith("#") or line.strip() == "":
            continue
        toks = tokenize(line)
        if not toks:
            raise ValidationError(
                f"glossary {path}: line {lineno} contains no alphanumeric tokens"
            )
        phrases.append(toks)
    if not phrases:
        raise ValidationError(f"glossary {path}: no keyword phrases found")
    return make_glossary(category if category is not None else path.stem, phrases)


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
        self._memo = weakref.WeakKeyDictionary()  # Document -> MatchProfile

    def profile(self, tokens) -> MatchProfile:
        tf: dict[int, int] = {}
        root = self._root
        n = len(tokens)
        end = 0  # first position not consumed by the previous match
        for i in compress(range(n), map(root.__contains__, tokens)):
            if i < end:
                continue
            node = root[tokens[i]]
            best_id = None
            j = i
            while node is not None:
                j += 1
                kid = node.get(_TERM)
                if kid is not None:
                    best_id, end = kid, j
                if j >= n:
                    break
                node = node.get(tokens[j])
            if best_id is not None:
                tf[best_id] = tf.get(best_id, 0) + 1
        return MatchProfile(tf=dict(sorted(tf.items())), total_matches=sum(tf.values()))


def match(glossary: Glossary, tokens) -> MatchProfile:
    """Leftmost-longest non-overlapping match counts for one token sequence."""
    return glossary.matcher.profile(tuple(tokens))


def match_document(glossary: Glossary, doc: Document) -> MatchProfile:
    """match(glossary, doc.tokens), computed once per (glossary, document).

    The profile is shared by every caller, so it must not be modified.
    """
    matcher = glossary.matcher
    profile = matcher._memo.get(doc)
    if profile is None:
        profile = matcher._memo[doc] = matcher.profile(doc.tokens)
    return profile
