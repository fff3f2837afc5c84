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
changes no result. A document holding no such token (most background and
negative documents) is settled by one set-level isdisjoint test, with no
per-token scan; Matcher.profile still runs once per document, and every
document that matches no phrase shares the one read-only profile _NO_MATCH.

A glossary owns its caches: its digest and its compiled Matcher are computed
on first use and stored on the instance; the Matcher keeps, weakly keyed by
corpus, the (word count, MatchProfile) list match_corpus returns, so each
(glossary, corpus) pair is matched at most once while both live. A stream
(text.read_documents) is read once: every glossary that needs its list must be
in that one call. Glossaries lacking a list for the same corpus share one scan
per document for their root keys (_match_corpora), skipped when the document
holds none of any of them; each Matcher walks its trie from those positions
only. Nothing is cached at module level.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from types import MappingProxyType

from . import records
from .errors import ValidationError
from .text import Documents, tokenize

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
    summation order of every score. A dataclass, not a named tuple, so that
    a profile can be weakly referenced. A document with no match gets the
    shared _NO_MATCH, whose tf is a read-only mapping: no tf may be modified.
    """

    tf: dict[int, int] | MappingProxyType
    total_matches: int


_NO_MATCH = MatchProfile(tf=MappingProxyType({}), total_matches=0)


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
    defaults to the file stem. One leading byte order mark (U+FEFF) is
    dropped, so an editor's BOM neither turns a first-line comment into a
    phrase nor makes a blank first line tokenless.
    """
    path = Path(source)
    content = records.read_text(path, f"glossary {path}").removeprefix("\ufeff")
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
        self._heads = frozenset(root)  # a set's isdisjoint beats the keys view's
        self._corpora = weakref.WeakKeyDictionary()  # corpus -> match_corpus's list

    def profile(self, tokens, starts=None) -> MatchProfile:
        """Match counts of tokens, tried at the ascending positions starts (by
        default where a root key is); a start that is no root key is skipped."""
        tf: dict[int, int] = {}
        root = self._root
        n = len(tokens)
        if starts is None:
            if self._heads.isdisjoint(tokens):
                return _NO_MATCH
            starts = compress(range(n), map(root.__contains__, tokens))
        end = 0  # first position not consumed by the previous match
        for i in starts:
            if i < end:
                continue
            node = root.get(tokens[i])  # None at a start that is no root key
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
        if not tf:
            return _NO_MATCH
        return MatchProfile(tf=dict(sorted(tf.items())), total_matches=sum(tf.values()))


def match(glossary: Glossary, tokens) -> MatchProfile:
    """Leftmost-longest non-overlapping match counts for one token sequence."""
    return glossary.matcher.profile(tuple(tokens))


def _match_corpora(glossaries, *corpora) -> None:
    """Build match_corpus's list of each (glossary, corpus) pair that has none,
    with one scan per document for the root keys of all the glossaries."""
    for corpus in corpora:
        matchers = [m for m in dict.fromkeys(g.matcher for g in glossaries)
                    if corpus not in m._corpora]
        if not matchers:
            continue
        heads = frozenset().union(*(m._heads for m in matchers))
        lists = [[] for _ in matchers]
        for tokens in (doc.tokens for doc in corpus):
            starts = () if heads.isdisjoint(tokens) else list(
                compress(range(len(tokens)), map(heads.__contains__, tokens)))
            for matcher, profiles in zip(matchers, lists):
                profiles.append((len(tokens), matcher.profile(tokens, starts)))
        for matcher, profiles in zip(matchers, lists):
            matcher._corpora[corpus] = profiles


def match_corpus(glossary: Glossary, corpus: Documents) -> list[tuple[int, MatchProfile]]:
    """(word count, match profile) of every document, in corpus order, computed
    once per (glossary, corpus). The list is shared, so it must not be modified."""
    _match_corpora((glossary,), corpus)
    return glossary.matcher._corpora[corpus]
