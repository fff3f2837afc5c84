"""Outside-in tracing of the entropy_classifier package.

The tracer replaces public functions of each package module with timing
wrappers while a traced pass runs, and puts the originals back afterwards.
A name bound by `from .x import y` is patched in the module that looks it up
(for example `scoring.match` or `cli.score_document`); methods such as
`Glossary.digest` and `Matcher.profile` are patched on their class.

Each call records a span [name, start, end, parent index, run id]. Spans stay
in memory until the benchmark writes them out. A span's self time is its
duration minus the durations of its direct children, so self times summed
over all spans equal the summed duration of the root spans. Counters are
taken at the same call boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from collections import Counter, defaultdict

# The package modules, one layer each; `synthetic` only generates inputs.
LAYERS = ("text", "glossary", "scoring", "background", "calibration", "model",
          "logreg", "experiments", "stats", "cli")


def _count_calls(name):
    def count(tracer, args, result):
        tracer.counters[name] += 1
    return count


def _count_tokens(tracer, args, result):
    tracer.counters["text.tokenize.calls"] += 1
    tracer.counters["text.tokenize.tokens"] += len(result)


def _count_corpus(tracer, args, result):
    tracer.counters["text.load_corpus.docs"] += len(result)
    tracer.counters["text.load_corpus.bytes"] += tracer.source_bytes(args[0])


def _count_match(tracer, args, result):
    matcher, tokens = args[0], args[1]
    tracer.counters["glossary.match.calls"] += 1
    tracer.counters["glossary.match.matches"] += result.total_matches
    tracer.pairs.add((tracer.glossary_key(matcher), hash(tuple(tokens))))


def _count_scores(tracer, args, result):
    tracer.counters["calibration.threshold.n_scores"] += len(args[0])


# (owner, attribute, span name, counter). The owner is a dotted path below the
# package; entries whose owner or attribute no longer exists are skipped and
# reported, so a refactor of the program cannot break the traced run.
PATCHES = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_corpus", "text.load_corpus", _count_corpus),
    ("text", "tokenize", "text.tokenize", _count_tokens),
    ("glossary", "tokenize", "text.tokenize", _count_tokens),
    ("cli", "load_glossary", "glossary.load", None),
    ("glossary.Glossary", "digest", "glossary.digest", _count_calls("glossary.digest.calls")),
    ("glossary.Matcher", "__init__", "glossary.matcher_build",
     _count_calls("glossary.matcher_build.calls")),
    ("glossary.Matcher", "profile", "glossary.match", _count_match),
    ("scoring", "match", "glossary.match", None),
    ("cli", "score_document", "scoring.score_document", None),
    ("experiments", "score_document", "scoring.score_document", None),
    ("scoring", "raw_score", "scoring.raw_score", _count_calls("scoring.raw_score.calls")),
    ("scoring", "predict", "scoring.predict", None),
    ("calibration", "standardized_scores", "scoring.standardized_scores", None),
    ("cli", "train", "background.train", None),
    ("experiments", "train", "background.train", None),
    ("background", "compute_df", "background.compute_df", None),
    ("background", "fit_standardization", "background.fit_standardization", None),
    ("cli", "calibrate_fpr", "calibration.calibrate_fpr", None),
    ("experiments", "calibrate_fpr", "calibration.calibrate_fpr", None),
    ("cli", "measure_fpr", "calibration.measure_fpr", None),
    ("experiments", "measure_fpr", "calibration.measure_fpr", None),
    ("calibration", "threshold_for_scores", "calibration.threshold", _count_scores),
    ("logreg", "threshold_for_scores", "calibration.threshold", _count_scores),
    ("cli", "load_model", "model.load", None),
    ("cli", "save_model", "model.save", None),
    ("cli", "rewrite_bias_line", "model.rewrite_bias", None),
    ("experiments", "train_lr", "logreg.train", None),
    ("logreg", "build_vocabulary", "logreg.vocab", None),
    ("logreg", "featurize", "logreg.featurize", _count_calls("logreg.featurize.calls")),
    ("logreg", "logistic_gradient", "logreg.epoch", _count_calls("logreg.epochs")),
    ("logreg", "logistic_loss", "logreg.epoch", None),
    ("logreg", "lr_logit", "logreg.logit", None),
    ("experiments", "lr_decision", "logreg.decision", None),
    ("experiments", "calibrate_lr_threshold", "logreg.calibrate", None),
    ("experiments", "lr_measure_fpr", "logreg.measure_fpr", None),
    ("cli", "run_experiment1", "experiments.run", None),
    ("cli", "run_experiment2", "experiments.run", None),
    ("cli", "render_records", "experiments.render", None),
    ("cli", "render_table", "experiments.render", None),
    ("experiments", "split_alternating", "experiments.split", None),
    ("cli", "recall", "stats.recall", None),
    ("experiments", "recall", "stats.recall", None),
    ("experiments", "one_way_anova", "stats.anova", None),
    ("experiments", "fractional_change", "stats.fractional_change", None),
]


class Tracer:
    """Spans and counters of one traced pass; patches only while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.pairs: set = set()
        self.run_id = 0
        self.missing: list[str] = []
        self.count_errors: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._bytes: dict[str, int] = {}
        self._glossary_keys: dict[int, tuple] = {}

    def wrap(self, fn, name: str, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    count(self, args, result)
                except Exception as exc:  # a changed signature must not stop the pass
                    self.count_errors[f"{name}: {exc!r}"] += 1
            return result

        return traced

    def install(self, pkg, patches=PATCHES) -> None:
        for path, attr, name, count in patches:
            owner = pkg
            for part in path.split("."):
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def source_bytes(self, path) -> int:
        """Size of a corpus file, or of all files under a corpus directory."""
        key = os.fspath(path)
        if key not in self._bytes:
            if os.path.isdir(key):
                self._bytes[key] = sum(os.path.getsize(os.path.join(d, f))
                                       for d, _, files in os.walk(key) for f in files)
            else:
                self._bytes[key] = os.path.getsize(key)
        return self._bytes[key]

    def glossary_key(self, matcher) -> str:
        """Digest of the phrases a Matcher was compiled from, read off its trie.

        The matcher is kept alive with its key so that its id is not reused.
        """
        entry = self._glossary_keys.get(id(matcher))
        if entry is None:
            phrases = {}
            todo = [((), matcher._root)]
            while todo:
                prefix, node = todo.pop()
                for tok, child in node.items():
                    if tok is None:
                        phrases[child] = prefix
                    else:
                        todo.append((prefix + (tok,), child))
            h = hashlib.sha256()
            for kid in sorted(phrases):
                h.update(" ".join(phrases[kid]).encode("utf-8") + b"\n")
            entry = self._glossary_keys[id(matcher)] = (matcher, h.hexdigest())
        return entry[1]


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        totals[span[0]] += t
    return dict(totals)


def root_time(spans) -> float:
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
