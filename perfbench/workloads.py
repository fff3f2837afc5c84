"""Seeded inputs for the benchmark workloads.

Each workload writes its corpora and glossaries into a directory and returns a
manifest that names them. The program under test only ever receives those
files. The same seed gives byte-identical files, and generation is never part
of a measurement.

Run directly to generate one workload's inputs:

    python3 perfbench/workloads.py --workload bulk-500kw --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Non-ASCII filler for the unicode workload: accented Latin, Cyrillic, Greek.
_ACCENTED = "àáâäçèéêëìíîïñòóôöùúûüýÿøåæœß"
_CYRILLIC = "абвгдежзийклмнопрстуфхцчшщыэюя"
_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"
_PUNCT = [("", ","), ("", "."), ("", ";"), ("", ":"), ("", "!"), ("", "?"),
          ("(", ")"), ("«", "»"), ("\"", "\""), ("", "—"), ("'", "'")]


@dataclass(frozen=True)
class CorpusWorkload:
    """Three generated corpora (background, negatives, input) over one glossary.

    Filler tokens are drawn Zipf-like from a fixed vocabulary. A share of the
    documents is single-keyword spam, a share of the input is topical (dense in
    many keywords), and the rest carries keywords at about `density`.
    exp1/exp2 run on the first `n_exp_docs` background and negative documents
    with two categories that split the glossary in halves.
    """

    why: str
    unicode: bool
    layout: str  # "lines": one document per line; "dirs": one file per document
    n_docs: int
    doc_tokens: int
    n_phrases: int
    density: float
    explain: bool
    target_fpr: float
    n_exp_docs: int
    n_exp_positives: int
    vocab_size: int = 20_000
    spam_fraction: float = 0.10
    topical_fraction: float = 0.20


@dataclass(frozen=True)
class SuiteWorkload:
    """`synthetic.build_suite` scaled up, written to line-delimited files.

    train/calibrate/score/evaluate run on the first category; exp1/exp2 run on
    all of them.
    """

    why: str
    n_categories: int
    n_background: int
    n_negatives: int
    n_positives: int


WORKLOADS = {
    "bulk-500kw": CorpusWorkload(
        why="500-phrase glossary over 250-token ASCII docs: the per-document "
            "glossary digest dominates score and calibrate, and an ASCII tokenize "
            "fast path would fire",
        unicode=False, layout="lines", n_docs=600, doc_tokens=250, n_phrases=500,
        density=0.03, explain=False, target_fpr=0.001,
        n_exp_docs=200, n_exp_positives=30,
    ),
    "unicode-longdoc-30kw": CorpusWorkload(
        why="30-phrase glossary over 1500-token non-ASCII docs, one file each: "
            "tokenize, match and --explain formatting dominate, the digest does not",
        unicode=True, layout="dirs", n_docs=120, doc_tokens=1500, n_phrases=30,
        density=0.02, explain=True, target_fpr=0.001,
        n_exp_docs=50, n_exp_positives=15,
    ),
    "experiments": SuiteWorkload(
        why="scaled synthetic suite through exp1 and exp2: the only workload on "
            "logreg, experiments and stats, with the most repeated matching",
        n_categories=4, n_background=500, n_negatives=500, n_positives=100,
    ),
}


# --- corpus workloads -------------------------------------------------------

def _words(rng: random.Random, n: int, alphabet: str, taken: set[str]) -> list[str]:
    out = []
    while len(out) < n:
        w = "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 9)))
        if w not in taken:
            taken.add(w)
            out.append(w)
    return out


def _zipf(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


class _Shape:
    """Vocabulary, glossary and document sampler of one corpus workload."""

    def __init__(self, spec: CorpusWorkload, seed: int):
        self.spec = spec
        rng = random.Random(seed)
        taken: set[str] = set()
        ascii_letters = "abcdefghijklmnopqrstuvwxyz"
        # Each part is (words, share of filler draws); words within a part are
        # Zipf-distributed. The unicode workload draws a fifth of its filler
        # from accented, Cyrillic and Greek words.
        if spec.unicode:
            n_foreign = spec.vocab_size // 15
            parts = [(_words(rng, spec.vocab_size - 3 * n_foreign, ascii_letters, taken), 0.8)]
            for alphabet in (ascii_letters[:12] + _ACCENTED, _CYRILLIC, _GREEK):
                parts.append((_words(rng, n_foreign, alphabet, taken), 0.2 / 3))
        else:
            parts = [(_words(rng, spec.vocab_size, ascii_letters, taken), 1.0)]
        self.vocab = np.array([w for words, _ in parts for w in words], dtype=object)
        zipf = [share * _zipf(len(words), 1.07) for words, share in parts]
        self.p = np.concatenate(zipf)
        # Domain B of exp2 reverses each frequency ranking: same words, shifted use.
        self.p_shifted = np.concatenate([z[::-1] for z in zipf])

        # Keyword tokens are disjoint from the filler vocabulary. Phrases of one
        # to three tokens share leading tokens, as "tax" and "tax return" do.
        alphabets = [ascii_letters]
        if spec.unicode:
            alphabets += [ascii_letters[:12] + _ACCENTED, _CYRILLIC, _GREEK]
        n_heads = max(4, spec.n_phrases // 2)
        heads = []
        for i in range(n_heads):
            heads += _words(rng, 1, alphabets[i % len(alphabets)], taken)
        tails = _words(rng, spec.n_phrases, ascii_letters, taken)
        phrases: set[tuple[str, ...]] = {(h,) for h in heads[: spec.n_phrases // 3 + 1]}
        t = 0
        while len(phrases) < spec.n_phrases:
            head = rng.choice(heads)
            phrase = (head, tails[t % len(tails)])
            t += 1
            if rng.random() < 0.3:
                phrase += (rng.choice(tails),)
            phrases.add(phrase)
        self.phrases = sorted(phrases)

    def documents(self, rng: np.random.Generator, n: int, kind: str,
                  phrases: list[tuple[str, ...]] | None = None) -> list[str]:
        """n documents of one kind: "plain" (keywords at about the workload's
        density, some single-keyword spam), "input" (plain, with a topical
        share), "topical" (three times the density) or "shifted" (exp2's
        domain B: reversed filler ranking, twice the density)."""
        spec = self.spec
        phrases = self.phrases if phrases is None else phrases
        phrase_p = _zipf(len(phrases), 0.8)
        lengths = rng.integers(int(spec.doc_tokens * 0.7), int(spec.doc_tokens * 1.3) + 1, n)
        p = self.p_shifted if kind == "shifted" else self.p
        filler = rng.choice(self.vocab, size=int(lengths.sum()), p=p)
        docs = []
        start = 0
        for length in lengths:
            tokens = list(filler[start:start + length])
            start += length
            roll = rng.random()
            if kind in ("plain", "input") and roll < spec.spam_fraction:
                spam = phrases[rng.choice(len(phrases), p=phrase_p)]
                inserts = [spam] * int(rng.integers(10, 31))
            else:
                if kind == "shifted":
                    density = spec.density * 2.0
                else:
                    topical = kind == "topical" or (
                        kind == "input" and roll > 1.0 - spec.topical_fraction)
                    density = spec.density * (3.0 if topical else 1.0) * rng.gamma(2.0, 0.5)
                # Phrases average about 1.7 tokens.
                picks = rng.choice(len(phrases), size=rng.poisson(density * length / 1.7),
                                   p=phrase_p)
                inserts = [phrases[i] for i in picks]
            for phrase in inserts:
                pos = int(rng.integers(0, len(tokens) + 1))
                tokens[pos:pos] = phrase
            docs.append(self._render(rng, tokens))
        return docs

    def _render(self, rng: np.random.Generator, tokens: list[str]) -> str:
        if not self.spec.unicode:
            return " ".join(tokens)
        # Punctuation on ~12% of tokens, capitals after sentence ends, and
        # paragraph breaks, so tokenize has real separators to split on.
        out = []
        capital = True
        marks = rng.random(len(tokens))
        kinds = rng.integers(0, len(_PUNCT), len(tokens))
        for tok, mark, kind in zip(tokens, marks, kinds):
            if capital:
                tok = tok[:1].upper() + tok[1:]
                capital = False
            if mark < 0.12:
                left, right = _PUNCT[kind]
                tok = f"{left}{tok}{right}"
                capital = right in ".!?"
            out.append(tok)
            if mark > 0.985:
                out.append("\n")
        return " ".join(out).replace(" \n ", "\n")


def _write_corpus(out: Path, name: str, docs: list[str], layout: str) -> dict:
    if layout == "lines":
        path = out / f"{name}.txt"
        path.write_text("\n".join(docs) + "\n", encoding="utf-8")
        ids = [f"{i:06d}" for i in range(1, len(docs) + 1)]
        return {"path": str(path), "ids": ids}
    root = out / name
    ids = []
    for i, text in enumerate(docs):
        rel = f"{i % 8:02d}/{(i // 8) % 4:02d}/doc{i:05d}.txt"
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
        ids.append(rel)
    return {"path": str(root), "ids": sorted(ids)}


def _write_glossary(path: Path, phrases) -> str:
    path.write_text("".join(" ".join(p) + "\n" for p in phrases), encoding="utf-8")
    return str(path)


def _generate_corpus_workload(spec: CorpusWorkload, seed: int, out: Path) -> dict:
    shape = _Shape(spec, seed)
    rng = np.random.default_rng([seed, 1])
    background = shape.documents(rng, spec.n_docs, "plain")
    negatives = shape.documents(rng, spec.n_docs, "plain")
    inputs = shape.documents(rng, spec.n_docs, "input")
    corpora = {
        name: _write_corpus(out, name, docs, spec.layout)
        for name, docs in (("background", background), ("negatives", negatives),
                           ("input", inputs))
    }
    categories = []
    for c in range(2):
        phrases = shape.phrases[c::2]
        categories.append({
            "name": f"cat{c}",
            "glossary": _write_glossary(out / f"exp_glossary{c}.txt", phrases),
            "a": _write_corpus(out, f"exp_a{c}",
                               shape.documents(rng, spec.n_exp_positives, "topical", phrases),
                               spec.layout),
            "b": _write_corpus(out, f"exp_b{c}",
                               shape.documents(rng, spec.n_exp_positives, "shifted", phrases),
                               spec.layout),
        })
    return {
        "glossary": _write_glossary(out / "glossary.txt", shape.phrases),
        **corpora,
        "positives": corpora["input"],
        "one_doc": _write_corpus(out, "one_doc", inputs[:1], spec.layout),
        "target_fpr": spec.target_fpr,
        "explain": spec.explain,
        "exp": {
            "background": _write_corpus(out, "exp_background",
                                        background[: spec.n_exp_docs], spec.layout),
            "negatives": _write_corpus(out, "exp_negatives",
                                       negatives[: spec.n_exp_docs], spec.layout),
            "target_fpr": 0.01,
            "categories": categories,
        },
    }


# --- suite workload ---------------------------------------------------------

def _generate_suite_workload(spec: SuiteWorkload, seed: int, out: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from entropy_classifier.synthetic import SuiteParams, build_suite

    params = SuiteParams(seed=seed, n_categories=spec.n_categories,
                         n_background=spec.n_background, n_negatives=spec.n_negatives,
                         n_positives=spec.n_positives)
    suite = build_suite(params)

    def texts(corpus):
        return [d.raw_text for d in corpus]

    background = _write_corpus(out, "background", texts(suite.background), "lines")
    negatives = _write_corpus(out, "negatives", texts(suite.negatives), "lines")
    categories = []
    for c, cat in enumerate(suite.categories):
        categories.append({
            "name": cat.name,
            "glossary": _write_glossary(out / f"glossary{c}.txt", cat.glossary.phrases),
            "a": _write_corpus(out, f"positives_a{c}", texts(cat.positives), "lines"),
            "b": _write_corpus(out, f"positives_b{c}", texts(cat.positives_b), "lines"),
        })
    first = categories[0]
    inputs = [t for cat in suite.categories for t in texts(cat.positives)]
    return {
        "glossary": first["glossary"],
        "background": background,
        "negatives": negatives,
        "input": _write_corpus(out, "input", inputs, "lines"),
        "positives": first["a"],
        "one_doc": _write_corpus(out, "one_doc", inputs[:1], "lines"),
        "target_fpr": params.target_fpr,
        "explain": False,
        "exp": {
            "background": background,
            "negatives": negatives,
            "target_fpr": params.target_fpr,
            "categories": categories,
        },
    }


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under `out` and return their manifest."""
    spec = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, SuiteWorkload):
        manifest = _generate_suite_workload(spec, seed, out)
    else:
        manifest = _generate_corpus_workload(spec, seed, out)
    manifest.update(workload=workload, seed=seed, model=str(out / "model.txt"))
    return manifest


def commands(m: dict) -> list[tuple[str, list[str], int]]:
    """The workload's CLI invocations in order, each with the documents it reads.

    train writes the model, calibrate rewrites its bias, and score and evaluate
    read it, so the list runs in order.
    """
    model, g, exp = m["model"], m["glossary"], m["exp"]
    score = ["score", "--model", model, "--glossary", g, "--input", m["input"]["path"]]
    exp1 = ["exp1", "--background", exp["background"]["path"],
            "--negatives", exp["negatives"]["path"], "--target-fpr", repr(exp["target_fpr"])]
    exp2 = ["exp2"] + exp1[1:]
    for cat in exp["categories"]:
        exp1 += ["--category", cat["name"], cat["glossary"], cat["a"]["path"]]
        exp2 += ["--category", cat["name"], cat["glossary"], cat["a"]["path"], cat["b"]["path"]]
    n = {k: len(m[k]["ids"]) for k in ("background", "negatives", "input", "positives")}
    return [
        ("train", ["train", "--glossary", g, "--background", m["background"]["path"],
                   "--out", model], n["background"]),
        ("calibrate", ["calibrate", "--model", model, "--glossary", g,
                       "--negatives", m["negatives"]["path"],
                       "--target-fpr", repr(m["target_fpr"])], n["negatives"]),
        ("score", score + (["--explain"] if m["explain"] else []), n["input"]),
        ("evaluate", ["evaluate", "--model", model, "--glossary", g,
                      "--positives", m["positives"]["path"],
                      "--negatives", m["negatives"]["path"]], n["positives"] + n["negatives"]),
        ("exp1", exp1, len(exp["background"]["ids"])),
        ("exp2", exp2, len(exp["background"]["ids"])),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
