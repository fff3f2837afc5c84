"""Pinned output bytes of the knowledge-based commands on a small fixed input.

train, calibrate, score --explain and evaluate run on a generated glossary,
background, negative and positive corpus; the sha256 of every stdout and of
the model file after train and after calibrate is pinned here. Scores sum
several floats, so a change in how any of them is summed, on any Python
version or platform, changes a digest. No numpy is needed: the file runs on
every supported Python.
"""

import hashlib

import pytest

from entropy_classifier.cli import main

KEYWORDS = ["ledger", "audit", "tax return", "interest rate", "dividend", "portfolio",
            "hedge", "bond yield", "equity", "liquidity", "margin call", "futures"]
FILLER = "the a of market report said week year new plan team city note data was".split()


def texts(n: int, seed: int, density: int) -> list[str]:
    """n documents of 20 to 169 words from a fixed linear congruential
    sequence; about one word in density is a keyword (a phrase counts as one)."""
    docs = []
    x = seed
    for i in range(n):
        words = []
        for _ in range(20 + (seed + 37 * i) % 150):
            x = (x * 1103515245 + 12345) % 2**31
            pool = KEYWORDS if (x >> 8) % density == 0 else FILLER
            words.append(pool[(x >> 16) % len(pool)])
        docs.append(" ".join(words))
    return docs


# (command, sha256 of its stdout, sha256 of the model file after it or None).
# train writes nothing to stdout. With sum() in the scoring kernel, Python 3.12
# and later change the calibrate and score digests.
PINNED = [
    ("train", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "5259d4f9161de3dde536ceb6bbb86250dbef9a7a45ef477c2a876f007b1440e8"),
    ("calibrate", "29055e121a81da980255e71f799ca2e9f6b2d82501017a11975d469f8ac91c8b",
     "b67f767cffcd3f604ca160688051f65d2ba2ecbdf5b87453b7dc9d1d9a467e50"),
    ("score", "0aef5e6586958d6a9a599ec49a5766849d27d4298d1a6cec496a8baf3be60c6c", None),
    ("evaluate", "56d8cc7386f8cb0ebc4a88f4351c6aa94fd4fc6ece653fb688ae4b7b2915debb", None),
]


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "glossary.txt").write_text("\n".join(KEYWORDS) + "\n", encoding="utf-8")
    for name, n, seed, density in (("background", 60, 11, 9), ("negatives", 50, 23, 9),
                                   ("positives", 30, 37, 6)):
        (tmp_path / f"{name}.txt").write_text("\n".join(texts(n, seed, density)) + "\n",
                                              encoding="utf-8")
    return tmp_path


def test_kb_command_bytes_are_pinned(workspace, capsys):
    ws = {name: str(workspace / f"{name}.txt")
          for name in ("glossary", "background", "negatives", "positives")}
    model = workspace / "model.txt"
    commands = {
        "train": ["train", "--glossary", ws["glossary"], "--background", ws["background"],
                  "--out", str(model), "--k", "60"],
        "calibrate": ["calibrate", "--model", str(model), "--glossary", ws["glossary"],
                      "--negatives", ws["negatives"], "--target-fpr", "0.05"],
        "score": ["score", "--model", str(model), "--glossary", ws["glossary"],
                  "--input", ws["positives"], "--explain"],
        "evaluate": ["evaluate", "--model", str(model), "--glossary", ws["glossary"],
                     "--positives", ws["positives"], "--negatives", ws["negatives"]],
    }
    got = []
    for name, stdout_digest, model_digest in PINNED:
        assert main(commands[name]) == 0
        out = capsys.readouterr().out
        got.append((name, hashlib.sha256(out.encode("utf-8")).hexdigest(),
                    hashlib.sha256(model.read_bytes()).hexdigest() if model_digest else None))
    assert got == PINNED
