import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from entropy_classifier.errors import ToolError
from entropy_classifier.glossary import make_glossary
from entropy_classifier.text import corpus_from_texts

DATA_DIR = Path(__file__).parent / "data"


FINANCE_PHRASES = [
    ("tax", "return"), ("interest", "rate"), ("dividend",),
    ("audit",), ("portfolio",),
]

# 14 docs engineered so every keyword has nonzero df and scores vary
BACKGROUND_TEXTS = [
    f"the quick brown fox discussed a tax return and the interest rate "
    f"with a portfolio audit team member number {i} while walking"
    for i in range(12)
] + [
    "nothing relevant here at all just words and more words",
    "dividend dividend audit portfolio interest rate tax return",
]


@pytest.fixture
def finance_glossary():
    return make_glossary("finance", FINANCE_PHRASES)


@pytest.fixture
def small_background():
    return corpus_from_texts(BACKGROUND_TEXTS, source="<fixture:background>")


def random_glossary_and_doc(rng: random.Random, max_phrases: int = 20,
                            max_tokens: int = 300):
    """A small random glossary plus a token list that plants some phrases."""
    vocab = [f"t{j}" for j in range(rng.randint(8, 24))]
    n_phrases = rng.randint(1, max_phrases)
    phrases = set()
    while len(phrases) < n_phrases:
        length = rng.choice([1, 1, 1, 2, 2, 3])
        phrases.add(tuple(rng.choice(vocab) for _ in range(length)))
    phrases = sorted(phrases)

    units = [[rng.choice(vocab)] for _ in range(rng.randint(0, max_tokens // 2))]
    for _ in range(rng.randint(0, 12)):
        units.append(list(rng.choice(phrases)))
    rng.shuffle(units)
    tokens = [tok for unit in units for tok in unit][:max_tokens]
    return phrases, tokens


def write_corpus_dir(root: Path, texts: dict[str, str]) -> Path:
    """Write {relative_path: text} under root/corpus and return that dir."""
    base = root / "corpus"
    for rel, text in texts.items():
        p = base / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    return base


def write_lines_file(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fuzz_file(tmp_path_factory):
    """One scratch file path that every hypothesis example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


# Values that stress a numeric or textual field of a record.
_NASTY = [b"", b" ", b"#", b"\n", b"\r", b"\xff", b"\xe2\x80\xa8", b"nan", b"inf",
          b"-inf", b"-0", b"1e999", b"9" * 400, b"0", b"-1", b"format_version 1"]


@st.composite
def mutations(draw, original: bytes) -> bytes:
    """A few byte-level edits of original: deletions, insertions, overwrites,
    and splices of stress values."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 12)))
        chunk = draw(st.one_of(st.sampled_from(_NASTY), st.binary(max_size=8)))
        data[i:j] = chunk
    return bytes(data)


def loads_or_refuses(load, path) -> None:
    """Run a loader; a ToolError is an allowed outcome, anything else fails."""
    try:
        load(path)
    except ToolError:
        pass


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and outcome == "passed":
                continue
            name = nodeid.split("::")[-1]
            rows.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(set(rows)):
            terminalreporter.write_line(f"{name}: {verdict}")
