import argparse
import errno
import io
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from entropy_classifier import cli
from entropy_classifier.cli import main
from entropy_classifier.model import load_model
from entropy_classifier.records import format_float

from conftest import (
    WRITE_FAULTS,
    inject_write_fault,
    refuse_scandir,
    refuse_stat,
    write_corpus_dir,
    write_lines_file,
)

GLOSSARY = "# finance terms\ntax return\ninterest rate\ndividend\naudit\nportfolio\n"

BACKGROUND = [
    f"the quick brown fox discussed a tax return and the interest rate "
    f"with a portfolio audit team member number {i} while walking"
    for i in range(12)
] + [
    "nothing relevant here at all just words and more words",
    "dividend dividend audit portfolio interest rate tax return",
]

INPUT_LINES = [
    "tax return audit dividend portfolio interest rate review",
    "plain text with no finance words whatsoever in it today",
]

NEGATIVE_LINES = [f"random noise line number {i}" for i in range(8)]


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "gloss.txt").write_text(GLOSSARY, encoding="utf-8")
    write_corpus_dir(tmp_path, {f"doc{i:02d}.txt": t for i, t in enumerate(BACKGROUND)})
    write_lines_file(tmp_path / "input.txt", INPUT_LINES)
    write_lines_file(tmp_path / "negs.txt", NEGATIVE_LINES)
    return tmp_path


def write_tiny_sigma(ws):
    """Train, then set the model's sigma to a subnormal value; return the path."""
    run_train(ws)
    path = ws / "model.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines = ["sigma 1e-310" if ln.startswith("sigma ") else ln for ln in lines]
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def run_train(ws, glossary="gloss.txt", **extra):
    args = ["train", "--glossary", str(ws / glossary),
            "--background", str(ws / "corpus"),
            "--out", str(ws / "model.txt")]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return main(args)


def glossary_named(ws, name):
    """A copy of the workspace glossary under name, or a skip where the
    filesystem refuses that name; return name."""
    try:
        (ws / name).write_text(GLOSSARY, encoding="utf-8")
    except (OSError, UnicodeEncodeError):
        pytest.skip(f"the filesystem refuses the file name {name!r}")
    return name


class TestTrain:
    def test_writes_model(self, workspace, capsys):
        assert run_train(workspace) == 0
        model = load_model(workspace / "model.txt")
        assert model.category == "gloss"
        assert model.n_docs == 14
        assert model.k == 100
        err = capsys.readouterr().err
        assert "trained category=gloss" in err

    def test_category_and_k_flags(self, workspace):
        # The category is the glossary file's stem; there is no flag for it.
        assert run_train(workspace, glossary_named(workspace, "fin.terms.txt"), k=20) == 0
        model = load_model(workspace / "model.txt")
        assert model.category == "fin.terms"
        assert model.k == 20

    def test_category_flag_is_gone(self, workspace, capsys):
        names = sorted(p.name for p in workspace.iterdir())
        assert run_train(workspace, category="fin") == 1
        assert "unrecognized arguments: --category fin" in capsys.readouterr().err
        assert sorted(p.name for p in workspace.iterdir()) == names

    def test_missing_flag_names_it(self, capsys):
        assert main(["train", "--glossary", "g.txt"]) == 1
        err = capsys.readouterr().err
        assert "--background" in err

    def test_newline_in_category_exits_1_without_writing(self, workspace, capsys):
        assert run_train(workspace, glossary_named(workspace, "a\nbias 9.txt")) == 1
        assert "category 'a\\nbias 9' contains a newline" in capsys.readouterr().err
        assert not (workspace / "model.txt").exists()

    def test_unencodable_category_keeps_existing_model(self, workspace, capsys):
        # A file name byte that is not UTF-8 arrives as a lone surrogate.
        glossary = glossary_named(workspace, "fin\udcff.txt")
        assert run_train(workspace) == 0
        before = (workspace / "model.txt").read_bytes()
        names = sorted(p.name for p in workspace.iterdir())
        capsys.readouterr()
        assert run_train(workspace, glossary) == 1
        assert "text is not encodable as UTF-8" in capsys.readouterr().err
        assert (workspace / "model.txt").read_bytes() == before
        assert sorted(p.name for p in workspace.iterdir()) == names

    def test_unencodable_category_creates_no_file(self, workspace, capsys):
        glossary = glossary_named(workspace, "fin\udcff.txt")
        names = sorted(p.name for p in workspace.iterdir())
        assert run_train(workspace, glossary) == 1
        assert "text is not encodable as UTF-8" in capsys.readouterr().err
        assert sorted(p.name for p in workspace.iterdir()) == names

    def test_k_beyond_64_bits_exits_1(self, workspace, capsys):
        assert run_train(workspace, k="9" * 400) == 1
        assert "k must be >= 1 and below 2**63" in capsys.readouterr().err
        assert not (workspace / "model.txt").exists()

    def test_config_flag_is_gone(self, workspace, capsys):
        write_lines_file(workspace / "defaults.txt", ["k 25"])
        assert run_train(workspace, config=workspace / "defaults.txt") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (workspace / "model.txt").exists()

    def test_missing_background_dir_is_io_error(self, tmp_path):
        (tmp_path / "gloss.txt").write_text("audit\n", encoding="utf-8")
        rc = main(["train", "--glossary", str(tmp_path / "gloss.txt"),
                   "--background", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 2

    def test_determinism_byte_identical(self, workspace):
        assert run_train(workspace) == 0
        first = (workspace / "model.txt").read_bytes()
        assert run_train(workspace) == 0
        assert (workspace / "model.txt").read_bytes() == first


class TestScore:
    def test_records_structure(self, workspace, capsys):
        run_train(workspace)
        rc = main(["score", "--model", str(workspace / "model.txt"),
                   "--glossary", str(workspace / "gloss.txt"),
                   "--input", str(workspace / "input.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("# doc_id\t")
        assert len(lines) == 3
        first = lines[1].split("\t")
        assert first[0] == "000001"
        assert first[-1] in ("positive", "negative")
        float(first[3])  # tfidf_over_L parses

    def test_explain_appends_contributions(self, workspace, capsys):
        run_train(workspace)
        rc = main(["score", "--model", str(workspace / "model.txt"),
                   "--glossary", str(workspace / "gloss.txt"),
                   "--input", str(workspace / "input.txt"), "--explain"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "contributions" in out.split("\n")[0]
        assert "dividend=" in out

    @pytest.mark.parametrize("name", ["a\tb.txt", "line\nbreak.txt"], ids=["tab", "newline"])
    def test_id_with_tab_or_line_break_exits_1(self, workspace, capsys, name):
        run_train(workspace)
        corpus = write_corpus_dir(workspace / "in", {"fine.txt": "audit", name: "dividend"})
        rc = main(["score", "--model", str(workspace / "model.txt"),
                   "--glossary", str(workspace / "gloss.txt"), "--input", str(corpus)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(name) in captured.err

    def test_id_that_is_not_utf8_exits_1(self, workspace, capsys):
        run_train(workspace)
        try:
            corpus = write_corpus_dir(workspace / "in", {"fine.txt": "audit",
                                                         "\udcff.txt": "dividend"})
        except (OSError, UnicodeEncodeError):
            pytest.skip("the filesystem refuses a file name that is not UTF-8")
        rc = main(["score", "--model", str(workspace / "model.txt"),
                   "--glossary", str(workspace / "gloss.txt"), "--input", str(corpus)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr("\udcff.txt") in captured.err

    def test_unreadable_input_directory_exits_2(self, workspace, capsys, monkeypatch):
        run_train(workspace)
        corpus = write_corpus_dir(workspace / "in", {"a.txt": "audit", "sub/b.txt": "dividend"})
        refuse_scandir(monkeypatch, corpus / "sub")
        rc = main(["score", "--model", str(workspace / "model.txt"),
                   "--glossary", str(workspace / "gloss.txt"), "--input", str(corpus)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(corpus / "sub") in captured.err

    def test_long_output_name(self, workspace):
        # 250 bytes fits NAME_MAX (255); the temp file beside it must fit too.
        run_train(workspace)
        out_dir = workspace / "out"
        out_dir.mkdir()
        out = out_dir / ("s" * 246 + ".txt")
        assert main(["score", "--model", str(workspace / "model.txt"),
                     "--glossary", str(workspace / "gloss.txt"),
                     "--input", str(workspace / "input.txt"), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("# doc_id\t")
        assert [p.name for p in out_dir.iterdir()] == [out.name]

    def test_output_file_and_idempotence(self, workspace):
        run_train(workspace)
        args = ["score", "--model", str(workspace / "model.txt"),
                "--glossary", str(workspace / "gloss.txt"),
                "--input", str(workspace / "input.txt"),
                "--output", str(workspace / "scores.txt")]
        assert main(args) == 0
        first = (workspace / "scores.txt").read_bytes()
        assert main(args) == 0
        assert (workspace / "scores.txt").read_bytes() == first

    @pytest.mark.parametrize("command,inputs", [
        ("calibrate", ["--glossary", "gloss.txt", "--negatives", "negs.txt"]),
        ("score", ["--glossary", "gloss.txt", "--input", "input.txt"]),
        ("evaluate", ["--glossary", "gloss.txt", "--positives", "input.txt"]),
    ])
    def test_short_output_flag_is_gone(self, workspace, capsys, command, inputs):
        run_train(workspace)
        before = (workspace / "model.txt").read_bytes()
        names = sorted(p.name for p in workspace.iterdir())
        args = [command, "--model", str(workspace / "model.txt"),
                *(str(workspace / a) if a.endswith(".txt") else a for a in inputs),
                "-o", str(workspace / "out.txt")]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: -o" in captured.err
        assert (workspace / "model.txt").read_bytes() == before
        assert sorted(p.name for p in workspace.iterdir()) == names

    @pytest.mark.parametrize("command,corpus_flag,blank", [
        ("score", "--input", False),
        ("calibrate", "--negatives", False),
        ("evaluate", "--positives", False),
        ("score", "--input", True),
        ("calibrate", "--negatives", True),
        ("evaluate", "--positives", True),
    ], ids=["score", "calibrate", "evaluate",
            "score-blank-input", "calibrate-blank-input", "evaluate-blank-input"])
    def test_wrong_glossary_exits_1(self, workspace, tmp_path, capsys,
                                    command, corpus_flag, blank):
        run_train(workspace)
        model_bytes = (workspace / "model.txt").read_bytes()
        other = tmp_path / "other.txt"
        other.write_text("unrelated phrase\n", encoding="utf-8")
        corpus = workspace / "input.txt"
        if blank:
            corpus = write_lines_file(workspace / "blank.txt", ["", "  ", ""])
        rc = main([command, "--model", str(workspace / "model.txt"),
                   "--glossary", str(other), corpus_flag, str(corpus)])
        assert rc == 1
        assert "different glossary" in capsys.readouterr().err
        assert (workspace / "model.txt").read_bytes() == model_bytes


class TestCorpusStatRefused:
    """A corpus that cannot be reached is an I/O error: exit 2, no stdout,
    one error line naming what was refused."""

    @staticmethod
    def run(ws, command, corpus):
        if command == "train":
            return main(["train", "--glossary", str(ws / "gloss.txt"),
                         "--background", str(corpus), "--out", str(ws / "new.txt")])
        return main(["score", "--model", str(ws / "model.txt"),
                     "--glossary", str(ws / "gloss.txt"), "--input", str(corpus)])

    @staticmethod
    def assert_refused(ws, capsys, refused):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {refused}: Permission denied\n"
        assert not (ws / "new.txt").exists()

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_corpus_path_exits_2(self, workspace, capsys, monkeypatch, command):
        run_train(workspace)
        capsys.readouterr()
        corpus = write_lines_file(workspace / "bg.txt", BACKGROUND)
        refuse_stat(monkeypatch, corpus)
        assert self.run(workspace, command, corpus) == 2
        self.assert_refused(workspace, capsys, corpus)

    @pytest.mark.parametrize("command", ["train", "score"])
    def test_directory_entry_exits_2(self, workspace, capsys, monkeypatch, command):
        run_train(workspace)
        capsys.readouterr()
        corpus = write_corpus_dir(workspace / "d", {
            name: text for name, text in zip(
                ["a.txt", "b.txt", "c.txt", "sub/d.txt", "sub/e.txt", "sub/f.txt"], BACKGROUND)})
        refuse_stat(monkeypatch, corpus / "sub" / "e.txt")
        assert self.run(workspace, command, corpus) == 2
        self.assert_refused(workspace, capsys, corpus / "sub" / "e.txt")


class TestTwoFaultPrecedence:
    """Two faults at once: the first in reading order decides. A corpus is
    read to its end before the glossary is checked against the model, before
    k or the target FPR is checked and before any empty-corpus check; evaluate
    scores its positives before it reads its negatives. Nothing reaches
    stdout, and neither the model nor the --output file changes."""

    BASE = {
        "train": {"--glossary": "gloss.txt", "--background": "corpus", "--out": "model.txt"},
        "calibrate": {"--model": "model.txt", "--glossary": "gloss.txt",
                      "--negatives": "negs.txt", "--output": "out.txt"},
        "score": {"--model": "model.txt", "--glossary": "gloss.txt",
                  "--input": "input.txt", "--output": "out.txt"},
        "evaluate": {"--model": "model.txt", "--glossary": "gloss.txt",
                     "--positives": "input.txt", "--negatives": "negs.txt",
                     "--output": "out.txt"},
    }

    @pytest.mark.parametrize("command,faults,code,message", [
        ("score", {"--glossary": "other.txt", "--input": "missing.txt"}, 2, "cannot read"),
        ("score", {"--glossary": "other.txt", "--input": "bad3.txt"}, 1,
         "document 000003: not valid UTF-8"),
        ("train", {"--k": "0", "--background": "missing.txt"}, 2, "cannot read"),
        ("train", {"--k": "0", "--background": "blank.txt"}, 1, "k must be"),
        ("calibrate", {"--glossary": "other.txt", "--negatives": "missing.txt"}, 2,
         "cannot read"),
        ("calibrate", {"--glossary": "other.txt", "--negatives": "blank.txt"}, 1,
         "different glossary"),
        ("calibrate", {"--target-fpr": "2", "--negatives": "missing.txt"}, 2, "cannot read"),
        ("evaluate", {"--glossary": "other.txt", "--negatives": "missing.txt"}, 1,
         "different glossary"),
        ("evaluate", {"--positives": "bad3.txt", "--negatives": "missing.txt"}, 1,
         "document 000003: not valid UTF-8"),
        ("evaluate", {"--glossary": "other.txt", "--positives": "missing.txt"}, 2,
         "cannot read"),
    ], ids=["score-glossary+missing", "score-glossary+utf8", "train-k+missing",
            "train-k+blank", "calibrate-glossary+missing", "calibrate-glossary+blank",
            "calibrate-fpr+missing", "evaluate-glossary+missing-negatives",
            "evaluate-utf8+missing-negatives", "evaluate-glossary+missing-positives"])
    def test_first_fault_in_reading_order_decides(self, workspace, capsys,
                                                  command, faults, code, message):
        run_train(workspace)
        (workspace / "other.txt").write_text("unrelated phrase\n", encoding="utf-8")
        write_lines_file(workspace / "blank.txt", ["", "  ", ""])
        (workspace / "bad3.txt").write_bytes(b"tax return\naudit\n\xff\xfe bad\ndividend\n")
        (workspace / "out.txt").write_text("previous output\n", encoding="utf-8")
        before = {name: (workspace / name).read_bytes() for name in ("model.txt", "out.txt")}
        capsys.readouterr()
        args = {**self.BASE[command], **faults}
        rc = main([command, *(str(workspace / v) if v.endswith((".txt", "corpus")) else v
                              for flag, value in args.items() for v in (flag, value))])
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("error: ")
        assert message in last
        assert {name: (workspace / name).read_bytes() for name in before} == before


def _missing_file(ws):
    path = ws / "missing-file.txt"
    return path, 2, f"cannot read {path}: "


def _directory_file(ws):
    path = ws / "a-directory"
    path.mkdir()
    return path, 2, f"cannot read {path}: "


def _model_not_utf8(ws):
    path = ws / "bad-model.txt"
    path.write_bytes((ws / "model.txt").read_bytes() + b"\xff\n")
    return path, 1, f"model file {path}: not valid UTF-8"


def _model_phrase_two_spaces(ws):
    path = ws / "bad-model.txt"
    lines = (ws / "model.txt").read_text(encoding="utf-8").split("\n")
    [i] = [i for i, line in enumerate(lines) if line.startswith("kw 0 ")]
    lines[i] += "  extra"  # an empty token between the two spaces
    path.write_text("\n".join(lines), encoding="utf-8")
    return path, 1, f"model file {path}: kw 0 has a malformed phrase"


class TestKbFileFaults:
    """calibrate, score and evaluate with a model that will not load or an
    --output that cannot be written, and calibrate with a write fault: the exit
    code, nothing on stdout, one error line, the model and the --output file as
    they were, no temp file."""

    @staticmethod
    def run(ws, command, overrides):
        args = {flag: ws / name for flag, name in TestTwoFaultPrecedence.BASE[command].items()}
        return main([command, *(str(a) for item in (args | overrides).items() for a in item)])

    @staticmethod
    def assert_refused(ws, capsys, rc, code, message, model_bytes):
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert message in line
        if model_bytes is not None:
            assert (ws / "model.txt").read_bytes() == model_bytes
        assert (ws / "out.txt").read_text(encoding="utf-8") == "previous output\n"
        assert list(ws.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("fault", [_missing_file, _directory_file, _model_not_utf8,
                                       _model_phrase_two_spaces],
                             ids=["missing", "directory", "not-utf8", "phrase-two-spaces"])
    @pytest.mark.parametrize("command", ["calibrate", "score", "evaluate"])
    def test_model_fault(self, workspace, capsys, command, fault):
        run_train(workspace)
        (workspace / "out.txt").write_text("previous output\n", encoding="utf-8")
        before = (workspace / "model.txt").read_bytes()
        path, code, message = fault(workspace)
        capsys.readouterr()
        rc = self.run(workspace, command, {"--model": path})
        self.assert_refused(workspace, capsys, rc, code, message, before)

    @pytest.mark.parametrize("command", ["calibrate", "score", "evaluate"])
    def test_missing_output_directory_exits_2(self, workspace, capsys, command):
        run_train(workspace)
        (workspace / "out.txt").write_text("previous output\n", encoding="utf-8")
        before = (workspace / "model.txt").read_bytes()
        capsys.readouterr()
        out = workspace / "nodir" / "out.txt"
        rc = self.run(workspace, command, {"--output": out})
        # calibrate stages its report before it rewrites the model's bias.
        self.assert_refused(workspace, capsys, rc, 2, f"cannot write {out}: ", before)
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["calibrate"])
    def test_output_that_is_a_directory_keeps_model(self, workspace, capsys, command):
        run_train(workspace)
        (workspace / "out.txt").write_text("previous output\n", encoding="utf-8")
        before = (workspace / "model.txt").read_bytes()
        capsys.readouterr()
        out = workspace / "outdir"
        out.mkdir()
        rc = self.run(workspace, command, {"--output": out})
        self.assert_refused(workspace, capsys, rc, 2, f"cannot write {out}: ", before)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fault", WRITE_FAULTS)
    def test_calibrate_write_fault_keeps_model_and_output(self, workspace, capsys,
                                                          monkeypatch, fault):
        # disk_full fails the report's temp file, before the model is touched;
        # the os.replace faults fail the model's rewrite, after the report is
        # staged: either way both files stay as they were.
        run_train(workspace)
        (workspace / "out.txt").write_text("previous output\n", encoding="utf-8")
        before = (workspace / "model.txt").read_bytes()
        capsys.readouterr()
        raised = inject_write_fault(monkeypatch, fault)
        if raised is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                self.run(workspace, "calibrate", {})
            assert capsys.readouterr().out == ""
            assert (workspace / "model.txt").read_bytes() == before
            assert (workspace / "out.txt").read_text(encoding="utf-8") == "previous output\n"
            assert list(workspace.rglob(".*.tmp")) == []
        else:
            rc = self.run(workspace, "calibrate", {})
            self.assert_refused(workspace, capsys, rc, 2, "cannot write ", before)

    @pytest.mark.parametrize("spelling", ["dot", "symlink", "hard-link"])
    @pytest.mark.parametrize("command", ["calibrate"])
    def test_output_that_is_the_model_exits_1(self, workspace, capsys, command, spelling):
        # The report would otherwise replace the model it rewrites.
        run_train(workspace)
        (workspace / "out.txt").write_text("previous output\n", encoding="utf-8")
        model = workspace / "model.txt"
        before = model.read_bytes()
        capsys.readouterr()
        if spelling == "dot":
            out = f"{workspace}/./model.txt"
        elif spelling == "symlink":
            out = workspace / "link.txt"
            out.symlink_to("model.txt")
        else:
            out = workspace / "link.txt"
            out.hardlink_to(model)
        rc = self.run(workspace, command, {"--output": out})
        self.assert_refused(workspace, capsys, rc, 1, "is the --model file", before)


def test_kb_commands_hold_one_document_at_a_time(tmp_path, capsys):
    """Each KB command's tracemalloc peak grows by at most 1 KB per added
    document: it keeps a document's match profile, score or output line,
    never the document's text or tokens (about 20 KB for these lines)."""
    (tmp_path / "gloss.txt").write_text(
        "".join(f"key{i}\n" for i in range(40)) + "".join(f"key{i} extra{i}\n" for i in range(20)),
        encoding="utf-8")
    rng = random.Random(5)
    vocab = [f"word{i}" for i in range(2000)] + [f"extra{i}" for i in range(20)]
    peaks = {}
    for n in (200, 800):
        corpus = write_lines_file(tmp_path / f"c{n}.txt", [
            " ".join(rng.choices(vocab, k=240) + [f"key{rng.randrange(40)}" for _ in range(10)])
            for _ in range(n)])
        model = tmp_path / f"m{n}.txt"
        kb = {"--glossary": tmp_path / "gloss.txt", "--model": model}
        for command, flags in [
            ("train", {"--glossary": kb["--glossary"], "--background": corpus, "--out": model}),
            ("calibrate", {**kb, "--negatives": corpus}),
            ("score", {**kb, "--input": corpus, "--output": tmp_path / "scores.txt"}),
            ("evaluate", {**kb, "--positives": corpus, "--negatives": corpus}),
        ]:
            tracemalloc.start()
            try:
                assert main([command, *(str(a) for item in flags.items() for a in item)]) == 0
                peaks[command, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    capsys.readouterr()
    growth = {command: (peaks[command, 800] - peaks[command, 200]) / 600
              for command in ("train", "calibrate", "score", "evaluate")}
    assert all(per_doc <= 1024 for per_doc in growth.values()), growth


@pytest.mark.parametrize("command,inputs", [
    ("score", ["--input", "input.txt"]),
    ("evaluate", ["--positives", "input.txt", "--negatives", "negs.txt"]),
], ids=["score", "evaluate"])
def test_model_with_tiny_sigma_exits_1(workspace, capsys, command, inputs):
    # Every line would standardize to +-inf, so the model must not load.
    path = write_tiny_sigma(workspace)
    capsys.readouterr()
    rc = main([command, "--model", str(path), "--glossary", str(workspace / "gloss.txt")]
              + [str(workspace / a) if a.endswith(".txt") else a for a in inputs])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma 1e-310 is too small" in captured.err
    assert "Traceback" not in captured.err


class TestCalibrate:
    def calibrate(self, ws, *extra):
        return main(["calibrate", "--model", str(ws / "model.txt"),
                     "--glossary", str(ws / "gloss.txt"),
                     "--negatives", str(ws / "negs.txt"), *extra])

    def test_rewrites_only_bias_line(self, workspace, capsys):
        run_train(workspace)
        before = (workspace / "model.txt").read_text(encoding="utf-8").split("\n")
        assert self.calibrate(workspace, "--target-fpr", "0.1") == 0
        after = (workspace / "model.txt").read_text(encoding="utf-8").split("\n")
        changed = [(a, b) for a, b in zip(before, after) if a != b]
        assert len(changed) == 1
        assert changed[0][0].startswith("bias ")
        out = capsys.readouterr().out
        assert out.startswith("bias ")
        assert "achieved_fpr" in out
        assert "n_negatives 8" in out

    def test_calibrated_model_meets_target(self, workspace):
        run_train(workspace)
        self.calibrate(workspace, "--target-fpr", "0.1")
        model = load_model(workspace / "model.txt")
        assert model.bias != 3.0

    def test_keeps_file_mode(self, workspace):
        run_train(workspace)
        (workspace / "model.txt").chmod(0o600)
        assert self.calibrate(workspace, "--target-fpr", "0.1") == 0
        assert stat.S_IMODE((workspace / "model.txt").stat().st_mode) == 0o600

    @pytest.mark.parametrize("fault", WRITE_FAULTS)
    def test_failed_bias_write_keeps_model(self, workspace, capsys, monkeypatch, fault):
        run_train(workspace)
        path = workspace / "model.txt"
        before, names = path.read_bytes(), sorted(p.name for p in workspace.iterdir())
        capsys.readouterr()
        raised = inject_write_fault(monkeypatch, fault)
        # No --output: the report goes to stdout, and only the model's
        # rewrite can fail.
        if raised is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                self.calibrate(workspace)
        else:
            assert self.calibrate(workspace) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: cannot write {path}: ")
        assert path.read_bytes() == before
        assert sorted(p.name for p in workspace.iterdir()) == names

    def test_unloadable_calibrated_bias_exits_1_and_keeps_model(self, workspace, capsys):
        # A sigma so small that a keyword-rich negative would standardize to
        # inf: the model refuses to load, so no bias is calibrated or written.
        path = write_tiny_sigma(workspace)
        before = path.read_bytes()
        write_lines_file(workspace / "negs.txt", NEGATIVE_LINES + INPUT_LINES)
        assert self.calibrate(workspace) == 1
        assert "finite" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_fpr_mode_requires_glossary(self, workspace, capsys):
        # calibrate only calibrates to an FPR target: it needs both inputs.
        run_train(workspace)
        before = (workspace / "model.txt").read_bytes()
        for flag, given, name in [("--glossary", "--negatives", "negs.txt"),
                                  ("--negatives", "--glossary", "gloss.txt")]:
            rc = main(["calibrate", "--model", str(workspace / "model.txt"),
                       given, str(workspace / name)])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"required: {flag}" in captured.err
            assert (workspace / "model.txt").read_bytes() == before

    def test_bias_flag_is_gone(self, workspace, capsys):
        run_train(workspace)
        before = (workspace / "model.txt").read_bytes()
        assert self.calibrate(workspace, "--bias", "1.25") == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert (workspace / "model.txt").read_bytes() == before


class TestEvaluate:
    def test_recall_and_fpr_lines(self, workspace, capsys):
        run_train(workspace)
        main(["calibrate", "--model", str(workspace / "model.txt"),
              "--glossary", str(workspace / "gloss.txt"),
              "--negatives", str(workspace / "negs.txt"), "--target-fpr", "0.1"])
        capsys.readouterr()
        rc = main(["evaluate", "--model", str(workspace / "model.txt"),
                   "--glossary", str(workspace / "gloss.txt"),
                   "--positives", str(workspace / "input.txt"),
                   "--negatives", str(workspace / "negs.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        records = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert float(records["recall"]) == 0.5
        assert records["n_positives"] == "2"
        assert float(records["fpr"]) <= 0.1
        assert records["n_negatives"] == "8"

    def test_empty_positives_exit_1(self, workspace, capsys):
        run_train(workspace)
        capsys.readouterr()
        empty = write_lines_file(workspace / "empty.txt", ["", "  "])
        rc = main(["evaluate", "--model", str(workspace / "model.txt"),
                   "--glossary", str(workspace / "gloss.txt"), "--positives", str(empty)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-empty" in captured.err


def build_exp_workspace(tmp_path):
    (tmp_path / "g0.txt").write_text("alpha beta\ngamma\ndelta\n", encoding="utf-8")
    (tmp_path / "g1.txt").write_text("epsilon\nzeta\neta theta\n", encoding="utf-8")
    # every third doc carries two keyword species per glossary so both
    # background models get nonzero score variance
    bg = [f"filler words roll on and on segment {i} alpha beta gamma epsilon zeta"
          if i % 3 == 0 else f"filler words roll on and on segment {i}"
          for i in range(24)]
    write_lines_file(tmp_path / "bg.txt", bg)
    write_lines_file(tmp_path / "negs.txt",
                     [f"noise document {i} alpha alpha alpha" if i % 5 == 0
                      else f"noise document {i}" for i in range(20)])
    write_lines_file(tmp_path / "p0.txt",
                     [f"report {i} alpha beta gamma delta gamma delta" for i in range(8)])
    write_lines_file(tmp_path / "p0b.txt",
                     [f"shifted {i} alpha beta delta" for i in range(6)])
    write_lines_file(tmp_path / "p1.txt",
                     [f"report {i} epsilon zeta eta theta zeta" for i in range(8)])
    write_lines_file(tmp_path / "p1b.txt",
                     [f"shifted {i} epsilon eta theta" for i in range(6)])
    return tmp_path


class TestExperimentCommands:
    def test_exp1_records_and_table(self, tmp_path, capsys):
        ws = build_exp_workspace(tmp_path)
        rc = main(["exp1", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"), str(ws / "p0.txt"),
                   "--category", "cat1", str(ws / "g1.txt"), str(ws / "p1.txt"),
                   "--target-fpr", "0.1", "--k", "10"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("report exp1\n")
        assert "category cat0 recall_a" in captured.out
        assert "category cat1 recall_a" in captured.out
        assert "experiment exp1" in captured.err

    def test_exp1_k_beyond_64_bits_exits_1(self, tmp_path, capsys):
        ws = build_exp_workspace(tmp_path)
        rc = main(["exp1", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"), str(ws / "p0.txt"),
                   "--target-fpr", "0.1", "--k", "9" * 400])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be >= 1 and below 2**63" in captured.err

    def test_exp2_runs(self, tmp_path, capsys):
        ws = build_exp_workspace(tmp_path)
        rc = main(["exp2", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"),
                   str(ws / "p0.txt"), str(ws / "p0b.txt"),
                   "--category", "cat1", str(ws / "g1.txt"),
                   str(ws / "p1.txt"), str(ws / "p1b.txt"),
                   "--target-fpr", "0.1", "--k", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("report exp2\n")
        assert "category cat0/lr" in out
        assert "category cat0/kb" in out

    @pytest.mark.parametrize("flag", ["--l2", "--epochs", "--learning-rate"])
    def test_lr_flags_are_gone(self, tmp_path, capsys, flag):
        # exp2's LR baseline trains at LrParams() only.
        ws = build_exp_workspace(tmp_path)
        rc = main(["exp2", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"),
                   str(ws / "p0.txt"), str(ws / "p0b.txt"), flag, "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_category_name_unencodable_on_stdout_exits_1(self, tmp_path, capsys, monkeypatch):
        # A lone surrogate is a valid category name until the records are
        # written to a strict UTF-8 stdout: the encode error is a ValueError.
        ws = build_exp_workspace(tmp_path)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict",
                                  write_through=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        rc = main(["exp1", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat\udcff", str(ws / "g0.txt"), str(ws / "p0.txt"),
                   "--target-fpr", "0.1", "--k", "10"])
        assert rc == 1
        assert stdout.buffer.getvalue() == b""
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "surrogates not allowed" in line

    @pytest.mark.parametrize("command,a_lines,b_lines,corpus", [
        ("exp1", [], None, "corpus A"),
        ("exp2", ["only one"], ["shifted alpha"], "corpus A"),
        ("exp2", ["report alpha", "report beta"], [], "corpus B"),
    ], ids=["exp1-empty-a", "exp2-one-doc-a", "exp2-empty-b"])
    def test_too_small_category_corpus_exits_1_naming_it(self, tmp_path, capsys, command,
                                                         a_lines, b_lines, corpus):
        ws = build_exp_workspace(tmp_path)
        a_path = write_lines_file(ws / "small_a.txt", a_lines)
        category = ["--category", "cat0", str(ws / "g0.txt"), str(a_path)]
        if b_lines is not None:
            category.append(str(write_lines_file(ws / "small_b.txt", b_lines)))
        rc = main([command, "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"), *category,
                   "--target-fpr", "0.1", "--k", "10"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        small = "small_a.txt" if corpus == "corpus A" else "small_b.txt"
        assert f"category cat0: {corpus} (" in captured.err
        assert small in captured.err

    def test_exp1_output_file(self, tmp_path):
        ws = build_exp_workspace(tmp_path)
        out_file = ws / "records.txt"
        rc = main(["exp1", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"), str(ws / "p0.txt"),
                   "--target-fpr", "0.1", "--k", "10",
                   "--output", str(out_file)])
        assert rc == 0
        assert out_file.read_text(encoding="utf-8").startswith("report exp1\n")


EXP_CORPORA = {"background": "bg.txt", "negatives": "negs.txt", "A": "p0.txt", "B": "p0b.txt"}


def _as_directory(ws, role):
    """The role's corpus as a directory whose second half sits in sub/."""
    lines = (ws / EXP_CORPORA[role]).read_text(encoding="utf-8").splitlines()
    half = len(lines) // 2
    return write_corpus_dir(ws / f"dir-{role}", {
        **{f"a{i:02d}.txt": text for i, text in enumerate(lines[:half])},
        **{f"sub/b{i:02d}.txt": text for i, text in enumerate(lines[half:])}})


def _missing(ws, monkeypatch, role):
    path = ws / "missing.txt"
    return path, 2, f"cannot read {path}: "


def _unlistable(ws, monkeypatch, role):
    corpus = _as_directory(ws, role)
    refuse_scandir(monkeypatch, corpus / "sub")
    return corpus, 2, f"cannot read {corpus / 'sub'}: Permission denied"


def _path_stat_refused(ws, monkeypatch, role):
    path = ws / EXP_CORPORA[role]
    refuse_stat(monkeypatch, path)
    return path, 2, f"cannot read {path}: Permission denied"


def _entry_stat_refused(ws, monkeypatch, role):
    corpus = _as_directory(ws, role)
    refuse_stat(monkeypatch, corpus / "sub" / "b01.txt")
    return corpus, 2, f"cannot read {corpus / 'sub' / 'b01.txt'}: Permission denied"


def _late_bad_utf8(ws, monkeypatch, role):
    good = (ws / EXP_CORPORA[role]).read_bytes()
    path = ws / f"bad-{role}.txt"
    path.write_bytes(good + b"\xff\xfe late\n")
    return path, 1, f"document {len(good.splitlines()) + 1:06d}: not valid UTF-8"


def _empty_glossary(ws):
    path = ws / "empty-glossary.txt"
    path.write_text("# only a comment\n\n", encoding="utf-8")
    return path, 1, f"glossary {path}: no keyword phrases found"


def _bad_utf8_glossary(ws):
    path = ws / "bad-glossary.txt"
    path.write_bytes(b"alpha beta\n\xff\xfe\n")
    return path, 1, f"glossary {path}: not valid UTF-8"


def _tokenless_glossary_line(ws):
    path = ws / "tokenless-glossary.txt"
    path.write_text("alpha beta\n!!! ---\n", encoding="utf-8")
    return path, 1, f"glossary {path}: line 2 contains no alphanumeric tokens"


GLOSSARY_FAULTS = {"missing": _missing_file, "directory": _directory_file,
                   "empty": _empty_glossary, "not-utf8": _bad_utf8_glossary,
                   "tokenless-line": _tokenless_glossary_line}

CORPUS_FAULTS = {"missing": _missing, "unlistable-dir": _unlistable,
                 "path-stat-refused": _path_stat_refused,
                 "entry-stat-refused": _entry_stat_refused, "late-bad-utf8": _late_bad_utf8}


class TestExperimentErrorMatrix:
    """A fault in any corpus of exp1 or exp2 exits with its code, prints
    nothing to stdout and one error line to stderr, and leaves the --output
    file as it was with no temp file beside it. The corpora are read in the
    order background, negatives, then per category its glossary, A and B, and
    the configuration is checked after all of them: of two faults, the first
    in that order decides."""

    @staticmethod
    def run(ws, command, corpora, second=None, output="out.txt"):
        """corpora overrides cat0's paths by role (its glossary too); second,
        as (name, overrides), adds a category over g1.txt, p1.txt and p1b.txt."""
        paths = {"glossary": ws / "g0.txt",
                 **{role: ws / name for role, name in EXP_CORPORA.items()}} | corpora
        categories = [("cat0", paths)]
        if second is not None:
            name, overrides = second
            categories.append((name, {"glossary": ws / "g1.txt", "A": ws / "p1.txt",
                                      "B": ws / "p1b.txt"} | overrides))
        args = []
        for name, category in categories:
            args += ["--category", name, str(category["glossary"]), str(category["A"])]
            if command == "exp2":
                args.append(str(category["B"]))
        return main([command, "--background", str(paths["background"]),
                     "--negatives", str(paths["negatives"]), *args,
                     "--target-fpr", "0.1", "--k", "10", "--output", str(ws / output)])

    @staticmethod
    def assert_refused(ws, capsys, rc, code, message):
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert message in line
        assert (ws / "out.txt").read_text(encoding="utf-8") == "previous output\n"
        assert list(ws.glob(".*.tmp")) == []

    @pytest.mark.parametrize("fault", CORPUS_FAULTS)
    @pytest.mark.parametrize("command,role", [
        (command, role) for command in ("exp1", "exp2")
        for role in EXP_CORPORA if command == "exp2" or role != "B"])
    def test_corpus_fault(self, tmp_path, capsys, monkeypatch, command, role, fault):
        ws = build_exp_workspace(tmp_path)
        (ws / "out.txt").write_text("previous output\n", encoding="utf-8")
        path, code, message = CORPUS_FAULTS[fault](ws, monkeypatch, role)
        rc = self.run(ws, command, {role: path})
        self.assert_refused(ws, capsys, rc, code, message)

    @pytest.mark.parametrize("command,late,missing", [
        ("exp2", "background", "B"),
        ("exp1", "negatives", "A"),
    ], ids=["exp2-background+missing-B", "exp1-negatives+missing-A"])
    def test_two_faults_first_in_reading_order_decides(self, tmp_path, capsys, monkeypatch,
                                                       command, late, missing):
        ws = build_exp_workspace(tmp_path)
        (ws / "out.txt").write_text("previous output\n", encoding="utf-8")
        bad, code, message = _late_bad_utf8(ws, monkeypatch, late)
        rc = self.run(ws, command, {late: bad, missing: ws / "missing.txt"})
        self.assert_refused(ws, capsys, rc, code, message)

    @pytest.mark.parametrize("fault", GLOSSARY_FAULTS)
    @pytest.mark.parametrize("command", ["exp1", "exp2"])
    def test_glossary_fault(self, tmp_path, capsys, command, fault):
        ws = build_exp_workspace(tmp_path)
        (ws / "out.txt").write_text("previous output\n", encoding="utf-8")
        path, code, message = GLOSSARY_FAULTS[fault](ws)
        rc = self.run(ws, command, {"glossary": path})
        self.assert_refused(ws, capsys, rc, code, message)

    @pytest.mark.parametrize("command", ["exp1", "exp2"])
    def test_missing_output_directory_exits_2(self, tmp_path, capsys, command):
        ws = build_exp_workspace(tmp_path)
        (ws / "out.txt").write_text("previous output\n", encoding="utf-8")
        rc = self.run(ws, command, {}, output="nodir/out.txt")
        self.assert_refused(ws, capsys, rc, 2, f"cannot write {ws / 'nodir' / 'out.txt'}: ")
        assert not (ws / "nodir").exists()

    def test_glossary_before_b(self, tmp_path, capsys):
        # exp2 reads a category's glossary before its A and B corpora.
        ws = build_exp_workspace(tmp_path)
        (ws / "out.txt").write_text("previous output\n", encoding="utf-8")
        empty, code, message = _empty_glossary(ws)
        rc = self.run(ws, "exp2", {"glossary": empty, "B": ws / "missing.txt"})
        self.assert_refused(ws, capsys, rc, code, message)

    def test_first_category_before_second_glossary(self, tmp_path, capsys):
        # Category cat0's corpora are read before cat1's glossary.
        ws = build_exp_workspace(tmp_path)
        (ws / "out.txt").write_text("previous output\n", encoding="utf-8")
        empty, _, _ = _empty_glossary(ws)
        missing = ws / "missing.txt"
        rc = self.run(ws, "exp2", {"A": missing}, second=("cat1", {"glossary": empty}))
        self.assert_refused(ws, capsys, rc, 2, f"cannot read {missing}: ")

    def test_corpora_before_config_validation(self, tmp_path, capsys):
        # A duplicate category name is found only after every corpus is read.
        ws = build_exp_workspace(tmp_path)
        (ws / "out.txt").write_text("previous output\n", encoding="utf-8")
        missing = ws / "missing.txt"
        rc = self.run(ws, "exp1", {}, second=("cat0", {"A": missing}))
        self.assert_refused(ws, capsys, rc, 2, f"cannot read {missing}: ")
        rc = self.run(ws, "exp1", {}, second=("cat0", {}))
        self.assert_refused(ws, capsys, rc, 1, "duplicate category name: cat0")


class TestVerifyTablesCommand:
    def test_bundled_pass(self, capsys):
        assert main(["verify-tables"]) == 0
        out = capsys.readouterr().out
        assert out.count("-> PASS") == 6
        assert "FAIL" not in out

    def test_explicit_table_failing(self, tmp_path, capsys):
        bad = tmp_path / "t.txt"
        bad.write_text(
            "format_version 1\nkind recall_pair\nrow a 0.2 0.4\nrow b 0.4 0.6\n"
            "expect mean_a 0.9 abs 0.001\n",
            encoding="utf-8",
        )
        assert main(["verify-tables", "--golden-tables", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "-> FAIL" in captured.out
        assert "table checks failed" in captured.err

    def test_table_name_with_newline_exits_1(self, tmp_path, capsys):
        # The name would otherwise print as a `table` record and a forged `row`.
        table = "format_version 1\nkind recall_pair\nrow a 0.2 0.4\n"
        fine = tmp_path / "fine.txt"
        fine.write_text(table, encoding="utf-8")
        try:
            forged = tmp_path / "t\nrow evil 1 1.txt"
            forged.write_text(table, encoding="utf-8")
        except OSError:
            pytest.skip("the filesystem refuses a file name holding a newline")
        rc = main(["verify-tables", "--golden-tables", str(fine), "--golden-tables", str(forged)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a record is one line" in captured.err

    @pytest.mark.parametrize("fault,code,message", [
        ("directory", 2, "cannot read {table}: "),
        ("not-utf8", 1, "table file {table}: not valid UTF-8"),
        ("empty", 1, "table file {table}: truncated header"),
        ("missing-output-dir", 2, "cannot write {out}: "),
    ])
    def test_file_fault(self, tmp_path, capsys, fault, code, message):
        # The exit code, nothing on stdout, one error line, the --output file
        # as it was and no temp file.
        good = b"format_version 1\nkind recall_pair\nrow a 0.2 0.4\nrow b 0.4 0.6\n"
        table, out = tmp_path / "t.txt", tmp_path / "out.txt"
        out.write_text("previous output\n", encoding="utf-8")
        if fault == "directory":
            table.mkdir()
        else:
            table.write_bytes({"not-utf8": good + b"row \xff 0.1 0.2\n", "empty": b""}.get(
                fault, good))
        if fault == "missing-output-dir":
            out = tmp_path / "nodir" / "out.txt"
        rc = main(["verify-tables", "--golden-tables", str(table), "--output", str(out)])
        assert rc == code
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")
        assert message.format(table=table, out=out) in line
        assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "previous output\n"
        assert list(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("lines,message", [
        (["kind recall_pair", "row a 0.2 0.4", "expect mean_x 0.45 abs 0.1"],
         "unknown expect key 'mean_x' on line 4"),
        (["kind recall_shift", "row a 0.1 0.2 0.3 0.4", "expect mean_a 0.1 abs 0.1"],
         "unknown expect key 'mean_a' on line 4"),
        (["kind recall_shift", "labels lr kb", "row a 0.1 0.2 0.3 0.4",
          "expect mean_change_svm 0.1 abs 0.1"], "unknown expect key 'mean_change_svm' on line 5"),
        (["kind recall_pair", "labels lr kb", "row a 0.2 0.4"],
         "unknown record 'labels' on line 3"),
    ])
    def test_undeclared_key_exits_1(self, tmp_path, capsys, lines, message):
        # After a table that passes: stdout stays empty, one error line names the line.
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("format_version 1\nkind recall_pair\nrow a 0.2 0.4\n", encoding="utf-8")
        bad.write_text("\n".join(["format_version 1", *lines]) + "\n", encoding="utf-8")
        rc = main(["verify-tables", "--golden-tables", str(good), "--golden-tables", str(bad)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err == f"error: table file {bad}: {message}\n"

    def test_missing_table_is_io_error(self, tmp_path, capsys):
        rc = main(["verify-tables", "--golden-tables", str(tmp_path / "nope.txt")])
        assert rc == 2


class _FullStdout:
    """A stdout on a full disk: its write fails, or, as a buffered stream's
    does, only its flush."""

    def __init__(self, failing: str):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestStdoutWriteFault:
    """A stdout report that cannot be written exits 2 with one error line that
    names stdout, as an --output file that cannot be written does."""

    FULL = f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    @staticmethod
    def argv(ws, command):
        if command == "verify-tables":
            return [command]
        if command in ("exp1", "exp2"):
            (ws / "exp").mkdir()
            exp = build_exp_workspace(ws / "exp")
            positives = ["p0.txt", "p0b.txt"] if command == "exp2" else ["p0.txt"]
            return [command, "--background", str(exp / "bg.txt"),
                    "--negatives", str(exp / "negs.txt"), "--category", "cat0",
                    *(str(exp / name) for name in ["g0.txt", *positives]),
                    "--target-fpr", "0.1", "--k", "10"]
        run_train(ws)
        return [command, *(str(a) for flag, name in TestTwoFaultPrecedence.BASE[command].items()
                           if flag != "--output" for a in (flag, ws / name))]

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("command",
                             ["calibrate", "score", "evaluate", "exp1", "exp2", "verify-tables"])
    def test_exits_2_with_one_error_line(self, workspace, capsys, monkeypatch, command, failing):
        argv = self.argv(workspace, command)
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
        assert main(argv) == 2
        assert capsys.readouterr().err == self.FULL

    def test_calibrate_leaves_the_bias_a_rerun_writes(self, workspace, capsys, monkeypatch):
        # The report goes to stdout after the model's bias is rewritten, so the
        # model keeps the new bias; a rerun calibrates the same one.
        argv = self.argv(workspace, "calibrate")
        trained = (workspace / "model.txt").read_bytes()
        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", _FullStdout("flush"))
            assert main(argv) == 2
        failed = (workspace / "model.txt").read_bytes()
        assert failed != trained
        capsys.readouterr()
        assert main(argv) == 0
        assert (workspace / "model.txt").read_bytes() == failed
        bias = load_model(workspace / "model.txt").bias
        assert capsys.readouterr().out.startswith(f"bias {format_float(bias)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_in_a_fresh_interpreter(self):
        # The interpreter's own stdout: main's exit code and its one line, with
        # no second error from the flush at exit (which would exit 120).
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "entropy_classifier.cli", "verify-tables"],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert (done.returncode, done.stderr) == (2, self.FULL)


COMMANDS = ["train", "calibrate", "score", "evaluate", "exp1", "exp2", "verify-tables"]


def run_captured(capsys, argv):
    """(exit code, stdout, stderr) of main(argv); --help exits through SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_declares_only_the_command_argv_names(self, monkeypatch, capsys):
        declared = []
        add_parser = argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            declared.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        for argv, want in ((["score", "--model", "m", "--glossary", "g", "--input", "i"],
                            ["score"]),
                           (["--help"], COMMANDS),
                           (["bogus"], COMMANDS)):
            declared.clear()
            run_captured(capsys, argv)
            assert declared == want, argv

    @pytest.mark.parametrize("argv", [
        *([command, "--help"] for command in COMMANDS),
        ["--help"],
        ["bogus"],
        [],
        ["score", "--model", "m", "--glossary", "g"],
        ["train", "--glossary", "g", "--background", "b", "--out", "o", "--k", "abc"],
    ])
    def test_same_bytes_as_the_all_commands_parser(self, monkeypatch, capsys, argv):
        got = run_captured(capsys, argv)
        build_parser = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv: build_parser([]))
        assert got == run_captured(capsys, argv)
        assert got[0] in (0, 1)
