import stat

import pytest

from entropy_classifier.cli import main
from entropy_classifier.model import load_model

from conftest import write_corpus_dir, write_lines_file

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


def run_train(ws, **extra):
    args = ["train", "--glossary", str(ws / "gloss.txt"),
            "--background", str(ws / "corpus"),
            "--out", str(ws / "model.txt")]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return main(args)


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
        assert run_train(workspace, category="fin", k=20) == 0
        model = load_model(workspace / "model.txt")
        assert model.category == "fin"
        assert model.k == 20

    def test_missing_flag_names_it(self, capsys):
        assert main(["train", "--glossary", "g.txt"]) == 1
        err = capsys.readouterr().err
        assert "--background" in err

    def test_newline_in_category_exits_1_without_writing(self, workspace, capsys):
        assert run_train(workspace, category="a\nbias 9") == 1
        assert "newline" in capsys.readouterr().err
        assert not (workspace / "model.txt").exists()

    def test_unencodable_category_keeps_existing_model(self, workspace):
        # A command-line byte that is not UTF-8 arrives as a lone surrogate.
        assert run_train(workspace) == 0
        before = (workspace / "model.txt").read_bytes()
        names = sorted(p.name for p in workspace.iterdir())
        assert run_train(workspace, category="fin\udcff") == 1
        assert (workspace / "model.txt").read_bytes() == before
        assert sorted(p.name for p in workspace.iterdir()) == names

    def test_unencodable_category_creates_no_file(self, workspace):
        names = sorted(p.name for p in workspace.iterdir())
        assert run_train(workspace, category="fin\udcff") == 1
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

    def test_direct_bias_mode(self, workspace, capsys):
        run_train(workspace)
        rc = main(["calibrate", "--model", str(workspace / "model.txt"),
                   "--bias", "1.25"])
        assert rc == 0
        assert load_model(workspace / "model.txt").bias == 1.25
        assert capsys.readouterr().out == "bias 1.25\n"

    @pytest.mark.parametrize("bias", ["inf", "-inf", "nan"])
    def test_nonfinite_bias_exits_1_and_keeps_model(self, workspace, capsys, bias):
        run_train(workspace)
        before = (workspace / "model.txt").read_bytes()
        rc = main(["calibrate", "--model", str(workspace / "model.txt"), f"--bias={bias}"])
        assert rc == 1
        assert "bias must be finite" in capsys.readouterr().err
        assert (workspace / "model.txt").read_bytes() == before

    def test_unloadable_calibrated_bias_exits_1_and_keeps_model(self, workspace, capsys):
        # A sigma so small that a keyword-rich negative would standardize to
        # inf: the model refuses to load, so no bias is calibrated or written.
        path = write_tiny_sigma(workspace)
        before = path.read_bytes()
        write_lines_file(workspace / "negs.txt", NEGATIVE_LINES + INPUT_LINES)
        assert self.calibrate(workspace) == 1
        assert "finite" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_both_modes_rejected(self, workspace, capsys):
        run_train(workspace)
        rc = self.calibrate(workspace, "--bias", "1.0")
        assert rc == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_fpr_mode_requires_glossary(self, workspace, capsys):
        run_train(workspace)
        rc = main(["calibrate", "--model", str(workspace / "model.txt"),
                   "--negatives", str(workspace / "negs.txt")])
        assert rc == 1
        assert "--glossary" in capsys.readouterr().err


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


class TestExperimentCommands:
    def build_exp_workspace(self, tmp_path):
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

    def test_exp1_records_and_table(self, tmp_path, capsys):
        ws = self.build_exp_workspace(tmp_path)
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
        ws = self.build_exp_workspace(tmp_path)
        rc = main(["exp1", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"), str(ws / "p0.txt"),
                   "--target-fpr", "0.1", "--k", "9" * 400])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be >= 1 and below 2**63" in captured.err

    def test_exp2_runs(self, tmp_path, capsys):
        ws = self.build_exp_workspace(tmp_path)
        rc = main(["exp2", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"),
                   str(ws / "p0.txt"), str(ws / "p0b.txt"),
                   "--category", "cat1", str(ws / "g1.txt"),
                   str(ws / "p1.txt"), str(ws / "p1b.txt"),
                   "--target-fpr", "0.1", "--k", "10", "--epochs", "120"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("report exp2\n")
        assert "category cat0/lr" in out
        assert "category cat0/kb" in out

    @pytest.mark.parametrize("flags,message", [
        (["--learning-rate", "-0.5"], "learning_rate must be finite and >= 0"),
        (["--learning-rate", "inf"], "learning_rate must be finite and >= 0"),
        (["--l2", "nan"], "l2 must be finite and >= 0"),
    ], ids=["flag-negative-rate", "flag-inf-rate", "flag-nan-l2"])
    def test_exp2_bad_lr_hyperparameters_exit_1(self, tmp_path, capsys, flags, message):
        ws = self.build_exp_workspace(tmp_path)
        rc = main(["exp2", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"),
                   str(ws / "p0.txt"), str(ws / "p0b.txt"),
                   "--target-fpr", "0.1", "--k", "10", "--epochs", "20"] + flags)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "diverged" not in captured.err

    def test_exp2_divergence_exits_1_without_warning(self, tmp_path, capsys):
        ws = self.build_exp_workspace(tmp_path)
        rc = main(["exp2", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"),
                   str(ws / "p0.txt"), str(ws / "p0b.txt"),
                   "--target-fpr", "0.1", "--k", "10", "--epochs", "3",
                   "--learning-rate", "1e308"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "diverged" in captured.err
        assert "RuntimeWarning" not in captured.err

    def test_exp1_output_file(self, tmp_path):
        ws = self.build_exp_workspace(tmp_path)
        out_file = ws / "records.txt"
        rc = main(["exp1", "--background", str(ws / "bg.txt"),
                   "--negatives", str(ws / "negs.txt"),
                   "--category", "cat0", str(ws / "g0.txt"), str(ws / "p0.txt"),
                   "--target-fpr", "0.1", "--k", "10",
                   "--output", str(out_file)])
        assert rc == 0
        assert out_file.read_text(encoding="utf-8").startswith("report exp1\n")


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

    def test_missing_table_is_io_error(self, tmp_path, capsys):
        rc = main(["verify-tables", "--golden-tables", str(tmp_path / "nope.txt")])
        assert rc == 2
