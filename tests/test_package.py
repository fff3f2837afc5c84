import doctest
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import entropy_classifier

from conftest import write_lines_file

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_modules(code: str, *args: str) -> list[str]:
    """Run code in a fresh interpreter with src/ on the path; return the
    names in its sys.modules at exit (the code's own stdout is dropped)."""
    script = (f"import sys, json; sys.path.insert(0, sys.argv[1])\n{code}\n"
              "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", script, str(SRC), *args], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def numeric_stack(modules: list[str]) -> list[str]:
    return [m for m in modules if m.split(".")[0] in ("numpy", "scipy")]


def test_bare_import_loads_no_submodule_and_no_numeric_stack():
    # The package __init__ re-exports nothing: each name is imported from its
    # module, so a bare import pays for neither numpy nor scipy.
    loaded = fresh_modules("import entropy_classifier")
    assert "entropy_classifier" in loaded
    assert [m for m in loaded if m.startswith("entropy_classifier.")] == []
    assert numeric_stack(loaded) == []


_TRAIN = ["train", "--glossary", "g.txt", "--background", "bg.txt", "--k", "5",
          "--out", "model.txt"]
_EXP = ["--background", "bg.txt", "--negatives", "negs.txt", "--target-fpr", "0.25",
        "--k", "5", "--category", "c", "g.txt", "pos.txt"]


@pytest.mark.parametrize("commands", [
    [_TRAIN],
    [_TRAIN, ["calibrate", "--model", "model.txt", "--glossary", "g.txt",
              "--negatives", "negs.txt"]],
    [_TRAIN, ["score", "--model", "model.txt", "--glossary", "g.txt", "--input", "pos.txt"]],
    [_TRAIN, ["evaluate", "--model", "model.txt", "--glossary", "g.txt",
              "--positives", "pos.txt", "--negatives", "negs.txt"]],
    [["exp1"] + _EXP],
    [["verify-tables"]],
    [["exp2"] + _EXP + ["pos.txt", "--epochs", "5"]],
], ids=lambda commands: commands[-1][0])
def test_only_exp2_loads_the_numeric_stack(tmp_path, commands):
    # numpy and scipy serve only the LR baseline; every other command starts
    # without them.
    (tmp_path / "g.txt").write_text("alpha beta\ngamma\ndelta\n", encoding="utf-8")
    write_lines_file(tmp_path / "bg.txt",
                     [f"filler {i} alpha beta gamma" if i % 3 == 0 else f"filler {i}"
                      for i in range(12)])
    write_lines_file(tmp_path / "negs.txt", [f"noise {i} gamma" for i in range(8)])
    write_lines_file(tmp_path / "pos.txt", [f"report {i} alpha beta gamma delta"
                                            for i in range(6)])
    argvs = [[str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
             for argv in commands]
    loaded = fresh_modules("from entropy_classifier.cli import main\n"
                           "assert [main(argv) for argv in json.loads(sys.argv[2])] == "
                           f"[0] * {len(argvs)}", json.dumps(argvs))
    assert "entropy_classifier.cli" in loaded
    if commands[-1][0] == "exp2":
        assert {"numpy", "scipy.sparse"} <= set(loaded)
    else:
        assert numeric_stack(loaded) == []


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(entropy_classifier.__path__)])
def test_docstring_examples(name):
    module = importlib.import_module(f"entropy_classifier.{name}")
    assert doctest.testmod(module).failed == 0
