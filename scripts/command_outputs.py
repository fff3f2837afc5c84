#!/usr/bin/env python3
"""Run a list of CLI commands and keep every byte they write.

Usage:
    PYTHONPATH=src python3 scripts/command_outputs.py COMMANDS_JSON OUT_DIR

COMMANDS_JSON holds a JSON list of argument lists, one per command, run in
order in this interpreter. OUT_DIR receives each command's stdout and stderr
as <n>-<command>.stdout and .stderr and, after train and calibrate, a copy of
the model file as <n>-<command>.model. Run it twice on the same inputs (under
two Pythons, or over two checkouts' src) and compare the two directories with
`diff -r`: every byte must be equal. A --help counts as exit code 0. Exits 1
if a command exits non-zero.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from entropy_classifier.cli import main as cli_main

# The option that names the model file each command writes.
_MODEL_OPTION = {"train": "--out", "calibrate": "--model"}


def main() -> int:
    commands = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = Path(sys.argv[2])
    out.mkdir(parents=True, exist_ok=True)
    for n, argv in enumerate(commands):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse's --help exits with SystemExit(0)
                code = exc.code
        if code != 0:
            print(f"{' '.join(argv)}: exit code {code}\n{stderr.getvalue()}", file=sys.stderr)
            return 1
        stem = out / f"{n:02d}-{argv[0]}"
        for suffix, text in ((".stdout", stdout), (".stderr", stderr)):
            stem.with_suffix(suffix).write_bytes(text.getvalue().encode("utf-8"))
        if _MODEL_OPTION.get(argv[0]) in argv:  # not after train --help
            shutil.copyfile(argv[argv.index(_MODEL_OPTION[argv[0]]) + 1],
                            stem.with_suffix(".model"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
