#!/usr/bin/env python3
"""Print a digest of exp2's trained LR weights for workload input directories.

Usage:
    PYTHONPATH=src python3 scripts/lr_weights.py INPUT_DIR...

Each INPUT_DIR is one that perfbench/workloads.py wrote (it holds
manifest.json). For each exp category, in the manifest's order, one line
gives the directory, the category name, the vocabulary size and the sha256
of the weights' bytes, trained as exp2 trains them: train_lr with its
default parameters on the even-position half of the category's A corpus,
against the exp background. exp2 prints only recalls and FPRs, so a changed
weight bit shows in no output of the CLI; run this over two checkouts' src
on the same inputs and diff the two outputs instead.
"""

import hashlib
import json
import sys
from pathlib import Path

from entropy_classifier.experiments import split_alternating
from entropy_classifier.logreg import train_lr
from entropy_classifier.text import load_corpus


def main() -> int:
    for directory in sys.argv[1:]:
        exp = json.loads((Path(directory) / "manifest.json").read_text(encoding="utf-8"))["exp"]
        background = load_corpus(exp["background"]["path"])
        for category in exp["categories"]:
            a_train, _ = split_alternating(load_corpus(category["a"]["path"]))
            model = train_lr(a_train, background)
            print(directory, category["name"], len(model.vocabulary),
                  hashlib.sha256(model.weights.tobytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
