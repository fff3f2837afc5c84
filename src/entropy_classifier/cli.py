"""Command-line entry point.

Commands: train, calibrate, score, evaluate, exp1, exp2, verify-tables.
Results go to --output (default stdout) as line-oriented records with floats
at 17 significant digits; an --output file is replaced atomically, so a failed
run leaves the old one. Diagnostics and human-readable tables go to stderr.
Exit codes: 0 success, 1 validation error, 2 I/O error; of two faults, the
first in reading order decides. Only exp1 and exp2 hold whole corpora, with
one string per distinct token of each.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import records
from .background import train
from .calibration import calibrate_fpr, measure_fpr
from .errors import ToolError, ValidationError
from .experiments import (
    CategorySpec,
    ExperimentConfig,
    bundled_golden_paths,
    render_records,
    render_table,
    render_table_report,
    run_experiment1,
    run_experiment2,
    verify_table,
)
from .glossary import load_glossary, match_corpus
from .model import load_model, rewrite_bias_line, save_model
from .records import format_float
from .scoring import score_corpus, standardized_scores
# Not called here: the benchmark tracer (perfbench/tracer.py) patches
# score_document under this module's name, so the name must stay bound.
from .scoring import score_document  # noqa: F401
from .stats import recall
from .text import load_corpus, read_documents


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the package's
    # validation path instead so missing flags map to exit code 1.
    def error(self, message):
        raise ValidationError(message)


def _n_docs(glossary, corpus) -> str:
    """How many documents of a read corpus the glossary matched, with no second read."""
    return str(len(match_corpus(glossary, corpus)))


def _cmd_train(args: argparse.Namespace) -> int:
    glossary = load_glossary(args.glossary)
    model = train(glossary, read_documents(args.background), args.k)
    save_model(model, args.out)
    print(
        f"trained category={model.category} n_docs={model.n_docs} "
        f"keywords={len(model.phrases)} mu={model.mu:.6g} sigma={model.sigma:.6g} "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _same_file(a, b) -> bool:
    """Whether paths a and b name one file (a symlink or hard link counts)."""
    try:
        return os.path.samefile(a, b)
    except OSError:  # a missing path names no file
        return False


def _cmd_calibrate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    # The report would replace the model file it rewrites.
    if args.output is not None and _same_file(args.output, args.model):
        raise ValidationError(f"calibrate --output {args.output} is the --model file")
    glossary = load_glossary(args.glossary)
    negatives = read_documents(args.negatives)
    updated, achieved_fpr = calibrate_fpr(model, glossary, negatives, args.target_fpr)
    text = records.render([("bias", format_float(updated.bias)),
                           ("achieved_fpr", format_float(achieved_fpr)),
                           ("target_fpr", format_float(args.target_fpr)),
                           ("n_negatives", _n_docs(glossary, negatives))])
    # The model checked the bias, so the file gets only a bias it will load.
    # An --output report is staged first: a fault writing it keeps the model.
    with records.staged(args.output, text):
        rewrite_bias_line(args.model, updated.bias)
    return 0


_SCORE_COLUMNS = ("doc_id", "word_count", "L", "tfidf_over_L", "entropy",
                  "raw_score", "standardized", "probability", "decision")


def _cmd_score(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    glossary = load_glossary(args.glossary)
    columns = _SCORE_COLUMNS + (("contributions",) if args.explain else ())
    lines = ["# " + "\t".join(columns)]
    for b in score_corpus(read_documents(args.input), glossary, model):
        fields = [b.doc_id, str(b.word_count), str(b.effective_length),
                  *map(format_float, (b.tfidf_over_L, b.entropy, b.raw_score,
                                      b.standardized, b.probability)),
                  "positive" if b.positive else "negative"]
        if args.explain:
            fields.append("; ".join(f"{glossary.phrase_text(kid)}={format_float(v)}"
                                    for kid, v in b.per_keyword.items()))
        lines.append("\t".join(fields))
    records.write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    glossary = load_glossary(args.glossary)
    scores = standardized_scores(read_documents(args.positives), glossary, model)
    pairs = [("recall", format_float(recall(scores, model.bias))),
             ("n_positives", str(len(scores)))]
    if args.negatives is not None:
        negatives = read_documents(args.negatives)
        fpr = measure_fpr(model, glossary, negatives)
        pairs += [("fpr", format_float(fpr)), ("n_negatives", _n_docs(glossary, negatives))]
    records.write_text(args.output, records.render(pairs))
    return 0


def _experiment_config(args: argparse.Namespace, with_b: bool) -> ExperimentConfig:
    background = load_corpus(args.background)
    negatives = load_corpus(args.negatives)
    specs = []
    for group in args.categories:
        name, glossary_path = group[0], group[1]
        glossary = load_glossary(glossary_path, category=name)
        positives = load_corpus(group[2])
        positives_b = load_corpus(group[3]) if with_b else None
        specs.append(CategorySpec(
            name=name, glossary=glossary,
            positives=positives, positives_b=positives_b,
        ))
    return ExperimentConfig(
        categories=tuple(specs),
        background=background,
        negatives=negatives,
        k=args.k,
        target_fpr=args.target_fpr,
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    with_b = args.command == "exp2"
    run = run_experiment2 if with_b else run_experiment1
    report = run(_experiment_config(args, with_b))
    records.write_text(args.output, render_records(report))
    print(render_table(report), file=sys.stderr, end="")
    return 0


def _cmd_verify_tables(args: argparse.Namespace) -> int:
    reports = [verify_table(path) for path in args.tables or bundled_golden_paths()]
    records.write_text(args.output, "".join(map(render_table_report, reports)))
    if not all(report.all_passed for report in reports):
        print("error: one or more table checks failed", file=sys.stderr)
        return 1
    return 0


def _required(flag: str, help: str | None = None):
    return flag, {"required": True, "help": help}


def _categories(*metavar: str):
    return "--category", {"required": True, "action": "append", "nargs": len(metavar),
                          "metavar": metavar, "dest": "categories"}


_OUTPUT = "--output", {"default": None, "help": "write results here instead of stdout"}
_K = "--k", {"type": int, "default": ExperimentConfig.k,
             "help": f"length regularizer (default {ExperimentConfig.k})"}
_TARGET_FPR = "--target-fpr", {"type": float, "default": ExperimentConfig.target_fpr}
_MODEL_AND_GLOSSARY = _required("--model"), _required("--glossary")

# command -> (help, handler, options); each option is (flag, add_argument
# keywords), in the order the command's --help lists them.
_COMMANDS = {
    "train": ("fit a background model for one glossary", _cmd_train, (
        _required("--glossary", "its file stem names the category"),
        _required("--background", "background corpus path"),
        _required("--out", "model file to write"), _K)),
    "calibrate": ("set the model bias for an FPR target on negatives", _cmd_calibrate, (
        *_MODEL_AND_GLOSSARY, _required("--negatives", "negative corpus path"),
        _TARGET_FPR, _OUTPUT)),
    "score": ("score every document in a corpus", _cmd_score, (
        *_MODEL_AND_GLOSSARY, _required("--input", "corpus to score"),
        ("--explain", {"action": "store_true",
                       "help": "append per-keyword contributions to each record"}),
        _OUTPUT)),
    "evaluate": ("measure recall (and FPR) of a model", _cmd_evaluate, (
        *_MODEL_AND_GLOSSARY, _required("--positives"), ("--negatives", {"default": None}),
        _OUTPUT)),
    "exp1": ("entropy ablation across categories", _cmd_experiment, (
        _required("--background"), _required("--negatives"),
        _categories("NAME", "GLOSSARY", "POSITIVES"), _K, _TARGET_FPR, _OUTPUT)),
    "exp2": ("LR baseline vs keyword model under shift", _cmd_experiment, (
        _required("--background"), _required("--negatives"),
        _categories("NAME", "GLOSSARY", "POSITIVES_A", "POSITIVES_B"),
        _K, _TARGET_FPR, _OUTPUT)),
    "verify-tables": ("recheck bundled golden recall tables", _cmd_verify_tables, (
        ("--golden-tables", {"action": "append", "default": None, "dest": "tables",
                             "help": "table file (repeatable; default: the bundled tables)"}),
        _OUTPUT)),
}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser, declaring only the command argv names, or every command when
    argv names none, so --help and an unknown command still list them all."""
    # The module docstring is the top-level --help text; CI diffs it against the base.
    parser = _Parser(prog="entropy-classifier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_, _, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        return _COMMANDS[args.command][1](args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        # contract violations from the numeric layers
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
