"""Command-line entry point.

Commands: train, calibrate, score, evaluate, exp1, exp2, verify-tables.
Results go to --output (default stdout) as line-oriented records with floats
at 17 significant digits; an --output file is replaced atomically, so a failed
run leaves the old one. Diagnostics and human-readable tables go to stderr.
Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

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
from .glossary import load_glossary
from .logreg import LrParams
from .model import format_float, load_model, rewrite_bias_line, save_model
from .scoring import score_corpus, standardized_scores
# Not called here: the benchmark tracer (perfbench/tracer.py) patches
# score_document under this module's name, so the name must stay bound.
from .scoring import score_document  # noqa: F401
from .stats import recall
from .text import load_corpus


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the package's
    # validation path instead so missing flags map to exit code 1.
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="entropy-classifier", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--output", "-o", default=None,
                       help="write results here instead of stdout")

    def k(p):
        p.add_argument("--k", type=int, default=ExperimentConfig.k,
                       help=f"length regularizer (default {ExperimentConfig.k})")

    def target_fpr(p):
        p.add_argument("--target-fpr", type=float, default=ExperimentConfig.target_fpr)

    p = sub.add_parser("train", help="fit a background model for one glossary")
    p.add_argument("--glossary", required=True)
    p.add_argument("--background", required=True, help="background corpus path")
    p.add_argument("--out", required=True, help="model file to write")
    k(p)
    p.add_argument("--category", default=None,
                   help="category name (default: glossary file stem)")

    p = sub.add_parser("calibrate", help="set the model bias (FPR target or direct)")
    p.add_argument("--model", required=True)
    p.add_argument("--glossary", default=None)
    p.add_argument("--negatives", default=None, help="negative corpus path")
    target_fpr(p)
    p.add_argument("--bias", type=float, default=None,
                   help="set the bias directly instead of calibrating")
    output(p)

    p = sub.add_parser("score", help="score every document in a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--glossary", required=True)
    p.add_argument("--input", required=True, help="corpus to score")
    p.add_argument("--explain", action="store_true",
                   help="append per-keyword contributions to each record")
    output(p)

    p = sub.add_parser("evaluate", help="measure recall (and FPR) of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--glossary", required=True)
    p.add_argument("--positives", required=True)
    p.add_argument("--negatives", default=None)
    output(p)

    p = sub.add_parser("exp1", help="entropy ablation across categories")
    p.add_argument("--background", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--category", required=True, action="append", nargs=3,
                   metavar=("NAME", "GLOSSARY", "POSITIVES"), dest="categories")
    k(p)
    target_fpr(p)
    output(p)

    p = sub.add_parser("exp2", help="LR baseline vs keyword model under shift")
    p.add_argument("--background", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--category", required=True, action="append", nargs=4,
                   metavar=("NAME", "GLOSSARY", "POSITIVES_A", "POSITIVES_B"),
                   dest="categories")
    k(p)
    target_fpr(p)
    p.add_argument("--l2", type=float, default=LrParams.l2)
    p.add_argument("--epochs", type=int, default=LrParams.epochs)
    p.add_argument("--learning-rate", type=float, default=LrParams.learning_rate)
    output(p)

    p = sub.add_parser("verify-tables", help="recheck bundled golden recall tables")
    p.add_argument("--golden-tables", action="append", default=None, dest="tables",
                   help="table file (repeatable; default: the bundled tables)")
    output(p)

    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        records.write_text(output, text)


def _cmd_train(args: argparse.Namespace) -> int:
    glossary = load_glossary(args.glossary, category=args.category)
    corpus = load_corpus(args.background)
    model = train(glossary, corpus, args.k)
    save_model(model, args.out)
    print(
        f"trained category={model.category} n_docs={model.n_docs} "
        f"keywords={len(model.phrases)} mu={model.mu:.6g} sigma={model.sigma:.6g} "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if (args.bias is None) == (args.negatives is None):
        raise ValidationError("calibrate needs exactly one of --bias or --negatives")
    if args.bias is not None:
        updated = replace(model, bias=args.bias)
        rewrite_bias_line(args.model, updated.bias)
        _emit(f"bias {format_float(updated.bias)}\n", args.output)
        return 0
    if args.glossary is None:
        raise ValidationError("calibrate --negatives needs --glossary")
    glossary = load_glossary(args.glossary)
    negatives = load_corpus(args.negatives)
    bias, achieved_fpr = calibrate_fpr(model, glossary, negatives, args.target_fpr)
    rewrite_bias_line(args.model, bias)
    _emit(
        f"bias {format_float(bias)}\n"
        f"achieved_fpr {format_float(achieved_fpr)}\n"
        f"target_fpr {format_float(args.target_fpr)}\n"
        f"n_negatives {len(negatives)}\n",
        args.output,
    )
    return 0


_SCORE_COLUMNS = ("doc_id", "word_count", "L", "tfidf_over_L", "entropy",
                  "raw_score", "standardized", "probability", "decision")


def _cmd_score(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    glossary = load_glossary(args.glossary)
    corpus = load_corpus(args.input)
    columns = _SCORE_COLUMNS + (("contributions",) if args.explain else ())
    lines = ["# " + "\t".join(columns)]
    for b in score_corpus(corpus, glossary, model):
        fields = [
            b.doc_id,
            str(b.word_count),
            str(b.effective_length),
            format_float(b.tfidf_over_L),
            format_float(b.entropy),
            format_float(b.raw_score),
            format_float(b.standardized),
            format_float(b.probability),
            "positive" if b.positive else "negative",
        ]
        if args.explain:
            fields.append("; ".join(
                f"{glossary.phrase_text(kid)}={format_float(v)}"
                for kid, v in b.per_keyword.items()
            ))
        lines.append("\t".join(fields))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    glossary = load_glossary(args.glossary)
    positives = load_corpus(args.positives)
    r = recall(standardized_scores(positives, glossary, model), model.bias)
    lines = [f"recall {format_float(r)}", f"n_positives {len(positives)}"]
    if args.negatives is not None:
        negatives = load_corpus(args.negatives)
        fpr = measure_fpr(model, glossary, negatives)
        lines.append(f"fpr {format_float(fpr)}")
        lines.append(f"n_negatives {len(negatives)}")
    _emit("\n".join(lines) + "\n", args.output)
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
        # exp1 trains no LR model, so it has no LR flags.
        lr=(LrParams(l2=args.l2, epochs=args.epochs, learning_rate=args.learning_rate)
            if with_b else LrParams()),
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    with_b = args.command == "exp2"
    run = run_experiment2 if with_b else run_experiment1
    report = run(_experiment_config(args, with_b))
    _emit(render_records(report), args.output)
    print(render_table(report), file=sys.stderr, end="")
    return 0


def _cmd_verify_tables(args: argparse.Namespace) -> int:
    paths = list(args.tables) if args.tables else bundled_golden_paths()
    parts = []
    all_ok = True
    for path in paths:
        report = verify_table(path)
        parts.append(render_table_report(report))
        all_ok = all_ok and report.all_passed
    _emit("".join(parts), args.output)
    if not all_ok:
        print("error: one or more table checks failed", file=sys.stderr)
        return 1
    return 0


_HANDLERS = {
    "train": _cmd_train,
    "calibrate": _cmd_calibrate,
    "score": _cmd_score,
    "evaluate": _cmd_evaluate,
    "exp1": _cmd_experiment,
    "exp2": _cmd_experiment,
    "verify-tables": _cmd_verify_tables,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        # contract violations from the numeric layers
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
