"""Experiment harnesses and aggregate verification.

Experiment 1 isolates the entropy factor: per category, the entropy-weighted
score and an abundance-only ablation, which exists only here as the kernel's
tfidf_over_L (scoring._score_profile), are fitted on the same background
corpus from one kernel pass, calibrated to the same FPR target, and compared
on recall, with a one-way ANOVA across categories. It builds no model.

Experiment 2 contrasts robustness under distribution shift: a logistic
regression trained on half of each category's A corpus (background corpus as
the negative class) against the knowledge-based model, both calibrated to the
same FPR target, evaluated on A's held-out half and on the disjoint B corpus.
The comparison metric is the fractional change of recall from A to B.

Both experiments match the background and the negatives for every category
in one pass (glossary._match_corpora) before any model is trained. The LR
encodes the background and the negatives once (logreg._encode), and every
category's train_lr and calibrate_lr_threshold share them. Each row's FPR on
the negatives is the one calibration achieved: threshold_for_scores,
calibrate_fpr and calibrate_lr_threshold each return it, so no classifier
scores the negatives twice. A recall in experiment 2 is the rate of the
positives: calibration.measure_fpr for the knowledge-based model,
logreg.lr_measure_fpr for the LR.

verify_tables recomputes aggregates from bundled golden recall tables and
checks them against the expectations recorded in the files themselves. A
table is line records (records.py): the `format_version 1` and `kind` header,
then `row` and `expect` records. A recall_pair table computes mean_a, mean_b,
anova_f and anova_p. Only a recall_shift table may hold a `labels` record
third (two names, default a b); it computes mean_change_<label> for each and
the anova keys. An expect that names any other key is refused at its line.

Both experiments and verify_table summarize through _summarize: the mean of
each group, then a one-way ANOVA when every group holds at least 2 values. A
fractional change with a zero baseline is warned about and left out of the
averages (_add_fractional_change), in exp2 and in recall_shift tables alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import records
from .background import fit_idf, fit_standardization, train
from .calibration import calibrate_fpr, measure_fpr, threshold_for_scores
from .errors import ValidationError
from .glossary import Glossary, _match_corpora, match_corpus
from .logreg import _encode, calibrate_lr_threshold, lr_measure_fpr, train_lr
from .model import BackgroundModel
from .records import format_float
# Not called here: the benchmark tracer (perfbench/tracer.py) patches
# score_document and lr_decision under this module's name, so the names must
# stay bound.
from .logreg import lr_decision  # noqa: F401
from .scoring import score_document  # noqa: F401
from .scoring import _score_profile, _standardize
from .stats import AnovaResult, fractional_change, one_way_anova, recall
from .text import Corpus


@dataclass(frozen=True)
class CategorySpec:
    """One category's inputs: glossary plus positive corpora (B only for exp2)."""

    name: str
    glossary: Glossary
    positives: Corpus
    positives_b: Corpus | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Both experiments' inputs. exp2's LR baseline always trains at
    LrParams(): l2 1e-4, 500 epochs, learning rate 0.5."""

    categories: tuple[CategorySpec, ...]
    background: Corpus
    negatives: Corpus
    k: int = BackgroundModel.k
    target_fpr: float = 0.0005


@dataclass(frozen=True)
class CategoryEval:
    """One report row. recall_a/recall_b are the two compared conditions:
    ablation/entropy for exp1, corpus A/corpus B for exp2."""

    recall_a: float
    recall_b: float
    fpr_a: float
    fpr_b: float | None
    n_pos_a: int
    n_pos_b: int
    n_neg: int
    fractional_change: float | None


@dataclass(frozen=True)
class EvalReport:
    experiment: str
    k: int
    target_fpr: float
    per_category: dict[str, CategoryEval]
    aggregate: dict[str, float]
    anova: AnovaResult | None
    warnings: tuple[str, ...]


def _validate_config(config: ExperimentConfig, need_b: bool) -> None:
    if not config.categories:
        raise ValidationError("experiment needs at least one category")
    seen = set()
    for spec in config.categories:
        if not spec.name or any(ch.isspace() for ch in spec.name):
            raise ValidationError(
                f"category name must be non-empty without whitespace: {spec.name!r}"
            )
        if spec.name in seen:
            raise ValidationError(f"duplicate category name: {spec.name}")
        seen.add(spec.name)
        if need_b and spec.positives_b is None:
            raise ValidationError(f"category {spec.name}: experiment 2 needs a B corpus")
        # Refused before any model is trained. Experiment 2 splits A into a
        # training half and a held-out half, so A needs two documents there.
        corpora = [("A", spec.positives, 2 if need_b else 1)]
        if need_b:
            corpora.append(("B", spec.positives_b, 1))
        for label, corpus, least in corpora:
            if len(corpus) < least:
                raise ValidationError(
                    f"category {spec.name}: corpus {label} ({corpus.source}) holds "
                    f"{len(corpus)} documents, needs at least {least}"
                )


def _add_fractional_change(changes: list[float], recall_a: float, recall_b: float,
                           label: str, warnings: list[str]) -> float | None:
    """Append the fractional change to changes and return it; at a zero
    recall_a it is undefined, so warn and leave it out of the averages."""
    if recall_a == 0:
        warnings.append(
            f"{label}: recall_a is zero, fractional change undefined; excluded from averages"
        )
        return None
    change = fractional_change(recall_a, recall_b)
    changes.append(change)
    return change


def _summarize(groups: dict[str, list[float]], too_few: str,
               warnings: list[str]) -> tuple[dict[str, float], AnovaResult | None]:
    """The mean of each non-empty group under its key, and a one-way ANOVA
    across the groups when each holds at least 2 values (else warn too_few)."""
    means = {key: math.fsum(values) / len(values) for key, values in groups.items() if values}
    if any(len(values) < 2 for values in groups.values()):
        warnings.append(too_few)
        return means, None
    try:
        return means, one_way_anova(groups.values())
    except ValidationError as exc:
        warnings.append(f"ANOVA omitted: {exc}")
        return means, None


def _report(experiment: str, config: ExperimentConfig, rows: dict[str, CategoryEval],
            groups: dict[str, list[float]], too_few: str, warnings: list[str]) -> EvalReport:
    aggregate, anova = _summarize(groups, too_few, warnings)
    return EvalReport(experiment=experiment, k=config.k, target_fpr=config.target_fpr,
                      per_category=rows, aggregate=aggregate, anova=anova,
                      warnings=tuple(warnings))


def run_experiment1(config: ExperimentConfig) -> EvalReport:
    """Entropy ablation at matched FPR; recall_a = ablation, recall_b = entropy."""
    _validate_config(config, need_b=False)
    _match_corpora([s.glossary for s in config.categories], config.background,
                   config.negatives)
    rows: dict[str, CategoryEval] = {}
    for spec in config.categories:
        _, _, idf = fit_idf(spec.glossary, config.background, config.k)
        # One kernel pass per document: (tfidf_over_L, raw score) is its raw
        # score under the ablation and under the entropy model.
        background, negatives, positives = (
            [_score_profile(profile, word_count, idf, config.k)[2::2]
             for word_count, profile in match_corpus(spec.glossary, corpus)]
            for corpus in (config.background, config.negatives, spec.positives))
        rates = []
        for column in (0, 1):  # the ablation's fit and threshold raise first
            mu, sigma = fit_standardization([pair[column] for pair in background])
            negative, positive = ([_standardize(pair[column], mu, sigma) for pair in pairs]
                                  for pairs in (negatives, positives))
            bias, fpr = threshold_for_scores(negative, config.target_fpr)
            rates.append((recall(positive, bias), fpr))  # A is non-empty: cannot raise
        (r_plain, fpr_plain), (r_entropy, fpr_entropy) = rates
        rows[spec.name] = CategoryEval(
            recall_a=r_plain, recall_b=r_entropy, fpr_a=fpr_plain, fpr_b=fpr_entropy,
            n_pos_a=len(spec.positives), n_pos_b=len(spec.positives),
            n_neg=len(config.negatives),
            # Never averaged, so a zero baseline is a silent na.
            fractional_change=fractional_change(r_plain, r_entropy) if r_plain > 0 else None,
        )
    groups = {"mean_recall_a": [row.recall_a for row in rows.values()],
              "mean_recall_b": [row.recall_b for row in rows.values()]}
    return _report("exp1", config, rows, groups, "single category: ANOVA omitted", [])


def split_alternating(corpus: Corpus) -> tuple[Corpus, Corpus]:
    """Deterministic half split of a corpus in its order: even positions
    train, odd positions held out."""
    if len(corpus) < 2:
        raise ValidationError("cannot split a corpus with fewer than 2 documents")
    train_docs = corpus.documents[0::2]
    eval_docs = corpus.documents[1::2]
    return (
        Corpus(documents=train_docs, source=f"{corpus.source}#train"),
        Corpus(documents=eval_docs, source=f"{corpus.source}#heldout"),
    )


def run_experiment2(config: ExperimentConfig) -> EvalReport:
    """LR-vs-knowledge-based robustness; rows keyed '<category>/lr' and
    '<category>/kb'."""
    _validate_config(config, need_b=True)
    _match_corpora([s.glossary for s in config.categories], config.background,
                   config.negatives)
    warnings: list[str] = []
    rows: dict[str, CategoryEval] = {}
    changes: dict[str, list[float]] = {"lr": [], "kb": []}
    background, negatives = _encode(config.background), _encode(config.negatives)
    for spec in config.categories:
        a_train, a_eval = split_alternating(spec.positives)
        corpus_b = spec.positives_b
        kb, kb_fpr = calibrate_fpr(train(spec.glossary, config.background, config.k),
                                   spec.glossary, config.negatives, config.target_fpr)
        lr, lr_fpr = calibrate_lr_threshold(train_lr(a_train, background),
                                            negatives, config.target_fpr)
        lr_ra, lr_rb = (lr_measure_fpr(lr, c) for c in (a_eval, corpus_b))
        kb_ra, kb_rb = (measure_fpr(kb, spec.glossary, c) for c in (a_eval, corpus_b))
        for label, ra, rb, fpr in (("lr", lr_ra, lr_rb, lr_fpr), ("kb", kb_ra, kb_rb, kb_fpr)):
            name = f"{spec.name}/{label}"
            rows[name] = CategoryEval(
                recall_a=ra, recall_b=rb, fpr_a=fpr, fpr_b=None,
                n_pos_a=len(a_eval), n_pos_b=len(corpus_b), n_neg=len(config.negatives),
                fractional_change=_add_fractional_change(changes[label], ra, rb, name,
                                                         warnings),
            )
    groups = {f"mean_fractional_change_{label}": values for label, values in changes.items()}
    return _report("exp2", config, rows, groups,
                   "fewer than 2 fractional changes per classifier: ANOVA omitted", warnings)


# (CategoryEval field and record key, table heading, table width) of each column.
_COLUMNS = (("recall_a", "recall_a", 8), ("recall_b", "recall_b", 8), ("fpr_a", "fpr_a", 8),
            ("fpr_b", "fpr_b", 8), ("n_pos_a", "n_pos_a", 7), ("n_pos_b", "n_pos_b", 7),
            ("n_neg", "n_neg", 6), ("fractional_change", "frac_chg", 9))


def _cell(value, table: bool = False) -> str:
    """na for None, an int as it is, a float at 17 significant digits or 4 decimals."""
    if value is None:
        return "na"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4f}" if table else format_float(value)


def render_records(report: EvalReport) -> str:
    """Machine-readable line records, floats at 17 significant digits."""
    pairs = [("report", report.experiment), ("k", str(report.k)),
             ("target_fpr", format_float(report.target_fpr))]
    pairs += [("category", " ".join([name, *(f"{key} {_cell(getattr(row, key))}"
                                             for key, _, _ in _COLUMNS)]))
              for name, row in report.per_category.items()]
    pairs += [("aggregate", f"{key} {format_float(value)}")
              for key, value in report.aggregate.items()]
    if report.anova is not None:
        a = report.anova
        pairs.append(("anova", f"f_stat {format_float(a.f_stat)} df_between {a.df_between} "
                               f"df_within {a.df_within} p_value {format_float(a.p_value)}"))
    pairs += [("warning", w) for w in report.warnings]
    return records.render(pairs)


def render_table(report: EvalReport) -> str:
    """Human-readable aligned table, 4 digits."""
    name_w = max([len("category")] + [len(n) for n in report.per_category])
    header = "  ".join([f"{'category':<{name_w}}",
                        *(f"{heading:>{width}}" for _, heading, width in _COLUMNS)])
    lines = [f"experiment {report.experiment} (k={report.k}, target_fpr={report.target_fpr:g})",
             header, "-" * len(header)]
    lines += ["  ".join([f"{name:<{name_w}}", *(f"{_cell(getattr(row, key), True):>{width}}"
                                                for key, _, width in _COLUMNS)])
              for name, row in report.per_category.items()]
    for key, value in report.aggregate.items():
        lines.append(f"{key} = {value:.6f}")
    if report.anova is not None:
        a = report.anova
        lines.append(
            f"anova: F = {a.f_stat:.4f}, df = ({a.df_between}, {a.df_within}), "
            f"p = {a.p_value:.6g}"
        )
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


# --- golden table verification -------------------------------------------

@dataclass(frozen=True)
class TableCheck:
    key: str
    expected: float
    tol_kind: str
    tol: float
    passed: bool


@dataclass(frozen=True)
class TableReport:
    path: str
    kind: str
    n_rows: int
    computed: dict[str, float]
    checks: tuple[TableCheck, ...]
    warnings: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def bundled_golden_paths() -> list[Path]:
    """The two recall tables shipped with the package, in a fixed order."""
    root = Path(__file__).with_name("golden")
    return [root / "recall_entropy_ablation.txt", root / "recall_distribution_shift.txt"]


def verify_table(path) -> TableReport:
    """Recompute a golden table's aggregates, in one pass, and check its expectations."""
    p = Path(path)
    label = f"table file {p}"

    def bad(what: str) -> ValidationError:
        return ValidationError(f"{label}: {what}")

    head, body = records.head(records.parse(records.read_text(p, label)), ("kind",), label)
    kind = head["kind"].strip()
    if kind not in ("recall_pair", "recall_shift"):
        raise bad(f"unknown kind: {head['kind']!r}")
    shift = kind == "recall_shift"
    labels: tuple[str, ...] = ("a", "b")
    if shift and body and body[0][1] == "labels":
        (lineno, _, value), body = body[0], body[1:]
        labels = tuple(value.split())
        if len(labels) != 2 or labels[0] == labels[1]:
            raise bad(f"labels needs exactly two distinct names (line {lineno})")
    # Each row adds a recall (recall_pair) or a fractional change (recall_shift) per label.
    groups: dict[str, list[float]] = {
        f"mean_change_{name}" if shift else f"mean_{name}": [] for name in labels}
    known = (*groups, "anova_f", "anova_p")
    warnings: list[str] = []
    n_rows = 0
    expects: list[tuple[str, float, str, float]] = []
    for lineno, key, value in body:
        parts = value.split()
        if key == "row":
            want = 5 if shift else 3
            if len(parts) != want:
                raise bad(f"row needs {want} fields (line {lineno}): {value!r}")
            values = [records.to_float(label, f"recall on line {lineno}", v) for v in parts[1:]]
            if any(not (0.0 <= v <= 1.0) for v in values):
                raise bad(f"recall outside [0, 1] on line {lineno}: {value!r}")
            n_rows += 1
            if shift:
                for name, group, ra, rb in zip(labels, groups.values(), values[::2], values[1::2]):
                    _add_fractional_change(group, ra, rb, f"{parts[0]}/{name}", warnings)
            else:
                for group, v in zip(groups.values(), values):
                    group.append(v)
        elif key == "expect":
            if len(parts) != 4 or parts[2] not in ("abs", "rel"):
                raise bad(f"malformed expect on line {lineno}: {value!r}")
            if parts[0] not in known:
                raise bad(f"unknown expect key {parts[0]!r} on line {lineno}")
            expected, tol = (records.to_float(label, f"expect on line {lineno}", v)
                             for v in (parts[1], parts[3]))
            if tol < 0.0:  # no value would pass
                raise bad(f"negative tolerance on line {lineno}: {value!r}")
            expects.append((parts[0], expected, parts[2], tol))
        else:
            raise bad(f"unknown record {key!r} on line {lineno}")
    if not n_rows:
        raise bad("no data rows")
    try:  # a baseline recall near 0 makes a fractional change near 1 / baseline
        if not all(math.isfinite(v) for values in groups.values() for v in values):
            raise OverflowError
        computed, anova = _summarize(groups, "fewer than 2 values per group: ANOVA omitted",
                                     warnings)
    except ArithmeticError:
        raise bad("aggregates out of floating-point range") from None
    if anova is not None:
        computed.update(anova_f=anova.f_stat, anova_p=anova.p_value)
    # An omitted ANOVA leaves its keys out of computed, and NaN fails both tests.
    checks = tuple(
        TableCheck(key, want, tol_kind, tol, passed=abs(computed.get(key, math.nan) - want)
                   <= (tol if tol_kind == "abs" else tol * abs(want)))
        for key, want, tol_kind, tol in expects)
    return TableReport(path=str(p), kind=kind, n_rows=n_rows, computed=computed,
                       checks=checks, warnings=tuple(warnings))


def render_table_report(report: TableReport) -> str:
    pairs = [("table", f"{Path(report.path).name} kind {report.kind} rows {report.n_rows}")]
    pairs += [("computed", f"{key} {format_float(value)}")
              for key, value in report.computed.items()]
    pairs += [("check", f"{c.key} expected {c.expected:g} tol {c.tol_kind} {c.tol:g} -> "
                        f"{'PASS' if c.passed else 'FAIL'}")
              for c in report.checks]
    pairs += [("warning", w) for w in report.warnings]
    return records.render(pairs)
