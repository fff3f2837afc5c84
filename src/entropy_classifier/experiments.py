"""Experiment harnesses and aggregate verification.

Experiment 1 isolates the entropy factor: per category, an entropy-weighted
model and an abundance-only ablation are trained on the same background
corpus, calibrated to the same FPR target, and compared on recall, with a
one-way ANOVA across categories.

Experiment 2 contrasts robustness under distribution shift: a logistic
regression trained on half of each category's A corpus (background corpus as
the negative class) against the knowledge-based model, both calibrated to the
same FPR target, evaluated on A's held-out half and on the disjoint B corpus.
The comparison metric is the fractional change of recall from A to B. Each
row's FPR on the negatives is the one calibration achieved: calibrate_fpr and
calibrate_lr_threshold each return (thresholded model, achieved FPR), so no
classifier scores the negatives twice.

verify_tables recomputes aggregates from bundled golden recall tables and
checks them against the expectations recorded in the files themselves. A
table is line records (records.py): the `format_version 1` and `kind` header,
an optional `labels` record third, then `row` and `expect` records.

Both experiments and verify_table summarize through _summarize: the mean of
each group, then a one-way ANOVA when every group holds at least 2 values. A
fractional change with a zero baseline is warned about and left out of the
averages (_add_fractional_change), in exp2 and in recall_shift tables alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import records
from .background import train
from .calibration import calibrate_fpr
from .errors import ValidationError
from .glossary import Glossary
from .logreg import LrParams, calibrate_lr_threshold, lr_logit, train_lr
from .model import BackgroundModel
from .records import format_float
from .scoring import standardized_scores
# Not called here: the benchmark tracer (perfbench/tracer.py) patches
# score_document, measure_fpr, lr_decision and lr_measure_fpr under this
# module's name, so the names must stay bound.
from .calibration import measure_fpr  # noqa: F401
from .logreg import lr_decision, lr_measure_fpr  # noqa: F401
from .scoring import score_document  # noqa: F401
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
    categories: tuple[CategorySpec, ...]
    background: Corpus
    negatives: Corpus
    k: int = BackgroundModel.k
    target_fpr: float = 0.0005
    lr: LrParams = LrParams()


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


def _calibrated_kb(spec: CategorySpec, config: ExperimentConfig,
                   entropy_weighted: bool = True) -> tuple[BackgroundModel, float]:
    """Train on the background and calibrate on the negatives:
    (thresholded model, achieved FPR on the negatives)."""
    model = train(spec.glossary, config.background, config.k, entropy_weighted=entropy_weighted)
    return calibrate_fpr(model, spec.glossary, config.negatives, config.target_fpr)


def _kb_recall(model: BackgroundModel, glossary: Glossary, positives: Corpus) -> float:
    return recall(standardized_scores(positives, glossary, model), model.bias)


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
    rows: dict[str, CategoryEval] = {}
    for spec in config.categories:
        plain, fpr_plain = _calibrated_kb(spec, config, entropy_weighted=False)
        entropy, fpr_entropy = _calibrated_kb(spec, config)
        r_plain, r_entropy = (_kb_recall(m, spec.glossary, spec.positives)
                              for m in (plain, entropy))
        rows[spec.name] = CategoryEval(
            recall_a=r_plain, recall_b=r_entropy, fpr_a=fpr_plain, fpr_b=fpr_entropy,
            n_pos_a=len(spec.positives), n_pos_b=len(spec.positives),
            n_neg=len(config.negatives),
            # Never averaged, so a zero baseline is a silent na.
            fractional_change=(
                fractional_change(r_plain, r_entropy) if r_plain > 0 else None
            ),
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
    warnings: list[str] = []
    rows: dict[str, CategoryEval] = {}
    changes: dict[str, list[float]] = {"lr": [], "kb": []}
    for spec in config.categories:
        a_train, a_eval = split_alternating(spec.positives)
        corpus_b = spec.positives_b
        kb, kb_fpr = _calibrated_kb(spec, config)
        lr, lr_fpr = calibrate_lr_threshold(train_lr(a_train, config.background, config.lr),
                                            config.negatives, config.target_fpr)
        lr_ra, lr_rb = (recall(lr_logit(lr, c), lr.threshold_bias) for c in (a_eval, corpus_b))
        kb_ra, kb_rb = (_kb_recall(kb, spec.glossary, c) for c in (a_eval, corpus_b))
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


def _fmt_opt(value, digits: int | None = None) -> str:
    if value is None:
        return "na"
    if digits is None:
        return format_float(value)
    return f"{value:.{digits}f}"


def render_records(report: EvalReport) -> str:
    """Machine-readable line records, floats at 17 significant digits."""
    lines = [
        f"report {report.experiment}",
        f"k {report.k}",
        f"target_fpr {format_float(report.target_fpr)}",
    ]
    for name, row in report.per_category.items():
        lines.append(
            f"category {name} "
            f"recall_a {format_float(row.recall_a)} recall_b {format_float(row.recall_b)} "
            f"fpr_a {format_float(row.fpr_a)} fpr_b {_fmt_opt(row.fpr_b)} "
            f"n_pos_a {row.n_pos_a} n_pos_b {row.n_pos_b} "
            f"n_neg {row.n_neg} fractional_change {_fmt_opt(row.fractional_change)}"
        )
    for key in report.aggregate:
        lines.append(f"aggregate {key} {format_float(report.aggregate[key])}")
    if report.anova is not None:
        a = report.anova
        lines.append(
            f"anova f_stat {format_float(a.f_stat)} df_between {a.df_between} "
            f"df_within {a.df_within} p_value {format_float(a.p_value)}"
        )
    for w in report.warnings:
        lines.append(f"warning {w}")
    return "\n".join(lines) + "\n"


def render_table(report: EvalReport) -> str:
    """Human-readable aligned table, 4 digits."""
    name_w = max([len("category")] + [len(n) for n in report.per_category])
    header = (
        f"{'category':<{name_w}}  {'recall_a':>8}  {'recall_b':>8}  "
        f"{'fpr_a':>8}  {'fpr_b':>8}  {'n_pos_a':>7}  {'n_pos_b':>7}  "
        f"{'n_neg':>6}  {'frac_chg':>9}"
    )
    lines = [f"experiment {report.experiment} (k={report.k}, target_fpr={report.target_fpr:g})",
             header, "-" * len(header)]
    for name, row in report.per_category.items():
        lines.append(
            f"{name:<{name_w}}  {row.recall_a:>8.4f}  {row.recall_b:>8.4f}  "
            f"{row.fpr_a:>8.4f}  {_fmt_opt(row.fpr_b, 4):>8}  {row.n_pos_a:>7}  {row.n_pos_b:>7}  "
            f"{row.n_neg:>6}  {_fmt_opt(row.fractional_change, 4):>9}"
        )
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
    computed: float
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
    root = resources.files("entropy_classifier") / "golden"
    return [
        Path(str(root / "recall_entropy_ablation.txt")),
        Path(str(root / "recall_distribution_shift.txt")),
    ]


def _parse_golden(path: Path):
    """A golden table: the `kind` header record, an optional `labels` record
    straight after it, then `row` and `expect` records in any order."""
    label = f"table file {path}"

    def bad(what: str) -> ValidationError:
        return ValidationError(f"{label}: {what}")

    head, body = records.head(records.parse(records.read_text(path, label)), ("kind",), label)
    kind = head["kind"].strip()
    if kind not in ("recall_pair", "recall_shift"):
        raise bad(f"unknown kind: {head['kind']!r}")
    labels: tuple[str, str] = ("a", "b")
    if body and body[0][1] == "labels":
        (lineno, _, value), body = body[0], body[1:]
        parts = value.split()
        if len(parts) != 2 or parts[0] == parts[1]:
            raise bad(f"labels needs exactly two distinct names (line {lineno})")
        labels = (parts[0], parts[1])
    rows: list[tuple[str, tuple[float, ...]]] = []
    expects: list[tuple[str, float, str, float]] = []
    for lineno, key, value in body:
        parts = value.split()
        if key == "row":
            want = 3 if kind == "recall_pair" else 5
            if len(parts) != want:
                raise bad(f"row needs {want} fields (line {lineno}): {value!r}")
            values = tuple(records.to_float(label, f"recall on line {lineno}", v)
                           for v in parts[1:])
            if any(not (0.0 <= v <= 1.0) for v in values):
                raise bad(f"recall outside [0, 1] on line {lineno}: {value!r}")
            rows.append((parts[0], values))
        elif key == "expect":
            if len(parts) != 4 or parts[2] not in ("abs", "rel"):
                raise bad(f"malformed expect on line {lineno}: {value!r}")
            expected, tol = (records.to_float(label, f"expect on line {lineno}", v)
                             for v in (parts[1], parts[3]))
            expects.append((parts[0], expected, parts[2], tol))
        else:
            raise bad(f"unknown record {key!r} on line {lineno}")
    if not rows:
        raise bad("no data rows")
    return kind, labels, rows, expects


def verify_table(path) -> TableReport:
    """Recompute a golden table's aggregates and check its expectations."""
    p = Path(path)
    kind, labels, rows, expects = _parse_golden(p)
    warnings: list[str] = []
    if kind == "recall_pair":
        groups = {"mean_a": [v[0] for _, v in rows], "mean_b": [v[1] for _, v in rows]}
    else:
        groups = {f"mean_change_{label}": [] for label in labels}
        for name, v in rows:
            for label, ra, rb in ((labels[0], v[0], v[1]), (labels[1], v[2], v[3])):
                _add_fractional_change(groups[f"mean_change_{label}"], ra, rb,
                                       f"{name}/{label}", warnings)
    computed, anova = _summarize(groups, "fewer than 2 values per group: ANOVA omitted",
                                 warnings)
    if anova is not None:
        computed["anova_f"] = anova.f_stat
        computed["anova_p"] = anova.p_value

    checks = []
    for key, expected, tol_kind, tol in expects:
        got = computed.get(key, math.nan)
        if tol_kind == "abs":
            ok = abs(got - expected) <= tol
        else:
            ok = abs(got - expected) <= tol * abs(expected)
        checks.append(TableCheck(key=key, computed=got, expected=expected,
                                 tol_kind=tol_kind, tol=tol, passed=bool(ok)))
    return TableReport(
        path=str(p), kind=kind, n_rows=len(rows), computed=computed,
        checks=tuple(checks), warnings=tuple(warnings),
    )


def render_table_report(report: TableReport) -> str:
    lines = [f"table {Path(report.path).name} kind {report.kind} rows {report.n_rows}"]
    for key, value in report.computed.items():
        lines.append(f"computed {key} {format_float(value)}")
    for c in report.checks:
        verdict = "PASS" if c.passed else "FAIL"
        lines.append(
            f"check {c.key} expected {c.expected:g} tol {c.tol_kind} {c.tol:g} -> {verdict}"
        )
    for w in report.warnings:
        lines.append(f"warning {w}")
    return "\n".join(lines) + "\n"
