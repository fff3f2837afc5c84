"""Knowledge-based document classification by keyword abundance and diversity.

A classifier for one category is a keyword glossary plus a background model
fitted on an unlabeled corpus. Documents are scored by how much glossary
vocabulary they contain (length-normalized tf-idf mass) weighted by how
diverse the matched vocabulary is (Shannon entropy of the match distribution),
then standardized against the background corpus and squashed through a
sigmoid with a calibratable bias.
"""

from .background import compute_df, fit_standardization, train
from .calibration import (
    CalibrationResult,
    calibrate_fpr,
    measure_fpr,
    threshold_for_scores,
)
from .errors import InputOutputError, ToolError, ValidationError
from .experiments import (
    CategoryEval,
    CategorySpec,
    EvalReport,
    ExperimentConfig,
    run_experiment1,
    run_experiment2,
    verify_table,
)
from .glossary import Glossary, MatchProfile, Matcher, load_glossary, make_glossary, match
from .logreg import (
    LrModel,
    LrParams,
    calibrate_lr_threshold,
    load_lr_model,
    predict_lr,
    save_lr_model,
    train_lr,
)
from .model import BackgroundModel, idf_from_df, load_model, save_model, set_bias_direct
from .scoring import (
    ScoreBreakdown,
    raw_score,
    score_corpus,
    score_document,
    shannon_entropy,
    sigmoid,
    standardized_scores,
)
from .stats import AnovaResult, fractional_change, one_way_anova, regularized_incomplete_beta
from .text import Corpus, Document, corpus_from_texts, load_corpus, tokenize

__version__ = "0.1.0"

__all__ = [
    "AnovaResult",
    "BackgroundModel",
    "CalibrationResult",
    "CategoryEval",
    "CategorySpec",
    "Corpus",
    "Document",
    "EvalReport",
    "ExperimentConfig",
    "Glossary",
    "InputOutputError",
    "LrModel",
    "LrParams",
    "MatchProfile",
    "Matcher",
    "ScoreBreakdown",
    "ToolError",
    "ValidationError",
    "calibrate_fpr",
    "calibrate_lr_threshold",
    "compute_df",
    "corpus_from_texts",
    "fit_standardization",
    "fractional_change",
    "idf_from_df",
    "load_corpus",
    "load_glossary",
    "load_lr_model",
    "load_model",
    "make_glossary",
    "match",
    "measure_fpr",
    "one_way_anova",
    "predict_lr",
    "raw_score",
    "regularized_incomplete_beta",
    "run_experiment1",
    "run_experiment2",
    "save_lr_model",
    "save_model",
    "score_corpus",
    "score_document",
    "set_bias_direct",
    "shannon_entropy",
    "sigmoid",
    "standardized_scores",
    "threshold_for_scores",
    "tokenize",
    "train",
    "train_lr",
    "verify_table",
]
