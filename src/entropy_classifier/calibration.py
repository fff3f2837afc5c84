"""Decision-bias calibration against a target false-positive rate.

Given scores of a negative corpus, at most m = floor(target_fpr * n) of them
may sit at or above the bias. The selection is tight: lowering the bias to
the next distinct negative score would break the budget. The same routine
thresholds the knowledge-based standardized scores and the logistic
regression logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .glossary import Glossary
from .model import BackgroundModel
from .scoring import score_corpus, standardized_scores
from .text import Corpus


@dataclass(frozen=True)
class CalibrationResult:
    bias: float
    achieved_fpr: float
    target_fpr: float
    n_negatives: int


def threshold_for_scores(scores, target_fpr: float) -> tuple[float, float]:
    """Pick the tight bias for a list of negative scores.

    Returns (bias, achieved_fpr) with achieved_fpr <= target_fpr guaranteed.
    """
    n = len(scores)
    if n == 0:
        raise ValidationError("negative corpus must be non-empty")
    if not (0.0 < target_fpr < 1.0):
        raise ValidationError(f"target_fpr must be in (0, 1), got {target_fpr}")
    ordered = sorted(scores, reverse=True)
    # floor(target * n) < n holds mathematically for target < 1; the clamp
    # guards the one case float rounding could push the product up to n.
    m = min(math.floor(target_fpr * n), n - 1)
    # Above a score, the bias is the next double up: any larger step could
    # skip a distinct score just above and leave the bias loose.
    if m == 0:
        bias = math.nextafter(ordered[0], math.inf)
    elif ordered[m] < ordered[m - 1]:
        # No tie across the boundary: the m-th highest score is admissible.
        bias = ordered[m - 1]
    else:
        bias = math.nextafter(ordered[m], math.inf)
    achieved = sum(1 for s in scores if s >= bias) / n
    return bias, achieved


def calibrate_fpr(model: BackgroundModel, glossary: Glossary, negatives: Corpus,
                  target_fpr: float) -> CalibrationResult:
    """Calibrate the model bias so the FPR on the negatives is <= target."""
    s_hat = standardized_scores(negatives, glossary, model)
    bias, achieved = threshold_for_scores(s_hat, target_fpr)
    return CalibrationResult(
        bias=bias,
        achieved_fpr=achieved,
        target_fpr=target_fpr,
        n_negatives=len(negatives),
    )


def measure_fpr(model: BackgroundModel, glossary: Glossary, negatives: Corpus) -> float:
    """Fraction of negatives the model classifies positive (y >= 0.5)."""
    scored = score_corpus(negatives, glossary, model)  # checks the glossary first
    if len(negatives) == 0:
        raise ValidationError("negative corpus must be non-empty")
    return sum(1 for b in scored if b.positive) / len(negatives)
