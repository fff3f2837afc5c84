"""Decision-bias calibration against a target false-positive rate.

Given scores of a negative corpus, at most m = floor(target_fpr * n) of them
may sit at or above the bias. The selection is tight: lowering the bias to
the next distinct negative score would break the budget. The same routine
thresholds the knowledge-based scores (calibrate_fpr) and the logistic
regression logits (logreg.calibrate_lr_threshold); both return (thresholded
model, achieved FPR), and a BackgroundModel refuses a bias that is not
finite. Every rate is counted by stats.recall, the one decision rule.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .errors import ValidationError
from .glossary import Glossary
from .model import BackgroundModel
from .scoring import standardized_scores
from .stats import recall
from .text import Documents


def threshold_for_scores(scores, target_fpr: float) -> tuple[float, float]:
    """Pick the tight bias for a list of finite negative scores.

    Returns (bias, achieved_fpr) with achieved_fpr <= target_fpr guaranteed.
    """
    n = len(scores)
    if n == 0:
        raise ValidationError("negative corpus must be non-empty")
    if not (0.0 < target_fpr < 1.0):
        raise ValidationError(f"target_fpr must be in (0, 1), got {target_fpr}")
    if not all(map(math.isfinite, scores)):
        raise ValidationError("every negative score must be finite")
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
    return bias, recall(scores, bias)


def calibrate_fpr(model: BackgroundModel, glossary: Glossary, negatives: Documents,
                  target_fpr: float) -> tuple[BackgroundModel, float]:
    """(model with the tight bias, achieved_fpr), the FPR on the negatives <= target."""
    bias, achieved_fpr = threshold_for_scores(standardized_scores(negatives, glossary, model),
                                              target_fpr)
    return replace(model, bias=bias), achieved_fpr


def measure_fpr(model: BackgroundModel, glossary: Glossary, corpus: Documents) -> float:
    """Fraction of the corpus the model classifies positive (y >= 0.5): the
    FPR of negatives, the recall of positives."""
    return recall(standardized_scores(corpus, glossary, model), model.bias)
