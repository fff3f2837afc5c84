"""Decision-bias calibration against a target false-positive rate.

Given scores of a negative corpus, at most m = floor(target_fpr * n) of them
may sit at or above the bias. The selection is tight: lowering the bias to
the next distinct negative score would break the budget. The same routine
thresholds the knowledge-based standardized scores and the logistic
regression logits, and every rate is counted by stats.recall, the one
decision rule (a score at or above the bias is positive).
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .glossary import Glossary
from .model import BackgroundModel
from .scoring import standardized_scores
from .stats import recall
from .text import Corpus


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
    return bias, recall(scores, bias)


def calibrate_fpr(model: BackgroundModel, glossary: Glossary, negatives: Corpus,
                  target_fpr: float) -> tuple[float, float]:
    """(bias, achieved_fpr) that hold the FPR on the negatives <= target."""
    return threshold_for_scores(standardized_scores(negatives, glossary, model), target_fpr)


def measure_fpr(model: BackgroundModel, glossary: Glossary, negatives: Corpus) -> float:
    """Fraction of negatives the model classifies positive (y >= 0.5)."""
    return recall(standardized_scores(negatives, glossary, model), model.bias)
