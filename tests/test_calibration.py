import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.background import train
from entropy_classifier.calibration import (
    calibrate_fpr,
    measure_fpr,
    threshold_for_scores,
)
from entropy_classifier.errors import ValidationError
from entropy_classifier.model import set_bias_direct
from entropy_classifier.text import corpus_from_texts


def fpr_at(scores, bias):
    return sum(1 for s in scores if s >= bias) / len(scores)


class TestThresholdForScores:
    def test_budget_zero_bumps_above_top(self):
        scores = [0.5, 0.1, -0.2]
        bias, achieved = threshold_for_scores(scores, 0.05)  # floor(0.15) = 0
        assert bias > 0.5
        assert achieved == 0.0

    def test_no_tie_uses_mth_highest(self):
        scores = [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0]
        bias, achieved = threshold_for_scores(scores, 0.2)  # m = 2
        assert bias == 4.0
        assert achieved == 0.2

    def test_tie_at_boundary_bumps(self):
        # m = 2 but scores[1] == scores[2]: admitting rank 2 would also admit rank 3
        scores = [5.0, 4.0, 4.0, 4.0, 1.0, 0.0, -1.0, -2.0, -3.0, -4.0]
        bias, achieved = threshold_for_scores(scores, 0.2)
        assert bias > 4.0
        assert achieved == 0.1

    def test_bump_is_relative_at_large_magnitude(self):
        scores = [1e9, 0.0]
        bias, achieved = threshold_for_scores(scores, 0.4)
        assert bias > 1e9
        assert achieved == 0.0

    def test_bump_has_absolute_floor_near_zero(self):
        scores = [0.0, -1.0]
        bias, achieved = threshold_for_scores(scores, 0.4)
        assert bias > 0.0
        assert achieved == 0.0

    def test_near_tie_above_the_boundary_stays_tight(self):
        # m = 2 with a tie at ranks 2 and 3 and the top score 5e-10 relative
        # above them: the bias must still admit the top score.
        scores = [1000 * (1 + 5e-10), 1000.0, 1000.0] + [0.0] * 997
        bias, achieved = threshold_for_scores(scores, 0.002)
        assert bias == math.nextafter(1000.0, math.inf)
        assert achieved == 0.001

    @given(
        base=st.floats(min_value=-1e12, max_value=1e12),
        counts=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        n_low=st.integers(0, 6),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_guarantee_and_tightness_on_adjacent_doubles(self, base, counts, n_low, data):
        # counts[i] copies of the i-th double above base, plus n_low lower scores
        scores, x = [base - 1.0] * n_low, base
        for c in counts:
            scores += [x] * c
            x = math.nextafter(x, math.inf)
        if not scores:
            scores = [base]
        n = len(scores)
        m = data.draw(st.integers(0, n - 1))
        bias, achieved = threshold_for_scores(scores, (m + 0.5) / n)
        admitted = sum(1 for s in scores if s >= bias)
        assert achieved == admitted / n
        assert admitted <= m
        next_below = max(s for s in scores if s < bias)
        assert sum(1 for s in scores if s >= next_below) > m

    def test_negative_scores(self):
        scores = [-1.0, -2.0, -3.0, -4.0, -5.0]
        bias, achieved = threshold_for_scores(scores, 0.4)  # m = 2
        assert bias == -2.0
        assert achieved == 0.4

    def test_target_near_one_clamps(self):
        scores = [3.0, 2.0, 1.0]
        bias, achieved = threshold_for_scores(scores, 0.999)  # floor -> 2 = n-1
        assert bias == 2.0
        assert achieved == pytest.approx(2 / 3)

    def test_empty_scores_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            threshold_for_scores([], 0.1)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_target_out_of_range_rejected(self, bad):
        with pytest.raises(ValidationError, match="target_fpr"):
            threshold_for_scores([1.0], bad)

    def test_guarantee_and_tightness_on_random_fixtures(self):
        # score separation is far above the bump epsilon, so the guarantee
        # and tightness are exact properties here
        rng = random.Random(777)
        for _ in range(200):
            n = rng.randint(1, 400)
            distinct = rng.sample(range(-10**6, 10**6), rng.randint(1, min(n, 60)))
            scores = [rng.choice(distinct) * 1e-3 for _ in range(n)]
            target = rng.choice([0.0005, 0.004, 0.02, 0.1, 0.33, 0.71])
            bias, achieved = threshold_for_scores(scores, target)
            assert achieved == fpr_at(scores, bias)
            assert achieved <= target
            below = [s for s in scores if s < bias]
            if below:
                assert fpr_at(scores, max(below)) > target
            else:
                # nothing below the bias means every score is admitted
                assert achieved == 1.0


class TestCalibrateFpr:
    def test_end_to_end_consistency(self, finance_glossary, small_background):
        m = train(finance_glossary, small_background)
        negatives = corpus_from_texts(
            [f"noise only document {i}" for i in range(20)]
            + ["tax return audit dividend", "portfolio interest rate audit"],
            source="<neg>",
        )
        bias, achieved_fpr = calibrate_fpr(m, finance_glossary, negatives, target_fpr=0.1)
        assert achieved_fpr <= 0.1
        calibrated = set_bias_direct(m, bias)
        assert measure_fpr(calibrated, finance_glossary, negatives) == achieved_fpr

    def test_empty_negatives_rejected(self, finance_glossary, small_background):
        m = train(finance_glossary, small_background)
        with pytest.raises(ValidationError, match="non-empty"):
            calibrate_fpr(m, finance_glossary, corpus_from_texts([]), 0.1)

    def test_default_style_target_on_small_corpus_yields_zero_fpr(
            self, finance_glossary, small_background):
        # 0.0005 * n < 1 for any n < 2000: budget is zero positives
        m = train(finance_glossary, small_background)
        negatives = corpus_from_texts([f"plain text {i}" for i in range(50)])
        _, achieved_fpr = calibrate_fpr(m, finance_glossary, negatives, target_fpr=0.0005)
        assert achieved_fpr == 0.0


class TestMeasureFpr:
    def test_counts_boundary_as_positive(self, finance_glossary, small_background):
        m = train(finance_glossary, small_background)
        negatives = corpus_from_texts(["no match here"])
        s_hat = -m.mu / m.sigma
        at_boundary = set_bias_direct(m, s_hat)
        assert measure_fpr(at_boundary, finance_glossary, negatives) == 1.0
        above = set_bias_direct(m, math.nextafter(s_hat, math.inf))
        assert measure_fpr(above, finance_glossary, negatives) == 0.0
