import math
import random
from pathlib import Path

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_classifier.errors import ValidationError
from entropy_classifier.stats import (
    f_sf,
    fractional_change,
    one_way_anova,
    recall,
    regularized_incomplete_beta,
)

REFERENCE = Path(__file__).parent / "data" / "inc_beta_reference.txt"


def load_reference():
    rows = []
    for line in REFERENCE.read_text(encoding="utf-8").split("\n"):
        if line.startswith("#") or not line.strip():
            continue
        a, b, x, value = line.split()
        rows.append((float(a), float(b), float(x), float(value)))
    assert len(rows) == 2475
    return rows


class TestIncompleteBeta:
    def test_edges(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case_is_identity(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.25, 0.5, 0.9):
            assert regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, rel=1e-14)

    def test_closed_form_a1(self):
        # I_x(1, b) = 1 - (1-x)^b
        for x, b in ((0.2, 3.0), (0.7, 0.5), (0.05, 8.0)):
            expected = 1.0 - (1.0 - x) ** b
            assert regularized_incomplete_beta(x, 1.0, b) == pytest.approx(expected, rel=1e-13)

    def test_median_of_symmetric(self):
        assert regularized_incomplete_beta(0.5, 7.0, 7.0) == pytest.approx(0.5, abs=1e-14)

    def test_against_frozen_reference(self):
        worst = 0.0
        for a, b, x, expected in load_reference():
            got = regularized_incomplete_beta(x, a, b)
            worst = max(worst, abs(got - expected))
        assert worst < 1e-10

    def test_symmetry_identity(self):
        for a in (0.5, 1.0, 2.0, 8.0, 50.0):
            for b in (0.5, 1.0, 2.0, 8.0, 50.0):
                for i in range(1, 100, 7):
                    x = i / 100.0
                    lhs = regularized_incomplete_beta(x, a, b)
                    rhs = 1.0 - regularized_incomplete_beta(1.0 - x, b, a)
                    assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="x must be in"):
            regularized_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="x must be in"):
            regularized_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="must be positive"):
            regularized_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="must be positive"):
            regularized_incomplete_beta(0.5, 1.0, -2.0)


class TestFSurvival:
    def test_zero_statistic(self):
        assert f_sf(0.0, 3, 10) == 1.0

    def test_infinite_statistic(self):
        assert f_sf(math.inf, 3, 10) == 0.0

    def test_against_scipy(self):
        rng = random.Random(5150)
        for _ in range(200):
            f = rng.uniform(0.0, 40.0)
            df1 = rng.randint(1, 30)
            df2 = rng.randint(1, 60)
            expected = scipy.stats.f.sf(f, df1, df2)
            assert f_sf(f, df1, df2) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_monotone_decreasing_in_f(self):
        values = [f_sf(f / 2, 2, 12) for f in range(0, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            f_sf(-1.0, 2, 2)
        with pytest.raises(ValueError, match="degrees of freedom"):
            f_sf(1.0, 0, 2)


class TestOneWayAnova:
    def test_against_scipy_random_groups(self):
        rng = random.Random(2001)
        for _ in range(100):
            groups = [
                [rng.gauss(rng.uniform(-1, 1), 1.0) for _ in range(rng.randint(2, 12))]
                for _ in range(rng.randint(2, 5))
            ]
            got = one_way_anova(groups)
            expected = scipy.stats.f_oneway(*groups)
            assert got.f_stat == pytest.approx(expected.statistic, rel=1e-10)
            assert got.p_value == pytest.approx(expected.pvalue, rel=1e-8, abs=1e-300)
            assert got.df_between == len(groups) - 1
            assert got.df_within == sum(len(g) for g in groups) - len(groups)

    def test_hand_example(self):
        res = one_way_anova([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
        # SSB = 1.5, SSW = 4, F = 1.5 / (4/4) = 1.5
        assert res.f_stat == pytest.approx(1.5, rel=1e-14)
        assert res.df_between == 1
        assert res.df_within == 4

    def test_zero_within_variance(self):
        res = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(res.f_stat)
        assert res.p_value == 0.0

    def test_all_identical_rejected(self):
        with pytest.raises(ValidationError, match="identical"):
            one_way_anova([[1.0, 1.0], [1.0, 1.0]])

    def test_too_few_groups_or_values(self):
        with pytest.raises(ValidationError, match="at least 2 groups"):
            one_way_anova([[1.0, 2.0]])
        with pytest.raises(ValidationError, match="at least 2 values"):
            one_way_anova([[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("groups", [
        [[0.0, "bad"], [0.0, 1.0]],
        [[0.0, 1.0], [2.0, 3.0, "bad"]],
        [["bad", "bad"], ["bad", "bad"]],
    ])
    def test_non_finite_value_rejected(self, bad, groups):
        # Before any sum: an inf or nan used to reach f_sf as a nan F.
        groups = [[bad if v == "bad" else v for v in g] for g in groups]
        with pytest.raises(ValidationError, match=f"ANOVA values must be finite, got {bad}"):
            one_way_anova(groups)

    def test_overflowing_finite_values_raise_overflow(self):
        # verify_table turns this into its floating-point range refusal.
        with pytest.raises(OverflowError):
            one_way_anova([[0.0, 1e200], [0.0, 1.0]])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=2, max_size=5), min_size=2, max_size=4))
    def test_finite_values_give_a_result_or_a_documented_error(self, groups):
        try:
            res = one_way_anova(groups)
        except (ValidationError, OverflowError):
            return
        assert res.f_stat >= 0
        assert 0.0 <= res.p_value <= 1.0


class TestRecall:
    def test_fraction(self):
        # A score equal to the bias counts as positive.
        assert recall([0.1, 0.5, -2.0, 0.7], 0.5) == 0.5
        assert recall([1.0], 1.0) == 1.0
        assert recall([math.nextafter(1.0, -math.inf)], 1.0) == 0.0
        assert recall([-0.5, -0.5, -0.25, -1.0], -0.5) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            recall([], 0.0)


class TestFractionalChange:
    def test_formula(self):
        assert fractional_change(0.5, 0.4) == pytest.approx(-0.2, rel=1e-15)
        assert fractional_change(0.25, 0.75) == pytest.approx(2.0, rel=1e-15)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValidationError, match="recall_a is zero"):
            fractional_change(0.0, 0.5)
