"""Evaluation statistics: recall, fractional change, one-way ANOVA.

The ANOVA p-value is the F-distribution survival function, computed through
the regularized incomplete beta function I_x(a, b). That kernel is written
here from scratch as a modified-Lentz continued fraction with the usual
symmetry switch; only the log-gamma prefactor comes from the standard
library. Convergence threshold 1e-15 keeps absolute error well below the
1e-10 the test suite demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

_MAX_ITER = 400
_EPS = 1e-15
_FPMIN = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (converges for
    x <= (a+1)/(a+b+2); the caller flips to that regime)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for 0 <= x <= 1 and a, b > 0."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must be in [0, 1], got {x!r}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"a and b must be positive, got a={a!r}, b={b!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x <= (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_sf(f_stat: float, df1: int, df2: int) -> float:
    """Survival function P(F_{df1, df2} >= f) via the incomplete beta."""
    if f_stat < 0:
        raise ValueError(f"F statistic must be >= 0, got {f_stat!r}")
    if df1 < 1 or df2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if math.isinf(f_stat):
        return 0.0
    x = df2 / (df2 + df1 * f_stat)
    return regularized_incomplete_beta(x, df2 / 2.0, df1 / 2.0)


@dataclass(frozen=True)
class AnovaResult:
    f_stat: float
    df_between: int
    df_within: int
    p_value: float


def one_way_anova(groups) -> AnovaResult:
    """Standard one-way ANOVA over >= 2 groups of >= 2 finite values each.

    SSW = 0 (every group internally constant, but groups differ) is reported
    as F = inf, for which f_sf gives p = 0, rather than an error, since it is
    a legitimate extreme of real data. nan and inf are a ValidationError; finite
    values that overflow raise OverflowError (verify_table's range refusal).
    """
    groups = [list(map(float, g)) for g in groups]
    if len(groups) < 2:
        raise ValidationError("one-way ANOVA needs at least 2 groups")
    if any(len(g) < 2 for g in groups):
        raise ValidationError("every ANOVA group needs at least 2 values")
    all_values = [v for g in groups for v in g]
    for v in all_values:
        if not math.isfinite(v):
            raise ValidationError(f"ANOVA values must be finite, got {v}")
    if all(v == all_values[0] for v in all_values):
        raise ValidationError("ANOVA is undefined when all values are identical")

    n_total = len(all_values)
    grand_mean = math.fsum(all_values) / n_total
    group_means = [math.fsum(g) / len(g) for g in groups]
    ssb = math.fsum(
        len(g) * (gm - grand_mean) ** 2 for g, gm in zip(groups, group_means)
    )
    ssw = math.fsum(
        (v - gm) ** 2 for g, gm in zip(groups, group_means) for v in g
    )
    df_between = len(groups) - 1
    df_within = n_total - len(groups)
    f_stat = math.inf if ssw == 0.0 else (ssb / df_between) / (ssw / df_within)
    return AnovaResult(f_stat=f_stat, df_between=df_between, df_within=df_within,
                       p_value=f_sf(f_stat, df_between, df_within))


def recall(scores, bias: float) -> float:
    """Fraction of scores >= bias: the one decision rule (a document is
    positive when its score is at or above the bias) and the one rate. Over a
    positive corpus's scores it is the recall, over a negative corpus's the FPR.
    """
    if len(scores) == 0:
        raise ValidationError("the scored corpus must be non-empty")
    return sum(1 for s in scores if s >= bias) / len(scores)


def fractional_change(recall_a: float, recall_b: float) -> float:
    """(recall_b - recall_a) / recall_a; undefined at recall_a = 0."""
    if recall_a == 0:
        raise ValidationError("fractional change undefined: recall_a is zero")
    return (recall_b - recall_a) / recall_a
