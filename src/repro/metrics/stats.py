"""Summary statistics: means and 95% confidence intervals.

Figures 8–10 plot means with 95% confidence error bars over 100 random
scenarios per configuration; this module reproduces that aggregation using
the Student-t interval.  The t quantile is computed here, in pure Python
(regularised incomplete beta plus Newton), to double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Summary:
    """Mean, spread, and a 95% confidence interval of a sample."""

    n: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:
        return f"{self.mean:+.4f} ± {self.ci_half_width:.4f} (n={self.n})"


def summarize(samples: Sequence[float], confidence: float = 0.95) -> Summary:
    """Mean with a Student-t confidence interval.

    Degenerate samples are handled explicitly: a single observation gets a
    zero-width interval (there is nothing to infer a spread from), and an
    empty sample is an error.
    """
    if not samples:
        raise ConfigurationError("cannot summarize an empty sample")
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return Summary(n=1, mean=mean, std=0.0, ci_low=mean, ci_high=mean)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    if std == 0.0:
        return Summary(n=n, mean=mean, std=0.0, ci_low=mean, ci_high=mean)
    t_crit = t_quantile(0.5 + confidence / 2.0, n - 1)
    half = t_crit * std / math.sqrt(n)
    return Summary(n=n, mean=mean, std=std, ci_low=mean - half, ci_high=mean + half)


def confidence_interval_95(samples: Sequence[float]) -> tuple[float, float]:
    """The 95% confidence interval of the sample mean."""
    summary = summarize(samples, confidence=0.95)
    return (summary.ci_low, summary.ci_high)


def t_quantile(p: float, df: int) -> float:
    """The ``p`` quantile of Student's t distribution with ``df`` degrees
    of freedom, to double precision.

    Newton's method on the upper tail (:func:`_t_upper_tail`), from the
    exact quantile for ``df`` 1 and 2 and from the Cornish–Fisher
    expansion (Abramowitz & Stegun 26.7.5) otherwise, until the step
    stops shrinking.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1), got {p}")
    if df < 1:
        raise ConfigurationError(f"degrees of freedom must be >= 1, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    tail = 1.0 - p
    if df == 1:
        t = math.tan(math.pi * (p - 0.5))
    elif df == 2:
        t = (2.0 * p - 1.0) / math.sqrt(2.0 * p * tail)
    else:
        from statistics import NormalDist

        z = NormalDist().inv_cdf(p)
        z2 = z * z
        t = z + (
            (z2 + 1.0) * z / 4.0
            + ((5.0 * z2 + 16.0) * z2 + 3.0) * z / (96.0 * df)
            + (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / (384.0 * df * df)
            + ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0)
            * z
            / (92160.0 * df**3)
        ) / df
    a = df / 2.0
    log_density = _log_gamma_ratio(a) - 0.5 * math.log(df * math.pi)
    last = math.inf
    for _ in range(50):
        density = math.exp(log_density - (a + 0.5) * math.log1p(t * t / df))
        step = (_t_upper_tail(t, df) - tail) / density
        if abs(step) >= last:
            break  # at the rounding floor
        t += step
        last = abs(step)
        if last <= 1e-16 * t:
            break
    return t


def _t_upper_tail(t: float, df: int) -> float:
    """``P(T > t)`` for ``t > 0``: ``I_x(df/2, 1/2) / 2`` with
    ``x = df / (df + t²)``."""
    a = df / 2.0
    ratio = t * t / df
    log_x = -math.log1p(ratio)
    log_y = math.log(ratio) + log_x  # y = 1 - x, without cancellation
    # x^a y^(1/2) / (a B(a, 1/2)), B(a, 1/2) = Γ(a) Γ(1/2) / Γ(a + 1/2)
    front = math.exp(
        _log_gamma_ratio(a) - _LOG_SQRT_PI + a * log_x + 0.5 * log_y
    )
    x = math.exp(log_x)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_fraction(a, 0.5, x) / a
    return 0.5 - front * _beta_fraction(0.5, a, ratio / (1.0 + ratio))


#: ``ln Γ(1/2)``.
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _log_gamma_ratio(a: float) -> float:
    """``ln(Γ(a + 1/2) / Γ(a))``.  The difference of two ``lgamma``
    values cancels badly for large ``a``, so from ``a = 20`` on it is the
    asymptotic series, which is exact to double precision there."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    inv = 1.0 / a
    inv2 = inv * inv
    return 0.5 * math.log(a) + inv * (
        -1.0 / 8.0
        + inv2
        * (
            1.0 / 192.0
            + inv2
            * (-1.0 / 640.0 + inv2 * (17.0 / 14336.0 - inv2 * 31.0 / 18432.0))
        )
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of the regularised incomplete beta
    ``I_x(a, b)``, by the modified Lentz method (converges fast for
    ``x < (a + 1) / (a + b + 2)``)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 3e-16:
            break
    return h
