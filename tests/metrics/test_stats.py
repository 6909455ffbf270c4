"""Tests for summary statistics and confidence intervals."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.metrics.stats import Summary, confidence_interval_95, summarize


class TestSummarize:
    def test_mean_and_std(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.std == pytest.approx(math.sqrt(5.0 / 3.0))
        assert s.n == 4

    def test_ci_contains_mean(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.ci_low < s.mean < s.ci_high

    def test_ci_symmetric(self):
        s = summarize([5.0, 7.0, 9.0, 11.0])
        assert s.mean - s.ci_low == pytest.approx(s.ci_high - s.mean)

    def test_single_sample_zero_width(self):
        s = summarize([3.0])
        assert (s.ci_low, s.ci_high) == (3.0, 3.0)
        assert s.std == 0.0

    def test_constant_sample_zero_width(self):
        s = summarize([2.0] * 10)
        assert s.ci_half_width == 0.0

    def test_more_samples_shrink_ci(self):
        small = summarize([1.0, 2.0, 3.0] * 3)
        large = summarize([1.0, 2.0, 3.0] * 30)
        assert large.ci_half_width < small.ci_half_width

    def test_t_interval_wider_than_normal_for_small_n(self):
        """With n=3, the t critical value (4.30) far exceeds z (1.96)."""
        s = summarize([0.0, 1.0, 2.0])
        normal_half = 1.96 * s.std / math.sqrt(3)
        assert s.ci_half_width > normal_half

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([1.0, 2.0], confidence=1.5)

    def test_confidence_interval_95_helper(self):
        lo, hi = confidence_interval_95([1.0, 2.0, 3.0])
        s = summarize([1.0, 2.0, 3.0])
        assert (lo, hi) == (s.ci_low, s.ci_high)

    def test_str_rendering(self):
        text = str(summarize([1.0, 2.0, 3.0]))
        assert "n=3" in text and "±" in text

    def test_wider_confidence_widens_interval(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        s90 = summarize(data, confidence=0.90)
        s99 = summarize(data, confidence=0.99)
        assert s99.ci_half_width > s90.ci_half_width


class TestTQuantile:
    """The pure-Python Student-t quantile behind every confidence interval."""

    # Two-sided critical values t_{0.975, df} and t_{0.995, df}, from the
    # standard table (Abramowitz & Stegun Table 26.10), to the table's
    # three decimals.
    TABLE = {
        1: (12.706, 63.657),
        2: (4.303, 9.925),
        3: (3.182, 5.841),
        4: (2.776, 4.604),
        5: (2.571, 4.032),
        10: (2.228, 3.169),
        20: (2.086, 2.845),
        30: (2.042, 2.750),
        60: (2.000, 2.660),
        120: (1.980, 2.617),
    }

    @pytest.mark.parametrize("df", sorted(TABLE))
    def test_matches_the_table(self, df):
        from repro.metrics.stats import t_quantile

        t975, t995 = self.TABLE[df]
        assert round(t_quantile(0.975, df), 3) == t975
        assert round(t_quantile(0.995, df), 3) == t995

    def test_symmetric_and_median(self):
        from repro.metrics.stats import t_quantile

        assert t_quantile(0.5, 7) == 0.0
        assert t_quantile(0.025, 7) == -t_quantile(0.975, 7)

    def test_large_df_approaches_the_normal(self):
        from statistics import NormalDist

        from repro.metrics.stats import t_quantile

        z = NormalDist().inv_cdf(0.975)
        assert t_quantile(0.975, 100_000) == pytest.approx(z, rel=1e-4)
        assert t_quantile(0.975, 2000) > t_quantile(0.975, 100_000) > z

    @pytest.mark.parametrize("bad", [(0.0, 3), (1.0, 3), (0.9, 0)])
    def test_rejects_bad_arguments(self, bad):
        from repro.metrics.stats import t_quantile

        with pytest.raises(ConfigurationError):
            t_quantile(*bad)

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        from repro.metrics.stats import t_quantile

        worst = 0.0
        for p in (0.9, 0.95, 0.975, 0.995):
            for df in list(range(1, 200)) + list(range(200, 2001, 29)):
                expected = float(stats.t.ppf(p, df))
                worst = max(worst, abs(t_quantile(p, df) - expected) / expected)
        assert worst < 1e-13

    def test_import_does_not_load_scipy(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.api; "
            "print([m for m in ('scipy', 'networkx') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
