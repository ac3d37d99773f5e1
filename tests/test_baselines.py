"""Tests for the baseline forecasters."""

import warnings

import numpy as np
import pytest

from cellcast import BaselineError, HoltWintersConfig, holt_winters, seasonal_naive
from cellcast.baselines import _smoothing_pass


class TestSeasonalNaive:
    def test_pinned_example(self):
        """Two full cycles of season 3, horizon 4: the last cycle repeats and wraps."""
        out = seasonal_naive(np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]), 3, 4)
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 1.0])

    def test_repeats_last_season_exactly(self):
        """forecast[h] always equals the training value one full cycle back."""
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(5, 60))
            season = int(rng.integers(1, n + 1))
            horizon = int(rng.integers(1, 40))
            train = rng.uniform(0.0, 100.0, n)
            out = seasonal_naive(train, season, horizon)
            assert out.shape == (horizon,)
            for h in range(1, horizon + 1):
                assert out[h - 1] == train[n - season + ((h - 1) % season)]

    def test_periodic_series_forecast_is_exact(self):
        """On an exactly periodic series the continuation is reproduced perfectly."""
        rng = np.random.default_rng(72)
        cycle = rng.uniform(10.0, 50.0, 7)
        series = np.tile(cycle, 6)
        out = seasonal_naive(series[:28], 7, 14)
        np.testing.assert_array_equal(out, series[28:42])

    def test_season_one_is_flat_naive(self):
        """season=1 degenerates to repeating the last value."""
        out = seasonal_naive(np.array([5.0, 9.0]), 1, 3)
        np.testing.assert_array_equal(out, [9.0, 9.0, 9.0])

    def test_validation(self):
        with pytest.raises(BaselineError):
            seasonal_naive(np.array([1.0, 2.0]), 3, 2)  # shorter than one season
        with pytest.raises(BaselineError):
            seasonal_naive(np.array([1.0, 2.0]), 0, 2)
        with pytest.raises(BaselineError):
            seasonal_naive(np.array([1.0, 2.0]), 1, 0)
        with pytest.raises(BaselineError):
            seasonal_naive(np.array([1.0, np.nan]), 1, 1)
        with pytest.raises(BaselineError):
            seasonal_naive(np.float64(1.0), 1, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: seasonal_naive(np.ones(20), 7.0, 3),
        lambda: seasonal_naive(np.ones(20), True, 3),
        lambda: seasonal_naive(np.ones(20), 7, 3.0),
        lambda: holt_winters(np.ones(20), HoltWintersConfig(), 3.0),
        lambda: holt_winters(np.ones(20), HoltWintersConfig(), True),
    ],
)
def test_counts_must_be_integers(call):
    """season and horizon are integers >= 1, bools excluded: anything else is
    one BaselineError, not an IndexError from the indexing it feeds."""
    with pytest.raises(BaselineError, match="must be an integer >= 1"):
        call()


class TestHoltWinters:
    def test_initialization_from_first_two_seasons(self):
        """Level starts at the first-season mean, trend at the per-step season-mean gap,
        seasonals at the first-season deviations; alpha=0 still advances the level by
        the trend each step."""
        cfg = HoltWintersConfig(season=3, alpha=0.0, beta=0.0, gamma=0.0)
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        level, trend, seasonal = _smoothing_pass(values, cfg)
        assert trend == (5.0 - 2.0) / 3.0
        np.testing.assert_array_equal(seasonal, [-1.0, 0.0, 1.0])
        # the level advances 2 -> 3 -> 4 -> 5, once per smoothed step
        assert level == 2.0 + 3 * trend

    def test_zero_coefficient_forecast_unrolls_init(self):
        """With zero coefficients the state follows the init deterministically and the
        forecast is the hand-unrolled level + h*trend + seasonal."""
        cfg = HoltWintersConfig(season=2, alpha=0.0, beta=0.0, gamma=0.0)
        values = np.array([10.0, 20.0, 30.0, 40.0])
        out = holt_winters(values, cfg, 4)
        trend = 10.0
        final_level = 15.0 + 2 * trend  # init level advanced once per smoothed step
        seasonal = np.array([-5.0, 5.0])
        expected = [final_level + h * trend + seasonal[(4 + h - 1) % 2] for h in (1, 2, 3, 4)]
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_deterministic_trend_is_extrapolated(self):
        """A noiseless trend + seasonal series is continued with small relative error."""
        t = np.arange(1, 71, dtype=np.float64)
        seasonal = np.array([3.0, -1.0, -4.0, 0.0, 5.0, -2.0, -1.0])
        series = 100.0 + 0.5 * t + seasonal[(np.arange(70)) % 7]
        cfg = HoltWintersConfig(season=7, alpha=0.3, beta=0.05, gamma=0.1)
        out = holt_winters(series[:56], cfg, 14)
        np.testing.assert_allclose(out, series[56:70], rtol=0.03)

    def test_one_step_fitted_errors_vanish_on_identified_series(self):
        """A trendless purely seasonal series makes the initial state exact, so
        the one-step forecast from every prefix is the next value and the
        state never drifts."""
        m = 4
        seasonal = np.array([2.0, -3.0, 1.0, 0.0])
        t = np.arange(40)
        series = (50.0 + seasonal[t % m]).astype(np.float64)
        cfg = HoltWintersConfig(season=m, alpha=0.4, beta=0.2, gamma=0.3)
        level, trend, state = _smoothing_pass(series, cfg)
        for n in range(2 * m, 40):
            np.testing.assert_allclose(holt_winters(series[:n], cfg, 1), series[n : n + 1], atol=1e-9)
        assert (level, trend) == (50.0, 0.0)
        np.testing.assert_allclose(state, seasonal, atol=1e-12)
        out = holt_winters(series, cfg, 8)
        expected = 50.0 + seasonal[np.arange(40, 48) % m]
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_shift_equivariance(self):
        """Adding a constant to the series shifts the forecast by the same constant."""
        rng = np.random.default_rng(73)
        cfg = HoltWintersConfig()
        for _ in range(10):
            train = rng.uniform(10.0, 200.0, 35)
            base = holt_winters(train, cfg, 10)
            shifted = holt_winters(train + 77.0, cfg, 10)
            np.testing.assert_allclose(shifted, base + 77.0, rtol=1e-10, atol=1e-8)

    def test_validation(self):
        cfg = HoltWintersConfig(season=7)
        with pytest.raises(BaselineError):
            holt_winters(np.ones(13), cfg, 5)  # needs two full seasons
        with pytest.raises(BaselineError):
            holt_winters(np.ones(20), cfg, 0)
        with pytest.raises(BaselineError):
            HoltWintersConfig(alpha=1.5)
        with pytest.raises(BaselineError):
            HoltWintersConfig(beta=-0.1)
        with pytest.raises(BaselineError):
            HoltWintersConfig(season=0)
        HoltWintersConfig()


class TestPanels:
    def test_matrix_equals_stacked_rows(self):
        """Both baselines forecast an (S, n) matrix row by row: the matrix call's
        bytes equal those of the per-row calls stacked, for S = 1 and more, every
        season from 1 up to n/2 and short horizons."""
        rng = np.random.default_rng(74)
        for _ in range(120):
            n = int(rng.integers(2, 50))
            season = int(rng.integers(1, n // 2 + 1))
            horizon = int(rng.integers(1, 2 * season + 3))
            train = rng.uniform(0.0, 500.0, (int(rng.integers(1, 6)), n))
            got = seasonal_naive(train, season, horizon)
            assert got.tobytes() == np.stack([seasonal_naive(r, season, horizon) for r in train]).tobytes()
            cfg = HoltWintersConfig(
                season=season, alpha=float(rng.random()), beta=float(rng.random()), gamma=float(rng.random())
            )
            got = holt_winters(train, cfg, horizon)
            assert got.shape == (train.shape[0], horizon)
            assert got.tobytes() == np.stack([holt_winters(r, cfg, horizon) for r in train]).tobytes()

    def test_overflowing_matrix_is_one_error(self):
        """One row too large for the smoothing state fails the whole matrix with
        one BaselineError naming the largest value, and no numpy warning."""
        train = np.full((3, 28), 10.0)
        train[1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BaselineError, match=r"^train values up to 1e\+308 are too large"):
                holt_winters(train, HoltWintersConfig(), 5)
