"""Tests for the synthetic panel generator: determinism, structure, component isolation."""

import datetime as dt
import math

import numpy as np
import pytest

from cellcast import SynthConfig, generate_panel, series_params, substream
from cellcast.synth import SynthConfigError


def clean_config(**kw):
    """A small noiseless, burst-free config; overrides via kwargs."""
    base = dict(
        n_series=3,
        n_total=28,
        base_level=200.0,
        trend_slope_range=(0.0, 0.0),
        period=7,
        amplitude_range=(50.0, 50.0),
        burst_rate=0.0,
        noise_sigma=0.0,
        seed=99,
    )
    base.update(kw)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_config_same_panel(self):
        """Two generations from one config are bit-identical."""
        cfg = SynthConfig(n_series=5, n_total=40, seed=4242)
        a = generate_panel(cfg)
        b = generate_panel(cfg)
        assert a == b

    def test_seed_changes_panel(self):
        """Different master seeds give different noise realizations."""
        a = generate_panel(SynthConfig(n_series=2, n_total=30, seed=1))
        b = generate_panel(SynthConfig(n_series=2, n_total=30, seed=2))
        assert a != b

    def test_series_independent_of_panel_size(self):
        """Series i is a function of (seed, i) alone: shrinking n_series leaves it unchanged."""
        big = generate_panel(SynthConfig(n_series=8, n_total=35, seed=77))
        small = generate_panel(SynthConfig(n_series=3, n_total=35, seed=77))
        np.testing.assert_array_equal(big.values[:3], small.values)

    def test_params_from_dedicated_stream(self):
        """series_params replays exactly from the documented substream (seed, i, 0)."""
        cfg = SynthConfig(seed=314)
        for i in (0, 1, 17):
            rng = substream(cfg.seed, i, 0)
            expected = (
                rng.uniform(*cfg.trend_slope_range),
                rng.uniform(*cfg.amplitude_range),
                rng.uniform(0.0, 2.0 * math.pi),
            )
            assert series_params(cfg, i) == expected


class TestStructure:
    def test_shape_ids_and_dates(self):
        """Panel has n_series rows of n_total steps, zero-padded ids, configured start date."""
        cfg = SynthConfig(n_series=12, n_total=50, seed=5, start_date=dt.date(2022, 3, 1))
        p = generate_panel(cfg)
        assert (p.n_series, p.n_steps) == (12, 50)
        assert p.series_ids[0] == "cell0000"
        assert p.series_ids[-1] == "cell0011"
        assert p.start_date == dt.date(2022, 3, 1)

    def test_id_width_grows_with_panel(self):
        """Id padding widens once 4 digits no longer fit n_series-1."""
        cfg = SynthConfig(n_series=10001, n_total=2, seed=0)
        width = max(4, len(str(cfg.n_series - 1)))
        assert width == 5
        # construct ids the same way without generating the full panel
        assert f"cell{10000:0{width}d}" == "cell10000"

    def test_values_non_negative(self):
        """Clamping keeps every value at or above zero even with strong negative trend."""
        cfg = SynthConfig(
            n_series=4, n_total=120, base_level=10.0, trend_slope_range=(-5.0, -5.0), seed=8
        )
        p = generate_panel(cfg)
        assert np.all(p.values >= 0.0)
        assert np.any(p.values == 0.0)

    def test_noiseless_panel_is_periodic(self):
        """With no trend, bursts or noise, the series repeats exactly every period."""
        p = generate_panel(clean_config())
        for row in p.values:
            np.testing.assert_array_equal(row[7:], row[:-7])

    def test_trend_only_series_is_affine(self):
        """Zero amplitude and zero noise leaves base + slope * t exactly."""
        cfg = clean_config(amplitude_range=(0.0, 0.0), trend_slope_range=(1.5, 1.5))
        p = generate_panel(cfg)
        t = np.arange(1, cfg.n_total + 1, dtype=np.float64)
        for row in p.values:
            np.testing.assert_allclose(row, 200.0 + 1.5 * t, rtol=0, atol=0)

    def test_burst_component_adds_spikes(self):
        """Raising burst_rate from zero only ever increases values (exponential spikes add)."""
        quiet = generate_panel(clean_config(seed=123))
        bursty = generate_panel(clean_config(seed=123, burst_rate=0.4, burst_scale=300.0))
        diff = bursty.values - quiet.values
        assert np.all(diff >= -1e-12)
        assert np.any(diff > 100.0)

    def test_oracle_reconstruction(self):
        """A literal re-evaluation of the generative formula reproduces the panel.

        The substream layout (params, bursts, noise per series) must line up
        exactly; only float summation order is allowed to differ.
        """
        cfg = SynthConfig(n_series=3, n_total=25, seed=2025)
        p = generate_panel(cfg)
        t = np.arange(1, cfg.n_total + 1, dtype=np.float64)
        angle = 2.0 * math.pi * (np.arange(1, cfg.n_total + 1) % cfg.period) / cfg.period
        for i in range(cfg.n_series):
            slope, amplitude, phase = series_params(cfg, i)
            burst_rng = substream(cfg.seed, i, 1)
            counts = burst_rng.poisson(cfg.burst_rate, cfg.n_total)
            burst = np.zeros(cfg.n_total)
            for step in range(cfg.n_total):
                if counts[step] > 0:
                    burst[step] = burst_rng.exponential(cfg.burst_scale, counts[step]).sum()
            noise = substream(cfg.seed, i, 2).normal(0.0, cfg.noise_sigma, cfg.n_total)
            x = cfg.base_level + slope * t + amplitude * np.sin(angle + phase) + burst + noise
            np.testing.assert_allclose(p.values[i], np.maximum(0.0, x), rtol=1e-12, atol=1e-10)


class TestValidation:
    def test_rejects_bad_configs(self):
        """Out-of-range fields raise SynthConfigError on generation."""
        bad = [
            dict(n_series=0),
            dict(n_total=1),
            dict(period=0),
            dict(base_level=-1.0),
            dict(burst_rate=-0.1),
            dict(noise_sigma=-2.0),
            dict(trend_slope_range=(2.0, 1.0)),
            dict(amplitude_range=(math.inf, math.inf)),
        ]
        for kw in bad:
            with pytest.raises(SynthConfigError):
                generate_panel(SynthConfig(**kw))

    def test_last_day_must_fit_the_calendar(self):
        """A start date whose n_total-th day is past date.max is a config error;
        one that ends exactly on date.max is a panel."""
        with pytest.raises(SynthConfigError, match="leaves no room for 212 days"):
            SynthConfig(start_date=dt.date(9999, 10, 1))
        last_start = dt.date.max - dt.timedelta(days=9)
        with pytest.raises(SynthConfigError):
            SynthConfig(n_series=1, n_total=11, start_date=last_start)
        panel = generate_panel(SynthConfig(n_series=1, n_total=10, start_date=last_start))
        assert panel.dates()[-1] == dt.date.max
