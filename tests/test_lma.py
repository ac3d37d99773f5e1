"""Tests for LMA covariate channels: window placement, channel values, standardization."""

import csv
import datetime as dt
import warnings

import numpy as np
import pytest

from cellcast import (
    LmaConfig,
    SeriesPanel,
    assemble_covariates,
    day_of_week_channel,
    export_covariates,
    feature_value,
    lma_features,
    lma_window,
)
from cellcast.lma import LmaError


def oracle_window(i, n, w, p):
    """Independent transcription of the placement rules; returns a 1-based inclusive (start, end).

    head (i < p) and horizon (i >= n) entries use fixed windows; interior
    entries trail the index by the horizon, clamped so the window stays
    inside the observed range; near the end they stick to the last window.
    """
    if i < p:
        return 1, w
    if i >= n:
        return n - p + 1, n
    if n - i - 1 < p:
        return n - w + 1, n
    start = min(max(i - p + 1, 1), n - w + 1)
    return start, start + w - 1


class TestWindowPlacement:
    def test_pinned_windows(self):
        """Hand-checked placements for a length-6 series with window 3, horizon 2."""
        assert lma_window(1, 6, 3, 2) == (1, 3)
        assert lma_window(4, 6, 3, 2) == (4, 3)
        assert lma_window(7, 6, 3, 2) == (5, 2)

    def test_matches_oracle_everywhere(self):
        """lma_window agrees with the independent transcription at every index."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            w = int(rng.integers(1, n + 1))
            p = int(rng.integers(1, w + 1))
            for i in range(1, n + p + 1):
                start, length = lma_window(i, n, w, p)
                o_start, o_end = oracle_window(i, n, w, p)
                assert (start, length) == (o_start, o_end - o_start + 1), (i, n, w, p)

    def test_window_stays_in_range(self):
        """Every window lies inside [1, n]."""
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            w = int(rng.integers(1, n + 1))
            p = int(rng.integers(1, w + 1))
            for i in range(1, n + p + 1):
                start, length = lma_window(i, n, w, p)
                assert 1 <= start
                assert start + length - 1 <= n

    def test_rejects_invalid_queries(self):
        """Bad (window, horizon, n, i) combinations raise LmaError."""
        with pytest.raises(LmaError):
            lma_window(1, 10, 3, 4)  # horizon > window
        with pytest.raises(LmaError):
            lma_window(1, 10, 3, 0)
        with pytest.raises(LmaError):
            lma_window(1, 2, 3, 1)  # window > n
        with pytest.raises(LmaError):
            lma_window(0, 10, 3, 2)
        with pytest.raises(LmaError):
            lma_window(13, 10, 3, 2)  # past n + horizon


class TestFeatureValue:
    def test_mean_and_std(self):
        """mean is arithmetic; std is the population form (ddof 0)."""
        assert feature_value(np.array([1.0, 3.0]), "mean") == 2.0
        assert feature_value(np.array([1.0, 3.0]), "std") == 1.0
        assert feature_value(np.array([5.0]), "std") == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(LmaError):
            feature_value(np.array([]), "mean")
        with pytest.raises(LmaError):
            feature_value(np.array([1.0]), "median")


class TestChannels:
    def test_worked_example(self):
        """z = 10..60, window 3, horizon 2: the mean channel is the hand-computed run."""
        cfg = LmaConfig(window_len=3, horizon=2, features=("mean",), standardize=False)
        out = lma_features([10.0, 20.0, 30.0, 40.0, 50.0, 60.0], cfg)
        np.testing.assert_array_equal(out, [[20.0, 20.0, 30.0, 50.0, 50.0, 55.0, 55.0, 55.0]])

    def test_matches_bruteforce_oracle_bit_exact(self):
        """Channel values equal windowed statistics from the transcription oracle, bit for bit."""
        rng = np.random.default_rng(1001)
        for _ in range(60):
            n = int(rng.integers(1, 200))
            w = int(rng.integers(1, n + 1))
            p = int(rng.integers(1, w + 1))
            z = rng.uniform(0.0, 2000.0, size=n)
            cfg = LmaConfig(window_len=w, horizon=p, features=("mean", "std"), standardize=False)
            out = lma_features(z, cfg)
            assert out.shape == (2, n + p)
            for i in range(1, n + p + 1):
                start, end = oracle_window(i, n, w, p)
                window = z[start - 1 : end]
                assert out[0, i - 1] == float(np.mean(window))
                assert out[1, i - 1] == float(np.std(window))

    @pytest.mark.parametrize(
        "n, w, p",
        [(1, 1, 1), (9, 9, 9), (9, 9, 1), (40, 7, 7), (40, 7, 1), (40, 40, 3), (181, 62, 31)],
    )
    def test_equals_per_index_statistics_bytes(self, n, w, p):
        """The array reduction gives the bytes of reducing each index's window alone."""
        z = np.random.default_rng(n * 1000 + w * 10 + p).uniform(0.0, 2000.0, size=n)
        cfg = LmaConfig(window_len=w, horizon=p, features=("std", "mean"), standardize=False)
        expected = np.empty((2, n + p))
        for i in range(1, n + p + 1):
            start, length = lma_window(i, n, w, p)
            window = z[start - 1 : start - 1 + length]
            expected[:, i - 1] = [feature_value(window, kind) for kind in cfg.features]
        assert lma_features(z, cfg).tobytes() == expected.tobytes()

    def test_constant_runs_at_ends(self):
        """Head entries (i < horizon) and entries from n onward are constant runs."""
        rng = np.random.default_rng(77)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            w = int(rng.integers(2, n + 1))
            p = int(rng.integers(2, w + 1))
            z = rng.uniform(0.0, 100.0, size=n)
            cfg = LmaConfig(window_len=w, horizon=p, features=("mean",), standardize=False)
            out = lma_features(z, cfg)[0]
            head = out[: p - 1]
            np.testing.assert_array_equal(head, np.full(head.size, out[0]))
            tail = out[n - 1 :]
            assert tail.size == p + 1
            np.testing.assert_array_equal(tail, np.full(tail.size, tail[-1]))

    def test_mean_channel_monotone_for_monotone_series(self):
        """A nondecreasing series yields a nondecreasing mean channel."""
        rng = np.random.default_rng(55)
        for _ in range(25):
            n = int(rng.integers(4, 80))
            w = int(rng.integers(1, n + 1))
            p = int(rng.integers(1, w + 1))
            z = np.cumsum(rng.uniform(0.0, 5.0, size=n))
            cfg = LmaConfig(window_len=w, horizon=p, features=("mean",), standardize=False)
            out = lma_features(z, cfg)[0]
            assert np.all(np.diff(out) >= -1e-12)

    def test_config_validation(self):
        """Invalid configs and series raise LmaError."""
        with pytest.raises(LmaError):
            LmaConfig(window_len=3, horizon=4)
        with pytest.raises(LmaError):
            LmaConfig(features=())
        with pytest.raises(LmaError):
            LmaConfig(features=("mean", "mean"))
        with pytest.raises(LmaError):
            LmaConfig(features=("median",))
        with pytest.raises(LmaError):
            lma_features(np.arange(5.0), LmaConfig(window_len=10, horizon=2))
        with pytest.raises(LmaError):
            lma_features(np.zeros((2, 3)), LmaConfig(window_len=2, horizon=1))


def small_panel(rng, n_series=3, n_steps=40):
    ids = tuple(f"c{i}" for i in range(n_series))
    return SeriesPanel(ids, dt.date(2021, 1, 1), rng.uniform(1.0, 500.0, (n_series, n_steps)))


class TestCovariatePanel:
    @pytest.mark.parametrize(
        "n_series, n, w, p", [(3, 9, 9, 1), (3, 9, 9, 9), (4, 40, 7, 1), (4, 40, 40, 3), (75, 181, 62, 31)]
    )
    def test_panel_equals_stacked_per_series_features(self, n_series, n, w, p):
        """Placing the windows once per panel and reducing many series per call
        gives the bytes of stacking each series' lma_features, raw and
        standardized, including w == n, p == 1 and a panel wider than one call."""
        rng = np.random.default_rng(n_series * 1000 + n)
        panel = small_panel(rng, n_series, n)
        raw = LmaConfig(window_len=w, horizon=p, standardize=False)
        # np.array lays the rows out in C order whatever each row's strides,
        # as the per-series path did; the standardizing reductions round by
        # memory order
        stacked = np.array([lma_features(row, raw) for row in panel.values])
        assert assemble_covariates(panel, raw, p).channels.tobytes() == stacked.tobytes()
        shift = stacked[:, :, :n].mean(axis=2)
        scale = stacked[:, :, :n].std(axis=2)
        scale = np.where(scale == 0.0, 1.0, scale)
        expected = (stacked - shift[:, :, None]) / scale[:, :, None]
        cov = assemble_covariates(panel, LmaConfig(window_len=w, horizon=p), p)
        assert cov.channels.tobytes() == expected.tobytes()

    def test_standardization_over_training_range(self):
        """Standardized channels have zero mean and unit population std over the first n steps."""
        rng = np.random.default_rng(9)
        panel = small_panel(rng)
        cfg = LmaConfig(window_len=10, horizon=5)
        cov = assemble_covariates(panel, cfg, cfg.horizon)
        n = panel.n_steps
        assert cov.channels.shape == (3, 2, n + 5)
        train = cov.channels[:, :, :n]
        np.testing.assert_allclose(train.mean(axis=2), 0.0, atol=1e-12)
        np.testing.assert_allclose(train.std(axis=2), 1.0, rtol=1e-12)

    def test_standardization_recovers_raw(self):
        """shift + scale * standardized reproduces the unstandardized channels,
        with shift and scale their training-range mean and population std."""
        rng = np.random.default_rng(10)
        panel = small_panel(rng)
        cfg = LmaConfig(window_len=8, horizon=4)
        raw = assemble_covariates(panel, LmaConfig(window_len=8, horizon=4, standardize=False), 4)
        std = assemble_covariates(panel, cfg, 4)
        train = raw.channels[:, :, : panel.n_steps]
        shift, scale = train.mean(axis=2), train.std(axis=2)
        rebuilt = shift[:, :, None] + scale[:, :, None] * std.channels
        np.testing.assert_allclose(rebuilt, raw.channels, rtol=1e-12, atol=1e-9)

    def test_zero_variance_channel_becomes_zero(self):
        """A constant series gives zero-variance channels, standardized to all zeros."""
        panel = SeriesPanel(("flat",), dt.date(2021, 1, 1), np.full((1, 20), 42.0))
        cov = assemble_covariates(panel, LmaConfig(window_len=6, horizon=3), 3)
        np.testing.assert_array_equal(cov.channels, np.zeros_like(cov.channels))

    @pytest.mark.parametrize("standardize", [True, False])
    def test_overflowing_panel_is_one_error(self, standardize):
        """Values whose window sums overflow float64 raise one LmaError naming
        the panel's largest value, and numpy emits no warning."""
        panel = SeriesPanel(("a", "b"), dt.date(2021, 1, 1), np.full((2, 20), 1e308))
        cfg = LmaConfig(window_len=6, horizon=3, standardize=standardize)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(LmaError, match=r"values up to 1e\+308 are too large"):
                assemble_covariates(panel, cfg, 3)
        assert caught == []

    def test_day_of_week_channel(self):
        """Weekday channel is 7-periodic, spans [-1, 1], starts at the start date's weekday."""
        start = dt.date(2021, 1, 1)  # a Friday, weekday 4
        ch = day_of_week_channel(start, 20, 10)
        assert ch.shape == (30,)
        assert ch[0] == (4 - 3.0) / 3.0
        np.testing.assert_array_equal(ch[7:], ch[:-7])
        assert ch.min() == -1.0 and ch.max() == 1.0

    def test_assemble_variants(self):
        """assemble_covariates: LMA-only, LMA+dow, dow-only, and none."""
        rng = np.random.default_rng(12)
        panel = small_panel(rng)
        cfg = LmaConfig(window_len=10, horizon=5)
        lma_only = assemble_covariates(panel, cfg, 5)
        assert lma_only.kinds == ("mean", "std")
        both = assemble_covariates(panel, cfg, 5, day_of_week=True)
        assert both.kinds == ("mean", "std", "dow")
        np.testing.assert_array_equal(both.channels[:, :2], lma_only.channels)
        dow_only = assemble_covariates(panel, None, 5, day_of_week=True)
        assert dow_only.kinds == ("dow",)
        assert assemble_covariates(panel, None, 5) is None

    def test_assemble_horizon_mismatch(self):
        """LMA config horizon must equal the requested horizon."""
        rng = np.random.default_rng(13)
        panel = small_panel(rng)
        with pytest.raises(LmaError, match="horizon"):
            assemble_covariates(panel, LmaConfig(window_len=10, horizon=5), 7)

    def test_export_quotes_ids(self, tmp_path):
        """Ids that need quoting are quoted: every row reads back through csv
        as 4 fields, and the values are the assembled channels bit for bit."""
        rng = np.random.default_rng(15)
        values = rng.uniform(0.0, 100.0, size=(2, 15))
        panel = SeriesPanel(("a,b", 'c"d'), dt.date(2021, 1, 1), values)
        cov = assemble_covariates(panel, LmaConfig(window_len=5, horizon=2), 2, day_of_week=True)
        path = str(tmp_path / "cov.csv")
        export_covariates(cov, path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["series_id", "channel", "t", "value"]
        assert all(len(row) == 4 for row in rows)
        keys = [(sid, kind, str(t)) for sid in ("a,b", 'c"d') for kind in cov.kinds for t in range(1, 18)]
        assert [tuple(row[:3]) for row in rows] == keys
        read = np.array([float(row[3]) for row in rows]).reshape(cov.channels.shape)
        assert read.tobytes() == cov.channels.tobytes()

    def test_export_round_trip(self, tmp_path):
        """The inspection CSV carries every channel value round-trip exact."""
        rng = np.random.default_rng(14)
        panel = small_panel(rng, n_series=2, n_steps=15)
        cov = assemble_covariates(panel, LmaConfig(window_len=5, horizon=2), 2)
        path = str(tmp_path / "cov.csv")
        export_covariates(cov, path)
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        assert header == "series_id,channel,t,value"
        assert len(rows) == 2 * 2 * 17
        sid, kind, t, value = rows[0].split(",")
        assert (sid, kind, t) == ("c0", "mean", "1")
        assert float(value) == cov.channels[0, 0, 0]
