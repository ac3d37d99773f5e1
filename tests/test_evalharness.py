"""Tests for the evaluation harness: metrics, the sweep, and the report writers."""

import datetime as dt
import json
import hashlib
import math
import os

import numpy as np
import pytest

from cellcast import (
    EvalError,
    EvalReport,
    HoltWintersForecaster,
    LmaConfig,
    SeasonalNaiveForecaster,
    SeriesPanel,
    SplitSpec,
    TrainConfig,
    TrainedModel,
    TrainedModelForecaster,
    assemble_covariates,
    init_params,
    rmsle_per_series,
    rmsle_pooled,
    sample_forecast,
    score_steps,
    split_panel,
    stability_std,
    substream,
    sweep,
    train,
    write_report_csvs,
    write_svg_plots,
)
from cellcast import _fork, evalharness
from cellcast.deepar import forecasting
from cellcast.deepar.forecasting import group_size
from cellcast.evalharness import write_provenance


def oracle_rmsle_rows(actual, predicted):
    """Plain-Python transcription: per-row root mean squared log1p error."""
    rows = []
    for a_row, p_row in zip(actual, predicted):
        total = 0.0
        for a, p in zip(a_row, p_row):
            d = math.log1p(p) - math.log1p(a)
            total += d * d
        rows.append(math.sqrt(total / len(a_row)))
    return rows


def oracle_rmsle_pooled(actual, predicted):
    total = 0.0
    for a_row, p_row in zip(actual, predicted):
        row = 0.0
        for a, p in zip(a_row, p_row):
            d = math.log1p(p) - math.log1p(a)
            row += d * d
        total += row / len(a_row)
    return math.sqrt(total / len(actual))


class TestMetrics:
    def test_pinned_values(self):
        """Hand-computable cases fix the log1p convention and the pooling."""
        assert rmsle_pooled(np.array([[0.0]]), np.array([[math.e - 1.0]])) == 1.0
        np.testing.assert_allclose(
            rmsle_pooled(np.array([[0.0, 0.0]]), np.array([[math.e - 1.0, math.e**2 - 1.0]])),
            math.sqrt(2.5),
            rtol=1e-12,
        )
        assert rmsle_pooled(np.array([[3.0, 4.0]]), np.array([[3.0, 4.0]])) == 0.0
        assert stability_std(np.array([1.0, 3.0])) == 1.0
        assert stability_std(np.array([2.0])) == 0.0

    def test_matches_python_oracle(self):
        """Both metrics agree with the loop-and-math transcription to 1e-12."""
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            h = int(rng.integers(1, 15))
            a = rng.uniform(0.0, 5000.0, (n, h))
            p = rng.uniform(0.0, 5000.0, (n, h))
            np.testing.assert_allclose(
                rmsle_pooled(a, p), oracle_rmsle_pooled(a, p), rtol=1e-12
            )
            np.testing.assert_allclose(
                rmsle_per_series(a, p), oracle_rmsle_rows(a, p), rtol=1e-12
            )

    def test_symmetry_is_bit_exact(self):
        """Swapping actual and predicted leaves both metrics bit-identical."""
        rng = np.random.default_rng(8)
        a = rng.uniform(0.0, 100.0, (6, 9))
        p = rng.uniform(0.0, 100.0, (6, 9))
        assert rmsle_pooled(a, p) == rmsle_pooled(p, a)
        np.testing.assert_array_equal(rmsle_per_series(a, p), rmsle_per_series(p, a))

    def test_pooling_identity(self):
        """pooled^2 equals the mean of squared per-series values."""
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            h = int(rng.integers(1, 12))
            a = rng.uniform(0.0, 900.0, (n, h))
            p = rng.uniform(0.0, 900.0, (n, h))
            rows = rmsle_per_series(a, p)
            np.testing.assert_allclose(
                rmsle_pooled(a, p) ** 2, np.mean(rows**2), rtol=1e-12
            )

    def test_validation(self):
        good = np.ones((2, 3))
        with pytest.raises(EvalError):
            rmsle_pooled(good, np.ones((2, 4)))
        with pytest.raises(EvalError):
            rmsle_pooled(np.ones(3), np.ones(3))
        with pytest.raises(EvalError):
            rmsle_pooled(good, -good)
        with pytest.raises(EvalError):
            rmsle_pooled(good * np.nan, good)
        with pytest.raises(EvalError):
            stability_std(np.array([]))
        with pytest.raises(EvalError):
            stability_std(np.array([1.0, np.inf]))

    def test_score_steps_equals_the_per_step_functions(self):
        """score_steps' bytes are those of the public metrics on each step's
        first s days, predictions clamped at 0, also when the prediction is
        narrower than actual or the steps skip days."""
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            h = int(rng.integers(1, 20))
            steps = tuple(int(s) for s in np.flatnonzero(rng.random(h) < 0.6) + 1) or (h,)
            a = rng.uniform(0.0, 900.0, (n, h + int(rng.integers(0, 3))))
            p = rng.uniform(-50.0, 900.0, (n, steps[-1] + int(rng.integers(0, 2))))
            pooled, stability = score_steps(a, p, steps)
            clamped = np.maximum(p, 0.0)
            rows = [rmsle_per_series(a[:, :s], clamped[:, :s]) for s in steps]
            want = [rmsle_pooled(a[:, :s], clamped[:, :s]) for s in steps]
            assert pooled.tobytes() == np.array(want).tobytes()
            assert stability.tobytes() == np.array([stability_std(r) for r in rows]).tobytes()

    def test_score_steps_validation(self):
        good = np.ones((2, 5))
        nan_pred = good.copy()
        nan_pred[1, 0] = np.nan
        with pytest.raises(EvalError, match="non-finite values in predicted"):
            score_steps(good, nan_pred, (1, 3))
        with pytest.raises(EvalError, match="shape mismatch"):
            score_steps(good, np.ones((2, 2)), (1, 3))


def weekly_panel(n_series=6, n_steps=40, seed=201):
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps)
    rows = []
    for _ in range(n_series):
        level = rng.uniform(100.0, 400.0)
        amp = rng.uniform(20.0, 60.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        x = level + amp * np.sin(2.0 * math.pi * t / 7.0 + phase)
        x += rng.normal(0.0, 2.0, n_steps)
        rows.append(np.maximum(x, 0.0))
    ids = tuple(f"s{i:02d}" for i in range(n_series))
    return SeriesPanel(ids, dt.date(2021, 1, 1), np.stack(rows))


class OracleForecaster:
    """Returns the true future values; the sweep should score it at exactly zero."""

    def __init__(self, test_values):
        self.test_values = test_values

    def forecast_panel(self, train_panel, horizon, seed_ids=(0,)):
        return self.test_values[:, :horizon]

    def describe(self):
        return {"kind": "oracle"}


class BrokenForecaster:
    def forecast_panel(self, train_panel, horizon, seed_ids=(0,)):
        raise RuntimeError("boom")

    def describe(self):
        return {"kind": "broken"}


class ShapeLiar:
    def forecast_panel(self, train_panel, horizon, seed_ids=(0,)):
        return np.ones((1, horizon))

    def describe(self):
        return {"kind": "liar"}


class TestSweep:
    def setup_method(self):
        self.panel = weekly_panel()
        self.split = SplitSpec(pred_start=36, pred_end=40)
        self.train_panel, self.test_panel = split_panel(self.panel, self.split)

    def test_oracle_model_scores_zero(self):
        """A forecaster that emits the true values gets zero pooled RMSLE and stability."""
        report = sweep(
            {"oracle": OracleForecaster(self.test_panel.values)},
            self.panel,
            self.split,
            steps=(1, 3, 5),
        )
        np.testing.assert_array_equal(report.pooled, np.zeros((1, 3)))
        np.testing.assert_array_equal(report.stability, np.zeros((1, 3)))
        assert report.models == ("oracle",)
        assert report.failures == {}

    def test_report_is_per_step_truncation_of_one_forecast(self):
        """Each step scores the first s columns of the max-step forecast, so adding
        later steps never changes earlier columns."""
        naive = {"naive": SeasonalNaiveForecaster(season=7)}
        short = sweep(naive, self.panel, self.split, steps=(2, 4))
        full = sweep(naive, self.panel, self.split, steps=(2, 4, 5))
        np.testing.assert_array_equal(short.pooled, full.pooled[:, :2])
        np.testing.assert_array_equal(short.stability, full.stability[:, :2])

    def test_pooled_column_matches_direct_metric(self):
        """The pooled matrix reproduces rmsle_pooled on the truncated forecasts."""
        naive = SeasonalNaiveForecaster(season=7)
        report = sweep({"naive": naive}, self.panel, self.split, steps=(3, 5))
        pred = naive.forecast_panel(self.train_panel, 5)
        pred = np.maximum(pred, 0.0)
        actual = self.test_panel.values
        for k, s in enumerate((3, 5)):
            np.testing.assert_allclose(
                report.pooled[0, k], rmsle_pooled(actual[:, :s], pred[:, :s]), rtol=1e-15
            )
            np.testing.assert_allclose(
                report.stability[0, k], stability_std(rmsle_per_series(actual[:, :s], pred[:, :s])), rtol=1e-15
            )

    def test_failures_are_isolated(self):
        """A raising model lands in failures; the others are still scored."""
        report = sweep(
            {
                "naive": SeasonalNaiveForecaster(season=7),
                "broken": BrokenForecaster(),
                "liar": ShapeLiar(),
            },
            self.panel,
            self.split,
            steps=(2, 5),
        )
        assert report.models == ("naive",)
        assert report.failures["broken"] == "RuntimeError: boom"
        assert report.failures["liar"].startswith("EvalError:")
        assert report.provenance["failures"] == report.failures
        assert set(report.provenance["models"]) == {"naive", "broken", "liar"}

    def test_all_models_failing_gives_empty_report(self):
        report = sweep({"broken": BrokenForecaster()}, self.panel, self.split, steps=(2,))
        assert report.models == ()
        assert report.pooled.shape == (0, 1)
        assert list(report.failures) == ["broken"]

    def test_negative_predictions_are_clamped(self):
        """Holt-Winters may go below zero; the sweep clamps before scoring."""

        class NegativeForecaster:
            def forecast_panel(self, train_panel, horizon, seed_ids=(0,)):
                return np.full((train_panel.n_series, horizon), -5.0)

            def describe(self):
                return {"kind": "negative"}

        report = sweep({"neg": NegativeForecaster()}, self.panel, self.split, steps=(2,))
        assert report.models == ("neg",)
        zero_pred = np.zeros((6, 2))
        np.testing.assert_allclose(
            report.pooled[0, 0], rmsle_pooled(self.test_panel.values[:, :2], zero_pred), rtol=1e-15
        )

    def test_sweep_validation(self):
        models = {"naive": SeasonalNaiveForecaster(season=7)}
        with pytest.raises(EvalError):
            sweep(models, self.panel, self.split, steps=())
        with pytest.raises(EvalError):
            sweep(models, self.panel, self.split, steps=(3, 3))
        with pytest.raises(EvalError):
            sweep(models, self.panel, self.split, steps=(0, 2))
        with pytest.raises(EvalError):
            sweep(models, self.panel, self.split, steps=(2, 9))  # beyond the test range
        with pytest.raises(EvalError):
            sweep({}, self.panel, self.split, steps=(2,))

    def test_accessors(self):
        report = sweep(
            {"naive": SeasonalNaiveForecaster(season=7), "hw": HoltWintersForecaster()},
            self.panel,
            self.split,
            steps=(2, 4),
        )
        assert set(report.models) == {"naive", "hw"}
        for name in report.models:
            np.testing.assert_array_equal(
                report.model_pooled(name), report.pooled[report.models.index(name)]
            )
        np.testing.assert_allclose(report.pooled_mean, report.pooled.mean(axis=1))


class TestTrainedModelForecaster:
    def make_model(self, with_lma=True, seed=31):
        panel = weekly_panel()
        train_panel, _ = split_panel(panel, SplitSpec(36, 40))
        cfg = TrainConfig(
            context_length=7,
            horizon=5,
            epochs=1,
            batch_size=8,
            hidden_size=6,
            num_layers=1,
            seed=seed,
            windows_per_series=4,
        )
        lma_cfg = LmaConfig(window_len=7, horizon=5) if with_lma else None
        cov = assemble_covariates(train_panel, lma_cfg, 5) if with_lma else None
        model = train(train_panel, cov, cfg, lma_config=lma_cfg)
        return model, train_panel

    def test_forecasts_whole_panel_deterministically(self):
        model, train_panel = self.make_model()
        fc = TrainedModelForecaster(model, n_samples=10)
        a = fc.forecast_panel(train_panel, 5, (3,))
        b = fc.forecast_panel(train_panel, 5, (3,))
        assert a.shape == (6, 5)
        np.testing.assert_array_equal(a, b)
        c = fc.forecast_panel(train_panel, 5, (4,))
        assert not np.array_equal(a, c)

    def test_statistic_mean_differs_from_median(self):
        model, train_panel = self.make_model()
        med = TrainedModelForecaster(model, n_samples=9, statistic="median")
        avg = TrainedModelForecaster(model, n_samples=9, statistic="mean")
        assert not np.array_equal(
            med.forecast_panel(train_panel, 5, (2,)), avg.forecast_panel(train_panel, 5, (2,))
        )

    def test_horizon_cap(self):
        model, train_panel = self.make_model()
        fc = TrainedModelForecaster(model, n_samples=4)
        with pytest.raises(EvalError, match="horizon"):
            fc.forecast_panel(train_panel, 6, (0,))

    def test_channel_mismatch_is_reported(self):
        """A model whose channels cannot be rebuilt from its configs is rejected."""
        from cellcast import TrainedModel
        from cellcast.deepar import init_params
        from cellcast import substream

        model, train_panel = self.make_model(with_lma=False)
        # hand-build a model that expects one channel but carries no channel config
        params = init_params(2, 6, 1, substream(0))
        bad = TrainedModel(params, model.train_config, None, ())
        fc = TrainedModelForecaster(bad, n_samples=4)
        with pytest.raises(EvalError, match="channels"):
            fc.forecast_panel(train_panel, 5, (0,))

    def wide_model(self):
        """An untrained network of the default width and depth, so each row's
        products round as they do in a real forecast, on a panel wider than
        the largest group: every sample count below puts a group boundary
        inside it."""
        cfg = TrainConfig(context_length=7, horizon=5, epochs=0, hidden_size=40, num_layers=2)
        lma_cfg = LmaConfig(window_len=7, horizon=5)
        model = TrainedModel(init_params(3, 40, 2, substream(5)), cfg, lma_cfg, ())
        train_panel, _ = split_panel(weekly_panel(n_series=group_size(1) + 2), SplitSpec(36, 40))
        return model, train_panel

    @pytest.mark.parametrize("n_samples", [1, 2, 8, 9, 100])
    def test_grouped_forecasts_equal_per_series_sampling(self, n_samples):
        """Sampling the series in groups gives each series the bytes it gets
        sampled alone from stream (*seed, i)."""
        model, train_panel = self.wide_model()
        assert group_size(n_samples) < train_panel.n_series
        forecasts = list(TrainedModelForecaster(model, n_samples).forecasts(train_panel, 5, (3,)))
        cov = assemble_covariates(train_panel, model.lma_config, 5)
        assert len(forecasts) == train_panel.n_series
        for i, fc in enumerate(forecasts):
            alone = sample_forecast(
                model, train_panel.values[i], cov.channels[i], horizon=5, n_samples=n_samples, seed=(3, i)
            )
            assert fc.samples.tobytes() == alone.samples.tobytes(), i
            assert (fc.scale, fc.seed) == (alone.scale, (3, i))

    def test_series_prefix_reproduces_its_rows(self):
        """Forecasting the first two series alone reproduces the panel's first two rows."""
        model, train_panel = self.wide_model()
        prefix = SeriesPanel(train_panel.series_ids[:2], train_panel.start_date, train_panel.values[:2])
        for n_samples in (2, 100):
            fc = TrainedModelForecaster(model, n_samples)
            full = fc.forecast_panel(train_panel, 5, (3,))
            assert fc.forecast_panel(prefix, 5, (3,)).tobytes() == full[:2].tobytes()

    def test_more_samples_extend_each_series_matrix(self):
        """On the panel path too, the 8-sample matrix of every series is a
        prefix of its 100- and 640-sample matrices (six series: a group
        boundary at 100 samples)."""
        model, wide = self.wide_model()
        train_panel = SeriesPanel(wide.series_ids[:6], wide.start_date, wide.values[:6])
        small = list(TrainedModelForecaster(model, 8).forecasts(train_panel, 5, (3,)))
        for n_samples in (100, 640):
            big = TrainedModelForecaster(model, n_samples).forecasts(train_panel, 5, (3,))
            for i, (a, b) in enumerate(zip(small, big, strict=True)):
                assert b.samples[:8].tobytes() == a.samples.tobytes(), (n_samples, i)

    def count_calls(self, monkeypatch):
        """Count this process's sample_forecast and encoder calls."""
        calls = {"sample_forecast": 0, "forward_window": 0}

        def counting(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)

        counting(evalharness, "sample_forecast")
        counting(forecasting, "forward_window")
        return calls

    def test_one_sampler_call_per_group(self, monkeypatch):
        """50 series at 2 samples are sampled in two groups: one sample_forecast
        call and one encoder pass per group, not one per series.  The count
        runs in one process, so the fork is pinned off."""
        monkeypatch.setattr(_fork, "can_fork", lambda: False)
        calls = self.count_calls(monkeypatch)
        model, _ = self.wide_model()
        train_panel, _ = split_panel(weekly_panel(n_series=50), SplitSpec(36, 40))
        point = TrainedModelForecaster(model, 2).forecast_panel(train_panel, 5, (3,))
        assert point.shape == (50, 5)
        groups = -(-50 // group_size(2))
        assert groups == 2
        assert calls == {"sample_forecast": groups, "forward_window": groups}

    def test_forked_parent_samples_its_half_in_one_call(self, monkeypatch):
        """With the fork, this process samples the first 25 of the 50 series,
        one group, in one call; the child's calls are not counted here."""
        monkeypatch.setattr(_fork, "can_fork", lambda: True)
        calls = self.count_calls(monkeypatch)
        model, _ = self.wide_model()
        train_panel, _ = split_panel(weekly_panel(n_series=50), SplitSpec(36, 40))
        point = TrainedModelForecaster(model, 2).forecast_panel(train_panel, 5, (3,))
        assert point.shape == (50, 5)
        assert calls == {"sample_forecast": 1, "forward_window": 1}

    def test_describe_carries_configs(self):
        model, _ = self.make_model()
        desc = TrainedModelForecaster(model, n_samples=7).describe()
        assert desc["kind"] == "deepar"
        assert desc["n_samples"] == 7
        assert desc["train_config"]["hidden_size"] == 6
        assert desc["lma_config"]["window_len"] == 7
        assert desc["lma_config"]["features"] == ["mean", "std"]
        naive_desc = SeasonalNaiveForecaster(season=7).describe()
        assert naive_desc == {"kind": "seasonal_naive", "season": 7}


class TestForkedForecasts:
    """With a second CPU, a forked child samples the second half of each
    round of series; nothing the forecasts hold may depend on that."""

    wide_model = TestTrainedModelForecaster.wide_model

    @pytest.fixture
    def forks(self, monkeypatch):
        """Spy on the fork helper; returns the handles it made."""
        handles = []
        real = _fork.fork_call

        def spy(fn, *args):
            handles.append(real(fn, *args))
            return handles[-1]

        monkeypatch.setattr(_fork, "fork_call", spy)
        return handles

    def forecasts(self, monkeypatch, fork, model, panel, n_samples):
        monkeypatch.setattr(_fork, "can_fork", lambda: fork)
        fc = TrainedModelForecaster(model, n_samples).forecasts(panel, 5, (3,))
        return [(f.samples.tobytes(), f.scale, f.seed) for f in fc]

    def panels(self):
        model, wide = self.wide_model()
        odd = SeriesPanel(wide.series_ids[:7], wide.start_date, wide.values[:7])
        return model, (wide, odd)

    @pytest.mark.parametrize("n_samples", [1, 2, 8, 9, 100])
    def test_forked_bytes_equal_in_process(self, monkeypatch, forks, n_samples):
        model, panels = self.panels()
        for panel in panels:
            alone = self.forecasts(monkeypatch, False, model, panel, n_samples)
            assert forks == []
            assert self.forecasts(monkeypatch, True, model, panel, n_samples) == alone
            assert len(forks) == 1
            forks.clear()

    @pytest.mark.parametrize("round_groups, forks_made", [(1, 3), (2, 2)])
    def test_several_rounds_give_the_same_bytes(self, monkeypatch, forks, round_groups, forks_made):
        """Seven series at 100 samples (two per group) in rounds of two series
        (2+2+2+1) or four (4+3): one fork per round of two or more series."""
        model, (_, odd) = self.panels()
        alone = self.forecasts(monkeypatch, False, model, odd, 100)
        monkeypatch.setattr(evalharness, "ROUND_GROUPS", round_groups)
        assert self.forecasts(monkeypatch, True, model, odd, 100) == alone
        assert len(forks) == forks_made

    @pytest.mark.parametrize("first_bad", [2, 5, 6])
    def test_child_error_is_the_in_process_error(self, monkeypatch, forks, first_bad):
        """A sampler error from series first_bad on, in this process's half
        (2) or only in the child's (5, 6), is the same exception, and the same
        sweep failure entry, with the fork as without it."""
        model, (_, odd) = self.panels()
        real = evalharness.sample_forecast

        def failing(*args, seed, **kwargs):
            if any(s[-1] >= first_bad for s in seed):
                raise forecasting.ForecastError(f"series {first_bad} and on cannot be sampled")
            return real(*args, seed=seed, **kwargs)

        monkeypatch.setattr(evalharness, "sample_forecast", failing)
        panel, split = weekly_panel(n_series=odd.n_series), SplitSpec(36, 40)
        outcomes = []
        for fork in (False, True):
            monkeypatch.setattr(_fork, "can_fork", lambda: fork)
            with pytest.raises(forecasting.ForecastError) as caught:
                list(TrainedModelForecaster(model, 100).forecasts(odd, 5, (3,)))
            report = sweep({"deepar": TrainedModelForecaster(model, 100)}, panel, split, (1, 5), seed=3)
            outcomes.append((type(caught.value), str(caught.value), report.failures))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == {"deepar": f"ForecastError: series {first_bad} and on cannot be sampled"}
        assert len(forks) == 2

    def test_closed_iterator_leaves_no_child(self, monkeypatch, forks):
        model, (wide, _) = self.panels()
        monkeypatch.setattr(_fork, "can_fork", lambda: True)
        fc = TrainedModelForecaster(model, 100).forecasts(wide, 5, (3,))
        next(fc)
        fc.close()
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestWriters:
    def make_report(self):
        panel = weekly_panel()
        split = SplitSpec(36, 40)
        return sweep(
            {"naive": SeasonalNaiveForecaster(season=7), "hw": HoltWintersForecaster()},
            panel,
            split,
            steps=(2, 3, 5),
            seed=4,
        )

    def test_csv_layout_and_values(self, tmp_path):
        """Tables are step-by-model with a trailing mean row, values round-trip exact."""
        report = self.make_report()
        pooled_path = str(tmp_path / "pooled.csv")
        stab_path = str(tmp_path / "stability.csv")
        write_report_csvs(report, pooled_path, stab_path)
        for path, matrix, means in (
            (pooled_path, report.pooled, report.pooled_mean),
            (stab_path, report.stability, report.stability.mean(axis=1)),
        ):
            with open(path) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == "step," + ",".join(report.models)
            assert len(lines) == 1 + len(report.steps) + 1
            for k, line in enumerate(lines[1:-1]):
                cells = line.split(",")
                assert cells[0] == str(report.steps[k])
                for j, cell in enumerate(cells[1:]):
                    assert float(cell) == matrix[j, k]
            mean_cells = lines[-1].split(",")
            assert mean_cells[0] == "mean"
            for j, cell in enumerate(mean_cells[1:]):
                assert float(cell) == means[j]

    def test_writers_are_deterministic(self, tmp_path):
        """Writing the same report twice produces identical bytes for all artifacts."""
        report = self.make_report()
        names = ["p1.csv", "s1.csv", "p2.csv", "s2.csv"]
        write_report_csvs(report, str(tmp_path / names[0]), str(tmp_path / names[1]))
        write_report_csvs(report, str(tmp_path / names[2]), str(tmp_path / names[3]))
        assert (tmp_path / names[0]).read_bytes() == (tmp_path / names[2]).read_bytes()
        assert (tmp_path / names[1]).read_bytes() == (tmp_path / names[3]).read_bytes()
        write_provenance(report, str(tmp_path / "prov1.json"), extra={"command": "x"})
        write_provenance(report, str(tmp_path / "prov2.json"), extra={"command": "x"})
        assert (tmp_path / "prov1.json").read_bytes() == (tmp_path / "prov2.json").read_bytes()
        write_svg_plots(report, str(tmp_path / "c1.svg"), str(tmp_path / "c2.svg"))
        write_svg_plots(report, str(tmp_path / "c3.svg"), str(tmp_path / "c4.svg"))
        assert (tmp_path / "c1.svg").read_bytes() == (tmp_path / "c3.svg").read_bytes()

    def test_provenance_hash_is_self_consistent(self, tmp_path):
        """config_sha256 is the hash of the payload without the hash field."""
        report = self.make_report()
        path = str(tmp_path / "prov.json")
        write_provenance(report, path, extra={"command": "sweep"})
        payload = json.load(open(path))
        digest = payload.pop("config_sha256")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert digest == hashlib.sha256(canonical.encode()).hexdigest()
        assert payload["command"] == "sweep"
        assert payload["provenance"]["seed"] == 4
        assert payload["provenance"]["split"] == {"pred_start": 36, "pred_end": 40}

    def test_svg_contains_a_curve_per_model(self, tmp_path):
        report = self.make_report()
        pooled_path = str(tmp_path / "pooled.svg")
        write_svg_plots(report, pooled_path, str(tmp_path / "stab.svg"))
        svg = open(pooled_path).read()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline") == len(report.models)
        for name in report.models:
            assert name in svg


class TestEvalReportValidation:
    def test_shape_checks(self):
        with pytest.raises(EvalError):
            EvalReport(
                steps=(1, 2),
                models=("m",),
                pooled=np.zeros((1, 3)),
                stability=np.zeros((1, 2)),
                failures={},
                provenance={},
            )
        with pytest.raises(EvalError):
            EvalReport(
                steps=(1,),
                models=("m",),
                pooled=np.array([[np.nan]]),
                stability=np.zeros((1, 1)),
                failures={},
                provenance={},
            )
