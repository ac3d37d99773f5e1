"""Acceptance gate for the whole package.

Each test checks one release criterion end to end and prints a single
``[acceptance] ... PASS/FAIL`` line with the measured numbers, bypassing
output capture so the verdicts are visible in any pytest run.  The heavy
panels and sweeps are built once in module fixtures and shared between the
criteria that score them.  Everything here is deterministic: fixed seeds,
fixed configs, and the library's own substream derivation.
"""

import math
import os
import time

import numpy as np
import pytest

from cellcast import (
    LmaConfig,
    SeasonalNaiveForecaster,
    SplitSpec,
    SynthConfig,
    TrainConfig,
    TrainedModel,
    TrainedModelForecaster,
    assemble_covariates,
    batch_loss_and_grad,
    generate_panel,
    init_params,
    lma_features,
    load_model,
    rmsle_per_series,
    rmsle_pooled,
    sample_forecast,
    save_model,
    split_panel,
    substream,
    sweep,
    train,
    write_provenance,
    write_report_csvs,
)
from cellcast._fork import fork_call


def announce(capsys, num, label, ok, detail):
    """Print one verdict line per criterion on the real terminal, then assert."""
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] {num:02d} {label}: {verdict} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# --- independent oracles -------------------------------------------------


def fd_gradient(template, vec, z_windows, x_windows, scales, eps=1e-5):
    """Central finite differences of the batch loss over the parameter vector."""
    grad = np.empty(vec.size)
    for j in range(vec.size):
        up = vec.copy()
        up[j] += eps
        down = vec.copy()
        down[j] -= eps
        loss_up, _ = batch_loss_and_grad(z_windows, x_windows, scales, template.from_vector(up))
        loss_down, _ = batch_loss_and_grad(z_windows, x_windows, scales, template.from_vector(down))
        grad[j] = (loss_up - loss_down) / (2.0 * eps)
    return grad


def smoothing_bounds(i, n, window_len, horizon):
    """Re-derived window placement, 1-based inclusive (start, end)."""
    if i < horizon:
        return 1, window_len
    if i >= n:
        return n - horizon + 1, n
    if n - i - 1 < horizon:
        return n - window_len + 1, n
    start = min(max(i - horizon + 1, 1), n - window_len + 1)
    return start, start + window_len - 1


def bruteforce_channels(z, window_len, horizon, kinds):
    """Feature channels computed straight from the placement rules."""
    n = z.size
    out = np.empty((len(kinds), n + horizon))
    for i in range(1, n + horizon + 1):
        lo, hi = smoothing_bounds(i, n, window_len, horizon)
        window = z[lo - 1 : hi]
        for k, kind in enumerate(kinds):
            out[k, i - 1] = np.mean(window) if kind == "mean" else np.std(window)
    return out


def transcribed_pooled(actual, predicted):
    """Grand-mean pooled RMSLE in plain Python, sharing no code with the package."""
    total = 0.0
    count = 0
    for actual_row, predicted_row in zip(actual, predicted):
        for a, p in zip(actual_row, predicted_row):
            d = math.log1p(p) - math.log1p(a)
            total += d * d
            count += 1
    return math.sqrt(total / count)


# --- shared heavy fixtures -----------------------------------------------


@pytest.fixture(scope="module")
def learning_run():
    """Train the covariate-free model on a clean weekly panel and forecast it.

    20 series, period 7, amplitude 80 with noise sigma 1.6 (2 percent of the
    amplitude), fixed seed.  Defaults everywhere else.  Shared by the
    learning-sanity and coverage criteria.
    """
    t0 = time.monotonic()
    cfg = SynthConfig(
        n_series=20,
        n_total=124,
        base_level=500.0,
        trend_slope_range=(0.0, 0.0),
        period=7,
        amplitude_range=(80.0, 80.0),
        burst_rate=0.0,
        noise_sigma=1.6,
        seed=42,
    )
    panel = generate_panel(cfg)
    split = SplitSpec(110, 124)
    train_panel, test_panel = split_panel(panel, split)
    model = train(train_panel, None, TrainConfig())

    horizon = test_panel.n_steps
    seeds = [(1, i) for i in range(panel.n_series)]
    fc = sample_forecast(model, train_panel.values, None, horizon=horizon, n_samples=100, seeds=seeds)
    preds = np.median(fc.samples, axis=1)
    lo = np.quantile(fc.samples, 0.1, axis=1)
    hi = np.quantile(fc.samples, 0.9, axis=1)

    actual = test_panel.values
    const = np.repeat(train_panel.values.mean(axis=1, keepdims=True), horizon, axis=1)
    return {
        "nll": model.epoch_nll,
        "model_rmsle": rmsle_pooled(actual, np.maximum(preds, 0.0)),
        "const_rmsle": rmsle_pooled(actual, const),
        "coverage": float(((actual >= lo) & (actual <= hi)).mean()),
        "elapsed": time.monotonic() - t0,
    }


def directional_sweep(out_dir):
    """The pinned bursty-panel comparison: identical training configs, covariate
    channels on versus off, one shared sweep, artifacts written to out_dir."""
    panel = generate_panel(SynthConfig())
    split = SplitSpec(182, 212)
    train_panel, _ = split_panel(panel, split)
    cfg = TrainConfig()
    lma_cfg = LmaConfig()
    cov = assemble_covariates(train_panel, lma_cfg, cfg.horizon)
    # the two trainings are independent: run the first in a forked child
    with fork_call(train, train_panel, cov, cfg, lma_cfg) as lma_run:
        plain_model = train(train_panel, None, cfg)
        lma_model = lma_run.result()
    models = {
        "lma_deepar": TrainedModelForecaster(lma_model, 100, "median"),
        "deepar": TrainedModelForecaster(plain_model, 100, "median"),
    }
    report = sweep(models, panel, split, tuple(range(15, 32)), seed=1)
    paths = {
        "pooled": os.path.join(out_dir, "report_pooled.csv"),
        "stability": os.path.join(out_dir, "report_stability.csv"),
        "provenance": os.path.join(out_dir, "provenance.json"),
    }
    write_report_csvs(report, paths["pooled"], paths["stability"])
    write_provenance(report, paths["provenance"])
    return report, paths


@pytest.fixture(scope="module")
def directional_run(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("sweep_first"))
    t0 = time.monotonic()
    report, paths = directional_sweep(out_dir)
    return {"report": report, "paths": paths, "elapsed": time.monotonic() - t0}


# --- the ten criteria ----------------------------------------------------


class TestAcceptance:
    def test_criterion_01_gradients_match_finite_differences(self, capsys):
        """Analytic gradients track central differences on 20 random configs."""
        t0 = time.monotonic()
        rng = np.random.default_rng(314)
        worst = 0.0
        for case in range(20):
            hidden = int(rng.integers(1, 9))
            layers = int(rng.integers(1, 3))
            steps = int(rng.integers(2, 13))
            batch = int(rng.integers(1, 4))
            params = init_params(3, hidden, layers, substream(600, case))
            z_windows = rng.uniform(0.5, 50.0, (batch, steps + 1))
            x_windows = rng.normal(0.0, 1.0, (batch, steps, 2))
            scales = rng.uniform(0.5, 20.0, batch)
            _, grad = batch_loss_and_grad(z_windows, x_windows, scales, params)
            analytic = grad.to_vector()
            numeric = fd_gradient(params, params.to_vector(), z_windows, x_windows, scales)
            rel = np.abs(analytic - numeric) / np.maximum(
                1.0, np.maximum(np.abs(analytic), np.abs(numeric))
            )
            worst = max(worst, float(rel.max()))
        elapsed = time.monotonic() - t0
        ok = worst < 1e-4 and elapsed < 60.0
        announce(
            capsys, 1, "gradient check", ok, f"max rel err {worst:.3e}, {elapsed:.1f}s"
        )

    def test_criterion_02_smoothing_channels_match_bruteforce(self, capsys):
        """Feature channels are bit-equal to a literal re-derivation, worked example included."""
        t0 = time.monotonic()
        z = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        got = lma_features(z, LmaConfig(window_len=3, horizon=2, features=("mean",)))
        example_ok = np.array_equal(
            got[0], [20.0, 20.0, 30.0, 50.0, 50.0, 55.0, 55.0, 55.0]
        )
        rng = np.random.default_rng(271)
        mismatches = 0
        for _ in range(200):
            n = int(rng.integers(1, 201))
            window_len = int(rng.integers(1, n + 1))
            horizon = int(rng.integers(1, window_len + 1))
            series = rng.uniform(0.0, 1000.0, n)
            cfg = LmaConfig(window_len=window_len, horizon=horizon, features=("mean", "std"))
            if not np.array_equal(
                lma_features(series, cfg),
                bruteforce_channels(series, window_len, horizon, cfg.features),
            ):
                mismatches += 1
        elapsed = time.monotonic() - t0
        ok = example_ok and mismatches == 0 and elapsed < 10.0
        announce(
            capsys,
            2,
            "smoothing oracle",
            ok,
            f"worked example {'ok' if example_ok else 'WRONG'},"
            f" {mismatches}/200 mismatches, {elapsed:.1f}s",
        )

    def test_criterion_03_rmsle_matches_transcription(self, capsys):
        """Pooled RMSLE tracks a plain transcription; symmetry and pooling identities hold."""
        rng = np.random.default_rng(161)
        worst = 0.0
        symmetric = True
        pooling = True
        for case in range(1000):
            n = int(rng.integers(1, 7))
            h = int(rng.integers(1, 10))
            actual = rng.uniform(0.0, 800.0, (n, h))
            predicted = rng.uniform(0.0, 800.0, (n, h))
            if case % 10 == 0:
                actual[0] = 0.0
            got = rmsle_pooled(actual, predicted)
            want = transcribed_pooled(actual, predicted)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
            symmetric = symmetric and got == rmsle_pooled(predicted, actual)
            rows = rmsle_per_series(actual, predicted)
            pooling = pooling and np.isclose(got**2, np.mean(rows**2), rtol=1e-12, atol=0.0)
        ok = worst < 1e-12 and symmetric and pooling
        announce(
            capsys,
            3,
            "metric oracle",
            ok,
            f"max rel err {worst:.3e}, symmetry {symmetric}, pooling identity {pooling}",
        )

    def test_criterion_04_training_learns_sinusoid_panel(self, capsys, learning_run):
        """Default training lowers the loss and beats a constant-mean forecaster."""
        run = learning_run
        decreasing = run["nll"][-1] < run["nll"][0]
        beats = run["model_rmsle"] < run["const_rmsle"]
        ok = decreasing and beats and run["elapsed"] < 600.0
        announce(
            capsys,
            4,
            "learning sanity",
            ok,
            f"NLL {run['nll'][0]:.3f}->{run['nll'][-1]:.3f},"
            f" RMSLE {run['model_rmsle']:.4f} vs const {run['const_rmsle']:.4f},"
            f" {run['elapsed']:.0f}s",
        )

    def test_criterion_05_interval_coverage(self, capsys, learning_run):
        """The central 80 percent sample interval covers a sane share of outcomes."""
        coverage = learning_run["coverage"]
        ok = 0.60 <= coverage <= 0.95
        announce(capsys, 5, "coverage sanity", ok, f"coverage {coverage:.3f} in [0.60, 0.95]")

    def test_criterion_06_covariates_improve_bursty_panel(self, capsys, directional_run):
        """With identical training, covariate channels do not hurt mean pooled RMSLE."""
        report = directional_run["report"]
        names = list(report.models)
        lma_mean = float(report.pooled_mean[names.index("lma_deepar")])
        plain_mean = float(report.pooled_mean[names.index("deepar")])
        ok = (
            not report.failures
            and lma_mean <= plain_mean
            and directional_run["elapsed"] < 1800.0
        )
        announce(
            capsys,
            6,
            "covariate benefit",
            ok,
            f"mean pooled {lma_mean:.4f} (channels) vs {plain_mean:.4f} (none),"
            f" {directional_run['elapsed']:.0f}s",
        )

    def test_criterion_07_error_grows_with_step(self, capsys, directional_run):
        """Pooled RMSLE at the last step is at least the value at the first step."""
        report = directional_run["report"]
        ends = {
            name: (float(report.model_pooled(name)[0]), float(report.model_pooled(name)[-1]))
            for name in report.models
        }
        ok = all(last >= first for first, last in ends.values())
        detail = ", ".join(
            f"{name} {first:.4f}->{last:.4f}" for name, (first, last) in ends.items()
        )
        announce(capsys, 7, "horizon degradation", ok, detail)

    def test_criterion_08_rerun_is_byte_identical(self, capsys, directional_run, tmp_path):
        """Repeating the sweep from the same config reproduces every artifact byte."""
        report, paths = directional_sweep(str(tmp_path))
        same_matrices = np.array_equal(
            report.pooled, directional_run["report"].pooled
        ) and np.array_equal(report.stability, directional_run["report"].stability)
        same_bytes = {}
        for key, path in paths.items():
            with open(path, "rb") as fh:
                rerun = fh.read()
            with open(directional_run["paths"][key], "rb") as fh:
                first = fh.read()
            same_bytes[key] = rerun == first
        ok = same_matrices and all(same_bytes.values())
        announce(
            capsys,
            8,
            "determinism",
            ok,
            f"matrices equal {same_matrices}, artifact bytes "
            + ", ".join(f"{k}={v}" for k, v in same_bytes.items()),
        )

    def test_criterion_09_store_round_trip_preserves_forecasts(self, capsys, tmp_path):
        """Ten random saved models forecast bit-identically after reload."""
        rng = np.random.default_rng(909)
        mismatches = 0
        for case in range(10):
            hidden = int(rng.integers(2, 7))
            layers = int(rng.integers(1, 3))
            n_channels = int(rng.integers(0, 3))
            context = int(rng.integers(4, 9))
            horizon = int(rng.integers(1, 5))
            cfg = TrainConfig(
                context_length=context,
                horizon=horizon,
                epochs=0,
                hidden_size=hidden,
                num_layers=layers,
                seed=case,
            )
            params = init_params(1 + n_channels, hidden, layers, substream(800, case))
            model = TrainedModel(params, cfg, None, ())
            conditioning = rng.uniform(1.0, 100.0, context + int(rng.integers(0, 4)))
            covariates = (
                rng.normal(0.0, 1.0, (n_channels, conditioning.size + horizon))
                if n_channels
                else None
            )
            group = (conditioning[None], None if covariates is None else covariates[None])
            before = sample_forecast(model, *group, horizon=horizon, n_samples=4, seeds=[(7, case)])
            path = str(tmp_path / f"model_{case}.bin")
            save_model(model, path)
            after = sample_forecast(
                load_model(path), *group, horizon=horizon, n_samples=4, seeds=[(7, case)]
            )
            if not (
                np.array_equal(before.samples, after.samples)
                and np.array_equal(before.scales, after.scales)
            ):
                mismatches += 1
        ok = mismatches == 0
        announce(capsys, 9, "persistence", ok, f"{mismatches}/10 round trips diverged")

    def test_criterion_10_seasonal_naive_exact_on_periodic_panel(self, capsys):
        """On a noiseless weekly panel the naive baseline scores zero at every step."""
        cfg = SynthConfig(
            n_series=8,
            n_total=56,
            trend_slope_range=(0.0, 0.0),
            amplitude_range=(60.0, 60.0),
            burst_rate=0.0,
            noise_sigma=0.0,
            seed=11,
        )
        panel = generate_panel(cfg)
        split = SplitSpec(43, 56)
        report = sweep(
            {"seasonal_naive": SeasonalNaiveForecaster(7)},
            panel,
            split,
            tuple(range(1, 15)),
            seed=0,
        )
        all_zero = bool(np.all(report.pooled == 0.0) and np.all(report.stability == 0.0))
        ok = all_zero and not report.failures
        announce(
            capsys,
            10,
            "baseline anchor",
            ok,
            f"pooled max {float(report.pooled.max()):.1e}, failures {len(report.failures)}",
        )
