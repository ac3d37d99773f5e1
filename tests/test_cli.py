"""End-to-end tests of the command-line interface.

Each test drives run_command with --set overrides pointing all artifacts at a
temporary directory, then inspects files and exit codes.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import struct
import warnings

import numpy as np
import pytest

from cellcast import (
    BaselineError,
    LmaError,
    PanelError,
    SplitSpec,
    SynthConfigError,
    TrainConfig,
    TrainError,
    TrainedModelForecaster,
    load_model,
    load_panel,
    score_steps,
    split_panel,
)
from cellcast import _fork, cli
from cellcast.cli import run_command
from cellcast._fields import from_json, to_json
from cellcast.config import DEFAULT_CONFIG, SECTIONS, ConfigError


def base_overrides(tmp_path, **extra):
    """Small, fast pipeline settings; values are raw --set strings."""
    ov = {
        "synth.n_series": "4",
        "synth.n_total": "40",
        "synth.burst_rate": "0.0",
        "synth.noise_sigma": "4.0",
        "synth.seed": "7",
        "lma.window_len": "7",
        "lma.horizon": "5",
        "train.context_length": "7",
        "train.horizon": "5",
        "train.epochs": "1",
        "train.batch_size": "8",
        "train.hidden_size": "6",
        "train.num_layers": "1",
        "train.windows_per_series": "4",
        "split.pred_start": "36",
        "split.pred_end": "40",
        "sweep.steps": "[2,3,5]",
        "sweep.n_samples": "8",
        "paths.out_dir": str(tmp_path),
    }
    ov.update({k: str(v) for k, v in extra.items()})
    return ov


def run_cli(command, overrides, *flags):
    argv = [command, *flags]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    return run_command(argv)


class TestDefaults:
    def test_train_section_matches_train_config(self):
        """The CLI and the sweep train from DEFAULT_CONFIG, not from the dataclass."""
        assert DEFAULT_CONFIG["train"] == dataclasses.asdict(TrainConfig())

    def test_default_config_json_is_pinned(self):
        """Every provenance sidecar embeds the resolved config and its hash, so the
        JSON form of the defaults must not drift by accident."""
        canonical = json.dumps(DEFAULT_CONFIG, sort_keys=True, separators=(",", ":"))
        assert (
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            == "3c637e96d61d371043f53221d1e68203e0aa261909b1ad115966a65b489bc51e"
        )

    @pytest.mark.parametrize("name", sorted(SECTIONS))
    def test_sections_round_trip_through_json(self, name):
        cls = SECTIONS[name]
        assert DEFAULT_CONFIG[name] == to_json(cls())
        assert from_json(cls, json.loads(json.dumps(DEFAULT_CONFIG[name]))) == cls()

    @pytest.mark.parametrize("name", [*sorted(SECTIONS), "split"])
    def test_each_section_checks_itself_when_built(self, name):
        """Every section's dataclass rejects an out-of-range value at
        construction, so no caller has a separate check to remember."""
        kwargs, error = {
            "synth": ({"n_series": 0}, SynthConfigError),
            "lma": ({"window_len": 3, "horizon": 4}, LmaError),
            "train": ({"epochs": -1}, TrainError),
            "holt_winters": ({"alpha": 1.5}, BaselineError),
            "sweep": ({"n_samples": 0}, ConfigError),
            "split": ({"pred_start": 1, "pred_end": 5}, PanelError),
        }[name]
        cls = SplitSpec if name == "split" else SECTIONS[name]
        with pytest.raises(error):
            cls(**kwargs)
        assert not hasattr(cls, "validate")


class TestGenerate:
    def test_writes_panel_and_sidecar(self, tmp_path, capsys):
        ov = base_overrides(tmp_path)
        assert run_cli("generate", ov) == 0
        out = capsys.readouterr()
        assert "wrote" in out.out and "4 series x 40 steps" in out.out
        panel = load_panel(str(tmp_path / "panel.csv"))
        assert (panel.n_series, panel.n_steps) == (4, 40)
        sidecar = json.load(open(tmp_path / "panel.csv.provenance.json"))
        assert sidecar["command"] == "generate"
        assert sidecar["config"]["synth"]["n_series"] == 4
        assert "config_sha256" in sidecar

    def test_is_deterministic(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        a_dir.mkdir()
        b_dir.mkdir()
        assert run_cli("generate", base_overrides(a_dir)) == 0
        assert run_cli("generate", base_overrides(b_dir)) == 0
        assert (a_dir / "panel.csv").read_bytes() == (b_dir / "panel.csv").read_bytes()

    def test_set_override_applies(self, tmp_path):
        ov = base_overrides(tmp_path, **{"synth.n_series": "3"})
        assert run_cli("generate", ov) == 0
        assert load_panel(str(tmp_path / "panel.csv")).n_series == 3

    def test_config_file_is_honored(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"synth": {"n_series": 2, "n_total": 30}}))
        ov = base_overrides(tmp_path)
        del ov["synth.n_series"], ov["synth.n_total"]
        argv = ["generate", "--config", str(cfg_path)]
        for key, value in ov.items():
            argv += ["--set", f"{key}={value}"]
        assert run_command(argv) == 0
        panel = load_panel(str(tmp_path / "panel.csv"))
        assert (panel.n_series, panel.n_steps) == (2, 30)


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        """generate -> covariates -> train -> forecast -> evaluate -> sweep, all exit 0."""
        ov = base_overrides(tmp_path, **{"sweep.models": '["seasonal_naive","holt_winters"]'})
        for command in ("generate", "covariates", "train", "forecast", "evaluate", "sweep"):
            assert run_cli(command, ov) == 0, command
        capsys.readouterr()

        cov_lines = (tmp_path / "covariates.csv").read_text().splitlines()
        assert cov_lines[0] == "series_id,channel,t,value"
        assert len(cov_lines) == 1 + 4 * 2 * (35 + 5)

        model = load_model(str(tmp_path / "model.bin"))
        assert model.n_channels == 2
        assert len(model.epoch_nll) == 1

        point_lines = (tmp_path / "forecast_point.csv").read_text().splitlines()
        assert point_lines[0] == "series_id,step,value"
        assert len(point_lines) == 1 + 4 * 5
        sample_lines = (tmp_path / "forecast_samples.csv").read_text().splitlines()
        assert len(sample_lines) == 1 + 4 * 5 * 8

        metric_lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert metric_lines[0] == "step,pooled_rmsle,stability_std"
        assert len(metric_lines) == 1 + 5 + 1
        assert metric_lines[-1].startswith("mean,")

        pooled_lines = (tmp_path / "report_pooled.csv").read_text().splitlines()
        assert pooled_lines[0] == "step,seasonal_naive,holt_winters"
        assert [line.split(",")[0] for line in pooled_lines[1:]] == ["2", "3", "5", "mean"]
        prov = json.load(open(tmp_path / "report_provenance.json"))
        assert prov["command"] == "sweep"
        assert set(prov["provenance"]["models"]) == {"seasonal_naive", "holt_winters"}

    def test_forecast_and_sweep_are_reproducible(self, tmp_path):
        """Re-running forecast and sweep writes byte-identical artifacts."""
        ov = base_overrides(tmp_path, **{"sweep.models": '["lma_deepar","seasonal_naive"]'})
        for command in ("generate", "train", "forecast", "sweep"):
            assert run_cli(command, ov) == 0
        artifacts = [
            "forecast_samples.csv",
            "forecast_point.csv",
            "report_pooled.csv",
            "report_stability.csv",
            "report_provenance.json",
            "model.bin",
        ]
        before = {name: (tmp_path / name).read_bytes() for name in artifacts}
        for command in ("train", "forecast", "sweep"):
            assert run_cli(command, ov) == 0
        for name in artifacts:
            assert (tmp_path / name).read_bytes() == before[name], name

    def test_forecast_and_evaluate_match_the_library(self, tmp_path):
        """forecast writes the trajectories and points TrainedModelForecaster
        draws for sweep.seed, and evaluate scores them with score_steps."""
        ov = base_overrides(tmp_path, **{"sweep.seed": "3", "sweep.statistic": "mean"})
        for command in ("generate", "train", "forecast", "evaluate"):
            assert run_cli(command, ov) == 0, command
        train_panel, test_panel = split_panel(load_panel(str(tmp_path / "panel.csv")), SplitSpec(36, 40))
        forecaster = TrainedModelForecaster(load_model(str(tmp_path / "model.bin")), 8, "mean")
        forecasts = list(forecaster.forecasts(train_panel, 5, (3,)))
        point = forecaster.forecast_panel(train_panel, 5, (3,))

        with open(tmp_path / "forecast_point.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[0], int(r[1])) for r in rows] == [
            (sid, t) for sid in train_panel.series_ids for t in range(1, 6)
        ]
        written = np.array([float(r[2]) for r in rows]).reshape(4, 5)
        assert written.tobytes() == point.tobytes()

        with open(tmp_path / "forecast_samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for i, (sid, fc) in enumerate(zip(train_panel.series_ids, forecasts)):
            block = rows[i * 40 : (i + 1) * 40]
            assert [(r[0], int(r[1]), int(r[2])) for r in block] == [
                (sid, t, s) for t in range(1, 6) for s in range(8)
            ]
            samples = np.array([float(r[3]) for r in block]).reshape(5, 8).T
            assert samples.tobytes() == fc.samples.tobytes()

        pooled, stability = score_steps(test_panel.values, point, (1, 2, 3, 4, 5))
        expected = ["step,pooled_rmsle,stability_std"]
        expected += [f"{s},{float(p)!r},{float(v)!r}" for s, p, v in zip(range(1, 6), pooled, stability)]
        expected.append(f"mean,{float(np.mean(pooled))!r},{float(np.mean(stability))!r}")
        assert (tmp_path / "metrics.csv").read_text().splitlines() == expected

    def test_no_lma_trains_channel_free_model(self, tmp_path):
        ov = base_overrides(tmp_path)
        assert run_cli("generate", ov) == 0
        assert run_cli("train", ov, "--no-lma") == 0
        model = load_model(str(tmp_path / "model.bin"))
        assert model.n_channels == 0
        assert model.lma_config is None
        assert run_cli("forecast", ov) == 0

    def test_sweep_plots(self, tmp_path):
        ov = base_overrides(tmp_path, **{"sweep.models": '["seasonal_naive"]'})
        assert run_cli("generate", ov) == 0
        assert run_cli("sweep", ov, "--plots") == 0
        for name in ("report_pooled.svg", "report_stability.svg"):
            svg = (tmp_path / name).read_text()
            assert svg.startswith("<svg ")
            assert "seasonal_naive" in svg

    def test_seasonal_naive_is_exact_on_noiseless_weekly_panel(self, tmp_path):
        """Without noise, trend or bursts the weekly pattern repeats exactly, so the
        seasonal baseline scores zero pooled RMSLE at every step."""
        ov = base_overrides(
            tmp_path,
            **{
                "synth.noise_sigma": "0.0",
                "synth.trend_slope_range": "[0.0,0.0]",
                "sweep.models": '["seasonal_naive"]',
            },
        )
        assert run_cli("generate", ov) == 0
        assert run_cli("sweep", ov) == 0
        lines = (tmp_path / "report_pooled.csv").read_text().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[1]) == 0.0


class TestErrors:
    def test_missing_panel_is_io_error(self, tmp_path, capsys):
        assert run_cli("train", base_overrides(tmp_path)) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_override_key_is_named(self, tmp_path, capsys):
        ov = base_overrides(tmp_path, **{"train.momentum": "0.9"})
        assert run_cli("generate", ov) == 1
        err = capsys.readouterr().err
        assert "train.momentum" in err

    def test_unknown_section_is_named(self, tmp_path, capsys):
        ov = base_overrides(tmp_path, **{"optimizer.lr": "0.1"})
        assert run_cli("generate", ov) == 1
        assert "optimizer" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_command(["generate", "--config", str(bad)]) == 1
        assert "invalid JSON" in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert run_command(["generate", "--config", str(missing)]) == 2

    def test_unknown_command_and_flags(self, capsys):
        assert run_command(["frobnicate"]) == 1
        assert run_command([]) == 1
        assert run_command(["generate", "--bogus"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("train", "train.hidden_size", "2.5"),
            ("train", "train.num_layers", "1.5"),
            ("train", "train.epochs", "1.5"),
            ("train", "train.batch_size", "8.5"),
            ("train", "train.context_length", "7.5"),
            ("train", "train.windows_per_series", "4.5"),
            ("sweep", "sweep.n_samples", "2.5"),
            ("sweep", "sweep.seed", "1.5"),
            ("sweep", "sweep.naive_season", "7.5"),
            ("sweep", "sweep.steps", "[2.5,3]"),
            ("sweep", "split.pred_start", "36.5"),
            ("generate", "synth.n_series", "2.5"),
            ("generate", "synth.n_total", "100.5"),
            ("generate", "synth.seed", "1.5"),
            ("generate", "synth.period", "7.5"),
            ("generate", "holt_winters.season", "7.5"),
            ("generate", "lma.window_len", "62.5"),
        ],
    )
    def test_non_integral_integer_key_is_config_error(
        self, tmp_path, capsys, command, key, value
    ):
        """A fractional value for an integer key is neither truncated nor a traceback."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        assert run_cli(command, base_overrides(tmp_path, **{key: value})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert key.split(".")[1] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("covariates", "train.day_of_week", "False"),
            ("covariates", "lma.standardize", "False"),
            ("generate", "synth.n_series", "true"),
            ("train", "train.learning_rate", '"0.1"'),
            ("covariates", "lma.features", '"mean"'),
        ],
    )
    def test_wrong_type_is_config_error(self, tmp_path, capsys, command, key, value):
        """A value of the wrong JSON type is one error line naming its key: the
        string "False" is not a boolean and true is not an integer."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        assert run_cli(command, base_overrides(tmp_path, **{key: value})) == 1
        err = capsys.readouterr().err
        section, field = key.split(".")
        assert err.startswith("error:") and err.count("\n") == 1
        assert section in err and field in err
        assert "Traceback" not in err

    def test_training_divergence_is_one_error_line(self, tmp_path, capsys):
        """A diverging run exits 1 with one error line naming the epoch."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        ov = base_overrides(tmp_path, **{"train.learning_rate": "1e300", "train.epochs": "2"})
        assert run_cli("train", ov) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch ") and err.count("\n") == 1
        assert not (tmp_path / "model.bin").exists()

    def test_overflowing_update_is_divergence(self, tmp_path, capsys):
        """An Adam update that overflows is the divergence line of its batch,
        with no numpy warning ahead of it."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        ov = base_overrides(tmp_path, **{"train.learning_rate": "1e308"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("train", ov) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "error: training diverged at epoch 1, batch 1: non-finite parameter update\n"
        )

    def test_overflowing_channels_are_one_error_line(self, tmp_path, capsys):
        """A panel too large for its moving statistics is one error line naming
        the cause, with no numpy warning, in every command that builds channels."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        assert run_cli("train", base_overrides(tmp_path)) == 0
        assert run_cli("generate", base_overrides(tmp_path, **{"synth.base_level": "1e308"})) == 0
        capsys.readouterr()
        for command in ("covariates", "train", "forecast"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli(command, base_overrides(tmp_path)) == 1
            assert caught == []
            assert capsys.readouterr().err == (
                "error: panel values up to 1e+308 are too large for their moving statistics\n"
            )

    def test_overflowing_series_scale_is_one_error_line(self, tmp_path, capsys):
        """The channel-free network's series scale overflows on the same panel:
        training, a sweep that trains it, and a forecast from a trained model
        each end in one error line naming the cause, with no numpy warning."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        assert run_cli("train", base_overrides(tmp_path), "--no-lma") == 0
        huge = base_overrides(tmp_path, **{"synth.base_level": "1e308"})
        assert run_cli("generate", huge) == 0
        capsys.readouterr()
        runs = [
            ("train", huge, ["--no-lma"]),
            ("sweep", dict(huge, **{"sweep.models": '["deepar"]'}), []),
            ("forecast", huge, []),
        ]
        for command, overrides, flags in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli(command, overrides, *flags) == 1
            assert caught == []
            assert capsys.readouterr().err == (
                "error: conditioning values up to 1e+308 are too large for the series scale\n"
            )

    def test_overflowing_holt_winters_fails_alone(self, tmp_path, capsys):
        """Holt-Winters' smoothing state overflows on the same panel: the sweep
        records one BaselineError naming the cause, with no numpy warning,
        and finishes with the other model."""
        ov = base_overrides(
            tmp_path,
            **{
                "synth.base_level": "1e308",
                "sweep.models": '["seasonal_naive","holt_winters"]',
            },
        )
        assert run_cli("generate", ov) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("sweep", ov) == 0
        assert caught == []
        failed = [
            line for line in capsys.readouterr().err.splitlines() if line.startswith("model ")
        ]
        assert failed == [
            "model holt_winters failed: BaselineError: train values up to 1e+308"
            " are too large for the smoothing state"
        ]

    @pytest.mark.parametrize(
        "command, name, error, message",
        [
            (
                "generate",
                "generate_panel",
                MemoryError("Unable to allocate 7.28 TiB for an array"),
                "error: Unable to allocate 7.28 TiB for an array\n",
            ),
            ("train", "train", MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy", "python"],
    )
    def test_failed_allocation_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, command, name, error, message
    ):
        """A MemoryError (numpy's names the allocation, Python's is empty) is
        one error line and exit code 1, not a traceback."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()

        def fail(*args):
            raise error

        monkeypatch.setattr(cli, name, fail)
        assert run_cli(command, base_overrides(tmp_path)) == 1
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "steps, extra, message",
        [
            pytest.param(steps, extra, message, id=f"{steps}-{message}")
            for steps, extra, message in [
                ("[5,3]", {}, "steps must be strictly increasing and >= 1"),
                ("[0,3]", {}, "steps must be strictly increasing and >= 1"),
                ("[3,6]", {}, "step 6 exceeds the 5-day test range"),
                (
                    "[2,3,5]",
                    {"train.horizon": "3", "lma.horizon": "3"},
                    "sweep.steps: step 5 exceeds train.horizon 3",
                ),
            ]
        ],
    )
    def test_bad_sweep_steps_fail_before_training(
        self, tmp_path, capsys, monkeypatch, steps, extra, message
    ):
        """Steps out of order, below 1, past the test range or past the
        networks' horizon are rejected before any network is trained."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        ov = base_overrides(tmp_path, **{"sweep.steps": steps, **extra})
        assert run_cli("sweep", ov) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and err.count("\n") == 1
        assert trained == []

    @pytest.mark.parametrize(
        "command, key",
        [("generate", "synth.seed"), ("train", "train.seed"), ("sweep", "train.seed"), ("sweep", "sweep.seed")],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch, command, key):
        """A negative seed is one error line naming its section and key, before
        any network is trained."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        assert run_cli(command, base_overrides(tmp_path, **{key: "-1"})) == 1
        err = capsys.readouterr().err
        section, field = key.split(".")
        assert err == f"error: invalid config section {section}: {field} must be >= 0, got -1\n"
        assert trained == []

    def test_baselines_only_sweep_ignores_train_horizon(self, tmp_path):
        """Steps past train.horizon are fine when no network is in the sweep."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        ov = base_overrides(
            tmp_path,
            **{
                "train.horizon": "3",
                "lma.horizon": "3",
                "sweep.models": '["seasonal_naive","holt_winters"]',
            },
        )
        assert run_cli("sweep", ov) == 0

    def test_horizon_mismatch_is_config_error(self, tmp_path, capsys):
        ov = base_overrides(tmp_path, **{"lma.horizon": "4"})
        assert run_cli("generate", ov) == 1
        assert "horizon" in capsys.readouterr().err

    def test_evaluate_rejects_tampered_forecast(self, tmp_path, capsys):
        ov = base_overrides(tmp_path)
        for command in ("generate", "train", "forecast"):
            assert run_cli(command, ov) == 0
        point = tmp_path / "forecast_point.csv"
        lines = point.read_text().splitlines()
        point.write_text("\n".join(lines[:-1]) + "\n")  # drop the last step of one series
        assert run_cli("evaluate", ov) == 1
        err = capsys.readouterr().err
        assert "missing steps" in err or "unequal" in err

    @pytest.mark.parametrize("step", ["1000000000", "0", "-5"])
    def test_evaluate_rejects_step_outside_test_range(self, tmp_path, capsys, step):
        """A step outside 1..split horizon is one error line naming the file
        and line, raised before the forecast matrix is allocated."""
        ov = base_overrides(tmp_path)
        assert run_cli("generate", ov) == 0
        capsys.readouterr()
        point = tmp_path / "forecast_point.csv"
        ids = load_panel(str(tmp_path / "panel.csv")).series_ids
        point.write_text("series_id,step,value\n" + "".join(f"{sid},{step},1.0\n" for sid in ids))
        assert run_cli("evaluate", ov) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {point}:2: step {step} ") and err.count("\n") == 1

    @pytest.mark.parametrize("step", ["0_1", " 1", "1 ", "+1", "\u0661"])
    def test_evaluate_takes_ascii_digit_steps_only(self, tmp_path, capsys, step):
        """A step is ASCII digits as the writer prints them; int() would also
        read each of these as step 1.  The row is one error line."""
        ov = base_overrides(tmp_path)
        assert run_cli("generate", ov) == 0
        capsys.readouterr()
        point = tmp_path / "forecast_point.csv"
        ids = load_panel(str(tmp_path / "panel.csv")).series_ids
        rows = [f"{sid},{t},1.0\n" for sid in ids for t in range(1, 6)]
        rows[0] = f"{ids[0]},{step},1.0\n"
        point.write_text("series_id,step,value\n" + "".join(rows))
        assert run_cli("evaluate", ov) == 1
        assert capsys.readouterr().err == f"error: {point}:2: bad step {step!r}\n"

    @pytest.mark.parametrize("date", ["20210101", "2021-W01-5"])
    def test_start_date_must_be_yyyy_mm_dd(self, tmp_path, capsys, date):
        """A configured date is exactly YYYY-MM-DD on every supported Python;
        3.11's fromisoformat would read the first two as dates."""
        assert run_cli("generate", base_overrides(tmp_path, **{"synth.start_date": f'"{date}"'})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "start_date" in err and err.count("\n") == 1
        assert not (tmp_path / "panel.csv").exists()

    def test_forecast_past_model_horizon_is_one_error_line(self, tmp_path, capsys):
        ov = base_overrides(tmp_path)
        for command in ("generate", "train"):
            assert run_cli(command, ov) == 0
        capsys.readouterr()
        assert run_cli("forecast", base_overrides(tmp_path, **{"split.pred_start": "35"})) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "horizon 5 cannot forecast 6 steps" in err
        assert not (tmp_path / "forecast_point.csv").exists()

    def test_model_missing_an_array_is_one_error_line(self, tmp_path, capsys):
        """A model file whose manifest (and payload) lacks its last array,
        head_b, is a corrupt model file, not a KeyError traceback."""
        ov = base_overrides(tmp_path)
        for command in ("generate", "train"):
            assert run_cli(command, ov) == 0
        capsys.readouterr()
        path = tmp_path / "model.bin"
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        last = header["arrays"].pop()
        assert last["name"] == "head_b"
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        payload = blob[32 + header_len : len(blob) - 8 * math.prod(last["shape"])]
        path.write_bytes(blob[:24] + struct.pack("<Q", len(text)) + text + payload)
        assert run_cli("forecast", ov) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: corrupt model file: array head_b missing from manifest\n"
        assert not (tmp_path / "forecast_point.csv").exists()

    def test_model_listing_an_array_twice_is_one_error_line(self, tmp_path, capsys):
        """A model file whose manifest names head_b twice, with a payload for
        each, is a corrupt model file; it used to forecast with the later copy."""
        ov = base_overrides(tmp_path)
        for command in ("generate", "train"):
            assert run_cli(command, ov) == 0
        capsys.readouterr()
        path = tmp_path / "model.bin"
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        header["arrays"].append({"name": "head_b", "shape": [2]})
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        payload = blob[32 + header_len :] + struct.pack("<2d", 7.0, 9.0)
        path.write_bytes(blob[:24] + struct.pack("<Q", len(text)) + text + payload)
        assert run_cli("forecast", ov) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: corrupt model file: array head_b listed twice\n"
        assert not (tmp_path / "forecast_point.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_evaluate_names_non_finite_value_line(self, tmp_path, capsys, value):
        """A non-finite forecast value is one error line naming the file and line."""
        ov = base_overrides(tmp_path)
        assert run_cli("generate", ov) == 0
        capsys.readouterr()
        point = tmp_path / "forecast_point.csv"
        ids = load_panel(str(tmp_path / "panel.csv")).series_ids
        rows = [f"{sid},{t},1.0\n" for sid in ids for t in range(1, 6)]
        rows[0] = f"{ids[0]},1,{value}\n"
        point.write_text("series_id,step,value\n" + "".join(rows))
        assert run_cli("evaluate", ov) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {point}:2: non-finite value") and err.count("\n") == 1

    def test_evaluate_skips_blank_lines(self, tmp_path, capsys):
        """Blank lines in the point file are skipped, as in panel.csv."""
        ov = base_overrides(tmp_path)
        assert run_cli("generate", ov) == 0
        ids = load_panel(str(tmp_path / "panel.csv")).series_ids
        rows = "".join(f"{sid},{t},{t}.5\n\n" for sid in ids for t in range(1, 6))
        (tmp_path / "forecast_point.csv").write_text("series_id,step,value\n\n" + rows)
        assert run_cli("evaluate", ov) == 0
        assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == (
            "step,pooled_rmsle,stability_std"
        )

    def test_evaluate_rejects_wrong_header(self, tmp_path, capsys):
        ov = base_overrides(tmp_path)
        assert run_cli("generate", ov) == 0
        (tmp_path / "forecast_point.csv").write_text("id,step,value\nx,1,2.0\n")
        assert run_cli("evaluate", ov) == 1
        assert "header" in capsys.readouterr().err

    def test_sweep_model_failure_goes_to_stderr(self, tmp_path, capsys):
        """A panel too short for Holt-Winters drops the model but the sweep still succeeds."""
        ov = base_overrides(
            tmp_path,
            **{
                "synth.n_total": "18",
                "split.pred_start": "14",
                "split.pred_end": "18",
                "sweep.models": '["seasonal_naive","holt_winters"]',
                "sweep.steps": "[2,5]",
            },
        )
        assert run_cli("generate", ov) == 0
        assert run_cli("sweep", ov) == 0
        out = capsys.readouterr()
        assert "holt_winters failed" in out.err
        lines = (tmp_path / "report_pooled.csv").read_text().splitlines()
        assert lines[0] == "step,seasonal_naive"

    def test_sweep_all_models_failing_exits_nonzero(self, tmp_path, capsys):
        ov = base_overrides(
            tmp_path,
            **{
                "synth.n_total": "18",
                "split.pred_start": "14",
                "split.pred_end": "18",
                "sweep.models": '["holt_winters"]',
                "sweep.steps": "[2,5]",
            },
        )
        assert run_cli("generate", ov) == 0
        assert run_cli("sweep", ov) == 1
        assert "every model failed" in capsys.readouterr().err


REPORTS = (
    "report_pooled.csv",
    "report_stability.csv",
    "report_provenance.json",
    "report_pooled.svg",
    "report_stability.svg",
)


class TestTwoProcessSweep:
    """With two usable CPUs, sweep trains its second network in a forked
    child; nothing it writes or reports may depend on that."""

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

    def sweep(self, tmp_path, monkeypatch, capsys, cpus, **extra):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        for name in REPORTS:
            (tmp_path / name).unlink(missing_ok=True)
        rc = run_cli("sweep", base_overrides(tmp_path, **extra), "--plots")
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_cpu_count_does_not_change_the_report(self, tmp_path, monkeypatch, capsys, forks):
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        one = self.sweep(tmp_path, monkeypatch, capsys, 1)
        assert one[0] == 0 and forks == []
        written = {name: (tmp_path / name).read_bytes() for name in REPORTS}
        two = self.sweep(tmp_path, monkeypatch, capsys, 2)
        assert two == one
        assert len(forks) == 3
        for name in REPORTS:
            assert (tmp_path / name).read_bytes() == written[name], name

    def test_divergence_is_the_same_error_line(self, tmp_path, monkeypatch, capsys, forks):
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        ov = {"train.learning_rate": "1e300", "train.epochs": "2"}
        errs = []
        for cpus in (1, 2):
            rc, _, err = self.sweep(tmp_path, monkeypatch, capsys, cpus, **ov)
            assert rc == 1
            assert err.startswith("error: training diverged at epoch ") and err.count("\n") == 1
            assert not any((tmp_path / name).exists() for name in REPORTS)
            errs.append(err)
        assert errs[0] == errs[1]
        assert len(forks) == 1

    @pytest.mark.parametrize("failing", [("lma_deepar", "deepar"), ("lma_deepar",), ("deepar",)])
    def test_error_follows_model_order(self, tmp_path, monkeypatch, capsys, forks, failing):
        """When several networks fail, the one listed first names the error,
        whichever process trained it."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        real_train = cli.train

        def train(panel, covariates, cfg, lma_cfg):
            name = "deepar" if lma_cfg is None else "lma_deepar"
            if name in failing:
                raise TrainError(f"{name} failed")
            return real_train(panel, covariates, cfg, lma_cfg)

        monkeypatch.setattr(cli, "train", train)
        for cpus in (1, 2):
            assert self.sweep(tmp_path, monkeypatch, capsys, cpus) == (
                1,
                "",
                f"error: {failing[0]} failed\n",
            )
        assert len(forks) == 1

    @pytest.mark.parametrize("failing", [("lma_deepar", "deepar"), ("deepar",)])
    def test_failed_allocation_follows_model_order(
        self, tmp_path, monkeypatch, capsys, forks, failing
    ):
        """A MemoryError in training follows the same rule as any other
        training error: the network listed first names the error line."""
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        real_train = cli.train

        def train(panel, covariates, cfg, lma_cfg):
            name = "deepar" if lma_cfg is None else "lma_deepar"
            if name in failing:
                raise MemoryError(f"{name} failed")
            return real_train(panel, covariates, cfg, lma_cfg)

        monkeypatch.setattr(cli, "train", train)
        for cpus in (1, 2):
            assert self.sweep(tmp_path, monkeypatch, capsys, cpus) == (
                1,
                "",
                f"error: {failing[0]} failed\n",
            )
        assert len(forks) == 1

    def test_child_without_result_is_one_error_line(self, tmp_path, monkeypatch, capsys, forks):
        assert run_cli("generate", base_overrides(tmp_path)) == 0
        capsys.readouterr()
        parent = os.getpid()
        real_train = cli.train

        def train(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real_train(*args)

        monkeypatch.setattr(cli, "train", train)
        rc, _, err = self.sweep(tmp_path, monkeypatch, capsys, 2)
        assert rc == 1
        assert err == "error: forked training ended (exit status 3) without a result\n"
        assert not any((tmp_path / name).exists() for name in REPORTS)
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0].pid, os.WNOHANG)
