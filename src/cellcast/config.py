"""Run configuration: one validated ledger shared by every subcommand.

The config file is JSON with one object per section (synth, lma, train,
holt_winters, sweep, split, paths).  Missing sections and keys fall back to
defaults that reproduce the desk-scale experiment; unknown sections or keys
are errors so typos cannot silently change a run.  Values can be overridden
from the command line with ``--set section.key=value``.
"""

from __future__ import annotations

import copy
import datetime as dt
import json
import os
from dataclasses import dataclass

from .baselines import HoltWintersConfig
from .deepar import TrainConfig
from .evalharness import DEFAULT_STEPS
from .lma import LmaConfig
from .panel import SplitSpec
from .synth import SynthConfig

__all__ = ["ConfigError", "DEFAULT_CONFIG", "KNOWN_MODELS", "RunConfig"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _integer(value, name: str) -> int:
    """value itself when it is an integer; a float such as 2.5 is not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


KNOWN_MODELS = ("lma_deepar", "deepar", "seasonal_naive", "holt_winters")
POINT_STATISTICS = ("median", "mean")

DEFAULT_CONFIG: dict = {
    "synth": {
        "n_series": 50,
        "n_total": 212,
        "base_level": 500.0,
        "trend_slope_range": [-0.8, 1.6],
        "period": 7,
        "amplitude_range": [40.0, 120.0],
        "burst_rate": 0.05,
        "burst_scale": 600.0,
        "noise_sigma": 20.0,
        "seed": 20210901,
        "start_date": "2021-01-01",
    },
    "lma": {
        "window_len": 62,
        "horizon": 31,
        "features": ["mean", "std"],
        "standardize": True,
    },
    "train": {
        "context_length": 62,
        "horizon": 31,
        "epochs": 15,
        "learning_rate": 1e-2,
        "batch_size": 32,
        "hidden_size": 40,
        "num_layers": 2,
        "sigma_floor": 1e-6,
        "seed": 0,
        "windows_per_series": 64,
        "clip_norm": 1000.0,
        "day_of_week": False,
    },
    "holt_winters": {"season": 7, "alpha": 0.3, "beta": 0.05, "gamma": 0.1},
    "sweep": {
        "steps": list(DEFAULT_STEPS),
        "n_samples": 100,
        "statistic": "median",
        "seed": 1,
        "models": ["lma_deepar", "deepar", "seasonal_naive", "holt_winters"],
        "naive_season": 7,
    },
    "split": {"pred_start": 182, "pred_end": 212},
    "paths": {
        "out_dir": ".",
        "panel": "panel.csv",
        "covariates": "covariates.csv",
        "model": "model.bin",
        "forecast_samples": "forecast_samples.csv",
        "forecast_point": "forecast_point.csv",
        "metrics": "metrics.csv",
        "report_pooled": "report_pooled.csv",
        "report_stability": "report_stability.csv",
        "provenance": "report_provenance.json",
        "plot_pooled": "report_pooled.svg",
        "plot_stability": "report_stability.svg",
    },
}


def _merge_user(data: dict, user: dict, source: str) -> None:
    if not isinstance(user, dict):
        raise ConfigError(f"{source}: config root must be an object")
    for section, content in user.items():
        if section not in data:
            raise ConfigError(f"{source}: unknown config section: {section}")
        if not isinstance(content, dict):
            raise ConfigError(f"{source}: config section {section} must be an object")
        for key, value in content.items():
            if key not in data[section]:
                raise ConfigError(f"{source}: unknown config key: {section}.{key}")
            data[section][key] = value


def _apply_override(data: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} must look like section.key=value")
    target, raw = spec.split("=", 1)
    parts = target.split(".")
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f"override {spec!r} must look like section.key=value")
    section, key = parts
    if section not in data:
        raise ConfigError(f"unknown config section: {section}")
    if key not in data[section]:
        raise ConfigError(f"unknown config key: {section}.{key}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    data[section][key] = value


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration; accessors build the per-module config objects."""

    data: dict

    @classmethod
    def load(cls, path: str | None = None, overrides: tuple[str, ...] = ()) -> "RunConfig":
        data = copy.deepcopy(DEFAULT_CONFIG)
        if path is not None:
            with open(path) as fh:
                try:
                    user = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
            _merge_user(data, user, path)
        for spec in overrides:
            _apply_override(data, spec)
        cfg = cls(data)
        cfg.validate()
        return cfg

    def _build(self, section: str, factory):
        try:
            return factory()
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config section {section}: {exc}") from exc

    def synth_config(self) -> SynthConfig:
        def make() -> SynthConfig:
            raw = dict(self.data["synth"])
            raw["trend_slope_range"] = tuple(raw["trend_slope_range"])
            raw["amplitude_range"] = tuple(raw["amplitude_range"])
            raw["start_date"] = dt.date.fromisoformat(raw["start_date"])
            cfg = SynthConfig(**raw)
            cfg.validate()
            return cfg

        return self._build("synth", make)

    def lma_config(self) -> LmaConfig:
        def make() -> LmaConfig:
            raw = dict(self.data["lma"])
            raw["features"] = tuple(raw["features"])
            cfg = LmaConfig(**raw)
            cfg.validate()
            return cfg

        return self._build("lma", make)

    def train_config(self) -> TrainConfig:
        def make() -> TrainConfig:
            cfg = TrainConfig(**self.data["train"])
            cfg.validate()
            return cfg

        return self._build("train", make)

    def holt_winters_config(self) -> HoltWintersConfig:
        def make() -> HoltWintersConfig:
            cfg = HoltWintersConfig(**self.data["holt_winters"])
            cfg.validate()
            return cfg

        return self._build("holt_winters", make)

    def split_spec(self) -> SplitSpec:
        split = self.data["split"]
        return self._build(
            "split",
            lambda: SplitSpec(
                _integer(split["pred_start"], "split.pred_start"),
                _integer(split["pred_end"], "split.pred_end"),
            ),
        )

    def sweep_steps(self) -> tuple[int, ...]:
        steps = self.data["sweep"]["steps"]
        if not isinstance(steps, (list, tuple)) or not steps:
            raise ConfigError("sweep.steps must be a nonempty list of integers")
        return tuple(_integer(s, "each of sweep.steps") for s in steps)

    def sweep_models(self) -> tuple[str, ...]:
        models = self.data["sweep"]["models"]
        if not isinstance(models, (list, tuple)) or not models:
            raise ConfigError("sweep.models must be a nonempty list of model names")
        for name in models:
            if name not in KNOWN_MODELS:
                raise ConfigError(
                    f"unknown model {name!r} in sweep.models, expected one of {list(KNOWN_MODELS)}"
                )
        if len(set(models)) != len(models):
            raise ConfigError("sweep.models contains duplicates")
        return tuple(models)

    def sweep_statistic(self) -> str:
        statistic = self.data["sweep"]["statistic"]
        if statistic not in POINT_STATISTICS:
            raise ConfigError(
                f"sweep.statistic must be one of {list(POINT_STATISTICS)}, got {statistic!r}"
            )
        return statistic

    def sweep_n_samples(self) -> int:
        n = _integer(self.data["sweep"]["n_samples"], "sweep.n_samples")
        if n < 1:
            raise ConfigError(f"sweep.n_samples must be >= 1, got {n}")
        return n

    def sweep_seed(self) -> int:
        return _integer(self.data["sweep"]["seed"], "sweep.seed")

    def naive_season(self) -> int:
        season = _integer(self.data["sweep"]["naive_season"], "sweep.naive_season")
        if season < 1:
            raise ConfigError(f"sweep.naive_season must be >= 1, got {season}")
        return season

    def path(self, key: str) -> str:
        paths = self.data["paths"]
        if key not in paths:
            raise ConfigError(f"unknown path key: paths.{key}")
        p = str(paths[key])
        out_dir = str(paths["out_dir"])
        return p if os.path.isabs(p) or key == "out_dir" else os.path.join(out_dir, p)

    def validate(self) -> None:
        self.synth_config()
        lma = self.lma_config()
        train = self.train_config()
        self.holt_winters_config()
        self.split_spec()
        self.sweep_steps()
        self.sweep_models()
        self.sweep_statistic()
        self.sweep_n_samples()
        self.sweep_seed()
        self.naive_season()
        if lma.horizon != train.horizon:
            raise ConfigError(
                f"lma.horizon ({lma.horizon}) must equal train.horizon ({train.horizon})"
            )
        for key, value in self.data["paths"].items():
            if not isinstance(value, str) or not value:
                raise ConfigError(f"paths.{key} must be a nonempty string")
