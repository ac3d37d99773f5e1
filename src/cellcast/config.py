"""Run configuration: one validated ledger shared by every subcommand.

The config file is JSON with one object per section (synth, lma, train,
holt_winters, sweep, split, paths).  Every section but split and paths is a
frozen dataclass (``SECTIONS``), and ``DEFAULT_CONFIG`` is derived from those
dataclasses' defaults, so each default is written once.  Missing sections and
keys fall back to defaults that reproduce the desk-scale experiment; unknown
sections or keys are errors so typos cannot silently change a run.  Values
can be overridden from the command line with ``--set section.key=value``.
``RunConfig.section(name)`` builds one section's dataclass from the JSON
values and validates it, types included: a value must match its field's
annotation (see ``_fields``), so 2.5 or true is not an integer and the
string "False" is not a boolean.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

from ._fields import check_field_types, from_json, to_json
from .baselines import HoltWintersConfig
from .deepar import TrainConfig
from .deepar.forecasting import POINT_STATISTICS
from .evalharness import DEFAULT_STEPS
from .lma import LmaConfig
from .panel import SplitSpec
from .synth import SynthConfig

__all__ = ["ConfigError", "DEFAULT_CONFIG", "KNOWN_MODELS", "RunConfig", "SECTIONS", "SweepConfig"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


KNOWN_MODELS = ("lma_deepar", "deepar", "seasonal_naive", "holt_winters")


@dataclass(frozen=True)
class SweepConfig:
    """The step sweep: the steps scored, the models compared, how many
    trajectories each network draws and which statistic turns them into a
    point forecast, the shared seed, and the seasonal-naive season."""

    steps: tuple[int, ...] = DEFAULT_STEPS
    n_samples: int = 100
    statistic: str = "median"
    seed: int = 1
    models: tuple[str, ...] = KNOWN_MODELS
    naive_season: int = 7

    def validate(self) -> None:
        check_field_types(self, ConfigError)
        if not self.steps:
            raise ConfigError("steps must be a nonempty list of integers")
        steps = self.steps
        if steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
            raise ConfigError(f"steps must be strictly increasing and >= 1, got {steps}")
        if not self.models:
            raise ConfigError("models must be a nonempty list of model names")
        for name in self.models:
            if name not in KNOWN_MODELS:
                raise ConfigError(
                    f"unknown model {name!r} in models, expected one of {list(KNOWN_MODELS)}"
                )
        if len(set(self.models)) != len(self.models):
            raise ConfigError("models contains duplicates")
        if self.statistic not in POINT_STATISTICS:
            raise ConfigError(
                f"statistic must be one of {list(POINT_STATISTICS)}, got {self.statistic!r}"
            )
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.naive_season < 1:
            raise ConfigError(f"naive_season must be >= 1, got {self.naive_season}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


SECTIONS = {
    "synth": SynthConfig,
    "lma": LmaConfig,
    "train": TrainConfig,
    "holt_winters": HoltWintersConfig,
    "sweep": SweepConfig,
}

DEFAULT_CONFIG: dict = {name: to_json(cls()) for name, cls in SECTIONS.items()} | {
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
    target, eq, raw = spec.partition("=")
    parts = target.split(".")
    if not eq or len(parts) != 2 or not all(parts):
        raise ConfigError(f"override {spec!r} must look like section.key=value")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    _merge_user(data, {parts[0]: {parts[1]: value}}, f"override {spec!r}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration; ``section`` builds the per-module config objects."""

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

    def section(self, name: str):
        """The validated dataclass of section ``name``: one of ``SECTIONS`` or split."""
        cls = SplitSpec if name == "split" else SECTIONS[name]
        try:
            cfg = from_json(cls, self.data[name])
            cfg.validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config section {name}: {exc}") from exc
        return cfg

    def path(self, key: str) -> str:
        paths = self.data["paths"]
        if key not in paths:
            raise ConfigError(f"unknown path key: paths.{key}")
        p = str(paths[key])
        out_dir = str(paths["out_dir"])
        return p if os.path.isabs(p) or key == "out_dir" else os.path.join(out_dir, p)

    def validate(self) -> None:
        built = {name: self.section(name) for name in (*SECTIONS, "split")}
        lma, train = built["lma"], built["train"]
        if lma.horizon != train.horizon:
            raise ConfigError(
                f"lma.horizon ({lma.horizon}) must equal train.horizon ({train.horizon})"
            )
        for key, value in self.data["paths"].items():
            if not isinstance(value, str) or not value:
                raise ConfigError(f"paths.{key} must be a nonempty string")
