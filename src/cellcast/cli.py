"""Command-line interface.

Subcommands wire the modules together: generate a synthetic panel, export
covariate channels, train a model (with or without moving-average channels),
forecast from a trained model, score a forecast file, or run the full
step-sweep evaluation.  One JSON config file drives everything; any value
can be overridden with ``--set section.key=value``.

Exit codes: 0 success, 1 validation or configuration error, 2 I/O error.
Every artifact gets a provenance sidecar (config, content hash, version) so
a run can be reproduced exactly; nothing written depends on wall-clock time.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig
from .deepar import load_model, point_forecast, sample_forecast, save_model, train
from .evalharness import (
    HoltWintersForecaster,
    SeasonalNaiveForecaster,
    TrainedModelForecaster,
    rmsle_per_series,
    rmsle_pooled,
    stability_std,
    sweep,
    write_provenance,
    write_report_csvs,
    write_svg_plots,
)
from .lma import assemble_covariates, export_covariates
from .panel import load_panel, split_panel, write_panel
from .synth import generate_panel

__all__ = ["main", "run_command"]


class CliError(ValueError):
    """Bad command line; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse normally exits the process on bad flags; raise instead so
    run_command owns every exit code."""

    def error(self, message: str) -> None:
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override one config value; repeatable",
    )
    parser = _Parser(prog="cellcast", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("generate", parents=[common], help="write a synthetic traffic panel")
    sub.add_parser(
        "covariates", parents=[common], help="export covariate channels for the training range"
    )
    p_train = sub.add_parser("train", parents=[common], help="train a model and save it")
    p_train.add_argument(
        "--no-lma",
        action="store_true",
        help="train on the lagged target alone, without moving-average channels",
    )
    sub.add_parser("forecast", parents=[common], help="sample forecasts from a saved model")
    sub.add_parser(
        "evaluate", parents=[common], help="score a point-forecast file against the panel"
    )
    p_sweep = sub.add_parser("sweep", parents=[common], help="run the full step-sweep report")
    p_sweep.add_argument("--plots", action="store_true", help="also write SVG line charts")
    return parser


def _write_sidecar(artifact_path: str, command: str, cfg: RunConfig) -> None:
    payload = {"command": command, "config": cfg.data, "version": __version__}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["config_sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    with open(artifact_path + ".provenance.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _train_inputs(cfg: RunConfig, with_lma: bool):
    panel = load_panel(cfg.path("panel"))
    train_panel, _ = split_panel(panel, cfg.section("split"))
    train_cfg = cfg.section("train")
    lma_cfg = cfg.section("lma") if with_lma else None
    covariates = assemble_covariates(
        train_panel, lma_cfg, train_cfg.horizon, day_of_week=train_cfg.day_of_week
    )
    return panel, train_panel, train_cfg, lma_cfg, covariates


def cmd_generate(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = generate_panel(cfg.section("synth"))
    out = cfg.path("panel")
    write_panel(panel, out)
    _write_sidecar(out, "generate", cfg)
    print(f"wrote {out} ({panel.n_series} series x {panel.n_steps} steps)")
    return 0


def cmd_covariates(cfg: RunConfig, args: argparse.Namespace) -> int:
    _, train_panel, train_cfg, lma_cfg, covariates = _train_inputs(cfg, with_lma=True)
    if covariates is None:
        raise ConfigError("no covariate channels configured")
    out = cfg.path("covariates")
    export_covariates(covariates, out)
    _write_sidecar(out, "covariates", cfg)
    print(
        f"wrote {out} ({covariates.n_channels} channels x"
        f" {train_panel.n_series} series)"
    )
    return 0


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    with_lma = not args.no_lma
    _, train_panel, train_cfg, lma_cfg, covariates = _train_inputs(cfg, with_lma)
    model = train(train_panel, covariates, train_cfg, lma_cfg)
    out = cfg.path("model")
    save_model(model, out)
    _write_sidecar(out, "train", cfg)
    label = "with" if with_lma else "without"
    curve = ""
    if model.epoch_nll:
        curve = f", NLL {model.epoch_nll[0]:.4f} -> {model.epoch_nll[-1]:.4f}"
    print(f"wrote {out} ({label} moving-average channels, {train_cfg.epochs} epochs{curve})")
    return 0


def cmd_forecast(cfg: RunConfig, args: argparse.Namespace) -> int:
    model = load_model(cfg.path("model"))
    panel = load_panel(cfg.path("panel"))
    split = cfg.section("split")
    train_panel, _ = split_panel(panel, split)
    horizon = split.horizon
    if horizon > model.train_config.horizon:
        raise ConfigError(
            f"split horizon {horizon} exceeds the model horizon {model.train_config.horizon}"
        )
    covariates = assemble_covariates(
        train_panel,
        model.lma_config,
        model.train_config.horizon,
        day_of_week=model.train_config.day_of_week,
    )
    sweep_cfg = cfg.section("sweep")
    n_samples = sweep_cfg.n_samples
    samples_path = cfg.path("forecast_samples")
    point_path = cfg.path("forecast_point")
    with open(samples_path, "w", newline="") as fh_s, open(point_path, "w", newline="") as fh_p:
        w_samples = csv.writer(fh_s, lineterminator="\n")
        w_point = csv.writer(fh_p, lineterminator="\n")
        w_samples.writerow(["series_id", "step", "sample_id", "value"])
        w_point.writerow(["series_id", "step", "value"])
        for i, sid in enumerate(train_panel.series_ids):
            channels = covariates.channels[i] if covariates is not None else None
            fc = sample_forecast(
                model,
                train_panel.values[i],
                channels,
                horizon=horizon,
                n_samples=n_samples,
                seed=(sweep_cfg.seed, i),
            )
            for t in range(horizon):
                for s in range(n_samples):
                    w_samples.writerow([sid, t + 1, s, repr(float(fc.samples[s, t]))])
            point = point_forecast(fc, sweep_cfg.statistic)
            for t in range(horizon):
                w_point.writerow([sid, t + 1, repr(float(point[t]))])
    _write_sidecar(samples_path, "forecast", cfg)
    _write_sidecar(point_path, "forecast", cfg)
    print(
        f"wrote {samples_path} and {point_path}"
        f" ({train_panel.n_series} series, {horizon} steps, {n_samples} samples)"
    )
    return 0


def _load_point_forecast(path: str, series_ids: tuple[str, ...]) -> np.ndarray:
    by_series: dict[str, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["series_id", "step", "value"]:
            raise CliError(f"{path}: expected header series_id,step,value, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise CliError(f"{path}:{lineno}: expected 3 fields")
            sid, step_raw, value_raw = row
            try:
                step = int(step_raw)
                value = float(value_raw)
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: {exc}") from None
            by_series.setdefault(sid, {})
            if step in by_series[sid]:
                raise CliError(f"{path}:{lineno}: duplicate step {step} for {sid}")
            by_series[sid][step] = value
    if set(by_series) != set(series_ids):
        raise CliError(f"{path}: forecast series do not match the panel")
    horizons = {max(steps) for steps in by_series.values()}
    if len(horizons) != 1:
        raise CliError(f"{path}: unequal forecast horizons across series")
    horizon = horizons.pop()
    out = np.empty((len(series_ids), horizon))
    for i, sid in enumerate(series_ids):
        steps = by_series[sid]
        if sorted(steps) != list(range(1, horizon + 1)):
            raise CliError(f"{path}: missing steps for {sid}")
        for step, value in steps.items():
            out[i, step - 1] = value
    return out


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = load_panel(cfg.path("panel"))
    split = cfg.section("split")
    _, test_panel = split_panel(panel, split)
    pred = _load_point_forecast(cfg.path("forecast_point"), panel.series_ids)
    horizon = pred.shape[1]
    if horizon > split.horizon:
        raise CliError(
            f"forecast covers {horizon} steps but the test range has {split.horizon}"
        )
    pred = np.maximum(pred, 0.0)
    actual = test_panel.values[:, :horizon]
    out = cfg.path("metrics")
    pooled_values = []
    stability_values = []
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "pooled_rmsle", "stability_std"])
        for s in range(1, horizon + 1):
            rows = rmsle_per_series(actual[:, :s], pred[:, :s])
            pooled = rmsle_pooled(actual[:, :s], pred[:, :s])
            stab = stability_std(rows)
            pooled_values.append(pooled)
            stability_values.append(stab)
            writer.writerow([str(s), repr(pooled), repr(stab)])
        writer.writerow(
            [
                "mean",
                repr(float(np.mean(pooled_values))),
                repr(float(np.mean(stability_values))),
            ]
        )
    _write_sidecar(out, "evaluate", cfg)
    print(
        f"wrote {out} (pooled RMSLE at {horizon} steps:"
        f" {pooled_values[-1]:.6f}, stability {stability_values[-1]:.6f})"
    )
    return 0


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = load_panel(cfg.path("panel"))
    split = cfg.section("split")
    train_panel, _ = split_panel(panel, split)
    train_cfg = cfg.section("train")
    sweep_cfg = cfg.section("sweep")
    if sweep_cfg.steps[-1] > split.horizon:
        # checked again by evalharness.sweep, but only after training
        raise ConfigError(
            f"sweep.steps: step {sweep_cfg.steps[-1]} exceeds the {split.horizon}-day test range"
        )
    models = {}
    for name in sweep_cfg.models:
        if name in ("lma_deepar", "deepar"):
            lma_cfg = cfg.section("lma") if name == "lma_deepar" else None
            covariates = assemble_covariates(
                train_panel, lma_cfg, train_cfg.horizon, day_of_week=train_cfg.day_of_week
            )
            model = train(train_panel, covariates, train_cfg, lma_cfg)
            models[name] = TrainedModelForecaster(model, sweep_cfg.n_samples, sweep_cfg.statistic)
        elif name == "seasonal_naive":
            models[name] = SeasonalNaiveForecaster(sweep_cfg.naive_season)
        else:
            models[name] = HoltWintersForecaster(cfg.section("holt_winters"))
    report = sweep(models, panel, split, sweep_cfg.steps, sweep_cfg.seed)
    pooled_path = cfg.path("report_pooled")
    stability_path = cfg.path("report_stability")
    write_report_csvs(report, pooled_path, stability_path)
    write_provenance(
        report,
        cfg.path("provenance"),
        extra={"command": "sweep", "config": cfg.data, "version": __version__},
    )
    if args.plots:
        write_svg_plots(report, cfg.path("plot_pooled"), cfg.path("plot_stability"))
    for name, message in report.failures.items():
        print(f"model {name} failed: {message}", file=sys.stderr)
    if not report.models:
        print("error: every model failed", file=sys.stderr)
        return 1
    summary = ", ".join(
        f"{name} {report.pooled_mean[i]:.6f}" for i, name in enumerate(report.models)
    )
    print(f"wrote {pooled_path} and {stability_path} (mean pooled RMSLE: {summary})")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "covariates": cmd_covariates,
    "train": cmd_train,
    "forecast": cmd_forecast,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def run_command(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.load(args.config, tuple(args.overrides))
        return _COMMANDS[args.command](cfg, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run_command()


if __name__ == "__main__":
    sys.exit(main())
