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
import re
import sys

import numpy as np

from . import __version__
from ._fields import hashed_json
from ._fork import in_halves
from .config import ConfigError, RunConfig
from .deepar import load_model, point_forecast, save_model, train
from .evalharness import (
    HoltWintersForecaster,
    SeasonalNaiveForecaster,
    TrainedModelForecaster,
    score_steps,
    sweep,
    write_provenance,
    write_report_csvs,
    write_svg_plots,
)
from .lma import assemble_covariates, export_covariates
from .panel import SeriesPanel, load_panel, read_long, split_panel, write_long, write_panel, write_step_table
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
    # Not write_provenance: perfbench times calls to that name as report writing.
    payload = {"command": command, "config": cfg.data, "version": __version__}
    with open(artifact_path + ".provenance.json", "w") as fh:
        fh.write(hashed_json(payload)[1])


def _train_args(cfg: RunConfig, train_panel: SeriesPanel, with_lma: bool) -> tuple:
    """train's arguments for one network: the panel, the covariates that the
    train and lma sections build from it, and those sections."""
    train_cfg = cfg.section("train")
    lma_cfg = cfg.section("lma") if with_lma else None
    covariates = assemble_covariates(
        train_panel, lma_cfg, train_cfg.horizon, day_of_week=train_cfg.day_of_week
    )
    return train_panel, covariates, train_cfg, lma_cfg


def cmd_generate(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = generate_panel(cfg.section("synth"))
    out = cfg.path("panel")
    write_panel(panel, out)
    _write_sidecar(out, "generate", cfg)
    print(f"wrote {out} ({panel.n_series} series x {panel.n_steps} steps)")
    return 0


def cmd_covariates(cfg: RunConfig, args: argparse.Namespace) -> int:
    train_panel, _ = split_panel(load_panel(cfg.path("panel")), cfg.section("split"))
    _, covariates, _, _ = _train_args(cfg, train_panel, with_lma=True)
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
    train_panel, _ = split_panel(load_panel(cfg.path("panel")), cfg.section("split"))
    model = train(*_train_args(cfg, train_panel, with_lma))
    out = cfg.path("model")
    save_model(model, out)
    _write_sidecar(out, "train", cfg)
    label = "with" if with_lma else "without"
    curve = ""
    if model.epoch_nll:
        curve = f", NLL {model.epoch_nll[0]:.4f} -> {model.epoch_nll[-1]:.4f}"
    print(f"wrote {out} ({label} moving-average channels, {model.train_config.epochs} epochs{curve})")
    return 0


def cmd_forecast(cfg: RunConfig, args: argparse.Namespace) -> int:
    sweep_cfg = cfg.section("sweep")
    n_samples = sweep_cfg.n_samples
    forecaster = TrainedModelForecaster(
        load_model(cfg.path("model")), n_samples, sweep_cfg.statistic
    )
    split = cfg.section("split")
    train_panel, _ = split_panel(load_panel(cfg.path("panel")), split)
    horizon = split.horizon
    forecasts = forecaster.forecasts(train_panel, horizon, (sweep_cfg.seed,))
    samples_path = cfg.path("forecast_samples")
    point_path = cfg.path("forecast_point")
    steps = range(1, horizon + 1)
    points = []

    def samples():
        for fc in forecasts:
            points.append(point_forecast(fc, forecaster.statistic))
            yield fc.samples.T

    ids = train_panel.series_ids
    keys = [(t, s) for t in steps for s in range(n_samples)]
    write_long(samples_path, ("series_id", "step", "sample_id", "value"), ids, keys, samples())
    write_long(point_path, ("series_id", "step", "value"), ids, [(t,) for t in steps], points)
    _write_sidecar(samples_path, "forecast", cfg)
    _write_sidecar(point_path, "forecast", cfg)
    print(
        f"wrote {samples_path} and {point_path}"
        f" ({train_panel.n_series} series, {horizon} steps, {n_samples} samples)"
    )
    return 0


def _load_point_forecast(path: str, series_ids: tuple[str, ...], max_step: int) -> np.ndarray:
    def parse_step(text: str) -> int:
        # int() would also take "1_0", " 1", "+1" and non-ASCII digits
        if not re.fullmatch(r"-?[0-9]+", text):
            raise ValueError(f"bad step {text!r}")
        step = int(text)
        if not 1 <= step <= max_step:
            raise ValueError(f"step {step} outside the {max_step}-day test range")
        return step

    by_series = read_long(path, ("series_id", "step", "value"), parse_step, CliError, False)
    if set(by_series) != set(series_ids):
        raise CliError(f"{path}: forecast series do not match the panel")
    horizons = {max(steps) for steps in by_series.values()}
    if len(horizons) != 1:
        raise CliError(f"{path}: unequal forecast horizons across series")
    horizon = horizons.pop()
    out = np.empty((len(series_ids), horizon))
    for i, sid in enumerate(series_ids):
        # every step lies in 1..horizon, so a full series has horizon of them
        if len(by_series[sid]) != horizon:
            raise CliError(f"{path}: missing steps for {sid}")
        out[i] = [by_series[sid][t] for t in range(1, horizon + 1)]
    return out


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    panel = load_panel(cfg.path("panel"))
    split = cfg.section("split")
    _, test_panel = split_panel(panel, split)
    pred = _load_point_forecast(cfg.path("forecast_point"), panel.series_ids, split.horizon)
    steps = tuple(range(1, pred.shape[1] + 1))
    pooled, stability = score_steps(test_panel.values, pred, steps)
    out = cfg.path("metrics")
    write_step_table(out, ("step", "pooled_rmsle", "stability_std"), steps, (pooled, stability))
    _write_sidecar(out, "evaluate", cfg)
    print(
        f"wrote {out} (pooled RMSLE at {steps[-1]} steps:"
        f" {pooled[-1]:.6f}, stability {stability[-1]:.6f})"
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
    networks = [name for name in sweep_cfg.models if name in ("lma_deepar", "deepar")]
    if networks and sweep_cfg.steps[-1] > train_cfg.horizon:
        # the trained networks would all be dropped by sweep as EvalErrors
        raise ConfigError(
            f"sweep.steps: step {sweep_cfg.steps[-1]} exceeds train.horizon"
            f" {train_cfg.horizon}, the longest forecast the networks learn"
        )
    jobs = [_train_args(cfg, train_panel, name == "lma_deepar") for name in networks]

    def training(lo: int, hi: int) -> list:
        return [train(*job) for job in jobs[lo:hi]]

    # training is pure, so the first listed network's error wins either way
    trained = dict(zip(networks, in_halves(training, len(jobs))))
    models = {}
    for name in sweep_cfg.models:
        if name in trained:
            models[name] = TrainedModelForecaster(
                trained[name], sweep_cfg.n_samples, sweep_cfg.statistic
            )
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
    except (ValueError, MemoryError) as exc:
        # numpy's MemoryError names the allocation that failed; Python's is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> int:
    return run_command()


if __name__ == "__main__":
    sys.exit(main())
