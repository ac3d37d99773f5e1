"""Evaluation harness: pooled and per-series RMSLE swept over horizons.

Two analyses share one protocol.  For every model the harness draws a single
max-horizon point forecast per series from the training range, then scores
each requested step s on the first s forecast days: the pooled RMSLE over
all series-day cells, and the population standard deviation of the
per-series RMSLE values (the stability view).  Reports gain a final mean row
over the steps.

Model predictions are clamped at 0 before any metric sees them.  A model
that raises is recorded as a failure and the remaining models still run.
All randomness flows through seed tuples, so a rerun writes byte-identical
report files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Protocol

import numpy as np

from ._fields import hashed_json, to_json
from ._fork import in_halves
from .baselines import HoltWintersConfig, holt_winters, seasonal_naive
from .deepar import MODEL_FORMAT_VERSION, Forecast, TrainedModel, point_forecast, sample_forecast
from .deepar.forecasting import ROUND_GROUPS, group_size
from .lma import assemble_covariates
from .panel import SeriesPanel, SplitSpec, split_panel, write_step_table

__all__ = [
    "DEFAULT_STEPS",
    "EvalError",
    "EvalReport",
    "Forecaster",
    "HoltWintersForecaster",
    "SeasonalNaiveForecaster",
    "TrainedModelForecaster",
    "rmsle_per_series",
    "rmsle_pooled",
    "score_steps",
    "stability_std",
    "sweep",
    "write_provenance",
    "write_report_csvs",
    "write_svg_plots",
]

DEFAULT_STEPS = tuple(range(15, 32))

_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class EvalError(ValueError):
    """Invalid evaluation inputs or an unusable sweep request."""


def _check_pair(actual: np.ndarray, predicted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.ndim != 2:
        raise EvalError(f"expected 2-D (series, steps) matrices, got {a.ndim}-D")
    if a.shape != p.shape:
        raise EvalError(f"shape mismatch: actual {a.shape} vs predicted {p.shape}")
    for name, m in (("actual", a), ("predicted", p)):
        if not np.all(np.isfinite(m)):
            raise EvalError(f"non-finite values in {name}")
        if np.any(m < 0):
            raise EvalError(f"negative values in {name}")
    return a, p


def _squared_log_errors(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """(log1p(predicted) - log1p(actual)) ** 2, cell by cell, after the checks."""
    a, p = _check_pair(actual, predicted)
    d = np.log1p(p) - np.log1p(a)
    return d * d


def rmsle_pooled(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared log error over every series-day cell (natural log)."""
    return float(np.sqrt(np.mean(np.mean(_squared_log_errors(actual, predicted), axis=1))))


def rmsle_per_series(actual: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Row-wise RMSLE: one value per series."""
    return np.sqrt(np.mean(_squared_log_errors(actual, predicted), axis=1))


def stability_std(per_series_rmsle: np.ndarray) -> float:
    """Population standard deviation of per-series RMSLE values."""
    v = np.asarray(per_series_rmsle, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise EvalError("per-series RMSLE values must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(v)):
        raise EvalError("non-finite per-series RMSLE values")
    return float(np.std(v))


def score_steps(
    actual: np.ndarray, predicted: np.ndarray, steps: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Score each step s on the first s days, predictions clamped at 0 first.

    Returns the pooled RMSLE curve and the stability curve (the std of the
    per-series RMSLE), each (n_steps,).
    """
    width = max(steps, default=0)
    actual = np.asarray(actual, dtype=np.float64)[:, :width]
    predicted = np.maximum(np.asarray(predicted, dtype=np.float64), 0.0)[:, :width]
    squared = _squared_log_errors(actual, predicted)
    pooled = np.empty(len(steps))
    stability = np.empty(len(steps))
    for k, s in enumerate(steps):
        # the same reductions as rmsle_per_series and rmsle_pooled on [:, :s]
        row_means = np.mean(squared[:, :s], axis=1)
        pooled[k] = np.sqrt(np.mean(row_means))
        stability[k] = stability_std(np.sqrt(row_means))
    return pooled, stability


class Forecaster(Protocol):
    """Anything the sweep can score: one point-forecast matrix per call."""

    def forecast_panel(
        self, train_panel: SeriesPanel, horizon: int, seed_ids: tuple[int, ...]
    ) -> np.ndarray: ...

    def describe(self) -> dict: ...


@dataclass(frozen=True)
class TrainedModelForecaster:
    """Adapter running a trained network over every series of a panel.

    Covariate channels are rebuilt from the training panel with the model's
    own configuration, the call ``train`` checks its covariates against, so
    a reloaded model forecasts exactly like the original.  Series i draws its trajectories from stream (*seed_ids, i), so
    each series' forecast is independent of the others.
    """

    model: TrainedModel
    n_samples: int = 100
    statistic: str = "median"

    def forecasts(
        self, train_panel: SeriesPanel, horizon: int, seed_ids: tuple[int, ...] = (0,)
    ) -> Iterator[Forecast]:
        """One sampled Forecast per series, in panel order.

        The horizon and channel checks and the covariate build run in this
        call, before the first series is sampled.  The series are sampled
        ``group_size(n_samples)`` per sampler call, through
        ``_fork.in_halves`` in rounds of ``ROUND_GROUPS`` groups' worth: with
        a second usable CPU a forked child samples the second half of each
        round ahead, while this process samples the first half as the
        iterator is consumed.  Grouping and splitting never change a byte.
        """
        cfg = self.model.train_config
        if horizon > cfg.horizon:
            raise EvalError(
                f"model trained for horizon {cfg.horizon} cannot forecast {horizon} steps"
            )
        cov = assemble_covariates(
            train_panel, self.model.lma_config, cfg.horizon, day_of_week=cfg.day_of_week
        )
        n_channels = 0 if cov is None else cov.n_channels
        if n_channels != self.model.n_channels:
            raise EvalError(
                f"panel produces {n_channels} covariate channels,"
                f" model expects {self.model.n_channels}"
            )
        per_group = group_size(self.n_samples)

        def sampling(lo: int, hi: int) -> Iterator[Forecast]:
            for start in range(lo, hi, per_group):
                rows = slice(start, min(start + per_group, hi))
                yield from sample_forecast(
                    self.model,
                    train_panel.values[rows],
                    cov.channels[rows] if cov is not None else None,
                    horizon=horizon,
                    n_samples=self.n_samples,
                    seed=[(*seed_ids, i) for i in range(rows.start, rows.stop)],
                )

        return in_halves(sampling, train_panel.n_series, ROUND_GROUPS * per_group)

    def forecast_panel(
        self, train_panel: SeriesPanel, horizon: int, seed_ids: tuple[int, ...] = (0,)
    ) -> np.ndarray:
        forecasts = self.forecasts(train_panel, horizon, seed_ids)
        return np.array([point_forecast(fc, self.statistic) for fc in forecasts])

    def describe(self) -> dict:
        lma = self.model.lma_config
        return {
            "kind": "deepar",
            "n_samples": self.n_samples,
            "statistic": self.statistic,
            "train_config": to_json(self.model.train_config),
            "lma_config": to_json(lma) if lma is not None else None,
            "format_version": MODEL_FORMAT_VERSION,
            "epoch_nll": list(self.model.epoch_nll),
        }


@dataclass(frozen=True)
class SeasonalNaiveForecaster:
    season: int = 7

    def forecast_panel(
        self, train_panel: SeriesPanel, horizon: int, seed_ids: tuple[int, ...] = (0,)
    ) -> np.ndarray:
        return seasonal_naive(train_panel.values, self.season, horizon)

    def describe(self) -> dict:
        return {"kind": "seasonal_naive", "season": self.season}


@dataclass(frozen=True)
class HoltWintersForecaster:
    config: HoltWintersConfig = field(default_factory=HoltWintersConfig)

    def forecast_panel(
        self, train_panel: SeriesPanel, horizon: int, seed_ids: tuple[int, ...] = (0,)
    ) -> np.ndarray:
        return holt_winters(train_panel.values, self.config, horizon)

    def describe(self) -> dict:
        return {"kind": "holt_winters", **to_json(self.config)}


@dataclass(frozen=True)
class EvalReport:
    """Sweep result, exactly what the report files hold: per-model pooled and
    stability curves over the steps (read-only, one row per model that ran),
    the models that failed, and the provenance payload."""

    steps: tuple[int, ...]
    models: tuple[str, ...]
    pooled: np.ndarray
    stability: np.ndarray
    failures: dict[str, str]
    provenance: dict

    def __post_init__(self) -> None:
        steps = tuple(int(s) for s in self.steps)
        models = tuple(str(m) for m in self.models)
        pooled = np.asarray(self.pooled, dtype=np.float64)
        stability = np.asarray(self.stability, dtype=np.float64)
        if pooled.shape != (len(models), len(steps)) or stability.shape != pooled.shape:
            raise EvalError("pooled and stability must be (n_models, n_steps)")
        for name, m in (("pooled", pooled), ("stability", stability)):
            if not np.all(np.isfinite(m)):
                raise EvalError(f"non-finite values in {name}")
            if np.any(m < 0):
                raise EvalError(f"negative values in {name}")
            m.setflags(write=False)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "pooled", pooled)
        object.__setattr__(self, "stability", stability)
        object.__setattr__(self, "failures", dict(self.failures))
        object.__setattr__(self, "provenance", dict(self.provenance))

    @property
    def pooled_mean(self) -> np.ndarray:
        return self.pooled.mean(axis=1)

    def model_pooled(self, name: str) -> np.ndarray:
        return self.pooled[self.models.index(name)]


def sweep(
    models: dict[str, Forecaster],
    panel: SeriesPanel,
    split: SplitSpec,
    steps: tuple[int, ...] = DEFAULT_STEPS,
    seed: int = 0,
) -> EvalReport:
    """Score every named model at every step; see the module docstring.

    Models share the seed (and thus the per-series noise streams), which
    keeps pairwise comparisons low-variance.  A model that raises is dropped
    from the matrices and listed in failures instead.
    """
    steps = tuple(int(s) for s in steps)
    if not steps:
        raise EvalError("steps must be nonempty")
    if steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
        raise EvalError(f"steps must be strictly increasing and >= 1, got {steps}")
    if not models:
        raise EvalError("no models to evaluate")
    max_step = steps[-1]
    if max_step > split.horizon:
        raise EvalError(
            f"step {max_step} exceeds the {split.horizon}-day test range"
        )
    train_panel, test_panel = split_panel(panel, split)
    actual = test_panel.values
    n_series = panel.n_series

    ok_names: list[str] = []
    pooled_rows: list[np.ndarray] = []
    stability_rows: list[np.ndarray] = []
    failures: dict[str, str] = {}
    for name, forecaster in models.items():
        try:
            pred = np.asarray(
                forecaster.forecast_panel(train_panel, max_step, (seed,)),
                dtype=np.float64,
            )
            if pred.shape != (n_series, max_step):
                raise EvalError(
                    f"expected forecasts of shape ({n_series}, {max_step}), got {pred.shape}"
                )
            pooled, stab = score_steps(actual, pred, steps)
            ok_names.append(name)
            pooled_rows.append(pooled)
            stability_rows.append(stab)
        except Exception as exc:  # noqa: BLE001 - per-model isolation is the contract
            failures[name] = f"{type(exc).__name__}: {exc}"
    provenance = {
        "seed": int(seed),
        "steps": list(steps),
        "split": {"pred_start": split.pred_start, "pred_end": split.pred_end},
        "n_series": n_series,
        "models": {name: models[name].describe() for name in models},
        "failures": dict(failures),
    }
    return EvalReport(
        steps=steps,
        models=tuple(ok_names),
        pooled=np.array(pooled_rows).reshape(len(ok_names), len(steps)),
        stability=np.array(stability_rows).reshape(len(ok_names), len(steps)),
        failures=failures,
        provenance=provenance,
    )


def write_report_csvs(report: EvalReport, pooled_path: str, stability_path: str) -> None:
    """Step-by-model tables: pooled RMSLE and stability std, plus a mean row."""
    header = ("step", *report.models)
    write_step_table(pooled_path, header, report.steps, report.pooled)
    write_step_table(stability_path, header, report.steps, report.stability)


def write_provenance(report: EvalReport, path: str, extra: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(hashed_json({"provenance": report.provenance, **(extra or {})})[1])


def _svg_chart(
    steps: tuple[int, ...],
    curves: list[tuple[str, np.ndarray]],
    title: str,
    y_label: str,
) -> str:
    width, height = 640.0, 400.0
    left, right, top, bottom = 60.0, 470.0, 40.0, 360.0
    x_lo, x_hi = float(steps[0]), float(steps[-1])
    x_span = (x_hi - x_lo) or 1.0
    y_hi = max((float(v.max()) for _, v in curves), default=1.0)
    y_hi = y_hi * 1.05 or 1.0
    def sx(v: float) -> float:
        return left + (v - x_lo) / x_span * (right - left)
    def sy(v: float) -> float:
        return bottom - v / y_hi * (bottom - top)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}"'
        f' viewBox="0 0 {width:.0f} {height:.0f}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{(left + right) / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
    tick_steps = steps if len(steps) <= 12 else steps[::2]
    for s in tick_steps:
        x = sx(float(s))
        parts.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 4}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{bottom + 16:.1f}" text-anchor="middle">{s}</text>')
    for k in range(5):
        v = y_hi * k / 4
        y = sy(v)
        parts.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" text-anchor="end">{v:.3g}</text>')
    parts.append(
        f'<text x="18" y="{(top + bottom) / 2:.1f}" text-anchor="middle"'
        f' transform="rotate(-90 18 {(top + bottom) / 2:.1f})">{y_label}</text>'
    )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{bottom + 32:.1f}" text-anchor="middle">prediction step</text>'
    )
    for idx, (name, values) in enumerate(curves):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        points = " ".join(
            f"{sx(float(s)):.1f},{sy(float(v)):.1f}" for s, v in zip(steps, values)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = top + 14 + 16 * idx
        parts.append(
            f'<line x1="{right + 12:.1f}" y1="{ly:.1f}" x2="{right + 32:.1f}" y2="{ly:.1f}"'
            f' stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{right + 38:.1f}" y="{ly + 4:.1f}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg_plots(report: EvalReport, pooled_path: str, stability_path: str) -> None:
    """Static line charts of both report tables."""
    pooled_curves = [(name, report.pooled[i]) for i, name in enumerate(report.models)]
    stab_curves = [(name, report.stability[i]) for i, name in enumerate(report.models)]
    with open(pooled_path, "w") as fh:
        fh.write(_svg_chart(report.steps, pooled_curves, "Pooled RMSLE by prediction step", "pooled RMSLE"))
    with open(stability_path, "w") as fh:
        fh.write(_svg_chart(report.steps, stab_curves, "Per-series RMSLE dispersion by step", "std of per-series RMSLE"))
