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

from ._fields import hashed_json, is_increasing_counts, to_json
from ._fork import in_halves
from .baselines import HoltWintersConfig, holt_winters, seasonal_naive
from .deepar import MODEL_FORMAT_VERSION, TrainedModel, point_forecast, sample_forecast
from .deepar.forecasting import group_size
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

# A panel is forecast in rounds of this many groups' worth of series, and
# with a second CPU a forked child samples the second half of each round.
# The round bounds what the child sends back at once: at 100 samples x 31
# steps its half is 64 series, 1.6 MB, where a whole 5,000-series panel's
# half would be 62 MB.
ROUND_GROUPS = 64

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
    if a.size == 0:
        raise EvalError(f"matrices of shape {a.shape} hold no series or no days")
    for name, m in (("actual", a), ("predicted", p)):
        if not np.all(np.isfinite(m)):
            raise EvalError(f"non-finite values in {name}")
        if np.any(m < 0):
            raise EvalError(f"negative values in {name}")
    return a, p


def _check_steps(steps: tuple[int, ...]) -> tuple[int, ...]:
    """``steps`` as a tuple of ints when they are nonempty, strictly increasing integers >= 1."""
    steps = tuple(steps)
    if not is_increasing_counts(steps):
        raise EvalError(f"steps must be nonempty, strictly increasing integers >= 1, got {steps}")
    return tuple(int(s) for s in steps)


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
    per-series RMSLE), each (n_steps,).  Every argument is checked once, up
    front: steps nonempty, strictly increasing integers >= 1, and two 2-D
    (series, days) matrices whose first steps[-1] days exist, are finite and
    non-negative once clamped, and have one shape with at least one series.
    """
    steps = _check_steps(steps)
    width = steps[-1]
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.ndim != 2 or predicted.ndim != 2:
        raise EvalError("expected 2-D (series, steps) matrices")
    days = min(actual.shape[1], predicted.shape[1])
    if width > days:
        raise EvalError(f"step {width} exceeds the {days} days the matrices hold")
    squared = _squared_log_errors(actual[:, :width], np.maximum(predicted[:, :width], 0.0))
    pooled = np.empty(len(steps))
    stability = np.empty(len(steps))
    for k, s in enumerate(steps):
        # the same reductions as rmsle_per_series, rmsle_pooled and
        # stability_std on [:, :s]
        row_means = np.mean(squared[:, :s], axis=1)
        pooled[k] = np.sqrt(np.mean(row_means))
        stability[k] = np.std(np.sqrt(row_means))
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
    a reloaded model forecasts exactly like the original.  Series i draws
    its trajectories from stream (*seed_ids, i), so each series' forecast
    is independent of the others.
    """

    model: TrainedModel
    n_samples: int = 100
    statistic: str = "median"

    def forecasts(
        self, train_panel: SeriesPanel, horizon: int, seed_ids: tuple[int, ...] = (0,)
    ) -> Iterator[np.ndarray]:
        """One read-only (n_samples, horizon) sample matrix per series, in
        panel order.

        The horizon check and the covariate build run in this call, and
        ``sample_forecast`` checks the rest before the first series is
        sampled.  The series go through ``_fork.in_halves`` in rounds of
        ``ROUND_GROUPS`` groups of ``group_size(n_samples)`` series, one
        sampler call per round: with a second usable CPU a forked child
        samples the second half of each round ahead, in a call of its own,
        while this process samples the first half when the iterator reaches
        it.  Grouping and splitting never change a byte.
        """
        cfg = self.model.train_config
        if horizon > cfg.horizon:
            raise EvalError(
                f"model trained for horizon {cfg.horizon} cannot forecast {horizon} steps"
            )
        cov = assemble_covariates(
            train_panel, self.model.lma_config, cfg.horizon, day_of_week=cfg.day_of_week
        )

        def sampling(lo: int, hi: int) -> np.ndarray:
            return sample_forecast(
                self.model,
                train_panel.values[lo:hi],
                cov.channels[lo:hi] if cov is not None else None,
                horizon=horizon,
                n_samples=self.n_samples,
                seeds=[(*seed_ids, i) for i in range(lo, hi)],
            ).samples

        per_round = ROUND_GROUPS * group_size(self.n_samples)
        return in_halves(sampling, train_panel.n_series, per_round)

    def forecast_panel(
        self, train_panel: SeriesPanel, horizon: int, seed_ids: tuple[int, ...] = (0,)
    ) -> np.ndarray:
        forecasts = self.forecasts(train_panel, horizon, seed_ids)
        return np.array([point_forecast(samples, self.statistic) for samples in forecasts])

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
    stability curves over the steps (float64, read-only, one row per model
    that ran), the models that failed, and the provenance payload.  Only
    ``sweep`` builds it, each field in its final form, so it checks nothing.
    """

    steps: tuple[int, ...]
    models: tuple[str, ...]
    pooled: np.ndarray
    stability: np.ndarray
    failures: dict[str, str]
    provenance: dict

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
    steps = _check_steps(steps)
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
            ok_names.append(str(name))
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
    curves = np.array([pooled_rows, stability_rows], dtype=np.float64)
    curves = curves.reshape(2, len(ok_names), len(steps))
    curves.setflags(write=False)
    return EvalReport(steps, tuple(ok_names), curves[0], curves[1], failures, provenance)


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
