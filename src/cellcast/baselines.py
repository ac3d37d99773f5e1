"""Reference forecasters: seasonal naive and additive Holt-Winters.

Both are pure functions of the training values.  Holt-Winters runs the
classic additive level/trend/seasonal recursions with fixed smoothing
coefficients; there is no likelihood fitting.  Negative forecasts are
possible (additive model) and are left to the evaluation layer to clamp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fields import check_field_types

__all__ = ["BaselineError", "HoltWintersConfig", "holt_winters", "seasonal_naive"]


class BaselineError(ValueError):
    """Invalid baseline configuration or unusable training values."""


def _check_train(train: np.ndarray, min_len: int, what: str) -> np.ndarray:
    values = np.asarray(train, dtype=np.float64)
    if values.ndim != 1:
        raise BaselineError("train must be a 1-D sequence")
    if values.size < min_len:
        raise BaselineError(
            f"train has {values.size} values, {what} needs at least {min_len}"
        )
    if not np.all(np.isfinite(values)):
        raise BaselineError("non-finite values in train")
    return values


def seasonal_naive(train: np.ndarray, season: int, horizon: int) -> np.ndarray:
    """Repeat the last full season: forecast h = value one season cycle back."""
    if season < 1:
        raise BaselineError(f"season must be >= 1, got {season}")
    if horizon < 1:
        raise BaselineError(f"horizon must be >= 1, got {horizon}")
    values = _check_train(train, season, "seasonal_naive")
    n = values.size
    steps = np.arange(horizon)
    return values[n - season + (steps % season)].copy()


@dataclass(frozen=True)
class HoltWintersConfig:
    season: int = 7
    alpha: float = 0.3
    beta: float = 0.05
    gamma: float = 0.1

    def __post_init__(self) -> None:
        check_field_types(self, BaselineError)
        if self.season < 1:
            raise BaselineError(f"season must be >= 1, got {self.season}")
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise BaselineError(f"{name} must lie in [0, 1], got {v}")


def _smoothing_pass(
    values: np.ndarray, cfg: HoltWintersConfig
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Initialize from the first two seasons, then run the recursions.

    Returns the final level and trend, the seasonal state (indexed by
    phase t mod season), and the one-step-ahead fitted values for the
    smoothed range (positions season..n-1).
    """
    m = cfg.season
    first = values[:m]
    second = values[m : 2 * m]
    level = float(np.mean(first))
    trend = (float(np.mean(second)) - float(np.mean(first))) / m
    seasonal = first - float(np.mean(first))
    seasonal = seasonal.astype(np.float64)
    fitted = np.empty(values.size - m)
    for t in range(m, values.size):
        phase = t % m
        fitted[t - m] = level + trend + seasonal[phase]
        prev_level = level
        level = cfg.alpha * (values[t] - seasonal[phase]) + (1.0 - cfg.alpha) * (
            level + trend
        )
        trend = cfg.beta * (level - prev_level) + (1.0 - cfg.beta) * trend
        seasonal[phase] = cfg.gamma * (values[t] - level) + (1.0 - cfg.gamma) * seasonal[
            phase
        ]
    return level, trend, seasonal, fitted


def holt_winters(train: np.ndarray, cfg: HoltWintersConfig, horizon: int) -> np.ndarray:
    """Additive Holt-Winters forecast for the steps after the training range."""
    if horizon < 1:
        raise BaselineError(f"horizon must be >= 1, got {horizon}")
    values = _check_train(train, 2 * cfg.season, "holt_winters")
    # Values near the float64 limit overflow the smoothing state; the check
    # below reports that once, in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        level, trend, seasonal, _ = _smoothing_pass(values, cfg)
    if not np.isfinite([level, trend, *seasonal]).all():
        raise BaselineError(
            f"train values up to {values.max():g} are too large for the smoothing state"
        )
    n = values.size
    m = cfg.season
    steps = np.arange(1, horizon + 1)
    return level + steps * trend + seasonal[(n + steps - 1) % m]
