"""Reference forecasters: seasonal naive and additive Holt-Winters.

Both are pure functions of the training values, given as one series ``(n,)``
or as a ``(series, steps)`` matrix; every row is forecast on its own, along
the last axis, and a matrix's rows equal the per-series calls bit for bit.
Holt-Winters runs the classic additive level/trend/seasonal recursions with
fixed smoothing coefficients; there is no likelihood fitting.  Negative
forecasts are possible (additive model) and are left to the evaluation layer
to clamp.
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
    if values.ndim == 0:
        raise BaselineError("train must be a series or a (series, steps) matrix")
    if values.shape[-1] < min_len:
        raise BaselineError(
            f"train has {values.shape[-1]} values, {what} needs at least {min_len}"
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
    n = values.shape[-1]
    steps = np.arange(horizon)
    return values[..., n - season + steps % season]


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Initialize from the first two seasons, then run the recursions.

    Returns, per row, the final level and trend, the seasonal state (indexed
    by phase t mod season) and the one-step-ahead fitted values for the
    smoothed range (positions season..n-1).  The recursion runs once over
    time for every row at once.
    """
    m = cfg.season
    n = values.shape[-1]
    first = values[..., :m]
    level = np.mean(first, axis=-1)
    trend = (np.mean(values[..., m : 2 * m], axis=-1) - level) / m
    # time-major copies: each step reads and writes one contiguous row
    by_time = np.moveaxis(values, -1, 0).copy()
    seasonal = np.moveaxis(first - level[..., None], -1, 0).copy()
    fitted = np.empty((n - m, *values.shape[:-1]))
    for t in range(m, n):
        phase = t % m
        fitted[t - m] = level + trend + seasonal[phase]
        prev_level = level
        level = cfg.alpha * (by_time[t] - seasonal[phase]) + (1.0 - cfg.alpha) * (level + trend)
        trend = cfg.beta * (level - prev_level) + (1.0 - cfg.beta) * trend
        seasonal[phase] = cfg.gamma * (by_time[t] - level) + (1.0 - cfg.gamma) * seasonal[phase]
    return level, trend, np.moveaxis(seasonal, 0, -1), np.moveaxis(fitted, 0, -1)


def holt_winters(train: np.ndarray, cfg: HoltWintersConfig, horizon: int) -> np.ndarray:
    """Additive Holt-Winters forecast for the steps after the training range."""
    if horizon < 1:
        raise BaselineError(f"horizon must be >= 1, got {horizon}")
    values = _check_train(train, 2 * cfg.season, "holt_winters")
    # Values near the float64 limit overflow the smoothing state; the check
    # below reports that once, in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        level, trend, seasonal, _ = _smoothing_pass(values, cfg)
    if not all(np.isfinite(a).all() for a in (level, trend, seasonal)):
        raise BaselineError(
            f"train values up to {values.max():g} are too large for the smoothing state"
        )
    n = values.shape[-1]
    steps = np.arange(1, horizon + 1)
    return (
        level[..., None] + steps * trend[..., None] + seasonal[..., (n + steps - 1) % cfg.season]
    )
