"""Ancestral-sampling prediction.

The conditioning pass and the sampling pass run the same network with the
same parameter object.  A forecast first replays the last context_length
conditioning steps from the all-zero state, then advances the trajectories
in blocks of BLOCK_ROWS, all blocks in one call per step, each step drawing
from the step's Gaussian and feeding the raw draw back as the next lag.
Each trajectory owns an independent seed sub-stream, so the sample matrix
does not depend on computation order or on how many trajectories the caller
asked for (a larger request extends the matrix row-wise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import substream
from .network import advance, forward_window, series_scale
from .training import TrainedModel

__all__ = ["Forecast", "ForecastError", "point_forecast", "sample_forecast"]

POINT_STATISTICS = ("median", "mean")

# Trajectories run through the network in blocks of this many rows, the last
# block padded.  A BLAS kernel may round row s of a matrix product differently
# depending on how many rows the product has, so a fixed block shape is what
# keeps trajectory s bit-identical however many samples are requested.
BLOCK_ROWS = 8


class ForecastError(ValueError):
    """Invalid forecast request or inputs."""


def _seed_ids(seed: int | tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    if not isinstance(seed, tuple) or not all(
        isinstance(v, (int, np.integer)) for v in seed
    ):
        raise ForecastError(f"seed must be an int or a tuple of ints, got {seed!r}")
    if not seed:
        raise ForecastError("seed tuple must be nonempty")
    return tuple(int(v) for v in seed)


@dataclass(frozen=True)
class Forecast:
    """Sampled trajectories in data units: (n_samples, horizon), all >= 0."""

    samples: np.ndarray
    scale: float
    seed: tuple[int, ...]

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 1 or samples.shape[1] < 1:
            raise ForecastError(f"samples must be (S, horizon) with S >= 1, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ForecastError("non-finite values in forecast samples")
        if np.any(samples < 0):
            raise ForecastError("negative values in forecast samples")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "seed", _seed_ids(self.seed))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def horizon(self) -> int:
        return self.samples.shape[1]


def sample_forecast(
    model: TrainedModel,
    conditioning: np.ndarray,
    covariates: np.ndarray | None = None,
    *,
    horizon: int | None = None,
    n_samples: int = 100,
    seed: int | tuple[int, ...] = 0,
) -> Forecast:
    """Draw n_samples trajectories over the steps after the conditioning range.

    conditioning holds at least context_length observed values in data units.
    covariates is (K, M + horizon) channel rows aligned with the conditioning
    steps and extending through the horizon (extra trailing columns are
    ignored), or None for a covariate-free model.  The scale is taken over
    the last context_length conditioning steps, the same range the encoder
    replays.  seed may be a tuple so callers can hand every series its own
    sub-stream; trajectory s always draws from stream (*seed, s).
    """
    seed_ids = _seed_ids(seed)
    cfg = model.train_config
    if horizon is None:
        horizon = cfg.horizon
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    if n_samples < 1:
        raise ForecastError(f"n_samples must be >= 1, got {n_samples}")
    conditioning = np.asarray(conditioning, dtype=np.float64)
    if conditioning.ndim != 1:
        raise ForecastError("conditioning must be a 1-D sequence")
    m = conditioning.size
    context = cfg.context_length
    if m < context:
        raise ForecastError(
            f"conditioning has {m} steps, model needs at least {context}"
        )
    if not np.all(np.isfinite(conditioning)):
        raise ForecastError("non-finite conditioning values")
    if np.any(conditioning < 0):
        raise ForecastError("negative conditioning values")
    n_channels = model.n_channels
    if n_channels == 0:
        if covariates is not None:
            raise ForecastError("model takes no covariates but covariates were given")
        x_enc = None
    else:
        if covariates is None:
            raise ForecastError(f"model expects {n_channels} covariate channels, got none")
        covariates = np.asarray(covariates, dtype=np.float64)
        if covariates.ndim != 2 or covariates.shape[0] != n_channels:
            raise ForecastError(
                f"expected covariates of shape ({n_channels}, >= {m + horizon}),"
                f" got {covariates.shape}"
            )
        if covariates.shape[1] < m + horizon:
            raise ForecastError(
                f"covariates cover {covariates.shape[1]} steps,"
                f" conditioning + horizon needs {m + horizon}"
            )
        if not np.all(np.isfinite(covariates)):
            raise ForecastError("non-finite covariate values")
        x_enc = covariates[:, m - context : m].T

    scale = series_scale(conditioning[m - context :])
    targets = conditioning[m - context :]
    lags = np.empty(context)
    lags[1:] = targets[:-1]
    lags[0] = conditioning[m - context - 1] if m > context else 0.0
    _, _, (enc_h, enc_c) = forward_window(lags, x_enc, model.params, scale, cfg.sigma_floor)

    n_blocks = -(-n_samples // BLOCK_ROWS)
    eps = np.zeros((n_blocks * BLOCK_ROWS, horizon))
    for s in range(n_samples):
        eps[s] = substream(*seed_ids, s).standard_normal(horizon)
    eps = eps.reshape(n_blocks, BLOCK_ROWS, horizon)
    samples = np.empty_like(eps)
    # Every block advances in the same call, but stays its own (8, D) slice
    # of the stacked matrix product, so each row sees the gemm it would see
    # alone.  Flattening the blocks into one (n_blocks*8, D) matrix would
    # change how the products round.
    state_shape = (model.params.num_layers, n_blocks, BLOCK_ROWS, model.params.hidden_size)
    h = np.broadcast_to(enc_h[:, None, None, :], state_shape).copy()
    c = np.broadcast_to(enc_c[:, None, None, :], state_shape).copy()
    x = np.empty((n_blocks, BLOCK_ROWS, 1 + n_channels))
    x[..., 0] = conditioning[-1] / scale
    for t in range(horizon):
        if n_channels:
            x[..., 1:] = covariates[:, m + t]
        mu, sigma = advance(x, h, c, model.params, cfg.sigma_floor)
        samples[..., t] = x[..., 0] = mu + sigma * eps[..., t]
    rescaled = np.maximum(samples.reshape(-1, horizon)[:n_samples] * scale, 0.0)
    return Forecast(rescaled, scale, seed_ids)


def point_forecast(forecast: Forecast, statistic: str = "median") -> np.ndarray:
    """Collapse the sample matrix to one value per step."""
    if statistic == "median":
        return np.median(forecast.samples, axis=0)
    if statistic == "mean":
        return forecast.samples.mean(axis=0)
    raise ForecastError(
        f"unknown point statistic {statistic!r}, expected one of {POINT_STATISTICS}"
    )
