"""Ancestral-sampling prediction.

The conditioning pass and the sampling pass run the same network with the
same parameter object.  A forecast first replays the last context_length
conditioning steps from the all-zero state, then advances the trajectories
in blocks of BLOCK_ROWS, all blocks in one call per step, each step drawing
from the step's Gaussian and feeding the raw draw back as the next lag.
A group of series runs through both passes together, stacked as
(series, blocks, rows, features), one call per step for the whole group.
Each trajectory owns an independent seed sub-stream, so the sample matrix
does not depend on computation order, on how the series are grouped or on
how many trajectories the caller asked for (a larger request extends the
matrix row-wise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .._rng import substream
from .network import advance, cut_windows, forward_window
from .training import TrainedModel

__all__ = [
    "Forecast",
    "ForecastError",
    "ForecastGroup",
    "group_size",
    "point_forecast",
    "sample_forecast",
]

POINT_STATISTICS = ("median", "mean")

# Trajectories run through the network in blocks of this many rows, the last
# block padded.  A BLAS kernel may round row s of a matrix product differently
# depending on how many rows the product has, so a fixed block shape is what
# keeps trajectory s bit-identical however many samples are requested.
BLOCK_ROWS = 8

# A group of series is sampled in one pass of at most this many blocks (one
# series at least): 32 series at 1-8 samples, 2 at 100.  Each call costs a
# fixed Python dispatch, which stacking spreads over the group, while the
# elementwise passes' temporaries grow with it.  On the benchmark 64 blocks
# ran no faster than 32 and raised a forecast's peak memory further, and 12
# ran slower.
GROUP_BLOCKS = 32

# A panel is forecast in rounds of this many groups' worth of series, and
# with a second CPU a forked child samples the second half of each round.
# The round bounds what the child sends back at once: at 100 samples x 31
# steps its half is 64 series, 1.6 MB, where a whole 5,000-series panel's
# half would be 62 MB.
ROUND_GROUPS = 64


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


def group_size(n_samples: int) -> int:
    """How many series one sampler call takes when each draws n_samples trajectories."""
    return max(1, GROUP_BLOCKS // max(1, -(-n_samples // BLOCK_ROWS)))


@dataclass(frozen=True)
class ForecastGroup:
    """Forecasts of a group of series sampled together.

    samples is (series, n_samples, horizon); iterating yields one Forecast
    per series, in order.
    """

    samples: np.ndarray
    scales: np.ndarray
    seeds: tuple[tuple[int, ...], ...]

    def __iter__(self) -> Iterator[Forecast]:
        for samples, scale, seed in zip(self.samples, self.scales, self.seeds):
            yield Forecast(samples, scale, seed)


def sample_forecast(
    model: TrainedModel,
    conditioning: np.ndarray,
    covariates: np.ndarray | None = None,
    *,
    horizon: int | None = None,
    n_samples: int = 100,
    seed: int | tuple[int, ...] | Sequence[int | tuple[int, ...]] = 0,
) -> Forecast | ForecastGroup:
    """Draw n_samples trajectories over the steps after the conditioning range.

    conditioning holds at least context_length observed values in data units.
    covariates is (K, M + horizon) channel rows aligned with the conditioning
    steps and extending through the horizon (extra trailing columns are
    ignored), or None for a covariate-free model.  The scale is taken over
    the last context_length conditioning steps, the same range the encoder
    replays.  seed may be a tuple so callers can hand every series its own
    sub-stream; trajectory s always draws from stream (*seed, s).

    A group of series of one length is sampled in one pass: conditioning
    (S, M), covariates (S, K, M + horizon) and seed a sequence of S seeds,
    one per series.  The result is a ForecastGroup whose rows are
    bit-identical to sampling each series alone.
    """
    conditioning = np.asarray(conditioning, dtype=np.float64)
    if conditioning.ndim == 1:
        cov = None if covariates is None else np.asarray(covariates, dtype=np.float64)[None]
        (forecast,) = _sample_group(model, conditioning[None], cov, horizon, n_samples, [seed])
        return forecast
    if conditioning.ndim != 2 or conditioning.shape[0] == 0:
        raise ForecastError(
            f"conditioning must be one series (M,) or a group (S, M), got shape {conditioning.shape}"
        )
    if not isinstance(seed, (list, tuple)) or len(seed) != conditioning.shape[0]:
        raise ForecastError(f"a group of {conditioning.shape[0]} series needs one seed per series")
    return _sample_group(model, conditioning, covariates, horizon, n_samples, seed)


def _sample_group(
    model: TrainedModel,
    conditioning: np.ndarray,
    covariates: np.ndarray | None,
    horizon: int | None,
    n_samples: int,
    seeds: Sequence[int | tuple[int, ...]],
) -> ForecastGroup:
    seeds = tuple(_seed_ids(s) for s in seeds)
    cfg = model.train_config
    if horizon is None:
        horizon = cfg.horizon
    if horizon < 1:
        raise ForecastError(f"horizon must be >= 1, got {horizon}")
    if n_samples < 1:
        raise ForecastError(f"n_samples must be >= 1, got {n_samples}")
    n_series, m = conditioning.shape
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
    if n_channels == 0 and covariates is not None:
        raise ForecastError("model takes no covariates but covariates were given")
    if n_channels:
        if covariates is None:
            raise ForecastError(f"model expects {n_channels} covariate channels, got none")
        covariates = np.asarray(covariates, dtype=np.float64)
        if covariates.shape[:2] != (n_series, n_channels) or covariates.ndim != 3:
            raise ForecastError(
                f"expected covariates of {n_channels} channels x >= {m + horizon} steps"
                f" per series, got shape {covariates.shape[1:]}"
            )
        if covariates.shape[2] < m + horizon:
            raise ForecastError(
                f"covariates cover {covariates.shape[2]} steps,"
                f" conditioning + horizon needs {m + horizon}"
            )
        if not np.all(np.isfinite(covariates)):
            raise ForecastError("non-finite covariate values")

    z, x_enc, scales = cut_windows(
        conditioning, covariates, np.arange(n_series), np.full(n_series, m - context), context, context
    )
    # The encoder advances every series in one call per step, each as its own
    # one-row slice, so each keeps the (1, D) product it has alone.
    _, _, (enc_h, enc_c) = forward_window(z[:, :-1], x_enc, model.params, scales, cfg.sigma_floor)

    n_blocks = -(-n_samples // BLOCK_ROWS)
    eps = np.zeros((n_series, n_blocks * BLOCK_ROWS, horizon))
    for i, seed_ids in enumerate(seeds):
        for s in range(n_samples):
            eps[i, s] = substream(*seed_ids, s).standard_normal(horizon)
    eps = eps.reshape(n_series, n_blocks, BLOCK_ROWS, horizon)
    samples = np.empty_like(eps)
    # Every block of every series advances in the same call, but stays its
    # own (8, D) slice of the stacked matrix product, so each row sees the
    # gemm it would see alone.  Flattening the blocks into one (rows, D)
    # matrix would change how the products round.
    state_shape = (model.params.num_layers, n_series, n_blocks, BLOCK_ROWS, model.params.hidden_size)
    h = np.broadcast_to(enc_h[:, :, None, None, :], state_shape).copy()
    c = np.broadcast_to(enc_c[:, :, None, None, :], state_shape).copy()
    x = np.empty((n_series, n_blocks, BLOCK_ROWS, 1 + n_channels))
    x[..., 0] = (z[:, -1] / scales)[:, None, None]
    for t in range(horizon):
        if n_channels:
            x[..., 1:] = covariates[:, None, None, :, m + t]
        mu, sigma = advance(x, h, c, model.params, cfg.sigma_floor)
        samples[..., t] = x[..., 0] = mu + sigma * eps[..., t]
    samples = samples.reshape(n_series, -1, horizon)[:, :n_samples]
    return ForecastGroup(np.maximum(samples * scales[:, None, None], 0.0), scales, seeds)


def point_forecast(forecast: Forecast, statistic: str = "median") -> np.ndarray:
    """Collapse the sample matrix to one value per step."""
    if statistic == "median":
        return np.median(forecast.samples, axis=0)
    if statistic == "mean":
        return forecast.samples.mean(axis=0)
    raise ForecastError(
        f"unknown point statistic {statistic!r}, expected one of {POINT_STATISTICS}"
    )
