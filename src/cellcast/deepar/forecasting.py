"""Ancestral-sampling prediction.

The conditioning pass and the sampling pass run the same network with the
same parameter object.  A forecast first replays the last context_length
conditioning steps from the all-zero state, then advances the trajectories
in blocks of BLOCK_ROWS, each step drawing from the step's Gaussian and
feeding the raw draw back as the next lag.  One call encodes all of its
series in one pass, stacked one row per series, then advances them
``group_size(n_samples)`` series at a time, stacked as (series, blocks,
rows, features), one call per step for a whole group, through one cell
workspace.  Each trajectory owns an independent seed sub-stream, keyed for
the whole call at once, so the sample matrix does not depend on computation
order, on how the series are grouped or on how many trajectories the caller
asked for (a larger request extends the matrix row-wise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._fields import is_count, is_int
from .._rng import substreams
from .network import advance, cell_workspace, cut_windows, forward_window, stacked_weights
from .training import TrainedModel

__all__ = [
    "Forecast",
    "ForecastError",
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

# The sampler advances a group of at most this many blocks at once (one
# series at least): 32 series at 1-8 samples, 2 at 100.  Each step costs a
# fixed Python dispatch, which stacking spreads over the group, while the
# cell workspace and the elementwise passes' memory traffic grow with it.
# With the workspace, 32 blocks beat 16 and 64 both on a 5-series,
# 100-sample forecast with the fork (medians 49-54 ms against 56-80 and
# 57-60) and on 50 series x 100 samples (384-410 ms against 408-782 and
# 414-505), two rounds each.
GROUP_BLOCKS = 32


class ForecastError(ValueError):
    """Invalid forecast request or inputs."""


def _seed_ids(seed: int | tuple[int, ...]) -> tuple[int, ...]:
    ids = seed if isinstance(seed, tuple) else (seed,)
    if not all(map(is_int, ids)):
        raise ForecastError(f"seed must be an int or a tuple of ints, got {seed!r}")
    if not ids:
        raise ForecastError("seed tuple must be nonempty")
    if any(v < 0 for v in ids):
        raise ForecastError(f"seed ids must be non-negative, got {seed!r}")
    return tuple(int(v) for v in ids)


@dataclass(frozen=True)
class Forecast:
    """Sampled trajectories of a group of series, in data units.

    samples is (series, n_samples, horizon), read-only, all >= 0; scales
    (series,) holds each series' scale over the window the encoder replays.
    """

    samples: np.ndarray
    scales: np.ndarray


def group_size(n_samples: int) -> int:
    """How many series one sampler call takes when each draws n_samples trajectories."""
    return max(1, GROUP_BLOCKS // max(1, -(-n_samples // BLOCK_ROWS)))


def sample_forecast(
    model: TrainedModel,
    conditioning: np.ndarray,
    covariates: np.ndarray | None = None,
    *,
    horizon: int | None = None,
    n_samples: int = 100,
    seeds: Sequence[int | tuple[int, ...]],
) -> Forecast:
    """Draw n_samples trajectories per series over the steps after the
    conditioning range.

    conditioning (S, M) holds S series of at least context_length observed
    values in data units.  covariates is (S, K, M + horizon) channel rows
    aligned with the conditioning steps and extending through the horizon
    (extra trailing columns are ignored), or None for a covariate-free
    model.  Each scale is taken over the series' last context_length
    conditioning steps, the range the encoder replays.  seeds holds one
    seed per series, an int or a tuple of ints, so callers can hand every
    series its own sub-stream; trajectory s of series i always draws from
    stream (*seeds[i], s).

    The encoder runs once over all S series and every trajectory's noise is
    keyed in one pass; the sampler then advances ``group_size(n_samples)``
    series at a time.  Row i of the result is bit-identical to sampling
    series i alone.

    Seed ids must be non-negative ints (bools are not ids), and n_samples
    and horizon ints >= 1; all are checked, with the other arguments, before
    any work.  Conditioning values whose mean overflows the series scale are
    a ForecastError too, and so is a draw that is not finite in data units.
    The network behind this call checks nothing again.
    """
    conditioning = np.asarray(conditioning, dtype=np.float64)
    if conditioning.ndim != 2 or conditioning.shape[0] == 0:
        raise ForecastError(
            f"conditioning must be a group of series (S, M), got shape {conditioning.shape}"
        )
    if not isinstance(seeds, (list, tuple)) or len(seeds) != conditioning.shape[0]:
        raise ForecastError(f"a group of {conditioning.shape[0]} series needs one seed per series")
    seeds = tuple(_seed_ids(s) for s in seeds)
    cfg = model.train_config
    if horizon is None:
        horizon = cfg.horizon
    for name, count in (("n_samples", n_samples), ("horizon", horizon)):
        if not is_count(count):
            raise ForecastError(f"{name} must be an integer >= 1, got {count!r}")
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

    try:
        z, x_enc, scales = cut_windows(
            conditioning, covariates, np.arange(n_series), np.full(n_series, m - context), context, context
        )
    except ValueError as exc:  # the series scale overflows
        raise ForecastError(str(exc)) from exc
    # The encoder advances every series in one call per step, each as its own
    # one-row slice, so each keeps the (1, D) product it has alone.
    _, _, (enc_h, enc_c) = forward_window(z[:, :-1], x_enc, model.params, scales, cfg.sigma_floor)

    n_blocks = -(-n_samples // BLOCK_ROWS)
    # each step's draws replace its noise, so the array ends as the samples
    samples = _noise(seeds, n_samples, n_blocks * BLOCK_ROWS, horizon)
    samples = samples.reshape(n_series, n_blocks, BLOCK_ROWS, horizon)
    # The series advance group_size(n_samples) at a time, every block of a
    # group in the same call, but each block stays its own (8, D) slice of
    # the stacked matrix product, so each row sees the gemm it would see
    # alone.  Flattening the blocks into one (rows, D) matrix would change
    # how the products round.  One state, input, cell workspace and weight
    # layout serve every group (the last one uses their leading rows), so a
    # step allocates no array of the group's size.
    params = model.params
    per_group = min(group_size(n_samples), n_series)
    rows = (per_group, n_blocks, BLOCK_ROWS)
    h_all = np.empty((params.num_layers, *rows, params.hidden_size))
    c_all = np.empty_like(h_all)
    x_all = np.empty((*rows, 1 + n_channels))
    work_all = cell_workspace(rows, params.hidden_size)
    weights = stacked_weights(params, rows)
    for lo in range(0, n_series, per_group):
        hi = min(lo + per_group, n_series)
        h, c, x = h_all[:, : hi - lo], c_all[:, : hi - lo], x_all[: hi - lo]
        work = work_all.take(slice(hi - lo))
        h[...] = enc_h[:, lo:hi, None, None, :]
        c[...] = enc_c[:, lo:hi, None, None, :]
        x[..., 0] = (z[lo:hi, -1] / scales[lo:hi])[:, None, None]
        for t in range(horizon):
            if n_channels:
                x[..., 1:] = covariates[lo:hi, None, None, :, m + t]
            mu, sigma = advance(x, h, c, params, cfg.sigma_floor, work, weights)
            samples[lo:hi, ..., t] = x[..., 0] = mu + sigma * samples[lo:hi, ..., t]
    samples = samples.reshape(n_series, -1, horizon)[:, :n_samples]
    # a draw that overflows in data units is this call's error, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(samples, scales[:, None, None], out=samples)
    if not np.all(np.isfinite(samples)):
        raise ForecastError("non-finite values in forecast samples")
    np.maximum(samples, 0.0, out=samples)
    samples.setflags(write=False)
    return Forecast(samples, scales)


def _noise(
    seeds: tuple[tuple[int, ...], ...], n_samples: int, n_rows: int, horizon: int
) -> np.ndarray:
    """Standard normals (series, n_rows, horizon): row s < n_samples of series
    i is the first horizon draws of stream (*seeds[i], s), the rest zeros.
    Every trajectory of a seed length is keyed in one ``substreams`` call."""
    eps = np.zeros((len(seeds), n_rows, horizon))
    dtype = np.int64 if max(max(seed) for seed in seeds) < 2**63 else object
    for k in sorted({len(seed) for seed in seeds}):
        series = [i for i, seed in enumerate(seeds) if len(seed) == k]
        keys = np.empty((len(series), n_samples, k + 1), dtype=dtype)
        keys[..., :k] = np.array([seeds[i] for i in series], dtype=dtype)[:, None]
        keys[..., k] = np.arange(n_samples)
        streams = substreams(keys.reshape(-1, k + 1))
        for i in series:
            for s in range(n_samples):
                next(streams).standard_normal(out=eps[i, s])
    return eps


def point_forecast(samples: np.ndarray, statistic: str = "median") -> np.ndarray:
    """Collapse sampled trajectories (..., n_samples, horizon) to one value
    per step: one series' sample matrix, or a Forecast's samples."""
    if statistic == "median":
        return np.median(samples, axis=-2)
    if statistic == "mean":
        return samples.mean(axis=-2)
    raise ForecastError(
        f"unknown point statistic {statistic!r}, expected one of {POINT_STATISTICS}"
    )
