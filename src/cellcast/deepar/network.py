"""Forward recurrence and Gaussian likelihood head.

The model consumes, at each step t, the previous target scaled by the series
scale together with that step's covariate column, runs it through the stacked
recurrent layers, and maps the top hidden vector to a location and a positive
spread.  ``lstm_cell`` is the one gated update: training, the conditioning
pass and the sampler all run every layer through it, on rows of any leading
batch shape, writing into a ``CellWork`` the caller can keep for a whole
loop so that no step allocates; ``cut_windows`` turns panel windows into
its inputs (seed lag, channels, scale) for training and the forecast
encoder alike.  Everything here is deterministic; sampling lives in
forecasting.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import LayerParams, NetworkParams

__all__ = [
    "CellWork",
    "advance",
    "cell_workspace",
    "cut_windows",
    "forward_window",
    "gaussian_nll",
    "input_rows",
    "lstm_cell",
    "series_scale",
    "sigmoid",
    "softplus",
]

DEFAULT_SIGMA_FLOOR = 1e-6


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, without masks.

    With e = exp(-|x|) this is 1/(1+e) for x >= 0 and e/(1+e) below zero:
    per element the same exp, add and divide as the two-branch form, so the
    result is bit-identical to it, and exp never sees a positive argument.
    The numerator is max(e, x >= 0): e <= 1, so it is 1.0 where x >= 0 and
    e elsewhere, the same values as a select but in one cheaper pass.
    """
    x = np.asarray(x, dtype=np.float64)
    return _logistic(x, np.empty(x.shape), np.empty(x.shape), np.empty(x.shape, dtype=bool))


def _logistic(x: np.ndarray, e: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sigmoid(x) written into e, with den and mask as scratch; returns e.
    e may be x itself: the mask is taken before x is overwritten."""
    np.greater_equal(x, 0, out=mask)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(1.0, e, out=den)
    np.maximum(e, mask, out=e)
    return np.divide(e, den, out=e)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow for large x."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


class CellWork(NamedTuple):
    """Arrays ``lstm_cell`` writes instead of allocating, for rows of one
    leading shape: the pre-activation a (then exp(-|a|), then the four
    gates' sigmoid), the recurrent product (then the sigmoid's denominator)
    and the a >= 0 mask, each (..., 4 * hidden); the candidate gate, tanh of
    the cell and the new hidden and cell rows, each (..., hidden)."""

    a: np.ndarray
    p: np.ndarray
    mask: np.ndarray
    gg: np.ndarray
    tc: np.ndarray
    h: np.ndarray
    c: np.ndarray


def cell_workspace(shape: tuple[int, ...], hidden_size: int) -> CellWork:
    """A CellWork for inputs x of leading shape ``shape`` (x.shape[:-1])."""
    wide = (*shape, 4 * hidden_size)
    narrow = (*shape, hidden_size)
    return CellWork(
        np.empty(wide), np.empty(wide), np.empty(wide, dtype=bool), *(np.empty(narrow) for _ in range(4))
    )


def lstm_cell(
    x: np.ndarray,
    state: tuple[np.ndarray, np.ndarray],
    layer: LayerParams,
    work: CellWork | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One gated update of a single layer for rows x (..., input_size).

    Gate pre-activations are stacked in ``layer`` as four blocks of
    hidden_size rows in the order input, forget, candidate, output.  One
    sigmoid covers all four blocks (the candidate's share is discarded), so
    each step makes one elementwise pass instead of three.  Returns the new
    hidden and cell rows plus the activations (input, forget, candidate,
    output gate, tanh of the cell) that backpropagation reuses.

    Every result is written into ``work`` (``cell_workspace(x.shape[:-1],
    hidden_size)``), so a caller that passes one workspace to every step
    allocates nothing per step; the results are then views of it that the
    next call overwrites.  Without one the call allocates its own.  Either
    way every element goes through the operations it would go through
    without ``out=``, so the bytes do not depend on the workspace, and the
    arrays in ``state`` are only read.

    Products with more than one row (training's (B, D) batches, the
    sampler's stacked blocks) multiply by the layer's C-contiguous copies
    ``wx_t``/``wh_t``, which is faster.  One-row products (1-D x, the
    encoder's (..., 1, D) slices) multiply by the transposed views
    ``wx.T``/``wh.T``: BLAS takes another path for them and would round
    differently with the copies, moving every forecast.
    """
    hs = layer.hidden_size
    h_prev, c_prev = state
    if x.ndim >= 2 and x.shape[-2] > 1:
        wx_t, wh_t = layer.wx_t, layer.wh_t
    else:
        wx_t, wh_t = layer.wx.T, layer.wh.T
    if work is None:
        work = cell_workspace(x.shape[:-1], hs)
    a, p, mask, gg, tc, h, c = work
    np.matmul(x, wx_t, out=a)
    np.matmul(h_prev, wh_t, out=p)
    np.add(a, p, out=a)
    np.add(a, layer.b, out=a)
    np.tanh(a[..., 2 * hs : 3 * hs], out=gg)
    # in place: fewer arrays, and in-place passes run faster than ones
    # writing a fresh array
    s = _logistic(a, a, p, mask)
    gi = s[..., :hs]
    gf = s[..., hs : 2 * hs]
    go = s[..., 3 * hs :]
    np.multiply(gf, c_prev, out=c)
    np.multiply(gi, gg, out=tc)  # tc holds gi * gg until tanh(c) replaces it
    np.add(c, tc, out=c)
    np.tanh(c, out=tc)
    np.multiply(go, tc, out=h)
    return h, c, (gi, gf, gg, go, tc)


def advance(
    x: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    params: NetworkParams,
    sigma_floor: float,
    work: CellWork | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the stacked recurrence and the head for rows x (..., input_size).

    h and c are (layers, ..., hidden) and are updated in place.  Every layer
    runs through ``work`` (``cell_workspace(x.shape[:-1], hidden)``), one
    allocated for this call when None.  Returns the location and spread of
    each row, both shaped like x without its last axis.
    """
    if work is None:
        work = cell_workspace(x.shape[:-1], params.hidden_size)
    for idx, layer in enumerate(params.layers):
        h[idx], c[idx], _ = lstm_cell(x, (h[idx], c[idx]), layer, work)
        x = h[idx]
    raw = x @ params.head_w.T + params.head_b
    return raw[..., 0], softplus(raw[..., 1]) + sigma_floor


def series_scale(conditioning: np.ndarray) -> np.float64 | np.ndarray:
    """Scale applied to model inputs, 1 + mean of the conditioning range:
    one per range of (..., L), a scalar for one 1-D range."""
    values = np.asarray(conditioning, dtype=np.float64)
    if values.ndim == 0 or values.shape[-1] == 0:
        raise ValueError("conditioning range must be a nonempty sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values in conditioning range")
    if np.any(values < 0):
        raise ValueError("negative values in conditioning range")
    # Values near the float64 limit overflow the sum; the check below
    # reports that once, in place of numpy's warning.
    with np.errstate(over="ignore"):
        scale = 1.0 + np.mean(values, axis=-1)
    if not np.all(np.isfinite(scale)):
        raise ValueError(
            f"conditioning values up to {values.max():g} are too large for the series scale"
        )
    return scale


def cut_windows(
    values: np.ndarray,
    channels: np.ndarray | None,
    rows: np.ndarray,
    starts: np.ndarray,
    length: int,
    context: int,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Inputs of B windows of ``length`` steps: window b is row rows[b] of
    values (S, N) from step starts[b] on (0-based).

    Returns z (B, length + 1), the value before the window (0.0 at a
    series' start) then the window's; x (B, length, K), the channels
    (S, K, >= N) at the window's steps, or None without channels; and
    scales (B,), series_scale over each window's first ``context`` steps.
    """
    rows = np.asarray(rows)[:, None]
    steps = np.asarray(starts)[:, None] + np.arange(-1, length)
    z = values[rows, np.maximum(steps, 0)]
    z[steps[:, 0] < 0, 0] = 0.0
    x = None if channels is None else channels[rows, :, steps[:, 1:]]
    return z, x, series_scale(z[:, 1 : context + 1])


def gaussian_nll(
    z: np.ndarray, mu: np.ndarray, sigma: np.ndarray, scale: float
) -> np.ndarray:
    """Elementwise negative log density of z/scale under Normal(mu, sigma)."""
    z, mu, sigma = (np.asarray(v, dtype=np.float64) for v in (z, mu, sigma))
    scale = float(scale)
    if not np.all(np.isfinite(z)):
        raise ValueError("target value must be finite")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("non-finite likelihood parameters")
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    resid = z / scale - mu
    return 0.5 * np.log(2.0 * math.pi * sigma * sigma) + resid * resid / (2.0 * sigma * sigma)


def input_rows(
    lags: np.ndarray, covariates: np.ndarray | None, params: NetworkParams
) -> np.ndarray:
    """Network inputs (..., L, 1+K): scaled lags (..., L) next to covariate rows.

    covariates is (..., L, K) for a model with K channels and None for a
    covariate-free one; anything else, or a non-finite value, is rejected.
    """
    n_channels = params.input_size - 1
    if n_channels == 0:
        if covariates is not None:
            raise ValueError("model takes no covariates but covariates were given")
        return lags[..., None]
    if covariates is None:
        raise ValueError(f"model expects {n_channels} covariate channels, got none")
    covariates = np.asarray(covariates, dtype=np.float64)
    if covariates.shape != (*lags.shape, n_channels):
        raise ValueError(
            f"expected covariates of shape {(*lags.shape, n_channels)}, got {covariates.shape}"
        )
    if not np.all(np.isfinite(covariates)):
        raise ValueError("non-finite covariate values")
    return np.concatenate([lags[..., None], covariates], axis=-1)


def forward_window(
    z_lags: np.ndarray,
    x_window: np.ndarray | None,
    params: NetworkParams,
    scale: float | np.ndarray,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Deterministic pass over one window, starting from the all-zero state.

    z_lags holds the lagged targets in data units, one per step; x_window is
    (L, K) covariate rows aligned with the steps, or None when the model runs
    without covariate channels.  Returns the per-step location and spread,
    each (L,), and the final hidden and cell rows, each (layers, hidden).

    Windows of several series run together when z_lags is (..., L),
    x_window (..., L, K) and scale holds one value per window (...): every
    step advances all windows in one call, each as its own one-row product,
    so each window's results are bit-identical to running it alone.  The
    outputs gain the same leading axes: (..., L) and (layers, ..., hidden).
    """
    z_lags = np.asarray(z_lags, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if z_lags.ndim == 0 or z_lags.shape[-1] == 0:
        raise ValueError("z_lags must be a nonempty sequence per window")
    if not np.all(np.isfinite(z_lags)):
        raise ValueError("non-finite lagged targets")
    if scale.shape != z_lags.shape[:-1]:
        raise ValueError(f"expected one scale per window {z_lags.shape[:-1]}, got {scale.shape}")
    if not (np.all(np.isfinite(scale)) and np.all(scale > 0.0)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if sigma_floor <= 0.0:
        raise ValueError("sigma_floor must be positive")
    inputs = input_rows(z_lags / scale[..., None], x_window, params)
    rows = (*z_lags.shape[:-1], 1)
    h = np.zeros((params.num_layers, *rows, params.hidden_size))
    c = np.zeros_like(h)
    work = cell_workspace(rows, params.hidden_size)
    mu = np.empty(z_lags.shape)
    sigma = np.empty(z_lags.shape)
    for t in range(z_lags.shape[-1]):
        mu[..., t : t + 1], sigma[..., t : t + 1] = advance(
            inputs[..., t : t + 1, :], h, c, params, sigma_floor, work
        )
    return mu, sigma, (h[..., 0, :], c[..., 0, :])
