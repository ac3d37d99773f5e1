"""Forward recurrence and Gaussian likelihood head.

The model consumes, at each step t, the previous target scaled by the series
scale together with that step's covariate column, runs it through the stacked
recurrent layers, and maps the top hidden vector to a location and a positive
spread.  ``lstm_cell`` is the one gated update: training, the conditioning
pass and the sampler all run every layer through it, on rows of any leading
batch shape.  Everything here is deterministic; sampling lives in forecasting.
"""

from __future__ import annotations

import math

import numpy as np

from .params import LayerParams, NetworkParams

__all__ = [
    "advance",
    "forward_window",
    "gaussian_nll",
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
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow for large x."""
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def lstm_cell(
    x: np.ndarray, state: tuple[np.ndarray, np.ndarray], layer: LayerParams
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """One gated update of a single layer for rows x (..., input_size).

    Gate pre-activations are stacked in ``layer`` as four blocks of
    hidden_size rows in the order input, forget, candidate, output.  One
    sigmoid covers all four blocks (the candidate's share is discarded), so
    each step makes one elementwise pass instead of three.  Returns the new
    hidden and cell rows plus the activations (input, forget, candidate,
    output gate, tanh of the cell) that backpropagation reuses.
    """
    hs = layer.hidden_size
    h_prev, c_prev = state
    a = x @ layer.wx.T + h_prev @ layer.wh.T + layer.b
    s = sigmoid(a)
    gi = s[..., :hs]
    gf = s[..., hs : 2 * hs]
    gg = np.tanh(a[..., 2 * hs : 3 * hs])
    go = s[..., 3 * hs :]
    c = gf * c_prev + gi * gg
    tc = np.tanh(c)
    h = go * tc
    return h, c, (gi, gf, gg, go, tc)


def advance(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, params: NetworkParams, sigma_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the stacked recurrence and the head for rows x (..., input_size).

    h and c are (layers, ..., hidden) and are updated in place.  Returns the
    location and spread of each row, both shaped like x without its last axis.
    """
    for idx, layer in enumerate(params.layers):
        h[idx], c[idx], _ = lstm_cell(x, (h[idx], c[idx]), layer)
        x = h[idx]
    raw = x @ params.head_w.T + params.head_b
    return raw[..., 0], softplus(raw[..., 1]) + sigma_floor


def series_scale(conditioning: np.ndarray) -> float:
    """Per-series scale applied to model inputs: 1 + mean of the conditioning range."""
    values = np.asarray(conditioning, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("conditioning range must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite values in conditioning range")
    if np.any(values < 0):
        raise ValueError("negative values in conditioning range")
    return 1.0 + float(np.mean(values))


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
        raise ValueError("likelihood parameters must be finite")
    if np.any(sigma <= 0.0):
        raise ValueError("sigma must be positive")
    resid = z / scale - mu
    return 0.5 * np.log(2.0 * math.pi * sigma**2) + resid**2 / (2.0 * sigma**2)


def forward_window(
    z_lags: np.ndarray,
    x_window: np.ndarray | None,
    params: NetworkParams,
    scale: float,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Deterministic pass over one window, starting from the all-zero state.

    z_lags holds the lagged targets in data units, one per step; x_window is
    (L, K) covariate rows aligned with the steps, or None when the model runs
    without covariate channels.  Returns the per-step location and spread,
    each (L,), and the final hidden and cell rows, each (layers, hidden).
    """
    z_lags = np.asarray(z_lags, dtype=np.float64)
    if z_lags.ndim != 1 or z_lags.size == 0:
        raise ValueError("z_lags must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(z_lags)):
        raise ValueError("non-finite lagged targets")
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if sigma_floor <= 0.0:
        raise ValueError("sigma_floor must be positive")
    length = z_lags.size
    n_channels = params.input_size - 1
    if n_channels == 0:
        if x_window is not None:
            raise ValueError("model takes no covariates but x_window was given")
        inputs = (z_lags / scale)[:, None]
    else:
        if x_window is None:
            raise ValueError(f"model expects {n_channels} covariate channels, got none")
        x_window = np.asarray(x_window, dtype=np.float64)
        if x_window.shape != (length, n_channels):
            raise ValueError(
                f"expected covariates of shape ({length}, {n_channels}), got {x_window.shape}"
            )
        if not np.all(np.isfinite(x_window)):
            raise ValueError("non-finite covariate values")
        inputs = np.concatenate([(z_lags / scale)[:, None], x_window], axis=1)
    h = np.zeros((params.num_layers, 1, params.hidden_size))
    c = np.zeros_like(h)
    mu = np.empty(length)
    sigma = np.empty(length)
    for t in range(length):
        mu[t : t + 1], sigma[t : t + 1] = advance(inputs[t : t + 1], h, c, params, sigma_floor)
    return mu, sigma, (h[:, 0], c[:, 0])
