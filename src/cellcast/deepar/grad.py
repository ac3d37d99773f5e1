"""Window loss and exact gradients via backpropagation through time.

One training window of T observed values produces T recurrence steps under
teacher forcing: step t consumes the previous observed value (the step before
the window seeds the first lag; a window at the very start of a series gets a
zero seed lag) and is scored against the observed value at t.  The loss is
the mean Gaussian negative log-likelihood over the steps, computed on the
scaled series.

The forward pass runs by wavefront (``network.wavefront``): wavefront k
advances layer j to step k - j, so a batch makes T + layers - 1 calls, each
moving every layer.  It keeps every wavefront's hidden and cell rows, gates
and tanh of the cell for the backward pass, one contiguous (layers, B, .)
slab per wavefront, about 13.5 MB at the default batch and window.
``batch_buffers`` allocates that set once; training passes the same set to
every batch, so a run allocates it once instead of once per batch (freed
and faulted in again each time), and a partial last batch uses its leading
rows.  The cell writes straight into the caches.  The backward pass walks
the same wavefronts in reverse: layer j's step t needs the gradients of
layer j's step t + 1 and of layer j + 1's step t, both from the wavefront
after, so it too moves every layer at once.  It multiplies by the
parameters' own stacks of input and recurrent weights and returns the
gradient as one ``NetworkParams`` of the same stacks.  Every product keeps
the shape and strides it has when the layers run one at a time, and every
element goes through the same operations, so the schedule changes no byte.
"""

from __future__ import annotations

import math

import numpy as np

from .network import (
    DEFAULT_SIGMA_FLOOR,
    CellWork,
    gaussian_nll,
    input_rows,
    sigmoid,
    softplus,
    stacked_weights,
    wavefront,
    wavefront_layers,
)
from .params import NetworkParams

__all__ = ["batch_buffers", "batch_loss_and_grad"]


def _buffer_shapes(n_batch: int, length: int, params: NetworkParams) -> tuple[tuple[int, ...], ...]:
    n_layers, hidden = params.num_layers, params.hidden_size
    slots = length + n_layers - 1
    return (
        (slots + 1, n_layers, n_batch, hidden),
        (slots + 1, n_layers, n_batch, hidden),
        (slots, 4, n_layers, n_batch, hidden),
        (slots, n_layers, n_batch, hidden),
    )


def batch_buffers(n_batch: int, length: int, params: NetworkParams) -> tuple[np.ndarray, ...]:
    """Forward caches for batches of up to n_batch windows of length steps.

    Slot k of the hidden and cell rows, each (length + layers, layers,
    n_batch, hidden), holds every layer's state before wavefront k: layer
    j's step k - j - 1, or zero for k = j.  Slot k of the gates (length +
    layers - 1, 4, layers, n_batch, hidden), the input, forget, candidate
    and output gate one slab each, and of tanh of the cell (length +
    layers - 1, layers, n_batch, hidden) holds wavefront k's.  Each batch
    overwrites them; a smaller batch uses the leading n_batch rows.
    """
    return tuple(_aligned(shape) for shape in _buffer_shapes(n_batch, length, params))


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An empty float64 array whose data starts on a 64-byte boundary: a
    large np.empty starts 16 bytes into a page, so each row pass straddles
    cache lines, which costs about 2 % of a batch."""
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _forward_batch(
    steps: np.ndarray, params: NetworkParams, buffers: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Run the stacked recurrence over (L, B, D) step inputs with full caches.

    Returns raw head outputs (mu, sigma pre-activation), each (B, L), plus
    the caches the backward pass needs: the leading B rows of ``buffers``
    (see batch_buffers), which the pass writes, and the top layer's rows
    (B, L, hidden).
    """
    length, n_batch, _ = steps.shape
    n_layers, hidden = params.num_layers, params.hidden_size
    h, c, gates, tc = (buf[..., :n_batch, :] for buf in buffers)
    for j in range(n_layers):  # each layer's state before its first step
        h[j, j] = 0.0
        c[j, j] = 0.0
    wide = (n_layers, n_batch, 4 * hidden)
    a, p, mask = np.empty(wide), np.empty(wide), np.empty(wide, dtype=bool)
    weights = stacked_weights(params, (n_batch,))
    for k in range(length + n_layers - 1):
        slabs = gates[k]
        work = CellWork(a, p, mask, slabs[2], tc[k], h[k + 1], c[k + 1], slabs)
        wavefront(k, steps, h[k], c[k], work, weights)
    top_h = h[n_layers:, n_layers - 1].transpose(1, 0, 2)
    raw = top_h @ params.head_w.T + params.head_b
    return raw[:, :, 0], raw[:, :, 1], (h, c, gates, tc, top_h)


def _backward_batch(
    d_mu: np.ndarray,
    d_spre: np.ndarray,
    steps: np.ndarray,
    params: NetworkParams,
    caches: tuple[np.ndarray, ...],
) -> NetworkParams:
    n_batch, length = d_mu.shape
    n_layers, hidden = params.num_layers, params.hidden_size
    h, c, gates, tc, top_h = caches
    d_raw = np.stack([d_mu, d_spre], axis=2)
    d_head_w = np.einsum("btr,bth->rh", d_raw, top_h)
    d_head_b = d_raw.sum(axis=(0, 1))
    d_top = d_raw @ params.head_w
    d_wx0 = np.zeros_like(params.w0)
    d_wx = np.zeros_like(params.wx)
    d_wh = np.zeros_like(params.wh)
    d_b = np.zeros_like(params.b)
    dh_next = np.zeros((n_layers, n_batch, hidden))
    dc_next = np.zeros((n_layers, n_batch, hidden))
    # each layer's output gradient from above: the input gradient of the
    # layer over it, or the head's for the top layer
    d_above = np.empty((n_layers, n_batch, hidden))
    da = np.empty((n_layers, n_batch, 4 * hidden))
    for k in range(length + n_layers - 2, -1, -1):
        lo, hi, layers = wavefront_layers(k, length, n_layers)
        if hi == n_layers - 1:
            d_above[hi] = d_top[:, k - hi]
        dh = dh_next[layers] + d_above[layers]
        slabs, tck = gates[k, :, layers], tc[k, layers]
        gi, gf, gg, go = slabs[0], slabs[1], slabs[2], slabs[3]
        dct = dc_next[layers] + dh * go * (1.0 - tck * tck)
        d = da[layers]
        np.multiply(dct * gg * gi, 1.0 - gi, out=d[..., :hidden])
        np.multiply(dct * c[k, layers] * gf, 1.0 - gf, out=d[..., hidden : 2 * hidden])
        np.multiply(dct * gi, 1.0 - gg * gg, out=d[..., 2 * hidden : 3 * hidden])
        np.multiply(dh * tck * go, 1.0 - go, out=d[..., 3 * hidden :])
        np.multiply(dct, gf, out=dc_next[layers])
        if lo == 0:
            d_wx0 += da[0].T @ steps[k]
        if hi > 0:
            up = max(lo, 1)
            upper = da[up : hi + 1]
            d_wx[up - 1 : hi] += upper.transpose(0, 2, 1) @ h[k, up - 1 : hi]
            d_above[up - 1 : hi] = upper @ params.wx[up - 1 : hi]
        d_wh[layers] += d.swapaxes(-1, -2) @ h[k, layers]
        d_b[layers] += np.add.reduce(d, axis=-2)
        np.matmul(d, params.wh[layers], out=dh_next[layers])
    return NetworkParams(d_wx0, d_wx, d_wh, d_b, d_head_w, d_head_b)


def batch_loss_and_grad(
    z_windows: np.ndarray,
    x_windows: np.ndarray | None,
    scales: np.ndarray,
    params: NetworkParams,
    sigma_floor: float = DEFAULT_SIGMA_FLOOR,
    buffers: tuple[np.ndarray, ...] | None = None,
) -> tuple[float, NetworkParams]:
    """Mean window loss over a batch and its gradient.

    z_windows is (B, T+1): a seed lag followed by T observed targets per
    window, in data units.  x_windows is (B, T, K) covariate rows aligned
    with the targets, or None for a covariate-free model.  scales holds the
    per-window scale applied to both lags and targets.  This is a public
    boundary: inputs of the wrong shape or with non-finite values, a scale
    or sigma_floor that is not positive and covariates that do not match
    the model's channels are a ValueError, before any work.  Non-finite head
    outputs, loss or gradient raise ValueError (the outputs through
    gaussian_nll, the gradient through one check of every array), which is
    how a diverging run shows.  buffers, from ``batch_buffers(B_max, T,
    params)`` with B_max >= B, holds the forward caches; without it the call
    allocates its own; a set built for another network, length or a
    smaller batch is a ValueError naming both sets of shapes.
    """
    z_windows = np.asarray(z_windows, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    if z_windows.ndim != 2 or z_windows.shape[1] < 2:
        raise ValueError("z_windows must be (B, T+1) with T >= 1")
    n_batch, length = z_windows.shape[0], z_windows.shape[1] - 1
    if scales.shape != (n_batch,):
        raise ValueError(f"expected {n_batch} scales, got shape {scales.shape}")
    if not np.all(np.isfinite(z_windows)):
        raise ValueError("non-finite values in z_windows")
    if not (np.all(np.isfinite(scales)) and np.all(scales > 0)):
        raise ValueError("scales must be finite and positive")
    if sigma_floor <= 0.0:
        raise ValueError("sigma_floor must be positive")
    n_channels = params.input_size - 1
    if n_channels == 0 and x_windows is not None:
        raise ValueError("model takes no covariates but covariates were given")
    if n_channels:
        if x_windows is None:
            raise ValueError(f"model expects {n_channels} covariate channels, got none")
        x_windows = np.asarray(x_windows, dtype=np.float64)
        if x_windows.shape != (n_batch, length, n_channels):
            raise ValueError(
                f"expected covariates of shape {(n_batch, length, n_channels)}, got {x_windows.shape}"
            )
        if not np.all(np.isfinite(x_windows)):
            raise ValueError("non-finite covariate values")
    if buffers is None:
        buffers = batch_buffers(n_batch, length, params)
    else:
        given = tuple(np.shape(buf) for buf in buffers)
        held = given[0][2] if given and len(given[0]) == 4 else 0
        if held < n_batch or given != _buffer_shapes(held, length, params):
            raise ValueError(
                f"buffers of shapes {given} cannot hold {n_batch} windows of {length} steps"
                f" of this network, which needs {_buffer_shapes(n_batch, length, params)}"
            )
    inputs = input_rows(z_windows[:, :-1] / scales[:, None], x_windows)
    steps = inputs.transpose(1, 0, 2)
    targets = z_windows[:, 1:] / scales[:, None]
    mu, s_pre, caches = _forward_batch(steps, params, buffers)
    sigma = softplus(s_pre) + sigma_floor
    loss = float(np.mean(gaussian_nll(targets, mu, sigma)))
    if not math.isfinite(loss):
        raise ValueError(f"non-finite batch loss {loss}")
    inv_count = 1.0 / (n_batch * length)
    d_mu = (mu - targets) / (sigma * sigma) * inv_count
    resid = targets - mu
    d_sigma = (1.0 / sigma - resid * resid / sigma**3) * inv_count
    d_spre = d_sigma * sigmoid(s_pre)
    grads = _backward_batch(d_mu, d_spre, steps, params, caches)
    if not all(np.all(np.isfinite(a)) for a in grads.arrays()):
        raise ValueError("non-finite gradient")
    return loss, grads

