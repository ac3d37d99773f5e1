"""Window loss and exact gradients via backpropagation through time.

One training window of T observed values produces T recurrence steps under
teacher forcing: step t consumes the previous observed value (the step before
the window seeds the first lag; a window at the very start of a series gets a
zero seed lag) and is scored against the observed value at t.  The loss is
the mean Gaussian negative log-likelihood over the steps, computed on the
scaled series.

The forward pass keeps every step's hidden and cell rows and gate
activations for the backward pass, about 13 MB at the default batch and
window.  ``batch_buffers`` allocates that set once; training passes the same
set to every batch, so a run allocates it once instead of once per batch
(freed and faulted in again each time), and a partial last batch uses its
leading rows.  The forward pass runs every step through one cell workspace
per batch, and the cell writes the candidate gate, tanh of the cell and the
new hidden and cell rows straight into the caches.
"""

from __future__ import annotations

import math

import numpy as np

from .network import (
    DEFAULT_SIGMA_FLOOR,
    CellWork,
    cell_workspace,
    gaussian_nll,
    input_rows,
    lstm_cell,
    sigmoid,
    softplus,
)
from .params import LayerParams, NetworkParams

__all__ = ["batch_buffers", "batch_loss_and_grad"]


def batch_buffers(n_batch: int, length: int, params: NetworkParams) -> tuple[np.ndarray, ...]:
    """Forward caches for batches of up to n_batch windows of length steps.

    Returns the hidden and cell rows, each (length + 1, layers, n_batch,
    hidden), then the input, forget, candidate and output gates and tanh of
    the cell, each (length, layers, n_batch, hidden).  Each batch overwrites
    them; a smaller batch uses the leading n_batch rows.
    """
    n_layers, hidden = params.num_layers, params.hidden_size
    return (
        *(np.empty((length + 1, n_layers, n_batch, hidden)) for _ in range(2)),
        *(np.empty((length, n_layers, n_batch, hidden)) for _ in range(5)),
    )


def _forward_batch(
    inputs: np.ndarray, params: NetworkParams, buffers: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Run the stacked recurrence over (B, L, D) inputs with full caches.

    Returns raw head outputs (mu, sigma pre-activation), each (B, L), plus
    the intermediate activations the backward pass needs, written into the
    leading B rows of ``buffers`` (see batch_buffers).
    """
    n_batch, length, _ = inputs.shape
    n_layers = params.num_layers
    h_all, c_all, *acts = (buf[:, :, :n_batch] for buf in buffers)
    gi_all, gf_all, gg_all, go_all, tc_all = acts
    h_all[0] = 0.0
    c_all[0] = 0.0
    work = cell_workspace((n_batch,), params.hidden_size)
    for t in range(length):
        x = inputs[:, t, :]
        for idx, layer in enumerate(params.layers):
            # the cell writes its candidate gate, tanh(c), h and c straight
            # into this step's caches; the three sigmoid gates are strided
            # views of its workspace and are copied
            cached = CellWork(
                work.a, work.p, work.mask, gg_all[t, idx], tc_all[t, idx], h_all[t + 1, idx], c_all[t + 1, idx]
            )
            x, _, (gi, gf, _, go, _) = lstm_cell(x, (h_all[t, idx], c_all[t, idx]), layer, cached)
            gi_all[t, idx] = gi
            gf_all[t, idx] = gf
            go_all[t, idx] = go
    top_h = h_all[1:, n_layers - 1].transpose(1, 0, 2)
    raw = top_h @ params.head_w.T + params.head_b
    caches = {"h_all": h_all, "c_all": c_all, "acts": acts, "top_h": top_h, "inputs": inputs}
    return raw[:, :, 0], raw[:, :, 1], caches


def _backward_batch(
    d_mu: np.ndarray,
    d_spre: np.ndarray,
    params: NetworkParams,
    caches: dict[str, np.ndarray],
) -> NetworkParams:
    n_batch, length = d_mu.shape
    n_layers = params.num_layers
    hidden = params.hidden_size
    h_all = caches["h_all"]
    c_all = caches["c_all"]
    acts = caches["acts"]
    inputs = caches["inputs"]
    d_raw = np.stack([d_mu, d_spre], axis=2)
    d_head_w = np.einsum("btr,bth->rh", d_raw, caches["top_h"])
    d_head_b = d_raw.sum(axis=(0, 1))
    d_top = d_raw @ params.head_w
    d_wx = [np.zeros_like(layer.wx) for layer in params.layers]
    d_wh = [np.zeros_like(layer.wh) for layer in params.layers]
    d_b = [np.zeros_like(layer.b) for layer in params.layers]
    dh_next = np.zeros((n_layers, n_batch, hidden))
    dc_next = np.zeros((n_layers, n_batch, hidden))
    da = np.empty((n_batch, 4 * hidden))
    for t in range(length - 1, -1, -1):
        dx_above: np.ndarray | None = None
        for idx in range(n_layers - 1, -1, -1):
            dh = dh_next[idx].copy()
            if idx == n_layers - 1:
                dh += d_top[:, t]
            if dx_above is not None:
                dh += dx_above
            gi, gf, gg, go, tc = (cache[t, idx] for cache in acts)
            dct = dc_next[idx] + dh * go * (1.0 - tc * tc)
            da[:, :hidden] = dct * gg * gi * (1.0 - gi)
            da[:, hidden : 2 * hidden] = dct * c_all[t, idx] * gf * (1.0 - gf)
            da[:, 2 * hidden : 3 * hidden] = dct * gi * (1.0 - gg * gg)
            da[:, 3 * hidden :] = dh * tc * go * (1.0 - go)
            dc_next[idx] = dct * gf
            layer = params.layers[idx]
            x_in = inputs[:, t, :] if idx == 0 else h_all[t + 1, idx - 1]
            d_wx[idx] += da.T @ x_in
            d_wh[idx] += da.T @ h_all[t, idx]
            d_b[idx] += da.sum(axis=0)
            dh_next[idx] = da @ layer.wh
            dx_above = da @ layer.wx if idx > 0 else None
    return NetworkParams(tuple(map(LayerParams, d_wx, d_wh, d_b)), d_head_w, d_head_b)


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
    per-window scale applied to both lags and targets.  Non-finite head
    outputs, loss or gradient raise ValueError (the outputs through
    gaussian_nll, the gradient through the NetworkParams checks), which is
    how a diverging run shows.  buffers, from ``batch_buffers(B_max, T,
    params)`` with B_max >= B, holds the forward caches; without it the call
    allocates its own.
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
    if buffers is None:
        buffers = batch_buffers(n_batch, length, params)
    elif buffers[0].shape[0] != length + 1 or buffers[0].shape[2] < n_batch:
        raise ValueError(
            f"buffers of shape {buffers[0].shape} cannot hold {n_batch} windows of {length} steps"
        )
    inputs = input_rows(z_windows[:, :-1] / scales[:, None], x_windows, params)
    targets = z_windows[:, 1:] / scales[:, None]
    mu, s_pre, caches = _forward_batch(inputs, params, buffers)
    sigma = softplus(s_pre) + sigma_floor
    loss = float(np.mean(gaussian_nll(targets, mu, sigma, 1.0)))
    if not math.isfinite(loss):
        raise ValueError(f"non-finite batch loss {loss}")
    inv_count = 1.0 / (n_batch * length)
    d_mu = (mu - targets) / (sigma * sigma) * inv_count
    resid = targets - mu
    d_sigma = (1.0 / sigma - resid * resid / sigma**3) * inv_count
    d_spre = d_sigma * sigmoid(s_pre)
    grads = _backward_batch(d_mu, d_spre, params, caches)
    return loss, grads

