"""Forward recurrence and Gaussian likelihood head.

The model consumes, at each step t, the previous target scaled by the series
scale together with that step's covariate column, runs it through the stacked
recurrent layers, and maps the top hidden vector to a location and a positive
spread.  ``lstm_cell`` is the one gate math: training, the conditioning pass
and the sampler all run every layer through it, on rows of any leading
shape, writing into a ``CellWork`` the caller can keep for a whole loop so
that no step allocates.  A teacher-forced pass (training, and the forecast
encoder) knows every step's input in advance, so it runs by wavefront
(Appleyard et al., arXiv:1604.01946): wavefront k advances layer j to step
k - j, which needs only the wavefront before, so every layer moves in one
``wavefront`` call, stacked on a leading layer axis.  The sampler feeds
each step's draw back as the next input and advances layer by layer
(``advance``).  Both multiply by the weights ``stacked_weights`` lays
out from the parameters' stacks.  ``cut_windows`` turns panel windows
into the pass's inputs (seed lag, channels, scale) for training and the
forecast encoder alike.
Everything here is deterministic; sampling lives in forecasting.

Nothing here checks its inputs: ``train``, ``sample_forecast``,
``batch_loss_and_grad`` and the model store check them once, at the public
boundary.  Two faults that only the arithmetic shows still raise ValueError:
a series scale that overflows, which the boundary retypes, and non-finite
likelihood parameters, which is how a diverging run shows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import NetworkParams

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
    "stacked_weights",
    "wavefront",
    "wavefront_layers",
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
    leading shape: the pre-activation a, which the caller's products fill
    (then exp(-|a|), then the four gates' sigmoid), the recurrent product
    (then the sigmoid's denominator) and the a >= 0 mask, each (..., 4 *
    hidden); the candidate gate, tanh of the cell and the new hidden and
    cell rows, each (..., hidden); and, for a caller that keeps the gates
    (training), slabs (4, ..., hidden) whose third is gg, to receive the
    four gates one contiguous slab each."""

    a: np.ndarray
    p: np.ndarray
    mask: np.ndarray
    gg: np.ndarray
    tc: np.ndarray
    h: np.ndarray
    c: np.ndarray
    slabs: np.ndarray | None = None

    def take(self, rows: int | slice) -> "CellWork":
        """The workspace of the rows ``rows`` of the leading axis."""
        *arrays, slabs = self
        return CellWork(*(w[rows] for w in arrays), None if slabs is None else slabs[:, rows])


def cell_workspace(shape: tuple[int, ...], hidden_size: int) -> CellWork:
    """A CellWork for rows of leading shape ``shape``."""
    wide = (*shape, 4 * hidden_size)
    narrow = (*shape, hidden_size)
    return CellWork(
        np.empty(wide), np.empty(wide), np.empty(wide, dtype=bool), *(np.empty(narrow) for _ in range(4))
    )


def lstm_cell(
    a: np.ndarray, c_prev: np.ndarray, work: CellWork
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The gate math of one step, for pre-activation rows a (..., 4 * hidden).

    a is x @ wx.T + h_prev @ wh.T + b, four blocks of hidden_size columns in
    the order input, forget, candidate, output.  One sigmoid covers all four
    blocks (the candidate's share is discarded), so each step makes one
    elementwise pass instead of three.  Returns the new hidden and cell
    rows plus the activations (input, forget, candidate, output gate, tanh
    of the cell) that backpropagation reuses: strided columns of a, or,
    when ``work.slabs`` is given, copies in one contiguous slab per gate,
    which the later passes here and in backpropagation run faster over.
    Rows may carry any leading shape: the sampler's blocks, or a
    wavefront's layers stacked on a leading axis, whose rows the cell
    cannot tell apart.

    Every result is written into ``work`` (``cell_workspace(a.shape[:-1],
    hidden_size)``), so a caller that passes one workspace to every step
    allocates nothing per step; the results are then views of it that the
    next call overwrites.  Every element goes through the operations it
    would go through without ``out=``, so the bytes do not depend on the
    workspace.  a is overwritten; c_prev is only read, except that
    ``work.c`` may be c_prev itself: each element is read before it is
    overwritten.
    """
    hs = a.shape[-1] // 4
    _, p, mask, gg, tc, h, c, slabs = work
    np.tanh(a[..., 2 * hs : 3 * hs], out=gg)
    # in place: fewer arrays, and in-place passes run faster than ones
    # writing a fresh array
    s = _logistic(a, a, p, mask)
    if slabs is None:
        gi = s[..., :hs]
        gf = s[..., hs : 2 * hs]
        go = s[..., 3 * hs :]
    else:
        blocks = s.reshape(*s.shape[:-1], 4, hs)
        slabs[:2] = blocks[..., :2, :].transpose(-2, *range(s.ndim - 1), -1)
        slabs[3] = blocks[..., 3, :]
        gi, gf, _, go = slabs
    np.multiply(gf, c_prev, out=c)
    np.multiply(gi, gg, out=tc)  # tc holds gi * gg until tanh(c) replaces it
    np.add(c, tc, out=c)
    np.tanh(c, out=tc)
    np.multiply(go, tc, out=h)
    return h, c, (gi, gf, gg, go, tc)


def _head(h_top: np.ndarray, params: NetworkParams, sigma_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Location and spread of each top-layer row."""
    raw = h_top @ params.head_w.T + params.head_b
    return raw[..., 0], softplus(raw[..., 1]) + sigma_floor


def advance(
    x: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    params: NetworkParams,
    sigma_floor: float,
    work: CellWork,
    weights: StackedWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the stacked recurrence and the head for rows x (..., input_size).

    h and c are (layers, ..., hidden) and are updated in place.  Every layer
    runs through ``work`` (``cell_workspace(x.shape[:-1], hidden)``) and
    ``weights`` (``stacked_weights(params, x.shape[:-1])``).  Returns each
    row's location and spread, both shaped like x without its last axis.
    """
    for j in range(params.num_layers):
        np.matmul(x, weights.w0 if j == 0 else weights.wx_t[j - 1], out=work.a)
        np.matmul(h[j], weights.wh_t[j], out=work.p)
        np.add(work.a, work.p, out=work.a)
        np.add(work.a, weights.b[j], out=work.a)
        # in place: the products have read h[j], and the cell reads each
        # element of c[j] before it overwrites it
        lstm_cell(work.a, c[j], work._replace(h=h[j], c=c[j]))
        x = h[j]
    return _head(x, params, sigma_floor)


class StackedWeights(NamedTuple):
    """A network's weights as ``wavefront`` and ``advance`` multiply them:
    layer 0's transposed input weights (in, 4H); the transposed input
    weights of layers 1 and up (layers - 1, ..., hidden, 4H), empty for one
    layer; the transposed recurrent weights (layers, ..., hidden, 4H); and
    the biases (layers, ..., 4H).  The middle axes are the rows' leading
    axes but the last, so each layer's matrix broadcasts over them."""

    w0: np.ndarray
    wx_t: np.ndarray
    wh_t: np.ndarray
    b: np.ndarray


def stacked_weights(params: NetworkParams, rows: tuple[int, ...]) -> StackedWeights:
    """The weights of a pass whose products each take rows[-1] rows.

    Products with more than one row (training's (B, D) batches, the
    sampler's 8-row blocks) multiply by C-contiguous copies of the
    transposes, which OpenBLAS runs faster.  One-row products (the
    encoder's per-series slices) multiply by transposed views: BLAS takes
    another path for them and would round differently with the copies,
    moving every forecast.  ``NetworkParams`` keeps each kind C-contiguous,
    so each layer's transposed matrix, strides included, is the one it
    would be alone, and each product is the one a layer alone would make.
    """
    expand = (slice(None),) + (None,) * (len(rows) - 1)

    def layout(transposed: np.ndarray) -> np.ndarray:
        return transposed if rows[-1] == 1 else np.ascontiguousarray(transposed)

    return StackedWeights(
        layout(params.w0.T),
        layout(params.wx.transpose(0, 2, 1))[expand],
        layout(params.wh.transpose(0, 2, 1))[expand],
        params.b[(*expand, None)],
    )


def wavefront_layers(k: int, length: int, n_layers: int) -> tuple[int, int, int | slice]:
    """The layers lo..hi that wavefront k of an L-step pass advances (layer
    j takes step k - j), and the index that selects them on a leading layer
    axis: a lone layer's is an int, so that its rows are (B, .) as in a
    pass that runs the layers one at a time, where numpy's passes cost less
    than over the (1, B, .) a slice would give."""
    lo, hi = max(0, k - length + 1), min(k, n_layers - 1)
    return lo, hi, lo if lo == hi else slice(lo, hi + 1)


def wavefront(
    k: int, x: np.ndarray, h: np.ndarray, c: np.ndarray, work: CellWork, weights: StackedWeights
) -> None:
    """Wavefront k of a teacher-forced pass: every layer j with 0 <= k - j < L
    takes its step k - j, in one product per kind and one ``lstm_cell`` call.

    x is (L, *rows, input_size), step t's input rows.  h and c are (layers,
    *rows, hidden): each layer's state before this wavefront, which is its
    step k - j - 1 (zero before its first step), and layer j - 1's rows are
    layer j's input, since layer j - 1 took step k - j in the wavefront
    before.  The active layers' new h and c, gates and tanh(c) go into
    their rows of ``work`` (layers, *rows, ...), whose h and c may be h and
    c themselves: every product reads the state before the cell writes.

    Layer 0's input product, the stacked input product of layers 1 and up
    and the stacked recurrent product each multiply every layer's rows by
    its own matrix of ``weights``, as a separate product of the same shape
    and strides, so the schedule changes no byte against running the
    layers one at a time.
    """
    n_layers = h.shape[0]
    lo, hi, layers = wavefront_layers(k, x.shape[0], n_layers)
    a = work.a
    if lo == 0:
        np.matmul(x[k], weights.w0, out=a[0])
    if hi > 0:
        up = max(lo, 1)
        np.matmul(h[up - 1 : hi], weights.wx_t[up - 1 : hi], out=a[up : hi + 1])
    if hi - lo + 1 < n_layers:
        work = work.take(layers)
        a = work.a
    else:
        layers = slice(None)  # every layer: the arrays as they are
    np.matmul(h[layers], weights.wh_t[layers], out=work.p)
    np.add(a, work.p, out=a)
    np.add(a, weights.b[layers], out=a)
    lstm_cell(a, c[layers], work)


def series_scale(conditioning: np.ndarray) -> np.float64 | np.ndarray:
    """Scale applied to model inputs, 1 + mean of the conditioning range:
    one per range of (..., L), a scalar for one 1-D range.  The ranges are
    trusted to be nonempty, finite and non-negative; a mean that overflows
    float64 is a ValueError, which ``train`` and ``sample_forecast`` retype."""
    values = np.asarray(conditioning, dtype=np.float64)
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


def gaussian_nll(z: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Elementwise negative log density of z under Normal(mu, sigma), for
    finite targets z on the network's scale and sigma > 0, as the callers
    give.  Non-finite mu or sigma is a ValueError: that is how a diverging
    run shows."""
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
        raise ValueError("non-finite likelihood parameters")
    resid = z - mu
    return 0.5 * np.log(2.0 * math.pi * sigma * sigma) + resid * resid / (2.0 * sigma * sigma)


def input_rows(lags: np.ndarray, covariates: np.ndarray | None) -> np.ndarray:
    """Network inputs (..., L, 1+K): scaled lags (..., L) next to covariate
    rows (..., L, K), or the lags alone when covariates is None."""
    if covariates is None:
        return lags[..., None]
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
    x_window (..., L, K) and scale holds one value per window (...): the
    pass runs by ``wavefront``, every layer of every window in one call per
    wavefront, but each window keeps its own one-row products, so each
    window's results are bit-identical to running it alone, one layer and
    one step at a time.  The outputs gain the same leading axes: (..., L)
    and (layers, ..., hidden).  The inputs are trusted: ``sample_forecast``
    checks them.
    """
    z_lags = np.asarray(z_lags, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    inputs = input_rows(z_lags / scale[..., None], x_window)
    rows = (*z_lags.shape[:-1], 1)
    n_layers, length = params.num_layers, z_lags.shape[-1]
    h = np.zeros((n_layers, *rows, params.hidden_size))
    c = np.zeros_like(h)
    work = cell_workspace((n_layers, *rows), params.hidden_size)._replace(h=h, c=c)
    weights = stacked_weights(params, rows)
    steps = np.moveaxis(inputs[..., None, :], -3, 0)
    mu = np.empty(z_lags.shape)
    sigma = np.empty(z_lags.shape)
    for k in range(length + n_layers - 1):
        wavefront(k, steps, h, c, work, weights)
        t = k - n_layers + 1
        if t >= 0:
            mu[..., t : t + 1], sigma[..., t : t + 1] = _head(h[-1], params, sigma_floor)
    return mu, sigma, (h[..., 0, :], c[..., 0, :])
