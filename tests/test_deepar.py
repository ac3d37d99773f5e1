"""Tests for the recurrent forecaster: cell math, likelihood, gradients, training,
sampling, and the model store.

The reference computations here are deliberately written in plain Python with
the math module so they share no code with the implementation.
"""

import json
import math
import re
import struct
import warnings
import weakref

import numpy as np
import pytest

from cellcast import (
    ForecastError,
    NetworkParams,
    TrainConfig,
    TrainedModel,
    TrainError,
    init_params,
    load_model,
    point_forecast,
    sample_forecast,
    save_model,
    substream,
    train,
)
from cellcast.deepar import ModelStoreError, batch_loss_and_grad
from cellcast.deepar.grad import batch_buffers
from cellcast.deepar import training
from cellcast.deepar.network import (
    advance,
    cell_workspace,
    cut_windows,
    forward_window,
    gaussian_nll,
    input_rows,
    lstm_cell,
    series_scale,
    sigmoid,
    softplus,
    stacked_weights,
)
from cellcast.deepar.training import step_size
from cellcast.panel import SeriesPanel
import datetime as dt


def py_sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def masked_sigmoid(x):
    """The two-branch masked logistic the cell used before its mask-free form."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def layer_arrays(params):
    """Each layer's (wx, wh, b), read off the canonical flat order."""
    arrays = params.arrays()[:-2]
    return [tuple(arrays[i : i + 3]) for i in range(0, len(arrays), 3)]


def oracle_forward(inputs, params, sigma_floor):
    """Plain-Python transcription of the stacked recurrence and head.

    inputs is a list of input vectors (lists).  Returns [(mu, sigma), ...].
    """
    nl, hs = params.num_layers, params.hidden_size
    h = [[0.0] * hs for _ in range(nl)]
    c = [[0.0] * hs for _ in range(nl)]
    out = []
    for x in inputs:
        cur = list(x)
        for li, (wx, wh, b) in enumerate(layer_arrays(params)):
            a = [
                sum(wx[r][j] * cur[j] for j in range(len(cur)))
                + sum(wh[r][j] * h[li][j] for j in range(hs))
                + b[r]
                for r in range(4 * hs)
            ]
            gi = [py_sigmoid(a[r]) for r in range(hs)]
            gf = [py_sigmoid(a[hs + r]) for r in range(hs)]
            gg = [math.tanh(a[2 * hs + r]) for r in range(hs)]
            go = [py_sigmoid(a[3 * hs + r]) for r in range(hs)]
            c[li] = [gf[r] * c[li][r] + gi[r] * gg[r] for r in range(hs)]
            h[li] = [go[r] * math.tanh(c[li][r]) for r in range(hs)]
            cur = h[li]
        mu = sum(params.head_w[0][j] * cur[j] for j in range(hs)) + params.head_b[0]
        s_pre = sum(params.head_w[1][j] * cur[j] for j in range(hs)) + params.head_b[1]
        sigma = math.log1p(math.exp(s_pre)) + sigma_floor
        out.append((mu, sigma))
    return out


def make_params(input_size, hidden_size, num_layers, seed):
    return init_params(input_size, hidden_size, num_layers, substream(seed))


def tiny_model(n_channels=0, hidden=4, layers=1, context=6, horizon=3, seed=0):
    cfg = TrainConfig(
        context_length=context,
        horizon=horizon,
        epochs=0,
        hidden_size=hidden,
        num_layers=layers,
        seed=seed,
    )
    params = make_params(1 + n_channels, hidden, layers, seed)
    return TrainedModel(params, cfg, None, ())


class TestCellMath:
    def test_open_forget_gate_carries_cell(self):
        """With a +20 forget bias and zero elsewhere the cell value survives one step."""
        h, c, _ = lstm_cell(np.array([0.0, 20.0, 0.0, 0.0]), np.array([1.0]), cell_workspace((), 1))
        np.testing.assert_allclose(c, [1.0], atol=1e-8)
        np.testing.assert_allclose(h, [0.5 * math.tanh(c[0])], rtol=1e-12)
        assert abs(h[0] - 0.380797) < 1e-6

    def test_cell_rows_are_independent(self):
        """A batch of rows gives each row what it gets alone, gates included."""
        rng = np.random.default_rng(71)
        a = rng.normal(0.0, 2.0, size=(6, 20))
        c_prev = rng.normal(size=(6, 5))
        h, c, gates = lstm_cell(a.copy(), c_prev, cell_workspace((6,), 5))
        assert h.shape == c.shape == (6, 5) and len(gates) == 5
        for r in range(6):
            h_r, c_r, gates_r = lstm_cell(a[r].copy(), c_prev[r], cell_workspace((), 5))
            np.testing.assert_allclose(h[r], h_r, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(c[r], c_r, rtol=1e-12, atol=1e-15)
            for g, g_r in zip(gates, gates_r):
                np.testing.assert_allclose(g[r], g_r, rtol=1e-12, atol=1e-15)

    @staticmethod
    def cell_from(a, c_prev, hs):
        """The cell's gate math from a given pre-activation a."""
        s = sigmoid(a)
        gg = np.tanh(a[..., 2 * hs : 3 * hs])
        c = s[..., hs : 2 * hs] * c_prev + s[..., :hs] * gg
        tc = np.tanh(c)
        return s[..., 3 * hs :] * tc, c, (s[..., :hs], s[..., hs : 2 * hs], gg, s[..., 3 * hs :], tc)

    def assert_cell_bytes(self, params, x, layout):
        """One sampler step over rows x, with the weights stacked_weights
        lays out for them, gives every layer the cell math of
        x @ layout(wx.T) + h @ layout(wh.T) + b, the top layer's gates
        included."""
        rng = np.random.default_rng(x.size)
        hs = params.hidden_size
        h_prev = rng.normal(0.0, 0.5, (params.num_layers, *x.shape[:-1], hs))
        c_prev = rng.normal(0.0, 0.5, h_prev.shape)
        h, c = h_prev.copy(), c_prev.copy()
        work = cell_workspace(x.shape[:-1], hs)
        advance(x, h, c, params, 1e-6, work, stacked_weights(params, x.shape[:-1]))
        for j, (wx, wh, b) in enumerate(layer_arrays(params)):
            a = x @ layout(wx.T) + h_prev[j] @ layout(wh.T) + b
            h_ref, c_ref, gates_ref = self.cell_from(a, c_prev[j], hs)
            assert h[j].tobytes() == h_ref.tobytes() and c[j].tobytes() == c_ref.tobytes()
            x = h_ref
        s = work.a  # the top layer's sigmoid, in place
        gates = (s[..., :hs], s[..., hs : 2 * hs], work.gg, s[..., 3 * hs :], work.tc)
        for g, g_ref in zip(gates, gates_ref):
            assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("in_size", [3, 4, 40])
    def test_one_row_products_use_the_transposed_views(self, in_size):
        """A one-row product, the encoder's stacked (S, 1, D) slices,
        multiplies by wx.T and wh.T on every layer.  The C-contiguous copies
        round such products differently on some BLAS kernels, which would
        move every forecast; this pins the rule."""
        rng = np.random.default_rng(in_size)
        for n_layers in (1, 2, 3):
            for hidden in (6, 40):
                params = make_params(in_size, hidden, n_layers, seed=hidden)
                for shape in [(1, in_size), (5, 1, in_size), (2, 13, 1, in_size)]:
                    self.assert_cell_bytes(params, rng.normal(0.0, 1.0, shape), lambda w: w)

    @pytest.mark.parametrize("in_size", [3, 4, 40])
    def test_multi_row_products_use_the_copies(self, in_size):
        """Training's (B, D) batches and the sampler's (S, blocks, 8, D)
        blocks multiply by C-contiguous copies of wx.T and wh.T on every
        layer."""
        rng = np.random.default_rng(in_size)
        for n_layers in (1, 2, 3):
            for hidden in (6, 40):
                params = make_params(in_size, hidden, n_layers, seed=hidden)
                for shape in [(2, in_size), (3, in_size), (7, in_size), (32, in_size), (2, 13, 8, in_size)]:
                    self.assert_cell_bytes(params, rng.normal(0.0, 1.0, shape), np.ascontiguousarray)

    @pytest.mark.parametrize("rows", [(32,), (2,), (1,), (5, 1), (2, 13, 8)])
    def test_stacked_weights_keep_each_layers_matrix(self, rows):
        """Each product takes each layer's matrix with the strides a product
        of one layer takes: C-contiguous copies for multi-row products, the
        transposed views for one-row ones.  A stack of transposed views
        built the wrong way is column-major per layer, which rounds like
        the views at width 40 and 2-7 rows."""
        params = make_params(3, 40, 3, seed=2)
        weights = stacked_weights(params, rows)
        one_row = rows[-1] == 1
        layers = layer_arrays(params)
        pairs = [(weights.w0, layers[0][0])]
        pairs += [(weights.wx_t[j - 1], layers[j][0]) for j in (1, 2)]
        pairs += [(weights.wh_t[j], layers[j][1]) for j in range(3)]
        for stacked, w in pairs:
            item = stacked.reshape(stacked.shape[-2:])
            assert item.tobytes() == w.T.tobytes()
            assert item.strides == (w.T.strides if one_row else (8 * w.shape[0], 8))
        assert weights.b.shape == (3, *(1,) * len(rows), 160)
        # one layer: no input weights above layer 0
        assert stacked_weights(make_params(3, 40, 1, seed=2), rows).wx_t.shape == (0, *weights.wx_t.shape[1:])

    def test_workspace_gives_the_same_bytes_and_leaves_state(self):
        """lstm_cell writing into a reused workspace gives the bytes of a
        call into a fresh one, on every row shape the package uses; c_prev
        is never written, and a workspace whose c is c_prev itself, or that
        takes the gates one slab each, gives the same bytes."""
        rng = np.random.default_rng(44)
        for hidden in (6, 40):
            for shape in [(), (1,), (5, 1), (32,), (2, 13, 8), (2, 32)]:
                work = cell_workspace(shape, hidden)
                slabs = np.empty((4, *shape, hidden))
                for _ in range(2):
                    a = rng.normal(0.0, 2.0, (*shape, 4 * hidden))
                    c_prev = rng.normal(0.0, 0.5, (*shape, hidden))
                    before = c_prev.copy()
                    h, c, gates = lstm_cell(a.copy(), c_prev, cell_workspace(shape, hidden))
                    h_w, c_w, gates_w = lstm_cell(a.copy(), c_prev, work)
                    assert h_w is work.h and c_w is work.c
                    assert h_w.tobytes() == h.tobytes() and c_w.tobytes() == c.tobytes()
                    for g, g_w in zip(gates, gates_w):
                        assert g_w.tobytes() == g.tobytes()
                    assert c_prev.tobytes() == before.tobytes()
                    h_s, c_s, gates_s = lstm_cell(a.copy(), c_prev, work._replace(gg=slabs[2], slabs=slabs))
                    assert h_s.tobytes() == h.tobytes() and c_s.tobytes() == c.tobytes()
                    for g, g_s in zip(gates, gates_s):
                        assert g_s.tobytes() == g.tobytes()
                    assert all(g_s.base is slabs for g_s in gates_s[:4])
                    lstm_cell(a.copy(), c_prev, work._replace(c=c_prev))
                    assert c_prev.tobytes() == c.tobytes()

    def test_sigmoid_is_bit_identical_to_masked_form(self):
        """The mask-free sigmoid gives the masked form's bytes: at the edges, on
        the cell's block shapes and on the gate slices the cell takes."""
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 750.0, -750.0])
        assert sigmoid(edges).tobytes() == masked_sigmoid(edges).tobytes()
        rng = np.random.default_rng(29)
        for shape in [(1, 40), (8, 160), (32, 160)]:
            a = rng.normal(0.0, 8.0, size=shape)
            assert sigmoid(a).tobytes() == masked_sigmoid(a).tobytes()
        a = rng.normal(0.0, 8.0, size=(8, 160))
        whole = sigmoid(a)
        for gate in (slice(0, 40), slice(40, 80), slice(120, 160)):
            expected = masked_sigmoid(a[:, gate]).tobytes()
            assert sigmoid(a[:, gate]).tobytes() == expected
            assert np.ascontiguousarray(whole[:, gate]).tobytes() == expected

    def test_zero_weights_give_constant_head(self):
        """An all-zero network is input-blind: mu 0, sigma softplus(0) + floor everywhere."""
        params = make_params(1, 3, 2, seed=1)
        zeros = params.from_arrays([np.zeros_like(a) for a in params.arrays()])
        mu, sigma, _ = forward_window(np.array([5.0, 0.0, 123.0]), None, zeros, 2.0, 1e-6)
        assert mu.shape == sigma.shape == (3,)
        assert np.all(mu == 0.0)
        np.testing.assert_allclose(sigma, math.log(2.0) + 1e-6, rtol=1e-12)

    def test_forward_matches_python_oracle(self):
        """forward_window agrees with the plain-Python recurrence to 1e-12 relative."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            hidden = int(rng.integers(1, 4))
            layers = int(rng.integers(1, 3))
            k = int(rng.integers(0, 3))
            length = int(rng.integers(1, 7))
            params = make_params(1 + k, hidden, layers, seed=int(rng.integers(1000)))
            z_lags = rng.uniform(0.0, 50.0, length)
            x = rng.normal(0.0, 1.0, (length, k)) if k else None
            scale = float(rng.uniform(0.5, 20.0))
            mu, sigma, (h, c) = forward_window(z_lags, x, params, scale, 1e-6)
            inputs = [
                [z_lags[t] / scale] + ([float(v) for v in x[t]] if k else [])
                for t in range(length)
            ]
            expected = oracle_forward(inputs, params, 1e-6)
            for t, (mu_ref, sigma_ref) in enumerate(expected):
                np.testing.assert_allclose(mu[t], mu_ref, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(sigma[t], sigma_ref, rtol=1e-12)
            assert h.shape == c.shape == (layers, hidden)

    def test_series_scale(self):
        """scale = 1 + mean of the conditioning range, one per row."""
        assert series_scale(np.array([1.0, 2.0, 3.0])) == 3.0
        assert series_scale(np.array([0.0])) == 1.0
        # a (B, L) range gives one scale per row, each the bytes of the row's own
        rows = np.random.default_rng(1).uniform(0.0, 50.0, (5, 13))
        scales = series_scale(rows)
        assert scales.shape == (5,)
        assert scales.tobytes() == np.array([series_scale(r) for r in rows]).tobytes()

    def test_cut_windows_matches_per_row_loop(self):
        """cut_windows gives the bytes of the per-row loop training used to cut
        its batches with, for windows at offset 0 and at the last step, with
        and without channels."""
        rng = np.random.default_rng(21)
        n_series, n_steps, n_channels, context, horizon = 4, 30, 3, 7, 3
        length = context + horizon
        values = rng.uniform(0.0, 80.0, (n_series, n_steps))
        channels = rng.normal(0.0, 1.0, (n_series, n_channels, n_steps + horizon))
        rows = np.array([2, 0, 3, 1, 2, 0])
        starts = np.array([0, n_steps - length, 5, 0, 11, 19])

        def per_row_loop(channels):
            z_windows = np.empty((rows.size, length + 1))
            scales = np.empty(rows.size)
            x_windows = np.empty((rows.size, length, n_channels)) if channels is not None else None
            for row, (sid, start) in enumerate(zip(rows, starts)):
                z_windows[row, 0] = values[sid, start - 1] if start > 0 else 0.0
                z_windows[row, 1:] = values[sid, start : start + length]
                scales[row] = 1.0 + float(np.mean(values[sid, start : start + context]))
                if x_windows is not None:
                    x_windows[row] = channels[sid, :, start : start + length].T
            return z_windows, x_windows, scales

        for ch in (channels, None):
            z, x, scales = cut_windows(values, ch, rows, starts, length, context)
            z_ref, x_ref, scales_ref = per_row_loop(ch)
            assert z.tobytes() == z_ref.tobytes()
            assert scales.tobytes() == scales_ref.tobytes()
            if ch is None:
                assert x is None and x_ref is None
            else:
                assert x.shape == x_ref.shape and x.tobytes() == x_ref.tobytes()
        assert z[0, 0] == z[3, 0] == 0.0
        assert z[1, -1] == values[0, -1]

    def test_gaussian_nll_pinned(self):
        """At the mode with unit sigma the NLL is 0.5*log(2*pi); off-mode adds the squared residual."""
        nll = gaussian_nll(2.0, 2.0, 1.0)
        np.testing.assert_allclose(nll, 0.5 * math.log(2.0 * math.pi), rtol=1e-12)
        assert abs(nll - 0.9189385) < 1e-7
        off = gaussian_nll(3.0, 0.0, 2.0)
        np.testing.assert_allclose(
            off, 0.5 * math.log(2.0 * math.pi * 4.0) + 9.0 / 8.0, rtol=1e-12
        )
        both = gaussian_nll(np.array([2.0, 1.0]), np.array([2.0, 0.0]), np.array([1.0, 2.0]))
        np.testing.assert_allclose(
            both, [nll, 0.5 * math.log(2.0 * math.pi * 4.0) + 1.0 / 8.0], rtol=1e-12
        )
        with pytest.raises(ValueError, match="^non-finite"):
            gaussian_nll(1.0, math.nan, 1.0)  # training reports divergence with this


class TestGradients:
    def loss_only(self, z, x, scales, params, floor=1e-6):
        return batch_loss_and_grad(z, x, scales, params, floor)[0]

    def test_batch_loss_equals_scalar_path(self):
        """The batched loss equals the mean of per-step NLLs from the scalar forward pass."""
        rng = np.random.default_rng(21)
        for _ in range(5):
            hidden = int(rng.integers(2, 5))
            k = int(rng.integers(0, 3))
            t_len = int(rng.integers(2, 7))
            b = int(rng.integers(1, 4))
            params = make_params(1 + k, hidden, 2, seed=int(rng.integers(1000)))
            z = rng.uniform(0.0, 30.0, (b, t_len + 1))
            x = rng.normal(0.0, 1.0, (b, t_len, k)) if k else None
            scales = rng.uniform(1.0, 10.0, b)
            loss, _ = batch_loss_and_grad(z, x, scales, params)
            ref = []
            for i in range(b):
                mu, sigma, _ = forward_window(
                    z[i, :-1], x[i] if k else None, params, scales[i]
                )
                ref.extend(gaussian_nll(z[i, 1:] / scales[i], mu, sigma))
            np.testing.assert_allclose(loss, np.mean(ref), rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        """Analytic gradients agree with central differences on every coordinate."""
        rng = np.random.default_rng(42)
        eps = 1e-5
        for hidden, layers, k in [(3, 1, 0), (2, 2, 2)]:
            params = make_params(1 + k, hidden, layers, seed=int(rng.integers(1000)))
            b, t_len = 2, 5
            z = rng.uniform(0.0, 20.0, (b, t_len + 1))
            x = rng.normal(0.0, 1.0, (b, t_len, k)) if k else None
            scales = rng.uniform(1.0, 8.0, b)
            _, grads = batch_loss_and_grad(z, x, scales, params)
            gvec = grads.to_vector()
            theta0 = params.to_vector()
            worst = 0.0
            for j in range(theta0.size):
                up, dn = theta0.copy(), theta0.copy()
                up[j] += eps
                dn[j] -= eps
                f_up = self.loss_only(z, x, scales, params.from_vector(up))
                f_dn = self.loss_only(z, x, scales, params.from_vector(dn))
                num = (f_up - f_dn) / (2.0 * eps)
                rel = abs(gvec[j] - num) / max(1.0, abs(gvec[j]), abs(num))
                worst = max(worst, rel)
            assert worst < 1e-6, worst

    def test_batch_gradient_is_mean_of_window_gradients(self):
        """Batching is an average: batch gradient equals the mean of the gradients
        of batches of one window."""
        rng = np.random.default_rng(33)
        params = make_params(2, 3, 1, seed=5)
        b, t_len = 4, 6
        z = rng.uniform(0.0, 40.0, (b, t_len + 1))
        x = rng.normal(0.0, 1.0, (b, t_len, 1))
        scales = rng.uniform(1.0, 5.0, b)
        loss, grads = batch_loss_and_grad(z, x, scales, params)
        single = [
            batch_loss_and_grad(z[i : i + 1], x[i : i + 1], scales[i : i + 1], params)
            for i in range(b)
        ]
        np.testing.assert_allclose(loss, np.mean([s[0] for s in single]), rtol=1e-12)
        mean_grad = np.mean([s[1].to_vector() for s in single], axis=0)
        np.testing.assert_allclose(grads.to_vector(), mean_grad, rtol=1e-9, atol=1e-12)

    def test_shared_buffers_leave_no_stale_state(self):
        """Calls through one buffer set (a full batch, a smaller one, then
        another full one) give the bytes of the same calls with their own
        caches, whatever the buffers held before."""
        rng = np.random.default_rng(8)
        params = make_params(3, 5, 2, seed=4)
        t_len = 6
        buffers = batch_buffers(5, t_len, params)
        for buf in buffers:
            buf.fill(np.nan)
        for b in (5, 3, 5):
            z = rng.uniform(0.0, 30.0, (b, t_len + 1))
            x = rng.normal(0.0, 1.0, (b, t_len, 2))
            scales = rng.uniform(1.0, 10.0, b)
            loss, grads = batch_loss_and_grad(z, x, scales, params, 1e-6, buffers)
            own_loss, own_grads = batch_loss_and_grad(z, x, scales, params)
            assert loss == own_loss
            assert grads.to_vector().tobytes() == own_grads.to_vector().tobytes()
        with pytest.raises(ValueError, match="cannot hold 6 windows"):
            batch_loss_and_grad(z[[0] * 6], x[[0] * 6], scales[[0] * 6], params, 1e-6, buffers)

    @pytest.mark.parametrize(
        "hidden, layers",
        [(16, 2), (40, 1), (40, 3)],
        ids=["hidden-16", "one-layer", "three-layer"],
    )
    def test_buffers_of_another_network_are_a_value_error(self, hidden, layers):
        """A buffer set built for another hidden size or layer count is one
        ValueError naming both sets of shapes, before any work: not numpy's
        matmul error, an IndexError that train's handler would miss, or a
        set silently accepted."""
        params = make_params(1, 40, 2, seed=3)
        rng = np.random.default_rng(3)
        z = rng.uniform(0.0, 30.0, (4, 11))
        scales = rng.uniform(1.0, 10.0, 4)
        buffers = batch_buffers(4, 10, make_params(1, hidden, layers, seed=3))
        given = str(tuple(b.shape for b in buffers))
        needed = str(tuple(b.shape for b in batch_buffers(4, 10, params)))
        with pytest.raises(ValueError, match="cannot hold 4 windows of 10 steps") as err:
            batch_loss_and_grad(z, None, scales, params, 1e-6, buffers)
        assert given in str(err.value) and needed in str(err.value)

    def test_bad_inputs_are_value_errors(self):
        """batch_loss_and_grad is a public boundary: covariates that are
        missing, of the wrong channel count or length, given to a channel-free
        model, or non-finite, and non-finite targets, scales that are not
        positive or not one per window, and a sigma floor that is not
        positive are each a ValueError naming the fault."""
        params = make_params(3, 2, 1, seed=3)
        plain = make_params(1, 2, 1, seed=3)
        z = np.array([[1.0, 2.0, 3.0]])
        x = np.zeros((1, 2, 2))
        ones = np.array([1.0])
        cases = [
            ((z, None, ones, params), "expects 2 covariate channels"),
            ((z, np.zeros((1, 2, 3)), ones, params), "covariates of shape"),
            ((z, np.zeros((1, 3, 2)), ones, params), "covariates of shape"),
            ((z, np.zeros((1, 2, 1)), ones, plain), "takes no covariates"),
            ((z, np.array([[[0.0, 1.0], [np.inf, 0.0]]]), ones, params), "non-finite covariate"),
            ((np.array([[1.0, np.inf, 3.0]]), x, ones, params), "non-finite values in z_windows"),
            ((z, x, np.array([0.0]), params), "scales must be finite and positive"),
            ((z, x, np.ones(2), params), "expected 1 scales"),
            ((z, x, ones, params, 0.0), "sigma_floor must be positive"),
        ]
        for args, phrase in cases:
            with pytest.raises(ValueError, match=phrase):
                batch_loss_and_grad(*args)

    def test_buffers_of_another_length_are_a_value_error(self):
        params = make_params(1, 5, 2, seed=3)
        z = np.random.default_rng(3).uniform(0.0, 30.0, (4, 11))
        for buffers in (batch_buffers(4, 9, params), batch_buffers(4, 10, params)[:3]):
            with pytest.raises(ValueError, match="cannot hold 4 windows of 10 steps"):
                batch_loss_and_grad(z, None, np.ones(4), params, 1e-6, buffers)

    def test_vector_round_trip(self):
        """to_vector / from_vector are inverse and preserve shapes."""
        params = make_params(3, 4, 2, seed=9)
        vec = params.to_vector()
        assert vec.shape == (params.n_parameters(),)
        back = params.from_vector(vec)
        for a, b_arr in zip(params.arrays(), back.arrays()):
            np.testing.assert_array_equal(a, b_arr)
        with pytest.raises(ValueError):
            params.from_vector(vec[:-1])

    def test_freeze_makes_every_array_read_only(self):
        """freeze makes the six stacks read-only, not only the views arrays()
        returns: a read-only view leaves its base writable."""
        params = make_params(3, 5, 2, seed=2)
        assert params.freeze() is params
        stacks = [params.w0, params.wx, params.wh, params.b, params.head_w, params.head_b]
        for a in stacks + params.arrays():
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 1.0

    def test_finite_loss_with_non_finite_gradient_is_a_value_error(self):
        """An all-zero network whose location is exactly a constant series'
        scaled value and whose spread is the floor, 1e-150: sigma squared,
        1e-300, keeps the loss finite, but sigma cubed underflows to 0, so
        the spread's gradient is 0/0.  That is a ValueError, as a diverging
        run must be, not a gradient that reaches the update."""
        c = 7.0
        params = make_params(1, 3, 2, seed=1)
        arrays = [np.zeros_like(a) for a in params.arrays()]
        arrays[-1] = np.array([c / (1.0 + c), -1000.0])
        params = params.from_arrays(arrays)
        z = np.full((2, 5), c)
        scales = np.full(2, 1.0 + c)
        mu, sigma, _ = forward_window(z[0, :-1], None, params, scales[0], 1e-150)
        assert np.all(np.isfinite(gaussian_nll(z[0, 1:] / scales[0], mu, sigma)))
        with np.errstate(invalid="ignore", divide="ignore", under="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                batch_loss_and_grad(z, None, scales, params, 1e-150)


def reference_pass(z, x, scales, params, floor=1e-6):
    """The per-layer teacher-forced pass training ran before the wavefront:
    forward step by step and layer by layer, then backward the same way in
    reverse.  Returns the loss, the gradient and the top layer's rows (B, T,
    hidden).  Written with the operations the package applies, in the same
    order, so its bytes are the ones the wavefront must reproduce."""
    inputs = input_rows(z[:, :-1] / scales[:, None], x)
    targets = z[:, 1:] / scales[:, None]
    n_batch, length, _ = inputs.shape
    n_layers, hs = params.num_layers, params.hidden_size
    h_all = np.zeros((length + 1, n_layers, n_batch, hs))
    c_all = np.zeros_like(h_all)
    gi_all, gf_all, gg_all, go_all, tc_all = (np.empty((length, n_layers, n_batch, hs)) for _ in range(5))
    # the layout rule: C-contiguous copies of the transposes, the views for one row
    layout = np.ascontiguousarray if n_batch > 1 else (lambda w: w)
    for t in range(length):
        x_t = inputs[:, t, :]
        for idx, (wx, wh, b) in enumerate(layer_arrays(params)):
            a = x_t @ layout(wx.T) + h_all[t, idx] @ layout(wh.T) + b
            gg = np.tanh(a[:, 2 * hs : 3 * hs])
            s = masked_sigmoid(a)
            gi, gf, go = s[:, :hs], s[:, hs : 2 * hs], s[:, 3 * hs :]
            c = gf * c_all[t, idx] + gi * gg
            tc = np.tanh(c)
            h_all[t + 1, idx], c_all[t + 1, idx] = go * tc, c
            gi_all[t, idx], gf_all[t, idx], gg_all[t, idx], go_all[t, idx], tc_all[t, idx] = gi, gf, gg, go, tc
            x_t = h_all[t + 1, idx]
    top_h = h_all[1:, n_layers - 1].transpose(1, 0, 2)
    raw = top_h @ params.head_w.T + params.head_b
    mu, s_pre = raw[:, :, 0], raw[:, :, 1]
    sigma = softplus(s_pre) + floor
    loss = float(np.mean(gaussian_nll(targets, mu, sigma)))
    inv_count = 1.0 / (n_batch * length)
    d_mu = (mu - targets) / (sigma * sigma) * inv_count
    resid = targets - mu
    d_spre = (1.0 / sigma - resid * resid / sigma**3) * inv_count * sigmoid(s_pre)
    d_raw = np.stack([d_mu, d_spre], axis=2)
    d_head_w = np.einsum("btr,bth->rh", d_raw, top_h)
    d_head_b = d_raw.sum(axis=(0, 1))
    d_top = d_raw @ params.head_w
    d_layers = [[np.zeros_like(a) for a in layer] for layer in layer_arrays(params)]
    dh_next = np.zeros((n_layers, n_batch, hs))
    dc_next = np.zeros((n_layers, n_batch, hs))
    da = np.empty((n_batch, 4 * hs))
    for t in range(length - 1, -1, -1):
        dx_above = None
        for idx in range(n_layers - 1, -1, -1):
            dh = dh_next[idx] + (d_top[:, t] if dx_above is None else dx_above)
            gi, gf, gg, go, tc = (cache[t, idx] for cache in (gi_all, gf_all, gg_all, go_all, tc_all))
            dct = dc_next[idx] + dh * go * (1.0 - tc * tc)
            da[:, :hs] = dct * gg * gi * (1.0 - gi)
            da[:, hs : 2 * hs] = dct * c_all[t, idx] * gf * (1.0 - gf)
            da[:, 2 * hs : 3 * hs] = dct * gi * (1.0 - gg * gg)
            da[:, 3 * hs :] = dh * tc * go * (1.0 - go)
            dc_next[idx] = dct * gf
            wx, wh, _ = layer_arrays(params)[idx]
            d_wx, d_wh, d_b = d_layers[idx]
            x_in = inputs[:, t, :] if idx == 0 else h_all[t + 1, idx - 1]
            d_wx += da.T @ x_in
            d_wh += da.T @ h_all[t, idx]
            d_b += da.sum(axis=0)
            dh_next[idx] = da @ wh
            dx_above = da @ wx if idx > 0 else None
    grads = NetworkParams.from_arrays([*(a for layer in d_layers for a in layer), d_head_w, d_head_b])
    return loss, grads, top_h


class TestWavefront:
    """Training and the encoder advance every layer of a teacher-forced pass
    in one call per wavefront; only the call schedule differs from running
    the layers one at a time, so not one byte does."""

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("in_size", [1, 3])
    def test_training_pass_matches_the_per_layer_loop(self, n_layers, in_size):
        """Loss, every gradient array and the top layer's rows, at full and
        partial batches (a partial one uses the leading rows of a bigger
        buffer set), including batches of 1 and of 2-7 windows, which take
        other BLAS paths at width 40."""
        rng = np.random.default_rng(10 * n_layers + in_size)
        params = make_params(in_size, 40, n_layers, seed=n_layers)
        params = params.from_vector(params.to_vector() * 4.0)  # gates away from 0.5
        t_len = 23
        buffers = batch_buffers(32, t_len, params)
        for b in (32, 5, 1, 2, 17):
            z = rng.uniform(0.0, 80.0, (b, t_len + 1))
            z[0, 0] = 0.0  # a window at a series' start
            x = rng.normal(0.0, 1.0, (b, t_len, in_size - 1)) if in_size > 1 else None
            scales = rng.uniform(1.0, 40.0, b)
            loss, grads = batch_loss_and_grad(z, x, scales, params, 1e-6, buffers)
            ref_loss, ref_grads, ref_top = reference_pass(z, x, scales, params)
            assert loss == ref_loss
            for g, g_ref in zip(grads.arrays(), ref_grads.arrays()):
                assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()
            top = buffers[0][n_layers:, n_layers - 1, :b].transpose(1, 0, 2)
            assert top.tobytes() == np.ascontiguousarray(ref_top).tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_encoder_matches_a_per_step_advance_loop(self, n_layers):
        """forward_window over S windows gives the bytes of advancing S
        one-row slices step by step through every layer in turn, as the
        encoder did before the wavefront: locations, spreads and final
        state."""
        rng = np.random.default_rng(n_layers)
        params = make_params(3, 40, n_layers, seed=n_layers)
        params = params.from_vector(params.to_vector() * 4.0)
        n_series, length = 5, 17
        z = rng.uniform(0.0, 50.0, (n_series, length))
        x = rng.normal(0.0, 1.0, (n_series, length, 2))
        scales = rng.uniform(1.0, 30.0, n_series)
        mu, sigma, (h, c) = forward_window(z, x, params, scales, 1e-6)
        inputs = input_rows(z / scales[:, None], x)
        h_ref = np.zeros((n_layers, n_series, 1, 40))
        c_ref = np.zeros_like(h_ref)
        work = cell_workspace((n_series, 1), 40)
        weights = stacked_weights(params, (n_series, 1))
        mu_ref, sigma_ref = np.empty_like(z), np.empty_like(z)
        for t in range(length):
            mu_ref[:, t : t + 1], sigma_ref[:, t : t + 1] = advance(
                inputs[:, t : t + 1, :], h_ref, c_ref, params, 1e-6, work, weights
            )
        assert mu.tobytes() == mu_ref.tobytes() and sigma.tobytes() == sigma_ref.tobytes()
        assert h.tobytes() == np.ascontiguousarray(h_ref[..., 0, :]).tobytes()
        assert c.tobytes() == np.ascontiguousarray(c_ref[..., 0, :]).tobytes()
        # one window alone: the same bytes as its row of the stack
        mu_1, _, (h_1, _) = forward_window(z[2], x[2], params, scales[2], 1e-6)
        assert mu_1.tobytes() == mu[2].tobytes() and h_1.tobytes() == np.ascontiguousarray(h[:, 2]).tobytes()


def sinusoid_panel(n_series=8, n_steps=60, seed=17, noise=0.02):
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps)
    rows = []
    for _ in range(n_series):
        level = rng.uniform(200.0, 600.0)
        amp = rng.uniform(30.0, 80.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        x = level + amp * np.sin(2.0 * math.pi * t / 7.0 + phase)
        x += rng.normal(0.0, noise * amp, n_steps)
        rows.append(np.maximum(x, 0.0))
    ids = tuple(f"s{i:02d}" for i in range(n_series))
    return SeriesPanel(ids, dt.date(2021, 1, 1), np.stack(rows))


class TestTraining:
    def small_cfg(self, **kw):
        base = dict(
            context_length=7,
            horizon=3,
            epochs=3,
            learning_rate=1e-2,
            batch_size=16,
            hidden_size=8,
            num_layers=1,
            seed=11,
            windows_per_series=8,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_returns_seeded_init(self):
        """epochs=0 yields exactly the seeded initial parameters and an empty loss curve."""
        panel = sinusoid_panel()
        cfg = self.small_cfg(epochs=0)
        model = train(panel, None, cfg)
        expected = init_params(1, cfg.hidden_size, cfg.num_layers, substream(cfg.seed, 0))
        np.testing.assert_array_equal(model.params.to_vector(), expected.to_vector())
        assert model.epoch_nll == ()
        assert model.train_config == cfg

    def test_training_is_deterministic(self):
        """Two runs with one config produce bit-identical parameters and loss curves."""
        panel = sinusoid_panel()
        cfg = self.small_cfg(epochs=2)
        a = train(panel, None, cfg)
        b = train(panel, None, cfg)
        np.testing.assert_array_equal(a.params.to_vector(), b.params.to_vector())
        assert a.epoch_nll == b.epoch_nll

    def test_seed_changes_result(self):
        panel = sinusoid_panel()
        a = train(panel, None, self.small_cfg(epochs=1, seed=1))
        b = train(panel, None, self.small_cfg(epochs=1, seed=2))
        assert not np.array_equal(a.params.to_vector(), b.params.to_vector())

    def test_loss_decreases_on_easy_panel(self):
        """A few epochs on a clean weekly panel lower the epoch loss."""
        panel = sinusoid_panel()
        model = train(panel, None, self.small_cfg(epochs=4))
        assert len(model.epoch_nll) == 4
        assert model.epoch_nll[-1] < model.epoch_nll[0]
        assert all(math.isfinite(v) for v in model.epoch_nll)

    def test_step_size_decays_along_a_cosine(self):
        """Full step size at the first update, half at mid-run, nearly zero at the last."""
        assert step_size(0.01, 0, 600) == 0.01
        assert step_size(0.01, 300, 600) == pytest.approx(0.005, rel=1e-12)
        last = step_size(0.01, 599, 600)
        assert 0.0 < last < 1e-6
        sizes = [step_size(0.01, k, 600) for k in range(600)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_train_decays_over_the_whole_run(self, monkeypatch):
        """One step size per update, and the run's update count fixes the decay."""
        calls = []

        def spy(learning_rate, step, total_steps):
            calls.append((learning_rate, step, total_steps))
            return step_size(learning_rate, step, total_steps)

        monkeypatch.setattr(training, "step_size", spy)
        cfg = self.small_cfg(epochs=2, batch_size=24)
        train(sinusoid_panel(), None, cfg)
        # 8 series x 8 windows in batches of 24: 3 updates per epoch
        assert calls == [(cfg.learning_rate, k, 6) for k in range(6)]

    def test_default_optimizer_learns_past_the_level_plateau(self):
        """Default step size, clip and schedule learn the weekly shape, not only the level.

        The plateau is the loss of the best level-only model: a Gaussian with each
        series' own mean and variance on the scaled series.  A fit that has only
        found the level ends at or above it; one that has found the season ends
        well below.
        """
        panel = sinusoid_panel()
        cfg = TrainConfig(
            context_length=14,
            horizon=7,
            epochs=20,
            hidden_size=16,
            num_layers=1,
            windows_per_series=64,
        )
        model = train(panel, None, cfg)
        scaled_var = panel.values.var(axis=1) / (1.0 + panel.values.mean(axis=1)) ** 2
        plateau = float(np.mean(0.5 * np.log(2.0 * math.pi * scaled_var) + 0.5))
        assert model.epoch_nll[-1] < plateau - 0.5

    def test_divergence_is_a_train_error(self):
        """A step size that blows the fit up ends as a TrainError naming where,
        raised before the update, with no numpy warnings on the way."""
        cfg = self.small_cfg(learning_rate=1e300, epochs=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainError, match=r"diverged at epoch 1, batch 2: non-finite"):
                train(sinusoid_panel(), None, cfg)

    def test_overflowing_series_scale_is_a_train_error(self):
        """Values whose window mean overflows float64 end as one TrainError
        naming the cause, with no numpy warning."""
        panel = sinusoid_panel(n_series=2, n_steps=20)
        huge = SeriesPanel(panel.series_ids, panel.start_date, np.full(panel.values.shape, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainError, match="too large for the series scale"):
                train(huge, None, self.small_cfg())

    def test_divergence_names_the_epoch_and_batch(self, monkeypatch):
        """Epoch and batch are 1-based and count across the run's epochs."""
        calls = []

        def spy(*args):
            calls.append(args)
            if len(calls) == 6:
                raise ValueError("non-finite gradient")
            return batch_loss_and_grad(*args)

        monkeypatch.setattr(training, "batch_loss_and_grad", spy)
        # 8 series x 8 windows in batches of 16: 4 updates per epoch
        with pytest.raises(TrainError, match=r"at epoch 2, batch 2: non-finite gradient"):
            train(sinusoid_panel(), None, self.small_cfg(epochs=2))

    @pytest.mark.parametrize("n_series, batch_size, num_layers", [(13, 32, 1), (8, 7, 3)])
    def test_shared_buffers_train_bit_identically(
        self, monkeypatch, n_series, batch_size, num_layers
    ):
        """A run whose batches, the partial last one included, share one
        buffer set gives the bytes of a run whose batches allocate their own."""
        panel = sinusoid_panel(n_series=n_series)
        cfg = self.small_cfg(
            batch_size=batch_size, num_layers=num_layers, windows_per_series=5, epochs=2
        )
        shared = train(panel, None, cfg)
        monkeypatch.setattr(
            training, "batch_loss_and_grad", lambda *args: batch_loss_and_grad(*args[:5])
        )
        own = train(panel, None, cfg)
        assert shared.params.to_vector().tobytes() == own.params.to_vector().tobytes()
        assert shared.epoch_nll == own.epoch_nll

    def test_one_buffer_set_per_run(self, monkeypatch):
        """Every batch of a run gets the same buffer set, sized for a full
        batch, and the set is gone once train returns."""
        seen = []

        def spy(*args):
            seen.append(args[5])
            return batch_loss_and_grad(*args)

        monkeypatch.setattr(training, "batch_loss_and_grad", spy)
        # 8 series x 5 windows in batches of 16: 16, 16 and 8 windows per epoch
        cfg = self.small_cfg(windows_per_series=5, epochs=2)
        train(sinusoid_panel(), None, cfg)
        assert len(seen) == 6
        first = seen[0]
        assert first[0].shape == (cfg.window_len + 1, 1, 16, 8)
        assert all(all(a is b for a, b in zip(bufs, first)) for bufs in seen)
        refs = [weakref.ref(buf) for buf in first]
        del seen[:], first
        assert all(ref() is None for ref in refs)

    def test_rejects_short_panel(self):
        """Series shorter than one training window are rejected."""
        panel = sinusoid_panel(n_steps=9)
        with pytest.raises(TrainError, match="shorter"):
            train(panel, None, self.small_cfg())

    def test_config_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(context_length=3, horizon=5)
        with pytest.raises(TrainError):
            TrainConfig(epochs=-1)
        with pytest.raises(TrainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainError):
            TrainConfig(hidden_size=0)
        with pytest.raises(TrainError):
            TrainConfig(sigma_floor=0.0)
        with pytest.raises(TrainError):
            TrainConfig(windows_per_series=0)
        with pytest.raises(TrainError):
            TrainConfig(clip_norm=0.0)
        assert TrainConfig().window_len == 93

    def test_lma_config_requires_covariates(self):
        from cellcast import LmaConfig

        panel = sinusoid_panel()
        with pytest.raises(TrainError, match="covariates"):
            train(panel, None, self.small_cfg(), lma_config=LmaConfig(window_len=7, horizon=3))

    def test_covariates_must_align(self):
        """Mismatched series ids or horizon in the covariate panel are rejected."""
        from cellcast import LmaConfig, assemble_covariates

        panel = sinusoid_panel()
        other = sinusoid_panel(n_series=5)
        cfg = self.small_cfg()
        cov = assemble_covariates(other, LmaConfig(window_len=7, horizon=3), 3)
        with pytest.raises(TrainError):
            train(panel, cov, cfg)
        wrong_h = assemble_covariates(panel, LmaConfig(window_len=7, horizon=4), 4)
        with pytest.raises(TrainError):
            train(panel, wrong_h, cfg)

    @pytest.mark.parametrize("case", ["window_len", "day_of_week", "no_lma_config"])
    def test_covariates_must_be_the_ones_the_configs_build(self, monkeypatch, case):
        """train takes only the covariates its configs build, the ones a forecast
        from the model rebuilds; any other set is a TrainError before the
        first batch."""
        from cellcast import LmaConfig, assemble_covariates

        calls = []

        def spy(*args):
            calls.append(args)
            return batch_loss_and_grad(*args)

        monkeypatch.setattr(training, "batch_loss_and_grad", spy)
        panel = sinusoid_panel()
        cfg = self.small_cfg(epochs=1)
        lma = LmaConfig(window_len=7, horizon=3)
        cov, lma_arg = {
            # channels smoothed over another window than lma_config's
            "window_len": (assemble_covariates(panel, LmaConfig(window_len=8, horizon=3), 3), lma),
            # a calendar channel the train config does not ask for
            "day_of_week": (assemble_covariates(panel, lma, 3, day_of_week=True), lma),
            # LMA channels without the lma_config that would rebuild them
            "no_lma_config": (assemble_covariates(panel, lma, 3), None),
        }[case]
        with pytest.raises(TrainError, match="covariates differ"):
            train(panel, cov, cfg, lma_arg)
        assert calls == []
        train(panel, assemble_covariates(panel, lma, 3), cfg, lma)
        assert calls

    def test_hand_built_record_trains_like_the_built_one(self):
        """train trains on its own build and only compares the caller's record
        with it, so a record written by hand with list channels equal to the
        build trains to the built record's bytes."""
        from cellcast import CovariatePanel, LmaConfig, assemble_covariates

        panel = sinusoid_panel()
        cfg = self.small_cfg(epochs=1, day_of_week=True)
        lma = LmaConfig(window_len=7, horizon=3)
        built = assemble_covariates(panel, lma, 3, day_of_week=True)
        channels = built.channels.tolist()
        by_hand = CovariatePanel(built.series_ids, built.kinds, built.horizon, channels)
        want = train(panel, built, cfg, lma)
        got = train(panel, by_hand, cfg, lma)
        assert got.params.to_vector().tobytes() == want.params.to_vector().tobytes()
        assert got.epoch_nll == want.epoch_nll


class TestForecasting:
    def conditioning(self, rng, m=20):
        return rng.uniform(10.0, 100.0, m)

    @staticmethod
    def sample_one(model, cond, cov=None, *, seed=0, **kwargs):
        """One series through the group form: its sample matrix and its scale."""
        fc = sample_forecast(model, cond[None], None if cov is None else cov[None], seeds=[seed], **kwargs)
        return fc.samples[0], fc.scales[0]

    def test_same_seed_is_bit_identical(self):
        """One seed, one sample matrix."""
        rng = np.random.default_rng(3)
        model = tiny_model()
        cond = self.conditioning(rng)
        a, scale_a = self.sample_one(model, cond, n_samples=8, seed=42)
        b, scale_b = self.sample_one(model, cond, n_samples=8, seed=42)
        np.testing.assert_array_equal(a, b)
        assert scale_a == scale_b == series_scale(cond[-6:])

    def test_trajectories_have_independent_streams(self):
        """Trajectory s depends only on (seed, s): more samples extend, never change, earlier rows."""
        rng = np.random.default_rng(4)
        model = tiny_model()
        cond = self.conditioning(rng)
        small, _ = self.sample_one(model, cond, n_samples=5, seed=7)
        big, _ = self.sample_one(model, cond, n_samples=9, seed=7)
        np.testing.assert_array_equal(big[:5], small)
        # the default network size, where a BLAS kernel's rounding of a row
        # can depend on how many rows the product has
        k = 2
        model = tiny_model(n_channels=k, hidden=40, layers=2, context=62, horizon=31, seed=5)
        cond = self.conditioning(rng, m=70)
        cov = rng.normal(0.0, 1.0, (k, 70 + 31))
        big, _ = self.sample_one(model, cond, cov, n_samples=100, seed=(7, 3))
        for n in (1, 2, 7, 8, 9, 17):
            small, _ = self.sample_one(model, cond, cov, n_samples=n, seed=(7, 3))
            np.testing.assert_array_equal(big[:n], small)

    def test_stacked_blocks_keep_each_blocks_rounding(self):
        """Hundreds of blocks advance in one call, yet every block rounds as it
        would alone.  Flattening them into one (rows, D) product changes the
        head's rounding once it has a few hundred rows (608 on OpenBLAS 0.3
        Haswell kernels), so 640 samples must start with the 8-sample matrix."""
        rng = np.random.default_rng(4)
        k = 2
        model = tiny_model(n_channels=k, hidden=40, layers=2, context=62, horizon=31, seed=5)
        cond = self.conditioning(rng, m=70)
        cov = rng.normal(0.0, 1.0, (k, 70 + 31))
        big, _ = self.sample_one(model, cond, cov, n_samples=640, seed=(7, 3))
        small, _ = self.sample_one(model, cond, cov, n_samples=8, seed=(7, 3))
        np.testing.assert_array_equal(big[:8], small)

    def test_int_seed_equals_singleton_tuple(self):
        """An integer seed is shorthand for the one-element tuple, and one
        group's seeds may mix the two forms and their lengths."""
        rng = np.random.default_rng(5)
        model = tiny_model()
        cond = self.conditioning(rng)
        group = np.stack([cond, cond])
        a = sample_forecast(model, group, n_samples=4, seeds=[9, (9, 1)])
        b = sample_forecast(model, group, n_samples=4, seeds=[(9,), (9, 1)])
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples[0], a.samples[1])

    def test_samples_non_negative_and_shaped(self):
        """A Forecast holds (series, n_samples, horizon) samples, all >= 0,
        and (series,) scales; neither the object nor its samples can be
        changed."""
        rng = np.random.default_rng(6)
        model = tiny_model(horizon=4)
        cond = np.stack([self.conditioning(rng), self.conditioning(rng)])
        f = sample_forecast(model, cond, n_samples=12, seeds=[1, 2])
        assert f.samples.shape == (2, 12, 4) and f.scales.shape == (2,)
        assert np.all(f.samples >= 0.0)
        with pytest.raises(ValueError):
            f.samples[0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            f.samples = f.samples.copy()

    def test_shorter_horizon_is_a_prefix_decision(self):
        """Asking for fewer steps replays the same draws over a shorter loop."""
        rng = np.random.default_rng(61)
        model = tiny_model(horizon=5)
        cond = self.conditioning(rng)
        full, _ = self.sample_one(model, cond, n_samples=6, seed=3)
        short, _ = self.sample_one(model, cond, horizon=2, n_samples=6, seed=3)
        np.testing.assert_array_equal(short, full[:, :2])

    @pytest.mark.parametrize("n_series, n_samples", [(5, 100), (33, 2)])
    def test_one_call_equals_per_series_calls(self, n_series, n_samples):
        """One call encodes all its series in one pass and advances them
        group_size(n_samples) at a time (2, 2, 1 series at 100 samples; 32
        then 1 at 2), yet every series gets the bytes of sampling it alone."""
        rng = np.random.default_rng(n_series)
        k = 2
        model = tiny_model(n_channels=k, hidden=40, layers=2, context=14, horizon=5, seed=5)
        cond = rng.uniform(10.0, 100.0, (n_series, 20))
        cov = rng.normal(0.0, 1.0, (n_series, k, 25))
        seeds = [(7, i) for i in range(n_series)]
        group = sample_forecast(model, cond, cov, n_samples=n_samples, seeds=seeds)
        assert group.samples.shape == (n_series, n_samples, 5)
        for i in range(n_series):
            alone, scale = self.sample_one(model, cond[i], cov[i], n_samples=n_samples, seed=seeds[i])
            assert group.samples[i].tobytes() == alone.tobytes(), i
            assert group.scales[i] == scale

    def test_trajectory_noise_is_its_substream(self):
        """Trajectory s of a series seeded ids draws substream(*ids, s), for
        seeds of mixed lengths and words past 32 and 64 bits; the padding
        rows of the last block stay zero."""
        from cellcast.deepar.forecasting import _noise

        for seeds in [((3,), (1, 1), (2**40, 2), (4,)), ((2**64, 1), (5, 0))]:
            eps = _noise(seeds, 3, 8, 5)
            assert eps.shape == (len(seeds), 8, 5)
            for i, ids in enumerate(seeds):
                for s in range(3):
                    assert eps[i, s].tobytes() == substream(*ids, s).standard_normal(5).tobytes()
            assert not eps[:, 3:].any()

    def test_encoder_and_decoder_share_parameters(self, monkeypatch):
        """The conditioning pass and the sampling loop run the same parameter
        object through the one gate math: one cell call per wavefront in
        the encoder, one per layer and step in the sampler, every step
        multiplying by the same stacked weights."""
        import cellcast.deepar.forecasting as fc
        import cellcast.deepar.network as net

        params_seen = {"encoder": [], "decoder": []}
        cell_calls = {"encoder": 0, "decoder": 0}
        weights_seen = []
        in_encoder = []
        real_fw, real_advance, real_cell = fc.forward_window, fc.advance, net.lstm_cell

        def spy_fw(z_lags, x_window, params, scale, sigma_floor):
            params_seen["encoder"].append(id(params))
            in_encoder.append(True)
            try:
                return real_fw(z_lags, x_window, params, scale, sigma_floor)
            finally:
                in_encoder.pop()

        def spy_advance(x, h, c, params, sigma_floor, work, weights):
            params_seen["decoder"].append(id(params))
            weights_seen.append(id(weights))
            return real_advance(x, h, c, params, sigma_floor, work, weights)

        def spy_cell(a, c_prev, work):
            cell_calls["encoder" if in_encoder else "decoder"] += 1
            return real_cell(a, c_prev, work)

        monkeypatch.setattr(fc, "forward_window", spy_fw)
        monkeypatch.setattr(fc, "advance", spy_advance)
        monkeypatch.setattr(net, "lstm_cell", spy_cell)
        model = tiny_model(layers=2)
        rng = np.random.default_rng(8)
        sample_forecast(model, self.conditioning(rng)[None], n_samples=2, seeds=[1])
        cfg = model.train_config
        assert params_seen["encoder"] == [id(model.params)]
        assert params_seen["decoder"] == [id(model.params)] * cfg.horizon
        # one weight layout per call, built before the first step
        assert weights_seen == weights_seen[:1] * cfg.horizon
        assert cell_calls == {"encoder": cfg.context_length + 1, "decoder": 2 * cfg.horizon}

    def test_near_deterministic_head_tracks_greedy_replay(self):
        """With the spread squashed to the floor, every sampled path follows the
        deterministic full-prefix replay of the recurrence."""
        rng = np.random.default_rng(10)
        k = 2
        model = tiny_model(n_channels=k, hidden=5, context=8, horizon=4, seed=2)
        arrays = model.params.arrays()
        arrays[-1] = np.array([0.2, -40.0])  # head bias: modest location, tiny spread
        model = TrainedModel(
            model.params.from_arrays(arrays), model.train_config, None, ()
        )
        ctx = model.train_config.context_length
        # m == ctx: the encoder window starts the series, so its seed lag is 0
        for m in (12, ctx):
            cond = rng.uniform(5.0, 50.0, m)
            cov = rng.normal(0.0, 1.0, (k, m + 4))
            f, _ = self.sample_one(model, cond, cov, n_samples=3, seed=6)

            scale = series_scale(cond[m - ctx :])
            lag_data = [cond[m - ctx - 1] if m > ctx else 0.0] + list(cond[m - ctx : m - 1])
            expected = []
            for t in range(4):
                lags = np.array(lag_data + [cond[-1]] + [mu * scale for mu in expected[:t]])
                x_rows = cov[:, m - ctx : m + t + 1].T
                mu, _, _ = forward_window(lags, x_rows, model.params, scale)
                expected.append(mu[-1])
            expected = np.maximum(np.array(expected) * scale, 0.0)
            for row in f:
                np.testing.assert_allclose(row, expected, atol=1e-3 * scale)
            if m == ctx:
                # the step before the series counts as an observed zero
                padded, _ = self.sample_one(
                    model, np.r_[0.0, cond], np.c_[np.zeros(k), cov], n_samples=3, seed=6
                )
                assert padded.tobytes() == f.tobytes()

    def test_point_forecast_statistics(self):
        """median/mean reduce a sample matrix columnwise, and a group's
        samples series by series; unknown names are rejected."""
        samples = np.array([[1.0, 4.0], [3.0, 0.0], [2.0, 8.0]])
        np.testing.assert_array_equal(point_forecast(samples, "median"), [2.0, 4.0])
        np.testing.assert_array_equal(point_forecast(samples, "mean"), [2.0, 4.0])
        group = np.stack([samples, 2.0 * samples])
        np.testing.assert_array_equal(point_forecast(group, "median"), [[2.0, 4.0], [4.0, 8.0]])
        np.testing.assert_array_equal(point_forecast(group, "mean"), [[2.0, 4.0], [4.0, 8.0]])
        with pytest.raises(ForecastError):
            point_forecast(samples, "max")

    def test_forecast_validation(self):
        """A draw that overflows float64 in data units (a head weight of
        1e307) or reaches -inf there (a head bias of -1e307, which the clamp
        at 0 would hide) is one ForecastError, with no numpy warning."""
        rng = np.random.default_rng(15)
        cond = np.stack([self.conditioning(rng), self.conditioning(rng)])
        for index, value in [(-2, 1e307), (-1, -1e307)]:
            model = tiny_model()
            arrays = model.params.arrays()
            arrays[index] = np.full_like(arrays[index], value)
            model = TrainedModel(model.params.from_arrays(arrays), model.train_config, None, ())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ForecastError, match="non-finite values in forecast samples"):
                    sample_forecast(model, cond, n_samples=4, seeds=[1, 2])

    def test_sample_forecast_validation(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = tiny_model(n_channels=1)
        cond = self.conditioning(rng, m=10)[None]
        cov = rng.normal(0.0, 1.0, (1, 1, 13))
        with pytest.raises(ForecastError):
            sample_forecast(model, cond[:, :3], cov, seeds=[0])  # too little conditioning
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, seeds=[0])  # missing covariates
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, rng.normal(size=(1, 2, 13)), seeds=[0])  # channel count
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, cov[..., :8], seeds=[0])  # too few covariate steps
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, cov, horizon=0, seeds=[0])
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, cov, n_samples=0, seeds=[0])
        with pytest.raises(ForecastError):
            sample_forecast(model, -cond, cov, seeds=[0])
        with pytest.raises(ForecastError, match="non-finite conditioning"):
            sample_forecast(model, np.where(np.arange(10) == 8, np.nan, cond), cov, seeds=[0])
        plain = tiny_model()
        with pytest.raises(ForecastError):
            sample_forecast(plain, cond, cov, seeds=[0])  # covariates on a plain model
        with pytest.raises(ForecastError):
            sample_forecast(plain, cond, seeds=[()])
        with pytest.raises(ForecastError):
            sample_forecast(plain, cond, seeds=["abc"])
        group = np.concatenate([cond, cond])
        with pytest.raises(ForecastError, match="one seed per series"):
            sample_forecast(plain, group, seeds=5)
        with pytest.raises(ForecastError, match="one seed per series"):
            sample_forecast(plain, group, seeds=[(1,)])
        with pytest.raises(ForecastError, match="covariates"):
            sample_forecast(model, group, np.concatenate([cov, cov])[:, :, :8], seeds=[1, 2])
        # one series alone (M,) and a stack of groups are not a group
        for bad in (cond[0], group[None]):
            with pytest.raises(ForecastError, match="conditioning"):
                sample_forecast(plain, bad, seeds=[1])
        # A negative or bool seed id and a sample count that is not an int
        # >= 1 are ForecastErrors naming the argument, raised before the
        # encoder runs.
        import cellcast.deepar.forecasting as fc

        def no_encoder(*args, **kwargs):
            raise AssertionError("the encoder ran before the arguments were checked")

        monkeypatch.setattr(fc, "forward_window", no_encoder)
        for seed in (-1, (3, -2), True, (1, False)):
            with pytest.raises(ForecastError, match="seed"):
                sample_forecast(plain, cond, seeds=[seed])
        with pytest.raises(ForecastError, match="seed"):
            sample_forecast(plain, group, seeds=[1, -1])
        for n_samples in (2.0, True, "2"):
            with pytest.raises(ForecastError, match="n_samples"):
                sample_forecast(plain, cond, n_samples=n_samples, seeds=[0])

    def test_horizon_must_be_an_integer(self, monkeypatch):
        """A horizon that is not an int >= 1 is one ForecastError naming it,
        raised before the encoder runs; a NumPy integer is an int."""
        import cellcast.deepar.forecasting as fc

        plain = tiny_model()
        cond = self.conditioning(np.random.default_rng(14))
        expected, _ = self.sample_one(plain, cond, horizon=3, n_samples=2)
        given, _ = self.sample_one(plain, cond, horizon=np.int64(3), n_samples=2)
        assert given.tobytes() == expected.tobytes()

        def no_encoder(*args, **kwargs):
            raise AssertionError("the encoder ran before the arguments were checked")

        monkeypatch.setattr(fc, "forward_window", no_encoder)
        for horizon in (2.5, "3", True, 0):
            with pytest.raises(ForecastError, match="horizon must be an integer"):
                self.sample_one(plain, cond, horizon=horizon)

    def test_overflowing_series_scale_is_a_forecast_error(self):
        """Conditioning whose mean overflows float64 is one ForecastError
        naming the cause, with no numpy warning, alone and in a group."""
        plain = tiny_model()
        cond = np.full(10, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ForecastError, match="too large for the series scale"):
                self.sample_one(plain, cond)
            with pytest.raises(ForecastError, match="too large for the series scale"):
                sample_forecast(plain, np.stack([cond / 1e300, cond]), seeds=[1, 2])

    def test_wider_covariates_are_cropped(self):
        """Trailing covariate columns past conditioning + horizon are ignored."""
        rng = np.random.default_rng(13)
        model = tiny_model(n_channels=1)
        cond = self.conditioning(rng, m=10)
        cov = rng.normal(0.0, 1.0, (1, 20))
        a, _ = self.sample_one(model, cond, cov[:, :13], n_samples=4, seed=2)
        b, _ = self.sample_one(model, cond, cov, n_samples=4, seed=2)
        np.testing.assert_array_equal(a, b)


    def test_model_sent_through_a_fork_forecasts_the_same_bytes(self):
        """A frozen model pickled to a forked child and back forecasts the
        bytes the original does."""
        from cellcast._fork import fork_call

        model = tiny_model(n_channels=2, hidden=40, layers=2, context=62, horizon=31, seed=5)
        model.params.freeze()
        with fork_call(lambda m: m, model) as call:
            sent = call.result()
        rng = np.random.default_rng(6)
        cond = rng.uniform(10.0, 100.0, 70)
        cov = rng.normal(0.0, 1.0, (2, 70 + 31))
        a = sample_forecast(model, cond[None], cov[None], n_samples=20, seeds=[(4, 1)])
        b = sample_forecast(sent, cond[None], cov[None], n_samples=20, seeds=[(4, 1)])
        assert a.samples.tobytes() == b.samples.tobytes()


class TestModelStore:
    def trained(self, tmp_path, with_lma=False):
        from cellcast import LmaConfig, assemble_covariates

        panel = sinusoid_panel(n_series=4, n_steps=40)
        cfg = TrainConfig(
            context_length=7,
            horizon=3,
            epochs=1,
            batch_size=8,
            hidden_size=6,
            num_layers=2,
            seed=21,
            windows_per_series=4,
        )
        lma_cfg = LmaConfig(window_len=7, horizon=3) if with_lma else None
        cov = assemble_covariates(panel, lma_cfg, 3) if with_lma else None
        model = train(panel, cov, cfg, lma_config=lma_cfg)
        path = str(tmp_path / "model.bin")
        save_model(model, path)
        return model, path, panel

    def test_round_trip_preserves_everything(self, tmp_path):
        """Parameters, configs and the loss curve survive save/load bit for bit."""
        model, path, _ = self.trained(tmp_path, with_lma=True)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.params.to_vector(), model.params.to_vector())
        assert loaded.train_config == model.train_config
        assert loaded.lma_config == model.lma_config
        assert loaded.epoch_nll == model.epoch_nll

    def test_forecast_survives_round_trip(self, tmp_path):
        """A reloaded model reproduces forecasts bit-exactly."""
        model, path, panel = self.trained(tmp_path, with_lma=False)
        loaded = load_model(path)
        cond = panel.values[0]
        a = sample_forecast(model, cond[None], n_samples=5, seeds=[(3, 0)])
        b = sample_forecast(loaded, cond[None], n_samples=5, seeds=[(3, 0)])
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_file_holds_each_parameter_array_once(self, tmp_path):
        """The model file names every parameter array once, in canonical
        order, and holds exactly their values after its header."""
        model = tiny_model(n_channels=2, hidden=5, layers=2)
        params = model.params
        assert len(params.arrays()) == 3 * params.num_layers + 2
        assert params.n_parameters() == sum(
            a.size for a in (params.w0, params.wx, params.wh, params.b, params.head_w, params.head_b)
        )
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        assert [e["name"] for e in header["arrays"]] == [
            "layer0.wx", "layer0.wh", "layer0.b", "layer1.wx", "layer1.wh", "layer1.b", "head_w", "head_b"
        ]
        assert len(blob) == 32 + header_len + 8 * params.n_parameters()

    def test_resave_is_byte_identical(self, tmp_path):
        """Saving a loaded model writes the same bytes again."""
        _, path, _ = self.trained(tmp_path, with_lma=True)
        loaded = load_model(path)
        second = str(tmp_path / "model2.bin")
        save_model(loaded, second)
        with open(path, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_rejects_corruption(self, tmp_path):
        """Magic, version, truncation and trailing garbage are each diagnosed."""
        _, path, _ = self.trained(tmp_path)
        blob = open(path, "rb").read()

        bad_magic = str(tmp_path / "magic.bin")
        open(bad_magic, "wb").write(b"X" + blob[1:])
        with pytest.raises(ModelStoreError, match="magic"):
            load_model(bad_magic)

        bad_version = str(tmp_path / "version.bin")
        open(bad_version, "wb").write(blob[:16] + struct.pack("<Q", 999) + blob[24:])
        with pytest.raises(ModelStoreError, match="version"):
            load_model(bad_version)

        truncated = str(tmp_path / "trunc.bin")
        open(truncated, "wb").write(blob[:-9])
        with pytest.raises(ModelStoreError, match="truncated"):
            load_model(truncated)

        trailing = str(tmp_path / "trail.bin")
        open(trailing, "wb").write(blob + b"\x00")
        with pytest.raises(ModelStoreError, match="trailing"):
            load_model(trailing)

        garbage = str(tmp_path / "garbage.bin")
        open(garbage, "wb").write(blob[:30])
        with pytest.raises(ModelStoreError):
            load_model(garbage)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train_config", "horizon", "3"),
            ("lma_config", "standardize", "true"),
            ("train_config", "hidden_size", 40),
            ("train_config", "num_layers", 3),
            ("lma_config", "features", ["mean"]),
            ("train_config", "day_of_week", True),
            ("lma_config", "horizon", 5),
            ("train_config", "clip_norm", math.inf),
        ],
    )
    def test_rejects_header_field_of_wrong_type(self, tmp_path, section, key, value):
        """A header config value of the wrong type or out of its rules (a
        non-finite number) is a corrupt file, not a TypeError later in
        forecasting; so is a layer count or hidden size
        that disagrees with the arrays, which would otherwise load and be
        reported as the network's size in every provenance file, and an LMA
        recipe whose channel count or horizon disagrees with the network,
        which would otherwise load and fail only when it forecasts."""
        _, path, _ = self.trained(tmp_path, with_lma=True)
        blob = open(path, "rb").read()
        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        header[section][key] = value
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        bad = str(tmp_path / "typed.bin")
        with open(bad, "wb") as fh:
            fh.write(blob[:24] + struct.pack("<Q", len(new_header)) + new_header)
            fh.write(blob[32 + header_len :])
        with pytest.raises(ModelStoreError, match=key):
            load_model(bad)

    def edited(self, tmp_path, path, edit):
        """A copy of the model file at path after edit(header, payload) has
        changed its header dict and its payload, a dict of each array's
        bytes by manifest name, in place.  The copy's payload is the bytes
        of the edited manifest's names in its order, keyed by str(name),
        and none for a name the payload lacks."""
        blob = open(path, "rb").read()
        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        payload, pos = {}, 32 + header_len
        for entry in header["arrays"]:
            size = 8 * math.prod(entry["shape"])
            payload[entry["name"]] = blob[pos : pos + size]
            pos += size
        edit(header, payload)
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        bad = str(tmp_path / "edited.bin")
        with open(bad, "wb") as fh:
            fh.write(blob[:24] + struct.pack("<Q", len(new_header)) + new_header)
            fh.write(b"".join(payload.get(str(e["name"]), b"") for e in header["arrays"]))
        return bad

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (lambda h, p: h.update(epoch_nll="12"), "epoch_nll must be a list of numbers"),
            (lambda h, p: h.update(epoch_nll=[True, False]), "epoch_nll must be a list of numbers"),
            (lambda h, p: h["arrays"][-1].update(shape="2"), "shape of head_b must be a list of integers"),
            (lambda h, p: h["arrays"][-1].update(shape=[2.9]), "shape of head_b must be a list of integers"),
            (lambda h, p: h["arrays"][-1].update(name=["head", "b"]), "array names must be strings"),
            (
                lambda h, p: (
                    h["arrays"].extend([{"name": 5, "shape": [1]}, {"name": "zz", "shape": [1]}]),
                    p.update({"5": struct.pack("<d", 1.0), "zz": struct.pack("<d", 2.0)}),
                ),
                "array names must be strings",
            ),
        ],
        ids=["nll-string", "nll-bools", "shape-string", "shape-float", "name-list", "name-int"],
    )
    def test_rejects_loss_curve_or_shape_of_wrong_type(self, tmp_path, edit, phrase):
        """The loss curve must be a list of numbers, each array shape a list
        of integers and each array name a string.  Anything else used to
        load through float() or int() and save back as other bytes, or, for
        a name, end in a TypeError traceback."""
        _, path, _ = self.trained(tmp_path)
        bad = self.edited(tmp_path, path, edit)
        with pytest.raises(ModelStoreError, match=f"^{re.escape(bad)}: corrupt header: {phrase}"):
            load_model(bad)

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (
                lambda h, p: p.update({"layer1.wh": struct.pack("<d", math.nan) + p["layer1.wh"][8:]}),
                "non-finite values in .*wh",
            ),
            (
                lambda h, p: p.update({"head_w": p["head_w"][:-8] + struct.pack("<d", math.inf)}),
                "non-finite values in .*head",
            ),
            (lambda h, p: h["arrays"][0].update(shape=[1, 24]), "wx"),
            (lambda h, p: h["arrays"][0].update(shape=[24]), "layer"),
            (lambda h, p: (h["arrays"][0].update(shape=[24, 0]), p.update({"layer0.wx": b""})), "column"),
            (lambda h, p: h["arrays"][-2].update(shape=[1, 12]), "head"),
            (
                lambda h, p: h.update(arrays=[e for e in h["arrays"] if e["name"].startswith("head")]),
                "layer",
            ),
        ],
        ids=["nan", "inf", "wx-transposed", "wx-flat", "wx-no-input", "head-w-flat", "no-layers"],
    )
    def test_rejects_arrays_a_network_cannot_hold(self, tmp_path, edit, phrase):
        """The store is the one builder of a model from outside data, so it
        checks what the records do not: finite weights, shapes that chain
        at the configs' hidden size (6 here, so layer0.wx is (24, 1) and
        head_w (2, 6); each wrong shape keeps the byte count) and at least
        one layer.  Each fault is one ModelStoreError naming the array.  The
        network records checked these themselves before the store did,
        except a layer0.wx with no input column, which loaded as a network
        of input size 0."""
        _, path, _ = self.trained(tmp_path)
        bad = self.edited(tmp_path, path, edit)
        with pytest.raises(ModelStoreError, match=f"^{re.escape(bad)}: corrupt model file: .*{phrase}"):
            load_model(bad)

    def test_rejects_lengths_past_the_end_of_the_file(self, tmp_path):
        """A length field or an array shape that claims more bytes than the file
        holds is a ModelStoreError, never an attempt to allocate them."""
        import json

        _, path, _ = self.trained(tmp_path)
        blob = open(path, "rb").read()

        huge_header = str(tmp_path / "header.bin")
        open(huge_header, "wb").write(blob[:24] + struct.pack("<Q", 2**62) + blob[32:])
        with pytest.raises(ModelStoreError, match="truncated"):
            load_model(huge_header)

        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        header["arrays"][0]["shape"] = [2**31, 2**31]
        text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        huge_shape = str(tmp_path / "shape.bin")
        open(huge_shape, "wb").write(
            blob[:24] + struct.pack("<Q", len(text)) + text + blob[32 + header_len :]
        )
        with pytest.raises(ModelStoreError, match="truncated"):
            load_model(huge_shape)
