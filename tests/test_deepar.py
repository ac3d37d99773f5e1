"""Tests for the recurrent forecaster: cell math, likelihood, gradients, training,
sampling, and the model store.

The reference computations here are deliberately written in plain Python with
the math module so they share no code with the implementation.
"""

import json
import math
import struct
import warnings
import weakref

import numpy as np
import pytest

from cellcast import (
    Forecast,
    ForecastError,
    NetworkParams,
    TrainConfig,
    TrainedModel,
    TrainError,
    forward_window,
    gaussian_nll,
    init_params,
    load_model,
    lstm_cell,
    point_forecast,
    sample_forecast,
    save_model,
    series_scale,
    substream,
    train,
)
from cellcast.deepar import (
    LayerParams,
    ModelStoreError,
    batch_loss_and_grad,
    sigmoid,
)
from cellcast.deepar.grad import batch_buffers
from cellcast.deepar import training
from cellcast.deepar.network import cut_windows
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
        for li, layer in enumerate(params.layers):
            a = [
                sum(layer.wx[r][j] * cur[j] for j in range(len(cur)))
                + sum(layer.wh[r][j] * h[li][j] for j in range(hs))
                + layer.b[r]
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
        layer = LayerParams(
            np.zeros((4, 1)), np.zeros((4, 1)), np.array([0.0, 20.0, 0.0, 0.0])
        )
        h, c, _ = lstm_cell(np.array([0.0]), (np.array([0.0]), np.array([1.0])), layer)
        np.testing.assert_allclose(c, [1.0], atol=1e-8)
        np.testing.assert_allclose(h, [0.5 * math.tanh(c[0])], rtol=1e-12)
        assert abs(h[0] - 0.380797) < 1e-6

    def test_cell_rows_are_independent(self):
        """A batch of rows gives each row what it gets alone, gates included."""
        rng = np.random.default_rng(71)
        layer = make_params(3, 5, 1, seed=4).layers[0]
        x = rng.normal(size=(6, 3))
        h_prev, c_prev = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
        h, c, gates = lstm_cell(x, (h_prev, c_prev), layer)
        assert h.shape == c.shape == (6, 5) and len(gates) == 5
        for r in range(6):
            h_r, c_r, gates_r = lstm_cell(x[r], (h_prev[r], c_prev[r]), layer)
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

    def assert_cell_bytes(self, layer, x, wx_t, wh_t):
        rng = np.random.default_rng(x.size)
        hs = layer.hidden_size
        h_prev = rng.normal(0.0, 0.5, (*x.shape[:-1], hs))
        c_prev = rng.normal(0.0, 0.5, h_prev.shape)
        h, c, gates = lstm_cell(x, (h_prev, c_prev), layer)
        a = x @ wx_t + h_prev @ wh_t + layer.b
        h_ref, c_ref, gates_ref = self.cell_from(a, c_prev, hs)
        assert h.tobytes() == h_ref.tobytes() and c.tobytes() == c_ref.tobytes()
        for g, g_ref in zip(gates, gates_ref):
            assert g.tobytes() == g_ref.tobytes()

    @pytest.mark.parametrize("in_size", [3, 4, 40])
    def test_one_row_products_use_the_transposed_views(self, in_size):
        """A one-row product, a 1-D x or the encoder's stacked (S, 1, D)
        slices, multiplies by wx.T and wh.T.  The C-contiguous copies round
        such products differently on some BLAS kernels, which would move
        every forecast; this pins the rule."""
        rng = np.random.default_rng(in_size)
        for hidden in (6, 40):
            layer = make_params(in_size, hidden, 1, seed=hidden).layers[0]
            for shape in [(in_size,), (1, in_size), (5, 1, in_size), (2, 13, 1, in_size)]:
                x = rng.normal(0.0, 1.0, shape)
                self.assert_cell_bytes(layer, x, layer.wx.T, layer.wh.T)

    @pytest.mark.parametrize("in_size", [3, 4, 40])
    def test_multi_row_products_use_the_copies(self, in_size):
        """Training's (B, D) batches and the sampler's (S, blocks, 8, D)
        blocks multiply by the C-contiguous copies wx_t and wh_t."""
        rng = np.random.default_rng(in_size)
        for hidden in (6, 40):
            layer = make_params(in_size, hidden, 1, seed=hidden).layers[0]
            for shape in [(2, in_size), (3, in_size), (7, in_size), (32, in_size), (2, 13, 8, in_size)]:
                x = rng.normal(0.0, 1.0, shape)
                self.assert_cell_bytes(layer, x, layer.wx_t, layer.wh_t)

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
        zeros = params.with_arrays([np.zeros_like(a) for a in params.arrays()])
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
        with pytest.raises(ValueError):
            series_scale(np.array([]))
        with pytest.raises(ValueError):
            series_scale(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            series_scale(np.array([1.0, np.nan]))
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
        nll = gaussian_nll(2.0 * 7.0, 2.0, 1.0, 7.0)
        np.testing.assert_allclose(nll, 0.5 * math.log(2.0 * math.pi), rtol=1e-12)
        assert abs(nll - 0.9189385) < 1e-7
        off = gaussian_nll(3.0, 0.0, 2.0, 1.0)
        np.testing.assert_allclose(
            off, 0.5 * math.log(2.0 * math.pi * 4.0) + 9.0 / 8.0, rtol=1e-12
        )
        both = gaussian_nll(np.array([14.0, 7.0]), np.array([2.0, 0.0]), np.array([1.0, 2.0]), 7.0)
        np.testing.assert_allclose(
            both, [nll, 0.5 * math.log(2.0 * math.pi * 4.0) + 1.0 / 8.0], rtol=1e-12
        )
        with pytest.raises(ValueError):
            gaussian_nll(math.inf, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_nll(1.0, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_nll(1.0, 2.0, 0.0, 1.0)  # sigma must be positive
        with pytest.raises(ValueError, match="^non-finite"):
            gaussian_nll(1.0, math.nan, 1.0, 1.0)  # training reports divergence with this

    def test_forward_window_validation(self):
        """Shape and finiteness violations are rejected."""
        params = make_params(3, 2, 1, seed=3)
        z = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            forward_window(z, None, params, 1.0)  # missing covariates
        with pytest.raises(ValueError):
            forward_window(z, np.zeros((2, 3)), params, 1.0)  # wrong channel count
        with pytest.raises(ValueError):
            forward_window(z, np.zeros((3, 2)), params, 1.0)  # wrong length
        with pytest.raises(ValueError):
            forward_window(z, np.zeros((2, 2)), params, 0.0)  # bad scale
        with pytest.raises(ValueError):
            forward_window(np.stack([z, z]), np.zeros((2, 2, 2)), params, 1.0)  # one scale, two windows
        plain = make_params(1, 2, 1, seed=3)
        with pytest.raises(ValueError):
            forward_window(z, np.zeros((2, 1)), plain, 1.0)  # unexpected covariates


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
                ref.extend(gaussian_nll(z[i, 1:], mu, sigma, scales[i]))
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


class TestDerivedTransposes:
    """LayerParams keeps C-contiguous copies of wx.T and wh.T for the cell's
    multi-row products; they are derived, never stored or compared."""

    def test_copies_equal_the_transposes(self):
        for layer in make_params(3, 5, 2, seed=2).layers:
            for copy, weights in ((layer.wx_t, layer.wx), (layer.wh_t, layer.wh)):
                assert copy.shape == weights.T.shape
                assert copy.flags.c_contiguous
                assert copy.tobytes() == weights.T.tobytes()

    def test_freeze_makes_the_copies_read_only(self):
        params = make_params(3, 5, 2, seed=2)
        assert params.layers[0].wx_t.flags.writeable
        params.freeze()
        for layer in params.layers:
            for copy in (layer.wx_t, layer.wh_t):
                assert not copy.flags.writeable
                with pytest.raises(ValueError):
                    copy[0, 0] = 1.0

    def test_rebuilt_params_rebuild_the_copies(self):
        params = make_params(3, 5, 2, seed=2)
        vec = np.random.default_rng(8).normal(0.0, 0.1, params.n_parameters())
        from_vec = params.from_vector(vec)
        from_arrays = params.with_arrays([a + 1.0 for a in params.arrays()])
        for rebuilt in (from_vec, from_arrays):
            for layer in rebuilt.layers:
                assert layer.wx_t.tobytes() == layer.wx.T.tobytes()
                assert layer.wh_t.tobytes() == layer.wh.T.tobytes()
        assert from_vec.layers[0].wx[0, 0] == vec[0]

    def test_copies_stay_out_of_arrays_vector_repr_and_file(self, tmp_path):
        model = tiny_model(n_channels=2, hidden=5, layers=2)
        params = model.params.freeze()
        arrays = params.arrays()
        assert len(arrays) == 3 * params.num_layers + 2
        assert not any(a is copy for a in arrays for layer in params.layers for copy in (layer.wx_t, layer.wh_t))
        assert params.n_parameters() == sum(
            layer.wx.size + layer.wh.size + layer.b.size for layer in params.layers
        ) + params.head_w.size + params.head_b.size
        assert params.to_vector().shape == (params.n_parameters(),)
        assert "wx_t" not in repr(params.layers[0]) and "wh_t" not in repr(params.layers[0])
        path = tmp_path / "model.bin"
        save_model(model, str(path))
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        assert [e["name"] for e in header["arrays"]] == [
            "layer0.wx", "layer0.wh", "layer0.b", "layer1.wx", "layer1.wh", "layer1.b", "head_w", "head_b"
        ]
        assert len(blob) == 32 + header_len + 8 * params.n_parameters()

    def test_model_sent_through_a_fork_forecasts_the_same_bytes(self):
        from cellcast._fork import fork_call

        model = tiny_model(n_channels=2, hidden=40, layers=2, context=62, horizon=31, seed=5)
        model.params.freeze()
        with fork_call(lambda m: m, model) as call:
            sent = call.result()
        for layer, back in zip(model.params.layers, sent.params.layers):
            assert back.wx_t.tobytes() == layer.wx_t.tobytes()
            assert back.wh_t.flags.c_contiguous and not back.wh_t.flags.writeable
        rng = np.random.default_rng(6)
        cond = rng.uniform(10.0, 100.0, 70)
        cov = rng.normal(0.0, 1.0, (2, 70 + 31))
        a = sample_forecast(model, cond, cov, n_samples=20, seed=(4, 1))
        b = sample_forecast(sent, cond, cov, n_samples=20, seed=(4, 1))
        assert a.samples.tobytes() == b.samples.tobytes()


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


class TestForecasting:
    def conditioning(self, rng, m=20):
        return rng.uniform(10.0, 100.0, m)

    def test_same_seed_is_bit_identical(self):
        """One seed, one sample matrix."""
        rng = np.random.default_rng(3)
        model = tiny_model()
        cond = self.conditioning(rng)
        a = sample_forecast(model, cond, n_samples=8, seed=42)
        b = sample_forecast(model, cond, n_samples=8, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.scale == b.scale == series_scale(cond[-6:])

    def test_trajectories_have_independent_streams(self):
        """Trajectory s depends only on (seed, s): more samples extend, never change, earlier rows."""
        rng = np.random.default_rng(4)
        model = tiny_model()
        cond = self.conditioning(rng)
        small = sample_forecast(model, cond, n_samples=5, seed=7)
        big = sample_forecast(model, cond, n_samples=9, seed=7)
        np.testing.assert_array_equal(big.samples[:5], small.samples)
        # the default network size, where a BLAS kernel's rounding of a row
        # can depend on how many rows the product has
        k = 2
        model = tiny_model(n_channels=k, hidden=40, layers=2, context=62, horizon=31, seed=5)
        cond = self.conditioning(rng, m=70)
        cov = rng.normal(0.0, 1.0, (k, 70 + 31))
        big = sample_forecast(model, cond, cov, n_samples=100, seed=(7, 3))
        for n in (1, 2, 7, 8, 9, 17):
            small = sample_forecast(model, cond, cov, n_samples=n, seed=(7, 3))
            np.testing.assert_array_equal(big.samples[:n], small.samples)

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
        big = sample_forecast(model, cond, cov, n_samples=640, seed=(7, 3))
        small = sample_forecast(model, cond, cov, n_samples=8, seed=(7, 3))
        np.testing.assert_array_equal(big.samples[:8], small.samples)

    def test_int_seed_equals_singleton_tuple(self):
        """An integer seed is shorthand for the one-element tuple."""
        rng = np.random.default_rng(5)
        model = tiny_model()
        cond = self.conditioning(rng)
        a = sample_forecast(model, cond, n_samples=4, seed=9)
        b = sample_forecast(model, cond, n_samples=4, seed=(9,))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.seed == b.seed == (9,)
        c = sample_forecast(model, cond, n_samples=4, seed=(9, 1))
        assert not np.array_equal(a.samples, c.samples)

    def test_samples_non_negative_and_shaped(self):
        rng = np.random.default_rng(6)
        model = tiny_model(horizon=4)
        cond = self.conditioning(rng)
        f = sample_forecast(model, cond, n_samples=12, seed=1)
        assert f.samples.shape == (12, 4)
        assert np.all(f.samples >= 0.0)
        assert (f.n_samples, f.horizon) == (12, 4)

    def test_shorter_horizon_is_a_prefix_decision(self):
        """Asking for fewer steps replays the same draws over a shorter loop."""
        rng = np.random.default_rng(61)
        model = tiny_model(horizon=5)
        cond = self.conditioning(rng)
        full = sample_forecast(model, cond, n_samples=6, seed=3)
        short = sample_forecast(model, cond, horizon=2, n_samples=6, seed=3)
        np.testing.assert_array_equal(short.samples, full.samples[:, :2])

    def test_encoder_and_decoder_share_parameters(self, monkeypatch):
        """The conditioning pass and the sampling loop run the same cell on the
        same parameter objects."""
        import cellcast.deepar.forecasting as fc
        import cellcast.deepar.network as net

        fw_params = []
        cell_layers = {"encoder": set(), "decoder": set()}
        in_encoder = []
        real_fw, real_cell = fc.forward_window, net.lstm_cell

        def spy_fw(z_lags, x_window, params, scale, sigma_floor):
            fw_params.append(id(params))
            in_encoder.append(True)
            try:
                return real_fw(z_lags, x_window, params, scale, sigma_floor)
            finally:
                in_encoder.pop()

        def spy_cell(x, state, layer):
            cell_layers["encoder" if in_encoder else "decoder"].add(id(layer))
            return real_cell(x, state, layer)

        monkeypatch.setattr(fc, "forward_window", spy_fw)
        monkeypatch.setattr(net, "lstm_cell", spy_cell)
        model = tiny_model(layers=2)
        rng = np.random.default_rng(8)
        sample_forecast(model, self.conditioning(rng), n_samples=2, seed=1)
        layer_ids = {id(layer) for layer in model.params.layers}
        assert fw_params == [id(model.params)]
        assert cell_layers["encoder"] == cell_layers["decoder"] == layer_ids

    def test_near_deterministic_head_tracks_greedy_replay(self):
        """With the spread squashed to the floor, every sampled path follows the
        deterministic full-prefix replay of the recurrence."""
        rng = np.random.default_rng(10)
        k = 2
        model = tiny_model(n_channels=k, hidden=5, context=8, horizon=4, seed=2)
        arrays = model.params.arrays()
        arrays[-1] = np.array([0.2, -40.0])  # head bias: modest location, tiny spread
        model = TrainedModel(
            model.params.with_arrays(arrays), model.train_config, None, ()
        )
        ctx = model.train_config.context_length
        # m == ctx: the encoder window starts the series, so its seed lag is 0
        for m in (12, ctx):
            cond = rng.uniform(5.0, 50.0, m)
            cov = rng.normal(0.0, 1.0, (k, m + 4))
            f = sample_forecast(model, cond, cov, n_samples=3, seed=6)

            scale = series_scale(cond[m - ctx :])
            lag_data = [cond[m - ctx - 1] if m > ctx else 0.0] + list(cond[m - ctx : m - 1])
            expected = []
            for t in range(4):
                lags = np.array(lag_data + [cond[-1]] + [mu * scale for mu in expected[:t]])
                x_rows = cov[:, m - ctx : m + t + 1].T
                mu, _, _ = forward_window(lags, x_rows, model.params, scale)
                expected.append(mu[-1])
            expected = np.maximum(np.array(expected) * scale, 0.0)
            for row in f.samples:
                np.testing.assert_allclose(row, expected, atol=1e-3 * scale)
            if m == ctx:
                # the step before the series counts as an observed zero
                padded = sample_forecast(
                    model, np.r_[0.0, cond], np.c_[np.zeros(k), cov], n_samples=3, seed=6
                )
                assert padded.samples.tobytes() == f.samples.tobytes()

    def test_point_forecast_statistics(self):
        """median/mean reduce the sample matrix columnwise; unknown names are rejected."""
        samples = np.array([[1.0, 4.0], [3.0, 0.0], [2.0, 8.0]])
        f = Forecast(samples, 1.0, (0,))
        np.testing.assert_array_equal(point_forecast(f, "median"), [2.0, 4.0])
        np.testing.assert_array_equal(point_forecast(f, "mean"), [2.0, 4.0])
        with pytest.raises(ForecastError):
            point_forecast(f, "max")

    def test_forecast_validation(self):
        with pytest.raises(ForecastError):
            Forecast(np.array([[1.0, -0.5]]), 1.0, (0,))
        with pytest.raises(ForecastError):
            Forecast(np.array([[np.inf]]), 1.0, (0,))

    def test_sample_forecast_validation(self):
        rng = np.random.default_rng(12)
        model = tiny_model(n_channels=1)
        cond = self.conditioning(rng, m=10)
        cov = rng.normal(0.0, 1.0, (1, 13))
        with pytest.raises(ForecastError):
            sample_forecast(model, cond[:3], cov)  # too little conditioning
        with pytest.raises(ForecastError):
            sample_forecast(model, cond)  # missing covariates
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, rng.normal(size=(2, 13)))  # channel count
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, cov[:, :8])  # too few covariate steps
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, cov, horizon=0)
        with pytest.raises(ForecastError):
            sample_forecast(model, cond, cov, n_samples=0)
        with pytest.raises(ForecastError):
            sample_forecast(model, -cond, cov)
        plain = tiny_model()
        with pytest.raises(ForecastError):
            sample_forecast(plain, cond, cov)  # covariates on a plain model
        with pytest.raises(ForecastError):
            sample_forecast(plain, cond, seed=())
        with pytest.raises(ForecastError):
            sample_forecast(plain, cond, seed="abc")
        group = np.stack([cond, cond])
        with pytest.raises(ForecastError, match="one seed per series"):
            sample_forecast(plain, group, seed=5)
        with pytest.raises(ForecastError, match="one seed per series"):
            sample_forecast(plain, group, seed=[(1,)])
        with pytest.raises(ForecastError, match="covariates"):
            sample_forecast(model, group, np.stack([cov, cov])[:, :, :8], seed=[1, 2])
        with pytest.raises(ForecastError, match="conditioning"):
            sample_forecast(plain, group[None], seed=[1])

    def test_wider_covariates_are_cropped(self):
        """Trailing covariate columns past conditioning + horizon are ignored."""
        rng = np.random.default_rng(13)
        model = tiny_model(n_channels=1)
        cond = self.conditioning(rng, m=10)
        cov = rng.normal(0.0, 1.0, (1, 20))
        a = sample_forecast(model, cond, cov[:, :13], n_samples=4, seed=2)
        b = sample_forecast(model, cond, cov, n_samples=4, seed=2)
        np.testing.assert_array_equal(a.samples, b.samples)


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
        a = sample_forecast(model, cond, n_samples=5, seed=(3, 0))
        b = sample_forecast(loaded, cond, n_samples=5, seed=(3, 0))
        np.testing.assert_array_equal(a.samples, b.samples)

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
        ],
    )
    def test_rejects_header_field_of_wrong_type(self, tmp_path, section, key, value):
        """A header config value of the wrong type is a corrupt file, not a
        TypeError later in forecasting; so is a layer count or hidden size
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

    @pytest.mark.parametrize(
        "edit, phrase",
        [
            (lambda h: h.update(epoch_nll="12"), "epoch_nll must be a list of numbers"),
            (lambda h: h.update(epoch_nll=[True, False]), "epoch_nll must be a list of numbers"),
            (lambda h: h["arrays"][-1].update(shape="2"), "shape of head_b must be a list of integers"),
            (lambda h: h["arrays"][-1].update(shape=[2.9]), "shape of head_b must be a list of integers"),
        ],
        ids=["nll-string", "nll-bools", "shape-string", "shape-float"],
    )
    def test_rejects_loss_curve_or_shape_of_wrong_type(self, tmp_path, edit, phrase):
        """The loss curve must be a list of numbers and each array shape a list
        of integers.  Anything else used to load through float() or int() and
        save back as other bytes."""
        _, path, _ = self.trained(tmp_path)
        blob = open(path, "rb").read()
        (header_len,) = struct.unpack("<Q", blob[24:32])
        header = json.loads(blob[32 : 32 + header_len])
        assert header["arrays"][-1]["name"] == "head_b"
        edit(header)
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        bad = str(tmp_path / "typed.bin")
        with open(bad, "wb") as fh:
            fh.write(blob[:24] + struct.pack("<Q", len(new_header)) + new_header)
            fh.write(blob[32 + header_len :])
        with pytest.raises(ModelStoreError, match=f"^{bad}: corrupt header: {phrase}"):
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
