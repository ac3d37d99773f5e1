"""Network parameter containers.

One ``LayerParams`` block per recurrent layer holds the input, recurrent and
bias parameters of all four gates stacked row-wise in the fixed order
(input, forget, candidate, output), so ``wx`` is (4H, in), ``wh`` is (4H, H)
and ``b`` is (4H,).  The likelihood head is one affine map ``head_w`` (2, H),
``head_b`` (2,): row 0 produces the location, row 1 the pre-activation that
softplus turns into the scale.  Encoder and decoder always run on the same
instance; there is no separate copy to keep in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["LayerParams", "NetworkParams", "init_params"]

WEIGHT_INIT_SPAN = 0.08
FORGET_GATE_BIAS = 1.0


@dataclass(frozen=True)
class LayerParams:
    """One recurrent layer's gate parameters.

    ``wx_t`` and ``wh_t`` are C-contiguous copies of ``wx.T`` and ``wh.T``:
    ``lstm_cell`` multiplies multi-row inputs by them, since a product
    against a transposed view is slower.  They are derived, so they are not
    fields: they stay out of the parameter arrays, equality, ``repr`` and the
    model file.  Each is built on first use and kept, so a gradient, which
    shares this type but never runs the cell, does not build them.
    """

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        wx, wh, b = (np.asarray(a, dtype=np.float64) for a in (self.wx, self.wh, self.b))
        if wx.ndim != 2 or wh.ndim != 2 or b.ndim != 1:
            raise ValueError("layer parameters must be (4H, in), (4H, H), (4H,)")
        four_h = wx.shape[0]
        if four_h % 4 != 0 or wh.shape != (four_h, four_h // 4) or b.shape != (four_h,):
            raise ValueError(
                f"inconsistent layer shapes: wx {wx.shape}, wh {wh.shape}, b {b.shape}"
            )
        for name, a in (("wx", wx), ("wh", wh), ("b", b)):
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite values in layer parameter {name}")
        object.__setattr__(self, "wx", wx)
        object.__setattr__(self, "wh", wh)
        object.__setattr__(self, "b", b)

    @cached_property
    def wx_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.wx.T)

    @cached_property
    def wh_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.wh.T)

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[1]

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]


@dataclass(frozen=True)
class NetworkParams:
    """Full parameter collection: recurrent layers plus the likelihood head."""

    layers: tuple[LayerParams, ...]
    head_w: np.ndarray
    head_b: np.ndarray

    def __post_init__(self) -> None:
        if len(self.layers) == 0:
            raise ValueError("at least one recurrent layer required")
        h = self.layers[0].hidden_size
        for idx, layer in enumerate(self.layers[1:], start=1):
            if layer.input_size != h or layer.hidden_size != h:
                raise ValueError(f"layer {idx} shapes do not chain from hidden size {h}")
        head_w = np.asarray(self.head_w, dtype=np.float64)
        head_b = np.asarray(self.head_b, dtype=np.float64)
        if head_w.shape != (2, h) or head_b.shape != (2,):
            raise ValueError(f"head shapes must be (2, {h}) and (2,), got {head_w.shape}, {head_b.shape}")
        if not (np.all(np.isfinite(head_w)) and np.all(np.isfinite(head_b))):
            raise ValueError("non-finite values in head parameters")
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "head_w", head_w)
        object.__setattr__(self, "head_b", head_b)

    @property
    def hidden_size(self) -> int:
        return self.layers[0].hidden_size

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_size(self) -> int:
        return self.layers[0].input_size

    def arrays(self) -> list[np.ndarray]:
        """Canonical flat order: per layer wx, wh, b; then head_w, head_b."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend((layer.wx, layer.wh, layer.b))
        out.extend((self.head_w, self.head_b))
        return out

    def n_parameters(self) -> int:
        return sum(a.size for a in self.arrays())

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def with_arrays(self, arrays: list[np.ndarray]) -> "NetworkParams":
        """Rebuild with the same shapes from arrays in canonical order."""
        expected = self.arrays()
        if len(arrays) != len(expected):
            raise ValueError(f"expected {len(expected)} arrays, got {len(arrays)}")
        layers = []
        for idx in range(self.num_layers):
            wx, wh, b = arrays[3 * idx : 3 * idx + 3]
            layers.append(LayerParams(wx, wh, b))
        return NetworkParams(tuple(layers), arrays[-2], arrays[-1])

    def from_vector(self, vec: np.ndarray) -> "NetworkParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_parameters(),):
            raise ValueError(f"expected vector of length {self.n_parameters()}, got {vec.shape}")
        arrays, pos = [], 0
        for a in self.arrays():
            arrays.append(vec[pos : pos + a.size].reshape(a.shape).copy())
            pos += a.size
        return self.with_arrays(arrays)

    def freeze(self) -> "NetworkParams":
        """Make every array read-only, the derived transposes included."""
        for a in self.arrays():
            a.setflags(write=False)
        for layer in self.layers:
            layer.wx_t.setflags(write=False)
            layer.wh_t.setflags(write=False)
        return self


def init_params(
    input_size: int, hidden_size: int, num_layers: int, rng: np.random.Generator
) -> NetworkParams:
    """Seeded initialization: uniform weights in +-WEIGHT_INIT_SPAN, zero biases
    except the forget gate, which starts at +1 to keep early gradients flowing.

    Draw order is fixed (per layer wx then wh, then the head) so a given
    generator state always produces the same parameters.
    """
    if input_size < 1 or hidden_size < 1 or num_layers < 1:
        raise ValueError("input_size, hidden_size and num_layers must all be >= 1")
    h = hidden_size
    layers = []
    for idx in range(num_layers):
        in_size = input_size if idx == 0 else h
        wx = rng.uniform(-WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN, (4 * h, in_size))
        wh = rng.uniform(-WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN, (4 * h, h))
        b = np.zeros(4 * h)
        b[h : 2 * h] = FORGET_GATE_BIAS
        layers.append(LayerParams(wx, wh, b))
    head_w = rng.uniform(-WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN, (2, h))
    head_b = np.zeros(2)
    return NetworkParams(tuple(layers), head_w, head_b)
