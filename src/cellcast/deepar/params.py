"""Network parameters, each kind stacked over the layers.

A recurrent layer's input, recurrent and bias parameters hold all four gates
stacked row-wise in the fixed order (input, forget, candidate, output).
``NetworkParams`` keeps each kind for every layer in one C-contiguous array,
as the passes multiply it: ``w0`` (4H, D) is layer 0's input weights, ``wx``
(L - 1, 4H, H) the input weights of layers 1 and up (empty for one layer),
``wh`` (L, 4H, H) the recurrent weights and ``b`` (L, 4H) the biases.  The
likelihood head is one affine map ``head_w`` (2, H), ``head_b`` (2,): row 0
produces the location, row 1 the pre-activation that softplus turns into the
scale.  Encoder and decoder always run on the same instance; there is no
separate copy to keep in sync, and no derived layout:
``network.stacked_weights`` takes the transposes per pass.

It is a plain record: ``init_params``, ``from_arrays`` and the gradient build
it consistent, and the model store checks a file's arrays before it stacks
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NetworkParams", "array_names", "init_params"]

WEIGHT_INIT_SPAN = 0.08
FORGET_GATE_BIAS = 1.0


@dataclass(frozen=True)
class NetworkParams:
    """Full parameter collection: the stacked recurrent layers plus the likelihood head."""

    w0: np.ndarray
    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.wh.shape[2]

    @property
    def num_layers(self) -> int:
        return self.wh.shape[0]

    @property
    def input_size(self) -> int:
        return self.w0.shape[1]

    def arrays(self) -> list[np.ndarray]:
        """Canonical flat order: per layer wx, wh, b; then head_w, head_b.
        Layer 0's wx is w0, layer j's is wx[j - 1]; each is a view."""
        out = [self.w0, self.wh[0], self.b[0]]
        for j in range(1, self.num_layers):
            out.extend((self.wx[j - 1], self.wh[j], self.b[j]))
        out.extend((self.head_w, self.head_b))
        return out

    def n_parameters(self) -> int:
        return sum(a.size for a in self.arrays())

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray]) -> "NetworkParams":
        """Inverse of arrays(): the network whose arrays() these are, each
        kind copied into one C-contiguous stack.  The shapes are trusted to
        chain; the model store checks a file's before it calls this."""
        *layers, head_w, head_b = arrays
        wx, wh, b = layers[0::3], layers[1::3], layers[2::3]
        return cls(
            np.array(wx[0], dtype=np.float64),
            np.array(wx[1:], dtype=np.float64).reshape(-1, *wh[0].shape),  # (0, 4H, H) for one layer
            np.array(wh, dtype=np.float64),
            np.array(b, dtype=np.float64),
            np.array(head_w, dtype=np.float64),
            np.array(head_b, dtype=np.float64),
        )

    def from_vector(self, vec: np.ndarray) -> "NetworkParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_parameters(),):
            raise ValueError(f"expected vector of length {self.n_parameters()}, got {vec.shape}")
        arrays, pos = [], 0
        for a in self.arrays():
            arrays.append(vec[pos : pos + a.size].reshape(a.shape))
            pos += a.size
        return self.from_arrays(arrays)

    def freeze(self) -> "NetworkParams":
        """Make every array read-only: the six stacks themselves, since a
        read-only view would leave its base writable."""
        for a in vars(self).values():
            a.setflags(write=False)
        return self


def array_names(num_layers: int) -> list[str]:
    """The model file's name for each array of ``NetworkParams.arrays()``, in that order."""
    layers = [f"layer{idx}.{name}" for idx in range(num_layers) for name in ("wx", "wh", "b")]
    return [*layers, "head_w", "head_b"]


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
    arrays = []
    for idx in range(num_layers):
        in_size = input_size if idx == 0 else h
        wx = rng.uniform(-WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN, (4 * h, in_size))
        wh = rng.uniform(-WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN, (4 * h, h))
        b = np.zeros(4 * h)
        b[h : 2 * h] = FORGET_GATE_BIAS
        arrays.extend((wx, wh, b))
    head_w = rng.uniform(-WEIGHT_INIT_SPAN, WEIGHT_INIT_SPAN, (2, h))
    return NetworkParams.from_arrays([*arrays, head_w, np.zeros(2)])
