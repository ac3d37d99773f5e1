"""Maximum-likelihood training over sampled panel windows.

Each epoch draws ``windows_per_series`` training windows per series at seeded
random offsets, pools them across series, visits them in a seeded-shuffled
order, and applies one Adam update per batch of windows.  Every window spans
``context_length + horizon`` observed values under teacher forcing; its scale
comes from its own conditioning range.  The whole procedure is a pure
function of (panel, covariates, config), so reruns are bit-identical.

The step size follows a cosine from ``learning_rate`` at the first update
down towards zero at the last one (the run's update count is known before it
starts).  The Gaussian likelihood sharpens as sigma shrinks, so a step size
that stays large keeps the fit bouncing and leaves the result to round-off;
the decay lets the late updates settle both the mean and sigma.  Adam's
second-moment rate (``ADAM_BETA2``) is 0.99 so that no single batch can move
a parameter by much more than one step size, and ``clip_norm`` guards only
against outlier batches: the gradient norm grows like 1/sigma^2 as the fit
tightens, so a small clip would rescale nearly every batch and hold sigma
above the residuals it should match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._fields import check_field_types
from .._rng import substream
from ..lma import CovariatePanel, LmaConfig, assemble_covariates
from ..panel import SeriesPanel
from .grad import batch_buffers, batch_loss_and_grad
from .network import cut_windows
from .params import NetworkParams, init_params

__all__ = [
    "MODEL_FORMAT_VERSION",
    "TrainConfig",
    "TrainedModel",
    "TrainError",
    "step_size",
    "train",
]

MODEL_FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.99
ADAM_EPS = 1e-8

_INIT_STREAM = 0
_OFFSET_STREAM = 1
_SHUFFLE_STREAM = 2


class TrainError(ValueError):
    """Invalid training configuration or unusable training inputs."""


@dataclass(frozen=True)
class TrainConfig:
    context_length: int = 62
    horizon: int = 31
    epochs: int = 15
    learning_rate: float = 1e-2
    batch_size: int = 32
    hidden_size: int = 40
    num_layers: int = 2
    sigma_floor: float = 1e-6
    seed: int = 0
    windows_per_series: int = 64
    clip_norm: float = 1000.0
    day_of_week: bool = False

    def __post_init__(self) -> None:
        check_field_types(self, TrainError)
        if self.horizon < 1 or self.context_length < self.horizon:
            raise TrainError(
                f"need context_length >= horizon >= 1, got {self.context_length}, {self.horizon}"
            )
        if self.epochs < 0:
            raise TrainError(f"epochs must be >= 0, got {self.epochs}")
        if not self.learning_rate > 0:
            raise TrainError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise TrainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_size < 1 or self.num_layers < 1:
            raise TrainError(
                f"hidden_size and num_layers must be >= 1, got {self.hidden_size}, {self.num_layers}"
            )
        if not self.sigma_floor > 0:
            raise TrainError(f"sigma_floor must be positive, got {self.sigma_floor}")
        if self.windows_per_series < 1:
            raise TrainError(f"windows_per_series must be >= 1, got {self.windows_per_series}")
        if not self.clip_norm > 0:
            raise TrainError(f"clip_norm must be positive, got {self.clip_norm}")
        if self.seed < 0:
            raise TrainError(f"seed must be >= 0, got {self.seed}")

    @property
    def window_len(self) -> int:
        return self.context_length + self.horizon


@dataclass(frozen=True)
class TrainedModel:
    """Immutable training result: parameters, configs and the loss curve."""

    params: NetworkParams
    train_config: TrainConfig
    lma_config: LmaConfig | None
    epoch_nll: tuple[float, ...]
    format_version: int = MODEL_FORMAT_VERSION

    def __post_init__(self) -> None:
        for name in ("num_layers", "hidden_size"):
            built, stated = getattr(self.params, name), getattr(self.train_config, name)
            if built != stated:
                raise TrainError(f"network has {name} {built} but train_config says {stated}")
        object.__setattr__(self, "epoch_nll", tuple(float(v) for v in self.epoch_nll))

    @property
    def n_channels(self) -> int:
        return self.params.input_size - 1


def _covariate_key(cov: CovariatePanel | None) -> tuple | None:
    if cov is None:
        return None
    return cov.series_ids, cov.kinds, cov.horizon, cov.channels.shape, cov.channels.tobytes()


def _describe(cov: CovariatePanel | None) -> str:
    return "none" if cov is None else f"[{', '.join(cov.kinds)}] of shape {cov.channels.shape}"


def _clip_gradient(g: np.ndarray, clip_norm: float) -> np.ndarray:
    norm = float(np.sqrt(np.sum(g * g)))
    if norm > clip_norm:
        return g * (clip_norm / norm)
    return g


def step_size(learning_rate: float, step: int, total_steps: int) -> float:
    """Cosine-decayed step size of update ``step`` (0-based) out of ``total_steps``."""
    return 0.5 * learning_rate * (1.0 + math.cos(math.pi * step / total_steps))


def train(
    panel: SeriesPanel,
    covariates: CovariatePanel | None,
    cfg: TrainConfig,
    lma_config: LmaConfig | None = None,
) -> TrainedModel:
    """Fit the network on every series of the panel.

    covariates must be what the model's configs build from this panel,
    ``assemble_covariates(panel, lma_config, cfg.horizon,
    day_of_week=cfg.day_of_week)``, which is what a forecast from the model
    rebuilds; anything else is a TrainError.  lma_config is carried into
    the result so a reloaded model can rebuild its channels.  One set of
    forward caches (``batch_buffers``) serves every batch of the run and is
    freed when train returns.
    """
    window_len = cfg.window_len
    n_steps = panel.n_steps
    if n_steps < window_len:
        raise TrainError(
            f"series length {n_steps} is shorter than one training window ({window_len})"
        )
    expected = assemble_covariates(panel, lma_config, cfg.horizon, day_of_week=cfg.day_of_week)
    if _covariate_key(covariates) != _covariate_key(expected):
        raise TrainError(
            f"covariates differ from the ones the model's configs build from this panel"
            f" (given {_describe(covariates)}, built {_describe(expected)}): pass"
            f" assemble_covariates(panel, lma_config, cfg.horizon, day_of_week=cfg.day_of_week)"
        )
    n_channels = 0 if covariates is None else covariates.n_channels
    rng_init = substream(cfg.seed, _INIT_STREAM)
    params = init_params(1 + n_channels, cfg.hidden_size, cfg.num_layers, rng_init)
    if cfg.epochs == 0:
        return TrainedModel(params.freeze(), cfg, lma_config, ())
    rng_offsets = substream(cfg.seed, _OFFSET_STREAM)
    rng_shuffle = substream(cfg.seed, _SHUFFLE_STREAM)

    wps = cfg.windows_per_series
    n_windows = panel.n_series * wps
    channels = covariates.channels if covariates is not None else None

    total_steps = cfg.epochs * -(-n_windows // cfg.batch_size)
    buffers = batch_buffers(min(cfg.batch_size, n_windows), window_len, params)
    theta = params.to_vector()
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    step = 0
    epoch_nll: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        offsets = rng_offsets.integers(0, n_steps - window_len + 1, size=n_windows)
        order = rng_shuffle.permutation(n_windows)
        loss_sum = 0.0
        for batch_no, lo in enumerate(range(0, n_windows, cfg.batch_size), start=1):
            batch = order[lo : lo + cfg.batch_size]
            z_windows, x_windows, scales = cut_windows(
                panel.values, channels, batch // wps, offsets[batch], window_len, cfg.context_length
            )
            par = params.from_vector(theta)
            # The inputs are valid, so a ValueError here is a non-finite loss
            # or gradient: the run diverged.  It is reported before the update
            # reaches theta, so numpy's overflow warnings add nothing.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                try:
                    loss, grads = batch_loss_and_grad(
                        z_windows, x_windows, scales, par, cfg.sigma_floor, buffers
                    )
                except ValueError as exc:
                    raise TrainError(
                        f"training diverged at epoch {epoch}, batch {batch_no}: {exc}"
                    ) from exc
            loss_sum += loss * batch.size
            g = _clip_gradient(grads.to_vector(), cfg.clip_norm)
            lr = step_size(cfg.learning_rate, step, total_steps)
            step += 1
            # A step size near the float64 limit can overflow the update
            # itself; the check below reports that as divergence.
            with np.errstate(over="ignore", invalid="ignore"):
                adam_m = ADAM_BETA1 * adam_m + (1.0 - ADAM_BETA1) * g
                adam_v = ADAM_BETA2 * adam_v + (1.0 - ADAM_BETA2) * g * g
                m_hat = adam_m / (1.0 - ADAM_BETA1**step)
                v_hat = adam_v / (1.0 - ADAM_BETA2**step)
                theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if not np.isfinite(theta).all():
                raise TrainError(
                    f"training diverged at epoch {epoch}, batch {batch_no}:"
                    " non-finite parameter update"
                )
        epoch_nll.append(loss_sum / n_windows)
    final = params.from_vector(theta).freeze()
    return TrainedModel(final, cfg, lma_config, tuple(epoch_nll))
