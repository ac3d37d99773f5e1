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

from .._fields import check_field_types, ruled
from .._rng import substream
from ..lma import CovariatePanel, LmaConfig, assemble_covariates
from ..panel import SeriesPanel
from .grad import batch_buffers, batch_loss_and_grad
from .network import DEFAULT_SIGMA_FLOOR, cut_windows
from .params import NetworkParams, init_params

__all__ = [
    "TrainConfig",
    "TrainedModel",
    "TrainError",
    "step_size",
    "train",
]

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
    horizon: int = ruled(31, at_least=1)
    epochs: int = ruled(15, at_least=0)
    learning_rate: float = ruled(1e-2, positive=True)
    batch_size: int = ruled(32, at_least=1)
    hidden_size: int = ruled(40, at_least=1)
    num_layers: int = ruled(2, at_least=1)
    sigma_floor: float = ruled(DEFAULT_SIGMA_FLOOR, positive=True)
    seed: int = ruled(0, at_least=0)
    windows_per_series: int = ruled(64, at_least=1)
    clip_norm: float = ruled(1000.0, positive=True)
    day_of_week: bool = False

    def __post_init__(self) -> None:
        check_field_types(self, TrainError)
        if self.context_length < self.horizon:
            raise TrainError(
                f"need context_length >= horizon, got {self.context_length}, {self.horizon}"
            )

    @property
    def window_len(self) -> int:
        return self.context_length + self.horizon


@dataclass(frozen=True)
class TrainedModel:
    """Immutable training result: parameters, configs and the loss curve.

    A plain record that ``train`` and ``load_model`` build consistent: the
    network has the configs' layer count and hidden size and, with an LMA
    recipe, the recipe's horizon is the training horizon and the input has
    the lagged target, one channel per LMA feature and the weekday channel
    if used.  Without one the channel count is free (the caller supplies
    channels).
    """

    params: NetworkParams
    train_config: TrainConfig
    lma_config: LmaConfig | None
    epoch_nll: tuple[float, ...]

    @property
    def n_channels(self) -> int:
        return self.params.input_size - 1


def _covariate_key(cov: CovariatePanel | None) -> tuple | None:
    if cov is None:
        return None
    channels = np.asarray(cov.channels, dtype=np.float64)
    return cov.series_ids, cov.kinds, cov.horizon, channels.shape, channels.tobytes()


def _describe(cov: CovariatePanel | None) -> str:
    return "none" if cov is None else f"[{', '.join(cov.kinds)}] of shape {np.shape(cov.channels)}"


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
    rebuilds; anything else is a TrainError, as is a panel whose values
    overflow a window's series scale.  The run trains on its own build, so
    the caller's record is only compared with it.  lma_config is carried into
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
    n_channels = 0 if expected is None else expected.n_channels
    rng_init = substream(cfg.seed, _INIT_STREAM)
    params = init_params(1 + n_channels, cfg.hidden_size, cfg.num_layers, rng_init)
    if cfg.epochs == 0:
        return TrainedModel(params.freeze(), cfg, lma_config, ())
    rng_offsets = substream(cfg.seed, _OFFSET_STREAM)
    rng_shuffle = substream(cfg.seed, _SHUFFLE_STREAM)

    wps = cfg.windows_per_series
    n_windows = panel.n_series * wps
    channels = expected.channels if expected is not None else None

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
            try:
                z_windows, x_windows, scales = cut_windows(
                    panel.values, channels, batch // wps, offsets[batch], window_len, cfg.context_length
                )
            except ValueError as exc:  # a window's series scale overflows
                raise TrainError(str(exc)) from exc
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
