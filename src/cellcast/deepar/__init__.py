"""Autoregressive recurrent likelihood forecaster.

A stacked LSTM consumes the scaled lagged target plus covariate channels and
emits per-step Gaussian parameters.  Training maximizes the likelihood of
observed windows under teacher forcing; prediction runs the same network
(same weights) over the conditioning range and then draws Monte Carlo
trajectories by ancestral sampling.
"""

from .params import LayerParams, NetworkParams, init_params
from .network import (
    forward_window,
    gaussian_nll,
    lstm_cell,
    series_scale,
    sigmoid,
    softplus,
)
from .grad import batch_loss_and_grad, window_loss_and_grad

from .training import TrainConfig, TrainedModel, TrainError, train
from .forecasting import Forecast, ForecastError, point_forecast, sample_forecast
from .store import MODEL_FORMAT_VERSION, ModelStoreError, load_model, save_model

__all__ = [
    "LayerParams",
    "NetworkParams",
    "init_params",
    "lstm_cell",
    "forward_window",
    "gaussian_nll",
    "series_scale",
    "sigmoid",
    "softplus",
    "batch_loss_and_grad",
    "window_loss_and_grad",
    "TrainConfig",
    "TrainedModel",
    "TrainError",
    "train",
    "Forecast",
    "ForecastError",
    "sample_forecast",
    "point_forecast",
    "MODEL_FORMAT_VERSION",
    "ModelStoreError",
    "save_model",
    "load_model",
]
