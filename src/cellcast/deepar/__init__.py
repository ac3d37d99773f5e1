"""Autoregressive recurrent likelihood forecaster.

A stacked LSTM consumes the scaled lagged target plus covariate channels and
emits per-step Gaussian parameters.  Training maximizes the likelihood of
observed windows under teacher forcing; prediction runs the same network
(same weights) over the conditioning range and then draws Monte Carlo
trajectories by ancestral sampling.
"""

from .params import NetworkParams, init_params
from .grad import batch_loss_and_grad

from .training import TrainConfig, TrainedModel, TrainError, train
from .forecasting import Forecast, ForecastError, point_forecast, sample_forecast
from .store import MODEL_FORMAT_VERSION, ModelStoreError, load_model, save_model

__all__ = [
    "NetworkParams",
    "init_params",
    "batch_loss_and_grad",
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
