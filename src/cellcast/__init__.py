"""cellcast: probabilistic forecasting of daily cell-level network traffic.

A recurrent Gaussian-likelihood forecaster augmented with local moving
average covariate channels, plus a synthetic panel generator, naive and
Holt-Winters baselines, and an evaluation harness that sweeps pooled and
per-series RMSLE over a range of prediction steps.
"""

from .baselines import BaselineError, HoltWintersConfig, holt_winters, seasonal_naive
from .deepar import (
    Forecast,
    ForecastError,
    NetworkParams,
    TrainConfig,
    TrainedModel,
    TrainError,
    batch_loss_and_grad,
    init_params,
    load_model,
    point_forecast,
    sample_forecast,
    save_model,
    train,
)
from .evalharness import (
    DEFAULT_STEPS,
    EvalError,
    EvalReport,
    HoltWintersForecaster,
    SeasonalNaiveForecaster,
    TrainedModelForecaster,
    rmsle_per_series,
    rmsle_pooled,
    score_steps,
    stability_std,
    sweep,
    write_provenance,
    write_report_csvs,
    write_svg_plots,
)
from .lma import (
    CovariatePanel,
    LmaConfig,
    LmaError,
    assemble_covariates,
    day_of_week_channel,
    export_covariates,
    feature_value,
    lma_features,
    lma_window,
)
from .panel import (
    PanelError,
    SeriesPanel,
    SplitSpec,
    load_panel,
    split_panel,
    write_panel,
)
from .synth import SynthConfig, SynthConfigError, generate_panel, series_params
from ._rng import substream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "assemble_covariates",
    "BaselineError",
    "batch_loss_and_grad",
    "CovariatePanel",
    "day_of_week_channel",
    "DEFAULT_STEPS",
    "EvalError",
    "EvalReport",
    "export_covariates",
    "feature_value",
    "Forecast",
    "ForecastError",
    "generate_panel",
    "holt_winters",
    "HoltWintersConfig",
    "HoltWintersForecaster",
    "init_params",
    "lma_features",
    "lma_window",
    "LmaConfig",
    "LmaError",
    "load_model",
    "load_panel",
    "NetworkParams",
    "PanelError",
    "point_forecast",
    "rmsle_per_series",
    "rmsle_pooled",
    "score_steps",
    "sample_forecast",
    "save_model",
    "seasonal_naive",
    "SeasonalNaiveForecaster",
    "series_params",
    "SeriesPanel",
    "split_panel",
    "SplitSpec",
    "stability_std",
    "substream",
    "sweep",
    "SynthConfig",
    "SynthConfigError",
    "train",
    "TrainConfig",
    "TrainedModel",
    "TrainedModelForecaster",
    "TrainError",
    "write_panel",
    "write_provenance",
    "write_report_csvs",
    "write_svg_plots",
]
