"""Local moving average (LMA) covariate channels.

Each output index of a series is assigned a window of past training data and
the window's summary statistic (mean or population standard deviation) is
emitted as an artificial feature channel.  Channels cover both the training
range and the prediction horizon, using training data only, so they can feed
the forecaster as covariates that are "known" at all time points.

Window placement for output index i (1-based), series length n, window length
w, horizon p (w >= p >= 1, w <= n):

    i < p              head:    window [1, w]
    p <= i < n, tail   tail:    window [n-w+1, n]      (tail when n-i-1 < p)
    p <= i < n, main   main:    window [i-p+1, i-p+w]  (start clamped to [1, n-w+1])
    i >= n             horizon: window [n-p+1, n]

so the head and horizon entries are constant runs and every window stays
inside the observed range.

``lma_window`` is the one statement of these rules.  Every series of a
panel shares n, so ``assemble_covariates`` places the windows once, gathers the
distinct windows of each length of a few series at a time as rows of one
array and reduces each statistic over all rows in one call (``lma_features``
is the one-series case); every row is reduced exactly as its 1-D window
alone would be, so the channels are bit-identical to computing
``feature_value`` index by index.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._fields import check_field_types
from .panel import SeriesPanel, write_long

__all__ = [
    "FEATURE_KINDS",
    "LmaConfig",
    "CovariatePanel",
    "feature_value",
    "lma_window",
    "lma_features",
    "day_of_week_channel",
    "assemble_covariates",
    "export_covariates",
]

FEATURE_KINDS = ("mean", "std")


class LmaError(ValueError):
    """Invalid LMA configuration or window query."""


@dataclass(frozen=True)
class LmaConfig:
    """Feature channel recipe.

    ``window_len`` is the smoothing window over training data, ``horizon``
    the number of prediction steps the channels must extend past the series
    end.  ``features`` lists each kind at most once, in channel order.
    """

    window_len: int = 62
    horizon: int = 31
    features: tuple[str, ...] = ("mean", "std")
    standardize: bool = True

    def __post_init__(self) -> None:
        check_field_types(self, LmaError)
        if not (self.window_len >= self.horizon >= 1):
            raise LmaError(
                f"need window_len >= horizon >= 1, got window_len={self.window_len}, "
                f"horizon={self.horizon}"
            )
        if len(self.features) == 0:
            raise LmaError("features must be nonempty")
        for kind in self.features:
            if kind not in FEATURE_KINDS:
                raise LmaError(f"unknown feature kind {kind!r}, expected one of {FEATURE_KINDS}")
        if len(set(self.features)) != len(self.features):
            raise LmaError(f"duplicate feature kinds in {self.features}")

    @property
    def n_channels(self) -> int:
        return len(self.features)


_REDUCERS = {"mean": np.mean, "std": np.std}

# One reduction call gathers at most about this many window values
# (256 KiB), a few series' worth: larger slices were no faster on the
# default panel, and their peak memory grows with the panel's width.
_GATHER_ELEMENTS = 1 << 15


def feature_value(window: np.ndarray, kind: str) -> float:
    """Summary statistic of a window: arithmetic mean or population std."""
    window = np.asarray(window, dtype=np.float64)
    if window.size == 0:
        raise LmaError("feature window is empty")
    if kind not in _REDUCERS:
        raise LmaError(f"unknown feature kind {kind!r}")
    return float(_REDUCERS[kind](window))


def lma_window(i: int, n: int, window_len: int, horizon: int) -> tuple[int, int]:
    """Window (start, length), both 1-based/inclusive-start, for output index i.

    See the module docstring for the placement rules.  The returned window is
    always inside [1, n].
    """
    if not (window_len >= horizon >= 1):
        raise LmaError(f"need window_len >= horizon >= 1, got ({window_len}, {horizon})")
    if window_len > n:
        raise LmaError(f"window_len {window_len} exceeds series length {n}")
    if not (1 <= i <= n + horizon):
        raise LmaError(f"index {i} out of range 1..{n + horizon}")
    if i < horizon:
        return 1, window_len
    if i < n:
        if n - i - 1 < horizon:
            return n - window_len + 1, window_len
        start = min(max(i - horizon + 1, 1), n - window_len + 1)
        return start, window_len
    return n - horizon + 1, horizon


def lma_features(z: np.ndarray, cfg: LmaConfig) -> np.ndarray:
    """All feature channels for one series: shape (K, n + horizon)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise LmaError(f"series must be a nonempty 1-D sequence, got shape {z.shape}")
    return _channels(z[None], cfg)[0]


def _channels(values: np.ndarray, cfg: LmaConfig) -> np.ndarray:
    """Feature channels (S, K, n + horizon) of S series rows of one length n.

    Every series shares n, so the windows are placed once, each distinct
    window is reduced once per series, and each length's windows of a
    slice of series are reduced in one call.
    """
    n_series, n = values.shape
    if cfg.window_len > n:
        raise LmaError(f"window_len {cfg.window_len} exceeds series length {n}")
    placed = [lma_window(i, n, cfg.window_len, cfg.horizon) for i in range(1, n + cfg.horizon + 1)]
    windows = sorted(set(placed))
    starts = np.array([start for start, _ in windows])
    lengths = np.array([length for _, length in windows])
    reduced = np.empty((n_series, cfg.n_channels, len(windows)))
    for length in sorted(set(lengths.tolist())):
        at = np.flatnonzero(lengths == length)
        per_call = max(1, _GATHER_ELEMENTS // (at.size * length))
        for lo in range(0, n_series, per_call):
            # Fancy indexing copies the windows into contiguous rows, so each
            # row reduces exactly as the 1-D window would.
            rows = sliding_window_view(values[lo : lo + per_call], length, axis=1)[:, starts[at] - 1]
            for k, kind in enumerate(cfg.features):
                reduced[lo : lo + per_call, k, at] = _REDUCERS[kind](rows, axis=-1)
    column = {window: j for j, window in enumerate(windows)}
    # take, unlike fancy indexing on the last axis, returns C order, which the
    # standardization's reductions need to round as they do on stacked rows
    return np.take(reduced, [column[window] for window in placed], axis=2)


@dataclass(frozen=True)
class CovariatePanel:
    """Per-series covariate channels of length n + horizon.

    ``channels[i, k, t]`` is channel k of series i at step t+1.
    """

    series_ids: tuple[str, ...]
    kinds: tuple[str, ...]
    horizon: int
    channels: np.ndarray

    def __post_init__(self) -> None:
        ch = np.asarray(self.channels, dtype=np.float64)
        if ch.ndim != 3:
            raise LmaError(f"channels must be (series, channel, step), got shape {ch.shape}")
        n_series, k, length = ch.shape
        if n_series != len(self.series_ids):
            raise LmaError(f"{len(self.series_ids)} series ids but {n_series} channel rows")
        if k != len(self.kinds):
            raise LmaError(f"{len(self.kinds)} kind labels but {k} channels")
        if not (1 <= self.horizon < length):
            raise LmaError(f"horizon {self.horizon} inconsistent with channel length {length}")
        if not np.all(np.isfinite(ch)):
            raise LmaError("covariate channels contain non-finite values")
        ch = ch.copy()
        ch.setflags(write=False)
        object.__setattr__(self, "channels", ch)

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]


def day_of_week_channel(start_date: dt.date, n_steps: int, horizon: int) -> np.ndarray:
    """Calendar channel: weekday index centered and scaled to [-1, 1]."""
    first = start_date.weekday()
    dow = (first + np.arange(n_steps + horizon)) % 7
    return (dow - 3.0) / 3.0


def assemble_covariates(
    panel: SeriesPanel,
    lma_cfg: LmaConfig | None,
    horizon: int,
    day_of_week: bool = False,
) -> CovariatePanel | None:
    """Covariates the forecaster trains on: LMA channels, optional calendar channel, or none.

    ``horizon`` must match ``lma_cfg.horizon`` when LMA channels are used.
    With ``lma_cfg.standardize`` each LMA channel is shifted and scaled by
    its own training-range (first n steps) mean and population std, per
    series; a zero-variance channel is shifted to zero and left unscaled.
    Returns None when the model runs on the lagged target alone.
    """
    channels = None
    kinds: tuple[str, ...] = ()
    if lma_cfg is not None:
        if lma_cfg.horizon != horizon:
            raise LmaError(f"lma horizon {lma_cfg.horizon} != requested horizon {horizon}")
        n = panel.n_steps
        # Values near the float64 limit overflow the window sums; the check
        # below reports that once, in place of numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            channels = _channels(panel.values, lma_cfg)
            if lma_cfg.standardize:
                shift = channels[:, :, :n].mean(axis=2)
                scale = channels[:, :, :n].std(axis=2)
                scale = np.where(scale == 0.0, 1.0, scale)
                channels -= shift[:, :, None]
                channels /= scale[:, :, None]
        if not np.isfinite(channels).all():
            raise LmaError(
                f"panel values up to {panel.values.max():g} are too large for their"
                " moving statistics"
            )
        kinds = lma_cfg.features
    if day_of_week:
        dow = day_of_week_channel(panel.start_date, panel.n_steps, horizon)
        dow = np.broadcast_to(dow, (panel.n_series, 1, dow.size))
        channels = dow if channels is None else np.concatenate([channels, dow], axis=1)
        kinds += ("dow",)
    if channels is None:
        return None
    return CovariatePanel(panel.series_ids, kinds, horizon, channels)


def export_covariates(cov: CovariatePanel, path: str) -> None:
    """Inspection CSV: ``series_id,channel,t,value`` with t 1-based."""
    steps = range(1, cov.channels.shape[2] + 1)
    keys = [(kind, t) for kind in cov.kinds for t in steps]
    write_long(path, ("series_id", "channel", "t", "value"), cov.series_ids, keys, cov.channels)
