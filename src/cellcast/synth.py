"""Deterministic synthetic traffic panels: trend + weekly cycle + bursts + noise.

Real per-cell traffic decomposes into a deterministic part (level, trend,
periodic rhythm, bursts) plus a random part.  The generator realizes each
named part with the simplest matching form: linear trend, one sinusoid,
Poisson-arriving exponential spikes, and additive Gaussian noise, clamped
at zero.

Every series draws from its own seed substream (see ``_rng``), so panels are
a pure function of the config and regenerating with the same master seed
reproduces any single series independently of the others.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from ._fields import check_field_types
from ._rng import substream
from .panel import PanelError, SeriesPanel

__all__ = ["SynthConfig", "generate_panel", "series_params"]

# component substream ids, fixed for provenance
_PARAMS, _BURSTS, _NOISE = 0, 1, 2


class SynthConfigError(ValueError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class SynthConfig:
    """Shape of a synthetic panel.

    ``trend_slope_range`` and ``amplitude_range`` are closed intervals; each
    series draws its slope, amplitude and phase once.  ``burst_rate`` is the
    expected bursts per day, each burst adding an exponential spike with mean
    ``burst_scale``.
    """

    n_series: int = 50
    n_total: int = 212
    base_level: float = 500.0
    trend_slope_range: tuple[float, float] = (-0.8, 1.6)
    period: int = 7
    amplitude_range: tuple[float, float] = (40.0, 120.0)
    burst_rate: float = 0.05
    burst_scale: float = 600.0
    noise_sigma: float = 20.0
    seed: int = 20210901
    start_date: dt.date = dt.date(2021, 1, 1)

    def __post_init__(self) -> None:
        check_field_types(self, SynthConfigError)
        if self.n_series < 1:
            raise SynthConfigError(f"n_series must be >= 1, got {self.n_series}")
        if self.n_total < 2:
            raise SynthConfigError(f"n_total must be >= 2, got {self.n_total}")
        if self.period < 1:
            raise SynthConfigError(f"period must be >= 1, got {self.period}")
        if self.seed < 0:
            raise SynthConfigError(f"seed must be >= 0, got {self.seed}")
        if (dt.date.max - self.start_date).days < self.n_total - 1:
            raise SynthConfigError(
                f"start_date {self.start_date} leaves no room for {self.n_total} days"
                f" up to {dt.date.max}"
            )
        for name in ("base_level", "burst_rate", "burst_scale", "noise_sigma"):
            if getattr(self, name) < 0:
                raise SynthConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("trend_slope_range", "amplitude_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise SynthConfigError(f"{name} must be a finite interval (lo <= hi), got ({lo}, {hi})")


def series_params(cfg: SynthConfig, i: int) -> tuple[float, float, float]:
    """Per-series (trend slope, sinusoid amplitude, phase) drawn from stream (seed, i, 0)."""
    rng = substream(cfg.seed, i, _PARAMS)
    slope = rng.uniform(*cfg.trend_slope_range)
    amplitude = rng.uniform(*cfg.amplitude_range)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return slope, amplitude, phase


def _burst_component(cfg: SynthConfig, i: int) -> np.ndarray:
    rng = substream(cfg.seed, i, _BURSTS)
    counts = rng.poisson(cfg.burst_rate, cfg.n_total)
    burst = np.zeros(cfg.n_total)
    for t in range(cfg.n_total):
        if counts[t] > 0:
            burst[t] = rng.exponential(cfg.burst_scale, counts[t]).sum()
    return burst


def generate_panel(cfg: SynthConfig) -> SeriesPanel:
    """Generate the panel described by ``cfg``; pure in the config.

    Day t (1-based) of series i is
    ``max(0, base + slope_i * t + A_i * sin(2*pi*t/period + phase_i) + burst_i(t) + e_i(t))``.
    The sinusoid argument is evaluated with ``t mod period``, which is the
    same angle up to a multiple of 2*pi and makes a noise-free panel repeat
    bit-exactly across periods.
    """
    t = np.arange(1, cfg.n_total + 1, dtype=np.float64)
    angle = 2.0 * math.pi * (np.arange(1, cfg.n_total + 1) % cfg.period) / cfg.period
    rows = []
    for i in range(cfg.n_series):
        slope, amplitude, phase = series_params(cfg, i)
        noise = substream(cfg.seed, i, _NOISE).normal(0.0, cfg.noise_sigma, cfg.n_total)
        x = cfg.base_level + slope * t + amplitude * np.sin(angle + phase)
        x += _burst_component(cfg, i) + noise
        rows.append(np.maximum(0.0, x))
    width = max(4, len(str(cfg.n_series - 1)))
    ids = tuple(f"cell{i:0{width}d}" for i in range(cfg.n_series))
    try:
        return SeriesPanel(ids, cfg.start_date, np.stack(rows))
    except PanelError as exc:  # generator output is non-negative/finite by construction
        raise SynthConfigError(f"generated panel invalid: {exc}") from exc
