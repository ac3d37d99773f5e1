"""The two benchmark workloads.

Each workload is a closed loop with one client: set-up once per repeat,
then operations back to back, each starting when the previous one ended.
The runner times ``op``; ``prepare`` and ``check`` run outside the timed
region.  Every input is generated from the workload seed, so one seed always
gives the same panels and sweep seeds, and cellcast only ever sees those
generated inputs.

The functions the traced run times in forecast_deep's set-up (generation,
the model store) are called through the ``cellcast`` package at call time,
so the hooks installed at those names see them; see tracing.py.

- ``sweep_desk``: ``cellcast sweep --plots`` through ``run_command`` on the
  default config, except ``train.epochs``, ``train.windows_per_series`` and
  ``sweep.n_samples`` (see ``Sizes``).  Training is most of its time; every
  layer works in it.
- ``forecast_deep``: ``TrainedModelForecaster.forecast_panel`` with 100
  samples on the default 50-series panel, a few series per operation; the
  sampler is almost all of it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

import cellcast
from cellcast import (
    LmaConfig,
    SeriesPanel,
    SplitSpec,
    SynthConfig,
    TrainConfig,
    TrainedModelForecaster,
    assemble_covariates,
    rmsle_pooled,
    split_panel,
    train,
)
from cellcast.cli import run_command
from cellcast.config import DEFAULT_CONFIG

from tracing import Tracer

SPLIT = SplitSpec(DEFAULT_CONFIG["split"]["pred_start"], DEFAULT_CONFIG["split"]["pred_end"])
HORIZON = SPLIT.horizon
DESK_MODELS = tuple(DEFAULT_CONFIG["sweep"]["models"])


@dataclass(frozen=True)
class Sizes:
    """Workload sizes.

    A full benchmark pass runs each workload about twenty times in under an
    hour, so one run has under a minute.  Each run reports the mean over its
    operations, so every operation is cut to a few seconds and a run holds
    many: ``sweep_desk`` trains one epoch over a quarter of the default
    windows per series and draws 2 samples (training stays over half of its
    time), and ``forecast_deep`` forecasts 5 of the panel's 50 series per
    operation, taking them in turn."""

    n_series: int = DEFAULT_CONFIG["synth"]["n_series"]
    desk_epochs: int = 1
    desk_samples: int = 2
    desk_windows: int = DEFAULT_CONFIG["train"]["windows_per_series"] // 4
    # set-up is repeated until it has taken this long in all, so that a
    # short set-up's median is not all noise
    setup_min_s: float = 3.0
    deep_samples: int = 100
    deep_chunk: int = 5  # series per forecast_deep operation
    # the model trained during forecast_deep's set-up
    setup_epochs: int = 3
    setup_windows: int = 4


FULL = Sizes()
SMOKE = Sizes(
    n_series=3,
    desk_windows=4,
    setup_min_s=0.0,
    deep_samples=3,
    deep_chunk=1,
    setup_epochs=1,
    setup_windows=2,
)


def derive_seeds(seed: int, workload: str, count: int) -> list[int]:
    """Seeds for one workload's synthetic panels and sweeps."""
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return [int(v) for v in np.random.SeedSequence([seed, tag]).generate_state(count)]


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


class Workload:
    name = ""
    min_ops = 1
    series_per_op = 0
    traj_steps_per_op = 0

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.sizes = sizes
        self.workdir = workdir

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def op(self, tracer: Tracer):
        raise NotImplementedError

    def check(self, output) -> None:
        """Raise CheckFailed when the operation's output is wrong."""
        raise NotImplementedError

    def final_check(self) -> None:
        """Untimed check after the last operation."""

    def info(self) -> dict[str, float]:
        """Mean pooled RMSLE per model, for information only."""
        return {}

    def shapes(self) -> list[tuple[str, int, int, int, int, int]]:
        """(label, D, H, layers, B, T) of the networks the workload trains or samples."""
        return []


def _network_shape(label: str, n_channels: int, cfg: TrainConfig) -> tuple:
    return (label, 1 + n_channels, cfg.hidden_size, cfg.num_layers, cfg.batch_size, cfg.window_len)


class SweepDesk(Workload):
    name = "sweep_desk"
    min_ops = 2  # the byte-identity check needs a second report

    REPORTS = ("report_pooled", "report_stability", "provenance")
    PLOTS = ("plot_pooled", "plot_stability")

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        super().__init__(seed, sizes, workdir)
        synth_seed, sweep_seed = derive_seeds(seed, self.name, 2)
        self.out_dir = os.path.join(workdir, "desk")
        self.config_path = os.path.join(workdir, "desk.json")
        self.config = {
            "synth": {"n_series": sizes.n_series, "seed": synth_seed},
            "train": {"epochs": sizes.desk_epochs, "windows_per_series": sizes.desk_windows},
            "sweep": {"n_samples": sizes.desk_samples, "seed": sweep_seed},
            "paths": {"out_dir": self.out_dir},
        }
        self.series_per_op = sizes.n_series
        n_deepar = sum(m in ("lma_deepar", "deepar") for m in DESK_MODELS)
        self.traj_steps_per_op = n_deepar * sizes.n_series * sizes.desk_samples * HORIZON
        self._panel_digest: str | None = None
        self._first: str | None = None  # report digest of the first operation
        self._means: dict[str, float] = {}

    def _path(self, key: str) -> str:
        return os.path.join(self.out_dir, DEFAULT_CONFIG["paths"][key])

    def _run(self, tracer: Tracer, *argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.span("cli.run_command"):
                rc = run_command([*argv, "--config", self.config_path])
        return rc, err.getvalue()

    def setup(self, tracer: Tracer) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh)
        rc, err = self._run(tracer, "generate")
        if rc != 0:
            raise RuntimeError(f"cellcast generate exited {rc}: {err.strip()}")
        with open(self._path("panel"), "rb") as fh:
            digest = _digest(fh.read())
        if self._panel_digest not in (None, digest):
            raise RuntimeError("cellcast generate wrote a different panel on a repeat")
        self._panel_digest = digest

    def prepare(self) -> None:
        for key in self.REPORTS + self.PLOTS:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._path(key))

    def op(self, tracer: Tracer):
        return self._run(tracer, "sweep", "--plots")

    def check(self, output) -> None:
        rc, err = output
        if rc != 0 or err:
            raise CheckFailed(f"cellcast sweep exited {rc}: {err.strip()}")
        blobs = []
        for key in self.REPORTS:
            with open(self._path(key), "rb") as fh:
                blobs.append(fh.read())
        for key in self.PLOTS:
            if not os.path.getsize(self._path(key)):
                raise CheckFailed(f"{key} is empty")
        failures = json.loads(blobs[2])["provenance"]["failures"]
        if failures:
            raise CheckFailed(f"sweep failures: {failures}")
        rows = [line.split(",") for line in blobs[0].decode().splitlines()]
        if tuple(rows[0][1:]) != DESK_MODELS:
            raise CheckFailed(f"report models {rows[0][1:]}, expected {list(DESK_MODELS)}")
        digest = _digest(*blobs)
        if self._first is None:
            self._first = digest
        elif digest != self._first:
            raise CheckFailed("report bytes differ from the first operation's")
        self._means = {m: float(v) for m, v in zip(rows[0][1:], rows[-1][1:])}

    def info(self) -> dict[str, float]:
        return self._means

    def shapes(self):
        cfg = TrainConfig(windows_per_series=self.sizes.desk_windows)
        n_lma = len(DEFAULT_CONFIG["lma"]["features"])
        return [_network_shape("lma_deepar", n_lma, cfg), _network_shape("deepar", 0, cfg)]


class ForecastDeep(Workload):
    """Set-up trains a small LMA model on the default-size panel and
    round-trips it through the model store.  Each operation forecasts the
    next ``deep_chunk`` series of the training panel, so a run of operations
    walks the whole panel in turn."""

    name = "forecast_deep"

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        super().__init__(seed, sizes, workdir)
        if sizes.n_series % sizes.deep_chunk:
            raise ValueError(f"{sizes.n_series} series do not split into chunks of {sizes.deep_chunk}")
        self.seeds = derive_seeds(seed, self.name, 2)
        self.lma_cfg = LmaConfig(window_len=DEFAULT_CONFIG["lma"]["window_len"], horizon=HORIZON)
        self.train_cfg = TrainConfig(epochs=sizes.setup_epochs, windows_per_series=sizes.setup_windows)
        self.model_path = os.path.join(workdir, "model.bin")
        self._model_digest: str | None = None
        self.sweep_seed = self.seeds[1]
        self.series_per_op = sizes.deep_chunk
        self.traj_steps_per_op = sizes.deep_chunk * sizes.deep_samples * HORIZON
        self._ops = 0
        self._chunk = 0
        self._points: dict[int, np.ndarray] = {}  # chunk -> its first point forecast

    def _rows(self, chunk: int) -> slice:
        return slice(chunk * self.sizes.deep_chunk, (chunk + 1) * self.sizes.deep_chunk)

    def _forecast(self, panel: SeriesPanel) -> np.ndarray:
        forecaster = TrainedModelForecaster(self.model, n_samples=self.sizes.deep_samples)
        return forecaster.forecast_panel(panel, HORIZON, (self.sweep_seed,))

    def _panel(self, rows: slice) -> SeriesPanel:
        tp = self.train_panel
        return SeriesPanel(tp.series_ids[rows], tp.start_date, tp.values[rows])

    def setup(self, tracer: Tracer) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        panel = cellcast.generate_panel(SynthConfig(n_series=self.sizes.n_series, seed=self.seeds[0]))
        self.train_panel, self.test_panel = split_panel(panel, SPLIT)
        cov = assemble_covariates(self.train_panel, self.lma_cfg, HORIZON)
        model = train(self.train_panel, cov, self.train_cfg, self.lma_cfg)
        cellcast.save_model(model, self.model_path)
        self.model = cellcast.load_model(self.model_path)
        with open(self.model_path, "rb") as fh:
            digest = _digest(fh.read())
        if self._model_digest not in (None, digest):
            raise RuntimeError("training wrote a different model on a set-up repeat")
        self._model_digest = digest
        self.chunks = [self._panel(self._rows(c)) for c in range(self.sizes.n_series // self.sizes.deep_chunk)]

    def prepare(self) -> None:
        self._chunk = self._ops % len(self.chunks)
        self._ops += 1

    def op(self, tracer: Tracer):
        return self._forecast(self.chunks[self._chunk])

    def check(self, output) -> None:
        point = np.asarray(output)
        if point.shape != (self.sizes.deep_chunk, HORIZON):
            raise CheckFailed(f"point forecast shape {point.shape}")
        if not np.all(np.isfinite(point)) or np.any(point < 0):
            raise CheckFailed("point forecast is not finite and non-negative")
        first = self._points.setdefault(self._chunk, point)
        if point.tobytes() != first.tobytes():
            raise CheckFailed(f"point forecast of chunk {self._chunk} differs from its first")

    def final_check(self) -> None:
        """Series i samples from stream (seed, i) alone, so forecasting a
        two-series prefix of the first chunk must reproduce its first two
        rows bit for bit; this holds the sampler to its determinism contract
        even when every chunk was forecast only once."""
        rows = slice(0, min(2, self.sizes.deep_chunk))
        again = self._forecast(self._panel(rows))
        if again.tobytes() != self._points[0][rows].tobytes():
            raise CheckFailed("re-forecasting a two-series prefix changed its rows")

    def info(self) -> dict[str, float]:
        if not self._points:
            return {}
        chunks = sorted(self._points)
        actual = np.concatenate([self.test_panel.values[self._rows(c)] for c in chunks])
        point = np.concatenate([self._points[c] for c in chunks])
        return {"lma_deepar": rmsle_pooled(actual, point)}

    def shapes(self):
        return [_network_shape("lma_deepar", self.lma_cfg.n_channels, self.train_cfg)]


WORKLOADS = {cls.name: cls for cls in (SweepDesk, ForecastDeep)}
