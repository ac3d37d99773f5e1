"""Spans and counters recorded from outside cellcast, for the traced run.

Nothing in cellcast knows about tracing.  A traced operation installs thin
wrappers at the module attributes cellcast's callers look up (for example
``cellcast.deepar.training.batch_loss_and_grad``) and removes them again
afterwards, so untraced operations run the unmodified program.

Each wrapped call becomes a span: name, start, end, parent span, operation
id.  Per-step calls (``lstm_cell``) would swamp memory as spans, so they are
aggregated into counters: a call count plus every duration.  A span's self
time is its duration minus the time covered by its child spans and by the
counted calls made directly inside it.  Spans stay in memory and are written
out once, when the run ends.

A wrapped name that no longer exists (a later refactor may remove it) is
skipped.  Each metric names the spans it reads and the workloads that
produce them; when such a workload's traced operation has none of one of
those spans, the metric is reported as absent instead of as a misleading 0,
and the run goes on.  Every span name comes from hooks alone, apart from
``cli.run_command``, which the benchmark opens around its own call.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


# --- computed operation counts --------------------------------------------
# A multiply-add inside a matrix product counts as 2 FLOPs; every elementwise
# add, multiply and activation counts as 1.  The counts follow the shapes of
# cellcast's stacked LSTM with a two-output Gaussian head.


def lstm_step_flops(d: int, h: int, layers: int) -> int:
    """Computed FLOPs of one forward step, batch of one, head included."""
    total = 0
    d_in = d
    for _ in range(layers):
        total += 8 * h * (d_in + h)  # W_x x and W_h h for four gates
        total += 8 * h  # + W_h h, + b
        total += 4 * h  # three sigmoids, one tanh
        total += 5 * h  # c = f*c + i*g, then o * tanh(c)
        d_in = h
    return total + 4 * h + 3  # head product, bias, softplus


def train_batch_flops(d: int, h: int, layers: int, b: int, t: int) -> int:
    """Computed FLOPs of one forward plus backward pass over a (B, T) batch."""
    backward = 0
    d_in = d
    for idx in range(layers):
        backward += 8 * h * (d_in + h)  # weight gradients
        backward += 8 * h * h  # gradient into the previous hidden state
        if idx > 0:
            backward += 8 * h * d_in  # gradient into the layer below
        backward += 28 * h  # gate derivatives and bias sums
        d_in = h
    backward += 8 * h  # head weight and input gradients
    return b * t * (lstm_step_flops(d, h, layers) + backward)


# --- spans ----------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span and counter store for one benchmark process.

    Calls are assumed to come from one thread: the benchmark leaves
    CELLCAST_THREADS unset, so cellcast runs single-threaded.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op = ""
        self.spans: list[Span] = []
        # (counter name, op) -> every call duration in seconds
        self.counters: dict[tuple[str, str], array] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent.id if parent else None, self.op, _clock())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = _clock()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration

    def wrap_span(self, name: str, fn: Callable, annotate: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if annotate is not None and sp is not None:
                    try:
                        sp.attrs.update(annotate(args, kwargs, result))
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # the metrics that need these attributes read as absent
                return result

        return wrapper

    def wrap_counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            key = (name, self.op)
            durations = self.counters.get(key)
            if durations is None:
                durations = self.counters[key] = array("d")
            durations.append(dt)
            if self._stack:
                self._stack[-1].child_s += dt
            return result

        return wrapper

    def write(self, path: str, header: dict) -> None:
        """Write the header, every span and every counter as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "span": sp.name,
                            "id": sp.id,
                            "parent": sp.parent,
                            "op": sp.op,
                            "start": sp.start,
                            "end": sp.end,
                            "self_s": sp.self_s,
                            "attrs": sp.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            for (name, op), durations in sorted(self.counters.items()):
                fh.write(
                    json.dumps(
                        {"counter": name, "op": op, "calls": len(durations), "total_s": sum(durations)},
                        sort_keys=True,
                    )
                    + "\n"
                )


# --- hooks ----------------------------------------------------------------


def _batch_attrs(args, kwargs, result) -> dict:
    z, params = args[0], args[3]
    b, t = z.shape[0], z.shape[1] - 1
    flops = train_batch_flops(params.input_size, params.hidden_size, params.num_layers, b, t)
    return {"windows": b, "flops": flops}


def _sample_attrs(args, kwargs, result) -> dict:
    model = args[0]
    p = model.params
    traj = result.samples.size
    steps = model.train_config.context_length + traj
    return {"traj_steps": traj, "flops": steps * lstm_step_flops(p.input_size, p.hidden_size, p.num_layers)}


def _covariate_attrs(args, kwargs, result) -> dict:
    return {"windows": 0 if result is None else result.channels.size}


def _panel_attrs(args, kwargs, result) -> dict:
    return {"rows": result.values.size}


def _model_label(args, kwargs, result) -> dict:
    """The sweep's model name, derived the way ``cellcast sweep`` names models."""
    forecaster = args[0]
    kind = type(forecaster).__name__
    if kind == "TrainedModelForecaster":
        return {"model": "lma_deepar" if forecaster.model.lma_config is not None else "deepar"}
    return {"model": {"SeasonalNaiveForecaster": "seasonal_naive", "HoltWintersForecaster": "holt_winters"}[kind]}


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # may be dotted, e.g. a method on a class
    name: str  # span or counter name
    counter: bool = False
    annotate: Callable | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    # the names ``cellcast generate`` and ``cellcast sweep`` look up in cellcast.cli
    Hook("cellcast.cli", "generate_panel", "synth.generate_panel"),
    Hook("cellcast.cli", "write_panel", "panel.write_panel"),
    Hook("cellcast.cli", "load_panel", "panel.load_panel", annotate=_panel_attrs),
    Hook("cellcast.cli", "assemble_covariates", "lma.assemble_covariates", annotate=_covariate_attrs),
    Hook("cellcast.cli", "train", "deepar.training.train"),
    Hook("cellcast.cli", "sweep", "evalharness.sweep"),
    Hook("cellcast.cli", "write_report_csvs", "evalharness.write_report_csvs"),
    Hook("cellcast.cli", "write_provenance", "evalharness.write_provenance"),
    Hook("cellcast.cli", "write_svg_plots", "evalharness.write_svg_plots"),
    # the package-level names forecast_deep's set-up calls
    Hook("cellcast", "generate_panel", "synth.generate_panel"),
    Hook("cellcast", "save_model", "deepar.store.save_model"),
    Hook("cellcast", "load_model", "deepar.store.load_model"),
    # the names cellcast's inner layers look up
    Hook("cellcast.deepar.training", "batch_loss_and_grad", "deepar.grad.batch_loss_and_grad", annotate=_batch_attrs),
    Hook("cellcast.evalharness", "TrainedModelForecaster.forecast_panel", "evalharness.forecast_panel", annotate=_model_label),
    Hook("cellcast.evalharness", "SeasonalNaiveForecaster.forecast_panel", "evalharness.forecast_panel", annotate=_model_label),
    Hook("cellcast.evalharness", "HoltWintersForecaster.forecast_panel", "evalharness.forecast_panel", annotate=_model_label),
    Hook("cellcast.evalharness", "assemble_covariates", "lma.assemble_covariates", annotate=_covariate_attrs),
    Hook("cellcast.evalharness", "sample_forecast", "deepar.forecasting.sample_forecast", annotate=_sample_attrs),
    Hook("cellcast.evalharness", "seasonal_naive", "baselines.seasonal_naive"),
    Hook("cellcast.evalharness", "holt_winters", "baselines.holt_winters"),
    Hook("cellcast.deepar.forecasting", "forward_window", "deepar.network.forward_window"),
    Hook("cellcast.deepar.network", "lstm_cell", "deepar.network.lstm_cell", counter=True),
)


def _resolve(hook: Hook):
    """(owner object, attribute name, current value), or None when gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, leaf, None)
    return None if fn is None else (owner, leaf, fn)


def missing_hooks() -> list[str]:
    """Hook targets that the program no longer defines."""
    return sorted({h.target for h in HOOKS if _resolve(h) is None})


@contextmanager
def hooks_installed(tracer: Tracer):
    """Install every resolvable hook for the duration of the block."""
    installed = []
    try:
        for hook in HOOKS:
            found = _resolve(hook)
            if found is None:
                continue
            owner, leaf, fn = found
            if hook.counter:
                wrapped = tracer.wrap_counter(hook.name, fn)
            else:
                wrapped = tracer.wrap_span(hook.name, fn, hook.annotate)
            setattr(owner, leaf, wrapped)
            installed.append((owner, leaf, fn))
        yield
    finally:
        for owner, leaf, fn in reversed(installed):
            setattr(owner, leaf, fn)


# --- per-layer metrics ----------------------------------------------------

ALL = ("sweep_desk", "forecast_deep")
DESK = ("sweep_desk",)


class OpView:
    """The spans and counters of one traced operation."""

    def __init__(self, tracer: Tracer, op: str) -> None:
        self.spans: dict[str, list[Span]] = {}
        for sp in tracer.spans:
            if sp.op == op:
                self.spans.setdefault(sp.name, []).append(sp)
        self.counters = {name: d for (name, o), d in tracer.counters.items() if o == op}

    def has(self, name: str) -> bool:
        return bool(self.spans.get(name) or self.counters.get(name))

    def of(self, name: str) -> list[Span]:
        return self.spans.get(name, [])

    def total(self, name: str) -> float:
        return sum(sp.duration for sp in self.of(name))

    def self_total(self, name: str) -> float:
        return sum(sp.self_s for sp in self.of(name))

    def attr_sum(self, name: str, attr: str) -> float:
        """Sum of one span attribute; KeyError when a span lacks it."""
        return sum(sp.attrs[attr] for sp in self.of(name))

    def calls(self, name: str) -> array:
        return self.counters.get(name, array("d"))


def _pct(values, q: float) -> float:
    """Percentile by linear interpolation; 0 when the layer did no work."""
    values = sorted(values)
    if not values:
        return 0.0
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


@dataclass(frozen=True)
class Metric:
    """One per-layer metric.

    ``reads`` names every span or counter the value is computed from, and
    ``on`` the workloads whose operation produces all of them.  On those
    workloads a read name with no record makes the metric absent: its hook
    is gone or no longer called, and the value would silently read 0 or
    (for self times) take up the lost time.  On the other workloads the
    layer does no work and the metric reads 0.
    """

    unit: str
    reads: tuple[str, ...]
    on: tuple[str, ...]
    value: Callable[[OpView], float]


_TRAIN = "deepar.training.train"
_GRAD = "deepar.grad.batch_loss_and_grad"
_SAMPLE = "deepar.forecasting.sample_forecast"
_ENC = "deepar.network.forward_window"
_CELL = "deepar.network.lstm_cell"
_COV = "lma.assemble_covariates"
_FORECAST = "evalharness.forecast_panel"
_SWEEP = "evalharness.sweep"
_WRITES = ("evalharness.write_report_csvs", "evalharness.write_provenance")
_SVG = "evalharness.write_svg_plots"
_LOAD = "panel.load_panel"
# what ``cellcast sweep --plots`` runs inside run_command
_CLI_STAGES = (_LOAD, _COV, _TRAIN, _SWEEP, *_WRITES, _SVG)
_MODEL_ON = {
    "lma_deepar": ALL,
    "deepar": DESK,
    "seasonal_naive": DESK,
    "holt_winters": DESK,
}


def _forecast_s(model: str) -> Callable[[OpView], float]:
    return lambda v: sum(sp.duration for sp in v.of(_FORECAST) if sp.attrs["model"] == model)


OP_METRICS: dict[str, Metric] = {
    "deepar.training.train_s": Metric("s", (_TRAIN,), DESK, lambda v: v.total(_TRAIN)),
    "deepar.training.windows": Metric("count", (_GRAD,), DESK, lambda v: v.attr_sum(_GRAD, "windows")),
    "deepar.training.windows_per_s": Metric(
        "1/s", (_TRAIN, _GRAD), DESK, lambda v: _rate(v.attr_sum(_GRAD, "windows"), v.total(_TRAIN))
    ),
    # train minus its batch_loss_and_grad calls: window assembly, params rebuild, Adam
    "deepar.training.self_s": Metric("s", (_TRAIN, _GRAD), DESK, lambda v: v.self_total(_TRAIN)),
    "deepar.grad.batch_ms_p50": Metric(
        "ms", (_GRAD,), DESK, lambda v: 1e3 * _pct([s.duration for s in v.of(_GRAD)], 0.5)
    ),
    "deepar.grad.batch_ms_p90": Metric(
        "ms", (_GRAD,), DESK, lambda v: 1e3 * _pct([s.duration for s in v.of(_GRAD)], 0.9)
    ),
    "deepar.grad.batches": Metric("count", (_GRAD,), DESK, lambda v: len(v.of(_GRAD))),
    "deepar.grad.gflops_per_s": Metric(
        "GFLOP/s", (_GRAD,), DESK, lambda v: _rate(v.attr_sum(_GRAD, "flops"), v.total(_GRAD)) / 1e9
    ),
    "deepar.forecasting.sample_forecast_ms_p50": Metric(
        "ms", (_SAMPLE,), ALL, lambda v: 1e3 * _pct([s.duration for s in v.of(_SAMPLE)], 0.5)
    ),
    "deepar.forecasting.sample_forecast_ms_p90": Metric(
        "ms", (_SAMPLE,), ALL, lambda v: 1e3 * _pct([s.duration for s in v.of(_SAMPLE)], 0.9)
    ),
    "deepar.forecasting.traj_steps": Metric("count", (_SAMPLE,), ALL, lambda v: v.attr_sum(_SAMPLE, "traj_steps")),
    # sample_forecast minus the encoder span and the decoder's lstm_cell calls
    "deepar.forecasting.self_ms_p50": Metric(
        "ms", (_SAMPLE, _ENC, _CELL), ALL, lambda v: 1e3 * _pct([s.self_s for s in v.of(_SAMPLE)], 0.5)
    ),
    "deepar.forecasting.gflops_per_s": Metric(
        "GFLOP/s", (_SAMPLE,), ALL, lambda v: _rate(v.attr_sum(_SAMPLE, "flops"), v.total(_SAMPLE)) / 1e9
    ),
    "deepar.network.forward_window_ms_p50": Metric(
        "ms", (_ENC,), ALL, lambda v: 1e3 * _pct([s.duration for s in v.of(_ENC)], 0.5)
    ),
    "deepar.network.lstm_cell_us_p50": Metric("us", (_CELL,), ALL, lambda v: 1e6 * _pct(v.calls(_CELL), 0.5)),
    "deepar.network.lstm_cell_calls": Metric("count", (_CELL,), ALL, lambda v: len(v.calls(_CELL))),
    "lma.assemble_covariates_s": Metric("s", (_COV,), ALL, lambda v: v.total(_COV)),
    "lma.windows": Metric("count", (_COV,), ALL, lambda v: v.attr_sum(_COV, "windows")),
    "panel.load_panel_s": Metric("s", (_LOAD,), DESK, lambda v: v.total(_LOAD)),
    "panel.rows": Metric("count", (_LOAD,), DESK, lambda v: v.attr_sum(_LOAD, "rows")),
    "baselines.holt_winters_s": Metric(
        "s", ("baselines.holt_winters",), DESK, lambda v: v.total("baselines.holt_winters")
    ),
    "baselines.seasonal_naive_s": Metric(
        "s", ("baselines.seasonal_naive",), DESK, lambda v: v.total("baselines.seasonal_naive")
    ),
    **{
        f"evalharness.forecast_s.{model}": Metric("s", (_FORECAST,), on, _forecast_s(model))
        for model, on in _MODEL_ON.items()
    },
    # sweep minus its forecaster calls: splitting, scoring, stability
    "evalharness.score_s": Metric("s", (_SWEEP, _FORECAST), DESK, lambda v: v.self_total(_SWEEP)),
    "evalharness.write_s": Metric(
        "s", _WRITES, DESK, lambda v: sum(v.total(name) for name in (*_WRITES, _SVG))
    ),
    # run_command minus the stages above; the benchmark opens the run_command span
    "cli.self_s": Metric(
        "s", ("cli.run_command", *_CLI_STAGES), DESK, lambda v: v.self_total("cli.run_command")
    ),
}

# Measured over the set-up repeats rather than the operations: sweep_desk's
# set-up is ``cellcast generate``, forecast_deep's generates a panel, trains
# and round-trips the model through the store.
_DEEP = ("forecast_deep",)
SETUP_METRICS: dict[str, Metric] = {
    "panel.write_panel_s": Metric(
        "s", ("panel.write_panel",), DESK, lambda v: v.total("panel.write_panel")
    ),
    "synth.generate_panel_s": Metric(
        "s", ("synth.generate_panel",), ALL, lambda v: v.total("synth.generate_panel")
    ),
    "deepar.store.save_model_ms": Metric(
        "ms", ("deepar.store.save_model",), _DEEP, lambda v: 1e3 * v.total("deepar.store.save_model")
    ),
    "deepar.store.load_model_ms": Metric(
        "ms", ("deepar.store.load_model",), _DEEP, lambda v: 1e3 * v.total("deepar.store.load_model")
    ),
}

COUNT_METRICS = tuple(name for name, m in OP_METRICS.items() if m.unit == "count")


def _measure(metrics: dict[str, Metric], view: OpView, workload: str) -> dict[str, float]:
    out = {}
    for name, m in metrics.items():
        if workload in m.on and not all(view.has(read) for read in m.reads):
            continue
        try:
            out[name] = float(m.value(view))
        except KeyError:
            continue  # a span lacked the attribute its annotation should have set
    return out


def op_metrics(tracer: Tracer, op: str, workload: str) -> dict[str, float]:
    """Every per-layer metric of one traced operation that could be measured."""
    return _measure(OP_METRICS, OpView(tracer, op), workload)


def setup_metrics(tracer: Tracer, setup_ops: list[str], workload: str) -> dict[str, float]:
    """Median over the set-up repeats; a metric absent from any repeat is absent."""
    per_op = [_measure(SETUP_METRICS, OpView(tracer, op), workload) for op in setup_ops]
    return {
        name: statistics.median(m[name] for m in per_op)
        for name in SETUP_METRICS
        if per_op and all(name in m for m in per_op)
    }
