"""Checks on what lives next to the package: the benchmark's hooks and its
trajectory count, the README's examples, the modules that own the CSV
format and the use of a second CPU, the network's trust in its callers,
the one owner of the weights' layout, the records only their builders
make, the config sections' hand-written rules, and the byte-identity
script.

perfbench traces cellcast by wrapping module attributes by name, so a
renamed or bypassed function silently drops its metrics; the smoke run
reports that.  The README's code is the first thing a reader runs, so every
public name it uses must keep working.
"""

import ast
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_run_passes():
    """Every workload runs at toy size, untraced and traced, with every hook found."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[-1] == "smoke ok", proc.stderr[-2000:]
    assert [line for line in lines if line.startswith("hook missing:")] == []


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    """README's python blocks run in order, in one namespace."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.S | re.M)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert "lma_deepar" in capsys.readouterr().out


def test_benchmark_counts_every_trajectory_step(monkeypatch):
    """perfbench's sample_forecast hook reads the trajectory count off the
    result's samples.  On one call's Forecast, samples (series, n_samples,
    horizon), that is every step of every series' trajectories."""
    import numpy as np

    from cellcast import TrainConfig, TrainedModel, init_params, sample_forecast, substream

    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import tracing

    assert tracing.__file__ == os.path.join(ROOT, "perfbench", "tracing.py")
    cfg = TrainConfig(context_length=6, horizon=4, epochs=0, hidden_size=4, num_layers=1)
    model = TrainedModel(init_params(1, 4, 1, substream(0)), cfg, None, ())
    n_series, n_samples, horizon = 3, 9, 4
    cond = np.random.default_rng(0).uniform(10.0, 100.0, (n_series, 8))
    args = (model, cond)
    kwargs = {"n_samples": n_samples, "seeds": [0, 1, 2]}
    result = sample_forecast(*args, **kwargs)
    attrs = tracing._sample_attrs(args, kwargs, result)
    assert attrs["traj_steps"] == n_series * n_samples * horizon


def test_only_panel_imports_csv():
    """Every CSV table is written and read by panel.py's codec, so no other
    module restates the format."""
    package = os.path.join(ROOT, "src", "cellcast")
    offenders = []
    for folder, _, files in os.walk(package):
        for name in files:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or path == os.path.join(package, "panel.py"):
                continue
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m == "csv" or m.startswith("csv.") for m in modules):
                    offenders.append(os.path.relpath(path, ROOT))
    assert offenders == []


def test_only_fork_module_forks():
    """Using a second CPU is one policy, _fork.in_halves, so no other module
    names the fork helpers or os.fork."""
    package = os.path.join(ROOT, "src", "cellcast")
    offenders = []
    for folder, _, files in os.walk(package):
        for name in files:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or path == os.path.join(package, "_fork.py"):
                continue
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if {"fork_call", "can_fork", "fork"} & set(names):
                    offenders.append(f"{os.path.relpath(path, ROOT)}:{node.lineno}")
    assert offenders == []


def test_only_store_states_the_model_file_version():
    """The model file's version is the store's fact, so no other module
    assigns MODEL_FORMAT_VERSION."""
    package = os.path.join(ROOT, "src", "cellcast")
    owners = []
    for folder, _, files in os.walk(package):
        for name in files:
            path = os.path.join(folder, name)
            if not name.endswith(".py"):
                continue
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    if any(
                        isinstance(t, ast.Name) and t.id == "MODEL_FORMAT_VERSION"
                        for t in targets
                    ):
                        owners.append(os.path.relpath(path, ROOT))
    assert owners == [os.path.join("src", "cellcast", "deepar", "store.py")]


def test_network_trusts_its_callers():
    """Inputs are checked once, at the public boundary (train,
    sample_forecast, batch_loss_and_grad, the model store), so the network
    module raises only for faults its arithmetic alone shows: a series scale
    that overflows and non-finite likelihood parameters."""
    path = os.path.join(ROOT, "src", "cellcast", "deepar", "network.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    raisers = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            raisers += [func.name for node in ast.walk(func) if isinstance(node, ast.Raise)]
    assert sorted(raisers) == ["gaussian_nll", "series_scale"]


def test_only_stacked_weights_lays_out_the_weights():
    """How a product sees the weights (C-contiguous copies of the
    transposes, or the transposed views) is decided in one place,
    network.stacked_weights: no other code under src/cellcast takes .T or
    .transpose of an attribute named w0, wx or wh."""
    package = os.path.join(ROOT, "src", "cellcast")
    owners = []
    for folder, _, files in os.walk(package):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for top in tree.body:
                for node in ast.walk(top):
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr in ("T", "transpose")
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr in ("w0", "wx", "wh")
                    ):
                        owners.append((os.path.relpath(path, package), getattr(top, "name", None)))
    assert sorted(owners) == [(os.path.join("deepar", "network.py"), "stacked_weights")] * 3


def test_records_are_made_only_by_their_builders():
    """Forecast, CovariatePanel, EvalReport, NetworkParams and TrainedModel
    are plain records: none defines __post_init__, and under src/cellcast
    each is called only inside its builders, whose checks are the record's:
    sample_forecast, assemble_covariates and sweep; NetworkParams' own
    from_arrays (as cls) and the gradient, _backward_batch; train and the
    model store's load_model."""
    builders = {
        "Forecast": {(os.path.join("deepar", "forecasting.py"), "sample_forecast")},
        "CovariatePanel": {("lma.py", "assemble_covariates")},
        "EvalReport": {("evalharness.py", "sweep")},
        "NetworkParams": {
            (os.path.join("deepar", "params.py"), "NetworkParams"),
            (os.path.join("deepar", "grad.py"), "_backward_batch"),
        },
        "TrainedModel": {
            (os.path.join("deepar", "training.py"), "train"),
            (os.path.join("deepar", "store.py"), "load_model"),
        },
    }
    package = os.path.join(ROOT, "src", "cellcast")
    checked, calls = [], set()
    for folder, _, files in os.walk(package):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, package)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for top in tree.body:
                if isinstance(top, ast.ClassDef) and top.name in builders:
                    methods = [getattr(node, "name", None) for node in top.body]
                    checked += [top.name] if "__post_init__" in methods else []
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        called = getattr(node.func, "id", getattr(node.func, "attr", None))
                        if called == "cls" and isinstance(top, ast.ClassDef):
                            called = top.name
                        if called in builders:
                            calls.add((called, rel, getattr(top, "name", None)))
    assert checked == []
    assert calls == {(record, *where) for record, places in builders.items() for where in places}


def test_config_sections_keep_only_cross_field_rules():
    """Each config dataclass (a class whose __post_init__ calls
    check_field_types) declares its single-field rules on its fields, for
    _fields to check: its __post_init__ compares no value with a constant,
    and raises only under the conditions below, each tying two fields (or
    the two ends of an interval)."""
    cross_field = {
        "SynthConfig": ["(dt.date.max - self.start_date).days < self.n_total - 1", "lo > hi or math.isinf(hi - lo)"],
        "LmaConfig": ["self.window_len < self.horizon"],
        "TrainConfig": ["self.context_length < self.horizon"],
        "HoltWintersConfig": [],
        "SweepConfig": ["not is_increasing_counts(self.steps)"],
        "SplitSpec": ["self.pred_end < self.pred_start"],
    }
    package = os.path.join(ROOT, "src", "cellcast")
    found, constant_compares = {}, []
    for folder, _, files in os.walk(package):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
                post = [n for n in cls.body if getattr(n, "name", None) == "__post_init__"]
                calls = [n for p in post for n in ast.walk(p) if isinstance(n, ast.Call)]
                if not any(getattr(c.func, "id", None) == "check_field_types" for c in calls):
                    continue
                guarded = [
                    (ast.unparse(node.test), n)
                    for node in ast.walk(post[0])
                    if isinstance(node, ast.If)
                    for n in node.body
                    if isinstance(n, ast.Raise)
                ]
                raises = [n for n in ast.walk(post[0]) if isinstance(n, ast.Raise)]
                found[cls.name] = [test for test, _ in guarded] + ["unguarded raise"] * (
                    len(raises) - len(guarded)
                )
                constant_compares += [
                    (cls.name, ast.unparse(node))
                    for node in ast.walk(post[0])
                    if isinstance(node, ast.Compare)
                    and any(
                        isinstance(operand, ast.Constant)
                        or (isinstance(operand, ast.UnaryOp) and isinstance(operand.operand, ast.Constant))
                        for operand in [node.left, *node.comparators]
                    )
                ]
    assert constant_compares == []
    assert found == cross_field


def test_artifact_digests_script_names_every_artifact(tmp_path):
    """scripts/artifact_digests.py runs the whole pipeline and prints one
    sha256 line per artifact and sidecar, 39 in all, sorted by name."""
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "artifact_digests.py"), str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    artifacts = [
        "covariates.csv",
        "forecast_point.csv",
        "forecast_point_1layer.csv",
        "forecast_point_3layer.csv",
        "forecast_point_dowonly.csv",
        "forecast_samples.csv",
        "forecast_samples_1layer.csv",
        "forecast_samples_3layer.csv",
        "forecast_samples_dowonly.csv",
        "metrics.csv",
        "model.bin",
        "model_1layer.bin",
        "model_3layer.bin",
        "model_dow.bin",
        "model_dowonly.bin",
        "model_nolma.bin",
        "panel.csv",
    ]
    reports = ["pooled.csv", "pooled.svg", "provenance.json", "stability.csv", "stability.svg"]
    expected = sorted(
        artifacts
        + [f"{name}.provenance.json" for name in artifacts]
        + [f"report_{name}" for name in reports]
    )
    assert len(expected) == 39
    assert [line.split("  ")[1] for line in lines] == expected
    for line in lines:
        digest, name = line.split("  ")
        assert re.fullmatch("[0-9a-f]{64}", digest), line
        assert (out / name).is_file()


def test_scale_probe_prints_every_stage():
    """scripts/scale_probe.py N prints one line per stage, in order, with
    the stage's wall time and the peak resident sizes so far."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "scale_probe.py"), "20"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    stages = ["generate", "write", "load", "covariates", "train", "forecast", "holt_winters"]
    assert len(lines) == len(stages)
    for line, stage in zip(lines, stages):
        fields = dict(item.split("=") for item in line.split())
        assert list(fields) == ["series", "stage", "wall_s", "maxrss_mib", "children_maxrss_mib"], line
        assert (fields["series"], fields["stage"]) == ("20", stage)
        assert float(fields["wall_s"]) >= 0.0 and float(fields["maxrss_mib"]) > 0.0
        assert float(fields["children_maxrss_mib"]) >= 0.0
    bad = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "scale_probe.py"), "0"], capture_output=True, text=True
    )
    assert bad.returncode == 2 and bad.stdout == ""
