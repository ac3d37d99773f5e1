"""Fuzz gate over the command line, on a fixed grid with fixed seeds.

Every config key but ``paths`` is set, one at a time, to each of a fixed list
of edge values on a small base config, and the pipeline runs through
``run_command`` in this process: generate, covariates, train, forecast,
evaluate and sweep, stopping at the first non-zero exit.  Every case must end
as the command line promises: no exception leaves ``run_command``, a non-zero
exit is 1 or 2 with exactly one stderr line starting ``error:``, and no
Python warning is emitted.  A sweep may report ``model X failed: ...`` lines
and still exit 0.

The integers in the list are small, so no case asks for a huge allocation;
the out-of-memory path has its own tests in ``test_cli.py``.
"""

import warnings

import pytest

from cellcast import _fork
from cellcast.cli import run_command
from cellcast.config import DEFAULT_CONFIG

EDGE_VALUES = (
    "0", "-1", "1", "2", "3", "7", "0.5", "-0.0", "NaN", "Infinity", "-Infinity", "1e308",
    "[]", "[0]", "[1,1]", "[2,1]", "[-1,5]", '""', '["mean","mean"]', '["std"]',
    '["deepar"]', '["lma_deepar"]', "[1,2,3]", "[212]", "[31,32]",
    '"2021-02-28"', '"0001-01-01"', '"9999-10-01"',
)

BASE = ("synth.n_series=3", "train.epochs=1", "train.windows_per_series=1", "sweep.n_samples=2")

COMMANDS = ("generate", "covariates", "train", "forecast", "evaluate", "sweep")

KEYS = [
    f"{section}.{key}"
    for section, values in DEFAULT_CONFIG.items()
    if section != "paths"
    for key in values
]


def run_case(out_dir, key, value, capsys):
    """Run the pipeline with ``key=value``; return the first broken promise, or None."""
    out_dir.mkdir()
    overrides = [f"{key}={value}", *BASE, f"paths.out_dir={out_dir}"]
    for command in COMMANDS:
        argv = [command] + [arg for spec in overrides for arg in ("--set", spec)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = run_command(argv)
            except (Exception, SystemExit) as exc:  # the gate reports anything that escapes
                return f"{command}: {type(exc).__name__} escaped: {exc}"
        lines = capsys.readouterr().err.splitlines()
        if caught:
            return f"{command}: warning {caught[0].category.__name__}: {caught[0].message}"
        if code == 0:
            stray = [line for line in lines if not (command == "sweep" and line.startswith("model "))]
            if stray:
                return f"{command}: exit 0 with stderr {stray}"
            continue
        if code not in (1, 2) or len(lines) != 1 or not lines[0].startswith("error:"):
            return f"{command}: exit {code} with stderr {lines}"
        return None
    return None


@pytest.mark.parametrize("key", KEYS)
def test_every_edge_value_ends_as_documented(key, tmp_path, monkeypatch, capsys):
    """Each edge value of one key ends in success or one ``error:`` line, with no warning."""
    # In one process every warning reaches catch_warnings; a forked child's
    # would be lost.  The results are the same either way.
    monkeypatch.setattr(_fork, "can_fork", lambda: False)
    broken = {}
    for i, value in enumerate(EDGE_VALUES):
        problem = run_case(tmp_path / str(i), key, value, capsys)
        if problem is not None:
            broken[value] = problem
    assert broken == {}
