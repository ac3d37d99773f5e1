"""Run the full CLI pipeline into one directory and print each file's sha256.

Usage: python3 scripts/artifact_digests.py OUT

The recipe is generate -> covariates -> train -> forecast -> evaluate ->
sweep --plots on the default config, cut down to train.epochs=1,
train.windows_per_series=4 and sweep.n_samples=4, plus five more trainings
(--no-lma, train.day_of_week=true, both together, and one and three layers
through train.num_layers) that write their own model files, and a forecast
from each of the one- and three-layer and the weekday-only models into its
own samples and point files, so the sampler is checked at every depth and
on the calendar channel alone.  It prints one ``sha256  name`` line per
file written, 39 in all (each model file and forecast table has its
provenance sidecar), sorted by name.  Two
checkouts that print the same lines wrote the same bytes, so a refactor
that must keep every artifact can be checked by running this script from
each checkout with one OUT path and comparing the output.

OPENBLAS_NUM_THREADS is pinned to 1 before NumPy is imported: a BLAS
product may round differently on another thread count, and the bytes are
only comparable at one setting.  The package is imported from this
checkout's src/ directory.
"""

import contextlib
import hashlib
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cellcast.cli import run_command  # noqa: E402

RECIPE = (
    ("generate",),
    ("covariates",),
    ("train",),
    ("forecast",),
    ("evaluate",),
    ("sweep", "--plots"),
    ("train", "--no-lma", "--set", "paths.model=model_nolma.bin"),
    ("train", "--set", "train.day_of_week=true", "--set", "paths.model=model_dow.bin"),
    (
        "train", "--no-lma",
        "--set", "train.day_of_week=true",
        "--set", "paths.model=model_dowonly.bin",
    ),
    ("train", "--set", "train.num_layers=1", "--set", "paths.model=model_1layer.bin"),
    ("train", "--set", "train.num_layers=3", "--set", "paths.model=model_3layer.bin"),
    *(
        (
            "forecast",
            "--set", f"paths.model=model_{variant}.bin",
            "--set", f"paths.forecast_samples=forecast_samples_{variant}.csv",
            "--set", f"paths.forecast_point=forecast_point_{variant}.csv",
        )
        for variant in ("1layer", "3layer", "dowonly")
    ),
)

SETTINGS = ("train.epochs=1", "train.windows_per_series=4", "sweep.n_samples=4")


def run(out_dir: str) -> list[tuple[str, str]]:
    """Run the recipe into out_dir; return (sha256, name) of every file there."""
    os.makedirs(out_dir, exist_ok=True)
    common = [arg for setting in (*SETTINGS, f"paths.out_dir={out_dir}") for arg in ("--set", setting)]
    for command, *extra in RECIPE:
        code = run_command([command, *common, *extra])
        if code != 0:
            raise SystemExit(f"cellcast {command} exited with {code}")
    digests = []
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests.append((hashlib.sha256(fh.read()).hexdigest(), name))
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: artifact_digests.py OUT", file=sys.stderr)
        return 2
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        digests = run(argv[0])
    for digest, name in digests:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
