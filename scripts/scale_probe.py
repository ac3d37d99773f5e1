"""Time each stage of the pipeline on wide synthetic panels and report peak memory.

Usage: python3 scripts/scale_probe.py N [N ...]

For each series count N, in a fresh interpreter of its own, the script
runs the stages of a sweep on an N-series panel with the default config
(split 182-212) and prints one line after each stage:

    series=N stage=NAME wall_s=SECONDS maxrss_mib=SELF children_maxrss_mib=CHILDREN

The stages are: generate the panel; write it as CSV and load it back; build
the LMA channels of its training range; train the LMA network for one epoch
at train.windows_per_series=1; forecast the first 200 series (all of them
when N is smaller) with 100 samples each; and run Holt-Winters over every
series.  wall_s is the stage's own time.  maxrss_mib is the interpreter's
peak resident size so far (``ru_maxrss``) and children_maxrss_mib the
largest of its reaped children, the forked forecast halves among them.
One interpreter per count keeps each count's peaks its own.

OPENBLAS_NUM_THREADS is pinned to 1 before NumPy is imported, and the
package is imported from this checkout's src/ directory.  Files go to a
temporary directory that is removed afterwards.
"""

import os
import resource
import subprocess
import sys
import tempfile
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

FORECAST_SERIES = 200
N_SAMPLES = 100


def _peak_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def probe(n_series: int, work_dir: str):
    """Run the stages on an n_series panel; yield (stage, wall seconds) after each."""
    from cellcast import (
        HoltWintersForecaster,
        SeriesPanel,
        TrainedModelForecaster,
        assemble_covariates,
        generate_panel,
        load_panel,
        split_panel,
        train,
        write_panel,
    )
    from cellcast.config import RunConfig

    cfg = RunConfig.load(
        overrides=(f"synth.n_series={n_series}", "train.epochs=1", "train.windows_per_series=1")
    )
    split, train_cfg, lma_cfg = cfg.section("split"), cfg.section("train"), cfg.section("lma")
    path = os.path.join(work_dir, "panel.csv")
    clock = time.perf_counter

    t0 = clock()
    panel = generate_panel(cfg.section("synth"))
    yield "generate", clock() - t0
    t0 = clock()
    write_panel(panel, path)
    yield "write", clock() - t0
    t0 = clock()
    panel = load_panel(path)
    yield "load", clock() - t0
    t0 = clock()
    train_panel, _ = split_panel(panel, split)
    cov = assemble_covariates(train_panel, lma_cfg, train_cfg.horizon, day_of_week=train_cfg.day_of_week)
    yield "covariates", clock() - t0
    t0 = clock()
    model = train(train_panel, cov, train_cfg, lma_cfg)
    yield "train", clock() - t0
    t0 = clock()
    head = SeriesPanel(
        train_panel.series_ids[:FORECAST_SERIES], train_panel.start_date, train_panel.values[:FORECAST_SERIES]
    )
    TrainedModelForecaster(model, N_SAMPLES).forecast_panel(head, split.horizon, (cfg.section("sweep").seed,))
    yield "forecast", clock() - t0
    t0 = clock()
    HoltWintersForecaster(cfg.section("holt_winters")).forecast_panel(train_panel, split.horizon)
    yield "holt_winters", clock() - t0


def run_one(n_series: int) -> None:
    with tempfile.TemporaryDirectory() as work_dir:
        for stage, wall_s in probe(n_series, work_dir):
            print(
                f"series={n_series} stage={stage} wall_s={wall_s:.3f}"
                f" maxrss_mib={_peak_mib(resource.RUSAGE_SELF):.1f}"
                f" children_maxrss_mib={_peak_mib(resource.RUSAGE_CHILDREN):.1f}",
                flush=True,
            )


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--one":
        run_one(int(argv[1]))
        return 0
    if not argv or not all(arg.isdigit() and int(arg) > 0 for arg in argv):
        print("usage: python3 scripts/scale_probe.py N [N ...]  (positive series counts)", file=sys.stderr)
        return 2
    for arg in argv:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", arg])
        if done.returncode != 0:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
