"""cellcast benchmark: closed-loop workloads driven through cellcast's public API.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_desk --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

One run sets the workload up several times, at least ``SETUP_MIN_REPEATS``
and until the set-ups add up to ``setup_min_s`` (the median is ``setup_s``), then
runs operations back to back until the next one would end past
``--seconds``, with at least ``min_ops`` operations.  Every operation's
output is checked; an operation that raises or fails a check counts in
``failed``.  Inputs come from ``--seed`` alone.  ``wall_s`` is the mean time
of the run's untraced operations, and the throughputs follow from it; the
median operation is printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pairs of
one untraced and one traced operation for ``--seconds`` (at least one pair),
in the order UT TU UT TU ... so that a slow drift of the host cancels, and
reports the per-layer metrics of the traced ones (see tracing.py) plus
``trace_overhead_ratio``: the median over pairs of traced over untraced
operation time, minus one.  Traced runs also trace the set-ups.  The spans
are written to ``.bench_work/``.

``--smoke`` runs every workload at toy size, untraced and traced on two
seeds, and asserts that every metric named in BENCHMARK.json is emitted with
its unit and that every count repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment, each metric with its unit and sample count, computed
operation counts and each model's mean pooled RMSLE (information only).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_MIN_REPEATS = 3  # also lets set-up check that it is deterministic


def pin_environment() -> None:
    """One BLAS thread, so the numbers measure the program rather than the
    scheduler on a two-core machine.  Must run before NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("CELLCAST_THREADS", None)


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CELLCAST_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Set up, run the closed loop, check, and return the result and report."""
    from workloads import WORKLOADS

    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[name](seed, sizes, workdir)
    tracer = tracing.Tracer()
    clock = time.perf_counter

    setup_s: list[float] = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < sizes.setup_min_s:
        tracer.op, tracer.enabled = f"setup-{len(setup_s)}", trace
        t0 = clock()
        with tracing.hooks_installed(tracer) if trace else contextlib.nullcontext():
            wl.setup(tracer)
        setup_s.append(clock() - t0)
    tracer.enabled = False

    ops: list[dict] = []  # one per operation: seconds, traced, ok
    t_start = clock()
    while True:
        k = len(ops)
        # pairs alternate U T, T U, U T, ...
        traced = trace and (k % 2 == 1) != (k // 2 % 2 == 1)
        tracer.op, tracer.enabled = f"op-{k}", traced
        wl.prepare()
        t0 = t1 = clock()
        try:
            with tracing.hooks_installed(tracer) if traced else contextlib.nullcontext():
                output = wl.op(tracer)
            t1 = clock()
            wl.check(output)
            ok = True
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            ok = False
            traceback.print_exc(file=sys.stderr)
        dt = (t1 if t1 > t0 else clock()) - t0
        tracer.enabled = False
        if k == 0:
            # peak over set-up and one operation, so it does not depend on
            # how many operations fitted in the run
            rss = peak_rss_mib()
        ops.append({"seconds": dt, "traced": traced, "ok": ok})
        elapsed = clock() - t_start
        if trace:
            if k % 2 == 1 and elapsed + 2 * dt > seconds:  # ends on a whole pair
                break
        elif k + 1 >= wl.min_ops and elapsed + dt > seconds:
            break
    try:
        wl.final_check()
    except Exception:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        ops[0]["ok"] = False

    untraced = [o["seconds"] for o in ops if not o["traced"]]
    # The host's speed moves in phases of ten seconds and more, so the median
    # operation jumps with the share of the run spent in a slow phase; the
    # run's measured time over its operations varies less between runs.
    wall = sum(untraced) / len(untraced)
    e2e = {
        "wall_s": (wall, "s", len(untraced)),
        "traj_steps_per_s": (wl.traj_steps_per_op / wall, "steps/s", len(untraced)),
        "series_per_s": (wl.series_per_op / wall, "series/s", len(untraced)),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": (rss, "MiB", 1),
    }
    layers: dict[str, tuple[float, str, int]] = {}
    absent: list[str] = []
    ratios: list[float] = []
    if trace:
        layers, absent, ratios = layer_report(tracer, ops, setup_s, name)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(
            os.path.join(WORK, f"trace-{name}-seed{seed}.jsonl"),
            {"workload": name, "seed": seed, "ops": ops, "setup_s": setup_s},
        )
    shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not o["ok"] for o in ops)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "ops": ops,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "absent": absent,
        "overhead_per_pair": ratios,
        "info": wl.info(),
        "shapes": wl.shapes(),
    }


def layer_report(tracer, ops: list[dict], setup_s: list[float], workload: str):
    """Per-layer metrics: the median over traced operations of each one's value."""
    per_op = []
    first_counts = None
    for k, o in enumerate(ops):
        if not o["traced"] or not o["ok"]:
            continue
        m = tracing.op_metrics(tracer, f"op-{k}", workload)
        counts = {n: m[n] for n in tracing.COUNT_METRICS if n in m}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            print(f"error: op-{k} counts {counts} differ from {first_counts}", file=sys.stderr)
            o["ok"] = False
            continue
        per_op.append(m)
    out: dict[str, tuple[float, str, int]] = {}
    for name in tracing.OP_METRICS:
        values = [m[name] for m in per_op if name in m]
        if values:
            out[name] = (statistics.median(values), tracing.OP_METRICS[name].unit, len(values))
    setup_ops = [f"setup-{k}" for k in range(len(setup_s))]
    for name, value in tracing.setup_metrics(tracer, setup_ops, workload).items():
        out[name] = (value, tracing.SETUP_METRICS[name].unit, len(setup_ops))
    ratios = []
    for u, t in zip(ops[0::2], ops[1::2]):
        u, t = (t, u) if u["traced"] else (u, t)
        if u["ok"] and t["ok"]:
            ratios.append(t["seconds"] / u["seconds"] - 1.0)
    if ratios:
        out["trace_overhead_ratio"] = (statistics.median(ratios), "ratio", len(ratios))
    declared = [*tracing.OP_METRICS, *tracing.SETUP_METRICS, "trace_overhead_ratio"]
    return out, [n for n in declared if n not in out], ratios


def print_report(res: dict, env: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    print(f"perfbench workload={res['workload']} seed={res['seed']} trace={int(res['trace'])}")
    print("env " + json.dumps(env, sort_keys=True))
    for label, d, h, layers, b, t in res["shapes"]:
        print(
            f"computed {label} D={d} H={h} layers={layers} B={b} T={t}:"
            f" lstm_step_flops={tracing.lstm_step_flops(d, h, layers)}"
            f" train_batch_flops={tracing.train_batch_flops(d, h, layers, b, t)}"
        )
    shown = res["layers"] if res["trace"] else res["e2e"]
    if res["trace"]:
        for name, (value, unit, n) in res["e2e"].items():
            if name != "setup_s":  # the set-ups were traced
                print(f"untraced-ops {name:<32} {value:>14.6g} {unit:<8} n={n}")
        for target in tracing.missing_hooks():
            print(f"hook missing: {target}")
    for name, (value, unit, n) in shown.items():
        print(f"{name:<44} {value:>14.6g} {unit:<8} n={n}")
    for name in res["absent"]:
        print(f"{name:<44} {'absent':>14}")
    if res["overhead_per_pair"]:
        print("trace_overhead_ratio per pair " + " ".join(f"{r:.4f}" for r in res["overhead_per_pair"]))
    attempted = len(res["ops"])
    print("ops_s " + " ".join(f"{o['seconds']:.4f}{'t' if o['traced'] else ''}" for o in res["ops"]))
    untraced = [o["seconds"] for o in res["ops"] if not o["traced"]]
    print(f"op_s (not gated) median {statistics.median(untraced):.6g} max {max(untraced):.6g} n={len(untraced)}")
    print(f"{'failed_ratio':<44} {res['failed'] / attempted:>14.6g} {'ratio':<8} n={attempted}")
    if res["info"]:
        rmsle = ", ".join(f"{m} {v:.6f}" for m, v in res["info"].items())
        print(f"info mean pooled RMSLE (not gated): {rmsle}")
    return {
        "correct": res["failed"] == 0,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in shown.items()},
    }


def smoke() -> int:
    """Toy sizes, every workload, untraced and traced on two seeds."""
    from workloads import SMOKE, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    env = environment()
    problems = []
    for name in WORKLOADS:
        t0 = time.perf_counter()
        counts = []
        for trace, seed in ((False, 1), (True, 1), (True, 2)):
            res = run_workload(name, seed, 0.0, trace, SMOKE)
            out = print_report(res, env)
            print(json.dumps(out))
            want = layer_units if trace else e2e_units
            got = {n: v["unit"] for n, v in out["metrics"].items()}
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{name} trace={int(trace)}: metric names or units differ: {diff}")
            if not out["correct"]:
                problems.append(f"{name} trace={int(trace)} seed={seed}: {out['failed']} failed operations")
            if trace:
                counts.append({n: v for n, v in out["metrics"].items() if v["unit"] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between seeds: {counts}")
        print(f"smoke {name}: {time.perf_counter() - t0:.1f} s")
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep_desk", "forecast_deep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size run of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.isfile(os.path.join(SRC, "cellcast", "__init__.py")):
        print(f"error: cellcast sources not found under {SRC}", file=sys.stderr)
        return 2

    pin_environment()
    sys.path.insert(0, SRC)
    import cellcast

    if not os.path.abspath(cellcast.__file__).startswith(SRC + os.sep):
        print(f"error: imported cellcast from {cellcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    from workloads import FULL

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    out = print_report(res, environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
