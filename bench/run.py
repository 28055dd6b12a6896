#!/usr/bin/env python3
"""The oddlen benchmark: one command, three workloads, exact output checks.

    python3 bench/run.py --workload {sweep,closed,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the workload repeats whole passes for about S seconds
and reports the end-to-end metrics.  With ``--trace 1`` it alternates an
untraced pass with a traced one and reports per-layer metrics (see
``tracer.py``) and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report,
with the environment, every pass and the span edges, is written to
``bench/out/``.  The exit code is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Threading knobs pinned to one thread so a pass runs on a single core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))
print(time.perf_counter() - start)
"""

# Per-layer metrics in the JSON line of a traced run: the counts and ratios
# of every layer, and the times of the layers every workload reaches.  A
# layer a workload never calls would report a time of exactly 0 on every
# run; those times are in the human-readable lines and the report only.
PER_LAYER_TIMES = ("genfun.closed.s", "genfun.closed.self_s", "bench.self_s")


def in_json(name: str, unit: str) -> bool:
    return unit != "s" or name in PER_LAYER_TIMES


def pin_environment() -> dict[str, str | None]:
    """Clear ODDLEN_WORKERS and pin the BLAS pools to one thread; returns
    the values found before."""
    before = {k: os.environ.get(k) for k in ("ODDLEN_WORKERS", *THREAD_VARS)}
    os.environ.pop("ODDLEN_WORKERS", None)
    for key in THREAD_VARS:
        os.environ[key] = "1"
    return before


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment(before: dict[str, str | None]) -> dict:
    import numpy
    from oddlen import genfun

    return {
        "workers": genfun.resolve_workers(1),
        "workers_source": "explicit argument workers=1 (ODDLEN_WORKERS cleared)",
        "env_before": before,
        "threads": {k: os.environ[k] for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Import the package and make the inputs in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def repeat(step, seconds: float) -> None:
    """Call step once, then again while another call, taking the median time
    of those so far, would end within seconds of the start."""
    start = perf_counter()
    durations = []
    while True:
        began = perf_counter()
        step()
        durations.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(durations) > seconds:
            return


def untraced_run(wl, inputs, seconds: float, setup: list[float]):
    """End-to-end metrics of passes run for about seconds."""
    passes = []
    repeat(lambda: passes.append(wl.run_pass(inputs)), seconds)
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (statistics.median(p.items / p.wall_s for p in passes), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # The workload's own names for the same figures, for the report.
    extra = {"passes": (len(passes), "count")}
    rate = metrics["items_per_s"]
    if wl.name == "sweep":
        extra["elements_per_s"] = rate
    elif wl.name == "closed":
        lat = [x for p in passes for x in p.latencies_s]
        extra["sets_per_s"] = rate
        extra["set_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
        extra["set_p99_ms"] = (statistics.quantiles(lat, n=100, method="inclusive")[98] * 1e3, "ms")
        extra["set_samples"] = (len(lat), "count")
    else:
        extra["rows_per_s"] = rate
    return passes, metrics, extra, {"setup_s": setup}


def traced_run(wl, inputs, seconds: float):
    """Per-layer metrics of traced passes, each paired with an untraced one."""
    from tracer import Tracer

    untraced, traced, layer_runs, edges = [], [], [], []

    def traced_pass() -> None:
        tracer = Tracer()
        tracer.install()
        try:
            res = wl.run_pass(inputs)
        finally:
            tracer.restore()
        traced.append(res)
        layer_runs.append(tracer.metrics(res.wall_s))
        edges[:] = tracer.edge_table()

    def pair() -> None:
        # Alternate which side goes first so drift does not favour one.
        if len(traced) % 2:
            traced_pass()
            untraced.append(wl.run_pass(inputs))
        else:
            untraced.append(wl.run_pass(inputs))
            traced_pass()

    repeat(pair, seconds)
    layers = {}
    for name, (_, unit) in layer_runs[0].items():
        value = statistics.median(run[name][0] for run in layer_runs)
        layers[name] = (round(value) if unit == "count" else value, unit)
    walls = [statistics.median(p.wall_s for p in ps) for ps in (untraced, traced)]
    layers["trace_overhead"] = (walls[1] / walls[0] - 1, "ratio")
    layers["genfun.pool_speedup"] = (pool_speedup() if wl.name == "sweep" else 0.0, "ratio")
    per_layer = {name: value for name, value in layers.items() if in_json(name, value[1])}
    extra = {"untraced_wall_s": (walls[0], "s"), "traced_wall_s": (walls[1], "s"),
             "pairs": (len(traced), "count")}
    extra.update((k, v) for k, v in layers.items() if k not in per_layer)
    return untraced + traced, per_layer, extra, {"edges": edges}


def pool_speedup() -> float:
    """brute_table("A", 10) at one worker over its time at nproc workers."""
    from oddlen import genfun

    times = []
    for workers in (1, len(os.sched_getaffinity(0))):
        start = perf_counter()
        genfun.brute_table("A", 10, workers=workers)
        times.append(perf_counter() - start)
    return times[0] / times[1]


def main(argv=None) -> int:
    before = pin_environment()  # before numpy is imported
    if not (SRC / "oddlen" / "__init__.py").is_file():
        print(f"error: no oddlen package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        passes, metrics, extra, detail = traced_run(wl, wl.make_inputs(args.seed), args.seconds)
    else:
        setup = measure_setup(wl.name, args.seed)
        inputs = wl.make_inputs(args.seed)
        passes, metrics, extra, detail = untraced_run(wl, inputs, args.seconds, setup)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extra["mismatch_ratio"] = (failed / attempted, "ratio")
    env = environment(before)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}; items are {wl.unit}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for p in passes:
        for line in p.failures:
            print(f"MISMATCH {line}")

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env,
        "passes": [{"wall_s": p.wall_s, "items": p.items, "attempted": p.attempted,
                    "failed": p.failed, "failures": p.failures} for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        **detail,
    }
    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"{wl.name}-trace{args.trace}-seed{args.seed}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
