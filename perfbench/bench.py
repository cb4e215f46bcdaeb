"""The pipeline benchmark: generate -> representatives -> train -> eval.

One run takes one workload and one seed and runs passes of the whole
pipeline until the measuring time is spent. Each pass is a fresh
single-threaded process (see ``pipeline.py``), as each ``qpland`` command
is: the allocator state that a long-lived process builds up changes stage
times by up to a factor of two, and users do not have it. Every pass starts
from the same seeds, so every pass must reproduce the first pass's results
exactly. Timings are medians over passes.

A traced run alternates untraced and traced passes; the per-layer numbers
come from the traced ones, and the difference between the two kinds is the
tracing overhead.
"""

import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = Path(__file__).resolve().with_name("run.py")

# One thread for BLAS and OpenMP, set before a pass imports NumPy: the
# pipeline is single-threaded by design, and on a 2-core machine a second
# BLAS thread competes with everything else that runs there.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

STAGES = ("generate", "representatives", "train", "eval")
# every workload trains width-50 tanh nets on batches of 5000 pairs
WIDTH = 50
BATCH = 5000
PASS_TIMEOUT_S = 150

# per-layer statistics of one traced function, in the tracer's order
TRACE_FIELDS = (("calls", "count"), ("rows", "count"), ("total_s", "s"), ("self_s", "s"))
TRAIN = "training.train"


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    params: dict
    n_trajectories: int
    dt: float
    horizon: float
    stride: int
    radius: float
    steps: int
    # rRMSE on a uniform grid of this many points per axis over the system's
    # domain; None scores the test-split states instead
    grid_resolution: Optional[int]


WORKLOADS = {
    w.name: w for w in (
        Workload("bistable3d", "bistable3d", {}, n_trajectories=1000, dt=1e-2, horizon=5.0,
                 stride=10, radius=0.1, steps=20, grid_resolution=101),
        Workload("gl50", "ginzburg_landau", {"I": 51}, n_trajectories=300, dt=1e-3,
                 horizon=1.0, stride=10, radius=0.5, steps=20, grid_resolution=None),
        Workload("bistable3d_many", "bistable3d", {}, n_trajectories=4000, dt=1e-2,
                 horizon=2.0, stride=10, radius=0.1, steps=20, grid_resolution=41),
    )
}


def run_child(wl, seed, workdir, trace, checks):
    """One pass in a fresh process; returns its report, or raises
    RuntimeError with the end of its error output."""
    spec = {"workload": asdict(wl), "seed": seed, "workdir": str(workdir), "trace": trace,
            "checks": checks}
    proc = subprocess.run([sys.executable, str(RUN_PY), "--pass", json.dumps(spec)],
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT,
                          env={**os.environ, **THREAD_ENV})
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}: "
                           + " | ".join(proc.stderr.strip().splitlines()[-3:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(wl, seed, seconds, trace):
    """Run one workload. Returns (result, provenance); ``result`` is the
    benchmark's final JSON object."""
    plain, traced, failures = [], [], []
    attempted = 0
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            start = time.perf_counter()
            # at least one pass of each kind, then until the time is spent
            while (not plain or (trace and not traced)
                   or time.perf_counter() - start < seconds):
                as_traced = trace and len(traced) < len(plain)
                report = run_child(wl, seed, tmp, as_traced, checks=not plain)
                (traced if as_traced else plain).append(report)
                attempted += report["attempted"]
                failures += report["failures"]
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        attempted += 1
        failures.append(f"{type(err).__name__}: {err}")
    finally:
        with contextlib.suppress(OSError):
            work.rmdir()  # only when no other run is using it
    for report in plain[1:] + traced:
        attempted += 1
        if report["quality"]["val_loss"] != plain[0]["quality"]["val_loss"]:
            failures.append("a pass did not reproduce the first pass's val_loss")

    metrics = {}
    if not failures:
        metrics = layer_metrics(plain, traced) if trace else end_to_end_metrics(wl, plain)
    info = {
        "workload": wl.name,
        "seed": seed,
        **(plain[0]["environment"] if plain else {}),
        "passes": len(plain),
        "traced_passes": len(traced),
        "val_loss_by_pass": [r["quality"]["val_loss"] for r in plain],
        "traced_val_loss_by_pass": [r["quality"]["val_loss"] for r in traced],
        "setup_s": [r["setup_s"] for r in plain],
        "stage_s": {s: [r["times"][s] for r in plain] for s in STAGES},
        "cpu_setup_s": [r["cpu_setup_s"] for r in plain],
        "cpu_stage_s": {s: [r["cpu_times"][s] for r in plain] for s in STAGES},
        "failures": failures,
    }
    result = {"correct": not failures, "attempted": max(attempted, 1),
              "failed": len(failures), "metrics": metrics}
    return result, info


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _pipeline_s(report):
    return sum(report["times"].values())


def end_to_end_metrics(wl, plain):
    med = statistics.median
    stage = {s: med(r["times"][s] for r in plain) for s in STAGES}
    quality = plain[0]["quality"]
    return {
        "setup_s": _metric(med(r["setup_s"] for r in plain), "s"),
        "generate_s": _metric(stage["generate"], "s"),
        "representatives_s": _metric(stage["representatives"], "s"),
        "train_steps_per_s": _metric(wl.steps / stage["train"], "1/s"),
        "eval_s": _metric(stage["eval"], "s"),
        "pipeline_s": _metric(med(_pipeline_s(r) for r in plain), "s"),
        "peak_rss_mb": _metric(med(r["peak_rss_mb"] for r in plain), "MB"),
        "val_loss": _metric(quality["val_loss"], "loss"),
        "rollout_err": _metric(quality["rollout_err"], "ratio"),
        "rrmse": _metric(quality["rrmse"], "ratio"),
    }


def layer_metrics(plain, traced):
    """Per-pass means of the traced statistics, plus the tracing overhead."""
    totals = {}
    for report in traced:
        for name, st in report["trace"]["stats"].items():
            totals[name] = [a + b for a, b in zip(totals.get(name, [0] * len(st)), st)]
    out = {}
    for name, st in totals.items():
        for (key, unit), value in zip(TRACE_FIELDS, st):
            out[f"{name}.{key}"] = _metric(value / len(traced), unit)
    kernel_s = sum(r["trace"]["kernel_s"] for r in traced)
    untraced_s = statistics.median(_pipeline_s(r) for r in plain)
    traced_s = statistics.median(_pipeline_s(r) for r in traced)
    out["trace.train_kernel_share"] = _metric(kernel_s / totals[TRAIN][2], "ratio")
    out["trace.untraced_pipeline_s"] = _metric(untraced_s, "s")
    out["trace.traced_pipeline_s"] = _metric(traced_s, "s")
    out["trace.overhead_s"] = _metric(traced_s - untraced_s, "s")
    return out
