"""One pass of the qpland pipeline, run in a fresh process as a user runs it:
set-up, then generate -> representatives -> train -> eval through the public
API, each stage timed once, with its output checked untimed.

A stage, a check and one rollout trajectory are each one attempt; a check
that does not hold and a diverged rollout are each one failure. A stage
that raises ends the process with a traceback.
"""

import contextlib
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from qpland import datasets, evaluation, systems, training
from qpland.decomposition import AnalyticDecomposition, fit_center, init_model

import tracing
from bench import BATCH, STAGES, THREAD_ENV, WIDTH, Workload

GRADIENT_CHECK_ROWS = 64
GRADIENT_CHECK_EPS = 1e-5
GRADIENT_CHECK_RTOL = 1e-5


@dataclass(frozen=True)
class Seeds:
    data: int
    split: int
    reps: int
    init: int
    train: int
    check: int

    @classmethod
    def from_seed(cls, seed):
        return cls(*(int(s) for s in np.random.SeedSequence(seed).generate_state(6)))


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Stopwatch:
    """Wall and CPU (user + system) seconds of each timed stage."""

    def __init__(self):
        self.wall, self.cpu = {}, {}

    @contextlib.contextmanager
    def stage(self, name):
        wall, cpu = time.perf_counter(), time.process_time()
        yield
        self.wall[name] = time.perf_counter() - wall
        self.cpu[name] = time.process_time() - cpu


@dataclass
class Artifacts:
    """What the once-per-run checks need from a pass."""
    system: object
    dataset: object
    reps_train: object
    model: object
    exact_u: object
    points: np.ndarray


def build(wl, seeds):
    """The set-up a user pays before the pipeline: system build and model init."""
    system = systems.make_system(wl.system, wl.params)
    return system, init_model(system.dim, WIDTH, "tanh", seeds.init)


def exact_landscape(system):
    """(exact U, a model whose landscape is exactly U).

    Ginzburg-Landau is a gradient system, so V = E, g = 0 and U = 2E up to a
    constant that the rRMSE normalization removes."""
    if system.exact_u is not None:
        return system.exact_u, AnalyticDecomposition.from_system(system)
    return ((lambda u: 2.0 * system.energy(u)),
            AnalyticDecomposition(system.dim, system.energy, system.energy_gradient,
                                  np.zeros_like))


def run_pass(wl, seeds, system, model, workdir, tally, untraced=contextlib.nullcontext):
    """Time each stage once. Returns (Stopwatch, quality, Artifacts);
    ``untraced`` wraps the checks so that a tracer does not count them."""
    clock = Stopwatch()
    tally.attempted += len(STAGES)

    with clock.stage("generate"):
        data = datasets.generate(system, wl.n_trajectories, wl.dt, wl.horizon, wl.stride,
                                 seeds.data)
        datasets.split(data, seeds.split)
        path = workdir / "pairs.qptd"
        datasets.save_dataset(data, path)
        loaded = datasets.load_dataset(path)
    with untraced():
        tally.check("dataset save/load round trip", loaded.equals(data))
    del data

    with clock.stage("representatives"):
        reps_train = datasets.representative_sample(loaded.states("train"), wl.radius,
                                                    seeds.reps)
        reps_val = datasets.representative_sample(loaded.states("val"), wl.radius,
                                                  seeds.reps + 1)

    loss_cfg = training.LossConfig()
    train_cfg = training.TrainConfig(batch_size=BATCH, max_steps=wl.steps,
                                     eval_every=wl.steps, seed=seeds.train)
    with untraced():
        before = model.copy()
        fit_center(before, loaded.states("train"))
        x_val, y_val = loaded.pairs("val")
        pre_val_loss = training.total_loss(before, x_val, y_val, loaded.dt, reps_val.points,
                                           loss_cfg)
    with clock.stage("train"):
        result = training.train(loaded, {"train": reps_train, "val": reps_val}, model,
                                loss_cfg, train_cfg)
    tally.check("history values finite",
                all(np.isfinite(v) for rec in result.history for v in rec.values()))
    tally.check(f"val_loss {result.best_val_loss!r} below pre-training {pre_val_loss!r}",
                result.best_val_loss < pre_val_loss)

    exact_u, _ = exact_landscape(system)
    with clock.stage("eval"):
        if wl.grid_resolution is None:
            points = loaded.states("test")
        else:
            points, _ = evaluation.make_grid(system.domain, wl.grid_resolution)
        report = evaluation.build_report(result.model, dataset=loaded, exact_u=exact_u,
                                         grid_points=points, representatives=reps_train)
    tally.attempted += report.rollout_count
    tally.failures += ["rollout diverged"] * report.rollout_diverged
    quality = {"val_loss": result.best_val_loss, "rollout_err": report.rollout_mean,
               "rrmse": report.rrmse}
    return clock, quality, Artifacts(system, loaded, reps_train, result.model, exact_u, points)


def exact_model_check(art):
    """The exact decomposition scores rRMSE = rMAE = 0 on the eval points."""
    _, exact = exact_landscape(art.system)
    rrmse, rmae = evaluation.quasipotential_errors(exact, art.exact_u, art.points)
    return rrmse == 0.0 and rmae == 0.0


def gradient_check(art, seed):
    """Central finite difference of ``total_loss`` along one random unit
    direction against the analytic directional derivative, at the trained
    parameters on a small batch. Returns the relative error."""
    rng = np.random.default_rng(seed)
    model, data = art.model, art.dataset
    cfg = training.LossConfig()
    x, y = data.pairs("train")
    idx = rng.choice(len(x), size=min(GRADIENT_CHECK_ROWS, len(x)), replace=False)
    x, y = x[idx], y[idx]
    reps = art.reps_train.points[:GRADIENT_CHECK_ROWS]
    _, _, _, grads = training.total_loss_and_grad(model, x, y, data.dt, reps, cfg)
    d_pot = rng.standard_normal(grads.potential.shape)
    d_rot = rng.standard_normal(grads.rotational.shape)
    norm = np.sqrt(d_pot @ d_pot + d_rot @ d_rot)
    d_pot, d_rot = d_pot / norm, d_rot / norm
    analytic = grads.potential @ d_pot + grads.rotational @ d_rot

    def loss_at(s):
        m = model.copy()
        m.potential_net.params += s * d_pot
        m.rotational_net.params += s * d_rot
        return training.total_loss(m, x, y, data.dt, reps, cfg)

    eps = GRADIENT_CHECK_EPS
    numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
    return abs(numeric - analytic) / abs(analytic)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def child_main(spec, start):
    """Run one pass as described by ``spec`` (see ``bench.run_child``);
    ``start`` is the (wall, CPU) clock reading taken before the imports."""
    wl = Workload(**spec["workload"])
    seeds = Seeds.from_seed(spec["seed"])
    tally = Tally()
    tracer = tracing.Tracer() if spec["trace"] else None
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        system, model = build(wl, seeds)
        setup_s = time.perf_counter() - start[0]
        cpu_setup_s = time.process_time() - start[1]
        clock, quality, art = run_pass(
            wl, seeds, system, model, Path(spec["workdir"]), tally,
            tracer.paused if tracer else contextlib.nullcontext)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spec["checks"]:
        tally.check("exact decomposition scores rRMSE = rMAE = 0", exact_model_check(art))
        rel = gradient_check(art, seeds.check)
        tally.check(f"gradient check relative error {rel!r}", rel <= GRADIENT_CHECK_RTOL)
    out = {"setup_s": setup_s, "times": clock.wall, "cpu_setup_s": cpu_setup_s,
           "cpu_times": clock.cpu, "quality": quality, "peak_rss_mb": peak_rss_mb,
           "attempted": tally.attempted, "failures": tally.failures,
           "environment": environment()}
    if tracer:
        out["trace"] = {"stats": tracer.stats, "kernel_s": tracer.kernel_s}
    return out
