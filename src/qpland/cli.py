"""Command-line pipeline: generate -> representatives -> train -> eval ->
landscape / mep / decompose.

Each command is a thin binding from one config file to one module
operation. Outputs are byte-deterministic for a fixed config and seed;
failures print one machine-readable JSON line to stderr and exit nonzero.
Set QP_LOG=info (or debug) for progress logs.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import datasets, evaluation, systems, training
from .config import load_config
from .decomposition import (AnalyticDecomposition, floored_cosine, init_model,
                            load_checkpoint, save_checkpoint)
from .errors import ConfigError, QplandError, TrainingDivergedError, check_finite
from .fileio import atomic_write

log = logging.getLogger("qpland.cli")

EXACT_FIXTURES = {"exact:bistable3d": "bistable3d", "exact:limitcycle2d": "limitcycle2d"}


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError([f"'--seed' must be a non-negative integer, got {args.seed}"])
        return args.fn(args) or 0
    except TrainingDivergedError as err:
        _emit_error(err, extra={"step": err.step})
        return 1
    except QplandError as err:
        _emit_error(err)
        return 1
    except OSError as err:
        # an input file that is missing or unreadable, or an output that
        # cannot be written; the detail names the path
        _emit_error(err, extra={"path": err.filename})
        return 1


def _emit_error(err, extra=None):
    payload = {"error": type(err).__name__, "detail": str(err)}
    if isinstance(err, ConfigError):
        payload["problems"] = err.problems
    if extra:
        payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


def _setup_logging():
    level = os.environ.get("QP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)


def _build_parser():
    parser = argparse.ArgumentParser(prog="qpland",
                                     description="Quasipotential landscapes from trajectory data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, config=True, model=False, data=False, seed=False):
        p = sub.add_parser(name, help=help_)
        if config:
            p.add_argument("--config", required=True, help="JSON run config")
        if model:
            p.add_argument("--model", required=True,
                           help="checkpoint path or fixture (exact:bistable3d)")
        if data:
            p.add_argument("--data", required=True, help="QPTD dataset file")
        p.add_argument("--out", required=True, help="output path")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the command's seed")
        p.set_defaults(fn=fn)
        return p

    add("generate", cmd_generate, "integrate trajectories into a QPTD dataset", seed=True)

    p = add("representatives", cmd_representatives, "greedy r-net over a dataset split",
            data=True, seed=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="train")

    p = add("train", cmd_train, "fit the decomposition to a dataset", data=True, seed=True)
    p.add_argument("--reps", required=True, help="train-split representatives (QPRS)")
    p.add_argument("--val-reps", default=None, help="val-split representatives (QPRS)")
    p.add_argument("--history", default=None, help="write training history CSV here")

    p = add("eval", cmd_eval, "metrics report for a trained model", model=True, data=True)
    p.add_argument("--reps", default=None, help="representatives for cosine statistics")

    p = add("landscape", cmd_landscape, "export landscape slices to CSV", model=True)
    p.add_argument("--slice", dest="slice_name", default=None, help="export only this named slice")

    p = add("mep", cmd_mep, "string-method minimum energy path")
    p.add_argument("--model", default=None, help="optionally profile a learned landscape along the path")

    p = add("decompose", cmd_decompose, "per-point drift, grad V, g and cosine", config=False,
            model=True)
    p.add_argument("--points", required=True, help="states file (CSV rows or QPRS)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _resolve_model(spec):
    if spec in EXACT_FIXTURES:
        return AnalyticDecomposition.from_system(systems.make_system(EXACT_FIXTURES[spec]))
    return load_checkpoint(spec)[0]


def cmd_generate(args):
    cfg = load_config(args.config)
    system = cfg.system()
    n, dt, horizon, stride = cfg.get("data.N", "data.dt", "data.T", "data.m")
    seed = args.seed if args.seed is not None else cfg.get("data.seed")
    dataset = datasets.generate(system, n, dt, horizon, stride, seed)
    datasets.split(dataset, cfg.get("data.split_seed"))
    datasets.save_dataset(dataset, args.out)
    log.info("wrote %s: %d pairs, %d trajectories", args.out, dataset.n_pairs,
             dataset.n_trajectories)


def cmd_representatives(args):
    cfg = load_config(args.config)
    radius = cfg.get("sampling.r")
    dataset = datasets.load_dataset(args.data)
    split = None if args.split == "all" else args.split
    states = dataset.states(split)
    base_seed = args.seed if args.seed is not None else cfg.get("sampling.seed")
    seed = base_seed + {"train": 0, "val": 1, "test": 2, None: 3}[split]
    reps = datasets.representative_sample(states, radius, seed)
    datasets.save_representatives(reps, args.out)
    log.info("wrote %s: %d representatives (r=%g) from %d states", args.out,
             reps.count, reps.radius, len(states))


def cmd_train(args):
    cfg = load_config(args.config)
    dataset = datasets.load_dataset(args.data)
    reps_train = datasets.load_representatives(args.reps)
    if args.val_reps:
        reps_val = datasets.load_representatives(args.val_reps)
    else:
        reps_val = datasets.representative_sample(dataset.states("val"), reps_train.radius,
                                                  cfg.get("sampling.seed") + 1)
    model = init_model(dataset.dim, *cfg.get("model.hidden_width", "model.rot_activation",
                                             "model.init_seed"))
    if args.seed is not None:
        cfg.train_config.seed = args.seed
    try:
        result = training.train(dataset, {"train": reps_train, "val": reps_val},
                                model, cfg.loss_config, cfg.train_config)
    except TrainingDivergedError as err:
        if err.snapshot is not None:
            save_checkpoint(args.out, err.snapshot, training_config_echo=cfg.raw)
            log.warning("training diverged at step %s; last good snapshot kept at %s",
                        err.step, args.out)
        if args.history and err.history:
            training.write_history_csv(err.history, args.history)
        raise
    save_checkpoint(args.out, result.model, training_config_echo=cfg.raw)
    if args.history:
        training.write_history_csv(result.history, args.history)
    last = result.history[-1]
    log.info("best step %d: val_loss %.4g val_rollout %.4g", result.best_step,
             result.best_val_loss, last["val_rollout"])


def cmd_eval(args):
    cfg = load_config(args.config)
    system = cfg.system()
    model = _resolve_model(args.model)
    if model.dim != system.dim:
        raise ConfigError([f"model dim {model.dim} != system dim {system.dim}"])
    dataset = datasets.load_dataset(args.data)
    grid_points, grid_echo = None, {}
    if system.exact_u is not None and cfg.get("eval.grid") is not None:
        box = np.asarray(cfg.get("eval.grid.box"), dtype=np.float64)
        grid_points, axes = evaluation.make_grid(box, cfg.get("eval.grid.resolution"))
        grid_echo = {"box": box.tolist(), "resolution": [len(a) for a in axes],
                     "points": len(grid_points)}
    reps = datasets.load_representatives(args.reps) if args.reps else None
    report = evaluation.build_report(
        model, dataset=dataset,
        exact_u=system.exact_u, grid_points=grid_points, grid_echo=grid_echo,
        representatives=reps,
        split=cfg.get("eval.rollout_split"), dt_eval=cfg.get("eval.rollout_dt"),
        notes={"system": system.name, "model": args.model})
    report.write(args.out)
    log.info("report: rollout %s rRMSE %s rMAE %s", report.rollout_mean, report.rrmse, report.rmae)


def cmd_landscape(args):
    cfg = load_config(args.config)
    model = _resolve_model(args.model)
    slices = cfg.slices()
    if not slices:
        raise ConfigError(["eval.slices is empty; nothing to export"])
    if args.slice_name is not None:
        slices = [s for s in slices if s.name == args.slice_name]
        if not slices:
            raise ConfigError([f"no slice named '{args.slice_name}' in config"])
    multi = len(slices) > 1
    for spec in slices:
        grid = evaluation.export_landscape(model, spec)
        path = _suffixed(args.out, spec.name) if multi else args.out
        evaluation.write_landscape_csv(grid, path)
        log.info("wrote %s", path)


def _suffixed(path, name):
    root, ext = os.path.splitext(path)
    return f"{root}.{name}{ext or '.csv'}"


def cmd_mep(args):
    cfg = load_config(args.config)
    system = cfg.system()
    if system.energy is None:
        raise ConfigError([f"system '{system.name}' has no energy; the mep command "
                           "needs a gradient system"])
    u_minus, u_plus = systems.gl_stable_states(
        system, *cfg.get("eval.mep.relax_dt", "eval.mep.relax_tol"))
    result = evaluation.string_mep(system.energy_gradient, u_minus, u_plus, *cfg.get(
        "eval.mep.n_images", "eval.mep.n_iters", "eval.mep.step", "eval.mep.tol"))
    path = result.images
    u_exact = 2.0 * system.energy(path)
    u_exact -= u_exact.min()
    profile_cols = {"U_exact": u_exact}
    if args.model:
        model = _resolve_model(args.model)
        if model.dim != system.dim:
            raise ConfigError([f"model dim {model.dim} != system dim {system.dim}"])
        profile_cols["U_theta"] = evaluation.landscape_values(model, path)
    s = evaluation.arc_length(path)
    alpha = s / s[-1] if s[-1] > 0 else s
    cols = ["alpha"] + [f"x{i}" for i in range(path.shape[1])] + list(profile_cols)
    evaluation.write_csv(args.out, cols,
                         ([alpha[k], *path[k], *(u[k] for u in profile_cols.values())]
                          for k in range(path.shape[0])))
    log.info("wrote %s: %d images, converged=%s after %d iterations", args.out, len(path),
             result.converged, result.iterations)


def _load_points(path):
    """States from a QPRS file, or from a CSV with one state per line after
    an optional header line. Rows must be equally long and finite."""
    if path.endswith(".qprs"):
        points = datasets.load_representatives(path).points
    else:
        points = _read_points_csv(path)
    check_finite(f"{path} points", points)
    return points


def _read_points_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            try:
                row = [float(p) for p in parts]
            except ValueError:
                if rows:
                    raise QplandError(f"{path}: line {lineno}: non-numeric row {line!r}") from None
                continue  # header line
            if rows and len(row) != len(rows[0]):
                raise QplandError(f"{path}: line {lineno} has {len(row)} values, "
                                  f"the rows before it {len(rows[0])}")
            rows.append(row)
    if not rows:
        raise QplandError(f"{path}: no numeric rows found")
    return np.asarray(rows, dtype=np.float64)


def cmd_decompose(args):
    model = _resolve_model(args.model)
    points = _load_points(args.points)
    if points.shape[1] != model.dim:
        raise ConfigError([f"points have dim {points.shape[1]}, model expects {model.dim}"])
    grad_v = model.potential_gradient(points)
    g = model.rotation(points)
    f = g - grad_v
    cos = floored_cosine(grad_v, g)[0]
    d = model.dim
    if args.format == "json":
        payload = [{"x": points[i].tolist(), "f": f[i].tolist(),
                    "grad_v": grad_v[i].tolist(), "g": g[i].tolist(),
                    "cosine": float(cos[i])} for i in range(len(points))]
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        cols = ([f"x{i}" for i in range(d)] + [f"f{i}" for i in range(d)]
                + [f"gradV{i}" for i in range(d)] + [f"g{i}" for i in range(d)] + ["cosine"])
        evaluation.write_csv(args.out, cols,
                             ([*points[i], *f[i], *grad_v[i], *g[i], cos[i]]
                              for i in range(len(points))))
    log.info("wrote %s for %d points", args.out, len(points))


if __name__ == "__main__":
    sys.exit(main())
