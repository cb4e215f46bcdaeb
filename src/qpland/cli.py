"""Command-line pipeline: generate -> representatives -> train -> eval ->
landscape / mep / decompose.

Each command is a thin binding from one config file to one module
operation. Outputs are byte-deterministic for a fixed config and seed in
single-threaded mode; failures print one machine-readable JSON line to
stderr and exit nonzero. Set QP_LOG=info (or debug) for progress logs.
"""

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import datasets, evaluation, systems, training
from .config import load_config
from .decomposition import (AnalyticDecomposition, init_model, load_checkpoint,
                            safe_cosine, save_checkpoint)
from .errors import ConfigError, QplandError, TrainingDivergedError
from .evaluation import SliceSpec, planar_slice

log = logging.getLogger("qpland.cli")

EXACT_FIXTURES = {"exact:bistable3d": "bistable3d", "exact:limitcycle2d": "limitcycle2d"}


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args) or 0
    except TrainingDivergedError as err:
        _emit_error(err, extra={"step": err.step})
        return 1
    except QplandError as err:
        _emit_error(err)
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

    def add(name, fn, help_, model=False, data=False, out=True):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=name not in ("decompose",), help="JSON run config")
        if model:
            p.add_argument("--model", required=True,
                           help="checkpoint path or fixture (exact:bistable3d)")
        if data:
            p.add_argument("--data", required=True, help="QPTD dataset file")
        if out:
            p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=None, help="override the command's seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads (default 1, deterministic)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(fn=fn)
        return p

    add("generate", cmd_generate, "integrate trajectories into a QPTD dataset")

    p = add("representatives", cmd_representatives, "greedy r-net over a dataset split", data=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="train")

    p = add("train", cmd_train, "fit the decomposition to a dataset", data=True)
    p.add_argument("--reps", required=True, help="train-split representatives (QPRS)")
    p.add_argument("--val-reps", default=None, help="val-split representatives (QPRS)")
    p.add_argument("--history", default=None, help="write training history CSV here")

    p = add("eval", cmd_eval, "metrics report for a trained model", model=True, data=True)
    p.add_argument("--reps", default=None, help="representatives for cosine statistics")

    p = add("landscape", cmd_landscape, "export landscape slices to CSV", model=True)
    p.add_argument("--slice", dest="slice_name", default=None, help="export only this named slice")

    p = add("mep", cmd_mep, "string-method minimum energy path")
    p.add_argument("--model", default=None, help="optionally profile a learned landscape along the path")

    p = add("decompose", cmd_decompose, "per-point drift, grad V, g and cosine", model=True)
    p.add_argument("--points", required=True, help="states file (CSV rows or QPRS)")
    return parser


def _resolve_model(spec):
    if spec in EXACT_FIXTURES:
        return AnalyticDecomposition.from_system(systems.make_system(EXACT_FIXTURES[spec]))
    return load_checkpoint(spec)[0]


def cmd_generate(args):
    cfg = load_config(args.config)
    system = cfg.make_system()
    data = cfg.data
    for key in ("N", "dt", "T", "m"):
        if key not in data:
            raise ConfigError([f"data.{key} is required for generate"])
    seed = args.seed if args.seed is not None else cfg.data_seed()
    dataset = datasets.generate(system, data["N"], data["dt"], data["T"], data["m"], seed)
    datasets.split(dataset, cfg.split_seed())
    datasets.save_dataset(dataset, args.out)
    log.info("wrote %s: %d pairs, %d trajectories", args.out, dataset.n_pairs,
             dataset.n_trajectories)


def cmd_representatives(args):
    cfg = load_config(args.config)
    if "r" not in cfg.sampling:
        raise ConfigError(["sampling.r is required for representatives"])
    dataset = datasets.load_dataset(args.data)
    split = None if args.split == "all" else args.split
    states = dataset.states(split)
    base_seed = args.seed if args.seed is not None else int(cfg.sampling.get("seed", 0))
    seed = base_seed + {"train": 0, "val": 1, "test": 2, None: 3}[split]
    reps = datasets.representative_sample(states, float(cfg.sampling["r"]), seed)
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
        seed = int(cfg.sampling.get("seed", 0)) + 1
        reps_val = datasets.representative_sample(dataset.states("val"),
                                                  reps_train.radius, seed)
    model = init_model(dataset.dim, int(cfg.model.get("hidden_width", 50)),
                       cfg.model.get("rot_activation", "tanh"),
                       int(cfg.model.get("init_seed", 0)))
    train_cfg = cfg.train_config()
    if args.seed is not None:
        train_cfg.seed = args.seed
    try:
        result = training.train(dataset, {"train": reps_train, "val": reps_val},
                                model, cfg.loss_config(), train_cfg)
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
    system = cfg.make_system()
    model = _resolve_model(args.model)
    if model.dim != system.dim:
        raise ConfigError([f"model dim {model.dim} != system dim {system.dim}"])
    dataset = datasets.load_dataset(args.data)
    eval_cfg = cfg.eval
    grid_points, grid_echo = None, {}
    if system.exact_u is not None and eval_cfg.get("grid") is not None:
        gcfg = eval_cfg["grid"]
        box = np.asarray(gcfg.get("box", cfg.domain(system)), dtype=np.float64)
        resolution = gcfg.get("resolution", [101] * system.dim)
        grid_points, _ = evaluation.make_grid(box, resolution)
        grid_echo = {"box": box.tolist(), "resolution": list(np.atleast_1d(resolution).tolist()),
                     "points": int(len(grid_points))}
    reps = datasets.load_representatives(args.reps) if args.reps else None
    report = evaluation.build_report(
        model, dataset=dataset,
        exact_u=system.exact_u, grid_points=grid_points, grid_echo=grid_echo,
        representatives=reps,
        split=eval_cfg.get("rollout_split", "test"),
        dt_eval=eval_cfg.get("rollout_dt"),
        threads=args.threads,
        notes={"system": system.name, "model": args.model})
    report.write(args.out)
    log.info("report: rollout %s rRMSE %s rMAE %s", report.rollout_mean, report.rrmse, report.rmae)


def _build_slices(cfg, system):
    out = []
    for i, sl in enumerate(cfg.eval.get("slices", [])):
        name = sl.get("name", f"slice{i}")
        box = np.asarray(sl["box"], dtype=np.float64)
        resolution = tuple(sl.get("resolution", (101, 101)))
        if "embedding" in sl:
            makers = {"brusselator_mean": systems.brusselator_mean_embedding,
                      "brusselator_mode1": systems.brusselator_mode1_embedding}
            if sl["embedding"] not in makers:
                raise ConfigError([f"unknown embedding '{sl['embedding']}'"])
            to_state = makers[sl["embedding"]](system)
            out.append(SliceSpec(name=name, box=box, resolution=resolution,
                                 to_state=to_state, axis_names=("a1", "a2")))
        else:
            out.append(planar_slice(system.dim, sl["axes"], sl.get("fixed", {}),
                                    box, resolution, name=name))
    return out


def cmd_landscape(args):
    cfg = load_config(args.config)
    system = cfg.make_system()
    model = _resolve_model(args.model)
    slices = _build_slices(cfg, system)
    if not slices:
        raise ConfigError(["eval.slices is empty; nothing to export"])
    if args.slice_name is not None:
        slices = [s for s in slices if s.name == args.slice_name]
        if not slices:
            raise ConfigError([f"no slice named '{args.slice_name}' in config"])
    multi = len(slices) > 1
    for spec in slices:
        grid = evaluation.export_landscape(model, spec, threads=args.threads)
        path = _suffixed(args.out, spec.name) if multi else args.out
        evaluation.write_landscape_csv(grid, path)
        log.info("wrote %s (offset C=%r)", path, grid.offset_c)


def _suffixed(path, name):
    root, ext = os.path.splitext(path)
    return f"{root}.{name}{ext or '.csv'}"


def cmd_mep(args):
    cfg = load_config(args.config)
    system = cfg.make_system()
    if system.energy is None:
        raise ConfigError([f"system '{system.name}' has no energy; the mep command "
                           "needs a gradient system"])
    mep_cfg = cfg.eval.get("mep", {})
    u_minus, u_plus = systems.gl_stable_states(
        system, dt=float(mep_cfg.get("relax_dt", 5e-4)),
        tol=float(mep_cfg.get("relax_tol", 1e-8)))
    result = evaluation.string_mep(
        system.energy_gradient, u_minus, u_plus,
        n_images=int(mep_cfg.get("n_images", 50)),
        n_iters=int(mep_cfg.get("n_iters", 2000)),
        step=float(mep_cfg.get("step", 1e-3)),
        tol=float(mep_cfg.get("tol", 1e-8)),
        energy=system.energy)
    path = result.images
    u_exact = 2.0 * system.energy(path)
    u_exact -= u_exact.min()
    profile_cols = {"U_exact": u_exact}
    if args.model:
        model = _resolve_model(args.model)
        if model.dim != system.dim:
            raise ConfigError([f"model dim {model.dim} != system dim {system.dim}"])
        u_learned = 2.0 * model.potential(path)
        profile_cols["U_theta"] = u_learned - u_learned.min()
    s = evaluation.arc_length(path)
    alpha = s / s[-1] if s[-1] > 0 else s
    with open(args.out, "w", encoding="utf-8") as fh:
        cols = ["alpha"] + [f"x{i}" for i in range(path.shape[1])] + list(profile_cols)
        fh.write(",".join(cols) + "\n")
        for k in range(path.shape[0]):
            row = [repr(float(alpha[k]))]
            row += [repr(float(v)) for v in path[k]]
            row += [repr(float(profile_cols[c][k])) for c in profile_cols]
            fh.write(",".join(row) + "\n")
    log.info("wrote %s: %d images, converged=%s", args.out, len(path), result.converged)


def _load_points(path):
    if path.endswith(".qprs"):
        return datasets.load_representatives(path).points
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if rows:
                    raise QplandError(f"{path}: non-numeric row {line!r}") from None
                continue  # header line
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
    cos = safe_cosine(grad_v, g)
    d = model.dim
    if args.format == "json":
        payload = [{"x": points[i].tolist(), "f": f[i].tolist(),
                    "grad_v": grad_v[i].tolist(), "g": g[i].tolist(),
                    "cosine": float(cos[i])} for i in range(len(points))]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            cols = ([f"x{i}" for i in range(d)] + [f"f{i}" for i in range(d)]
                    + [f"gradV{i}" for i in range(d)] + [f"g{i}" for i in range(d)] + ["cosine"])
            fh.write(",".join(cols) + "\n")
            for i in range(len(points)):
                vals = [*points[i], *f[i], *grad_v[i], *g[i], cos[i]]
                fh.write(",".join(repr(float(v)) for v in vals) + "\n")
    log.info("wrote %s for %d points", args.out, len(points))


if __name__ == "__main__":
    sys.exit(main())
