"""Validation metrics and exported artifacts: rollout errors against held-out
trajectories, relative errors against exact quasipotentials on uniform
grids, landscape slices, and the simplified string method for minimum
energy paths.

Grid evaluation is chunked (and optionally threaded); reductions stay in
index order so results do not depend on the chunking.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .decomposition import orthogonality_cosine
from .errors import NonFiniteError, QplandError
from .integrators import rk2_step

_CHUNK = 200_000


def _chunked(points, fn, threads=1):
    points = np.asarray(points, dtype=np.float64)
    blocks = [points[i : i + _CHUNK] for i in range(0, len(points), _CHUNK)]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.concatenate(list(pool.map(fn, blocks)))
    return np.concatenate([fn(b) for b in blocks])


def potential_values(model, points, threads=1):
    return _chunked(points, model.potential, threads)


# -- rollout error -------------------------------------------------------------

def rollout_errors_against_reference(model, x0, refs, dt, stride, dt_eval=None):
    """Relative L2 rollout error per trajectory.

    x0: (K, d) initial states; refs: (M, K, d) true states at the comparison
    times t_j = j*stride*dt, j = 1..M. The learned drift is integrated with
    Heun steps of dt_eval (default: dt). Diverged rollouts report inf.
    """
    dt_eval = dt if dt_eval is None else dt_eval
    sub = stride * dt / dt_eval
    if abs(sub - round(sub)) > 1e-9:
        raise QplandError(f"dt_eval {dt_eval} must divide the comparison interval {stride * dt}")
    sub = int(round(sub))
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    n_compare = refs.shape[0]
    if n_compare == 0:
        return np.zeros(x0.shape[0])
    num = np.zeros(x0.shape[0])
    den = np.zeros(x0.shape[0])
    x = x0.copy()
    with np.errstate(all="ignore"):
        for j in range(n_compare):
            for _ in range(sub):
                x = rk2_step(model.drift, x, dt_eval, check=False)
            diff = x - refs[j]
            num += (diff * diff).sum(axis=1)
            den += (refs[j] * refs[j]).sum(axis=1)
    err = np.sqrt(num) / np.sqrt(den)
    return np.where(np.isfinite(err), err, np.inf)


def split_rollout_errors(model, dataset, split="test", dt_eval=None, max_trajectories=None):
    """Rollout errors for every trajectory of a dataset split, using the
    stored pair-left states as the reference."""
    trajs = dataset.trajectories(split)
    if max_trajectories is not None:
        trajs = trajs[:max_trajectories]
    if not trajs:
        return np.zeros(0)
    x0 = np.stack([lefts[0] for _, lefts, _ in trajs])
    refs = np.stack([lefts[1:] for _, lefts, _ in trajs], axis=1)
    stride = int(dataset.metadata.get("m", 1))
    return rollout_errors_against_reference(model, x0, refs, dataset.dt, stride, dt_eval)


# -- quasipotential errors ------------------------------------------------------

def make_grid(box, resolution):
    """Uniform inclusive mesh over an axis-aligned box: (points (L, d), axes)."""
    box = np.asarray(box, dtype=np.float64)
    resolution = [int(r) for r in np.atleast_1d(resolution)]
    if len(resolution) == 1:
        resolution = resolution * len(box)
    if any(r < 1 for r in resolution):
        raise QplandError(f"grid resolution must be positive, got {resolution}")
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, resolution)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1), axes


def quasipotential_errors(model, exact_u, points, threads=1):
    """(rRMSE, rMAE) between the learned and exact landscapes on a point set.

    Both landscapes have C pinned to their minimum over ``points``, so each
    reads 0 at its lowest point there; this makes the metrics invariant to
    the additive constants both are only defined up to. An exact landscape
    that is constant on ``points`` leaves nothing to compare against and is
    rejected."""
    u_learned = 2.0 * potential_values(model, points, threads)
    u_learned -= u_learned.min()
    u_exact = _chunked(points, exact_u, threads)
    u_exact = u_exact - u_exact.min()
    if not u_exact.any():
        raise QplandError(f"the exact landscape has zero norm on the {len(u_exact)} grid "
                          f"points (constant there); rRMSE and rMAE are undefined")
    diff = u_learned - u_exact
    rrmse = float(np.sqrt((diff * diff).sum()) / np.sqrt((u_exact * u_exact).sum()))
    rmae = float(np.abs(diff).sum() / np.abs(u_exact).sum())
    return rrmse, rmae


# -- landscape export ------------------------------------------------------------

@dataclass
class SliceSpec:
    """A 2-parameter family of states over which the landscape is exported."""

    name: str
    box: np.ndarray  # (2, 2)
    resolution: tuple
    to_state: Callable  # (n, 2) -> (n, d)
    axis_names: tuple = ("x1", "x2")


def planar_slice(dim, axes, fixed, box, resolution, name="slice", axis_names=None):
    """Axis-aligned plane: vary coordinates ``axes``, pin the rest per ``fixed``."""
    axes = tuple(axes)
    fixed = {int(k): float(v) for k, v in fixed.items()}
    missing = set(range(dim)) - set(axes) - set(fixed)
    if len(axes) != 2 or missing:
        raise QplandError(f"planar slice must fix all non-swept coordinates; missing {sorted(missing)}")

    def to_state(ab):
        ab = np.atleast_2d(ab)
        out = np.empty((ab.shape[0], dim))
        for k, v in fixed.items():
            out[:, k] = v
        out[:, axes[0]] = ab[:, 0]
        out[:, axes[1]] = ab[:, 1]
        return out

    return SliceSpec(name=name, box=np.asarray(box, dtype=np.float64),
                     resolution=tuple(int(r) for r in resolution), to_state=to_state,
                     axis_names=tuple(axis_names) if axis_names else (f"x{axes[0]}", f"x{axes[1]}"))


@dataclass
class LandscapeGrid:
    name: str
    ax1: np.ndarray
    ax2: np.ndarray
    values: np.ndarray  # (r1, r2), normalized to min 0
    offset_c: float
    axis_names: tuple = ("x1", "x2")


def export_landscape(model, slice_spec, threads=1):
    """Evaluate U = 2V - C on the slice, with C = 2 min V over this very
    grid, so the exported minimum is exactly zero."""
    r1, r2 = slice_spec.resolution
    if r1 < 1 or r2 < 1:
        raise QplandError(f"slice resolution must be positive, got {slice_spec.resolution}")
    ab, (ax1, ax2) = make_grid(slice_spec.box, slice_spec.resolution)
    states = slice_spec.to_state(ab)
    v = potential_values(model, states, threads)
    offset = 2.0 * float(v.min())
    values = (2.0 * v - offset).reshape(r1, r2)
    return LandscapeGrid(slice_spec.name, ax1, ax2, values, offset, slice_spec.axis_names)


def write_landscape_csv(grid, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{grid.axis_names[0]},{grid.axis_names[1]},U\n")
        for i, a in enumerate(grid.ax1):
            for j, b in enumerate(grid.ax2):
                fh.write(f"{a!r},{b!r},{grid.values[i, j]!r}\n")


# -- simplified string method ------------------------------------------------------

@dataclass
class StringResult:
    images: np.ndarray  # (n_images, d)
    iterations: int
    converged: bool
    max_energy_history: Optional[np.ndarray] = None


def string_mep(energy_gradient, a, b, n_images=50, n_iters=2000, step=1e-3,
               tol=1e-8, energy=None):
    """Minimum energy path between two minima by the simplified string
    method: one explicit Euler descent step on the interior images, then
    reparameterization to equal arc length, repeated until the images stop
    moving."""
    if n_images < 3:
        raise QplandError(f"need at least 3 images, got {n_images}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    frac = np.linspace(0.0, 1.0, n_images)[:, None]
    images = (1.0 - frac) * a + frac * b
    hist = [] if energy is not None else None
    converged = False
    it = 0
    for it in range(1, n_iters + 1):
        prev = images.copy()
        images[1:-1] -= step * energy_gradient(images[1:-1])
        if not np.all(np.isfinite(images)):
            raise NonFiniteError("string image", step=it,
                                 index=int(np.argmax(~np.isfinite(images).all(axis=1))))
        images = _equal_arclength(images)
        if hist is not None:
            hist.append(float(np.max(energy(images))))
        if np.abs(images - prev).max() < tol:
            converged = True
            break
    return StringResult(images=images, iterations=it, converged=converged,
                        max_energy_history=None if hist is None else np.array(hist))


def arc_length(path):
    """Cumulative arc length at each state of a polyline ``(n, d)``; starts at 0."""
    seg = np.linalg.norm(np.diff(path, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _equal_arclength(images):
    s = arc_length(images)
    if s[-1] <= 0.0:
        return images  # degenerate (coincident endpoints): leave untouched
    target = np.linspace(0.0, s[-1], images.shape[0])
    out = np.empty_like(images)
    for k in range(images.shape[1]):
        out[:, k] = np.interp(target, s, images[:, k])
    return out


# -- metrics report -----------------------------------------------------------------

@dataclass
class MetricsReport:
    rollout_mean: Optional[float] = None
    rollout_std: Optional[float] = None
    rollout_count: int = 0
    rollout_diverged: int = 0
    rrmse: Optional[float] = None
    rmae: Optional[float] = None
    cos_mean_abs: Optional[float] = None
    cos_max_abs: Optional[float] = None
    grid: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "rollout_mean": self.rollout_mean,
            "rollout_std": self.rollout_std,
            "rollout_count": self.rollout_count,
            "rollout_diverged": self.rollout_diverged,
            "rRMSE": self.rrmse,
            "rMAE": self.rmae,
            "cos_mean_abs": self.cos_mean_abs,
            "cos_max_abs": self.cos_max_abs,
            "grid": self.grid,
            "notes": self.notes,
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_report(model, dataset=None, exact_u=None, grid_points=None, grid_echo=None,
                 representatives=None, split="test", dt_eval=None, threads=1, notes=None):
    report = MetricsReport(grid=grid_echo or {}, notes=notes or {})
    if dataset is not None:
        errs = split_rollout_errors(model, dataset, split=split, dt_eval=dt_eval)
        finite = errs[np.isfinite(errs)]
        report.rollout_count = len(errs)
        report.rollout_diverged = int(np.sum(~np.isfinite(errs)))
        if len(finite):
            report.rollout_mean = float(finite.mean())
            report.rollout_std = float(finite.std())
    if exact_u is not None and grid_points is not None:
        report.rrmse, report.rmae = quasipotential_errors(model, exact_u, grid_points, threads)
    if representatives is not None:
        cos = np.abs(orthogonality_cosine(model, representatives.points))
        report.cos_mean_abs = float(cos.mean())
        report.cos_max_abs = float(cos.max())
    return report
