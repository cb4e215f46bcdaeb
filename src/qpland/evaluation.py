"""Validation metrics and exported artifacts: rollout errors against held-out
trajectories, relative errors against exact quasipotentials on uniform
grids, landscape slices, and the simplified string method for minimum
energy paths.

Grid evaluation is chunked; reductions stay in index order so results do
not depend on the chunking.
"""

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .decomposition import orthogonality_cosine
from .errors import DimensionMismatchError, QplandError, check_finite
from .fileio import atomic_write
from .integrators import rk2_step
from .nets import Workspace

# Rows per model call on a grid or a point set. Small on purpose: it sets
# the tape memory an evaluation holds. A tanh tape holds one array per
# hidden layer, rows x width x 2 layers x 8 B per net: 1.6 MB at 2048 rows
# of width 50, against 8 MB at 10k rows and 160 MB at 200k.
_CHUNK = 2048


def _chunked(points, fn):
    """``fn`` over ``points`` in chunks of ``_CHUNK`` rows, each chunk's result
    written into one output array."""
    points = np.asarray(points, dtype=np.float64)
    first = fn(points[:_CHUNK])
    out = np.empty((len(points), *first.shape[1:]), dtype=first.dtype)
    out[: len(first)] = first
    for i in range(_CHUNK, len(points), _CHUNK):
        out[i : i + _CHUNK] = fn(points[i : i + _CHUNK])
    return out


def potential_values(model, points):
    """V at ``points``. The chunks share one workspace, so a chunk after the
    first reuses the tape arrays of the one before instead of paging in new
    ones."""
    ws = Workspace()
    return _chunked(points, lambda x: model.potential(x, workspace=ws))


def landscape_values(model, points):
    """U = 2V - C at ``points``, C = min 2V = 2 min V over them (doubling is
    exact), so the minimum there is exactly zero."""
    u = potential_values(model, points)
    u *= 2.0
    u -= u.min()
    return u


def check_width(what, points, dim):
    """Raise DimensionMismatchError naming ``what`` unless its rows have
    ``dim`` entries."""
    width = np.shape(points)[-1]
    if width != dim:
        raise DimensionMismatchError(what, dim, width)


def check_nonempty(what, points):
    """Raise QplandError naming ``what`` if it has no rows."""
    if len(points) == 0:
        raise QplandError(f"{what}: the set has no points")


def write_csv(path, columns, rows):
    """A header line, then one line per row: ints as ``str``, every other
    value as ``repr(float(v))``, so each field parses back with ``float``."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v))
                              for v in row) + "\n")


# -- rollout error -------------------------------------------------------------

def rollout_reference(dataset, split, max_trajectories=None):
    """``(x0 (K, d), refs (M, K, d), stride)`` from the stored pair-left
    states of a split's first ``max_trajectories`` trajectories (all when
    None), or None when there are none. The stride is the metadata's
    ``m``, which a QPTD file loaded without its sidecar lacks."""
    trajs = dataset.trajectories(split)[:max_trajectories]
    if not trajs:
        return None
    if "m" not in dataset.metadata:
        raise QplandError("dataset metadata has no stride 'm', the steps between stored "
                          "states that rollouts compare at (is its .json sidecar missing?)")
    x0 = np.stack([lefts[0] for _, lefts, _ in trajs])
    refs = np.stack([lefts[1:] for _, lefts, _ in trajs], axis=1)
    return x0, refs, int(dataset.metadata["m"])


def rollout_errors_against_reference(model, x0, refs, dt, stride, dt_eval=None):
    """Relative L2 rollout error per trajectory.

    x0: (K, d) initial states; refs: (M, K, d) true states at the comparison
    times t_j = j*stride*dt, j = 1..M. The learned drift is integrated with
    Heun steps of dt_eval (default: dt). Diverged rollouts report inf; a
    reference that is zero at every comparison time is rejected.
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
    den = sum((ref * ref).sum(axis=1) for ref in refs)
    if not den.all():
        raise QplandError(f"rollout reference of trajectory {int(np.argmin(den))} has zero "
                          f"norm; its relative rollout error is undefined")
    num = np.zeros(x0.shape[0])
    x = x0.copy()
    with np.errstate(all="ignore"):
        for j in range(n_compare):
            for _ in range(sub):
                x = rk2_step(model.drift, x, dt_eval)
            diff = x - refs[j]
            num += (diff * diff).sum(axis=1)
    err = np.sqrt(num) / np.sqrt(den)
    return np.where(np.isfinite(err), err, np.inf)


# -- quasipotential errors ------------------------------------------------------

def make_grid(box, resolution):
    """Uniform inclusive mesh over an axis-aligned box: (points (L, d), axes)."""
    box = np.asarray(box, dtype=np.float64)
    resolution = [int(r) for r in np.atleast_1d(resolution)]
    if box.ndim != 2 or box.shape[1] != 2:
        raise QplandError(f"grid box must be d x 2 ([lo, hi] per axis), got shape {box.shape}")
    if len(resolution) == 1:
        resolution = resolution * len(box)
    if len(resolution) != len(box):
        raise QplandError(f"grid resolution {resolution} must give 1 or {len(box)} values, "
                          f"one per axis of the box")
    if any(r < 1 for r in resolution):
        raise QplandError(f"grid resolution must be positive, got {resolution}")
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, resolution)]
    points = np.empty((*resolution, len(axes)))
    for k, column in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        points[..., k] = column
    return points.reshape(-1, len(axes)), axes


def quasipotential_errors(model, exact_u, points):
    """(rRMSE, rMAE) between the learned and exact landscapes on a point set.

    Both landscapes have C pinned to their minimum over ``points``, so each
    reads 0 at its lowest point there; this makes the metrics invariant to
    the additive constants both are only defined up to. An exact landscape
    that is constant on ``points`` leaves nothing to compare against and is
    rejected before the model runs.

    Holds one landscape-sized array. The exact landscape is evaluated per
    ``_CHUNK`` rows three times: for its minimum and maximum, for the
    differences, which replace the learned landscape in place, and once the
    sums of those are taken, for its own sums in the same array. Each sum
    is over the whole array, the one a plain expression such as
    ``(diff * diff).sum()`` would take, since |d| |d| = d d exactly and
    u_exact is nonnegative once shifted."""
    points = np.asarray(points, dtype=np.float64)
    low, high = np.inf, -np.inf
    for _, u_exact in _exact_chunks(exact_u, points):
        low, high = np.minimum(low, u_exact.min()), np.maximum(high, u_exact.max())
    if high - low == 0.0:
        raise QplandError(f"the exact landscape has zero norm on the {len(points)} grid "
                          f"points (constant there); rRMSE and rMAE are undefined")
    u = landscape_values(model, points)
    for rows, u_exact in _exact_chunks(exact_u, points):
        u[rows] -= u_exact - low
    diff_abs = np.abs(u, out=u).sum()
    diff_sq = np.multiply(u, u, out=u).sum()
    for rows, u_exact in _exact_chunks(exact_u, points):
        u[rows] = u_exact
    u -= low
    exact_abs = u.sum()
    exact_sq = np.multiply(u, u, out=u).sum()
    return float(np.sqrt(diff_sq) / np.sqrt(exact_sq)), float(diff_abs / exact_abs)


def _exact_chunks(exact_u, points):
    """(rows, exact_u(points[rows])) for each chunk of ``_CHUNK`` rows."""
    for i in range(0, len(points), _CHUNK):
        rows = slice(i, i + _CHUNK)
        yield rows, exact_u(points[rows])


# -- landscape export ------------------------------------------------------------

@dataclass
class SliceSpec:
    """A 2-parameter family of states over which the landscape is exported."""

    name: str
    box: np.ndarray  # (2, 2)
    resolution: tuple
    to_state: Callable  # (n, 2) -> (n, d)
    axis_names: tuple


def planar_slice(dim, axes, fixed, box, resolution, name="slice"):
    """Axis-aligned plane: vary coordinates ``axes``, pin the rest per
    ``fixed``. The two axes and the fixed keys must name each coordinate
    0..dim-1 exactly once."""
    axes = tuple(int(a) for a in axes)
    fixed = {int(k): float(v) for k, v in fixed.items()}
    if len(axes) != 2 or sorted([*axes, *fixed]) != list(range(dim)):
        raise QplandError(f"planar slice '{name}' must sweep 2 axes and fix every other "
                          f"coordinate of 0..{dim - 1} once; got axes {list(axes)}, "
                          f"fixed {sorted(fixed)}")

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
                     axis_names=(f"x{axes[0]}", f"x{axes[1]}"))


@dataclass
class LandscapeGrid:
    ax1: np.ndarray
    ax2: np.ndarray
    values: np.ndarray  # (r1, r2), normalized to min 0
    axis_names: tuple


def export_landscape(model, slice_spec):
    """Evaluate U = 2V - C on the slice, with C pinned over this very grid
    (``landscape_values``), so the exported minimum is exactly zero."""
    ab, (ax1, ax2) = make_grid(slice_spec.box, slice_spec.resolution)
    values = landscape_values(model, slice_spec.to_state(ab)).reshape(len(ax1), len(ax2))
    return LandscapeGrid(ax1, ax2, values, slice_spec.axis_names)


def write_landscape_csv(grid, path):
    write_csv(path, (*grid.axis_names, "U"),
              ((a, b, grid.values[i, j]) for i, a in enumerate(grid.ax1)
               for j, b in enumerate(grid.ax2)))


# -- simplified string method ------------------------------------------------------

@dataclass
class StringResult:
    images: np.ndarray  # (n_images, d)
    iterations: int
    converged: bool


def string_mep(energy_gradient, a, b, n_images=50, n_iters=2000, step=1e-3,
               tol=1e-8):
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
    converged = False
    it = 0
    for it in range(1, n_iters + 1):
        prev = images.copy()
        images[1:-1] -= step * energy_gradient(images[1:-1])
        check_finite("string image", images, step=it)
        images = _equal_arclength(images)
        if np.abs(images - prev).max() < tol:
            converged = True
            break
    return StringResult(images=images, iterations=it, converged=converged)


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

    def write(self, path):
        """The fields as sorted JSON; ``rrmse`` and ``rmae`` appear as the
        keys ``rRMSE`` and ``rMAE``."""
        report = asdict(self)
        report["rRMSE"], report["rMAE"] = report.pop("rrmse"), report.pop("rmae")
        with atomic_write(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_report(model, dataset=None, exact_u=None, grid_points=None, grid_echo=None,
                 representatives=None, split="test", dt_eval=None, notes=None):
    """Rollout errors on a dataset split, rRMSE and rMAE against ``exact_u``
    on ``grid_points``, and cosine statistics at ``representatives``; each
    input given must match the model's dimension, and representatives must
    not be empty."""
    if dataset is not None:
        check_width("dataset", dataset.x, model.dim)
    if grid_points is not None:
        check_width("grid points", grid_points, model.dim)
    if representatives is not None:
        check_width("representatives", representatives.points, model.dim)
        check_nonempty("representatives", representatives.points)
    report = MetricsReport(grid=grid_echo or {}, notes=notes or {})
    if dataset is not None:
        ref = rollout_reference(dataset, split)
        errs = np.zeros(0)
        if ref is not None:
            x0, refs, stride = ref
            errs = rollout_errors_against_reference(model, x0, refs, dataset.dt, stride,
                                                    dt_eval)
        finite = errs[np.isfinite(errs)]
        report.rollout_count = len(errs)
        report.rollout_diverged = int(np.sum(~np.isfinite(errs)))
        if len(finite):
            report.rollout_mean = float(finite.mean())
            report.rollout_std = float(finite.std())
    if exact_u is not None and grid_points is not None:
        report.rrmse, report.rmae = quasipotential_errors(model, exact_u, grid_points)
    if representatives is not None:
        cos = _chunked(representatives.points, lambda x: orthogonality_cosine(model, x))
        np.abs(cos, out=cos)
        report.cos_mean_abs = float(cos.mean())
        report.cos_max_abs = float(cos.max())
    return report
