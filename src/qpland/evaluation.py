"""Validation metrics and exported artifacts: rollout errors against held-out
trajectories, relative errors against exact quasipotentials on uniform
grids, landscape slices, and the simplified string method for minimum
energy paths.

Grid evaluation is chunked; reductions stay in index order so results do
not depend on the chunking. A uniform grid is never held whole:
``make_grid`` returns a ``GridPoints``, which builds the rows of a chunk
from the axes when the chunk is read. The chunks of ``potential_values``
and of the report's cosines run on lanes, one per CPU the process may use
(see ``lanes``), each writing its own rows of the output, so their values
do not depend on the number of lanes either. Every value they give is
checked to be finite. Rollouts run on the calling thread.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import lanes
from .decomposition import orthogonality_cosine
from .errors import DimensionMismatchError, QplandError, check_finite
from .fileio import atomic_write
from .integrators import rk2_step
from .nets import Workspace

# Rows per model call on a grid or a point set. Small on purpose: it sets
# the memory an evaluation holds per lane, a chunk's points and its tape.
# A tanh tape holds one array per hidden layer, rows x width x 2 layers x
# 8 B per net: 1.6 MB at 2048 rows of width 50, against 8 MB at 10k rows
# and 160 MB at 200k; each lane of ``_row_values`` holds one. A chunk of a
# grid is built when it is read (``GridPoints``): 48 KB at 2048 rows, d = 3.
_CHUNK = 2048


def _chunk(points, rows):
    """The rows ``rows`` of an array, a point list or a ``GridPoints``, as a
    float64 array."""
    return np.asarray(points[rows], dtype=np.float64)


def _row_values(what, points, fn):
    """``fn(points[rows], ws)``, one finite value per row, over the chunks of
    ``_CHUNK`` rows, run on lanes, each writing its rows of one output. The
    chunks of a lane share its workspace ``ws``, so a chunk after the first
    reuses the tape arrays of the one before instead of paging in new ones.
    A NaN or an inf raises NonFiniteError naming ``what`` and the first row
    that holds one."""
    out = np.empty(len(points))
    starts = range(0, len(points), _CHUNK)

    def chunk(i, ws):
        rows = slice(starts[i], starts[i] + _CHUNK)
        out[rows] = fn(_chunk(points, rows), ws)
        check_finite(what, out[rows], start=starts[i])

    lanes.run_blocks(len(starts), chunk, None, Workspace())
    return out


def potential_values(model, points):
    """V at the rows of ``points``, chunk by chunk on lanes."""
    return _row_values("learned potential", points,
                       lambda x, ws: model.potential(x, workspace=ws))


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
    None), or None when there are none; they must be of one length. The
    stride is the metadata's ``m``, which a file without its sidecar lacks."""
    trajs = dataset.trajectories(split)[:max_trajectories]
    if not trajs:
        return None
    (tid0, lefts0, _), *rest = trajs
    for tid, lefts, _ in rest:
        if len(lefts) != len(lefts0):
            raise QplandError(f"dataset: trajectory {tid} of the {split} split holds {len(lefts)} "
                              f"pairs, trajectory {tid0} holds {len(lefts0)}; rollouts compare "
                              f"trajectories of one length")
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

    Each call owns one workspace, for the Heun stages and the drift that
    ``model.drift`` prepares in it once, and two state arrays that the
    steps write in turn, so no step allocates; ``x0`` is never written.
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
    ws = Workspace()
    field = partial(model.drift, workspace=ws)
    states = (np.empty_like(x0), np.empty_like(x0))
    diff = ws.take("diff", x0.shape)
    x = x0
    with np.errstate(all="ignore"):
        for j in range(n_compare):
            for _ in range(sub):
                # into whichever state array x is not
                x = rk2_step(field, x, dt_eval, out=states[x is states[0]], workspace=ws)
            np.subtract(x, refs[j], out=diff)
            num += np.multiply(diff, diff, out=diff).sum(axis=1)
    err = np.sqrt(num) / np.sqrt(den)
    return np.where(np.isfinite(err), err, np.inf)


# -- quasipotential errors ------------------------------------------------------

# Entries (rows x d) at most in the period of trailing axes that a grid
# keeps (see ``GridPoints``). Extended by a chunk's rows, the kept block
# holds at most _PATTERN + d * _CHUNK entries, 0.6 MB at d = 3.
_PATTERN = 1 << 16


class GridPoints:
    """The (L, d) points of a uniform grid, read a row range at a time.

    Row r is the point whose axis indices are ``np.unravel_index(r,
    resolution)``: the rows of the ``np.meshgrid(*axes, indexing="ij")``
    stack. ``points[a:b]`` builds the rows of a range as a fresh C-contiguous
    float64 array, every entry a copy of an axis value; ``np.asarray(points)``
    builds them all. Beside the axes, it holds nothing of O(L) rows.

    In the columns of trailing axes ``axes[f:]``, the rows repeat with a
    period of ``prod(len(axes[f:]))`` rows. The longest such period of at
    most ``_PATTERN`` entries is kept as a block of whole rows, repeated to
    ``_CHUNK`` rows more than one period, so the rows of a chunk start as
    one copy of a slice of it. Each axis before those holds each of its
    values for ``run`` rows in turn; its column is filled with three
    assignments at most: the part of the run the range starts in, the whole
    runs inside it (one broadcast), and the part of the run it ends in.
    """

    ndim = 2

    def __init__(self, axes):
        self.axes = [np.array(a, dtype=np.float64) for a in axes]
        for axis in self.axes:
            axis.flags.writeable = False
        d = len(self.axes)
        self.shape = (math.prod(len(a) for a in self.axes), d)
        fast, period = d, 1  # the trailing axes axes[fast:] repeat every ``period`` rows
        while fast and period * len(self.axes[fast - 1]) * d <= _PATTERN:
            fast -= 1
            period *= len(self.axes[fast])
        block = np.zeros((*(len(a) for a in self.axes[fast:]), d))
        for k, column in enumerate(np.meshgrid(*self.axes[fast:], indexing="ij", sparse=True),
                                   start=fast):
            block[..., k] = column
        self._period = period
        self._block = block.reshape(period, d)[np.arange(period + _CHUNK) % period]
        self._runs = []  # (axis, run) for each axis before axes[fast:]
        run = self.shape[0]
        for axis in self.axes[:fast]:
            run //= len(axis)
            self._runs.append((axis, run))

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, rows):
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError(f"grid points are read by row range, points[a:b]; got {rows!r}")
        start, stop, _ = rows.indices(len(self))
        stop = max(start, stop)
        out = np.empty((stop - start, self.shape[1]))
        at, offset = 0, start % self._period
        while at < len(out):
            take = min(len(self._block) - offset, len(out) - at)
            out[at : at + take] = self._block[offset : offset + take]
            at, offset = at + take, (offset + take) % self._period
        for column, (axis, run) in zip(out.T, self._runs):
            first, last = -(-start // run), stop // run  # the whole runs in range
            if first > last:  # the range lies inside one run
                column[:] = axis[start // run % len(axis)]
                continue
            head, body = first * run - start, (last - first) * run
            column[:head] = axis[(first - 1) % len(axis)]
            if body:
                column[head : head + body].reshape(-1, run)[:] = (
                    axis.take(np.arange(first, last), mode="wrap")[:, None])
            column[head + body :] = axis[last % len(axis)]
        return out

    def __array__(self, dtype=None, copy=None):
        whole = self[:]
        return whole if dtype is None else whole.astype(dtype, copy=False)


def make_grid(box, resolution):
    """Uniform inclusive mesh over an axis-aligned box: (points, axes), the
    points a ``GridPoints`` of shape (L, d) built from ``axes``. An axis
    whose values overflow float64 raises NonFiniteError naming it."""
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
    with np.errstate(all="ignore"):
        axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, resolution)]
    for k, axis in enumerate(axes):
        check_finite(f"grid axis {k}", axis,
                     cause=f"{box[k].tolist()} at {len(axis)} points overflows float64")
    points = GridPoints(axes)
    return points, points.axes


def quasipotential_errors(model, exact_u, points):
    """(rRMSE, rMAE) between the learned and exact landscapes on a point set:
    an array, or the ``GridPoints`` of ``make_grid``.

    Both landscapes have C pinned to their minimum over ``points``, so each
    reads 0 at its lowest point there; this makes the metrics invariant to
    the additive constants both are only defined up to. An exact landscape
    that is constant on ``points`` leaves nothing to compare against and is
    rejected before the model runs; a NaN or an inf in either landscape
    raises NonFiniteError naming its first row, and so does a sum over them
    that overflows.

    Holds one landscape-sized array, and per lane one chunk of points and
    its tape. The points are read per ``_CHUNK`` rows four times: once for
    the learned landscape, on lanes, and three times for the exact one:
    for its minimum and maximum, for the differences, which replace the
    learned landscape in place, and once the sums of those are taken, for
    its own sums in the same array. Each sum is over the whole array, the
    one a plain expression such as ``(diff * diff).sum()`` would take,
    since |d| |d| = d d exactly and u_exact is nonnegative once shifted."""
    low, high = np.inf, -np.inf
    for rows, u_exact in _exact_chunks(exact_u, points):
        check_finite("exact landscape", u_exact, start=rows.start)
        low, high = np.minimum(low, u_exact.min()), np.maximum(high, u_exact.max())
    if high - low == 0.0:
        raise QplandError(f"the exact landscape has zero norm on the {len(points)} grid "
                          f"points (constant there); rRMSE and rMAE are undefined")
    u = landscape_values(model, points)
    with np.errstate(over="ignore"):  # an overflowing sum is named below
        for rows, u_exact in _exact_chunks(exact_u, points):
            u[rows] -= u_exact - low
        diff_abs = np.abs(u, out=u).sum()
        diff_sq = np.multiply(u, u, out=u).sum()
        for rows, u_exact in _exact_chunks(exact_u, points):
            u[rows] = u_exact
        u -= low
        exact_abs = u.sum()
        exact_sq = np.multiply(u, u, out=u).sum()
    check_finite("rRMSE and rMAE", np.max([diff_abs, diff_sq, exact_abs, exact_sq]),
                 cause="a sum over the landscapes overflows float64")
    return float(np.sqrt(diff_sq) / np.sqrt(exact_sq)), float(diff_abs / exact_abs)


def _exact_chunks(exact_u, points):
    """(rows, exact_u(points[rows])) for each chunk of ``_CHUNK`` rows."""
    for i in range(0, len(points), _CHUNK):
        rows = slice(i, i + _CHUNK)
        yield rows, exact_u(_chunk(points, rows))


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

MIN_STRING_IMAGES = 3  # two end points and at least one interior image to move


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
    if n_images < MIN_STRING_IMAGES:
        raise QplandError(f"need at least {MIN_STRING_IMAGES} images, got {n_images}")
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
        cos = _row_values("orthogonality cosine", representatives.points,
                          lambda x, ws: orthogonality_cosine(model, x, workspace=ws))
        np.abs(cos, out=cos)
        report.cos_mean_abs = float(cos.mean())
        report.cos_max_abs = float(cos.max())
    return report
