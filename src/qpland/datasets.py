"""Trajectory-pair datasets: generation, splitting, persistence, and the
greedy r-net subsampling used for the orthogonality penalty.

A dataset holds one-step pairs (x(t_j), x(t_j + dt)) recorded at the sparse
times t_j = j m dt along RK4-integrated trajectories, stored
trajectory-major. Files are little-endian binary (magic "QPTD" for pair
data, "QPRS" for representative sets) with a JSON sidecar carrying the
generation provenance, so a dataset is reproducible from its sidecar alone.
"""

import json
import os
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import FormatError, NonFiniteError, QplandError
from .fileio import atomic_write
from .integrators import rk4_step

QPTD_MAGIC = b"QPTD"
QPRS_MAGIC = b"QPRS"
FILE_VERSION = 1

SPLIT_CODES = {"train": 0, "val": 1, "test": 2}


@dataclass
class TrajectoryDataset:
    dt: float
    x: np.ndarray  # (n_pairs, d)
    x_next: np.ndarray  # (n_pairs, d)
    traj_id: np.ndarray  # (n_pairs,) uint32, trajectory-major, time-ordered
    n_trajectories: int
    split_seed: Optional[int] = None
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.x.shape[1]

    @property
    def n_pairs(self):
        return self.x.shape[0]

    def split_labels(self):
        """Per-trajectory split codes (0 train / 1 val / 2 test), 70/20/10."""
        if self.split_seed is None:
            raise QplandError("dataset has no split; call split() first")
        n = self.n_trajectories
        perm = np.random.default_rng(self.split_seed).permutation(n)
        n_train = int(round(0.7 * n))
        n_val = int(round(0.2 * n))
        labels = np.empty(n, dtype=np.int8)
        labels[perm[:n_train]] = 0
        labels[perm[n_train : n_train + n_val]] = 1
        labels[perm[n_train + n_val :]] = 2
        return labels

    def pair_mask(self, split):
        if split is None:
            return np.ones(self.n_pairs, dtype=bool)
        labels = self.split_labels()
        return labels[self.traj_id] == SPLIT_CODES[split]

    def pairs(self, split=None):
        m = self.pair_mask(split)
        return self.x[m], self.x_next[m]

    def states(self, split=None):
        """All stored states (both pair sides) of a split."""
        xl, xr = self.pairs(split)
        return np.concatenate([xl, xr], axis=0)

    def trajectories(self, split=None):
        """[(traj_id, lefts (M+1, d), rights (M+1, d))] in id order.

        Pairs are stored trajectory-major, so each trajectory is one
        contiguous run of rows; lefts and rights are views into it."""
        ids = np.arange(self.n_trajectories)
        if split is not None:
            ids = ids[self.split_labels() == SPLIT_CODES[split]]
        bounds = np.searchsorted(self.traj_id, np.arange(self.n_trajectories + 1))
        return [(int(tid), self.x[bounds[tid] : bounds[tid + 1]],
                 self.x_next[bounds[tid] : bounds[tid + 1]]) for tid in ids]

    def equals(self, other):
        return (
            self.dt == other.dt
            and self.n_trajectories == other.n_trajectories
            and self.split_seed == other.split_seed
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.x_next, other.x_next)
            and np.array_equal(self.traj_id, other.traj_id)
        )


def generate(system, n_trajectories, dt, horizon, stride, seed):
    """Integrate ``n_trajectories`` seeded initial states with RK4 at step
    ``dt`` and record the pair (x(t_j), x(t_j+dt)) at t_j = j*stride*dt for
    j = 0..M, M = floor(horizon/(stride dt)) - 1."""
    n_sparse = int(np.floor(horizon / (stride * dt) + 1e-9))
    if n_sparse < 1:
        raise QplandError(f"horizon {horizon} too short for stride {stride} at dt {dt}")
    m_last = n_sparse - 1
    x = system.sample(np.random.default_rng(np.random.SeedSequence(seed)), n_trajectories)
    lefts = np.empty((n_trajectories, m_last + 1, system.dim))
    rights = np.empty_like(lefts)
    for j in range(m_last + 1):
        r = rk4_step(system.field, x, dt, check=False)
        _check_samples(x, r, j)
        lefts[:, j] = x
        rights[:, j] = r
        if j < m_last:
            x = r
            for _ in range(stride - 1):
                x = rk4_step(system.field, x, dt, check=False)
    meta = {
        "system": system.name,
        "params": _jsonable(system.params),
        "N": int(n_trajectories),
        "T": float(horizon),
        "m": int(stride),
        "seed": int(seed),
        "pairs_per_trajectory": m_last + 1,
    }
    return TrajectoryDataset(
        dt=float(dt),
        x=lefts.reshape(-1, system.dim),
        x_next=rights.reshape(-1, system.dim),
        traj_id=np.repeat(np.arange(n_trajectories, dtype=np.uint32), m_last + 1),
        n_trajectories=int(n_trajectories),
        metadata=meta,
    )


def _check_samples(left, right, j):
    ok = np.isfinite(left).all(axis=1) & np.isfinite(right).all(axis=1)
    if not ok.all():
        raise NonFiniteError("trajectory generation", index=int(np.argmax(~ok)), step=j)


def split(dataset, seed):
    """Assign 70/20/10 train/val/test labels by shuffled trajectory id."""
    if dataset.n_trajectories < 10:
        raise QplandError(f"need at least 10 trajectories to split, got {dataset.n_trajectories}")
    dataset.split_seed = int(seed)
    dataset.metadata["split_seed"] = int(seed)
    return dataset


# -- Algorithm 1: greedy r-net ----------------------------------------------

@dataclass
class RepresentativeSet:
    points: np.ndarray  # (S, d), in selection order
    radius: float

    @property
    def count(self):
        return self.points.shape[0]


def representative_sample(states, radius, seed):
    """Greedy cover: repeatedly pick a uniformly random remaining state,
    keep it, and delete every state strictly inside the radius-r ball
    around it. Survivor pairs end up >= r apart and every input state lies
    within < r of some representative."""
    if radius <= 0:
        raise QplandError(f"representative radius must be positive, got {radius}")
    states = np.ascontiguousarray(np.asarray(states, dtype=np.float64))
    order = np.random.default_rng(seed).permutation(states.shape[0])
    points = _greedy_net(states, radius, order)
    return RepresentativeSet(points=points, radius=float(radius))


def _greedy_net(states, radius, order):
    """Deterministic core: scan candidates in ``order``, skipping deleted
    ones. Scanning a uniform permutation reproduces, in distribution, the
    uniform random selection of the sequential algorithm.

    A kd-tree over the live states finds each pick's neighbours and the
    exact ``d2 < r2`` test decides which die. The tree sums squared
    differences in another order than NumPy, so at radius r its ball can
    miss a state a few ulps inside the sphere, which would survive to become
    a representative closer than r; a query radius padded by 1e-9 relative
    rules that out. Once more than half of the states in the tree have died
    it is rebuilt on the live ones, so large radii do not query through dead
    states; tree sizes then shrink geometrically, and the rebuilds cost at
    most a log factor over the query work already done."""
    n = states.shape[0]
    if n == 0:
        return states.copy()
    alive = np.ones(n, dtype=bool)
    reps = []
    r2 = radius * radius
    query_radius = radius * (1.0 + 1e-9)
    live = np.arange(n)
    tree = cKDTree(states)
    hits = 0
    for i in order:
        if not alive[i]:
            continue
        reps.append(i)
        if 2 * hits > len(live):
            live = np.flatnonzero(alive)
            tree = cKDTree(states[live])
            hits = 0
        x = states[i]
        nb = live[tree.query_ball_point(x, query_radius)]
        nb = nb[alive[nb]]
        kill = nb[((states[nb] - x) ** 2).sum(axis=1) < r2]
        alive[kill] = False
        hits += len(kill)
    return states[np.array(reps, dtype=np.intp)].copy()


# -- persistence --------------------------------------------------------------

_QPTD_HEADER = struct.Struct("<4sIIQQd")
_QPRS_HEADER = struct.Struct("<4sIIdQ")


def _pair_dtype(d):
    return np.dtype([("tid", "<u4"), ("x", "<f8", (d,)), ("y", "<f8", (d,))])


def save_dataset(dataset, path):
    header = _QPTD_HEADER.pack(QPTD_MAGIC, FILE_VERSION, dataset.dim,
                               dataset.n_pairs, dataset.n_trajectories, dataset.dt)
    rec = np.empty(dataset.n_pairs, dtype=_pair_dtype(dataset.dim))
    rec["tid"] = dataset.traj_id
    rec["x"] = dataset.x
    rec["y"] = dataset.x_next
    meta = dict(dataset.metadata)
    if dataset.split_seed is not None:
        meta["split_seed"] = dataset.split_seed
    # both files are written in full before either replaces its old copy
    with (atomic_write(path, "wb") as fh,
          atomic_write(str(path) + ".json", "w", encoding="utf-8") as sidecar):
        fh.write(header)
        fh.write(rec.data)
        json.dump(meta, sidecar, sort_keys=True)


def load_dataset(path):
    """The dataset in a QPTD file and its sidecar. The records are read
    straight into one structured array, whose fields are then copied out."""
    with open(path, "rb") as fh:
        head = fh.read(_QPTD_HEADER.size)
        if len(head) < _QPTD_HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, d, n_pairs, n_traj, dt = _QPTD_HEADER.unpack(head)
        if magic != QPTD_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {QPTD_MAGIC!r}")
        if version != FILE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        # the body's size is checked before the records are allocated, and
        # again by what was read into them
        expect = n_pairs * _pair_dtype(d).itemsize
        body = os.fstat(fh.fileno()).st_size - _QPTD_HEADER.size
        if body == expect:
            rec = np.empty(n_pairs, dtype=_pair_dtype(d))
            body = fh.readinto(rec.view(np.uint8))
        if body != expect:
            raise FormatError(f"{path}: body has {body} bytes, expected {expect}")
    decreasing = np.flatnonzero(rec["tid"][1:] < rec["tid"][:-1])
    if decreasing.size:
        i = int(decreasing[0]) + 1
        raise FormatError(f"{path}: traj_id decreases at pair {i} "
                          f"({rec['tid'][i - 1]} -> {rec['tid'][i]}); pairs must be "
                          f"stored trajectory-major")
    if n_pairs and rec["tid"][-1] >= n_traj:
        i = int(np.searchsorted(rec["tid"], n_traj))
        raise FormatError(f"{path}: traj_id {rec['tid'][i]} at pair {i} is out of range "
                          f"for {n_traj} trajectories")
    meta, split_seed = {}, None
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        split_seed = meta.get("split_seed")
    except FileNotFoundError:
        pass
    return TrajectoryDataset(
        dt=float(dt),
        x=rec["x"].reshape(n_pairs, d).copy(),
        x_next=rec["y"].reshape(n_pairs, d).copy(),
        traj_id=rec["tid"].copy(),
        n_trajectories=int(n_traj),
        split_seed=split_seed,
        metadata=meta,
    )


def save_representatives(reps, path):
    header = _QPRS_HEADER.pack(QPRS_MAGIC, FILE_VERSION, reps.points.shape[1],
                               reps.radius, reps.count)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(reps.points, dtype="<f8").tobytes())


def load_representatives(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _QPRS_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, d, radius, count = _QPRS_HEADER.unpack_from(blob)
    if magic != QPRS_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {QPRS_MAGIC!r}")
    if version != FILE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    body = blob[_QPRS_HEADER.size :]
    if len(body) != count * d * 8:
        raise FormatError(f"{path}: body has {len(body)} bytes, expected {count * d * 8}")
    pts = np.frombuffer(body, dtype="<f8").reshape(count, d).copy()
    return RepresentativeSet(points=pts, radius=float(radius))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
