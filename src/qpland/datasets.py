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

from .errors import FormatError, QplandError, check_finite
from .fileio import atomic_write
from .integrators import rk4_step
from .nets import Workspace
from .systems import rk4_dt_cause

QPTD_MAGIC = b"QPTD"
QPRS_MAGIC = b"QPRS"
FILE_VERSION = 1

SPLIT_CODES = {"train": 0, "val": 1, "test": 2}

# the fewest trajectories ``split`` accepts; config's data.N is checked against it
MIN_SPLIT_TRAJECTORIES = 10

# states per gather of ``TrajectoryDataset.state_mean``: 400 KB at d = 50
_MEAN_ROWS = 1024


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
        """All stored states of a split: the left sides of its pairs, then
        the right sides, gathered into one array."""
        idx = np.flatnonzero(self.pair_mask(split))
        out = np.empty((2 * len(idx), self.dim))
        # mode "clip", as idx is in range: "raise" would first copy ``out``
        np.take(self.x, idx, axis=0, out=out[: len(idx)], mode="clip")
        np.take(self.x_next, idx, axis=0, out=out[len(idx) :], mode="clip")
        return out

    def state_mean(self, split=None):
        """``states(split).mean(axis=0)`` to the bit, without gathering the
        states. They are gathered ``_MEAN_ROWS`` at a time into one buffer,
        after a row that carries the running sum, and ``np.add.reduce``
        along axis 0 continues the sum over them. NumPy sums a C-contiguous
        array of two or more columns along axis 0 one row after another,
        so the sum is the one over the whole array. A single column it sums
        pairwise, so at d = 1 the states are gathered whole."""
        idx = np.flatnonzero(self.pair_mask(split))
        n = len(idx)
        if n == 0:
            return self.states(split).mean(axis=0)  # NaN, with NumPy's warning
        rows = _MEAN_ROWS if self.dim > 1 else 2 * n
        buf = np.empty((rows + 1, self.dim))
        total = None
        # the states are x[idx] then x_next[idx]; a..b are rows of that order
        for a in range(0, 2 * n, rows):
            b = min(a + rows, 2 * n)
            head = 0 if total is None else 1
            if head:
                buf[0] = total
            block = buf[head : head + b - a]
            k = max(0, min(b, n) - a)
            # mode "clip", as idx is in range: "raise" would first copy ``out``
            np.take(self.x, idx[a : a + k], axis=0, out=block[:k], mode="clip")
            np.take(self.x_next, idx[max(a, n) - n : max(b, n) - n], axis=0, out=block[k:],
                    mode="clip")
            total = np.add.reduce(buf[: head + b - a], axis=0)
        return total / (2 * n)

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
    j = 0..M, M = floor(horizon/(stride dt)) - 1.

    The batch is stepped component-major: a C-ordered (d, N) array, one
    contiguous row per coordinate, so that the RK4 stage block is (8, d, N).
    The field keeps its (N, d) contract: it is called on the transposed
    views, whose columns ``x[:, k]`` and ``out[:, k]`` are contiguous. The
    bits do not depend on the layout.

    Each call owns one workspace for the RK4 stages and two state arrays
    that the steps write in turn, so no step allocates; all are freed when
    the call returns. A state that turns NaN or inf raises NonFiniteError
    naming the record and the trajectory; when ``dt`` is above the system's
    ``rk4_dt_limit``, the error names both steps (``systems.rk4_dt_cause``)."""
    n_sparse = int(np.floor(horizon / (stride * dt) + 1e-9))
    if n_sparse < 1:
        raise QplandError(f"horizon {horizon} too short for stride {stride} at dt {dt}")
    m_last = n_sparse - 1
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = np.ascontiguousarray(system.sample(rng, n_trajectories).T)
    lefts = np.empty((n_trajectories, m_last + 1, system.dim))
    rights = np.empty_like(lefts)
    workspace = Workspace()
    states = (np.empty_like(x), np.empty_like(x))
    cause = rk4_dt_cause(system, dt)

    def field(s, out):
        return system.field(s.T, out=out.T).T

    def step(x):
        # into whichever state array x is not
        return rk4_step(field, x, dt, out=states[x is states[0]], workspace=workspace)

    # a blown-up step overflows; the located error below is its one report
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m_last + 1):
            r = step(x)
            # the step adds x last, so r is non-finite in every trajectory
            # where x is; r.T, so that the index names the trajectory
            check_finite("trajectory generation", r.T, step=j, cause=cause)
            lefts[:, j] = x.T
            rights[:, j] = r.T
            if j < m_last:
                x = r
                for _ in range(stride - 1):
                    x = step(x)
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


def split(dataset, seed):
    """Assign 70/20/10 train/val/test labels by shuffled trajectory id."""
    if dataset.n_trajectories < MIN_SPLIT_TRAJECTORIES:
        raise QplandError(f"need at least {MIN_SPLIT_TRAJECTORIES} trajectories to split, "
                          f"got {dataset.n_trajectories}")
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
    within < r of some representative.

    The states must be finite: a NaN or inf state raises NonFiniteError
    naming its row, since it lies in no ball and no grid cell
    (see ``_greedy_net``)."""
    if radius <= 0:
        raise QplandError(f"representative radius must be positive, got {radius}")
    states = np.ascontiguousarray(np.asarray(states, dtype=np.float64))
    check_finite("representative states", states)
    order = np.random.default_rng(seed).permutation(states.shape[0])
    points = _greedy_net(states, radius, order)
    return RepresentativeSet(points=points, radius=float(radius))


# cells per grid axis at most, so that three axes of cell indices make an
# int64 key and a cell index is rounded by less than 2**-32 of a cell
_MAX_CELLS = 2**20
# entries of ``order`` per block of the greedy net, and the floats of
# differences (1 MB) that one block tests at most; see ``_greedy_net``
_NET_WINDOW = 512
_NET_BUDGET = 2**17


def _greedy_net(states, radius, order):
    """Deterministic core: scan candidates in ``order``, skipping deleted
    ones. Scanning a uniform permutation reproduces, in distribution, the
    uniform random selection of the sequential algorithm.

    A pick ``x`` deletes every live state with ``((s - x) ** 2).sum() < r2``,
    the exact test; a fixed-radius cell grid (Bentley, Stanat & Williams,
    IPL 1977) only narrows down which states it tests. Cell coordinates
    are the states themselves for d <= 3, and above that their projections
    onto the top three principal axes of the states (``eigh`` of the d x d
    Gram matrix of the centred states). Either map is a contraction, so a
    state that the exact test deletes lies at most one cell from the pick
    along every axis, provided the cell side covers r plus the rounding:

    - the relative margin r * 1e-6 covers the exact test passing a state
      up to d ulps outside r, the computed axes' departure from unit
      length, and the rounding of the cell index (below 2**-32 of a cell
      for each state, given the cap below);
    - the absolute pad covers the rounding of the projection. A computed
      coordinate ``fl(s . v)`` is off from ``s . v`` by at most
      gamma_d * sum |s_i| |v_i| <= d u |s| (1 + d u) in any summation
      order, with u = 2**-53 and |v| = 1. The pick and the state both carry
      that error, and a factor 2 on top covers |v| > 1 and the rounding of
      the norms, so the pad is 4 d u max |s|; 0 for d <= 3, which is not
      projected.

    The side is then coarsened, if needed, so that no axis has more than
    ``_MAX_CELLS`` cells. Each grid row along the last axis is a contiguous
    range of the sorted cell keys, so one ``searchsorted`` call finds the
    3**(k-1) rows next to a pick. Once more than half of the indexed states
    have died, the index is rebuilt on the live ones by filtering it
    (``_cell_index``), so large radii do not scan dead states; index sizes
    then shrink geometrically, and the rebuilds cost O(n) in all.

    Candidates are taken a block at a time with the result of taking them
    one at a time (Blelloch, Fineman & Shun, SPAA 2012): the picks are the
    lexicographically first maximal independent set, in ``order``, of the
    graph joining every two states that pass the exact test. A block is the
    live states among the next ``_NET_WINDOW`` entries of ``order``, cut
    after the last candidate for which the grid rows of the block so far
    hold at most ``_NET_BUDGET`` floats (rows times d, the differences the
    block tests); it keeps at least one candidate. One ``searchsorted`` call
    finds the rows of every candidate, and each live state in them is
    tested against its candidate with the arithmetic of a single pick. A
    candidate is picked unless an earlier pick of its block passes the
    exact test with it. That is the one-at-a-time rule: every state within
    r of an earlier block's picks died before the block was formed, and the
    block's own conflicts are resolved in order. The picks' balls die once
    the block is resolved, and the rebuild rule is checked once per
    block."""
    n = states.shape[0]
    if n == 0:
        return states.copy()
    d = states.shape[1]
    keys, rows = _cell_keys(states, radius)
    alive_mask = np.ones(n, dtype=bool)
    # a candidate's position in its block, -1 for any other state
    slot = np.full(n, -1, dtype=np.int32)
    reps = []
    r2 = radius * radius
    ids = np.argsort(keys, kind="stable")
    sorted_keys = keys[ids]
    # a row's keys run from its key - 1 to its key + 1; keys being integers,
    # the run ends where its key + 2 would be inserted
    edges = np.column_stack([rows - 1, rows + 2]).ravel()
    pos = 0
    while pos < len(order):
        window = order[pos : pos + _NET_WINDOW]
        at = np.flatnonzero(alive_mask[window])
        if not len(at):
            pos += len(window)
            continue
        cand = window[at]
        hits = len(ids) - np.count_nonzero(alive_mask)  # indexed states now dead
        if 2 * hits > len(ids):
            sorted_keys, ids = _cell_index(sorted_keys, ids, alive_mask)
        bounds = sorted_keys.searchsorted(keys[cand][:, None] + edges)
        starts = bounds[:, 0::2]
        lengths = bounds[:, 1::2] - starts
        counts = lengths.sum(axis=1)
        m = max(1, int(np.searchsorted(np.cumsum(counts) * d, _NET_BUDGET, side="right")))
        cand = cand[:m]
        pos += int(at[m - 1]) + 1
        # the candidates' rows, expanded into (owner, state) pairs
        lengths = lengths[:m].ravel()
        ends = np.cumsum(lengths)
        nb = np.repeat(starts[:m].ravel() - ends + lengths, lengths)
        nb += np.arange(ends[-1])
        nb = ids[nb]
        owner = np.repeat(np.arange(m, dtype=np.int32), counts[:m])
        keep = alive_mask[nb]
        nb, owner = nb[keep], owner[keep]
        # the exact test, with the arithmetic of ((states[nb] - x) ** 2).sum(axis=1)
        diff = np.take(states, nb, axis=0)
        diff -= np.take(states, cand[owner], axis=0)
        np.square(diff, out=diff)
        near = diff.sum(axis=1) < r2
        nb, owner = nb[near], owner[near]
        # in-block conflicts in order: a candidate that an earlier pick of
        # the block passes the test with is not picked
        slot[cand] = np.arange(m)
        later = slot[nb]
        conflict = later > owner
        picked = bytearray(b"\x01") * m
        for a, b in zip(owner[conflict].tolist(), later[conflict].tolist()):
            if picked[a]:
                picked[b] = 0
        slot[cand] = -1
        picked = np.frombuffer(picked, dtype=bool)
        reps.append(cand[picked])
        alive_mask[nb[picked[owner]]] = False
    return states[np.concatenate(reps)]


def _cell_keys(states, radius):
    """(int64 cell key of each state, key offsets of the grid rows next to
    a cell, the cell's own row included); see ``_greedy_net``."""
    d = states.shape[1]
    if d <= 3:
        coords, pad = states, 0.0
    else:
        # the Gram matrix of the centred states, X^T X - n m m^T, and the
        # largest row norm, with no (n, d) temporary
        mean = states.mean(axis=0)
        gram = states.T @ states - len(states) * np.outer(mean, mean)
        axes = np.linalg.eigh(gram)[1][:, -3:]
        coords = states @ axes
        norm = np.sqrt(np.einsum("ij,ij->i", states, states).max())
        pad = 4.0 * d * (np.finfo(np.float64).eps / 2) * norm
    low = coords.min(axis=0)
    extent = float((coords.max(axis=0) - low).max())
    side = max(radius * (1.0 + 1e-6) + pad, extent / (_MAX_CELLS - 1))
    cells = ((coords - low) / side).astype(np.int64)
    # one empty cell after the last along each axis: a neighbour off either
    # end of a row lands there, not in a cell of the next or previous row
    spans = cells.max(axis=0) + 2
    strides = np.ones(len(spans), dtype=np.int64)
    for a in range(len(spans) - 1, 0, -1):
        strides[a - 1] = strides[a] * spans[a]
    rows = np.zeros(1, dtype=np.int64)
    for stride in strides[:-1]:
        rows = (rows[:, None] + stride * np.array([-1, 0, 1])).ravel()
    return cells @ strides, rows


def _cell_index(sorted_keys, ids, alive_mask):
    """The cell index (sorted cell keys, their state indices) cut to the
    live states: a stable sort of a subset keeps the order the whole set
    had, so this is the index a new sort of the live keys would give."""
    keep = alive_mask[ids]
    return sorted_keys[keep], ids[keep]


# -- persistence --------------------------------------------------------------

_QPTD_HEADER = struct.Struct("<4sIIQQd")
_QPRS_HEADER = struct.Struct("<4sIIdQ")
# bytes of pair records that save_dataset and load_dataset hold at a time
_BLOCK_BYTES = 1 << 18


def _pair_dtype(d):
    return np.dtype([("tid", "<u4"), ("x", "<f8", (d,)), ("y", "<f8", (d,))])


def _record_block(d):
    """An empty array of about ``_BLOCK_BYTES`` of pair records, at least one."""
    dtype = _pair_dtype(d)
    return np.empty(max(1, _BLOCK_BYTES // dtype.itemsize), dtype=dtype)


def _read_header(fh, header, magic, path):
    """The fields of the ``header`` struct that open file ``fh`` starts
    with, after its magic and version, and the size of the body behind it
    on disk. A short header, another magic or another version raises
    ``FormatError``."""
    head = fh.read(header.size)
    if len(head) < header.size:
        raise FormatError(f"{path}: truncated header")
    found, version, *fields = header.unpack(head)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
    if version != FILE_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    return fields, os.fstat(fh.fileno()).st_size - header.size


def save_dataset(dataset, path):
    """Write the dataset to a QPTD file and its provenance to the JSON
    sidecar. The records are written in blocks of about ``_BLOCK_BYTES``,
    each filled from the three arrays, so saving holds no copy of the
    dataset."""
    header = _QPTD_HEADER.pack(QPTD_MAGIC, FILE_VERSION, dataset.dim,
                               dataset.n_pairs, dataset.n_trajectories, dataset.dt)
    block = _record_block(dataset.dim)
    meta = dict(dataset.metadata)
    if dataset.split_seed is not None:
        meta["split_seed"] = dataset.split_seed
    # both files are written in full before either replaces its old copy
    with (atomic_write(path, "wb") as fh,
          atomic_write(str(path) + ".json", "w", encoding="utf-8") as sidecar):
        fh.write(header)
        for start in range(0, dataset.n_pairs, len(block)):
            rec = block[: dataset.n_pairs - start]
            rows = slice(start, start + len(rec))
            rec["tid"], rec["x"], rec["y"] = (dataset.traj_id[rows], dataset.x[rows],
                                              dataset.x_next[rows])
            fh.write(rec.data)
        json.dump(meta, sidecar, sort_keys=True)


def load_dataset(path):
    """The dataset in a QPTD file and its sidecar, a JSON object, which may
    be missing. The records are read in blocks of about ``_BLOCK_BYTES``,
    each scattered into the three arrays, so loading holds little more than
    the dataset itself."""
    with open(path, "rb") as fh:
        (d, n_pairs, n_traj, dt), body = _read_header(fh, _QPTD_HEADER, QPTD_MAGIC, path)
        # the body's size is checked before the arrays are allocated, and
        # again by what was read into them
        expect = n_pairs * _pair_dtype(d).itemsize
        if body == expect:
            x = np.empty((n_pairs, d))
            x_next = np.empty((n_pairs, d))
            traj_id = np.empty(n_pairs, dtype=np.uint32)
            block = _record_block(d)
            body = 0
            for start in range(0, n_pairs, len(block)):
                rec = block[: n_pairs - start]
                got = fh.readinto(rec.view(np.uint8))
                body += got
                if got < rec.nbytes:
                    break
                rows = slice(start, start + len(rec))
                traj_id[rows], x[rows], x_next[rows] = rec["tid"], rec["x"], rec["y"]
        if body != expect:
            raise FormatError(f"{path}: body has {body} bytes, expected {expect}")
    decreasing = np.flatnonzero(traj_id[1:] < traj_id[:-1])
    if decreasing.size:
        i = int(decreasing[0]) + 1
        raise FormatError(f"{path}: traj_id decreases at pair {i} "
                          f"({traj_id[i - 1]} -> {traj_id[i]}); pairs must be "
                          f"stored trajectory-major")
    if n_pairs and traj_id[-1] >= n_traj:
        i = int(np.searchsorted(traj_id, n_traj))
        raise FormatError(f"{path}: traj_id {traj_id[i]} at pair {i} is out of range "
                          f"for {n_traj} trajectories")
    missing = _first_missing_trajectory(traj_id, n_traj)
    if missing is not None:
        raise FormatError(f"{path}: trajectory {missing} of {n_traj} has no pairs; "
                          f"every trajectory must have at least one")
    meta, sidecar = {}, str(path) + ".json"
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise FormatError(f"{sidecar}: not valid JSON ({err})") from err
    if not isinstance(meta, dict):
        raise FormatError(f"{sidecar}: not a JSON object")
    return TrajectoryDataset(
        dt=float(dt),
        x=x,
        x_next=x_next,
        traj_id=traj_id,
        n_trajectories=int(n_traj),
        split_seed=meta.get("split_seed"),
        metadata=meta,
    )


def _first_missing_trajectory(traj_id, n_traj):
    """The smallest trajectory id below ``n_traj`` that has no pair, or None.
    ``traj_id`` is nondecreasing and below ``n_traj``."""
    if not len(traj_id) or traj_id[0] > 0:
        return 0 if n_traj else None
    gaps = np.flatnonzero(traj_id[1:] - traj_id[:-1] > 1)
    if gaps.size:
        return int(traj_id[gaps[0]]) + 1
    last = int(traj_id[-1])
    return last + 1 if last + 1 < n_traj else None


def save_representatives(reps, path):
    header = _QPRS_HEADER.pack(QPRS_MAGIC, FILE_VERSION, reps.points.shape[1],
                               reps.radius, reps.count)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(reps.points, dtype="<f8").tobytes())


def load_representatives(path):
    """The representative set in a QPRS file; the body is read straight
    into the points array."""
    with open(path, "rb") as fh:
        (d, radius, count), body = _read_header(fh, _QPRS_HEADER, QPRS_MAGIC, path)
        # as in load_dataset: the size is checked before the array is
        # allocated, and again by what was read into it
        expect = count * d * 8
        if body == expect:
            pts = np.empty((count, d), dtype="<f8")
            body = fh.readinto(pts.view(np.uint8))
        if body != expect:
            raise FormatError(f"{path}: body has {body} bytes, expected {expect}")
    return RepresentativeSet(points=pts, radius=float(radius))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
