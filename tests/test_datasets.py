import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpland import datasets
from qpland.datasets import (SPLIT_CODES, RepresentativeSet, TrajectoryDataset, _greedy_net,
                             generate, load_dataset, load_representatives,
                             representative_sample, save_dataset, save_representatives, split)
from qpland.errors import FormatError, NonFiniteError, QplandError
from qpland.systems import make_system


class BlowUp:
    """x' = x^2 from x = 50: overflows at the third step of dt = 0.5."""

    dim = 1
    name = "blowup"
    params = {}

    def __init__(self, **extras):
        self.extras = extras

    @staticmethod
    def field(s, out=None):
        return np.multiply(s, s, out=out)

    @staticmethod
    def sample(rng, n):
        return np.full((n, 1), 50.0)


class BlowUp3d(BlowUp):
    """x' = x^2 in 3-d, from 0 on every trajectory but number 7, which starts
    at (50, 50, 50) and overflows at the third step of dt = 0.5."""

    dim = 3

    @staticmethod
    def sample(rng, n):
        x = np.zeros((n, 3))
        x[7] = 50.0
        return x


class LayoutSpy:
    """bistable3d, recording the shape of every state and ``out`` that its
    field receives and whether their columns are contiguous."""

    def __init__(self):
        self.system = make_system("bistable3d")
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.system, name)

    def field(self, s, out=None):
        self.calls += [(a.shape, a[:, 0].flags.c_contiguous) for a in (s, out)]
        return self.system.field(s, out=out)


@pytest.fixture(scope="module")
def small_bistable():
    dataset = generate(make_system("bistable3d"), 20, 1e-2, 5.0, 10, seed=7)
    return split(dataset, seed=3)


class TestGenerate:
    def test_pair_counts_per_trajectory(self, small_bistable):
        # T=5, dt=1e-2, m=10 -> 50 pairs (100 stored states) per trajectory
        assert small_bistable.n_pairs == 20 * 50
        assert small_bistable.metadata["pairs_per_trajectory"] == 50
        assert small_bistable.states().shape == (2000, 3)

    def test_successors_are_one_rk4_step(self, small_bistable):
        from qpland.integrators import rk4_step

        system = make_system("bistable3d")
        stepped = rk4_step(system.field, small_bistable.x, 1e-2)
        assert np.array_equal(stepped, small_bistable.x_next)

    def test_pairs_chain_along_trajectory(self, small_bistable):
        # x(t_{j+1}) is reachable from x(t_j + dt) by m-1 more steps
        from qpland.integrators import rk4_step

        system = make_system("bistable3d")
        tid, lefts, rights = small_bistable.trajectories()[0]
        cont = rights[0]
        for _ in range(9):
            cont = rk4_step(system.field, cont, 1e-2)
        assert np.allclose(cont, lefts[1], rtol=0, atol=1e-14)

    def test_single_pair_boundary_case(self):
        dataset = generate(make_system("bistable3d"), 12, 1e-2, 1e-2, 1, seed=0)
        assert dataset.n_pairs == 12
        assert dataset.metadata["pairs_per_trajectory"] == 1

    def test_horizon_too_short_rejected(self):
        with pytest.raises(QplandError):
            generate(make_system("bistable3d"), 5, 1e-2, 1e-3, 10, seed=0)

    # no filterwarnings mark: generation's overflow must not warn
    def test_divergent_trajectory_reports_index(self):
        with pytest.raises(NonFiniteError) as exc:
            generate(BlowUp(), 3, 0.5, 50.0, 1, seed=0)
        assert exc.value.index is not None
        assert "exceeds" not in str(exc.value)

    def test_divergence_names_the_trajectory_not_the_coordinate(self):
        with pytest.raises(NonFiniteError) as exc:
            generate(BlowUp3d(), 10, 0.5, 50.0, 1, seed=0)
        assert str(exc.value) == "non-finite value in trajectory generation, step 2, index 7"

    def test_every_field_call_gets_contiguous_columns(self):
        # generate steps component-major batches: a field that read strided
        # columns would be slower, with the same bits
        spy = LayoutSpy()
        generate(spy, 10, 1e-2, 0.1, 2, seed=0)
        # 5 records, stride 2: 9 steps of 4 field calls, 2 arrays each
        assert len(spy.calls) == 9 * 4 * 2
        assert set(spy.calls) == {((10, 3), True)}

    def test_divergence_within_the_step_limit_names_no_limit(self):
        with pytest.raises(NonFiniteError) as exc:
            generate(BlowUp(rk4_dt_limit=1.0), 3, 0.5, 50.0, 1, seed=0)
        assert str(exc.value) == "non-finite value in trajectory generation, step 2, index 0"

    @pytest.mark.parametrize("name, params, dt, located, limit", [
        ("brusselator", {"I": 19, "alpha": 0.1}, 1e-3, "step 1, index 0", "0.000192867"),
        ("ginzburg_landau", {"I": 51}, 3e-3, "step 7, index 2", "0.00267686"),
    ])
    def test_divergence_above_the_step_limit_names_both_steps(self, name, params, dt, located,
                                                               limit):
        with pytest.raises(NonFiniteError) as exc:
            generate(make_system(name, params), 5, dt, 1.0, 10, seed=0)
        assert str(exc.value) == (
            f"non-finite value in trajectory generation, {located}: dt {dt:g} exceeds "
            f"{limit}, the largest step at which explicit RK4 is linearly stable on {name}")

    def test_determinism(self):
        system = make_system("limitcycle2d")
        a = generate(system, 15, 1e-2, 1.0, 5, seed=42)
        b = generate(system, 15, 1e-2, 1.0, 5, seed=42)
        assert a.equals(b)


class TestSplit:
    def test_exact_small_proportions(self):
        dataset = generate(make_system("bistable3d"), 10, 1e-2, 0.5, 5, seed=1)
        split(dataset, seed=5)
        labels = dataset.split_labels()
        assert (np.bincount(labels, minlength=3) == [7, 2, 1]).all()

    def test_paper_scale_proportions(self):
        dataset = TrajectoryDataset(
            dt=1e-2, x=np.zeros((2000, 1)), x_next=np.zeros((2000, 1)),
            traj_id=np.arange(2000, dtype=np.uint32), n_trajectories=2000)
        split(dataset, seed=11)
        labels = dataset.split_labels()
        assert (np.bincount(labels, minlength=3) == [1400, 400, 200]).all()

    def test_same_seed_same_assignment(self, small_bistable):
        other = generate(make_system("bistable3d"), 20, 1e-2, 5.0, 10, seed=7)
        split(other, seed=3)
        assert np.array_equal(other.split_labels(), small_bistable.split_labels())

    def test_too_few_trajectories_rejected(self):
        dataset = generate(make_system("bistable3d"), 5, 1e-2, 0.5, 5, seed=1)
        with pytest.raises(QplandError):
            split(dataset, seed=0)

    def test_every_trajectory_in_exactly_one_split(self, small_bistable):
        masks = [small_bistable.pair_mask(s) for s in ("train", "val", "test")]
        total = np.stack(masks).sum(axis=0)
        assert (total == 1).all()


def mask_trajectories(dataset, split_name):
    """The per-trajectory-mask definition of ``trajectories``."""
    ids = np.arange(dataset.n_trajectories)
    if split_name is not None:
        ids = ids[dataset.split_labels() == SPLIT_CODES[split_name]]
    return [(int(tid), dataset.x[dataset.traj_id == tid], dataset.x_next[dataset.traj_id == tid])
            for tid in ids]


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for (tid, lefts, rights), (tid_w, lefts_w, rights_w) in zip(got, want):
        assert type(tid) is int and tid == tid_w
        for arr, ref in ((lefts, lefts_w), (rights, rights_w)):
            assert arr.dtype == ref.dtype and arr.shape == ref.shape
            assert np.array_equal(arr, ref)


class TestTrajectories:
    @pytest.mark.parametrize("split_name", [None, "train", "val", "test"])
    def test_matches_mask_definition(self, small_bistable, split_name):
        assert_same_trajectories(small_bistable.trajectories(split_name),
                                 mask_trajectories(small_bistable, split_name))

    @pytest.mark.parametrize("split_name", [None, "train", "val", "test"])
    def test_matches_mask_definition_after_round_trip(self, small_bistable, tmp_path,
                                                      split_name):
        path = tmp_path / "d.qptd"
        save_dataset(small_bistable, path)
        loaded = load_dataset(path)
        assert_same_trajectories(loaded.trajectories(split_name),
                                 mask_trajectories(small_bistable, split_name))


class TestStates:
    @pytest.mark.parametrize("split_name", [None, "train", "val", "test"])
    def test_left_sides_then_right_sides(self, small_bistable, split_name):
        lefts, rights = small_bistable.pairs(split_name)
        assert np.array_equal(small_bistable.states(split_name),
                              np.concatenate([lefts, rights]))

    def test_peak_is_the_result_and_the_indices(self, rng):
        # the states are gathered into one array, with no copy of either
        # side; the slack is the mask and the row indices
        n = 60_000
        dataset = split(TrajectoryDataset(dt=0.1, x=rng.normal(0, 1, (n, 5)),
                                          x_next=rng.normal(0, 1, (n, 5)),
                                          traj_id=np.repeat(np.arange(600, dtype=np.uint32), 100),
                                          n_trajectories=600), seed=0)
        tracemalloc.start()
        try:
            states = dataset.states("train")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(states) == 2 * np.count_nonzero(dataset.pair_mask("train"))
        assert peak <= states.nbytes + 10 * n


def scaled_pairs(rng, n_trajectories, pairs_per_trajectory, d):
    """A split dataset of states whose rows differ in scale by 1000x, so
    that summing them in another order moves the last bits."""
    n = n_trajectories * pairs_per_trajectory
    scale = rng.uniform(0.1, 100.0, (n, 1))
    return split(TrajectoryDataset(
        dt=0.1, x=rng.normal(3.0, 10.0, (n, d)) * scale,
        x_next=rng.normal(-1.0, 10.0, (n, d)) * scale,
        traj_id=np.repeat(np.arange(n_trajectories, dtype=np.uint32), pairs_per_trajectory),
        n_trajectories=n_trajectories), seed=2)


class TestStateMean:
    @pytest.mark.parametrize("d", [1, 2, 3, 50])
    @pytest.mark.parametrize("split_name", [None, "train", "test"])
    def test_bits_of_the_gathered_mean(self, rng, d, split_name):
        # 1500 trajectories of 7 pairs: no split's row count is a multiple
        # of the rows per gather, and each spans several gathers
        dataset = scaled_pairs(rng, 1500, 7, d)
        rows = 2 * np.count_nonzero(dataset.pair_mask(split_name))
        assert rows > 2 * datasets._MEAN_ROWS and rows % datasets._MEAN_ROWS
        want = dataset.states(split_name).mean(axis=0)
        assert dataset.state_mean(split_name).tobytes() == want.tobytes()

    def test_signed_zeros_and_a_single_pair(self):
        # ten one-pair trajectories: the test split is one pair; a column
        # of -0.0 sums as NumPy sums it
        x = np.column_stack([np.full(10, -0.0), np.arange(10.0)])
        dataset = split(TrajectoryDataset(dt=0.1, x=x, x_next=x.copy(),
                                          traj_id=np.arange(10, dtype=np.uint32),
                                          n_trajectories=10), seed=0)
        for name in (None, "train", "test"):
            want = dataset.states(name).mean(axis=0)
            assert dataset.state_mean(name).tobytes() == want.tobytes()

    def test_states_are_not_gathered(self, rng):
        dataset = scaled_pairs(rng, 400, 50, 50)
        states_bytes = dataset.states("train").nbytes
        tracemalloc.start()
        try:
            dataset.state_mean("train")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the row indices, the mask and one gather buffer
        assert peak < states_bytes / 4


def brute_force_net(states, radius, order):
    """The greedy r-net by brute force: each pick tests every live state."""
    alive = np.ones(states.shape[0], dtype=bool)
    reps = []
    r2 = radius * radius
    live_idx = np.arange(states.shape[0])
    live_pts = states
    for i in order:
        if not alive[i]:
            continue
        reps.append(i)
        d2 = ((live_pts - states[i]) ** 2).sum(axis=1)
        kill = d2 < r2
        alive[live_idx[kill]] = False
        live_idx = live_idx[~kill]
        live_pts = live_pts[~kill]
    return states[np.array(reps, dtype=np.intp)]


def pairwise_distances(pts):
    """The distance between every two rows, one row against the rows after it."""
    return np.concatenate([np.sqrt(((pts[i + 1:] - pts[i]) ** 2).sum(axis=1))
                           for i in range(len(pts) - 1)])


def assert_net(states, points, r):
    """Representatives lie >= r apart and every state lies < r from one,
    with distances summed as the r-net's exact test sums them."""
    cover = np.full(len(states), np.inf)
    for k, p in enumerate(points):
        assert (((points[:k] - p) ** 2).sum(axis=1) >= r * r).all()
        cover = np.minimum(cover, ((states - p) ** 2).sum(axis=1))
    assert (cover < r * r).all()


class TestRepresentativeSample:
    def test_worked_example_in_selection_order(self):
        pts = np.array([[0.0], [0.05], [0.2]])
        out = _greedy_net(pts, 0.1, order=np.array([0, 1, 2]))
        assert np.array_equal(out, [[0.0], [0.2]])

    def test_tiny_radius_keeps_everything(self, rng):
        pts = rng.normal(0, 1, (100, 2))
        reps = representative_sample(pts, 1e-9, seed=1)
        assert reps.count == 100

    def test_huge_radius_keeps_one(self, rng):
        pts = rng.normal(0, 1, (100, 2))
        reps = representative_sample(pts, 1e9, seed=1)
        assert reps.count == 1

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(QplandError):
            representative_sample(np.zeros((3, 1)), 0.0, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_is_located(self, bad, rng):
        pts = rng.normal(0, 1, (20, 3))
        pts[13, 1] = bad
        with pytest.raises(NonFiniteError, match="representative states, index 13$") as exc:
            representative_sample(pts, 0.5, seed=0)
        assert exc.value.index == 13

    @pytest.mark.parametrize("dim", [1, 3, 5, 9])
    def test_separation_and_coverage(self, dim, rng):
        pts = rng.normal(0, 1, (2000, dim))
        assert_net(pts, representative_sample(pts, 0.5, seed=4).points, 0.5)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9, 50])
    def test_matches_brute_force(self, dim, rng, monkeypatch):
        # radii from every state kept to a single representative; the middle
        # ones delete enough states between blocks to rebuild the cell index
        # more than once. The rebuild rule is checked once per block, so the
        # window is cut to 16 blocks' worth of the 500 states.
        builds = []

        def counting_index(sorted_keys, ids, alive_mask):
            builds.append(len(ids))
            return cell_index(sorted_keys, ids, alive_mask)

        cell_index = datasets._cell_index
        monkeypatch.setattr(datasets, "_cell_index", counting_index)
        monkeypatch.setattr(datasets, "_NET_WINDOW", 32)
        pts = rng.normal(0, 1, (500, dim))
        gaps = pairwise_distances(pts)
        radii = np.geomspace(0.5 * gaps.min(), 1.01 * gaps.max(), 12)
        order = rng.permutation(len(pts))
        counts = []
        for r in radii:
            builds.clear()
            got = _greedy_net(pts, r, order)
            assert np.array_equal(got, brute_force_net(pts, r, order))
            counts.append((len(got), len(builds)))
        assert counts[0][0] == len(pts) and counts[-1][0] == 1
        assert max(n_builds for _, n_builds in counts) > 1

    def test_cell_keys_hold_no_copy_of_the_states(self, rng):
        # above d = 3 the axes come from the Gram matrix of the centred
        # states and the norms from row dot products: no (n, d) temporary
        pts = rng.normal(0, 1, (20_000, 50))
        tracemalloc.start()
        try:
            datasets._cell_keys(pts, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pts.nbytes / 4

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_brute_force_across_1e12(self, dim, rng):
        # clusters 1e-3 across spread over 1e12: cells of side r would need
        # 1e15 per axis, whose keys overflow int64 and whose indices round
        # by a tenth of a cell
        centres = rng.uniform(-5e11, 5e11, (40, 1, dim))
        pts = (centres + rng.normal(0, 1e-3, (40, 25, dim))).reshape(-1, dim)
        order = rng.permutation(len(pts))
        assert np.array_equal(_greedy_net(pts, 1e-3, order), brute_force_net(pts, 1e-3, order))

    @pytest.mark.parametrize("dim", [2, 3, 50])
    def test_matches_brute_force_at_radius_1e_9(self, dim, rng):
        # each state has a twin 0.5 r to 1.5 r away, among states spread
        # over about 8 per axis, 1e10 cells of side r
        r = 1e-9
        base = rng.normal(0, 1, (300, dim))
        step = rng.normal(0, 1, base.shape)
        step *= r * rng.uniform(0.5, 1.5, (300, 1)) / np.linalg.norm(step, axis=1, keepdims=True)
        pts = np.vstack([base, base + step])
        order = rng.permutation(len(pts))
        assert np.array_equal(_greedy_net(pts, r, order), brute_force_net(pts, r, order))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_on_a_chain_at_norm_1e3(self, seed):
        # A 50-D chain of states at norm ~905, each a few ulps inside the
        # radius-r ball around the next. Coordinates and steps are exact in
        # binary, so every gap squares to exactly 50 step**2, and the chain
        # is the top principal axis. Projecting a state onto it rounds by
        # about 1e-13, a hundredth of r.
        rng = np.random.default_rng(seed)
        step = 50 * 2.0**-45
        pts = (128.0 * rng.choice([-1.0, 1.0], 50)
               + np.arange(2000.0)[:, None] * step * rng.choice([-1.0, 1.0], 50))
        r = np.sqrt(50.0) * step * (1.0 + 4 * 2.0**-52)
        assert (((pts[1:] - pts[:-1]) ** 2).sum(axis=1) < r * r).all()
        order = rng.permutation(len(pts))
        assert np.array_equal(_greedy_net(pts, r, order), brute_force_net(pts, r, order))

    @pytest.mark.parametrize("seed", range(10))
    def test_states_just_inside_the_ball_are_deleted(self, seed):
        # 2000 states within 1e-15 relative inside the radius-r sphere around
        # the first pick, in 50 dimensions. The kd-tree sums squared
        # differences in another order than the exact d2 < r2 test and, at
        # the bare radius, leaves some of them alive in most seeds.
        rng = np.random.default_rng(seed)
        r = 1.0
        center = rng.normal(0, 1, 50)
        u = rng.normal(0, 1, (2000, 50))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        shell = center + u * (r * (1.0 - rng.uniform(0, 1e-15, (2000, 1))))
        shell = shell[((shell - center) ** 2).sum(axis=1) < r * r]
        states = np.vstack([center, shell])
        points = _greedy_net(states, r, np.arange(len(states)))
        assert_net(states, points, r)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=120),
        dim=st.integers(min_value=1, max_value=4),
        r=st.floats(min_value=0.05, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_net_invariants_property(self, n, dim, r, seed):
        pts = np.random.default_rng(seed).normal(0, 1, (n, dim))
        reps = representative_sample(pts, r, seed=seed)
        assert 1 <= reps.count <= n
        assert_net(pts, reps.points, r)

    def test_empty_input(self):
        reps = representative_sample(np.zeros((0, 3)), 0.5, seed=0)
        assert reps.count == 0


# sha256 of the little-endian float64 bytes of the representatives that the
# scan one pick at a time chose, recorded with NumPy 2.4.6 on x86_64. Both
# sets span many windows of the blocked scan: the 40,000 bistable3d states
# run in 86 blocks, 4 of them cut by the budget, and the 8,000 d = 50 states
# in 32 blocks, 18 of them cut.
PINNED_REPRESENTATIVES_SHA256 = {
    "bistable3d": "394d0e65406043381718ef3b2ff5e9069e6db7bb957707dc12524ae4d5dcabf1",
    "ginzburg_landau": "acf5870968827d40f59f18becf5ec7d57abdf52cc3bc1f5452e27f47bc33cd29",
}


class TestBlockedNet:
    @pytest.mark.parametrize("name, params, n, dt, horizon, radius, n_states", [
        ("bistable3d", {}, 400, 1e-2, 5.0, 0.1, 40_000),
        ("ginzburg_landau", {"I": 51}, 200, 1e-3, 0.2, 0.5, 8_000),
    ])
    def test_representatives_match_pinned_bytes(self, name, params, n, dt, horizon, radius,
                                                 n_states):
        states = generate(make_system(name, params), n, dt, horizon, 10, seed=5).states()
        assert len(states) == n_states
        points = representative_sample(states, radius, seed=3).points
        digest = hashlib.sha256(np.ascontiguousarray(points, dtype="<f8").tobytes()).hexdigest()
        assert digest == PINNED_REPRESENTATIVES_SHA256[name]

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9, 50])
    def test_matches_brute_force_across_windows(self, dim, rng):
        # radii at which a ball holds about 0.1%, 1% and 10% of the states
        n = 3 * datasets._NET_WINDOW + 100
        pts = rng.normal(0, 1, (n, dim))
        order = rng.permutation(n)
        for r in np.quantile(pairwise_distances(pts), [1e-3, 1e-2, 1e-1]):
            assert np.array_equal(_greedy_net(pts, r, order), brute_force_net(pts, r, order))

    @pytest.mark.parametrize("dim", [3, 50])
    def test_dense_cluster_cuts_the_block_to_one_candidate(self, dim, rng):
        # a cluster under r / 2 across lies in the grid rows of each of its
        # states, which then hold more than the budget's floats on their own
        r = 0.1
        size = datasets._NET_BUDGET // dim + 1
        cluster = rng.uniform(-0.2 * r, 0.2 * r, (size, dim)) / np.sqrt(dim)
        pts = np.vstack([cluster, rng.uniform(-5.0, 5.0, (300, dim))])
        order = rng.permutation(len(pts))
        got = _greedy_net(pts, r, order)
        assert np.array_equal(got, brute_force_net(pts, r, order))
        assert np.count_nonzero(np.abs(got).max(axis=1) < r) == 1

    def test_duplicates_conflict_and_states_r_apart_do_not(self, rng):
        # a 30 x 30 integer lattice, each state three times: at r = 1 a state
        # conflicts with its copies (distance 0), not with its neighbours
        # (d2 == r2)
        lattice = np.stack(np.meshgrid(np.arange(30.0), np.arange(30.0)), axis=-1)
        pts = np.repeat(lattice.reshape(-1, 2), 3, axis=0)
        order = rng.permutation(len(pts))
        for r in (1e-12, 1.0, 1.5):
            got = _greedy_net(pts, r, order)
            assert np.array_equal(got, brute_force_net(pts, r, order))
        assert len(_greedy_net(pts, 1.0, order)) == 900

    @settings(max_examples=50, deadline=None)
    @given(
        n_clusters=st.integers(min_value=1, max_value=30),
        per_cluster=st.integers(min_value=1, max_value=50),
        dim=st.sampled_from([1, 2, 3, 5, 50]),
        spread=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
        r=st.floats(min_value=0.01, max_value=2.0),
        window=st.integers(min_value=1, max_value=64),
        budget=st.integers(min_value=1, max_value=4096),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_brute_force_property(self, n_clusters, per_cluster, dim, spread, r,
                                          window, budget, seed):
        rng = np.random.default_rng(seed)
        centres = rng.uniform(-3.0, 3.0, (n_clusters, 1, dim))
        pts = (centres + rng.normal(0, spread, (n_clusters, per_cluster, dim))).reshape(-1, dim)
        order = rng.permutation(len(pts))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datasets, "_NET_WINDOW", window)
            mp.setattr(datasets, "_NET_BUDGET", budget)
            got = _greedy_net(pts, r, order)
        assert np.array_equal(got, brute_force_net(pts, r, order))

    def test_peak_is_the_index_and_one_block(self, rng):
        # 100k states in 200 clusters at the workloads' radius. The scan one
        # pick at a time peaked at 3.2 times the states here, most of it the
        # order as a list of Python ints; the blocked scan holds the cell
        # index and one block of at most the budget's differences.
        centres = rng.uniform(-2.0, 2.0, (200, 1, 3))
        pts = (centres + rng.normal(0, 0.05, (200, 500, 3))).reshape(-1, 3)
        order = rng.permutation(len(pts))
        tracemalloc.start()
        try:
            _greedy_net(pts, 0.1, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * pts.nbytes


def _save_small(kind, path):
    """Save a small QPTD dataset or QPRS set at ``path``; returns the
    function that loads it and the format's header struct."""
    rng = np.random.default_rng(0)
    if kind == "qptd":
        save_dataset(TrajectoryDataset(dt=0.1, x=rng.normal(0, 1, (4, 2)),
                                       x_next=rng.normal(0, 1, (4, 2)),
                                       traj_id=np.zeros(4, dtype=np.uint32), n_trajectories=1),
                     path)
        return load_dataset, datasets._QPTD_HEADER
    save_representatives(RepresentativeSet(rng.normal(0, 1, (3, 2)), 0.5), path)
    return load_representatives, datasets._QPRS_HEADER


class TestPersistence:
    def test_dataset_round_trip(self, small_bistable, tmp_path):
        path = tmp_path / "d.qptd"
        save_dataset(small_bistable, path)
        loaded = load_dataset(path)
        assert loaded.equals(small_bistable)
        assert loaded.metadata["system"] == "bistable3d"
        # second save is byte-identical
        save_dataset(loaded, tmp_path / "d2.qptd")
        assert (tmp_path / "d.qptd").read_bytes() == (tmp_path / "d2.qptd").read_bytes()

    def test_split_survives_round_trip(self, small_bistable, tmp_path):
        path = tmp_path / "d.qptd"
        save_dataset(small_bistable, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.split_labels(), small_bistable.split_labels())

    def test_corrupted_magic(self, small_bistable, tmp_path):
        path = tmp_path / "d.qptd"
        save_dataset(small_bistable, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_truncated_body(self, small_bistable, tmp_path):
        path = tmp_path / "d.qptd"
        save_dataset(small_bistable, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_decreasing_traj_id_rejected(self, small_bistable, tmp_path):
        tid = small_bistable.traj_id.copy()
        tid[121] = tid[120] - 1  # inside trajectory 2 of 50 pairs each
        bad = TrajectoryDataset(dt=small_bistable.dt, x=small_bistable.x,
                                x_next=small_bistable.x_next, traj_id=tid,
                                n_trajectories=small_bistable.n_trajectories)
        path = tmp_path / "d.qptd"
        save_dataset(bad, path)
        with pytest.raises(FormatError, match="pair 121"):
            load_dataset(path)

    def test_out_of_range_traj_id_rejected(self, tmp_path):
        # 12 single-pair trajectories stored with ids 1..12 instead of 0..11
        dataset = generate(make_system("bistable3d"), 12, 1e-2, 1e-2, 1, seed=0)
        bad = TrajectoryDataset(dt=dataset.dt, x=dataset.x, x_next=dataset.x_next,
                                traj_id=dataset.traj_id + 1, n_trajectories=12)
        path = tmp_path / "d.qptd"
        save_dataset(bad, path)
        with pytest.raises(FormatError, match="traj_id 12 at pair 11 is out of range"):
            load_dataset(path)

    @pytest.mark.parametrize("kept, missing", [([1, 1, 2, 3], 0), ([0, 1, 1, 3], 2),
                                               ([0, 0, 1, 2], 3), ([], 0)],
                             ids=["first", "middle", "last", "no_pairs"])
    def test_trajectory_without_pairs_rejected(self, kept, missing, tmp_path):
        # rollouts take each trajectory's first state, so such a file used
        # to end train and eval in an IndexError
        tid = np.array(kept, dtype=np.uint32)
        bad = TrajectoryDataset(dt=1e-2, x=np.zeros((len(tid), 2)), x_next=np.ones((len(tid), 2)),
                                traj_id=tid, n_trajectories=4)
        path = tmp_path / "d.qptd"
        save_dataset(bad, path)
        with pytest.raises(FormatError, match=f"trajectory {missing} of 4 has no pairs"):
            load_dataset(path)

    def test_load_holds_little_more_than_the_dataset(self, tmp_path, rng):
        n = 60_000
        dataset = TrajectoryDataset(dt=0.1, x=rng.normal(0, 1, (n, 3)),
                                    x_next=rng.normal(0, 1, (n, 3)),
                                    traj_id=np.repeat(np.arange(600, dtype=np.uint32), 100),
                                    n_trajectories=600)
        path = tmp_path / "d.qptd"
        save_dataset(dataset, path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.equals(dataset)
        assert peak < 1.3 * (loaded.x.nbytes + loaded.x_next.nbytes + loaded.traj_id.nbytes)

    def test_save_writes_whole_records_in_blocks(self, tmp_path, rng):
        # twelve blocks of records: the file is the record array built
        # whole, and saving holds about one block of it at a time
        block_rows = datasets._BLOCK_BYTES // datasets._pair_dtype(3).itemsize
        n = 12 * block_rows + 7
        dataset = split(TrajectoryDataset(dt=0.1, x=rng.normal(0, 1, (n, 3)),
                                          x_next=rng.normal(0, 1, (n, 3)),
                                          traj_id=np.repeat(np.arange(n // 100 + 1,
                                                                      dtype=np.uint32),
                                                            100)[:n],
                                          n_trajectories=n // 100 + 1), seed=3)
        path = tmp_path / "d.qptd"
        tracemalloc.start()
        try:
            save_dataset(dataset, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rec = np.empty(n, dtype=datasets._pair_dtype(3))
        rec["tid"], rec["x"], rec["y"] = dataset.traj_id, dataset.x, dataset.x_next
        header = datasets._QPTD_HEADER.pack(datasets.QPTD_MAGIC, datasets.FILE_VERSION, 3,
                                            n, dataset.n_trajectories, 0.1)
        assert path.read_bytes() == header + rec.tobytes()
        assert peak < 2 * datasets._BLOCK_BYTES + 64 * 1024

    def test_empty_dataset_round_trip(self, tmp_path):
        empty = TrajectoryDataset(dt=0.1, x=np.zeros((0, 2)), x_next=np.zeros((0, 2)),
                                  traj_id=np.zeros(0, dtype=np.uint32), n_trajectories=0)
        path = tmp_path / "empty.qptd"
        save_dataset(empty, path)
        loaded = load_dataset(path)
        assert loaded.n_pairs == 0
        assert loaded.dim == 2

    def test_representatives_round_trip(self, tmp_path, rng):
        reps = RepresentativeSet(points=rng.normal(0, 1, (17, 4)), radius=0.3)
        path = tmp_path / "r.qprs"
        save_representatives(reps, path)
        loaded = load_representatives(path)
        assert np.array_equal(loaded.points, reps.points)
        assert loaded.radius == 0.3

    def test_representatives_load_holds_only_the_points(self, tmp_path, rng):
        reps = RepresentativeSet(points=rng.normal(0, 1, (40_000, 5)), radius=0.3)
        path = tmp_path / "r.qprs"
        save_representatives(reps, path)
        tracemalloc.start()
        try:
            loaded = load_representatives(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.points, reps.points)
        assert peak < 1.1 * reps.points.nbytes

    @pytest.mark.parametrize("cut", [3, 8 * 5 * 3])
    def test_representatives_truncated_body(self, tmp_path, rng, cut):
        path = tmp_path / "r.qprs"
        save_representatives(RepresentativeSet(rng.normal(0, 1, (7, 5)), 0.5), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - cut])
        with pytest.raises(FormatError, match=f"body has {7 * 5 * 8 - cut} bytes, "
                                              f"expected {7 * 5 * 8}"):
            load_representatives(path)

    def test_representatives_bad_magic(self, tmp_path, rng):
        path = tmp_path / "r.qprs"
        save_representatives(RepresentativeSet(rng.normal(0, 1, (3, 2)), 0.5), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"QQQQ"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_representatives(path)

    @pytest.mark.parametrize("size", ["empty", "one_byte_short"])
    @pytest.mark.parametrize("kind", ["qptd", "qprs"])
    def test_file_shorter_than_its_header(self, kind, size, tmp_path):
        path = tmp_path / f"f.{kind}"
        load, header = _save_small(kind, path)
        path.write_bytes(path.read_bytes()[: 0 if size == "empty" else header.size - 1])
        with pytest.raises(FormatError, match="truncated header"):
            load(path)

    @pytest.mark.parametrize("kind", ["qptd", "qprs"])
    def test_unsupported_version(self, kind, tmp_path):
        path = tmp_path / f"f.{kind}"
        load, _ = _save_small(kind, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 2)  # the version follows the 4-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unsupported version 2"):
            load(path)

    def test_generation_files_bit_deterministic(self, tmp_path):
        system = make_system("limitcycle2d")
        for name in ("a", "b"):
            dataset = generate(system, 12, 1e-2, 0.5, 5, seed=9)
            split(dataset, seed=2)
            save_dataset(dataset, tmp_path / f"{name}.qptd")
        assert (tmp_path / "a.qptd").read_bytes() == (tmp_path / "b.qptd").read_bytes()
        assert (tmp_path / "a.qptd.json").read_bytes() == (tmp_path / "b.qptd.json").read_bytes()
