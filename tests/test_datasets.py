import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpland.datasets import (SPLIT_CODES, RepresentativeSet, TrajectoryDataset, _greedy_net,
                             generate, load_dataset, load_representatives,
                             representative_sample, save_dataset, save_representatives, split)
from qpland.errors import FormatError, NonFiniteError, QplandError
from qpland.integrators import OdeField
from qpland.systems import make_system


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
        from qpland.integrators import rollout

        system = make_system("bistable3d")
        tid, lefts, rights = small_bistable.trajectories()[0]
        cont = rollout(system.field, rights[0], 1e-2, 9)[-1]
        assert np.allclose(cont, lefts[1], rtol=0, atol=1e-14)

    def test_single_pair_boundary_case(self):
        dataset = generate(make_system("bistable3d"), 12, 1e-2, 1e-2, 1, seed=0)
        assert dataset.n_pairs == 12
        assert dataset.metadata["pairs_per_trajectory"] == 1

    def test_horizon_too_short_rejected(self):
        with pytest.raises(QplandError):
            generate(make_system("bistable3d"), 5, 1e-2, 1e-3, 10, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergent_trajectory_reports_index(self):
        blowup = OdeField(1, lambda s: s * s)

        class FakeSystem:
            dim = 1
            name = "blowup"
            params = {}
            field = blowup

            @staticmethod
            def sample(rng, n):
                return np.full((n, 1), 50.0)

        with pytest.raises(NonFiniteError) as exc:
            generate(FakeSystem(), 3, 0.5, 50.0, 1, seed=0)
        assert exc.value.index is not None

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

    @pytest.mark.parametrize("dim", [1, 3, 5, 9])
    def test_separation_and_coverage(self, dim, rng):
        # dim > 6 exercises the brute-force path, dim <= 6 the kd-tree path
        pts = rng.normal(0, 1, (2000, dim))
        r = 0.5
        reps = representative_sample(pts, r, seed=4)
        pp = reps.points
        d2 = ((pp[:, None, :] - pp[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() >= r * r  # pairwise separation >= r
        cover = ((pts[:, None, :] - pp[None, :, :]) ** 2).sum(-1).min(axis=1)
        assert (cover < r * r).all()  # every point inside some ball

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
        pp = reps.points
        assert 1 <= reps.count <= n
        if reps.count > 1:
            d2 = ((pp[:, None, :] - pp[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            assert d2.min() >= r * r
        cover = ((pts[:, None, :] - pp[None, :, :]) ** 2).sum(-1).min(axis=1)
        assert (cover < r * r).all()

    def test_empty_input(self):
        reps = representative_sample(np.zeros((0, 3)), 0.5, seed=0)
        assert reps.count == 0


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

    def test_empty_dataset_round_trip(self, tmp_path):
        empty = TrajectoryDataset(dt=0.1, x=np.zeros((0, 2)), x_next=np.zeros((0, 2)),
                                  traj_id=np.zeros(0, dtype=np.uint32), n_trajectories=0)
        path = tmp_path / "empty.qptd"
        save_dataset(empty, path)
        loaded = load_dataset(path)
        assert loaded.n_pairs == 0
        assert loaded.dim == 2

    def test_representatives_round_trip(self, tmp_path, rng):
        reps = RepresentativeSet(points=rng.normal(0, 1, (17, 4)), radius=0.3, seed=5)
        path = tmp_path / "r.qprs"
        save_representatives(reps, path)
        loaded = load_representatives(path)
        assert np.array_equal(loaded.points, reps.points)
        assert loaded.radius == 0.3

    def test_representatives_bad_magic(self, tmp_path, rng):
        path = tmp_path / "r.qprs"
        save_representatives(RepresentativeSet(rng.normal(0, 1, (3, 2)), 0.5, 0), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"QQQQ"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_representatives(path)

    def test_generation_files_bit_deterministic(self, tmp_path):
        system = make_system("limitcycle2d")
        for name in ("a", "b"):
            dataset = generate(system, 12, 1e-2, 0.5, 5, seed=9)
            split(dataset, seed=2)
            save_dataset(dataset, tmp_path / f"{name}.qptd")
        assert (tmp_path / "a.qptd").read_bytes() == (tmp_path / "b.qptd").read_bytes()
        assert (tmp_path / "a.qptd.json").read_bytes() == (tmp_path / "b.qptd.json").read_bytes()
