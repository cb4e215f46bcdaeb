import tracemalloc

import numpy as np
import pytest

from qpland.datasets import RepresentativeSet, generate, load_dataset, save_dataset, split
from qpland.decomposition import AnalyticDecomposition, init_model, orthogonality_cosine
from qpland.errors import QplandError
from qpland.evaluation import (_CHUNK, _equal_arclength, arc_length, build_report, make_grid,
                               quasipotential_errors, rollout_errors_against_reference,
                               rollout_reference, write_csv)
from qpland.systems import make_system, rhs_bistable3d


@pytest.fixture
def exact_bistable():
    return AnalyticDecomposition.from_system(make_system("bistable3d"))


class TestQuasipotentialErrors:
    def test_exact_model_scores_zero(self, exact_bistable):
        points, _ = make_grid([[-2.0, 2.0], [-1.5, 1.5], [-1.5, 1.5]], 7)
        system = make_system("bistable3d")
        assert quasipotential_errors(exact_bistable, system.exact_u, points) == (0.0, 0.0)

    def test_one_point_grid_rejected(self, exact_bistable):
        # a one-point grid is a valid make_grid result, but the exact
        # landscape, pinned to its minimum there, is identically zero
        points, _ = make_grid([[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]], 1)
        assert points.shape == (1, 3)
        system = make_system("bistable3d")
        with pytest.raises(QplandError, match="zero norm"):
            quasipotential_errors(exact_bistable, system.exact_u, points)

    def test_constant_exact_landscape_rejected(self):
        class Unrun:
            """A model that must not run: the exact landscape is checked first."""

            def potential(self, x, workspace=None):
                raise AssertionError("the model ran")

        points, _ = make_grid([[-1.0, 1.0]] * 3, 4)
        with pytest.raises(QplandError) as exc:
            quasipotential_errors(Unrun(), lambda x: np.full(len(x), 3.0), points)
        assert str(exc.value) == ("the exact landscape has zero norm on the 64 grid points "
                                  "(constant there); rRMSE and rMAE are undefined")

    def test_exact_landscape_is_evaluated_a_chunk_at_a_time(self, exact_bistable):
        rows = []

        def exact_u(x):
            rows.append(len(x))
            return make_system("bistable3d").exact_u(x)

        points, _ = make_grid([[-2.0, 2.0], [-1.5, 1.5], [-1.5, 1.5]], 25)
        assert quasipotential_errors(exact_bistable, exact_u, points) == (0.0, 0.0)
        assert max(rows) == _CHUNK

    def test_peak_is_one_landscape(self):
        # the grid spans more than four chunks; the learned landscape is the
        # one array of its size, and the exact one is held a chunk at a time
        model = init_model(3, 8, "tanh", seed=4)
        exact_u = make_system("bistable3d").exact_u
        points, _ = make_grid([[-2.0, 2.0], [-1.5, 1.5], [-1.0, 1.0]], 60)
        assert len(points) > 4 * _CHUNK
        landscape = 8 * len(points)
        tracemalloc.start()
        try:
            quasipotential_errors(model, exact_u, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * landscape

    def test_same_bits_as_whole_array_expressions(self):
        # the reference takes every step as a plain expression on full-size
        # temporaries; the grid spans two chunks, the second one partial
        model = init_model(3, 8, "tanh", seed=4)
        model.center = np.array([0.3, -0.2, 0.1])
        exact_u = make_system("bistable3d").exact_u
        points, _ = make_grid([[-2.0, 2.0], [-1.5, 1.5], [-1.0, 1.0]], [23, 21, 29])
        assert len(points) > _CHUNK and len(points) % _CHUNK
        starts = range(0, len(points), _CHUNK)
        u_learned = 2.0 * np.concatenate([model.potential(points[i : i + _CHUNK])
                                          for i in starts])
        u_learned -= u_learned.min()
        u_exact = np.concatenate([exact_u(points[i : i + _CHUNK]) for i in starts])
        u_exact = u_exact - u_exact.min()
        diff = u_learned - u_exact
        want = (float(np.sqrt((diff * diff).sum()) / np.sqrt((u_exact * u_exact).sum())),
                float(np.abs(diff).sum() / np.abs(u_exact).sum()))
        got = quasipotential_errors(model, exact_u, points)
        assert [v.hex() for v in got] == [v.hex() for v in want]


class TestMakeGrid:
    @pytest.mark.parametrize("box,resolution", [
        ([[-1.0, 2.0]], [7]),
        ([[-1.0, 1.0], [0.0, 3.0]], [4, 6]),
        ([[-1.0, 1.0], [0.0, 3.0], [-0.5, 0.5]], [3, 5, 2]),
    ], ids=["1d", "2d", "3d"])
    def test_equals_meshgrid_stack(self, box, resolution):
        axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, resolution)]
        want = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        points, got_axes = make_grid(box, resolution)
        assert np.array_equal(points, want)
        assert points.flags.c_contiguous
        assert all(np.array_equal(a, b) for a, b in zip(got_axes, axes, strict=True))

    def test_one_resolution_for_every_axis(self):
        points, axes = make_grid([[-1.0, 1.0], [0.0, 2.0], [0.0, 1.0]], 3)
        assert points.shape == (27, 3)
        assert [a.tolist() for a in axes] == [[-1.0, 0.0, 1.0], [0.0, 1.0, 2.0],
                                              [0.0, 0.5, 1.0]]

    @pytest.mark.parametrize("box,resolution", [
        ([[-1.0, 1.0]] * 3, [5, 5]),
        ([[-1.0, 1.0]] * 2, [5, 5, 5]),
        ([-1.0, 1.0], 5),
        ([[-1.0, 0.0, 1.0]] * 2, 5),
    ], ids=["short_resolution", "long_resolution", "flat_box", "three_column_box"])
    def test_box_and_resolution_must_agree(self, box, resolution):
        # the resolution used to be zipped with the box, dropping axes
        with pytest.raises(QplandError, match="grid"):
            make_grid(box, resolution)


class TestArcLength:
    def test_cumulative_lengths(self):
        path = np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 4.0], [3.0, 5.0]])
        assert arc_length(path).tolist() == [0.0, 5.0, 5.0, 6.0]

    def test_equal_arclength_spacing(self):
        images = np.array([[0.0, 0.0], [0.1, 0.0], [2.0, 0.0]])
        out = _equal_arclength(images)
        assert out.tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]

    def test_coincident_endpoints_left_untouched(self):
        images = np.zeros((4, 2))
        assert _equal_arclength(images) is images


class FixedStarts:
    """bistable3d started from given states; the origin is an equilibrium."""

    dim = 3
    name = "bistable3d"
    params = {}
    extras = {}
    field = staticmethod(rhs_bistable3d)

    def __init__(self, starts):
        self.starts = np.asarray(starts, dtype=np.float64)

    def sample(self, rng, n):
        return self.starts[:n].copy()


class TestRolloutReference:
    def test_matches_stored_trajectories(self):
        dataset = split(generate(make_system("bistable3d"), 12, 1e-2, 0.5, 5, seed=0), seed=1)
        x0, refs, stride = rollout_reference(dataset, "train", max_trajectories=3)
        trajs = dataset.trajectories("train")[:3]
        assert stride == 5
        assert refs.shape == (9, 3, 3)  # (comparison times, trajectories, d)
        for k, (_, lefts, _) in enumerate(trajs):
            assert np.array_equal(x0[k], lefts[0])
            assert np.array_equal(refs[:, k], lefts[1:])
        x0_all, _, _ = rollout_reference(dataset, "train")
        assert len(x0_all) == len(dataset.trajectories("train"))

    def test_none_without_trajectories(self):
        dataset = split(generate(make_system("bistable3d"), 10, 1e-2, 0.5, 5, seed=0), seed=1)
        assert rollout_reference(dataset, "val", max_trajectories=0) is None

    def test_dataset_without_its_sidecar_is_rejected(self, exact_bistable, tmp_path):
        # without the sidecar's m the stored states, m steps apart, would be
        # compared against rollouts of one step each
        path = tmp_path / "d.qptd"
        save_dataset(generate(make_system("bistable3d"), 10, 1e-2, 0.5, 5, seed=0), path)
        (tmp_path / "d.qptd.json").unlink()
        loaded = load_dataset(path)
        with pytest.raises(QplandError, match="no stride 'm'"):
            build_report(exact_bistable, dataset=loaded, split=None)

    def test_zero_norm_reference_rejected_with_index(self, exact_bistable):
        x0 = np.array([[0.5, 0.2, 0.0], [0.0, 0.0, 0.0]])
        refs = np.zeros((3, 2, 3))
        refs[:, 0] = [0.6, 0.1, 0.0]
        with pytest.raises(QplandError, match="trajectory 1 has zero norm"):
            rollout_errors_against_reference(exact_bistable, x0, refs, 1e-2, 1)

    def test_report_rejects_a_trajectory_at_the_origin(self, exact_bistable):
        # the origin is a fixed point, so its stored reference is all zero;
        # the report names it instead of counting it as diverged
        starts = [[0.5, 0.2, 0.0], [0.0, 0.0, 0.0], [-0.5, 0.0, 0.3]]
        dataset = generate(FixedStarts(starts), 3, 1e-2, 0.5, 5, seed=0)
        assert not dataset.trajectories()[1][1].any()
        with pytest.raises(QplandError, match="trajectory 1 has zero norm"):
            build_report(exact_bistable, dataset=dataset, split=None)


class TestReportCosines:
    def test_chunked_cosines_have_the_whole_array_bits_and_a_chunk_of_tape(self, rng):
        # six chunks, the last one partial; the whole-array call's peak is
        # the tape of every representative at once
        model = init_model(3, 8, "tanh", seed=2)
        model.center = np.array([0.1, -0.3, 0.2])
        points = rng.normal(0.0, 1.0, (5 * _CHUNK + 5, 3))
        tracemalloc.start()
        try:
            whole = np.abs(orthogonality_cosine(model, points))
            whole_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = build_report(model, representatives=RepresentativeSet(points, 0.1))
            report_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cos_mean_abs.hex() == float(whole.mean()).hex()
        assert report.cos_max_abs.hex() == float(whole.max()).hex()
        assert report_peak < whole_peak / 2


class TestWriteCsv:
    def test_ints_as_str_everything_else_as_float_repr(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("step", "a", "b"), [(3, np.float64(-2.0), 0.1), (4, np.nan, 1)])
        assert path.read_text(encoding="utf-8") == "step,a,b\n3,-2.0,0.1\n4,nan,1\n"
