import hashlib
import tracemalloc
import warnings

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


def rollout_case(d, act, k):
    """An untrained model (width 16, or 50 at d = 50) with its center off the
    origin, ``k`` starts and references at six comparison times."""
    model = init_model(d, 50 if d == 50 else 16, act, seed=d + k)
    rng = np.random.default_rng(100 * d + k)
    model.center = rng.normal(0.0, 0.3, d)
    return model, rng.normal(0.0, 1.0, (k, d)), rng.normal(0.0, 1.0, (6, k, d))


def exact_case(system, k):
    """The exact decomposition of ``system`` (V = E, g = 0 for the gradient
    system ``ginzburg_landau``, as the benchmark scores it), ``k`` sampled
    starts and references at six comparison times."""
    rng = np.random.default_rng(k)
    return (AnalyticDecomposition.from_system(system), system.sample(rng, k),
            rng.normal(0.0, 1.0, (6, k, system.dim)))


# (model, x0, refs), dt, stride, dt_eval
ROLLOUT_CASES = {
    "d3-tanh-k1": (lambda: rollout_case(3, "tanh", 1), 1e-2, 5, None),
    "d3-relu2-k4": (lambda: rollout_case(3, "relu2", 4), 1e-2, 5, None),
    "d3-tanh-k4-half-dt": (lambda: rollout_case(3, "tanh", 4), 1e-2, 5, 5e-3),
    "d50-tanh-k3": (lambda: rollout_case(50, "tanh", 3), 1e-3, 10, None),
    "d50-relu2-k30": (lambda: rollout_case(50, "relu2", 30), 1e-3, 10, None),
    "d50-tanh-k3-half-dt": (lambda: rollout_case(50, "tanh", 3), 1e-3, 10, 5e-4),
    "exact-bistable3d-k5": (lambda: exact_case(make_system("bistable3d"), 5), 1e-2, 5, None),
    "exact-gl50-k3": (lambda: exact_case(make_system("ginzburg_landau", {"I": 51}), 3),
                      1e-3, 10, None),
}

# sha256 of each case's errors as little-endian float64
PINNED_ROLLOUTS = {
    "d3-relu2-k4": "708401df6f6e23072ed28fb6d355d02937403a000545fa9a17b14ec347892b19",
    "d3-tanh-k1": "db7918106fe87df2c1660fc1be0e45637d102781a0dd656b4b96d6ad6b13a4b5",
    "d3-tanh-k4-half-dt": "e8df4925ade4b1bfd50595688845bfeaa8a615dab6f70ccfc4e3536e0ff4824d",
    "d50-relu2-k30": "c0eed40875bc731cdad6dfd10fe5fa374c2ec9837b6fc0ba071ea50b1d2294d2",
    "d50-tanh-k3": "7bf39af91303f78fd85a181238bb2547b45bc06e871ed182b5388f7108333cba",
    "d50-tanh-k3-half-dt": "81ed72173597da60dda5e5a8b0f033b508caa499ba7b7ff1ea459693fb3cea4f",
    "exact-bistable3d-k5": "5f59f12058d15d32eea2430d68808c2bda7d4734b4c6989e6bb43533f23150d4",
    "exact-gl50-k3": "612cd4260228902a37244bb4a0be3a7dfa3da23f54c16d5edbb819216eada397",
}


class TestRolloutPins:
    """Rollout errors pinned to the bit: a change that moves one Heun step or
    one drift evaluation by an ulp changes these digests."""

    @pytest.mark.parametrize("name", sorted(ROLLOUT_CASES))
    def test_pinned(self, name):
        build, dt, stride, dt_eval = ROLLOUT_CASES[name]
        model, x0, refs = build()
        errs = rollout_errors_against_reference(model, x0, refs, dt, stride, dt_eval)
        assert np.isfinite(errs).all()
        digest = hashlib.sha256(errs.astype("<f8").tobytes()).hexdigest()
        assert digest == PINNED_ROLLOUTS[name]

    def test_diverged_trajectory_reports_inf_without_a_warning(self):
        # the ReLU^2 drift grows quadratically: the first start, ten times
        # farther out, overflows, and the others keep their finite errors
        model, x0, refs = rollout_case(3, "relu2", 4)
        model.rotational_net.params *= 2.0
        x0[0] *= 10.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errs = rollout_errors_against_reference(model, x0, refs, 0.1, 5)
        assert [float(v).hex() for v in errs] == [
            "inf", "0x1.f5cc3e53e4293p-1", "0x1.08171ae564690p+0", "0x1.045eee34c6a0dp+0"]


class WatchedDrift:
    """A model whose drift runs ``model.drift`` and, once the first Heun
    step (two calls) is done, resets the peak of the traced memory and
    records the memory traced at that point in ``base``."""

    def __init__(self, model):
        self.model, self.calls, self.base = model, 0, None

    def drift(self, x, *, out=None, workspace=None):
        f = self.model.drift(x, out=out, workspace=workspace)
        self.calls += 1
        if self.calls == 2:
            tracemalloc.reset_peak()
            self.base = tracemalloc.get_traced_memory()[0]
        return f


class TestRolloutMemory:
    def test_steps_after_the_first_allocate_no_state(self):
        # 30 states of d = 50, as the gl50 benchmark rolls out. After the
        # first Heun step only transients stay: NumPy's buffer for a
        # broadcast operand, at most one state's size; a drift or a step
        # that allocated its arrays would hold several states at once
        model, x0, _ = rollout_case(50, "tanh", 30)
        peaks = {}
        for comparisons in (2, 20):
            refs = np.random.default_rng(comparisons).normal(0.0, 1.0, (comparisons, 30, 50))
            watched = WatchedDrift(model)
            tracemalloc.start()
            try:
                rollout_errors_against_reference(watched, x0, refs, 1e-3, 10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert watched.calls == 2 * 10 * comparisons
            assert peak - watched.base < 2 * x0.nbytes
            peaks[comparisons] = peak
        # ten times the steps, the same peak to within a few small objects
        assert peaks[20] < peaks[2] + x0.nbytes / 4


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
