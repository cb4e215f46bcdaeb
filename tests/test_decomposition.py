import json

import numpy as np
import pytest

from qpland.decomposition import (CHECKPOINT_VERSION, AnalyticDecomposition,
                                  DecompositionModel, drift_with_tape, fit_center,
                                  floored_cosine, init_model, load_checkpoint,
                                  orthogonality_cosine, save_checkpoint)
from qpland.datasets import generate, split
from qpland.errors import ConfigError, DimensionMismatchError
from qpland.evaluation import export_landscape, make_grid, planar_slice
from qpland.integrators import rk4_step
from qpland.nets import Activation, Mlp, Workspace, forward, param_count
from qpland.systems import make_system


def zero_model(d=2, width=3):
    model = init_model(d, width, "tanh", seed=0)
    model.potential_net.params[:] = 0.0
    model.rotational_net.params[:] = 0.0
    return model


def random_model(act, rng):
    """A d = 3 model of width 10 with random parameters and center."""
    model = init_model(3, 10, act, seed=8)
    model.potential_net.params[:] = rng.normal(0, 0.5, model.potential_net.params.shape)
    model.rotational_net.params[:] = rng.normal(0, 0.5, model.rotational_net.params.shape)
    model.center = rng.normal(0, 1, 3)
    return model


@pytest.fixture
def exact_bistable():
    return AnalyticDecomposition.from_system(make_system("bistable3d"))


class TestInit:
    def test_parameter_counts_for_paper_architecture(self):
        model = init_model(3, 50, "tanh", seed=1)
        assert model.potential_net.params.size == 2801
        assert model.rotational_net.params.size == 2903
        assert param_count(3, (50, 50), 1) == 2801
        assert param_count(3, (50, 50), 3) == 2903

    def test_same_seed_bit_identical(self):
        a = init_model(4, 12, "relu2", seed=99)
        b = init_model(4, 12, "relu2", seed=99)
        assert np.array_equal(a.potential_net.params, b.potential_net.params)
        assert np.array_equal(a.rotational_net.params, b.rotational_net.params)
        assert np.array_equal(a.center, np.zeros(4))

    def test_zero_dims_rejected(self):
        with pytest.raises(ConfigError):
            init_model(0, 10, "tanh", seed=0)
        with pytest.raises(ConfigError):
            init_model(3, 0, "tanh", seed=0)

    def test_relu2_potential_rejected(self):
        # the potential net must stay tanh: a relu^2 Vhat has unbounded
        # gradient and would break the built-in radial confinement
        pot = Mlp(2, (3, 3), 1, Activation.RELU_SQUARED, np.zeros(param_count(2, (3, 3), 1)))
        rot = Mlp(2, (3, 3), 2, Activation.TANH, np.zeros(param_count(2, (3, 3), 2)))
        with pytest.raises(ConfigError):
            DecompositionModel(pot, rot, np.zeros(2))


class TestPotential:
    def test_zero_net_is_pure_quadratic(self):
        model = zero_model()
        assert model.potential(np.array([1.0, 1.0])) == 2.0

    def test_centering_shifts_minimum(self):
        model = zero_model()
        model.center = np.array([1.0, 1.0])
        assert model.potential(np.array([1.0, 1.0])) == 0.0

    def test_network_part_matches_forward(self, rng):
        model = init_model(3, 8, "tanh", seed=5)
        model.potential_net.params[:] = rng.normal(0, 0.5, model.potential_net.params.shape)
        model.center = rng.normal(0, 1, 3)
        x = rng.normal(0, 1, (10, 3))
        xt = x - model.center
        vhat = model.potential(x) - np.square(xt).sum(axis=1)
        assert np.allclose(vhat, forward(model.potential_net, xt)[:, 0], rtol=1e-12, atol=1e-12)

    def test_fit_center_uses_mean(self, rng):
        model = zero_model(3)
        states = rng.normal(2.0, 1.0, (100, 3))
        fit_center(model, states)
        assert np.array_equal(model.center, states.mean(axis=0))

    def test_fit_center_on_a_split_has_the_bits_of_its_states_mean(self):
        dataset = split(generate(make_system("bistable3d"), 300, 1e-2, 0.5, 10, seed=1), seed=2)
        streamed, gathered = zero_model(3), zero_model(3)
        fit_center(streamed, dataset, "train")
        fit_center(gathered, dataset.states("train"))
        assert streamed.center.tobytes() == gathered.center.tobytes()


class TestDrift:
    def test_zero_nets_pure_gradient(self):
        model = zero_model()
        assert np.array_equal(model.drift(np.array([1.0, 2.0])), [-2.0, -4.0])

    def test_zero_at_center(self):
        model = zero_model()
        model.center = np.array([0.3, -0.4])
        assert np.array_equal(model.drift(model.center.copy()), np.zeros(2))

    def test_assembly_identity(self, rng):
        model = init_model(3, 10, "relu2", seed=8)
        model.potential_net.params[:] = rng.normal(0, 0.5, model.potential_net.params.shape)
        model.rotational_net.params[:] = rng.normal(0, 0.5, model.rotational_net.params.shape)
        x = rng.normal(0, 1, (20, 3))
        assert np.array_equal(model.drift(x),
                              -model.potential_gradient(x) + model.rotation(x))


    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    @pytest.mark.parametrize("shape", [(3,), (7, 3)], ids=["state", "batch"])
    def test_plain_in_place_and_taped_drift_agree_to_the_bit(self, act, shape, rng):
        model = random_model(act, rng)
        x = rng.normal(0, 1, shape)
        plain = model.drift(x)
        ws = Workspace()
        out = np.full(shape, np.nan)
        assert model.drift(x, out=out, workspace=ws) is out
        taped = np.full(np.atleast_2d(x).shape, np.nan)
        drift_with_tape(model, x, out=taped)
        assert plain.tobytes() == out.tobytes() == taped.reshape(shape).tobytes()
        # the drift prepared in the workspace runs again at other states
        x2 = x[::-1] + 0.5
        out2 = np.full(shape, np.nan)
        assert model.drift(x2, out=out2, workspace=ws).tobytes() == model.drift(x2).tobytes()
        assert out.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (7, 3)], ids=["state", "batch"])
    def test_without_out_a_new_array(self, shape, rng):
        model = random_model("tanh", rng)
        x = rng.normal(0, 1, shape)
        ws = Workspace()
        for kwargs in ({}, {"workspace": ws}):
            first = model.drift(x, **kwargs)
            kept = first.copy()
            second = model.drift(x + 0.5, **kwargs)
            assert first.shape == second.shape == shape
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, kept)

    def test_a_workspace_follows_the_model_it_runs(self, rng):
        # a drift prepared in a workspace is made again for another model or
        # for new parameter arrays; it reads the center and in-place updates
        models = [random_model("tanh", rng), random_model("relu2", rng)]
        x = rng.normal(0, 1, (5, 3))
        ws = Workspace()

        def check(model):
            assert model.drift(x, workspace=ws).tobytes() == model.drift(x).tobytes()

        for model in (*models, models[0]):
            check(model)
        model = models[0]
        model.center = model.center + 0.25
        check(model)
        model.potential_net.params *= 1.5
        check(model)
        model.rotational_net.params = 0.5 * model.rotational_net.params
        check(model)
        check(model.copy())

    def test_taped_drift_keeps_one_pass_per_shape_and_parameter_arrays(self, rng):
        # through one workspace part the tape is the same pass for the same
        # shape, a new one for a new shape or new parameter arrays, and each
        # call's drift and tape hold the bits of a fresh call
        model = random_model("relu2", rng)
        part = Workspace().part("A")
        x = rng.normal(0, 1, (7, 3))

        def taped(x):
            f, want = np.full(x.shape, np.nan), np.full(x.shape, np.nan)
            tape = drift_with_tape(model, x, out=f, workspace=part)
            fresh = drift_with_tape(model, x, out=want)
            assert f.tobytes() == want.tobytes()
            assert tape.grad_v.tobytes() == fresh.grad_v.tobytes()
            assert tape.g.tobytes() == fresh.g.tobytes()
            assert tape.pot_tape.hid[1].tobytes() == fresh.pot_tape.hid[1].tobytes()
            return tape

        tape = taped(x)
        assert taped(x + 0.5) is tape
        assert taped(x[:4]) is not tape
        assert taped(x) is tape
        model.potential_net.params = model.potential_net.params.copy()
        renewed = taped(x)
        assert renewed is not tape
        model.rotational_net.params = 2.0 * model.rotational_net.params
        assert taped(x) is not renewed

    def test_exact_drift_into_out(self, exact_bistable, rng):
        x = rng.uniform(-2, 2, (9, 3))
        out = np.full_like(x, np.nan)
        assert exact_bistable.drift(x, out=out, workspace=Workspace()) is out
        want = -exact_bistable.potential_gradient(x) + exact_bistable.rotation(x)
        assert out.tobytes() == want.tobytes() == exact_bistable.drift(x).tobytes()

    def test_wrong_width_rejected(self, rng):
        model = random_model("tanh", rng)
        for x in (np.zeros(4), np.zeros((2, 2)), np.zeros((2, 1, 3))):
            with pytest.raises(DimensionMismatchError):
                model.drift(x, workspace=Workspace())


class TestCosine:
    def test_degenerate_norm_guard(self):
        model = zero_model()
        # at the center grad V = 0 and g = 0: both norms under the floor
        assert orthogonality_cosine(model, np.zeros(2)) == 0.0

    def test_exact_decomposition_orthogonal(self, exact_bistable, rng):
        pts = rng.uniform(-2, 2, (500, 3))
        cos = orthogonality_cosine(exact_bistable, pts)
        assert np.abs(cos).max() <= 1e-12

    def test_known_cosine_value(self):
        fixture = AnalyticDecomposition(
            2,
            potential_fn=lambda x: x[..., 0],
            grad_v_fn=lambda x: np.broadcast_to([1.0, 0.0], x.shape).copy(),
            g_fn=lambda x: np.broadcast_to([1.0 / np.sqrt(2), 1.0 / np.sqrt(2)], x.shape).copy(),
        )
        cos = orthogonality_cosine(fixture, np.zeros(2))
        assert cos == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_safe_cosine_batch(self, rng):
        u = rng.normal(0, 1, (50, 3))
        g = rng.normal(0, 1, (50, 3))
        cos = floored_cosine(u, g)[0]
        assert (np.abs(cos) <= 1.0 + 1e-15).all()

    def test_floor_masks_rows_and_floors_norms(self):
        u = np.array([[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0]])
        g = np.array([[4.0, -3.0], [1.0, 0.0], [1.0, 0.0]])
        cos, ok, nu, ng = floored_cosine(u, g)
        assert ok.tolist() == [True, False, False]
        assert cos.tolist() == [0.0, 0.0, 0.0]
        assert nu.tolist() == [5.0, 1.0, 1.0]
        assert ng.tolist() == [5.0, 1.0, 1.0]
        assert np.array_equal(floored_cosine(u, g)[0], cos)


class TestLandscape:
    # the one offset convention: C = 2 min V over the evaluated points
    def test_offset_makes_grid_minimum_zero(self, rng):
        model = init_model(2, 6, "tanh", seed=3)
        model.potential_net.params[:] = rng.normal(0, 0.5, model.potential_net.params.shape)
        spec = planar_slice(2, (0, 1), {}, [[-2.0, 2.0], [-2.0, 2.0]], (20, 20))
        grid = export_landscape(model, spec)
        assert grid.values.min() == 0.0
        assert (grid.values >= 0).all()
        ab, _ = make_grid(spec.box, spec.resolution)
        v = model.potential(spec.to_state(ab))
        assert np.array_equal(grid.values, (2.0 * v - 2.0 * v.min()).reshape(20, 20))

    def test_landscape_is_twice_potential_minus_offset(self, exact_bistable):
        # states (0, 0, 0) and (1, 0, 0); min V = 0 at the attractor, so C = 0
        spec = planar_slice(3, (0, 1), {2: 0.0}, [[0.0, 1.0], [0.0, 0.0]], (2, 1))
        grid = export_landscape(exact_bistable, spec)
        v = exact_bistable.potential(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert np.array_equal(grid.values.ravel(), 2.0 * v - 2.0 * v.min())
        assert grid.values[0, 0] == pytest.approx(1.0, abs=1e-15)  # U(origin) = 1
        assert grid.values[1, 0] == 0.0


def vhat_bound(model):
    """A rigorous bound on |Vhat|: tanh hidden activations lie in [-1, 1], so
    the output is at most the l1 norm of the last layer's weights plus bias."""
    w, b = model.potential_net.layers()[-1]
    return float(np.abs(w).sum() + np.abs(b).sum())


class TestRadialUnboundedness:
    def test_quadratic_dominates_at_large_radius(self, rng):
        model = init_model(3, 20, "tanh", seed=7)
        model.potential_net.params[:] = rng.normal(0, 1.0, model.potential_net.params.shape)
        model.center = rng.normal(0, 1, 3)
        bound = vhat_bound(model)
        radius = 20.0  # 10x a typical data radius
        dirs = rng.normal(0, 1, (64, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals = model.potential(model.center + radius * dirs)
        assert (vals >= radius**2 - bound - 1e-9).all()

    def test_bound_is_valid_for_random_inputs(self, rng):
        model = init_model(2, 16, "tanh", seed=11)
        model.potential_net.params[:] = rng.normal(0, 1.5, model.potential_net.params.shape)
        bound = vhat_bound(model)
        xt = rng.normal(0, 50, (500, 2))
        vhat = forward(model.potential_net, xt)[:, 0]
        assert (np.abs(vhat) <= bound + 1e-12).all()


class TestLyapunovDescent:
    def test_exact_decomposition_descends_along_rk4_rollouts(self, exact_bistable, rng):
        # exact orthogonality makes V a Lyapunov function; discrete steps may
        # go uphill only at roundoff level
        for _ in range(5):
            x0 = rng.uniform([-2, -1.5, -1.5], [2, 1.5, 1.5])
            states = [x0]
            for _ in range(500):
                states.append(rk4_step(lambda s, out=None: exact_bistable.drift(s),
                                       states[-1], 1e-2))
            v = exact_bistable.potential(np.array(states))
            assert np.diff(v).max() <= 1e-10


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = init_model(3, 9, "relu2", seed=21)
        model.potential_net.params[:] = rng.normal(0, 0.8, model.potential_net.params.shape)
        model.rotational_net.params[:] = rng.normal(0, 0.8, model.rotational_net.params.shape)
        model.center = rng.normal(0, 1, 3)
        path = tmp_path / "model.json"
        save_checkpoint(path, model, training_config_echo={"note": "test"})
        loaded, echo = load_checkpoint(path)
        assert np.array_equal(loaded.potential_net.params, model.potential_net.params)
        assert np.array_equal(loaded.rotational_net.params, model.rotational_net.params)
        assert np.array_equal(loaded.center, model.center)
        assert loaded.rotational_net.activation is Activation.RELU_SQUARED
        assert echo == {"note": "test"}

    @pytest.mark.parametrize("offset", [None, 1.25])
    def test_legacy_offset_field_ignored(self, tmp_path, offset):
        # older checkpoints carry "offset_C"; they load, and the key is ignored
        model = init_model(2, 4, "tanh", seed=0)
        path = tmp_path / "m.json"
        payload = save_checkpoint(path, model)
        assert payload["version"] == CHECKPOINT_VERSION == 1
        assert "offset_C" not in payload
        path.write_text(json.dumps({**payload, "offset_C": offset}), encoding="utf-8")
        loaded, echo = load_checkpoint(path)
        assert np.array_equal(loaded.potential_net.params, model.potential_net.params)
        assert np.array_equal(loaded.rotational_net.params, model.rotational_net.params)
        assert echo == {}

    def test_invalid_file_raises_format_error(self, tmp_path):
        from qpland.errors import FormatError

        bad = tmp_path / "bad.json"
        bad.write_text("not json at all {", encoding="utf-8")
        with pytest.raises(FormatError):
            load_checkpoint(bad)
        bad.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(FormatError):
            load_checkpoint(bad)
