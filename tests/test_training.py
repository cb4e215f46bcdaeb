import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpland import evaluation, training
from qpland.config import parse_config
from qpland.datasets import (RepresentativeSet, TrajectoryDataset, generate,
                             representative_sample, split)
from qpland.decomposition import (AnalyticDecomposition, ModelGrads, drift_with_tape,
                                  init_model)
from qpland.errors import ConfigError, NonFiniteError, QplandError, TrainingDivergedError
from qpland.nets import Workspace, forward, input_gradient
from qpland.systems import make_system
from qpland.training import (AdamState, LossConfig, TrainConfig, adam_step,
                             cosine_penalty, dyn_loss, huber, orth_loss, orth_loss_and_grad,
                             total_loss, total_loss_and_grad, train, write_history_csv)

from conftest import make_net


class Linear1d:
    """Tiny synthetic system xdot = a x for dataset generation in tests."""

    dim = 1
    name = "linear1d"

    def __init__(self, a=-2.0, lo=0.5, hi=2.0):
        self.a = a
        self.params = {"a": a}
        self.extras = {}
        self.field = lambda s, out=None: np.multiply(self.a, s, out=out)
        self._lo, self._hi = lo, hi

    def sample(self, rng, n):
        return rng.uniform(self._lo, self._hi, (n, 1))


def zero_drift_model(d=3):
    model = init_model(d, 4, "tanh", seed=0)
    model.potential_net.params[:] = 0.0
    model.rotational_net.params[:] = 0.0
    return model


@pytest.fixture(scope="module")
def bistable_data():
    dataset = generate(make_system("bistable3d"), 30, 1e-2, 5.0, 10, seed=2)
    return split(dataset, seed=4)


@pytest.fixture(scope="module")
def exact_bistable():
    return AnalyticDecomposition.from_system(make_system("bistable3d"))


class TestHuber:
    def test_quadratic_and_linear_regions(self):
        assert huber(np.array(0.5), 1.0) == 0.125
        assert huber(np.array(2.0), 1.0) == 1.5  # delta |e| - delta^2/2
        assert huber(np.array(0.0), 1.0) == 0.0

    def test_spec_vector_example(self):
        # e = (2, 0, 0), delta = 1: componentwise mean (1.5 + 0 + 0)/3
        assert huber(np.array([2.0, 0.0, 0.0]), 1.0).mean() == 0.5

    def test_continuity_at_threshold(self):
        eps = 1e-9
        below = huber(np.array(1.0 - eps), 1.0)
        above = huber(np.array(1.0 + eps), 1.0)
        assert abs(above - below) < 1e-8


class TestDynLoss:
    def test_crafted_residual_reproduces_huber_mean(self):
        # zero-net drift vanishes at the origin, so the Heun prediction is x
        # and the residual is -x_next/dt: pick x_next to make e = (2, 0, 0)
        model = zero_drift_model(3)
        dt = 0.1
        x = np.zeros((1, 3))
        x_next = np.array([[-2.0 * dt, 0.0, 0.0]])
        assert dyn_loss(model, x, x_next, dt, 1.0) == 0.5

    def test_zero_residual(self):
        model = zero_drift_model(2)
        x = np.zeros((4, 2))
        assert dyn_loss(model, x, x, 0.05, 1.0) == 0.0

    def test_exact_decomposition_at_truncation_level(self, bistable_data, exact_bistable):
        x, y = bistable_data.pairs(None)
        loss = dyn_loss(exact_bistable, x, y, bistable_data.dt, 1.0)
        assert loss <= 1e-5  # Heun-vs-RK4 one-step truncation at dt = 1e-2

    def test_nonfinite_pair_reports_index(self):
        model = zero_drift_model(2)
        x = np.zeros((3, 2))
        y = np.zeros((3, 2))
        y[1, 0] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            dyn_loss(model, x, y, 0.1, 1.0)
        assert exc.value.index == 1

    @pytest.mark.parametrize("grad", [False, True])
    def test_nonfinite_pair_in_a_later_block_reports_batch_index(self, grad):
        # row 700 of 1100 is row 188 of the second block
        model, x, y, dt, reps, cfg = loss_case(1100, 10, "tanh")
        y[700, 1] = np.nan
        with pytest.raises(NonFiniteError) as exc:
            if grad:
                total_loss_and_grad(model, x, y, dt, reps, cfg)
            else:
                dyn_loss(model, x, y, dt, cfg.huber_delta)
        assert exc.value.index == 700


class TestOrthLoss:
    @pytest.mark.parametrize("cos,expect", [(0.5, 0.25), (-0.5, 0.025), (0.0, 0.0)])
    def test_asymmetric_weight_values(self, cos, expect):
        assert cosine_penalty(np.array(cos), 0.1) == pytest.approx(expect, abs=1e-15)

    def test_constant_field_fixture(self):
        # grad V = (1, 0), g of unit norm at a chosen angle
        for cos, expect in ((0.5, 0.25), (-0.5, 0.025)):
            fixture = AnalyticDecomposition(
                2,
                potential_fn=lambda x: x[..., 0],
                grad_v_fn=lambda x: np.broadcast_to([1.0, 0.0], x.shape).copy(),
                g_fn=lambda x, c=cos: np.broadcast_to(
                    [c, np.sqrt(1 - c * c)], x.shape).copy(),
            )
            val = orth_loss(fixture, np.zeros((5, 2)), 0.1)
            assert val == pytest.approx(expect, abs=1e-12)

    def test_exact_decomposition_negligible(self, bistable_data, exact_bistable):
        reps = representative_sample(bistable_data.states("train"), 0.1, seed=1)
        assert orth_loss(exact_bistable, reps.points, 0.1) <= 1e-20

    def test_degenerate_points_contribute_zero(self):
        model = zero_drift_model(2)
        # grad V and g both vanish at the center
        assert orth_loss(model, np.zeros((3, 2)), 0.1) == 0.0


class TestTotalLoss:
    def test_lambda_zero_equals_dyn(self, bistable_data, exact_bistable):
        x, y = bistable_data.pairs("train")
        reps = representative_sample(bistable_data.states("train"), 0.3, seed=0)
        cfg0 = LossConfig(huber_delta=1.0, orth_weight=0.0, neg_cos_weight=0.1)
        assert total_loss(exact_bistable, x, y, bistable_data.dt, reps.points, cfg0) == \
            dyn_loss(exact_bistable, x, y, bistable_data.dt, 1.0)

    def test_doubling_lambda_is_linear(self, bistable_data):
        model = init_model(3, 6, "tanh", seed=3)
        model.potential_net.params[:] = np.random.default_rng(0).normal(0, 0.4, model.potential_net.params.shape)
        model.rotational_net.params[:] = np.random.default_rng(1).normal(0, 0.4, model.rotational_net.params.shape)
        x, y = bistable_data.pairs("train")
        reps = representative_sample(bistable_data.states("train"), 0.3, seed=0)
        args = (model, x[:100], y[:100], bistable_data.dt, reps.points)
        l1 = total_loss(*args, LossConfig(1.0, 1.0, 0.1))
        l2 = total_loss(*args, LossConfig(1.0, 2.0, 0.1))
        lo = orth_loss(model, reps.points, 0.1)
        assert l2 - l1 == pytest.approx(lo, rel=1e-12)


def assert_gradient_matches_fd(model, x, y, reps, cfg, dt=0.01):
    _, _, _, grads = total_loss_and_grad(model, x, y, dt, reps, cfg)
    for params, block in ((model.potential_net.params, grads.potential),
                          (model.rotational_net.params, grads.rotational)):
        fd = np.zeros_like(params)
        for i in range(len(params)):
            old = params[i]
            params[i] = old + 1e-5
            up = total_loss(model, x, y, dt, reps, cfg)
            params[i] = old - 1e-5
            dn = total_loss(model, x, y, dt, reps, cfg)
            params[i] = old
            fd[i] = (up - dn) / 2e-5
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(block - fd).max() / denom <= 1e-5


class TestGradients:
    def test_total_loss_gradient_matches_fd(self, rng):
        # exercises d/dtheta through the Heun step and through the cosine
        for trial in range(6):
            d = int(rng.integers(1, 4))
            act = "tanh" if trial % 2 == 0 else "relu2"
            model = init_model(d, 4, act, seed=trial)
            model.potential_net.params[:] = rng.normal(0, 0.5, model.potential_net.params.shape)
            model.rotational_net.params[:] = rng.normal(0, 0.5, model.rotational_net.params.shape)
            model.center = rng.normal(0, 0.2, d)
            x = rng.normal(0, 1, (5, d))
            y = x + 0.01 * rng.normal(0, 1, x.shape)
            reps = rng.normal(0, 1, (6, d))
            cfg = LossConfig(huber_delta=0.6, orth_weight=0.8, neg_cos_weight=0.1)
            assert_gradient_matches_fd(model, x, y, reps, cfg)

    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    def test_pure_quadratic_potential_matches_fd(self, rng, act):
        # Vhat == 0 leaves V = |x - center|^2: grad V = 2 (x - center) carries
        # no parameters, but its input adjoint still reaches the rotational
        # block through the Heun step and the cosine
        model = init_model(2, 4, act, seed=1)
        model.potential_net.params[:] = 0.0
        model.rotational_net.params[:] = rng.normal(0, 0.5, model.rotational_net.params.shape)
        model.center = np.array([0.1, -0.2])
        x = rng.normal(0, 1, (5, 2))
        assert np.array_equal(model.potential_gradient(x), 2.0 * (x - model.center))
        y = x + 0.01 * rng.normal(0, 1, x.shape)
        cfg = LossConfig(huber_delta=0.6, orth_weight=0.8, neg_cos_weight=0.1)
        assert_gradient_matches_fd(model, x, y, rng.normal(0, 1, (6, 2)), cfg)

    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    def test_orth_weight_zero_matches_fd(self, rng, act):
        # with lambda = 0 the gradient is the Heun-step term alone
        model = init_model(3, 4, act, seed=2)
        model.potential_net.params[:] = rng.normal(0, 0.5, model.potential_net.params.shape)
        model.rotational_net.params[:] = rng.normal(0, 0.5, model.rotational_net.params.shape)
        x = rng.normal(0, 1, (5, 3))
        y = x + 0.01 * rng.normal(0, 1, x.shape)
        cfg = LossConfig(huber_delta=0.6, orth_weight=0.0, neg_cos_weight=0.1)
        assert_gradient_matches_fd(model, x, y, rng.normal(0, 1, (6, 3)), cfg)


class TestOrthGradient:
    def test_relu2_rotation_matches_central_differences(self, rng):
        # tanh potential, relu2 rotation; every representative keeps |g| and
        # |grad V| at 1e-2 or more, far from the cosine's degeneracy floor
        model = init_model(3, 8, "relu2", seed=4)
        model.potential_net.params[:] = rng.normal(0, 0.5, model.potential_net.params.shape)
        model.rotational_net.params[:] = rng.normal(0, 0.5, model.rotational_net.params.shape)
        model.center = np.array([0.1, -0.2, 0.3])
        cand = rng.normal(0, 1, (200, 3))
        strong = ((np.linalg.norm(model.potential_gradient(cand), axis=1) >= 1e-2)
                  & (np.linalg.norm(model.rotation(cand), axis=1) >= 1e-2))
        reps = cand[strong][:20]
        assert len(reps) == 20

        grads = ModelGrads.zeros_like(model)
        orth_loss_and_grad(model, reps, 0.1, grads)
        dp = rng.normal(0, 1, model.potential_net.params.shape)
        dr = rng.normal(0, 1, model.rotational_net.params.shape)
        eps = 1e-6
        p0, r0 = model.potential_net.params.copy(), model.rotational_net.params.copy()
        losses = []
        for sign in (1.0, -1.0):
            model.potential_net.params[:] = p0 + sign * eps * dp
            model.rotational_net.params[:] = r0 + sign * eps * dr
            losses.append(orth_loss(model, reps, 0.1))
        fd = (losses[0] - losses[1]) / (2 * eps)
        analytic = grads.potential @ dp + grads.rotational @ dr
        assert analytic == pytest.approx(fd, rel=1e-5)


def loss_case(n_pairs, n_reps, act="relu2", seed=None):
    """A fixed model, pairs and representatives, with the orthogonality term
    on. With a ReLU^2 rotational net this is the arithmetic that the
    tanh-only training pin cannot see."""
    rng = np.random.default_rng(n_pairs * 1000 + n_reps if seed is None else seed)
    model = init_model(3, 16, act, seed=11)
    model.potential_net.params[:] = rng.normal(0, 0.25, model.potential_net.params.shape)
    model.rotational_net.params[:] = rng.normal(0, 0.25, model.rotational_net.params.shape)
    model.center = np.array([0.2, -0.1, 0.05])
    x = rng.normal(0, 1, (n_pairs, 3))
    y = x + 0.01 * rng.normal(0, 2, x.shape)
    reps = rng.normal(0, 1, (n_reps, 3))
    cfg = LossConfig(huber_delta=0.6, orth_weight=0.8, neg_cos_weight=0.1)
    return model, x, y, 0.01, reps, cfg


def sha256_f8(a):
    return hashlib.sha256(np.asarray(a).astype("<f8").tobytes()).hexdigest()


def assert_one_block(what, rows):
    """The pinned values below were recorded with each loss call in one
    block; a ``_BLOCK`` below ``rows`` sums them in blocks, which moves
    their rounding, and the pins would then need recording again."""
    assert rows <= training._BLOCK, (
        f"{what}: {rows} rows exceed training._BLOCK = {training._BLOCK}, so the loss "
        "is summed in blocks and the pinned values, recorded in one block, change")


# loss_case(n_pairs, n_reps): (total, dyn, orth) as float.hex(), then
# the sha256 of the potential and rotational gradients as little-endian float64
PINNED_RELU2_ORTH = {
    (64, 40): (("0x1.4d3871f3584d1p+0", "0x1.1c3a20fbc6cfcp+0", "0x1.e9ef29abaee52p-3"),
               "60cb4a45cc88dd16b03c07f90088dab3f07d3bf47dd694847258d36267ea5f9a",
               "105d1161bbd1d7a6ff75eea3e67170a07635bb0464535954a05c2f78627dc8ec"),
    (300, 250): (("0x1.45bd6acf5cc61p+0", "0x1.216109e55e498p+0", "0x1.6b9bc923f0dddp-3"),
                 "d8dc06ac1bacc36e634fc0424bc0fb3e8579e9fb5c6014763e155fe19d0e4969",
                 "7df4ff4308be765d345ec510134e741196311051ca2d3b8e362f946d5e8c0049"),
}


class TestPinnedArithmetic:
    @pytest.mark.parametrize("rows", sorted(PINNED_RELU2_ORTH))
    def test_relu2_orth_loss_and_grad_pinned(self, rows):
        # a change that moves the ReLU^2 path or the orthogonality gradient
        # by one ulp changes these values
        assert_one_block("pinned relu2 case", max(rows))
        total, ld, lo, grads = total_loss_and_grad(*loss_case(*rows))
        losses, pot, rot = PINNED_RELU2_ORTH[rows]
        assert (total.hex(), ld.hex(), lo.hex()) == losses
        assert (sha256_f8(grads.potential), sha256_f8(grads.rotational)) == (pot, rot)


class TestWorkspace:
    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    def test_reuse_across_row_counts_matches_fresh_arrays(self, act):
        # rows grow, shrink and grow again with new data each call, so an
        # array read while another role holds it, or a stale row, shows
        ws = Workspace()
        arrays = None
        for seed, rows in enumerate([(24, 16), (64, 40), (40, 24), (64, 40)]):
            case = loss_case(*rows, act, seed=seed)
            want = total_loss_and_grad(*case)
            got = total_loss_and_grad(*case, workspace=ws)
            assert got[:3] == want[:3]
            assert np.array_equal(got[3].potential, want[3].potential)
            assert np.array_equal(got[3].rotational, want[3].rotational)
            if rows == (64, 40) and arrays is None:
                arrays = dict(ws._arrays)
            if arrays is not None:
                # after the first 64-row call, no array is allocated or replaced
                assert ws._arrays.keys() == arrays.keys()
                assert all(ws._arrays[k] is a for k, a in arrays.items())

    def test_calls_without_one_share_no_arrays(self):
        # each call without a workspace writes into one of its own, so no
        # later call, of any of these, overwrites what an earlier one returned
        model, x, y, dt, reps, cfg = loss_case(64, 40, "tanh")

        def results(x):
            f, tape = drift_with_tape(model, x)
            grads = total_loss_and_grad(model, x, y, dt, reps, cfg)[3]
            return [forward(model.rotational_net, x), input_gradient(model.potential_net, x),
                    f, tape.grad_v, tape.g, *tape.pot_tape.hid, grads.potential]

        first = results(x)
        kept = [a.copy() for a in first]
        second = results(x + 0.5)
        assert not any(np.array_equal(a, b) for a, b in zip(second, kept))
        assert all(np.array_equal(a, b) for a, b in zip(first, kept))

    def test_tanh_step_keeps_one_array_per_hidden_layer(self):
        # the names after one step on tanh nets of width 16 at d = 3: every
        # tape holds hid0 and hid1 and no pre-activation
        ws = Workspace()
        total_loss_and_grad(*loss_case(64, 40, "tanh"), workspace=ws)
        tapes = {(part, net, f"hid{l}", 16) for part in "AB" for net in ("pot", "rot")
                 for l in (0, 1)}
        tapes |= {(part, net, "value", out) for part in "AB"
                  for net, out in (("pot", 1), ("rot", 3))}
        tapes |= {(part, name, 3) for part in "AB" for name in ("xt", "grad_v", "f")}
        sweeps = {(name, 16) for name in ("abar", "adotbar", "hbar", "hdotbar", "d1_0", "d1_1",
                                          "adot0", "adot1", "hdot0", "hdot1")}
        sweeps |= {("hbar", 3), ("hdotbar", 3)}
        losses = {(name, 3) for name in ("x2", "e", "huber", "cot", "drift_vjp.neg_c",
                                         "potential_gradient_vjp.x_adj", "orth.along",
                                         "orth.cu", "orth.cg")}
        assert set(ws._arrays) == tapes | sweeps | losses
        assert len(ws._arrays) == 39


def loss_results_equal(got, want):
    return (got[:3] == want[:3] and np.array_equal(got[3].potential, want[3].potential)
            and np.array_equal(got[3].rotational, want[3].rotational))


class TestBlocks:
    """1100 pairs and 700 representatives: three blocks of pairs and two of
    representatives at ``_BLOCK`` = 512, the last of each partial."""

    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    def test_gradient_matches_central_differences(self, act):
        model, x, y, dt, reps, cfg = loss_case(1100, 700, act)
        _, _, _, grads = total_loss_and_grad(model, x, y, dt, reps, cfg)
        rng = np.random.default_rng(7)
        eps = 1e-6
        for params, block in ((model.potential_net.params, grads.potential),
                              (model.rotational_net.params, grads.rotational)):
            direction = rng.normal(0, 1, params.shape)
            p0 = params.copy()
            losses = []
            for sign in (1.0, -1.0):
                params[:] = p0 + sign * eps * direction
                losses.append(total_loss(model, x, y, dt, reps, cfg))
            params[:] = p0
            fd = (losses[0] - losses[1]) / (2 * eps)
            assert block @ direction == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    def test_blocks_match_one_block(self, act, monkeypatch):
        case = loss_case(1100, 700, act)
        blocked = total_loss_and_grad(*case)
        blocked_val = total_loss(*case)
        monkeypatch.setattr(training, "_BLOCK", 1100)
        whole = total_loss_and_grad(*case)
        assert blocked_val == pytest.approx(total_loss(*case), rel=1e-12)
        for got, want in zip(blocked[:3], whole[:3]):
            assert got == pytest.approx(want, rel=1e-12)
        for got, want in ((blocked[3].potential, whole[3].potential),
                          (blocked[3].rotational, whole[3].rotational)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("act", ["tanh", "relu2"])
    def test_reused_workspace_matches_fresh(self, act):
        case = loss_case(1100, 700, act)
        fresh = total_loss_and_grad(*case, workspace=Workspace())
        ws = Workspace()
        # fills every array with another case's values first
        total_loss_and_grad(*loss_case(1300, 900, act, seed=1), workspace=ws)
        assert loss_results_equal(total_loss_and_grad(*case, workspace=ws), fresh)
        assert loss_results_equal(total_loss_and_grad(*case), fresh)

    def test_workspace_holds_block_sized_arrays(self):
        ws = Workspace()
        total_loss_and_grad(*loss_case(2000, 2000, "tanh"), workspace=ws)
        assert max(len(a) for a in ws._arrays.values()) == training._BLOCK
        small = Workspace()
        total_loss_and_grad(*loss_case(600, 600, "tanh"), workspace=small)
        assert ws._arrays.keys() == small._arrays.keys()


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0])
        st = AdamState.like(p)
        st.m[:] = 0.5
        adam_step(p, np.zeros(2), st, lr=0.1)
        assert np.array_equal(p, [1.0, -2.0] - 0.1 * st.m / (1 - 0.9) / (np.sqrt(st.v / (1 - 0.999)) + 1e-8))
        assert st.m[0] == 0.45  # moments decay toward zero

    def test_first_step_magnitude_near_lr(self):
        p = np.zeros(3)
        g = np.array([10.0, -3.0, 0.5])
        adam_step(p, g, AdamState.like(p), lr=0.01)
        # bias-corrected first step is -lr * g/(|g| + eps) ~ -lr sign(g)
        assert np.allclose(p, -0.01 * np.sign(g), rtol=1e-6)

    def test_second_identical_step_not_larger(self):
        p = np.zeros(1)
        g = np.array([2.0])
        st = AdamState.like(p)
        adam_step(p, g, st, lr=0.01)
        first = abs(p[0])
        before = p[0]
        adam_step(p, g, st, lr=0.01)
        assert abs(p[0] - before) <= first + 1e-15

    def test_nonfinite_gradient_rejected(self):
        p = np.zeros(2)
        with pytest.raises(NonFiniteError):
            adam_step(p, np.array([1.0, np.inf]), AdamState.like(p), lr=0.1)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_refused_step_leaves_the_params_bit_identical(self):
        # 1.7e308 + 1e308 overflows; undoing an in-place step would leave
        # inf - 1e308 = inf there
        p = np.array([1.7e308, 0.5])
        before = p.copy()
        with pytest.raises(NonFiniteError) as exc:
            adam_step(p, np.array([-1.0, 1.0]), AdamState.like(p), lr=1e308)
        assert exc.value.index == 0
        assert p.tobytes() == before.tobytes()

    def test_lr_schedule_strictly_decreasing(self):
        cfg = TrainConfig(max_steps=100, lr0=1e-3, decay_rate=0.95)
        lrs = [cfg.lr0 * cfg.resolved_decay() ** t for t in range(1, 20)]
        assert all(b < a for a, b in zip(lrs, lrs[1:]))

    def test_default_decay_drops_tenfold(self):
        cfg = TrainConfig(max_steps=500)
        assert cfg.lr0 * cfg.resolved_decay() ** 500 == pytest.approx(cfg.lr0 / 10, rel=1e-9)


def linear_pair_oracle(x, y, dt):
    """Least-squares slope of the one-step map, inverted through one exact
    Heun step: the brute-force reference for what the pairs determine."""
    rho = float((x * y).sum() / (x * x).sum())
    z = np.roots([0.5, 1.0, 1.0 - rho])  # 1 + z + z^2/2 = rho
    z = z[np.argmin(np.abs(z))]
    return float(np.real(z)) / dt


# TestTrainLoop._linear_setup(steps=120): history floats as float.hex(), and
# the sha256 of the final potential parameters as little-endian float64
PINNED_LINEAR_HISTORY = [
    {"step": 100, "lr": "0x1.80c65767f75bap-11", "train_loss": "0x1.2fd290077817dp-4",
     "train_dyn": "0x1.2fd290077817dp-4", "train_orth": "0x1.33fcd967300ccp-2",
     "val_loss": "0x1.55806821dd2a0p-9", "val_dyn": "0x1.55806821dd2a0p-9",
     "val_orth": "0x1.604189374bc6cp-3", "val_rollout": "0x1.a4af17a5bb782p-6"},
    {"step": 120, "lr": "0x1.0624dd2f1a9f6p-11", "train_loss": "0x1.bc550f8f00d7bp-10",
     "train_dyn": "0x1.bc550f8f00d7bp-10", "train_orth": "0x1.a17a17a17a17bp-3",
     "val_loss": "0x1.52ee1454dc1b5p-9", "val_dyn": "0x1.52ee1454dc1b5p-9",
     "val_orth": "0x1.604189374bc6cp-3", "val_rollout": "0x1.9cedcf066a60ap-6"},
]
PINNED_LINEAR_POTENTIAL_SHA256 = "c0eb43e5a81a6d62757bcab5f835d0f43b43eddc1f9c979283f457bb017100f4"


class TestTrainLoop:
    def _linear_setup(self, steps=400, seed=0):
        system = Linear1d()
        dataset = split(generate(system, 40, 0.01, 1.0, 5, seed=3), seed=5)
        reps_tr = representative_sample(dataset.states("train"), 0.05, seed=1)
        reps_va = representative_sample(dataset.states("val"), 0.05, seed=2)
        model = init_model(1, 8, "tanh", seed=seed)
        loss_cfg = LossConfig(huber_delta=1.0, orth_weight=0.0, neg_cos_weight=0.1)
        train_cfg = TrainConfig(batch_size=512, lr0=5e-3, max_steps=steps,
                                eval_every=100, seed=seed, val_rollout_trajectories=2)
        return dataset, {"train": reps_tr, "val": reps_va}, model, loss_cfg, train_cfg

    def test_learns_linear_drift_within_oracle_tolerance(self):
        dataset, reps, model, loss_cfg, train_cfg = self._linear_setup(steps=600)
        result = train(dataset, reps, model, loss_cfg, train_cfg)
        x, y = dataset.pairs("train")
        a_star = linear_pair_oracle(x, y, dataset.dt)
        learned = float(result.model.drift(np.array([1.0]))[0])
        # the oracle inverts the Heun one-step map on RK4-generated pairs,
        # so it sits within integrator truncation of the true slope
        assert a_star == pytest.approx(-2.0, rel=1e-3)
        assert learned == pytest.approx(a_star, rel=0.05)

    def test_fixed_seed_reproduces_history_exactly(self):
        runs = []
        for _ in range(2):
            dataset, reps, model, loss_cfg, train_cfg = self._linear_setup(steps=120)
            result = train(dataset, reps, model, loss_cfg, train_cfg)
            runs.append(result)
        assert runs[0].history == runs[1].history
        assert np.array_equal(runs[0].model.potential_net.params,
                              runs[1].model.potential_net.params)

    def test_fixed_seed_history_pinned(self):
        # pins the float arithmetic of training: a change that moves any
        # step's result by one ulp changes these values
        dataset, reps, model, loss_cfg, train_cfg = self._linear_setup(steps=120)
        assert_one_block("pinned history batch", train_cfg.batch_size)
        assert_one_block("pinned history val split", len(dataset.pairs("val")[0]))
        for split_name, rep_set in reps.items():
            assert_one_block(f"pinned history {split_name} representatives",
                             len(rep_set.points))
        result = train(dataset, reps, model, loss_cfg, train_cfg)
        history = [{k: (v.hex() if isinstance(v, float) else v) for k, v in rec.items()}
                   for rec in result.history]
        assert history == PINNED_LINEAR_HISTORY
        params = result.model.potential_net.params.astype("<f8").tobytes()
        assert hashlib.sha256(params).hexdigest() == PINNED_LINEAR_POTENTIAL_SHA256

    def test_best_snapshot_selected_by_val_loss(self):
        dataset, reps, model, loss_cfg, train_cfg = self._linear_setup(steps=300)
        result = train(dataset, reps, model, loss_cfg, train_cfg)
        vals = [rec["val_loss"] for rec in result.history]
        assert result.best_val_loss == min(vals)
        assert result.best_step == result.history[int(np.argmin(vals))]["step"]

    def test_divergence_raises_with_snapshot(self):
        # tanh saturation plus the Huber loss keep even absurd learning
        # rates finite; only near the float ceiling does the forward overflow
        dataset, reps, model, loss_cfg, train_cfg = self._linear_setup(steps=50)
        train_cfg.lr0 = 1e307
        train_cfg.eval_every = 1
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as exc:
                train(dataset, reps, model, loss_cfg, train_cfg)
        assert exc.value.step is not None
        assert exc.value.snapshot is not None  # last finite checkpoint retained
        assert np.isfinite(exc.value.snapshot.potential_net.params).all()

    def test_history_csv_columns(self, tmp_path):
        dataset, reps, model, loss_cfg, train_cfg = self._linear_setup(steps=100)
        result = train(dataset, reps, model, loss_cfg, train_cfg)
        path = tmp_path / "hist.csv"
        write_history_csv(result.history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("step,lr,train_loss,train_dyn,train_orth,val_loss,val_dyn,val_orth,"
                            "val_rollout")
        assert len(lines) == 1 + len(result.history)
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows == [[float(rec[c]) for c in rec] for rec in result.history]

    def test_representative_subbatching(self):
        dataset, reps, model, loss_cfg, train_cfg = self._linear_setup(steps=30)
        train_cfg.batch_size = 8  # fewer than both pairs and representatives
        result = train(dataset, reps, model, loss_cfg, train_cfg)
        assert len(result.history) >= 1


def random_pairs(rng, n_trajectories, pairs_per_trajectory, d):
    n = n_trajectories * pairs_per_trajectory
    return split(TrajectoryDataset(
        dt=0.01, x=rng.normal(0, 1, (n, d)), x_next=rng.normal(0, 1, (n, d)),
        traj_id=np.repeat(np.arange(n_trajectories, dtype=np.uint32), pairs_per_trajectory),
        n_trajectories=n_trajectories), seed=1)


def random_reps(rng, n, d):
    return RepresentativeSet(rng.normal(0, 1, (n, d)), 0.1)


class TestTrainMemory:
    def test_no_copy_of_the_train_split(self, rng):
        # 42k train pairs, 82 blocks: the peak is fit_center's transient
        # states and the val pairs, plus less than one side of the split
        # (row indices, and a step's block-sized arrays)
        dataset = random_pairs(rng, 100, 600, 3)
        reps = {"train": random_reps(rng, 300, 3), "val": random_reps(rng, 100, 3)}
        train_bytes = dataset.pairs("train")[0].nbytes
        states_bytes = dataset.states("train").nbytes
        val_bytes = sum(side.nbytes for side in dataset.pairs("val"))
        train_cfg = TrainConfig(batch_size=512, max_steps=2, eval_every=2,
                                val_rollout_trajectories=0)
        tracemalloc.start()
        try:
            train(dataset, reps, init_model(3, 4, "tanh", seed=0), LossConfig(), train_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < states_bytes + val_bytes + train_bytes

    def test_one_step_gathers_into_the_workspace_alone(self, rng, monkeypatch):
        # a batch-sized train split and more representatives than the batch;
        # the loss is stubbed out, so from the set-up's end to the loss call
        # a step allocates its three gathers and their indices, and no copy
        # of a gather's ``out`` (which np.take's default mode "raise" makes)
        dataset = random_pairs(rng, 50, 200, 10)
        n_train = int(np.count_nonzero(dataset.pair_mask("train")))
        reps = {"train": random_reps(rng, n_train + 2000, 10), "val": random_reps(rng, 50, 10)}
        seen = {}
        rollout_reference = evaluation.rollout_reference

        def set_up_done(*args, **kwargs):
            ref = rollout_reference(*args, **kwargs)
            seen["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return ref

        def loss_stub(model, *args, **kwargs):
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            return 0.0, 0.0, 0.0, ModelGrads.zeros_like(model)

        monkeypatch.setattr(evaluation, "rollout_reference", set_up_done)
        monkeypatch.setattr(training, "total_loss_and_grad", loss_stub)
        train_cfg = TrainConfig(batch_size=n_train, max_steps=1, val_rollout_trajectories=0)
        tracemalloc.start()
        try:
            train(dataset, reps, init_model(10, 4, "tanh", seed=0), LossConfig(), train_cfg)
        finally:
            tracemalloc.stop()
        gather_bytes = n_train * 10 * 8
        assert seen["peak"] - seen["base"] < 3 * gather_bytes + gather_bytes / 2


class TestConfigValidation:
    def test_loss_config_rejects_bad_values(self):
        with pytest.raises(QplandError):
            LossConfig(huber_delta=0.0)
        with pytest.raises(QplandError):
            LossConfig(neg_cos_weight=0.0)
        with pytest.raises(QplandError):
            LossConfig(orth_weight=-1.0)

    def test_train_config_rejects_bad_values(self):
        with pytest.raises(QplandError):
            TrainConfig(batch_size=0)
        with pytest.raises(QplandError):
            TrainConfig(lr0=0.0)
        with pytest.raises(QplandError):
            TrainConfig(decay_rate=1.5)
        with pytest.raises(QplandError):
            TrainConfig(eval_every=0)  # the loop would reach ``step % 0``
        with pytest.raises(QplandError):
            TrainConfig(val_rollout_trajectories=-1)

    def test_run_config_rejects_zero_eval_every(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"train": {"eval_every": 0}})
        assert exc.value.problems == ["'train.eval_every' must be a positive integer, got 0"]

    @given(st.data())
    def test_loss_config_names_every_bad_field(self, data):
        assert_every_bad_field_named(LossConfig, LOSS_FIELDS, data)

    @given(st.data())
    def test_train_config_names_every_bad_field(self, data):
        assert_every_bad_field_named(TrainConfig, TRAIN_FIELDS, data)


# field -> (strategy of valid values, strategy of invalid values)
LOSS_FIELDS = {
    "huber_delta": (st.floats(1e-6, 10.0), st.floats(-10.0, 0.0)),
    "orth_weight": (st.floats(0.0, 10.0), st.floats(-10.0, -1e-9)),
    "neg_cos_weight": (st.floats(1e-6, 1.0),
                       st.floats(-1.0, 0.0) | st.floats(1.0, 10.0, exclude_min=True)),
}
TRAIN_FIELDS = {
    "batch_size": (st.integers(1, 10**6), st.integers(-5, 0)),
    "lr0": (st.floats(1e-8, 1.0), st.floats(-1.0, 0.0)),
    "decay_rate": (st.none() | st.floats(1e-3, 1.0),
                   st.floats(-1.0, 0.0) | st.floats(1.0, 10.0, exclude_min=True)),
    "max_steps": (st.integers(1, 10**6), st.integers(-5, 0)),
    "eval_every": (st.integers(1, 10**6), st.integers(-5, 0)),
    "val_rollout_trajectories": (st.integers(0, 10), st.integers(-5, -1)),
}


def assert_every_bad_field_named(cls, fields, data):
    """Draw each field valid or invalid; the ConfigError must name exactly
    the invalid ones, each as the first word of one problem."""
    values, bad = {}, set()
    for name, (good, wrong) in fields.items():
        if data.draw(st.booleans(), label=f"{name} invalid"):
            values[name] = data.draw(wrong, label=name)
            bad.add(name)
        else:
            values[name] = data.draw(good, label=name)
    if not bad:
        cls(**values)
        return
    with pytest.raises(ConfigError) as exc:
        cls(**values)
    assert sorted(p.split(" ")[0] for p in exc.value.problems) == sorted(bad)
