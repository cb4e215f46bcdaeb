import hashlib

import numpy as np
import pytest

from qpland import nets
from qpland.errors import DimensionMismatchError, QplandError
from qpland.nets import (Activation, ActivationFns, Mlp, Workspace, forward, forward_tape,
                         grad_backprop, init_mlp, input_gradient, param_count, value_backprop)

from conftest import make_net, tanh_111


def central_fd(fn, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        out.flat[i] = (fn(xp) - fn(xm)) / (2 * h)
    return out


class TestForward:
    def test_zero_parameter_net_maps_to_zero(self):
        net = Mlp(2, (3,), 2, Activation.TANH, np.zeros(param_count(2, (3,), 2)))
        assert np.array_equal(forward(net, [1.3, -0.7]), np.zeros(2))

    def test_tanh_unit_net_at_zero(self):
        assert forward(tanh_111(), [0.0])[0] == 0.0

    def test_tanh_unit_net_hand_value(self):
        # hidden tanh(0.5) = 0.46211716, output layer passes it through
        y = forward(tanh_111(), [0.5])[0]
        assert y == pytest.approx(0.46211715726000974, abs=1e-12)

    def test_batch_matches_single(self, rng):
        # bit-identity holds per call signature; batch vs single may differ
        # in the last ulp (different BLAS kernels), hence the tight allclose
        net = make_net(3, (5, 4), 2, Activation.RELU_SQUARED, rng)
        xs = rng.normal(0, 1, (6, 3))
        batch = forward(net, xs)
        for i, x in enumerate(xs):
            assert np.allclose(batch[i], forward(net, x), rtol=1e-13, atol=0)

    def test_dimension_mismatch_reports_dims(self, rng):
        net = make_net(3, (4,), 1, Activation.TANH, rng)
        with pytest.raises(DimensionMismatchError) as exc:
            forward(net, [1.0, 2.0])
        assert exc.value.expected == 3
        assert exc.value.actual == 2

    def test_deterministic_bit_identical(self, rng):
        net = make_net(4, (8, 8), 3, Activation.TANH, rng)
        x = rng.normal(0, 1, (5, 4))
        a = forward(net, x)
        b = forward(net, x)
        assert np.array_equal(a, b)

    def test_param_layout_matches_count(self):
        assert param_count(3, (50, 50), 1) == 3 * 50 + 50 + 50 * 50 + 50 + 50 + 1

    def test_layers_of_any_vector_are_views_of_it(self, rng):
        # a gradient has the parameters' layout: its layers are views of it,
        # in the shapes of the parameters' own, covering it in order
        net = make_net(3, (5, 4), 2, Activation.TANH, rng)
        g = np.arange(net.params.size, dtype=np.float64)
        views = net.layers(g)
        assert [(gw.shape, gb.shape) for gw, gb in views] == [
            (w.shape, b.shape) for w, b in net.layers()]
        assert all(gw.base is g and gb.base is g for gw, gb in views)
        assert np.array_equal(np.concatenate([np.r_[gw.ravel(), gb] for gw, gb in views]), g)


class TestActivations:
    def test_relu_squared_continuous_at_zero(self):
        # sigma and sigma' are exactly 0 at z=0 and their one-sided limits agree
        net = Mlp(1, (1,), 1, Activation.RELU_SQUARED, np.array([1.0, 0.0, 1.0, 0.0]))
        assert forward(net, [0.0])[0] == 0.0
        assert input_gradient(net, np.array([0.0]))[0] == 0.0
        eps = 1e-8
        assert abs(forward(net, [eps])[0]) <= eps**2
        assert forward(net, [-eps])[0] == 0.0
        assert abs(input_gradient(net, np.array([eps]))[0]) <= 2 * eps
        assert input_gradient(net, np.array([-eps]))[0] == 0.0

    def test_relu_squared_values(self):
        net = Mlp(1, (1,), 1, Activation.RELU_SQUARED, np.array([1.0, 0.0, 1.0, 0.0]))
        assert forward(net, [2.0])[0] == 4.0
        assert forward(net, [-2.0])[0] == 0.0


def _recomputed_tanh_d(pre, hid, out=None):
    t = np.tanh(pre)
    return np.subtract(1.0, t * t, out=out)


def _tanh_consumer_outputs(scalar, vector, xs, v):
    """Every tape consumer on tanh nets: name -> its output arrays."""
    _, pot_tape = forward_tape(scalar, xs)
    _, rot_tape = forward_tape(vector, xs)
    return {
        "input_gradient": [input_gradient(scalar, xs)],
        "value_backprop": value_backprop(vector, rot_tape, v),
        "grad_backprop": grad_backprop(scalar, pot_tape, v),
    }


class TestDerivativeContract:
    """Tanh's derivative reads the stored activation; every consumer must
    equal the same formula on a recomputed ``np.tanh(pre)`` bit for bit,
    ``grad_backprop``'s second derivative, built from the first, included."""

    def test_tanh_consumers_bit_identical_to_recomputed_tanh(self, rng, monkeypatch):
        # large weights drive many units into saturation, where 1 - h^2 is
        # most sensitive to rounding
        args = (make_net(3, (16, 12), 1, Activation.TANH, rng, scale=1.2),
                make_net(3, (16, 12), 3, Activation.TANH, rng, scale=1.2),
                rng.normal(0, 1.5, (40, 3)), rng.normal(0, 1, (40, 3)))
        got = _tanh_consumer_outputs(*args)
        with monkeypatch.context() as m:
            m.setitem(nets._ACT, Activation.TANH,
                      ActivationFns(np.tanh, _recomputed_tanh_d))
            want = _tanh_consumer_outputs(*args)
        for name, arrays in want.items():
            for a, b in zip(got[name], arrays, strict=True):
                assert np.array_equal(a, b), name


class TestInputGradient:
    def test_zero_net_zero_gradient(self):
        net = Mlp(3, (4,), 1, Activation.TANH, np.zeros(param_count(3, (4,), 1)))
        assert np.array_equal(input_gradient(net, [0.3, 0.1, -2.0]), np.zeros(3))

    def test_tanh_unit_net_hand_gradient(self):
        # d/dx tanh(x) at 0.5 = 1 - tanh(0.5)^2 = 0.78644773
        g = input_gradient(tanh_111(), np.array([0.5]))
        assert g[0] == pytest.approx(0.7864477329659274, abs=1e-12)

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.RELU_SQUARED])
    def test_matches_finite_differences(self, act, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            widths = tuple(rng.integers(1, 9, size=rng.integers(1, 3)))
            net = make_net(d, widths, 1, act, rng)
            x = rng.normal(0, 1, d)
            g = input_gradient(net, x)
            fd = central_fd(lambda z: forward(net, z)[0], x)
            denom = max(np.abs(fd).max(), 1e-12)
            assert np.abs(g - fd).max() / denom <= 1e-6

    def test_batch_matches_single(self, rng):
        net = make_net(2, (4,), 1, Activation.RELU_SQUARED, rng)
        xs = rng.normal(0, 1, (5, 2))
        g = input_gradient(net, xs)
        assert g.shape == (5, 2)
        assert np.allclose(g[2], input_gradient(net, xs[2]), rtol=1e-13, atol=0)

    def test_rejects_vector_output(self, rng):
        net = make_net(3, (6, 5), 4, Activation.TANH, rng)
        with pytest.raises(DimensionMismatchError) as exc:
            input_gradient(net, np.zeros(3))
        assert (exc.value.expected, exc.value.actual) == (1, 4)


class TestTape:
    def test_tape_reproduces_forward_value(self, rng):
        net = make_net(3, (5, 5), 1, Activation.TANH, rng)
        x = rng.normal(0, 1, (4, 3))
        y, tape = forward_tape(net, x)
        assert np.array_equal(tape.value, forward(net, x))
        assert np.array_equal(y, tape.value)


    @pytest.mark.parametrize("act, kept", [(Activation.TANH, False),
                                           (Activation.RELU_SQUARED, True)])
    def test_pre_activations_kept_only_where_derivatives_read_them(self, act, kept, rng):
        # tanh's derivatives read only hid, so its activation is written over
        # the pre-activation; relu2's read pre, so the tape keeps both
        net = make_net(3, (5, 4), 2, act, rng)
        x = rng.normal(0, 1, (6, 3))
        ws = Workspace()
        _, tape = forward_tape(net, x, workspace=ws)
        pre = {("pre0", 5), ("pre1", 4)} if kept else set()
        assert set(ws._arrays) == pre | {("hid0", 5), ("hid1", 4), ("value", 2)}
        assert [a is not None for a in tape.pre] == [kept, kept]
        _, plain = forward_tape(net, x)
        assert [a is not None for a in plain.pre] == [kept, kept]
        for a, b in zip(tape.hid, plain.hid, strict=True):
            assert np.array_equal(a, b)


class TestValueBackprop:
    def test_matches_fd_over_params(self, rng):
        net = make_net(3, (5, 4), 2, Activation.TANH, rng)
        xs = rng.normal(0, 1, (6, 3))
        c = rng.normal(0, 1, (6, 2))
        _, tape = forward_tape(net, xs)
        g, _ = value_backprop(net, tape, c)

        def obj(p):
            return float((forward(Mlp(3, (5, 4), 2, Activation.TANH, p), xs) * c).sum())

        fd = central_fd(obj, net.params, h=1e-5)
        assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-6


class TestGradBackprop:
    def test_matches_fd_over_params(self, rng):
        net = make_net(3, (5, 4), 1, Activation.TANH, rng)
        xs = rng.normal(0, 1, (5, 3))
        v = rng.normal(0, 1, (5, 3))
        _, tape = forward_tape(net, xs)
        g, _ = grad_backprop(net, tape, v)

        def obj(p):
            n2 = Mlp(3, (5, 4), 1, Activation.TANH, p)
            return float((input_gradient(n2, xs) * v).sum())

        fd = central_fd(obj, net.params, h=1e-5)
        assert np.abs(g - fd).max() / np.abs(fd).max() <= 1e-5

    def test_input_adjoint_is_hessian_vector_product(self, rng):
        net = make_net(2, (6, 6), 1, Activation.TANH, rng)
        x = rng.normal(0, 1, (1, 2))
        v = rng.normal(0, 1, (1, 2))
        _, tape = forward_tape(net, x)
        _, xadj = grad_backprop(net, tape, v)
        hess = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            hess[:, j] = (input_gradient(net, x[0] + e) - input_gradient(net, x[0] - e)) / 2e-6
        assert np.abs(xadj[0] - hess @ v[0]).max() <= 1e-6

    def test_rejects_vector_output(self, rng):
        net = make_net(2, (3,), 2, Activation.TANH, rng)
        _, tape = forward_tape(net, np.zeros((1, 2)))
        with pytest.raises(DimensionMismatchError):
            grad_backprop(net, tape, np.zeros((1, 2)))

    def test_rejects_relu2(self, rng):
        # the curvature term takes tanh's second derivative from its first
        net = make_net(2, (3,), 1, Activation.RELU_SQUARED, rng)
        _, tape = forward_tape(net, np.zeros((1, 2)))
        with pytest.raises(QplandError,
                           match="^grad_backprop activation: expected tanh, got relu2$"):
            grad_backprop(net, tape, np.zeros((1, 2)))


def _digest(a):
    return hashlib.sha256(np.asarray(a, dtype="<f8").tobytes()).hexdigest()


def _pin_case(d, depth, scale=1.0):
    """A tanh scalar net with ``depth`` hidden layers of width 7 on d inputs,
    its weights and biases times ``scale``, its tape at 11 rows and a
    cotangent there."""
    rng = np.random.default_rng(1000 * d + depth)
    net = make_net(d, (7,) * depth, 1, Activation.TANH, rng)
    net.params *= scale
    _, tape = forward_tape(net, rng.normal(0, 1, (11, d)))
    return net, tape, rng.normal(0, 1, (11, d))


# Recorded before grad_backprop built d2 from d1, with NumPy 2.4.6 and
# scipy-openblas 0.3.31: sha256 of the little-endian float64 bytes of the
# gradient and of the input adjoint
PINNED_GRAD_BACKPROP = {
    (1, 0): ("9a4f9e29269e5891f17087c209b88af318807a969f232c6bc6bf5ad334f7d5c4",
             "10eef285deef7a4b7c82b22aa53589b7833df29de3814649c772bbd5c832f365"),
    (1, 1): ("7240c8982a72d0c99625d7494add052e2e747c176a90981041bd0d4c4ad1261a",
             "f169fba4c3f631045c375671b8336f8b8942c064fc244686ef8f5aed61913e5b"),
    (1, 2): ("789c84c3ebbe4ec388ad1bd75a0cbfd8af3e8bc822ae77dc39f2e9d78abb7e1f",
             "e3e21cdea9645fd3d28e833998c0522f95915874e8fa295222f2cef88487f64d"),
    (1, 3): ("eb7696966fa91b97345541848a02e5b3ecd3230539fd9033ad03ae6da8b23a63",
             "ff55bc977b77de016cb95c02f838eea794d76ec198fb5ca7d0260eb84cfb8c2a"),
    (3, 0): ("6f72c6275d18cdc1d9529ab920249e4b8e4420aa3d4f1fe64fa9568dc5de4109",
             "44b8aa4d28701168922acf61435ea4bb442f97b0b14ad7a2510ed68874ee2a72"),
    (3, 1): ("ce10487716a0d0aa393d76a2d7d16e2225cf32d3deb1bb8bfb68fbf71d070cd1",
             "ffd8d2ccef304a121c1f1fa9022d79a213c875f362c2fb6fe70e700ccdc23748"),
    (3, 2): ("c7d512fe885b9011b363e1c29bb43debd7a7bf6c290fcaf7418e032c6fd6a356",
             "461cb23a24fbcdac5c337c767f73b9544e70899682b0beed44d94b6f050c4abe"),
    (3, 3): ("60c8641d25794445c7811d1fb78147fabd5bb34017790326c13290d58009f6e9",
             "56682287dff72c11f492a2784ae71f3f090462dbdf6440364bf17f3c7ae7461d"),
    (50, 0): ("1eefbec06e0c0c09aeb42a73824323892d85c743cc65a4459803fa64b586584c",
             "34fa1826a0a171d2579b65040894c503d1bfc945f90690b95a979dd136dd0dfd"),
    (50, 1): ("7346b8ff397576846880812fb80efb0e8ea217567f462ae81b0c7c972971c079",
             "4d79165679fbe69f0c1a00c82d70eb9f023a1ed71c8858b57ceec794fb8dbc92"),
    (50, 2): ("f3484035d2e324c4022898b4d101072f22584eb5f068af5832540b63f0c3a9d0",
             "d62a832542089d5f30f29e44f1b62cec351b8bc0b2832bccae45368dbf348be5"),
    (50, 3): ("bcb8389970de3cc368d2e2bd8f7b55f7a7a07d312e6ecde04edd6131fca3dacd",
             "5f38b0ec7987d3949166d70d2359ef69ea3679b900f75396b94e6190525ec777"),
}
PINNED_SATURATED = ("0e923dc83eb3c27de59ce44fc275e8c1bbefd6c90fe2c55a20e266db85fd5b12",
                    "fa167898c626db901e40ff160ab353113da7198730aeb346bb8a657dffd18593")


class TestGradBackpropBytes:
    @pytest.mark.parametrize("d, depth", sorted(PINNED_GRAD_BACKPROP))
    def test_pinned(self, d, depth):
        grad, x_adj = grad_backprop(*_pin_case(d, depth))
        assert x_adj.shape == (11, d)
        assert (_digest(grad), _digest(x_adj)) == PINNED_GRAD_BACKPROP[d, depth]

    def test_pinned_with_saturated_units(self):
        # weights x20: in every hidden layer whole units sit at 1 - h^2 = 0
        # on every row, where the curvature term is a signed zero
        net, tape, v = _pin_case(3, 2, scale=20.0)
        assert all((h * h == 1.0).all(axis=0).any() for h in tape.hid)
        grad, x_adj = grad_backprop(net, tape, v)
        assert (_digest(grad), _digest(x_adj)) == PINNED_SATURATED

    def test_zero_input_adjoint_without_hidden_layers(self):
        net, tape, v = _pin_case(3, 0)
        grad, x_adj = grad_backprop(net, tape, v)
        assert np.array_equal(x_adj, np.zeros((11, 3)))
        assert np.array_equal(grad, np.r_[v.sum(axis=0), 0.0])


class TestInit:
    def test_same_rng_seed_bit_identical(self):
        a = init_mlp(3, (5, 5), 2, Activation.TANH, np.random.default_rng(7))
        b = init_mlp(3, (5, 5), 2, Activation.TANH, np.random.default_rng(7))
        assert np.array_equal(a.params, b.params)

    def test_biases_zero_weights_bounded(self):
        net = init_mlp(4, (6,), 2, Activation.TANH, np.random.default_rng(1))
        (w1, b1), (w2, b2) = net.layers()
        assert np.array_equal(b1, np.zeros(6))
        assert np.array_equal(b2, np.zeros(2))
        assert np.abs(w1).max() <= 0.5  # 1/sqrt(4)
        assert np.abs(w2).max() <= 1 / np.sqrt(6)

    def test_rejects_zero_width(self):
        with pytest.raises(DimensionMismatchError):
            init_mlp(2, (0,), 1, Activation.TANH, np.random.default_rng(0))
