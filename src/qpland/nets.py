"""Small dense networks with hand-rolled first- and second-order derivatives.

Everything here operates on flat float64 parameter vectors in a canonical
order (per layer: weight matrix row-major, then bias) so optimizers and
checkpoints can treat a network as one array. Inputs may be a single state
``(d,)`` or a batch ``(B, d)``; outputs match.

Gradients are exact (chain rule), not numerical. Two backprop entry points
exist:

* ``value_backprop``   -- d/dtheta of sum_b c_b . y(x_b)
* ``grad_backprop``    -- d/dtheta of sum_b [ v_b . grad_x y(x_b) + t_b y(x_b) ]
                          (scalar-output nets only)

The second one is the workhorse: the training loss contains grad_x of the
potential network, so its parameter gradient needs the mixed second
derivatives that ``grad_backprop`` materializes. It also returns the input
adjoint, which for the pure-gradient term is the Hessian-vector product
H(x) v needed when the evaluation point itself depends on the parameters
(one-step integrators).

Derivative contract: every activation supplies ``d1(pre, hid)`` and
``d2(pre, hid)``, its first and second derivatives at the pre-activation
``pre``, given also ``hid``, the activation value the forward pass stored
for it. Backprop reads both off the ``Tape`` and computes each derivative
where it is used. Nothing is cached on the tape, where it would hold
memory for as long as the tape lives.

* Tanh reads ``hid``. ``1 - h^2`` and ``-2 h (1 - h^2)`` are bit-identical
  to the same formulas on a recomputed ``np.tanh(pre)``, because ``hid`` is
  exactly that value, and they save one ``tanh`` per layer per derivative.
* ReLU^2 reads ``pre``. ``max(z, 0)`` cannot be recovered bit-exactly from
  its square, so the derivative ``2 max(z, 0)`` is taken from ``pre``.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError


class Activation(str, Enum):
    TANH = "tanh"
    RELU_SQUARED = "relu2"


def _tanh_d(pre, hid):
    return 1.0 - hid * hid


def _tanh_dd(pre, hid):
    return -2.0 * hid * (1.0 - hid * hid)


def _relu2(z):
    return np.square(np.maximum(z, 0.0))


def _relu2_d(pre, hid):
    return 2.0 * np.maximum(pre, 0.0)


def _relu2_dd(pre, hid):
    # second derivative jumps at z=0; the value there is pinned to 0
    return np.where(pre > 0.0, 2.0, 0.0)


class ActivationFns(NamedTuple):
    """The value and the ``(pre, hid)`` derivatives of one activation."""

    value: Callable
    d1: Callable
    d2: Callable


_ACT = {
    Activation.TANH: ActivationFns(np.tanh, _tanh_d, _tanh_dd),
    Activation.RELU_SQUARED: ActivationFns(_relu2, _relu2_d, _relu2_dd),
}


def layer_shapes(input_dim, hidden_widths, output_dim):
    """[(fan_in, fan_out)] for every affine layer, input to output."""
    dims = [input_dim, *hidden_widths, output_dim]
    return list(zip(dims[:-1], dims[1:]))


def param_count(input_dim, hidden_widths, output_dim):
    return sum(fi * fo + fo for fi, fo in layer_shapes(input_dim, hidden_widths, output_dim))


@dataclass
class Mlp:
    """Feed-forward net; last layer affine, hidden layers share one activation."""

    input_dim: int
    hidden_widths: tuple
    output_dim: int
    activation: Activation
    params: np.ndarray

    def __post_init__(self):
        self.hidden_widths = tuple(int(w) for w in self.hidden_widths)
        self.activation = Activation(self.activation)
        self.params = np.asarray(self.params, dtype=np.float64)
        expected = param_count(self.input_dim, self.hidden_widths, self.output_dim)
        if self.params.shape != (expected,):
            raise DimensionMismatchError("Mlp params", (expected,), self.params.shape)

    def layers(self):
        """[(W, b)] views into the flat parameter vector, in canonical order."""
        out = []
        off = 0
        for fi, fo in layer_shapes(self.input_dim, self.hidden_widths, self.output_dim):
            w = self.params[off : off + fi * fo].reshape(fo, fi)
            off += fi * fo
            b = self.params[off : off + fo]
            off += fo
            out.append((w, b))
        return out


def init_mlp(input_dim, hidden_widths, output_dim, activation, rng):
    """Weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer, biases zero."""
    if input_dim < 1 or output_dim < 1 or any(w < 1 for w in hidden_widths):
        raise DimensionMismatchError("Mlp dims", "positive", (input_dim, tuple(hidden_widths), output_dim))
    chunks = []
    for fi, fo in layer_shapes(input_dim, hidden_widths, output_dim):
        bound = 1.0 / np.sqrt(fi)
        chunks.append(rng.uniform(-bound, bound, size=fi * fo))
        chunks.append(np.zeros(fo))
    return Mlp(input_dim, tuple(hidden_widths), output_dim, activation, np.concatenate(chunks))


def _as_batch(net, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatchError("Mlp input", net.input_dim, x.shape[-1])
    return x, single


@dataclass
class Tape:
    """One forward evaluation, retained for backprop.

    ``pre[l]``/``hid[l]`` are the pre-activations and activations of hidden
    layer l for the whole batch; ``value`` is the forward output.
    """

    x: np.ndarray
    pre: list = field(default_factory=list)
    hid: list = field(default_factory=list)
    value: np.ndarray = None


def forward_tape(net, x):
    x, single = _as_batch(net, x)
    act = _ACT[net.activation].value
    tape = Tape(x=x)
    h = x
    layers = net.layers()
    for w, b in layers[:-1]:
        a = h @ w.T + b
        h = act(a)
        tape.pre.append(a)
        tape.hid.append(h)
    w, b = layers[-1]
    tape.value = tape.hid[-1] @ w.T + b if tape.hid else x @ w.T + b
    return (tape.value[0] if single else tape.value), tape


def forward(net, x):
    """Feed-forward value; deterministic for identical (params, x)."""
    y, _ = forward_tape(net, x)
    return y


def input_gradient(net, x):
    """grad_x of the output: ``(d,)``/``(B, d)`` for scalar nets, the full
    Jacobian ``(out, d)``/``(B, out, d)`` for vector nets."""
    x_b, single = _as_batch(net, x)
    _, tape = forward_tape(net, x_b)
    if net.output_dim == 1:
        g = tape_gradient(net, tape)
        return g[0] if single else g
    d1 = _ACT[net.activation].d1
    layers = net.layers()
    w_out = layers[-1][0]
    jac = np.broadcast_to(w_out, (x_b.shape[0], *w_out.shape)).copy()  # (B, out, n_L)
    for (w, _), a, h in zip(reversed(layers[:-1]), reversed(tape.pre), reversed(tape.hid)):
        jac = (jac * d1(a, h)[:, None, :]) @ w
    return jac[0] if single else jac


def tape_gradient(net, tape):
    """grad_x of a scalar net's output at the tape points, ``(B, d)``."""
    d1 = _ACT[net.activation].d1
    layers = net.layers()
    w_row = layers[-1][0][0]
    t = np.broadcast_to(w_row, (tape.x.shape[0], w_row.shape[0]))
    for (w, _), a, h in zip(reversed(layers[:-1]), reversed(tape.pre), reversed(tape.hid)):
        t = (t * d1(a, h)) @ w
    return t


def value_backprop(net, tape, cotangent):
    """Gradient of sum_b cotangent_b . y_b w.r.t. params, plus input adjoint.

    cotangent: (B, out). Returns (flat_grad, x_adjoint (B, d)).
    """
    c = np.atleast_2d(np.asarray(cotangent, dtype=np.float64))
    d1 = _ACT[net.activation].d1
    layers = net.layers()
    grads = [None] * len(layers)
    hs = [tape.x, *tape.hid]
    hbar = None
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        abar = c if l == len(layers) - 1 else hbar * d1(tape.pre[l], tape.hid[l])
        grads[l] = (abar.T @ hs[l], abar.sum(axis=0))
        hbar = abar @ w
    return _flatten_grads(net, grads), hbar


def grad_backprop(net, tape, grad_cotangent, value_cotangent=None):
    """Parameter gradient of  sum_b [ v_b . grad_x y(x_b) + t_b y(x_b) ]
    for a scalar-output net, plus the input adjoint (= H(x_b) v_b + t_b grad y).

    A dual (tangent) forward pass in direction v turns the directional
    derivative v . grad y into the tangent output, and one reverse sweep over
    the primal/tangent pair yields exact mixed second derivatives.
    """
    if net.output_dim != 1:
        raise DimensionMismatchError("grad_backprop output_dim", 1, net.output_dim)
    v = np.atleast_2d(np.asarray(grad_cotangent, dtype=np.float64))
    act = _ACT[net.activation]
    layers = net.layers()
    nh = len(layers) - 1
    d1s = [act.d1(a, h) for a, h in zip(tape.pre, tape.hid)]

    # tangent pass: adot_l = hdot_{l-1} W_l^T, hdot_l = d1 * adot_l
    adots, hdots = [], []
    hdot = v
    for l in range(nh):
        adot = hdot @ layers[l][0].T
        hdot = d1s[l] * adot
        adots.append(adot)
        hdots.append(hdot)

    hs = [tape.x, *tape.hid]
    hdots_in = [v, *hdots]
    grads = [None] * len(layers)

    # output layer: y = h_L w^T + b, ydot = hdot_L w^T
    w_out = layers[-1][0]
    if value_cotangent is not None:
        t = np.asarray(value_cotangent, dtype=np.float64).reshape(-1, 1)
        g_w = t.T @ hs[-1] + hdots_in[-1].sum(axis=0)[None, :]
        g_b = np.array([t.sum()])
        hbar = t @ w_out
    else:
        g_w = hdots_in[-1].sum(axis=0)[None, :]
        g_b = np.zeros(1)
        hbar = np.zeros((v.shape[0], w_out.shape[1]))
    grads[-1] = (g_w, g_b)
    hdotbar = np.broadcast_to(w_out[0], (v.shape[0], w_out.shape[1]))

    for l in range(nh - 1, -1, -1):
        w, _ = layers[l]
        # hdot_l = d1(a_l) * adot_l couples the primal adjoint to curvature
        abar = d1s[l] * hbar + (act.d2(tape.pre[l], tape.hid[l]) * adots[l]) * hdotbar
        adotbar = d1s[l] * hdotbar
        grads[l] = (abar.T @ hs[l] + adotbar.T @ hdots_in[l], abar.sum(axis=0))
        hbar = abar @ w
        hdotbar = adotbar @ w
    return _flatten_grads(net, grads), hbar


def _flatten_grads(net, grads):
    flat = np.empty_like(net.params)
    off = 0
    for g_w, g_b in grads:
        n = g_w.size
        flat[off : off + n] = g_w.ravel()
        off += n
        flat[off : off + g_b.size] = g_b
        off += g_b.size
    return flat
