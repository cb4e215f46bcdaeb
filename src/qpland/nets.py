"""Small dense networks with hand-rolled first- and second-order derivatives.

Everything here operates on flat float64 parameter vectors in a canonical
order (per layer: weight matrix row-major, then bias) so optimizers and
checkpoints can treat a network as one array. Inputs may be a single state
``(d,)`` or a batch ``(B, d)``; outputs match.

Gradients are exact (chain rule), not numerical. The input gradient
``input_gradient`` is for scalar-output nets only (the potential); two
backprop entry points exist:

* ``value_backprop``   -- d/dtheta of sum_b c_b . y(x_b)
* ``grad_backprop``    -- d/dtheta of sum_b v_b . grad_x y(x_b)
                          (scalar-output nets only)

The second one is the workhorse: the training loss contains grad_x of the
potential network, so its parameter gradient needs the mixed second
derivatives that ``grad_backprop`` materializes. It also returns the input
adjoint, the Hessian-vector product H(x) v needed when the evaluation point
itself depends on the parameters (one-step integrators).

Derivative contract: every activation supplies ``d1(pre, hid)`` and
``d2(pre, hid)``, its first and second derivatives at the pre-activation
``pre``, given also ``hid``, the activation value the forward pass stored
for it. Backprop reads both off the ``Tape`` and computes each derivative
where it is used. Nothing is cached on the tape, where it would hold
memory for as long as the tape lives.

What a tape holds follows from what the derivatives read, which an
activation declares in ``ActivationFns.reads_pre``:

* Tanh reads ``hid``. ``1 - h^2`` and ``-2 h (1 - h^2)`` are bit-identical
  to the same formulas on a recomputed ``np.tanh(pre)``, because ``hid`` is
  exactly that value, and they save one ``tanh`` per layer per derivative.
  Nothing reads ``pre``, so tanh declares ``reads_pre=False`` and
  ``forward_tape`` writes the activation over the pre-activation: a tanh
  tape holds one array per hidden layer, and its ``pre`` entries are None.
* ReLU^2 reads ``pre``. ``max(z, 0)`` cannot be recovered bit-exactly from
  its square, so the derivative ``2 max(z, 0)`` is taken from ``pre``. It
  keeps the default ``reads_pre=True``, and its tape holds two arrays per
  hidden layer, ``pre`` and ``hid``.

The value and both derivatives take ``out=``, the array to write into.

Workspace: ``forward``, ``forward_tape``, ``tape_gradient``,
``value_backprop`` and ``grad_backprop`` take a keyword-only ``workspace``
and write every batch-sized array into it: a tape's activations
``hid<l>``, its pre-activations ``pre<l>`` only where the activation reads
them, and its ``value``, and the derivatives, tangents and adjoints of the
sweeps.
``training.train`` owns one for the whole run. The losses call these in
blocks of ``training._BLOCK`` rows, so besides the batch gathers it holds
block-sized arrays, and a step after the first allocates no batch-sized
array and touches no fresh pages.
``evaluation.potential_values`` owns one for the chunks of a grid. Each
array is kept under a name and reused by the next call that asks for that
name. So a tape recorded through a part of a workspace is valid until the
next tape is recorded in that part (in training, until the next step), and
the gradient or adjoint that a sweep returns until the next sweep. A call
without a workspace makes a fresh one that dies with it, so nothing it
returns is shared with another call.
A workspace belongs to its caller, not to the tape, which still caches
nothing.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError


class Activation(str, Enum):
    TANH = "tanh"
    RELU_SQUARED = "relu2"


def _tanh_d(pre, hid, out=None):
    out = np.multiply(hid, hid, out=out)
    return np.subtract(1.0, out, out=out)


def _tanh_dd(pre, hid, out=None):
    # (1 - h^2) h (-2) in one array: multiplying by -2 is exact above the
    # subnormal range, so this is -2 h (1 - h^2) to the bit
    out = _tanh_d(pre, hid, out=out)
    out *= hid
    out *= -2.0
    return out


def _relu2(z, out=None):
    out = np.maximum(z, 0.0, out=out)
    return np.square(out, out=out)


def _relu2_d(pre, hid, out=None):
    out = np.maximum(pre, 0.0, out=out)
    return np.multiply(2.0, out, out=out)


def _relu2_dd(pre, hid, out=None):
    # second derivative jumps at z=0; the value there is pinned to 0
    return np.multiply(np.greater(pre, 0.0, out=out), 2.0, out=out)


class ActivationFns(NamedTuple):
    """The value and the ``(pre, hid)`` derivatives of one activation.
    ``reads_pre`` False declares that ``d1`` and ``d2`` never read ``pre``,
    so a tape need not keep it."""

    value: Callable  # (z, out=None)
    d1: Callable  # (pre, hid, out=None)
    d2: Callable  # (pre, hid, out=None)
    reads_pre: bool = True


_ACT = {
    Activation.TANH: ActivationFns(np.tanh, _tanh_d, _tanh_dd, reads_pre=False),
    Activation.RELU_SQUARED: ActivationFns(_relu2, _relu2_d, _relu2_dd),
}


class Workspace:
    """Named arrays, reused from call to call (see the module docstring).
    A function that takes a ``workspace`` and is called without one writes
    into a fresh workspace of its own, so every array comes from ``take``.

    ``take(name, shape)`` returns a ``shape`` view of the array kept under
    ``name`` and ``shape[1:]``, allocated or grown to ``shape[0]`` rows
    first, so a workspace holds each array at the most rows it was asked
    for. ``part(name)`` is a view of the same store whose names cannot meet
    those of another part; ``shared()`` is the view of the whole store, in
    which arrays that die with a call are kept.
    """

    def __init__(self, _arrays=None, _prefix=()):
        self._arrays = {} if _arrays is None else _arrays
        self._prefix = _prefix

    def part(self, name):
        return Workspace(self._arrays, (*self._prefix, name))

    def shared(self):
        return Workspace(self._arrays)

    def take(self, name, shape):
        key = (*self._prefix, name, *shape[1:])
        array = self._arrays.get(key)
        if array is None or len(array) < shape[0]:
            array = self._arrays[key] = np.empty(shape)
        return array[: shape[0]]


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
    layer l for the whole batch; ``value`` is the forward output. ``pre[l]``
    is None when the activation's derivatives do not read it: the activation
    was written over it.
    """

    x: np.ndarray
    pre: list = field(default_factory=list)
    hid: list = field(default_factory=list)
    value: np.ndarray = None


def forward_tape(net, x, *, workspace=None):
    ws = workspace or Workspace()
    x, single = _as_batch(net, x)
    act = _ACT[net.activation]
    tape = Tape(x=x)
    rows = x.shape[0]
    h = x
    layers = net.layers()
    for l, (w, b) in enumerate(layers[:-1]):
        shape = (rows, len(w))
        a = np.matmul(h, w.T, out=ws.take(f"pre{l}" if act.reads_pre else f"hid{l}", shape))
        a += b
        # an activation whose derivatives do not read pre is written over it
        h = act.value(a, out=ws.take(f"hid{l}", shape) if act.reads_pre else a)
        tape.pre.append(a if act.reads_pre else None)
        tape.hid.append(h)
    w, b = layers[-1]
    tape.value = np.matmul(h, w.T, out=ws.take("value", (rows, len(w))))
    tape.value += b
    return (tape.value[0] if single else tape.value), tape


def forward(net, x, *, workspace=None):
    """Feed-forward value; deterministic for identical (params, x). Through a
    workspace the value is a view, valid until the next call with it."""
    y, _ = forward_tape(net, x, workspace=workspace)
    return y


def input_gradient(net, x):
    """grad_x of a scalar net's output, ``(d,)``/``(B, d)``. Scalar nets
    only, like ``grad_backprop``: nothing needs a vector net's Jacobian."""
    if net.output_dim != 1:
        raise DimensionMismatchError("input_gradient output_dim", 1, net.output_dim)
    x_b, single = _as_batch(net, x)
    _, tape = forward_tape(net, x_b)
    g = tape_gradient(net, tape)
    return g[0] if single else g


# Scratch arrays of the three sweeps below, in the shared view of a
# workspace: "abar" and "hbar" (tape_gradient, value_backprop and
# grad_backprop), and "d1_<l>", "adot<l>", "hdot<l>", "adotbar" and "hdotbar"
# (grad_backprop). A sweep returns its input gradient or adjoint in "hbar".

def tape_gradient(net, tape, *, workspace=None):
    """grad_x of a scalar net's output at the tape points, ``(B, d)``."""
    ws = workspace or Workspace()
    d1 = _ACT[net.activation].d1
    layers = net.layers()
    w_row = layers[-1][0][0]
    rows = tape.x.shape[0]
    t = np.broadcast_to(w_row, (rows, w_row.shape[0]))
    for (w, _), a, h in zip(reversed(layers[:-1]), reversed(tape.pre), reversed(tape.hid)):
        s = d1(a, h, out=ws.take("abar", h.shape))
        s *= t
        t = np.matmul(s, w, out=ws.take("hbar", (rows, w.shape[1])))
    return t


def value_backprop(net, tape, cotangent, *, workspace=None):
    """Gradient of sum_b cotangent_b . y_b w.r.t. params, plus input adjoint.

    cotangent: (B, out). Returns (flat_grad, x_adjoint (B, d)).
    """
    ws = workspace or Workspace()
    c = np.atleast_2d(np.asarray(cotangent, dtype=np.float64))
    d1 = _ACT[net.activation].d1
    layers = net.layers()
    rows = c.shape[0]
    grads = [None] * len(layers)
    hs = [tape.x, *tape.hid]
    hbar = None
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        if l == len(layers) - 1:
            abar = c
        else:
            abar = d1(tape.pre[l], tape.hid[l], out=ws.take("abar", hbar.shape))
            abar *= hbar
        grads[l] = (abar.T @ hs[l], abar.sum(axis=0))
        hbar = np.matmul(abar, w, out=ws.take("hbar", (rows, w.shape[1])))
    return _flatten_grads(net, grads), hbar


def grad_backprop(net, tape, grad_cotangent, *, workspace=None):
    """Parameter gradient of  sum_b v_b . grad_x y(x_b)  for a scalar-output
    net, plus the input adjoint H(x_b) v_b.

    A dual (tangent) forward pass in direction v turns the directional
    derivative v . grad y into the tangent output, and one reverse sweep over
    the primal/tangent pair yields exact mixed second derivatives.
    """
    if net.output_dim != 1:
        raise DimensionMismatchError("grad_backprop output_dim", 1, net.output_dim)
    ws = workspace or Workspace()
    v = np.atleast_2d(np.asarray(grad_cotangent, dtype=np.float64))
    act = _ACT[net.activation]
    layers = net.layers()
    nh = len(layers) - 1
    rows = v.shape[0]
    d1s = [act.d1(a, h, out=ws.take(f"d1_{l}", h.shape))
           for l, (a, h) in enumerate(zip(tape.pre, tape.hid))]

    # tangent pass: adot_l = hdot_{l-1} W_l^T, hdot_l = d1 * adot_l
    adots, hdots = [], []
    hdot = v
    for l in range(nh):
        w = layers[l][0]
        adot = np.matmul(hdot, w.T, out=ws.take(f"adot{l}", (rows, len(w))))
        hdot = np.multiply(d1s[l], adot, out=ws.take(f"hdot{l}", adot.shape))
        adots.append(adot)
        hdots.append(hdot)

    hs = [tape.x, *tape.hid]
    hdots_in = [v, *hdots]
    grads = [None] * len(layers)

    # output layer: y = h_L w^T + b, ydot = hdot_L w^T. Only ydot has a
    # cotangent, so the primal adjoint starts at zero and b gets no gradient.
    w_out = layers[-1][0]
    grads[-1] = (hdots_in[-1].sum(axis=0)[None, :], np.zeros(1))
    hbar = ws.take("hbar", (rows, w_out.shape[1]))
    hbar.fill(0.0)
    hdotbar = np.broadcast_to(w_out[0], (rows, w_out.shape[1]))

    for l in range(nh - 1, -1, -1):
        w, _ = layers[l]
        # hdot_l = d1(a_l) * adot_l couples the primal adjoint to curvature:
        # abar = d1 * hbar + (d2 * adot) * hdotbar, with d2 written over d1
        abar = np.multiply(d1s[l], hbar, out=ws.take("abar", hbar.shape))
        adotbar = np.multiply(d1s[l], hdotbar, out=ws.take("adotbar", hbar.shape))
        curv = act.d2(tape.pre[l], tape.hid[l], out=d1s[l])
        curv *= adots[l]
        curv *= hdotbar
        abar += curv
        grads[l] = (abar.T @ hs[l] + adotbar.T @ hdots_in[l], abar.sum(axis=0))
        hbar = np.matmul(abar, w, out=ws.take("hbar", (rows, w.shape[1])))
        hdotbar = np.matmul(adotbar, w, out=ws.take("hdotbar", (rows, w.shape[1])))
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
