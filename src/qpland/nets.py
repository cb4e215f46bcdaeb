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
                          (scalar-output tanh nets only)

The second one is the workhorse: the training loss contains grad_x of the
potential network, so its parameter gradient needs the mixed second
derivatives that ``grad_backprop`` materializes. It also returns the input
adjoint, the Hessian-vector product H(x) v needed when the evaluation point
itself depends on the parameters (one-step integrators).

Both return the parameter gradient as one new vector in the parameters'
layout, ``Mlp.layers`` being the one place that layout is written down:
each layer's gradient is written straight into its ``(W, b)`` views
``net.layers(grad)``.

One contract holds for every derivative: every backprop and VJP returns
its parameter gradient(s) and its input adjoint, and adds into none of its
arguments. The two backprops here return ``(grad, x_adj)``; the VJPs of
``decomposition`` that chain them return ``(g_pot, x_adj)``,
``(g_rot, x_adj)`` and, for the drift, ``(g_pot, g_rot, x_adj)``.

Derivative contract: every activation supplies ``d1(pre, hid)``, its
first derivative at the pre-activation ``pre``, given also ``hid``, the
activation value the forward pass stored for it. Backprop reads it off the
tape, the ``NetPass`` of that forward evaluation, where it is used; nothing
is cached on the tape, where it would hold memory as long as the tape
lives. The one second derivative is tanh's, ``-2 h d1``, which
``grad_backprop`` forms over the ``d1`` it holds: it takes tanh nets only.

What a tape holds follows from what ``d1`` reads, which an activation
declares in ``ActivationFns.reads_pre``:

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

The value and the derivative take ``out=``, the array to write into.

Workspace: ``forward``, ``forward_tape``, ``input_gradient``,
``value_backprop`` and ``grad_backprop`` take a keyword-only ``workspace``
and write every batch-sized array into it: a tape's activations
``hid<l>``, its pre-activations ``pre<l>`` only where the activation reads
them, and its ``value``, and the derivatives, tangents and adjoints of the
sweeps. ``training.train`` owns one for the whole run, with one more for
each further lane kept in it (see ``lanes``). The losses call these in
blocks of ``training._BLOCK`` rows, so besides the batch gathers each
holds block-sized arrays, and a step after the first allocates no
batch-sized array and touches no fresh pages.
``evaluation.potential_values`` owns one, and so one per lane, for the
chunks of a grid. Each array is kept under a name and reused by the next
call that asks for that name. So a tape recorded through a part of a
workspace is valid until the next tape is recorded in that part (in
training, until the next step), and the gradient or adjoint that a sweep
returns until the next sweep. A call without a workspace makes a fresh one
that dies with it, so nothing it returns is shared with another call.
A workspace belongs to one lane of its caller, not to the tape, which
still caches nothing.

Prepared passes: a ``NetPass`` takes its layer views and arrays once, and
each run writes the same arrays and records its input, so the pass is the
tape of its last forward. ``forward_tape`` and ``input_gradient`` make one
per call, the drift of ``decomposition`` one per input shape and workspace
part. A drift writes, per net, the hidden activations (``pre`` where
read) and, for the rotational net only, the value: the potential net's
scalar output is never computed, since grad V reads only the hidden layers
and the output row of weights. Its input gradient writes ``abar`` and
``hbar`` per hidden layer. ``grad_backprop`` computes no tangent adjoint
at the input layer, which nothing reads.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, QplandError


class Activation(str, Enum):
    TANH = "tanh"
    RELU_SQUARED = "relu2"


def _tanh_d(pre, hid, out=None):
    out = np.multiply(hid, hid, out=out)
    return np.subtract(1.0, out, out=out)


def _relu2(z, out=None):
    out = np.maximum(z, 0.0, out=out)
    return np.square(out, out=out)


def _relu2_d(pre, hid, out=None):
    out = np.maximum(pre, 0.0, out=out)
    return np.multiply(2.0, out, out=out)


class ActivationFns(NamedTuple):
    """The value and the ``(pre, hid)`` first derivative of one activation.
    ``reads_pre`` False declares that ``d1`` never reads ``pre``, so a tape
    need not keep it."""

    value: Callable  # (z, out=None)
    d1: Callable  # (pre, hid, out=None)
    reads_pre: bool = True


_ACT = {
    Activation.TANH: ActivationFns(np.tanh, _tanh_d, reads_pre=False),
    Activation.RELU_SQUARED: ActivationFns(_relu2, _relu2_d),
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

    ``kept(key)`` and ``keep(key, obj)`` hold one more kind of thing per
    part: an object a caller prepared once, such as the drift evaluation of
    ``decomposition``, to run again at the next call instead of anew.

    A workspace belongs to one lane (see ``lanes``): only one thread writes
    it at a time. ``lane(k)`` is the workspace of lane ``k`` of a blocked
    computation: this one for lane 0, else one kept in this one's store and
    dropped with it; ``is_new()`` tells whether it has taken an array yet.

    Every array is an ``np.empty``, from the malloc arena of the thread
    that takes it. A heap array that a lane thread allocates stays in that
    thread's arena after the thread ends, for no later caller to reuse, so
    ``lanes`` runs the first block of a new lane on the calling thread: the
    arrays that block takes come from the caller's heap, and a lane thread
    takes only what that block did not.
    """

    def __init__(self, _store=None, _prefix=()):
        self._store = _Store() if _store is None else _store
        self._arrays, self._kept = self._store.arrays, self._store.kept
        self._prefix = _prefix

    def part(self, name):
        return Workspace(self._store, (*self._prefix, name))

    def shared(self):
        return Workspace(self._store)

    def lane(self, k):
        """The workspace of lane ``k``."""
        if k == 0:
            return self
        lanes = self._store.lanes
        while len(lanes) < k:
            lanes.append(Workspace())
        return lanes[k - 1]

    def is_new(self):
        """Whether no array has been taken from the store yet."""
        return not self._arrays

    def take(self, name, shape):
        key = (*self._prefix, name, *shape[1:])
        array = self._arrays.get(key)
        if array is None or len(array) < shape[0]:
            array = self._arrays[key] = np.empty(shape)
        return array[: shape[0]]

    def kept(self, key):
        """The object last kept under ``key`` in this part, or None."""
        return self._kept.get((*self._prefix, key))

    def keep(self, key, obj):
        """Keep ``obj`` under ``key`` in this part, and return it."""
        self._kept[(*self._prefix, key)] = obj
        return obj


class _Store:
    """What a workspace and its views share: the arrays, the kept objects
    and the workspaces of lanes 1, 2, ..."""

    def __init__(self):
        self.arrays, self.kept, self.lanes = {}, {}, []


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

    def layers(self, flat=None):
        """[(W, b)] views into ``flat``, by default the parameter vector, in
        canonical order; ``flat`` is any vector of the parameters' layout,
        such as a gradient."""
        flat = self.params if flat is None else flat
        out = []
        off = 0
        for fi, fo in layer_shapes(self.input_dim, self.hidden_widths, self.output_dim):
            w = flat[off : off + fi * fo].reshape(fo, fi)
            off += fi * fo
            b = flat[off : off + fo]
            off += fo
            out.append((w, b))
        return out


def init_mlp(input_dim, hidden_widths, output_dim, activation, rng):
    """Weights ~ U(-1/sqrt(fan_in), 1/sqrt(fan_in)) per layer, biases zero."""
    if input_dim < 1 or output_dim < 1 or any(w < 1 for w in hidden_widths):
        raise DimensionMismatchError("Mlp dims", "positive", (input_dim, tuple(hidden_widths), output_dim))
    net = Mlp(input_dim, tuple(hidden_widths), output_dim, activation,
              np.zeros(param_count(input_dim, hidden_widths, output_dim)))
    for w, _ in net.layers():
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def _as_batch(net, x):
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatchError("Mlp input", net.input_dim, x.shape[-1])
    return x, single


class NetPass:
    """One net evaluated at ``rows`` rows, prepared once: its layer views and
    every array its forward pass writes, taken from ``workspace`` when the
    pass is made, so that running it again builds and takes nothing.

    ``forward(x)`` writes the pass over the rows of ``x`` and returns the
    value, or with ``value=False`` the last activation, skipping the output
    layer. ``gradient()`` returns grad_x of a scalar net's output at the
    rows of the last forward, in the ``abar`` and ``hbar`` arrays of
    ``sweep``, the workspace the pass was made with for them.

    The pass is the tape of its last forward, which backprop reads: ``x``
    its input, ``pre[l]``/``hid[l]`` the pre-activations and activations of
    hidden layer l, and ``value`` its output (None with ``value=False``).
    ``pre[l]`` is None when the activation's derivatives do not read it:
    the activation is written over it.
    """

    def __init__(self, net, rows, workspace, *, value=True, sweep=None):
        self.act = act = _ACT[net.activation]
        self.rows = rows
        self.layers = net.layers()
        self.x, self.pre, self.hid = None, [], []
        for l, (w, _) in enumerate(self.layers[:-1]):
            shape = (rows, len(w))
            self.pre.append(workspace.take(f"pre{l}", shape) if act.reads_pre else None)
            self.hid.append(workspace.take(f"hid{l}", shape))
        self.value = workspace.take("value", (rows, net.output_dim)) if value else None
        if sweep is not None:
            self.sweep = [(w, pre, hid, sweep.take("abar", hid.shape),
                           sweep.take("hbar", (rows, w.shape[1])))
                          for (w, _), pre, hid in zip(reversed(self.layers[:-1]),
                                                      reversed(self.pre), reversed(self.hid))]

    def forward(self, x):
        self.x = h = x
        for (w, b), pre, hid in zip(self.layers, self.pre, self.hid):
            # an activation whose derivatives do not read pre is written over it
            a = np.matmul(h, w.T, out=hid if pre is None else pre)
            a += b
            h = self.act.value(a, out=hid)
        if self.value is None:
            return h
        w, b = self.layers[-1]
        y = np.matmul(h, w.T, out=self.value)
        y += b
        return y

    def gradient(self):
        d1 = self.act.d1
        t = self.layers[-1][0][0]
        for w, a, h, abar, hbar in self.sweep:
            s = d1(a, h, out=abar)
            s *= t
            t = np.matmul(s, w, out=hbar)
        # without hidden layers the gradient is the output row at every row
        return t if self.sweep else np.broadcast_to(t, (self.rows, len(t)))


def forward_tape(net, x, *, workspace=None):
    """The value at ``x`` and the tape of its evaluation, a ``NetPass``."""
    x, single = _as_batch(net, x)
    run = NetPass(net, len(x), workspace or Workspace())
    y = run.forward(x)
    return (y[0] if single else y), run


def forward(net, x, *, workspace=None):
    """Feed-forward value; deterministic for identical (params, x). Through a
    workspace the value is a view, valid until the next call with it."""
    y, _ = forward_tape(net, x, workspace=workspace)
    return y


def input_gradient(net, x, *, workspace=None):
    """grad_x of a scalar net's output, ``(d,)``/``(B, d)``. Scalar nets
    only, like ``grad_backprop``: nothing needs a vector net's Jacobian.
    Through a workspace the gradient is a view, valid until the next call
    with it."""
    if net.output_dim != 1:
        raise DimensionMismatchError("input_gradient output_dim", 1, net.output_dim)
    x_b, single = _as_batch(net, x)
    ws = workspace or Workspace()
    run = NetPass(net, len(x_b), ws, value=False, sweep=ws)
    run.forward(x_b)
    g = run.gradient()
    return g[0] if single else g


# Scratch arrays of the sweeps, in the shared view of a workspace: "abar"
# and "hbar" (NetPass.gradient, value_backprop and grad_backprop), and
# "d1_<l>", "adot<l>" and "hdot<l>" (grad_backprop, whose reverse sweep
# writes its curvature terms and tangent adjoints over the dead d1 and
# tangents). A sweep returns its input gradient or adjoint in "hbar".

def value_backprop(net, tape, cotangent, *, workspace=None):
    """Gradient of sum_b cotangent_b . y_b w.r.t. params, plus input adjoint.

    cotangent: (B, out). Returns (flat_grad, x_adjoint (B, d)).
    """
    ws = workspace or Workspace()
    c = np.atleast_2d(np.asarray(cotangent, dtype=np.float64))
    d1 = _ACT[net.activation].d1
    layers = net.layers()
    grad = np.empty_like(net.params)
    grads = net.layers(grad)
    rows = c.shape[0]
    hs = [tape.x, *tape.hid]
    hbar = None
    for l in range(len(layers) - 1, -1, -1):
        w, _ = layers[l]
        gw, gb = grads[l]
        if l == len(layers) - 1:
            abar = c
        else:
            abar = d1(tape.pre[l], tape.hid[l], out=ws.take("abar", hbar.shape))
            abar *= hbar
        np.matmul(abar.T, hs[l], out=gw)
        abar.sum(axis=0, out=gb)
        hbar = np.matmul(abar, w, out=ws.take("hbar", (rows, w.shape[1])))
    return grad, hbar


def grad_backprop(net, tape, grad_cotangent, *, workspace=None):
    """Parameter gradient of  sum_b v_b . grad_x y(x_b)  for a scalar-output
    tanh net, plus the input adjoint H(x_b) v_b.

    A dual (tangent) forward pass in direction v turns the directional
    derivative v . grad y into the tangent output, and one reverse sweep over
    the primal/tangent pair yields exact mixed second derivatives. Its
    curvature term builds tanh's d2 = -2 h d1 from d1, so the net must be
    tanh, as ``DecompositionModel`` makes the potential net.
    """
    if net.output_dim != 1:
        raise DimensionMismatchError("grad_backprop output_dim", 1, net.output_dim)
    if net.activation is not Activation.TANH:
        raise QplandError(f"grad_backprop activation: expected tanh, got {net.activation.value}")
    ws = workspace or Workspace()
    v = np.atleast_2d(np.asarray(grad_cotangent, dtype=np.float64))
    d1 = _ACT[net.activation].d1
    layers = net.layers()
    nh = len(layers) - 1
    rows = v.shape[0]
    d1s = [d1(a, h, out=ws.take(f"d1_{l}", h.shape))
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
    grad = np.empty_like(net.params)
    grads = net.layers(grad)

    # output layer: y = h_L w^T + b, ydot = hdot_L w^T. Only ydot has a
    # cotangent, so the primal adjoint starts at zero and b gets no gradient.
    w_out = layers[-1][0]
    gw, gb = grads[-1]
    hdots_in[-1].sum(axis=0, out=gw[0])
    gb.fill(0.0)
    hbar = None  # zero
    hdotbar = w_out[0]

    for l in range(nh - 1, -1, -1):
        w, _ = layers[l]
        # hdot_l = d1(a_l) * adot_l couples the primal adjoint to curvature:
        # abar = d1 * hbar + (d2 * adot) * hdotbar. hdot_l was last read by
        # the layer above, so adotbar is written over it; d2 = -2 h d1 is
        # written over d1 after d1's last read.
        adotbar = np.multiply(d1s[l], hdotbar, out=hdots[l])
        abar = 0.0 if hbar is None else np.multiply(d1s[l], hbar, out=ws.take("abar", hbar.shape))
        curv = d1s[l]
        curv *= tape.hid[l]
        curv *= -2.0
        curv *= adots[l]
        curv *= hdotbar
        # at the top layer (+0) + curv: d1 * 0 + curv to the bit, -0 included
        abar = np.add(abar, curv, out=curv)
        gw, gb = grads[l]
        np.matmul(abar.T, hs[l], out=gw)
        gw += adotbar.T @ hdots_in[l]
        abar.sum(axis=0, out=gb)
        hbar = np.matmul(abar, w, out=ws.take("hbar", (rows, w.shape[1])))
        if l:  # the input layer's tangent adjoint has no reader
            # adot_l has no reader left: the tangent adjoint takes its
            # array, which is adot_l's own when the two layers are as wide
            hdotbar = np.matmul(adotbar, w, out=ws.take(f"adot{l}", (rows, w.shape[1])))
    # without hidden layers the gradient does not depend on x
    return grad, (np.zeros_like(v) if hbar is None else hbar)
