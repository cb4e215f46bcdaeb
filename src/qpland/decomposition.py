"""Parameterized orthogonal decomposition f = -grad V + g and the derived
landscape U = 2V - C.

U is defined only up to the constant C. Everywhere in ``qpland`` C is pinned
to 2 min V over the set of points being evaluated, so min U = 0 there, by
one function, ``evaluation.landscape_values`` (for the rRMSE, the exported
slices and the ``mep`` profile); checkpoints store no C.

``V(x) = Vhat(x - center) + |x - center|^2`` where Vhat is a tanh network:
the quadratic term makes V radially unbounded no matter what the (globally
bounded) network does, and the tanh choice keeps V smooth. The rotational
component g is a second network with configurable activation. Models are
immutable after training; every evaluation here is pure.

The drift f = g - grad V has one implementation, ``_DriftPass``, prepared
in one place, ``_kept_pass``: once per input shape and workspace part, and
again only when the model's parameter arrays are replaced. The pass is also
the tape that the VJPs read. ``DecompositionModel.drift`` runs it for a
Heun rollout (``evaluation``) or the validation loss (``training``), and
``drift_with_tape`` for each stage of a train step, writing f into the
step's stage buffer, and for the orthogonality penalty, which reads grad V
and g off the tape and computes no f. So each runs the same arithmetic in
place, with no array or tape made per call.
"""

import copy
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nets
from .errors import POSITIVE_INT, ConfigError, DimensionMismatchError, FormatError
from .fileio import atomic_write
from .nets import Activation, Mlp

COSINE_NORM_FLOOR = 1e-12

CHECKPOINT_VERSION = 1


@dataclass
class DecompositionModel:
    potential_net: Mlp  # scalar output, tanh
    rotational_net: Mlp  # d outputs
    center: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        d = self.potential_net.input_dim
        if self.potential_net.output_dim != 1:
            raise ConfigError(["potential net must have scalar output"])
        if self.potential_net.activation is not Activation.TANH:
            raise ConfigError(["potential net must use tanh (bounded gradient keeps "
                               "the quadratic term dominant at infinity)"])
        if self.rotational_net.input_dim != d or self.rotational_net.output_dim != d:
            raise ConfigError(["rotational net must map R^d -> R^d matching the potential net"])
        if self.center.shape != (d,):
            raise ConfigError([f"center must have shape ({d},)"])

    @property
    def dim(self):
        return self.potential_net.input_dim

    def centered(self, x):
        return np.asarray(x, dtype=np.float64) - self.center

    def potential(self, x, *, workspace=None):
        """V at x. A workspace holds the net's tape from call to call."""
        xt = self.centered(x)
        vhat = nets.forward(self.potential_net, xt, workspace=workspace)
        return vhat[..., 0] + np.square(xt).sum(axis=-1)

    def potential_gradient(self, x, *, workspace=None):
        """grad V at x, a new array. A workspace holds the net's sweep."""
        xt = self.centered(x)
        return nets.input_gradient(self.potential_net, xt, workspace=workspace) + 2.0 * xt

    def rotation(self, x, *, workspace=None):
        """g at x. Through a workspace it is a view, valid until the next
        call with it."""
        return nets.forward(self.rotational_net, self.centered(x), workspace=workspace)

    def drift(self, x, *, out=None, workspace=None):
        """f = g - grad V at a state or the rows of a batch, written into
        ``out`` when given, else into a new array. Through a workspace, the
        evaluation prepared at the first call for a shape (see ``_DriftPass``)
        runs again at each later call for that shape, so a rollout prepares
        it once and allocates nothing per call."""
        x = np.asarray(x, dtype=np.float64)
        run = _kept_pass(self, x.shape, workspace or nets.Workspace())
        f = np.empty(x.shape) if out is None else out
        run(x, f if f.ndim == 2 else f[None])
        return f

    def copy(self):
        return copy.deepcopy(self)


@dataclass
class AnalyticDecomposition:
    """Closed-form decomposition (exact benchmark fixtures). Satisfies the
    same evaluation surface as DecompositionModel, minus trainability."""

    dim: int
    potential_fn: Callable
    grad_v_fn: Callable
    g_fn: Callable

    def potential(self, x, *, workspace=None):
        return self.potential_fn(np.asarray(x, dtype=np.float64))

    def potential_gradient(self, x, *, workspace=None):
        return self.grad_v_fn(np.asarray(x, dtype=np.float64))

    def rotation(self, x, *, workspace=None):
        return self.g_fn(np.asarray(x, dtype=np.float64))

    def drift(self, x, *, out=None, workspace=None):
        """f = g - grad V, into ``out`` when given; nothing here needs a
        workspace."""
        return np.subtract(self.rotation(x), self.potential_gradient(x), out=out)

    @classmethod
    def from_system(cls, system):
        """The exact decomposition of ``system``: the one it carries, or for
        a gradient system, which carries its energy E instead, V = E and
        g = 0."""
        if system.exact_grad_v is not None:
            return cls(system.dim, lambda x: 0.5 * system.exact_u(x), system.exact_grad_v,
                       system.exact_g)
        if system.energy is not None:
            return cls(system.dim, system.energy, system.energy_gradient, np.zeros_like)
        raise ConfigError([f"system '{system.name}' has no exact decomposition"])


def init_model(dim, hidden_width, rot_activation, seed):
    """Fresh model: two 2-hidden-layer nets, center zero until fitted."""
    if dim < 1 or hidden_width < 1:
        raise ConfigError([f"init_model: dim and hidden_width must be positive, "
                           f"got ({dim}, {hidden_width})"])
    seqs = np.random.SeedSequence(seed).spawn(2)
    pot = nets.init_mlp(dim, (hidden_width, hidden_width), 1, Activation.TANH,
                        np.random.default_rng(seqs[0]))
    rot = nets.init_mlp(dim, (hidden_width, hidden_width), dim, Activation(rot_activation),
                        np.random.default_rng(seqs[1]))
    return DecompositionModel(pot, rot, np.zeros(dim))


def fit_center(model, states, split=None):
    """Center the model at the mean of ``states``, an (n, d) array; or, given
    a ``split``, at the mean of that split's states of ``states``, a
    dataset, which are summed without being gathered
    (``TrajectoryDataset.state_mean``). The two give the same bits."""
    if split is None:
        model.center = np.asarray(states, dtype=np.float64).mean(axis=0)
    else:
        model.center = states.state_mean(split)
    return model


def floored_cosine(u, g):
    """Row cosines of u and g, with the degeneracy floor applied.

    Returns ``(cos, ok, nu, ng)``: ``ok`` marks rows where both norms reach
    ``COSINE_NORM_FLOOR`` (attractor neighborhoods have grad V -> 0); there
    ``cos`` is 0 and the norms ``nu``, ``ng`` read 1, so they can divide."""
    nu = np.linalg.norm(u, axis=-1)
    ng = np.linalg.norm(g, axis=-1)
    ok = (nu >= COSINE_NORM_FLOOR) & (ng >= COSINE_NORM_FLOOR)
    nu = np.where(ok, nu, 1.0)
    ng = np.where(ok, ng, 1.0)
    return np.where(ok, (u * g).sum(axis=-1) / (nu * ng), 0.0), ok, nu, ng


def orthogonality_cosine(model, x, *, workspace=None):
    """Floored cosine of grad V and g at a state or at the rows of a batch.
    A workspace holds the nets' arrays from call to call; grad V is a new
    array, so g's pass writes the arrays of grad V's pass it shares a name
    with."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    ws = workspace or nets.Workspace()
    cos = floored_cosine(model.potential_gradient(rows, workspace=ws),
                         model.rotation(rows, workspace=ws))[0]
    return cos[0] if x.ndim == 1 else cos


# -- training-path plumbing: taped drift evaluation and its VJPs ------------

@dataclass
class ModelGrads:
    potential: np.ndarray
    rotational: np.ndarray

    @classmethod
    def zeros_like(cls, model):
        return cls(np.zeros_like(model.potential_net.params),
                   np.zeros_like(model.rotational_net.params))

    def add_scaled(self, other, scale=1.0):
        self.potential += scale * other.potential
        self.rotational += scale * other.rotational
        return self


class _DriftPass:
    """One drift evaluation over the rows of a ``(B, d)`` or ``(d,)`` shape,
    prepared once: the nets' ``NetPass`` es and the arrays ``xt`` and
    ``grad_v``, taken from a workspace.

    The pass is the tape of its last call, which the VJPs read: ``xt``, the
    nets' passes ``pot_tape`` and ``rot_tape``, ``grad_v`` (grad V, the
    quadratic term included) and ``g``, the rotational net's value.

    A call at ``x`` runs xt = x - center, both forward passes (the
    potential net's without its scalar output layer, which a drift never
    reads) and grad V = 2 xt + grad Vhat, with ``np.matmul(h, W.T)`` in
    every layer, and writes f = g - grad V into ``out``, of the rows'
    shape, when one is given. The model's center is read at each call; the
    layer views are those of the parameter arrays the pass was made for,
    which ``reads`` checks."""

    def __init__(self, model, shape, ws):
        d = model.dim
        if len(shape) not in (1, 2) or shape[-1] != d:
            raise DimensionMismatchError("Mlp input", d, shape[-1] if shape else None)
        rows = shape[0] if len(shape) == 2 else 1
        self.model = model
        self.params = (model.potential_net.params, model.rotational_net.params)
        self.xt = ws.take("xt", (rows, d))
        self.pot_tape = nets.NetPass(model.potential_net, rows, ws.part("pot"), value=False,
                                     sweep=ws.shared())
        self.rot_tape = nets.NetPass(model.rotational_net, rows, ws.part("rot"))
        self.g = self.rot_tape.value
        self.grad_v = ws.take("grad_v", (rows, d))

    def reads(self, model):
        """Whether the pass evaluates ``model`` as it stands."""
        return (model is self.model and self.params[0] is model.potential_net.params
                and self.params[1] is model.rotational_net.params)

    def __call__(self, x, out=None):
        xt = np.subtract(x, self.model.center, out=self.xt)
        self.pot_tape.forward(xt)
        g = self.rot_tape.forward(xt)
        grad_v = np.multiply(2.0, xt, out=self.grad_v)
        grad_v += self.pot_tape.gradient()
        if out is not None:
            np.subtract(g, grad_v, out=out)


def _kept_pass(model, shape, ws):
    """The ``_DriftPass`` of ``model`` at ``shape`` kept in ``ws``, made and
    kept there first if there is none or it reads other parameter arrays."""
    key = ("drift", shape)
    run = ws.kept(key)
    if run is None or not run.reads(model):
        run = ws.keep(key, _DriftPass(model, shape, ws))
    return run


def drift_with_tape(model, x, *, out=None, workspace=None):
    """The tape the VJPs read of the drift at the rows of x: the pass kept
    in the workspace part for the rows' shape, valid until the next call
    through that part (see ``nets``). f itself is written only into
    ``out``, when given, of the rows' shape."""
    ws = workspace or nets.Workspace()
    x = np.atleast_2d(x)
    run = _kept_pass(model, x.shape, ws)
    run(x, out)
    return run


def drift_vjp(model, tape, cotangent, *, workspace=None):
    """``(g_pot, g_rot, x_adj)``: the gradients of sum_b c_b . f(x_b) in
    the potential and the rotational net's parameters, and its input
    adjoint (needed when the evaluation point depends on theta)."""
    ws = workspace or nets.Workspace()
    c = np.asarray(cotangent, dtype=np.float64)
    neg_c = np.negative(c, out=ws.take("drift_vjp.neg_c", c.shape))
    g_pot, x_adj = potential_gradient_vjp(model, tape.pot_tape, neg_c, workspace=ws)
    g_rot, rot_adj = rotation_vjp(model, tape, c, workspace=ws)
    x_adj += rot_adj
    return g_pot, g_rot, x_adj


def potential_gradient_vjp(model, tape, cotangent, *, workspace=None):
    """``(g_pot, x_adj)`` of sum_b c_b . grad V(x_b), from the potential
    net's ``tape``."""
    ws = workspace or nets.Workspace()
    c = np.asarray(cotangent, dtype=np.float64)
    g_pot, net_adj = nets.grad_backprop(model.potential_net, tape, c, workspace=ws)
    x_adj = np.multiply(2.0, c, out=ws.take("potential_gradient_vjp.x_adj", c.shape))
    x_adj += net_adj
    return g_pot, x_adj


def rotation_vjp(model, tape, cotangent, *, workspace=None):
    """``(g_rot, x_adj)`` of sum_b c_b . g(x_b), from the drift ``tape``."""
    return nets.value_backprop(model.rotational_net, tape.rot_tape, cotangent,
                               workspace=workspace)


# -- checkpoint persistence -------------------------------------------------

def save_checkpoint(path, model, training_config_echo=None):
    payload = {
        "version": CHECKPOINT_VERSION,
        "dim": model.dim,
        "hidden_width": model.potential_net.hidden_widths[0],
        "rot_activation": model.rotational_net.activation.value,
        "center": model.center.tolist(),
        "potential_params": model.potential_net.params.tolist(),
        "rotational_params": model.rotational_net.params.tolist(),
        "training_config_echo": training_config_echo or {},
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return payload


def load_checkpoint(path):
    """Returns (model, training_config_echo). An ``offset_C`` field, which
    older checkpoints carry, is ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise FormatError(f"checkpoint {path}: not valid JSON ({err})") from err
    if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint {path}: missing or unsupported version "
                          f"(want {CHECKPOINT_VERSION})")

    def field(name, convert):
        try:
            return convert(payload[name])
        except KeyError as err:
            raise FormatError(f"checkpoint {path}: missing field {err}") from err
        except (ValueError, TypeError) as err:
            raise FormatError(f"checkpoint {path}: field '{name}': {err}") from err

    def vector(value):
        return np.array(value, dtype=np.float64)

    def positive_int(value):
        if not POSITIVE_INT.test(value):
            raise ValueError(f"expected a positive integer, got {json.dumps(value)}")
        return value

    d, w = field("dim", positive_int), field("hidden_width", positive_int)
    model = DecompositionModel(
        Mlp(d, (w, w), 1, Activation.TANH, field("potential_params", vector)),
        Mlp(d, (w, w), d, field("rot_activation", Activation), field("rotational_params", vector)),
        field("center", vector),
    )
    return model, payload.get("training_config_echo", {})
