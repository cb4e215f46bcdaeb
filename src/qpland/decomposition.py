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
"""

import copy
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nets
from .errors import ConfigError, FormatError
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

    def potential_gradient(self, x):
        xt = self.centered(x)
        return nets.input_gradient(self.potential_net, xt) + 2.0 * xt

    def rotation(self, x):
        return nets.forward(self.rotational_net, self.centered(x))

    def drift(self, x):
        return -self.potential_gradient(x) + self.rotation(x)

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

    def potential_gradient(self, x):
        return self.grad_v_fn(np.asarray(x, dtype=np.float64))

    def rotation(self, x):
        return self.g_fn(np.asarray(x, dtype=np.float64))

    def drift(self, x):
        return -self.potential_gradient(x) + self.rotation(x)

    @classmethod
    def from_system(cls, system):
        if system.exact_grad_v is None:
            raise ConfigError([f"system '{system.name}' has no exact decomposition"])
        return cls(system.dim, lambda x: 0.5 * system.exact_u(x), system.exact_grad_v,
                   system.exact_g)


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


def fit_center(model, states):
    model.center = np.asarray(states, dtype=np.float64).mean(axis=0)
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


def orthogonality_cosine(model, x):
    """Floored cosine of grad V and g at a state or at the rows of a batch."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    cos = floored_cosine(model.potential_gradient(rows), model.rotation(rows))[0]
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


@dataclass
class DriftTape:
    xt: np.ndarray
    pot_tape: nets.Tape
    rot_tape: nets.Tape
    grad_v: np.ndarray  # grad V (quadratic included) at the tape points
    g: np.ndarray


def drift_with_tape(model, x, *, workspace=None):
    """f at the rows of x, and the tape its VJPs read. Through a workspace
    part, the tape holds the part's arrays (see ``nets``)."""
    ws = workspace or nets.Workspace()
    x = np.atleast_2d(x)
    xt = np.subtract(x, model.center, out=ws.take("xt", x.shape))
    _, pot_tape = nets.forward_tape(model.potential_net, xt, workspace=ws.part("pot"))
    g, rot_tape = nets.forward_tape(model.rotational_net, xt, workspace=ws.part("rot"))
    grad_v = np.multiply(2.0, xt, out=ws.take("grad_v", xt.shape))
    grad_v += nets.tape_gradient(model.potential_net, pot_tape, workspace=ws.shared())
    tape = DriftTape(xt, pot_tape, rot_tape, grad_v, g)
    return np.subtract(g, grad_v, out=ws.take("f", xt.shape)), tape


def drift_vjp(model, tape, cotangent, grads, *, workspace=None):
    """Accumulate d(sum_b c_b . f(x_b))/dtheta into ``grads``; return the
    input adjoint (needed when the evaluation point depends on theta)."""
    ws = workspace or nets.Workspace()
    c = np.asarray(cotangent, dtype=np.float64)
    neg_c = np.negative(c, out=ws.take("drift_vjp.neg_c", c.shape))
    x_adj = potential_gradient_vjp(model, tape.pot_tape, neg_c, grads, workspace=ws)
    x_adj += rotation_vjp(model, tape, c, grads, workspace=ws)
    return x_adj


def potential_gradient_vjp(model, tape, cotangent, grads, *, workspace=None):
    ws = workspace or nets.Workspace()
    c = np.asarray(cotangent, dtype=np.float64)
    gp, x_adj = nets.grad_backprop(model.potential_net, tape, c, workspace=ws)
    grads.potential += gp
    out = np.multiply(2.0, c, out=ws.take("potential_gradient_vjp.x_adj", c.shape))
    out += x_adj
    return out


def rotation_vjp(model, tape, cotangent, grads, *, workspace=None):
    gr, x_adj = nets.value_backprop(model.rotational_net, tape.rot_tape, cotangent,
                                    workspace=workspace)
    grads.rotational += gr
    return x_adj


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
    try:
        d = int(payload["dim"])
        w = int(payload["hidden_width"])
        model = DecompositionModel(
            Mlp(d, (w, w), 1, Activation.TANH,
                np.array(payload["potential_params"], dtype=np.float64)),
            Mlp(d, (w, w), d, Activation(payload["rot_activation"]),
                np.array(payload["rotational_params"], dtype=np.float64)),
            np.array(payload["center"], dtype=np.float64),
        )
    except KeyError as err:
        raise FormatError(f"checkpoint {path}: missing field {err}") from err
    return model, payload.get("training_config_echo", {})
