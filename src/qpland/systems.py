"""Benchmark dynamical systems: right-hand sides, initial-state samplers,
and exact reference quantities where they are known.

All right-hand sides are vectorized over a leading batch axis. Exact
decompositions (grad V, g) are provided for the two low-dimensional systems
whose quasipotential is known in closed form; the discretized
Ginzburg-Landau chain carries its energy instead (the quasipotential there
is twice the energy up to a constant).

Each ``rhs_*`` function, ``gl_energy_gradient`` and each
``SystemSpec.field`` takes ``out=None``, NumPy-style: given an array of the
state's shape, it writes f(x) there and returns it; otherwise it returns a
new array. ``out`` must not be the state itself, which is read while
``out`` is written. The arithmetic does not depend on ``out``, so neither
do the bits. A field must take ``out``: ``integrators.rk4_step`` passes
each stage its buffer.
"""

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, SamplingError, check_finite
from .integrators import rk4_step

SYSTEM_NAMES = ("bistable3d", "limitcycle2d", "yeast3d", "ginzburg_landau", "brusselator")

# -2.785 is where the real axis leaves the stability region of classical
# RK4: a step dt is linearly stable on an eigenvalue -lam < 0 when
# lam dt <= 2.785
RK4_REAL_STABILITY = 2.785

YEAST_PARAM_NAMES = ("j1", "j2", "j3", "k1", "k2", "k3", "ki", "ks", "ka1", "ka2", "a0")


@dataclass(frozen=True)
class SystemSpec:
    name: str
    dim: int
    params: dict
    domain: Optional[np.ndarray]  # (d, 2) sampling box, None for mode-based samplers
    field: Callable  # right-hand side, (..., d) -> (..., d); takes out=None
    sample: Callable  # (rng, n) -> (n, d)
    # closed-form quasipotential U, valid on the basins of (+-1, 0, 0) minus the
    # separatrix (bistable3d) and on the whole plane (limitcycle2d)
    exact_u: Optional[Callable] = None
    exact_grad_v: Optional[Callable] = None
    exact_g: Optional[Callable] = None
    energy: Optional[Callable] = None
    energy_gradient: Optional[Callable] = None
    # "rk4_dt_limit": for the stiff PDE chains, the largest RK4 step that is
    # linearly stable on their diffusion term (see RK4_REAL_STABILITY)
    extras: dict = dc_field(default_factory=dict)


# --------------------------------------------------------------------------
# Example 1: bistable system in 3-d, attractors at (+-1, 0, 0)

def rhs_bistable3d(x, out=None):
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty_like(x)
    x0 = x[..., 0]
    # x0 * x0 * x0, not x0**3: NumPy's SIMD power is many times slower, most
    # of all on negative bases, and how it rounds depends on the host's vector
    # unit; a product of floats rounds the same on every host
    c = x0 * x0 * x0 - x0
    out[..., 0] = -2.0 * c - (x[..., 1] + x[..., 2])
    out[..., 1] = -x[..., 1] + 2.0 * c
    out[..., 2] = -x[..., 2] + 2.0 * c
    return out


def exact_u_bistable3d(x):
    x = np.asarray(x, dtype=np.float64)
    return (1.0 - x[..., 0] ** 2) ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2


def exact_decomposition_bistable3d(x):
    """(grad V, g) with V = U/2; -grad V + g reproduces the drift exactly."""
    x = np.asarray(x, dtype=np.float64)
    x0 = x[..., 0]
    c = x0 * x0 * x0 - x0  # a product, as in rhs_bistable3d
    grad_v = np.stack([2.0 * c, x[..., 1], x[..., 2]], axis=-1)
    g = np.stack([-(x[..., 1] + x[..., 2]), 2.0 * c, 2.0 * c], axis=-1)
    return grad_v, g


def _make_bistable3d(params):
    _params("bistable3d", params, {})
    domain = np.array([[-2.0, 2.0], [-1.5, 1.5], [-1.5, 1.5]])

    def sample(rng, n):
        return _uniform_box(rng, n, domain)

    return SystemSpec(
        name="bistable3d",
        dim=3,
        params={},
        domain=domain,
        field=rhs_bistable3d,
        sample=sample,
        exact_u=exact_u_bistable3d,
        exact_grad_v=lambda x: exact_decomposition_bistable3d(x)[0],
        exact_g=lambda x: exact_decomposition_bistable3d(x)[1],
    )


# --------------------------------------------------------------------------
# Example 2: limit cycle on an ellipse, in 2-d

def _lc_q(x, a, b):
    p = x[..., 0] - a
    s = x[..., 1] - b
    return p, s, p * p + p * s + s * s


def exact_u_limitcycle2d(x, a=1.0, b=2.5):
    _, _, q = _lc_q(np.asarray(x, dtype=np.float64), a, b)
    return (q - 0.5) ** 2


def rhs_limitcycle2d(x, a=1.0, b=2.5, out=None):
    x = np.asarray(x, dtype=np.float64)
    p, s, q = _lc_q(x, a, b)
    if out is None:
        out = np.empty_like(x)
    out[..., 0] = -(q - 0.5) * (2.0 * p + s) - 2.0 * (p + 2.0 * s)
    out[..., 1] = -(q - 0.5) * (p + 2.0 * s) + 2.0 * (2.0 * p + s)
    return out


def exact_decomposition_limitcycle2d(x, a=1.0, b=2.5):
    x = np.asarray(x, dtype=np.float64)
    p, s, q = _lc_q(x, a, b)
    grad_v = np.stack([(q - 0.5) * (2.0 * p + s), (q - 0.5) * (p + 2.0 * s)], axis=-1)
    g = np.stack([-2.0 * (p + 2.0 * s), 2.0 * (2.0 * p + s)], axis=-1)
    return grad_v, g


def _make_limitcycle2d(params):
    known = _params("limitcycle2d", params, {"a": 1.0, "b": 2.5})
    a, b = known["a"], known["b"]
    domain = np.array([[-0.5, 2.5], [1.0, 4.0]])

    def sample(rng, n):
        return _uniform_box(rng, n, domain)

    return SystemSpec(
        name="limitcycle2d",
        dim=2,
        params=known,
        domain=domain,
        field=lambda x, out=None: rhs_limitcycle2d(x, a, b, out=out),
        sample=sample,
        exact_u=lambda x: exact_u_limitcycle2d(x, a, b),
        exact_grad_v=lambda x: exact_decomposition_limitcycle2d(x, a, b)[0],
        exact_g=lambda x: exact_decomposition_limitcycle2d(x, a, b)[1],
    )


# --------------------------------------------------------------------------
# Example 3: budding-yeast cell-cycle network, 3-d
#
# The 11 rate constants live in an external reference and are never
# defaulted here: callers must supply all of them.

def rhs_yeast3d(x, params, out=None):
    x = np.asarray(x, dtype=np.float64)
    p = params
    xx, yy, zz = x[..., 0], x[..., 1], x[..., 2]
    if out is None:
        out = np.empty_like(x)
    out[..., 0] = xx * xx / (p["j1"] ** 2 + xx * xx) - p["k1"] * xx - xx * yy + p["a0"]
    out[..., 1] = yy * yy / (p["j2"] ** 2 + yy * yy) - p["k2"] * yy - yy * zz + p["ka1"] * xx
    out[..., 2] = p["ks"] * zz * zz / (p["j3"] ** 2 + zz * zz) - p["k3"] * zz - p["ki"] * zz * xx + p["ka2"] * yy
    return out


def _make_yeast3d(params):
    p = _params("yeast3d", params, dict.fromkeys(YEAST_PARAM_NAMES))
    bad = [k for k in YEAST_PARAM_NAMES if not p[k] > 0]
    if bad:
        raise ConfigError([f"yeast3d: parameter '{k}' must be positive" for k in bad])
    domain = np.array([[0.0, 5.0]] * 3)

    def fld(x, out=None):
        return rhs_yeast3d(x, p, out=out)

    def sample(rng, n, _max_draws=10**6):
        # rejection: keep states with sup-norm drift below 5
        out = np.empty((n, 3))
        have, drawn = 0, 0
        while have < n:
            take = min(max(4 * (n - have), 64), _max_draws - drawn)
            if take <= 0:
                raise SamplingError(
                    f"yeast3d sampler: rejection loop exceeded {_max_draws} draws "
                    f"({have}/{n} accepted); parameters likely degenerate")
            cand = _uniform_box(rng, take, domain)
            drawn += take
            ok = np.abs(fld(cand)).max(axis=1) < 5.0
            sel = cand[ok][: n - have]
            out[have : have + len(sel)] = sel
            have += len(sel)
        return out

    return SystemSpec(name="yeast3d", dim=3, params=p, domain=domain, field=fld, sample=sample)


# --------------------------------------------------------------------------
# Example 4: discretized Ginzburg-Landau chain (gradient system)
#
# I+1 nodes x_0..x_I with h = 1/I and pinned ends u_0 = u_I = 0; the state
# is the interior vector (u_1, ..., u_{I-1}).

def _gl_pad(u):
    pad = np.zeros((*u.shape[:-1], 1))
    return np.concatenate([pad, u, pad], axis=-1)


def gl_energy(u, n_cells, delta):
    """E_h[u] = sum_{i=1..I} [ delta/2 ((u_i - u_{i-1})/h)^2 + V(u_i)/delta ],
    V(u) = (1 - u^2)^2 / 4, on the padded chain."""
    up = _gl_pad(np.asarray(u, dtype=np.float64))
    h = 1.0 / n_cells
    diff = (up[..., 1:] - up[..., :-1]) / h
    v = 0.25 * (1.0 - up[..., 1:] ** 2) ** 2
    return 0.5 * delta * (diff**2).sum(axis=-1) + (v / delta).sum(axis=-1)


def gl_energy_gradient(u, n_cells, delta, out=None):
    # u and grad in C order, so that the flat views taken below are views
    u = np.ascontiguousarray(u, dtype=np.float64)
    if out is not None and not out.flags.c_contiguous:
        out[...] = gl_energy_gradient(u, n_cells, delta)
        return out
    h2 = (1.0 / n_cells) ** 2
    # -delta * (up[:-2] - 2 up[1:-1] + up[2:]) / h2 + (u * u * u - u) / delta
    # on the padded chain up, with the same roundings, built in place: each
    # temporary a batch frees can hand its pages back to the OS, to be
    # faulted in again next call. The pinned ends are not padded in: adding
    # their 0.0 changes a sum at most from -0.0 to 0.0, and adding the cube
    # term, never -0.0, evens that out. u * u * u, not u**3, for the reasons
    # given in rhs_bistable3d.
    grad = np.multiply(u, -2.0, out=out)
    # each neighbour is added over the whole flattened batch in one
    # contiguous pass, several times faster than over (n, d - 1) slices;
    # that pass hands each end node a node of the next or previous chain, so
    # the end columns are then built again
    d = u.shape[-1]
    flat_grad, flat_u = grad.reshape(-1), u.reshape(-1)
    rows_grad, rows_u = grad.reshape(-1, d), u.reshape(-1, d)
    flat_grad[1:] += flat_u[:-1]
    np.multiply(rows_u[:, 0], -2.0, out=rows_grad[:, 0])
    flat_grad[:-1] += flat_u[1:]
    np.multiply(rows_u[:, -1], -2.0, out=rows_grad[:, -1])
    if d > 1:
        rows_grad[:, -1] += rows_u[:, -2]
    grad /= h2
    grad *= -delta
    cube = u * u
    cube *= u
    cube -= u
    cube /= delta
    grad += cube
    return grad


def rhs_ginzburg_landau(u, n_cells, delta, out=None):
    grad = gl_energy_gradient(u, n_cells, delta, out=out)
    return np.negative(grad, out=grad)


def _make_ginzburg_landau(params):
    known = _params("ginzburg_landau", params, {"I": 51, "delta": 0.1}, integers=("I",))
    n_cells, delta = known["I"], float(known["delta"])
    if n_cells < 2 or delta <= 0:
        raise ConfigError(["ginzburg_landau: need I >= 2 and delta > 0"])
    dim = n_cells - 1
    nodes = np.arange(1, n_cells) / n_cells  # interior grid points

    def sample(rng, n):
        # 4 sine modes, normalized to sup-norm a over the interior nodes
        coeffs = rng.uniform(-1.0, 1.0, size=(n, 4))
        amps = rng.uniform(0.0, 1.5, size=(n, 1))
        modes = np.sin(np.pi * np.outer(np.arange(1, 5), nodes))  # (4, dim)
        raw = coeffs @ modes
        peak = np.abs(raw).max(axis=1, keepdims=True)
        peak[peak == 0.0] = 1.0
        # normalize before scaling so the sup-norm equals the amplitude exactly
        return amps * (raw / peak)

    return SystemSpec(
        name="ginzburg_landau",
        dim=dim,
        params={"I": n_cells, "delta": delta},
        domain=None,
        field=lambda u, out=None: rhs_ginzburg_landau(u, n_cells, delta, out=out),
        sample=sample,
        energy=lambda u: gl_energy(u, n_cells, delta),
        energy_gradient=lambda u: gl_energy_gradient(u, n_cells, delta),
        # the Dirichlet Laplacian's eigenvalues lie in (-4/h^2, 0), times delta
        extras={"nodes": nodes,
                "rk4_dt_limit": RK4_REAL_STABILITY / (4.0 * delta * n_cells**2)},
    )


def gl_stable_states(system, dt=5e-4, tol=1e-8, max_steps=2_000_000):
    """The two energy minima u_-, u_+, found by relaxing -+0.5 plateau seeds.
    A NaN or inf, as at a ``dt`` above ``rk4_dt_limit``, raises at its step."""
    out = []
    for sign in (-1.0, 1.0):
        u = np.full(system.dim, 0.5 * sign)
        # a blown-up step overflows; the located error below is its one report
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, max_steps + 1):
                u = rk4_step(system.field, u, dt)
                check_finite("ginzburg_landau relaxation", u, step=step)
                if np.abs(system.field(u)).max() <= tol:
                    break
            else:
                raise SamplingError("ginzburg_landau relaxation did not converge")
        out.append(u)
    return out[0], out[1]


# --------------------------------------------------------------------------
# Example 5: discretized Brusselator (non-gradient), state (u_0..u_I, v_0..v_I)

def _neumann_lap(x, m, out):
    """h^2 times the Neumann Laplacian of both m-node fields in the rows of
    the C-ordered ``x``, written into ``out``.

    Ghost nodes mirror the first interior neighbor: w_{-1} = w_1,
    w_{I+1} = w_{I-1}. Inside a field the sum is (-2 w_i + w_{i-1}) +
    w_{i+1}, the roundings of w_{i-1} - 2 w_i + w_{i+1}, with each
    neighbour added over the whole flattened batch in one contiguous pass,
    as in gl_energy_gradient; that pass hands each end node a node of the
    other field or the next row, so the end columns are built again."""
    flat_out, flat_x = out.reshape(-1), x.reshape(-1)
    np.multiply(x, -2.0, out=out)
    flat_out[1:] += flat_x[:-1]
    flat_out[:-1] += flat_x[1:]
    # (rows, field, node) views: 2 (w_1 - w_0) and 2 (w_{I-1} - w_I)
    fields_out, fields_x = out.reshape(-1, 2, m), x.reshape(-1, 2, m)
    for end, inner in ((0, 1), (-1, -2)):
        ends = np.subtract(fields_x[..., inner], fields_x[..., end], out=fields_out[..., end])
        ends *= 2.0
    return out


def rhs_brusselator(x, n_cells, alpha, a_param, out=None):
    # x and out in C order, so that the flat views taken below are views
    x = np.ascontiguousarray(x, dtype=np.float64)
    if out is not None and not out.flags.c_contiguous:
        out[...] = rhs_brusselator(x, n_cells, alpha, a_param)
        return out
    if out is None:
        out = np.empty_like(x)
    m = n_cells + 1
    _neumann_lap(x, m, out)
    out /= (1.0 / n_cells) ** 2
    # (lap u + 1 + u u v - (1 + A) u) / alpha and lap v + A u - u u v, each
    # with these roundings, in contiguous passes over the flattened batch:
    # node i of v lies m entries after node i of u, so a pass over entries
    # [:-m] against [m:] pairs them up. Each pass also fills the entries of
    # the other field, which are not kept (and are finite wherever the
    # state's products are): the u half is built in ``du`` and copied into
    # ``out``, the v half in ``out`` itself.
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    uu_v = flat_x[:-m] * flat_x[:-m]
    uu_v *= flat_x[m:]
    du = flat_out + 1.0
    du[:-m] += uu_v
    scaled_u = flat_x * (1.0 + a_param)
    du -= scaled_u
    du /= alpha
    flat_out[m:] += np.multiply(flat_x[:-m], a_param, out=scaled_u[:-m])
    flat_out[m:] -= uu_v
    out.reshape(-1, 2 * m)[:, :m] = du.reshape(-1, 2 * m)[:, :m]
    return out


def _make_brusselator(params):
    known = _params("brusselator", params, {"I": 19, "alpha": 0.1, "A": 0.5}, integers=("I",))
    n_cells, alpha, a_param = known["I"], float(known["alpha"]), float(known["A"])
    if n_cells < 2 or alpha <= 0:
        raise ConfigError(["brusselator: need I >= 2 and alpha > 0"])
    dim = 2 * (n_cells + 1)
    nodes = np.arange(n_cells + 1) / n_cells

    def sample(rng, n):
        # 5 cosine modes per component; offsets keep u in [1/2, 3/2], v in [0, 1]
        modes = np.cos(np.pi * np.outer(np.arange(5), nodes))  # (5, I+1)
        cu = rng.uniform(-1.0, 1.0, size=(n, 5))
        cv = rng.uniform(-1.0, 1.0, size=(n, 5))
        a1 = rng.uniform(0.0, 0.5, size=(n, 1))
        a2 = rng.uniform(0.5 + a1, 1.5 - a1)
        a3 = rng.uniform(0.0, 0.5, size=(n, 1))
        a4 = rng.uniform(a3, 1.0 - a3)
        raw_u, raw_v = cu @ modes, cv @ modes
        pu = np.abs(raw_u).max(axis=1, keepdims=True)
        pv = np.abs(raw_v).max(axis=1, keepdims=True)
        pu[pu == 0.0] = 1.0
        pv[pv == 0.0] = 1.0
        return np.concatenate([a1 * (raw_u / pu) + a2, a3 * (raw_v / pv) + a4], axis=1)

    stable = np.concatenate([np.ones(n_cells + 1), np.full(n_cells + 1, a_param)])
    return SystemSpec(
        name="brusselator",
        dim=dim,
        params={"I": n_cells, "alpha": alpha, "A": a_param},
        domain=None,
        field=lambda x, out=None: rhs_brusselator(x, n_cells, alpha, a_param, out=out),
        sample=sample,
        # the Neumann Laplacian's eigenvalues lie in [-4/h^2, 0], over alpha in u
        extras={"nodes": nodes, "stable_state": stable,
                "rk4_dt_limit": RK4_REAL_STABILITY * alpha / (4.0 * n_cells**2)},
    )


def brusselator_mean_embedding(system):
    """(u0, v0) -> flat state u(x) = u0, v(x) = v0."""
    m = system.params["I"] + 1

    def to_state(ab):
        ab = np.atleast_2d(np.asarray(ab, dtype=np.float64))
        return np.concatenate(
            [np.repeat(ab[:, :1], m, axis=1), np.repeat(ab[:, 1:], m, axis=1)], axis=1)

    return to_state


def brusselator_mode1_embedding(system):
    """(u1, v1) -> state u = 1 + u1 cos(pi x), v = A + v1 cos(pi x)."""
    nodes = system.extras["nodes"]
    cosx = np.cos(np.pi * nodes)
    a_param = system.params["A"]

    def to_state(ab):
        ab = np.atleast_2d(np.asarray(ab, dtype=np.float64))
        return np.concatenate(
            [1.0 + ab[:, :1] * cosx, a_param + ab[:, 1:] * cosx], axis=1)

    return to_state


# --------------------------------------------------------------------------

_MAKERS = {
    "bistable3d": _make_bistable3d,
    "limitcycle2d": _make_limitcycle2d,
    "yeast3d": _make_yeast3d,
    "ginzburg_landau": _make_ginzburg_landau,
    "brusselator": _make_brusselator,
}


def make_system(name, params=None):
    if name not in _MAKERS:
        raise ConfigError([f"unknown system '{name}'; choose one of {SYSTEM_NAMES}"])
    return _MAKERS[name](dict(params or {}))


def _is_number(v):
    """An int, or a finite float; ``True`` and ``False`` are not numbers."""
    return not isinstance(v, bool) and (isinstance(v, int)
                                        or isinstance(v, float) and math.isfinite(v))


def _params(name, params, defaults, integers=()):
    """``defaults`` updated by ``params``. Raises one ConfigError naming every
    parameter that ``defaults`` lacks, that is not a number, that is named in
    ``integers`` but is not an integer, or that is missing where its default
    is None."""
    problems = [f"{name}: missing parameter '{k}'" for k, v in defaults.items()
                if v is None and k not in params]
    problems += [f"{name}: unknown parameter '{k}'" for k in sorted(set(params) - set(defaults))]
    for k, v in params.items():
        if k in defaults and not _is_number(v):
            problems.append(f"{name}: parameter '{k}' must be a number, got {v!r}")
        elif k in integers and not isinstance(v, int):
            problems.append(f"{name}: parameter '{k}' must be an integer, got {v!r}")
    if problems:
        raise ConfigError(problems)
    return {**defaults, **params}


def _uniform_box(rng, n, box):
    lo, hi = box[:, 0], box[:, 1]
    return lo + (hi - lo) * rng.random((n, box.shape[0]))
