"""Fixed-step explicit Runge-Kutta integrators.

Fields are plain callables mapping states to derivatives, vectorized over
a leading batch axis. Data generation uses the classical fourth-order
scheme, the training loss and rollouts the second-order Heun scheme.
"""

import numpy as np

from .errors import NonFiniteError


def _check_stage(k, stage):
    if not np.all(np.isfinite(k)):
        bad = ~np.isfinite(np.atleast_2d(k)).all(axis=-1)
        raise NonFiniteError("integrator stage", stage=stage, index=int(np.argmax(bad)))


def rk4_step(field, x, dt, check=True):
    """One classical RK4 step. ``x`` may be a state or a batch of states.

    Stage inputs and the final combination are built in place, in arrays
    this step allocates itself, with every rounding of
    x + (dt/6) (k1 + 2 k2 + 2 k3 + k4) kept. Neither ``x`` nor a stage is
    ever written, since a field may return its argument."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=np.float64)
    k1 = field(x)
    if check:
        _check_stage(k1, 1)
    k2 = field(_stage_input(x, k1, 0.5 * dt))
    if check:
        _check_stage(k2, 2)
    k3 = field(_stage_input(x, k2, 0.5 * dt))
    if check:
        _check_stage(k3, 3)
    k4 = field(_stage_input(x, k3, dt))
    if check:
        _check_stage(k4, 4)
    acc = np.multiply(k2, 2.0)
    acc += k1
    acc += 2.0 * k3
    acc += k4
    acc *= dt / 6.0
    acc += x
    return acc


def rk2_step(field, x, dt):
    """One Heun step: x + dt/2 (k1 + k2), k1 = f(x), k2 = f(x + dt k1);
    built in place like ``rk4_step``.

    The stages are not checked for finiteness: the training loss checks the
    residual the step feeds (``training.dyn_loss``), and a diverged rollout
    reports inf (``evaluation.rollout_errors_against_reference``)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=np.float64)
    k1 = field(x)
    k2 = field(_stage_input(x, k1, dt))
    acc = k1 + k2
    acc *= 0.5 * dt
    acc += x
    return acc


def _stage_input(x, k, c):
    """x + c k, in a new array."""
    s = np.multiply(k, c)
    s += x
    return s
