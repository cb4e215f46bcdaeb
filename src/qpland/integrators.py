"""Fixed-step explicit Runge-Kutta integrators.

Fields are plain callables mapping states to derivatives, vectorized over
a leading batch axis. Data generation uses the classical fourth-order
scheme, the training loss and rollouts the second-order Heun scheme.

Buffers: ``rk4_step`` takes a keyword-only ``out``, the array to write the
new state into, and ``workspace``, a ``nets.Workspace`` that keeps its
stages from call to call. With a workspace, each of k1..k4, each stage
input and the ``2 k3`` term has a buffer of its own, and the field is
called as ``field(s, out=buf)``; it must accept ``out`` and may return
``buf``, its argument ``s`` or a new array. ``out`` may not be ``x`` or a
workspace buffer, since the step reads ``x`` and the stages while it fills
``out``. What a step returns is ``out`` when given, and its stages are
valid until the next step through the same workspace. Without a
workspace, every stage is a new array and the field is called as
``field(s)``. The arithmetic is the same either way, and so are the bits.
"""

import numpy as np

from .errors import NonFiniteError


def _check_stage(k, stage):
    if not np.all(np.isfinite(k)):
        bad = ~np.isfinite(np.atleast_2d(k)).all(axis=-1)
        raise NonFiniteError("integrator stage", stage=stage, index=int(np.argmax(bad)))


def rk4_step(field, x, dt, check=True, *, out=None, workspace=None):
    """One classical RK4 step. ``x`` may be a state or a batch of states.

    Stage inputs and the final combination are built in place, with every
    rounding of x + (dt/6) (k1 + 2 k2 + 2 k3 + k4) kept. Neither ``x`` nor
    a stage is ever written, since a field may return its argument.

    ``out``, when given, receives the new state and is returned; it must
    not be ``x``. ``workspace`` keeps the stages, the stage inputs and the
    ``2 k3`` term in buffers reused by the next step, and passes each
    stage's buffer to the field as ``out=`` (see the module docstring).
    Without one, each of these is a new array and the field is called on
    the state alone."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=np.float64)
    if workspace is None:
        buffers = [None] * 8

        def stage(s, buf):
            return field(s)
    else:
        # one block for the eight, so that a step looks up one array
        buffers = workspace.take("rk4", (8, *x.shape))

        def stage(s, buf):
            return field(s, out=buf)

    b1, b2, b3, b4, s2, s3, s4, k3x2 = buffers
    k1 = stage(x, b1)
    if check:
        _check_stage(k1, 1)
    k2 = stage(_stage_input(x, k1, 0.5 * dt, s2), b2)
    if check:
        _check_stage(k2, 2)
    k3 = stage(_stage_input(x, k2, 0.5 * dt, s3), b3)
    if check:
        _check_stage(k3, 3)
    k4 = stage(_stage_input(x, k3, dt, s4), b4)
    if check:
        _check_stage(k4, 4)
    acc = np.multiply(k2, 2.0, out=out)
    acc += k1
    acc += np.multiply(k3, 2.0, out=k3x2)
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


def _stage_input(x, k, c, out=None):
    """x + c k, in ``out`` or a new array."""
    s = np.multiply(k, c, out=out)
    s += x
    return s
