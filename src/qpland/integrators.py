"""Fixed-step explicit Runge-Kutta integrators.

Fields are plain callables mapping states to derivatives, vectorized over
a leading batch axis. Data generation uses the classical fourth-order
scheme, the training loss and rollouts the second-order Heun scheme.
Neither step checks its stages for finiteness; each caller checks what it
keeps with ``errors.check_finite`` (``datasets.generate`` the states,
``training.dyn_loss`` the residual), and a diverged rollout reports inf.

Buffers: ``rk4_step`` writes k1..k4, the stage inputs and the ``2 k3`` term
into eight buffers of its keyword-only ``workspace``, a ``nets.Workspace``
kept from call to call, or of a fresh one that dies with the call. The
field is called as ``field(s, out=buf)``; it must accept ``out`` and may
return ``buf``, its argument ``s`` or a new array. The keyword-only
``out`` receives the new state and is returned; it may not be ``x`` or a
workspace buffer, which the step reads while it fills ``out``. The stages
are valid until the next step through the same workspace.
"""

import numpy as np

from .nets import Workspace


def rk4_step(field, x, dt, *, out=None, workspace=None):
    """One classical RK4 step of a state or a batch of states ``x``, into
    ``out`` when given (see the module docstring).

    Stage inputs and the final combination are built in place, with every
    rounding of x + (dt/6) (k1 + 2 k2 + 2 k3 + k4) kept. Neither ``x`` nor
    a stage is ever written, since a field may return its argument."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=np.float64)
    # one block for the eight, so that a step looks up one array
    b1, b2, b3, b4, s2, s3, s4, k3x2 = (workspace or Workspace()).take("rk4", (8, *x.shape))
    k1 = field(x, out=b1)
    k2 = field(_stage_input(x, k1, 0.5 * dt, s2), out=b2)
    k3 = field(_stage_input(x, k2, 0.5 * dt, s3), out=b3)
    k4 = field(_stage_input(x, k3, dt, s4), out=b4)
    acc = np.multiply(k2, 2.0, out=out)
    acc += k1
    acc += np.multiply(k3, 2.0, out=k3x2)
    acc += k4
    acc *= dt / 6.0
    acc += x
    return acc


def rk2_step(field, x, dt):
    """One Heun step: x + dt/2 (k1 + k2), k1 = f(x), k2 = f(x + dt k1);
    built in place like ``rk4_step``."""
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
