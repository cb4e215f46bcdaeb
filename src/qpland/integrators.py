"""Fixed-step explicit Runge-Kutta integrators.

Fields are callables mapping states to derivatives, vectorized over a
leading batch axis; ``OdeField`` just bundles one with its dimension. Data
generation uses the classical fourth-order scheme, the training loss the
second-order Heun scheme.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteError


@dataclass(frozen=True)
class OdeField:
    dim: int
    rhs: Callable

    def __call__(self, x):
        return self.rhs(x)


def _check_stage(k, stage):
    if not np.all(np.isfinite(k)):
        bad = ~np.isfinite(np.atleast_2d(k)).all(axis=-1)
        raise NonFiniteError("integrator stage", stage=stage, index=int(np.argmax(bad)))


def rk4_step(field, x, dt, check=True):
    """One classical RK4 step. ``x`` may be a state or a batch of states."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=np.float64)
    k1 = field(x)
    if check:
        _check_stage(k1, 1)
    k2 = field(x + 0.5 * dt * k1)
    if check:
        _check_stage(k2, 2)
    k3 = field(x + 0.5 * dt * k2)
    if check:
        _check_stage(k3, 3)
    k4 = field(x + dt * k3)
    if check:
        _check_stage(k4, 4)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk2_step(field, x, dt, check=True):
    """One Heun step: x + dt/2 (k1 + k2), k1 = f(x), k2 = f(x + dt k1)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(x, dtype=np.float64)
    k1 = field(x)
    if check:
        _check_stage(k1, 1)
    k2 = field(x + dt * k1)
    if check:
        _check_stage(k2, 2)
    return x + 0.5 * dt * (k1 + k2)

