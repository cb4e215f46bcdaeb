import ast

import numpy as np
import pytest
from hypothesis import settings

from qpland import lanes
from qpland.datasets import TrajectoryDataset, generate, split
from qpland.nets import Activation, Mlp, param_count
from qpland.systems import make_system

# The same examples on every run, and no replay of earlier failures from a
# local example database: two runs of one tree give one verdict.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the lanes see: ``cpus(n)``."""
    return lambda n: monkeypatch.setattr(lanes, "cpu_count", lambda: n)


def make_net(input_dim, hidden, output_dim, activation, rng, scale=0.6):
    n = param_count(input_dim, hidden, output_dim)
    return Mlp(input_dim, tuple(hidden), output_dim, activation,
               rng.normal(0.0, scale, n))


def tanh_111(weight=1.0, bias=0.0):
    """1-1-1 net (single hidden unit): y = w2 * tanh(w1 x + b1) + b2."""
    return Mlp(1, (1,), 1, Activation.TANH, np.array([weight, bias, weight, bias]))


def ragged_bistable3d():
    """20 split bistable3d trajectories of 10 pairs, each odd one without its
    last pair: trajectories of 10 and of 9 pairs."""
    full = split(generate(make_system("bistable3d"), 20, 1e-2, 1.0, 10, seed=1), seed=2)
    last = np.r_[full.traj_id[1:] != full.traj_id[:-1], True]
    keep = ~(last & (full.traj_id % 2 == 1))
    return TrajectoryDataset(dt=full.dt, x=full.x[keep], x_next=full.x_next[keep],
                             traj_id=full.traj_id[keep], n_trajectories=full.n_trajectories,
                             split_seed=full.split_seed, metadata=full.metadata)


def called_name(call):
    """The name an ``ast.Call`` calls: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
