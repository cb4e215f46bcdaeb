import ast

import numpy as np
import pytest
from hypothesis import settings

from qpland.nets import Activation, Mlp, param_count

# The same examples on every run, and no replay of earlier failures from a
# local example database: two runs of one tree give one verdict.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_net(input_dim, hidden, output_dim, activation, rng, scale=0.6):
    n = param_count(input_dim, hidden, output_dim)
    return Mlp(input_dim, tuple(hidden), output_dim, activation,
               rng.normal(0.0, scale, n))


def tanh_111(weight=1.0, bias=0.0):
    """1-1-1 net (single hidden unit): y = w2 * tanh(w1 x + b1) + b2."""
    return Mlp(1, (1,), 1, Activation.TANH, np.array([weight, bias, weight, bias]))


def called_name(call):
    """The name an ``ast.Call`` calls: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None
