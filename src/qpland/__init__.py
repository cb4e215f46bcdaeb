"""Quasipotential landscapes from trajectory data.

Learns an orthogonal decomposition f = -grad V + g of the vector field
driving a deterministic dynamical system, from sampled one-step trajectory
pairs; 2V then equals the quasipotential up to an additive constant on each
basin of attraction.
"""

__version__ = "0.1.0"

from .decomposition import (
    AnalyticDecomposition,
    DecompositionModel,
    init_model,
    load_checkpoint,
    orthogonality_cosine,
    save_checkpoint,
)
from .nets import Activation, Mlp
from .systems import make_system

__all__ = [
    "Activation",
    "AnalyticDecomposition",
    "DecompositionModel",
    "Mlp",
    "init_model",
    "load_checkpoint",
    "make_system",
    "orthogonality_cosine",
    "save_checkpoint",
    "__version__",
]
