"""Per-layer tracing for the pipeline benchmark.

The tracer wraps the public functions of each ``qpland`` layer from the
outside and aggregates, per function, the number of calls, the rows
processed, the total wall time and the self time (total time minus the
time spent in wrapped children).

Modules import each other by name (``from .integrators import rk4_step``),
so one function can be reachable through several module attributes. A
function is therefore patched at every ``qpland`` module attribute that
holds it, which is the name its callers look up. Right-hand sides are
captured by ``OdeField`` when a system is built, so systems must be built
while the tracer is installed.
"""

import contextlib
import functools
import time

import numpy as np

from qpland import (datasets, decomposition, evaluation, integrators, nets, systems,
                    training)

from bench import TRAIN

MODULES = (systems, integrators, datasets, nets, decomposition, training, evaluation)
# layers whose self time inside ``training.train`` is the training kernel
KERNEL_LAYERS = ("nets", "decomposition", "training")


def _rows(x):
    return int(np.shape(x)[0]) if np.ndim(x) > 1 else 1


# (metric name, home module, attribute, rows of one call from (args, result))
FUNCTIONS = (
    ("systems.rhs", systems, "rhs_bistable3d", lambda a, r: _rows(a[0])),
    ("systems.rhs", systems, "rhs_ginzburg_landau", lambda a, r: _rows(a[0])),
    ("integrators.rk4_step", integrators, "rk4_step", lambda a, r: _rows(a[1])),
    ("integrators.rk2_step", integrators, "rk2_step", lambda a, r: _rows(a[1])),
    ("datasets.generate", datasets, "generate", lambda a, r: r.n_pairs),
    ("datasets.representative_sample", datasets, "representative_sample",
     lambda a, r: _rows(a[0])),
    ("datasets.save_dataset", datasets, "save_dataset", lambda a, r: a[0].n_pairs),
    ("datasets.load_dataset", datasets, "load_dataset", lambda a, r: r.n_pairs),
    ("datasets.TrajectoryDataset.trajectories", datasets.TrajectoryDataset, "trajectories",
     lambda a, r: a[0].n_pairs),
    ("nets.forward_tape", nets, "forward_tape", lambda a, r: _rows(a[1])),
    ("nets.input_gradient", nets, "input_gradient", lambda a, r: _rows(a[1])),
    ("nets.value_backprop", nets, "value_backprop", lambda a, r: _rows(a[1].x)),
    ("nets.grad_backprop", nets, "grad_backprop", lambda a, r: _rows(a[1].x)),
    ("decomposition.drift_with_tape", decomposition, "drift_with_tape",
     lambda a, r: _rows(a[1])),
    ("decomposition.drift_vjp", decomposition, "drift_vjp", lambda a, r: _rows(a[1].xt)),
    ("decomposition.potential_gradient_vjp", decomposition, "potential_gradient_vjp",
     lambda a, r: _rows(a[1].x)),
    ("decomposition.rotation_vjp", decomposition, "rotation_vjp",
     lambda a, r: _rows(a[1].xt)),
    ("training.dyn_loss_and_grad", training, "dyn_loss_and_grad", lambda a, r: _rows(a[1])),
    ("training.orth_loss_and_grad", training, "orth_loss_and_grad", lambda a, r: _rows(a[1])),
    # rows of an Adam step are parameters
    ("training.adam_step", training, "adam_step", lambda a, r: int(np.size(a[0]))),
    ("training.dyn_loss", training, "dyn_loss", lambda a, r: _rows(a[1])),
    ("training.orth_loss", training, "orth_loss", lambda a, r: _rows(a[1])),
    # rows of a training run are optimization steps
    (TRAIN, training, "train", lambda a, r: a[4].max_steps),
    ("evaluation.rollout_errors_against_reference", evaluation,
     "rollout_errors_against_reference", lambda a, r: _rows(a[1])),
    ("evaluation.quasipotential_errors", evaluation, "quasipotential_errors",
     lambda a, r: _rows(a[2])),
    ("evaluation.potential_values", evaluation, "potential_values", lambda a, r: _rows(a[1])),
)

NAMES = tuple(dict.fromkeys(name for name, *_ in FUNCTIONS))


class Tracer:
    """Aggregated call statistics for the wrapped functions.

    ``stats[name]`` is ``[calls, rows, total_s, self_s]``, as in
    ``bench.TRACE_FIELDS``; ``kernel_s`` is the self time of the
    ``KERNEL_LAYERS`` functions spent inside ``training.train``.
    """

    def __init__(self):
        self.stats = {name: [0, 0, 0.0, 0.0] for name in NAMES}
        self.kernel_s = 0.0
        self.active = True
        self._stack = []  # wrapped-children time of each open span
        self._train_depth = 0

    def wrap(self, name, fn, rows):
        layer = name.split(".")[0]
        in_kernel = layer in KERNEL_LAYERS and name != TRAIN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            self._train_depth += name == TRAIN
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._train_depth -= name == TRAIN
                own = elapsed - self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                st = self.stats[name]
                st[0] += 1
                st[2] += elapsed
                st[3] += own
                if in_kernel and self._train_depth:
                    self.kernel_s += own
            st[1] += rows(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Call through without recording, for work that is not the pipeline's."""
        self.active = False
        try:
            yield
        finally:
            self.active = True


@contextlib.contextmanager
def installed(tracer):
    """Patch every ``FUNCTIONS`` entry at each module attribute bound to it,
    and restore the originals on exit."""
    undo = []
    try:
        for name, home, attr, rows in FUNCTIONS:
            original = getattr(home, attr)
            traced = tracer.wrap(name, original, rows)
            owners = [home] + [m for m in MODULES if m is not home]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        undo.append((owner, key, value))
                        setattr(owner, key, traced)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
