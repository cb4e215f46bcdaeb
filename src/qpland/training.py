"""Loss assembly and optimization.

The loss is L = L_dyn + lambda * L_orth. L_dyn pushes a one-step Heun
integration of the learned drift onto the observed successor state, with
the residual divided by the step (so it estimates a velocity error) and
measured by a componentwise Huber loss. L_orth penalizes the cosine between
grad V and g at representative points, quadratically, with negative cosines
down-weighted. Optimization is plain Adam with a per-step exponential
learning-rate decay; model selection keeps the snapshot with the best
validation total loss.

The losses and their gradients walk their rows in blocks of ``_BLOCK``
rows: each block's arrays stay small enough for the caches, and no array
of a loss has more rows than a block. A block adds its loss sum and its
parameter gradient to the running totals; the mean divides by the whole
batch, so each block's cotangent is the one the whole batch would give its
rows. Up to ``_BLOCK`` rows the results are bit-identical to one pass over
the batch; above it they equal the sum of the block results in block
order, which differs from one pass by rounding only.

One ``nets.Workspace``, a local of ``train``, holds the batch gathers and
every block-sized array of a step from one step to the next; it is dropped
before each validation and freed when ``train`` returns or raises. Each
batch is gathered into the workspace straight from the dataset's own rows,
by the row numbers of the train split, so no split is copied for the run.
"""

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import evaluation
from .decomposition import (ModelGrads, drift_vjp, drift_with_tape, fit_center,
                            floored_cosine, orthogonality_cosine, potential_gradient_vjp,
                            rotation_vjp)
from .errors import ConfigError, NonFiniteError, TrainingDivergedError, check_finite
from .integrators import rk2_step
from .nets import Workspace

log = logging.getLogger("qpland.training")

HISTORY_COLUMNS = ("step", "lr", "train_loss", "train_dyn", "train_orth",
                   "val_loss", "val_dyn", "val_orth", "val_rollout")


@dataclass
class LossConfig:
    huber_delta: float = 1.0  # residual threshold between quadratic and linear regime
    orth_weight: float = 1.0  # multiplier on the orthogonality penalty
    neg_cos_weight: float = 0.1  # down-weight for cosines on the favourable side

    def __post_init__(self):
        problems = []
        if not self.huber_delta > 0:
            problems.append(f"huber_delta must be > 0, got {self.huber_delta}")
        if not 0 < self.neg_cos_weight <= 1:
            problems.append(f"neg_cos_weight must be in (0, 1], got {self.neg_cos_weight}")
        if self.orth_weight < 0:
            problems.append(f"orth_weight must be >= 0, got {self.orth_weight}")
        if problems:
            raise ConfigError(problems)


@dataclass
class TrainConfig:
    batch_size: int = 5000
    lr0: float = 1e-3
    decay_rate: Optional[float] = None  # per step; None = drop 10x over max_steps
    max_steps: int = 100_000
    eval_every: int = 1000
    seed: int = 0
    val_rollout_trajectories: int = 4

    def __post_init__(self):
        problems = []
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr0 > 0:
            problems.append(f"lr0 must be > 0, got {self.lr0}")
        if self.decay_rate is not None and not 0 < self.decay_rate <= 1:
            problems.append(f"decay_rate must be in (0, 1], got {self.decay_rate}")
        if self.max_steps < 1:
            problems.append(f"max_steps must be >= 1, got {self.max_steps}")
        if self.eval_every < 1:
            problems.append(f"eval_every must be >= 1, got {self.eval_every}")
        if self.val_rollout_trajectories < 0:
            problems.append("val_rollout_trajectories must be >= 0, "
                            f"got {self.val_rollout_trajectories}")
        if problems:
            raise ConfigError(problems)

    def resolved_decay(self):
        if self.decay_rate is not None:
            return self.decay_rate
        return 0.1 ** (1.0 / self.max_steps)


def huber(e, delta, out=None):
    """0.5 e^2 where |e| < delta, else delta |e| - 0.5 delta^2, componentwise."""
    out = np.abs(e, out=np.empty(np.shape(e)) if out is None else out)
    quadratic = out < delta
    out *= delta
    out -= 0.5 * delta * delta
    np.multiply(0.5, e, out=out, where=quadratic)
    np.multiply(out, e, out=out, where=quadratic)
    return out


def huber_grad(e, delta, out=None):
    return np.clip(e, -delta, delta, out=out)


# Rows per block of a loss or its gradient. A block of the default
# width-50 nets keeps each (rows, 50) float64 array at 200 KB, inside one
# core's L2; 128-row blocks were slower at d = 3, where per-call overhead
# dominates. The training digests that the tests pin were recorded at one
# block per call, and the tests check that their cases still fit in one.
_BLOCK = 512


def dyn_loss(model, x, x_next, dt, huber_delta):
    """Mean Huber loss of the one-step velocity residual over a pair batch,
    summed block by block (see the module docstring)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
    total = 0.0
    for start in range(0, len(x), _BLOCK):
        block = slice(start, start + _BLOCK)
        e = (rk2_step(model.drift, x[block], dt) - x_next[block]) / dt
        check_finite("dyn loss residual", e, start)
        total += huber(e, huber_delta).sum()
    return float(total / x.size)


def cosine_penalty(cos, neg_cos_weight):
    return np.where(cos > 0, cos * cos, neg_cos_weight * cos * cos)


def orth_loss(model, points, neg_cos_weight):
    """Mean asymmetric quadratic penalty on the grad-V / g cosine, summed
    block by block (see the module docstring)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    total = 0.0
    for start in range(0, len(points), _BLOCK):
        cos = orthogonality_cosine(model, points[start : start + _BLOCK])
        total += cosine_penalty(cos, neg_cos_weight).sum()
    return float(total / len(points))


def total_loss(model, x, x_next, dt, rep_points, cfg):
    return (dyn_loss(model, x, x_next, dt, cfg.huber_delta)
            + cfg.orth_weight * orth_loss(model, rep_points, cfg.neg_cos_weight))


def dyn_loss_and_grad(model, x, x_next, dt, huber_delta, grads, *, workspace=None):
    """dyn_loss plus its parameter gradient, accumulated into ``grads``.

    The rows go through ``_dyn_block`` in blocks of ``_BLOCK``, whose loss
    sums add up to the batch's; the workspace holds block-sized arrays.
    Bit-identical to one pass at up to ``_BLOCK`` rows, equal to the sum in
    block order above it.
    """
    ws = workspace or Workspace()
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
    total = 0.0
    for start in range(0, len(x), _BLOCK):
        block = slice(start, start + _BLOCK)
        total += _dyn_block(model, x[block], x_next[block], dt, huber_delta, x.size, start,
                            grads, ws)
    return float(total / x.size)


def _dyn_block(model, x, x_next, dt, huber_delta, size, start, grads, ws):
    """The Huber sum of one block of pairs, whose gradient (with the mean
    over ``size`` residual entries) it adds to ``grads``; ``start`` is the
    block's first row in the batch.

    The reverse sweep follows the Heun step: the second drift evaluation
    sits at a theta-dependent point, so its input adjoint feeds back into
    the first evaluation's cotangent. The two drift tapes are the
    workspace's parts "A" and "B".
    """
    f1, tape1 = drift_with_tape(model, x, workspace=ws.part("A"))
    x2 = np.multiply(dt, f1, out=ws.take("x2", x.shape))
    x2 += x
    f2, tape2 = drift_with_tape(model, x2, workspace=ws.part("B"))
    # e = (x + 0.5 dt (f1 + f2) - x_next) / dt
    e = np.add(f1, f2, out=ws.take("e", x.shape))
    e *= 0.5 * dt
    np.add(x, e, out=e)
    e -= x_next
    e /= dt
    check_finite("dyn loss residual", e, start)
    loss_sum = huber(e, huber_delta, out=ws.take("huber", e.shape)).sum()
    # cotangent of f2: 0.5 dt ibar, with ibar = huber_grad(e) / (size dt)
    cot = huber_grad(e, huber_delta, out=ws.take("cot", e.shape))
    cot /= size * dt
    cot *= 0.5 * dt
    x2bar = drift_vjp(model, tape2, cot, grads, workspace=ws)
    # cotangent of f1: 0.5 dt ibar + dt x2bar
    x2bar *= dt
    cot += x2bar
    drift_vjp(model, tape1, cot, grads, workspace=ws)
    return loss_sum


def orth_loss_and_grad(model, points, neg_cos_weight, grads, *, workspace=None):
    """orth_loss plus its parameter gradient, accumulated into ``grads``.

    The points go through ``_orth_block`` in blocks of ``_BLOCK``, with the
    same rounding contract as ``dyn_loss_and_grad``; the workspace holds
    block-sized arrays.
    """
    ws = workspace or Workspace()
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    total = 0.0
    for start in range(0, len(points), _BLOCK):
        total += _orth_block(model, points[start : start + _BLOCK], neg_cos_weight,
                             len(points), grads, ws)
    return float(total / len(points))


def _orth_block(model, points, neg_cos_weight, count, grads, ws):
    """The cosine penalty sum of one block of points, whose gradient (with
    the mean over ``count`` points) it adds to ``grads``. The drift tape is
    the workspace's part "A"."""
    _, tape = drift_with_tape(model, points, workspace=ws.part("A"))
    u, g = tape.grad_v, tape.g
    cos, ok, nu, ng = floored_cosine(u, g)
    loss_sum = cosine_penalty(cos, neg_cos_weight).sum()
    wprime = np.where(cos > 0, 2.0 * cos, 2.0 * neg_cos_weight * cos) / count
    wprime = np.where(ok, wprime, 0.0)[:, None]
    inv = 1.0 / (nu * ng)[:, None]
    along = ws.take("orth.along", u.shape)
    # cu = wprime (g inv - cos / nu^2 u), cg = wprime (u inv - cos / ng^2 g)
    cu = np.multiply(g, inv, out=ws.take("orth.cu", u.shape))
    cu -= np.multiply((cos / (nu * nu))[:, None], u, out=along)
    cu *= wprime
    cg = np.multiply(u, inv, out=ws.take("orth.cg", u.shape))
    cg -= np.multiply((cos / (ng * ng))[:, None], g, out=along)
    cg *= wprime
    potential_gradient_vjp(model, tape.pot_tape, cu, grads, workspace=ws)
    rotation_vjp(model, tape, cg, grads, workspace=ws)
    return loss_sum


def total_loss_and_grad(model, x, x_next, dt, rep_points, cfg, *, workspace=None):
    grads = ModelGrads.zeros_like(model)
    ld = dyn_loss_and_grad(model, x, x_next, dt, cfg.huber_delta, grads, workspace=workspace)
    ogr = ModelGrads.zeros_like(model)
    lo = orth_loss_and_grad(model, rep_points, cfg.neg_cos_weight, ogr, workspace=workspace)
    grads.add_scaled(ogr, cfg.orth_weight)
    return ld + cfg.orth_weight * lo, ld, lo, grads


# -- Adam ---------------------------------------------------------------------

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, params):
        return cls(np.zeros_like(params), np.zeros_like(params))


def adam_step(params, grad, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard Adam update with bias correction, in place. Refuses to apply
    (or produce) non-finite values so the parameters always stay loadable."""
    check_finite("adam gradient", grad)
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1**state.t)
    v_hat = state.v / (1.0 - beta2**state.t)
    step = lr * m_hat / (np.sqrt(v_hat) + eps)
    # out of place, so that a refused step leaves the last finite iterate
    new = np.subtract(params, step, out=step)
    check_finite("adam parameters", new)
    params[...] = new
    return params


# -- training loop ------------------------------------------------------------

@dataclass
class TrainResult:
    model: object  # best-validation snapshot
    history: list
    best_step: int
    best_val_loss: float


def train(dataset, representatives, model, loss_cfg, train_cfg):
    """Mini-batch Adam over the train split with periodic validation.

    ``representatives`` maps split name -> RepresentativeSet (train and val
    needed, neither empty). Returns the best-validation snapshot;
    single-threaded and bit-reproducible for a fixed seed.
    """
    x_va, y_va = dataset.pairs("val")
    reps_tr = representatives["train"].points
    reps_va = representatives["val"].points
    for what, points in (("dataset", dataset.x), ("train representatives", reps_tr),
                         ("val representatives", reps_va)):
        evaluation.check_width(what, points, model.dim)
    for what, points in (("train representatives", reps_tr), ("val representatives", reps_va)):
        evaluation.check_nonempty(what, points)
    fit_center(model, dataset.states("train"))
    tr_rows = np.flatnonzero(dataset.pair_mask("train"))

    rng = np.random.default_rng(train_cfg.seed)
    decay = train_cfg.resolved_decay()
    batch = min(train_cfg.batch_size, len(tr_rows))
    adam_pot = AdamState.like(model.potential_net.params)
    adam_rot = AdamState.like(model.rotational_net.params)

    val_ref = evaluation.rollout_reference(dataset, "val", train_cfg.val_rollout_trajectories)
    ws = Workspace()
    history = []
    best = {"loss": np.inf, "model": None, "step": -1}
    running = []
    order, pos = None, 0
    try:
        for step in range(1, train_cfg.max_steps + 1):
            if order is None or pos + batch > len(order):
                order = rng.permutation(len(tr_rows))
                pos = 0
            rows = tr_rows[order[pos : pos + batch]]
            pos += batch
            # each gather in mode "clip", as every index is in range by
            # construction: mode "raise" would first copy ``out``
            if len(reps_tr) > train_cfg.batch_size:
                ridx = rng.permutation(len(reps_tr))[: train_cfg.batch_size]
                rep_batch = np.take(reps_tr, ridx, axis=0, mode="clip",
                                    out=ws.take("reps", (len(ridx), reps_tr.shape[1])))
            else:
                rep_batch = reps_tr
            x = np.take(dataset.x, rows, axis=0, mode="clip",
                        out=ws.take("x", (batch, dataset.dim)))
            x_next = np.take(dataset.x_next, rows, axis=0, mode="clip",
                             out=ws.take("x_next", x.shape))
            loss, ld, lo, grads = total_loss_and_grad(
                model, x, x_next, dataset.dt, rep_batch, loss_cfg, workspace=ws)
            check_finite("training loss", loss, step=step)
            lr = train_cfg.lr0 * decay**step
            adam_step(model.potential_net.params, grads.potential, adam_pot, lr)
            adam_step(model.rotational_net.params, grads.rotational, adam_rot, lr)
            running.append((loss, ld, lo))
            if step % train_cfg.eval_every == 0 or step == train_cfg.max_steps:
                ws = Workspace()  # validation needs none of it: free the memory first
                rec = _evaluate(model, x_va, y_va, dataset.dt, reps_va, loss_cfg,
                                val_ref, step, lr, running)
                running = []
                history.append(rec)
                log.info("step %d lr %.3g train %.4g val %.4g (dyn %.3g orth %.3g roll %.3g)",
                         step, lr, rec["train_loss"], rec["val_loss"], rec["val_dyn"],
                         rec["val_orth"], rec["val_rollout"])
                if rec["val_loss"] < best["loss"]:
                    best.update(loss=rec["val_loss"], model=model.copy(), step=step)
    except NonFiniteError as err:
        # parameters are still the last finite iterate; prefer the best
        # validated snapshot, else keep what we have
        snapshot = best["model"] if best["model"] is not None else model.copy()
        raise TrainingDivergedError(getattr(err, "step", None) or adam_pot.t,
                                    snapshot=snapshot, history=history) from err
    if best["model"] is None:
        best.update(model=model.copy(), step=train_cfg.max_steps, loss=np.nan)
    return TrainResult(model=best["model"], history=history, best_step=best["step"],
                       best_val_loss=best["loss"])


def _evaluate(model, x_va, y_va, dt, reps_va, loss_cfg, val_ref, step, lr, running):
    val_dyn = dyn_loss(model, x_va, y_va, dt, loss_cfg.huber_delta)
    val_orth = orth_loss(model, reps_va, loss_cfg.neg_cos_weight)
    tr = np.array(running) if running else np.full((1, 3), np.nan)
    val_rollout = np.nan
    if val_ref is not None:
        x0, refs, stride = val_ref
        errs = evaluation.rollout_errors_against_reference(model, x0, refs, dt, stride)
        val_rollout = float(np.mean(errs))
    return {
        "step": step,
        "lr": lr,
        "train_loss": float(tr[:, 0].mean()),
        "train_dyn": float(tr[:, 1].mean()),
        "train_orth": float(tr[:, 2].mean()),
        "val_loss": val_dyn + loss_cfg.orth_weight * val_orth,
        "val_dyn": val_dyn,
        "val_orth": val_orth,
        "val_rollout": val_rollout,
    }


def write_history_csv(history, path):
    evaluation.write_csv(path, HISTORY_COLUMNS,
                         ([rec[c] for c in HISTORY_COLUMNS] for rec in history))
