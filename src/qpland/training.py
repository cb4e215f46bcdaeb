"""Loss assembly and optimization.

The loss is L = L_dyn + lambda * L_orth. L_dyn pushes a one-step Heun
integration of the learned drift onto the observed successor state, with
the residual divided by the step (so it estimates a velocity error) and
measured by a componentwise Huber loss. L_orth penalizes the cosine between
grad V and g at representative points, quadratically, with negative cosines
down-weighted. Optimization is plain Adam with a per-step exponential
learning-rate decay; model selection keeps the snapshot with the best
validation total loss. One ``nets.Workspace``, a local of ``train``, holds
every batch-sized array of a step from one step to the next; it is dropped
before each validation and freed when ``train`` returns or raises. When it
starts and each time it drops the workspace, ``train`` hands the freed
pages of the C heap back to the OS (see ``_release_freed_memory``).
"""

import ctypes
import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import evaluation
from .decomposition import (ModelGrads, drift_vjp, drift_with_tape, fit_center,
                            floored_cosine, orthogonality_cosine, potential_gradient_vjp,
                            rotation_vjp)
from .errors import ConfigError, NonFiniteError, TrainingDivergedError
from .integrators import rk2_step
from .nets import NO_WORKSPACE, Workspace

log = logging.getLogger("qpland.training")

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # a C library other than glibc
    _malloc_trim = None
else:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


def _release_freed_memory():
    """Give the free pages of the C heap back to the OS, through glibc's
    ``malloc_trim``; with another C library, do nothing.

    glibc returns freed heap memory to the OS only from the top of its
    heap. Whether the pages of a dropped workspace leave the process
    therefore depends on where small blocks that outlive it happened to
    land, which moves with the process's allocation history (the length of
    its paths and environment, say): the peak memory of a train-then-eval
    process could read about 8 MB higher or not. After a trim, the memory
    held is the memory in use, whatever that history was."""
    if _malloc_trim is not None:
        _malloc_trim(0)

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


def _check_residual(e):
    ok = np.isfinite(e).all(axis=-1)
    if not ok.all():
        raise NonFiniteError("dyn loss residual", index=int(np.argmax(~np.atleast_1d(ok))))


def dyn_loss(model, x, x_next, dt, huber_delta):
    """Mean Huber loss of the one-step velocity residual over a pair batch."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
    e = (rk2_step(model.drift, x, dt) - x_next) / dt
    _check_residual(e)
    return float(huber(e, huber_delta).mean())


def cosine_penalty(cos, neg_cos_weight):
    return np.where(cos > 0, cos * cos, neg_cos_weight * cos * cos)


def orth_loss(model, points, neg_cos_weight):
    """Mean asymmetric quadratic penalty on the grad-V / g cosine."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cos = orthogonality_cosine(model, points)
    return float(cosine_penalty(cos, neg_cos_weight).mean())


def total_loss(model, x, x_next, dt, rep_points, cfg):
    return (dyn_loss(model, x, x_next, dt, cfg.huber_delta)
            + cfg.orth_weight * orth_loss(model, rep_points, cfg.neg_cos_weight))


def dyn_loss_and_grad(model, x, x_next, dt, huber_delta, grads, *, workspace=None):
    """dyn_loss plus its parameter gradient, accumulated into ``grads``.

    The reverse sweep follows the Heun step: the second drift evaluation
    sits at a theta-dependent point, so its input adjoint feeds back into
    the first evaluation's cotangent. The two drift tapes are the
    workspace's parts "A" and "B".
    """
    ws = workspace or NO_WORKSPACE
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
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
    _check_residual(e)
    loss = float(huber(e, huber_delta, out=ws.take("huber", e.shape)).mean())
    # cotangent of f2: 0.5 dt ibar, with ibar = huber_grad(e) / (e.size dt)
    cot = huber_grad(e, huber_delta, out=ws.take("cot", e.shape))
    cot /= e.size * dt
    cot *= 0.5 * dt
    x2bar = drift_vjp(model, tape2, cot, grads, workspace=ws)
    # cotangent of f1: 0.5 dt ibar + dt x2bar
    x2bar *= dt
    cot += x2bar
    drift_vjp(model, tape1, cot, grads, workspace=ws)
    return loss


def orth_loss_and_grad(model, points, neg_cos_weight, grads, *, workspace=None):
    """orth_loss plus its parameter gradient, accumulated into ``grads``.
    The drift tape is the workspace's part "A"."""
    ws = workspace or NO_WORKSPACE
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    _, tape = drift_with_tape(model, points, workspace=ws.part("A"))
    u, g = tape.grad_v, tape.g
    cos, ok, nu, ng = floored_cosine(u, g)
    loss = float(cosine_penalty(cos, neg_cos_weight).mean())
    wprime = np.where(cos > 0, 2.0 * cos, 2.0 * neg_cos_weight * cos) / points.shape[0]
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
    return loss


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
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("adam gradient", index=int(np.argmax(~np.isfinite(grad))))
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1**state.t)
    v_hat = state.v / (1.0 - beta2**state.t)
    step = lr * m_hat / (np.sqrt(v_hat) + eps)
    params -= step
    if not np.all(np.isfinite(params)):
        params += step  # roll back; keep the last finite iterate
        raise NonFiniteError("adam parameters", index=int(np.argmax(~np.isfinite(params - step))))
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
    x_tr, y_tr = dataset.pairs("train")
    x_va, y_va = dataset.pairs("val")
    reps_tr = representatives["train"].points
    reps_va = representatives["val"].points
    for what, points in (("dataset", x_tr), ("train representatives", reps_tr),
                         ("val representatives", reps_va)):
        evaluation.check_width(what, points, model.dim)
    for what, points in (("train representatives", reps_tr), ("val representatives", reps_va)):
        evaluation.check_nonempty(what, points)
    fit_center(model, dataset.states("train"))

    rng = np.random.default_rng(train_cfg.seed)
    decay = train_cfg.resolved_decay()
    batch = min(train_cfg.batch_size, len(x_tr))
    adam_pot = AdamState.like(model.potential_net.params)
    adam_rot = AdamState.like(model.rotational_net.params)

    val_ref = evaluation.rollout_reference(dataset, "val", train_cfg.val_rollout_trajectories)
    _release_freed_memory()
    ws = Workspace()
    history = []
    best = {"loss": np.inf, "model": None, "step": -1}
    running = []
    order, pos = None, 0
    try:
        for step in range(1, train_cfg.max_steps + 1):
            if order is None or pos + batch > len(order):
                order = rng.permutation(len(x_tr))
                pos = 0
            idx = order[pos : pos + batch]
            pos += batch
            if len(reps_tr) > train_cfg.batch_size:
                ridx = rng.permutation(len(reps_tr))[: train_cfg.batch_size]
                rep_batch = np.take(reps_tr, ridx, axis=0,
                                    out=ws.take("reps", (len(ridx), reps_tr.shape[1])))
            else:
                rep_batch = reps_tr
            x = np.take(x_tr, idx, axis=0, out=ws.take("x", (batch, x_tr.shape[1])))
            x_next = np.take(y_tr, idx, axis=0, out=ws.take("x_next", x.shape))
            loss, ld, lo, grads = total_loss_and_grad(
                model, x, x_next, dataset.dt, rep_batch, loss_cfg, workspace=ws)
            if not np.isfinite(loss):
                raise NonFiniteError("training loss", step=step)
            lr = train_cfg.lr0 * decay**step
            adam_step(model.potential_net.params, grads.potential, adam_pot, lr)
            adam_step(model.rotational_net.params, grads.rotational, adam_rot, lr)
            running.append((loss, ld, lo))
            if step % train_cfg.eval_every == 0 or step == train_cfg.max_steps:
                ws = Workspace()  # validation needs none of it: free the memory first
                _release_freed_memory()
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
    del ws
    _release_freed_memory()
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
