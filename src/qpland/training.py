"""Loss assembly and optimization.

The loss is L = L_dyn + lambda * L_orth. L_dyn pushes a one-step Heun
integration of the learned drift onto the observed successor state, with
the residual divided by the step (so it estimates a velocity error) and
measured by a componentwise Huber loss. L_orth penalizes the cosine between
grad V and g at representative points, quadratically, with negative cosines
down-weighted. Optimization is plain Adam with a per-step exponential
learning-rate decay; model selection keeps the snapshot with the best
validation total loss.
"""

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import evaluation
from .decomposition import (ModelGrads, drift_vjp, drift_with_tape, fit_center,
                            floored_cosine, orthogonality_cosine, potential_gradient_vjp,
                            rotation_vjp)
from .errors import NonFiniteError, QplandError, TrainingDivergedError
from .integrators import rk2_step

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
            raise QplandError("; ".join(problems))


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
        if problems:
            raise QplandError("; ".join(problems))

    def resolved_decay(self):
        if self.decay_rate is not None:
            return self.decay_rate
        return 0.1 ** (1.0 / self.max_steps)


def huber(e, delta):
    ae = np.abs(e)
    return np.where(ae < delta, 0.5 * e * e, delta * ae - 0.5 * delta * delta)


def huber_grad(e, delta):
    return np.clip(e, -delta, delta)


def _check_residual(e):
    ok = np.isfinite(e).all(axis=-1)
    if not ok.all():
        raise NonFiniteError("dyn loss residual", index=int(np.argmax(~np.atleast_1d(ok))))


def dyn_loss(model, x, x_next, dt, huber_delta):
    """Mean Huber loss of the one-step velocity residual over a pair batch."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
    e = (rk2_step(model.drift, x, dt, check=False) - x_next) / dt
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


def dyn_loss_and_grad(model, x, x_next, dt, huber_delta, grads):
    """dyn_loss plus its parameter gradient, accumulated into ``grads``.

    The reverse sweep follows the Heun step: the second drift evaluation
    sits at a theta-dependent point, so its input adjoint feeds back into
    the first evaluation's cotangent.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))
    f1, tape1 = drift_with_tape(model, x)
    x2 = x + dt * f1
    f2, tape2 = drift_with_tape(model, x2)
    e = (x + 0.5 * dt * (f1 + f2) - x_next) / dt
    _check_residual(e)
    loss = float(huber(e, huber_delta).mean())
    ibar = huber_grad(e, huber_delta) / (e.size * dt)
    x2bar = drift_vjp(model, tape2, 0.5 * dt * ibar, grads)
    drift_vjp(model, tape1, 0.5 * dt * ibar + dt * x2bar, grads)
    return loss


def orth_loss_and_grad(model, points, neg_cos_weight, grads):
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    _, tape = drift_with_tape(model, points)
    u, g = tape.grad_v, tape.g
    cos, ok, nu, ng = floored_cosine(u, g)
    loss = float(cosine_penalty(cos, neg_cos_weight).mean())
    wprime = np.where(cos > 0, 2.0 * cos, 2.0 * neg_cos_weight * cos) / points.shape[0]
    wprime = np.where(ok, wprime, 0.0)[:, None]
    inv = 1.0 / (nu * ng)[:, None]
    cu = wprime * (g * inv - (cos / (nu * nu))[:, None] * u)
    cg = wprime * (u * inv - (cos / (ng * ng))[:, None] * g)
    potential_gradient_vjp(model, tape.pot_tape, cu, grads)
    rotation_vjp(model, tape, cg, grads)
    return loss


def total_loss_and_grad(model, x, x_next, dt, rep_points, cfg):
    grads = ModelGrads.zeros_like(model)
    ld = dyn_loss_and_grad(model, x, x_next, dt, cfg.huber_delta, grads)
    ogr = ModelGrads.zeros_like(model)
    lo = orth_loss_and_grad(model, rep_points, cfg.neg_cos_weight, ogr)
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
    final_model: object
    history: list
    best_step: int
    best_val_loss: float


def train(dataset, representatives, model, loss_cfg, train_cfg):
    """Mini-batch Adam over the train split with periodic validation.

    ``representatives`` maps split name -> RepresentativeSet (train and val
    needed). Returns the best-validation snapshot; single-threaded and
    bit-reproducible for a fixed seed.
    """
    x_tr, y_tr = dataset.pairs("train")
    x_va, y_va = dataset.pairs("val")
    reps_tr = representatives["train"].points
    reps_va = representatives["val"].points
    fit_center(model, dataset.states("train"))

    rng = np.random.default_rng(train_cfg.seed)
    decay = train_cfg.resolved_decay()
    batch = min(train_cfg.batch_size, len(x_tr))
    adam_pot = AdamState.like(model.potential_net.params)
    adam_rot = AdamState.like(model.rotational_net.params)

    val_ref = _val_rollout_reference(dataset, train_cfg.val_rollout_trajectories)
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
                rep_batch = reps_tr[ridx]
            else:
                rep_batch = reps_tr
            loss, ld, lo, grads = total_loss_and_grad(
                model, x_tr[idx], y_tr[idx], dataset.dt, rep_batch, loss_cfg)
            if not np.isfinite(loss):
                raise NonFiniteError("training loss", step=step)
            lr = train_cfg.lr0 * decay**step
            adam_step(model.potential_net.params, grads.potential, adam_pot, lr)
            adam_step(model.rotational_net.params, grads.rotational, adam_rot, lr)
            running.append((loss, ld, lo))
            if step % train_cfg.eval_every == 0 or step == train_cfg.max_steps:
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
    return TrainResult(model=best["model"], final_model=model, history=history,
                       best_step=best["step"], best_val_loss=best["loss"])


def _evaluate(model, x_va, y_va, dt, reps_va, loss_cfg, val_ref, step, lr, running):
    val_dyn = dyn_loss(model, x_va, y_va, dt, loss_cfg.huber_delta)
    val_orth = orth_loss(model, reps_va, loss_cfg.neg_cos_weight)
    tr = np.array(running) if running else np.full((1, 3), np.nan)
    val_rollout = np.nan
    if val_ref is not None:
        errs = evaluation.rollout_errors_against_reference(
            model, val_ref["x0"], val_ref["refs"], dt, val_ref["stride"])
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


def _val_rollout_reference(dataset, n_trajectories):
    if n_trajectories < 1:
        return None
    trajs = dataset.trajectories("val")[:n_trajectories]
    if not trajs:
        return None
    x0 = np.stack([lefts[0] for _, lefts, _ in trajs])
    refs = np.stack([lefts[1:] for _, lefts, _ in trajs], axis=1)  # (M, K, d)
    stride = int(dataset.metadata.get("m", 1))
    return {"x0": x0, "refs": refs, "stride": stride}


def write_history_csv(history, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for rec in history:
            fh.write(",".join(repr(rec[c]) if c != "step" else str(rec[c])
                              for c in HISTORY_COLUMNS) + "\n")


# -- (huber_delta, orth_weight) grid helper ------------------------------------

def grid_search(dataset, representatives, model_factory, loss_cfg, train_cfg,
                huber_deltas, orth_weights):
    """Train one model per (huber_delta, orth_weight) pair and report the
    final validation metrics; the choice between them stays with the caller."""
    records = []
    for hd in huber_deltas:
        for ow in orth_weights:
            cfg = replace(loss_cfg, huber_delta=hd, orth_weight=ow)
            result = train(dataset, representatives, model_factory(), cfg, train_cfg)
            last = result.history[-1]
            records.append({
                "huber_delta": hd,
                "orth_weight": ow,
                "val_loss": result.best_val_loss,
                "val_dyn": last["val_dyn"],
                "val_orth": last["val_orth"],
                "val_rollout": last["val_rollout"],
            })
    return records
