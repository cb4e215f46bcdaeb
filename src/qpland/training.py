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
of a loss has more rows than a block. A block returns its loss sum and
the terms of its parameter gradient, which are added to the running
totals; the mean divides by the whole batch, so each block's cotangent is
the one the whole batch would give its rows. Up to ``_BLOCK`` rows the
results are bit-identical to one pass over the batch; above it they equal
the sum of the block results in block order, which differs from one pass
by rounding only.

The blocks of a loss are independent, so they run on lanes, one per CPU
the process may use (see ``lanes``). Gradients are return values, as in
``nets``: each VJP returns its parameter gradients, a block returns them
as it got them, and the calling thread adds them to the totals in the
serial order: every block's terms, in the order the block made them,
block after block. Summing a block's terms first would move the rounding.
So losses and gradients are bit-identical for any number of lanes.

One ``nets.Workspace``, a local of ``train``, holds the batch gathers and
every block-sized array of a step from one step to the next, with one
more workspace per further lane kept in it; all of them are dropped before
each validation and freed when ``train`` returns or raises. Each batch is
gathered into the workspace straight from the dataset's own rows, by the
row numbers of the train split, so no split is copied for the run.
"""

import logging
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import evaluation, lanes
from .decomposition import (ModelGrads, drift_vjp, drift_with_tape, fit_center,
                            floored_cosine, orthogonality_cosine, potential_gradient_vjp,
                            rotation_vjp)
from .errors import (FRACTION, FRACTION_OR_NULL, NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE,
                     POSITIVE_INT, NonFiniteError, QplandError, TrainingDivergedError,
                     check_fields, check_finite, checked)
from .integrators import rk2_step
from .nets import Workspace

log = logging.getLogger("qpland.training")

HISTORY_COLUMNS = ("step", "lr", "train_loss", "train_dyn", "train_orth",
                   "val_loss", "val_dyn", "val_orth", "val_rollout")


@dataclass
class LossConfig:
    huber_delta: float = checked(1.0, POSITIVE)  # Huber threshold: quadratic below, linear above
    orth_weight: float = checked(1.0, NON_NEGATIVE)  # multiplier on the orthogonality penalty
    neg_cos_weight: float = checked(0.1, FRACTION)  # down-weight of cosines on the favourable side

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainConfig:
    batch_size: int = checked(5000, POSITIVE_INT)
    lr0: float = checked(1e-3, POSITIVE)
    # per step; None = drop 10x over max_steps
    decay_rate: Optional[float] = checked(None, FRACTION_OR_NULL)
    max_steps: int = checked(100_000, POSITIVE_INT)
    eval_every: int = checked(1000, POSITIVE_INT)
    seed: int = checked(0, NON_NEGATIVE_INT)
    val_rollout_trajectories: int = checked(4, NON_NEGATIVE_INT)

    def __post_init__(self):
        check_fields(self)

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


def _block_sums(rows, block, workspace, grads=None):
    """The sum of the loss sums of ``block(start, ws)`` over the blocks of
    ``_BLOCK`` of ``rows`` rows, run on lanes (see ``lanes``) and added in
    block order. A block returns ``(loss_sum, pot_terms, rot_terms)``, its
    terms of each net's gradient in the order it made them, none for a
    loss without a gradient; they are added to ``grads`` in that order,
    block after block, as a serial loop would add them."""
    total = 0.0

    def reduce(result):
        nonlocal total
        block_sum, pot_terms, rot_terms = result
        total += block_sum
        for g in pot_terms:
            grads.potential += g
        for g in rot_terms:
            grads.rotational += g

    starts = range(0, rows, _BLOCK)
    lanes.run_blocks(len(starts), lambda i, ws: block(starts[i], ws), reduce, workspace)
    return total


def dyn_loss(model, x, x_next, dt, huber_delta):
    """Mean Huber loss of the one-step velocity residual over a pair batch,
    summed block by block (see the module docstring). The blocks of a lane
    share its workspace, for the Heun stages, the drift that ``model.drift``
    prepares in it once per block size, and the residual."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))

    def block(start, ws):
        rows = slice(start, start + _BLOCK)
        e = _residual(partial(model.drift, workspace=ws), x[rows], x_next[rows], dt, start, ws)
        return huber(e, huber_delta, out=ws.take("huber", e.shape)).sum(), (), ()

    return float(_block_sums(len(x), block, Workspace()) / x.size)


def _residual(field, x, x_next, dt, start, ws):
    """The velocity residual (x + dt/2 (k1 + k2) - x_next) / dt of one Heun
    step of ``field``, in ``ws``, checked finite; ``start`` is the block's
    first row in the batch."""
    e = rk2_step(field, x, dt, out=ws.take("e", x.shape), workspace=ws)
    e -= x_next
    e /= dt
    check_finite("dyn loss residual", e, start)
    return e


def cosine_penalty(cos, neg_cos_weight):
    return np.where(cos > 0, cos * cos, neg_cos_weight * cos * cos)


def orth_loss(model, points, neg_cos_weight):
    """Mean asymmetric quadratic penalty on the grad-V / g cosine, summed
    block by block (see the module docstring). The blocks of a lane share
    its workspace."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))

    def block(start, ws):
        cos = orthogonality_cosine(model, points[start : start + _BLOCK], workspace=ws)
        return cosine_penalty(cos, neg_cos_weight).sum(), (), ()

    return float(_block_sums(len(points), block, Workspace()) / len(points))


def total_loss(model, x, x_next, dt, rep_points, cfg):
    return (dyn_loss(model, x, x_next, dt, cfg.huber_delta)
            + cfg.orth_weight * orth_loss(model, rep_points, cfg.neg_cos_weight))


def dyn_loss_and_grad(model, x, x_next, dt, huber_delta, *, workspace=None):
    """``(loss, grads)``: dyn_loss and its parameter gradient, a
    ``ModelGrads``.

    The rows go through ``_dyn_block`` in blocks of ``_BLOCK``, on lanes,
    whose loss sums add up to the batch's; the workspace of each lane
    holds block-sized arrays. Bit-identical to one pass at up to ``_BLOCK``
    rows, equal to the sum in block order above it.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_2d(np.asarray(x_next, dtype=np.float64))

    def block(start, ws):
        rows = slice(start, start + _BLOCK)
        return _dyn_block(model, x[rows], x_next[rows], dt, huber_delta, x.size, start, ws)

    grads = ModelGrads.zeros_like(model)
    return float(_block_sums(len(x), block, workspace or Workspace(), grads) / x.size), grads


def _dyn_block(model, x, x_next, dt, huber_delta, size, start, ws):
    """``(loss_sum, (gp2, gp1), (gr2, gr1))``: the Huber sum of one block
    of pairs and the terms of its gradient (with the mean over ``size``
    residual entries) in each net, stage 2's then stage 1's, as the sweeps
    make them; ``start`` is the block's first row in the batch.

    The forward pass is the Heun step of ``dyn_loss``, through a field that
    keeps each stage's drift tape: stage 1 in the workspace's part "A",
    stage 2 in part "B". It writes each drift into the step's stage
    buffer, "rk2.k1" or "rk2.k2". The reverse
    sweep follows the step: the second drift evaluation sits at a
    theta-dependent point, so its input adjoint feeds back into the first
    evaluation's cotangent.
    """
    tapes = []

    def field(s, out):
        tapes.append(drift_with_tape(model, s, out=out, workspace=ws.part("AB"[len(tapes)])))
        return out

    e = _residual(field, x, x_next, dt, start, ws)
    tape1, tape2 = tapes
    loss_sum = huber(e, huber_delta, out=ws.take("huber", e.shape)).sum()
    # cotangent of f2: 0.5 dt ibar, with ibar = huber_grad(e) / (size dt)
    cot = huber_grad(e, huber_delta, out=ws.take("cot", e.shape))
    cot /= size * dt
    cot *= 0.5 * dt
    gp2, gr2, x2bar = drift_vjp(model, tape2, cot, workspace=ws)
    # cotangent of f1: 0.5 dt ibar + dt x2bar
    x2bar *= dt
    cot += x2bar
    gp1, gr1, _ = drift_vjp(model, tape1, cot, workspace=ws)
    return loss_sum, (gp2, gp1), (gr2, gr1)


def orth_loss_and_grad(model, points, neg_cos_weight, *, workspace=None):
    """``(loss, grads)``: orth_loss and its parameter gradient, a
    ``ModelGrads``.

    The points go through ``_orth_block`` in blocks of ``_BLOCK``, on
    lanes, with the same rounding contract as ``dyn_loss_and_grad``; the
    workspace of each lane holds block-sized arrays.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))

    def block(start, ws):
        return _orth_block(model, points[start : start + _BLOCK], neg_cos_weight,
                           len(points), ws)

    grads = ModelGrads.zeros_like(model)
    return float(_block_sums(len(points), block, workspace or Workspace(), grads)
                 / len(points)), grads


def _orth_block(model, points, neg_cos_weight, count, ws):
    """``(loss_sum, (gp,), (gr,))``: the cosine penalty sum of one block of
    points and the term of its gradient (with the mean over ``count``
    points) in each net. The drift tape is the workspace's part "A"; no f
    is computed."""
    tape = drift_with_tape(model, points, workspace=ws.part("A"))
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
    gp, _ = potential_gradient_vjp(model, tape.pot_tape, cu, workspace=ws)
    gr, _ = rotation_vjp(model, tape, cg, workspace=ws)
    return loss_sum, (gp,), (gr,)


def total_loss_and_grad(model, x, x_next, dt, rep_points, cfg, *, workspace=None):
    ld, grads = dyn_loss_and_grad(model, x, x_next, dt, cfg.huber_delta, workspace=workspace)
    lo, ogr = orth_loss_and_grad(model, rep_points, cfg.neg_cos_weight, workspace=workspace)
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
    needed, neither empty); the dataset's train and val splits must have
    pairs. Returns the best-validation snapshot. The blocks of each loss
    run on lanes, threads that end with the call that starts them; the
    result is bit-reproducible for a fixed seed, for any number of CPUs.
    """
    reps_tr = representatives["train"].points
    reps_va = representatives["val"].points
    for what, points in (("dataset", dataset.x), ("train representatives", reps_tr),
                         ("val representatives", reps_va)):
        evaluation.check_width(what, points, model.dim)
    for what, points in (("train representatives", reps_tr), ("val representatives", reps_va)):
        evaluation.check_nonempty(what, points)
    for split in ("train", "val"):
        if not dataset.pair_mask(split).any():
            raise QplandError(f"dataset: the {split} split has no pairs")
    fit_center(model, dataset, "train")
    # int32 row numbers gather the same rows at half the memory
    tr_rows = np.flatnonzero(dataset.pair_mask("train")).astype(
        np.int32 if len(dataset.x) <= np.iinfo(np.int32).max else np.intp)

    rng = np.random.default_rng(train_cfg.seed)
    decay = train_cfg.resolved_decay()
    batch = min(train_cfg.batch_size, len(tr_rows))
    adam_pot = AdamState.like(model.potential_net.params)
    adam_rot = AdamState.like(model.rotational_net.params)

    val_ref = evaluation.rollout_reference(dataset, "val", train_cfg.val_rollout_trajectories)
    ws = Workspace()
    history = []
    best = {"loss": np.inf, "model": None, "step": -1}
    # the best snapshot is one model, allocated before the step workspaces,
    # into which each better validation copies the parameters; a copy made
    # at a validation would sit above the step arrays just freed and keep
    # the heap from shrinking back
    snapshot = model.copy()
    running = []
    order, pos = None, 0
    try:
        for step in range(1, train_cfg.max_steps + 1):
            if order is None or pos + batch > len(order):
                order = None  # never two permutations alive at once
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
                # validation needs none of the lanes' workspaces: free them first
                ws = Workspace()
                rec = _evaluate(model, dataset, reps_va, loss_cfg, val_ref, step, lr,
                                running)
                running = []
                history.append(rec)
                log.info("step %d lr %.3g train %.4g val %.4g (dyn %.3g orth %.3g roll %.3g)",
                         step, lr, rec["train_loss"], rec["val_loss"], rec["val_dyn"],
                         rec["val_orth"], rec["val_rollout"])
                if rec["val_loss"] < best["loss"]:
                    snapshot.potential_net.params[...] = model.potential_net.params
                    snapshot.rotational_net.params[...] = model.rotational_net.params
                    best.update(loss=rec["val_loss"], model=snapshot, step=step)
    except NonFiniteError as err:
        # parameters are still the last finite iterate; prefer the best
        # validated snapshot, else keep what we have
        kept = best["model"] if best["model"] is not None else model.copy()
        raise TrainingDivergedError(getattr(err, "step", None) or adam_pot.t,
                                    snapshot=kept, history=history) from err
    if best["model"] is None:
        best.update(model=model.copy(), step=train_cfg.max_steps, loss=np.nan)
    return TrainResult(model=best["model"], history=history, best_step=best["step"],
                       best_val_loss=best["loss"])


def _evaluate(model, dataset, reps_va, loss_cfg, val_ref, step, lr, running):
    """The history record of a validation. The val pairs are gathered here,
    so that they are not held between validations."""
    dt = dataset.dt
    val_dyn = dyn_loss(model, *dataset.pairs("val"), dt, loss_cfg.huber_delta)
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
