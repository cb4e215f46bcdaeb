"""Run configuration: one strict JSON document drives the whole pipeline.

Unknown keys are rejected and every violation is reported at once, so a
config diff review catches typos before a long run burns time on them.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .systems import SYSTEM_NAMES, make_system
from .training import LossConfig, TrainConfig

_BLOCK_KEYS = {
    "system": {"name", "params", "domain"},
    "data": {"N", "dt", "T", "m", "seed", "split_seed"},
    "sampling": {"r", "seed"},
    "model": {"hidden_width", "rot_activation", "init_seed"},
    "loss": {"huber_delta", "orth_weight", "neg_cos_weight"},
    "train": {"batch", "lr0", "decay", "steps", "eval_every", "seed",
              "val_rollout_trajectories"},
    "eval": {"grid", "rollout_dt", "rollout_split", "slices", "mep"},
}

_SLICE_KEYS = {"name", "axes", "fixed", "box", "resolution", "embedding"}
_GRID_KEYS = {"box", "resolution"}
_MEP_KEYS = {"n_images", "n_iters", "step", "tol", "relax_dt", "relax_tol"}


@dataclass
class RunConfig:
    system: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    loss: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    eval: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def make_system(self):
        if "name" not in self.system:
            raise ConfigError(["system.name is required"])
        return make_system(self.system["name"], self.system.get("params", {}))

    def domain(self, system):
        if "domain" in self.system:
            return np.asarray(self.system["domain"], dtype=np.float64)
        if system.domain is None:
            raise ConfigError([f"system '{system.name}' has no default domain; set system.domain"])
        return system.domain

    def data_seed(self):
        return int(self.data.get("seed", 0))

    def split_seed(self):
        return int(self.data.get("split_seed", self.data_seed() + 1))

    def loss_config(self):
        return LossConfig(
            huber_delta=float(self.loss.get("huber_delta", 1.0)),
            orth_weight=float(self.loss.get("orth_weight", 1.0)),
            neg_cos_weight=float(self.loss.get("neg_cos_weight", 0.1)),
        )

    def train_config(self):
        t = self.train
        return TrainConfig(
            batch_size=int(t.get("batch", 5000)),
            lr0=float(t.get("lr0", 1e-3)),
            decay_rate=None if t.get("decay") is None else float(t["decay"]),
            max_steps=int(t.get("steps", 100_000)),
            eval_every=int(t.get("eval_every", 1000)),
            seed=int(t.get("seed", 0)),
            val_rollout_trajectories=int(t.get("val_rollout_trajectories", 4)),
        )


def validate_config(doc):
    """Collect every schema violation before raising."""
    problems = []
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a JSON object"])
    for key in sorted(set(doc) - set(_BLOCK_KEYS)):
        problems.append(f"unknown top-level key '{key}'")
    for block, allowed in _BLOCK_KEYS.items():
        sub = doc.get(block)
        if sub is None:
            continue
        if not isinstance(sub, dict):
            problems.append(f"'{block}' must be an object")
            continue
        for key in sorted(set(sub) - allowed):
            problems.append(f"unknown key '{block}.{key}'")
    sys_block = doc.get("system") or {}
    if isinstance(sys_block, dict):
        name = sys_block.get("name")
        if name is not None and name not in SYSTEM_NAMES:
            problems.append(f"system.name '{name}' not one of {SYSTEM_NAMES}")
        params = sys_block.get("params")
        if params is not None and not isinstance(params, dict):
            problems.append("system.params must be an object")
        if "domain" in sys_block:
            problems += _domain_problems(sys_block)
    eval_block = doc.get("eval") or {}
    if isinstance(eval_block, dict):
        grid = eval_block.get("grid")
        if isinstance(grid, dict):
            for key in sorted(set(grid) - _GRID_KEYS):
                problems.append(f"unknown key 'eval.grid.{key}'")
            if "box" in grid and not _is_box(grid["box"]):
                problems.append("eval.grid.box must be a list of [lo, hi] number pairs, "
                                f"got {grid['box']!r}")
            if "resolution" in grid and not _is_resolution(grid["resolution"]):
                problems.append("eval.grid.resolution must be a positive integer or a list "
                                f"of them, got {grid['resolution']!r}")
        elif grid is not None:
            problems.append("eval.grid must be an object")
        mep = eval_block.get("mep")
        if isinstance(mep, dict):
            for key in sorted(set(mep) - _MEP_KEYS):
                problems.append(f"unknown key 'eval.mep.{key}'")
        elif mep is not None:
            problems.append("eval.mep must be an object")
        slices = eval_block.get("slices")
        if slices is not None:
            if not isinstance(slices, list):
                problems.append("eval.slices must be a list")
            else:
                for i, sl in enumerate(slices):
                    if not isinstance(sl, dict):
                        problems.append(f"eval.slices[{i}] must be an object")
                        continue
                    for key in sorted(set(sl) - _SLICE_KEYS):
                        problems.append(f"unknown key 'eval.slices[{i}].{key}'")
                    if ("embedding" in sl) == ("axes" in sl):
                        problems.append(
                            f"eval.slices[{i}]: give exactly one of 'axes' or 'embedding'")
                    problems += _slice_problems(f"eval.slices[{i}]", sl)
    for block, key in (("data", "N"), ("data", "m"), ("model", "hidden_width"),
                       ("train", "batch"), ("train", "steps"), ("train", "eval_every")):
        sub = doc.get(block) or {}
        if isinstance(sub, dict) and key in sub:
            val = sub[key]
            if not _is_int(val) or val < 1:
                problems.append(f"'{block}.{key}' must be a positive integer, got {val!r}")
    if problems:
        raise ConfigError(problems)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int_key(k):
    try:
        int(k)
    except ValueError:
        return False
    return True


def _is_box(box):
    """A non-empty list of [lo, hi] number pairs."""
    return (isinstance(box, list) and len(box) > 0
            and all(isinstance(r, list) and len(r) == 2 and all(map(_is_number, r))
                    for r in box))


def _is_resolution(res):
    """A positive integer, or a non-empty list of them."""
    values = res if isinstance(res, list) else [res]
    return len(values) > 0 and all(_is_int(r) and r >= 1 for r in values)


def _domain_problems(sys_block):
    """``system.domain`` must be d x 2 numbers, d the system's dimension.
    The dimension is checked only when the system can be built; a system
    that cannot reports its own problems when a command builds it."""
    domain = sys_block["domain"]
    if not _is_box(domain):
        return [f"system.domain must be a list of [lo, hi] number pairs, got {domain!r}"]
    name, params = sys_block.get("name"), sys_block.get("params") or {}
    if name not in SYSTEM_NAMES or not isinstance(params, dict):
        return []
    try:
        dim = make_system(name, params).dim
    except (ConfigError, TypeError, ValueError):
        return []
    if len(domain) != dim:
        return [f"system.domain has {len(domain)} rows, system '{name}' has dimension {dim}"]
    return []


def _slice_problems(where, sl):
    """The shape of one slice: a 2 x 2 numeric box, a positive resolution,
    integer axes and integer ``fixed`` keys. Which coordinates they name is
    ``planar_slice``'s check, against the system's dimension."""
    problems = []
    box = sl.get("box")
    if box is None:
        problems.append(f"{where}: 'box' is required")
    elif not (_is_box(box) and len(box) == 2):
        problems.append(f"{where}.box must be 2 x 2 numbers [[lo, hi], [lo, hi]], got {box!r}")
    if "resolution" in sl and not _is_resolution(sl["resolution"]):
        problems.append(f"{where}.resolution must be a positive integer or a list of them, "
                        f"got {sl['resolution']!r}")
    axes = sl.get("axes")
    if axes is not None and not (isinstance(axes, list) and all(map(_is_int, axes))):
        problems.append(f"{where}.axes must be a list of integers, got {axes!r}")
    fixed = sl.get("fixed")
    if fixed is not None and not (isinstance(fixed, dict) and all(map(_is_int_key, fixed))
                                  and all(map(_is_number, fixed.values()))):
        problems.append(f"{where}.fixed must map integer keys to numbers, got {fixed!r}")
    return problems


def parse_config(doc):
    validate_config(doc)
    return RunConfig(
        system=doc.get("system", {}) or {},
        data=doc.get("data", {}) or {},
        sampling=doc.get("sampling", {}) or {},
        model=doc.get("model", {}) or {},
        loss=doc.get("loss", {}) or {},
        train=doc.get("train", {}) or {},
        eval=doc.get("eval", {}) or {},
        raw=doc,
    )


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except json.JSONDecodeError as err:
        raise ConfigError([f"config {path}: invalid JSON ({err})"]) from None
    return parse_config(doc)
