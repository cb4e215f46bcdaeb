"""Run configuration: one strict JSON document drives the whole pipeline.

``_TABLE`` is the one reference for every key of the document: the check
its value must pass, and its default or that it is required. A key that
sets a ``LossConfig``/``TrainConfig`` field reads both its check and its
default from that field's declaration; a default that another Python API
shares (a keyword of ``build_report``, ``string_mep`` or
``gl_stable_states``) is read from that signature. So each check and each
default is written once. Commands read values through ``RunConfig.get``.
``load_config`` reports every problem in the file at once, so a config diff
review catches typos before a long run burns time.
"""

import inspect
import json
from typing import NamedTuple, Optional

import numpy as np

from . import systems
from .datasets import MIN_SPLIT_TRAJECTORIES
from .errors import (NON_NEGATIVE_INT, POSITIVE, POSITIVE_INT, Check, ConfigError,
                     QplandError, is_int, is_number, must_be)
from .evaluation import (MIN_STRING_IMAGES, SliceSpec, build_report, planar_slice,
                         string_mep)
from .nets import Activation
from .systems import SYSTEM_NAMES, gl_stable_states, make_system
from .training import LossConfig, TrainConfig

_REQUIRED = object()  # the default of a key that a command reading it cannot do without


class _Key(NamedTuple):
    check: Check
    default: object  # a value, _REQUIRED, or a function of the RunConfig
    field: Optional[str] = None  # the LossConfig or TrainConfig field the key sets


def _is_box(box):
    """A non-empty list of [lo, hi] number pairs."""
    return (isinstance(box, list) and len(box) > 0
            and all(isinstance(r, list) and len(r) == 2 and all(map(is_number, r))
                    for r in box))


def _is_resolution(res):
    """A positive integer, or a non-empty list of them."""
    values = res if isinstance(res, list) else [res]
    return len(values) > 0 and all(is_int(r) and r >= 1 for r in values)


def _one_of(*choices):
    return must_be(f"one of {choices}", lambda v: v in choices)


_OBJECT = must_be("an object", lambda v: isinstance(v, dict))
_LIST = must_be("a list", lambda v: isinstance(v, list))
_POSITIVE_OR_NULL = must_be("a positive number or null", lambda v: v is None or POSITIVE.test(v))
_TRAJECTORIES = must_be(f"an integer >= {MIN_SPLIT_TRAJECTORIES}",
                        lambda v: is_int(v) and v >= MIN_SPLIT_TRAJECTORIES)
_STRING_IMAGES = must_be(f"an integer >= {MIN_STRING_IMAGES}",
                         lambda v: is_int(v) and v >= MIN_STRING_IMAGES)
_BOX = must_be("a list of [lo, hi] number pairs", _is_box)
_RESOLUTION = must_be("a positive integer or a list of them", _is_resolution)


def _default_of(fn, name):
    """The default of ``fn``'s parameter ``name``, read rather than restated."""
    return inspect.signature(fn).parameters[name].default


def _field(cls, name):
    """A key that sets field ``name`` of ``cls``, with that field's check and default."""
    field = cls.__dataclass_fields__[name]
    return _Key(field.metadata["check"], field.default, name)


# Every key of the document. The objects are the blocks, eval.grid and
# eval.mep, the prefixes of the keys; any other key in one is unknown.
# system.params is an object whose keys the system's maker checks.
_TABLE = {
    "system.name": _Key(_one_of(*SYSTEM_NAMES), _REQUIRED),
    "system.params": _Key(_OBJECT, {}),
    "data.N": _Key(_TRAJECTORIES, _REQUIRED),
    "data.dt": _Key(POSITIVE, _REQUIRED),
    "data.T": _Key(POSITIVE, _REQUIRED),
    "data.m": _Key(POSITIVE_INT, _REQUIRED),
    "data.seed": _Key(NON_NEGATIVE_INT, 0),
    "data.split_seed": _Key(NON_NEGATIVE_INT, lambda cfg: cfg.get("data.seed") + 1),
    "sampling.r": _Key(POSITIVE, _REQUIRED),
    "sampling.seed": _Key(NON_NEGATIVE_INT, 0),
    "model.hidden_width": _Key(POSITIVE_INT, 50),
    "model.rot_activation": _Key(_one_of(*(a.value for a in Activation)), "tanh"),
    "model.init_seed": _Key(NON_NEGATIVE_INT, 0),
    "loss.huber_delta": _field(LossConfig, "huber_delta"),
    "loss.orth_weight": _field(LossConfig, "orth_weight"),
    "loss.neg_cos_weight": _field(LossConfig, "neg_cos_weight"),
    "train.batch": _field(TrainConfig, "batch_size"),
    "train.lr0": _field(TrainConfig, "lr0"),
    "train.decay": _field(TrainConfig, "decay_rate"),
    "train.steps": _field(TrainConfig, "max_steps"),
    "train.eval_every": _field(TrainConfig, "eval_every"),
    "train.seed": _field(TrainConfig, "seed"),
    "train.val_rollout_trajectories": _field(TrainConfig, "val_rollout_trajectories"),
    "eval.rollout_dt": _Key(_POSITIVE_OR_NULL, _default_of(build_report, "dt_eval")),
    "eval.rollout_split": _Key(_one_of("train", "val", "test", None),
                               _default_of(build_report, "split")),
    "eval.grid": _Key(_OBJECT, None),  # absent: no grid metrics
    "eval.grid.box": _Key(_BOX, lambda cfg: cfg.system().domain),
    "eval.grid.resolution": _Key(_RESOLUTION, 101),
    "eval.slices": _Key(_LIST, []),  # each entry is checked by _slice_problems
    "eval.mep.n_images": _Key(_STRING_IMAGES, _default_of(string_mep, "n_images")),
    "eval.mep.n_iters": _Key(POSITIVE_INT, _default_of(string_mep, "n_iters")),
    "eval.mep.step": _Key(POSITIVE, _default_of(string_mep, "step")),
    "eval.mep.tol": _Key(POSITIVE, _default_of(string_mep, "tol")),
    "eval.mep.relax_dt": _Key(POSITIVE, _default_of(gl_stable_states, "dt")),
    "eval.mep.relax_tol": _Key(POSITIVE, _default_of(gl_stable_states, "tol")),
}

# every path of the document, each object before the keys in it
_PATHS = list(dict.fromkeys(p for key in _TABLE for p in (key.rpartition(".")[0], key)))
# object path ('' for the root) -> the names allowed in it
_CHILDREN = {parent: {p.rpartition(".")[2] for p in _PATHS if p.rpartition(".")[0] == parent}
             for parent in {p.rpartition(".")[0] for p in _PATHS}}

_EMBEDDINGS = {"brusselator_mean": systems.brusselator_mean_embedding,
               "brusselator_mode1": systems.brusselator_mode1_embedding}
# the keys of one entry of eval.slices; _build_slice holds their defaults
_SLICE = {
    "box": must_be("2 x 2 numbers [[lo, hi], [lo, hi]]", lambda v: _is_box(v) and len(v) == 2),
    "resolution": _RESOLUTION,
    "axes": must_be("a list of integers", lambda v: isinstance(v, list) and all(map(is_int, v))),
    "fixed": must_be("an object of integer keys and number values",
                     lambda v: isinstance(v, dict) and all(map(is_number, v.values()))
                     and all(str(k).removeprefix("-").isdecimal() for k in v)),
    "embedding": _one_of(*_EMBEDDINGS),
    "name": must_be("a string", lambda v: isinstance(v, str)),
}


class RunConfig:
    """A checked run config. ``get`` reads the table's keys; ``parse_config``
    built and checked the system, the slices and the loss and train configs."""

    def __init__(self, raw, given):
        self.raw = raw  # the document as read; checkpoints echo it
        self.given = given  # table key -> the document's value, for each key it gives
        self.built_system = None  # None without system.name
        self.built_slices = []  # a SliceSpec per eval.slices entry; none without a system
        self.loss_config = self.train_config = None

    def get(self, *keys):
        """Each key's value: the document's, else the table's default. One key
        gives its value, several a tuple. Raises one ConfigError naming every
        key among ``keys`` that is required and absent."""
        missing = [f"'{k}' is required" for k in keys
                   if k not in self.given and _TABLE[k].default is _REQUIRED]
        if missing:
            raise ConfigError(missing)
        values = [self.given[k] if k in self.given else _TABLE[k].default for k in keys]
        values = [v(self) if callable(v) else v for v in values]
        return values[0] if len(values) == 1 else tuple(values)

    def system(self):
        """The system that system.name names."""
        self.get("system.name")
        return self.built_system

    def slices(self):
        """The SliceSpec of each eval.slices entry, built on the system."""
        self.system()
        return self.built_slices


def parse_config(doc):
    """The RunConfig of a JSON document. Raises one ConfigError listing every
    unknown key and failed check, then what building the system and the
    slices from the values that passed raises."""
    if not isinstance(doc, dict):
        raise ConfigError(["config root must be a JSON object"])
    problems = [f"unknown top-level key '{k}'" for k in sorted(set(doc) - _CHILDREN[""])]
    given = {}
    for path in _PATHS:
        parent, _, name = path.rpartition(".")
        obj = given.get(parent) if parent else doc
        if obj is None or name not in obj:
            continue
        value, check = obj[name], _TABLE[path].check if path in _TABLE else _OBJECT
        if not check.test(value):
            problems.append(check.problem.format(path, value))
            continue
        given[path] = value
        if path in _CHILDREN:
            problems += [f"unknown key '{path}.{k}'" for k in sorted(set(value) - _CHILDREN[path])]
    cfg = RunConfig(raw=doc, given=given)
    if "system.name" in given:
        try:
            cfg.built_system = make_system(*cfg.get("system.name", "system.params"))
        except ConfigError as err:
            problems += err.problems
    system = cfg.built_system
    box = given.get("eval.grid.box")
    if system is not None and box is not None and len(box) != system.dim:
        problems.append(f"eval.grid.box has {len(box)} rows, system '{system.name}' "
                        f"has dimension {system.dim}")
    for i, sl in enumerate(cfg.get("eval.slices")):
        found = _slice_problems(f"eval.slices[{i}]", sl)
        problems += found
        if not found and system is not None:
            try:
                cfg.built_slices.append(_build_slice(i, sl, system))
            except QplandError as err:
                problems.append(str(err))
    if problems:
        raise ConfigError(problems)
    cfg.loss_config = _build(LossConfig, "loss.", given)
    cfg.train_config = _build(TrainConfig, "train.", given)
    return cfg


def _build(cls, prefix, given):
    """``cls`` from the keys under ``prefix``, which passed the checks of the
    fields they set; every other field keeps its default."""
    return cls(**{_TABLE[k].field: v for k, v in given.items() if k.startswith(prefix)})


def _slice_problems(where, sl):
    """The shape of one entry of eval.slices. Which coordinates it names is
    ``planar_slice``'s check, against the system's dimension."""
    if not isinstance(sl, dict):
        return [_OBJECT.problem.format(where, sl)]
    problems = [f"unknown key '{where}.{key}'" for key in sorted(set(sl) - set(_SLICE))]
    if ("embedding" in sl) == ("axes" in sl):
        problems.append(f"{where}: give exactly one of 'axes' or 'embedding'")
    if "box" not in sl:
        problems.append(f"{where}: 'box' is required")
    return problems + [check.problem.format(f"{where}.{key}", sl[key])
                       for key, check in _SLICE.items() if key in sl and not check.test(sl[key])]


def _build_slice(i, sl, system):
    """The SliceSpec of entry ``i`` of eval.slices, whose shape has passed
    ``_slice_problems``."""
    name = sl.get("name", f"slice{i}")
    resolution = sl.get("resolution", 101)
    resolution = (resolution, resolution) if is_int(resolution) else tuple(resolution)
    if "axes" in sl:
        return planar_slice(system.dim, sl["axes"], sl.get("fixed", {}), sl["box"], resolution,
                            name=name)
    if system.name != "brusselator":
        raise ConfigError([f"eval.slices[{i}]: embedding '{sl['embedding']}' needs the "
                           f"brusselator system, not '{system.name}'"])
    return SliceSpec(name=name, box=np.asarray(sl["box"], dtype=np.float64),
                     resolution=resolution, to_state=_EMBEDDINGS[sl["embedding"]](system),
                     axis_names=("a1", "a2"))


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except ValueError as err:  # not JSON, or not UTF-8 text
        raise ConfigError([f"config {path}: invalid JSON ({err})"]) from None
    return parse_config(doc)
