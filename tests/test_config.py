"""Config values are read in one place: outside ``config.py`` no module of
``src/qpland`` calls ``.get`` on, or subscripts, a RunConfig block; commands
read every value through ``RunConfig.get``."""

import ast
import dataclasses
from pathlib import Path

import pytest

from qpland.config import _TABLE, parse_config
from qpland.errors import ConfigError
from qpland.training import LossConfig, TrainConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "qpland"

BLOCKS = {"data", "sampling", "model", "loss", "train", "eval"}


def _is_block(node, aliases):
    return ((isinstance(node, ast.Attribute) and node.attr in BLOCKS)
            or (isinstance(node, ast.Name) and node.id in aliases))


def block_reads(src=SRC):
    """Sorted ``module:line`` of each ``x.<block>.get(...)`` call or ``x.<block>[...]``
    subscript in a module of ``src`` other than ``config.py``, also through a
    name assigned ``x.<block>``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "config.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {target.id for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and _is_block(node.value, set())
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript):
                read = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get"):
                read = node.func.value
            else:
                continue
            if _is_block(read, aliases):
                found.append((path.stem, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(set(found))]


def test_no_module_but_config_reads_a_block():
    assert block_reads() == []


def test_guard_flags_block_reads(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(cfg):\n"
        "    data = cfg.data\n"
        "    n = data['N']\n"
        "    width = cfg.model.get('hidden_width', 50)\n"
        "    return n, width, cfg.get('data.N'), cfg.sampling\n",
        encoding="utf-8")
    (tmp_path / "config.py").write_text("def g(cfg):\n    return cfg.train['batch']\n",
                                        encoding="utf-8")
    assert block_reads(tmp_path) == ["mod:3", "mod:4"]


def test_get_names_every_absent_required_key_at_once():
    cfg = parse_config({"system": {"name": "bistable3d"}, "data": {"dt": 0.01}})
    assert cfg.get("data.dt") == 0.01
    with pytest.raises(ConfigError) as exc:
        cfg.get("data.N", "data.dt", "data.T")
    assert exc.value.problems == ["'data.N' is required", "'data.T' is required"]


def test_field_keys_take_the_field_check_and_default():
    # the check and the default of a key that sets a dataclass field are the
    # field's own objects, so no second copy of either can drift from it
    classes = {"loss": LossConfig, "train": TrainConfig}
    for block, cls in classes.items():
        keys = {k: key for k, key in _TABLE.items() if k.startswith(f"{block}.")}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        assert sorted(key.field for key in keys.values()) == sorted(fields)
        for k, key in keys.items():
            assert key.check is fields[key.field].metadata["check"], k
            assert key.default == fields[key.field].default, k
    assert all(key.field is None for k, key in _TABLE.items()
               if k.partition(".")[0] not in classes)


def test_system_domain_is_not_a_key():
    with pytest.raises(ConfigError) as exc:
        parse_config({"system": {"name": "bistable3d", "domain": [[-9.0, 9.0]] * 3}})
    assert exc.value.problems == ["unknown key 'system.domain'"]


def test_grid_box_defaults_to_the_sampling_box():
    cfg = parse_config({"system": {"name": "bistable3d"}, "eval": {"grid": {}}})
    assert cfg.get("eval.grid.box") is cfg.system().domain
