"""Config values are read in one place: outside ``config.py`` no module of
``src/qpland`` calls ``.get`` on, or subscripts, a RunConfig block; commands
read every value through ``RunConfig.get``."""

import ast
from pathlib import Path

import pytest

from qpland.config import parse_config
from qpland.errors import ConfigError

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
