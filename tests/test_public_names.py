"""Every public top-level function or class in ``src/qpland``, and every
public method of such a class, has a use in ``src/`` other than its own
definition; one that has none should go."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpland"

ALLOWED_UNUSED = {
    # the loss without its gradient, kept as the reference that the
    # finite-difference gradient tests and the benchmark's gradient check
    # differentiate numerically
    "training.total_loss",
    # the benchmark's dataset save/load round-trip check is its only caller
    "datasets.TrajectoryDataset.equals",
}


def _names_used(node):
    """Names a subtree refers to, with multiplicity: Name ids, Attribute
    attrs, imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _public_defs(stmt, prefix):
    """(qualified name, bare name, node) of ``stmt`` if it is a public def or
    class, and of the public methods of a public class."""
    if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
        return []
    qualified = f"{prefix}.{stmt.name}"
    out = [(qualified, stmt.name, stmt)]
    if isinstance(stmt, ast.ClassDef):
        out += [(f"{qualified}.{sub.name}", sub.name, sub) for sub in stmt.body
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def unused_public_names(src=SRC):
    """Qualified name of each public top-level def or class, and of each
    public method of such a class, whose name the modules in ``src``
    (``__init__`` aside) use nowhere outside its own definition."""
    defined = []
    used = Counter()
    for path in sorted(src.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in module.body:
            defined += _public_defs(stmt, path.stem)
        if path.stem != "__init__":
            used += _names_used(module)
    return {qualified for qualified, name, node in defined
            if used[name] - _names_used(node)[name] <= 0}


def test_every_public_name_has_a_use_in_src():
    assert unused_public_names() == ALLOWED_UNUSED


def test_guard_flags_a_name_that_only_its_own_body_uses(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def caller():\n    return used()\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def _private():\n    return 0\n\n\n"
        "class Thing:\n"
        "    def __init__(self):\n        self.n = self.called()\n\n"
        "    def called(self):\n        return 1\n\n"
        "    def dead(self):\n        return self.dead()\n\n"
        "    def _helper(self):\n        return 0\n\n\n"
        "THING = Thing()\n",
        encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .mod import recursive\n", encoding="utf-8")
    assert unused_public_names(tmp_path) == {"mod.caller", "mod.recursive", "mod.Thing.dead"}
