"""Every public top-level function or class in ``src/qpland`` has a use in
``src/`` other than its own definition; one that has none should go."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpland"

# training.total_loss has no caller in src/: it is the loss without its
# gradient, kept as the reference that the finite-difference gradient tests
# and the benchmark's gradient check differentiate numerically
ALLOWED_UNUSED = {"training.total_loss"}


def _names_used(node):
    """Names a subtree refers to: Name ids, Attribute attrs, imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unused_public_names(src=SRC):
    """``module.name`` of each public top-level def or class that no other
    top-level statement of a module in ``src`` (``__init__`` aside) uses."""
    defined = []  # (module, name, defining statement)
    uses = []  # (defining statement or None, names the statement uses)
    for path in sorted(src.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in module.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined.append((path.stem, stmt.name, stmt))
            if path.stem != "__init__":
                uses.append((stmt, _names_used(stmt)))
    return {f"{mod}.{name}" for mod, name, stmt in defined
            if not any(name in names for owner, names in uses if owner is not stmt)}


def test_every_public_name_has_a_use_in_src():
    assert unused_public_names() == ALLOWED_UNUSED


def test_guard_flags_a_name_that_only_its_own_body_uses(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def caller():\n    return used()\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "def _private():\n    return 0\n",
        encoding="utf-8")
    (tmp_path / "__init__.py").write_text("from .mod import recursive\n", encoding="utf-8")
    assert unused_public_names(tmp_path) == {"mod.caller", "mod.recursive"}
