"""Gradients are return values: in ``src/qpland`` only
``training._block_sums`` and ``ModelGrads.add_scaled`` add into a
``.potential`` or ``.rotational`` attribute, so no VJP or loss block adds
its parameter gradient into an argument the caller passes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpland"

ALLOWED = {"training._block_sums", "decomposition.ModelGrads.add_scaled"}


def _definitions(tree):
    """``(name, node)`` of each top-level function, each method (as
    ``Class.method``) and the rest of the module (as ``<module>``); a
    nested function counts as part of the definition it sits in."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", "<class body>")
                yield f"{node.name}.{name}", item
        else:
            yield "<module>", node


def gradient_accumulators(src=SRC):
    """``module.definition`` names in ``src`` that hold an augmented
    assignment to a ``.potential`` or ``.rotational`` attribute."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _definitions(tree):
            if any(isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute)
                   and n.target.attr in ("potential", "rotational") for n in ast.walk(node)):
                found.add(f"{path.stem}.{name}")
    return found


def test_only_the_block_reduction_and_add_scaled_accumulate_gradients():
    assert gradient_accumulators() == ALLOWED


def test_guard_flags_an_out_parameter(tmp_path):
    files = {
        "grads": "class ModelGrads:\n"
                 "    def add_scaled(self, other, scale):\n"
                 "        self.potential += scale * other.potential\n",
        "returned": "def vjp(c):\n    g = c * 2\n    return g, c\n",
        "assigned": "def fill(grads, g):\n    grads.potential = g\n",
        "out_param": "def vjp(c, grads):\n    grads.rotational += c\n    return c\n",
        "nested": "def loss(grads):\n"
                  "    def block(g):\n        grads.potential -= g\n"
                  "    return block\n",
    }
    for name, text in files.items():
        (tmp_path / f"{name}.py").write_text(text, encoding="utf-8")
    assert gradient_accumulators(tmp_path) == {"grads.ModelGrads.add_scaled",
                                               "out_param.vjp", "nested.loss"}
