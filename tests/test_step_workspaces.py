"""Every Runge-Kutta step in ``src/qpland`` runs through a workspace: each
``rk2_step`` or ``rk4_step`` call passes ``workspace=``, so that no caller
goes back to a step whose stages are allocated at every call."""

import ast
from pathlib import Path

from conftest import called_name

SRC = Path(__file__).resolve().parents[1] / "src" / "qpland"
STEPS = {"rk2_step", "rk4_step"}


def steps_without_a_workspace(src=SRC):
    """``module:line`` of each step call in ``src`` that passes no
    ``workspace`` keyword."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and called_name(node) in STEPS
                    and "workspace" not in {k.arg for k in node.keywords}):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_step_passes_a_workspace():
    assert steps_without_a_workspace() == []


def test_guard_flags_a_step_without_one(tmp_path):
    files = {
        "integrators": "def rk4_step(field, x, dt, *, out=None, workspace=None):\n"
                       "    return x\n",
        "kept": "from .integrators import rk4_step\n\n\n"
                "def f(field, x, ws):\n    return rk4_step(field, x, 0.1, workspace=ws)\n",
        "bare": "from .integrators import rk2_step\n\n\n"
                "def f(field, x):\n    return rk2_step(field, x, 0.1)\n",
        "dotted": "from . import integrators\n\n\n"
                  "def f(field, x, out):\n"
                  "    return integrators.rk4_step(field, x, 0.1, out=out)\n",
    }
    for name, text in files.items():
        (tmp_path / f"{name}.py").write_text(text, encoding="utf-8")
    assert steps_without_a_workspace(tmp_path) == ["bare:5", "dotted:5"]
