"""Every located NonFiniteError comes from ``errors.check_finite``: no
module in ``src/qpland`` but ``errors.py`` calls ``NonFiniteError(``, so
the rule for where a NaN or inf is reported stays in one place."""

import ast
from pathlib import Path

from conftest import called_name

SRC = Path(__file__).resolve().parents[1] / "src" / "qpland"


def modules_building_non_finite_errors(src=SRC):
    """Names of the modules in ``src``, ``errors`` aside, that call
    ``NonFiniteError`` by name or as an attribute."""
    return {path.stem for path in sorted(src.glob("*.py")) if path.stem != "errors"
            and any(isinstance(node, ast.Call) and called_name(node) == "NonFiniteError"
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}


def test_only_errors_builds_a_non_finite_error():
    assert modules_building_non_finite_errors() == set()


def test_guard_flags_a_direct_call(tmp_path):
    files = {
        "errors": "class NonFiniteError(Exception):\n    pass\n\n\n"
                  "def check_finite(where):\n    raise NonFiniteError(where)\n",
        "checked": "from .errors import check_finite\n\n\n"
                   "def f():\n    check_finite('f')\n",
        "caught": "from .errors import NonFiniteError\n\n\n"
                  "def f(g):\n    try:\n        g()\n    except NonFiniteError:\n        pass\n",
        "direct": "from .errors import NonFiniteError\n\n\n"
                  "def f():\n    raise NonFiniteError('f')\n",
        "dotted": "from . import errors\n\n\n"
                  "def f():\n    raise errors.NonFiniteError('f')\n",
    }
    for name, text in files.items():
        (tmp_path / f"{name}.py").write_text(text, encoding="utf-8")
    assert modules_building_non_finite_errors(tmp_path) == {"direct", "dotted"}
